"""Frozen sha256 digests of every artifact of six fixed CLI invocations.

The digests were recorded from the code before the Hamiltonian moved from
Fraction to float64 coefficients, so any change to the bytes of the node/edge
CSVs, trajectories, summary, binned curves or manifest fails here, across
processes and not only within one. The runs use relative paths inside
``tmp_path`` so ``run_manifest.json`` does not depend on where the test runs.

The published uf20 files list each clause's literals in one fixed order. Two
more compiles, under both gadgets, pin inputs outside it: a copy of
uf20-sb-001 with every clause's literals permuted by a fixed PCG64 stream, and
a small formula mixing 1-, 2- and 3-literal clauses with tautological ones.

To regenerate after an intended change of the artifacts, print the digests
with ``PYTHONPATH=src python tests/test_golden.py`` from the repository root
and paste the output over ``GOLDEN``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from spinsat.cli import main
from spinsat.cnf import Clause, Formula, parse_dimacs_file, write_dimacs

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "uf20"
INSTANCES = ("uf20-sb-001", "uf20-sb-002", "uf20-sb-003")
RUNS = (
    ("run", "in", "--outdir", "out"),
    ("run", "in", "--paper-literal-gadget", "--outdir", "out_literal"),
    ("compile", "in", "--k-factor", "12.25", "--outdir", "out_k"),
    ("compile", "in_order", "--outdir", "out_order"),
    ("compile", "in_order", "--paper-literal-gadget", "--outdir", "out_order_literal"),
    ("anneal", "in/uf20-sb-001.cnf", "--sweeps", "--steps", "40", "--outdir", "out_sweeps"),
)
INPUT_DIRS = ("in", "in_order")
SHUFFLE_SEED = 20251101
MIXED_CNF = """p cnf 6 9
1 0
-2 3 0
4 -5 6 0
2 -2 5 0
-6 -1 0
3 -3 0
-4 -5 -6 0
5 1 -3 0
-2 0
"""

GOLDEN = {
    "out/binned_curves.csv": "777579159d1d8aa3aeefb48f026ec7274a0c4b3237061344b7e9a3609862475a",
    "out/ising_edges_uf20-sb-001.csv": "1ae474024eb5e48b0635171cae1d6507e2eb5ae1b15684ac46429a044cbaa601",
    "out/ising_edges_uf20-sb-002.csv": "7f40188b8b43fa4a9d70f82e0e5f5a9178fae431eb772f4ef18b076842fac18f",
    "out/ising_edges_uf20-sb-003.csv": "3a3e996f029ac4079f9685bdfdcad249173103c97a54c1a9525c1e077f609b42",
    "out/ising_nodes_uf20-sb-001.csv": "929a7e35f9f700d193e9b0d3d623cf437a1826e872b4f4fd35b68981effac415",
    "out/ising_nodes_uf20-sb-002.csv": "6b044627d336cf13ab808d9718f78deec6e665bd591b949dd53a8b60107dc04a",
    "out/ising_nodes_uf20-sb-003.csv": "3aa88244a1d2d2d02d8c827b9962270c6b802e57dab3ebfa2d4e0c1730d9bfa2",
    "out/paper_quickpub_summary.csv": "bee6d0ab97d35352981bc5780c6658fc9a64274cc0aab949e01e87b3b9420b8d",
    "out/run_manifest.json": "f85a4881471c23bf20d40f8cd74e479f8c4d7e8c334bfc14ada1a72df7f0068b",
    "out/traj_uf20-sb-001_6850372879401828887.csv": "d062ed10254461b8d40a4fce86afa5c79ddba2b3ec546585f5364136c5a773e8",
    "out/traj_uf20-sb-002_5850926556316708003.csv": "cff19670f5368cb2fda60201cd8dfaad4c7db4ad2d99cd362f8412dd31437c74",
    "out/traj_uf20-sb-003_5141025556837952335.csv": "41c0e041a26c3a9727e5db6dc63e5b6c322ce9a9f8614f5dc2ad1454ff579d11",
    "out_k/ising_edges_uf20-sb-001.csv": "cd573400d83e83653d200c3620c09219744b7ab23d1b537ddf92d2eac3f93203",
    "out_k/ising_edges_uf20-sb-002.csv": "ccd2cb5ba9b0b5ec1242d2789ea40734936afe391866cde4d3bec31e175d2e2a",
    "out_k/ising_edges_uf20-sb-003.csv": "5b6a8b8ebdfe9be631615ad643c291f21ad43ec1b8b135bb198219e8cc539b8c",
    "out_k/ising_nodes_uf20-sb-001.csv": "083d28a19199a01ae1f1220ab83dda105098e90f2a9c8de7814812ac0301dd83",
    "out_k/ising_nodes_uf20-sb-002.csv": "d19c2d82d12789499172abd7f9c065b9b2a7d0fa471cfda2c2b0dd8c44f6f456",
    "out_k/ising_nodes_uf20-sb-003.csv": "4d782f9d61f9a30d3968157bafd24e332281d6649118af15aafb3a094e69127b",
    "out_literal/binned_curves.csv": "390246fd1757719c4545c5014c4c0f58a43fb2c1eb88cb680f7addee1f1980e7",
    "out_literal/ising_edges_uf20-sb-001.csv": "a3523de7493323eaaf421d3d4921627e5059ab1e93402464bddd283b7693b354",
    "out_literal/ising_edges_uf20-sb-002.csv": "df0383bedde003da2cb0531537231647785890c0c0a9c0c5b90235fb2cf8c0ba",
    "out_literal/ising_edges_uf20-sb-003.csv": "241500b5c7c61343094b163fee09c0d176029742142da50dff859f57117b61ad",
    "out_literal/ising_nodes_uf20-sb-001.csv": "dd0ce0e70e6b0552ec444f96722dad8eb3173e3d387fdc966dfffd349f45f724",
    "out_literal/ising_nodes_uf20-sb-002.csv": "ec5f57e814405372cc8a9f9df4fff94527fb0ef1e3f7a91aa558b5733304dca5",
    "out_literal/ising_nodes_uf20-sb-003.csv": "ca55150dafcfdce2f181c12cd7d377b658d6fa687cee4ec57a47e6543e9e31b0",
    "out_literal/paper_quickpub_summary.csv": "6913e9f89dfaedb3f0c2daae6ee7dc834ad8634c355737edb03ce1870223ce0c",
    "out_literal/run_manifest.json": "94d142b0513fa1ccef1f9707da932ee0ccb61aadbeaed346f8411befef8c3a35",
    "out_literal/traj_uf20-sb-001_6850372879401828887.csv": "75aae5dce8dcca3a620ce6f936ff9d46f24836e3de02d9ddf9f341c5e26304f1",
    "out_literal/traj_uf20-sb-002_5850926556316708003.csv": "a29bee4aadd441882daaa310cb93bd6b38e5d19e6db0cf2bb9d4146949c770bf",
    "out_literal/traj_uf20-sb-003_5141025556837952335.csv": "6a2a66e77ef9e732dc1cb8dff7a583dc7933d30f2ecd871505941d82e942c6e3",
    "out_order/ising_edges_mixed-width.csv": "02aacbb20588e5a6b15aa6ebef0b269facdef07e9c771eff1b4b08b54876ff76",
    "out_order/ising_edges_uf20-sb-001-shuffled.csv": "930fe1ac3fb2419e8809626e4abe1f0cac4bb2829b2aca72fb99f5b8cbe6397c",
    "out_order/ising_nodes_mixed-width.csv": "77aba238d6f8af4e33ff705bcdf724c39090a52159f544c7da68e3e2595cd82d",
    "out_order/ising_nodes_uf20-sb-001-shuffled.csv": "f8d036430a0fa957e6253a6f06023755e85f93514dc5d49ae4279e2cdfa1bea7",
    "out_order_literal/ising_edges_mixed-width.csv": "32966c9fbac5fe038bd4652503972a12fd854b23e3871e4f5728fdeeaaf116e0",
    "out_order_literal/ising_edges_uf20-sb-001-shuffled.csv": "3e4140e7ed431a2f73fdac50a9a3682ba02edae85f29758cf6788c670b9c4e09",
    "out_order_literal/ising_nodes_mixed-width.csv": "ce76ea15460509a616eeaca2175050976c2bd21af3dfa6dd6af0a1844d6a25da",
    "out_order_literal/ising_nodes_uf20-sb-001-shuffled.csv": "046840abd303b2380c449f63e039733fbb6d07c05e4b6429f0c624f59d24706f",
    "out_sweeps/traj_uf20-sb-001_6850372879401828887.csv": "9054327ac207307fbfaabe1050609639268493642a1550a8f020c10d614174c8",
}


def shuffled_literals(f: Formula, seed: int) -> Formula:
    """``f`` with each clause's literals permuted by one PCG64 stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Formula(
        f.num_vars,
        tuple(
            Clause(tuple(c.literals[int(i)] for i in rng.permutation(len(c.literals))))
            for c in f.clauses
        ),
    )


def write_inputs(workdir: Path) -> None:
    (workdir / "in").mkdir()
    for stem in INSTANCES:
        shutil.copyfile(DATA_DIR / f"{stem}.cnf", workdir / "in" / f"{stem}.cnf")
    (workdir / "in_order").mkdir()
    shuffled = shuffled_literals(parse_dimacs_file(DATA_DIR / f"{INSTANCES[0]}.cnf"), SHUFFLE_SEED)
    (workdir / "in_order" / f"{INSTANCES[0]}-shuffled.cnf").write_text(
        write_dimacs(shuffled), encoding="utf-8"
    )
    (workdir / "in_order" / "mixed-width.cnf").write_text(MIXED_CNF, encoding="utf-8")


def artifact_digests(workdir: Path) -> dict[str, str]:
    """Run the fixed invocations inside ``workdir``; sha256 of every file written."""
    write_inputs(workdir)
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in RUNS:
                assert main(list(argv)) == 0, argv
    finally:
        os.chdir(previous)
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.parent.name not in INPUT_DIRS
    }


def print_digests() -> None:
    os.environ.pop("SPINSAT_OUTDIR", None)
    with tempfile.TemporaryDirectory() as scratch:
        for name, digest in artifact_digests(Path(scratch)).items():
            print(f'    "{name}": "{digest}",')


def test_artifact_digests_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("SPINSAT_OUTDIR", raising=False)
    assert artifact_digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    print_digests()
