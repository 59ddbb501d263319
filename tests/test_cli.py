from __future__ import annotations

import ast
import concurrent.futures
import functools
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import spinsat
from spinsat import analysis, cli, cnf, satcore
from spinsat.anneal import Schedule, anneal, trajectory_csv, trajectory_filename
from spinsat.cli import derive_seed, main
from spinsat.cnf import ParseWarning, parse_dimacs_file
from spinsat.ising import compile as compile_hamiltonian
from spinsat.satcore import brute_force_models

from reference import (
    model_tuples,
    reference_binned_curves,
    reference_enumerate,
    reference_logical_energy,
)

UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"
# Stands for the path of a regular file in a test's config settings.
A_FILE = "<a regular file>"


def run_cli(args: list[str]) -> int:
    return main(args)


def read_all_outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def run_process(argv: list[str]) -> subprocess.CompletedProcess:
    """``spinsat`` in a process of its own, so that pytest's capture hides
    neither pool workers' output nor anything ``warnings`` would print."""
    env = {**os.environ, "PYTHONPATH": str(Path(spinsat.__file__).resolve().parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "spinsat", *argv], capture_output=True, text=True, env=env
    )


def copies(corpus: Path, uf20_paths: list[Path], count: int) -> Path:
    """``corpus`` holding ``count`` copies of the uf20 files, cycled, named
    ``copy-000.cnf`` onwards."""
    corpus.mkdir()
    for k in range(count):
        shutil.copyfile(uf20_paths[k % len(uf20_paths)], corpus / f"copy-{k:03d}.cnf")
    return corpus


@pytest.fixture()
def small_corpus(tmp_path, uf20_paths) -> Path:
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for p in uf20_paths[:3]:
        (corpus / p.name).write_text(p.read_text(encoding="utf-8"), encoding="utf-8")
    return corpus


def test_derive_seed_stable_and_name_local():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(1, "a") != derive_seed(0, "a")


def test_gen_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli([
            "gen", "--n", "6", "--m", "20", "--count", "3", "--seed", "5",
            "--outdir", str(out),
        ]) == 0
    assert read_all_outputs(out_a) == read_all_outputs(out_b)


def test_gen_satisfiable_only(tmp_path):
    from spinsat import cnf, satcore

    out = tmp_path / "gen"
    assert run_cli([
        "gen", "--n", "8", "--m", "40", "--count", "4", "--seed", "0",
        "--satisfiable-only", "--outdir", str(out),
    ]) == 0
    for p in sorted(out.glob("*.cnf")):
        assert satcore.solve(cnf.parse_dimacs_file(p)) is not None


def test_gen_recipe_reproduces_the_bundled_uf20_set(tmp_path, uf20_paths):
    # The README "Benchmark data" recipe; it also pins --satlib-footer and the
    # generator's PCG64 stream on every NumPy the suite runs on.
    out = tmp_path / "uf20"
    assert run_cli([
        "gen", "--n", "20", "--m", "91", "--count", "12", "--seed", "1", "--satisfiable-only",
        "--satlib-footer", "--prefix", "uf20-sb", "--outdir", str(out),
    ]) == 0
    assert read_all_outputs(out) == read_all_outputs(uf20_paths[0].parent)


def test_gen_satisfiable_only_gives_up_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "generate_random_3sat", lambda n, m, seed: cnf.parse_dimacs(UNSAT_CNF))
    out = tmp_path / "out"
    args = ["gen", "--n", "5", "--m", "2", "--count", "2", "--satisfiable-only", "--outdir", str(out)]
    assert run_cli(args) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: gave up after 1000 attempts; only 0/2 satisfiable instances found"
    ]
    assert captured.out == "" and not out.exists()


def test_compile_uf20_node_rows(tmp_path, uf20_paths):
    out = tmp_path / "out"
    assert run_cli(["compile", str(uf20_paths[0]), "--outdir", str(out)]) == 0
    nodes = (out / f"ising_nodes_{uf20_paths[0].stem}.csv").read_text()
    data_rows = [l for l in nodes.splitlines() if l and not l.startswith("#")][1:]
    assert len(data_rows) == 111


def test_compile_reruns_byte_identical(tmp_path, uf20_paths):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(["compile", str(uf20_paths[0]), "--outdir", str(out)]) == 0
    assert read_all_outputs(out_a) == read_all_outputs(out_b)


def test_compile_empty_directory_fails(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli(["compile", str(empty), "--outdir", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command", ["compile", "solve", "backbone", "anneal", "run"])
def test_bad_file_continues_batch(tmp_path, uf20_paths, capsys, command):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 99 0\n")
    good = uf20_paths[0].stem
    out = tmp_path / "out"
    if command in ("solve", "backbone"):
        # They take no --outdir; a config file names one, which they must leave alone.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"outdir": str(out)}))
        flags = ["--config", str(config)]
    else:
        flags = ["--outdir", str(out)] + (["--steps", "40"] if command in ("anneal", "run") else [])
    assert run_cli([command, str(bad), str(uf20_paths[0]), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {bad}: DimacsError: literal 99 exceeds declared variable count 2"
    ]
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [good]
    traj = f"traj_{good}_{derive_seed(0, good)}.csv"
    tables = [f"ising_edges_{good}.csv", f"ising_nodes_{good}.csv"]
    expected = {
        "compile": tables,
        "solve": [],
        "backbone": [],
        "anneal": [traj],
        "run": [analysis.SUMMARY_FILENAME, "binned_curves.csv", *tables, "run_manifest.json", traj],
    }[command]
    assert sorted(out.iterdir() if out.exists() else []) == sorted(out / n for n in expected)


@pytest.fixture()
def warning_corpus(small_corpus) -> Path:
    """The uf20 corpus plus files that warn under ``--lenient``, fail, or both."""
    (small_corpus / "broken.cnf").write_text("not a cnf\n")
    (small_corpus / "dup.cnf").write_text("p cnf 3 2\n1 1 2 0\n-1 3 -1 0\n")
    (small_corpus / "dup_bad.cnf").write_text("p cnf 2 2\n2 2 0\n1 99 0\n")
    (small_corpus / "short.cnf").write_text("p cnf 3 3\n1 2 3 0\n-1 -2 0\n")
    return small_corpus


def test_pooled_per_file_command_matches_serial(tmp_path, warning_corpus):
    config = tmp_path / "pooled.json"
    config.write_text(json.dumps({"workers": 2}))
    runs = []
    for label, extra in (("serial", []), ("pooled", ["--config", str(config)])):
        out = tmp_path / label
        argv = ["anneal", str(warning_corpus), "--lenient", "--steps", "60", "--outdir", str(out)]
        result = run_process([*argv, *extra])
        runs.append((result.returncode, result.stdout, result.stderr, read_all_outputs(out)))
    assert runs[0] == runs[1]
    code, _, stderr, outputs = runs[0]
    assert code == 1 and len(outputs) == 5
    assert stderr and all(
        line.startswith((f"warning: {warning_corpus}", f"error: {warning_corpus}"))
        for line in stderr.splitlines()
    )


def test_per_file_warnings_name_their_file_in_input_order(warning_corpus):
    result = run_process(["solve", str(warning_corpus), "--lenient"])
    assert result.returncode == 1
    c = warning_corpus
    assert result.stderr.splitlines() == [
        f"error: {c / 'broken.cnf'}: DimacsError: line 1: expected 'p cnf' header, got 'not a cnf'",
        f"warning: {c / 'dup.cnf'}: dropped 1 duplicate literal(s) in clause [1, 1, 2]",
        f"warning: {c / 'dup.cnf'}: dropped 1 duplicate literal(s) in clause [-1, 3, -1]",
        f"warning: {c / 'dup_bad.cnf'}: dropped 1 duplicate literal(s) in clause [2, 2]",
        f"error: {c / 'dup_bad.cnf'}: DimacsError: literal 99 exceeds declared variable count 2",
        f"warning: {c / 'short.cnf'}: header declares 3 clauses, found 2",
    ]
    assert ".py" not in result.stderr


def test_k_factor_warning_is_one_line_in_serial_and_pooled_runs(tmp_path, small_corpus):
    # Run as a process of its own, so pytest's warning capture cannot hide
    # what each worker would print.
    config = tmp_path / "pooled.json"
    config.write_text(json.dumps({"workers": 2}))
    env = {**os.environ, "PYTHONPATH": str(Path(spinsat.__file__).resolve().parent.parent)}
    stderr = []
    for label, extra in (("serial", []), ("pooled", ["--config", str(config)])):
        argv = ["anneal", str(small_corpus), "--k-factor", "4", "--steps", "50", *extra]
        result = subprocess.run(
            [sys.executable, "-m", "spinsat", *argv, "--outdir", str(tmp_path / label)],
            capture_output=True, text=True, env=env, check=True,
        )
        stderr.append(result.stderr)
    assert stderr[0] == stderr[1]
    lines = stderr[0].splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: k_factor below 8")
    assert ".py" not in lines[0] and str(tmp_path) not in lines[0]


def test_compile_rejects_k_factor_without_exact_coefficients(tmp_path, uf20_paths, capsys):
    out = tmp_path / "out"
    code = run_cli(["compile", str(uf20_paths[0]), "--k-factor", "20.3", "--outdir", str(out)])
    assert code == 1
    assert "k_factor must be a multiple of 1/1024" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_inputs_sharing_a_stem(tmp_path, uf20_paths, capsys):
    for name, source in (("a", uf20_paths[0]), ("b", uf20_paths[1])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "x.cnf").write_bytes(source.read_bytes())
    out = tmp_path / "out"
    code = run_cli(["run", str(tmp_path / "a"), str(tmp_path / "b"), "--outdir", str(out)])
    assert code == 1
    assert "share the stem 'x'" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_a_stem_the_summary_csv_cannot_hold(tmp_path, uf20_paths, capsys):
    # A comma in the stem would add a cell to its summary row, which
    # `report` then refuses; the run stops before any output instead.
    source = next(p for p in uf20_paths if p.stem == "uf20-sb-001")
    (tmp_path / "a,b.cnf").write_bytes(source.read_bytes())
    out = tmp_path / "out"
    code = run_cli(["run", str(tmp_path / "a,b.cnf"), "--outdir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "'a,b'" in err
    assert not out.exists()
    for stem in ('a"b', "a\rb", "a\nb"):
        (tmp_path / f"{stem}.cnf").write_bytes(source.read_bytes())
        assert run_cli(["run", str(tmp_path / f"{stem}.cnf"), "--outdir", str(out)]) == 1
        assert "summary CSV" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["compile", "solve", "backbone", "anneal", "run"])
def test_a_stem_that_is_not_valid_utf8_fails_before_any_work(tmp_path, uf20_paths, capsys, command):
    # The UTF-8 run manifest cannot hold such a stem and other commands would
    # print it as a raw byte, so every per-file command refuses it before any
    # work, as it refuses a comma.
    corpus = tmp_path / "in"
    corpus.mkdir()
    (corpus / uf20_paths[0].name).write_bytes(uf20_paths[0].read_bytes())
    try:
        with open(os.path.join(os.fsencode(corpus), b"\xff.cnf"), "wb") as handle:
            handle.write(uf20_paths[0].read_bytes())
    except OSError:
        pytest.skip("the filesystem refuses a file name that is not valid UTF-8")
    out = tmp_path / "out"
    flags = [] if command in ("solve", "backbone") else ["--outdir", str(out)]
    flags += ["--steps", "40"] if command in ("anneal", "run") else []
    assert run_cli([command, str(corpus), *flags]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'\\udcff' is not valid UTF-8" in err[0]
    assert captured.out == "" and not out.exists()


def test_directory_skips_subdirectories_named_cnf(tmp_path, uf20_paths, capsys):
    corpus = tmp_path / "in"
    (corpus / "sub.cnf").mkdir(parents=True)
    (corpus / uf20_paths[0].name).write_bytes(uf20_paths[0].read_bytes())
    assert run_cli(["solve", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 and uf20_paths[0].stem in captured.out
    assert captured.err == ""


def test_solve_reports_sat(uf20_paths, capsys):
    assert run_cli(["solve", str(uf20_paths[0])]) == 0
    assert "sat=true" in capsys.readouterr().out


def test_solve_reports_unsat(tmp_path, capsys):
    p = tmp_path / "unsat.cnf"
    p.write_text(UNSAT_CNF)
    assert run_cli(["solve", str(p)]) == 0
    assert "sat=false" in capsys.readouterr().out


def test_backbone_command(uf20_paths, capsys):
    assert run_cli(["backbone", str(uf20_paths[0]), "--exact"]) == 0
    out = capsys.readouterr().out
    assert "backbone=" in out and "backbone_exact=" in out


def test_backbone_stdout_reports_truncation_normalized_size_and_exact_size(uf20_paths, capsys):
    # uf20-sb-002 has one model; uf20-sb-005 has more than the cap of 120.
    assert run_cli(["backbone", str(uf20_paths[1]), str(uf20_paths[4]), "--exact"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "uf20-sb-002: models>=1 truncated=false backbone=20 normalized=1.000 backbone_exact=20",
        "uf20-sb-005: models>=120 truncated=true backbone=4 normalized=0.200 backbone_exact=4",
    ]


def test_backbone_of_a_formula_without_variables(tmp_path, capsys):
    empty = tmp_path / "empty.cnf"
    empty.write_text("p cnf 0 0\n")
    assert run_cli(["backbone", str(empty), "--exact"]) == 0
    assert capsys.readouterr().out == (
        "empty: models>=1 truncated=false backbone=0 normalized=n/a backbone_exact=0\n"
    )


def random_dimacs(rng: random.Random, low: int = 0, high: int = 24, ratio: int = 2) -> str:
    """DIMACS text over ``low`` to ``high`` variables and up to ``ratio``
    clauses a variable, now and then malformed: clauses of 0-4 literals,
    literals past the header's count, a wrong clause count, a missing final
    ``0`` and a SATLIB ``%`` footer. With few clauses, a formula near 24
    variables has millions of models."""
    n = rng.randint(low, high)
    top = n + 2 if rng.random() < 0.1 else n
    lengths = (0, 1, 2, 3, 3, 3, 4) if rng.random() < 0.2 else (1, 2, 3, 3, 3)
    clauses = [
        [rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(rng.choice(lengths) if top else 0)]
        for _ in range(rng.randint(0, ratio * n + 2))
    ]
    m = len(clauses) + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    lines = [" ".join(map(str, [*clause, 0])) for clause in clauses]
    if lines and rng.random() < 0.1:
        lines[-1] = lines[-1][:-1]
    if rng.random() < 0.3:
        lines += ["%", "0"]
    return "\n".join([f"p cnf {n} {m}", *lines]) + "\n"


EXPECTED_ERROR = re.compile(
    r"error: (.+?\.cnf): (DimacsError: .+"
    r"|ValueError: clause length \d > 3 not supported"
    r"|ValueError: cannot anneal a Hamiltonian with no core spins)"
)


def fuzz_corpus(tmp_path: Path, texts: list[str]) -> Path:
    """A corpus of the given DIMACS texts; stems with a space and with
    non-ASCII text name their outputs too."""
    corpus = tmp_path / "fuzz"
    corpus.mkdir()
    for k, text in enumerate(texts):
        stem = ("f{:03d}", "f {:03d}", "fé{:03d}", "f-数-{:03d}")[k % 4].format(k)
        (corpus / f"{stem}.cnf").write_text(text, encoding="utf-8")
    return corpus


def run_fuzz_commands(tmp_path: Path, corpus: Path, capsys, flags: list[str]):
    """Run solve, backbone, compile, run and report over ``corpus``, with
    ``flags`` for backbone and run. Every error line must name a file and an
    expected error, and each command exits 1 iff it printed one. Returns per
    command the files that failed and the stdout lines as ``(stem, rest)``;
    report, over the run's summary, must exit 0 or print one error line.
    For each stem both backbone and run handled, the printed ``backbone`` and
    ``backbone_exact`` equal the summary row's ``backbone_capped`` and
    ``backbone_exact``; an empty cell stands for an absent field."""
    failed, lines = {}, {}
    for command, args in [
        ("solve", []), ("backbone", ["--exact", *flags]),
        ("compile", ["--outdir", str(tmp_path / "compile")]),
        ("run", ["--steps", "30", "--outdir", str(tmp_path / "run"), *flags]),
    ]:
        code = run_cli([command, str(corpus), *args])
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if not line.startswith("warning: ")]
        matches = [EXPECTED_ERROR.fullmatch(line) for line in errors]
        assert all(matches), errors
        failed[command] = {match[1] for match in matches}
        assert code == (1 if errors else 0)
        lines[command] = [line.partition(": ")[::2] for line in captured.out.splitlines()]
    summary = tmp_path / "run" / analysis.SUMMARY_FILENAME
    rows = {row.instance: row for row in analysis.read_summary_csv(summary.read_text())}
    printed = {name: dict(item.split("=") for item in rest.split()) for name, rest in lines["backbone"]}
    assert rows.keys() & printed.keys()
    for name in rows.keys() & printed.keys():
        sizes = (rows[name].backbone_capped, rows[name].backbone_exact)
        assert (printed[name].get("backbone"), printed[name].get("backbone_exact")) == tuple(
            None if size is None else str(size) for size in sizes), name
    code = run_cli(["report", str(summary), "--outdir", str(tmp_path / "report")])
    err = capsys.readouterr().err.splitlines()
    assert (code, err) == (0, []) or code == 1 and len(err) == 1 and err[0].startswith("error: ")
    return failed, lines


def parse_fuzz_file(corpus: Path, stem: str) -> cnf.Formula:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParseWarning)
        return parse_dimacs_file(corpus / f"{stem}.cnf")


def test_seeded_fuzz_inputs_fail_cleanly_or_work(tmp_path, capsys):
    rng = random.Random(2111)
    corpus = fuzz_corpus(tmp_path, [random_dimacs(rng) for _ in range(120)])
    failed, lines = run_fuzz_commands(tmp_path, corpus, capsys, [])
    for name, rest in lines["solve"]:
        f = parse_fuzz_file(corpus, name)
        if rest == "sat=false":
            assert not model_tuples(brute_force_models(f)), name
        else:
            model = tuple(int(t) > 0 for t in rest.split("model=")[1].split())
            assert reference_logical_energy(f, model) == 0, name
    for name, rest in lines["backbone"]:
        if "truncated=false" in rest:
            fields = dict(item.split("=") for item in rest.split())
            assert fields["backbone"] == fields["backbone_exact"], name
    summary = (tmp_path / "run" / analysis.SUMMARY_FILENAME).read_text()
    assert len(analysis.read_summary_csv(summary)) == 120 - len(failed["run"])
    # Only parsing fails solve and backbone; compile and run fail on more.
    assert 0 < len(failed["solve"]) < 120
    assert failed["solve"] == failed["backbone"] <= failed["compile"] <= failed["run"]
    assert failed["run"] - failed["solve"]


def test_seeded_fuzz_past_brute_force_matches_the_reference_enumeration(tmp_path, capsys):
    # Past 24 variables there is no exact model set: backbone_exact is never
    # printed, and enumeration runs the backtracking search. The oracle is
    # the clause-major DPLL of tests/reference.py, which shares no code with
    # it. Up to 4 clauses a variable, some states end in a conflict.
    rng = random.Random(2909)
    corpus = fuzz_corpus(tmp_path, [random_dimacs(rng, 25, 40, 4) for _ in range(40)])
    cap = 40
    failed, lines = run_fuzz_commands(tmp_path, corpus, capsys, ["--cap", str(cap)])
    sat = {}
    for name, rest in lines["solve"]:
        f = parse_fuzz_file(corpus, name)
        sat[name] = rest != "sat=false"
        if sat[name]:
            model = tuple(int(t) > 0 for t in rest.split("model=")[1].split())
            assert reference_logical_energy(f, model) == 0, name
        else:
            assert not len(reference_enumerate(f, 1).models), name
    assert sorted(name for name, _ in lines["backbone"]) == sorted(sat)
    for name, rest in lines["backbone"]:
        expected = reference_enumerate(parse_fuzz_file(corpus, name), cap)
        assert (rest != "sat=false") == sat[name] == bool(len(expected.models)), name
        if sat[name]:
            always, ever = expected.models.all(axis=0), expected.models.any(axis=0)
            size = int((always | ~ever).sum())
            assert dict(item.split("=") for item in rest.split()) == {
                "models>": str(len(expected.models)),
                "truncated": str(expected.truncated).lower(),
                "backbone": str(size),
                "normalized": f"{size / expected.models.shape[1]:.3f}",
            }, name
    summary = (tmp_path / "run" / analysis.SUMMARY_FILENAME).read_text()
    assert len(analysis.read_summary_csv(summary)) == 40 - len(failed["run"])
    assert failed["solve"] == failed["backbone"] <= failed["run"]
    # Satisfiable and unsatisfiable formulas both occur.
    assert {True, False} <= set(sat.values())


@pytest.mark.parametrize("cap", [1, 3, 120])
def test_backbone_stdout_matches_unpruned_path(tmp_path, uf20_paths, monkeypatch, capsys, cap):
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text(UNSAT_CNF)
    args = ["backbone", *map(str, uf20_paths), str(unsat), "--cap", str(cap)]
    assert run_cli(args) == 0
    pruned = capsys.readouterr().out
    # With no formula small enough for an exact model set, enumeration runs unpruned.
    monkeypatch.setattr(satcore, "BRUTE_FORCE_MAX_VARS", -1)
    assert run_cli(args) == 0
    assert pruned == capsys.readouterr().out
    assert "backbone_exact=" not in pruned
    assert pruned.count("\n") == len(uf20_paths) + 1
    assert "unsat: sat=false\n" in pruned


def test_anneal_rejects_underflowing_schedule(tmp_path, uf20_paths, capsys):
    out = tmp_path / "out"
    assert run_cli([
        "anneal", str(uf20_paths[0]), "--outdir", str(out), "--alpha", "0.001", "--steps", "200",
    ]) == 1
    assert "temperature underflows to 0" in capsys.readouterr().err
    assert not out.exists()


def assert_fails_once_before_any_work(args: list[str], out: Path, capsys, flag: bool = True) -> None:
    """``args --outdir out`` (``args`` alone unless ``flag``, for a command
    whose config file names ``out``) prints one error line and leaves ``out``
    as it was: absent, or a regular file with the same bytes."""
    before = out.read_bytes() if out.exists() else None
    assert run_cli([*args, *(["--outdir", str(out)] if flag else [])]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert (out.read_bytes() if out.exists() else None) == before


@pytest.mark.parametrize("command", ["run", "anneal"])
@pytest.mark.parametrize(
    "schedule_flags", [["--alpha", "0.001", "--steps", "200"], ["--t0", "0"]]
)
def test_invalid_schedule_fails_once_before_any_work(
    tmp_path, uf20_paths, capsys, command, schedule_flags
):
    corpus = str(uf20_paths[0].parent)
    assert_fails_once_before_any_work([command, corpus, *schedule_flags], tmp_path / "out", capsys)


@pytest.mark.parametrize(
    "command, flags, settings",
    [
        ("run", ["--cap", "0"], {}),
        ("backbone", ["--cap", "0"], {}),
        ("run", ["--bins", "0"], {}),
        ("run", ["--beta-window", "1", "0.5"], {}),
        ("run", ["--beta-window", "0", "1"], {}),
        ("run", ["--k-factor", "0.3"], {}),
        ("anneal", [], {"gadget_mode": "bogus"}),
        ("run", [], {"cap": "5"}),
        ("run", [], {"bins": "60"}),
        ("run", [], {"beta_window": 0.5}),
        ("anneal", [], {"inputs": 5}),
        ("run", [], 5),
        ("run", [], [1]),
        ("run", [], '{"steps": 40'),
        ("compile", [], {"outdir": 5}),
        ("run", [], {"workers": "2"}),
        ("run", [], {"seed": "x"}),
        ("run", [], {"steps": 2.5}),
        ("anneal", [], {"steps": True}),
        ("run", [], {"cap": True}),
        ("anneal", [], {"sweeps": "yes"}),
        ("anneal", [], {"t0": True}),
        ("run", [], {"beta_window": [0.05, "1"]}),
        ("run", [], {"beta_window": [0.1]}),
        ("run", [], {"beta_window": [0.05, 0.5, 1.0]}),
        ("anneal", [], {"inputs": [5]}),
        ("anneal", ["--t0", "inf"], {}),
        ("run", ["--beta-window", "0.05", "inf"], {}),
        ("run", ["--workers", "0"], {}),
        ("run", [], {"workers": -3}),
        ("run", [], {"outdir": A_FILE}),
        ("anneal", [], {"outdir": A_FILE}),
        ("compile", [], {"outdir": A_FILE}),
    ],
    ids=["cap", "backbone-cap", "bins", "window-order", "window-zero",
         "k-factor", "gadget-mode", "cap-string", "bins-string", "window-scalar", "inputs-scalar",
         "not-object-number", "not-object-list", "malformed-json",
         "outdir-number", "workers-string", "seed-string", "steps-float", "steps-bool",
         "cap-bool", "sweeps-string", "t0-bool", "window-string-item", "window-short", "window-long",
         "inputs-number-item",
         "t0-inf", "window-inf", "workers-zero", "workers-negative",
         "outdir-file-run", "outdir-file-anneal", "outdir-file-compile"],
)
def test_invalid_setting_fails_once_before_any_work(
    tmp_path, uf20_paths, capsys, command, flags, settings
):
    out = tmp_path / "out"
    if isinstance(settings, dict) and settings.get("outdir") == A_FILE:
        # The config file and the flag both name a regular file as the outdir.
        out.write_text("kept\n")
        settings = {"outdir": str(out)}
    has_flag = command != "backbone"
    if not has_flag:
        # backbone takes no --outdir; the config file names the one it must leave alone.
        settings = {**settings, "outdir": str(out)}
    # A str is written as is (malformed JSON); anything else as its JSON.
    config = tmp_path / "config.json"
    config.write_text(settings if isinstance(settings, str) else json.dumps(settings))
    corpus = str(uf20_paths[0].parent)
    assert_fails_once_before_any_work(
        [command, corpus, "--config", str(config), *flags], out, capsys, flag=has_flag
    )


@pytest.mark.parametrize(
    "command, source",
    [("run", "env"), ("anneal", "env"), ("compile", "env"), ("gen", "env"), ("report", "env"),
     ("run", "config"), ("compile", "config"),
     ("run", "below"), ("anneal", "below"), ("gen", "below"), ("report", "below")],
)
def test_outdir_that_cannot_be_a_directory_fails_once_before_any_work(
    tmp_path, uf20_paths, monkeypatch, capsys, command, source
):
    # SPINSAT_OUTDIR or the config file names a regular file as the outdir,
    # or a flag names a directory below one.
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    outdir = blocker / "out" if source == "below" else blocker
    argv = {
        "gen": ["gen", "--n", "5", "--count", "2"],
        "report": ["report", str(write_synthetic_summary(tmp_path))],
    }.get(command, [command, str(uf20_paths[0])])
    if source == "env":
        monkeypatch.setenv("SPINSAT_OUTDIR", str(outdir))
    elif source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"outdir": str(outdir)}))
        argv += ["--config", str(config)]
    else:
        argv += ["--outdir", str(outdir)]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output directory {outdir}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("sweeps", [False, True], ids=["single", "sweeps"])
def test_anneal_command_writes_trajectory(tmp_path, uf20_paths, uf20_formulas, sweeps):
    out = tmp_path / "out"
    flags = ["--sweeps"] if sweeps else []
    assert run_cli([
        "anneal", str(uf20_paths[0]), "--outdir", str(out), "--steps", "20", "--seed", "8", *flags,
    ]) == 0
    f = uf20_formulas[0]
    seed = derive_seed(8, f.source_name)
    traj = anneal(compile_hamiltonian(f), f, Schedule(steps=20), seed, sweeps=sweeps)
    assert read_all_outputs(out) == {
        trajectory_filename(f.source_name, seed): trajectory_csv(traj).encode("utf-8")
    }


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_run_writes_files_with_the_mode_open_gives(tmp_path, small_corpus, umask):
    out = tmp_path / "out"
    old_umask = os.umask(umask)
    try:
        assert run_cli(["run", str(small_corpus), "--outdir", str(out), "--steps", "40"]) == 0
        with open(tmp_path / "plain.txt", "w") as plain:
            plain.write("")
    finally:
        os.umask(old_umask)
    expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert expected == 0o666 & ~umask
    assert len(modes) == 12 and set(modes.values()) == {expected}, modes


def test_anneal_sweeps_and_run_print_nothing_to_stderr(tmp_path, uf20_paths, small_corpus):
    # The anneal's numpy scan of frozen stretches must not leak a warning.
    for argv in (["anneal", str(uf20_paths[0]), "--sweeps"], ["run", str(small_corpus)]):
        result = run_process([*argv, "--outdir", str(tmp_path / argv[0])])
        assert (result.returncode, result.stderr) == (0, "")


def test_run_pipeline_outputs(tmp_path, small_corpus):
    out = tmp_path / "out"
    assert run_cli(["run", str(small_corpus), "--outdir", str(out), "--steps", "300"]) == 0
    summary = analysis.read_summary_csv((out / analysis.SUMMARY_FILENAME).read_text())
    assert len(summary) == 3
    assert all(s.sat for s in summary)
    assert all(s.backbone_capped is not None for s in summary)
    assert (out / "binned_curves.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["steps"] == 300
    assert len(manifest["instances"]) == 3
    assert all("seed" in row for row in manifest["instances"])


def test_run_deterministic_and_sorted(tmp_path, small_corpus):
    out = tmp_path / "out"
    args = ["run", str(small_corpus), "--outdir", str(out), "--steps", "120", "--seed", "9"]
    assert run_cli(args) == 0
    first = read_all_outputs(out)
    assert run_cli(args) == 0
    assert read_all_outputs(out) == first
    summary = (out / analysis.SUMMARY_FILENAME).read_text().splitlines()
    names = [line.split(",")[0] for line in summary[1:]]
    assert names == sorted(names)


def test_run_orders_rows_by_stem_and_writes_what_compile_and_anneal_write(
    tmp_path, uf20_paths, capsys
):
    # Name order would put a-b.cnf before a.cnf ("-" < "."); every output
    # follows stem order, which puts a first.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, source in zip(("a.cnf", "a-b.cnf"), uf20_paths):
        shutil.copyfile(source, corpus / name)
    settings = [str(corpus), "--steps", "60", "--seed", "3"]
    outs = {command: tmp_path / command for command in ("run", "compile", "anneal")}
    assert run_cli(["run", *settings, "--outdir", str(outs["run"])]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == ["a", "a-b"]
    assert run_cli(["compile", str(corpus), "--outdir", str(outs["compile"])]) == 0
    assert run_cli(["anneal", *settings, "--outdir", str(outs["anneal"])]) == 0
    run = read_all_outputs(outs["run"])
    summary = run[analysis.SUMMARY_FILENAME].decode().splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == ["a", "a-b"]
    manifest = json.loads(run["run_manifest.json"])
    assert [row["instance"] for row in manifest["instances"]] == ["a", "a-b"]
    per_file = {**read_all_outputs(outs["compile"]), **read_all_outputs(outs["anneal"])}
    assert len(per_file) == 6
    assert {name: run[name] for name in per_file} == per_file
    pooled = {analysis.SUMMARY_FILENAME, "binned_curves.csv", "run_manifest.json"}
    assert set(run) == set(per_file) | pooled


def test_run_without_steps_bins_every_row_at_t0_and_fits_no_beta(tmp_path, uf20_paths):
    # Nine rows: numpy's pairwise mean over 8 or more values is not a
    # left-to-right sum, and the one bin must keep the pairwise mean.
    corpus = copies(tmp_path / "corpus", uf20_paths, 9)
    out = tmp_path / "out"
    assert run_cli(["run", str(corpus), "--outdir", str(out), "--steps", "0"]) == 0
    lines = (out / "binned_curves.csv").read_text().splitlines()
    assert lines[0] == "bin_T,mean_E,mean_absM,count"
    assert len(lines) == 2 and lines[1].startswith("2.5,") and lines[1].endswith(",9")
    trajectories = []
    for path in sorted(corpus.glob("*.cnf")):
        f = parse_dimacs_file(path)
        trajectories.append(anneal(compile_hamiltonian(f), f, Schedule(steps=0), derive_seed(0, path.stem)))
    assert (out / "binned_curves.csv").read_text() == reference_binned_curves(trajectories).to_csv()
    assert json.loads((out / "run_manifest.json").read_text())["pooled_beta"] is None


def test_run_parallel_matches_serial(tmp_path, small_corpus):
    out = tmp_path / "out"
    base = ["run", str(small_corpus), "--steps", "120", "--seed", "2", "--outdir", str(out)]
    runs = []
    for workers in ("1", "3"):
        assert run_cli(base + ["--workers", workers]) == 0
        runs.append(read_all_outputs(out))
        shutil.rmtree(out)
    manifests = [json.loads(run.pop("run_manifest.json")) for run in runs]
    assert runs[0] == runs[1]
    for manifest in manifests:
        del manifest["config"]["workers"]  # the one setting the runs differ in
    assert manifests[0] == manifests[1]


def test_importing_cli_loads_no_process_pool():
    # Only a pooled run imports the process pool; every other command would
    # pay for multiprocessing, socket, logging and queue at start-up.
    env = {**os.environ, "PYTHONPATH": str(Path(spinsat.__file__).resolve().parent.parent)}
    code = ("import sys, spinsat.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_run_peak_memory_does_not_grow_with_the_batch(tmp_path, uf20_paths):
    # Each instance's Hamiltonian and trajectory are written and dropped as
    # it finishes, so four times the inputs cost no more memory at the peak.
    def peak(count: int) -> int:
        corpus = copies(tmp_path / f"corpus{count}", uf20_paths, count)
        tracemalloc.start()
        try:
            argv = ["run", str(corpus), "--outdir", str(tmp_path / f"out{count}"), "--steps", "600"]
            assert run_cli(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert run_cli(["run", str(uf20_paths[0]), "--outdir", str(tmp_path / "warm"), "--steps", "600"]) == 0
    small, large = peak(12), peak(48)
    assert large <= small + 1_000_000, (small, large)


@pytest.fixture()
def in_process_pool(monkeypatch):
    """Replaces the process pool with one that runs each job in this process
    when its result is taken. Records each pool's ``max_workers`` in
    ``pools``, and the number of jobs in flight after each submit in ``sizes``."""
    pending: set = set()
    log = {"pools": [], "sizes": [], "pending": pending}

    class Future:
        def __init__(self, call):
            self.call = call
            pending.add(self)
            log["sizes"].append(len(pending))

        def result(self):
            pending.remove(self)
            return self.call()

    class InProcessPool:
        def __init__(self, max_workers):
            log["pools"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def submit(self, fn, *args):
            return Future(functools.partial(fn, *args))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return log


def test_pooled_run_keeps_at_most_twice_the_workers_in_flight(tmp_path, uf20_paths, in_process_pool):
    corpus = copies(tmp_path / "corpus", uf20_paths, 20)
    out = tmp_path / "out"
    runs = []
    for workers in ("1", "2"):
        assert run_cli(["run", str(corpus), "--steps", "40", "--outdir", str(out), "--workers", workers]) == 0
        runs.append(read_all_outputs(out))
        shutil.rmtree(out)
    sizes = in_process_pool["sizes"]
    assert in_process_pool["pools"] == [2]
    assert len(sizes) == 20 and max(sizes) == 4 and not in_process_pool["pending"]
    manifests = [json.loads(run.pop("run_manifest.json")) for run in runs]
    assert runs[0] == runs[1] and len(runs[0]) == 62
    for manifest in manifests:
        del manifest["config"]["workers"]
    assert manifests[0] == manifests[1]


def test_pooled_run_starts_no_more_workers_than_files(tmp_path, uf20_paths, in_process_pool):
    # Under ``fork`` the pool starts all ``max_workers`` processes at the
    # first submit, so 3 files with ``--workers 64`` must ask for 3.
    corpus = copies(tmp_path / "corpus", uf20_paths, 3)
    out = tmp_path / "out"
    assert run_cli(["run", str(corpus), "--steps", "40", "--outdir", str(out), "--workers", "64"]) == 0
    assert in_process_pool["pools"] == [3] and len(in_process_pool["sizes"]) == 3
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["workers"] == 64
    assert len(manifest["instances"]) == 3 and not manifest["failures"]


def test_run_streams_past_a_failed_file_alike_serial_and_pooled(tmp_path, uf20_paths):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copyfile(uf20_paths[0], corpus / "a.cnf")
    (corpus / "b.cnf").write_text("not a cnf\n")
    shutil.copyfile(uf20_paths[1], corpus / "c.cnf")
    (corpus / "d.cnf").write_text("p cnf 3 3\n1 2 3 0\n-1 -2 0\n")
    runs = []
    for workers in ("1", "3"):
        out = tmp_path / "out"
        result = run_process(["run", str(corpus), "--lenient", "--steps", "40", "--outdir", str(out),
                              "--workers", workers])
        manifest = json.loads((out / "run_manifest.json").read_text())
        del manifest["config"]["workers"]
        outputs = read_all_outputs(out)
        del outputs["run_manifest.json"]
        runs.append((result.returncode, result.stdout, result.stderr, manifest, outputs))
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    code, _, stderr, manifest, outputs = runs[0]
    assert code == 1
    error = "DimacsError: line 1: expected 'p cnf' header, got 'not a cnf'"
    assert stderr.splitlines() == [
        f"error: {corpus / 'b.cnf'}: {error}",
        f"warning: {corpus / 'd.cnf'}: header declares 3 clauses, found 2",
    ]
    assert manifest["failures"] == [{"file": str(corpus / "b.cnf"), "error": error}]
    assert [row["instance"] for row in manifest["instances"]] == ["a", "b", "c", "d"]
    for stem in "acd":
        assert {f"ising_nodes_{stem}.csv", f"ising_edges_{stem}.csv"} <= set(outputs)
        assert len([name for name in outputs if name.startswith(f"traj_{stem}_")]) == 1
    assert not [name for name in outputs if name.endswith("_b.csv") or name.startswith("traj_b_")]


def test_run_reads_satisfiability_from_the_capped_models(tmp_path, small_corpus, monkeypatch):
    (small_corpus / "unsat.cnf").write_text(UNSAT_CNF)
    out = tmp_path / "out"
    args = ["run", str(small_corpus), "--steps", "40", "--outdir", str(out)]
    assert run_cli(args) == 0
    unpatched = read_all_outputs(out)

    def no_solve(formula):
        raise AssertionError("run called solve")

    monkeypatch.setattr(cli, "solve", no_solve)
    assert run_cli(args) == 0
    assert read_all_outputs(out) == unpatched


def test_run_calls_instance_hook_once_per_instance(tmp_path, small_corpus, monkeypatch):
    # perfbench/run.py times `spinsat run` by wrapping `cli._run_instance` and
    # reading the instance path from job[0]; it must see one call per instance.
    calls = []
    original = cli._run_instance

    def counted(job, *args, **kwargs):
        calls.append(Path(job[0]).stem)
        return original(job, *args, **kwargs)

    monkeypatch.setattr(cli, "_run_instance", counted)
    out = tmp_path / "out"
    args = ["run", str(small_corpus), "--outdir", str(out), "--workers", "1", "--steps", "40"]
    assert run_cli(args) == 0
    assert calls == sorted(p.stem for p in small_corpus.glob("*.cnf"))


def test_perfbench_traced_names_exist():
    # perfbench/run.py wraps each (owner, attribute) of its TRACED table by name.
    source = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    )
    assert table.elts
    for row in table.elts:
        owner = functools.reduce(getattr, ast.unparse(row.elts[0]).split("."), spinsat)
        assert hasattr(owner, row.elts[1].value), ast.unparse(row)


def test_run_unsat_degrades_gracefully(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "unsat.cnf").write_text(UNSAT_CNF)
    out = tmp_path / "out"
    assert run_cli(["run", str(corpus), "--outdir", str(out), "--steps", "40"]) == 0
    rows = (out / analysis.SUMMARY_FILENAME).read_text().splitlines()
    header = rows[0].split(",")
    row = rows[1].split(",")
    assert row[header.index("sat")] == "false"
    assert row[header.index("backbone_capped")] == ""
    assert row[header.index("mean_slack")] == ""
    # annealing still produced a trajectory
    assert list(out.glob("traj_unsat_*.csv"))


def test_run_on_a_formula_with_no_clauses_leaves_the_slack_blank(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "empty.cnf").write_text("p cnf 3 0\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(corpus), "--outdir", str(out), "--steps", "40"]) == 0
    rows = (out / analysis.SUMMARY_FILENAME).read_text().splitlines()
    header = rows[0].split(",")
    row = rows[1].split(",")
    assert row[header.index("sat")] == "true"
    assert row[header.index("backbone_capped")] == "0"
    assert row[header.index("mean_slack")] == ""


def test_run_invalid_file_nonzero_exit_but_batch_completes(tmp_path, small_corpus):
    (small_corpus / "broken.cnf").write_text("not a cnf\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(small_corpus), "--outdir", str(out), "--steps", "40"]) == 1
    summary = analysis.read_summary_csv((out / analysis.SUMMARY_FILENAME).read_text())
    assert len(summary) == 3
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert len(manifest["failures"]) == 1


def test_run_config_file_with_flag_priority(tmp_path, small_corpus):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 40, "seed": 4}))
    assert run_cli([
        "run", str(small_corpus), "--config", str(config),
        "--outdir", str(out), "--steps", "60",
    ]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["steps"] == 60  # flag beats config file
    assert manifest["config"]["seed"] == 4  # config file beats default


@pytest.mark.parametrize("with_flag", [True, False], ids=["flag-config-env", "config-env"])
def test_outdir_precedence(tmp_path, uf20_paths, monkeypatch, with_flag):
    # default < SPINSAT_OUTDIR < config file < flag
    monkeypatch.setenv("SPINSAT_OUTDIR", str(tmp_path / "env_out"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"outdir": str(tmp_path / "config_out")}))
    flag = ["--outdir", str(tmp_path / "flag_out")] if with_flag else []
    assert run_cli(["compile", str(uf20_paths[0]), "--config", str(config), *flag]) == 0
    written = [p.name for p in tmp_path.iterdir() if p.is_dir()]
    assert written == ["flag_out" if with_flag else "config_out"]


def test_outdir_environment_override(tmp_path, small_corpus, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("SPINSAT_OUTDIR", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", str(small_corpus), "--steps", "40"]) == 0
    assert (env_out / analysis.SUMMARY_FILENAME).exists()


def test_report_tables(tmp_path, small_corpus, capsys):
    out = tmp_path / "out"
    assert run_cli(["run", str(small_corpus), "--outdir", str(out), "--steps", "300"]) == 0
    capsys.readouterr()
    assert run_cli(["report", str(out / analysis.SUMMARY_FILENAME), "--outdir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Residual clause tension" in printed
    assert "Correlation matrix" in printed
    assert (out / "report_aggregate.csv").exists()
    assert (out / "report_correlation.csv").exists()


def write_synthetic_summary(tmp_path: Path, sat=(True, True, True, True)) -> Path:
    """Four rows whose |M| is anti-correlated with the energy; UNSAT rows have
    no backbone, and no row has an exact one."""
    summaries = [
        analysis.InstanceSummary(
            instance=f"i{k}", seed=k, sat=sat[k], alpha_ratio=4.55,
            final_energy_h=float(-m), final_energy_logic=float(-m),
            final_abs_magnetization=m, backbone_capped=5 + k if sat[k] else None,
            backbone_exact=None, backbone_exact_flag=False, mean_slack=1.7, beta=None,
            beta_r2=None, t0=2.5, alpha=0.999, steps=100,
        )
        for k, m in enumerate((0.1, 0.5, 0.9, 0.7))
    ]
    path = tmp_path / analysis.SUMMARY_FILENAME
    path.write_text(analysis.summary_csv(summaries))
    return path


def test_report_synthetic_anticorrelation(tmp_path, capsys):
    path = write_synthetic_summary(tmp_path)
    assert run_cli(["report", str(path), "--outdir", str(tmp_path)]) == 0
    assert "-1.000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "sat, flags",
    [((True, False, True, False), []), ((True,) * 4, ["--backbone-column", "backbone_exact"])],
    ids=["unsat-rows", "no-exact-backbone"],
)
def test_report_without_three_backbones_fails_once(tmp_path, capsys, sat, flags):
    path = write_synthetic_summary(tmp_path, sat)
    assert_fails_once_before_any_work(["report", str(path), *flags], tmp_path / "out", capsys)


def test_report_on_an_unreadable_summary_path_fails_once(tmp_path, capsys):
    summary = tmp_path / analysis.SUMMARY_FILENAME
    summary.mkdir()
    out = tmp_path / "out"
    assert run_cli(["report", str(summary), "--outdir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # IsADirectoryError's text depends on the platform.
    assert captured.err.startswith(f"error: summary {summary}: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_run_computes_the_mean_slack_once_per_satisfiable_instance(tmp_path, uf20_paths, monkeypatch):
    calls = []

    def counted(f, models):
        calls.append(f.source_name)
        return cnf.mean_slack(f, models)

    monkeypatch.setattr(cli, "mean_slack", counted)
    corpus = str(uf20_paths[0].parent)
    assert run_cli(["run", corpus, "--outdir", str(tmp_path / "out"), "--steps", "30"]) == 0
    assert calls == [p.stem for p in uf20_paths] and len(calls) == 12


@pytest.mark.parametrize("command", [["run", "--steps", "30"], ["backbone", "--exact"]])
def test_backbone_runs_once_per_model_set(tmp_path, uf20_paths, monkeypatch, command):
    # 11 exact sets fit within the cap and are returned as the capped set;
    # only uf20-sb-005 has an exact set apart from its capped one: 12 + 1.
    calls = []
    original = satcore.backbone

    def counted(models):
        calls.append(models)
        return original(models)

    monkeypatch.setattr(satcore, "backbone", counted)
    outdir = ["--outdir", str(tmp_path / "out")] if command[0] == "run" else []
    assert run_cli([command[0], str(uf20_paths[0].parent), *command[1:], *outdir]) == 0
    assert len(calls) == len({id(models) for models in calls}) == 13


def test_report_too_few_rows(tmp_path, capsys):
    path = tmp_path / analysis.SUMMARY_FILENAME
    path.write_text(analysis.summary_csv([]))
    assert run_cli(["report", str(path)]) == 1


def test_gen_rejects_too_few_variables(tmp_path, capsys):
    assert_fails_once_before_any_work(["gen", "--n", "2"], tmp_path / "out", capsys)


def test_gen_rejects_an_outdir_that_is_a_regular_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    assert_fails_once_before_any_work(["gen", "--n", "5", "--count", "2"], out, capsys)


@pytest.mark.parametrize(
    "flags",
    [["--m", "-3", "--count", "1"], ["--count", "0"], ["--count", "-2"]],
    ids=["m=-3", "count=0", "count=-2"],
)
def test_gen_rejects_a_negative_clause_count(tmp_path, capsys, flags):
    assert_fails_once_before_any_work(["gen", "--n", "5", *flags], tmp_path / "out", capsys)


@pytest.mark.parametrize("prefix", ["../escaped", "sub/x", "x/"])
def test_gen_rejects_a_prefix_that_is_not_a_file_name(tmp_path, capsys, prefix):
    work = tmp_path / "work"
    work.mkdir()
    args = ["gen", "--n", "5", "--m", "3", "--count", "1", "--prefix", prefix]
    assert_fails_once_before_any_work(args, work / "out", capsys)
    assert list(work.iterdir()) == []


@pytest.mark.parametrize(
    "prefix", ["a,b", 'a"b', "a\nb", os.fsdecode(b"\xff")], ids=["comma", "quote", "newline", "not-utf8"]
)
def test_gen_rejects_a_prefix_whose_stems_inputs_would_refuse(tmp_path, capsys, prefix):
    work = tmp_path / "work"
    work.mkdir()
    args = ["gen", "--n", "5", "--m", "3", "--count", "1", "--prefix", prefix]
    assert_fails_once_before_any_work(args, work / "out", capsys)
    assert list(work.iterdir()) == []


HELP_DEFAULTS = {
    "gen": ("seed", "outdir"),
    "compile": ("outdir", "k_factor"),
    "solve": (),
    "backbone": ("cap",),
    "anneal": ("seed", "outdir", "k_factor", "t0", "alpha", "steps"),
    "run": ("seed", "outdir", "k_factor", "t0", "alpha", "steps", "cap", "workers", "bins",
            "beta_window"),
    "report": ("energy_column", "backbone_column"),
}


@pytest.mark.parametrize("command", sorted(HELP_DEFAULTS))
def test_help_shows_run_config_defaults(capsys, command):
    with pytest.raises(SystemExit) as exited:
        run_cli([command, "--help"])
    assert exited.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for name in HELP_DEFAULTS[command]:
        value = getattr(cli.RunConfig, name)
        if isinstance(value, tuple):
            value = " ".join(f"{v:g}" for v in value)
        elif not isinstance(value, str):
            value = f"{value:g}"
        assert f"(default {value})" in text, name


@pytest.mark.parametrize(
    "command, ignored",
    [
        ("compile", ("--seed",)),
        ("solve", ("--outdir", "--seed", "--k-factor", "--paper-literal-gadget")),
        ("backbone", ("--outdir", "--seed", "--k-factor", "--paper-literal-gadget")),
    ],
)
def test_help_lists_no_flag_the_command_would_ignore(capsys, command, ignored):
    # The output directory and gadget go to commands that compile, the seed
    # to those that anneal.
    with pytest.raises(SystemExit) as exited:
        run_cli([command, "--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    assert [flag for flag in ignored if flag in text] == []


def test_cli_missing_input_path(tmp_path, capsys):
    assert run_cli(["solve", str(tmp_path / "nope.cnf")]) == 1
    assert "no such file" in capsys.readouterr().err


def test_cli_rejects_unknown_config_keys(tmp_path, small_corpus, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stepz": 40, "seed": 1}))
    out = tmp_path / "out"
    assert run_cli(["run", str(small_corpus), "--config", str(config), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: stepz\n"
    assert not out.exists()


@pytest.mark.parametrize("window", [[0.1], [0.05, 0.5, 1.0]], ids=["short", "long"])
def test_config_window_of_wrong_length_names_the_key(tmp_path, small_corpus, capsys, window):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"beta_window": window}))
    out = tmp_path / "out"
    assert run_cli(["run", str(small_corpus), "--config", str(config), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: config key beta_window must be a list of float of length 2, got {window!r}\n"
    )
    assert not out.exists()


def test_config_int_for_float_field_is_kept_as_given(tmp_path, uf20_paths):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t0": 2, "k_factor": 20, "beta_window": [0.05, 1]}))
    out = tmp_path / "out"
    args = ["run", str(uf20_paths[0]), "--config", str(config), "--steps", "40", "--outdir", str(out)]
    assert run_cli(args) == 0
    manifest = (out / "run_manifest.json").read_text()
    assert '"t0": 2,' in manifest and '"k_factor": 20,' in manifest
    assert json.loads(manifest)["config"]["beta_window"] == [0.05, 1]


def test_compile_paper_literal_gadget_recorded(tmp_path, uf20_paths):
    out = tmp_path / "out"
    assert run_cli([
        "compile", str(uf20_paths[0]), "--outdir", str(out), "--paper-literal-gadget",
    ]) == 0
    nodes = (out / f"ising_nodes_{uf20_paths[0].stem}.csv").read_text()
    assert "# gadget_mode = paper-literal" in nodes
