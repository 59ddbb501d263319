#!/usr/bin/env python3
"""spinsat benchmark: three workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload uf20_run --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics, both as ``name: value unit`` lines followed by one JSON
line. Each run also writes a result file with the environment under
``.perfbench/results/``. ``--record-golden`` rewrites ``golden.json`` from one
pass of every workload at the golden seed. See perfbench/README.md.

The load is a closed loop: one client in this process, ``workers=1`` and one
BLAS/OpenMP thread. spinsat is driven only through ``spinsat.cli.main`` and
the public functions of its modules; tracing wraps them from outside.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPINSAT_OUTDIR", None)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "spinsat" / "__init__.py").is_file():
    sys.exit(f"perfbench: no spinsat sources under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import spinsat
from spinsat import analysis, anneal, cli, cnf, ising, satcore

import gate
from spans import Patches, Tracer, layer_self_times, outside_time
from stats import max_of, median_of

GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_SEED = 1
STATE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
# Time of calibration() in the fast state of the 2-core Xeon host the
# benchmark was tuned on; reported times are scaled to it.
CALIBRATION_S = 0.008
SEED_STUDY_INSTANCES = 10
SEED_STUDY_SEEDS = 20
SWEEP_INSTANCES = 3
SWEEP_SEEDS = (0, 1)
MODULES = (spinsat, analysis, anneal, cli, cnf, ising, satcore)
clock = time.perf_counter


# ---------------------------------------------------------------- inputs


def make_family(seed: int, dest: Path) -> list[str]:
    """Write the workload's 12 uf20 instances into ``dest``.

    The bundled recipe (``spinsat gen`` at generator seed 1) yields the
    published family, checked byte-for-byte against data/uf20. Workload seed
    1 uses it as is. Any other seed shuffles the clause order and the literal
    order inside each clause from a PCG64 stream: the Hamiltonian wiring,
    ancilla binding and anneal trajectories change, while the model sets and
    therefore the solver's work stay the same. Drawing fresh formulas per
    seed would swing the enumeration cost by a factor of seven between seeds.
    Returns the problems found.
    """
    quiet_cli(["gen", "--n", "20", "--m", "91", "--count", "12", "--seed", "1",
               "--satisfiable-only", "--satlib-footer", "--prefix", "uf20-sb",
               "--outdir", str(dest)])
    problems = []
    rng = np.random.Generator(np.random.PCG64(seed))
    for path in sorted(dest.glob("*.cnf")):
        text = path.read_bytes()
        published = ROOT / "data" / "uf20" / path.name
        if not published.is_file() or published.read_bytes() != text:
            problems.append(f"{path.name}: recipe output differs from data/uf20")
        if seed != GOLDEN_SEED:
            path.write_text(shuffle_dimacs(text.decode("utf-8"), rng), encoding="utf-8")
    return problems


def shuffle_dimacs(text: str, rng: np.random.Generator) -> str:
    """Permute clause order and literal order of one-clause-per-line DIMACS text."""
    head, clauses, tail = [], [], []
    for line in text.splitlines():
        if line.startswith(("c", "p")):
            head.append(line)
        elif line.startswith("%") or tail:
            tail.append(line)
        else:
            clauses.append(line.split()[:-1])
    lines = [
        " ".join([clauses[j][k] for k in rng.permutation(len(clauses[j]))] + ["0"])
        for j in rng.permutation(len(clauses))
    ]
    return "\n".join(head + lines + tail) + "\n"


def calibration() -> float:
    """Wall time of a fixed pure-Python kernel: list indexing, float multiply-add, exp.

    The host alternates between speeds up to 1.8x apart, for seconds to
    minutes at a time, and pure-Python code such as spinsat's slows the most.
    Timing this kernel next to each instance measures the speed the instance
    ran at, so instance times can be scaled to a fixed speed.
    """
    start = clock()
    xs = [float(i % 97) for i in range(2000)]
    acc = 0.0
    for _ in range(40):
        for i in range(2000):
            acc += xs[i] * xs[(i * 7) % 2000]
            if acc > 1e6:
                acc = math.exp(-acc / 1e7)
    return clock() - start


def quiet_cli(argv: list[str]) -> int:
    """``spinsat.cli.main`` with its stdout report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    """One execution of a workload and what the gate found in it."""

    wall: float = 0.0
    ops: list[str] = field(default_factory=list)
    instance_times: dict[str, float] = field(default_factory=dict)
    calibrations: dict[str, float] = field(default_factory=dict)
    calibration_s: float = 0.0
    trajectories: int = 0
    artifacts: dict[str, str] = field(default_factory=dict)
    owners: dict[str, list[str]] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    files_written: int = 0
    bytes_written: int = 0
    traced: bool = False
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def fail(self, ops, problem: str) -> None:
        self.failed.update(ops)
        self.problems.append(problem)

    def unit(self, name: str, fn, calibrate: bool = True):
        """Call ``fn`` as instance ``name``, timing it and calibrating around it."""
        before = calibration() if calibrate else 0.0
        start = clock()
        try:
            return fn()
        finally:
            self.instance_times[name] = clock() - start
            if calibrate:
                after = calibration()
                self.calibrations[name] = (before + after) / 2
                self.calibration_s += before + after


@dataclass
class Context:
    """The inputs of one run and the observation hooks on the driver."""

    stems: list[str]
    clauses: dict[str, list[list[int]]]
    tracer: Tracer
    current: Pass = field(default_factory=Pass)
    calibrate: bool = True
    capped: list[tuple[str, object]] = field(default_factory=list)

    def install_hooks(self, patches: Patches) -> None:
        """Time the run driver's per-instance call and keep the capped model sets.

        Both hooks are present in traced and untraced passes alike; traced
        passes skip the calibration, which would otherwise count as cli time.
        """

        def per_instance(fn):
            def timed(job, *args, **kwargs):
                name = Path(job[0]).stem
                self.tracer.op = name
                return self.current.unit(name, lambda: fn(job, *args, **kwargs), self.calibrate)

            return timed

        def capture(fn):
            def kept(f, *args, **kwargs):
                result = fn(f, *args, **kwargs)
                self.capped.append((f.source_name, result))
                return result

            return kept

        patches.patch_everywhere(MODULES, cli, "_run_instance", per_instance)
        patches.patch_everywhere(MODULES, satcore, "enumerate_models", capture)


def read_outputs(p: Pass, outdir: Path, owners_of) -> dict[str, str]:
    """Digest every file under ``outdir``; returns the texts by name."""
    texts = {}
    for path in sorted(outdir.iterdir()):
        text = path.read_text(encoding="utf-8")
        texts[path.name] = text
        p.artifacts[path.name] = gate.digest(text)
        p.owners[path.name] = owners_of(path.name)
        p.files_written += 1
        p.bytes_written += path.stat().st_size
    return texts


def uf20_run(ctx: Context) -> Pass:
    """``spinsat run`` over the 12 instances with the default protocol."""
    p = Pass(ops=list(ctx.stems), trajectories=len(ctx.stems))
    shutil.rmtree("out", ignore_errors=True)
    ctx.current = p
    ctx.capped.clear()
    start = clock()
    code = quiet_cli(["run", "in", "--outdir", "out", "--workers", "1"])
    p.wall = clock() - start - p.calibration_s
    if code != 0:
        p.fail(p.ops, f"spinsat run exited with {code}")

    def owners_of(name: str) -> list[str]:
        mine = [s for s in ctx.stems if f"_{s}." in name or f"_{s}_" in name]
        return mine or list(p.ops)

    texts = read_outputs(p, Path("out"), owners_of)
    for stem in ctx.stems:
        wanted = (f"ising_nodes_{stem}.csv", f"ising_edges_{stem}.csv")
        trajs = [n for n in texts if n.startswith(f"traj_{stem}_")]
        if any(n not in texts for n in wanted) or len(trajs) != 1:
            p.fail([stem], f"{stem}: missing node, edge or trajectory file")
        for name in trajs:
            for problem in gate.trajectory_violations(texts[name]):
                p.fail([stem], f"{name}: {problem}")
        if stem not in p.instance_times:
            p.fail([stem], f"{stem}: per-instance call not observed")
    for name in (analysis.SUMMARY_FILENAME, "binned_curves.csv", "run_manifest.json"):
        if name not in texts:
            p.fail(p.ops, f"missing {name}")
    if "run_manifest.json" in texts:
        for failure in gate.manifest_failures(texts["run_manifest.json"]):
            p.fail([Path(failure["file"]).stem], f"manifest failure: {failure}")
    if analysis.SUMMARY_FILENAME in texts:
        for stem in gate.backbone_violations(texts[analysis.SUMMARY_FILENAME]):
            p.fail([stem], f"{stem}: backbone_exact > backbone_capped")
    seen = set()
    for stem, models in ctx.capped:
        seen.add(stem)
        bad = gate.unsatisfying_models(ctx.clauses[stem], models.models)
        if bad:
            p.fail([stem], f"{stem}: {bad} capped models violate the formula")
    for stem in set(ctx.stems) - seen:
        p.fail([stem], f"{stem}: capped enumeration not observed")
    return p


def anneal_seeds(ctx: Context) -> Pass:
    """Criterion-08 seed study through the library: 10 instances x 20 seeds."""
    p = Pass()
    sched = anneal.Schedule()
    energies, magnetizations = [], []
    for stem in ctx.stems[:SEED_STUDY_INSTANCES]:
        ops = [f"{stem}/{k}" for k in range(SEED_STUDY_SEEDS)]
        p.ops.extend(ops)
        trajectories, texts = [], []

        def study():
            ctx.tracer.op = stem
            f = cnf.parse_dimacs_file(f"in/{stem}.cnf")
            H = ising.compile(f)
            for k, op in enumerate(ops):
                ctx.tracer.op = op
                traj = anneal.anneal(H, f, sched, cli.derive_seed(k, stem))
                texts.append(anneal.trajectory_csv(traj))
                energies.append(analysis.tail_mean(traj.energy_logic))
                magnetizations.append(analysis.tail_mean(np.abs(traj.magnetization)))
                trajectories.append(traj)
            return analysis.binned_curves(trajectories).to_csv()

        binned = p.unit(stem, study, ctx.calibrate)
        p.wall += p.instance_times[stem]
        p.trajectories += len(ops)
        for op, text, traj in zip(ops, texts, trajectories):
            name = f"traj_{op.replace('/', '_')}.csv"
            p.artifacts[name] = gate.digest(text)
            p.owners[name] = [op]
            step = gate.energy_order_violation(traj.energy_h.tolist(), traj.energy_logic.tolist())
            if step is not None:
                p.fail([op], f"{op}: energy_h < energy_logic at step {step}")
        p.artifacts[f"binned_{stem}.csv"] = gate.digest(binned)
        p.owners[f"binned_{stem}.csv"] = ops
    start = clock()
    rho = analysis.pearson(energies, magnetizations)
    p.wall += clock() - start
    tails = "".join(f"{op},{e!r},{m!r}\n" for op, e, m in zip(p.ops, energies, magnetizations))
    p.artifacts["pooled_tails.csv"] = gate.digest(tails)
    p.artifacts["rho.txt"] = gate.digest(repr(rho))
    for name in ("pooled_tails.csv", "rho.txt"):
        p.owners[name] = list(p.ops)
    return p


def anneal_sweeps(ctx: Context) -> Pass:
    """``spinsat anneal --sweeps``, one CLI call per instance and base seed."""
    p = Pass()
    shutil.rmtree("out", ignore_errors=True)
    Path("out").mkdir()
    for seed in SWEEP_SEEDS:
        for stem in ctx.stems[:SWEEP_INSTANCES]:
            op = f"{stem}/s{seed}"
            p.ops.append(op)
            before = set(os.listdir("out"))
            ctx.tracer.op = op
            code = p.unit(op, lambda: quiet_cli(["anneal", f"in/{stem}.cnf", "--sweeps", "--seed",
                                                 str(seed), "--outdir", "out"]), ctx.calibrate)
            p.wall += p.instance_times[op]
            p.trajectories += 1
            new = sorted(set(os.listdir("out")) - before)
            if code != 0 or len(new) != 1:
                p.fail([op], f"{op}: exit code {code}, new files {new}")
            for name in new:
                text = (Path("out") / name).read_text(encoding="utf-8")
                for problem in gate.trajectory_violations(text):
                    p.fail([op], f"{name}: {problem}")
                p.owners[name] = [op]
    owners = dict(p.owners)
    read_outputs(p, Path("out"), lambda name: owners.get(name, list(p.ops)))
    return p


WORKLOADS = {"uf20_run": uf20_run, "anneal_seeds": anneal_seeds, "anneal_sweeps": anneal_sweeps}


# ---------------------------------------------------------------- tracing


def _count_enumerate(c, result, args, kwargs):
    c["satcore.models_enumerated"] += len(result.models)
    c["satcore.truncated_instances"] += int(result.truncated)


def _count_scan(c, result, args, kwargs):
    c["satcore.scan_assignments"] += 1 << args[0].num_vars
    c["satcore.scan_models"] += len(result.models)


def _count_compile(c, result, args, kwargs):
    c["ising.spins"] += result.num_spins
    c["ising.couplings"] += len(result.couplings)


def _count_export(c, result, args, kwargs):
    c["ising.csv_bytes"] += sum(len(text) for text in result)


def _count_anneal(c, result, args, kwargs):
    sweeps = kwargs.get("sweeps", args[4] if len(args) > 4 else False)
    c["anneal.flip_attempts"] += (len(result) - 1) * (args[0].num_spins if sweeps else 1)


def _count_slack(c, result, args, kwargs):
    c["cnf.slack_models"] += 1


def _count_trajectory_csv(c, result, args, kwargs):
    c["anneal.csv_bytes"] += len(result)


# (owner, attribute, layer metric, counter); the layer's self time is
# reported as ``<layer metric>_s``.
TRACED = (
    (cli, "main", "cli.self", None),
    (cnf, "parse_dimacs_file", "cnf.parse", None),
    (cnf, "parse_dimacs", "cnf.parse", None),
    (cnf, "mean_slack", "cnf.slack", _count_slack),
    (satcore, "solve", "satcore.solve", None),
    (satcore, "enumerate_models", "satcore.enumerate", _count_enumerate),
    (satcore, "brute_force_models", "satcore.scan", _count_scan),
    (satcore, "backbone", "satcore.backbone", None),
    (ising, "compile", "ising.compile", _count_compile),
    (ising, "export_csv", "ising.export", _count_export),
    (anneal, "anneal", "anneal.anneal", _count_anneal),
    (anneal, "trajectory_csv", "anneal.csv", _count_trajectory_csv),
    (analysis, "fit_beta", "analysis.fit", None),
    (analysis, "fit_beta_trajectory", "analysis.fit", None),
    (analysis, "build_summary", "analysis.summary", None),
    (analysis, "summary_csv", "analysis.summary", None),
    (analysis, "binned_curves", "analysis.binned", None),
    (analysis.BinnedCurves, "to_csv", "analysis.binned", None),
    (analysis, "tail_mean", "analysis.reduce", None),
    (analysis, "pearson", "analysis.reduce", None),
)


def install_tracing(patches: Patches, tracer: Tracer) -> None:
    for owner, attr, name, count in TRACED:
        patches.patch_everywhere(MODULES, owner, attr, lambda fn: tracer.wrap(fn, name, count))


def layer_metrics(p: Pass, tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    values = {f"{name}_s": 0.0 for _, _, name, _ in TRACED}
    values.update({f"{name}_s": t for name, t in layer_self_times(tracer.spans).items()})
    for key in ("cnf.slack_models", "satcore.models_enumerated", "satcore.truncated_instances",
                "satcore.scan_assignments", "ising.spins", "ising.couplings", "ising.csv_bytes",
                "anneal.flip_attempts", "anneal.csv_bytes"):
        values[key] = tracer.counters.get(key, 0)
    scanned = tracer.counters.get("satcore.scan_assignments", 0)
    values["satcore.scan_yield"] = tracer.counters.get("satcore.scan_models", 0) / scanned if scanned else 0.0
    busy = values["anneal.anneal_s"]
    values["anneal.flips_per_s"] = values["anneal.flip_attempts"] / busy if busy else 0.0
    values["cli.files_written"] = p.files_written
    values["cli.bytes_written"] = p.bytes_written
    values["trace.wall_s"] = p.wall
    values["trace.outside_s"] = outside_time(tracer.spans, p.wall)
    values["trace.spans"] = len(tracer.spans)
    return values


# ---------------------------------------------------------------- run


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload_seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["workloads"]


def setup(seed: int, dest: Path) -> tuple[Context, list[str]]:
    problems = make_family(seed, dest)
    stems = sorted(path.stem for path in dest.glob("*.cnf"))
    clauses = {s: gate.dimacs_clauses((dest / f"{s}.cnf").read_text(encoding="utf-8")) for s in stems}
    return Context(stems, clauses, Tracer()), problems


def probe_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Median time of fresh processes doing imports and input generation.

    Returns the median scaled to the reference speed, as the other times are,
    and the unscaled median.
    """
    raw, scaled = [], []
    for k in range(SETUP_PROBES):
        before = calibration()
        start = clock()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-probe", str(workdir / f"probe{k}")],
            check=True, timeout=120,
        )
        elapsed = clock() - start
        raw.append(elapsed)
        scaled.append(elapsed * CALIBRATION_S * 2 / (before + calibration()))
    return median_of(scaled).value, median_of(raw).value


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            reference: dict[str, str] | None) -> list[Pass]:
    """Repeat rounds of the workload for at most ``seconds`` (at least one round).

    A round is one untraced pass, followed by one traced pass when ``trace``
    is set. Every pass's artifacts are checked against ``reference``, or
    against the first pass's when there is none.
    """
    ctx, setup_problems = setup(seed, workdir / "in")
    os.chdir(workdir)
    patches = Patches()
    ctx.install_hooks(patches)
    passes: list[Pass] = []
    rounds = 0
    start = clock()
    try:
        while True:
            for traced in ((False, True) if trace else (False,)):
                tracing = Patches()
                ctx.tracer.reset()
                ctx.calibrate = not traced
                if traced:
                    install_tracing(tracing, ctx.tracer)
                try:
                    p = WORKLOADS[workload](ctx)
                finally:
                    tracing.undo()
                if traced:
                    p.traced = True
                    p.layers = layer_metrics(p, ctx.tracer)
                    p.spans = [asdict(span) for span in ctx.tracer.spans]
                if reference is None:
                    reference = dict(p.artifacts)
                for name in gate.digest_mismatches(p.artifacts, reference):
                    p.fail(p.owners.get(name, p.ops), f"digest mismatch: {name}")
                if setup_problems:
                    p.fail(p.ops, "; ".join(setup_problems))
                passes.append(p)
            rounds += 1
            elapsed = clock() - start
            if elapsed + elapsed / rounds > seconds:
                break
    finally:
        patches.undo()
        os.chdir(ROOT)
    return passes


def end_to_end(units: dict[str, list[float]], between: list[float], trajectories: int) -> dict:
    """Metrics from per-instance time samples and the time spent between instances.

    Each instance's time is the median of its repeats; a pass's time is
    rebuilt as their sum plus the median time between instances.
    """
    per_instance = {name: median_of(ts).value for name, ts in units.items()}
    pass_time = sum(per_instance.values()) + median_of(between).value
    return {
        "instances_per_s": len(per_instance) / pass_time,
        "trajectories_per_s": trajectories / pass_time,
        "instance_p50_s": median_of(list(per_instance.values())).value,
        "instance_max_s": max_of(list(per_instance.values())).value,
    }


def summarize(passes: list[Pass]) -> dict:
    """Metrics of a run: end-to-end from untraced passes, per-layer from traced ones.

    End-to-end times are scaled to the reference speed: each instance time is
    multiplied by CALIBRATION_S over the calibration measured around it. The
    unscaled wall-time metrics are kept in the result file as ``wall_values``.
    """
    plain = [p for p in passes if not p.traced]
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    raw_between, scaled_between = [], []
    for p in plain:
        for name, t in p.instance_times.items():
            raw.setdefault(name, []).append(t)
            scaled.setdefault(name, []).append(t * CALIBRATION_S / p.calibrations[name])
        between = p.wall - sum(p.instance_times.values())
        raw_between.append(between)
        scaled_between.append(between * CALIBRATION_S / median_of(list(p.calibrations.values())).value)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    values = end_to_end(scaled, scaled_between, plain[0].trajectories)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["failed_frac"] = failed / attempted
    repeats = f"each the median of {len(plain)} repeats"
    notes = {
        "instances_per_s": f"{len(raw)} instances, {repeats}",
        "trajectories_per_s": f"{plain[0].trajectories} trajectories per pass",
        "instance_p50_s": f"median of {len(raw)} instances, {repeats}",
        "instance_max_s": f"slowest of {len(raw)} instances, {repeats}",
        "failed_frac": f"{failed} of {attempted} operations",
    }
    traced = [p for p in passes if p.traced]
    if traced:
        fastest_traced = min(traced, key=lambda p: p.wall)
        values.update(fastest_traced.layers)
        values["trace.overhead_frac"] = fastest_traced.wall / min(p.wall for p in plain) - 1
        notes["trace.wall_s"] = f"fastest of {len(traced)} traced passes, whose layers are shown"
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "notes": notes,
        "passes": len(passes),
        "problems": sorted({msg for p in passes for msg in p.problems}),
        "wall_values": end_to_end(raw, raw_between, plain[0].trajectories),
        "instance_times": raw,
        "calibrations": {name: [p.calibrations[name] for p in plain] for name in raw},
        "pass_walls": [p.wall for p in plain],
        "spans": [p.spans for p in traced],
    }


def record_golden(workdir: Path) -> None:
    digests = {}
    for workload in WORKLOADS:
        (p,) = measure(workload, GOLDEN_SEED, 0, False, workdir, reference=None)
        if p.problems:
            sys.exit("perfbench: " + "; ".join(p.problems))
        digests[workload] = p.artifacts
    document = {
        "seed": GOLDEN_SEED,
        "regenerate": "python3 perfbench/run.py --record-golden",
        "workloads": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current code at the golden seed")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup(args.seed, Path(args.setup_probe))
        return 0
    workdir = STATE_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.record_golden:
            record_golden(workdir)
            return 0
        if args.workload is None or args.seconds is None or args.seconds < 1:
            parser.error("--workload and --seconds >= 1 are required")
        setup_times = None if args.trace else probe_setup(args.workload, args.seed, workdir)
        golden = load_golden().get(args.workload) if args.seed == GOLDEN_SEED else None
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir, golden)
        result = summarize(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_times is not None:
        result["values"]["setup_s"], result["wall_values"]["setup_s"] = setup_times
        result["notes"]["setup_s"] = f"median of {SETUP_PROBES} fresh processes"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]} for m in listed}
    record = {
        "environment": environment(args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **{k: result[k] for k in ("attempted", "failed", "passes", "problems", "notes", "wall_values",
                                  "instance_times", "calibrations", "pass_walls", "spans")},
        "values": result["values"],
    }
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    for key in ("failed_frac",) + tuple(metrics):
        unit = metrics[key]["unit"] if key in metrics else "ratio"
        notes = [result["notes"][key]] if key in result["notes"] else []
        if key in result["wall_values"]:
            notes.append(f"unscaled wall time {result['wall_values'][key]:.6g} {unit}")
        print(f"{key}: {result['values'][key]:.6g} {unit}" + (f"  ({'; '.join(notes)})" if notes else ""))
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
