"""Command-line pipeline over CNF benchmark directories.

Subcommands: gen, compile, solve, backbone, anneal, run, report. Defaults
follow the benchmark protocol (t0=2.5, alpha=0.999, 6000 steps, model cap
120, k_factor 20). Configuration can also come from a JSON file; explicit
flags win over the file, and SPINSAT_OUTDIR overrides the default output
directory only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from pathlib import Path

from . import __version__
from .anneal import Schedule, anneal, trajectory_csv, trajectory_filename
from .cnf import generate_random_3sat, mean_slack, parse_dimacs_file, write_dimacs
from .ising import GADGET_CORRECTED, GADGET_PAPER_LITERAL, compile as compile_hamiltonian
from .ising import export_csv, format_float
from .satcore import BRUTE_FORCE_MAX_VARS, backbone, brute_force_models, enumerate_models, solve
from . import analysis

DEFAULT_OUTDIR = "out"


@dataclass(frozen=True)
class RunConfig:
    inputs: tuple[str, ...] = ()
    t0: float = 2.5
    alpha: float = 0.999
    steps: int = 6000
    k_factor: float = 20.0
    seed: int = 0
    cap: int = 120
    beta_window: tuple[float, float] = (0.05, 1.0)
    outdir: str = DEFAULT_OUTDIR
    gadget_mode: str = GADGET_CORRECTED
    sweeps: bool = False
    workers: int = 1
    bins: int = 60
    lenient: bool = False
    energy_column: str = "final_energy_logic"
    backbone_column: str = "backbone_capped"

    def schedule(self) -> Schedule:
        return Schedule(t0=self.t0, alpha=self.alpha, steps=self.steps)


def derive_seed(base_seed: int, instance: str) -> int:
    """Per-instance seed: base plus a stable hash of the instance name.

    Adding or removing files never shifts another instance's stream.
    """
    digest = hashlib.sha256(instance.encode("utf-8")).digest()
    return (base_seed + int.from_bytes(digest[:8], "big")) % (1 << 63)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class InputError(Exception):
    """Inputs that cannot be run together; reported before any work starts."""


def _collect_inputs(paths: list[str]) -> list[Path]:
    """Input files in name order, one per stem.

    Every output name is keyed on the file stem, so two different files with
    the same stem would overwrite each other's artifacts: that is an error.
    """
    files: dict[str, Path] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(p.glob("*.cnf"))
        elif p.exists():
            found = [p]
        else:
            raise FileNotFoundError(raw)
        for path in found:
            first = files.setdefault(path.stem, path)
            if not first.samefile(path):
                raise InputError(
                    f"{first} and {path} share the stem {path.stem!r}, "
                    "so their outputs would overwrite each other"
                )
    return sorted(files.values(), key=lambda p: p.name)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        known = {f.name for f in dataclass_fields(RunConfig)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise SystemExit(f"error: unknown config keys: {', '.join(unknown)}")
        if "beta_window" in raw:
            raw["beta_window"] = tuple(raw["beta_window"])
        if "inputs" in raw:
            raw["inputs"] = tuple(raw["inputs"])
        config = replace(config, **raw)
    env_outdir = os.environ.get("SPINSAT_OUTDIR")
    if env_outdir:
        config = replace(config, outdir=env_outdir)
    overrides = {}
    for name in (
        "t0",
        "alpha",
        "steps",
        "k_factor",
        "seed",
        "cap",
        "outdir",
        "sweeps",
        "workers",
        "bins",
        "lenient",
        "energy_column",
        "backbone_column",
    ):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "beta_window", None) is not None:
        overrides["beta_window"] = tuple(args.beta_window)
    if getattr(args, "paper_literal_gadget", False):
        overrides["gadget_mode"] = GADGET_PAPER_LITERAL
    if getattr(args, "inputs", None):
        overrides["inputs"] = tuple(args.inputs)
    return replace(config, **overrides)


def _add_common_flags(parser: argparse.ArgumentParser, with_schedule: bool = True) -> None:
    parser.add_argument("inputs", nargs="*", help="CNF files or directories of *.cnf files")
    parser.add_argument("--config", help="JSON config file; explicit flags win")
    parser.add_argument("--outdir", help=f"output directory (default {DEFAULT_OUTDIR})")
    parser.add_argument("--seed", type=int, help="base seed (default 0)")
    parser.add_argument("--k-factor", dest="k_factor", type=float, help="gadget penalty scale (default 20)")
    parser.add_argument(
        "--paper-literal-gadget",
        action="store_true",
        help="use the non-exact literal gadget penalty (for regression comparison)",
    )
    parser.add_argument("--lenient", action="store_true", default=None,
                        help="downgrade clause-count mismatches to warnings")
    if with_schedule:
        parser.add_argument("--t0", type=float, help="initial temperature (default 2.5)")
        parser.add_argument("--alpha", type=float, help="cooling factor (default 0.999)")
        parser.add_argument("--steps", type=int, help="annealing steps (default 6000)")
        parser.add_argument("--sweeps", action="store_true", default=None,
                            help="attempt one flip per spin each step instead of a single flip")


def cmd_gen(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir or os.environ.get("SPINSAT_OUTDIR") or DEFAULT_OUTDIR)
    written = 0
    seed = args.seed if args.seed is not None else 0
    attempts = 0
    max_attempts = max(1000, 200 * args.count)
    while written < args.count:
        if attempts >= max_attempts:
            print(
                f"error: gave up after {attempts} attempts; "
                f"only {written}/{args.count} satisfiable instances found",
                file=sys.stderr,
            )
            return 1
        formula = generate_random_3sat(args.n, args.m, seed + attempts)
        attempts += 1
        if args.satisfiable_only and solve(formula) is None:
            continue
        written += 1
        name = f"{args.prefix}-{written:03d}.cnf"
        body = write_dimacs(formula)
        if args.satlib_footer:
            body += "%\n0\n"
        header = (
            f"c random 3-SAT instance: n={args.n} m={args.m} "
            f"generator_seed={seed + attempts - 1}\n"
        )
        _atomic_write(outdir / name, header + body)
        print(f"wrote {outdir / name}")
    return 0


def cmd_compile(config: RunConfig) -> int:
    files = _collect_inputs(list(config.inputs))
    if not files:
        print("no input files", file=sys.stderr)
        return 1
    outdir = Path(config.outdir)
    failures = 0
    for path in files:
        try:
            formula = parse_dimacs_file(path, lenient=config.lenient)
            H = compile_hamiltonian(formula, config.k_factor, config.gadget_mode)
            nodes, edges = export_csv(H)
            _atomic_write(outdir / f"ising_nodes_{formula.source_name}.csv", nodes)
            _atomic_write(outdir / f"ising_edges_{formula.source_name}.csv", edges)
            print(f"{formula.source_name}: {H.num_spins} spins, {len(H.couplings)} couplings")
        except Exception as exc:
            failures += 1
            print(f"error: {path}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_solve(config: RunConfig) -> int:
    files = _collect_inputs(list(config.inputs))
    if not files:
        print("no input files", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        try:
            formula = parse_dimacs_file(path, lenient=config.lenient)
            model = solve(formula)
            if model is None:
                print(f"{formula.source_name}: sat=false")
            else:
                literals = " ".join(
                    str((v + 1) if value else -(v + 1)) for v, value in enumerate(model)
                )
                print(f"{formula.source_name}: sat=true model= {literals}")
        except Exception as exc:
            failures += 1
            print(f"error: {path}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_backbone(config: RunConfig, exact: bool) -> int:
    files = _collect_inputs(list(config.inputs))
    if not files:
        print("no input files", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        try:
            formula = parse_dimacs_file(path, lenient=config.lenient)
            exact_models = None
            if exact and formula.num_vars <= BRUTE_FORCE_MAX_VARS:
                exact_models = brute_force_models(formula)
            models = enumerate_models(formula, config.cap, exact_models)
            if not models.models:
                print(f"{formula.source_name}: sat=false")
                continue
            report = backbone(models, formula.num_vars)
            line = (
                f"{formula.source_name}: models>={len(models.models)}"
                f" truncated={str(report.exact is False).lower()}"
                f" backbone={report.size} normalized={report.normalized:.3f}"
            )
            if exact_models is not None:
                exact_report = backbone(exact_models, formula.num_vars)
                line += f" backbone_exact={exact_report.size}"
            print(line)
        except Exception as exc:
            failures += 1
            print(f"error: {path}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def cmd_anneal(config: RunConfig) -> int:
    files = _collect_inputs(list(config.inputs))
    if not files:
        print("no input files", file=sys.stderr)
        return 1
    outdir = Path(config.outdir)
    failures = 0
    for path in files:
        try:
            formula = parse_dimacs_file(path, lenient=config.lenient)
            H = compile_hamiltonian(formula, config.k_factor, config.gadget_mode)
            seed = derive_seed(config.seed, formula.source_name)
            traj = anneal(H, formula, config.schedule(), seed, sweeps=config.sweeps)
            name = trajectory_filename(formula.source_name, seed)
            _atomic_write(outdir / name, trajectory_csv(traj))
            print(
                f"{formula.source_name}: seed={seed}"
                f" final_E_logic={int(traj.energy_logic[-1])}"
                f" final_|M|={abs(float(traj.magnetization[-1])):.3f}"
            )
        except Exception as exc:
            failures += 1
            print(f"error: {path}: {exc}", file=sys.stderr)
    return 1 if failures else 0


def _run_instance(job: tuple[str, RunConfig]) -> dict:
    """Full pipeline for one instance; returns summary row plus artifacts."""
    path_text, config = job
    path = Path(path_text)
    formula = parse_dimacs_file(path, lenient=config.lenient)
    H = compile_hamiltonian(formula, config.k_factor, config.gadget_mode)
    nodes, edges = export_csv(H)

    model = solve(formula)
    sat = model is not None
    capped_report = exact_report = None
    slack_value = None
    if sat:
        exact_models = None
        if formula.num_vars <= BRUTE_FORCE_MAX_VARS:
            exact_models = brute_force_models(formula)
            exact_report = backbone(exact_models, formula.num_vars)
        capped_models = enumerate_models(formula, config.cap, exact_models)
        capped_report = backbone(capped_models, formula.num_vars)
        slack_models = (capped_models if exact_models is None else exact_models).models
        slack_value = sum(mean_slack(formula, m) for m in slack_models) / len(slack_models)

    seed = derive_seed(config.seed, formula.source_name)
    traj = anneal(H, formula, config.schedule(), seed, sweeps=config.sweeps)
    try:
        beta_fit = analysis.fit_beta_trajectory(traj, config.beta_window)
    except ValueError:
        beta_fit = None
    summary = analysis.build_summary(
        formula,
        H,
        traj,
        sat=sat,
        backbone_capped=capped_report,
        backbone_exact=exact_report,
        mean_slack=slack_value,
        beta_fit=beta_fit,
    )
    return {
        "instance": formula.source_name,
        "seed": seed,
        "summary": summary,
        "nodes_csv": nodes,
        "edges_csv": edges,
        "trajectory": traj,
    }


def cmd_run(config: RunConfig) -> int:
    files = _collect_inputs(list(config.inputs))
    if not files:
        print("no input files", file=sys.stderr)
        return 1
    outdir = Path(config.outdir)
    jobs = [(str(path), config) for path in files]
    failures: list[tuple[str, str]] = []
    results: list[dict] = []
    if config.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_run_instance_safe, jobs))
    else:
        outcomes = [_run_instance_safe(job) for job in jobs]
    for (path_text, _), outcome in zip(jobs, outcomes):
        if isinstance(outcome, dict):
            results.append(outcome)
        else:
            failures.append((path_text, outcome))
            print(f"error: {path_text}: {outcome}", file=sys.stderr)

    results.sort(key=lambda r: r["instance"])
    for result in results:
        name = result["instance"]
        _atomic_write(outdir / f"ising_nodes_{name}.csv", result["nodes_csv"])
        _atomic_write(outdir / f"ising_edges_{name}.csv", result["edges_csv"])
        _atomic_write(
            outdir / trajectory_filename(name, result["seed"]),
            trajectory_csv(result["trajectory"]),
        )

    summaries = [r["summary"] for r in results]
    pooled_beta = None
    if results:
        _atomic_write(outdir / analysis.SUMMARY_FILENAME, analysis.summary_csv(summaries))
        curves = analysis.binned_curves([r["trajectory"] for r in results], bins=config.bins)
        _atomic_write(outdir / "binned_curves.csv", curves.to_csv())
        try:
            pooled = analysis.fit_beta(
                curves.bin_t[curves.counts > 0],
                curves.mean_abs_magnetization[curves.counts > 0],
                config.beta_window,
            )
            pooled_beta = {"beta": pooled.beta, "r_squared": pooled.r_squared}
        except ValueError:
            pooled_beta = None

    manifest = {
        "command": "run",
        "version": __version__,
        "config": _config_json(config),
        "instances": [
            {"file": str(path), "instance": path.stem, "seed": derive_seed(config.seed, path.stem)}
            for path in files
        ],
        "failures": [{"file": f, "error": e} for f, e in failures],
        "pooled_beta": pooled_beta,
    }
    _atomic_write(outdir / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    for summary in summaries:
        print(
            f"{summary.instance}: sat={str(summary.sat).lower()}"
            f" E_logic={summary.final_energy_logic:.3f}"
            f" |M|={summary.final_abs_magnetization:.3f}"
        )
    return 1 if failures else 0


def _run_instance_safe(job: tuple[str, RunConfig]):
    try:
        return _run_instance(job)
    except Exception as exc:  # per-instance isolation: the batch continues
        return f"{type(exc).__name__}: {exc}"


def _config_json(config: RunConfig) -> dict:
    data = asdict(config)
    data["inputs"] = list(config.inputs)
    data["beta_window"] = list(config.beta_window)
    return data


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = Path(args.summary)
    summaries = analysis.read_summary_csv(summary_path.read_text(encoding="utf-8"))
    if len(summaries) < 3:
        print("error: need at least three summary rows", file=sys.stderr)
        return 1
    energy_column = args.energy_column or "final_energy_logic"
    backbone_column = args.backbone_column or "backbone_capped"
    agg = analysis.aggregate(summaries)
    matrix = analysis.correlation_matrix(
        summaries, energy_column=energy_column, backbone_column=backbone_column
    )
    aggregate_table = analysis.format_aggregate_table(
        agg, energy_column=energy_column, backbone_column=backbone_column
    )
    correlation_table = analysis.format_correlation_table(matrix)
    print(f"Aggregate annealing statistics over {len(summaries)} runs")
    print(aggregate_table)
    print("Correlation matrix between logical and physical observables")
    print(correlation_table)

    outdir = Path(args.outdir or os.environ.get("SPINSAT_OUTDIR") or summary_path.parent)
    agg_lines = ["column,mean,sd"]
    for column, (mean, sd) in sorted(agg.items()):
        agg_lines.append(f"{column},{format_float(mean)},{format_float(sd)}")
    _atomic_write(outdir / "report_aggregate.csv", "\n".join(agg_lines) + "\n")
    corr_lines = [",".join(("", *matrix.labels))]
    for i, label in enumerate(matrix.labels):
        cells = ",".join(format_float(matrix.values[i][j]) for j in range(3))
        corr_lines.append(f"{label},{cells}")
    _atomic_write(outdir / "report_correlation.csv", "\n".join(corr_lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsat",
        description="CNF-to-Ising compilation, seeded annealing, and observable analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate random 3-SAT instances")
    gen.add_argument("--n", type=int, default=20)
    gen.add_argument("--m", type=int, default=91)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--prefix", default="rand3sat")
    gen.add_argument("--outdir")
    gen.add_argument("--satisfiable-only", action="store_true")
    gen.add_argument("--satlib-footer", action="store_true",
                     help="append the '%%' / '0' footer found in SATLIB files")

    for name, help_text, with_schedule in (
        ("compile", "emit node/edge coefficient tables per instance", False),
        ("solve", "solve each instance and print one model", False),
        ("backbone", "enumerate models (capped) and report the backbone", False),
        ("anneal", "compile and anneal each instance, writing trajectories", True),
        ("run", "full pipeline: parse, solve, backbone, compile, anneal, summarize", True),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, with_schedule=with_schedule)
        if name in ("backbone", "run"):
            p.add_argument("--cap", type=int, help="model enumeration cap (default 120)")
        if name == "backbone":
            p.add_argument("--exact", action="store_true",
                           help="also report the exhaustive-scan backbone")
        if name == "run":
            p.add_argument("--workers", type=int, help="instance-level worker pool size")
            p.add_argument("--bins", type=int, help="temperature bins for pooled curves")
            p.add_argument("--beta-window", dest="beta_window", type=float, nargs=2,
                           metavar=("T_LO", "T_HI"), help="power-law fit window")

    report = sub.add_parser("report", help="aggregate and correlation tables from a summary CSV")
    report.add_argument("summary", help="path to the run summary CSV")
    report.add_argument("--outdir")
    report.add_argument("--energy-column", dest="energy_column",
                        choices=("final_energy_logic", "final_energy_h"))
    report.add_argument("--backbone-column", dest="backbone_column",
                        choices=("backbone_capped", "backbone_exact"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "report":
            return cmd_report(args)
        config = _merge_config(args)
        if args.command == "compile":
            return cmd_compile(config)
        if args.command == "solve":
            return cmd_solve(config)
        if args.command == "backbone":
            return cmd_backbone(config, exact=getattr(args, "exact", False))
        if args.command == "anneal":
            return cmd_anneal(config)
        if args.command == "run":
            return cmd_run(config)
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
