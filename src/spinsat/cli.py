"""Command-line pipeline over CNF benchmark directories.

Subcommands: gen, compile, solve, backbone, anneal, run, report. Defaults
follow the benchmark protocol (``RunConfig``: t0=2.5, alpha=0.999, 6000
steps, model cap 120, k_factor 20). A setting comes from its default, then
SPINSAT_OUTDIR (output directory only), a JSON ``--config`` file and a flag;
the later source wins. A subcommand has a flag only for a setting it reads.
Stderr is the same serial or pooled: a warning that
depends on the settings alone prints once as ``warning: <message>``, and
each file's own warnings and failure print as ``warning: <path>: <message>``
and ``error: <path>: <Type>: <message>`` lines, in file stem order.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import typing
import warnings
from collections import deque
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

from . import __version__
from .anneal import Schedule, Trajectory, anneal, trajectory_csv, trajectory_filename
from .cnf import Formula, generate_random_3sat, mean_slack, parse_dimacs_file, write_dimacs
from .ising import GADGET_CORRECTED, GADGET_PAPER_LITERAL, compile as compile_hamiltonian
from .ising import Hamiltonian, export_csv, format_float
from .satcore import model_sets, solve
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
    """Write ``text`` to a new file beside ``path``, named for this process,
    then rename it over ``path``; the file gets the mode open(path, "w") gives."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class InputError(Exception):
    """Inputs or settings that cannot be run; reported before any work starts."""


def _check_settings(config: RunConfig) -> set[str]:
    """Raise InputError for a setting that would fail every file alike.

    Compile warnings depend on the settings alone, so they are printed here,
    once per command; returns their messages so no file repeats them.
    """
    try:
        config.schedule()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compile_hamiltonian(Formula(0, ()), config.k_factor, config.gadget_mode)
        lo, hi = config.beta_window
        if config.cap < 1:
            raise ValueError(f"cap must be at least 1, got {config.cap}")
        if config.bins < 1:
            raise ValueError(f"bins must be at least 1, got {config.bins}")
        if config.workers < 1:
            raise ValueError(f"workers must be at least 1, got {config.workers}")
        if not 0 < lo < hi < math.inf:
            raise ValueError(f"beta window must satisfy 0 < lo < hi < inf, got {lo!r} {hi!r}")
    except (TypeError, ValueError) as exc:
        raise InputError(exc) from exc
    messages = [str(warning.message) for warning in caught]
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    return set(messages)


def _check_outdir(outdir: str | Path) -> Path:
    """``outdir`` as a Path; InputError if it, or the nearest of its ancestors
    that exists, is not a directory, since no output could be written there."""
    path = Path(outdir)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"output directory {path}: {existing} is not a directory")
    return path


def _check_stem(stem: str, source: str) -> None:
    """InputError unless ``stem`` can name an instance in the UTF-8 run
    manifest and in a row of the summary CSV, whose cells are not quoted."""
    try:
        stem.encode("utf-8")
    except UnicodeEncodeError:
        raise InputError(f"{source!r}: the stem {stem!r} is not valid UTF-8") from None
    if any(c in stem for c in ',"\r\n'):
        raise InputError(
            f"{source}: the stem {stem!r} holds a comma, a double quote "
            "or a line break, which the summary CSV cannot hold"
        )


def _collect_inputs(paths: list[str]) -> list[Path]:
    """Input files in stem order, one per stem; a directory gives its regular ``*.cnf`` files.

    Every output name is keyed on the file stem, so two different files with
    the same stem would overwrite each other's artifacts: that is an error.
    So is a stem ``_check_stem`` refuses.
    """
    files: dict[str, Path] = {}
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.glob("*.cnf") if q.is_file())
        elif p.exists():
            found = [p]
        else:
            raise FileNotFoundError(raw)
        for path in found:
            _check_stem(path.stem, str(path))
            first = files.setdefault(path.stem, path)
            if not first.samefile(path):
                raise InputError(
                    f"{first} and {path} share the stem {path.stem!r}, "
                    "so their outputs would overwrite each other"
                )
    return [files[stem] for stem in sorted(files)]


def _outdir(flag: str | None, fallback):
    """The output directory: ``flag``, else SPINSAT_OUTDIR, else ``fallback``."""
    return flag or os.environ.get("SPINSAT_OUTDIR") or fallback


def _setting(name: str, kind, value):
    """``value`` for the ``RunConfig`` field ``name`` of type ``kind``, a list
    made a tuple. InputError unless it has that JSON type: an int passes for
    a float and stays an int, as ``run_manifest.json`` shows; a bool is no int;
    a list for a fixed-length tuple has that length."""
    is_tuple = typing.get_origin(kind) is tuple
    args = typing.get_args(kind)
    element = args[0] if is_tuple else kind
    length = len(args) if is_tuple and Ellipsis not in args else None
    accepted = (int, float) if element is float else (element,)
    items = value if is_tuple and isinstance(value, list) else [value]
    if (isinstance(value, list) == is_tuple and all(type(item) in accepted for item in items)
            and length in (None, len(items))):
        return tuple(value) if is_tuple else value
    expected = "a list of " * is_tuple + element.__name__ + f" of length {length}" * (length is not None)
    raise InputError(f"config key {name} must be {expected}, got {value!r}")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then SPINSAT_OUTDIR, then the ``--config`` file, then every
    flag whose dest names a ``RunConfig`` field; the later source wins."""
    types = typing.get_type_hints(RunConfig)
    from_file = {}
    if args.config:
        try:
            from_file = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise InputError(f"config file {args.config}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise InputError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(from_file) - set(types))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
    # An absent flag parses as None, an absent nargs="*" positional as [].
    from_flags = {k: v for k, v in vars(args).items() if k in types and v not in (None, [])}
    settings = {"outdir": _outdir(None, DEFAULT_OUTDIR)}
    for name, value in [*from_file.items(), *from_flags.items()]:
        settings[name] = _setting(name, types[name], value)
    return RunConfig(**settings)


def _add_file_flags(parser: argparse.ArgumentParser, compiles: bool, anneals: bool) -> None:
    """Flags of a per-file subcommand: inputs, ``--config`` and ``--lenient``
    for all; the output directory and gadget for one that compiles (and so
    writes); the seed and schedule for one that anneals."""
    parser.add_argument("inputs", nargs="*", help="CNF files or directories of *.cnf files")
    parser.add_argument("--config", help="JSON config file; explicit flags win")
    parser.add_argument("--lenient", action="store_true", default=None,
                        help="downgrade clause-count mismatches to warnings")
    if compiles:
        parser.add_argument("--outdir", help=f"output directory (default {DEFAULT_OUTDIR})")
        parser.add_argument("--k-factor", dest="k_factor", type=float,
                            help=f"gadget penalty scale (default {RunConfig.k_factor:g})")
        parser.add_argument("--paper-literal-gadget", dest="gadget_mode", action="store_const",
                            const=GADGET_PAPER_LITERAL,
                            help="use the non-exact literal gadget penalty (for regression comparison)")
    if anneals:
        parser.add_argument("--seed", type=int, help=f"base seed (default {RunConfig.seed})")
        parser.add_argument("--t0", type=float, help=f"initial temperature (default {RunConfig.t0:g})")
        parser.add_argument("--alpha", type=float, help=f"cooling factor (default {RunConfig.alpha:g})")
        parser.add_argument("--steps", type=int, help=f"annealing steps (default {RunConfig.steps})")
        parser.add_argument("--sweeps", action="store_true", default=None,
                            help="attempt one flip per spin each step instead of a single flip")


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise InputError(f"count must be at least 1, got {args.count}")
    if Path(args.prefix).name != args.prefix:
        raise InputError(f"prefix must be a plain file name, got {args.prefix!r}")
    _check_stem(f"{args.prefix}-001", "--prefix")
    outdir = _check_outdir(_outdir(args.outdir, DEFAULT_OUTDIR))
    written = attempts = 0
    max_attempts = max(1000, 200 * args.count)
    while written < args.count:
        if attempts >= max_attempts:
            print(
                f"error: gave up after {attempts} attempts; "
                f"only {written}/{args.count} satisfiable instances found",
                file=sys.stderr,
            )
            return 1
        generator_seed = args.seed + attempts
        attempts += 1
        try:
            formula = generate_random_3sat(args.n, args.m, generator_seed)
        except ValueError as exc:
            raise InputError(exc) from exc
        if args.satisfiable_only and solve(formula) is None:
            continue
        written += 1
        name = f"{args.prefix}-{written:03d}.cnf"
        body = write_dimacs(formula)
        if args.satlib_footer:
            body += "%\n0\n"
        header = f"c random 3-SAT instance: n={args.n} m={args.m} generator_seed={generator_seed}\n"
        _atomic_write(outdir / name, header + body)
        print(f"wrote {outdir / name}")
    return 0


def _isolated(work, job: tuple[str, RunConfig]) -> tuple[bool, object, list[str]]:
    """Whether ``work(job)`` returned, its result or ``"<Type>: <message>"``,
    and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ok, value = True, work(job)
        except Exception as exc:  # per-file isolation: the batch continues
            ok, value = False, f"{type(exc).__name__}: {exc}"
    return ok, value, [str(warning.message) for warning in caught]


def _outcomes(isolated, jobs: list[tuple[str, RunConfig]], workers: int):
    """``isolated(job)`` for each job, in job order. More than one worker runs
    them in a pool of at most one process per job, submitting the next job as
    it takes the oldest outcome, so at most ``2 * workers`` are in flight."""
    workers = min(workers, len(jobs))
    if workers == 1:
        yield from map(isolated, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque()
        for job in jobs:
            window.append(pool.submit(isolated, job))
            if len(window) == 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _for_each_file(config: RunConfig, work):
    """Apply ``work`` to the job ``(path, config)`` of every input file.

    Yields ``(path, ok, value)`` per file in stem order as its job ends,
    ``value`` being the job's result or ``"<Type>: <message>"``. Each warning
    a job raises is reported as one ``warning: <path>: <message>`` line,
    unless the settings check already printed it, and a failure as one
    ``error: <path>: <Type>: <message>`` line; the batch goes on. Settings
    are checked once first, so none fails every file with the same error.
    ``config.workers > 1`` runs the jobs in a process pool, so ``work``
    must be a module-level function.
    """
    printed = _check_settings(config)
    files = _collect_inputs(list(config.inputs))
    if not files:
        raise InputError("no input files")
    outcomes = _outcomes(partial(_isolated, work), [(str(p), config) for p in files], config.workers)
    for path, (ok, value, messages) in zip(files, outcomes):
        for message in messages:
            if message not in printed:
                print(f"warning: {path}: {message}", file=sys.stderr)
        if not ok:
            print(f"error: {path}: {value}", file=sys.stderr)
        yield path, ok, value


def _print_lines(args: argparse.Namespace, work, writes: bool = False) -> int:
    """Print the line ``work`` returns for each file, in stem order; ``writes``
    if ``work`` writes to the output directory."""
    config = _merge_config(args)
    if writes:
        _check_outdir(config.outdir)
    failed = False
    for _, ok, line in _for_each_file(config, work):
        if ok:
            print(line)
        failed |= not ok
    return 1 if failed else 0


def _write_hamiltonian(outdir: Path, H: Hamiltonian) -> None:
    nodes, edges = export_csv(H)
    _atomic_write(outdir / f"ising_nodes_{H.source}.csv", nodes)
    _atomic_write(outdir / f"ising_edges_{H.source}.csv", edges)


def _write_trajectory(outdir: Path, traj: Trajectory) -> None:
    _atomic_write(outdir / trajectory_filename(traj.instance, traj.seed), trajectory_csv(traj))


def _compile_line(job: tuple[str, RunConfig]) -> str:
    path, config = job
    formula = parse_dimacs_file(path, lenient=config.lenient)
    H = compile_hamiltonian(formula, config.k_factor, config.gadget_mode)
    _write_hamiltonian(Path(config.outdir), H)
    return f"{formula.source_name}: {H.num_spins} spins, {len(H.couplings)} couplings"


def _solve_line(job: tuple[str, RunConfig]) -> str:
    path, config = job
    formula = parse_dimacs_file(path, lenient=config.lenient)
    model = solve(formula)
    if model is None:
        return f"{formula.source_name}: sat=false"
    literals = " ".join(str((v + 1) if value else -(v + 1)) for v, value in enumerate(model))
    return f"{formula.source_name}: sat=true model= {literals}"


def _backbone_line(job: tuple[str, RunConfig], exact: bool = False) -> str:
    path, config = job
    formula = parse_dimacs_file(path, lenient=config.lenient)
    models, _, size, exact_size = model_sets(formula, config.cap)
    if size is None:
        return f"{formula.source_name}: sat=false"
    normalized = f"{size / formula.num_vars:.3f}" if formula.num_vars else "n/a"
    line = (
        f"{formula.source_name}: models>={len(models.models)}"
        f" truncated={str(models.truncated).lower()}"
        f" backbone={size} normalized={normalized}"
    )
    if exact and exact_size is not None:
        line += f" backbone_exact={exact_size}"
    return line


def _anneal_line(job: tuple[str, RunConfig]) -> str:
    path, config = job
    formula = parse_dimacs_file(path, lenient=config.lenient)
    H = compile_hamiltonian(formula, config.k_factor, config.gadget_mode)
    seed = derive_seed(config.seed, formula.source_name)
    traj = anneal(H, formula, config.schedule(), seed, sweeps=config.sweeps)
    _write_trajectory(Path(config.outdir), traj)
    return (
        f"{formula.source_name}: seed={seed}"
        f" final_E_logic={int(traj.energy_logic[-1])}"
        f" final_|M|={abs(float(traj.magnetization[-1])):.3f}"
    )


def _run_instance(job: tuple[str, RunConfig]) -> tuple:
    """Full pipeline for one instance: its summary row, Hamiltonian and trajectory."""
    path, config = job
    formula = parse_dimacs_file(path, lenient=config.lenient)
    H = compile_hamiltonian(formula, config.k_factor, config.gadget_mode)

    capped_models, exact_models, capped_size, exact_size = model_sets(formula, config.cap)
    sat = capped_size is not None
    slack_value = None
    if sat and formula.num_clauses:
        slack_models = capped_models if exact_models is None else exact_models
        slack_value = mean_slack(formula, slack_models.models)

    seed = derive_seed(config.seed, formula.source_name)
    traj = anneal(H, formula, config.schedule(), seed, sweeps=config.sweeps)
    try:
        beta_fit = analysis.fit_beta_trajectory(traj, config.beta_window)
    except ValueError:
        beta_fit = None
    summary = analysis.build_summary(
        formula,
        traj,
        sat=sat,
        backbone_capped=capped_size,
        backbone_exact=exact_size,
        mean_slack=slack_value,
        beta_fit=beta_fit,
    )
    return summary, H, traj


def cmd_run(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    outdir = _check_outdir(config.outdir)
    files, summaries, failures, sums = [], [], [], None
    # An instance's files are written as it arrives; its summary row is kept.
    for path, ok, value in _for_each_file(config, _run_instance):
        files.append(path)
        if not ok:
            failures.append({"file": str(path), "error": value})
            continue
        summary, H, traj = value
        _write_hamiltonian(outdir, H)
        _write_trajectory(outdir, traj)
        if sums is None:
            sums = analysis.BinSums(traj.schedule, config.bins)
        sums.add(traj)
        summaries.append(summary)

    pooled_beta = None
    if summaries:
        _atomic_write(outdir / analysis.SUMMARY_FILENAME, analysis.summary_csv(summaries))
        curves = sums.curves()
        _atomic_write(outdir / "binned_curves.csv", curves.to_csv())
        try:
            pooled = analysis.fit_beta(curves.bin_t, curves.mean_abs_magnetization, config.beta_window)
            pooled_beta = {"beta": pooled.beta, "r_squared": pooled.r_squared}
        except ValueError:
            pooled_beta = None

    manifest = {
        "command": "run",
        "version": __version__,
        "config": asdict(config),
        "instances": [
            {"file": str(path), "instance": path.stem, "seed": derive_seed(config.seed, path.stem)}
            for path in files
        ],
        "failures": failures,
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


def cmd_report(args: argparse.Namespace) -> int:
    summary_path = Path(args.summary)
    outdir = _check_outdir(_outdir(args.outdir, summary_path.parent))
    try:
        summaries = analysis.read_summary_csv(summary_path.read_text(encoding="utf-8"))
        if len(summaries) < 3:
            raise InputError("need at least three summary rows")
        agg = analysis.aggregate(summaries)
        matrix = analysis.correlation_matrix(summaries, args.energy_column, args.backbone_column)
    except OSError as exc:
        raise InputError(f"summary {summary_path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise InputError(exc) from exc
    aggregate_table = analysis.format_aggregate_table(agg, args.energy_column, args.backbone_column)
    correlation_table = analysis.format_correlation_table(matrix)
    print(f"Aggregate annealing statistics over {len(summaries)} runs")
    print(aggregate_table)
    print("Correlation matrix between logical and physical observables")
    print(correlation_table)

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
    gen.add_argument("--seed", type=int, default=RunConfig.seed, help="base seed (default %(default)s)")
    gen.add_argument("--prefix", default="rand3sat")
    gen.add_argument("--outdir", help=f"output directory (default {DEFAULT_OUTDIR})")
    gen.add_argument("--satisfiable-only", action="store_true")
    gen.add_argument("--satlib-footer", action="store_true",
                     help="append the '%%' / '0' footer found in SATLIB files")

    for name, help_text, compiles, anneals in (
        ("compile", "emit node/edge coefficient tables per instance", True, False),
        ("solve", "solve each instance and print one model", False, False),
        ("backbone", "enumerate models (capped) and report the backbone", False, False),
        ("anneal", "compile and anneal each instance, writing trajectories", True, True),
        ("run", "full pipeline: parse, solve, backbone, compile, anneal, summarize", True, True),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_file_flags(p, compiles, anneals)
        if name in ("backbone", "run"):
            p.add_argument("--cap", type=int, help=f"model enumeration cap (default {RunConfig.cap})")
        if name == "backbone":
            p.add_argument("--exact", action="store_true",
                           help="also report the exhaustive-scan backbone")
        if name == "run":
            p.add_argument("--workers", type=int,
                           help=f"instance-level worker pool size (default {RunConfig.workers})")
            p.add_argument("--bins", type=int,
                           help=f"temperature bins for pooled curves (default {RunConfig.bins})")
            p.add_argument("--beta-window", dest="beta_window", type=float, nargs=2,
                           metavar=("T_LO", "T_HI"),
                           help="power-law fit window (default %g %g)" % RunConfig.beta_window)

    report = sub.add_parser("report", help="aggregate and correlation tables from a summary CSV")
    report.add_argument("summary", help="path to the run summary CSV")
    report.add_argument("--outdir", help="output directory (default: the summary's directory)")
    report.add_argument("--energy-column", default=RunConfig.energy_column,
                        choices=("final_energy_logic", "final_energy_h"),
                        help="energy column to correlate (default %(default)s)")
    report.add_argument("--backbone-column", default=RunConfig.backbone_column,
                        choices=("backbone_capped", "backbone_exact"),
                        help="backbone column to correlate (default %(default)s)")
    return parser


COMMANDS = {
    "gen": cmd_gen,
    "compile": lambda args: _print_lines(args, _compile_line, writes=True),
    "solve": lambda args: _print_lines(args, _solve_line),
    "backbone": lambda args: _print_lines(args, partial(_backbone_line, exact=args.exact)),
    "anneal": lambda args: _print_lines(args, _anneal_line, writes=True),
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
