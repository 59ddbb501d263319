"""Reduce trajectories to summary statistics and plot-ready tables.

The functions here are pure; ``BinSums`` is a running fold over the
trajectories of one schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, get_type_hints

import numpy as np

from .cnf import Formula, clause_ratio
from .anneal import Trajectory
from .ising import format_float

__all__ = [
    "InstanceSummary",
    "CorrelationMatrix",
    "BetaFit",
    "BinnedCurves",
    "BinSums",
    "DegenerateSeriesError",
    "tail_mean",
    "pearson",
    "correlation_matrix",
    "aggregate",
    "binned_curves",
    "fit_beta",
    "fit_beta_trajectory",
    "build_summary",
    "summary_csv",
    "read_summary_csv",
    "SUMMARY_FILENAME",
    "format_aggregate_table",
    "format_correlation_table",
]

SUMMARY_FILENAME = "paper_quickpub_summary.csv"


class DegenerateSeriesError(ValueError):
    """A statistic is undefined because a series has zero variance."""


def tail_mean(series: Sequence[float], fraction: float = 0.2) -> float:
    """Mean of the final ceil(fraction * len) elements (at least one)."""
    if not len(series):
        raise ValueError("tail mean of an empty series")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    k = max(1, math.ceil(fraction * len(series)))
    tail = series[-k:]
    # Python numbers sum faster than numpy scalars and to the same float.
    tail = tail.tolist() if isinstance(tail, np.ndarray) else list(tail)
    return math.fsum(tail) / len(tail)


def _scaled_by_power_of_two(d: list[float]) -> list[float]:
    e = math.frexp(max(map(abs, d)))[1]
    return [math.ldexp(v, -e) for v in d]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation with population normalization on both sides."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    # Each series' deviations are scaled by the power of two just above the
    # largest, so squares neither overflow nor underflow; the scaling is exact
    # and cancels in rho, which is bit for bit the unscaled one in range.
    dx = _scaled_by_power_of_two([v - mean_x for v in xs])
    dy = _scaled_by_power_of_two([v - mean_y for v in ys])
    var_x = math.fsum(d * d for d in dx) / n
    var_y = math.fsum(d * d for d in dy) / n
    # A constant series can leave a rounding residue in its variance.
    if var_x == 0 or var_y == 0 or len(set(xs)) < 2 or len(set(ys)) < 2:
        raise DegenerateSeriesError("correlation undefined for a constant series")
    cov = math.fsum(a * b for a, b in zip(dx, dy)) / n
    rho = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, rho))


@dataclass(frozen=True)
class InstanceSummary:
    """One pipeline row: final observables of a single (instance, seed) run."""

    instance: str
    seed: int
    sat: bool
    alpha_ratio: float
    final_energy_h: float
    final_energy_logic: float
    final_abs_magnetization: float
    backbone_capped: int | None
    backbone_exact: int | None
    backbone_exact_flag: bool
    mean_slack: float | None
    beta: float | None
    beta_r2: float | None
    t0: float
    alpha: float
    steps: int


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, str, str]
    values: tuple[tuple[float, ...], ...]
    degenerate: tuple[str, ...]


def correlation_matrix(
    summaries: Sequence[InstanceSummary],
    energy_column: str = "final_energy_logic",
    backbone_column: str = "backbone_capped",
) -> CorrelationMatrix:
    """Pairwise Pearson matrix over (final energy, final |M|, backbone size).

    Rows missing a backbone (UNSAT instances) are dropped. A degenerate
    column, one that holds a single distinct value, yields NaN entries and
    is listed in ``degenerate``, in column order.
    """
    if len(summaries) < 3:
        raise ValueError("need at least three summaries")
    rows = [
        (
            float(getattr(s, energy_column)),
            float(s.final_abs_magnetization),
            getattr(s, backbone_column),
        )
        for s in summaries
    ]
    rows = [(e, m, float(b)) for e, m, b in rows if b is not None]
    if len(rows) < 3:
        raise ValueError("fewer than three complete rows")
    labels = ("E_final", "|M_final|", "Backbone")
    columns = list(zip(*rows))
    constant = [len(set(column)) == 1 for column in columns]
    matrix = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for i in range(3):
        for j in range(i + 1, 3):
            rho = math.nan if constant[i] or constant[j] else pearson(columns[i], columns[j])
            matrix[i][j] = matrix[j][i] = rho
    degenerate = tuple(label for label, flat in zip(labels, constant) if flat)
    return CorrelationMatrix(labels, tuple(tuple(row) for row in matrix), degenerate)


_AGGREGATE_COLUMNS = (
    "alpha_ratio",
    "final_energy_h",
    "final_energy_logic",
    "final_abs_magnetization",
    "backbone_capped",
    "backbone_exact",
    "mean_slack",
    "beta",
    "beta_r2",
)


def aggregate(summaries: Sequence[InstanceSummary]) -> dict[str, tuple[float, float]]:
    """Mean and sample (n-1) standard deviation per numeric column.

    Missing values (None) are dropped per column; columns with fewer than
    two remaining values are omitted from the result.
    """
    if len(summaries) < 2:
        raise ValueError("need at least two summaries to aggregate")
    out: dict[str, tuple[float, float]] = {}
    for column in _AGGREGATE_COLUMNS:
        values = [float(getattr(s, column)) for s in summaries if getattr(s, column) is not None]
        if len(values) < 2:
            continue
        n = len(values)
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        out[column] = (mean, math.sqrt(var))
    return out


@dataclass(frozen=True)
class BinnedCurves:
    """Temperature-binned means of energy and |M| pooled over trajectories."""

    bin_t: np.ndarray
    mean_energy: np.ndarray
    mean_abs_magnetization: np.ndarray
    counts: np.ndarray

    def to_csv(self) -> str:
        lines = ["bin_T,mean_E,mean_absM,count"]
        for b in range(len(self.bin_t)):
            count = int(self.counts[b])
            if count:
                e_text = format_float(self.mean_energy[b])
                m_text = format_float(self.mean_abs_magnetization[b])
            else:
                e_text = m_text = ""
            lines.append(f"{format_float(self.bin_t[b])},{e_text},{m_text},{count}")
        return "\n".join(lines) + "\n"


class BinSums:
    """Running per-bin counts and sums of energy and |M|, one trajectory at a time.

    Every trajectory added must hold ``temperatures``, the one object or an
    equal copy, as the runs of one schedule do. ``np.add.at`` adds in index
    order, so a fold in trajectory order sums each bin as ``np.bincount``
    over their concatenation would. One temperature (``steps=0``) makes one
    bin, whose means stay numpy's pairwise means over its kept rows.
    """

    def __init__(self, temperatures: np.ndarray, bins: int = 60):
        if bins < 1:
            raise ValueError("need at least one bin")
        self.temps, self.added = temperatures, 0
        t_min, t_max = float(temperatures.min()), float(temperatures.max())
        self.rows: list | None = [] if t_min == t_max else None
        if self.rows is not None:
            self.bin_t, self.which = np.array([t_min]), np.zeros(len(temperatures), dtype=np.intp)
        else:
            edges = np.geomspace(t_min, t_max, bins + 1)
            self.bin_t = np.sqrt(edges[:-1] * edges[1:])
            self.which = np.clip(np.searchsorted(edges, temperatures, side="right") - 1, 0, bins - 1)
        self.per_trajectory = np.bincount(self.which, minlength=len(self.bin_t))
        self.sums = np.zeros((2, len(self.bin_t)))

    def add(self, traj: Trajectory) -> None:
        if not (traj.temperatures is self.temps or np.array_equal(traj.temperatures, self.temps)):
            raise ValueError("trajectories do not share one temperature column")
        row = (traj.energy_logic.astype(np.float64), np.abs(traj.magnetization))
        for sums, values in zip(self.sums, row):
            np.add.at(sums, self.which, values)
        self.added += 1
        if self.rows is not None:
            self.rows.append(row)

    def curves(self) -> BinnedCurves:
        counts = self.per_trajectory * self.added
        if self.rows is not None:
            means = [np.array([np.concatenate(column).mean()]) for column in zip(*self.rows)]
        else:
            means = np.where(counts > 0, self.sums / np.maximum(counts, 1), np.nan)
        return BinnedCurves(self.bin_t, *means, counts)


def binned_curves(trajectories: Sequence[Trajectory], bins: int = 60) -> BinnedCurves:
    """Pool trajectory points into geometric temperature bins, folding them in
    order through ``BinSums``.

    The binned energy is the unsatisfied-clause count (the logical energy
    column); bin centers are geometric midpoints of the bin edges.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    sums = BinSums(trajectories[0].temperatures, bins)
    for traj in trajectories:
        sums.add(traj)
    return sums.curves()


@dataclass(frozen=True)
class BetaFit:
    """Power-law fit |M| ~ T^(-beta) over a temperature window."""

    beta: float
    r_squared: float
    n_points: int


def fit_beta(
    temperatures: Sequence[float],
    abs_magnetization: Sequence[float],
    window: tuple[float, float] = (0.05, 1.0),
) -> BetaFit:
    """Least-squares slope of log|M| vs log T; beta is the negated slope.

    Points outside the window or with |M| = 0 are excluded; fewer than three
    usable points is an error. The fit is invariant under rescaling |M|
    (the amplitude only shifts the intercept).
    """
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError("fit window must satisfy 0 < lo < hi")
    ts = np.asarray(temperatures, dtype=np.float64)
    ms = np.asarray(abs_magnetization, dtype=np.float64)
    if ts.shape != ms.shape:
        raise ValueError("temperature and magnetization series differ in length")
    usable = (ts >= lo) & (ts <= hi) & (ms > 0) & np.isfinite(ms)
    if int(usable.sum()) < 3:
        raise ValueError("fewer than three usable points in the fit window")
    x = np.log(ts[usable])
    y = np.log(ms[usable])
    x_mean = x.mean()
    y_mean = y.mean()
    var_x = float(np.sum((x - x_mean) ** 2))
    if var_x == 0:
        raise ValueError("all usable points share one temperature")
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / var_x
    residuals = y - (y_mean + slope * (x - x_mean))
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return BetaFit(-slope, r_squared, int(usable.sum()))


def fit_beta_trajectory(
    traj: Trajectory, window: tuple[float, float] = (0.05, 1.0)
) -> BetaFit:
    return fit_beta(traj.temperatures, np.abs(traj.magnetization), window)


def build_summary(
    f: Formula,
    traj: Trajectory,
    *,
    sat: bool,
    backbone_capped: int | None = None,
    backbone_exact: int | None = None,
    mean_slack: float | None = None,
    beta_fit: BetaFit | None = None,
) -> InstanceSummary:
    """Assemble one summary row from the per-instance pipeline outputs.

    Tail statistics average the last 20% of trajectory points; the |M|
    statistic averages per-step |M_t| (absolute value first) so symmetric
    ordered states do not cancel.
    """
    if f.source_name and traj.instance and f.source_name != traj.instance:
        raise ValueError(f"instance labels disagree: {f.source_name!r} vs {traj.instance!r}")
    return InstanceSummary(
        instance=f.source_name,
        seed=traj.seed,
        sat=sat,
        alpha_ratio=clause_ratio(f),
        final_energy_h=tail_mean(traj.energy_h),
        final_energy_logic=tail_mean(traj.energy_logic),
        final_abs_magnetization=tail_mean(np.abs(traj.magnetization)),
        backbone_capped=backbone_capped,
        backbone_exact=backbone_exact,
        backbone_exact_flag=backbone_exact is not None,
        mean_slack=mean_slack,
        beta=beta_fit.beta if beta_fit else None,
        beta_r2=beta_fit.r_squared if beta_fit else None,
        t0=traj.schedule.t0,
        alpha=traj.schedule.alpha,
        steps=traj.schedule.steps,
    )


def _optional(parse):
    return lambda text: parse(text) if text else None


def _flag(text: str) -> bool:
    return text == "true"


# The parser of a cell's text, by the type of its InstanceSummary field.
_PARSERS = {str: str, int: int, float: float, bool: _flag,
            int | None: _optional(int), float | None: _optional(float)}
# (header, InstanceSummary field, parser), in field order; one header
# abbreviates its field's name.
_SUMMARY_COLUMNS = tuple(
    ({"final_abs_magnetization": "final_abs_M"}.get(name, name), name, _PARSERS[kind])
    for name, kind in get_type_hints(InstanceSummary).items()
)
_SUMMARY_HEADER = ",".join(header for header, _, _ in _SUMMARY_COLUMNS)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def summary_csv(summaries: Sequence[InstanceSummary]) -> str:
    lines = [_SUMMARY_HEADER]
    for s in summaries:
        lines.append(",".join(_cell(getattr(s, field)) for _, field, _ in _SUMMARY_COLUMNS))
    return "\n".join(lines) + "\n"


def read_summary_csv(text: str) -> list[InstanceSummary]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != _SUMMARY_HEADER:
        raise ValueError("unrecognized summary CSV header")
    out: list[InstanceSummary] = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_SUMMARY_COLUMNS):
            raise ValueError(f"malformed summary row {line!r}")
        values = {field: parse(cell) for (_, field, parse), cell in zip(_SUMMARY_COLUMNS, parts)}
        out.append(InstanceSummary(**values))
    return out


def format_aggregate_table(
    agg: dict[str, tuple[float, float]],
    energy_column: str = "final_energy_logic",
    backbone_column: str = "backbone_capped",
) -> str:
    """Aggregate statistics in the three-row observable/mean/sd layout."""
    rows = (
        (energy_column, "Final Energy <E_f>", "Residual clause tension"),
        ("final_abs_magnetization", "Final Magnetization <|M_f|>", "Near-complete ordering"),
        (backbone_column, "Backbone Size <b>", "Moderate rigidity"),
    )
    lines = [f"{'Observable':<30} {'Mean':>10} {'Std. Dev.':>10}  Interpretation"]
    lines.append("-" * len(lines[0]))
    for column, label, interpretation in rows:
        if column in agg:
            mean, sd = agg[column]
            lines.append(f"{label:<30} {mean:>10.3f} {sd:>10.3f}  {interpretation}")
        else:
            lines.append(f"{label:<30} {'n/a':>10} {'n/a':>10}  {interpretation}")
    return "\n".join(lines) + "\n"


def format_correlation_table(cm: CorrelationMatrix) -> str:
    width = max(len(label) for label in cm.labels) + 2
    header = " " * width + "".join(f"{label:>{width}}" for label in cm.labels)
    lines = [header]
    for i, label in enumerate(cm.labels):
        cells = "".join(
            f"{'n/a':>{width}}" if math.isnan(cm.values[i][j]) else f"{cm.values[i][j]:>+{width}.3f}"
            for j in range(3)
        )
        lines.append(f"{label:<{width}}" + cells)
    if cm.degenerate:
        lines.append(f"degenerate columns: {', '.join(cm.degenerate)}")
    return "\n".join(lines) + "\n"
