"""Seeded Metropolis simulated annealing with exponential cooling.

Reproducibility contract: a trajectory is fully determined by the
Hamiltonian, the schedule, and the seed. Randomness comes from a single
PCG64 stream consumed in a fixed layout (initial spins, then all flip
indices, then all uniforms), so two runs with equal inputs produce
byte-identical trajectory CSVs.

The kernel keeps each spin's local field h_i + sum_j J_ij s_j and updates
the neighbours' fields on every accepted flip, so a rejected proposal costs
O(1). Compiled Hamiltonians, and their ``export_csv``/``import_csv`` round
trips, have dyadic coefficients (see ``spinsat.ising``), so every kept field
equals the sum recomputed from scratch bit for bit, in any order. A
hand-built Hamiltonian with inexact floats still anneals deterministically,
but its kept fields may round differently from a recomputation.

Late in a schedule the state freezes and almost every proposal is
rejected. Once a few hundred attempts in a row (whole steps) have accepted
nothing, ``_next_accept`` judges the pre-drawn proposals a window at a time
in numpy against one copy of the spins and fields, which cannot change
before the next accept. np.exp may differ from math.exp in the last bit, so
a uniform within a relative 2**-40 of np.exp's value, or against a
subnormal exp, is judged by math.exp as the scalar loop judges it. The
scalar loop resumes at the first accepted proposal, mid-step if need be, so
the stream, the records and every trajectory are the scalar loop's own.

Rows are steps, row 0 the initial state. Only a step that accepts a flip
appends a record (step, energy, unsatisfied count, core spin sum), and the
records become rows at the end. ``trajectory_csv`` renders the step and
temperature columns once per schedule, the rest once per run of equal rows.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cnf import Formula
from .ising import Hamiltonian, SpinState, format_float, hamiltonian_energy

__all__ = [
    "Schedule",
    "Trajectory",
    "anneal",
    "trajectory_csv",
    "trajectory_filename",
]


@dataclass(frozen=True)
class Schedule:
    """Exponential cooling: temperature at step t is t0 * alpha**t."""

    t0: float = 2.5
    alpha: float = 0.999
    steps: int = 6000

    def __post_init__(self) -> None:
        if not self.t0 > 0:
            raise ValueError("t0 must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        # The temperature only falls, so a positive last one covers every step.
        if not self.temperature(self.steps) > 0:
            raise ValueError(
                f"temperature underflows to 0: t0 * alpha**steps = "
                f"{self.t0!r} * {self.alpha!r}**{self.steps} is not > 0"
            )

    def temperature(self, t: int) -> float:
        return self.t0 * self.alpha**t


@dataclass
class Trajectory:
    """Per-step record of an annealing run: row t is the state after step t.

    ``energy_h`` is offset-normalized (raw Hamiltonian energy minus the
    compile-time floor constant), so it reads as residual constraint energy.
    ``temperatures`` is read-only: consecutive runs of one schedule share it.
    """

    instance: str
    seed: int
    schedule: Schedule
    temperatures: np.ndarray
    energy_h: np.ndarray
    energy_logic: np.ndarray
    magnetization: np.ndarray
    final_state: SpinState

    def __len__(self) -> int:
        return len(self.temperatures)


# ``anneal`` turns at most this many draws at a time (whole steps) into Python
# numbers, so a --sweeps run never holds its whole stream as boxed floats.
# Blocks start at 1/16 of it and double, so a scan that stops soon after a
# block begins has converted few draws for nothing.
_BLOCK_DRAWS = 1 << 14
# After this many attempts (whole steps) with no accept, ``_next_accept``
# scans ahead in windows that start at _SCAN_DRAWS draws and grow 4x up to
# _BLOCK_DRAWS. It leaves a uniform within _EXP_MARGIN (relative) of np.exp's
# value to math.exp.
_QUIET_DRAWS = 256
_SCAN_DRAWS = 256
_EXP_MARGIN = 2.0**-40
_TINY = float(np.finfo(np.float64).tiny)


@functools.lru_cache(maxsize=1)
def _temperatures(sched: Schedule) -> np.ndarray:
    """``sched.temperature(t)`` for t = 0..steps, read-only, reused while runs share ``sched``."""
    temperatures = np.array(list(map(sched.temperature, range(sched.steps + 1))))
    temperatures.flags.writeable = False
    return temperatures


def _next_accept(
    flip_indices: np.ndarray,
    uniforms: np.ndarray,
    temperatures: np.ndarray,
    spins: list[int],
    field: list[float],
    start: int,
    attempts_per_step: int,
) -> int:
    """Index of the first attempt at or after ``start`` that the scalar loop accepts.

    Returns ``len(uniforms)`` if none does. Nothing changes the state before
    that accept, so the proposals are judged against one numpy copy of
    ``spins`` and ``field``. Attempt k runs at ``temperatures[k //
    attempts_per_step + 1]``.
    """
    total = len(uniforms)
    s = np.array(spins, dtype=np.float64)
    h = np.array(field, dtype=np.float64)
    lower, upper = 1.0 - _EXP_MARGIN, 1.0 + _EXP_MARGIN
    window, k = _SCAN_DRAWS, start
    while k < total:
        stop = min(k + window, total)
        i = flip_indices[k:stop]
        u = uniforms[k:stop]
        d_e = 2.0 * -s[i] * h[i]
        temperature = temperatures[np.arange(k, stop) // attempts_per_step + 1]
        # Python overflows -d_e / T to -inf and underflows exp to 0 silently;
        # numpy must too.
        with np.errstate(over="ignore", under="ignore"):
            e = np.exp(np.minimum(-d_e / temperature, 0.0))
            # math.exp may underflow to 0 where np.exp returns a subnormal, and
            # a uniform of exactly 0.0 is accepted only by a nonzero exp.
            sure_accept = (d_e <= 0.0) | ((u < e * lower) & (e >= _TINY))
            sure_reject = (u >= e * upper) & (u > 0.0)
        for j in np.flatnonzero(sure_accept | ~sure_reject).tolist():
            if sure_accept[j] or u[j] < math.exp(-float(d_e[j]) / float(temperature[j])):
                return k + j
        k = stop
        window = max(window, min(4 * window, _BLOCK_DRAWS))
    return total


def _clause_occurrences(f: Formula) -> list[list[tuple[int, int]]]:
    occurrences: list[list[tuple[int, int]]] = [[] for _ in range(f.num_vars)]
    for j, clause in enumerate(f.clauses):
        for lit in clause.literals:
            occurrences[lit.var].append((j, lit.sign))
    return occurrences


def anneal(
    H: Hamiltonian,
    f: Formula,
    sched: Schedule = Schedule(),
    seed: int = 0,
    sweeps: bool = False,
) -> Trajectory:
    """Run one annealing trajectory over a compiled Hamiltonian.

    Spins initialize uniformly at random from the seeded stream. At step t
    (1-based) the temperature is t0 * alpha**t and one flip is attempted
    (``sweeps=True`` attempts one flip per spin instead). Each row holds the
    energy, the unsatisfied-clause count of the current core assignment, and
    the core magnetization after its step.
    """
    if H.core_count != f.num_vars:
        raise ValueError(
            f"Hamiltonian has {H.core_count} core spins but formula has {f.num_vars} variables"
        )
    if H.core_count < 1:
        raise ValueError("cannot anneal a Hamiltonian with no core spins")
    if H.source and f.source_name and H.source != f.source_name:
        raise ValueError(f"instance mismatch: {H.source!r} vs {f.source_name!r}")

    num_spins = H.num_spins
    n_core = H.core_count
    rng = np.random.Generator(np.random.PCG64(seed))
    spins = [1 if b else -1 for b in rng.integers(0, 2, size=num_spins)]

    attempts_per_step = num_spins if sweeps else 1
    total_attempts = sched.steps * attempts_per_step
    flip_indices = rng.integers(0, num_spins, size=total_attempts)
    uniforms = rng.random(size=total_attempts)

    adjacency = H.adjacency
    # field[i] = h_i + sum_j J_ij s_j; flipping spin i costs -2 s_i field[i].
    field = list(H.fields)
    for i, neighbors in enumerate(adjacency):
        for j, jf in neighbors:
            field[i] += jf * spins[j]
    occurrences = _clause_occurrences(f)
    slack = [0] * f.num_clauses
    for j, clause in enumerate(f.clauses):
        slack[j] = sum(1 for lit in clause.literals if spins[lit.var] == lit.sign)
    unsat = sum(1 for count in slack if count == 0)
    core_sum = sum(spins[:n_core])
    energy_raw = hamiltonian_energy(H, spins)

    # The state after step 0 and after each step that accepted a flip.
    rec_step, rec_energy, rec_unsat, rec_core_sum = [0], [energy_raw], [unsat], [core_sum]
    temperatures = _temperatures(sched)

    exp = math.exp
    # A step that accepts nothing at or after step ``wake`` hands the stream to
    # ``_next_accept``; the scalar loop resumes at the attempt it returns.
    quiet_steps = -(-_QUIET_DRAWS // attempts_per_step)
    wake = quiet_steps
    block = _BLOCK_DRAWS >> 4
    k = 0
    while k < total_attempts:
        first = k // attempts_per_step + 1
        if k % attempts_per_step:
            last = first  # a scan stopped mid-step: finish that step on its own
        else:
            last = min(first - 1 + max(1, block // attempts_per_step), sched.steps)
        stop = last * attempts_per_step
        draws = zip(flip_indices[k:stop].tolist(), uniforms[k:stop].tolist())
        k = stop
        block = min(2 * block, _BLOCK_DRAWS)
        for t, temperature in zip(range(first, last + 1), temperatures[first:last + 1].tolist()):
            accepted = False
            for i, u in islice(draws, attempts_per_step):
                new_value = -spins[i]
                d_e = 2.0 * new_value * field[i]
                if d_e <= 0.0 or u < exp(-d_e / temperature):
                    accepted = True
                    spins[i] = new_value
                    energy_raw += d_e
                    shift = 2 * new_value
                    for j, jf in adjacency[i]:
                        field[j] += shift * jf
                    if i < n_core:
                        core_sum += shift
                        for cj, sign in occurrences[i]:
                            if sign == new_value:
                                slack[cj] += 1
                                if slack[cj] == 1:
                                    unsat -= 1
                            else:
                                slack[cj] -= 1
                                if slack[cj] == 0:
                                    unsat += 1
            if accepted:
                rec_step.append(t)
                rec_energy.append(energy_raw)
                rec_unsat.append(unsat)
                rec_core_sum.append(core_sum)
                wake = t + quiet_steps
            elif t >= wake:
                k = _next_accept(
                    flip_indices, uniforms, temperatures, spins, field, t * attempts_per_step,
                    attempts_per_step,
                )
                block = _BLOCK_DRAWS >> 4
                break

    # Row t repeats the last record at or before step t.
    row = np.searchsorted(rec_step, np.arange(sched.steps + 1), side="right") - 1
    return Trajectory(
        instance=f.source_name,
        seed=seed,
        schedule=sched,
        temperatures=temperatures,
        energy_h=(np.array(rec_energy, dtype=np.float64) - H.energy_floor)[row],
        energy_logic=np.array(rec_unsat, dtype=np.int32)[row],
        magnetization=(np.array(rec_core_sum, dtype=np.float64) / n_core)[row],
        final_state=np.array(spins, dtype=np.int8),
    )


def _column_texts(patterns: np.ndarray) -> list[str]:
    """``format_float`` of each float64 bit pattern, called once per distinct one."""
    distinct, inverse = np.unique(patterns, return_inverse=True)
    texts = np.array(list(map(format_float, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


@functools.lru_cache(maxsize=1)
def _row_prefixes(temperatures: bytes) -> tuple[str, ...]:
    # Every trajectory of one schedule has the same step and temperature columns.
    pairs = enumerate(np.frombuffer(temperatures).tolist())
    return tuple(f"{step},{format_float(temperature)}," for step, temperature in pairs)


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV (LF endings, 17-significant-digit floats).

    Row t's step is t. The ``step,temperature,`` prefixes are reused while
    consecutive trajectories share the temperature column; the rest of a row
    is rendered once per run of rows with equal bit patterns, so -0.0 and
    0.0 stay apart.
    """
    prefixes = _row_prefixes(np.asarray(traj.temperatures, dtype=np.float64).tobytes())
    columns = np.stack([
        np.ascontiguousarray(traj.energy_h, dtype=np.float64).view(np.int64),
        np.asarray(traj.energy_logic, dtype=np.int64),
        np.ascontiguousarray(traj.magnetization, dtype=np.float64).view(np.int64),
    ])
    changed = np.ones(columns.shape[1], dtype=bool)
    changed[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
    starts = np.flatnonzero(changed)
    energy, logic, magnetization = columns[:, starts]
    texts = (_column_texts(energy), map(str, logic.tolist()), _column_texts(magnetization))
    # A run covering rows a..b-1 is their prefixes joined by "<suffix>\n".
    bounds = [*starts.tolist(), columns.shape[1]]
    runs = [
        (suffix + "\n").join(prefixes[a:b]) + suffix
        for suffix, a, b in zip(map(",".join, zip(*texts)), bounds, bounds[1:])
    ]
    return "\n".join(["step,temperature,energy_h,energy_logic,magnetization", *runs]) + "\n"


def trajectory_filename(instance: str, seed: int) -> str:
    return f"traj_{instance}_{seed}.csv"
