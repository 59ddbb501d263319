"""Seeded Metropolis simulated annealing with exponential cooling.

Reproducibility contract: a trajectory is fully determined by the
Hamiltonian, the schedule, and the seed. Randomness comes from a single
PCG64 stream consumed in a fixed layout (initial spins, then all flip
indices, then all uniforms), so two runs with equal inputs produce
byte-identical trajectory CSVs. The layout does not depend on how the
draws are split into calls: PCG64 keeps the unused half of a 32-bit draw
between ``integers`` calls, and each uniform takes one whole 64-bit draw.
So the flip indices are drawn ``_BLOCK_DRAWS`` at a time into one array of
the smallest unsigned dtype that holds a spin index (1 byte per attempt up
to 256 spins), and the uniforms, which come last, a block at a time as the
scalar loops and ``_next_accept`` reach them (``_Uniforms``). A run holds
its flip indices, and at most a block or a scan window of uniforms past
the current attempt.

The kernel keeps each spin's flip cost -2 s_i (h_i + sum_j J_ij s_j), the
exact energy change of flipping it. A proposal reads its cost; an accepted
flip of spin i negates cost_i and takes 4 s_i s_j J_ij (s_i the new value)
from each neighbour's, so a rejected proposal costs one list read and the
test. With one attempt per step, attempt k is step k + 1, so the default
schedule runs one flat loop over attempts; ``sweeps=True`` loops over steps
and over each step's attempts. Both loops accept by the same test and hand
the stream to ``_next_accept`` at the same attempt. The formula holds its
occurrence index (``Formula.occurrences``) and the Hamiltonian its neighbour
lists and coupling table, so runs over one instance build their set-up once,
and runs of one schedule share its temperatures, as an array and a list.

Compiled Hamiltonians, and any read back losslessly from ``export_csv``
tables, have dyadic coefficients (see ``spinsat.ising``), so every kept cost
and the first energy equal the sums recomputed from scratch bit for bit, in
any order. A hand-built Hamiltonian with inexact floats still anneals
deterministically, with its first fields and energy added in a fixed
per-spin order, but its kept costs and energies may round differently
from a recomputation.

Late in a schedule the state freezes and almost every proposal is
rejected. Once a few hundred attempts in a row (whole steps) have accepted
nothing, ``_next_accept`` scans the proposals a window at a time, drawing
each window's uniforms, against the costs, which cannot change before the
next accept. No flip is cheaper than the cheapest positive cost, so numpy
keeps only the proposals of a free spin (cost <= 0), with a zero uniform,
or with a uniform below exp(-cheapest / T) widened by 2**-30, far more
than np.exp and math.exp can differ. Each of these, in order, takes the
scalar loop's own math.exp test, so numpy never decides an accept. The scalar loop resumes at the
first accepted proposal, mid-step if need be, so the stream, the records
and every trajectory are the scalar loop's own.

Rows are steps, row 0 the initial state. Only a step that accepts a flip
appends a (step, energy, unsatisfied count, core spin sum) record to one
list, which becomes rows at the end, one ``np.repeat`` per column.
``trajectory_csv`` renders the step and temperature columns once per
schedule, the rest once per run of equal rows.
"""
from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cnf import Formula
from .ising import Hamiltonian, SpinState, format_float

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
        if not 0 < self.t0 < math.inf:
            raise ValueError("t0 must be positive and finite")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        # An integer, held as int: Schedule(steps=3.0) would be an equal cache key.
        try:
            object.__setattr__(self, "steps", operator.index(self.steps))
        except TypeError:
            raise ValueError(f"steps must be an integer, got {self.steps!r}") from None
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


# ``anneal`` draws the flip indices this many at a time, and draws uniforms and
# turns them into Python numbers at most this many at a time (whole steps).
# Those blocks start at 1/16 of it and double, so a scan that stops soon after
# a block begins has converted few draws for nothing.
_BLOCK_DRAWS = 1 << 14
# After this many attempts (whole steps) with no accept, ``_next_accept``
# scans ahead in windows that start at _SCAN_DRAWS draws and grow 4x up to
# _BLOCK_DRAWS. Its bound exceeds np.exp's value by a relative _EXP_SLACK,
# far more than np.exp and math.exp (a few ulp each) can differ.
_QUIET_DRAWS = 256
_SCAN_DRAWS = 256
_EXP_SLACK = 2.0**-30
# The smallest positive float: u < _LEAST only for u == 0.0.
_LEAST = math.ulp(0.0)


@functools.lru_cache(maxsize=1)
def _temperatures(sched: Schedule) -> tuple[np.ndarray, list[float]]:
    """``sched.temperature(t)`` for t = 0..steps, as a read-only column and a list."""
    temperature_list = list(map(sched.temperature, range(sched.steps + 1)))
    temperatures = np.array(temperature_list)
    temperatures.flags.writeable = False
    return temperatures, temperature_list


class _Uniforms:
    """A run's ``total`` uniforms, drawn from its stream as the kernel reaches them.

    ``take(k, stop)`` returns uniforms k..stop-1. Requests only move forward
    (k never precedes the previous request's k), so only the draws from the
    last request's start on are kept. A request past the drawn ones draws at
    least ``_BLOCK_DRAWS`` more (or the rest), so a run makes few draw calls
    and a default 6,000-step run one.
    """

    def __init__(self, rng: np.random.Generator, total: int) -> None:
        self._rng = rng
        self._total = total
        self._start = 0
        self._drawn = np.empty(0)

    def take(self, k: int, stop: int) -> np.ndarray:
        end = self._start + len(self._drawn)
        if stop > end:
            start = min(k, end)
            count = max(stop - end, min(_BLOCK_DRAWS, self._total - end))
            fresh = self._rng.random(size=count)
            self._drawn = np.concatenate((self._drawn[start - self._start:], fresh))
            self._start = start
        return self._drawn[k - self._start:stop - self._start]


def _next_accept(
    flip_indices: np.ndarray,
    uniforms: Callable[[int, int], np.ndarray],
    temperatures: np.ndarray,
    cost: list[float],
    start: int,
    attempts_per_step: int,
) -> int:
    """Index of the first attempt at or after ``start`` that the scalar loop accepts.

    Returns ``len(flip_indices)`` if none does. ``uniforms(k, stop)``
    returns the uniforms of attempts k..stop-1 (``_Uniforms.take``), which
    the scan asks for a window at a time, forward only. Nothing changes the
    state before that accept, so ``cost`` holds every proposal's flip cost.
    Attempt k runs at ``temperatures[k // attempts_per_step + 1]``. With
    ``floor`` the cheapest positive cost, a proposal can be accepted only if
    its cost is <= 0, its uniform is 0.0, or its uniform is below
    exp(-floor / T): a dearer flip has a smaller -cost / T, as IEEE division
    is monotone. numpy only picks these candidates, with a margin; each one,
    in order, takes the scalar loop's own test.
    """
    total = len(flip_indices)
    costs = np.array(cost, dtype=np.float64)
    free = costs <= 0.0
    floor = costs[~free].min(initial=math.inf)
    window, k = _SCAN_DRAWS, start
    while k < total:
        stop = min(k + window, total)
        first, last = k // attempts_per_step + 1, (stop - 1) // attempts_per_step + 1
        # Python overflows -floor / T to -inf and underflows exp to 0 silently;
        # numpy must too.
        with np.errstate(over="ignore", under="ignore"):
            bound = np.exp(-floor / temperatures[first:last + 1]) * (1.0 + _EXP_SLACK)
        # One bound per step, raised to _LEAST so that u == 0.0 is a candidate,
        # then one per attempt from attempt k on.
        skip = k - (first - 1) * attempts_per_step
        bound = np.repeat(np.maximum(bound, _LEAST), attempts_per_step)[skip:skip + stop - k]
        window_uniforms = uniforms(k, stop)
        # ``take``, because indexing by a uint8 array first casts it, ~3x slower.
        candidates = (window_uniforms < bound) | free.take(flip_indices[k:stop])
        for c in np.flatnonzero(candidates).tolist():
            a = k + c
            d_e = cost[flip_indices[a]]
            if d_e <= 0.0 or window_uniforms[c] < math.exp(-d_e / temperatures[a // attempts_per_step + 1]):
                return a
        k = stop
        window = max(window, min(4 * window, _BLOCK_DRAWS))
    return total


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
    state = 2 * rng.integers(0, 2, size=num_spins) - 1
    spins = state.tolist()

    attempts_per_step = num_spins if sweeps else 1
    total_attempts = sched.steps * attempts_per_step
    flip_indices = np.empty(total_attempts, dtype=np.min_scalar_type(num_spins - 1))
    for k in range(0, total_attempts, _BLOCK_DRAWS):
        stop = min(k + _BLOCK_DRAWS, total_attempts)
        flip_indices[k:stop] = rng.integers(0, num_spins, size=stop - k)
    uniforms = _Uniforms(rng, total_attempts).take

    adjacency = H.adjacency
    # field[i] = h_i + sum_j J_ij s_j, from which the kept flip costs start. np.add.at
    # adds h_i, then the neighbours in ``adjacency`` order: a per-spin loop's sum.
    fields, rows, cols, values = H.coupling_table
    field = fields.copy()
    np.add.at(field, rows, values * state[cols])
    occurrences = f.occurrences
    # slack[j] counts the literals of clause j that the spins satisfy.
    slack = [0] * f.num_clauses
    for spin, clauses in zip(spins, occurrences):
        for cj, sign in clauses:
            if spin == sign:
                slack[cj] += 1
    unsat = slack.count(0)
    core_sum = sum(spins[:n_core])
    # sum_i s_i field_i counts each coupling twice, so this is the raw energy.
    energy_raw = H.offset + sum((state * (fields + field)).tolist()) / 2
    # cost[i] = -2 s_i field[i], the energy change of flipping spin i.
    cost = ((-2.0 * state) * field).tolist()

    # The state after step 0 and after each step that accepted a flip.
    records = [(0, energy_raw, unsat, core_sum)]
    temperatures, temperature_list = _temperatures(sched)

    exp = math.exp
    # A step that accepts nothing at or after step ``wake`` hands the stream to
    # ``_next_accept``; the scalar loop resumes at the attempt it returns.
    quiet_steps = -(-_QUIET_DRAWS // attempts_per_step)
    wake = quiet_steps
    k = 0
    if not sweeps:
        block = max(1, _BLOCK_DRAWS >> 4)
        # One attempt per step: attempt k is step k + 1, and every accept is a record.
        while k < total_attempts:
            stop = min(k + block, total_attempts)
            draws = zip(
                range(k + 1, stop + 1),
                flip_indices[k:stop].tolist(),
                uniforms(k, stop).tolist(),
                temperature_list[k + 1:stop + 1],
            )
            k = stop
            block = min(2 * block, _BLOCK_DRAWS)
            for t, i, u, temperature in draws:
                d_e = cost[i]
                if d_e <= 0.0 or u < exp(-d_e / temperature):
                    new_value = spins[i] = -spins[i]
                    cost[i] = -d_e
                    energy_raw += d_e
                    shift = 4 * new_value
                    for j, jf in adjacency[i]:
                        cost[j] -= shift * spins[j] * jf
                    if i < n_core:
                        core_sum += 2 * new_value
                        for cj, sign in occurrences[i]:
                            if sign == new_value:
                                slack[cj] += 1
                                if slack[cj] == 1:
                                    unsat -= 1
                            else:
                                slack[cj] -= 1
                                if slack[cj] == 0:
                                    unsat += 1
                    records.append((t, energy_raw, unsat, core_sum))
                    wake = t + quiet_steps
                elif t >= wake:
                    k = _next_accept(flip_indices, uniforms, temperatures, cost, t, 1)
                    block = max(1, _BLOCK_DRAWS >> 4)
                    break
    else:
        block = _BLOCK_DRAWS >> 4
        while k < total_attempts:
            first = k // attempts_per_step + 1
            if k % attempts_per_step:
                last = first  # a scan stopped mid-step: finish that step on its own
            else:
                last = min(first - 1 + max(1, block // attempts_per_step), sched.steps)
            stop = last * attempts_per_step
            draws = zip(flip_indices[k:stop].tolist(), uniforms(k, stop).tolist())
            k = stop
            block = min(2 * block, _BLOCK_DRAWS)
            for t, temperature in zip(range(first, last + 1), temperature_list[first:last + 1]):
                accepted = False
                for i, u in islice(draws, attempts_per_step):
                    d_e = cost[i]
                    if d_e <= 0.0 or u < exp(-d_e / temperature):
                        accepted = True
                        new_value = spins[i] = -spins[i]
                        cost[i] = -d_e
                        energy_raw += d_e
                        shift = 4 * new_value
                        for j, jf in adjacency[i]:
                            cost[j] -= shift * spins[j] * jf
                        if i < n_core:
                            core_sum += 2 * new_value
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
                    records.append((t, energy_raw, unsat, core_sum))
                    wake = t + quiet_steps
                elif t >= wake:
                    k = _next_accept(
                        flip_indices, uniforms, temperatures, cost, t * attempts_per_step,
                        attempts_per_step,
                    )
                    block = _BLOCK_DRAWS >> 4
                    break

    # Row t repeats the last record at or before step t.
    rec_step, rec_energy, rec_unsat, rec_core_sum = zip(*records)
    bounds = np.array((*rec_step, sched.steps + 1))
    counts = bounds[1:] - bounds[:-1]
    return Trajectory(
        instance=f.source_name,
        seed=seed,
        schedule=sched,
        temperatures=temperatures,
        energy_h=np.repeat(np.array(rec_energy, dtype=np.float64) - H.energy_floor, counts),
        energy_logic=np.repeat(np.array(rec_unsat, dtype=np.int32), counts),
        magnetization=np.repeat(np.array(rec_core_sum, dtype=np.float64) / n_core, counts),
        final_state=np.array(spins, dtype=np.int8),
    )


def _column_texts(patterns: np.ndarray) -> list[str]:
    """``format_float`` of each float64 bit pattern, called once per distinct one."""
    distinct, inverse = np.unique(patterns, return_inverse=True)
    texts = np.array(list(map(format_float, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


@functools.lru_cache(maxsize=1)
def _row_prefixes(key: Schedule | bytes) -> tuple[str, ...]:
    """Row prefixes of a schedule's own column, or of the column with float64 bytes ``key``."""
    temperatures = _temperatures(key)[1] if isinstance(key, Schedule) else np.frombuffer(key).tolist()
    return tuple(f"{step},{format_float(temperature)}," for step, temperature in enumerate(temperatures))


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV (LF endings, 17-significant-digit floats).

    Row t's step is t. The ``step,temperature,`` prefixes are reused while
    consecutive trajectories share the temperature column; the rest of a row
    is rendered once per run of rows with equal bit patterns, so -0.0 and
    0.0 stay apart.
    """
    # Runs of one schedule share its column; a copied or hand-built one is known by its bytes.
    column = traj.temperatures
    own = column is _temperatures(traj.schedule)[0]
    prefixes = _row_prefixes(traj.schedule if own else np.asarray(column, dtype=np.float64).tobytes())
    energy = np.ascontiguousarray(traj.energy_h, dtype=np.float64).view(np.int64)
    logic = np.asarray(traj.energy_logic, dtype=np.int64)
    magnetization = np.ascontiguousarray(traj.magnetization, dtype=np.float64).view(np.int64)
    changed = np.ones(len(energy), dtype=bool)
    changed[1:] = (
        (energy[1:] != energy[:-1]) | (logic[1:] != logic[:-1])
        | (magnetization[1:] != magnetization[:-1])
    )
    starts = np.flatnonzero(changed)
    texts = zip(_column_texts(energy[starts]), map(str, logic[starts].tolist()),
                _column_texts(magnetization[starts]))
    # A run covering rows a..b-1 is their prefixes joined by "<suffix>\n", then one more.
    bounds = [*starts.tolist(), len(energy)]
    parts = ["step,temperature,energy_h,energy_logic,magnetization\n"]
    for suffix, a, b in zip(map(",".join, texts), bounds, bounds[1:]):
        line_end = suffix + "\n"
        parts += (line_end.join(prefixes[a:b]), line_end)
    return "".join(parts)


def trajectory_filename(instance: str, seed: int) -> str:
    return f"traj_{instance}_{seed}.csv"
