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
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
    """Per-step record of an annealing run, including the initial state.

    ``energy_h`` is offset-normalized (raw Hamiltonian energy minus the
    compile-time floor constant), so it reads as residual constraint energy.
    """

    instance: str
    seed: int
    schedule: Schedule
    step_index: np.ndarray
    temperatures: np.ndarray
    energy_h: np.ndarray
    energy_logic: np.ndarray
    magnetization: np.ndarray
    final_state: SpinState

    def __len__(self) -> int:
        return len(self.step_index)


# ``anneal`` turns about this many draws at a time (whole steps) into Python
# numbers, so a --sweeps run never holds its whole stream as boxed floats.
_BLOCK_DRAWS = 1 << 14


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
    (``sweeps=True`` attempts one flip per spin instead); energy, the
    unsatisfied-clause count of the current core assignment, and core
    magnetization are recorded after every step.
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
    floor = H.energy_floor

    rec_temperature = [sched.t0]
    rec_energy_h = [energy_raw - floor]
    rec_energy_logic = [unsat]
    rec_core_sum = [core_sum]

    exp = math.exp
    block_steps = max(1, _BLOCK_DRAWS // attempts_per_step)
    for first in range(1, sched.steps + 1, block_steps):
        last = min(first + block_steps, sched.steps + 1)
        block = slice((first - 1) * attempts_per_step, (last - 1) * attempts_per_step)
        block_indices = flip_indices[block].tolist()
        block_uniforms = uniforms[block].tolist()
        draw = 0
        for t in range(first, last):
            temperature = sched.t0 * sched.alpha**t
            for _ in range(attempts_per_step):
                i = block_indices[draw]
                u = block_uniforms[draw]
                draw += 1
                new_value = -spins[i]
                d_e = 2.0 * new_value * field[i]
                if d_e <= 0.0 or u < exp(-d_e / temperature):
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
            rec_temperature.append(temperature)
            rec_energy_h.append(energy_raw - floor)
            rec_energy_logic.append(unsat)
            rec_core_sum.append(core_sum)

    return Trajectory(
        instance=f.source_name,
        seed=seed,
        schedule=sched,
        step_index=np.arange(sched.steps + 1, dtype=np.int64),
        temperatures=np.array(rec_temperature, dtype=np.float64),
        energy_h=np.array(rec_energy_h, dtype=np.float64),
        energy_logic=np.array(rec_energy_logic, dtype=np.int32),
        magnetization=np.array(rec_core_sum, dtype=np.float64) / n_core,
        final_state=np.array(spins, dtype=np.int8),
    )


def _column_texts(values: np.ndarray) -> list[str]:
    """``format_float`` of each value, called once per distinct bit pattern.

    Keying on the int64 view keeps -0.0 and 0.0 apart, as the text does.
    """
    patterns, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True
    )
    texts = np.array([format_float(x) for x in patterns.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


@functools.lru_cache(maxsize=1)
def _temperature_texts(raw: bytes) -> tuple[str, ...]:
    # Every trajectory of one schedule has the same temperature column.
    return tuple(map(format_float, np.frombuffer(raw, dtype=np.float64).tolist()))


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV (LF endings, 17-significant-digit floats).

    Floats go through ``format_float``, once per distinct value of a column;
    the rendered temperature column is reused while consecutive trajectories
    share a schedule.
    """
    rows = zip(
        map(str, np.asarray(traj.step_index, dtype=np.int64).tolist()),
        _temperature_texts(np.asarray(traj.temperatures, dtype=np.float64).tobytes()),
        _column_texts(traj.energy_h),
        map(str, np.asarray(traj.energy_logic, dtype=np.int64).tolist()),
        _column_texts(traj.magnetization),
    )
    header = "step,temperature,energy_h,energy_logic,magnetization"
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def trajectory_filename(instance: str, seed: int) -> str:
    return f"traj_{instance}_{seed}.csv"
