"""Seeded Metropolis simulated annealing with exponential cooling.

Reproducibility contract: a trajectory is fully determined by the
Hamiltonian, the schedule, and the seed. Randomness comes from a single
PCG64 stream consumed in a fixed layout (initial spins, then all flip
indices, then all uniforms), and every float reduction inside the step loop
runs in a fixed order, so two runs with equal inputs produce byte-identical
trajectory CSVs.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cnf import Formula
from .ising import Hamiltonian, SpinState, delta_energy, format_float, hamiltonian_energy

__all__ = [
    "Schedule",
    "Trajectory",
    "metropolis_step",
    "anneal",
    "batch_anneal",
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


def metropolis_step(
    H: Hamiltonian, s: SpinState, T: float, rng: np.random.Generator
) -> tuple[bool, float]:
    """One single-spin-flip proposal at temperature ``T``.

    Picks one index uniformly over all spins (ancillas included), computes
    the flip cost, and accepts with probability min(1, exp(-dE/T)). The flip
    is applied in place on acceptance. Each call consumes exactly one index
    draw and one uniform draw from ``rng``.
    """
    if not T > 0:
        raise ValueError("temperature must be positive")
    i = int(rng.integers(0, H.num_spins))
    d_e = delta_energy(H, s, i)
    u = float(rng.random())
    accepted = d_e <= 0.0 or u < math.exp(-d_e / T)
    if accepted:
        s[i] = -s[i]
    return accepted, d_e


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
    flip_indices = rng.integers(0, num_spins, size=total_attempts).tolist()
    uniforms = rng.random(size=total_attempts).tolist()

    h_flat = H.fields
    adjacency = H.adjacency
    occurrences = _clause_occurrences(f)
    slack = [0] * f.num_clauses
    for j, clause in enumerate(f.clauses):
        slack[j] = sum(1 for lit in clause.literals if spins[lit.var] == lit.sign)
    unsat = sum(1 for count in slack if count == 0)
    core_sum = sum(spins[:n_core])
    energy_raw = hamiltonian_energy(H, spins)
    floor = H.energy_floor

    n_points = sched.steps + 1
    rec_temperature = np.empty(n_points, dtype=np.float64)
    rec_energy_h = np.empty(n_points, dtype=np.float64)
    rec_energy_logic = np.empty(n_points, dtype=np.int32)
    rec_magnetization = np.empty(n_points, dtype=np.float64)

    rec_temperature[0] = sched.t0
    rec_energy_h[0] = energy_raw - floor
    rec_energy_logic[0] = unsat
    rec_magnetization[0] = core_sum / n_core

    exp = math.exp
    draw = 0
    for t in range(1, sched.steps + 1):
        temperature = sched.t0 * sched.alpha**t
        for _ in range(attempts_per_step):
            i = flip_indices[draw]
            u = uniforms[draw]
            draw += 1
            acc = h_flat[i]
            for j, jf in adjacency[i]:
                acc += jf * spins[j]
            d_e = -2.0 * spins[i] * acc
            if d_e <= 0.0 or u < exp(-d_e / temperature):
                new_value = -spins[i]
                spins[i] = new_value
                energy_raw += d_e
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
        rec_temperature[t] = temperature
        rec_energy_h[t] = energy_raw - floor
        rec_energy_logic[t] = unsat
        rec_magnetization[t] = core_sum / n_core

    return Trajectory(
        instance=f.source_name,
        seed=seed,
        schedule=sched,
        step_index=np.arange(n_points, dtype=np.int64),
        temperatures=rec_temperature,
        energy_h=rec_energy_h,
        energy_logic=rec_energy_logic,
        magnetization=rec_magnetization,
        final_state=np.array(spins, dtype=np.int8),
    )


def _anneal_job(args: tuple[Hamiltonian, Formula, Schedule, int, bool]) -> Trajectory:
    H, f, sched, seed, sweeps = args
    return anneal(H, f, sched, seed, sweeps=sweeps)


def batch_anneal(
    instances: Sequence[tuple[Hamiltonian, Formula]],
    sched: Schedule = Schedule(),
    seeds: int | Sequence[int] = 0,
    sweeps: bool = False,
    workers: int = 1,
) -> list[Trajectory]:
    """Anneal several instances, serially or in a process pool.

    ``seeds`` is either one seed per instance or a base seed expanded as
    base + index. Output order follows input order and is identical under
    serial and parallel execution (each run is independent and seeded).
    """
    if isinstance(seeds, int):
        seed_list = [seeds + k for k in range(len(instances))]
    else:
        seed_list = list(seeds)
        if len(seed_list) != len(instances):
            raise ValueError(
                f"got {len(seed_list)} seeds for {len(instances)} instances"
            )
    jobs = [
        (H, f, sched, seed, sweeps) for (H, f), seed in zip(instances, seed_list)
    ]
    if workers <= 1 or len(jobs) <= 1:
        return [_anneal_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_anneal_job, jobs))


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
