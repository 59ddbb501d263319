from __future__ import annotations

import math

import numpy as np
import pytest

from spinsat import ising
from spinsat.anneal import (
    Schedule,
    anneal,
    batch_anneal,
    metropolis_step,
    trajectory_csv,
)
from spinsat.cnf import logical_energy
from spinsat.ising import Hamiltonian, hamiltonian_energy, magnetization, spins_to_assignment


def single_spin_hamiltonian(h: float) -> Hamiltonian:
    return Hamiltonian(offset=0.0, fields=(h,), couplings={}, core_count=1, ancillas=())


@pytest.fixture(scope="module")
def uf20_compiled(uf20_formulas):
    f = uf20_formulas[0]
    return ising.compile(f), f


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_defaults():
    sched = Schedule()
    assert (sched.t0, sched.alpha, sched.steps) == (2.5, 0.999, 6000)


@pytest.mark.parametrize("kwargs", [dict(t0=0), dict(alpha=0), dict(alpha=1), dict(steps=-1)])
def test_schedule_validation(kwargs):
    with pytest.raises(ValueError):
        Schedule(**kwargs)


def test_recorded_temperature_matches_closed_form(uf20_compiled):
    H, f = uf20_compiled
    sched = Schedule(steps=50)
    traj = anneal(H, f, sched, seed=1)
    for t in range(51):
        assert traj.temperatures[t] == sched.t0 * sched.alpha**t


# ---------------------------------------------------------------------------
# metropolis step
# ---------------------------------------------------------------------------


def test_downhill_always_accepted():
    H = single_spin_hamiltonian(1.0)
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(200):
        s = np.array([1], dtype=np.int8)  # flipping gives dE = -2
        accepted, d_e = metropolis_step(H, s, 0.01, rng)
        assert accepted and d_e == -2.0 and s[0] == -1


def test_acceptance_frequency_at_de_equal_t():
    # dE = +1 at T = 1: acceptance probability e^-1, estimated over 10^5
    # trials with a frozen stream.
    H = single_spin_hamiltonian(-0.5)
    rng = np.random.Generator(np.random.PCG64(2024))
    trials = 100_000
    accepted = 0
    for _ in range(trials):
        s = np.array([1], dtype=np.int8)
        ok, d_e = metropolis_step(H, s, 1.0, rng)
        assert d_e == 1.0
        accepted += ok
    assert abs(accepted / trials - math.exp(-1)) <= 0.01


def test_high_temperature_accepts_nearly_everything():
    H = single_spin_hamiltonian(-0.5)
    rng = np.random.Generator(np.random.PCG64(7))
    accepted = sum(
        metropolis_step(H, np.array([1], dtype=np.int8), 1e9, rng)[0] for _ in range(2000)
    )
    assert accepted / 2000 > 0.999


def test_metropolis_requires_positive_temperature():
    H = single_spin_hamiltonian(1.0)
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError):
        metropolis_step(H, np.array([1], dtype=np.int8), 0.0, rng)


# ---------------------------------------------------------------------------
# anneal
# ---------------------------------------------------------------------------


def test_anneal_bit_exact_reproducibility(uf20_compiled):
    H, f = uf20_compiled
    a = anneal(H, f, Schedule(), seed=42)
    b = anneal(H, f, Schedule(), seed=42)
    assert trajectory_csv(a) == trajectory_csv(b)
    assert np.array_equal(a.final_state, b.final_state)
    c = anneal(H, f, Schedule(), seed=43)
    assert trajectory_csv(a) != trajectory_csv(c)


def test_anneal_zero_steps(uf20_compiled):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(steps=0), seed=5)
    assert len(traj) == 1
    assert traj.step_index[0] == 0
    assert traj.temperatures[0] == 2.5


def test_anneal_point_count_and_fields(uf20_compiled):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(steps=120), seed=9)
    assert len(traj) == 121
    assert traj.seed == 9
    assert all(0 <= e <= f.num_clauses for e in traj.energy_logic)
    assert all(abs(m) <= 1 for m in traj.magnetization)


@pytest.mark.parametrize("steps", [0, 1, 7, 100, 777])
def test_anneal_bookkeeping_matches_recomputation(uf20_compiled, steps):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(steps=steps), seed=steps + 1)
    s = traj.final_state.tolist()
    fresh = hamiltonian_energy(H, s) - float(H.energy_floor)
    assert abs(fresh - traj.energy_h[-1]) <= 1e-9
    assert traj.energy_logic[-1] == logical_energy(f, spins_to_assignment(s, f.num_vars))
    assert traj.magnetization[-1] == magnetization(s, f.num_vars)


def test_anneal_greedy_at_tiny_temperature(uf20_compiled):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(t0=1e-6, alpha=0.999, steps=400), seed=3)
    diffs = np.diff(traj.energy_h)
    assert np.all(diffs <= 1e-12)


def test_anneal_cools_in_expectation(uf20_compiled):
    H, f = uf20_compiled
    tails, heads = [], []
    for seed in range(20):
        traj = anneal(H, f, Schedule(), seed=seed)
        k = len(traj) // 5
        heads.append(float(np.mean(traj.energy_h[:k])))
        tails.append(float(np.mean(traj.energy_h[-k:])))
    assert np.mean(tails) < np.mean(heads)


def test_anneal_rejects_mismatched_formula(uf20_formulas):
    H = ising.compile(uf20_formulas[0])
    with pytest.raises(ValueError):
        anneal(H, uf20_formulas[1], Schedule(steps=1), seed=0)


def test_anneal_sweeps_mode(uf20_compiled):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(steps=30), seed=11, sweeps=True)
    assert len(traj) == 31
    # one flip attempt per spin per step reaches lower energy much faster
    single = anneal(H, f, Schedule(steps=30), seed=11)
    assert np.mean(traj.energy_h[-6:]) <= np.mean(single.energy_h[-6:])


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


def test_batch_order_preserved(uf20_formulas):
    pairs = [(ising.compile(f), f) for f in uf20_formulas[:3]]
    sched = Schedule(steps=100)
    out = batch_anneal(pairs, sched, seeds=[1, 2, 3])
    permuted = batch_anneal(pairs[::-1], sched, seeds=[3, 2, 1])
    for traj, traj_rev in zip(out, permuted[::-1]):
        assert trajectory_csv(traj) == trajectory_csv(traj_rev)


def test_batch_base_seed_expansion(uf20_formulas):
    pairs = [(ising.compile(f), f) for f in uf20_formulas[:2]]
    sched = Schedule(steps=50)
    out = batch_anneal(pairs, sched, seeds=10)
    assert [t.seed for t in out] == [10, 11]


def test_batch_seed_length_mismatch(uf20_formulas):
    pairs = [(ising.compile(f), f) for f in uf20_formulas[:2]]
    with pytest.raises(ValueError):
        batch_anneal(pairs, Schedule(steps=1), seeds=[1])


def test_batch_parallel_equals_serial(uf20_formulas):
    pairs = [(ising.compile(f), f) for f in uf20_formulas[:3]]
    sched = Schedule(steps=200)
    serial = batch_anneal(pairs, sched, seeds=5, workers=1)
    parallel = batch_anneal(pairs, sched, seeds=5, workers=3)
    for a, b in zip(serial, parallel):
        assert trajectory_csv(a) == trajectory_csv(b)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_trajectory_csv_shape(uf20_compiled):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(steps=10), seed=1)
    lines = trajectory_csv(traj).splitlines()
    assert lines[0] == "step,temperature,energy_h,energy_logic,magnetization"
    assert len(lines) == 12
    assert lines[1].startswith("0,2.5,")


def test_anneal_rejects_empty_hamiltonian():
    from spinsat.cnf import Formula

    f = Formula(0, ())
    with pytest.raises(ValueError):
        anneal(ising.compile(f), f, Schedule(steps=1), seed=0)


def test_batch_anneal_sweeps_passthrough(uf20_formulas):
    f = uf20_formulas[0]
    pairs = [(ising.compile(f), f)]
    direct = anneal(pairs[0][0], f, Schedule(steps=20), seed=8, sweeps=True)
    batched = batch_anneal(pairs, Schedule(steps=20), seeds=[8], sweeps=True)[0]
    assert trajectory_csv(direct) == trajectory_csv(batched)
