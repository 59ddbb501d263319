from __future__ import annotations

import builtins
import dataclasses
import math
import operator
import pickle
import re
import tracemalloc
from functools import partial, reduce

import numpy as np
import pytest

from spinsat import anneal as anneal_module, ising
from spinsat.anneal import Schedule, Trajectory, anneal, trajectory_csv
from spinsat.cnf import Formula, generate_random_3sat, parse_dimacs
from spinsat.ising import Hamiltonian, format_float

from reference import (
    reference_boltzmann_unsat,
    reference_first_energy,
    reference_hamiltonian_energy,
    reference_import_csv,
    reference_logical_energy,
    reference_magnetization,
    reference_spins_to_assignment,
)
from test_cnf import neumaier_sum


_TINY = float(np.finfo(np.float64).tiny)


def single_spin_hamiltonian(h: float) -> Hamiltonian:
    return Hamiltonian(offset=0.0, fields=(h,), couplings={}, core_count=1, ancillas=())


def free_spins(H: Hamiltonian) -> Formula:
    """A formula with one variable per spin and no clauses, so ``anneal`` accepts ``H``."""
    return Formula(H.num_spins, ())


def random_hamiltonian(rng, n: int) -> Hamiltonian:
    """Dense random couplings and fields, all multiples of 1/8 (exact in float64)."""
    fields = tuple(int(rng.integers(-8, 9)) / 8 for _ in range(n))
    couplings = {
        (i, j): int(rng.integers(-8, 9)) / 8
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    }
    return Hamiltonian(offset=0.0, fields=fields, couplings=couplings, core_count=n, ancillas=())


def reference_anneal(
    H: Hamiltonian, f: Formula, sched: Schedule, seed: int, sweeps: bool = False
) -> Trajectory:
    """The recomputing Metropolis kernel: every proposal re-sums h_i + sum_j J_ij s_j.

    Same stream layout, acceptance test and records as ``anneal``, with no
    state kept between proposals but the spins, the energy and the clause
    slacks: the flip cost is re-summed over the adjacency each time, and the
    unsatisfied count is recounted after each accepted core flip.
    """
    num_spins, n_core = H.num_spins, H.core_count
    rng = np.random.Generator(np.random.PCG64(seed))
    spins = [1 if b else -1 for b in rng.integers(0, 2, size=num_spins)]
    attempts_per_step = num_spins if sweeps else 1
    total_attempts = sched.steps * attempts_per_step
    flip_indices = rng.integers(0, num_spins, size=total_attempts).tolist()
    uniforms = rng.random(size=total_attempts).tolist()

    occurrences = [
        [(cj, lit.sign) for cj, c in enumerate(f.clauses) for lit in c.literals if lit.var == v]
        for v in range(n_core)
    ]
    slack = [sum(1 for lit in c.literals if spins[lit.var] == lit.sign) for c in f.clauses]
    unsat = slack.count(0)
    core_sum = sum(spins[:n_core])
    energy_raw = reference_hamiltonian_energy(H, spins)
    temperatures, energy_h = [sched.t0], [energy_raw - H.energy_floor]
    energy_logic, mags = [unsat], [core_sum / n_core]
    draw = 0
    for t in range(1, sched.steps + 1):
        temperature = sched.t0 * sched.alpha**t
        for _ in range(attempts_per_step):
            i, u = flip_indices[draw], uniforms[draw]
            draw += 1
            acc = H.fields[i]
            for j, jf in H.adjacency[i]:
                acc += jf * spins[j]
            d_e = -2.0 * spins[i] * acc
            if d_e <= 0.0 or u < math.exp(-d_e / temperature):
                spins[i] = -spins[i]
                energy_raw += d_e
                if i < n_core:
                    core_sum += 2 * spins[i]
                    for cj, sign in occurrences[i]:
                        slack[cj] += 1 if sign == spins[i] else -1
                    unsat = slack.count(0)
        temperatures.append(temperature)
        energy_h.append(energy_raw - H.energy_floor)
        energy_logic.append(unsat)
        mags.append(core_sum / n_core)
    # ``anneal`` and ``trajectory_csv`` read the schedule's column: it must be this closed form.
    assert temperatures == sched.temperatures.tolist()
    return Trajectory(
        instance=f.source_name,
        seed=seed,
        schedule=sched,
        energy_h=np.array(energy_h),
        energy_logic=np.array(energy_logic, dtype=np.int32),
        magnetization=np.array(mags),
        final_state=np.array(spins, dtype=np.int8),
    )


def assert_same_run(a: Trajectory, b: Trajectory) -> None:
    """Byte-equal CSV and final state; a failure names the first differing row."""
    rows_a, rows_b = trajectory_csv(a).splitlines(), trajectory_csv(b).splitlines()
    first = next((k for k, pair in enumerate(zip(rows_a, rows_b)) if pair[0] != pair[1]), None)
    assert first is None, f"row {first}: {rows_a[first]!r} != {rows_b[first]!r}"
    assert len(rows_a) == len(rows_b)
    assert a.final_state.tobytes() == b.final_state.tobytes()


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
    assert type(Schedule(steps=np.int64(3)).steps) is int


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t0=0), dict(t0=math.inf), dict(alpha=0), dict(alpha=1), dict(steps=-1),
        dict(steps=2.5), dict(steps=3.0), dict(steps=np.float64(3)), dict(steps="3"),
    ],
)
def test_schedule_validation(kwargs):
    with pytest.raises(ValueError):
        Schedule(**kwargs)


def test_recorded_temperature_matches_closed_form(uf20_compiled):
    H, f = uf20_compiled
    sched = Schedule(steps=50)
    traj = anneal(H, f, sched, seed=1)
    for t in range(51):
        assert traj.schedule.temperatures[t] == sched.t0 * sched.alpha**t


# ---------------------------------------------------------------------------
# Metropolis acceptance, seen on one free spin: each step proposes flipping it
# ---------------------------------------------------------------------------


def test_downhill_always_accepted():
    # E = h s with h = 1: flipping s = +1 costs -2, accepted even at T = 0.01.
    H = single_spin_hamiltonian(1.0)
    f = free_spins(H)
    downhill = 0
    for seed in range(200):
        traj = anneal(H, f, Schedule(t0=0.01, steps=1), seed=seed)
        if traj.energy_h[0] == 1.0:
            downhill += 1
            assert traj.energy_h[1] == -1.0 and traj.final_state[0] == -1
    assert downhill >= 50


def test_acceptance_frequency_at_de_equal_t():
    # h = -1/2: flipping s = +1 costs dE = +1 at T ~ 1 (alpha**steps ~ 1 - 1e-7),
    # so e^-1 of those proposals should pass; s = -1 always flips back.
    H = single_spin_hamiltonian(-0.5)
    traj = anneal(H, free_spins(H), Schedule(t0=1.0, alpha=1 - 1e-12, steps=100_000), seed=2024)
    before, after = traj.energy_h[:-1], traj.energy_h[1:]
    uphill = before == -0.5
    accepted = uphill & (after == 0.5)
    assert np.all(after[~uphill] == -0.5)
    assert uphill.sum() > 50_000
    assert abs(accepted.sum() / uphill.sum() - math.exp(-1)) <= 0.01


def test_high_temperature_accepts_nearly_everything():
    H = single_spin_hamiltonian(-0.5)
    traj = anneal(H, free_spins(H), Schedule(t0=1e9, steps=2000), seed=7)
    flips = np.count_nonzero(np.diff(traj.energy_h))
    assert flips / 2000 > 0.999


def test_metropolis_requires_positive_temperature():
    # The kernel divides by T, so a schedule whose last temperature underflows
    # to 0 is refused when it is built, before any step runs.
    for kwargs in (dict(t0=1e-300, alpha=0.5, steps=100), dict(alpha=0.001, steps=200)):
        with pytest.raises(ValueError, match="temperature underflows to 0"):
            Schedule(**kwargs)
    with pytest.raises(ValueError, match="temperature underflows to 0"):
        Schedule(t0=1.0, alpha=0.5, steps=1075)
    # 0.5**1074 is the smallest subnormal: still positive, and the kernel runs.
    H = single_spin_hamiltonian(-0.5)
    traj = anneal(H, free_spins(H), Schedule(t0=1.0, alpha=0.5, steps=1074), seed=0)
    assert traj.schedule.temperatures[-1] == 5e-324


# ---------------------------------------------------------------------------
# flip cost
# ---------------------------------------------------------------------------


def test_flip_cost_isolated_spin():
    # Every step at T = 1e9 flips the lone spin; with h = 1 it costs -2 s exactly.
    H = single_spin_hamiltonian(1.0)
    traj = anneal(H, free_spins(H), Schedule(t0=1e9, steps=50), seed=3)
    assert np.array_equal(np.diff(traj.energy_h), -2.0 * traj.energy_h[:-1])


def replay_layout(n: int, steps: int, seed: int) -> tuple[list[int], list[int], list[float]]:
    """The single-flip stream of ``anneal``: initial spins, flip indices, uniforms."""
    rng = np.random.Generator(np.random.PCG64(seed))
    spins = [1 if b else -1 for b in rng.integers(0, 2, size=n)]
    return spins, rng.integers(0, n, size=steps).tolist(), rng.random(size=steps).tolist()


def test_flip_cost_involution():
    # At T = 1e9 every flip is taken, so a spin proposed twice in a row
    # returns the energy to where it was.
    rng = np.random.default_rng(57)
    repeats = 0
    for seed in range(20):
        H = random_hamiltonian(rng, 8)
        traj = anneal(H, free_spins(H), Schedule(t0=1e9, steps=200), seed=seed)
        _, indices, _ = replay_layout(8, 200, seed)
        for t in range(1, 200):
            if indices[t - 1] == indices[t]:
                repeats += 1
                assert traj.energy_h[t + 1] == traj.energy_h[t - 1]
    assert repeats > 100


def test_flip_cost_matches_full_reevaluation():
    # Replays the stream with each flip cost taken as E(after) - E(before)
    # over the whole Hamiltonian; every recorded energy and decision agrees.
    rng = np.random.default_rng(59)
    sched = Schedule(t0=1.0, steps=100)
    for seed in range(100):
        H = random_hamiltonian(rng, 6)
        traj = anneal(H, free_spins(H), sched, seed=seed)
        s, indices, uniforms = replay_layout(6, 100, seed)
        for t, (i, u) in enumerate(zip(indices, uniforms), start=1):
            before = reference_hamiltonian_energy(H, s)
            s[i] = -s[i]
            d_e = reference_hamiltonian_energy(H, s) - before
            if not (d_e <= 0.0 or u < math.exp(-d_e / sched.temperature(t))):
                s[i] = -s[i]
            assert traj.energy_h[t] == reference_hamiltonian_energy(H, s)
        assert traj.final_state.tolist() == s


# ---------------------------------------------------------------------------
# the kept-field kernel against the recomputing one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gadget_mode", [ising.GADGET_CORRECTED, ising.GADGET_PAPER_LITERAL])
def test_kernel_matches_reference_on_uf20(uf20_formulas, gadget_mode):
    for f in uf20_formulas:
        H = ising.compile(f, gadget_mode=gadget_mode)
        for seed in (0, 1, 2):
            assert_same_run(anneal(H, f, Schedule(), seed), reference_anneal(H, f, Schedule(), seed))


def test_kernel_matches_reference_in_sweeps(uf20_formulas):
    sched = Schedule(steps=150)
    for f in uf20_formulas[:4]:
        for gadget_mode in (ising.GADGET_CORRECTED, ising.GADGET_PAPER_LITERAL):
            H = ising.compile(f, gadget_mode=gadget_mode)
            assert_same_run(
                anneal(H, f, sched, 4, sweeps=True), reference_anneal(H, f, sched, 4, sweeps=True)
            )


def test_kernel_matches_reference_at_fractional_k_factor(uf20_formulas):
    for f in uf20_formulas[:6]:
        H = ising.compile(f, k_factor=12.25)
        for seed in (0, 1):
            assert_same_run(anneal(H, f, Schedule(), seed), reference_anneal(H, f, Schedule(), seed))


def test_kernel_matches_reference_after_csv_round_trip(uf20_formulas):
    f = uf20_formulas[3]
    H = reference_import_csv(*ising.export_csv(ising.compile(f, k_factor=12.25)))
    for seed, sweeps in ((5, False), (6, True)):
        sched = Schedule(steps=300) if sweeps else Schedule()
        assert_same_run(anneal(H, f, sched, seed, sweeps), reference_anneal(H, f, sched, seed, sweeps))


@pytest.mark.parametrize("block_draws", [1, 7, 111, 112])
def test_kernel_matches_reference_across_draw_blocks(uf20_compiled, monkeypatch, block_draws):
    # The stream reaches the kernel in blocks of whole steps; a step's draws
    # never straddle two blocks, whatever the block size.
    H, f = uf20_compiled
    monkeypatch.setattr(anneal_module, "_BLOCK_DRAWS", block_draws)
    for sched, sweeps in ((Schedule(steps=250), False), (Schedule(steps=5), True)):
        assert_same_run(anneal(H, f, sched, 7, sweeps), reference_anneal(H, f, sched, 7, sweeps))


def test_kernel_matches_reference_beyond_256_spins():
    # Past 256 spins a flip index no longer fits in one byte.
    f = generate_random_3sat(60, 255, seed=4)
    H = ising.compile(f)
    assert H.num_spins > 256
    for sched, sweeps in ((Schedule(steps=3000), False), (Schedule(steps=6), True)):
        assert_same_run(anneal(H, f, sched, 2, sweeps), reference_anneal(H, f, sched, 2, sweeps))


def test_kernel_matches_reference_when_a_sweep_step_cancels_out():
    # At T = 1e9 every flip is taken. A sweep step that proposes each spin an
    # even number of times accepts its flips and ends in the state it began
    # in, so its recorded row equals the one before it.
    f = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
    H = ising.compile(f)
    n, sched = H.num_spins, Schedule(t0=1e9, steps=400)
    traj = anneal(H, f, sched, seed=3, sweeps=True)
    assert_same_run(traj, reference_anneal(H, f, sched, seed=3, sweeps=True))
    _, indices, _ = replay_layout(n, n * sched.steps, seed=3)
    cancelled = [
        t for t in range(1, sched.steps + 1)
        if all(indices[n * (t - 1):n * t].count(i) % 2 == 0 for i in range(n))
    ]
    assert n == 4 and len(cancelled) > 30
    for t in cancelled:
        assert traj.energy_h[t] == traj.energy_h[t - 1]
        assert traj.energy_logic[t] == traj.energy_logic[t - 1]
        assert traj.magnetization[t] == traj.magnetization[t - 1]
    assert len(set(traj.magnetization.tolist())) == 4


def test_set_up_caches_follow_the_instance(uf20_formulas):
    # Each formula holds its occurrence index, each Hamiltonian its neighbour
    # lists and coupling table, and each schedule its temperatures and row
    # prefixes; going to another instance and schedule and back must use each
    # one's own set-up only.
    f1, f2 = uf20_formulas[4:6]
    H1, H2 = ising.compile(f1), ising.compile(f2)
    exported = ising.export_csv(ising.compile(f1))
    first, second = Schedule(steps=800), Schedule(t0=1.5, steps=800)
    for H, f, sched in ((H1, f1, first), (H2, f2, second), (H1, f1, first)):
        traj = anneal(H, f, sched, 9)
        assert_same_run(traj, reference_anneal(H, f, sched, 9))
        text = trajectory_csv(traj)
        assert text == rendered_rows(traj)
    assert ising.export_csv(H1) == exported


@pytest.mark.parametrize(
    "sched, sweeps",
    [(Schedule(steps=0), False), (Schedule(steps=40), False), (Schedule(steps=4), True)],
    ids=["steps=0", "single-flip", "sweeps"],
)
def test_first_energy_is_hamiltonian_energy_of_the_initial_spins(uf20_formulas, sched, sweeps):
    # ``anneal`` sums its first energy from the kept fields; row 0 must still
    # equal ``hamiltonian_energy`` bit for bit on every dyadic Hamiltonian:
    # compiled under both gadgets, read back from CSV, and random.
    cases = [
        (ising.compile(f, gadget_mode=mode), f)
        for mode in (ising.GADGET_CORRECTED, ising.GADGET_PAPER_LITERAL)
        for f in uf20_formulas
    ]
    f = uf20_formulas[2]
    cases += [(reference_import_csv(*ising.export_csv(ising.compile(f, k_factor=12.25))), f)] * 4
    rng = np.random.default_rng(67)
    for _ in range(20):
        offset, floor = (int(x) / 8 for x in rng.integers(-64, 65, size=2))
        H = dataclasses.replace(random_hamiltonian(rng, 12), offset=offset, energy_floor=floor)
        cases.append((H, free_spins(H)))
    for seed, (H, f) in enumerate(cases):
        traj = anneal(H, f, sched, seed, sweeps=sweeps)
        # The first draws of the stream are the initial spins.
        draws = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=H.num_spins)
        spins = (2 * draws - 1).tolist()
        if sched.steps == 0:
            assert traj.final_state.tolist() == spins
        expected = reference_hamiltonian_energy(H, spins) - H.energy_floor
        assert float(traj.energy_h[0]).hex() == expected.hex(), seed


def test_first_energy_adds_inexact_coefficients_in_the_per_spin_order():
    # Multiples of 0.1 are inexact in float64, so the order in which the first
    # fields and the energy are added shows in the last bits of row 0.
    rng = np.random.default_rng(71)
    for seed in range(40):
        n = 12
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        rng.shuffle(pairs)
        H = Hamiltonian(
            offset=int(rng.integers(-50, 51)) / 10,
            fields=tuple(int(x) / 10 for x in rng.integers(-30, 31, size=n)),
            couplings={pair: float(rng.integers(1, 31) * rng.choice([-0.1, 0.1])) for pair in pairs},
            core_count=n,
            ancillas=(),
            energy_floor=int(rng.integers(-50, 51)) / 10,
        )
        traj = anneal(H, free_spins(H), Schedule(steps=0), seed)
        expected = reference_first_energy(H, traj.final_state.tolist()) - H.energy_floor
        assert float(traj.energy_h[0]).hex() == expected.hex(), seed


def test_trajectories_do_not_depend_on_the_interpreters_sum(monkeypatch):
    # 0.1 is inexact, so a compensated sum (the builtin since Python 3.12)
    # rounds 8 of these 20 first energies differently from a left-to-right one.
    H = Hamiltonian(offset=0.0, fields=(0.1,) * 12, couplings={}, core_count=12, ancillas=())
    first_terms = [
        (0.2 * (2 * np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=12) - 1)).tolist()
        for seed in range(20)
    ]
    assert sum(neumaier_sum(terms) != reduce(operator.add, terms, 0) for terms in first_terms) == 8

    def runs() -> list[bytes]:
        trajectories = [
            anneal(H, free_spins(H), Schedule(steps=40), seed, sweeps)
            for seed in range(20)
            for sweeps in (False, True)
        ]
        series = ("energy_h", "energy_logic", "magnetization", "final_state")
        return [b"".join(getattr(t, name).tobytes() for name in series) for t in trajectories]

    left_to_right = runs()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert runs() == left_to_right


def test_kernel_matches_reference_on_random_hamiltonians():
    rng = np.random.default_rng(61)
    for seed in range(30):
        H = random_hamiltonian(rng, 12)
        f = free_spins(H)
        sched = Schedule(t0=3.0, alpha=0.99, steps=400)
        assert_same_run(anneal(H, f, sched, seed), reference_anneal(H, f, sched, seed))


# ---------------------------------------------------------------------------
# detailed balance: the kernel samples the Boltzmann law
# ---------------------------------------------------------------------------


def test_boltzmann_reference_matches_full_enumeration():
    # Summing the ancillas out analytically must agree with a plain sum over
    # every spin state, ancillas included.
    f = generate_random_3sat(6, 5, seed=3)
    H = ising.compile(f)
    assert H.num_spins > f.num_vars
    for T in (0.7, 2.0):
        z = weighted = 0.0
        for code in range(1 << H.num_spins):
            spins = [1 if code >> i & 1 else -1 for i in range(H.num_spins)]
            w = math.exp(-(reference_hamiltonian_energy(H, spins) - H.energy_floor) / T)
            unsat = reference_logical_energy(f, reference_spins_to_assignment(spins, f.num_vars))
            z += w
            weighted += w * unsat
        assert reference_boltzmann_unsat(H, f, T) == pytest.approx(weighted / z, rel=1e-12)


def test_kernel_samples_the_boltzmann_law(uf20_compiled):
    # At a nearly constant T = 2, four chains with their first fifth dropped
    # must average the exact equilibrium unsatisfied count (8.0497 on
    # uf20-sb-001; the chains' own means spread by about 0.1).
    H, f = uf20_compiled
    sched = Schedule(t0=2.0, alpha=1 - 1e-12, steps=200_000)
    exact = reference_boltzmann_unsat(H, f, 2.0)
    assert exact == pytest.approx(8.0497, abs=1e-4)
    burn_in = sched.steps // 5
    chains = [anneal(H, f, sched, seed).energy_logic[burn_in + 1:] for seed in range(4)]
    assert abs(np.mean(chains) - exact) < 0.2


# ---------------------------------------------------------------------------
# the frozen-stretch scan against the scalar loop
# ---------------------------------------------------------------------------


@pytest.fixture()
def scans(monkeypatch):
    """(start, result, attempts per step) of each ``_next_accept`` call ``anneal`` makes."""
    calls = []
    real = anneal_module._next_accept

    def spy(*args):
        result = real(*args)
        calls.append((args[4], result, args[5]))
        return result

    monkeypatch.setattr(anneal_module, "_next_accept", spy)
    return calls


def assert_scanned_runs_match_reference(uf20_formulas, scans, scanning: bool) -> None:
    # Single-flip uf20 under both gadgets, --sweeps on a cold schedule (where
    # most scans stop mid-step), and dense random Hamiltonians.
    for f in uf20_formulas[:2]:
        for gadget_mode in (ising.GADGET_CORRECTED, ising.GADGET_PAPER_LITERAL):
            H = ising.compile(f, gadget_mode=gadget_mode)
            assert_same_run(anneal(H, f, Schedule(), 1), reference_anneal(H, f, Schedule(), 1))
    single = len(scans)
    cold = Schedule(t0=0.5, alpha=0.99, steps=60)
    for f in uf20_formulas[2:4]:
        H = ising.compile(f)
        assert_same_run(anneal(H, f, cold, 4, True), reference_anneal(H, f, cold, 4, True))
    mid_step = [r for _, r, aps in scans[single:] if r % aps]
    swept = len(scans)
    rng = np.random.default_rng(67)
    for seed in range(5):
        H = random_hamiltonian(rng, 12)
        sched = Schedule(t0=3.0, alpha=0.99, steps=1000)
        assert_same_run(anneal(H, free_spins(H), sched, seed), reference_anneal(H, free_spins(H), sched, seed))
    if scanning:
        assert single > 0 and mid_step and len(scans) > swept
    else:
        assert not scans


SCAN_SETTINGS = [
    # (_QUIET_DRAWS, _SCAN_DRAWS, _BLOCK_DRAWS); 10**8 outlasts any trajectory here.
    (1, 1, 1),
    (1, 2, 7),
    (1, 10**8, 112),
    (2, 1, 111),
    (2, 2, 1 << 14),
    (2, 10**8, 3),
    (10**8, 1, 1 << 14),
    (10**8, 2, 7),
    (10**8, 10**8, 10**8),
]


@pytest.mark.parametrize("quiet_draws, scan_draws, block_draws", SCAN_SETTINGS)
def test_kernel_matches_reference_whenever_it_scans(
    uf20_formulas, monkeypatch, scans, quiet_draws, scan_draws, block_draws
):
    monkeypatch.setattr(anneal_module, "_QUIET_DRAWS", quiet_draws)
    monkeypatch.setattr(anneal_module, "_SCAN_DRAWS", scan_draws)
    monkeypatch.setattr(anneal_module, "_BLOCK_DRAWS", block_draws)
    assert_scanned_runs_match_reference(uf20_formulas, scans, scanning=quiet_draws < 10**8)


@pytest.mark.parametrize("quiet_draws", [1, 256])
def test_kernel_matches_reference_when_math_exp_decides_most_scanned_proposals(
    uf20_formulas, monkeypatch, scans, quiet_draws
):
    # Widened by 2**1000, the scan's bound is above 1 wherever exp(-floor / T)
    # does not underflow, so nearly every scanned proposal goes to math.exp.
    monkeypatch.setattr(anneal_module, "_EXP_SLACK", 2.0**1000)
    monkeypatch.setattr(anneal_module, "_QUIET_DRAWS", quiet_draws)
    assert_scanned_runs_match_reference(uf20_formulas, scans, scanning=True)


def forward_only(uniforms):
    """``uniforms`` served as ``_Uniforms.take`` serves a run's stream: a
    request whose start precedes the previous request's fails."""
    uniforms, last = np.array(uniforms, dtype=np.float64), [0]

    def take(k: int, stop: int) -> np.ndarray:
        assert last[0] <= k <= stop <= len(uniforms), (last[0], k, stop)
        last[0] = k
        return uniforms[k:stop]

    return take


def next_accept(costs, uniforms, temperatures=None, attempts_per_step=1, start=0) -> int:
    """``_next_accept`` over one spin per proposal, whose flip costs ``costs[k]``.

    Every step runs at T = 1 unless ``temperatures`` lists steps 1, 2, ...
    """
    if temperatures is None:
        temperatures = [1.0] * (len(costs) // attempts_per_step)
    return anneal_module._next_accept(
        np.arange(len(costs)),
        forward_only(uniforms),
        np.array([math.nan, *temperatures]),
        [float(c) for c in costs],
        start,
        attempts_per_step,
    )


def python_scan(flip_indices, uniforms, temperatures, cost, start, attempts_per_step) -> int:
    """The scalar loop's test, proposal by proposal, with the state frozen."""
    for k in range(start, len(uniforms)):
        d_e = cost[flip_indices[k]]
        if d_e <= 0.0 or uniforms[k] < math.exp(-d_e / temperatures[k // attempts_per_step + 1]):
            return k
    return len(uniforms)


def test_next_accept_defers_to_math_exp_inside_the_margin():
    e = math.exp(-1.0)
    # u == e is a reject and one ulp below it an accept, as in the scalar loop.
    assert next_accept([1.0, 1.0], [e, math.nextafter(e, 0.0)]) == 1
    assert next_accept([1.0, 1.0], [e, e]) == 2
    # A flip that costs nothing or gains is taken whatever the uniform.
    assert next_accept([1.0, -1.0], [0.9, 0.99]) == 1
    assert next_accept([1.0, 0.0], [0.9, 0.99]) == 1


def test_next_accept_agrees_with_math_exp_where_np_exp_differs():
    # np.exp and math.exp differ in the last bit on a few percent of
    # arguments. A uniform equal to the smaller of the two is accepted by one
    # and rejected by the other, so only the math.exp fallback gets it right.
    costs = np.linspace(0.01, 30.0, 3000)
    for cost, np_e in zip(costs.tolist(), np.exp(-costs).tolist()):
        u = min(np_e, math.exp(-cost))
        assert next_accept([cost], [u]) == (0 if u < math.exp(-cost) else 1), cost


def test_next_accept_agrees_with_math_exp_where_exp_underflows():
    # exp(-c) leaves the normal range near c = 708 and reaches 0 near c = 745.
    # A uniform can be exactly 0.0, which only a nonzero exp accepts; the
    # next possible one, 2**-53, is above every subnormal.
    costs = [*np.linspace(700.0, 760.0, 601).tolist(), 708.3964185322641, 745.1332191019411]
    for cost in costs:
        for u in (0.0, 2.0**-53):
            expected = 0 if u < math.exp(-cost) else 1
            assert next_accept([cost], [u]) == expected, (cost, u)
    assert next_accept([740.0], [0.0]) == 0 and next_accept([750.0], [0.0]) == 1


def test_next_accept_takes_a_zero_uniform_to_math_exp_when_np_exp_flushes_to_zero(monkeypatch):
    # An np.exp that flushes subnormals to 0 makes the scan's bound 0 where
    # math.exp is still positive; a zero uniform must reach math.exp anyway.
    real_exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: np.where(real_exp(x) < _TINY, 0.0, real_exp(x)))
    for cost in np.linspace(700.0, 760.0, 601).tolist():
        expected = 0 if 0.0 < math.exp(-cost) else 1
        assert next_accept([cost, cost], [0.5, 0.0]) == expected + 1, cost


def test_next_accept_reads_each_steps_temperature_and_can_start_at_the_last_step():
    # Two steps of three attempts; 0.3 < exp(-1) accepts at T = 1 only.
    temperatures = (1e-9, 1.0)
    costs, uniforms = [1.0] * 6, [0.5, 0.5, 0.3, 0.5, 0.5, 0.3]
    assert next_accept(costs, uniforms, temperatures, 3) == 5
    assert next_accept(costs, uniforms, temperatures, 3, start=3) == 5
    assert next_accept(costs, [0.5] * 6, temperatures, 3, start=3) == 6
    assert next_accept(costs, uniforms, temperatures, 3, start=6) == 6


def test_next_accept_equals_a_python_scan_on_random_frozen_costs():
    # Four kinds of frozen state over dyadic costs: 0, no free spin; 1, one
    # free spin (cost 0.0, -0.0 or -0.5); 2, every spin free; 3, no free spin
    # and no random uniform. A uniform is random, 0.0, 2**-53, or one ulp
    # below, at or above an edge: np.exp's value at the floor (the cheapest
    # positive cost) or math.exp's for the drawn spin's own cost.
    rng = np.random.default_rng(2207)
    outcomes = set()
    for trial in range(400):
        kind = trial % 4
        spins = int(rng.integers(1, 9))
        costs = (rng.integers(1, 200, size=spins) / 8).tolist()
        if kind == 1:
            costs[int(rng.integers(spins))] = [0.0, -0.0, -0.5][trial % 3]
        elif kind == 2:
            costs = [[0.0, -0.0, -1.25][int(c)] for c in rng.integers(0, 3, size=spins)]
        floor = min((c for c in costs if c > 0.0), default=math.inf)
        attempts_per_step = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 40))
        temperatures = [math.nan, *(2.0 ** rng.uniform(-3.0, 4.0, size=steps)).tolist()]
        flip_indices = rng.integers(0, spins, size=steps * attempts_per_step).tolist()
        uniforms = []
        for k, i in enumerate(flip_indices):
            temperature = temperatures[k // attempts_per_step + 1]
            edge = [float(np.exp(-floor / temperature)), math.exp(-costs[i] / temperature)]
            edge = edge[int(rng.integers(2))]
            candidates = [0.0, 2.0**-53, math.nextafter(edge, -1.0), edge, math.nextafter(edge, 2.0)]
            if kind != 3:
                candidates.append(float(rng.uniform(0.5, 1.0)))
            u = candidates[int(rng.integers(len(candidates)))]
            uniforms.append(min(max(u, 0.0), math.nextafter(1.0, 0.0)))
        start = int(rng.integers(0, len(uniforms) + 1))
        args = (flip_indices, uniforms, temperatures, costs, start, attempts_per_step)
        expected = python_scan(*args)
        outcomes.add((kind, expected == len(uniforms)))
        assert anneal_module._next_accept(
            np.array(flip_indices), forward_only(uniforms), np.array(temperatures), costs, start,
            attempts_per_step,
        ) == expected, args
    # Scans that find an accept and scans that run off the end both occur.
    assert {(0, False), (0, True), (1, False), (3, False), (3, True)} <= outcomes


def test_scan_that_finds_no_accept_leaves_the_trailing_rows_equal(scans):
    # At T <= 0.05 the lone spin, once at its ground state -1, never flips
    # back (exp(-2 / 0.05) ~ 4e-18), so the one scan runs off the end.
    H = single_spin_hamiltonian(1.0)
    f, sched = free_spins(H), Schedule(t0=0.05, steps=2000)
    traj = anneal(H, f, sched, seed=5)
    assert_same_run(traj, reference_anneal(H, f, sched, seed=5))
    assert [result for _, result, _ in scans] == [2000]
    assert len(set(traj.energy_h[1:].tolist())) == 1 and traj.final_state.tolist() == [-1]


# ---------------------------------------------------------------------------
# anneal
# ---------------------------------------------------------------------------


def test_anneal_bit_exact_reproducibility(uf20_compiled):
    H, f = uf20_compiled
    a = anneal(H, f, Schedule(), seed=42)
    b = anneal(H, f, Schedule(), seed=42)
    assert_same_run(a, b)
    c = anneal(H, f, Schedule(), seed=43)
    assert trajectory_csv(a) != trajectory_csv(c)


def test_anneal_zero_steps(uf20_compiled):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(steps=0), seed=5)
    assert len(traj) == 1
    assert traj.schedule.temperatures[0] == 2.5
    assert trajectory_csv(traj).splitlines()[1].startswith("0,2.5,")


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
    fresh = reference_hamiltonian_energy(H, s) - float(H.energy_floor)
    assert abs(fresh - traj.energy_h[-1]) <= 1e-9
    assert traj.energy_logic[-1] == reference_logical_energy(f, reference_spins_to_assignment(s, f.num_vars))
    assert traj.magnetization[-1] == reference_magnetization(s, f.num_vars)


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


def test_anneal_rejects_formula_with_another_variable_count(uf20_formulas):
    f = uf20_formulas[0]
    wider = Formula(f.num_vars + 1, f.clauses, f.source_name)
    with pytest.raises(ValueError, match="20 core spins but formula has 21 variables"):
        anneal(ising.compile(f), wider, Schedule(steps=1), seed=0)


def test_runs_of_one_schedule_share_one_read_only_temperature_column(uf20_compiled):
    H, f = uf20_compiled
    sched = Schedule(steps=50)
    first, second = (anneal(H, f, sched, seed=seed) for seed in (1, 2))
    assert first.schedule.temperatures is second.schedule.temperatures
    assert not first.schedule.temperatures.flags.writeable


def test_anneal_sweeps_mode(uf20_compiled):
    H, f = uf20_compiled
    traj = anneal(H, f, Schedule(steps=30), seed=11, sweeps=True)
    assert len(traj) == 31
    # one flip attempt per spin per step reaches lower energy much faster
    single = anneal(H, f, Schedule(steps=30), seed=11)
    assert np.mean(traj.energy_h[-6:]) <= np.mean(single.energy_h[-6:])


@pytest.mark.parametrize("n", [1, 2, 111, 255, 256, 530, 70000])
def test_stream_drawn_in_chunks_equals_one_call_each(n):
    # ``anneal`` draws its flip indices a block at a time and its uniforms as
    # the kernel reaches them. Its stream stays the one-call layout only
    # because PCG64 keeps the unused half of a 32-bit draw between
    # ``integers`` calls; the odd number of initial spins leaves one unused.
    block = anneal_module._BLOCK_DRAWS
    total = 2 * block + 3
    for chunk in (1, 7, block, total - 2):
        rng = np.random.Generator(np.random.PCG64(n))
        spins = rng.integers(0, 2, size=111)
        indices, uniforms = rng.integers(0, n, size=total), rng.random(size=total)
        rng = np.random.Generator(np.random.PCG64(n))
        assert np.array_equal(rng.integers(0, 2, size=111), spins)
        bounds = [*range(0, total, chunk), total]
        for draw, whole in ((partial(rng.integers, 0, n), indices), (rng.random, uniforms)):
            parts = [draw(size=b - a) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(np.concatenate(parts), whole), (n, chunk)


def test_cold_sweeps_run_holds_under_4_bytes_per_attempt(uf20_compiled):
    # At T <= 1e-3 nearly all of the 666k attempts are scanned. The run keeps
    # its flip indices, 1 byte each for 111 spins, and a block or a scan
    # window of uniforms; the whole stream as int64 and float64 is 16 bytes
    # an attempt.
    H, f = uf20_compiled
    sched = Schedule(t0=1e-3, steps=6000)
    anneal(H, f, sched, seed=0, sweeps=True)  # set-up caches and the temperatures
    tracemalloc.start()
    try:
        anneal(H, f, sched, seed=1, sweeps=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.num_spins == 111 and peak < 4 * H.num_spins * sched.steps, peak


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


def rendered_rows(traj: Trajectory) -> str:
    """The per-row renderer trajectory_csv replaced: three format_float calls a row."""
    lines = ["step,temperature,energy_h,energy_logic,magnetization"]
    for t in range(len(traj)):
        lines.append(
            ",".join(
                (
                    str(t),
                    format_float(traj.schedule.temperature(t)),
                    format_float(traj.energy_h[t]),
                    str(int(traj.energy_logic[t])),
                    format_float(traj.magnetization[t]),
                )
            )
        )
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_per_row_renderer(uf20_compiled):
    H, f = uf20_compiled
    short = Schedule(steps=300)
    runs = [
        anneal(H, f, Schedule(), seed=3),
        anneal(H, f, Schedule(), seed=4),
        anneal(H, f, short, seed=3, sweeps=True),
        anneal(H, f, Schedule(t0=1.0, steps=300), seed=3),
        anneal(H, f, Schedule(steps=0), seed=3),
        anneal(H, f, short, seed=6),
    ]
    # Back to back: two of one schedule reuse the cached row prefixes, and a
    # schedule of the same length but other temperatures must not.
    for traj in runs:
        assert trajectory_csv(traj) == rendered_rows(traj)


def test_trajectory_csv_keeps_signed_zeros_and_subnormals():
    # The schedule's last temperature is the smallest subnormal, 0.5**1074.
    sched = Schedule(t0=1.0, alpha=0.5, steps=1074)
    traj = Trajectory(
        instance="hand",
        seed=0,
        schedule=sched,
        energy_h=np.tile([0.0, -0.0, 5e-324, -0.0, 0.0], 215),
        energy_logic=np.tile(np.array([3, 0, 0, 1, 0], dtype=np.int32), 215),
        magnetization=np.tile([-0.0, 0.0, -0.0, 2.2250738585072014e-309, 0.0], 215),
        final_state=np.array([1], dtype=np.int8),
    )
    text = trajectory_csv(traj)
    assert text == rendered_rows(traj)
    lines = text.splitlines()
    assert lines[2] == "1,0.5,-0,0,0"
    assert lines[-2].startswith("1073,9.8813129168249309e-324,-0,1,2.22507385850720")
    assert lines[-1] == "1074,4.9406564584124654e-324,0,0,0"


def test_trajectory_csv_matches_per_row_renderer_on_repeated_rows():
    # Runs of equal rows, a run's values coming back after another, and rows
    # that differ only in the sign of a zero or in one column.
    def hand_built(sched):
        return Trajectory(
            instance="hand",
            seed=0,
            schedule=sched,
            energy_h=np.array([1.5, 1.5, 1.5, 0.0, -0.0, -0.0, -0.0, 1.5]),
            energy_logic=np.array([2, 2, 2, 0, 0, 0, 1, 2], dtype=np.int32),
            magnetization=np.array([0.25, 0.25, 0.25, 0.25, 0.25, -1.0, -1.0, 0.25]),
            final_state=np.array([1], dtype=np.int8),
        )

    # Two schedules of the same length but other temperatures, back to back.
    first = hand_built(Schedule(t0=8.0, alpha=0.5, steps=7))
    runs = [first, hand_built(Schedule(t0=8.0, alpha=0.25, steps=7)), first]
    for traj in runs:
        assert trajectory_csv(traj) == rendered_rows(traj)
    assert trajectory_csv(first).splitlines()[4:7] == [
        "3,1,0,0,0.25", "4,0.5,-0,0,0.25", "5,0.25,-0,0,-1"
    ]


def test_trajectory_refuses_series_of_another_length():
    # Row t ran at the schedule's temperature t, so each series holds
    # steps + 1 rows; trajectory_csv rendered longer series as rows without a
    # step or temperature, and shorter ones without their last rows.
    sched = Schedule(t0=1.0, alpha=0.5, steps=2)
    series = {
        "energy_h": np.zeros(3),
        "energy_logic": np.zeros(3, dtype=np.int32),
        "magnetization": np.zeros(3),
    }

    def hand_built(**changed):
        return Trajectory(instance="hand", seed=0, schedule=sched,
                          final_state=np.array([1], dtype=np.int8), **{**series, **changed})

    assert len(hand_built()) == 3
    for k, name in enumerate(series):
        for rows in (0, 2, 5):
            lengths = tuple(rows if j == k else 3 for j in range(3))
            with pytest.raises(ValueError, match=re.escape(f"{lengths} must all equal schedule.steps + 1 = 3")):
                hand_built(**{name: np.zeros(rows)})
    # A trajectory pickled back from a pool worker is rebuilt without the check.
    f = generate_random_3sat(5, 10, seed=2)
    traj = anneal(ising.compile(f), f, sched, seed=4)
    copy = pickle.loads(pickle.dumps(traj))
    assert trajectory_csv(copy) == trajectory_csv(traj)


def test_anneal_rejects_empty_hamiltonian():
    f = Formula(0, ())
    with pytest.raises(ValueError):
        anneal(ising.compile(f), f, Schedule(steps=1), seed=0)
