from __future__ import annotations

import dataclasses
import functools
import math
import operator
import pickle

import numpy as np
import pytest

from spinsat import cnf, ising
from spinsat.analysis import (
    BetaFit,
    DegenerateSeriesError,
    InstanceSummary,
    aggregate,
    binned_curves,
    build_summary,
    correlation_matrix,
    fit_beta,
    format_aggregate_table,
    format_correlation_table,
    pearson,
    read_summary_csv,
    summary_csv,
    tail_mean,
)
from spinsat.anneal import Schedule, Trajectory, anneal, trajectory_csv
from spinsat.cli import derive_seed

from reference import reference_binned_curves


def cooling(t0, t_last, rows) -> Schedule:
    """The schedule that cools from ``t0`` to about ``t_last`` over ``rows`` rows."""
    return Schedule(t0=t0, alpha=(t_last / t0) ** (1 / (rows - 1)), steps=rows - 1)


def make_trajectory(sched, energy_logic, magnetization, energy_h=None, instance="synthetic", seed=0):
    return Trajectory(
        instance=instance,
        seed=seed,
        schedule=sched,
        energy_h=np.asarray(energy_h if energy_h is not None else energy_logic, dtype=np.float64),
        energy_logic=np.asarray(energy_logic),
        magnetization=np.asarray(magnetization, dtype=np.float64),
        final_state=np.array([1], dtype=np.int8),
    )


def make_summary(**overrides) -> InstanceSummary:
    base = dict(
        instance="inst",
        seed=1,
        sat=True,
        alpha_ratio=4.55,
        final_energy_h=1.0,
        final_energy_logic=1.0,
        final_abs_magnetization=0.5,
        backbone_capped=10,
        backbone_exact=9,
        backbone_exact_flag=True,
        mean_slack=1.7,
        beta=0.01,
        beta_r2=0.9,
        t0=2.5,
        alpha=0.999,
        steps=6000,
    )
    base.update(overrides)
    return InstanceSummary(**base)


# ---------------------------------------------------------------------------
# tail_mean
# ---------------------------------------------------------------------------


def test_tail_mean_last_element():
    assert tail_mean([1, 2, 3, 4, 5], 0.2) == 5.0


def test_tail_mean_constant():
    assert tail_mean([3.5] * 10) == 3.5


def test_tail_mean_hundred():
    assert tail_mean(list(range(100)), 0.2) == 89.5


def test_tail_mean_full_fraction_is_mean():
    values = [1.0, 2.0, 4.0, 8.0]
    assert tail_mean(values, 1.0) == sum(values) / 4


def test_tail_mean_same_float_for_arrays_and_lists(uf20_formulas):
    f = uf20_formulas[0]
    traj = anneal(ising.compile(f), f, Schedule(steps=500), seed=2)
    logic = traj.energy_logic.tolist()
    assert traj.energy_logic.dtype == np.int32
    for fraction in (0.2, 0.37, 1.0):
        means = [
            tail_mean(traj.energy_logic, fraction),
            tail_mean(np.array(logic, dtype=np.float64), fraction),
            tail_mean(logic, fraction),
        ]
        assert all(type(m) is float for m in means)
        assert len({m.hex() for m in means}) == 1
        m_array = tail_mean(np.abs(traj.magnetization), fraction)
        assert m_array.hex() == tail_mean(np.abs(traj.magnetization).tolist(), fraction).hex()


def test_tail_mean_validation():
    with pytest.raises(ValueError):
        tail_mean([], 0.2)
    with pytest.raises(ValueError):
        tail_mean([1.0], 0.0)


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------


def test_pearson_perfect_linear():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_value():
    # cov=1, var_x=var_y=1.25 with population normalization -> 0.8 exactly
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    x = rng.normal(size=40).tolist()
    y = rng.normal(size=40).tolist()
    assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-15)
    assert -1.0 <= pearson(x, y) <= 1.0


def test_pearson_scale_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=25).tolist()
    y = rng.normal(size=25).tolist()
    base = pearson(x, y)
    assert pearson([3.0 * v + 7.0 for v in x], y) == pytest.approx(base, abs=1e-12)
    assert pearson([-2.0 * v for v in x], y) == pytest.approx(-base, abs=1e-12)


def test_pearson_at_extreme_magnitudes():
    # Squaring the raw deviations underflowed to a "constant series" and
    # overflowed to 0.0; scaled by a power of two, both are exact.
    assert pearson([1e-200, 2e-200, 3e-200], [1, 2, 3]) == 1.0
    assert pearson([1e200, 2e200, 3e200], [1, 2, 3]) == 1.0
    rng = np.random.default_rng(4)
    x = rng.normal(size=25).tolist()
    y = rng.normal(size=25).tolist()
    for k in (-900, -300, 300, 900):
        assert pearson([v * 2.0**k for v in x], y).hex() == pearson(x, y).hex()


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    # The float means of the last two constant series round off their value.
    for x, y in [([1, 1, 1], [1, 2, 3]), ([0.1] * 3, [0.0, 1.0, 2.0]), ([0.7] * 12, range(12))]:
        with pytest.raises(DegenerateSeriesError):
            pearson(x, y)


# ---------------------------------------------------------------------------
# correlation matrix
# ---------------------------------------------------------------------------


def test_correlation_matrix_perfect_anticorrelation():
    summaries = [
        make_summary(final_energy_logic=float(-m), final_abs_magnetization=m, backbone_capped=b)
        for m, b in [(0.1, 5), (0.4, 9), (0.8, 14), (0.6, 11)]
    ]
    cm = correlation_matrix(summaries)
    assert cm.values[0][1] == pytest.approx(-1.0, abs=1e-12)
    assert cm.values[0][0] == 1.0
    assert cm.values[1][2] == cm.values[2][1]


def test_correlation_matrix_matches_columnwise_pearson():
    rows = [(2.0, 0.3, 7), (5.0, 0.2, 9), (1.0, 0.8, 4), (4.0, 0.5, 12)]
    summaries = [
        make_summary(final_energy_logic=e, final_abs_magnetization=m, backbone_capped=b)
        for e, m, b in rows
    ]
    cm = correlation_matrix(summaries)
    e, m, b = zip(*rows)
    assert cm.values[0][1] == pytest.approx(pearson(e, m), abs=1e-15)
    assert cm.values[0][2] == pytest.approx(pearson(e, [float(x) for x in b]), abs=1e-15)
    assert cm.values[1][2] == pytest.approx(pearson(m, [float(x) for x in b]), abs=1e-15)


@pytest.mark.parametrize(
    "rows, upper, degenerate",
    [
        ([(1.0, 0.5, 5), (2.0, 0.5, 7), (3.0, 0.5, 9)], (math.nan, 1.0, math.nan), ("|M_final|",)),
        ([(1.0, 0.1, 5), (2.0, 0.1, 7), (3.0, 0.1, 9)], (math.nan, 1.0, math.nan), ("|M_final|",)),
        (
            [(1.0, 0.1, 5), (2.0, 0.1, 5), (3.0, 0.1, 5)],
            (math.nan, math.nan, math.nan),
            ("|M_final|", "Backbone"),
        ),
    ],
    ids=["m=0.5", "m=0.1", "m=0.1,backbone=5"],
)
def test_correlation_matrix_degenerate_column_flagged(rows, upper, degenerate):
    summaries = [
        make_summary(final_energy_logic=e, final_abs_magnetization=m, backbone_capped=b)
        for e, m, b in rows
    ]
    cm = correlation_matrix(summaries)
    entries = (cm.values[0][1], cm.values[0][2], cm.values[1][2])
    assert entries == pytest.approx(upper, abs=1e-12, nan_ok=True)
    assert cm.degenerate == degenerate


def test_correlation_matrix_needs_three_rows():
    with pytest.raises(ValueError):
        correlation_matrix([make_summary(), make_summary()])


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def test_aggregate_two_values():
    summaries = [make_summary(final_energy_logic=1.0), make_summary(final_energy_logic=3.0)]
    mean, sd = aggregate(summaries)["final_energy_logic"]
    assert mean == 2.0
    assert sd == pytest.approx(math.sqrt(2), abs=1e-15)


def test_aggregate_constant_column_sd_zero():
    summaries = [make_summary(), make_summary()]
    assert aggregate(summaries)["mean_slack"] == (1.7, 0.0)


def test_aggregate_requires_two_rows():
    with pytest.raises(ValueError):
        aggregate([make_summary()])


def test_aggregate_matches_two_pass_reference():
    rng = np.random.default_rng(4)
    values = rng.normal(5.0, 2.0, size=13).tolist()
    summaries = [make_summary(final_energy_h=v) for v in values]
    mean, sd = aggregate(summaries)["final_energy_h"]
    ref_mean = sum(values) / len(values)
    ref_sd = math.sqrt(sum((v - ref_mean) ** 2 for v in values) / (len(values) - 1))
    assert mean == pytest.approx(ref_mean, abs=1e-12)
    assert sd == pytest.approx(ref_sd, abs=1e-12)


def test_aggregate_skips_missing_values():
    summaries = [
        make_summary(backbone_exact=None),
        make_summary(backbone_exact=None),
    ]
    assert "backbone_exact" not in aggregate(summaries)


# ---------------------------------------------------------------------------
# binned curves
# ---------------------------------------------------------------------------


def test_binned_constant_energy_is_flat():
    traj = make_trajectory(cooling(2.5, 0.01, 200), np.full(200, 4), np.zeros(200))
    curves = binned_curves([traj], bins=20)
    filled = curves.counts > 0
    assert np.allclose(curves.mean_energy[filled], 4.0)


def test_binned_single_bin_is_global_mean():
    energy = np.arange(50, dtype=float)
    traj = make_trajectory(cooling(1.0, 0.1, 50), energy, np.linspace(0, 1, 50))
    curves = binned_curves([traj], bins=1)
    assert curves.counts[0] == 50
    assert curves.mean_energy[0] == pytest.approx(energy.mean())


def test_binned_symmetric_energies_cancel():
    sched = cooling(1.0, 0.1, 64)
    e = np.linspace(1, 5, 64)
    up = make_trajectory(sched, e, np.zeros(64))
    down = make_trajectory(sched, -e, np.zeros(64))
    curves = binned_curves([up, down], bins=8)
    filled = curves.counts > 0
    assert np.allclose(curves.mean_energy[filled], 0.0, atol=1e-12)


def test_binned_reproduces_raw_points_at_matching_resolution():
    n = 40
    energy = np.arange(n, dtype=float)
    abs_m = np.linspace(0.2, 0.9, n)
    traj = make_trajectory(cooling(1.0, 0.1, n), energy, abs_m)
    curves = binned_curves([traj], bins=n)
    assert np.all(curves.counts == 1)
    # The schedule cools, so the last row falls in the coolest bin.
    assert np.allclose(curves.mean_energy, energy[::-1])
    assert np.allclose(curves.mean_abs_magnetization, np.abs(abs_m[::-1]))


def assert_same_curves(a, b) -> None:
    for name in ("bin_t", "mean_energy", "mean_abs_magnetization", "counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_pooled_trajectories_share_the_parents_temperature_column(uf20_formulas):
    # A pooled ``run`` gets each trajectory back pickled. It carries its
    # schedule and no temperatures, so its rows read the parent's one column,
    # and it renders and bins to the original's bytes.
    f = uf20_formulas[1]
    H = ising.compile(f)
    for sched, bins in ((Schedule(steps=400), 60), (Schedule(steps=400), 7), (Schedule(steps=0), 60)):
        runs = [anneal(H, f, sched, seed) for seed in range(4)]
        pooled = [pickle.loads(pickle.dumps(traj)) for traj in runs]
        for traj, back in zip(runs, pooled):
            arrays = {name for name, value in vars(back).items() if isinstance(value, np.ndarray)}
            assert arrays == {"energy_h", "energy_logic", "magnetization", "final_state"}
            assert back.schedule is not traj.schedule
            assert back.schedule.temperatures is traj.schedule.temperatures
            assert trajectory_csv(back) == trajectory_csv(traj)
        curves = binned_curves(runs, bins)
        assert_same_curves(curves, binned_curves(pooled, bins))
        assert int(curves.counts.sum()) == 4 * (sched.steps + 1)
    # Steps=0 leaves one temperature, so every point falls in the single bin.
    assert curves.counts.tolist() == [4]


@pytest.mark.parametrize("steps", [6000, 0])
def test_binned_fold_matches_the_concatenating_reference_bit_for_bit(uf20_formulas, steps):
    # The fold adds trajectory by trajectory; the reference bins their
    # concatenation at once. Both must give the same bytes, the one-bin case
    # at steps=0 included, where numpy's pairwise mean over 8 or more values
    # is not the left-to-right sum.
    sched = Schedule(steps=steps)
    f = uf20_formulas[0]
    H = ising.compile(f)
    runs = [
        [anneal(ising.compile(g), g, sched, derive_seed(1, g.source_name)) for g in uf20_formulas],
        [anneal(H, f, sched, seed) for seed in range(20)],
    ]
    for trajectories in (*runs, runs[1][:9], runs[0][:1]):
        for bins in (1, 7, 60, steps + 1):
            assert_same_curves(binned_curves(trajectories, bins), reference_binned_curves(trajectories, bins))
    if steps == 0:
        abs_m = [abs(float(t.magnetization[0])) for t in runs[1][:9]]
        sequential = functools.reduce(operator.add, abs_m) / len(abs_m)
        assert reference_binned_curves(runs[1][:9]).mean_abs_magnetization[0] != sequential


@pytest.mark.parametrize("other", [cooling(1.0, 0.1, 10), cooling(1.0, 0.1, 12)],
                         ids=["same-length", "longer"])
def test_binned_rejects_trajectories_of_different_columns(other):
    # Trajectories of two schedules bin over two temperature columns.
    first = make_trajectory(cooling(2.0, 0.1, 10), np.ones(10), np.ones(10))
    rows = other.steps + 1
    second = make_trajectory(other, np.ones(rows), np.ones(rows))
    with pytest.raises(ValueError, match="do not share one schedule"):
        binned_curves([first, second])


def test_binned_requires_input():
    with pytest.raises(ValueError):
        binned_curves([])


def test_binned_csv_format():
    traj = make_trajectory(cooling(1.0, 0.1, 10), np.ones(10), np.ones(10))
    text = binned_curves([traj], bins=5).to_csv()
    assert text.splitlines()[0] == "bin_T,mean_E,mean_absM,count"


# ---------------------------------------------------------------------------
# power-law fit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, 0.003, 0.5])
def test_fit_beta_exact_recovery(beta):
    temps = np.geomspace(0.05, 1.0, 400)
    abs_m = temps**(-beta)
    fit = fit_beta(temps, abs_m)
    assert abs(fit.beta - beta) <= 1e-9
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_beta_amplitude_invariant():
    temps = np.geomspace(0.05, 1.0, 300)
    fit = fit_beta(temps, 2.0 * temps**(-0.5))
    assert abs(fit.beta - 0.5) <= 1e-9


def test_fit_beta_constant_series():
    temps = np.geomspace(0.05, 1.0, 50)
    fit = fit_beta(temps, np.full(50, 0.7))
    assert abs(fit.beta) <= 1e-12


def test_fit_beta_window_excludes_points():
    temps = np.geomspace(0.001, 2.5, 500)
    abs_m = temps**(-0.25)
    fit = fit_beta(temps, abs_m, window=(0.05, 1.0))
    assert abs(fit.beta - 0.25) <= 1e-9
    assert fit.n_points < 500


def test_fit_beta_ignores_zero_magnetization():
    temps = np.array([0.1, 0.2, 0.4, 0.8])
    abs_m = np.array([0.0, 0.5, 0.5, 0.5])
    fit = fit_beta(temps, abs_m)
    assert fit.n_points == 3
    assert fit.beta == pytest.approx(0.0, abs=1e-12)


def test_fit_beta_too_few_points():
    with pytest.raises(ValueError):
        fit_beta([0.1, 0.2], [1.0, 1.0])


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def test_build_summary_round_trips_through_csv(uf20_formulas):
    f = uf20_formulas[0]
    H = ising.compile(f)
    traj = anneal(H, f, Schedule(steps=200), seed=4)
    from spinsat.satcore import backbone, brute_force_models, enumerate_models

    capped = len(backbone(enumerate_models(f, 120)))
    exact = len(backbone(brute_force_models(f)))
    summary = build_summary(
        f,
        traj,
        sat=True,
        backbone_capped=capped,
        backbone_exact=exact,
        mean_slack=1.66,
        beta_fit=BetaFit(0.01, 0.5, 100),
    )
    text = summary_csv([summary])
    assert read_summary_csv(text) == [summary]


def test_build_summary_abs_before_mean():
    # alternating +-0.5 magnetization: |.| first gives 0.5, mean first gives 0
    mags = np.array([0.5, -0.5] * 5)
    traj = make_trajectory(cooling(2.5, 0.01, 10), np.zeros(10), mags, instance="")
    f = cnf.Formula(2, (), source_name="")
    summary = build_summary(f, traj, sat=True)
    assert summary.final_abs_magnetization == 0.5


def test_build_summary_frozen_satisfied_trajectory():
    traj = make_trajectory(cooling(2.5, 0.01, 10), np.zeros(10, dtype=int), np.ones(10), instance="")
    f = cnf.Formula(2, (), source_name="")
    summary = build_summary(f, traj, sat=True)
    assert summary.final_energy_logic == 0.0


def test_build_summary_label_mismatch():
    traj = make_trajectory(cooling(2.5, 0.01, 4), np.zeros(4), np.zeros(4), instance="other")
    f = cnf.Formula(2, (), source_name="one")
    with pytest.raises(ValueError, match="instance labels disagree"):
        build_summary(f, traj, sat=True)


def test_unsat_summary_serializes_empty_columns():
    summary = make_summary(
        sat=False, backbone_capped=None, backbone_exact=None,
        backbone_exact_flag=False, mean_slack=None,
    )
    text = summary_csv([summary])
    row = text.splitlines()[1].split(",")
    header = text.splitlines()[0].split(",")
    assert row[header.index("backbone_capped")] == ""
    assert row[header.index("mean_slack")] == ""
    assert read_summary_csv(text) == [summary]


def test_summary_header_lists_the_fields_in_order():
    header = summary_csv([]).splitlines()[0].split(",")
    assert header == [
        "instance", "seed", "sat", "alpha_ratio", "final_energy_h", "final_energy_logic",
        "final_abs_M", "backbone_capped", "backbone_exact", "backbone_exact_flag",
        "mean_slack", "beta", "beta_r2", "t0", "alpha", "steps",
    ]


def test_summary_csv_round_trips_every_parser():
    # None in each optional column, both flags, a signed zero and a
    # subnormal in float columns, and ints in every int column.
    tiny = 5e-324
    summaries = [
        make_summary(sat=False, backbone_capped=None, backbone_exact=None,
                     backbone_exact_flag=False, mean_slack=None, beta=None, beta_r2=None),
        make_summary(instance="x", seed=0, final_energy_h=-0.0, final_energy_logic=tiny,
                     final_abs_magnetization=-tiny, backbone_capped=0, beta=-0.0, beta_r2=tiny,
                     t0=2.2250738585072014e-308 / 3, steps=0),
    ]
    back = read_summary_csv(summary_csv(summaries))
    assert back == summaries
    for before, after in zip(summaries, back):
        for field in dataclasses.fields(InstanceSummary):
            a, b = getattr(before, field.name), getattr(after, field.name)
            assert type(a) is type(b), field.name
            if isinstance(a, float):
                assert math.copysign(1.0, a) == math.copysign(1.0, b), field.name


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------


def test_aggregate_table_row_labels():
    summaries = [make_summary(final_energy_logic=float(k)) for k in range(4)]
    table = format_aggregate_table(aggregate(summaries))
    assert "Residual clause tension" in table
    assert "Near-complete ordering" in table
    assert "Moderate rigidity" in table
    assert "Final Energy <E_f>" in table


def test_aggregate_table_marks_a_column_without_two_values_n_a():
    summaries = [make_summary(backbone_exact=None) for _ in range(3)]
    table = format_aggregate_table(aggregate(summaries), backbone_column="backbone_exact")
    assert table.splitlines()[-1] == f"{'Backbone Size <b>':<30} {'n/a':>10} {'n/a':>10}  Moderate rigidity"


def test_correlation_table_anticorrelated():
    summaries = [
        make_summary(final_energy_logic=float(-m), final_abs_magnetization=m, backbone_capped=b)
        for m, b in [(0.1, 5), (0.4, 9), (0.8, 14)]
    ]
    table = format_correlation_table(correlation_matrix(summaries))
    assert "-1.000" in table
    assert "E_final" in table and "Backbone" in table


@pytest.mark.parametrize("m", [0.5, 0.1])
def test_correlation_table_names_degenerate_columns(m):
    summaries = [
        make_summary(final_energy_logic=e, final_abs_magnetization=m, backbone_capped=b)
        for e, b in [(1.0, 5), (2.0, 7), (3.0, 9)]
    ]
    lines = format_correlation_table(correlation_matrix(summaries)).splitlines()
    assert lines[-1] == "degenerate columns: |M_final|"
    assert "n/a" in lines[1] and "n/a" in lines[2]
