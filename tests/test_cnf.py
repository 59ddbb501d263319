from __future__ import annotations

import builtins
import dataclasses
import math
import pickle

import numpy as np
import pytest

from spinsat import cnf, satcore
from spinsat.cnf import (
    DimacsError,
    Formula,
    Literal,
    ParseWarning,
    clause_ratio,
    generate_random_3sat,
    mean_slack,
    parse_dimacs,
    write_dimacs,
)

from reference import reference_clause_slack, reference_logical_energy, reference_mean_slack
from test_golden import GOLDEN, artifact_digests


def all_assignments(n):
    return [tuple(bool((k >> v) & 1) for v in range(n)) for k in range(1 << n)]


def reference_unsat_count(f: Formula, a) -> int:
    # Independent truth-table evaluator: walks raw signed integers.
    unsat = 0
    for clause in f.clauses:
        satisfied = False
        for lit in clause.literals:
            value = a[lit.var]
            if (lit.sign > 0 and value) or (lit.sign < 0 and not value):
                satisfied = True
                break
        if not satisfied:
            unsat += 1
    return unsat


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic():
    f = parse_dimacs("p cnf 3 1\n1 -2 3 0")
    assert f.num_vars == 3
    assert f.num_clauses == 1
    assert f.clauses[0].literals == (Literal(0, 1), Literal(1, -1), Literal(2, 1))


def test_parse_comments_and_multiline_clauses():
    text = "c comment\nc another\np cnf 4 2\n1 2\n-3 0 4 -1\n2 0\n"
    f = parse_dimacs(text)
    assert f.num_clauses == 2
    assert f.clauses[0].literals == (Literal(0, 1), Literal(1, 1), Literal(2, -1))


def test_parse_satlib_footer_tolerated():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n\n")
    assert f.num_clauses == 1


def test_parse_out_of_range_literal():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 3 0")


def test_parse_missing_header():
    with pytest.raises(DimacsError):
        parse_dimacs("1 2 0")


def test_parse_malformed_header():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf x 1\n1 0")


def test_parse_unterminated_clause():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2")


def test_parse_empty_clause():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 0\n0")


def test_parse_clause_count_mismatch_is_error_by_default():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 2 0")


def test_parse_clause_count_mismatch_warns_when_lenient():
    with pytest.warns(ParseWarning):
        f = parse_dimacs("p cnf 2 2\n1 2 0", lenient=True)
    assert f.num_clauses == 1


def test_parse_duplicate_literal_dedup_with_warning():
    with pytest.warns(ParseWarning):
        f = parse_dimacs("p cnf 2 1\n1 1 2 0")
    assert f.clauses[0].literals == (Literal(0, 1), Literal(1, 1))


def test_tautological_clause_kept_and_flagged():
    f = parse_dimacs("p cnf 2 1\n1 -1 2 0")
    clause = f.clauses[0]
    assert clause.is_tautological
    for a in all_assignments(2):
        assert reference_clause_slack(clause, a) >= 1
    # The occurrence index keeps both literals of the tautology; x4 is in no clause.
    g = parse_dimacs("p cnf 4 3\n1 -1 2 0\n-3 2 0\n3 -2 1 0\n", source_name="g")
    walk = tuple(
        tuple((j, lit.sign) for j, c in enumerate(g.clauses) for lit in c.literals if lit.var == v)
        for v in range(g.num_vars)
    )
    assert g.occurrences == walk
    assert g.occurrences[0] == ((0, 1), (0, -1), (2, 1)) and g.occurrences[3] == ()
    assert pickle.loads(pickle.dumps(g)).occurrences == walk
    assert dataclasses.replace(g, clauses=g.clauses[1:]).occurrences == (
        ((1, 1),), ((0, 1), (1, -1)), ((0, -1), (1, 1)), ()
    )
    renamed = dataclasses.replace(g, source_name="h")
    assert renamed == g and hash(renamed) == hash(g) and renamed.occurrences == walk


def test_parse_uf20_file(uf20_paths):
    f = cnf.parse_dimacs_file(uf20_paths[0])
    assert (f.num_vars, f.num_clauses) == (20, 91)
    assert f.source_name == uf20_paths[0].stem


def test_round_trip_uf20(uf20_formulas):
    for f in uf20_formulas:
        again = parse_dimacs(write_dimacs(f), source_name=f.source_name)
        assert again == f


def test_round_trip_random():
    for seed in range(5):
        f = generate_random_3sat(9, 30, seed)
        assert parse_dimacs(write_dimacs(f)) == Formula(f.num_vars, f.clauses)


# ---------------------------------------------------------------------------
# logical observables
# ---------------------------------------------------------------------------


def test_logical_energy_all_false():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    assert reference_logical_energy(f, (False, False, False)) == 1
    assert reference_logical_energy(f, (True, False, False)) == 0


def test_logical_energy_matches_truth_table_oracle():
    f = generate_random_3sat(4, 6, seed=17)
    for a in all_assignments(4):
        assert reference_logical_energy(f, a) == reference_unsat_count(f, a)


def test_logical_energy_length_mismatch():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    with pytest.raises(ValueError):
        reference_logical_energy(f, (True, False))


def test_logical_energy_slack_consistency():
    # energy 0 iff every clause has slack >= 1; energy = m - #satisfied.
    rng = np.random.default_rng(5)
    for _ in range(30):
        f = generate_random_3sat(6, int(rng.integers(1, 20)), seed=int(rng.integers(10**6)))
        a = tuple(bool(b) for b in rng.integers(0, 2, size=6))
        slacks = [reference_clause_slack(c, a) for c in f.clauses]
        e = reference_logical_energy(f, a)
        assert (e == 0) == all(s >= 1 for s in slacks)
        assert e == f.num_clauses - sum(1 for s in slacks if s >= 1)


def test_clause_slack_examples():
    c = parse_dimacs("p cnf 3 1\n1 -2 3 0").clauses[0]
    assert reference_clause_slack(c, (True, False, False)) == 2
    c2 = parse_dimacs("p cnf 2 1\n1 2 0").clauses[0]
    assert reference_clause_slack(c2, (False, False)) == 0
    c3 = parse_dimacs("p cnf 3 1\n1 2 3 0").clauses[0]
    assert reference_clause_slack(c3, (True, True, True)) == 3


def test_mean_slack_single_clause():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    assert reference_mean_slack(f, (True, True, True)) == 3.0


def test_mean_slack_empty_formula_errors():
    with pytest.raises(ValueError):
        reference_mean_slack(Formula(3, ()), (True, True, True))


def test_mean_slack_small_formula_vs_hand_enumeration():
    # (x1 v x2 v x3) and (~x1 v x2): check every satisfying model against a
    # by-hand literal count.
    f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 2 0")
    for a in all_assignments(3):
        if reference_unsat_count(f, a) != 0:
            continue
        first = int(a[0]) + int(a[1]) + int(a[2])
        second = int(not a[0]) + int(a[1])
        assert reference_mean_slack(f, a) == pytest.approx((first + second) / 2, abs=1e-15)


def per_model_mean_slack(f: Formula, models) -> float:
    # Strictly left to right: the builtin sum compensates floats since 3.12.
    total = 0.0
    for a in models:
        total += reference_mean_slack(f, a)
    return total / len(models)


def test_models_mean_slack_matches_per_model_sum_on_exact_sets(uf20_formulas):
    for f in uf20_formulas:
        models = satcore.brute_force_models(f).models
        assert mean_slack(f, models) == per_model_mean_slack(f, models)


def test_models_mean_slack_matches_per_model_sum_on_truncated_set(uf20_formulas):
    f = next(f for f in uf20_formulas if f.source_name == "uf20-sb-005")
    capped = satcore.enumerate_models(f, 120)
    assert capped.truncated and len(capped.models) == 120
    assert mean_slack(f, capped.models) == per_model_mean_slack(f, capped.models)


def test_models_mean_slack_counts_tautologies_and_short_clauses():
    f = parse_dimacs("p cnf 4 5\n1 -1 2 0\n-3 0\n2 4 0\n-2 3 -4 0\n4 -4 0\n")
    models = [a for a in all_assignments(4) if reference_unsat_count(f, a) == 0]
    assert models
    assert mean_slack(f, np.array(models)) == per_model_mean_slack(f, models)
    everything = all_assignments(4)
    assert mean_slack(f, np.array(everything)) == per_model_mean_slack(f, everything)


def neumaier_sum(iterable, /, start=0):
    """The builtin ``sum`` as CPython 3.12 and later compute it: once the
    total is a float, each further float is added with Neumaier's compensation."""
    total, compensation = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_artifacts_do_not_depend_on_the_interpreters_sum(tmp_path, monkeypatch):
    # The golden digests were recorded where ``sum`` adds floats left to
    # right. Under a compensated ``sum``, 5 of the 12 uf20 mean slacks and
    # both summary CSVs moved, until the mean slack stopped using it.
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert neumaier_sum(x / 10 for x in range(10)) == math.fsum(x / 10 for x in range(10))
    monkeypatch.delenv("SPINSAT_OUTDIR", raising=False)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert artifact_digests(tmp_path) == GOLDEN


def test_models_mean_slack_rejects_empty_inputs():
    f = parse_dimacs("p cnf 2 1\n1 2 0")
    with pytest.raises(ValueError):
        mean_slack(f, np.zeros((0, 2), dtype=bool))
    with pytest.raises(ValueError):
        mean_slack(Formula(2, ()), np.array([(True, False)]))
    with pytest.raises(ValueError):
        mean_slack(f, np.array([(True,)]))


def test_clause_ratio(uf20_formulas):
    for f in uf20_formulas:
        assert clause_ratio(f) == pytest.approx(4.55)
    assert clause_ratio(Formula(10, ())) == 0.0
    f426 = generate_random_3sat(100, 426, seed=1)
    assert clause_ratio(f426) == pytest.approx(4.26)
    with pytest.raises(ValueError):
        clause_ratio(Formula(0, ()))


# ---------------------------------------------------------------------------
# random generator
# ---------------------------------------------------------------------------


def test_generator_deterministic():
    assert generate_random_3sat(20, 91, seed=1) == generate_random_3sat(20, 91, seed=1)
    assert generate_random_3sat(20, 91, seed=1) != generate_random_3sat(20, 91, seed=2)


def test_generator_three_distinct_variables():
    f = generate_random_3sat(3, 5, seed=9)
    for clause in f.clauses:
        assert sorted(clause.variables) == [0, 1, 2]


def test_generator_rejects_tiny_n():
    with pytest.raises(ValueError):
        generate_random_3sat(2, 1, seed=0)


def test_generator_rejects_negative_clause_count():
    with pytest.raises(ValueError, match="non-negative"):
        generate_random_3sat(5, -3, seed=0)
    assert generate_random_3sat(5, 0, seed=0).num_clauses == 0


def test_generator_variable_frequency_binomial():
    # Each variable lands in a clause w.p. 3/20; over 10^4 clauses the count
    # should stay within 3 sigma of the binomial mean (seed frozen).
    f = generate_random_3sat(20, 10_000, seed=0)
    counts = [0] * 20
    for clause in f.clauses:
        for v in clause.variables:
            counts[v] += 1
    mean = 10_000 * (3 / 20)
    sigma = math.sqrt(10_000 * (3 / 20) * (17 / 20))
    for count in counts:
        assert abs(count - mean) <= 3 * sigma
