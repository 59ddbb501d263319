from __future__ import annotations

import hashlib
import itertools
import sys

import numpy as np
import pytest

from spinsat.cnf import (
    Clause,
    Formula,
    Literal,
    generate_random_3sat,
    logical_energy,
    parse_dimacs,
    parse_dimacs_file,
)
from spinsat import satcore
from spinsat.satcore import ModelSet, backbone, brute_force_models, enumerate_models, solve

# Recorded from the recursive dict-based DPLL that preceded the bitmask
# solver. They pin its decisions: which model solve returns, and the order in
# which enumerate_models lists models, which decides the capped backbone.
SB005_DIGEST = "c0b482e896178119b65c353718effa5ae99fb84f812623d52a2f9d406e616014"
UF20_SOLVE_DIGEST = "c9886b4ca83c500eca6f6d18a3e2b3eeb6b6e607884c014eac2cb97fa1b5fa9a"
FAMILY_DIGEST = "852bf49eb949efd80dcf5e6cf73bccc69e4533499f852833d4f2093632e2fe3e"


def reference_models(f: Formula) -> set[tuple[bool, ...]]:
    # Tiny independent oracle: direct product enumeration + literal checks.
    out = set()
    for a in itertools.product((False, True), repeat=f.num_vars):
        ok = True
        for clause in f.clauses:
            if not any(
                (lit.sign > 0) == a[lit.var] for lit in clause.literals
            ):
                ok = False
                break
        if ok:
            out.add(a)
    return out


def test_solve_contradiction_unsat():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
    assert solve(f) is None


def test_solve_uf20_all_sat(uf20_formulas):
    for f in uf20_formulas:
        model = solve(f)
        assert model is not None
        assert logical_energy(f, model) == 0


def test_solve_agrees_with_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 4 * n))
        f = generate_random_3sat(n, m, seed=int(rng.integers(10**6)))
        expected = reference_models(f) if n <= 10 else set(brute_force_models(f).models)
        model = solve(f)
        assert (model is not None) == bool(expected)
        if model is not None:
            assert logical_energy(f, model) == 0


def test_solve_deterministic(uf20_formulas):
    f = uf20_formulas[0]
    assert solve(f) == solve(f)


def test_enumerate_two_var_clause():
    f = parse_dimacs("p cnf 2 1\n1 2 0")
    ms = enumerate_models(f, cap=10)
    assert len(ms.models) == 3
    assert not ms.truncated
    assert set(ms.models) == {(True, False), (False, True), (True, True)}


def test_enumerate_unsat_empty():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
    ms = enumerate_models(f, cap=10)
    assert ms.models == ()
    assert not ms.truncated


def test_enumerate_cap_validation():
    with pytest.raises(ValueError):
        enumerate_models(Formula(3, ()), cap=0)


def test_enumerate_equals_brute_force_when_uncapped():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(max(2, n - 2), 4 * n))
        f = generate_random_3sat(n, m, seed=int(rng.integers(10**6)))
        ms = enumerate_models(f, cap=1 << n)
        bf = brute_force_models(f)
        assert set(ms.models) == set(bf.models)
        assert not ms.truncated
        assert len(set(ms.models)) == len(ms.models)


def test_enumerate_truncation_flag():
    # No clauses: every assignment is a model, so a low cap must truncate.
    f = Formula(4, ())
    ms = enumerate_models(f, cap=5)
    assert len(ms.models) == 5
    assert ms.truncated
    full = enumerate_models(f, cap=16)
    assert len(full.models) == 16
    assert not full.truncated


def test_backbone_single_model():
    ms = ModelSet(((True, False, True),), truncated=False, cap=10)
    report = backbone(ms, 3)
    assert report.size == 3
    assert report.normalized == 1.0
    assert report.exact


def test_backbone_two_models():
    ms = ModelSet(((True, True), (True, False)), truncated=False, cap=10)
    report = backbone(ms, 2)
    assert report.fixed_vars == ((0, True),)
    assert report.size == 1
    assert report.normalized == 0.5


def test_backbone_empty_errors():
    with pytest.raises(ValueError):
        backbone(ModelSet((), truncated=False, cap=10), 3)


def test_backbone_order_invariant():
    models = [(True, False, True), (True, True, True), (True, False, False)]
    a = backbone(ModelSet(tuple(models), False, 10), 3)
    b = backbone(ModelSet(tuple(reversed(models)), False, 10), 3)
    assert a.fixed_vars == b.fixed_vars


def test_backbone_truncation_overestimates():
    # Dropping models can only freeze more variables, never fewer.
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = generate_random_3sat(7, int(rng.integers(7, 25)), seed=int(rng.integers(10**6)))
        bf = brute_force_models(f)
        if len(bf.models) < 3:
            continue
        full = backbone(bf, 7)
        cut = ModelSet(bf.models[:2], truncated=True, cap=2)
        partial = backbone(cut, 7)
        assert set(full.fixed_vars) <= set(partial.fixed_vars)
        assert not partial.exact


def test_backbone_exact_flag_tracks_truncation():
    f = Formula(4, ())
    truncated = enumerate_models(f, cap=3)
    assert not backbone(truncated, 4).exact


def test_brute_force_examples():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    assert len(brute_force_models(f).models) == 7
    f2 = parse_dimacs("p cnf 2 2\n1 0\n2 0")
    assert brute_force_models(f2).models == ((True, True),)


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_models(Formula(25, ()))


def test_brute_force_matches_reference_oracle():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        f = generate_random_3sat(n, int(rng.integers(1, 4 * n)), seed=int(rng.integers(10**6)))
        assert set(brute_force_models(f).models) == reference_models(f)


def test_uf20_capped_vs_exact_backbone(uf20_formulas):
    # Heavier sweep lives in the acceptance suite; spot-check two instances.
    for f in uf20_formulas[:2]:
        exact = backbone(brute_force_models(f), f.num_vars)
        capped = backbone(enumerate_models(f, cap=120), f.num_vars)
        assert set(exact.fixed_vars) <= set(capped.fixed_vars)


def test_enumeration_order_deterministic(uf20_formulas):
    f = uf20_formulas[0]
    assert enumerate_models(f, cap=20).models == enumerate_models(f, cap=20).models


def test_solver_handles_formula_without_variables():
    empty = Formula(0, ())
    assert solve(empty) == ()
    ms = enumerate_models(empty, cap=4)
    assert ms.models == ((),)
    assert not ms.truncated


def scan_models(f: Formula) -> tuple[tuple[bool, ...], ...]:
    """The exhaustive 2^n scan: every assignment index, in ascending order."""
    n = f.num_vars
    size = 1 << n
    indices = np.arange(size, dtype=np.uint32)
    unsat_counts = np.zeros(size, dtype=np.int32)
    for clause in f.clauses:
        satisfied = np.zeros(size, dtype=bool)
        for lit in clause.literals:
            bit = ((indices >> np.uint32(lit.var)) & np.uint32(1)).astype(bool)
            satisfied |= bit if lit.sign > 0 else ~bit
        unsat_counts += ~satisfied
    model_indices = np.nonzero(unsat_counts == 0)[0]
    bits = (model_indices[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    return tuple(tuple(bool(b) for b in row) for row in bits)


def mixed_formula(rng: np.random.Generator, n: int, m: int) -> Formula:
    """Random clauses of width 1-3 over n variables; some are tautological."""
    clauses = []
    for _ in range(m):
        width = min(n, int(rng.choice((1, 2, 3), p=(0.05, 0.25, 0.7))))
        variables = rng.choice(n, size=width, replace=False)
        literals = [Literal(int(v), 1 if rng.integers(2) else -1) for v in variables]
        if width > 1 and rng.random() < 0.05:
            literals[1] = Literal(literals[0].var, -literals[0].sign)
        clauses.append(Clause(tuple(literals)))
    return Formula(n, tuple(clauses))


def bits(model: tuple[bool, ...]) -> str:
    return "".join("1" if value else "0" for value in model)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def frozen_family() -> list[Formula]:
    rng = np.random.default_rng(2024)
    family = []
    for _ in range(60):
        n = int(rng.integers(1, 11))
        family.append(mixed_formula(rng, n, int(rng.integers(1, 4 * n + 1))))
    return family


def test_enumerate_sb005_order_is_frozen(uf20_paths):
    f = parse_dimacs_file(next(p for p in uf20_paths if p.stem == "uf20-sb-005"))
    for exact in (None, brute_force_models(f)):
        ms = enumerate_models(f, cap=120, exact=exact)
        assert len(ms.models) == 120
        assert ms.truncated
        assert digest([bits(m) for m in ms.models]) == SB005_DIGEST


def test_solve_uf20_models_are_frozen(uf20_formulas):
    assert digest([bits(solve(f)) for f in uf20_formulas]) == UF20_SOLVE_DIGEST


def test_small_family_decisions_are_frozen():
    for pruned in (False, True):
        lines = []
        unsat = 0
        for f in frozen_family():
            model = solve(f)
            unsat += model is None
            lines.append("-" if model is None else bits(model))
            exact = brute_force_models(f) if pruned else None
            for cap in (1, 3, 50):
                ms = enumerate_models(f, cap, exact)
                lines.append(f"cap={cap} truncated={int(ms.truncated)} count={len(ms.models)}")
                lines.extend(bits(m) for m in ms.models)
        assert unsat > 0
        assert digest(lines) == FAMILY_DIGEST


def test_pruned_enumeration_matches_unpruned(uf20_formulas):
    cases = [(f, cap) for f in uf20_formulas for cap in (1, 3, 50, 120, 200)]
    cases += [(f, cap) for f in frozen_family() for cap in (1, 3, 50)]
    cases += [(Formula(0, ()), cap) for cap in (1, 3)]
    cases += [(Formula(4, ()), cap) for cap in (5, 16)]
    for f, cap in cases:
        assert enumerate_models(f, cap, brute_force_models(f)) == enumerate_models(f, cap)


def test_pruned_enumeration_never_backtracks(uf20_paths, monkeypatch):
    # Every state the pruned search propagates extends a model not yet
    # found, so no propagation hits a conflict and each model costs at most
    # one propagation per variable plus the root.
    f = parse_dimacs_file(next(p for p in uf20_paths if p.stem == "uf20-sb-005"))
    results = []

    def counted(*args):
        result = propagate(*args)
        results.append(result)
        return result

    propagate = satcore._propagate
    monkeypatch.setattr(satcore, "_propagate", counted)
    ms = enumerate_models(f, cap=120, exact=brute_force_models(f))
    assert len(ms.models) == 120 and ms.truncated
    assert results and None not in results
    assert len(results) <= (f.num_vars + 1) * len(ms.models)


def test_enumerate_rejects_truncated_exact_set():
    f = Formula(4, ())
    with pytest.raises(ValueError):
        enumerate_models(f, cap=3, exact=enumerate_models(f, cap=3))


def test_brute_force_matches_scan_in_order(uf20_formulas):
    rng = np.random.default_rng(41)
    cases = list(uf20_formulas[:3])
    cases += [mixed_formula(rng, n, int(rng.integers(1, 4 * n + 1)))
              for n in rng.integers(1, 13, size=40)]
    cases += [generate_random_3sat(n, int(rng.integers(1, 5 * n)), seed=int(rng.integers(10**6)))
              for n in rng.integers(3, 13, size=40)]
    tautology = Clause((Literal(0, 1), Literal(0, -1), Literal(2, 1)))
    cases += [
        Formula(0, ()),
        Formula(4, ()),
        Formula(3, (tautology, Clause((Literal(1, -1),)))),
    ]
    for f in cases:
        ms = brute_force_models(f)
        assert ms.models == scan_models(f)
        assert not ms.truncated
        assert ms.cap == 1 << f.num_vars


def test_solve_branches_deeper_than_the_recursion_limit():
    # Each pair (x, y) needs exactly one true: x or y, and not both. No
    # literal is pure, so the solver branches once per pair.
    pairs = sys.getrecursionlimit() + 100
    clauses = []
    for k in range(pairs):
        x, y = 2 * k, 2 * k + 1
        clauses.append(Clause((Literal(x, 1), Literal(y, 1))))
        clauses.append(Clause((Literal(x, -1), Literal(y, -1))))
    model = solve(Formula(2 * pairs, tuple(clauses)))
    assert model == (True, False) * pairs
