from __future__ import annotations

import hashlib
import itertools
import sys
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from spinsat.cnf import (
    Clause,
    Formula,
    Literal,
    generate_random_3sat,
    mean_slack,
    parse_dimacs,
    parse_dimacs_file,
)
from spinsat import satcore
from spinsat.satcore import ModelSet, backbone, brute_force_models, enumerate_models, solve

from reference import (
    model_tuples,
    reference_brute_force_models,
    reference_clause_masks,
    reference_enumerate,
    reference_logical_energy,
    reference_propagate,
)

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


def same(a: ModelSet, b: ModelSet) -> bool:
    """Whether two model sets list the same models in the same order and
    agree on truncation (``ModelSet`` compares by identity)."""
    return a.truncated == b.truncated and np.array_equal(a.models, b.models)


def with_blocking_clauses(f: Formula, models) -> Formula:
    """``f`` with the clause forbidding each of ``models`` appended."""
    blocking = tuple(
        Clause(tuple(Literal(v, -1 if value else 1) for v, value in enumerate(model)))
        for model in models
    )
    return Formula(f.num_vars, f.clauses + blocking)


def partial_states(rng: np.random.Generator, f: Formula, models, count: int):
    """The empty state, then random partial assignments: half are
    restrictions of a model (when there is one), half are arbitrary, and the
    share of assigned variables varies from state to state."""
    n = f.num_vars
    yield 0, 0
    for k in range(count):
        assigned = rng.random(n) < rng.random()
        if models and k % 2:
            values = models[int(rng.integers(len(models)))]
        else:
            values = rng.random(n) < 0.5
        true = sum(1 << v for v in range(n) if assigned[v] and values[v])
        false = sum(1 << v for v in range(n) if assigned[v] and not values[v])
        yield true, false


@dataclass
class Run:
    """One `_solve_masks` or `_descend` call: the last run's states, the
    model they were checked against, the states this run kept and the model
    it found."""

    previous: dict
    blocked: int
    states: dict
    found: int | None
    calls: int

    def dead(self) -> list[tuple[int, int]]:
        """The last run's states that assign a variable against its model."""
        return [(t, f) for t, f in self.previous if t & ~self.blocked or f & self.blocked]

    def skipped(self) -> list[tuple[int, int]]:
        """The states kept here that extend one of `dead`."""
        dead = self.dead()
        return [(true, false) for true, false in self.states
                if any(true & t == t and false & f == f for t, f in dead)]


@dataclass
class SearchLog:
    """What each `_propagate` call returned and what each run kept."""

    fresh: list = field(default_factory=list)
    runs: list[Run] = field(default_factory=list)


@pytest.fixture
def search_log(monkeypatch) -> SearchLog:
    """Count the search's work: every new `_propagate` call and every
    `_solve_masks` or `_descend` run, through the module attributes the
    search calls."""
    log = SearchLog()
    propagate, solve_masks, descend = satcore._propagate, satcore._solve_masks, satcore._descend

    def counted_propagate(*args):
        outcome = propagate(*args)
        log.fresh.append(outcome)
        return outcome

    def logged(search, blocked, rows, every, previous, *args):
        """Run ``search`` and log it as a run whose new clause blocks ``blocked``."""
        calls = len(log.fresh)
        true, states = search(rows, every, previous, *args)
        log.runs.append(Run(previous, blocked, states, true, len(log.fresh) - calls))
        return true, states

    def logged_solve(rows, every, previous, blocked):
        return logged(solve_masks, blocked, rows, every, previous, blocked)

    def logged_descend(rows, every, previous, *exact):
        # A rerun's previous states come from the run before it, whose model
        # the rerun's new clause blocks.
        return logged(descend, log.runs[-1].found if previous else 0, rows, every, previous, *exact)

    monkeypatch.setattr(satcore, "_propagate", counted_propagate)
    monkeypatch.setattr(satcore, "_solve_masks", logged_solve)
    monkeypatch.setattr(satcore, "_descend", logged_descend)
    return log


def test_propagate_matches_clause_major_reference(uf20_formulas):
    rng = np.random.default_rng(53)
    cases = [(f, k) for f in uf20_formulas for k in (0, 1, 30, 119)]
    cases += [(f, k) for f in frozen_family() for k in (0, 1, 3)]
    outcomes = set()
    for f, k in cases:
        models = model_tuples(brute_force_models(f))
        # With k at least the model count, every model is blocked and the
        # formula becomes UNSAT.
        g = with_blocking_clauses(f, models[:k])
        rows, every = satcore._clause_rows(g)
        clauses = reference_clause_masks(g)
        for true, false in partial_states(rng, g, models, 30):
            result, _ = satcore._propagate(rows, every, true, false)
            assert result == reference_propagate(clauses, true, false)
            outcomes.add("conflict" if result is None else result[2])
    assert outcomes == {"conflict", False, True}


def test_enumerate_matches_clause_major_reference_beyond_brute_force(search_log):
    # n = 50 is beyond brute_force_models, so this is the unpruned search,
    # and with the blocking clauses the rows hold more than 200 clause bits.
    f = generate_random_3sat(50, 200, seed=7)
    ms = enumerate_models(f, cap=8)
    assert len(ms.models) == 8 and ms.truncated
    assert same(ms, reference_enumerate(f, cap=8))
    assert len(f.clauses) + len(ms.models) > 200
    # Past 64 variables a true-mask no longer fits an int64; each model is
    # read off a Python int.
    for seed in (1, 2, 3):
        f = generate_random_3sat(70, 150, seed=seed)
        ms = enumerate_models(f, cap=5)
        assert len(ms.models) == 5 and ms.truncated
        assert any(model[64:] != (False,) * 6 for model in model_tuples(ms))
        assert same(ms, reference_enumerate(f, cap=5))
    # This one backtracks: each rerun after the first skips subtrees that
    # held no model in the rerun before, as well as reusing open states.
    f = generate_random_3sat(50, 218, seed=2)
    search_log.fresh.clear()
    search_log.runs.clear()
    ms = enumerate_models(f, cap=40)
    assert len(ms.models) == 40 and ms.truncated
    runs = search_log.runs
    skipped = [len(run.skipped()) for run in runs]
    # Each rerun after the first keeps a skipped state, but one: rerun 32
    # backtracks, and every state it skips lies in a subtree it left.
    assert len(runs) == 41 and skipped[0] == 0 and skipped[1:].count(0) == 1
    assert any(result is None for result, _ in search_log.fresh)
    # The reruns keep 888 states, 229 of them skipped, and make 411 new
    # calls. A kept root stands for the states below it, which extend it,
    # so a rerun skips them wherever it meets them.
    resolved = sum(len(run.states) for run in runs)
    assert (resolved, sum(skipped), len(search_log.fresh)) == (888, 229, 411)
    assert same(ms, reference_enumerate(f, cap=40))


def test_unsat_rerun_keeps_two_states_per_level(search_log):
    # Only the path and the root of each finished subtree beside it stay:
    # this UNSAT search resolves 8,453 states and keeps 23 of them.
    f = generate_random_3sat(75, 320, seed=1)
    ms = enumerate_models(f, cap=1)
    assert model_tuples(ms) == () and not ms.truncated
    (run,) = search_log.runs
    assert len(search_log.fresh) == 8453
    assert len(run.states) <= 2 * (f.num_vars + 1)
    assert len(run.states) == 23


def test_keep_leaves_propagation_unchanged(uf20_formulas):
    # enumerate_models lets a state S that agrees with the model m just
    # blocked take its result over F for F plus the blocking clause C of m
    # when the call was marked keep. There, both the result and keep must be
    # what a new call over F and C returns.
    rng = np.random.default_rng(67)
    cases = list(uf20_formulas) + frozen_family()
    cases += [generate_random_3sat(50, m, seed=s) for m, s in ((150, 1), (200, 7), (218, 2))]
    outcomes = set()
    for f in cases:
        n = f.num_vars
        models = model_tuples(brute_force_models(f)) if n <= satcore.BRUTE_FORCE_MAX_VARS else ()
        rows, every = satcore._clause_rows(f)
        for true, false in partial_states(rng, f, models, 30):
            outcome = satcore._propagate(rows, every, true, false)
            # m extends S: it takes S's values and random ones elsewhere.
            blocked = sum(1 << v for v in range(n) if rng.random() < 0.5) & ~false | true
            g = with_blocking_clauses(f, [tuple(bool(blocked >> v & 1) for v in range(n))])
            after = satcore._propagate(*satcore._clause_rows(g), true, false)
            if outcome[1]:
                assert after == outcome
                outcomes.add("keep")
            else:
                outcomes.add("refused" if after == outcome else "refused, changed")
    assert outcomes == {"keep", "refused", "refused, changed"}


def test_skipped_states_extend_no_model_left(uf20_formulas, search_log):
    # A rerun skips each state that extends a state of the last rerun which
    # assigns a variable against the model just blocked: no model of the
    # clauses, blocking clauses included, may extend it.
    skipped = 0
    for f in list(uf20_formulas) + frozen_family():
        search_log.runs.clear()
        enumerate_models(f, cap=50)
        alive = {sum(1 << v for v, value in enumerate(model) if value)
                 for model in brute_force_models(f).models}
        for run in search_log.runs:
            dead = run.dead() + run.skipped()
            skipped += len(dead)
            for set_true, set_false in dead:
                assert not any(m & set_true == set_true and not m & set_false for m in alive)
            alive.discard(run.found)
    assert skipped > 0


def test_solve_contradiction_unsat():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
    assert solve(f) is None


def test_solve_uf20_all_sat(uf20_formulas):
    for f in uf20_formulas:
        model = solve(f)
        assert model is not None
        assert reference_logical_energy(f, model) == 0


def test_solve_agrees_with_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(120):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 4 * n))
        f = generate_random_3sat(n, m, seed=int(rng.integers(10**6)))
        expected = reference_models(f) if n <= 10 else set(model_tuples(brute_force_models(f)))
        model = solve(f)
        assert (model is not None) == bool(expected)
        if model is not None:
            assert reference_logical_energy(f, model) == 0


def test_solve_deterministic(uf20_formulas):
    f = uf20_formulas[0]
    assert solve(f) == solve(f)


def test_enumerate_two_var_clause():
    f = parse_dimacs("p cnf 2 1\n1 2 0")
    ms = enumerate_models(f, cap=10)
    assert len(ms.models) == 3
    assert not ms.truncated
    assert set(model_tuples(ms)) == {(True, False), (False, True), (True, True)}


def test_enumerate_unsat_empty():
    f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
    ms = enumerate_models(f, cap=10)
    assert model_tuples(ms) == ()
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
        assert set(model_tuples(ms)) == set(model_tuples(bf))
        assert not ms.truncated
        assert len(set(model_tuples(ms))) == len(ms.models)


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
    ms = ModelSet(np.array([(True, False, True)]), truncated=False)
    assert backbone(ms) == ((0, True), (1, False), (2, True))


def test_backbone_two_models():
    ms = ModelSet(np.array([(True, True), (True, False)]), truncated=False)
    assert backbone(ms) == ((0, True),)


def test_backbone_empty_errors():
    with pytest.raises(ValueError):
        backbone(ModelSet(np.zeros((0, 3), dtype=bool), truncated=False))


def test_backbone_order_invariant():
    models = [(True, False, True), (True, True, True), (True, False, False)]
    a = backbone(ModelSet(np.array(models), False))
    b = backbone(ModelSet(np.array(models[::-1]), False))
    assert a == b == ((0, True),)


def test_backbone_truncation_overestimates():
    # Dropping models can only freeze more variables, never fewer.
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = generate_random_3sat(7, int(rng.integers(7, 25)), seed=int(rng.integers(10**6)))
        bf = brute_force_models(f)
        if len(bf.models) < 3:
            continue
        full = backbone(bf)
        partial = backbone(ModelSet(bf.models[:2], truncated=True))
        assert set(full) <= set(partial)


def test_brute_force_examples():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    assert len(brute_force_models(f).models) == 7
    f2 = parse_dimacs("p cnf 2 2\n1 0\n2 0")
    assert model_tuples(brute_force_models(f2)) == ((True, True),)


def test_dense_model_set_is_one_compact_table():
    # p cnf 21 1 has 1,835,008 models. Held as tuples of bools, the exact set,
    # pruned enumeration, mean slack and backbone peaked at 723 MB traced;
    # the bool table needs about 60 MB. The bound is a quarter of the tuples'.
    f = generate_random_3sat(21, 1, 1)
    tracemalloc.start()
    try:
        exact = brute_force_models(f)
        capped = enumerate_models(f, cap=120, exact=exact)
        slack = mean_slack(f, exact.models)
        frozen = backbone(exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180 * 2**20, peak
    assert exact.models.shape == (1835008, 21)
    assert len(capped.models) == 120 and same(capped, enumerate_models(f, cap=120))
    # The values the tuple model sets gave.
    assert slack.hex() == "0x1.b6db6db6db6dbp+0" and frozen == ()


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_models(Formula(25, ()))


def test_brute_force_matches_reference_oracle():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        f = generate_random_3sat(n, int(rng.integers(1, 4 * n)), seed=int(rng.integers(10**6)))
        assert set(model_tuples(brute_force_models(f))) == reference_models(f)


def test_uf20_capped_vs_exact_backbone(uf20_formulas):
    # Heavier sweep lives in the acceptance suite; spot-check two instances.
    for f in uf20_formulas[:2]:
        exact = backbone(brute_force_models(f))
        capped = backbone(enumerate_models(f, cap=120))
        assert set(exact) <= set(capped)


def test_enumeration_order_deterministic(uf20_formulas):
    f = uf20_formulas[0]
    assert model_tuples(enumerate_models(f, cap=20)) == model_tuples(enumerate_models(f, cap=20))


def test_solver_handles_formula_without_variables():
    empty = Formula(0, ())
    assert solve(empty) == ()
    ms = enumerate_models(empty, cap=4)
    assert model_tuples(ms) == ((),)
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
    lines = []
    unsat = 0
    blocks = []
    for f in frozen_family():
        model = solve(f)
        unsat += model is None
        lines.append("-" if model is None else bits(model))
        for cap in (1, 3, 50):
            ms = enumerate_models(f, cap)
            lines.append(f"cap={cap} truncated={int(ms.truncated)} count={len(ms.models)}")
            lines.extend(bits(m) for m in ms.models)
            blocks.append((f, cap, ms))
    assert unsat > 0
    assert digest(lines) == FAMILY_DIGEST
    # Pruned by the exact set, a truncated block is the same line for line. A
    # complete block is the exact table, in ascending true-mask order, and the
    # unpruned block's models in another order.
    complete = 0
    for f, cap, unpruned in blocks:
        exact = brute_force_models(f)
        ms = enumerate_models(f, cap, exact)
        if unpruned.truncated:
            assert [bits(m) for m in ms.models] == [bits(m) for m in unpruned.models]
            assert ms.truncated
        else:
            complete += 1
            assert [bits(m) for m in ms.models] == [bits(m) for m in exact.models]
            assert sorted(bits(m) for m in ms.models) == sorted(bits(m) for m in unpruned.models)
            assert not ms.truncated
    assert 0 < complete < len(blocks)


def test_pruned_enumeration_matches_unpruned(uf20_formulas):
    cases = [(f, cap) for f in uf20_formulas for cap in (1, 3, 50, 120, 200)]
    cases += [(f, cap) for f in frozen_family() for cap in (1, 3, 50)]
    cases += [(Formula(0, ()), cap) for cap in (1, 3)]
    cases += [(Formula(4, ()), cap) for cap in (5, 16)]
    # 10,752 models: the column ints span many bytes of the packed model table.
    sparse = parse_dimacs("p cnf 14 2\n1 2 3 0\n-4 5 0\n")
    assert len(brute_force_models(sparse).models) == 10752
    # The same models, in the same order, as one assignment at a time gives,
    # in a read-only bool table.
    exact = brute_force_models(sparse)
    assert model_tuples(exact) == reference_brute_force_models(sparse)
    assert exact.models.dtype == bool and not exact.models.flags.writeable
    cases += [(sparse, cap) for cap in (1, 120, 300)]
    # Few clauses leave many models, so a state agrees with many of them
    # down to deep states, and one that only one model agrees with comes late.
    rng = np.random.default_rng(83)
    for n in (4, 8, 12, 16):
        for alpha in (0.5, 1, 2):
            f = generate_random_3sat(n, max(1, int(alpha * n)), seed=int(rng.integers(10**6)))
            cases += [(f, cap) for cap in (1, 7, 120)]
    outcomes = set()
    for f, cap in cases:
        exact = brute_force_models(f)
        pruned = enumerate_models(f, cap, exact)
        unpruned = enumerate_models(f, cap)
        models = model_tuples(pruned)
        model = solve(f)
        if pruned.truncated:
            assert same(pruned, unpruned)
            # `spinsat run` reads satisfiability off the capped set instead of calling solve.
            assert models[0] == model
        else:
            # Within the cap the exact set is the result, in its own order.
            assert pruned is exact and not unpruned.truncated
            assert len(models) == len(unpruned.models) and set(models) == set(model_tuples(unpruned))
            assert bool(models) == (model is not None)
            assert model is None or model in models
        outcomes.add((pruned.truncated, bool(models)))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_pruned_enumeration_never_backtracks(uf20_paths, search_log):
    # Every state the pruned search resolves extends a model not yet found,
    # so no state ends in a conflict and each model costs at most one state
    # per variable plus the root.
    f = parse_dimacs_file(next(p for p in uf20_paths if p.stem == "uf20-sb-005"))
    exact = brute_force_models(f)
    alive = {sum(1 << v for v, value in enumerate(model) if value) for model in exact.models}
    ms = enumerate_models(f, cap=120, exact=exact)
    assert len(ms.models) == 120 and ms.truncated
    results = []
    for run in search_log.runs:
        for set_true, set_false in run.states:
            assert any(m & set_true == set_true and not m & set_false for m in alive)
        results.extend(result for result, _ in run.states.values())
        alive.discard(run.found)
    assert results and None not in results
    assert len(results) <= (f.num_vars + 1) * len(ms.models)
    # The exact count of resolved states pins the search tree itself:
    # propagation that returned other masks on some state would branch
    # differently and move it. The count of new calls pins the reuse: every
    # other state takes what the previous rerun returned for it, or returns
    # the one model not yet found that agrees with it, unresolved.
    assert len(results) == 1156
    assert len(search_log.fresh) == 169


def test_exact_path_reruns_resolve_one_chain_from_the_root(uf20_formulas, search_log):
    # With the exact model set a rerun never backtracks: each state it
    # resolves extends the one resolved before it, and the first is the root.
    # Each cap is below its set's size, as a set within the cap takes no rerun.
    sparse = parse_dimacs("p cnf 14 2\n1 2 3 0\n-4 5 0\n")
    cases = [(f, len(brute_force_models(f).models) - 1) for f in uf20_formulas]
    cases = [(f, cap) for f, cap in cases if cap] + [(sparse, 120)]
    chains = 0
    for f, cap in cases:
        search_log.runs.clear()
        enumerate_models(f, cap, brute_force_models(f))
        assert len(search_log.runs) == cap
        for run in search_log.runs:
            states = list(run.states)
            assert states[:1] in ([], [(0, 0)])
            for (t0, f0), (t1, f1) in zip(states, states[1:]):
                assert t1 & t0 == t0 and f1 & f0 == f0 and (t1, f1) != (t0, f0)
            chains += len(states) > 1
    assert chains > len(cases)


def test_one_alive_model_needs_no_propagation(uf20_paths, search_log):
    # A rerun returns a model without propagating once only one alive model
    # agrees with its path, and takes what the last rerun returned for the
    # states before. Below each set's size `_descend` runs: uf20-sb-004 has 4
    # models, and at cap 3 its second rerun finds one without a call.
    f = parse_dimacs_file(next(p for p in uf20_paths if p.stem == "uf20-sb-004"))
    exact = brute_force_models(f)
    assert len(exact.models) == 4
    assert same(enumerate_models(f, cap=3, exact=exact), enumerate_models(f, cap=3))
    assert [(run.found, run.calls) for run in search_log.runs[:3]] == [
        (369724, 5),
        (386108, 0),
        (369720, 6),
    ]
    # uf20-sb-005 enumerated to 144 of its 145 models: 46 of them are found
    # without a call, and the 144 runs make 198 calls.
    f = parse_dimacs_file(next(p for p in uf20_paths if p.stem == "uf20-sb-005"))
    exact = brute_force_models(f)
    search_log.runs.clear()
    assert same(enumerate_models(f, cap=144, exact=exact), enumerate_models(f, cap=144))
    pruned = search_log.runs[:144]
    assert all(run.found is not None for run in pruned)
    assert [run.calls for run in pruned].count(0) == 46
    assert sum(run.calls for run in pruned) == 198


def test_exact_set_within_cap_is_returned_whole(uf20_formulas, search_log):
    # An exact set of at most cap models is the whole capped enumeration: it
    # is returned as it is, without a rerun or a call to _propagate. One
    # model fewer than the set holds takes the pruned reruns, one per model.
    unsat = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
    cases = list(uf20_formulas) + [parse_dimacs("p cnf 0 0"), unsat, Formula(4, ())]
    sizes = []
    for f in cases:
        exact = brute_force_models(f)
        size = len(exact.models)
        sizes.append(size)
        search_log.runs.clear()
        search_log.fresh.clear()
        assert enumerate_models(f, max(size, 1), exact) is exact
        assert search_log.runs == [] and search_log.fresh == []
        if size > 1:
            below = enumerate_models(f, size - 1, exact)
            assert len(search_log.runs) == size - 1 and search_log.fresh
            assert below.truncated and same(below, enumerate_models(f, size - 1))
    assert 0 in sizes and 1 in sizes and max(sizes) == 145


def test_scan_matches_reference_on_mixed_clauses():
    # The scan fixes variables by occurrence count, so ties, unused variables
    # (fixed last), tautologies and short clauses meet it at different steps.
    rng = np.random.default_rng(97)
    cases = [parse_dimacs("p cnf 0 0"), parse_dimacs("p cnf 3 0")]
    for _ in range(80):
        n = int(rng.integers(1, 11))
        f = mixed_formula(rng, n, int(rng.integers(1, 4 * n + 1)))
        cases.append(Formula(n + int(rng.integers(0, 3)), f.clauses))
    sizes = set()
    for f in cases:
        ms = brute_force_models(f)
        assert model_tuples(ms) == reference_brute_force_models(f)
        assert not ms.truncated and ms.models.shape == (len(ms.models), f.num_vars)
        sizes.add(len(ms.models))
    clauses = [c for f in cases for c in f.clauses]
    assert any(c.is_tautological for c in clauses)
    assert {1, 2, 3} <= {len(c) for c in clauses}
    assert any(not occ for f in cases for occ in f.occurrences)
    assert 0 in sizes and 1 in sizes


def test_scan_memory_stays_beside_the_table_on_a_dense_set():
    # Eight clauses over all 21 variables each falsify one assignment, and all
    # are completed at the last step, when the frontier holds 2^21 rows.
    # Tested at once, their (clause, row) pairs would take 24 bytes a row
    # beside the table; the scan keeps a 4-byte frontier row per model and a
    # test of at most `_SCAN_CELLS` pairs.
    rng = np.random.default_rng(5)
    f = Formula(21, tuple(
        Clause(tuple(Literal(v, int(sign)) for v, sign in enumerate(rng.choice((-1, 1), 21))))
        for _ in range(8)
    ))
    tracemalloc.start()
    try:
        exact = brute_force_models(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact.models.shape == ((1 << 21) - 8, 21)
    assert peak < exact.models.nbytes + 8 * len(exact.models), peak


def test_enumerate_rejects_truncated_exact_set():
    f = Formula(4, ())
    with pytest.raises(ValueError):
        enumerate_models(f, cap=3, exact=enumerate_models(f, cap=3))


def test_enumerate_rejects_exact_set_past_brute_force():
    f = Formula(satcore.BRUTE_FORCE_MAX_VARS + 1, ())
    exact = ModelSet(np.zeros((1, f.num_vars), dtype=bool), truncated=False)
    with pytest.raises(ValueError, match="limited to 24 variables"):
        enumerate_models(f, cap=1, exact=exact)


def test_enumerate_rejects_exact_set_of_another_width():
    # 13 models over 10 variables; a narrower or wider exact set once gave
    # 1 or 4 of them without an error.
    f = generate_random_3sat(10, 30, seed=3)
    assert len(brute_force_models(f).models) == 13
    for other in (generate_random_3sat(8, 20, seed=5), generate_random_3sat(12, 30, seed=1)):
        with pytest.raises(ValueError, match="width"):
            enumerate_models(f, cap=120, exact=brute_force_models(other))


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
        assert model_tuples(ms) == scan_models(f)
        assert not ms.truncated


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
