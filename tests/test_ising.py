from __future__ import annotations

import itertools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spinsat import ising
from spinsat.cnf import Clause, Formula, Literal, generate_random_3sat, parse_dimacs
from spinsat.ising import (
    GADGET_CORRECTED,
    GADGET_PAPER_LITERAL,
    Hamiltonian,
    clause_polynomial,
    export_csv,
)

from reference import (
    reference_adjacency,
    reference_assignment_to_spins,
    reference_core_minima,
    reference_edge_csv,
    reference_hamiltonian_energy,
    reference_import_csv,
    reference_logical_energy,
    reference_magnetization,
    reference_polynomial_value,
    reference_spins_to_assignment,
)


def clause_from_signs(signs) -> Clause:
    return Clause(tuple(Literal(v, sign) for v, sign in enumerate(signs)))


def reference_compile(f: Formula, k_factor: float, gadget_mode: str) -> Hamiltonian:
    """The per-clause compiler: expand, gadgetize and minimize every clause anew.

    It skips the argument checks of ``ising.compile`` and otherwise adds the
    terms in the order a compile without per-pattern templates adds them.
    """
    k = float(k_factor)
    offset = 0.0
    fields: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}
    gadgets = []
    floor = 0.0
    next_ancilla = f.num_vars
    for clause in f.clauses:
        assert len(clause.literals) <= 3
        if clause.is_tautological:
            continue
        local = clause_polynomial(clause)
        cubic_key = next((key for key in local if len(key) == 3), None)
        if cubic_key is not None:
            c = local.pop(cubic_key)
            i, p, q = (lit.var for lit in clause.literals)
            a = next_ancilla
            next_ancilla += 1
            penalty = k * abs(c)
            gadgets.append(ising.GadgetRecord(i, p))
            substitute = (
                ising._corrected_substitution
                if gadget_mode == GADGET_CORRECTED
                else ising._paper_literal_substitution
            )
            for key, coeff in substitute(c, i, p, q, a, penalty).items():
                local[key] = local.get(key, 0.0) + coeff
        floor += ising._local_minimum(local)
        for key, coeff in local.items():
            if coeff == 0:
                continue
            if len(key) == 0:
                offset += coeff
            elif len(key) == 1:
                fields[key[0]] = fields.get(key[0], 0.0) + coeff
            else:
                couplings[key] = couplings.get(key, 0.0) + coeff
    return Hamiltonian(
        offset=offset,
        fields=tuple(fields.get(i, 0.0) for i in range(next_ancilla)),
        couplings={key: coeff for key, coeff in couplings.items() if coeff != 0},
        core_count=f.num_vars,
        ancillas=tuple(gadgets),
        source=f.source_name,
        energy_floor=floor,
        gadget_mode=gadget_mode,
        k_factor=k,
    )


def assert_compiles_like_reference(f: Formula, k_factor: float, gadget_mode: str) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        H = ising.compile(f, k_factor, gadget_mode)
    expected = reference_compile(f, k_factor, gadget_mode)
    assert H == expected
    assert list(H.couplings) == list(expected.couplings)
    assert repr(H.energy_floor) == repr(expected.energy_floor)
    assert H.ancillas == expected.ancillas
    assert export_csv(H) == export_csv(expected)


def permuted_literals(f: Formula, rng) -> Formula:
    clauses = tuple(
        Clause(tuple(c.literals[int(i)] for i in rng.permutation(len(c.literals))))
        for c in f.clauses
    )
    return Formula(f.num_vars, clauses, f.source_name)


def mixed_width_formula(rng) -> Formula:
    """1-, 2- and 3-literal clauses over a few variables, some tautological."""
    n = int(rng.integers(3, 8))
    clauses = []
    for _ in range(int(rng.integers(1, 16))):
        width = int(rng.integers(1, 4))
        variables = rng.choice(n, size=width, replace=False).tolist()
        literals = [Literal(v, 1 if rng.random() < 0.5 else -1) for v in variables]
        if width > 1 and rng.random() < 0.2:
            literals[-1] = Literal(literals[0].var, -literals[0].sign)
        clauses.append(Clause(tuple(literals)))
    return Formula(n, tuple(clauses))


def violation_indicator(clause: Clause, spins) -> int:
    satisfied = any(spins[lit.var] == lit.sign for lit in clause.literals)
    return 0 if satisfied else 1


def random_hamiltonian(rng, n=8) -> Hamiltonian:
    fields = tuple(int(rng.integers(-8, 9)) / 8 for _ in range(n))
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                couplings[(i, j)] = int(rng.integers(-8, 9)) / 8
    return Hamiltonian(
        offset=int(rng.integers(-8, 9)) / 8,
        fields=fields,
        couplings=couplings,
        core_count=n,
        ancillas=(),
    )


# ---------------------------------------------------------------------------
# spin <-> assignment maps
# ---------------------------------------------------------------------------


def test_spins_to_assignment():
    assert reference_spins_to_assignment([1, -1, 1], 3) == (True, False, True)
    assert reference_spins_to_assignment([-1, -1], 2) == (False, False)


def test_assignment_to_spins_round_trip():
    a = (True, False, False, True)
    spins = reference_assignment_to_spins(a)
    assert spins.tolist() == [1, -1, -1, 1]
    assert reference_spins_to_assignment(spins, 4) == a


def test_spins_to_assignment_ignores_ancillas():
    assert reference_spins_to_assignment([1, -1, 1, -1, -1], 2) == (True, False)


def test_spins_to_assignment_length_check():
    with pytest.raises(ValueError):
        reference_spins_to_assignment([1, -1], 3)


# ---------------------------------------------------------------------------
# clause polynomials
# ---------------------------------------------------------------------------


def test_negated_unit_clause_polynomial():
    poly = clause_polynomial(clause_from_signs([-1]))
    assert poly == {(): 0.5, (0,): 0.5}


def test_three_clause_cubic_coefficient():
    poly = clause_polynomial(clause_from_signs([1, 1, 1]))
    assert poly[(0, 1, 2)] == -0.125


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polynomial_is_violation_indicator_for_all_sign_patterns(k):
    for signs in itertools.product((1, -1), repeat=k):
        clause = clause_from_signs(signs)
        poly = clause_polynomial(clause)
        for spins in itertools.product((-1, 1), repeat=k):
            assert reference_polynomial_value(poly, spins) == violation_indicator(clause, spins)


def test_polynomial_rejects_long_clause():
    clause = Clause(tuple(Literal(v, 1) for v in range(4)))
    with pytest.raises(ValueError):
        clause_polynomial(clause)


def test_polynomial_rejects_repeated_variable():
    with pytest.raises(ValueError):
        clause_polynomial(Clause((Literal(0, 1), Literal(0, -1), Literal(1, 1))))


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_empty_formula():
    H = ising.compile(Formula(4, ()))
    assert H.num_spins == 4
    assert H.offset == 0
    assert H.couplings == {}
    assert H.ancillas == ()


def test_compile_single_clause_matches_violation_indicator():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    H = ising.compile(f)
    assert H.num_spins == 4
    assert H.energy_floor == 0
    for core in itertools.product((-1, 1), repeat=3):
        best = min(
            reference_hamiltonian_energy(H, list(core) + [a]) for a in (-1, 1)
        )
        expected = violation_indicator(f.clauses[0], core)
        assert best == expected


def test_compile_uf20_spin_count(uf20_formulas):
    H = ising.compile(uf20_formulas[0])
    assert H.num_spins == 111
    assert H.core_count == 20
    assert len(H.ancillas) == 91


def test_compile_tautological_clause_contributes_nothing():
    f = parse_dimacs("p cnf 2 1\n1 -1 2 0")
    H = ising.compile(f)
    assert H.offset == 0
    assert all(h == 0 for h in H.fields)
    assert H.couplings == {}


def test_compile_k_factor_validation():
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    with pytest.raises(ValueError):
        ising.compile(f, k_factor=0)
    with pytest.warns(UserWarning):
        ising.compile(f, k_factor=4)


@pytest.mark.parametrize("k_factor", [20.3, Fraction(61, 3), 2**20])
def test_compile_rejects_k_factor_without_exact_coefficients(k_factor):
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    with pytest.raises(ValueError, match="multiple of 1/1024"):
        ising.compile(f, k_factor=k_factor)


def test_compile_accepts_dyadic_k_factor():
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"), k_factor=12.25)
    assert H.k_factor == 12.25
    # The corrected gadget couples the ancilla to each parent with -K/2, K = k/8.
    assert H.couplings[(0, 3)] == H.couplings[(1, 3)] == -12.25 / 16
    assert reference_core_minima(H) == [0.0 if k else 1.0 for k in range(8)]


def test_compile_unknown_mode():
    with pytest.raises(ValueError):
        ising.compile(Formula(3, ()), gadget_mode="other")


@pytest.mark.parametrize("gadget_mode", [GADGET_CORRECTED, GADGET_PAPER_LITERAL])
@pytest.mark.parametrize("k_factor", [20, 12.25, 8, 1 / 1024])
def test_compile_matches_per_clause_reference(uf20_formulas, gadget_mode, k_factor):
    for f in uf20_formulas:
        assert_compiles_like_reference(f, k_factor, gadget_mode)


@pytest.mark.parametrize("gadget_mode", [GADGET_CORRECTED, GADGET_PAPER_LITERAL])
def test_compile_matches_reference_under_permuted_literal_order(uf20_formulas, gadget_mode):
    # The ancilla binds to the first two literals, so roles must follow
    # literal order and not variable order.
    rng = np.random.Generator(np.random.PCG64(71))
    for f in uf20_formulas:
        shuffled = permuted_literals(f, rng)
        assert shuffled.clauses != f.clauses
        assert_compiles_like_reference(shuffled, 20, gadget_mode)


def test_compile_matches_reference_on_mixed_width_formulas():
    rng = np.random.Generator(np.random.PCG64(73))
    seen_widths, tautologies = set(), 0
    for _ in range(60):
        f = mixed_width_formula(rng)
        seen_widths.update(len(c) for c in f.clauses)
        tautologies += sum(c.is_tautological for c in f.clauses)
        for gadget_mode in (GADGET_CORRECTED, GADGET_PAPER_LITERAL):
            assert_compiles_like_reference(f, 20, gadget_mode)
    assert seen_widths == {1, 2, 3} and tautologies > 0


def test_compile_alternating_settings_never_reuses_a_stale_template(uf20_formulas):
    f = uf20_formulas[4]
    settings = [
        (20, GADGET_CORRECTED), (12.25, GADGET_CORRECTED), (20, GADGET_PAPER_LITERAL),
        (8, GADGET_CORRECTED), (12.25, GADGET_PAPER_LITERAL), (1 / 1024, GADGET_CORRECTED),
        (20, GADGET_CORRECTED), (1 / 1024, GADGET_PAPER_LITERAL),
    ]
    for k_factor, gadget_mode in settings * 2:
        assert_compiles_like_reference(f, k_factor, gadget_mode)


def test_compile_expands_each_clause_pattern_once(uf20_formulas, monkeypatch):
    calls = []
    expand = ising.clause_polynomial
    monkeypatch.setattr(ising, "clause_polynomial", lambda c: calls.append(c) or expand(c))
    ising._clause_template.cache_clear()
    for f in uf20_formulas:
        ising.compile(f, k_factor=12.5)
    patterns = {tuple(lit.sign for lit in c.literals) for f in uf20_formulas for c in f.clauses}
    assert len(calls) == len(patterns) == 8


def test_ground_state_equivalence_small_random():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, 9))
        f = generate_random_3sat(n, m, seed=int(rng.integers(10**6)))
        H = ising.compile(f)
        minima = reference_core_minima(H)
        for k in range(1 << n):
            a = tuple(bool((k >> v) & 1) for v in range(n))
            assert minima[k] - H.energy_floor == reference_logical_energy(f, a)


def test_paper_literal_gadget_is_not_exact():
    # (x1 v x2 v x3) satisfied by x=(F,F,T), yet the literal penalty keeps
    # every ancilla branch strictly above the floor for that configuration.
    f = parse_dimacs("p cnf 3 1\n1 2 3 0")
    H = ising.compile(f, gadget_mode=GADGET_PAPER_LITERAL)
    core = [-1, -1, 1]
    best = min(reference_hamiltonian_energy(H, core + [a]) for a in (-1, 1))
    assert best - H.energy_floor > 0
    assert reference_logical_energy(f, (False, False, True)) == 0


def test_corrected_gadget_gap_favors_true_parents():
    # Summing out an ancilla at temperature T weights a core configuration by
    # 1 + exp(-gap/T), where gap is the energy of the ancilla's wrong value.
    # The gap is 3K +- 1 when both parent variables are false and K +- 1
    # otherwise, so for K > 1 every T > 0 favours true parent spins.
    for signs in itertools.product((1, -1), repeat=3):
        H = ising.compile(Formula(3, (clause_from_signs(signs),)))
        k = H.k_factor / 8
        for core in itertools.product((-1, 1), repeat=3):
            low, high = sorted(reference_hamiltonian_energy(H, [*core, a]) for a in (-1, 1))
            both_false = core[0] == core[1] == -1
            assert abs(high - low - (3 * k if both_false else k)) <= 1


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def test_energy_offset_only():
    H = Hamiltonian(
        offset=3.5, fields=(0.0,) * 3, couplings={}, core_count=3, ancillas=()
    )
    assert reference_hamiltonian_energy(H, [1, -1, 1]) == 3.5


def test_energy_matches_dense_matrix_oracle():
    rng = np.random.default_rng(51)
    for _ in range(50):
        H = random_hamiltonian(rng)
        s = (2 * rng.integers(0, 2, size=H.num_spins) - 1).astype(np.int64)
        dense = np.zeros((H.num_spins, H.num_spins))
        for (i, j), coeff in H.couplings.items():
            dense[i, j] = float(coeff)
        h_vec = np.array([float(h) for h in H.fields])
        expected = float(H.offset) + h_vec @ s + s @ dense @ s
        assert reference_hamiltonian_energy(H, s.tolist()) == pytest.approx(expected, abs=1e-12)


def test_energy_invariant_under_coupling_storage_order():
    rng = np.random.default_rng(53)
    H = random_hamiltonian(rng)
    shuffled = dict(reversed(list(H.couplings.items())))
    H2 = Hamiltonian(H.offset, H.fields, shuffled, H.core_count, H.ancillas)
    s = [1, -1] * (H.num_spins // 2)
    assert reference_hamiltonian_energy(H, s) == reference_hamiltonian_energy(H2, s)


@pytest.mark.parametrize("key", [(0, 5), (2, 1), (1, 1), (-1, 2)],
                         ids=["past-the-spins", "reversed", "self-loop", "negative"])
def test_hamiltonian_refuses_a_coupling_key_outside_0_le_i_lt_j_lt_num_spins(key):
    # A key past the spins, reversed, a self-loop or negative: the sorted
    # coupling table, the neighbour lists and the edge CSV would be wrong.
    with pytest.raises(ValueError, match=re.escape(f"coupling key {key}")):
        Hamiltonian(0.0, (0.0,) * 3, {(0, 1): 1.0, key: 0.5}, 3, ())


def test_energy_length_mismatch():
    H = Hamiltonian(0.0, (1.0,), {}, 1, ())
    with pytest.raises(ValueError):
        reference_hamiltonian_energy(H, [1, 1])


def test_magnetization_examples():
    assert reference_magnetization([1, 1, 1, 1], 4) == 1.0
    assert reference_magnetization([1, 1, -1, -1], 4) == 0.0
    assert -1.0 <= reference_magnetization([-1, 1, -1], 3) <= 1.0


def test_magnetization_ignores_ancillas():
    base = [1, -1, 1, 1, 1]
    perturbed = [1, -1, 1, -1, -1]
    assert reference_magnetization(base, 3) == reference_magnetization(perturbed, 3)


def test_magnetization_validation():
    with pytest.raises(ValueError):
        reference_magnetization([1, 1], 0)
    with pytest.raises(ValueError):
        reference_magnetization([1, 1], 3)


# ---------------------------------------------------------------------------
# Coupling order
# ---------------------------------------------------------------------------


def inexact_hamiltonian(rng, n: int, coupled: int) -> Hamiltonian:
    """Spins ``coupled`` and up have no coupling; the keys go in shuffled order
    and every coefficient is a multiple of 0.1, inexact in float64."""
    pairs = [(i, j) for i in range(coupled) for j in range(i + 1, coupled) if rng.random() < 0.6]
    rng.shuffle(pairs)
    return Hamiltonian(
        offset=int(rng.integers(-50, 51)) / 10,
        fields=tuple(int(x) / 10 for x in rng.integers(-30, 31, size=n)),
        couplings={pair: float(rng.integers(1, 31) * rng.choice([-0.1, 0.1])) for pair in pairs},
        core_count=n,
        ancillas=(),
    )


def test_adjacency_table_and_edge_csv_follow_the_sorted_couplings(uf20_formulas):
    rng = np.random.default_rng(83)
    modes = (GADGET_CORRECTED, GADGET_PAPER_LITERAL)
    hamiltonians = [ising.compile(f, gadget_mode=mode) for f in uf20_formulas for mode in modes]
    sizes = rng.integers(4, 16, size=30).tolist()
    hamiltonians += [inexact_hamiltonian(rng, n, int(rng.integers(2, n - 1))) for n in sizes]
    hamiltonians.append(inexact_hamiltonian(rng, 5, 0))
    assert hamiltonians[-1].couplings == {}
    assert sum(list(H.couplings) != sorted(H.couplings) for H in hamiltonians[24:-1]) > 20
    for H in hamiltonians:
        adjacency = reference_adjacency(H)
        assert H.adjacency == adjacency
        _, rows, cols, values = H.coupling_table
        entries = [(i, j, coeff) for i, neighbors in enumerate(adjacency) for j, coeff in neighbors]
        assert list(zip(rows.tolist(), cols.tolist(), values.tolist())) == entries
        assert export_csv(H)[1] == reference_edge_csv(H)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_export_import_identity(uf20_formulas):
    H = ising.compile(uf20_formulas[0])
    nodes, edges = export_csv(H)
    assert reference_import_csv(nodes, edges) == H
    nodes2, edges2 = export_csv(reference_import_csv(nodes, edges))
    assert (nodes2, edges2) == (nodes, edges)


@pytest.mark.parametrize("gadget_mode", [GADGET_CORRECTED, GADGET_PAPER_LITERAL])
@pytest.mark.parametrize("k_factor", [20, 12.25, 8, 4, 1 / 1024])
def test_export_import_round_trip_across_gadgets_and_k_factors(uf20_formulas, gadget_mode, k_factor):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        compiled = [ising.compile(f, k_factor, gadget_mode) for f in uf20_formulas]
    for H in compiled:
        assert reference_import_csv(*export_csv(H)) == H


def test_import_accepts_an_edge_row_written_with_its_spins_swapped():
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, edges = export_csv(H)
    header, first, *rest = edges.splitlines()
    i, j, coeff = first.split(",")
    swapped = "\n".join([header, f"{j},{i},{coeff}", *rest]) + "\n"
    assert swapped != edges
    assert reference_import_csv(nodes, swapped) == H


def test_export_single_clause_row_counts():
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, edges = export_csv(H)
    node_rows = [l for l in nodes.splitlines() if l and not l.startswith("#")][1:]
    edge_rows = edges.splitlines()[1:]
    assert len(node_rows) == 4
    assert len(edge_rows) <= 6


def test_export_empty_hamiltonian():
    H = ising.compile(Formula(3, ()))
    nodes, edges = export_csv(H)
    assert len(edges.splitlines()) == 1  # header only
    assert reference_import_csv(nodes, edges) == H


def test_import_rejects_duplicate_edge():
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, edges = export_csv(H)
    lines = edges.splitlines()
    corrupted = "\n".join(lines + [lines[1]]) + "\n"
    with pytest.raises(ValueError):
        reference_import_csv(nodes, corrupted)


def test_import_rejects_self_loop():
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, _ = export_csv(H)
    bad_edges = "spin_i,spin_j,J\n2,2,0.5\n"
    with pytest.raises(ValueError):
        reference_import_csv(nodes, bad_edges)


def test_import_rejects_unknown_kind():
    H = ising.compile(Formula(2, ()))
    nodes, edges = export_csv(H)
    corrupted = nodes.replace("1,core,x1", "1,weird,x1")
    with pytest.raises(ValueError):
        reference_import_csv(corrupted, edges)


def test_import_rejects_missing_metadata():
    H = ising.compile(Formula(2, ()))
    nodes, edges = export_csv(H)
    stripped = "\n".join(l for l in nodes.splitlines() if not l.startswith("# offset"))
    with pytest.raises(ValueError):
        reference_import_csv(stripped + "\n", edges)


def test_import_rejects_unknown_gadget_mode():
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, edges = export_csv(H)
    corrupted = nodes.replace(f"# gadget_mode = {GADGET_CORRECTED}", "# gadget_mode = bogus")
    assert corrupted != nodes
    with pytest.raises(ValueError, match="unknown gadget mode"):
        reference_import_csv(corrupted, edges)
    literal = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"), gadget_mode=GADGET_PAPER_LITERAL)
    assert reference_import_csv(*export_csv(literal)) == literal


def test_import_rejects_out_of_order_nodes():
    H = ising.compile(Formula(3, ()))
    nodes, edges = export_csv(H)
    lines = nodes.splitlines()
    lines[-1], lines[-2] = lines[-2], lines[-1]
    with pytest.raises(ValueError):
        reference_import_csv("\n".join(lines) + "\n", edges)


def test_import_rejects_malformed_ancilla_label():
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, edges = export_csv(H)
    corrupted = nodes.replace("4,ancilla,x1*x2", "4,ancilla,junk")
    with pytest.raises(ValueError):
        reference_import_csv(corrupted, edges)


@pytest.mark.parametrize("label", ["1*2", "xx1*x2", "x1*x2*x3", "x1*x2 "])
def test_import_rejects_ancilla_label_not_of_the_form_xi_star_xj(label):
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, edges = export_csv(H)
    corrupted = nodes.replace("4,ancilla,x1*x2", f"4,ancilla,{label}")
    with pytest.raises(ValueError, match="malformed ancilla label"):
        reference_import_csv(corrupted, edges)


@pytest.mark.parametrize("gadget_mode", [GADGET_CORRECTED, GADGET_PAPER_LITERAL])
def test_import_rejects_ancilla_label_naming_a_spin_it_is_not_bound_to(gadget_mode):
    # The ancilla of clause 1 2 3 stands for x1*x2; x3 couples to it with
    # the cubic coefficient instead of the penalty.
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"), gadget_mode=gadget_mode)
    nodes, edges = export_csv(H)
    corrupted = nodes.replace("4,ancilla,x1*x2", "4,ancilla,x1*x3")
    assert corrupted != nodes
    with pytest.raises(ValueError, match="must couple to both parents with one coefficient"):
        reference_import_csv(corrupted, edges)


@pytest.mark.parametrize("label", ["x0*x2", "x1*x9", "x4*x4", "x2*x2", "x1*x-1"])
def test_import_rejects_ancilla_label_off_the_core(label):
    H = ising.compile(parse_dimacs("p cnf 3 1\n1 2 3 0"))
    nodes, edges = export_csv(H)
    corrupted = nodes.replace("4,ancilla,x1*x2", f"4,ancilla,{label}")
    assert corrupted != nodes
    with pytest.raises(ValueError, match="two distinct core spins"):
        reference_import_csv(corrupted, edges)


def test_import_rejects_edge_out_of_range():
    H = ising.compile(Formula(2, ()))
    nodes, _ = export_csv(H)
    with pytest.raises(ValueError):
        reference_import_csv(nodes, "spin_i,spin_j,J\n1,9,0.25\n")


def test_exhaustive_minima_spin_limit():
    H = ising.compile(Formula(10, ()))
    with pytest.raises(ValueError):
        reference_core_minima(H, max_spins=8)


def test_exhaustive_minima_rejects_oversized_integer_grid():
    H = Hamiltonian(
        offset=1 / 3**40,
        fields=(1.0, 1.0),
        couplings={},
        core_count=2,
        ancillas=(),
    )
    with pytest.raises(ValueError):
        reference_core_minima(H)
