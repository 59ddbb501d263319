"""Compile CNF formulas into pairwise Ising Hamiltonians.

The mapping sends variable v to spin s_v in {-1, +1} with true <-> +1. Each
clause contributes the product of its literal-false factors (1 - t*s)/2,
which is 1 exactly on assignments violating the clause and 0 otherwise, so
the summed energy of a core configuration equals its unsatisfied-clause
count. Three-literal clauses produce a cubic monomial, reduced to pairwise
form with one ancilla spin per clause.

Gadget modes
------------
``corrected`` (default): the cubic spin monomial is rewritten over 0/1
variables, the product x_i*x_p is replaced by a fresh Boolean ancilla w with
the penalty K*(x_i x_p - 2 x_i w - 2 x_p w + 3 w), which is 0 iff w equals
the product and at least K otherwise, and the result is converted back to
spins. Minimizing over each ancilla then reproduces the clause energy
exactly for every core configuration provided K >= the cubic coefficient
magnitude (k_factor >= 8, well below the default 20).

``paper-literal``: applies the penalty K*(3 - a*s_i - a*s_p - s_i*s_p)
verbatim. This form does NOT pin the ancilla to the spin product (it charges
4K on configurations with s_i != s_p regardless of a, and prefers a = -1
when s_i = s_p = -1), so ground states need not coincide with satisfying
assignments. It is kept only so the defect can be demonstrated and is never
the default.

Coefficients are float64 and exact. ``compile`` accepts a k_factor that is a
multiple of 1/1024 in (0, 2**20), so every coefficient is a multiple of
2**-15 below 2**34 units, a dyadic rational that float64 holds without
rounding. Sums of coefficients, the energy floor and every energy and local
field the annealer accumulates are then exact too, provided the formula has
fewer than about 2**19 clauses.

Clause templates
----------------
A clause's contribution depends only on its literals' signs in literal
order, k_factor and the gadget mode; its variables only name the spins. So
``compile`` expands, gadgetizes and minimizes each such pattern once, on a
canonical clause whose literals are roles 0, 1, 2 and whose ancilla is role
3, and then renames the roles to the clause's variables and its ancilla.
Roles follow literal order because the ancilla binds to the first two
literals. Renaming keeps every term's coefficient, the order the terms are
added in, and the clause floor (the same minimum over a relabelled set of
configurations), and every coefficient is dyadic, so the Hamiltonian equals
the one a per-clause expansion builds bit for bit.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .cnf import Clause, Formula, Literal

__all__ = [
    "GADGET_CORRECTED",
    "GADGET_PAPER_LITERAL",
    "GadgetRecord",
    "Hamiltonian",
    "SpinState",
    "clause_polynomial",
    "compile",
    "format_float",
    "format_floats",
    "export_csv",
]

GADGET_CORRECTED = "corrected"
GADGET_PAPER_LITERAL = "paper-literal"

# Spin vector over core + ancilla spins; entries are +1 or -1.
SpinState = np.ndarray

def format_float(x: float) -> str:
    """CSV text of a float: 17 significant digits, which round-trip float64."""
    return format(float(x), ".17g")


def format_floats(values: np.ndarray | list[float] | tuple[float, ...]) -> list[str]:
    """``format_float`` of each float64 value, called once per distinct bit
    pattern, so -0.0 and 0.0 stay apart."""
    patterns = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(patterns, return_inverse=True)
    texts = np.array(list(map(format_float, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


class GadgetRecord(NamedTuple):
    """Parents of an ancilla: ancilla k is spin ``core_count + k``."""

    parent_i: int
    parent_j: int


def clause_polynomial(c: Clause) -> dict[tuple[int, ...], float]:
    """Multilinear expansion of the clause-violation indicator.

    For literals with polarities t_1..t_k over distinct variables the
    product of (1 - t_i s_i)/2 factors expands to a degree-k polynomial; for
    k=3 the constant is 1/8, linear terms -t_i/8, quadratic +t_i t_j/8 and
    the cubic -t_1 t_2 t_3 / 8. Clauses longer than 3 literals or with a
    repeated variable are rejected.

    Returns a fresh dict from each term's sorted tuple of spin indices
    (degree 0..3) to its nonzero coefficient, a multiple of 1/8. Spins square
    to 1, so products of factors sharing a variable reduce by symmetric
    difference of index sets.
    """
    k = len(c.literals)
    if k > 3:
        raise ValueError(f"clause length {k} > 3 not supported")
    if len(set(c.variables)) != k:
        raise ValueError("clause repeats a variable; expansion would not be multilinear")
    terms: dict[tuple[int, ...], float] = {(): 1.0}
    for lit in c.literals:
        factor = {(): 0.5, (lit.var,): -0.5 * lit.sign}
        merged: dict[tuple[int, ...], float] = {}
        for key_a, coeff_a in terms.items():
            for key_b, coeff_b in factor.items():
                key = tuple(sorted(set(key_a) ^ set(key_b)))
                merged[key] = merged.get(key, 0.0) + coeff_a * coeff_b
        terms = {key: coeff for key, coeff in merged.items() if coeff != 0}
    return terms


def _corrected_substitution(
    c: float, i: int, p: int, q: int, a: int, penalty: float
) -> dict[tuple[int, ...], float]:
    """Pairwise terms replacing c * s_i s_p s_q with ancilla spin ``a``.

    Derived by mapping to 0/1 variables, substituting the product ancilla
    with its exact penalty, and mapping back to spins.
    """
    quarter = penalty / 4
    half = penalty / 2
    terms = {
        (): c + 3 * quarter,
        (a,): 2 * c + half,
        (i,): -c - quarter,
        (p,): -c - quarter,
        (q,): c,
        tuple(sorted((a, q))): 2 * c,
        tuple(sorted((i, p))): -c + quarter,
        tuple(sorted((i, q))): -c,
        tuple(sorted((p, q))): -c,
        tuple(sorted((a, i))): -half,
        tuple(sorted((a, p))): -half,
    }
    return terms


def _paper_literal_substitution(
    c: float, i: int, p: int, q: int, a: int, penalty: float
) -> dict[tuple[int, ...], float]:
    """Literal penalty form K*(3 - a s_i - a s_p - s_i s_p); not product-exact."""
    return {
        (): 3 * penalty,
        tuple(sorted((a, q))): c,
        tuple(sorted((a, i))): -penalty,
        tuple(sorted((a, p))): -penalty,
        tuple(sorted((i, p))): -penalty,
    }


@dataclass(eq=True)
class Hamiltonian:
    """Pairwise spin energy: offset + sum h_i s_i + sum_{i<j} J_ij s_i s_j.

    Core spins occupy indices [0, core_count); ancilla spins follow. The
    object is immutable by convention after compile. ``coupling_table``, the
    one sorted view of the couplings, is cached lazily, and the neighbor lists
    and the edge CSV are read off it.

    ``energy_floor`` is the analytic minimum constant (sum of per-clause
    gadgetized minima), so energy - energy_floor is 0 exactly on satisfying
    configurations under the corrected gadget. With the paper-literal gadget
    the floor is only a lower bound and the zero test is not reliable.
    """

    offset: float
    fields: tuple[float, ...]
    couplings: dict[tuple[int, int], float]
    core_count: int
    ancillas: tuple[GadgetRecord, ...]
    source: str = ""
    energy_floor: float = 0.0
    gadget_mode: str = GADGET_CORRECTED
    k_factor: float = 20.0

    @property
    def num_spins(self) -> int:
        return len(self.fields)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per-spin (neighbor, J) pairs in ascending neighbor order: the rows
        of ``coupling_table``."""
        _, rows, cols, values = self.coupling_table
        pairs = list(zip(cols.tolist(), values.tolist()))
        ends = np.cumsum(np.bincount(rows, minlength=self.num_spins)).tolist()
        return tuple(tuple(pairs[start:end]) for start, end in zip([0, *ends], ends))

    @cached_property
    def coupling_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(fields, rows, cols, values)``: the fields as an array, then each
        coupling twice, as (i, j, J_ij) and (j, i, J_ij), sorted by (row, col).
        Keys have i < j, as ``compile`` builds them, so the entries with
        row < col are the couplings in ``sorted(couplings)`` order."""
        m = len(self.couplings)
        first, second = np.array([*zip(*self.couplings)], dtype=np.intp).reshape(2, m)
        coeffs = np.fromiter(self.couplings.values(), np.float64, m)
        rows, cols = np.concatenate((first, second)), np.concatenate((second, first))
        order = np.lexsort((cols, rows))
        return np.array(self.fields), rows[order], cols[order], np.concatenate((coeffs, coeffs))[order]


@functools.lru_cache(maxsize=256)
def _clause_template(
    signs: tuple[int, ...], k: float, gadget_mode: str
) -> tuple[tuple[tuple[tuple[int, ...], float], ...], float, bool]:
    """Gadgetized terms of the clause with literal signs ``signs``, over roles.

    Literal r of the clause is role r and its ancilla, if any, role 3.
    Returns the nonzero ``(roles, coefficient)`` terms in insertion order,
    the clause floor, and whether the clause has an ancilla (a cubic term).
    """
    clause = Clause(tuple(Literal(role, sign) for role, sign in enumerate(signs)))
    local = clause_polynomial(clause)
    c = local.pop((0, 1, 2), None)
    if c is not None:
        substitute = (
            _corrected_substitution
            if gadget_mode == GADGET_CORRECTED
            else _paper_literal_substitution
        )
        for key, coeff in substitute(c, 0, 1, 2, 3, k * abs(c)).items():
            local[key] = local.get(key, 0.0) + coeff
    terms = tuple((key, coeff) for key, coeff in local.items() if coeff != 0)
    return terms, _local_minimum(local), c is not None


def compile(
    f: Formula,
    k_factor: float = 20,
    gadget_mode: str = GADGET_CORRECTED,
) -> Hamiltonian:
    """Compile a formula (clause lengths <= 3) into a pairwise Hamiltonian.

    One ancilla spin is allocated per clause with a cubic term, bound to the
    variables of the clause's first two literals; the penalty weight is
    k_factor times the cubic coefficient magnitude (k_factor/8 per
    three-literal clause). Tautological clauses expand to the zero
    polynomial and contribute nothing.

    Each clause's terms come from the template of its sign pattern (see the
    module docstring), renamed from roles to its variables and ancilla, with
    each pair key ordered (min, max). Terms are added in the order a
    per-clause expansion adds them, so the coupling order is the same too.

    ``k_factor`` must be a multiple of 1/1024 in (0, 2**20); any other value
    raises ValueError, because its coefficients would not all be exact in
    float64. Energies are exact for formulas with fewer than about 2**19
    clauses.
    """
    if gadget_mode not in (GADGET_CORRECTED, GADGET_PAPER_LITERAL):
        raise ValueError(f"unknown gadget mode {gadget_mode!r}")
    k = float(k_factor)
    if not 0 < k < 2**20 or (Fraction(k_factor) * 1024).denominator != 1:
        raise ValueError(
            f"k_factor must be a multiple of 1/1024 in (0, 2**20), got {k_factor!r}"
        )
    if gadget_mode == GADGET_CORRECTED and k < 8:
        warnings.warn(
            "k_factor below 8 cannot pin ancillas to the spin product; "
            "ground states may no longer match satisfying assignments",
            stacklevel=2,
        )

    n = f.num_vars
    offset = 0.0
    fields: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}
    gadgets: list[GadgetRecord] = []
    floor = 0.0

    for clause in f.clauses:
        literals = clause.literals
        if len(literals) > 3:
            raise ValueError(f"clause length {len(literals)} > 3 not supported")
        if clause.is_tautological:
            continue
        terms, clause_floor, has_ancilla = _clause_template(
            tuple(lit.sign for lit in literals), k, gadget_mode
        )
        spins = [lit.var for lit in literals]
        if has_ancilla:
            spins.append(n + len(gadgets))
            gadgets.append(GadgetRecord(spins[0], spins[1]))
        floor += clause_floor
        for roles, coeff in terms:
            if len(roles) == 0:
                offset += coeff
            elif len(roles) == 1:
                i = spins[roles[0]]
                fields[i] = fields.get(i, 0.0) + coeff
            else:
                i, j = spins[roles[0]], spins[roles[1]]
                key = (i, j) if i < j else (j, i)
                couplings[key] = couplings.get(key, 0.0) + coeff

    num_spins = n + len(gadgets)
    field_vec = tuple(fields.get(i, 0.0) for i in range(num_spins))
    couplings = {key: coeff for key, coeff in couplings.items() if coeff != 0}
    return Hamiltonian(
        offset=offset,
        fields=field_vec,
        couplings=couplings,
        core_count=n,
        ancillas=tuple(gadgets),
        source=f.source_name,
        energy_floor=floor,
        gadget_mode=gadget_mode,
        k_factor=k,
    )


def _evaluate(terms: dict[tuple[int, ...], float], spins) -> float:
    total = 0.0
    for key, coeff in terms.items():
        prod = 1
        for idx in key:
            prod *= spins[idx]
        total += coeff * prod
    return total


def _local_minimum(terms: dict[tuple[int, ...], float]) -> float:
    """Minimum of a small spin polynomial over its own variables."""
    variables = sorted({idx for key in terms for idx in key})
    return min(
        _evaluate(terms, dict(zip(variables, values)))
        for values in product((-1, 1), repeat=len(variables))
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def export_csv(H: Hamiltonian) -> tuple[str, str]:
    """Serialize to (node table, edge table) CSV text.

    Node rows are ordered by spin id, edge rows by (i, j); ids are 1-based.
    The node table carries offset, core count, floor, gadget mode, k_factor
    and source as '#' metadata comments; offset-like values are written as
    exact fraction strings, coefficient cells as floats with 17 significant
    digits, which round-trip float64.
    """
    node_lines = [
        f"# offset = {Fraction(H.offset)}",
        f"# core_count = {H.core_count}",
        f"# energy_floor = {Fraction(H.energy_floor)}",
        f"# gadget_mode = {H.gadget_mode}",
        f"# k_factor = {Fraction(H.k_factor)}",
        f"# source = {H.source}",
        "spin_id,kind,label,h",
    ]
    for idx, h in enumerate(format_floats(H.fields)):
        if idx < H.core_count:
            kind, label = "core", f"x{idx + 1}"
        else:
            parent_i, parent_j = H.ancillas[idx - H.core_count]
            kind, label = "ancilla", f"x{parent_i + 1}*x{parent_j + 1}"
        node_lines.append(f"{idx + 1},{kind},{label},{h}")
    _, rows, cols, values = H.coupling_table
    upper = rows < cols
    edges = zip(rows[upper].tolist(), cols[upper].tolist(), format_floats(values[upper]))
    edge_lines = ["spin_i,spin_j,J", *(f"{i + 1},{j + 1},{coeff}" for i, j, coeff in edges)]
    return "\n".join(node_lines) + "\n", "\n".join(edge_lines) + "\n"
