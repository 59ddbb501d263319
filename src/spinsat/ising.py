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
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .cnf import Clause, Formula, Literal

__all__ = [
    "GADGET_CORRECTED",
    "GADGET_PAPER_LITERAL",
    "GadgetRecord",
    "Hamiltonian",
    "ClausePolynomial",
    "SpinState",
    "clause_polynomial",
    "compile",
    "hamiltonian_energy",
    "magnetization",
    "exhaustive_core_minima",
    "format_float",
    "export_csv",
    "import_csv",
]

GADGET_CORRECTED = "corrected"
GADGET_PAPER_LITERAL = "paper-literal"

# Spin vector over core + ancilla spins; entries are +1 or -1.
SpinState = np.ndarray

def format_float(x: float) -> str:
    """CSV text of a float: 17 significant digits, which round-trip float64."""
    return format(float(x), ".17g")


class GadgetRecord(NamedTuple):
    """Parents of an ancilla: ancilla k is spin ``core_count + k``."""

    parent_i: int
    parent_j: int


@dataclass(eq=True)
class ClausePolynomial:
    """Multilinear spin polynomial of a single clause.

    ``terms`` maps a sorted tuple of spin indices (degree 0..3) to its
    coefficient, a multiple of 1/8. Spins square to 1, so products of factors
    sharing a variable reduce by symmetric difference of index sets.
    """

    terms: dict[tuple[int, ...], float]

    def evaluate(self, spins: Sequence[int]) -> float:
        return _evaluate(self.terms, spins)


def clause_polynomial(c: Clause) -> ClausePolynomial:
    """Multilinear expansion of the clause-violation indicator.

    For literals with polarities t_1..t_k over distinct variables the
    product of (1 - t_i s_i)/2 factors expands to a degree-k polynomial; for
    k=3 the constant is 1/8, linear terms -t_i/8, quadratic +t_i t_j/8 and
    the cubic -t_1 t_2 t_3 / 8. Clauses longer than 3 literals or with a
    repeated variable are rejected.
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
    return ClausePolynomial(terms)


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
    object is immutable by convention after compile; the neighbor lists are
    cached lazily.

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
        """Per-spin (neighbor, J) pairs in ascending neighbor order."""
        neighbors: list[list[tuple[int, float]]] = [[] for _ in range(self.num_spins)]
        for (i, j), coeff in self.couplings.items():
            neighbors[i].append((j, coeff))
            neighbors[j].append((i, coeff))
        return tuple(tuple(sorted(entry)) for entry in neighbors)


def _check_spins(H: Hamiltonian, s: Sequence[int]) -> None:
    if len(s) != H.num_spins:
        raise ValueError(f"spin state length {len(s)} != {H.num_spins} spins")


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
    local = dict(clause_polynomial(clause).terms)
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
    next_ancilla = n

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
            gadgets.append(GadgetRecord(spins[0], spins[1]))
            spins.append(next_ancilla)
            next_ancilla += 1
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

    num_spins = next_ancilla
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


def hamiltonian_energy(H: Hamiltonian, s: Sequence[int]) -> float:
    """Raw energy offset + sum h_i s_i + sum_{i<j} J_ij s_i s_j.

    Exact for a compiled Hamiltonian (see the module docstring). Terms are
    summed in ascending index order so repeated evaluation is bit-identical
    regardless of coupling storage order.
    """
    _check_spins(H, s)
    total = H.offset
    for i, h in enumerate(H.fields):
        if h:
            total += h * s[i]
    for (i, j), coeff in sorted(H.couplings.items()):
        total += coeff * s[i] * s[j]
    return total


def magnetization(s: Sequence[int], core_count: int) -> float:
    """Mean of the core spins only; ancilla spins never contribute."""
    if core_count < 1:
        raise ValueError("need at least one core spin")
    if core_count > len(s):
        raise ValueError(f"core_count {core_count} exceeds spin state length {len(s)}")
    return sum(int(s[i]) for i in range(core_count)) / core_count


def exhaustive_core_minima(H: Hamiltonian, max_spins: int = 22) -> list[float]:
    """Exact min-over-ancillas energy for every core configuration.

    Entry k is the minimum of the raw Hamiltonian energy over all ancilla
    settings when core spin v is +1 iff bit v of k is set. All arithmetic is
    integer: every coefficient is rescaled by the common denominator of the
    floats' exact ratios, so no term or partial sum is rounded.
    """
    N = H.num_spins
    if N > max_spins:
        raise ValueError(f"exhaustive evaluation limited to {max_spins} spins")
    ratios = [float(x).as_integer_ratio() for x in (H.offset, *H.fields, *H.couplings.values())]
    scale = math.lcm(*(d for _, d in ratios))
    units = [n * (scale // d) for n, d in ratios]
    if sum(map(abs, units)) >= 1 << 62:
        raise ValueError("coefficients do not fit the 64-bit integer evaluation grid")
    offset, fields, couplings = units[0], units[1 : N + 1], units[N + 1 :]

    size = 1 << N
    indices = np.arange(size, dtype=np.int64)
    spins = [np.where((indices >> v) & 1 == 1, 1, -1).astype(np.int64) for v in range(N)]
    energies = np.full(size, offset, dtype=np.int64)
    for v, h in enumerate(fields):
        if h:
            energies += h * spins[v]
    for (i, j), coeff in zip(H.couplings, couplings):
        energies += coeff * (spins[i] * spins[j])

    n_core = H.core_count
    per_core = energies.reshape(1 << (N - n_core), 1 << n_core).min(axis=0)
    return [int(value) / scale for value in per_core]


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_NODE_HEADER = "spin_id,kind,label,h"
_EDGE_HEADER = "spin_i,spin_j,J"
_META_KEYS = ("offset", "core_count", "energy_floor", "gadget_mode", "k_factor", "source")


def _ancilla_label(record: GadgetRecord) -> str:
    return f"x{record.parent_i + 1}*x{record.parent_j + 1}"


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
        _NODE_HEADER,
    ]
    for idx in range(H.num_spins):
        if idx < H.core_count:
            kind, label = "core", f"x{idx + 1}"
        else:
            kind, label = "ancilla", _ancilla_label(H.ancillas[idx - H.core_count])
        node_lines.append(f"{idx + 1},{kind},{label},{format_float(H.fields[idx])}")
    edge_lines = [_EDGE_HEADER]
    for (i, j), coeff in sorted(H.couplings.items()):
        edge_lines.append(f"{i + 1},{j + 1},{format_float(coeff)}")
    return "\n".join(node_lines) + "\n", "\n".join(edge_lines) + "\n"


def _parse_metadata(lines: list[str]) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in lines:
        body = line[1:].strip()
        if "=" not in body:
            raise ValueError(f"malformed metadata comment {line!r}")
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"missing metadata: {', '.join(missing)}")
    return meta


def import_csv(nodes_text: str, edges_text: str) -> Hamiltonian:
    """Rebuild a Hamiltonian from node/edge tables produced by export_csv."""
    lines = [line for line in nodes_text.splitlines() if line.strip()]
    meta_lines = [line for line in lines if line.startswith("#")]
    data_lines = [line for line in lines if not line.startswith("#")]
    meta = _parse_metadata(meta_lines)
    if meta["gadget_mode"] not in (GADGET_CORRECTED, GADGET_PAPER_LITERAL):
        raise ValueError(f"unknown gadget mode {meta['gadget_mode']!r}")
    if not data_lines or data_lines[0] != _NODE_HEADER:
        raise ValueError("node table missing header row")

    core_count = int(meta["core_count"])
    fields: list[float] = []
    ancillas: list[GadgetRecord] = []
    for row_no, line in enumerate(data_lines[1:]):
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"malformed node row {line!r}")
        spin_id, kind, label, h_text = parts
        if int(spin_id) != row_no + 1:
            raise ValueError(f"node rows out of order at {line!r}")
        index = row_no
        if kind == "core":
            if index >= core_count:
                raise ValueError(f"core spin {spin_id} beyond core_count {core_count}")
        elif kind == "ancilla":
            if index < core_count:
                raise ValueError(f"ancilla spin {spin_id} inside the core block")
            match = re.fullmatch(r"x(-?\d+)\*x(-?\d+)", label)
            if match is None:
                raise ValueError(f"malformed ancilla label {label!r}")
            parent_i, parent_j = (int(group) - 1 for group in match.groups())
            if parent_i == parent_j or not (0 <= parent_i < core_count and 0 <= parent_j < core_count):
                raise ValueError(f"ancilla label {label!r} must name two distinct core spins")
            ancillas.append(GadgetRecord(parent_i, parent_j))
        else:
            raise ValueError(f"unknown node kind {kind!r}")
        fields.append(float(h_text))
    if len(fields) < core_count:
        raise ValueError("fewer node rows than core_count")

    couplings: dict[tuple[int, int], float] = {}
    edge_lines = [line for line in edges_text.splitlines() if line.strip()]
    if not edge_lines or edge_lines[0] != _EDGE_HEADER:
        raise ValueError("edge table missing header row")
    for line in edge_lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed edge row {line!r}")
        i = int(parts[0]) - 1
        j = int(parts[1]) - 1
        if i == j:
            raise ValueError(f"self-loop on spin {i + 1}")
        if not (0 <= i < len(fields) and 0 <= j < len(fields)):
            raise ValueError(f"edge ({i + 1},{j + 1}) out of range")
        if i > j:
            i, j = j, i
        if (i, j) in couplings:
            raise ValueError(f"duplicate edge ({i + 1},{j + 1})")
        couplings[(i, j)] = float(parts[2])
    # Both gadgets couple an ancilla to its two parents with one coefficient.
    for a, record in enumerate(ancillas, core_count):
        weights = [couplings.get((parent, a)) for parent in record]
        if None in weights or weights[0] != weights[1]:
            raise ValueError(
                f"ancilla spin {a + 1} ({_ancilla_label(record)}) must couple to both "
                "parents with one coefficient"
            )

    return Hamiltonian(
        offset=float(Fraction(meta["offset"])),
        fields=tuple(fields),
        couplings=couplings,
        core_count=core_count,
        ancillas=tuple(ancillas),
        source=meta["source"],
        energy_floor=float(Fraction(meta["energy_floor"])),
        gadget_mode=meta["gadget_mode"],
        k_factor=float(Fraction(meta["k_factor"])),
    )
