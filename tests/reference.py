"""Test-only oracles: plain per-clause and per-spin evaluations the library never runs.

``anneal`` keeps clause slacks, flip costs and energies incrementally,
``cnf.mean_slack`` sums literal counts over a model table and ``satcore``
works on bitmasks; these walk the formula, the polynomial, the spin list or
every assignment directly, so tests can check the fast paths against them.
``model_tuples`` reads a ``satcore.ModelSet``'s bool table as tuples.
``reference_clause_masks`` gives the clause-major masks that
``reference_propagate`` propagates over, and ``reference_enumerate`` is the
unpruned capped enumeration of the clause-major DPLL that preceded
``satcore``'s variable-major rows.
``reference_first_energy`` sums a run's first energy in the per-spin order
``anneal`` keeps, which inexact coefficients can tell apart from others.
``reference_core_minima`` and ``reference_boltzmann_unsat`` give the exact
ground states and equilibrium of a compiled Hamiltonian.
``reference_binned_curves`` bins the concatenation of every trajectory at
once, with ``np.bincount``, as ``analysis.binned_curves`` did before it
became a running fold.
``reference_import_csv`` reads ``ising.export_csv``'s tables back with every
check a reader of outside input needs, so a round trip proves the export
lossless, ancilla labels and parent couplings included.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

import numpy as np

from spinsat.analysis import BinnedCurves
from spinsat.anneal import Trajectory
from spinsat.cnf import Assignment, Clause, Formula, Literal
from spinsat.ising import GADGET_CORRECTED, GADGET_PAPER_LITERAL, GadgetRecord, Hamiltonian
from spinsat.satcore import ModelSet


def reference_is_satisfied_by(lit: Literal, a: Sequence[bool]) -> bool:
    """Whether assignment ``a`` makes literal ``lit`` true."""
    return a[lit.var] == (lit.sign > 0)


def reference_logical_energy(f: Formula, a: Sequence[bool]) -> int:
    """Number of clauses of ``f`` unsatisfied by assignment ``a``."""
    if len(a) != f.num_vars:
        raise ValueError(f"assignment length {len(a)} != num_vars {f.num_vars}")
    return sum(
        1 for clause in f.clauses if not any(reference_is_satisfied_by(lit, a) for lit in clause.literals)
    )


def reference_clause_slack(c: Clause, a: Sequence[bool]) -> int:
    """Number of satisfied (distinct) literals of clause ``c`` under ``a``."""
    for lit in c.literals:
        if lit.var >= len(a):
            raise ValueError(f"literal x{lit.var + 1} out of range for assignment")
    return sum(1 for lit in c.literals if reference_is_satisfied_by(lit, a))


def reference_mean_slack(f: Formula, a: Sequence[bool]) -> float:
    """Average clause slack of assignment ``a`` over all clauses of ``f``, by
    walking every clause. Meaningful when ``a`` satisfies ``f`` (slack 0 means
    an unsatisfied clause), but defined for any assignment."""
    if len(a) != f.num_vars:
        raise ValueError(f"assignment length {len(a)} != num_vars {f.num_vars}")
    if f.num_clauses == 0:
        raise ValueError("mean slack undefined for a formula with no clauses")
    return sum(reference_clause_slack(c, a) for c in f.clauses) / f.num_clauses


def model_tuples(ms: ModelSet) -> tuple[Assignment, ...]:
    """The rows of ``ms.models``, a bool table, as one tuple of Python bools
    per model: the form the tests compare, hash and put into sets."""
    return tuple(map(tuple, ms.models.tolist()))


def reference_brute_force_models(f: Formula) -> tuple[Assignment, ...]:
    """``satcore.brute_force_models`` one assignment at a time, in ascending
    index order (bit v of the index is variable v), one tuple of bools per model."""
    models = []
    for index in range(1 << f.num_vars):
        a = tuple(bool(index >> v & 1) for v in range(f.num_vars))
        if reference_logical_energy(f, a) == 0:
            models.append(a)
    return tuple(models)


def reference_clause_masks(f: Formula) -> list[tuple[int, int]]:
    """One ``(pos, neg)`` pair of variable masks per clause, in clause order,
    bit v for variable v: the clause is satisfied iff a variable in pos is
    true or one in neg is false. The clause-major form of the DPLL that
    preceded ``satcore``'s variable-major rows."""
    masks = []
    for clause in f.clauses:
        pos = neg = 0
        for lit in clause.literals:
            if lit.sign > 0:
                pos |= 1 << lit.var
            else:
                neg |= 1 << lit.var
        masks.append((pos, neg))
    return masks


def reference_propagate(clauses: list[tuple[int, int]], true: int, false: int) -> tuple[int, int, bool] | None:
    """The clause-major propagation that preceded the variable-major rows.

    Each pass visits the clauses in order, so a unit set early in a pass is
    seen by later clauses; pure literals are taken only after a pass that
    set no unit.
    """
    while True:
        changed = False
        all_satisfied = True
        pos_occurs = neg_occurs = 0
        for pos, neg in clauses:
            if pos & true or neg & false:
                continue
            all_satisfied = False
            free = ~(true | false)
            pos_free, neg_free = pos & free, neg & free
            width = pos_free.bit_count() + neg_free.bit_count()
            if width == 0:
                return None
            if width == 1:
                true |= pos_free
                false |= neg_free
                changed = True
            else:
                pos_occurs |= pos_free
                neg_occurs |= neg_free
        if all_satisfied:
            return true, false, True
        if changed:
            continue
        pure = pos_occurs ^ neg_occurs
        if not pure:
            return true, false, False
        true |= pure & pos_occurs
        false |= pure & neg_occurs


def reference_enumerate(f: Formula, cap: int) -> ModelSet:
    """Unpruned capped enumeration over a growing clause list, each model
    found by the clause-major DPLL that preceded the variable-major rows."""
    clauses = reference_clause_masks(f)

    def first_model() -> int | None:
        stack = [(0, 0)]
        while stack:
            state = reference_propagate(clauses, *stack.pop())
            if state is None:
                continue
            true, false, satisfied = state
            if satisfied:
                return true
            assigned = true | false
            branch = ~assigned & (assigned + 1)
            stack.append((true, false | branch))
            stack.append((true | branch, false))
        return None

    every_var = (1 << f.num_vars) - 1
    models = []
    truncated = False
    while len(models) < cap:
        true = first_model()
        if true is None:
            break
        models.append(tuple(bool(true >> v & 1) for v in range(f.num_vars)))
        clauses.append((every_var ^ true, true))
    else:
        truncated = first_model() is not None
    return ModelSet(np.array(models, dtype=bool).reshape(len(models), f.num_vars), truncated)


def reference_spins_to_assignment(s: Sequence[int], core_count: int) -> Assignment:
    """Read the first ``core_count`` spins as truth values (+1 -> True)."""
    if len(s) < core_count:
        raise ValueError(f"spin state of length {len(s)} has no {core_count} core spins")
    return tuple(int(s[i]) > 0 for i in range(core_count))


def reference_assignment_to_spins(a: Sequence[bool]) -> np.ndarray:
    """Inverse of ``reference_spins_to_assignment`` over the core block."""
    return np.array([1 if value else -1 for value in a], dtype=np.int8)


def reference_polynomial_value(terms: dict[tuple[int, ...], float], spins: Sequence[int]) -> float:
    """Value of the spin polynomial ``terms`` (``ising.clause_polynomial``) at ``spins``."""
    return sum(coeff * math.prod(spins[idx] for idx in key) for key, coeff in terms.items())


def reference_hamiltonian_energy(H: Hamiltonian, s: Sequence[int]) -> float:
    """Raw energy offset + sum h_i s_i + sum_{i<j} J_ij s_i s_j.

    Exact for a compiled Hamiltonian (see ``spinsat.ising``). Terms are
    summed in ascending index order so repeated evaluation is bit-identical
    regardless of coupling storage order.
    """
    if len(s) != H.num_spins:
        raise ValueError(f"spin state length {len(s)} != {H.num_spins} spins")
    total = H.offset
    for i, h in enumerate(H.fields):
        if h:
            total += h * s[i]
    for (i, j), coeff in sorted(H.couplings.items()):
        total += coeff * s[i] * s[j]
    return total


def reference_first_energy(H: Hamiltonian, spins: Sequence[int]) -> float:
    """Raw energy of ``spins`` added up in the order ``anneal`` adds its first energy.

    Each field h_i + sum_j J_ij s_j starts at h_i and adds the neighbours in
    ``H.adjacency`` order; the energy is offset + sum_i s_i (h_i + field_i) / 2,
    by the builtin ``sum`` in spin order. For dyadic coefficients this equals
    ``reference_hamiltonian_energy``; for inexact ones it pins every rounding.
    """
    field = list(H.fields)
    for i, neighbors in enumerate(H.adjacency):
        for j, jf in neighbors:
            field[i] += jf * spins[j]
    return H.offset + sum(s * (h + hf) for s, h, hf in zip(spins, H.fields, field)) / 2


def reference_magnetization(s: Sequence[int], core_count: int) -> float:
    """Mean of the core spins only; ancilla spins never contribute."""
    if core_count < 1:
        raise ValueError("need at least one core spin")
    if core_count > len(s):
        raise ValueError(f"core_count {core_count} exceeds spin state length {len(s)}")
    return sum(int(s[i]) for i in range(core_count)) / core_count


def reference_core_minima(H: Hamiltonian, max_spins: int = 22) -> list[float]:
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


_NODE_HEADER = "spin_id,kind,label,h"
_EDGE_HEADER = "spin_i,spin_j,J"
_META_KEYS = ("offset", "core_count", "energy_floor", "gadget_mode", "k_factor", "source")


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


def reference_import_csv(nodes_text: str, edges_text: str) -> Hamiltonian:
    """Rebuild a Hamiltonian from node/edge tables produced by ``ising.export_csv``."""
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
                f"ancilla spin {a + 1} (x{record.parent_i + 1}*x{record.parent_j + 1}) must "
                "couple to both parents with one coefficient"
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


def reference_boltzmann_unsat(H: Hamiltonian, f: Formula, T: float) -> float:
    """Exact Boltzmann mean of the unsatisfied-clause count of ``H`` at temperature ``T``.

    Every ancilla couples only to core spins (asserted), so summing it out at
    fixed core spins s gives 2 cosh(b_a / T), b_a = h_a + sum_j J_aj s_j. A
    core state then weighs exp(-E_core(s) / T) * prod_a 2 cosh(b_a / T), and
    the mean is a sum over the 2**n core states. Each half of the variables'
    share of E_core, of every b_a and of every clause's literal count is
    tabulated once; the states are summed in chunks of one high half each,
    with a running log-sum-exp, so memory stays small.
    """
    n = H.core_count
    assert n == f.num_vars
    fields = np.array(H.fields)
    core_j = np.zeros((n, n))
    ancilla_j = np.zeros((n, H.num_spins - n))
    for (i, j), coeff in H.couplings.items():
        i, j = sorted((i, j))
        assert i < n, f"ancillas {i} and {j} are coupled"
        if j < n:
            core_j[i, j] += coeff
        else:
            ancilla_j[i, j - n] += coeff
    # Clause c has (len(c) + sum_v s_v signs[v, c]) / 2 true literals.
    signs = np.zeros((n, f.num_clauses))
    for c, clause in enumerate(f.clauses):
        for lit in clause.literals:
            signs[lit.var, c] += lit.sign
    lengths = np.array([len(clause) for clause in f.clauses], dtype=np.float64)

    def spins(count: int) -> np.ndarray:
        codes = np.arange(1 << count)[:, None]
        return np.where(codes & (1 << np.arange(count)), 1.0, -1.0)

    lo, hi = slice(0, n // 2), slice(n // 2, n)
    s_lo, s_hi = spins(n // 2), spins(n - n // 2)
    e_lo = s_lo @ fields[lo] + ((s_lo @ core_j[lo, lo]) * s_lo).sum(axis=1)
    e_hi = s_hi @ fields[hi] + ((s_hi @ core_j[hi, hi]) * s_hi).sum(axis=1)
    cross = core_j[lo, hi] @ s_hi.T
    b_lo, b_hi = fields[n:] + s_lo @ ancilla_j[lo], s_hi @ ancilla_j[hi]
    t_lo, t_hi = s_lo @ signs[lo] + lengths, s_hi @ signs[hi]
    top, z, weighted = -math.inf, 0.0, 0.0
    for k in range(len(s_hi)):
        e_core = e_lo + e_hi[k] + s_lo @ cross[:, k]
        b = np.abs(b_lo + b_hi[k]) / T
        # log(2 cosh x) = |x| + log(2) + log1p(exp(-2 |x|)), safe for large |x|.
        log_w = -e_core / T + (b + math.log(2) + np.log1p(np.exp(-2 * b))).sum(axis=1)
        unsat = np.count_nonzero(t_lo + t_hi[k] == 0, axis=1)
        if log_w.max() > top:
            scale = math.exp(top - log_w.max())
            top, z, weighted = log_w.max(), z * scale, weighted * scale
        w = np.exp(log_w - top)
        z += w.sum()
        weighted += w @ unsat
    return weighted / z


def reference_binned_curves(trajectories: Sequence[Trajectory], bins: int = 60) -> BinnedCurves:
    """Geometric temperature bins of energy and |M| over the concatenation of
    every trajectory, summed by ``np.bincount``; one temperature gives one
    bin holding numpy's pairwise means."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if bins < 1:
        raise ValueError("need at least one bin")
    temps = trajectories[0].temperatures
    if not all(t.temperatures is temps or np.array_equal(t.temperatures, temps) for t in trajectories):
        raise ValueError("trajectories do not share one temperature column")
    energies = np.concatenate([t.energy_logic.astype(np.float64) for t in trajectories])
    abs_m = np.concatenate([np.abs(t.magnetization) for t in trajectories])
    t_min = float(temps.min())
    t_max = float(temps.max())
    if t_min == t_max:
        return BinnedCurves(
            bin_t=np.array([t_min]),
            mean_energy=np.array([energies.mean()]),
            mean_abs_magnetization=np.array([abs_m.mean()]),
            counts=np.array([len(energies)]),
        )
    edges = np.geomspace(t_min, t_max, bins + 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    which = np.clip(np.searchsorted(edges, temps, side="right") - 1, 0, bins - 1)
    which = np.tile(which, len(trajectories))
    counts = np.bincount(which, minlength=bins)
    sum_e = np.bincount(which, weights=energies, minlength=bins)
    sum_m = np.bincount(which, weights=abs_m, minlength=bins)
    mean_e = np.where(counts > 0, sum_e / np.maximum(counts, 1), np.nan)
    mean_m = np.where(counts > 0, sum_m / np.maximum(counts, 1), np.nan)
    return BinnedCurves(centers, mean_e, mean_m, counts)
