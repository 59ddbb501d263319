"""Test-only oracles: plain per-clause and per-spin evaluations the library never runs.

``anneal`` keeps clause slacks incrementally and ``satcore`` works on
bitmasks; these walk the formula or the spin list directly, so tests can
check the fast paths against them. ``reference_boltzmann_unsat`` gives the
exact equilibrium the annealing kernel should sample.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from spinsat.cnf import Assignment, Clause, Formula
from spinsat.ising import Hamiltonian


def reference_logical_energy(f: Formula, a: Sequence[bool]) -> int:
    """Number of clauses of ``f`` unsatisfied by assignment ``a``."""
    if len(a) != f.num_vars:
        raise ValueError(f"assignment length {len(a)} != num_vars {f.num_vars}")
    return sum(1 for clause in f.clauses if not any(lit.is_satisfied_by(a) for lit in clause.literals))


def reference_clause_slack(c: Clause, a: Sequence[bool]) -> int:
    """Number of satisfied (distinct) literals of clause ``c`` under ``a``."""
    for lit in c.literals:
        if lit.var >= len(a):
            raise ValueError(f"literal x{lit.var + 1} out of range for assignment")
    return sum(1 for lit in c.literals if lit.is_satisfied_by(a))


def reference_spins_to_assignment(s: Sequence[int], core_count: int) -> Assignment:
    """Read the first ``core_count`` spins as truth values (+1 -> True)."""
    if len(s) < core_count:
        raise ValueError(f"spin state of length {len(s)} has no {core_count} core spins")
    return tuple(int(s[i]) > 0 for i in range(core_count))


def reference_assignment_to_spins(a: Sequence[bool]) -> np.ndarray:
    """Inverse of ``reference_spins_to_assignment`` over the core block."""
    return np.array([1 if value else -1 for value in a], dtype=np.int8)


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
