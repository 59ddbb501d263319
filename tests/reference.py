"""Test-only oracles: plain per-clause and per-spin evaluations the library never runs.

``anneal`` keeps clause slacks incrementally and ``satcore`` works on
bitmasks; these walk the formula or the spin list directly, so tests can
check the fast paths against them.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from spinsat.cnf import Assignment, Clause, Formula


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
