"""Complete SAT solving, capped model enumeration, and backbone extraction.

The solver is a deterministic DPLL (Davis, Logemann & Loveland, CACM 5(7),
1962): unit propagation, pure-literal elimination, and branching on the
lowest-index unassigned variable with the true branch first. Determinism
matters more than heuristic strength at the benchmark scale (20 variables),
because enumeration order and therefore all downstream artifacts must be
reproducible. The search keeps an explicit stack, so its depth is not
bounded by the interpreter's recursion limit.

Propagation is variable-major. A partial assignment is two integer masks of
variables, bit v for variable v. Each variable v has one row ``(1 << v, P,
N)``, where P and N are the clauses holding +v and -v as an integer with bit c
for clause c. The clauses an assignment satisfies are then the OR of the rows
of its literals, and one pass over the free variables' rows counts the free
literals of every clause at once. Enumeration adds each blocking clause as
the next clause bit of the rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import Assignment, Formula

__all__ = [
    "ModelSet",
    "solve",
    "enumerate_models",
    "backbone",
    "brute_force_models",
    "BRUTE_FORCE_MAX_VARS",
]

BRUTE_FORCE_MAX_VARS = 24


@dataclass(frozen=True)
class ModelSet:
    """A set of satisfying assignments; ``truncated`` if more exist."""

    models: tuple[Assignment, ...]
    truncated: bool


def _clause_masks(f: Formula) -> list[tuple[int, int]]:
    # A clause (pos, neg) is satisfied iff a variable in pos is true or one
    # in neg is false; bit v stands for variable v.
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


Rows = list[tuple[int, int, int]]


def _clause_rows(f: Formula) -> tuple[Rows, int]:
    """One row ``(1 << v, clauses holding +v, clauses holding -v)`` per
    variable v, and the mask of every clause bit; bit c stands for clause c."""
    pos = [0] * f.num_vars
    neg = [0] * f.num_vars
    for c, clause in enumerate(f.clauses):
        for lit in clause.literals:
            if lit.sign > 0:
                pos[lit.var] |= 1 << c
            else:
                neg[lit.var] |= 1 << c
    rows = [(1 << v, pos[v], neg[v]) for v in range(f.num_vars)]
    return rows, (1 << len(f.clauses)) - 1


def _propagate(rows: Rows, every: int, true: int, false: int) -> tuple[int, int, bool] | None:
    """Apply unit propagation and pure-literal elimination to a fixpoint.

    ``rows`` and ``every`` are as `_clause_rows` returns them; ``true`` and
    ``false`` are the masks of variables assigned each value. Each round
    ORs the rows of the newly assigned literals into the satisfied clauses,
    then ORs each free variable's two rows, masked to the unsatisfied
    clauses, into ``ge1`` and ``ge2``: the clauses with at least one and at
    least two free literals. A clause outside ``ge1``, or a variable forced
    both ways, is a conflict. The clauses in ``ge1`` but not ``ge2`` are
    units, all set together before the next round. Pure literals are set
    only at a round with no unit.

    Unit propagation is confluent: in whatever order units are set, it
    reaches one closure, or a conflict. Pure literals and "all satisfied" are
    read only at that closure, so the result depends neither on clause order
    nor on setting units together. Returns None on a conflict, else the
    extended masks and whether every clause is satisfied.
    """
    satisfied = 0
    free = rows
    while True:
        assigned = true | false
        unassigned = []
        for row in free:
            bit = row[0]
            if bit & assigned:
                satisfied |= row[1] if bit & true else row[2]
            else:
                unassigned.append(row)
        free = unassigned
        unsat = every & ~satisfied
        if not unsat:
            return true, false, True
        ge1 = ge2 = pos_occurs = neg_occurs = 0
        for bit, pos, neg in free:
            pos &= unsat
            if pos:
                ge2 |= ge1 & pos
                ge1 |= pos
                pos_occurs |= bit
            neg &= unsat
            if neg:
                ge2 |= ge1 & neg
                ge1 |= neg
                neg_occurs |= bit
        if ge1 != unsat:
            return None
        units = unsat ^ ge2
        if units:
            forced_true = forced_false = 0
            for bit, pos, neg in free:
                if pos & units:
                    forced_true |= bit
                if neg & units:
                    forced_false |= bit
            if forced_true & forced_false:
                return None
            true |= forced_true
            false |= forced_false
            continue
        pure = pos_occurs ^ neg_occurs
        if not pure:
            return true, false, False
        true |= pure & pos_occurs
        false |= pure & neg_occurs


def _solve_masks(rows: Rows, every: int, live: set[int] | None = None) -> int | None:
    """Mask of the true variables of the first model found, or None if UNSAT.

    Depth-first search with an explicit stack: branch on the lowest
    unassigned variable, true branch first. ``live``, when given, holds the
    true-masks of every model of the clauses; a state that none of them
    extends is dropped before propagation. A subtree returns only a model
    that extends its state, so every dropped subtree would have returned
    None, and the search finds the same first model.
    """
    stack = [(0, 0)]
    while stack:
        true, false = stack.pop()
        if live is not None and not any(m & true == true and not m & false for m in live):
            continue
        state = _propagate(rows, every, true, false)
        if state is None:
            continue
        true, false, satisfied = state
        if satisfied:
            # Variables left unassigned are unconstrained; complete them as False.
            return true
        assigned = true | false
        branch = ~assigned & (assigned + 1)
        stack.append((true, false | branch))
        stack.append((true | branch, false))
    return None


def _assignment(true: int, num_vars: int) -> Assignment:
    return tuple(bool(true >> v & 1) for v in range(num_vars))


def solve(f: Formula) -> Assignment | None:
    """Find one satisfying assignment, or None when the formula is UNSAT."""
    true = _solve_masks(*_clause_rows(f))
    return None if true is None else _assignment(true, f.num_vars)


def enumerate_models(f: Formula, cap: int = 120, exact: ModelSet | None = None) -> ModelSet:
    """Enumerate up to ``cap`` distinct models via blocking clauses.

    After each model the clause forbidding exactly that assignment is added
    and the solver reruns, so enumeration order follows the deterministic
    branching order. ``truncated`` is True iff a further model exists beyond
    the cap.

    ``exact``, the complete model set of ``f`` (``brute_force_models``),
    prunes the search: a partial assignment that extends no model not yet
    found is skipped, and ``truncated`` is read off the models left over.
    The result is the same as without it.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    live = None
    if exact is not None:
        if exact.truncated:
            raise ValueError("exact model set must not be truncated")
        live = {sum(1 << v for v, value in enumerate(model) if value) for model in exact.models}
    rows, every = _clause_rows(f)
    models: list[Assignment] = []
    while len(models) < cap:
        true = _solve_masks(rows, every, live)
        if true is None:
            return ModelSet(tuple(models), truncated=False)
        models.append(_assignment(true, f.num_vars))
        # The blocking clause holds -v for every variable v true in the
        # model and +v for every other; it takes the next clause bit.
        block = every + 1
        every |= block
        rows = [(bit, pos, neg | block) if bit & true else (bit, pos | block, neg)
                for bit, pos, neg in rows]
        if live is not None:
            live.discard(true)
    truncated = bool(live) if live is not None else _solve_masks(rows, every) is not None
    return ModelSet(tuple(models), truncated=truncated)


def backbone(ms: ModelSet) -> tuple[tuple[int, bool], ...]:
    """The ``(variable, value)`` pairs every model in ``ms`` shares; from a
    truncated set, a superset of the true backbone."""
    if not ms.models:
        raise ValueError("backbone undefined for an empty model set (UNSAT)")
    first, *rest = ms.models
    return tuple(
        (v, value) for v, value in enumerate(first) if all(model[v] == value for model in rest)
    )


def brute_force_models(f: Formula) -> ModelSet:
    """Exact model set, listed in ascending order of assignment index.

    Assignment index bit v holds the value of variable v. The set is built
    from an empty assignment by fixing variables n-1 down to 0: each step
    doubles the frontier of partial assignments, then drops those that
    falsify a clause whose lowest variable was just fixed, as all its
    variables are now set. Every clause is tested once, against partial
    assignments that satisfy all clauses tested before it.
    """
    n = f.num_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"exact enumeration limited to {BRUTE_FORCE_MAX_VARS} variables")
    by_lowest: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for clause, masks in zip(f.clauses, _clause_masks(f)):
        if not clause.is_tautological:
            by_lowest[min(clause.variables)].append(masks)
    front = np.zeros(1, dtype=np.uint32)
    for v in range(n - 1, -1, -1):
        front = np.concatenate((front, front | np.uint32(1 << v)))
        for pos, neg in by_lowest[v]:
            front = front[((front & np.uint32(pos)) != 0) | ((~front & np.uint32(neg)) != 0)]
    front.sort()
    bits = (front[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    models = tuple(tuple(bool(b) for b in row) for row in bits)
    return ModelSet(models, truncated=False)
