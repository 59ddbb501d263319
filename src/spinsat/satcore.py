"""Complete SAT solving, capped model enumeration, and backbone extraction.

The solver is a deterministic DPLL: unit propagation, pure-literal
elimination, and branching on the lowest-index unassigned variable with the
true branch first. Determinism matters more than heuristic strength at the
benchmark scale (20 variables), because enumeration order and therefore all
downstream artifacts must be reproducible. Clauses and partial assignments
are integer bitmasks, and the search keeps an explicit stack, so its depth
is not bounded by the interpreter's recursion limit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnf import Assignment, Formula

__all__ = [
    "ModelSet",
    "BackboneReport",
    "solve",
    "enumerate_models",
    "backbone",
    "brute_force_models",
    "BRUTE_FORCE_MAX_VARS",
]

BRUTE_FORCE_MAX_VARS = 24


@dataclass(frozen=True)
class ModelSet:
    """A set of satisfying assignments, possibly cut off at ``cap`` models."""

    models: tuple[Assignment, ...]
    truncated: bool
    cap: int


@dataclass(frozen=True)
class BackboneReport:
    """Variables forced to a single value across every model in a ModelSet.

    ``exact`` is False when the report was computed from a truncated model
    set; in that case the reported backbone can only overestimate the true
    one (fewer models means more variables look frozen).
    """

    fixed_vars: tuple[tuple[int, bool], ...]
    size: int
    normalized: float
    exact: bool


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


def _propagate(clauses: list[tuple[int, int]], true: int, false: int) -> tuple[int, int, bool] | None:
    """Apply unit propagation and pure-literal elimination to a fixpoint.

    ``true`` and ``false`` are the masks of variables assigned each value.
    Each pass visits the clauses in order, so a unit set early in a pass is
    seen by later clauses; pure literals are taken only after a pass that
    set no unit. Returns None on an empty clause, else the extended masks
    and whether every clause is satisfied.
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


def _solve_masks(clauses: list[tuple[int, int]], live: set[int] | None = None) -> int | None:
    """Mask of the true variables of the first model found, or None if UNSAT.

    Depth-first search with an explicit stack: branch on the lowest
    unassigned variable, true branch first. ``live``, when given, holds the
    true-masks of every model of ``clauses``; a state that none of them
    extends is dropped before propagation. A subtree returns only a model
    that extends its state, so every dropped subtree would have returned
    None, and the search finds the same first model.
    """
    stack = [(0, 0)]
    while stack:
        true, false = stack.pop()
        if live is not None and not any(m & true == true and not m & false for m in live):
            continue
        state = _propagate(clauses, true, false)
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
    true = _solve_masks(_clause_masks(f))
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
    clauses = _clause_masks(f)
    every_var = (1 << f.num_vars) - 1
    models: list[Assignment] = []
    while len(models) < cap:
        true = _solve_masks(clauses, live)
        if true is None:
            return ModelSet(tuple(models), truncated=False, cap=cap)
        models.append(_assignment(true, f.num_vars))
        clauses.append((every_var ^ true, true))
        if live is not None:
            live.discard(true)
    truncated = bool(live) if live is not None else _solve_masks(clauses) is not None
    return ModelSet(tuple(models), truncated=truncated, cap=cap)


def backbone(ms: ModelSet, num_vars: int) -> BackboneReport:
    """Variables taking one fixed value across all models in ``ms``."""
    if not ms.models:
        raise ValueError("backbone undefined for an empty model set (UNSAT)")
    fixed: list[tuple[int, bool]] = []
    for v in range(num_vars):
        first = ms.models[0][v]
        if all(model[v] == first for model in ms.models[1:]):
            fixed.append((v, first))
    return BackboneReport(
        fixed_vars=tuple(fixed),
        size=len(fixed),
        normalized=len(fixed) / num_vars,
        exact=not ms.truncated,
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
    return ModelSet(models, truncated=False, cap=1 << n)
