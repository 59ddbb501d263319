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

Each enumeration rerun differs from the last by that one clause, so it
reuses what the last rerun learnt about the states it resolved: a subtree
that held no model is skipped, and a result the clause provably leaves
unchanged is taken as it was (`enumerate_models` gives the rules and their
proofs), as in incremental SAT solving (Eén & Sörensson, SAT 2003). Given
the exact model set, the search also keeps per variable and value an int
with bit k for each model k that agrees, and skips a state that extends no
model not yet found by ANDing them.
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
    variable v, and the mask of every clause bit; bit c stands for clause c.
    A clause holds a literal once, so each sum over ``f.occurrences`` is an OR."""
    rows = [
        (1 << v, sum(1 << c for c, sign in occ if sign > 0), sum(1 << c for c, sign in occ if sign < 0))
        for v, occ in enumerate(f.occurrences)
    ]
    return rows, (1 << len(f.clauses)) - 1


Result = tuple[int, int, bool] | None
Resolved = dict[tuple[int, int], tuple[Result, bool]]


def _propagate(rows: Rows, every: int, true: int, false: int) -> tuple[Result, bool]:
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
    nor on setting units together.

    Returns the result, None on a conflict or else the extended masks and
    whether every clause is satisfied, and ``keep``: the call ended open,
    set no pure literal, and left at least two variables free, each in an
    unsatisfied clause. Then the result stands when a clause with a literal
    of every variable is added (`enumerate_models` proves it).
    """
    satisfied = 0
    free = rows
    pured = False
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
            return (true, false, True), False
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
            return None, False
        units = unsat ^ ge2
        if units:
            forced_true = forced_false = 0
            for bit, pos, neg in free:
                if pos & units:
                    forced_true |= bit
                if neg & units:
                    forced_false |= bit
            if forced_true & forced_false:
                return None, False
            true |= forced_true
            false |= forced_false
            continue
        pure = pos_occurs ^ neg_occurs
        if not pure:
            return (true, false, False), not pured and 1 < len(free) == pos_occurs.bit_count()
        pured = True
        true |= pure & pos_occurs
        false |= pure & neg_occurs


def _solve_masks(
    rows: Rows,
    every: int,
    previous: Resolved | None = None,
    blocked: int = 0,
    agree: list[list[int]] | None = None,
    alive: int = 0,
) -> tuple[int | None, Resolved | None]:
    """Mask of the true variables of the first model found, or None if
    UNSAT, and the states this run resolved.

    Depth-first search with an explicit stack: branch on the lowest
    unassigned variable, true branch first. ``previous``, when given, maps
    each state the last run resolved to what `_propagate` returned for it,
    over the clauses without the last one, which blocks the model with
    true-mask ``blocked``. By the rules of `enumerate_models`, such a state
    that assigns a variable against that model is skipped, and one whose
    entry has ``keep`` takes its entry instead of a new call. This run's
    states are returned the same way, or None when ``previous`` is None.

    ``agree``, when given, holds per variable the models with it true and
    those with it false, each an int with bit k for model k, and ``alive``
    the models of the clauses. A stack entry carries the alive models that
    agree with the branch decisions on its path, and a state that none
    agrees with is dropped before propagation. That drops exactly the states
    no alive model extends: an alive model that agrees with the decisions
    satisfies every unit literal on the path, and setting a pure literal in
    it leaves an alive model with the same value at every later branch
    variable. A subtree returns only a model that extends its state, so
    every dropped subtree would have returned None, and the search finds
    the same first model.
    """
    resolved = None if previous is None else {}
    # Without ``agree`` every entry carries -1, and nothing is dropped.
    stack = [(0, 0, -1 if agree is None else alive)]
    while stack:
        true, false, compatible = stack.pop()
        if not compatible:
            continue
        state = true, false
        known = previous.get(state) if previous else None
        if known is not None and (true & ~blocked or false & blocked):
            resolved[state] = known
            continue
        if known is None or not known[1]:
            known = _propagate(rows, every, true, false)
        if resolved is not None:
            resolved[state] = known
        result = known[0]
        if result is None:
            continue
        true, false, satisfied = result
        if satisfied:
            # Variables left unassigned are unconstrained; complete them as False.
            return true, resolved
        assigned = true | false
        branch = ~assigned & (assigned + 1)
        with_true = with_false = compatible
        if agree is not None:
            if_true, if_false = agree[branch.bit_length() - 1]
            with_true, with_false = compatible & if_true, compatible & if_false
        stack.append((true, false | branch, with_false))
        stack.append((true | branch, false, with_true))
    return None, resolved


def _assignment(true: int, num_vars: int) -> Assignment:
    return tuple(bool(true >> v & 1) for v in range(num_vars))


def solve(f: Formula) -> Assignment | None:
    """Find one satisfying assignment, or None when the formula is UNSAT."""
    true, _ = _solve_masks(*_clause_rows(f))
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

    A rerun differs from the last only by the blocking clause C of the
    model m just found, which has a literal of every variable. Of the states
    the last rerun resolved, the next one skips or reuses two kinds:

    - A state S that assigns a variable against m is skipped with its whole
      subtree. The last rerun resolved S before it found m, and a model
      found in S's subtree would extend S, so that subtree held none. The
      search is complete (pure literals keep a satisfiable state
      satisfiable, and a dropped or skipped subtree holds no model either),
      so the clauses with S have no model, and with C added still none.
    - A state S whose result has ``keep`` takes that result. Every round of
      that call had at least two free variables, so C, while unsatisfied,
      had at least two free literals: it was never a unit nor empty, and
      every round repeats. At the end each free variable occurs both ways,
      as none was pure, so C's literals make none pure, and the call ends
      open at the same masks, again with ``keep``.

    Only the last rerun's states are kept, so each entry is checked against
    exactly one new clause.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    agree = None
    alive = 0
    if exact is not None:
        if exact.truncated:
            raise ValueError("exact model set must not be truncated")
        agree = [[0, 0] for _ in range(f.num_vars)]
        for k, model in enumerate(exact.models):
            for v, value in enumerate(model):
                agree[v][not value] |= 1 << k
        index = {model: k for k, model in enumerate(exact.models)}
        alive = (1 << len(exact.models)) - 1
    rows, every = _clause_rows(f)
    resolved: Resolved = {}
    true = 0
    models: list[Assignment] = []
    while len(models) < cap:
        true, resolved = _solve_masks(rows, every, resolved, true, agree, alive)
        if true is None:
            return ModelSet(tuple(models), truncated=False)
        model = _assignment(true, f.num_vars)
        models.append(model)
        # The blocking clause holds -v for every variable v true in the
        # model and +v for every other; it takes the next clause bit.
        block = every + 1
        every |= block
        rows = [(bit, pos, neg | block) if bit & true else (bit, pos | block, neg)
                for bit, pos, neg in rows]
        if agree is not None:
            alive &= ~(1 << index[model])
    if agree is not None:
        truncated = bool(alive)
    else:
        truncated = _solve_masks(rows, every, resolved, true)[0] is not None
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
