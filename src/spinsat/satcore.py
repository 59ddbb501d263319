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
the next clause bit of the rows, in place.

Each enumeration rerun differs from the last by that one clause, so it
reuses what the last rerun learnt about the states it resolved: a state
inside a subtree that held no model is skipped, and a result the clause
provably leaves unchanged is taken as it was (`enumerate_models` gives the
rules and their proofs), as in incremental SAT solving (Eén & Sörensson, SAT
2003). Given an exact model set that fits the cap, enumeration returns it
whole. Given a larger one, a rerun needs no search: it keeps per
variable an int with bit k for each model k with the variable true, and walks
one path from the root without a stack, into the branch that a model not yet
found which agrees with the path's decisions takes, until one such model is
left, which it returns without propagating.
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
    "model_sets",
    "brute_force_models",
    "BRUTE_FORCE_MAX_VARS",
]

BRUTE_FORCE_MAX_VARS = 24
# The most (clause, true-mask) pairs `_satisfying` tests at once.
_SCAN_CELLS = 1 << 16


@dataclass(frozen=True, eq=False)
class ModelSet:
    """Satisfying assignments as a read-only ``(count, num_vars)`` bool table,
    row k for model k and column v for variable v; ``truncated`` if more exist."""

    models: np.ndarray
    truncated: bool


Rows = list[list[int]]


def _clause_rows(f: Formula) -> tuple[Rows, int]:
    """One row ``[1 << v, clauses holding +v, clauses holding -v]`` per
    variable v, and the mask of every clause bit; bit c stands for clause c."""
    rows = []
    for v, occ in enumerate(f.occurrences):
        pos = neg = 0
        for c, sign in occ:
            if sign > 0:
                pos |= 1 << c
            else:
                neg |= 1 << c
        rows.append([1 << v, pos, neg])
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
    units, all set together, in the pass that folds their rows in. Pure
    literals are set only at a round with no unit.

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
    # The assigned variables whose rows are still in ``free``.
    fold = true | false
    while True:
        if fold:
            unassigned = []
            for row in free:
                bit = row[0]
                if bit & fold:
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
            unassigned = []
            for row in free:
                bit, pos, neg = row
                if pos & units:
                    if neg & units:
                        return None, False
                    true |= bit
                    satisfied |= pos
                elif neg & units:
                    false |= bit
                    satisfied |= neg
                else:
                    unassigned.append(row)
            free = unassigned
            fold = 0
            continue
        pure = pos_occurs ^ neg_occurs
        if not pure:
            return (true, false, False), not pured and 1 < len(free) == pos_occurs.bit_count()
        pured = True
        true |= pure & pos_occurs
        false |= pure & neg_occurs
        fold = pure


def _solve_masks(rows: Rows, every: int, previous: Resolved, blocked: int) -> tuple[int | None, Resolved]:
    """Mask of the true variables of the first model found, or None if
    UNSAT, and the states this run resolved.

    Depth-first search with an explicit stack: branch on the lowest
    unassigned variable, true branch first. ``previous`` maps each state the
    last run resolved to what `_propagate` returned for it, over the clauses
    without the last one, which blocks the model with true-mask ``blocked``;
    a first run passes it empty. By the rules of `enumerate_models`, a state
    that extends one of those states assigning a variable against that model
    is skipped, and one whose entry has ``keep`` takes its entry instead of a
    new call. This run's states are returned the same way. Once the search
    leaves a subtree that held no model, it keeps only the subtree's root,
    which each state below it extends, so at most two states per level of
    the path stay.
    """
    resolved: Resolved = {}
    # No model of the clauses extends these states.
    dead = [(t, f) for t, f in previous if t & ~blocked or f & blocked]
    # The last item is how many of this run's states stay when the entry is
    # popped: those on its path and the roots of finished subtrees beside it.
    stack = [(0, 0, 0)]
    while stack:
        true, false, mark = stack.pop()
        while len(resolved) > mark:
            resolved.popitem()
        # Descend through true branches; a false branch waits on the stack.
        while True:
            state = true, false
            if dead and any(true & t == t and false & f == f for t, f in dead):
                resolved[state] = None, False
                break
            known = previous.get(state)
            if known is None or not known[1]:
                known = _propagate(rows, every, true, false)
            resolved[state] = known
            result = known[0]
            if result is None:
                break
            true, false, satisfied = result
            if satisfied:
                # Variables left unassigned are unconstrained; complete them as False.
                return true, resolved
            assigned = true | false
            branch = ~assigned & (assigned + 1)
            # Popped, it keeps the true branch's root.
            stack.append((true, false | branch, len(resolved) + 1))
            true |= branch
    return None, resolved


def _descend(
    rows: Rows, every: int, previous: Resolved, columns: list[int], alive: int, models: np.ndarray
) -> tuple[int | None, Resolved]:
    """What `_solve_masks` returns, found by one walk from the root given
    the exact model set.

    ``columns`` holds per variable the models with it true, an int with bit
    k for model k, whose true-mask is ``models[k]``, and ``alive`` the
    models of the clauses. From the root, each state takes the last run's
    entry when it has ``keep`` and calls `_propagate` otherwise, and branches
    on the lowest unassigned variable. Of the alive models that agree with
    the branch decisions so far, the descent keeps those that agree with the
    next one: it branches true if one of them has the variable true.

    Some alive model that agrees with the decisions extends each state on
    the path: it satisfies every unit literal, and setting a pure literal in
    it leaves an alive model with the same value at every later branch
    variable. So no state ends in a conflict, and a true branch holds an
    alive model exactly when an agreeing model has the variable true. The
    search of `_solve_masks` would enter the same branches and leave none of
    them, so it returns the same model, and the states resolved here form
    one path from the root. Once one alive model agrees, it is returned
    without propagating (the third rule of `enumerate_models`); None when
    none is left.
    """
    resolved: Resolved = {}
    true = false = 0
    while alive & (alive - 1):
        state = true, false
        known = previous.get(state)
        if known is None or not known[1]:
            known = _propagate(rows, every, true, false)
        resolved[state] = known
        true, false, satisfied = known[0]
        if satisfied:
            return true, resolved
        assigned = true | false
        branch = ~assigned & (assigned + 1)
        with_true = alive & columns[branch.bit_length() - 1]
        if with_true:
            alive = with_true
            true |= branch
        else:
            false |= branch
    return (int(models[alive.bit_length() - 1]) if alive else None), resolved


def _table(masks: np.ndarray | list[int], num_vars: int) -> np.ndarray:
    """Read-only bool table of true-masks, a uint32 array or a list of ints:
    row k is mask k and column v its bit v, unpacked from little-endian bytes."""
    if isinstance(masks, np.ndarray):
        width, data = 4, masks.astype("<u4", copy=False)
    else:
        width = (num_vars + 7) // 8
        data = b"".join(mask.to_bytes(width, "little") for mask in masks)
    rows = np.frombuffer(data, np.uint8).reshape(len(masks), width)
    table = np.unpackbits(rows, axis=1, count=num_vars, bitorder="little").view(bool)
    table.flags.writeable = False
    return table


def solve(f: Formula) -> Assignment | None:
    """Find one satisfying assignment, or None when the formula is UNSAT."""
    true, _ = _solve_masks(*_clause_rows(f), {}, 0)
    return None if true is None else tuple(_table([true], f.num_vars)[0].tolist())


def enumerate_models(f: Formula, cap: int = 120, exact: ModelSet | None = None) -> ModelSet:
    """Enumerate up to ``cap`` distinct models via blocking clauses.

    After each model the clause forbidding exactly that assignment is added
    and the solver reruns, so enumeration order follows the deterministic
    branching order. ``truncated`` is True iff a further model exists beyond
    the cap.

    ``exact``, the complete model set of ``f`` in ascending order of
    true-mask (``brute_force_models``), is itself the result when it holds
    at most ``cap`` models: the same models as without it, in its own order.
    Past the cap it lets each rerun walk one path from the root with
    `_descend` instead of searching with `_solve_masks`, and ``truncated``
    is read off the models left over; the result is then the same as
    without it, in the same order.

    A rerun differs from the last only by the blocking clause C of the
    model m just found, which has a literal of every variable. The next
    rerun skips or reuses three kinds of state:

    - A state S that extends a state T of the last rerun which assigns a
      variable against m is skipped with its whole subtree. The last rerun
      resolved T before it found m, and a model found in T's subtree would
      extend T, so that subtree held none. The search is complete (pure
      literals keep a satisfiable state satisfiable, and a skipped subtree
      holds no model either), so no model of the clauses extends T, nor S,
      and with C added still none. So once a rerun leaves a subtree
      without a model, it need keep only the subtree's root.
    - A state S whose result has ``keep`` takes that result. Every round of
      that call had at least two free variables, so C, while unsatisfied,
      had at least two free literals: it was never a unit nor empty, and
      every round repeats. At the end each free variable occurs both ways,
      as none was pure, so C's literals make none pure, and the call ends
      open at the same masks, again with ``keep``.
    - With ``exact``, a state S that one alive model m' agrees with (one
      not yet found that agrees with every branch decision on the path to
      S) returns m' without propagating. Some alive model extends S and
      agrees with those decisions (see `_descend`), so it is m'. Then S
      is satisfiable, and the complete search below it returns a model that
      extends S: a model of the clauses, so alive, and one that agrees with
      the decisions, so m' again. The subtree could return no other.

    Only the last rerun's states are kept, so each entry is checked against
    exactly one new clause. A found model stays an int, its true-mask, until
    the result is built.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if exact is not None:
        if exact.truncated:
            raise ValueError("exact model set must not be truncated")
        if f.num_vars > BRUTE_FORCE_MAX_VARS:
            raise ValueError(f"exact model sets are limited to {BRUTE_FORCE_MAX_VARS} variables")
        table = exact.models
        if table.shape[1] != f.num_vars:
            raise ValueError(f"exact model set width {table.shape[1]} != num_vars {f.num_vars}")
        if len(table) <= cap:
            return exact
        alive = (1 << len(table)) - 1
        # Row k, packed into bytes, is model k's true-mask, which fits a uint32
        # at up to 24 variables; the masks ascend, so a found model's index is
        # a binary search. Variable v's column, packed into an int with bit k
        # for model k, is the set of models with v true.
        packed = np.zeros((len(table), 4), np.uint8)
        packed[:, :(f.num_vars + 7) // 8] = np.packbits(table, axis=1, bitorder="little")
        models = packed.view("<u4").ravel()
        columns = [int.from_bytes(np.packbits(column, bitorder="little").tobytes(), "little")
                   for column in table.T]
    rows, every = _clause_rows(f)
    resolved: Resolved = {}
    true = 0
    found: list[int] = []
    while len(found) < cap:
        if exact is None:
            true, resolved = _solve_masks(rows, every, resolved, true)
        else:
            true, resolved = _descend(rows, every, resolved, columns, alive, models)
        if true is None:
            break
        found.append(true)
        # The blocking clause holds -v for every variable v true in the
        # model and +v for every other; it takes the next clause bit.
        block = every + 1
        every |= block
        for row in rows:
            row[2 if row[0] & true else 1] |= block
        if exact is not None:
            alive &= ~(1 << int(models.searchsorted(np.uint32(true))))
    if exact is not None:
        truncated = bool(alive)
    else:
        truncated = true is not None and _solve_masks(rows, every, resolved, true)[0] is not None
    return ModelSet(_table(found, f.num_vars), truncated=truncated)


def backbone(ms: ModelSet) -> tuple[tuple[int, bool], ...]:
    """The ``(variable, value)`` pairs every model in ``ms`` shares; from a
    truncated set, a superset of the true backbone."""
    if not len(ms.models):
        raise ValueError("backbone undefined for an empty model set (UNSAT)")
    always, ever = ms.models.all(axis=0), ms.models.any(axis=0)
    return tuple((int(v), bool(always[v])) for v in np.flatnonzero(always | ~ever))


def model_sets(f: Formula, cap: int) -> tuple[ModelSet, ModelSet | None, int | None, int | None]:
    """``(capped, exact, backbone_capped, backbone_exact)``: the first ``cap``
    models (`enumerate_models`), the exact model set (`brute_force_models`,
    None past ``BRUTE_FORCE_MAX_VARS`` variables) and the size of each one's
    `backbone`. Both sizes are None when ``f`` is UNSAT, ``backbone_exact``
    also when there is no exact set. An exact set within the cap is the
    capped set itself, so its backbone is taken once."""
    exact = brute_force_models(f) if f.num_vars <= BRUTE_FORCE_MAX_VARS else None
    capped = enumerate_models(f, cap, exact)
    if not len(capped.models):
        return capped, exact, None, None
    size = len(backbone(capped))
    exact_size = size if exact is capped else None if exact is None else len(backbone(exact))
    return capped, exact, size, exact_size


def _satisfying(front: np.ndarray, clauses: list[tuple[int, int]]) -> np.ndarray:
    """The true-masks in ``front`` that falsify none of ``clauses``.

    A clause is a pair (mask, neg): a true-mask falsifies it iff its bits in
    mask, the clause's variables, equal neg, those of its negative literals.
    The (clause, true-mask) test runs over at most ``_SCAN_CELLS`` pairs at a
    time, one row per clause, so the reduction runs along the long axis.
    """
    masks, negs = np.array(clauses, dtype=np.uint32).T[..., None]
    keep = np.empty(len(front), dtype=bool)
    step = max(1, _SCAN_CELLS // len(clauses))
    for a in range(0, len(front), step):
        (masks & front[a:a + step] != negs).all(axis=0, out=keep[a:a + step])
    return front[keep]


def brute_force_models(f: Formula) -> ModelSet:
    """Exact model set, listed in ascending order of assignment index.

    Assignment index bit v holds the value of variable v. The set is built
    from an empty assignment by fixing one variable at a time, those in the
    most clauses first (ties by index), so that clauses are completed while
    the frontier of partial assignments is small. Each step doubles the
    frontier, then drops in one pass (`_satisfying`) the partial assignments
    that falsify a clause the variable completes, as all its variables are
    now set. Every clause is tested once, against partial assignments that
    satisfy all clauses tested before it.
    """
    n = f.num_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"exact enumeration limited to {BRUTE_FORCE_MAX_VARS} variables")
    order = sorted(range(n), key=lambda v: (-len(f.occurrences[v]), v))
    # Clause c holds +v for each bit v of pos[c] and -v for each of neg[c];
    # its variables are all set at step last[c].
    pos, neg, last = ([0] * len(f.clauses) for _ in range(3))
    for k, v in enumerate(order):
        bit = 1 << v
        for c, sign in f.occurrences[v]:
            if sign > 0:
                pos[c] |= bit
            else:
                neg[c] |= bit
            last[c] = k
    # A tautology, with a variable in both pos and neg, is never falsified.
    completes: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, q, k in zip(pos, neg, last):
        if not p & q:
            completes[k].append((p | q, q))
    front = np.zeros(1, dtype=np.uint32)
    for v, clauses in zip(order, completes):
        front = np.concatenate((front, front | np.uint32(1 << v)))
        if clauses:
            front = _satisfying(front, clauses)
    front.sort()
    return ModelSet(_table(front, n), truncated=False)
