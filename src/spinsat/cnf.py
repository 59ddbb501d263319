"""CNF formulas: DIMACS parsing, random generation, and logical observables.

Variables are 0-based internally. All external I/O (DIMACS text, CSV labels)
is 1-based, matching the DIMACS convention. Parsed objects are immutable and
safe to share across threads.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Literal",
    "Clause",
    "Formula",
    "Assignment",
    "DimacsError",
    "ParseWarning",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "mean_slack",
    "models_mean_slack",
    "clause_ratio",
    "generate_random_3sat",
]

# A complete truth assignment: values[v] is the value of variable v.
Assignment = tuple[bool, ...]


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


class ParseWarning(UserWarning):
    """Non-fatal oddities found while parsing (duplicate literals, header mismatch)."""


class Literal(NamedTuple):
    var: int
    sign: int  # +1 for the plain variable, -1 for its negation

    def is_satisfied_by(self, values: Sequence[bool]) -> bool:
        return values[self.var] == (self.sign > 0)

    def to_dimacs(self) -> int:
        return self.sign * (self.var + 1)


def literal_from_dimacs(lit: int) -> Literal:
    if lit == 0:
        raise DimacsError("literal 0 is reserved as the clause terminator")
    return Literal(abs(lit) - 1, 1 if lit > 0 else -1)


@dataclass(frozen=True)
class Clause:
    """A disjunction of distinct literals.

    A clause may mention both polarities of the same variable; such a clause
    is tautological (satisfied by every assignment) and is kept so that any
    well-formed input file round-trips.
    """

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.literals:
            raise DimacsError("empty clause")
        if len(set(self.literals)) != len(self.literals):
            raise DimacsError("duplicate literal in clause")

    def __len__(self) -> int:
        return len(self.literals)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(lit.var for lit in self.literals)

    @property
    def is_tautological(self) -> bool:
        seen = {}
        for lit in self.literals:
            if seen.get(lit.var, lit.sign) != lit.sign:
                return True
            seen[lit.var] = lit.sign
        return False


@dataclass(frozen=True)
class Formula:
    """A CNF formula over variables 0..num_vars-1.

    ``occurrences[v]`` holds the (clause index, sign) of each literal on
    variable v, in clause order: the one index the annealer, the solver and
    ``models_mean_slack`` read instead of walking the clauses.
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    source_name: str = field(default="", compare=False)
    occurrences: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vars)]
        for j, clause in enumerate(self.clauses):
            for var, sign in clause.literals:
                if not 0 <= var < self.num_vars:
                    raise DimacsError(f"literal x{var + 1} out of range (num_vars={self.num_vars})")
                lists[var].append((j, sign))
        object.__setattr__(self, "occurrences", tuple(map(tuple, lists)))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _make_clause(dimacs_lits: list[int], num_vars: int) -> Clause:
    if not dimacs_lits:
        raise DimacsError("empty clause in input")
    literals: list[Literal] = []
    seen: set[Literal] = set()
    for raw in dimacs_lits:
        if abs(raw) > num_vars:
            raise DimacsError(f"literal {raw} exceeds declared variable count {num_vars}")
        lit = literal_from_dimacs(raw)
        if lit not in seen:
            seen.add(lit)
            literals.append(lit)
    dropped = len(dimacs_lits) - len(literals)
    if dropped:
        warnings.warn(
            f"dropped {dropped} duplicate literal(s) in clause {dimacs_lits}",
            ParseWarning,
            stacklevel=3,
        )
    return Clause(tuple(literals))


def parse_dimacs(text: str, source_name: str = "", lenient: bool = False) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Comment lines start with 'c'. A 'p cnf <n> <m>' header must precede the
    clause data. Clauses are 0-terminated integer lists and may span lines.
    A trailing '%' footer (as found in SATLIB benchmark files, usually
    followed by a lone '0') ends the clause section and is ignored.

    A clause count differing from the header is an error unless ``lenient``
    is set, in which case it is reported as a ParseWarning.
    """
    header: tuple[int, int] | None = None
    pending: list[int] = []
    clauses: list[Clause] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        if header is None:
            parts = line.split()
            if parts[0] != "p":
                raise DimacsError(f"line {line_no}: expected 'p cnf' header, got {line!r}")
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {line_no}: malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: malformed header {line!r}") from exc
            if header[0] < 0 or header[1] < 0:
                raise DimacsError(f"line {line_no}: negative counts in header {line!r}")
            continue
        if line.startswith("%"):
            # SATLIB footer: ignore everything after it.
            if pending:
                raise DimacsError("unterminated clause before '%' footer")
            break
        for token in line.split():
            try:
                value = int(token)
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: bad token {token!r}") from exc
            if value == 0:
                clauses.append(_make_clause(pending, header[0]))
                pending = []
            else:
                pending.append(value)

    if header is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated clause at end of input")

    num_vars, declared_m = header
    if len(clauses) != declared_m:
        message = f"header declares {declared_m} clauses, found {len(clauses)}"
        if lenient:
            warnings.warn(message, ParseWarning, stacklevel=2)
        else:
            raise DimacsError(message)
    return Formula(num_vars, tuple(clauses), source_name)


def parse_dimacs_file(path, lenient: bool = False) -> Formula:
    from pathlib import Path

    p = Path(path)
    return parse_dimacs(p.read_text(encoding="utf-8"), source_name=p.stem, lenient=lenient)


def write_dimacs(f: Formula) -> str:
    """Serialize a Formula as DIMACS CNF text (1-based literals, LF endings)."""
    lines = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit.to_dimacs()) for lit in clause.literals) + " 0")
    return "\n".join(lines) + "\n"


def _check_assignment(f: Formula, a: Sequence[bool]) -> None:
    if len(a) != f.num_vars:
        raise ValueError(f"assignment length {len(a)} != num_vars {f.num_vars}")


def mean_slack(f: Formula, a: Sequence[bool]) -> float:
    """Average clause slack across all clauses of ``f``.

    Meaningful when ``a`` satisfies ``f`` (slack 0 means an unsatisfied
    clause), but defined for any assignment.
    """
    _check_assignment(f, a)
    if f.num_clauses == 0:
        raise ValueError("mean slack undefined for a formula with no clauses")
    return sum(lit.is_satisfied_by(a) for c in f.clauses for lit in c.literals) / f.num_clauses


def models_mean_slack(f: Formula, models: Sequence[Sequence[bool]]) -> float:
    """``sum(mean_slack(f, a) for a in models) / len(models)``, bit for bit.

    An assignment's satisfied-literal total is linear in its values: every
    negative literal counts when all variables are false, and setting v true
    adds pos_count[v] - neg_count[v]. Each total is an exact integer, divided
    by m as ``mean_slack`` divides it, and the quotients are summed left to
    right in model order, so no clause is walked once per model.
    """
    if not models:
        raise ValueError("mean slack undefined for an empty model list")
    if f.num_clauses == 0:
        raise ValueError("mean slack undefined for a formula with no clauses")
    gain = [sum(sign for _, sign in occ) for occ in f.occurrences]
    base = sum(sign < 0 for occ in f.occurrences for _, sign in occ)
    per_model = []
    for a in models:
        _check_assignment(f, a)
        per_model.append((base + sum(compress(gain, a))) / f.num_clauses)
    return sum(per_model) / len(models)


def clause_ratio(f: Formula) -> float:
    """Clause density m/n."""
    if f.num_vars == 0:
        raise ValueError("clause ratio undefined for a formula with no variables")
    return f.num_clauses / f.num_vars


def generate_random_3sat(n: int, m: int, seed: int) -> Formula:
    """Generate a uniform random 3-SAT formula with ``m`` clauses over ``n`` variables.

    Each clause picks 3 distinct variables (rejection sampling over a PCG64
    stream, so equal seeds give bit-identical formulas on every platform) and
    independent uniform polarities.
    """
    if n < 3:
        raise ValueError("need at least 3 variables for 3-SAT clauses")
    if m < 0:
        raise ValueError(f"clause count must be non-negative, got {m}")
    rng = np.random.Generator(np.random.PCG64(seed))
    clauses: list[Clause] = []
    for _ in range(m):
        chosen: list[int] = []
        while len(chosen) < 3:
            v = int(rng.integers(0, n))
            if v not in chosen:
                chosen.append(v)
        literals = tuple(
            Literal(v, 1 if int(rng.integers(0, 2)) else -1) for v in chosen
        )
        clauses.append(Clause(literals))
    return Formula(n, tuple(clauses), source_name=f"rand3sat_n{n}_m{m}_s{seed}")
