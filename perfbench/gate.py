"""Correctness gate: artifact digests and invariants that hold at any seed.

Everything here reads the program's outputs as text and checks them with its
own arithmetic, so a defect in spinsat cannot hide by also being in the check.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import Mapping, Sequence


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def digest_mismatches(actual: Mapping[str, str], expected: Mapping[str, str]) -> list[str]:
    """Artifact names whose digest differs, including missing and extra ones."""
    names = sorted(set(actual) | set(expected))
    return [name for name in names if actual.get(name) != expected.get(name)]


def dimacs_clauses(text: str) -> list[list[int]]:
    """Signed 1-based clauses of a DIMACS file, stopping at a '%' footer."""
    clauses: list[list[int]] = []
    pending: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line[0] in "cp":
            continue
        if line.startswith("%"):
            break
        for token in line.split():
            value = int(token)
            if value:
                pending.append(value)
            else:
                clauses.append(pending)
                pending = []
    return clauses


def unsatisfying_models(clauses: Sequence[Sequence[int]], models) -> int:
    """How many ``models`` (tuples of bools, index v is variable v+1) violate a clause."""
    return sum(
        1
        for model in models
        if not all(any(model[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses)
    )


def manifest_failures(manifest_text: str) -> list[dict]:
    return list(json.loads(manifest_text)["failures"])


def backbone_violations(summary_text: str) -> list[str]:
    """Instances whose exact backbone exceeds the capped one.

    A capped model set is a subset of all models, so it can only freeze more
    variables: ``backbone_exact <= backbone_capped`` must hold.
    """
    bad = []
    for row in csv.DictReader(io.StringIO(summary_text)):
        exact, capped = row["backbone_exact"], row["backbone_capped"]
        if exact and capped and int(exact) > int(capped):
            bad.append(row["instance"])
    return bad


def trajectory_violations(trajectory_text: str) -> list[str]:
    """Energy invariants of a corrected-gadget trajectory CSV.

    Minimising the corrected gadget over its ancillas gives exactly the
    unsatisfied-clause count, so ``energy_h >= energy_logic`` at every step;
    in particular ``energy_h == 0`` implies ``energy_logic == 0``. The
    converse does not hold: a satisfying core assignment can carry ancillas
    that are not yet relaxed (energy_h 15 at energy_logic 0 occurs mid-run).
    """
    rows = list(csv.reader(io.StringIO(trajectory_text)))
    if len(rows) < 2 or rows[0] != ["step", "temperature", "energy_h", "energy_logic", "magnetization"]:
        return ["malformed trajectory header"]
    step = energy_order_violation([float(r[2]) for r in rows[1:]], [int(r[3]) for r in rows[1:]])
    return [] if step is None else [f"energy_h < energy_logic at step {step}"]


def energy_order_violation(energy_h: Sequence[float], energy_logic: Sequence[int]) -> int | None:
    """First step where ``energy_h < energy_logic``, or None."""
    return next((t for t, (h, e) in enumerate(zip(energy_h, energy_logic)) if h < e), None)
