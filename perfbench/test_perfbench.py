"""Tests of the benchmark's own arithmetic: self times, the digest gate, statistics."""
from __future__ import annotations

import types

import pytest

import gate
from spans import Patches, Span, Tracer, layer_self_times, outside_time, self_times
from stats import max_of, median_of, quartile_spread


def _tree() -> list[Span]:
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    return [
        Span(0, "root", 0.0, 10.0, None, ""),
        Span(1, "a", 1.0, 4.0, 0, "x"),
        Span(2, "c", 2.0, 3.0, 1, "x"),
        Span(3, "b", 5.0, 9.0, 0, "y"),
    ]


def test_self_times_subtract_direct_children():
    assert self_times(_tree()) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_layer_self_times_sum_to_wall_minus_outside():
    spans = _tree() + [Span(4, "a", 11.0, 12.5, None, "z")]
    layers = layer_self_times(spans)
    assert layers == {"root": 3.0, "a": 3.5, "c": 1.0, "b": 4.0}
    wall = 14.0
    assert outside_time(spans, wall) == pytest.approx(2.5)
    assert sum(layers.values()) + outside_time(spans, wall) == pytest.approx(wall)


def test_self_times_merge_overlapping_and_clip_children():
    spans = [
        Span(0, "p", 0.0, 10.0, None, ""),
        Span(1, "x", 2.0, 6.0, 0, ""),
        Span(2, "y", 4.0, 8.0, 0, ""),
        Span(3, "z", 9.0, 12.0, 0, ""),
    ]
    # Children cover [2, 8] and [9, 10] of the parent.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_nesting_and_patches_every_alias():
    module = types.ModuleType("fake")
    alias_holder = types.ModuleType("user")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    alias_holder.renamed_inner = inner
    tracer = Tracer()
    patches = Patches()
    for name in ("inner", "outer"):
        patches.patch_everywhere(
            [module, alias_holder], module, name,
            lambda fn, name=name: tracer.wrap(fn, name, lambda c, r, a, k: c.__setitem__(name, r)),
        )
    tracer.op = "op1"
    assert module.outer(1) == 4
    assert alias_holder.renamed_inner(5) == 6
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("outer", None, "op1"), ("inner", 0, "op1"), ("inner", None, "op1")]
    assert tracer.counters == {"outer": 4, "inner": 6}
    patches.undo()
    assert module.inner is inner and module.outer is outer and alias_holder.renamed_inner is inner


def test_digest_gate_flags_a_single_changed_byte():
    texts = {"a.csv": "step,x\n0,1.5\n", "b.csv": "y\n"}
    expected = {name: gate.digest(text) for name, text in texts.items()}
    changed = dict(texts, **{"a.csv": "step,x\n0,1.6\n"})
    actual = {name: gate.digest(text) for name, text in changed.items()}
    assert gate.digest_mismatches(actual, expected) == ["a.csv"]
    assert gate.digest_mismatches(expected, expected) == []
    missing = {"b.csv": expected["b.csv"], "c.csv": expected["b.csv"]}
    assert gate.digest_mismatches(missing, expected) == ["a.csv", "c.csv"]


def test_median_and_max_report_sample_counts():
    assert median_of([3.0, 1.0, 2.0, 10.0]) == (2.5, 4)
    assert max_of([3.0, 1.0, 2.0]) == (3.0, 3)
    assert median_of([7.0]).samples == 1
    with pytest.raises(ValueError):
        median_of([])
    with pytest.raises(ValueError):
        max_of([])


def test_quartile_spread_is_share_of_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_trajectory_check_enforces_energy_order():
    header = "step,temperature,energy_h,energy_logic,magnetization\n"
    good = header + "0,2.5,15,0,0.1\n1,2.4,1,1,0.2\n2,2.3,0,0,0.3\n"
    bad = header + "0,2.5,3,2,0.1\n1,2.4,0.5,1,0.2\n"
    assert gate.trajectory_violations(good) == []
    assert gate.trajectory_violations(bad) == ["energy_h < energy_logic at step 1"]
    assert gate.trajectory_violations("x,y\n1,2\n") == ["malformed trajectory header"]


def test_models_are_checked_against_the_dimacs_text():
    clauses = gate.dimacs_clauses("c x\np cnf 2 2\n1 -2 0\n2 0\n%\n0\n")
    assert clauses == [[1, -2], [2]]
    assert gate.unsatisfying_models(clauses, [(True, True), (False, True), (True, False)]) == 2
