"""Tracer hygiene: originals come back, untraced ops call them, and self times add up."""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import relthue  # noqa: E402
import relthue.cli  # noqa: E402
import tracer as tracer_module  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import X3_4XY2, Problem  # noqa: E402

PROBLEM = Problem(X3_4XY2, 7, Fraction(3, 2), 3)


def snapshot() -> dict:
    """Identity of every attribute of every relthue module and of the traced classes."""
    owners = [m for name, m in sys.modules.items() if name == "relthue" or name.startswith("relthue.")]
    owners += [relthue.BinaryForm, relthue.QuadraticField]
    return {(id(owner), attr): id(value) for owner in owners for attr, value in list(vars(owner).items())}


def test_wrappers_bind_every_alias_and_are_restored():
    before = snapshot()
    original = relthue.abssolver.solve_abs
    tracer = Tracer()
    with tracer.installed():
        for owner in (relthue, relthue.abssolver, relthue.reducer, relthue.cli):
            assert owner.solve_abs is not original
            assert owner.solve_abs.__wrapped__ is original
    assert snapshot() == before
    assert not tracer.absent


def test_nested_calls_make_spans_and_untraced_ops_call_the_originals():
    tracer = Tracer()
    op = worker.make_op(PROBLEM, None)
    result, _ = tracer.run_op(op)
    assert tracer.edges["reducer.solve_relative", "abssolver.solve_abs"] == 1
    assert tracer.edges["bench.op", "quadfield.init"] == 1
    assert tracer.counters["reducer.verify.accepts"] == len(result.solutions)
    counts = (dict(tracer.calls), dict(tracer.edges))
    assert op().quadruples() == result.quadruples()
    assert (dict(tracer.calls), dict(tracer.edges)) == counts


def test_layer_self_times_sum_to_the_traced_op_time():
    tracer = Tracer()
    _, seconds = tracer.run_op(worker.make_op(PROBLEM, None))
    layers = sum(t for name, t in tracer.self_s.items() if name != tracer_module.ROOT)
    assert layers + tracer.self_s[tracer_module.ROOT] == pytest.approx(seconds, rel=0.02)
    assert layers > 0.5 * seconds


def test_a_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer_module.EXTRA, "reducer._gone", "reducer.gone")
    monkeypatch.setitem(tracer_module.EXTRA, "forms.BinaryForm.gone", tracer_module.COUNT_ONLY)
    tracer = Tracer()
    assert tracer.absent == ["reducer._gone", "forms.BinaryForm.gone"]
    tracer.run_op(worker.make_op(PROBLEM, None))
    assert tracer.calls["reducer.solve_relative"] == 1
