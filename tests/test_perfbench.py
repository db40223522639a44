"""The benchmark's workloads still run against the library: each stages,
runs and checks one op, so a signature the benchmark calls cannot change
without a tier-1 failure."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["classify", "verify", "evolve", "simulate"])
def test_workload_op_passes_its_check(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports calib, oracle
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    inp = wl.stage(0)
    wl.check(inp, wl.op(inp))


@pytest.mark.parametrize("name, rhs_calls", [("simulate", 260), ("evolve", 131)])
def test_tracer_sees_every_rhs_call(name, rhs_calls, monkeypatch, tmp_path):
    """The benchmark's tracer, installed around one op, records a span for
    every right-hand side the op evaluates and for its one evolve, and
    restores the library's functions afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    inp = wl.stage(0)
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        out = wl.op(inp, tracer)
    finally:
        tracer.uninstall()
    assert tracer.originals_restored()
    wl.check(inp, out)
    counts = Counter(span[0] for span in tracer.spans)
    assert counts["kernels.evolution_rhs"] == rhs_calls
    assert counts["pde.evolve"] == 1


def test_tracer_sees_every_bracket_and_residual_of_verify(monkeypatch, tmp_path):
    """One traced verify op at seed 0 records every Lie bracket of its
    tables, relations and determining checks, every residual of its flow
    suites and linearizations, and every right-hand side those take; a
    change that routes a table around ``lie_bracket`` fails here.  The
    tracer restores the library's functions afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    wl = workloads.WORKLOADS["verify"](0, str(tmp_path))
    inp = wl.stage(0)
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        out = wl.op(inp, tracer)
    finally:
        tracer.uninstall()
    assert tracer.originals_restored()
    wl.check(inp, out)
    counts = Counter(span[0] for span in tracer.spans)
    assert counts["symexpr.lie_bracket"] == 213
    assert counts["pde.residual"] == 34
    assert counts["kernels.evolution_rhs"] == 36
