"""The benchmark's workloads still run against the library: each stages,
runs and checks one op, so a signature the benchmark calls cannot change
without a tier-1 failure."""

import importlib
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
