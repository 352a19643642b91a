"""The benchmark's correctness gates, run on the package in src/: round 0 of
seed 1 of each workload in bench/workloads.py must pass every gate, and each
gate must pass a real answer and reject the perturbed ones (self_test). A
change to the package that breaks the benchmark fails here, not only in the
benchmark's own runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["tree-shared", "tree-pernode", "enum-verify"])
def test_round_zero_passes_every_gate(workloads, name):
    instances = workloads.WORKLOADS[name].round(1, 0)
    assert instances
    for inst in instances:
        assert workloads.run_instance(inst) == [], inst.label
    report = workloads.self_test(instances)
    assert report["ok"], report["checks"]
