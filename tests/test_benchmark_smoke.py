"""One untimed pass of every benchmark workload, with the workload's own
output checks.

The benchmark in `perfbench/` calls covol by name (`voltage.smash_quiver`,
the `SparseVector` re-export of `coalgebra`, every CLI command), so a
deleted or renamed name would first show as failed benchmark ops.  This
test shows it in the test suite instead.  It has no timing bound.
"""

import importlib.util
import json
import os

import pytest

from corpus import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    WORKLOAD_NAMES = [w["name"] for w in json.load(_handle)["workloads"]]


def load_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_benchmark_workload_pass_passes_its_checks(name, monkeypatch):
    # Fixture paths are relative to the checkout root, and cli_sweep pins
    # COVOL_SEED in os.environ; monkeypatch undoes both afterwards.
    monkeypatch.chdir(ROOT)
    workloads = load_workloads()
    monkeypatch.setenv("COVOL_SEED", workloads.CSM_ISO_SEED)
    ops = workloads.WORKLOADS[name](1)
    assert ops
    failures = []
    for op in ops:
        error = op.check(op.run())
        if error is not None:
            failures.append("%s: %s" % (op.label, error))
    assert not failures, failures
