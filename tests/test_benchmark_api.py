"""The benchmark's workloads call hypnodal's public API with keywords and
positional orders of their own; a signature change that breaks them must
fail here, not only in a benchmark run.  Each workload runs at its smoke
size and every gate must pass against the recorded smoke references."""

import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["quarter-sweep", "genus2-search", "genus3-build"])
def test_smoke_workload_passes_every_gate(name):
    workloads = load_workloads()
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        ref = json.load(fh)["smoke"][name]
    wl = workloads.WORKLOADS[name](0, "smoke")
    wl.setup()
    wl.run()
    gates = workloads.Gates()
    wl.check(gates, ref)
    assert gates.rows
    assert gates.failed == []
