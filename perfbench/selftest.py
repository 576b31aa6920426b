"""Self-tests of the benchmark (not collected by the repository's test run).

    python3 -m pytest -q perfbench/selftest.py

Smoke-runs every workload at its coarsest level through run.py, untraced
and traced, and checks the output format against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import LAYERS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, out, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke", "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    done = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(w, trace, out)
            assert proc.returncode == 0, proc.stderr
            done[w, trace] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
    return out, done


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_metrics_match_benchmark_json(runs, workload, trace):
    stdout, result = runs[1][workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if not trace:
        for m in declared:
            assert m["name"] in stdout
        assert "failed_checks" in stdout


def test_traced_runs_cover_every_layer(runs):
    out, done = runs
    seen = {}
    for w in WORKLOADS:
        with open(out / f"spans-{w}-seed0-smoke-trace1-rep0.json") as fh:
            seen[w] = {s["name"].split(".", 1)[0] for s in json.load(fh)["spans"]}
    assert set(LAYERS) <= seen["genus2-search"]
    assert set(LAYERS) <= seen["genus3-build"]
    assert {"hypgeo", "hypmesh", "hypfem", "surfglue"} <= seen["quarter-sweep"]


def test_pattern_counts_in_traced_run(runs):
    metrics = runs[1]["genus2-search", 1][1]["metrics"]
    assert metrics["surfglue.patterns_scored"]["value"] == 840
    per_pattern = metrics["surfglue.interp_calls_per_pattern"]["value"]
    assert metrics["hypfem.interp_calls"]["value"] == pytest.approx(840 * per_pattern)


def test_results_file_records_environment(runs):
    with open(runs[0] / "quarter-sweep-seed0-smoke-trace0.json") as fh:
        env = json.load(fh)["env"]
    for key in ("git_sha", "src_sha256", "python", "numpy", "scipy", "nproc", "threads", "seed"):
        assert key in env
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("genus2-search", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [["bench.workload", -1, 0.0, 10.0], ["surfglue.a", 0, 1.0, 6.0],
                ["hypfem.b", 1, 2.0, 5.0], ["hypfem.b", 0, 7.0, 8.0]]
    assert tr.self_times() == {"bench": 4.0, "surfglue": 2.0, "hypfem": 4.0}
    assert tr.inclusive("hypfem.b") == 4.0
    assert tr.count_within("hypfem.b", "surfglue.a") == 1


def test_patches_are_restored():
    from hypnodal import hypfem, surfglue

    before = (hypfem.solve_lowest, surfglue.mesh_polygon, hypfem.P1Interpolator.__call__)
    tr = Tracer()
    with tr.installed([("hypfem.solve_lowest", hypfem, "solve_lowest", False),
                       ("hypmesh.mesh_polygon", sys.modules["hypnodal.hypmesh"], "mesh_polygon", False),
                       ("hypfem.interp", hypfem.P1Interpolator, "__call__", False)]):
        assert surfglue.mesh_polygon is not before[1]
        assert hypfem.mesh_polygon is surfglue.mesh_polygon
    assert (hypfem.solve_lowest, surfglue.mesh_polygon, hypfem.P1Interpolator.__call__) == before
