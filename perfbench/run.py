"""Benchmark entry point for hypnodal: three paper workflows, timed end to end.

    python3 perfbench/run.py --workload quarter-sweep|genus2-search|genus3-build
        --seed N --seconds S --trace 0|1 [--size full|smoke] [--out DIR]

Run from the repository root.  Every repetition is a fresh single-threaded
process (perfbench/worker.py) started with BLAS/OpenMP pinned to one
thread.  The loop is closed with one caller: a repetition starts only after
the previous one ended, and no repetition starts that would not end within
--seconds at the pace measured so far (at least one always runs).  Before
the loop, three set-up-only processes give extra set-up samples.

--trace 0 reports the end-to-end metrics (medians over the repetitions that
passed every gate, none if no repetition passed; times scaled to a reference
host speed, see CALIBRATION_REF_S); --trace 1 alternates traced and
untraced repetitions and reports the per-layer metrics plus the tracing
overhead.  The last line of stdout is one JSON object: correct, attempted
and failed (correctness gates over all repetitions) and metrics.  A results file with the environment,
every sample and every failed gate goes to --out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_ONLY_RUNS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# The host this runs on is shared: its speed drifts by 20-40 % over tens of
# minutes.  Every process also times a fixed probe (worker.calibrate), and
# the reported wall_s and setup_s are scaled to a host on which that probe
# takes CALIBRATION_REF_S.  The raw times stay in the output and results.
CALIBRATION_REF_S = 0.300


def declared_metrics() -> tuple:
    """(end-to-end, per-layer) metric units from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing program, crashed worker)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, trace: bool = False, setup_only: bool = False, spans=None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time budget of one run exhausted")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run budget: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def summarize(values) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if n >= 2 else (vals[0],) * 3
    pct = None
    if n > 20:  # with fewer samples the allowed percentile is not above the median
        p = 100 * (n - 10) // n
        pct = {"p": p, "value": vals[-(-p * n // 100) - 1]}
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": n, "percentile": pct}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hypnodal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("quarter-sweep", "genus2-search", "genus3-build"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--out", default=os.path.join("perfbench", "results"))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hypnodal", "__init__.py")):
        print("perfbench: src/hypnodal not found; run from a hypnodal checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    deadline = time.perf_counter() + RUN_BUDGET_S
    os.makedirs(args.out, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"

    try:
        setups = [run_worker(args, deadline, setup_only=True) for _ in range(SETUP_ONLY_RUNS)]
        plain, traced, spans_files = [], [], []
        t_loop = time.perf_counter()
        while True:
            if args.trace:
                spans = os.path.join(args.out, f"spans-{tag}-rep{len(traced)}.json")
                traced.append(run_worker(args, deadline, trace=True, spans=spans))
                spans_files.append(spans)
            plain.append(run_worker(args, deadline))
            elapsed = time.perf_counter() - t_loop
            if elapsed + elapsed / len(plain) > args.seconds:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    gates = [g for r in reps for g in r["gates"]]
    failures = sorted({g["gate"] for g in gates if not g["ok"]})

    def passed(r):
        return all(g["ok"] for g in r["gates"])

    # a repetition that failed a gate is no sample; it stays in the results file
    clean = [r for r in plain if passed(r)]
    clean_traced = [r for r in traced if passed(r)]
    correct = not failures

    calib = [r["calib_s"] for r in setups + reps]
    scale = CALIBRATION_REF_S / statistics.median(calib)
    samples = {
        "wall_s": [r["wall_s"] * scale for r in clean],
        "setup_s": [r["setup_s"] * scale for r in setups + clean],
        "peak_rss_mb": [r["peak_rss_mb"] for r in clean],
        "lambda_err_est": [r["lambda_err_est"] for r in clean],
        "wall_raw_s": [r["wall_s"] for r in clean],
        "setup_raw_s": [r["setup_s"] for r in setups + clean],
        "calib_s": calib,
    }
    stats = {k: summarize(v) for k, v in samples.items() if v}
    if args.trace:
        layers = {}
        if clean_traced and clean:
            layered = [r["layers"] for r in clean_traced]
            # median_low keeps counts integral: it is always one of the samples
            layers = {k: statistics.median_low(r[k] for r in layered) for k in layered[0]}
            layers["trace.overhead_s"] = (
                statistics.median(r["wall_s"] for r in clean_traced) - stats["wall_raw_s"]["median"]
            )
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer.items() if k in layers}
    elif clean:
        metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in end_to_end.items()}
    else:
        metrics = {}

    first = reps[0]
    results = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "loop": "closed, one caller",
        "env": {
            "git_sha": git_sha(), "src_sha256": src_sha256(), **first.get("env", {}),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "seed": args.seed,
        },
        "stats": stats,
        "failed_checks": {"attempted": len(gates), "failed": sum(not g["ok"] for g in gates),
                          "gates": failures},
        "observations": first.get("observations"),
        "metrics": metrics,
        "spans_files": spans_files,
        "repetitions": reps,
        "setup_only": setups,
    }
    with open(os.path.join(args.out, f"{tag}.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    _report(args, stats, end_to_end, metrics, results["failed_checks"], len(clean), len(plain))
    print(json.dumps({"correct": correct, "attempted": len(gates),
                      "failed": results["failed_checks"]["failed"], "metrics": metrics}))
    return 0


def _report(args, stats, units, metrics, checks, n_clean, n_plain) -> None:
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    for k, s in stats.items():
        pct = (f"p{s['percentile']['p']} {s['percentile']['value']:.6g}" if s["percentile"]
               else "no percentile with 10 samples beyond it")
        print(f"  {k:16s} {s['median']:.6g} {units.get(k, 's')}  median of {s['n']} "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}; {pct})")
    frac = checks["failed"] / checks["attempted"] if checks["attempted"] else 0.0
    print(f"  {'failed_checks':16s} {frac:.6g} ratio  ({checks['failed']} of {checks['attempted']} gates; "
          f"{n_clean} of {n_plain} timed repetitions clean)")
    for gate in checks["gates"]:
        print(f"    FAILED: {gate}")
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k:34s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
