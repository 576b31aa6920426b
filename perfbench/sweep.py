"""Repeat benchmark runs over seeds and compare sets of runs.

Run every workload of BENCHMARK.json for its run_seconds on seeds 0-9,
once per checkout, alternating which checkout goes first from one seed to
the next:

    python3 perfbench/sweep.py run --seeds 0-9 --out perfbench/results/sweep.jsonl \
        [--checkout parent=../hypnodal-parent --checkout change=.]

Each line of the output file holds one run: label, workload, seed and the
run's result object (the last line run.py printed).  Summarize and compare:

    python3 perfbench/sweep.py compare perfbench/results/sweep.jsonl [more.jsonl ...]

For every workload and end-to-end metric, compare prints each label's
median and quartiles and the quartile spread as a share of the median.
With two labels it also prints the change of the second label's median
against the first, checked against the bound in BENCHMARK.json, and the
share of seeds on which the second label was better.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_run(args, bench) -> int:
    checkouts = [c.split("=", 1) for c in args.checkout] or [["this", os.path.dirname(HERE)]]
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for i, seed in enumerate(parse_seeds(args.seeds)):
                order = checkouts if i % 2 == 0 else checkouts[::-1]
                for label, path in order:
                    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                    proc = subprocess.run(cmd, cwd=path, stdout=subprocess.PIPE, text=True, timeout=900)
                    if proc.returncode != 0:
                        print(f"{label} {workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                        return 1
                    report = proc.stdout.strip().splitlines()
                    result = json.loads(report[-1])
                    out.write(json.dumps({"label": label, "workload": workload, "seed": seed,
                                          "result": result}) + "\n")
                    out.flush()
                    print(f"[{label}] correct={result['correct']} " + "\n".join(report[:-1]), flush=True)
    return 0


def spread(vals) -> tuple:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med,) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_compare(args, bench) -> int:
    rows = [json.loads(line) for path in args.files for line in open(path) if line.strip()]
    labels = list(dict.fromkeys(r["label"] for r in rows))
    metrics = bench["end_to_end"]
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in rows):
        print(f"{workload}")
        sub = [r for r in rows if r["workload"] == workload]
        bad = [r for r in sub if not r["result"]["correct"]]
        if bad:
            ok = False
            print(f"  {len(bad)} runs not correct")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            per = {}
            for label in labels:
                vals = {r["seed"]: r["result"]["metrics"][name]["value"] for r in sub if r["label"] == label}
                if not vals:
                    continue
                per[label] = vals
                med, q1, q3, sp = spread(list(vals.values()))
                flag = "" if sp <= bound / 3 else "  SPREAD ABOVE BOUND/3"
                if sp > bound:
                    ok = False
                print(f"  {name:15s} {label:8s} n={len(vals):2d} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                      f"  spread {100 * sp:.2f}% (bound {100 * bound:.0f}%){flag}")
            if len(per) == 2:
                (la, a), (lb, b) = per.items()
                ma, mb = statistics.median(a.values()), statistics.median(b.values())
                worse = (mb - ma) / ma if lower else (ma - mb) / ma
                seeds = sorted(set(a) & set(b))
                wins = sum((b[s] < a[s]) if lower else (b[s] > a[s]) for s in seeds)
                verdict = "within bound" if worse <= bound else "WORSE THAN BOUND"
                if worse > bound:
                    ok = False
                print(f"  {name:15s} {lb} vs {la}: {100 * worse:+.2f}% worse ({verdict}); "
                      f"{lb} better on {wins}/{len(seeds)} seeds")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="0-9")
    r.add_argument("--out", required=True)
    r.add_argument("--checkout", action="append", default=[], help="label=path, repeatable")
    c = sub.add_parser("compare")
    c.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    return cmd_run(args, bench) if args.cmd == "run" else cmd_compare(args, bench)


if __name__ == "__main__":
    sys.exit(main())
