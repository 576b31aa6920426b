"""Record the reference values the benchmark gates check (reference.json).

    PYTHONPATH=src python3 perfbench/reference.py

Runs every workload once per size (genus3-build once per boundary length),
traced, in this process, and writes:

- per size and workload, the observations: eigenvalues, dof, node,
  pattern and nodal counts (gated on every run);
- traced_counts: result counts that only the tracer sees (gated in traced
  runs), and seed_layer_counts: every count metric, for comparison only.

Run it only on a commit whose numbers are meant to become the reference,
and say so in the change that commits the new file.
"""

from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from worker import REFERENCE, layer_metrics, trace_targets  # noqa: E402
from workloads import BOUNDARY_LENGTHS, SIZES, WORKLOADS  # noqa: E402

GATED_COUNTS = {"genus2-search": ("surfglue.patterns_scored",)}


def observe(name: str, seed: int, size: str) -> dict:
    wl = WORKLOADS[name](seed, size)
    tr = Tracer()
    with tr.installed(trace_targets()):
        wl.setup()
        wl.run()
    layers = layer_metrics(tr)
    counts = {k: v for k, v in layers.items() if isinstance(v, int) and k != "trace.spans"}
    rec = wl.observations()
    rec["traced_counts"] = {k: counts[k] for k in GATED_COUNTS.get(name, ())}
    rec["seed_layer_counts"] = counts
    return rec


def main() -> int:
    ref = {}
    for size in SIZES:
        ref[size] = {
            "quarter-sweep": observe("quarter-sweep", 0, size),
            "genus2-search": observe("genus2-search", 0, size),
            "genus3-build": {
                repr(length): observe("genus3-build", seed, size)
                for seed, length in enumerate(BOUNDARY_LENGTHS)
            },
        }
        print(f"recorded {size}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
