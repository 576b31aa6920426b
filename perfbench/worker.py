"""One repetition of one workload in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--size full|smoke]
        [--trace 0|1] [--spans FILE] [--setup-only]

Prints one JSON line: setup_s (import of hypnodal plus construction of the
workload's polygons and surfaces), wall_s (the workflow, gates excluded),
peak_rss_mb, lambda_err_est, the gates with their outcome, the observed
reference values and, with --trace 1, the per-layer metrics.  run.py starts
this script with BLAS/OpenMP threads pinned and PYTHONPATH set to src/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def trace_targets():
    """(span name, owner, attribute, observe) for every traced entry point."""
    from hypnodal import hypfem, hypgeo, hypmesh, nodal, surfglue

    t = [
        ("hypgeo.HyperbolicPolygon", hypgeo.HyperbolicPolygon, "__post_init__", False),
        ("hypfem.interp_build", hypfem.P1Interpolator, "__init__", False),
        ("hypfem.interp", hypfem.P1Interpolator, "__call__", False),
    ]
    funcs = {
        hypgeo: ("regular_right_polygon", "right_angled_hexagon", "polygon_area"),
        hypmesh: ("mesh_polygon",),
        hypfem: ("assemble", "reduce_system", "solve_lowest", "eigen_residuals", "solve_polygon", "richardson"),
        surfglue: (
            "quarter_octagon", "octagon_polygon", "pants_decagon", "pants_decagon_surface",
            "canonical_pants_surface", "genus2_surface", "genus3_surface", "audit_topology",
            "assemble_glued", "transport", "glued_residual", "solve_glued", "as_extended",
            "schwarz_extend", "extend_quarter_mode", "double_surface", "chart_interpolator",
            "scan_pants_patterns", "search_pants_gluing", "build_pattern_surface",
            "mirror_odd_eigenvector", "build_genus3",
        ),
        nodal: ("extract_nodal", "self_intersections", "geodesic_deviation", "euclidean_mesh_size"),
    }
    observed = {"mesh_polygon", "solve_lowest", "assemble_glued", "scan_pants_patterns",
                "search_pants_gluing", "extract_nodal"}
    for mod, names in funcs.items():
        layer = mod.__name__.rsplit(".", 1)[1]
        t += [(f"{layer}.{n}", mod, n, n in observed) for n in names]
    return t


def layer_metrics(tr) -> dict:
    """Per-layer metrics of one traced repetition (see README.md)."""
    from hypnodal import hypfem, hypmesh

    from tracer import LAYERS
    from workloads import ZERO_MODE

    meshes = [out for _, _, out in tr.calls("hypmesh.mesh_polygon")]
    solves = tr.calls("hypfem.solve_lowest")
    residual_max = 0.0
    for args, _, (vals, vecs) in solves:
        res = hypfem.eigen_residuals(args[0], args[1], vals, vecs)
        keep = abs(vals) > ZERO_MODE
        if keep.any():
            residual_max = max(residual_max, float(res[keep].max()))
    scored = sum(len(out) for _, _, out in tr.calls("surfglue.scan_pants_patterns"))
    nodal_sets = tr.calls("nodal.extract_nodal")
    comps = [c for _, _, ns in nodal_sets for c in ns.components]
    self_s = tr.self_times()
    m = {
        "hypgeo.polygon_s": tr.inclusive(
            ("hypgeo.HyperbolicPolygon", "hypgeo.regular_right_polygon",
             "hypgeo.right_angled_hexagon", "hypgeo.polygon_area")
        ),
        "hypmesh.mesh_s": tr.inclusive("hypmesh.mesh_polygon"),
        "hypmesh.mesh_calls": len(meshes),
        "hypmesh.nodes": sum(mesh.n_nodes for mesh in meshes),
        "hypmesh.min_angle_deg": min((hypmesh.min_angle_degrees(mesh) for mesh in meshes), default=0.0),
        "hypmesh.max_edge_hyp": max((float(mesh.hyp_edge_lengths().max()) for mesh in meshes), default=0.0),
        "hypfem.assemble_s": tr.inclusive("hypfem.assemble"),
        "hypfem.assemble_calls": tr.count("hypfem.assemble"),
        "hypfem.eigensolve_s": tr.inclusive("hypfem.solve_lowest"),
        "hypfem.eigensolve_calls": len(solves),
        "hypfem.eigensolve_dofs_max": max((args[0].shape[0] for args, _, _ in solves), default=0),
        "hypfem.residual_max": residual_max,
        "hypfem.interp_s": tr.inclusive("hypfem.interp"),
        "hypfem.interp_calls": tr.count("hypfem.interp"),
        "surfglue.scan_s": tr.inclusive("surfglue.scan_pants_patterns"),
        "surfglue.patterns_scored": scored,
        "surfglue.patterns_accepted": sum(len(out) for _, _, out in tr.calls("surfglue.search_pants_gluing")),
        "surfglue.interp_calls_per_pattern": (
            tr.count_within("hypfem.interp", "surfglue.scan_pants_patterns") / scored if scored else 0.0
        ),
        "surfglue.audit_calls": tr.count("surfglue.audit_topology"),
        "surfglue.glue_s": tr.inclusive("surfglue.assemble_glued"),
        "surfglue.glue_calls": tr.count("surfglue.assemble_glued"),
        "surfglue.glued_dofs_max": max((out.n_dofs for _, _, out in tr.calls("surfglue.assemble_glued")), default=0),
        "surfglue.transport_s": tr.inclusive("surfglue.transport"),
        "surfglue.extend_s": tr.inclusive(("surfglue.schwarz_extend", "surfglue.double_surface")),
        "surfglue.mirror_odd_s": tr.inclusive("surfglue.mirror_odd_eigenvector"),
        "nodal.extract_s": tr.inclusive("nodal.extract_nodal"),
        "nodal.triangles_scanned": sum(args[0].n_triangles for args, _, _ in nodal_sets),
        "nodal.segments": sum(len(c.points) - 1 + int(c.closed) for c in comps),
        "nodal.components": len(comps),
        "nodal.crossings": sum(len(ns.crossing_points) for _, _, ns in nodal_sets),
        "nodal.selfint_s": tr.inclusive("nodal.self_intersections"),
        "trace.spans": len(tr.spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def calibrate() -> float:
    """Seconds this process takes for a fixed mix of interpreter loops, array
    sorting and a sparse LU solve: a probe of the host's speed right now."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    t = time.perf_counter()
    acc = 0
    for k in range(1_000_000):
        acc += k * k % 7
    x = np.sin(np.arange(1_000_000, dtype=float))
    for _ in range(5):
        x = np.sort(x * 1.0001)
    n = 150
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)).tocsc()
    splu(a).solve(np.ones(n * n))
    return time.perf_counter() - t


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", default=None, help="write the spans of a traced run here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads  # imports numpy, scipy and hypnodal

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    out = {"workload": args.workload, "seed": args.seed, "size": args.size}
    gates = workloads.Gates()
    tr = None
    with contextlib.ExitStack() as stack:
        if args.trace:
            from tracer import Tracer

            tr = Tracer()
            stack.enter_context(tr.installed(trace_targets()))
        with tr.span("bench.setup") if tr else contextlib.nullcontext():
            wl.setup()
        out["setup_s"] = time.perf_counter() - _T0
        if args.setup_only:
            out["calib_s"] = calibrate()
            print(json.dumps(out))
            return 0
        t1 = time.perf_counter()
        try:
            with tr.span("bench.workload") if tr else contextlib.nullcontext():
                wl.run()
            completed = True
        except Exception:  # a failing workflow is a failed gate, not a crashed benchmark
            traceback.print_exc()
            completed = False
        out["wall_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gates.check("workflow completed", completed)
    out.update(lambda_err_est=None, env=environment())
    if completed:
        ref = load_reference().get(args.size, {}).get(args.workload, {})
        wl.check(gates, ref)
        out["lambda_err_est"] = wl.lambda_err_est()
        out["observations"] = wl.observations()
        if tr:
            out["layers"] = layer_metrics(tr)
            for key, want in ref.get("traced_counts", {}).items():
                gates.reference(key, out["layers"][key], want)
            res = out["layers"]["hypfem.residual_max"]
            gates.check(
                f"eigen residual of every lambda > 0 mode below {workloads.RESIDUAL_TOL}",
                res < workloads.RESIDUAL_TOL,
                res,
            )
    if tr and args.spans:
        tr.dump(args.spans)
    out["gates"] = gates.rows
    out["calib_s"] = calibrate()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
