"""The three benchmark workflows and their correctness gates.

Each workload is a class with three steps, all through the public API of
hypnodal:

    setup()   build what run() and the area oracle use; run the oracle
    run()     the timed workflow; stores what the gates need on self
    check()   the correctness gates, against the recorded references

lambda_err_est() is the relative eigenvalue error estimate of the run,
computed from the run's own outputs (see README.md).

observations() returns the values recorded in reference.json (eigenvalues,
dof, pattern and nodal counts), so reference.py and the gates read the same
numbers.
"""

from __future__ import annotations

import math

import numpy as np

from hypnodal import hypfem, hypgeo, nodal, surfglue

# Quarter-octagon mixed problem: continuum limit from an independent
# discretization study (the tier-1 tests freeze the same value).
MIXED_QUARTER_LIMIT = 3.8390

# Boundary lengths the seed picks for genus3-build.  All of them give the
# pants decagon the same 115,585-node mesh at h = 0.06 and relative
# eigenvalue errors within a few percent of each other, so times and
# accuracy stay comparable across seeds; l = 2.0 is the paper's and the
# tests' value.
BOUNDARY_LENGTHS = (2.0, 1.9, 2.1, 1.95, 2.05)

# Resolutions per size.  "full" is the benchmark; "smoke" is the coarsest
# level of each workflow, used by the self-tests.
SIZES = {
    "full": {"quarter_h": (0.16, 0.08, 0.04, 0.02), "octagon_h": 0.16, "genus3_h": 0.06},
    "smoke": {"quarter_h": (0.16, 0.08, 0.04), "octagon_h": 0.16, "genus3_h": 0.24},
}

RESIDUAL_TOL = 1e-8  # eigen, glued and extension residuals of lambda > 0 modes
ZERO_MODE = 1e-6  # |lambda| below this is the Neumann zero mode, gated by its oracle
LAMBDA_REL_TOL = 1e-7  # eigenvalues against the recorded references


def boundary_length(seed: int) -> float:
    return BOUNDARY_LENGTHS[seed % len(BOUNDARY_LENGTHS)]


class Gates:
    """Named pass/fail checks; a failed gate keeps the offending value."""

    def __init__(self):
        self.rows = []

    def check(self, name: str, ok, value=None) -> None:
        self.rows.append({"gate": name, "ok": bool(ok), "value": _plain(value)})

    def reference(self, name: str, got, ref) -> None:
        """Exact match for counts, relative LAMBDA_REL_TOL for floats."""
        if ref is None:
            self.check(f"{name} recorded", False, got)
        elif isinstance(ref, float):
            self.check(f"{name} matches reference", abs(got - ref) <= LAMBDA_REL_TOL * abs(ref), got)
        else:
            self.check(f"{name} matches reference", got == ref, got)

    @property
    def failed(self) -> list:
        return [r for r in self.rows if not r["ok"]]


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def lumped_mass_estimate(M, v) -> float:
    """Half the relative gap between the Rayleigh quotients of v with the
    consistent and the row-lumped mass matrix: an O(h^2) estimate of the
    relative P1 eigenvalue error from the run's own mass matrix and vector."""
    lumped = np.asarray(M.sum(axis=1)).ravel()
    return abs(float(v @ (M @ v)) / float(v @ (lumped * v)) - 1.0) / 2.0


def _lowest_nonzero_residuals(values, residuals) -> float:
    keep = np.abs(np.asarray(values)) > ZERO_MODE
    return float(np.max(np.asarray(residuals)[keep])) if keep.any() else 0.0


class QuarterSweep:
    """solve_polygon on the quarter octagon at nested levels, then richardson."""

    name = "quarter-sweep"

    def __init__(self, seed: int, size: str):
        self.levels = SIZES[size]["quarter_h"]

    def setup(self):
        self.poly = surfglue.quarter_octagon()
        self.area = hypgeo.polygon_area(self.poly)

    def run(self):
        self.modes = [hypfem.solve_polygon(self.poly, h, k=1) for h in self.levels]
        self.limit, self.ratios, self.err = hypfem.richardson(
            [float(m.values[0]) for m in self.modes]
        )

    def lambda_err_est(self) -> float:
        return self.err / abs(self.limit)

    def observations(self) -> dict:
        return {
            "nodes": [m.mesh.n_nodes for m in self.modes],
            "free_dofs": [len(m.free) for m in self.modes],
            "lambda": [float(m.values[0]) for m in self.modes],
            "limit": self.limit,
        }

    def check(self, g: Gates, ref: dict) -> None:
        g.check("area oracle: pi/2 from the angle defect", abs(self.area - math.pi / 2) < 1e-12, self.area)
        mass = hypfem.total_mass(self.modes[-1].M)
        g.check("finest mass within 5e-4 of the area", abs(mass - self.area) / self.area < 5e-4, mass)
        lam = [float(m.values[0]) for m in self.modes]
        for h, m in zip(self.levels, self.modes):
            res = _lowest_nonzero_residuals(m.values, m.residuals)
            g.check(f"eigen residual at h={h} below {RESIDUAL_TOL}", res < RESIDUAL_TOL, res)
        g.check("lambda decreases under refinement", all(a > b for a, b in zip(lam, lam[1:])), lam)
        g.check("Richardson ratios in [3, 5]", all(3.0 <= r <= 5.0 for r in self.ratios), self.ratios)
        g.check(
            "Richardson limit within 1e-3 of 3.8390",
            abs(self.limit - MIXED_QUARTER_LIMIT) < 1e-3,
            self.limit,
        )
        obs = self.observations()
        g.reference("node counts", obs["nodes"], ref.get("nodes"))
        for i, (got, want) in enumerate(zip(lam, ref.get("lambda", [None] * len(lam)))):
            g.reference(f"lambda at h={self.levels[i]}", got, want)


class Genus2Search:
    """Octagon extension and pants search, then the genus-2 eigenfunction."""

    name = "genus2-search"

    def __init__(self, seed: int, size: str):
        self.h = SIZES[size]["octagon_h"]

    def setup(self):
        self.octagon = surfglue.octagon_polygon()
        self.surface = surfglue.genus2_surface()
        self.area = hypgeo.polygon_area(self.octagon)

    def run(self):
        self.ext = surfglue.extend_quarter_mode(self.h)
        self.accepted = surfglue.search_pants_gluing(self.ext)
        self.modes = hypfem.solve_polygon(self.octagon, self.h, k=6, essential_labels=())
        self.lam, self.v = surfglue.mirror_odd_eigenvector(self.modes, MIXED_QUARTER_LIMIT)
        self.system = surfglue.assemble_glued(self.surface, self.modes.mesh)
        vg = surfglue.transport(self.system, self.v, consistency_tol=1e-8)
        self.residual = surfglue.glued_residual(self.system, self.lam, vg)
        self.nodal = nodal.extract_nodal(self.modes.mesh, self.v, zero_tol=1e-7)
        self.hits = nodal.self_intersections(self.nodal)

    def lambda_err_est(self) -> float:
        return lumped_mass_estimate(self.modes.M, self.v)

    def observations(self) -> dict:
        return {
            "extension_dofs": self.ext.system.n_dofs,
            "octagon_nodes": self.modes.mesh.n_nodes,
            "genus2_dofs": self.system.n_dofs,
            "patterns_accepted": len(self.accepted),
            "lambda_odd": self.lam,
            "nodal_components": len(self.nodal.components),
            "nodal_crossings": len(self.nodal.crossing_points),
            "self_intersections": len(self.hits),
        }

    def check(self, g: Gates, ref: dict) -> None:
        g.check("area oracle: 2 pi from the angle defect", abs(self.area - 2 * math.pi) < 1e-12, self.area)
        mass = hypfem.total_mass(self.system.M)
        g.check("genus-2 mass within 2e-2 of 4 pi", abs(mass - 4 * math.pi) / (4 * math.pi) < 2e-2, mass)
        g.check(f"extension residual below {RESIDUAL_TOL}", self.ext.residual < RESIDUAL_TOL, self.ext.residual)
        found = {frozenset(frozenset(p) for p in r.pairs) for r in self.accepted}
        for diag in (((7, 1), (3, 5)), ((1, 3), (5, 7))):
            g.check(f"diagonal pairing {diag} accepted", frozenset(frozenset(p) for p in diag) in found)
        g.check("every accepted pattern is a pants", all(r.is_pants() for r in self.accepted))
        vals, vecs = self.modes.values, self.modes.vectors
        g.check("Neumann lambda_0 = 0", abs(vals[0]) < 1e-8, vals[0])
        spread = float(np.std(vecs[:, 0]) / np.max(np.abs(vecs[:, 0])))
        g.check("Neumann mode 0 is constant", spread < 1e-6, spread)
        res = _lowest_nonzero_residuals(vals, self.modes.residuals)
        g.check(f"eigen residual of lambda > 0 modes below {RESIDUAL_TOL}", res < RESIDUAL_TOL, res)
        g.check("mirror-odd lambda within 2e-2 of 3.8390", abs(self.lam - MIXED_QUARTER_LIMIT) < 2e-2, self.lam)
        g.check(f"genus-2 glued residual below {RESIDUAL_TOL}", self.residual < RESIDUAL_TOL, self.residual)
        rep = surfglue.audit_topology(self.surface)
        g.check("genus-2 surface is closed of genus 2", rep.closed and rep.genus == 2, rep.chi)
        comps, crossings = self.nodal.components, self.nodal.crossing_points
        g.check("nodal set has 2 components", len(comps) == 2, len(comps))
        h = nodal.euclidean_mesh_size(self.modes.mesh)
        mirrors = (surfglue.REAL_MIRROR, surfglue.IMAG_MIRROR)
        dev = max(min(nodal.geodesic_deviation(c, m) for m in mirrors) for c in comps)
        g.check("nodal components within 2h of the mirrors", dev <= 2 * h, dev)
        g.check(
            "one orthogonal nodal crossing",
            len(crossings) == 1 and abs(crossings[0][1] - math.pi / 2) <= 0.05,
            [a for _, a in crossings],
        )
        g.check(
            "one orthogonal self-intersection",
            len(self.hits) == 1 and abs(self.hits[0][1] - math.pi / 2) <= 0.05,
            [a for _, a in self.hits],
        )
        obs = self.observations()
        for key in ("extension_dofs", "octagon_nodes", "genus2_dofs", "patterns_accepted"):
            g.reference(key, obs[key], ref.get(key))
        g.reference("mirror-odd lambda", self.lam, ref.get("lambda_odd"))


class Genus3Build:
    """build_genus3 at scale, then the nodal set on the base chart."""

    name = "genus3-build"

    def __init__(self, seed: int, size: str):
        self.l = boundary_length(seed)
        self.h = SIZES[size]["genus3_h"]

    def setup(self):
        self.area = hypgeo.polygon_area(surfglue.pants_decagon(self.l, self.l, self.l))

    def run(self):
        self.g3 = surfglue.build_genus3(self.l, h_target=self.h)
        self.nodal = nodal.extract_nodal(self.g3.system.base_mesh, self.g3.base_vector, zero_tol=1e-7)
        self.hits = nodal.self_intersections(self.nodal)

    def lambda_err_est(self) -> float:
        return lumped_mass_estimate(self.g3.system.M, self.g3.vector)

    def observations(self) -> dict:
        return {
            "base_nodes": self.g3.system.base_mesh.n_nodes,
            "glued_dofs": self.g3.system.n_dofs,
            "lambda": self.g3.lam,
            "nodal_components": len(self.nodal.components),
            "nodal_crossings": len(self.nodal.crossing_points),
            "self_intersections": len(self.hits),
        }

    def check(self, g: Gates, ref: dict) -> None:
        g3, mesh = self.g3, self.g3.system.base_mesh
        g.check("area oracle: 2 pi from the angle defect", abs(self.area - 2 * math.pi) < 1e-9, self.area)
        mass = hypfem.total_mass(g3.system.M)
        g.check("genus-3 mass within 2e-2 of 8 pi", abs(mass - 8 * math.pi) / (8 * math.pi) < 2e-2, mass)
        rep = surfglue.audit_topology(g3.surface)
        g.check("audit_topology gives a closed genus 3", rep.closed and rep.genus == 3 and rep.chi == -4, rep.chi)
        g.check(f"genus-3 glued residual below {RESIDUAL_TOL}", g3.residual < RESIDUAL_TOL, g3.residual)
        g.check("lambda > 0", g3.lam > ZERO_MODE, g3.lam)
        u = g3.base_vector
        g.check("ground state positive off the circles", np.min(u) > -1e-10 * np.max(u), float(np.min(u)))
        comps = self.nodal.components
        g.check("nodal set has 1 component", len(comps) == 1, len(comps))
        if comps:
            poly = mesh.polygon
            geo = hypgeo.geodesic_between(poly.vertices[4], poly.vertices[6])
            dev = nodal.geodesic_deviation(comps[0], geo)
            h = nodal.euclidean_mesh_size(mesh)
            g.check("nodal component within 2h of the closing geodesic", dev <= 2 * h, dev)
        g.check("no nodal self-intersection", not self.hits, len(self.hits))
        obs = self.observations()
        want = ref.get(repr(self.l), {})
        for key in ("base_nodes", "glued_dofs"):
            g.reference(key, obs[key], want.get(key))
        g.reference(f"lambda at l={self.l}", g3.lam, want.get("lambda"))


WORKLOADS = {w.name: w for w in (QuarterSweep, Genus2Search, Genus3Build)}
