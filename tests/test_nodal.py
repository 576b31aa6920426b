"""Nodal set extraction, geodesic deviation, and self-intersections.

Synthetic fixtures use hand-built triangle soups and curves with known
zero sets; the surface-level fixtures reuse the octagon construction
whose nodal set must trace the two orthogonal mirror diameters.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnodal import hypfem, hypmesh, nodal, surfglue
from hypnodal.hypgeo import Geodesic, apply, geodesic_between, translation

from test_hypgeo import grid_or_disk_points, reference_segment_intersection


def soup(nodes, triangles):
    return SimpleNamespace(
        nodes=np.asarray(nodes, dtype=np.complex128),
        triangles=np.asarray(triangles, dtype=np.int64),
    )


@pytest.fixture(scope="module")
def genus2_nodal(octagon_modes):
    lam, v = surfglue.mirror_odd_eigenvector(octagon_modes, 3.8390)
    ns = nodal.extract_nodal(octagon_modes.mesh, v, zero_tol=1e-7)
    return octagon_modes.mesh, v, ns


@pytest.mark.parametrize("extra", [50, -1])
def test_vector_that_does_not_fit_the_mesh_rejected(octagon_modes, extra):
    u = octagon_modes.vectors[:, 1]
    u = np.concatenate([u, np.ones(extra)]) if extra > 0 else u[:extra]
    with pytest.raises(nodal.NodalError, match=f"one value per mesh node: {len(octagon_modes.mesh.nodes)} nodes"):
        nodal.extract_nodal(octagon_modes.mesh, u)


def test_non_finite_vector_rejected(octagon_modes):
    n = octagon_modes.mesh.n_nodes
    with pytest.raises(nodal.NodalError, match=f"needs finite values: {n} of {n} are not"):
        nodal.extract_nodal(octagon_modes.mesh, np.full(n, np.nan))


class TestExtractSingleTriangles:
    def test_zero_vertex_to_opposite_edge_midpoint(self):
        m = soup([0.0, 1.0, 1j], [(0, 1, 2)])
        ns = nodal.extract_nodal(m, np.array([-1.0, 1.0, 0.0]))
        assert len(ns.components) == 1
        pts = set(map(nodal._point_key, ns.components[0].points))
        assert pts == {(0.5, 0.0), (0.0, 1.0)}
        assert not ns.components[0].closed
        assert ns.crossing_points == []

    def test_no_sign_change_no_segment(self):
        m = soup([0.0, 1.0, 1j], [(0, 1, 2)])
        ns = nodal.extract_nodal(m, np.array([1.0, 2.0, 3.0]))
        assert ns.components == []

    def test_identically_zero_rejected(self):
        m = soup([0.0, 1.0, 1j], [(0, 1, 2)])
        with pytest.raises(nodal.NodalError):
            nodal.extract_nodal(m, np.zeros(3))

    def test_two_triangle_chain(self):
        m = soup([0.0, 1.0, 1 + 1j, 1j], [(0, 1, 2), (0, 2, 3)])
        u = np.array([z.real - 0.5 for z in m.nodes])
        ns = nodal.extract_nodal(m, u)
        assert len(ns.components) == 1
        pl = ns.components[0].points
        assert len(pl) == 3
        assert np.allclose(pl.real, 0.5, atol=1e-12)
        assert abs(pl[0].imag - 0.0) < 1e-12 and abs(pl[-1].imag - 1.0) < 1e-12

    def test_shared_segment_emitted_once(self):
        # both triangles see the zero edge between the two zero vertices
        m = soup([0.0, 1.0, 1j, 1 + 1j], [(0, 1, 2), (1, 3, 2)])
        u = np.array([1.0, 0.0, 0.0, -1.0])
        ns = nodal.extract_nodal(m, u)
        assert len(ns.components) == 1
        assert len(ns.components[0].points) == 2


def reference_segments(mesh, u, zero_tol=1e-9):
    """Zero segments collected over every triangle, as (pts, segs) for _nodal_set."""
    u = np.asarray(u, dtype=float)
    nodes = np.asarray(mesh.nodes, dtype=np.complex128)
    zero = np.abs(u) <= zero_tol * float(np.max(np.abs(u)))
    sgn = np.where(zero, 0.0, np.sign(u))
    pts, segs = {}, set()

    def vkey(i):
        pts.setdefault(("v", i), complex(nodes[i]))
        return ("v", i)

    def ekey(i, j):
        lo, hi = min(i, j), max(i, j)
        t = u[lo] / (u[lo] - u[hi])
        pts.setdefault(("e", lo, hi), complex(nodes[lo] + t * (nodes[hi] - nodes[lo])))
        return ("e", lo, hi)

    for a, b, c in np.asarray(mesh.triangles, dtype=np.int64).tolist():
        ents = [vkey(i) for i in (a, b, c) if zero[i]]
        ents += [ekey(i, j) for i, j in ((a, b), (b, c), (c, a)) if sgn[i] * sgn[j] < 0]
        if len(ents) == 2:
            segs.add(tuple(sorted(ents)))
        elif len(ents) == 3:
            segs.update(tuple(sorted(pair)) for pair in ((ents[0], ents[1]), (ents[0], ents[2]), (ents[1], ents[2])))
    return pts, segs


def reference_extract(mesh, u, zero_tol=1e-9, chart=0):
    """Zero segments collected over every triangle, chained like extract_nodal:
    the reference for its crossed-triangle prefilter."""
    return nodal._nodal_set(*reference_segments(mesh, u, zero_tol), chart)


def assert_same_nodal_set(got, want):
    assert len(got.components) == len(want.components)
    for c, d in zip(got.components, want.components):
        assert np.array_equal(c.points, d.points)
        assert (c.closed, c.chart) == (d.closed, d.chart)
    assert got.crossing_points == want.crossing_points


class TestCrossedTrianglePrefilter:
    # fan of six triangles around node 0 on a unit hexagon ring
    FAN = soup([0.0] + [np.exp(1j * k * math.pi / 3) for k in range(6)], [(0, k, k % 6 + 1) for k in range(1, 7)])

    @pytest.mark.parametrize(
        "u",
        [
            [0.0, 1.0, -1.0, 0.0, 1.0, 1.0, -1.0],  # exact zero nodes
            [0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 3.0],  # an all-zero triangle (0, 1, 2)
            [0.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0],  # zero set touches the fan only at its hub
            [1.0, 1.0, 2.0, -1.0, 2.0, 1.0, 2.0],  # one vertex has the opposite sign
        ],
        ids=["zero-nodes", "all-zero-triangle", "touch-one-vertex", "one-vertex-sign-change"],
    )
    def test_equals_full_loop_on_fan(self, u):
        u = np.array(u)
        assert_same_nodal_set(nodal.extract_nodal(self.FAN, u), reference_extract(self.FAN, u))

    def test_equals_full_loop_on_mesh(self):
        mesh = hypmesh.mesh_polygon(surfglue.quarter_octagon(), 0.16)
        z = mesh.nodes
        u = np.round(8.0 * (z.real - 0.3) * (z.imag - 0.2), 1)  # rounding leaves exact zero nodes
        assert (u == 0.0).any()
        for tol in (1e-9, 0.05):
            got = nodal.extract_nodal(mesh, u, zero_tol=tol, chart=2)
            assert got.components
            assert_same_nodal_set(got, reference_extract(mesh, u, zero_tol=tol, chart=2))


def pinwheel():
    # fan of eight triangles around the origin; u = x*y vanishes on both axes
    ring = [0.9 * np.exp(1j * k * math.pi / 4) for k in range(8)]
    m = soup([0.0] + ring, [(0, k, k % 8 + 1) for k in range(1, 9)])
    u = np.array([z.real * z.imag for z in m.nodes])
    return m, u


class TestCrossingSplit:
    def test_degree_four_vertex_becomes_crossing(self):
        m, u = pinwheel()
        ns = nodal.extract_nodal(m, u)
        assert len(ns.crossing_points) == 1
        p, ang = ns.crossing_points[0]
        assert abs(p) < 1e-12
        assert abs(ang - math.pi / 2) < 1e-9
        # collinear halves merge back into two straight components
        assert len(ns.components) == 2
        for comp in ns.components:
            span = comp.points[-1] - comp.points[0]
            assert abs(span) > 1.7

    def test_merged_components_pass_through_crossing(self):
        m, u = pinwheel()
        ns = nodal.extract_nodal(m, u)
        for comp in ns.components:
            assert any(abs(p) < 1e-12 for p in comp.points)


def component_pairs(ns):
    """Consecutive point pairs of every component, the closing pair of a closed one included."""
    out = []
    for c in ns.components:
        pl = [complex(p) for p in c.points] + ([complex(c.points[0])] if c.closed else [])
        out += [frozenset(pq) for pq in zip(pl, pl[1:])]
    return out


class TestSegmentConservation:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_zero_segment_on_exactly_one_component(self, seed):
        mesh = hypmesh.mesh_polygon(surfglue.quarter_octagon(), 0.16)
        a, b = np.random.default_rng(seed).uniform(0.05, 0.45, 2)
        z = mesh.nodes
        u = np.round(8.0 * (z.real - a) * (z.imag - b), 1)  # exact zero nodes, crossings next to crossings
        pts, segs = reference_segments(mesh, u)
        want = Counter(frozenset((pts[k1], pts[k2])) for k1, k2 in segs)
        got = Counter(component_pairs(nodal.extract_nodal(mesh, u)))
        assert got == want
        assert set(got.values()) == {1}

    def test_segment_between_two_crossings_is_kept(self):
        # two "+" crossings on y = 0, joined by one segment
        pts = {"l": -0.2, "c0": 0.0, "c1": 0.2, "r": 0.4, "u0": 0.2j, "d0": -0.2j, "u1": 0.2 + 0.2j, "d1": 0.2 - 0.2j}
        pts = {k: complex(p) for k, p in pts.items()}
        segs = {("c0", "l"), ("c0", "c1"), ("c1", "r"), ("c0", "u0"), ("c0", "d0"), ("c1", "u1"), ("c1", "d1")}
        ns = nodal._nodal_set(pts, segs, 0)
        assert [p for p, _ in ns.crossing_points] == [0.0, 0.2]
        assert all(abs(ang - math.pi / 2) < 1e-12 for _, ang in ns.crossing_points)
        lines = sorted(tuple(c.points) for c in ns.components)
        assert lines == [(-0.2, 0.0, 0.2, 0.4), (-0.2j, 0.0, 0.2j), (0.2 - 0.2j, 0.2, 0.2 + 0.2j)]
        assert not any(c.closed for c in ns.components)

    def test_loop_straight_through_its_own_crossing_is_closed(self):
        # figure eight of two diamonds meeting at 0, each diagonal going straight on
        ring = [0.0, 1 + 1j, 2.0, 1 - 1j, 0.0, -1 + 1j, -2.0, -1 - 1j]
        keys = ["o", "a", "b", "c", "o", "d", "e", "f"]
        pts = {k: complex(p) for k, p in zip(keys, ring)}
        segs = {tuple(sorted((keys[i], keys[(i + 1) % 8]))) for i in range(8)}
        ns = nodal._nodal_set(pts, segs, 0)
        assert len(ns.components) == 1 and ns.components[0].closed
        assert len(ns.components[0].points) == 8
        assert Counter(component_pairs(ns)) == Counter(frozenset((pts[k1], pts[k2])) for k1, k2 in segs)
        ((p, ang),) = ns.crossing_points
        assert p == 0.0 and abs(ang - math.pi / 2) < 1e-12


class TestGeodesicDeviation:
    def test_points_on_diameter(self):
        g = Geodesic(0j, 0.5)
        pts = np.array([math.tanh(t / 2) for t in np.linspace(-1.5, 1.5, 21)])
        assert nodal.geodesic_deviation(pts.astype(complex), g) < 1e-12

    def test_equidistant_curve_measures_its_distance(self):
        d = 0.35
        g = Geodesic(0j, 0.5)
        base = 1j * math.tanh(d / 2)
        pts = np.array([apply(translation(t), base) for t in np.linspace(-1.2, 1.2, 41)])
        dev = nodal.geodesic_deviation(pts, g)
        assert abs(dev - d) < 1e-10

    def test_empty_polyline_rejected(self):
        with pytest.raises(nodal.NodalError):
            nodal.geodesic_deviation(np.array([], dtype=complex), Geodesic(0j, 0.5))


class TestSelfIntersections:
    def test_two_diameters_cross_once_orthogonally(self):
        t = np.linspace(-0.9, 0.9, 10)  # even count: no vertex at the origin
        ns = nodal.NodalSet(
            components=[
                nodal.NodalComponent(points=t.astype(complex)),
                nodal.NodalComponent(points=(1j * t).astype(complex)),
            ],
            crossing_points=[],
        )
        hits = nodal.self_intersections(ns)
        assert len(hits) == 1
        p, ang = hits[0]
        assert abs(p) < 1e-12
        assert abs(ang - math.pi / 2) < 1e-9

    def test_embedded_circle_has_none(self):
        th = np.linspace(0.0, 2 * math.pi, 65)[:-1]
        circle = 0.5 * np.exp(1j * th)
        ns = nodal.NodalSet(
            components=[nodal.NodalComponent(points=circle, closed=True)],
            crossing_points=[],
        )
        assert nodal.self_intersections(ns) == []

    def test_figure_eight_has_exactly_one(self):
        th = np.linspace(-math.pi / 4, math.pi / 4, 49)[1:-1]
        lobe = 0.6 * np.sqrt(np.cos(2 * th)) * np.exp(1j * th)
        pts = np.concatenate([[0.0], lobe, [0.0], -lobe])
        ns = nodal.NodalSet(
            components=[nodal.NodalComponent(points=pts.astype(complex), closed=True)],
            crossing_points=[],
        )
        hits = nodal.self_intersections(ns)
        assert len(hits) == 1
        p, ang = hits[0]
        assert abs(p) < 1e-12
        assert abs(ang - math.pi / 2) < 0.1

    def test_open_polyline_first_and_last_segments_can_cross(self):
        hook = np.array([0.0, 1.0, 1.0 + 1.0j, 0.5 - 0.5j], dtype=complex)
        ns = nodal.NodalSet(
            components=[nodal.NodalComponent(points=hook)],
            crossing_points=[],
        )
        assert len(nodal.self_intersections(ns)) == 1


def reference_self_intersections(ns):
    """The pairwise scalar scan that self_intersections replaced."""
    segs = []
    for ci, comp in enumerate(ns.components):
        pl = comp.points
        n = len(pl)
        for i in range(n - 1):
            segs.append((ci, i, complex(pl[i]), complex(pl[i + 1])))
        if comp.closed and n >= 3:
            segs.append((ci, n - 1, complex(pl[-1]), complex(pl[0])))
    seen = {}
    sizes = [len(c.points) + (1 if c.closed else 0) for c in ns.components]
    for a in range(len(segs)):
        ca, ia, p1, p2 = segs[a]
        for b in range(a + 1, len(segs)):
            cb, ib, p3, p4 = segs[b]
            if ca == cb:
                gap = abs(ia - ib)
                if gap == 1:
                    continue
                if ns.components[ca].closed and gap == sizes[ca] - 2:
                    continue
            hit = reference_segment_intersection(p1, p2, p3, p4)
            if hit is None:
                continue
            ang = nodal._fold_line_angle(nodal._line_angle(p2 - p1) - nodal._line_angle(p4 - p3))
            if ang < 1e-3:
                continue
            key = (round(hit.real, 7), round(hit.imag, 7))
            if key not in seen:
                seen[key] = (hit, ang)
    return [seen[k] for k in sorted(seen)]


polylines = st.lists(
    st.builds(
        lambda pts, closed: nodal.NodalComponent(points=np.array(pts, dtype=complex), closed=closed),
        st.lists(grid_or_disk_points(), max_size=10),
        st.booleans(),
    ),
    max_size=4,
)


class TestSelfIntersectionsReference:
    @given(polylines)
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_scan(self, comps):
        ns = nodal.NodalSet(components=comps, crossing_points=[])
        assert nodal.self_intersections(ns) == reference_self_intersections(ns)

    def test_surface_nodal_sets_match_pairwise_scan(self, genus2_nodal, g3):
        g3_nodal = nodal.extract_nodal(g3.system.base_mesh, g3.base_vector, zero_tol=1e-7)
        for ns in (genus2_nodal[2], g3_nodal):
            assert nodal.self_intersections(ns) == reference_self_intersections(ns)


class TestOctagonNodalSet:
    def test_two_components_tracing_the_mirrors(self, genus2_nodal):
        mesh, v, ns = genus2_nodal
        assert len(ns.components) == 2
        h = nodal.euclidean_mesh_size(mesh)
        mirrors = [Geodesic(0j, 0.5), Geodesic(0j, 0.5j)]
        devs = np.array(
            [[nodal.geodesic_deviation(c, g) for g in mirrors] for c in ns.components]
        )
        # one component per mirror, each within 2h
        best = devs.argmin(axis=1)
        assert set(best) == {0, 1}
        assert devs[0, best[0]] <= 2 * h and devs[1, best[1]] <= 2 * h

    def test_single_central_orthogonal_crossing(self, genus2_nodal):
        mesh, v, ns = genus2_nodal
        h = nodal.euclidean_mesh_size(mesh)
        assert len(ns.crossing_points) == 1
        p, ang = ns.crossing_points[0]
        assert abs(p) <= h
        assert abs(ang - math.pi / 2) <= 0.05
        hits = nodal.self_intersections(ns)
        assert len(hits) == 1
        assert abs(hits[0][0]) <= h
        assert abs(hits[0][1] - math.pi / 2) <= 0.05

    def test_interpolated_values_vanish_along_components(self, genus2_nodal):
        mesh, v, ns = genus2_nodal
        interp = hypfem.P1Interpolator(mesh.nodes, mesh.triangles, v)
        amax = float(np.max(np.abs(v)))
        worst = max(
            abs(interp(complex(p))) for c in ns.components for p in c.points
        )
        assert worst <= 1e-7 * amax + 1e-12

    def test_deviation_bound_holds_under_refinement(self, octagon_modes):
        poly = surfglue.octagon_polygon()
        coarse = hypfem.solve_polygon(poly, h_target=0.16, k=6, essential_labels=())
        for modes in (coarse, octagon_modes):
            lam, v = surfglue.mirror_odd_eigenvector(modes, 3.8390)
            ns = nodal.extract_nodal(modes.mesh, v, zero_tol=1e-7)
            h = nodal.euclidean_mesh_size(modes.mesh)
            mirrors = [Geodesic(0j, 0.5), Geodesic(0j, 0.5j)]
            for comp in ns.components:
                assert min(nodal.geodesic_deviation(comp, g) for g in mirrors) <= 2 * h

    def test_extraction_deterministic(self, genus2_nodal):
        mesh, v, ns = genus2_nodal
        again = nodal.extract_nodal(mesh, v, zero_tol=1e-7)
        assert len(again.components) == len(ns.components)
        for a, b in zip(again.components, ns.components):
            assert a.closed == b.closed
            assert np.array_equal(a.points, b.points)
        assert again.crossing_points == ns.crossing_points


class TestGenus3Nodal:
    def test_base_chart_traces_the_closing_seam_geodesic(self, g3):
        mesh = g3.system.base_mesh
        ns = nodal.extract_nodal(mesh, g3.base_vector, zero_tol=1e-7)
        assert len(ns.components) == 1
        comp = ns.components[0]
        poly = mesh.polygon
        g = geodesic_between(poly.vertices[4], poly.vertices[6])
        h = nodal.euclidean_mesh_size(mesh)
        assert nodal.geodesic_deviation(comp, g) <= 2 * h
        assert nodal.self_intersections(ns) == []

    def test_trace_spans_both_constrained_sides(self, g3):
        mesh = g3.system.base_mesh
        ns = nodal.extract_nodal(mesh, g3.base_vector, zero_tol=1e-7)
        pts = ns.components[0].points
        ends = {nodal._point_key(pts[0]), nodal._point_key(pts[-1])}
        poly = mesh.polygon
        expect = {
            nodal._point_key(complex(poly.vertices[4])),
            nodal._point_key(complex(poly.vertices[6])),
        }
        assert ends == expect

