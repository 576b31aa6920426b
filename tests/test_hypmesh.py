"""Mesher oracle tests: quality, symmetry, boundary fidelity, determinism."""

import cmath
import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypnodal import hypfem as hf
from hypnodal import hypgeo as hg
from hypnodal import hypmesh as hm
from hypnodal import surfglue


def quarter_octagon():
    """Quarter of the right-angled regular octagon (fundamental domain of its
    reflection group component containing the first quadrant sector)."""
    R = math.acosh(1.0 / math.tan(math.pi / 8))
    # inradius from the right triangle center / side midpoint / vertex:
    # cosh(inradius) = cos(alpha/2) / sin(pi/n)
    rin = math.acosh(math.cos(math.pi / 4) / math.sin(math.pi / 8))
    rho_v = math.tanh(R / 2.0)
    rho_m = math.tanh(rin / 2.0)
    verts = (
        0j,
        rho_m + 0j,
        rho_v * cmath.exp(1j * math.pi / 8),
        rho_v * cmath.exp(3j * math.pi / 8),
        rho_m * 1j,
    )
    labels = ("dirichlet", "neumann", "neumann", "neumann", "dirichlet")
    return hg.HyperbolicPolygon(verts, labels)


def with_triangles(mesh, triangles):
    """mesh with other triangles, and the edges and triangle_edges that go with them."""
    edges, triangle_edges = hm._unique_edges(triangles)
    return dataclasses.replace(mesh, triangles=triangles, edges=edges, triangle_edges=triangle_edges)


@pytest.fixture(scope="module")
def pent_mesh():
    return hm.mesh_polygon(quarter_octagon(), 0.16)


@pytest.fixture(scope="module")
def oct_mesh():
    poly = hg.regular_right_polygon(8, math.pi / 2)
    return hm.mesh_polygon(poly, 0.25)


class TestEdgeLengths:
    def test_respects_h_target(self, pent_mesh):
        assert pent_mesh.hyp_edge_lengths().max() <= 0.16 + 1e-12

    def test_not_absurdly_fine(self, pent_mesh):
        # one refinement less would have violated the target
        assert pent_mesh.hyp_edge_lengths().max() > 0.16 / 4.0

    def test_refinement_scaling(self):
        poly = quarter_octagon()
        m1 = hm.mesh_polygon(poly, 0.16)
        m2 = hm.mesh_polygon(poly, 0.08)
        assert m2.n_triangles == 4 * m1.n_triangles


class TestQuality:
    def test_min_angle(self, pent_mesh):
        assert hm.min_angle_degrees(pent_mesh) >= 20.0

    def test_min_angle_octagon(self, oct_mesh):
        assert hm.min_angle_degrees(oct_mesh) >= 20.0

    def test_all_triangles_ccw(self, pent_mesh):
        z = pent_mesh.nodes[pent_mesh.triangles]
        u = z[:, 1] - z[:, 0]
        v = z[:, 2] - z[:, 0]
        cross = u.real * v.imag - u.imag * v.real
        assert cross.min() > 0.0


class TestBoundary:
    def test_corners_exact(self, pent_mesh):
        poly = quarter_octagon()
        for k in range(5):
            assert pent_mesh.nodes[pent_mesh.corners[k]] == poly.vertices[k]

    def test_boundary_nodes_on_geodesics(self, pent_mesh):
        poly = quarter_octagon()
        for i, (idx, _) in enumerate(zip(pent_mesh.side_nodes, pent_mesh.side_params)):
            side = poly.side(i)
            g = hg.geodesic_between(side.start, side.end)
            for m in idx:
                assert hg.point_to_geodesic_distance(pent_mesh.nodes[m], g) < 1e-12

    def test_side_params_sorted_full_range(self, pent_mesh):
        poly = quarter_octagon()
        for i, par in enumerate(pent_mesh.side_params):
            L = poly.side(i).length
            assert par[0] == 0.0
            assert par[-1] == pytest.approx(L, abs=1e-12)
            assert np.all(np.diff(par) > 0.0)

    def test_params_match_positions(self, pent_mesh):
        poly = quarter_octagon()
        for i, (idx, par) in enumerate(zip(pent_mesh.side_nodes, pent_mesh.side_params)):
            s = poly.side(i)
            for m, p in list(zip(idx, par))[1:-1]:
                assert abs(s.point_at(p) - pent_mesh.nodes[m]) < 1e-10

    def test_label_node_sets(self, pent_mesh):
        d = pent_mesh.nodes_on_label("dirichlet")
        n = pent_mesh.nodes_on_label("neumann")
        b = np.unique(np.concatenate(pent_mesh.side_nodes))
        assert len(np.union1d(d, n)) == len(b)
        # shared corners sit in both sets
        assert len(np.intersect1d(d, n)) > 0


class TestSymmetry:
    def test_pentagon_diagonal_mirror(self, pent_mesh):
        # the quarter octagon is symmetric under reflection across the
        # diagonal at angle pi/4, namely z -> i conj(z)
        z = pent_mesh.nodes
        w = 1j * np.conj(z)
        zs = np.sort_complex(np.round(z, 12) + 0.0)
        ws = np.sort_complex(np.round(w, 12) + 0.0)
        assert np.max(np.abs(zs - ws)) < 1e-11

    def test_octagon_eightfold(self, oct_mesh):
        z = oct_mesh.nodes
        w = np.exp(1j * math.pi / 4) * z
        zs = np.sort_complex(np.round(z, 12) + 0.0)
        ws = np.sort_complex(np.round(w, 12) + 0.0)
        assert np.max(np.abs(zs - ws)) < 1e-11


class TestRecord:
    def test_one_debug_record_per_mesh(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypmesh"):
            mesh = hm.mesh_polygon(quarter_octagon(), 0.16)
        (rec,) = [r for r in caplog.records if r.name == "hypnodal.hypmesh"]
        assert rec.levelno == logging.DEBUG
        assert mesh.level == 4
        assert rec.getMessage().startswith("mesh_polygon: 1089 nodes, 2048 triangles, level 4, 2 smoothing rounds in ")


# the polygons (and coarse targets) of the kernel and equivariance tests: every side-count and label mix in use
POLYGON_CASES = {
    "pants-decagon": (surfglue.pants_decagon(2.0, 2.0, 2.0), 0.24),
    "quarter-octagon": (quarter_octagon(), 0.16),
    "octagon": (surfglue.octagon_polygon(), 0.16),
    "hexagon": (hg.right_angled_hexagon(1.0, 1.0, 1.0), 0.2),
}


class TestEquivariance:
    """The mesher commutes with rotations and reflections about 0, and the
    eigenvalues of solve_polygon do not change under them."""

    @settings(max_examples=12, deadline=None)
    @given(case=st.sampled_from(sorted(POLYGON_CASES)), phi=st.floats(-math.pi, math.pi))
    def test_rotation_about_zero(self, case, phi):
        poly, h = POLYGON_CASES[case]
        mesh = hm.mesh_polygon(poly, h)
        turned = hm.mesh_polygon(poly.transformed(hg.rotation(phi)), h)
        assert np.array_equal(turned.triangles, mesh.triangles)
        assert np.abs(turned.nodes - cmath.exp(1j * phi) * mesh.nodes).max() <= 1e-12

    @settings(max_examples=12, deadline=None)
    @given(case=st.sampled_from(sorted(POLYGON_CASES)), phi=st.floats(-math.pi, math.pi))
    @example(case="hexagon", phi=0.0)
    def test_reflection_about_zero(self, case, phi):
        # z -> exp(i phi) conj(z) is the reflection in the line at angle phi / 2 (phi = 0: the real axis);
        # the image polygon lists its vertices in reverse, so only the node sets match
        poly, h = POLYGON_CASES[case]
        mirror = hg.Isometry(cmath.exp(1j * phi), 0j, True)
        mesh = hm.mesh_polygon(poly, h)
        image = hm.mesh_polygon(poly.transformed(mirror), h)
        assert image.n_nodes == mesh.n_nodes and image.n_triangles == mesh.n_triangles
        j, worst = hm.match_nodes(image.nodes, hg.apply(mirror, mesh.nodes))
        assert worst <= 1e-12
        assert len(np.unique(j)) == mesh.n_nodes

    # the mixed quarter's ground state (a mirror-folded solve) and the Neumann octagon's six lowest modes
    SOLVES = {
        "quarter-octagon": (quarter_octagon(), 1, ("dirichlet",)),
        "octagon": (surfglue.octagon_polygon(), 6, ()),
    }

    @classmethod
    def assert_same_spectrum(cls, case, image):
        poly, k, essential = cls.SOLVES[case]
        want = hf.solve_polygon(poly, 0.16, k, essential).values
        got = hf.solve_polygon(image, 0.16, k, essential).values
        # relative, except against 1 for the octagon's zero mode
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))

    @settings(max_examples=6, deadline=None)
    @given(case=st.sampled_from(sorted(SOLVES)), phi=st.floats(-math.pi, math.pi))
    def test_eigenvalues_under_rotation(self, case, phi):
        self.assert_same_spectrum(case, self.SOLVES[case][0].transformed(hg.rotation(phi)))

    @settings(max_examples=6, deadline=None)
    @given(case=st.sampled_from(sorted(SOLVES)), phi=st.floats(-math.pi, math.pi))
    def test_eigenvalues_under_reflection(self, case, phi):
        mirror = hg.Isometry(cmath.exp(1j * phi), 0j, True)
        self.assert_same_spectrum(case, self.SOLVES[case][0].transformed(mirror))


class TestDeterminism:
    def test_bitwise_reproducible(self):
        poly = quarter_octagon()
        a = hm.mesh_polygon(poly, 0.2)
        b = hm.mesh_polygon(poly, 0.2)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.triangles, b.triangles)


class TestInvalidTarget:
    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_non_positive_or_non_finite(self, h):
        with pytest.raises(ValueError, match=repr(h)):
            hm.mesh_polygon(quarter_octagon(), h)


class TestMeshError:
    def test_translated_decagon_has_inverted_triangles(self):
        poly = surfglue.pants_decagon(2.0, 2.0, 2.0).transformed(hg.translation(1.0))
        with pytest.raises(hm.MeshError, match="9 of .*inverted"):
            hm.mesh_polygon(poly, 0.24)

    def test_refinement_level_cap(self, monkeypatch):
        monkeypatch.setattr(hm, "MAX_REFINEMENTS", 1)
        with pytest.raises(hm.MeshError, match="1 refinement levels"):
            hm.mesh_polygon(quarter_octagon(), 0.1)

    def test_rounds_that_miss_the_target(self, monkeypatch):
        monkeypatch.setattr(hm, "MAX_REFINEMENTS", 0)
        with pytest.raises(hm.MeshError, match="0 refine \\+ smooth rounds"):
            hm.mesh_polygon(quarter_octagon(), 0.2)

    def test_rejects_more_edges_than_int32_indexes(self, monkeypatch):
        unique_edges = hm._unique_edges

        def huge(tris):  # 2**31 edges as a zero-stride view, without their memory
            e, tri_e = unique_edges(tris)
            return np.broadcast_to(e[:1], (2**31, 2)), tri_e

        monkeypatch.setattr(hm, "_unique_edges", huge)
        with pytest.raises(hm.MeshError, match="2147483648 edges do not fit the int32 edge index"):
            hm.mesh_polygon(quarter_octagon(), 0.2)


class TestHexagonMesh:
    def test_basic(self):
        poly = hg.right_angled_hexagon(1.0, 1.0, 1.0)
        m = hm.mesh_polygon(poly, 0.2)
        assert m.hyp_edge_lengths().max() <= 0.2 + 1e-12
        assert hm.min_angle_degrees(m) >= 20.0
        assert len(m.side_nodes) == 6


def reference_unique_edges(tris):
    """Edge deduplication by row-wise unique: the reference for _unique_edges,
    with the (T, 3) inverse of the edge joining corners j and j + 1."""
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges, inverse = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True)
    return edges, inverse.reshape(3, -1).T


def reference_mesh(poly, h_target):
    """The mesher with per-call edge recomputation and a per-node scalar
    boundary projection loop: the reference for the array mesher."""
    sides = poly.sides
    lengths = [s.length for s in sides]
    lmin = min(lengths)
    nodes = list(poly.vertices)
    corners = np.arange(poly.n, dtype=np.int64)
    node_side = {}
    chains = []
    for i, (sd, L) in enumerate(zip(sides, lengths)):
        cnt = max(1, round(L / lmin))
        chain, params = [corners[i]], [0.0]
        for j in range(1, cnt):
            s = L * j / cnt
            node_side[len(nodes)] = (i, s)
            chain.append(len(nodes))
            params.append(s)
            nodes.append(sd.point_at(s))
        chain.append(corners[(i + 1) % poly.n])
        params.append(L)
        chains.append((chain, params))
    hub = len(nodes)
    nodes.append(sum(poly.vertices) / poly.n)
    tris, bdict = [], {}
    for i, (chain, params) in enumerate(chains):
        for k in range(len(chain) - 1):
            a, b = chain[k], chain[k + 1]
            tris.append((a, b, hub))
            sa, sb = params[k], params[k + 1]
            bdict[(min(a, b), max(a, b))] = (i, sa, sb) if a < b else (i, sb, sa)
    z = np.array(nodes, dtype=np.complex128)
    tris = np.array(tris, dtype=np.int64)

    def refine(z, tris):
        n = len(z)
        raw = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
        ucodes, inv = np.unique(raw[:, 0] * n + raw[:, 1], return_inverse=True)
        mids = 0.5 * (z[ucodes // n] + z[ucodes % n])
        code_pos = {c: k for k, c in enumerate(ucodes.tolist())}
        new_bdict = {}
        for (a, b), (side_i, sa, sb) in bdict.items():
            k = code_pos[a * n + b]
            sm = 0.5 * (sa + sb)
            mids[k] = sides[side_i].point_at(sm)
            m = n + k
            node_side[m] = (side_i, sm)
            new_bdict[(min(a, m), max(a, m))] = (side_i, sa, sm) if a < m else (side_i, sm, sa)
            new_bdict[(min(m, b), max(m, b))] = (side_i, sm, sb) if m < b else (side_i, sb, sm)
        bdict.clear()
        bdict.update(new_bdict)
        m01, m12, m20 = (n + inv).reshape(3, -1)
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        tris = np.concatenate(
            [np.stack(t, axis=1) for t in ([a, m01, m20], [b, m12, m01], [c, m20, m12], [m01, m12, m20])]
        )
        return np.concatenate([z, mids]), tris

    def smooth(z, tris):
        e, _ = reference_unique_edges(tris)
        ei, ej = e[:, 0], e[:, 1]
        interior = np.ones(len(z), dtype=bool)
        interior[corners] = False
        bnd = np.array(sorted(node_side), dtype=np.int64)
        interior[bnd] = False
        for _ in range(hm.SMOOTH_SWEEPS):
            acc = np.zeros(len(z), dtype=np.complex128)
            cnt = np.zeros(len(z), dtype=np.float64)
            np.add.at(acc, ei, z[ej])
            np.add.at(acc, ej, z[ei])
            np.add.at(cnt, ei, 1.0)
            np.add.at(cnt, ej, 1.0)
            mean = acc / np.maximum(cnt, 1.0)
            znew = z.copy()
            znew[interior] = mean[interior]
            for m in bnd:
                side_i = node_side[m][0]
                sd = sides[side_i]
                s = min(max(hg.foot_parameter(sd.start, sd.end, complex(mean[m])), 0.0), lengths[side_i])
                node_side[m] = (side_i, s)
                znew[m] = sd.point_at(s)
            z = znew
        return z

    def max_edge(z, tris):
        e, _ = reference_unique_edges(tris)
        return hm._hyp_len(z[e[:, 0]], z[e[:, 1]]).max()

    def param_of(m, side_i):
        if m == corners[side_i]:
            return 0.0
        if m == corners[(side_i + 1) % poly.n]:
            return lengths[side_i]
        return node_side[m][1]

    for _ in range(hm.MAX_REFINEMENTS):
        while max_edge(z, tris) > h_target:
            z, tris = refine(z, tris)
        z = smooth(z, tris)
        for key in list(bdict):
            side_i = bdict[key][0]
            bdict[key] = (side_i, param_of(key[0], side_i), param_of(key[1], side_i))
        if max_edge(z, tris) <= h_target:
            break
    side_nodes, side_params = [], []
    for i in range(poly.n):
        own = sorted((s, m) for m, (si, s) in node_side.items() if si == i)
        side_nodes.append(np.array([corners[i]] + [m for _, m in own] + [corners[(i + 1) % poly.n]]))
        side_params.append(np.array([0.0] + [s for s, _ in own] + [lengths[i]]))
    return z, tris, corners, side_nodes, side_params


class TestArrayKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_unique_edges_matches_rowwise_unique(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 200))
        tris = rng.integers(0, n, size=(int(rng.integers(1, 400)), 3))
        (edges, inverse), (want, want_inverse) = hm._unique_edges(tris), reference_unique_edges(tris)
        assert np.array_equal(edges, want)
        assert np.array_equal(inverse, want_inverse)
        assert edges.dtype == inverse.dtype == np.int32

    def test_unique_edges_of_a_mesh(self, pent_mesh):
        tris = pent_mesh.triangles
        for got, want in zip(hm._unique_edges(tris), reference_unique_edges(tris)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(POLYGON_CASES))
    def test_mesh_edges(self, case):
        # the final level's edges, and the edge of every triangle side: each edge is some triangle's side
        mesh = hm.mesh_polygon(*POLYGON_CASES[case])
        tris, edges, tri_e = mesh.triangles, mesh.edges, mesh.triangle_edges
        assert np.array_equal(edges, reference_unique_edges(tris)[0])
        assert edges.dtype == tri_e.dtype == np.int32 and tri_e.shape == tris.shape
        sides = np.sort(np.stack([tris, tris[:, [1, 2, 0]]], axis=2), axis=2)
        assert np.array_equal(edges[tri_e], sides)
        assert np.array_equal(np.unique(tri_e), np.arange(len(edges)))

    @staticmethod
    def neighbour_sums(e, z):
        """Both add.at passes and the neighbour-matrix product on the real view of z."""
        acc = np.zeros(len(z), dtype=np.complex128)
        np.add.at(acc, e[:, 0], z[e[:, 1]])
        np.add.at(acc, e[:, 1], z[e[:, 0]])
        adj = hm._neighbour_matrix(e, len(z))
        return acc, (adj @ z.view(np.float64).reshape(-1, 2)).view(np.complex128)[:, 0], adj

    @pytest.mark.parametrize("seed", range(5))
    def test_neighbour_sums_match_add_at(self, seed):
        # any edge list, repeated and unsorted edges and isolated nodes included
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        e = rng.integers(0, n - 1, size=(int(rng.integers(1, 600)), 2))  # node n - 1 is isolated
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        acc, got, adj = self.neighbour_sums(e, z)
        assert np.array_equal(got, acc)
        assert np.array_equal(np.diff(adj.indptr), np.bincount(e.ravel(), minlength=n))

    def test_neighbour_sums_of_a_mesh(self):
        mesh = hm.mesh_polygon(*POLYGON_CASES["pants-decagon"])
        acc, got, _ = self.neighbour_sums(mesh.edges, mesh.nodes)
        assert np.array_equal(got, acc)

    @pytest.mark.parametrize("case", sorted(POLYGON_CASES))
    def test_side_maps_match_per_side_calls(self, case):
        poly = POLYGON_CASES[case][0]
        sides = poly.sides
        rng = np.random.default_rng(len(sides))
        side = rng.integers(0, len(sides), 500)
        x = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, 500)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 500))
        to_axis, from_axis = hg.side_maps(sides)
        s = hg.axis_foot(*to_axis[:, side], x)
        z = hg.axis_point(*from_axis[:, side], s)
        for i, sd in enumerate(sides):
            on = side == i
            assert np.array_equal(s[on], hg.foot_parameter(sd.start, sd.end, x[on]))
            assert np.array_equal(z[on], sd.point_at(s[on]))

    @pytest.mark.parametrize("case", sorted(POLYGON_CASES))
    def test_matches_scalar_boundary_loop(self, case):
        poly, h = POLYGON_CASES[case]
        z, tris, corners, side_nodes, side_params = reference_mesh(poly, h)
        mesh = hm.mesh_polygon(poly, h)
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.corners, corners)
        assert len(mesh.side_nodes) == len(side_nodes)
        for got, want in zip(mesh.side_nodes, side_nodes):
            assert np.array_equal(got, want)
        for got, want in zip(mesh.side_params, side_params):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(mesh.nodes - z)) <= 1e-12
