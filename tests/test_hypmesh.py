"""Mesher oracle tests: quality, symmetry, boundary fidelity, determinism."""

import cmath
import math

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def pent_mesh():
    return hm.mesh_polygon(quarter_octagon(), hm.MeshConfig(h_target=0.16))


@pytest.fixture(scope="module")
def oct_mesh():
    poly = hg.regular_right_polygon(8, math.pi / 2)
    return hm.mesh_polygon(poly, hm.MeshConfig(h_target=0.25))


class TestEdgeLengths:
    def test_respects_h_target(self, pent_mesh):
        assert pent_mesh.hyp_edge_lengths().max() <= 0.16 + 1e-12

    def test_not_absurdly_fine(self, pent_mesh):
        # one refinement less would have violated the target
        assert pent_mesh.hyp_edge_lengths().max() > 0.16 / 4.0

    def test_refinement_scaling(self):
        poly = quarter_octagon()
        m1 = hm.mesh_polygon(poly, hm.MeshConfig(h_target=0.16))
        m2 = hm.mesh_polygon(poly, hm.MeshConfig(h_target=0.08))
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
            g = poly.side(i).geodesic
            for m in idx:
                assert g.euclidean_residual(pent_mesh.nodes[m]) < 1e-12

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
        b = pent_mesh.boundary_nodes()
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


class TestDeterminism:
    def test_bitwise_reproducible(self):
        poly = quarter_octagon()
        a = hm.mesh_polygon(poly, hm.MeshConfig(h_target=0.2))
        b = hm.mesh_polygon(poly, hm.MeshConfig(h_target=0.2))
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.triangles, b.triangles)


class TestHexagonMesh:
    def test_basic(self):
        poly = hg.right_angled_hexagon(1.0, 1.0, 1.0)
        m = hm.mesh_polygon(poly, hm.MeshConfig(h_target=0.2))
        assert m.hyp_edge_lengths().max() <= 0.2 + 1e-12
        assert hm.min_angle_degrees(m) >= 20.0
        assert len(m.side_nodes) == 6


def reference_unique_edges(tris):
    """Edge deduplication by row-wise unique: the reference for _unique_edges."""
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def reference_mesh(poly, cfg):
    """The mesher with per-call edge recomputation and a per-node scalar
    boundary projection loop: the reference for the array mesher."""
    projs = [hm._SideProjector(s) for s in poly.sides]
    lengths = [s.length for s in poly.sides]
    lmin = min(lengths)
    nodes = list(poly.vertices)
    corners = np.arange(poly.n, dtype=np.int64)
    node_side = {}
    chains = []
    for i, (pr, L) in enumerate(zip(projs, lengths)):
        cnt = max(1, round(L / lmin))
        chain, params = [corners[i]], [0.0]
        for j in range(1, cnt):
            s = L * j / cnt
            node_side[len(nodes)] = (i, s)
            chain.append(len(nodes))
            params.append(s)
            nodes.append(pr.at(s))
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
            mids[k] = projs[side_i].at(sm)
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
        e = reference_unique_edges(tris)
        ei, ej = e[:, 0], e[:, 1]
        interior = np.ones(len(z), dtype=bool)
        interior[corners] = False
        bnd = np.array(sorted(node_side), dtype=np.int64)
        interior[bnd] = False
        for _ in range(cfg.smooth_sweeps):
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
                pr = projs[side_i]
                s = min(max(hg.foot_parameter(pr.side.start, pr.side.end, complex(mean[m])), 0.0), pr.length)
                node_side[m] = (side_i, s)
                znew[m] = pr.at(s)
            z = znew
        return z

    def max_edge(z, tris):
        e = reference_unique_edges(tris)
        return hm._hyp_len(z[e[:, 0]], z[e[:, 1]]).max()

    def param_of(m, side_i):
        if m == corners[side_i]:
            return 0.0
        if m == corners[(side_i + 1) % poly.n]:
            return lengths[side_i]
        return node_side[m][1]

    for _ in range(cfg.max_refinements):
        while max_edge(z, tris) > cfg.h_target:
            z, tris = refine(z, tris)
        z = smooth(z, tris)
        for key in list(bdict):
            side_i = bdict[key][0]
            bdict[key] = (side_i, param_of(key[0], side_i), param_of(key[1], side_i))
        if max_edge(z, tris) <= cfg.h_target:
            break
    side_nodes = []
    for i in range(poly.n):
        own = sorted((s, m) for m, (si, s) in node_side.items() if si == i)
        side_nodes.append(np.array([corners[i]] + [m for _, m in own] + [corners[(i + 1) % poly.n]]))
    return z, tris, corners, side_nodes


class TestArrayKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_unique_edges_matches_rowwise_unique(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 200))
        tris = rng.integers(0, n, size=(int(rng.integers(1, 400)), 3))
        assert np.array_equal(hm._unique_edges(tris), reference_unique_edges(tris))

    def test_unique_edges_of_a_mesh(self, pent_mesh):
        tris = pent_mesh.triangles
        assert np.array_equal(hm._unique_edges(tris), reference_unique_edges(tris))

    @pytest.mark.parametrize(
        "poly, h",
        [(surfglue.pants_decagon(2.0, 2.0, 2.0), 0.24), (quarter_octagon(), 0.16)],
        ids=["pants-decagon", "quarter-octagon"],
    )
    def test_matches_scalar_boundary_loop(self, poly, h):
        cfg = hm.MeshConfig(h_target=h)
        z, tris, corners, side_nodes = reference_mesh(poly, cfg)
        mesh = hm.mesh_polygon(poly, cfg)
        assert np.array_equal(mesh.triangles, tris)
        assert np.array_equal(mesh.corners, corners)
        assert len(mesh.side_nodes) == len(side_nodes)
        for got, want in zip(mesh.side_nodes, side_nodes):
            assert np.array_equal(got, want)
        assert np.max(np.abs(mesh.nodes - z)) <= 1e-12
