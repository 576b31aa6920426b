"""FEM oracle tests.

The continuum reference values are mesh-independent: polygon areas have
closed forms (angle defect), the lowest Neumann eigenvalue is exactly zero
with constant eigenfunction, and the mixed-condition quarter-octagon
eigenvalue was cross-validated by two independent discretizations
(extrapolated limit 3.8390 +- a few e-4).
"""

import dataclasses
import gc
import logging
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu
from scipy.spatial import cKDTree

from hypnodal import hypfem as hf
from hypnodal import hypgeo as hg
from hypnodal import hypmesh as hm
from hypnodal import surfglue

from test_hypgeo import relabeled
from test_hypmesh import flip_one_diagonal, quarter_octagon

MIXED_QUARTER_LIMIT = 3.8390  # frozen from an independent discretization study


def reference_residuals(K, M, vals, vecs):
    """Backward errors with scipy's 1-norms of the whole given pencil: the
    reference for eigen_residuals."""
    k1, m1 = sp.linalg.norm(K, 1), sp.linalg.norm(M, 1)
    scale = [(k1 + abs(lam) * m1) * np.linalg.norm(v) for lam, v in zip(vals, vecs.T)]
    return np.array([np.linalg.norm(K @ v - lam * (M @ v)) for lam, v in zip(vals, vecs.T)]) / scale


@pytest.fixture(scope="module")
def octagon():
    return hg.regular_right_polygon(8, math.pi / 2)


class TestMass:
    def test_octagon_area_convergence(self, octagon):
        errs = []
        for h in (0.16, 0.08):
            m = hm.mesh_polygon(octagon, h)
            _, M = hf.assemble(m)
            errs.append(abs(hf.total_mass(M) - 2.0 * math.pi) / (2.0 * math.pi))
        assert errs[1] < 1e-3
        assert errs[0] / errs[1] > 3.0  # second order

    def test_pentagon_area(self):
        m = hm.mesh_polygon(quarter_octagon(), 0.08)
        _, M = hf.assemble(m)
        assert hf.total_mass(M) == pytest.approx(math.pi / 2.0, rel=5e-4)

    def test_rejects_flipped_triangle(self):
        # three flipped and one degenerate
        mesh = hm.mesh_polygon(quarter_octagon(), 0.16)
        tris = mesh.triangles.copy()
        tris[:3] = tris[:3, ::-1]
        tris[3, 1] = tris[3, 0]
        with pytest.raises(ValueError, match="4 of 2048 triangles have det <= 0"):
            hf.assemble(dataclasses.replace(mesh, triangles=tris))


# phi[node, midpoint] for midpoints (01, 12, 20) of the reference triangle
_PHI_MID = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])


def reference_assemble(nodes, triangles):
    """The COO assembly that assemble replaced, kept as its reference: full
    3 x 3 element matrices (the mass by an einsum over the edge midpoints),
    9 triplets per triangle, one COO -> CSR conversion per matrix."""
    z = nodes[triangles]
    x, y = z.real, z.imag
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    y0, y1, y2 = y[:, 0], y[:, 1], y[:, 2]
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det.min() <= 0.0:
        raise ValueError("assemble requires positively oriented triangles")

    b = np.stack([y1 - y2, y2 - y0, y0 - y1], axis=1)
    c = np.stack([x2 - x1, x0 - x2, x1 - x0], axis=1)
    k_loc = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        2.0 * det[:, None, None]
    )

    zm = np.stack(
        [0.5 * (z[:, 0] + z[:, 1]), 0.5 * (z[:, 1] + z[:, 2]), 0.5 * (z[:, 2] + z[:, 0])],
        axis=1,
    )
    w = 4.0 / (1.0 - np.abs(zm) ** 2) ** 2
    area = det / 2.0
    # M_ab = area/3 * sum_m phi[a,m] phi[b,m] w_m
    pw = _PHI_MID[None, :, :] * w[:, None, :]
    m_loc = (area / 3.0)[:, None, None] * np.einsum("tam,bm->tab", pw, _PHI_MID)

    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    n = len(nodes)
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


ASSEMBLY_CASES = {
    "quarter-0.16": (quarter_octagon(), 0.16),
    "quarter-0.08": (quarter_octagon(), 0.08),
    "neumann-octagon-0.16": (surfglue.octagon_polygon(), 0.16),
    "pants-decagon-0.24": (surfglue.pants_decagon(2.0, 2.0, 2.0), 0.24),
}


class TestAssembly:
    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_matches_coo_assembly(self, case):
        mesh = hm.mesh_polygon(*ASSEMBLY_CASES[case])
        for got, want in zip(hf.assemble(mesh), reference_assemble(mesh.nodes, mesh.triangles)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            # the element values are the same; the diagonal sums add them in another order
            assert np.all(np.abs(got.data - want.data) <= 1e-15 * np.abs(want.data))

    @pytest.mark.parametrize("case", ["quarter-0.16", "pants-decagon-0.24"])
    def test_replaced_triangles_assemble_on_their_own_pattern(self, case):
        # a mesh made by dataclasses.replace derives the edges of its new triangles
        mesh = flip_one_diagonal(hm.mesh_polygon(*ASSEMBLY_CASES[case]))
        for got, want in zip(hf.assemble(mesh), reference_assemble(mesh.nodes, mesh.triangles)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.all(np.abs(got.data - want.data) <= 1e-15 * np.abs(want.data))

    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_k_and_m_share_the_pattern_arrays(self, case):
        K, M = hf.assemble(hm.mesh_polygon(*ASSEMBLY_CASES[case]))
        assert np.shares_memory(K.indptr, M.indptr) and np.shares_memory(K.indices, M.indices)
        assert K.indptr.dtype == K.indices.dtype == np.int32

    def test_peak_is_at_most_four_times_the_pencil(self):
        # tracemalloc counts every array the call allocates, so the peak is
        # deterministic; building all element values before either matrix
        # peaked at 5.56 times the pencil
        mesh = hm.mesh_polygon(surfglue.pants_decagon(2.0, 2.0, 2.0), 0.16)
        mesh.edges  # the cached pattern belongs to the mesh, not to the call
        gc.collect()
        tracemalloc.start()
        try:
            K, M = hf.assemble(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffers = {a.__array_interface__["data"][0]: a.nbytes for A in (K, M) for a in (A.data, A.indices, A.indptr)}
        assert len(buffers) == 4  # indptr and indices counted once
        assert peak <= 4 * sum(buffers.values())


class TestNeumannGroundState:
    def test_zero_mode_residual_small(self, octagon, octagon_modes):
        # the backward-error scale does not vanish with K v for the constant mode
        coarse = hf.solve_polygon(octagon, 0.16, k=2, essential_labels=())
        for modes in (coarse, octagon_modes):
            assert abs(modes.values[0]) < 1e-8
            assert modes.residuals[0] < 1e-10

    def test_lambda0_zero_constant_vector(self, octagon):
        modes = hf.solve_polygon(octagon, 0.12, k=3, essential_labels=())
        assert abs(modes.values[0]) < 1e-8
        v = modes.vectors[:, 0]
        assert np.std(v) / np.max(np.abs(v)) < 1e-6

    def test_symmetry_forces_double_eigenvalue(self, octagon):
        # the first excited Neumann level of the regular octagon is a
        # two-dimensional rotation representation
        modes = hf.solve_polygon(octagon, 0.12, k=4, essential_labels=())
        assert modes.values[1] == pytest.approx(modes.values[2], rel=1e-8)


@pytest.fixture(scope="module")
def sweep():
    poly = quarter_octagon()
    vals = []
    for h in (0.16, 0.08, 0.04):
        modes = hf.solve_polygon(poly, h, k=1, essential_labels=("dirichlet",))
        vals.append(modes.values[0])
    return vals


class TestMixedQuarter:
    def test_monotone_from_above(self, sweep):
        assert sweep[0] > sweep[1] > sweep[2]

    def test_second_order_ratios(self, sweep):
        _, ratios, _ = hf.richardson(sweep)
        for r in ratios:
            assert 3.0 <= r <= 5.0

    def test_extrapolated_limit(self, sweep):
        limit, _, _ = hf.richardson(sweep)
        assert limit == pytest.approx(MIXED_QUARTER_LIMIT, abs=1e-3)


class TestDirichletQuarter:
    def test_spectral_gap_above_quarter(self):
        poly = relabeled(quarter_octagon(), ["dirichlet"] * 5)
        for h in (0.16, 0.08):
            modes = hf.solve_polygon(poly, h, k=1)
            assert modes.values[0] > 0.25


class TestSolverPaths:
    def test_dense_sparse_agree(self):
        poly = quarter_octagon()
        mesh = hm.mesh_polygon(poly, 0.16)
        K, M = hf.assemble(mesh)
        v_dense = scipy.linalg.eigh(K.toarray(), M.toarray(), subset_by_index=[0, 3], eigvals_only=True)
        v_sparse, _ = hf.solve_lowest(K, M, 4, mesh.nodes)
        assert np.allclose(v_dense, v_sparse, rtol=1e-9, atol=1e-8)

    def test_rejects_single_dof(self):
        one = sp.csr_matrix(np.ones((1, 1)))
        with pytest.raises(ValueError, match="at least 2 dofs"):
            hf.solve_lowest(one, one, 1, np.zeros(1))

    @pytest.mark.parametrize("k", [0, 1089, 1090])
    def test_rejects_k_outside_one_to_n_minus_one(self, k):
        # k >= n used to return n - 1 pairs without a word
        mesh = hm.mesh_polygon(quarter_octagon(), 0.16)
        K, M = hf.assemble(mesh)
        with pytest.raises(ValueError, match=rf"1 <= k < n: k = {k}, n = 1089 dofs"):
            hf.solve_lowest(K, M, k, mesh.nodes)

    def test_rejects_essential_labels_outside_the_vocabulary(self):
        # an unchecked "Dirichlet" constrained nothing: the quarter solved as all-Neumann, lambda_0 = 0
        with pytest.raises(ValueError, match=r"essential_labels \('Dirichlet',\) are not all in"):
            hf.solve_polygon(quarter_octagon(), 0.16, k=1, essential_labels=("Dirichlet",))

    def test_m_normalized_and_sign_fixed(self):
        modes = hf.solve_polygon(quarter_octagon(), 0.16, k=2)
        for j in range(2):
            v = modes.vectors[:, j]
            assert v @ (modes.M @ v) == pytest.approx(1.0, abs=1e-10)
            assert v[np.argmax(np.abs(v))] > 0.0

    def test_residuals_small(self):
        modes = hf.solve_polygon(quarter_octagon(), 0.12, k=3)
        assert modes.residuals.max() < 1e-8

    @pytest.mark.parametrize("k", [1, 3])
    def test_residuals_are_those_of_the_reduced_pencil(self, k):
        # taken on the free rows and columns of the unreduced pencil, without a reduce_system copy
        modes = hf.solve_polygon(quarter_octagon(), 0.16, k=k)
        free = modes.free
        want = reference_residuals(*hf.reduce_system(modes.K, modes.M, free), modes.values, modes.vectors[free])
        np.testing.assert_allclose(modes.residuals, want, rtol=1e-12, atol=0.0)

    def test_residuals_without_a_mask_take_the_whole_pencil(self, octagon_modes):
        m = octagon_modes
        want = reference_residuals(m.K, m.M, m.values, m.vectors)
        np.testing.assert_allclose(hf.eigen_residuals(m.K, m.M, m.values, m.vectors), want, rtol=1e-12, atol=0.0)

    def test_deterministic(self):
        a = hf.solve_polygon(quarter_octagon(), 0.16, k=2)
        b = hf.solve_polygon(quarter_octagon(), 0.16, k=2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_points_not_one_per_dof(self):
        mesh = hm.mesh_polygon(quarter_octagon(), 0.16)
        K, M = hf.assemble(mesh)
        for bad in (mesh.nodes[:-1], np.stack([mesh.nodes.real, mesh.nodes.imag], axis=1)):
            with pytest.raises(ValueError, match="one point per dof"):
                hf.solve_lowest(K, M, 2, bad)

    def test_rejects_nonfinite_points(self):
        mesh = hm.mesh_polygon(quarter_octagon(), 0.16)
        K, M = hf.assemble(mesh)
        pts = mesh.nodes.copy()
        pts[7] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="1 of 1089 are not"):
            hf.solve_lowest(K, M, 2, pts)

    def test_one_debug_record_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypfem"):
            hf.solve_polygon(quarter_octagon(), 0.16, k=2)
        records = [r for r in caplog.records if r.name == "hypnodal.hypfem"]
        assert all(r.levelno == logging.DEBUG for r in records)
        fold, msg = (r.getMessage() for r in records)  # the solve_character call's record, then the solve's
        assert fold == "solve_character: 1024 free dofs -> 1024 columns, 1024 fixed by every generator"
        assert msg.startswith("solve_lowest: 1024 dofs, k=2, LU nnz ")
        for part in ("ordering", "factorisation", "Lanczos", "OPinv applications"):
            assert part in msg

    @pytest.mark.parametrize("k", [1, 6])
    def test_lanczos_basis_size(self, monkeypatch, k):
        # eigsh's default basis is max(2k + 1, 20) vectors
        seen = []

        def recorded(*args, **kwargs):
            seen.append(kwargs["ncv"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(hf, "eigsh", recorded)
        hf.solve_polygon(quarter_octagon(), 0.16, k=k)
        assert seen == [max(2 * k + 1, hf.LANCZOS_VECTORS)]


def plain_solve(poly, h, k=1):
    """Lowest modes of the whole free pencil: reduce, solve, lift (the
    reference of the folded ground state solve)."""
    mesh = hm.mesh_polygon(poly, h)
    K, M = hf.assemble(mesh)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.nodes_on_label("dirichlet"))
    vals, vecs = hf.solve_lowest(*hf.reduce_system(K, M, free), k, mesh.nodes[free])
    full = np.zeros((mesh.n_nodes, vecs.shape[1]))
    full[free] = vecs
    return vals, full


def mirror_image(mesh, iso):
    """Index of the node at the image of every mesh node under iso, and the
    worst distance of that match."""
    tree = cKDTree(np.column_stack([mesh.nodes.real, mesh.nodes.imag]))
    image = hg.apply(iso, mesh.nodes)
    dist, j = tree.query(np.column_stack([image.real, image.imag]))
    assert dist.max() <= hm.MATCH_TOL
    return j, dist.max()


def pants():
    return surfglue.pants_decagon(2.0, 2.0, 2.0)


def is_mirror_of(iso, poly):
    """Whether iso is a reflection in a line through 0 permuting the vertices of poly."""
    v = np.array(poly.vertices)
    return iso.reverses and iso.b == 0 and np.abs(hg.apply(iso, v)[:, None] - v[None, :]).min(axis=1).max() < 1e-12


class TestPolygonFold:
    """Ground states of polygons with a mirror through 0, solved on the mirror orbits."""

    def test_quarter_mirror_is_the_diagonal(self):
        iso = hg.polygon_mirror(quarter_octagon())
        assert is_mirror_of(iso, quarter_octagon())
        assert hg.apply(iso, 0.3 + 0.1j) == pytest.approx(0.1 + 0.3j, abs=1e-15)

    def test_pants_mirror_is_the_real_axis(self):
        iso = hg.polygon_mirror(pants())
        assert is_mirror_of(iso, pants())
        assert hg.apply(iso, 0.3 + 0.1j) == pytest.approx(0.3 - 0.1j, abs=1e-15)

    def test_regular_octagon_has_a_mirror(self, octagon):
        assert is_mirror_of(hg.polygon_mirror(octagon), octagon)

    def test_translated_pants(self):
        # a translation along the mirror keeps it a line through 0; one across it does not
        along = pants().transformed(hg.translation(1.0))
        assert hg.apply(hg.polygon_mirror(along), 0.3 + 0.1j) == pytest.approx(0.3 - 0.1j, abs=1e-15)
        across = hg.compose(hg.rotation(math.pi / 2), hg.compose(hg.translation(0.5), hg.rotation(-math.pi / 2)))
        assert hg.polygon_mirror(pants().transformed(across)) is None

    def test_no_mirror_when_one_axis_side_is_dirichlet(self):
        assert hg.polygon_mirror(relabeled(quarter_octagon(), ["dirichlet"] + ["neumann"] * 4)) is None

    def test_no_mirror_for_a_nearly_symmetric_polygon(self):
        v = list(quarter_octagon().vertices)
        v[2] += 1e-10
        assert hg.polygon_mirror(hg.HyperbolicPolygon(v, quarter_octagon().labels)) is None

    @pytest.mark.parametrize("h", [0.16, 0.08])
    def test_folded_solve_matches_plain_solve(self, h):
        vals, vecs = plain_solve(quarter_octagon(), h)
        modes = hf.solve_polygon(quarter_octagon(), h, k=1)
        assert abs(modes.values[0] - vals[0]) <= 1e-12 * vals[0]
        assert np.abs(modes.vectors - vecs).max() <= 1e-10
        assert modes.residuals[0] < 1e-12

    def test_lifted_vector_is_exactly_even(self):
        modes = hf.solve_polygon(quarter_octagon(), 0.16, k=1)
        image, _ = mirror_image(modes.mesh, hg.polygon_mirror(quarter_octagon()))
        u = modes.vectors[:, 0]
        assert np.array_equal(u[image], u)
        assert u.max() > 0.0

    @pytest.mark.parametrize("k, dofs", [(1, 528), (2, 1024)])
    def test_only_the_ground_state_is_folded(self, monkeypatch, k, dofs):
        sizes = []
        solve_lowest = hf.solve_lowest

        def recorded(K, M, k, points):
            sizes.append(K.shape[0])
            return solve_lowest(K, M, k, points)

        monkeypatch.setattr(hf, "solve_lowest", recorded)
        hf.solve_polygon(quarter_octagon(), 0.16, k=k)
        assert sizes == [dofs]  # 528 orbits of the 1,024 free dofs, 32 of them on the mirror

    def test_one_debug_record_per_fold(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypfem"):
            modes = hf.solve_polygon(quarter_octagon(), 0.16, k=1)
        _, worst = mirror_image(modes.mesh, hg.polygon_mirror(quarter_octagon()))
        assert symmetry_records(caplog) == [
            f"dof_symmetry: the polygon's mirror on 1089 dofs, worst node match {worst:.3e}",
            "solve_character: 1024 free dofs -> 528 columns, 32 fixed by every generator",
        ]

    @pytest.mark.parametrize("defect", ["moved node", "free node on a dirichlet side"])
    def test_rejects_mesh_that_is_not_symmetric(self, monkeypatch, defect):
        mesh_polygon = hf.mesh_polygon

        def broken(poly, h):
            mesh = mesh_polygon(poly, h)
            if defect == "moved node":
                mesh.nodes[np.argmin(np.abs(mesh.nodes - 0.3 - 0.1j))] += 1e-6
            else:  # its mirror image on side 4 stays constrained
                mesh.side_nodes[0] = np.delete(mesh.side_nodes[0], 3)
            return mesh

        monkeypatch.setattr(hf, "mesh_polygon", broken)
        # the node match is dof_symmetry's check, the constrained dofs solve_character's
        match = {
            "moved node": "not symmetric under the polygon's mirror: 2 of 1089 nodes not mapped onto mesh nodes",
            "free node on a dirichlet side": "the symmetry does not preserve the constrained dofs",
        }[defect]
        with pytest.raises(hf.SymmetryError, match=match):
            hf.solve_polygon(quarter_octagon(), 0.16, k=1)


def symmetry_records(caplog) -> list:
    """Messages of the dof_symmetry and solve_character DEBUG records caught so far."""
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == "hypnodal.hypfem" and r.levelno == logging.DEBUG
        and r.getMessage().startswith(("dof_symmetry:", "solve_character:"))
    ]


@pytest.fixture(scope="module")
def octagon_pencil():
    """Free octagon pencil at h = 0.16 and the dof maps of its real-axis,
    imaginary-axis and pi/4-diagonal mirrors."""
    mesh = hm.mesh_polygon(surfglue.octagon_polygon(), 0.16)
    K, M = hf.assemble(mesh)
    diagonal = hg.Geodesic(0j, 0.3 + 0.3j)
    mirrors = (surfglue.REAL_MIRROR, surfglue.IMAG_MIRROR, diagonal)
    maps = [mirror_image(mesh, hg.reflect_in(g))[0] for g in mirrors]
    return mesh, K, M, maps


class TestSolveCharacter:
    """Modes of a pencil in one character of a group of commuting dof involutions."""

    def test_odd_odd_block_is_the_octagon_doublet(self, monkeypatch, octagon_pencil, caplog):
        mesh, K, M, (real, imag, _) = octagon_pencil
        vals, vecs = hf.solve_lowest(K, M, 6, mesh.nodes)
        sizes = []
        solve_lowest = hf.solve_lowest

        def recorded(K, M, k, points):
            sizes.append(K.shape[0])
            return solve_lowest(K, M, k, points)

        monkeypatch.setattr(hf, "solve_lowest", recorded)
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypfem"):
            (lam,), v = hf.solve_character(K, M, [real, imag], [-1, -1], 1, mesh.nodes)
        assert sizes == [264]  # the centre is the one dof both mirrors fix
        assert symmetry_records(caplog) == [
            "solve_character: 1089 free dofs -> 264 columns, 1 fixed by every generator"
        ]
        doublet = np.flatnonzero(np.abs(vals - lam) <= 1e-6 * (1.0 + lam))
        assert len(doublet) == 2
        assert np.abs(vals[doublet] - lam).max() <= 1e-12 * lam
        U = vecs[:, doublet]
        c = np.linalg.solve(U.T @ (M @ U), U.T @ (M @ v[:, 0]))
        off = v[:, 0] - U @ c
        assert math.sqrt(off @ (M @ off)) <= 1e-10

    def test_one_odd_generator_gives_the_first_nonzero_level(self, octagon_pencil):
        mesh, K, M, (real, _, _) = octagon_pencil
        vals, _ = hf.solve_lowest(K, M, 3, mesh.nodes)
        (lam,), _ = hf.solve_character(K, M, [real], [-1], 1, mesh.nodes)
        assert abs(lam - vals[1]) <= 1e-12 * vals[1]

    def test_rejects_generators_that_do_not_commute(self, octagon_pencil):
        mesh, K, M, (real, _, diagonal) = octagon_pencil
        with pytest.raises(hf.SymmetryError, match="do not commute"):
            hf.solve_character(K, M, [real, diagonal], [1, 1], 1, mesh.nodes)

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("mask", "the symmetry does not preserve the constrained dofs"),
            ("length", "the symmetry maps 1088 dofs, the pencil has 1089"),
            ("involution", "the symmetry does not act on the dofs as an involution"),
            ("stiffness", r"the stiffness matrix does not commute with the symmetry \(mesh not symmetric\)"),
            ("mass", r"the mass matrix does not commute with the symmetry \(mesh not symmetric\)"),
        ],
        ids=["mask", "length", "involution", "stiffness", "mass"],
    )
    def test_names_the_failed_check(self, defect, match):
        mesh, K, M, constrained = quarter_pencil(0.16)
        r = hf.dof_symmetry(mesh.nodes, np.arange(mesh.n_nodes), hg.polygon_mirror(quarter_octagon()), "the mirror")
        moved = np.flatnonzero(r != np.arange(mesh.n_nodes))
        if defect == "mask":  # a constrained dof freed, its mirror image kept
            constrained[np.flatnonzero(constrained)[1]] = False
        elif defect == "length":
            r = r[:-1]
        elif defect == "involution":  # a 3-cycle
            r = r.copy()
            r[moved[:3]] = moved[[1, 2, 0]]
        else:  # same pattern, one diagonal entry without its mirror
            d = moved[~constrained[moved]][0]
            A = (K if defect == "stiffness" else M).copy()
            A[d, d] *= 1.01
            K, M = (A, M) if defect == "stiffness" else (K, A)
        with pytest.raises(hf.SymmetryError, match=f"^{match}$"):
            hf.solve_character(K, M, [r], [1], 1, mesh.nodes, constrained)

    @pytest.mark.parametrize("k00", [2.0, 3.0], ids=["symmetric", "not-symmetric"])
    def test_leaves_a_shared_unsorted_pattern_unchanged(self, k00):
        # sorting K in place would permute the shared indices under M's data
        indptr, indices = np.array([0, 2, 5, 7], dtype=np.int32), np.array([1, 0, 2, 1, 0, 2, 1], dtype=np.int32)
        K = sp.csr_matrix((np.array([-1.0, k00, -1.0, 2.0, -1.0, 2.0, -1.0]), indices, indptr), shape=(3, 3))
        M = sp.csr_matrix((np.array([1.0, 4.0, 1.0, 6.0, 1.0, 4.0, 1.0]), indices, indptr), shape=(3, 3))
        assert np.shares_memory(K.indices, M.indices) and not K.has_sorted_indices
        Kc, Mc = K.copy(), M.copy()
        assert not np.shares_memory(Kc.indices, Mc.indices)
        before = [(A.data.copy(), A.indices.copy(), A.indptr.copy()) for A in (K, M)]

        def verdict(K, M):
            try:
                return hf.solve_character(K, M, [np.array([2, 1, 0])], [1], 1, np.array([0.0, 0.1, 0.2]) + 0j)[0]
            except hf.SymmetryError as e:
                return str(e)

        got = verdict(K, M)
        for A, arrays in zip((K, M), before):
            assert all(np.array_equal(a, b) for a, b in zip((A.data, A.indices, A.indptr), arrays))
        want = verdict(Kc, Mc)
        assert type(got) is type(want) and np.array_equal(got, want)
        assert isinstance(got, str) == (k00 != 2.0)

    def test_deterministic_with_positive_representative(self, octagon_pencil):
        mesh, K, M, (real, imag, _) = octagon_pencil
        a = hf.solve_character(K, M, [real, imag], [-1, -1], 1, mesh.nodes)
        b = hf.solve_character(K, M, [real, imag], [-1, -1], 1, mesh.nodes)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        v = a[1][:, 0]
        d = np.arange(len(v))
        reps = np.flatnonzero(np.minimum.reduce([d, real, imag, real[imag]]) == d)  # smallest dof of each orbit
        assert v[reps[np.argmax(np.abs(v[reps]))]] > 0.0


def free_numbering_fold(K, M, gens, chi, k, points, constrained):
    """Reference for a constrained character solve: reduce to the free
    pencil, renumber the dof maps into free numbering, solve, lift onto all
    dofs."""
    free = np.flatnonzero(~constrained)
    index = np.cumsum(~constrained) - 1  # free numbering of the free dofs
    Kf, Mf = hf.reduce_system(K, M, free)
    vals, vecs = hf.solve_character(Kf, Mf, [index[r[free]] for r in gens], chi, k, points[free])
    full = np.zeros((len(constrained), vecs.shape[1]))
    full[free] = vecs
    return vals, full


def quarter_pencil(h):
    """Mesh, unreduced pencil and Dirichlet mask of the mixed quarter octagon."""
    mesh = hm.mesh_polygon(quarter_octagon(), h)
    K, M = hf.assemble(mesh)
    constrained = np.zeros(mesh.n_nodes, dtype=bool)
    constrained[mesh.nodes_on_label("dirichlet")] = True
    return mesh, K, M, constrained


class TestOneOrbitMatrix:
    """Constrained dofs are zero orbits of the same orbit matrix as the
    symmetry classes: no reduction and lift of their own."""

    @pytest.mark.parametrize("h", [0.16, 0.08, 0.04, 0.02])
    def test_constrained_fold_is_the_free_numbering_fold(self, h, caplog):
        mesh, K, M, constrained = quarter_pencil(h)
        r = hf.dof_symmetry(mesh.nodes, np.arange(mesh.n_nodes), hg.polygon_mirror(quarter_octagon()), "the mirror")
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypfem"):
            vals, vecs = hf.solve_character(K, M, [r], [1], 1, mesh.nodes, constrained)
            ref_vals, ref_vecs = free_numbering_fold(K, M, [r], [1], 1, mesh.nodes, constrained)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
        got, ref = symmetry_records(caplog)  # free dofs, columns and fixed dofs agree
        assert got == ref
        modes = hf.solve_polygon(quarter_octagon(), h, k=1)
        assert np.array_equal(modes.values, vals) and np.array_equal(modes.vectors, vecs)

    def test_no_generator_is_reduce_solve_lift(self, caplog):
        mesh, K, M, constrained = quarter_pencil(0.16)
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypfem"):
            vals, vecs = hf.solve_character(K, M, [], [], 3, mesh.nodes, constrained)
        free = np.flatnonzero(~constrained)
        ref_vals, ref_vecs = hf.solve_lowest(*hf.reduce_system(K, M, free), 3, mesh.nodes[free])
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs[free], ref_vecs) and np.all(vecs[constrained] == 0.0)
        assert symmetry_records(caplog) == [
            "solve_character: 1024 free dofs -> 1024 columns, 1024 fixed by every generator"
        ]

    def test_higher_modes_are_the_plain_solve(self):
        vals, vecs = plain_solve(quarter_octagon(), 0.16, k=2)
        modes = hf.solve_polygon(quarter_octagon(), 0.16, k=2)
        assert np.array_equal(modes.values, vals) and np.array_equal(modes.vectors, vecs)

    def test_octagon_solves_are_the_unreduced_solves(self, octagon_pencil):
        mesh, K, M, (real, imag, _) = octagon_pencil
        modes = hf.solve_polygon(surfglue.octagon_polygon(), 0.16, k=6, essential_labels=())
        vals, vecs = hf.solve_lowest(*hf.reduce_system(K, M, np.arange(mesh.n_nodes)), 6, mesh.nodes)
        assert np.array_equal(modes.values, vals) and np.array_equal(modes.vectors, vecs)
        lam, v = surfglue.mirror_odd_eigenvector(modes, MIXED_QUARTER_LIMIT)
        none = np.zeros(mesh.n_nodes, dtype=bool)
        (ref,), ref_vecs = free_numbering_fold(K, M, [real, imag], [-1, -1], 1, mesh.nodes, none)
        assert lam == ref and np.array_equal(v, ref_vecs[:, 0])

    def test_constrained_orbits_get_no_column(self, caplog):
        mesh, K, M, constrained = quarter_pencil(0.16)
        r = hf.dof_symmetry(mesh.nodes, np.arange(mesh.n_nodes), hg.polygon_mirror(quarter_octagon()), "the mirror")
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypfem"):
            _, vecs = hf.solve_character(K, M, [r], [1], 1, mesh.nodes, constrained)
        assert np.all(vecs[constrained] == 0.0)
        assert symmetry_records(caplog) == [
            "solve_character: 1024 free dofs -> 528 columns, 32 fixed by every generator"
        ]

    def test_dof_symmetry_keeps_the_constrained_dofs(self, caplog):
        mesh, _, _, constrained = quarter_pencil(0.16)
        iso = hg.polygon_mirror(quarter_octagon())
        with caplog.at_level(logging.DEBUG, logger="hypnodal.hypfem"):
            r = hf.dof_symmetry(mesh.nodes, np.arange(mesh.n_nodes), iso, "the mirror")
        image, worst = mirror_image(mesh, iso)
        assert np.array_equal(r, image)
        assert symmetry_records(caplog) == [f"dof_symmetry: the mirror on 1089 dofs, worst node match {worst:.3e}"]
        assert np.array_equal(constrained[r], constrained)

    @pytest.mark.parametrize(
        "defect, match", [("moved node", "not mapped onto mesh nodes"), ("split dof", "copies of one dof to two")]
    )
    def test_dof_symmetry_names_the_failed_check(self, defect, match):
        mesh, _, _, _ = quarter_pencil(0.16)
        iso = hg.polygon_mirror(quarter_octagon())
        nodes, node_dof = mesh.nodes.copy(), np.arange(mesh.n_nodes)
        if defect == "moved node":
            nodes[np.argmin(np.abs(nodes - 0.3 - 0.1j))] += 1e-6
        else:  # a second copy of the nodes, two of whose dofs are swapped
            image, _ = mirror_image(mesh, iso)
            a, b = [d for d in node_dof if image[d] != d][:2]
            assert image[a] != b
            swapped = node_dof.copy()
            swapped[[a, b]] = [b, a]
            node_dof = np.concatenate([node_dof, swapped])
        with pytest.raises(hf.SymmetryError, match=f"not symmetric under the mirror: .*{match}"):
            hf.dof_symmetry(nodes, node_dof, iso, "the mirror")


def plain_shift_invert(K, M, k):
    """Lowest eigenvalues by eigsh's own shift-invert (SuperLU, COLAMD order)."""
    return np.sort(eigsh(K, k=k, M=M, sigma=hf.SIGMA, v0=np.ones(K.shape[0]), return_eigenvectors=False))


@pytest.fixture(scope="module", params=["quarter_dirichlet", "octagon_neumann", "closed_genus3"])
def pencil(request):
    """(K, M, points, k) of the three pencil shapes the benchmark solves."""
    if request.param == "closed_genus3":
        system = surfglue.build_genus3(2.0, h_target=0.16).system
        return system.K, system.M, system.dof_points, 3
    if request.param == "quarter_dirichlet":
        mesh = hm.mesh_polygon(quarter_octagon(), 0.04)
        free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.nodes_on_label("dirichlet"))
        k = 3
    else:
        mesh = hm.mesh_polygon(surfglue.octagon_polygon(), 0.16)
        free = np.arange(mesh.n_nodes)
        k = 6
    K, M = hf.reduce_system(*hf.assemble(mesh), free)
    return K, M, mesh.nodes[free], k


class TestNestedDissection:
    def test_permutation(self, pencil):
        K, M, points, _ = pencil
        p = hf.nested_dissection((K - hf.SIGMA * M).tocsr(), points)
        assert np.array_equal(np.sort(p), np.arange(K.shape[0]))

    def test_permutation_with_coincident_points(self):
        n = 200
        path = sp.diags([np.ones(n - 1), 2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1], format="csr")
        p = hf.nested_dissection(path, np.zeros(n, dtype=complex))
        assert np.array_equal(np.sort(p), np.arange(n))

    def test_eigenvalues_match_plain_shift_invert(self, pencil):
        K, M, points, k = pencil
        vals, _ = hf.solve_lowest(K, M, k, points)
        ref = plain_shift_invert(K, M, k)
        # relative, except absolute for the zero modes of the Neumann and closed pencils
        zero = np.abs(ref) < 1e-8
        assert np.all(np.abs(vals - ref) <= np.where(zero, 1e-9, 1e-9 * np.abs(ref)))

    @pytest.mark.parametrize("pencil", ["quarter_dirichlet", "closed_genus3"], indirect=True)
    def test_less_fill_than_colamd(self, pencil):
        K, M, points, _ = pencil
        A = (K - hf.SIGMA * M).tocsr()
        p = hf.nested_dissection(A, points)
        nd = splu(A[p][:, p].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        colamd = splu(A.tocsc())
        assert nd.L.nnz + nd.U.nnz < colamd.L.nnz + colamd.U.nnz


def centroid_tree(f):
    """kd-tree of the centroids of f's triangles: the candidate search of the former interpolator."""
    cent = f._z.mean(axis=1)
    return cKDTree(np.column_stack([cent.real, cent.imag]))


def reference_interp(f, x, tree, tol=1e-9):
    """Point-by-point interpolation as the scalar loop did it, over the 8 and
    then the 64 nearest centroids of tree (centroid_tree(f)); returns the
    value and the path taken (8 or 64 candidates), or (None, 0) for a point
    in no candidate triangle."""

    def bary(t):
        z0, z1, z2 = f._z[t]
        det = (z1 - z0).real * (z2 - z0).imag - (z1 - z0).imag * (z2 - z0).real
        l1 = ((x - z0).real * (z2 - z0).imag - (x - z0).imag * (z2 - z0).real) / det
        l2 = ((z1 - z0).real * (x - z0).imag - (z1 - z0).imag * (x - z0).real) / det
        return np.array([1.0 - l1 - l2, l1, l2])

    for k in (8, 64):
        k_eff = min(k, len(f.triangles))
        _, idx = tree.query([x.real, x.imag], k=k_eff)
        for t in np.atleast_1d(idx):
            lam = bary(int(t))
            if -lam.min() <= tol:
                return float(lam @ f.values[f.triangles[int(t)]]), k
        if k_eff == len(f.triangles):
            break
    return None, 0


def accepted_pairs(f, x) -> set:
    """(point, triangle) pairs of every triangle of f whose barycentric test accepts a point of x."""
    lam = f._bary(np.arange(len(f.triangles))[None, :], x[:, None])
    return set(zip(*(i.tolist() for i in np.nonzero(lam.min(axis=2) >= -hf.INSIDE_TOL))))


@pytest.fixture(scope="module")
def soup(octagon):
    """Octagon mesh plus a cluster of 40 tiny triangles round c = 0.2 + 0.1j:
    points near c find only tiny triangles among their 8 nearest centroids."""
    rng = np.random.default_rng(3)
    mesh = hm.mesh_polygon(octagon, 0.16)
    centers = 0.2 + 0.1j + 0.03 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    tiny = (centers[:, None] + 1e-3 * np.exp(2j * np.pi * np.arange(3) / 3)).ravel()
    points = np.concatenate([mesh.nodes, tiny])
    tris = np.concatenate([mesh.triangles, mesh.n_nodes + np.arange(len(tiny)).reshape(-1, 3)])
    return hf.P1Interpolator(points, tris, rng.standard_normal(len(points)))


class TestInterpolator:
    def test_batched_matches_scalar_loop(self, soup):
        rng = np.random.default_rng(4)
        near_c = 0.2 + 0.1j + 0.03 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        # anywhere in the mesh: random barycentric points of random triangles
        tris = rng.integers(len(soup.triangles), size=600)
        anywhere = (soup._z[tris] * rng.dirichlet(np.ones(3), size=600)).sum(axis=1)
        x = np.concatenate([near_c, anywhere])
        tree = centroid_tree(soup)
        ref = [reference_interp(soup, complex(p), tree) for p in x]
        paths = {path for _, path in ref}
        assert paths == {8, 64}
        got = soup(x.reshape(2, -1))
        assert got.shape == (2, 400)
        assert np.array_equal(got.ravel(), [v for v, _ in ref])

    def test_scalar_point_gives_float(self, soup):
        x = 0.05 + 0.02j
        got = soup(x)
        assert isinstance(got, float)
        assert got == reference_interp(soup, x, centroid_tree(soup))[0]

    def test_rejects_points_outside(self, soup):
        soup(np.array([0.0j, 0.1 + 0.05j]))
        outside = np.array([0.95 + 0j, -0.9j, 0.05 + 0.02j])
        tree = centroid_tree(soup)
        assert [path for _, path in (reference_interp(soup, complex(p), tree) for p in outside)] == [0, 0, 8]
        # the grid cells of the two misses list no triangle
        msg = "2 of 3 points lie in no triangle (worst barycentric violation inf; 2 outside every triangle's box)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            soup(outside)
        # a point just outside a corner is not clipped in either; it is measured in the best of the
        # triangles its grid cell lists
        corner = surfglue.octagon_polygon().vertices[0] * (1.0 + 1e-6)
        worst = (-soup._bary(soup._candidates(np.array([corner]))[1], corner).min(axis=1)).min()
        assert 1e-9 < worst < 1e-3
        msg = f"1 of 1 points lie in no triangle (worst barycentric violation {worst:.3g}; 0 outside every triangle's box)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            soup(corner)

    @pytest.mark.parametrize(
        "triangles, values, what",
        [
            ([[0, 1, 2]], [1.0, 2.0, 3.0, 4.0], "one value per point"),
            ([[0, 1, 2]], [1.0, 2.0], "one value per point"),
            ([[0, 1, 2]], [[1.0, 2.0, 3.0]], "one value per point"),
            ([0, 1, 2], [1.0, 2.0, 3.0], r"\(T, 3\) triangles"),
            ([[0, 1, 3]], [1.0, 2.0, 3.0], r"\(T, 3\) triangles"),
            ([[0, -1, 2]], [1.0, 2.0, 3.0], r"\(T, 3\) triangles"),
            ([[0, 1, 2]], [1.0, np.inf, np.nan], "finite values: 2 of 3 are not"),
            (np.zeros((0, 3), dtype=int), [1.0, 2.0, 3.0], r"\(T, 3\) triangles, T > 0"),
        ],
    )
    def test_rejects_inputs_that_do_not_fit(self, triangles, values, what):
        points = np.array([0j, 0.1 + 0j, 0.1j])
        with pytest.raises(ValueError, match=what):
            hf.P1Interpolator(points, np.array(triangles), np.array(values))

    def test_rejects_non_finite_corners_and_points(self, soup):
        points = np.array([0j, 0.1 + 0j, 0.1j, complex(np.nan, 0.0)])
        with pytest.raises(ValueError, match="finite corners: 2 of 6 are not"):
            hf.P1Interpolator(points, np.array([[0, 1, 2], [1, 3, 3]]), np.ones(4))
        with pytest.raises(ValueError, match="finite points: 1 of 3 are not"):
            soup(np.array([0j, complex(0.1, np.inf), 0.1j]))

    def test_vertices_and_shared_edges_match_the_tree(self, soup):
        # a node lies in every triangle round it and an edge midpoint in both triangles along it:
        # the nearest centroid decides, as the first hit of the tree's nearest centroids did
        edges = np.sort(np.concatenate([soup.triangles[:, [0, 1]], soup.triangles[:, [1, 2]], soup.triangles[:, [2, 0]]]), axis=1)
        edges, uses = np.unique(edges, axis=0, return_counts=True)
        shared = edges[uses == 2]
        x = np.concatenate([soup.points, soup.points[shared].mean(axis=1)])
        tree = centroid_tree(soup)
        ref = [reference_interp(soup, complex(p), tree) for p in x]
        assert 0 not in {path for _, path in ref}
        assert np.array_equal(soup(x), [v for v, _ in ref])

    def test_overlapping_soup_matches_the_tree(self, octagon):
        # two meshes of the octagon, one turned by 0.1 rad: most points lie in one triangle of each
        rng = np.random.default_rng(5)
        mesh = hm.mesh_polygon(octagon, 0.24)
        points = np.concatenate([mesh.nodes, np.exp(0.1j) * mesh.nodes])
        tris = np.concatenate([mesh.triangles, mesh.n_nodes + mesh.triangles])
        f = hf.P1Interpolator(points, tris, rng.standard_normal(len(points)))
        x = 0.5 * np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
        tree = centroid_tree(f)
        ref = [reference_interp(f, complex(p), tree) for p in x]
        assert 0 not in {path for _, path in ref}
        assert np.array_equal(f(x), [v for v, _ in ref])

    def test_every_accepted_triangle_is_a_candidate(self, soup):
        # points about 1e-11 off nodes and edges, where the barycentric test accepts the most triangles
        # and some that do not contain them
        rng = np.random.default_rng(6)
        base = np.concatenate([soup.points, soup._z[:, :2].mean(axis=1)])
        x = base + 2e-11 * rng.uniform(0, 1, len(base)) * np.exp(2j * np.pi * rng.uniform(0, 1, len(base)))
        assert accepted_pairs(soup, x) <= set(zip(*(c.tolist() for c in soup._candidates(x))))

    def test_a_triangle_accepts_points_across_a_grid_line(self):
        # four triangles over [0, 2]^2 make unit cells from 0; the corner at x = 1 is the least x of
        # triangle 1, which lists it in the cells left of that line only through its grown box
        points = np.array([0, 1 + 0.5j, 1j, 2, 2 + 1j, 2j, 1 + 2j, 1 + 1j, 2 + 2j])
        f = hf.P1Interpolator(points, np.array([[0, 1, 2], [1, 3, 4], [2, 6, 5], [7, 8, 6]]), np.arange(9.0))
        x = 1 + 0.5j - np.array([1e-12, 1e-10, 1.9e-9])  # the second triangle accepts up to 2e-9 left
        accepted = accepted_pairs(f, x)
        assert {(0, 1), (1, 1), (2, 1)} <= accepted <= set(zip(*(c.tolist() for c in f._candidates(x))))

    def test_grid_entries_stay_proportional_to_the_triangles(self):
        # one triangle over the whole grid and 3000 tiny ones inside it: about one cell per triangle
        rng = np.random.default_rng(7)
        centers = 0.2 * (rng.uniform(0, 1, 3000) + 1j * rng.uniform(0, 1, 3000))
        tiny = (centers[:, None] + 1e-4 * np.exp(2j * np.pi * np.arange(3) / 3)).ravel()
        points = np.concatenate([[-1 - 1j, 2 - 1j, -1 + 2j], tiny])
        tris = np.arange(len(points)).reshape(-1, 3)
        f = hf.P1Interpolator(points, tris, np.ones(len(points)))
        assert len(f._cell_tri) <= 3 * len(tris)
        assert np.abs(f(0.5 * (rng.uniform(0, 1, 100) + 1j * rng.uniform(0, 1, 100))) - 1.0).max() <= 1e-15

    def test_a_far_miss_fails_fast_without_a_node_search(self, monkeypatch):
        # 2,000 points near the circle at infinity against the genus-3 pants mesh: most grid cells they
        # clip to list no triangle, and the miss message measures the others in their cells' triangles
        def no_search(*args):
            raise AssertionError("P1Interpolator called match_nodes")

        monkeypatch.setattr(hf, "match_nodes", no_search)
        mesh = hm.mesh_polygon(surfglue.pants_decagon(2.0, 2.0, 2.0), 0.06)
        f = hf.P1Interpolator(mesh.nodes, mesh.triangles, np.ones(mesh.n_nodes))
        far = 0.999 * np.exp(2j * np.pi * np.arange(2000) / 2000)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"^P1Interpolator: 2000 of 2000 points lie in no triangle \(worst barycentric "
                           r"violation inf; [1-9]\d* outside every triangle's box\)$"):
            f(far)
        assert time.perf_counter() - t0 < 0.05


class TestRichardson:
    def test_quarter_sweep_levels_are_consecutive(self):
        # richardson assumes each level halves h: the sweep's meshes must be consecutive 1:4 levels
        meshes = [hm.mesh_polygon(quarter_octagon(), h) for h in (0.16, 0.08, 0.04, 0.02)]
        assert [m.n_nodes for m in meshes] == [1089, 4225, 16641, 66049]
        assert [m.level - meshes[0].level for m in meshes] == [0, 1, 2, 3]
        for coarse, fine in zip(meshes, meshes[1:]):
            assert fine.n_triangles == 4 * coarse.n_triangles

    def test_exact_quadratic_sequence(self):
        # v_h = 7 + 3 h^2 sampled at h, h/2, h/4
        v = [7 + 3 * 0.1**2, 7 + 3 * 0.05**2, 7 + 3 * 0.025**2]
        limit, ratios, err = hf.richardson(v)
        assert limit == pytest.approx(7.0, abs=1e-12)
        assert ratios[0] == pytest.approx(4.0, abs=1e-9)
        assert err == pytest.approx(3 * 0.025**2, abs=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            hf.richardson([1.0])
