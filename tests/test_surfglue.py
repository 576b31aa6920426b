"""Surface gluing: topology audits, reflection extension, pattern search,
and the genus 2 / genus 3 constructions.

Expected invariants (vertex classes, Euler characteristics, circle
contents) are hand-counted from the identification rules; masses follow
from the angle-defect areas of the base polygons.
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hypnodal import hypfem, surfglue
from hypnodal.hypgeo import Geodesic, apply, hyp_distance
from hypnodal.hypmesh import MeshConfig, mesh_polygon

QUARTER_AREA = math.pi / 2
OCTAGON_AREA = 2 * math.pi


def normalized_pairs(pattern):
    return frozenset(frozenset(p) for p in pattern.pairs)


# expensive solves (tiling_ext, octagon_modes, g3) come from conftest.py


class TestTopologyAudit:
    def test_mirror_tiling_complex(self):
        surf = surfglue.mirror_tiling_surface()
        rep = surfglue.audit_topology(surf)
        assert (rep.n_vertices, rep.n_edges, rep.n_faces) == (13, 16, 4)
        assert rep.chi == 1
        assert rep.orientable
        assert not rep.closed
        assert len(rep.boundary_circles) == 1
        assert len(rep.boundary_circles[0]) == 12

    def test_canonical_pants_complex(self):
        surf = surfglue.canonical_pants_surface()
        rep = surfglue.audit_topology(surf)
        assert rep.chi == -1
        assert rep.orientable
        assert rep.genus == 0
        circles = {frozenset(s for _, s in c) for c in rep.boundary_circles}
        assert circles == {frozenset({0}), frozenset({2, 6}), frozenset({4})}

    def test_genus2_closed(self):
        surf = surfglue.genus2_surface()
        rep = surfglue.audit_topology(surf)
        assert surf.n_charts == 2
        assert len(surf.pairings) == 8
        assert rep.chi == -2
        assert rep.closed
        assert rep.orientable
        assert rep.genus == 2

    def test_pants_decagon_circles(self):
        surf = surfglue.pants_decagon_surface(2.0, 2.0, 2.0)
        rep = surfglue.audit_topology(surf)
        assert rep.chi == -1
        assert rep.orientable
        assert len(rep.boundary_circles) == 3
        labels = sorted(
            {surf.side_label(c, s) for c, s in circ}.pop() for circ in rep.boundary_circles
        )
        assert labels == ["dirichlet", "neumann", "neumann"]
        for circ in rep.boundary_circles:
            assert abs(surfglue.circle_length(surf, circ) - 2.0) < 1e-9

    def test_pants_decagon_asymmetric_lengths(self):
        surf = surfglue.pants_decagon_surface(1.4, 2.0, 2.6)
        rep = surfglue.audit_topology(surf)
        by_label = {}
        for circ in rep.boundary_circles:
            lab = {surf.side_label(c, s) for c, s in circ}.pop()
            by_label.setdefault(lab, []).append(surfglue.circle_length(surf, circ))
        assert abs(by_label["dirichlet"][0] - 1.4) < 1e-9
        assert sorted(abs(x - y) for x, y in zip(sorted(by_label["neumann"]), [2.0, 2.6]))[-1] < 1e-9

    def test_genus3_complex(self):
        surf = surfglue.genus3_surface(2.0)
        rep = surfglue.audit_topology(surf)
        assert surf.n_charts == 4
        assert len(surf.pairings) == 20
        assert rep.chi == -4
        assert rep.closed
        assert rep.orientable
        assert rep.genus == 3
        assert [ch.sign for ch in surf.charts] == [1.0, 1.0, -1.0, -1.0]

    def test_double_rejects_disk(self):
        surf = surfglue.Surface(
            base=surfglue.quarter_octagon(), charts=[surfglue.Chart()], pairings=[]
        )
        with pytest.raises(surfglue.GlueError):
            surfglue.double_surface(surf)

    def test_double_rejects_mixed_parities(self):
        surf = surfglue.pants_decagon_surface(2.0, 2.0, 2.0)
        with pytest.raises(surfglue.GlueError):
            surfglue.double_surface(surf)  # one dirichlet + two neumann circles

    def test_double_rejects_mixed_circle(self):
        base = surfglue.pants_decagon_surface(2.0, 2.0, 2.0)
        labels = list(base.base.labels)
        labels[5] = "neumann"  # second half of the dirichlet circle
        mixed = surfglue.Surface(
            base=base.base.relabeled(labels), charts=base.charts, pairings=base.pairings
        )
        rep = surfglue.audit_topology(mixed)
        bad = [
            i
            for i, circ in enumerate(rep.boundary_circles)
            if len({mixed.side_label(c, s) for c, s in circ}) == 2
        ]
        with pytest.raises(surfglue.GlueError):
            surfglue.double_surface(mixed, bad)

    def test_pattern_surface_rejects_self_pairing(self):
        pat = surfglue.PatternResult(
            pairs=((1, 1), (3, 5)),
            start_to_start=(False, False),
            compat=0.0,
            chi=0,
            orientable=True,
            n_boundary=0,
        )
        with pytest.raises(surfglue.GlueError):
            surfglue.build_pattern_surface(pat)


class TestGluedAssembly:
    def test_tiling_mass_is_four_quarters(self, tiling_ext):
        system = tiling_ext.system
        base_K, base_M = hypfem.assemble(system.base_mesh.nodes, system.base_mesh.triangles)
        total = hypfem.total_mass(system.M)
        assert abs(total - 4 * hypfem.total_mass(base_M)) < 1e-12 * total
        assert abs(total - OCTAGON_AREA) / OCTAGON_AREA < 5e-3

    def test_tiling_dof_count_matches_distinct_positions(self, tiling_ext):
        system = tiling_ext.system
        pts = system.picture_nodes().ravel()
        keys = {(round(z.real, 8), round(z.imag, 8)) for z in pts}
        assert system.n_dofs == len(keys)

    def test_tiling_constraints_sit_on_the_mirrors(self, tiling_ext):
        system = tiling_ext.system
        pts = system.picture_nodes().ravel()
        pos = np.empty(system.n_dofs, dtype=complex)
        pos[system.glue_index] = pts
        on_mirror = (np.abs(pos.real) < 1e-9) | (np.abs(pos.imag) < 1e-9)
        assert np.array_equal(system.constrained, on_mirror)
        # no unglued side is dirichlet, so only the interfaces are constrained
        assert not system.dirichlet_boundary.any()

    def test_incompatible_sides_raise(self):
        poly = surfglue.quarter_octagon()
        charts = [surfglue.Chart()]
        bogus = surfglue.pairing_from_base(
            charts, 0, 1, 0, 2, surfglue._side_iso(poly, 1, 2, False)
        )
        surf = surfglue.Surface(base=poly, charts=charts, pairings=[bogus])
        mesh = mesh_polygon(poly, MeshConfig(h_target=0.16))
        with pytest.raises(surfglue.GlueError):
            surfglue.assemble_glued(surf, mesh)

    def test_transport_rejects_wrong_symmetry(self, tiling_ext):
        system = tiling_ext.system
        with pytest.raises(surfglue.GlueError):
            surfglue.transport(system, np.ones(system.base_mesh.n_nodes))


def reference_glue_index(surface, mesh):
    """Dof numbering by a minimal union-find over the 1e-9 side-node matches,
    classes numbered by their smallest slot: the reference for assemble_glued."""
    N = mesh.n_nodes
    parent = list(range(surface.n_charts * N))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in surface.pairings:
        na, nb = mesh.side_nodes[p.side_a], mesh.side_nodes[p.side_b]
        za, zb = apply(surface.base_correspondence(p), mesh.nodes[na]), mesh.nodes[nb]
        dist, j = cKDTree(np.column_stack([zb.real, zb.imag])).query(np.column_stack([za.real, za.imag]))
        assert dist.max() <= 1e-9
        for a, b in zip((p.chart_a * N + na).tolist(), (p.chart_b * N + nb[j]).tolist()):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    uniq, index = np.unique([find(i) for i in range(len(parent))], return_inverse=True)
    return index, len(uniq)


class TestGlueIndexReference:
    def test_genus2(self, octagon_modes):
        surf = surfglue.genus2_surface()
        system = surfglue.assemble_glued(surf, octagon_modes.mesh)
        index, n_dofs = reference_glue_index(surf, octagon_modes.mesh)
        assert system.n_dofs == n_dofs
        assert np.array_equal(system.glue_index, index)

    def test_genus3_coarsest(self):
        surf = surfglue.genus3_surface(2.0)
        mesh = mesh_polygon(surf.base, MeshConfig(h_target=0.25))
        system = surfglue.assemble_glued(surf, mesh)
        index, n_dofs = reference_glue_index(surf, mesh)
        assert system.n_dofs == n_dofs
        assert np.array_equal(system.glue_index, index)


class TestSchwarzExtend:
    def test_two_odd_extensions_tile_the_octagon(self, tiling_ext):
        surf = tiling_ext.surface
        assert surf.n_charts == 4
        assert [ch.sign for ch in surf.charts] == [1.0, -1.0, -1.0, 1.0]
        rep = surfglue.audit_topology(surf)
        assert (rep.chi, rep.orientable, len(rep.boundary_circles)) == (1, True, 1)

    def test_extension_is_discrete_eigenpair(self, tiling_ext):
        assert surfglue.verify_extension(tiling_ext) < 1e-10

    def test_extension_vanishes_on_mirrors(self, tiling_ext):
        v = tiling_ext.vector
        assert np.max(np.abs(v[tiling_ext.system.constrained])) == 0.0

    def test_odd_symmetry_across_both_mirrors(self, tiling_ext):
        system, v = tiling_ext.system, tiling_ext.vector
        err_real = surfglue.picture_symmetry_error(system, v, np.conj, -1.0)
        err_imag = surfglue.picture_symmetry_error(system, v, lambda z: -np.conj(z), -1.0)
        assert err_real < 1e-10
        assert err_imag < 1e-10

    def test_half_turn_invariance(self, tiling_ext):
        # the two mirror reflections compose to the rotation by pi
        system, v = tiling_ext.system, tiling_ext.vector
        assert surfglue.picture_symmetry_error(system, v, lambda z: -z, 1.0) < 1e-10

    def test_eigenvalue_carried_unchanged(self, tiling_ext):
        modes = hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1)
        assert tiling_ext.lam == pytest.approx(float(modes.values[0]), rel=1e-12)

    def test_intermediate_extension_also_exact(self):
        modes = hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1)
        ext = surfglue.as_extended(modes)
        assert ext.residual < 1e-10
        half = surfglue.schwarz_extend(ext, surfglue.REAL_MIRROR, "odd")
        assert half.surface.n_charts == 2
        assert half.residual < 1e-10
        rep = surfglue.audit_topology(half.surface)
        assert rep.chi == 1

    def test_even_extension_of_neumann_mode(self):
        poly = surfglue.quarter_octagon().relabeled(["neumann"] * 5)
        modes = hypfem.solve_polygon(poly, 0.16, k=1, essential_labels=())
        ext = surfglue.as_extended(modes)
        ext = surfglue.schwarz_extend(ext, surfglue.REAL_MIRROR, "even")
        ext = surfglue.schwarz_extend(ext, surfglue.IMAG_MIRROR, "even")
        err = surfglue.picture_symmetry_error(ext.system, ext.vector, np.conj, 1.0)
        assert err < 1e-10
        assert abs(ext.lam) < 1e-8

    def test_parity_label_mismatch_raises(self):
        modes = hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1)
        ext = surfglue.as_extended(modes)
        with pytest.raises(surfglue.GlueError):
            surfglue.schwarz_extend(ext, surfglue.REAL_MIRROR, "even")

    def test_mirror_missing_sides_raises(self, tiling_ext):
        modes = hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1)
        ext = surfglue.as_extended(modes)
        diag = Geodesic(math.pi / 4, math.pi / 4 + math.pi)
        with pytest.raises(surfglue.GlueError):
            surfglue.schwarz_extend(ext, diag, "odd")

    def test_non_eigenvector_has_large_residual(self, tiling_ext):
        system = tiling_ext.system
        pos = np.empty(system.n_dofs, dtype=complex)
        pos[system.glue_index] = system.picture_nodes().ravel()
        bogus = pos.real**2 - 0.3 * pos.imag
        res = surfglue.glued_residual(system, tiling_ext.lam, bogus)
        assert res > 1e-2


class TestPantsSearch:
    def test_search_finds_diagonal_patterns(self, tiling_ext):
        accepted = surfglue.search_pants_gluing(tiling_ext)
        assert len(accepted) >= 1
        found = {normalized_pairs(r) for r in accepted}
        diag1 = frozenset({frozenset({7, 1}), frozenset({3, 5})})
        diag2 = frozenset({frozenset({1, 3}), frozenset({5, 7})})
        assert diag1 in found
        assert diag2 in found
        for r in accepted:
            assert r.is_pants()
            assert r.start_to_start == (False, False)

    def test_scan_counts_patterns(self, tiling_ext):
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        results = surfglue.scan_pants_patterns(f, samples_per_side=4)
        assert len(results) == 840
        pair_sets = {(r.pairs, r.start_to_start) for r in results}
        assert len(pair_sets) == 840

    def test_invariants_agree_with_audit_route(self, tiling_ext):
        # dual-route check on a sample of patterns, compatible or not
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        results = surfglue.scan_pants_patterns(f, samples_per_side=2)
        for r in results[::40]:
            if r.n_boundary == -1:
                continue
            rep = surfglue.audit_topology(surfglue.build_pattern_surface(r))
            assert rep.chi == r.chi
            assert rep.orientable == r.orientable
            assert len(rep.boundary_circles) == r.n_boundary

    def test_opposite_side_pairings_for_odd_mode(self, tiling_ext):
        # pairing each mirror-bisected side with its opposite: start-to-end
        # is the translation along the mirror, which anti-matches an odd
        # function; start-to-start is the half-turn, value-compatible but
        # non-orientable, so never a pants
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        results = surfglue.scan_pants_patterns(f, samples_per_side=8)
        fmax = float(np.max(np.abs(f.values)))
        trans = {
            r.start_to_start: r
            for r in results
            if normalized_pairs(r) == frozenset({frozenset({3, 7}), frozenset({1, 5})})
        }
        assert len(trans) == 4
        assert trans[(False, False)].compat > 0.1 * fmax
        rotation = trans[(True, True)]
        assert rotation.compat < 1e-6 * fmax
        assert not rotation.orientable


class TestGenus2Workflow:
    def test_target_eigenspace_is_numerically_double(self, octagon_modes):
        # the quarter mode and its quarter-turn image are isospectral, so
        # the octagon level carries a two-dimensional eigenspace
        target = 3.8390
        idx = int(np.argmin(np.abs(octagon_modes.values - target)))
        lam = float(octagon_modes.values[idx])
        cluster = np.abs(octagon_modes.values - lam) <= 1e-6 * (1.0 + abs(lam))
        assert int(cluster.sum()) == 2

    def test_transported_mode_is_eigenpair(self, octagon_modes):
        lam, v0 = surfglue.mirror_odd_eigenvector(octagon_modes, 3.8390)
        assert abs(lam - 3.8390) < 2e-2
        surf = surfglue.genus2_surface()
        system = surfglue.assemble_glued(surf, octagon_modes.mesh)
        v = surfglue.transport(system, v0, consistency_tol=1e-8)
        assert surfglue.glued_residual(system, lam, v) < 1e-8
        assert not system.constrained.any()
        total = hypfem.total_mass(system.M)
        assert abs(total - 2 * OCTAGON_AREA) / (2 * OCTAGON_AREA) < 2e-2

    def test_doublet_carries_the_rotation_representation(self, octagon_modes):
        # on the double eigenspace the eighth turn acts with trace 0 and
        # determinant +1, so its eigenvalues are +-i: a genuine
        # two-dimensional representation, not two accidental mirror classes
        target = 3.8390
        idx = int(np.argmin(np.abs(octagon_modes.values - target)))
        lam = float(octagon_modes.values[idx])
        cluster = np.flatnonzero(
            np.abs(octagon_modes.values - lam) <= 1e-6 * (1.0 + abs(lam))
        )
        U = octagon_modes.vectors[:, cluster]
        nodes = octagon_modes.mesh.nodes
        tree = cKDTree(np.column_stack([nodes.real, nodes.imag]))
        rotated = np.exp(1j * math.pi / 4) * nodes
        dist, perm = tree.query(np.column_stack([rotated.real, rotated.imag]))
        assert dist.max() < 1e-9
        S = U.T @ (octagon_modes.M @ U[perm])
        assert abs(np.trace(S)) < 1e-6
        assert abs(np.linalg.det(S) - 1.0) < 1e-6

    def test_constant_in_kernel(self, octagon_modes):
        surf = surfglue.genus2_surface()
        system = surfglue.assemble_glued(surf, octagon_modes.mesh)
        ones = np.ones(system.n_dofs)
        scale = float(np.max(np.abs(system.K.data)))
        assert float(np.max(np.abs(system.K @ ones))) < 1e-9 * scale

    def test_seam_mismatch_vector_rejected(self, octagon_modes):
        surf = surfglue.genus2_surface()
        system = surfglue.assemble_glued(surf, octagon_modes.mesh)
        with pytest.raises(surfglue.GlueError):
            surfglue.transport(system, octagon_modes.mesh.nodes.real.copy())


class TestGenus3Workflow:
    def test_four_charts_chi_minus_four(self, g3):
        rep = surfglue.audit_topology(g3.surface)
        assert g3.surface.n_charts == 4
        assert rep.chi == -4 and rep.closed and rep.genus == 3

    def test_transported_mode_is_eigenpair(self, g3):
        assert g3.residual < 1e-8
        assert g3.lam > 0.05

    def test_vanishes_exactly_on_doubled_dirichlet_circles(self, g3):
        assert g3.system.constrained.any()
        assert np.max(np.abs(g3.vector[g3.system.constrained])) == 0.0

    def test_ground_state_positive_off_the_circles(self, g3):
        u = g3.base_vector
        assert np.max(u) > 0
        assert np.min(u) > -1e-10 * np.max(u)

    def test_total_mass_eight_pi(self, g3):
        total = hypfem.total_mass(g3.system.M)
        assert abs(total - 8 * math.pi) / (8 * math.pi) < 2e-2

    def test_deterministic(self):
        a = surfglue.build_genus3(2.0, h_target=0.25)
        b = surfglue.build_genus3(2.0, h_target=0.25)
        assert a.lam == b.lam
        assert np.array_equal(a.vector, b.vector)


class TestChartInterpolator:
    def test_values_across_interfaces(self, tiling_ext):
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        # odd extension: sample symmetric points deep inside opposite charts
        probe = 0.31 + 0.22j
        assert f(probe) == pytest.approx(-f(np.conj(probe)), abs=1e-12 + 1e-9 * abs(f(probe)))
        # on the mirror the function vanishes
        assert abs(f(0.4 + 0j)) < 1e-9


def test_circle_length_uses_base_sides():
    surf = surfglue.pants_decagon_surface(2.0, 2.4, 3.0)
    rep = surfglue.audit_topology(surf)
    per = sorted(surfglue.circle_length(surf, c) for c in rep.boundary_circles)
    assert per == pytest.approx([2.0, 2.4, 3.0], abs=1e-9)


def test_distance_between_pairing_endpoints_is_isometric():
    # the pairing isometries really map side onto side: endpoints and length
    poly = surfglue.octagon_polygon()
    surf = surfglue.canonical_pants_surface()
    for p in surf.pairings:
        mu = surf.base_correspondence(p)
        sa, sb = poly.side(p.side_a), poly.side(p.side_b)
        ia, ib = apply(mu, sa.start), apply(mu, sa.end)
        d_ends = min(
            abs(ia - sb.start) + abs(ib - sb.end), abs(ia - sb.end) + abs(ib - sb.start)
        )
        assert d_ends < 1e-9
        assert hyp_distance(ia, ib) == pytest.approx(sa.length, abs=1e-12)
