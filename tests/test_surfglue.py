"""Surface gluing: topology audits, reflection extension, pattern search,
and the genus 2 / genus 3 constructions.

Expected invariants (vertex classes, Euler characteristics, circle
contents) are hand-counted from the identification rules; masses follow
from the angle-defect areas of the base polygons.
"""

import dataclasses
import functools
import itertools
import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hypnodal import hypfem, surfglue
from hypnodal.hypgeo import Geodesic, apply, hyp_distance, reflect_in, rotation
from hypnodal.hypmesh import MATCH_TOL, Mesh, match_nodes, mesh_polygon

from test_hypfem import free_numbering_fold
from test_hypgeo import relabeled
from test_hypmesh import with_triangles

QUARTER_AREA = math.pi / 2
OCTAGON_AREA = 2 * math.pi


def normalized_pairs(pattern):
    return frozenset(frozenset(p) for p in pattern.pairs)


def circle_length(surface, circle) -> float:
    """Total hyperbolic length of a boundary circle (list of (chart, side))."""
    return sum(surface.base.side(s).length for _, s in circle)


def picture_symmetry_error(system, v, mapping, sign: float) -> float:
    """max |v(mapping(z)) - sign v(z)| / max |v| over all picture nodes.

    mapping acts on complex picture coordinates and must permute the node
    set (tiling placements only)."""
    pts = system.picture_nodes().ravel()
    vals = v[system.glue_index]
    j, worst = match_nodes(pts, mapping(pts))
    assert worst <= MATCH_TOL, f"picture nodes are not invariant under the mapping (worst {worst:.3e})"
    return float(np.max(np.abs(vals[j] - sign * vals)) / np.max(np.abs(vals)))


# expensive solves (tiling_ext, octagon_modes, g3) come from conftest.py


class TestTopologyAudit:
    def test_mirror_tiling_complex(self, tiling_ext):
        rep = surfglue.audit_topology(tiling_ext.surface)
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
            {surf.base.labels[s] for _, s in circ}.pop() for circ in rep.boundary_circles
        )
        assert labels == ["dirichlet", "neumann", "neumann"]
        for circ in rep.boundary_circles:
            assert abs(circle_length(surf, circ) - 2.0) < 1e-9

    def test_pants_decagon_asymmetric_lengths(self):
        surf = surfglue.pants_decagon_surface(1.4, 2.0, 2.6)
        rep = surfglue.audit_topology(surf)
        by_label = {}
        for circ in rep.boundary_circles:
            lab = {surf.base.labels[s] for _, s in circ}.pop()
            by_label.setdefault(lab, []).append(circle_length(surf, circ))
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
        with pytest.raises(surfglue.GlueError, match="mix labels"):
            surfglue.double_surface(surf)  # one dirichlet + two neumann circles

    def test_double_rejects_mixed_circle(self):
        base = surfglue.pants_decagon_surface(2.0, 2.0, 2.0)
        labels = list(base.base.labels)
        labels[5] = "neumann"  # second half of the dirichlet circle
        mixed = surfglue.Surface(
            base=relabeled(base.base, labels), charts=base.charts, pairings=base.pairings
        )
        rep = surfglue.audit_topology(mixed)
        bad = [
            i
            for i, circ in enumerate(rep.boundary_circles)
            if len({mixed.base.labels[s] for _, s in circ}) == 2
        ]
        with pytest.raises(surfglue.GlueError, match="mix labels"):
            surfglue.double_surface(mixed, bad)

    def test_side_glued_twice_raises(self):
        # side 0 paired with both 2 and 4: vertex class {1, 2, 4} meets three unglued sides
        with pytest.raises(surfglue.GlueError):
            surfglue._cell_complex(1, 8, [(0, 0, 0, 2, False), (0, 0, 0, 4, False)])

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


def reference_cell_complex(n_charts: int, n: int, glued) -> surfglue.TopologyReport:
    """surfglue._cell_complex as three algorithms (a union-find for the
    vertices, a face-flag DFS for orientability, a chain walk for the
    boundary circles), kept as the reference of the one union-find.

    Invariants of n_charts n-gons with sides identified by glued, a list
    of (chart_a, side_a, chart_b, side_b, start_to_start) tuples.

    Vertices are chart polygon corners identified through pairing endpoint
    matches; every pairing merges two sides into one edge; faces are charts.
    Orientability assigns each chart a flag: a pairing that matches start
    vertex to start vertex forces opposite flags (the sides are traversed
    parallel), start to end forces equal flags.
    """
    parent = list(range(n_charts * n))  # corner k of chart c is c * n + k

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj = [[] for _ in range(n_charts)]  # (neighbour chart, must_flip)
    for ca, sa, cb, sb, s2s in glued:
        ends_b = (sb, sb + 1) if s2s else (sb + 1, sb)
        for ka, kb in zip((sa, sa + 1), ends_b):
            parent[find(ca * n + ka % n)] = find(cb * n + kb % n)
        adj[ca].append((cb, s2s))
        adj[cb].append((ca, s2s))
    root = [find(x) for x in range(n_charts * n)]

    V = len(set(root))
    E = n_charts * n - len(glued)
    chi = V - E + n_charts

    # orientability: propagate face flags, contradiction means non-orientable
    orient = [0] * n_charts
    orientable = True
    for start in range(n_charts):
        if orient[start]:
            continue
        orient[start] = 1
        stack = [start]
        while stack:
            c = stack.pop()
            for d, must_flip in adj[c]:
                want = -orient[c] if must_flip else orient[c]
                if not orient[d]:
                    orient[d] = want
                    stack.append(d)
                elif orient[d] != want:
                    orientable = False

    # boundary circles: unglued sides chained through vertex classes
    glued_sides = {(ca, sa) for ca, sa, *_ in glued} | {(cb, sb) for _, _, cb, sb, _ in glued}
    unglued = [(c, s) for c in range(n_charts) for s in range(n) if (c, s) not in glued_sides]
    ends = {(c, s): (root[c * n + s], root[c * n + (s + 1) % n]) for c, s in unglued}
    bnd_adj = {}
    for side, (r0, r1) in ends.items():
        bnd_adj.setdefault(r0, []).append(side)
        bnd_adj.setdefault(r1, []).append(side)
    for r, sides in bnd_adj.items():
        if len(sides) != 2:
            raise surfglue.GlueError(
                f"boundary vertex class {divmod(r, n)} touches {len(sides)} unglued sides; expected 2"
            )
    circles = []
    seen = set()
    for c, s in unglued:
        if (c, s) in seen:
            continue
        circle = [(c, s)]
        seen.add((c, s))
        cursor = ends[c, s][1]
        while True:
            nxt = [e for e in bnd_adj[cursor] if e not in seen]
            if not nxt:
                break
            e = nxt[0]
            circle.append(e)
            seen.add(e)
            r0, r1 = ends[e]
            cursor = r1 if r0 == cursor else r0
        circles.append(circle)

    return surfglue.TopologyReport(
        n_vertices=V,
        n_edges=E,
        n_faces=n_charts,
        chi=chi,
        orientable=orientable,
        boundary_circles=circles,
        closed=not unglued,
    )


def pairing_flags(surface):
    """The (chart_a, side_a, chart_b, side_b, start_to_start) list audit_topology counts."""
    return [
        (p.chart_a, p.side_a, p.chart_b, p.side_b, surfglue._pairing_start_to_start(surface, p))
        for p in surface.pairings
    ]


def count_or_error(count, n_charts, n, glued):
    """The TopologyReport of count, or the message of the GlueError it raises."""
    try:
        return count(n_charts, n, glued)
    except surfglue.GlueError as e:
        return str(e)


def assert_matches_reference(n_charts, n, glued):
    """_cell_complex and reference_cell_complex agree on every invariant and
    on the circles as side sets, or raise the same GlueError; the sides of
    each circle come in (chart, side) order."""
    got = count_or_error(surfglue._cell_complex, n_charts, n, glued)
    ref = count_or_error(reference_cell_complex, n_charts, n, glued)
    if isinstance(ref, str):
        assert got == ref
        return got
    fields = ("n_vertices", "n_edges", "n_faces", "chi", "orientable", "closed")
    assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert [set(c) for c in got.boundary_circles] == [set(c) for c in ref.boundary_circles]
    assert all(c == sorted(c) for c in got.boundary_circles)
    return got


def built_surfaces():
    """Every surface the code builds except the four-chart tiling (a fixture)."""
    pants = surfglue.pants_decagon_surface()
    circles = surfglue.audit_topology(pants).boundary_circles
    neumann_ids = [i for i, c in enumerate(circles) if all(pants.base.labels[s] == "neumann" for _, s in c)]
    return {
        "canonical pants": surfglue.canonical_pants_surface(),
        "genus 2": surfglue.genus2_surface(),
        "pants decagon": pants,
        "genus 3 stage A": surfglue.double_surface(pants, neumann_ids),
        "genus 3": surfglue.genus3_surface(),
    }


@st.composite
def glued_complexes(draw):
    """1-4 charts of one 4- to 10-gon with random disjoint side pairs, within
    and across charts, and random endpoint flags."""
    C, n = draw(st.integers(1, 4)), draw(st.integers(4, 10))
    sides = draw(st.permutations([(c, s) for c in range(C) for s in range(n)]))
    k = draw(st.integers(0, len(sides) // 2))
    flags = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return C, n, [(*sides[2 * i], *sides[2 * i + 1], flags[i]) for i in range(k)]


class TestOneUnionFind:
    """The one union-find count of the glued complex against the three-algorithm reference."""

    def test_every_octagon_pattern(self):
        for pairs, flags in octagon_patterns():
            assert_matches_reference(1, 8, [(0, i, 0, j, s2s) for (i, j), s2s in zip(pairs, flags)])

    def test_every_built_surface(self, tiling_ext):
        surfaces = {"tiling": tiling_ext.surface, **built_surfaces()}
        for surface in surfaces.values():
            assert_matches_reference(surface.n_charts, surface.base.n, pairing_flags(surface))

    @given(glued_complexes())
    @settings(max_examples=300, deadline=None)
    def test_random_complexes(self, complex_):
        assert_matches_reference(*complex_)

    def test_two_chart_mobius_band(self):
        # two squares glued side 0 to side 0 start-to-end and side 2 to side 2
        # start-to-start: a strip with a half twist, whose corner classes are
        # {0, 5}, {1, 4}, {2, 6}, {3, 7} and whose four free sides form one circle
        rep = assert_matches_reference(2, 4, [(0, 0, 1, 0, False), (0, 2, 1, 2, True)])
        assert (rep.n_vertices, rep.n_edges, rep.n_faces, rep.chi) == (4, 6, 2, 0)
        assert not rep.orientable and not rep.closed
        assert rep.boundary_circles == [[(0, 1), (0, 3), (1, 1), (1, 3)]]
        annulus = assert_matches_reference(2, 4, [(0, 0, 1, 0, False), (0, 2, 1, 2, False)])
        assert annulus.orientable and len(annulus.boundary_circles) == 2


class TestOneUnionFindIsBitIdentical:
    """The pipelines give bit-identical outputs with the reference count."""

    def test_build_genus3(self, monkeypatch):
        ext = surfglue.build_genus3(2.0, h_target=0.16)
        monkeypatch.setattr(surfglue, "_cell_complex", reference_cell_complex)
        ref = surfglue.build_genus3(2.0, h_target=0.16)
        assert ext.lam == ref.lam and ext.residual == ref.residual
        assert np.array_equal(ext.vector, ref.vector)
        assert np.array_equal(ext.system.glue_index, ref.system.glue_index)
        assert ext.surface.pairings == ref.surface.pairings

    def test_built_surfaces_and_circles(self, monkeypatch):
        got = built_surfaces()
        circles = {name: surfglue.audit_topology(got[name]).boundary_circles for name in got}
        monkeypatch.setattr(surfglue, "_cell_complex", reference_cell_complex)
        ref = built_surfaces()
        for name, surface in got.items():
            assert surface.pairings == ref[name].pairings, name
        for name in ("canonical pants", "pants decagon"):
            assert circles[name] == surfglue.audit_topology(ref[name]).boundary_circles, name

    def test_quarter_extension_and_pants_search(self, tiling_ext, monkeypatch):
        patterns = surfglue._pair_patterns(8)
        accepted = surfglue.search_pants_gluing(tiling_ext)
        monkeypatch.setattr(surfglue, "_cell_complex", reference_cell_complex)
        monkeypatch.setattr(surfglue, "_pair_patterns", functools.cache(surfglue._pair_patterns.__wrapped__))
        ref = surfglue.extend_quarter_mode(0.16)
        assert np.array_equal(ref.vector, tiling_ext.vector) and ref.residual == tiling_ext.residual
        assert surfglue._pair_patterns(8) == patterns
        assert surfglue.search_pants_gluing(ref) == accepted


class TestGluedAssembly:
    def test_tiling_mass_is_four_quarters(self, tiling_ext):
        system = tiling_ext.system
        base_K, base_M = hypfem.assemble(system.base_mesh)
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
        bogus = surfglue.Pairing(0, 1, 0, 2, surfglue._side_iso(poly, 1, 2, False))
        surf = surfglue.Surface(base=poly, charts=charts, pairings=[bogus])
        mesh = mesh_polygon(poly, 0.16)
        with pytest.raises(surfglue.GlueError):
            surfglue.assemble_glued(surf, mesh)

    def test_rejects_a_mesh_of_another_polygon(self):
        # the labels of the mesh's polygon set the constraints: they must be the surface's
        quarter = surfglue.quarter_octagon()
        free = relabeled(quarter, ["neumann"] * 5)
        with pytest.raises(surfglue.GlueError, match="not a mesh of the surface's base polygon"):
            surfglue.assemble_glued(surfglue.Surface(free, [surfglue.Chart()], []), mesh_polygon(quarter, 0.24))

    def test_match_failure_reports_the_true_worst_distance(self):
        # the bounded tree query finds no point near 0.2; the worst distance is still its own
        points, targets = np.array([0j, 0.5 + 0j]), np.array([1e-12 + 0j, 0.2 + 0j])
        j, worst = match_nodes(points, targets)
        assert j.tolist() == [0, 0]
        assert worst == 0.2

    def test_rejects_more_glued_dofs_than_int32_indexes(self, monkeypatch):
        poly = surfglue.quarter_octagon()
        mesh = mesh_polygon(poly, 0.24)
        huge = lambda *args, **kwargs: (2**31, np.zeros(mesh.n_nodes, dtype=np.int32))  # noqa: E731
        monkeypatch.setattr(surfglue, "connected_components", huge)
        with pytest.raises(surfglue.GlueError, match="2147483648 glued dofs do not fit the int32 dof index"):
            surfglue.assemble_glued(surfglue.Surface(poly, [surfglue.Chart()], []), mesh)

    def test_symmetry_error_rejects_non_symmetry(self, tiling_ext):
        with pytest.raises(AssertionError, match="not invariant"):
            picture_symmetry_error(tiling_ext.system, tiling_ext.vector, lambda z: np.exp(0.1j) * z, 1.0)

    def test_transport_rejects_wrong_symmetry(self, tiling_ext):
        system = tiling_ext.system
        with pytest.raises(surfglue.GlueError):
            surfglue.transport(system, np.ones(system.base_mesh.n_nodes))

    def test_transport_matches_per_chart_accumulation(self, tiling_ext, g3):
        # reference: chart by chart np.add.at of the signed values, then the member mean
        for ext in (tiling_ext, g3):
            system, u = ext.system, ext.base_vector
            N = system.base_mesh.n_nodes
            sums, counts = np.zeros(system.n_dofs), np.zeros(system.n_dofs)
            for c, ch in enumerate(system.surface.charts):
                gi = system.glue_index[c * N : (c + 1) * N]
                np.add.at(sums, gi, ch.sign * u)
                np.add.at(counts, gi, 1.0)
            assert np.array_equal(surfglue.transport(system, u), sums / counts)


def reference_glued(surface, base, odd=()):
    """assemble_glued by the rules it replaced, kept as its reference.

    Side nodes are matched by a kd-tree within 1e-9, one to one; dofs are
    numbered by a minimal union-find, classes in the order of their
    smallest slot; the constrained dofs are those on unglued dirichlet
    sides plus both sides of every pairing whose index is in odd (the
    parity-tagged odd interfaces).  K and M scatter the base entries chart
    by chart in storage order.  base is a Mesh or a surfglue.Base; returns
    (glue_index, constrained, dirichlet_boundary, K, M).
    """
    if isinstance(base, Mesh):
        base = surfglue.Base(base, *hypfem.assemble(base), np.arange(base.n_nodes))
    mesh, C = base.mesh, surface.n_charts
    N = mesh.n_nodes
    parent = list(range(C * N))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    odd_slots = []
    for i, p in enumerate(surface.pairings):
        na, nb = mesh.side_nodes[p.side_a], mesh.side_nodes[p.side_b]
        za, zb = apply(p.mu, mesh.nodes[na]), mesh.nodes[nb]
        dist, j = cKDTree(np.column_stack([zb.real, zb.imag])).query(np.column_stack([za.real, za.imag]))
        assert dist.max() <= 1e-9
        assert len(np.unique(j)) == len(nb)
        for a, b in zip((p.chart_a * N + na).tolist(), (p.chart_b * N + nb[j]).tolist()):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
        if i in odd:
            odd_slots += [p.chart_a * N + na, p.chart_b * N + nb]
    uniq, index = np.unique([find(i) for i in range(len(parent))], return_inverse=True)
    G = len(uniq)

    dirichlet = np.zeros(G, dtype=bool)
    for c, s in surface.unglued_sides():
        if surface.base.labels[s] == "dirichlet":
            dirichlet[index[c * N + mesh.side_nodes[s]]] = True
    constrained = dirichlet.copy()
    for slots in odd_slots:
        constrained[index[slots]] = True

    chart_dof = np.zeros((C, base.K.shape[0]), dtype=np.int64)
    chart_dof[:, base.dof] = index.reshape(C, N)
    Kc, Mc = base.K.tocoo(), base.M.tocoo()
    rc = (chart_dof[:, Kc.row].ravel(), chart_dof[:, Kc.col].ravel())
    K = sp.coo_matrix((np.tile(Kc.data, C), rc), shape=(G, G)).tocsr()
    M = sp.coo_matrix((np.tile(Mc.data, C), rc), shape=(G, G)).tocsr()
    return index, constrained, dirichlet, K, M


@pytest.fixture(scope="module")
def reference_cases():
    """(surface, base, indices of its odd pairings) for every surface the
    code glues: the quarter tiling at 1, 2 and 4 charts, the pants at two
    levels, the genus-3 stages over the pants system, genus 2 and the
    canonical pants."""
    one = surfglue.as_extended(hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1))
    two = surfglue.schwarz_extend(one, surfglue.REAL_MIRROR)
    four = surfglue.schwarz_extend(two, surfglue.IMAG_MIRROR)
    # both mirrors carry the quarter's dirichlet sides: every tiling interface is odd
    cases = {f"tiling-{e.surface.n_charts}": (e.surface, e.base, range(len(e.surface.pairings)))
             for e in (one, two, four)}
    pants = surfglue.pants_decagon_surface()
    for h in (0.24, 0.16):
        cases[f"pants-{h}"] = (pants, mesh_polygon(pants.base, h), ())
    psys = surfglue.assemble_glued(pants, cases["pants-0.16"][1])
    base = surfglue.Base(psys.base_mesh, psys.K, psys.M, psys.glue_index)
    circles = surfglue.audit_topology(pants).boundary_circles
    neumann = [i for i, c in enumerate(circles) if pants.base.labels[c[0][1]] == "neumann"]
    stage_a = surfglue.double_surface(pants, neumann)
    g3 = surfglue.double_surface(stage_a)
    assert g3 == surfglue.genus3_surface()
    cases["genus3-stage-a"] = (stage_a, base, ())
    cases["genus3"] = (g3, base, range(2 * len(stage_a.pairings), len(g3.pairings)))  # the odd double's twins
    octagon = mesh_polygon(surfglue.octagon_polygon(), 0.16)
    cases["genus2"] = (surfglue.genus2_surface(), octagon, ())
    cases["canonical-pants"] = (surfglue.canonical_pants_surface(), octagon, ())
    return cases


class TestGlueIndexReference:
    def test_genus2(self, octagon_modes):
        surf = surfglue.genus2_surface()
        system = surfglue.assemble_glued(surf, octagon_modes.mesh)
        index, *_ = reference_glued(surf, octagon_modes.mesh)
        assert system.n_dofs == index.max() + 1
        assert np.array_equal(system.glue_index, index)

    def test_genus3_coarsest(self):
        surf = surfglue.genus3_surface(2.0)
        mesh = mesh_polygon(surf.base, 0.25)
        system = surfglue.assemble_glued(surf, mesh)
        index, *_ = reference_glued(surf, mesh)
        assert system.n_dofs == index.max() + 1
        assert np.array_equal(system.glue_index, index)

    @pytest.mark.parametrize(
        "case",
        ["tiling-1", "tiling-2", "tiling-4", "pants-0.24", "pants-0.16", "genus3-stage-a", "genus3",
         "genus2", "canonical-pants"],
    )
    def test_equals_kd_tree_and_parity_reference(self, reference_cases, case):
        surface, base, odd = reference_cases[case]
        system = surfglue.assemble_glued(surface, base)
        got = (system.glue_index, system.constrained, system.dirichlet_boundary, system.K, system.M)
        for a, b in zip(got, reference_glued(surface, base, odd)):
            if sp.issparse(a):
                a, b = a.tocoo(), b.tocoo()
                assert np.array_equal(a.row, b.row) and np.array_equal(a.col, b.col)
                a, b = a.data, b.data
            assert np.array_equal(a, b)

    def test_side_with_fewer_nodes_raises(self):
        # side_b loses a node: its partner's image is as far from side_b as
        # the nearest remaining node, the worst distance of either side to the other
        pants = surfglue.pants_decagon_surface()
        mesh = mesh_polygon(pants.base, 0.24)
        p = pants.pairings[0]
        na, nb = mesh.side_nodes[p.side_a], np.delete(mesh.side_nodes[p.side_b], 2)
        side_nodes = [nb if i == p.side_b else sn for i, sn in enumerate(mesh.side_nodes)]
        d = np.abs(apply(p.mu, mesh.nodes[na])[:, None] - mesh.nodes[nb][None, :])
        worst = max(d.min(axis=0).max(), d.min(axis=1).max())
        assert worst > 1e-3
        msg = rf"\(0,1\)-\(0,8\): side nodes do not match .*; {len(na)} and {len(nb)} nodes, "
        msg += rf"worst match distance {worst:.3e}\)$"
        with pytest.raises(surfglue.GlueError, match=msg):
            surfglue.assemble_glued(pants, dataclasses.replace(mesh, side_nodes=side_nodes))

    def test_moved_side_node_raises(self):
        pants = surfglue.pants_decagon_surface()
        mesh = mesh_polygon(pants.base, 0.24)
        p = pants.pairings[1]
        nodes = mesh.nodes.copy()
        nodes[mesh.side_nodes[p.side_b][3]] += 1e-6j
        n = len(mesh.side_nodes[p.side_b])
        msg = rf"\(0,3\)-\(0,6\): side nodes do not match .*; {n} and {n} nodes, worst match distance 1\.000e-06\)$"
        with pytest.raises(surfglue.GlueError, match=msg):
            surfglue.assemble_glued(pants, dataclasses.replace(mesh, nodes=nodes))


class TestSchwarzExtend:
    def test_two_odd_extensions_tile_the_octagon(self, tiling_ext):
        surf = tiling_ext.surface
        assert surf.n_charts == 4
        assert [ch.sign for ch in surf.charts] == [1.0, -1.0, -1.0, 1.0]
        rep = surfglue.audit_topology(surf)
        assert (rep.chi, rep.orientable, len(rep.boundary_circles)) == (1, True, 1)

    def test_extension_is_discrete_eigenpair(self, tiling_ext):
        assert tiling_ext.residual < 1e-10

    def test_extension_vanishes_on_mirrors(self, tiling_ext):
        v = tiling_ext.vector
        assert np.max(np.abs(v[tiling_ext.system.constrained])) == 0.0

    def test_odd_symmetry_across_both_mirrors(self, tiling_ext):
        system, v = tiling_ext.system, tiling_ext.vector
        err_real = picture_symmetry_error(system, v, np.conj, -1.0)
        err_imag = picture_symmetry_error(system, v, lambda z: -np.conj(z), -1.0)
        assert err_real < 1e-10
        assert err_imag < 1e-10

    def test_half_turn_invariance(self, tiling_ext):
        # the two mirror reflections compose to the rotation by pi
        system, v = tiling_ext.system, tiling_ext.vector
        assert picture_symmetry_error(system, v, lambda z: -z, 1.0) < 1e-10

    def test_eigenvalue_carried_unchanged(self, tiling_ext):
        modes = hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1)
        assert tiling_ext.lam == pytest.approx(float(modes.values[0]), rel=1e-12)

    def test_intermediate_extension_also_exact(self):
        modes = hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1)
        ext = surfglue.as_extended(modes)
        assert ext.residual < 1e-10
        half = surfglue.schwarz_extend(ext, surfglue.REAL_MIRROR)
        assert half.surface.n_charts == 2
        assert half.residual < 1e-10
        rep = surfglue.audit_topology(half.surface)
        assert rep.chi == 1

    def test_even_extension_of_neumann_mode(self):
        poly = relabeled(surfglue.quarter_octagon(), ["neumann"] * 5)
        modes = hypfem.solve_polygon(poly, 0.16, k=1, essential_labels=())
        ext = surfglue.as_extended(modes)
        ext = surfglue.schwarz_extend(ext, surfglue.REAL_MIRROR)
        ext = surfglue.schwarz_extend(ext, surfglue.IMAG_MIRROR)
        assert [ch.sign for ch in ext.surface.charts] == [1.0] * 4
        assert not ext.system.constrained.any()
        err = picture_symmetry_error(ext.system, ext.vector, np.conj, 1.0)
        assert err < 1e-10
        assert abs(ext.lam) < 1e-8

    def test_mirror_missing_sides_raises(self, tiling_ext):
        modes = hypfem.solve_polygon(surfglue.quarter_octagon(), 0.16, k=1)
        ext = surfglue.as_extended(modes)
        diag = Geodesic(0j, 0.3 + 0.3j)
        with pytest.raises(surfglue.GlueError):
            surfglue.schwarz_extend(ext, diag)

    def test_non_eigenvector_has_large_residual(self, tiling_ext):
        system = tiling_ext.system
        pos = np.empty(system.n_dofs, dtype=complex)
        pos[system.glue_index] = system.picture_nodes().ravel()
        bogus = pos.real**2 - 0.3 * pos.imag
        res = surfglue.glued_residual(system, tiling_ext.lam, bogus)
        assert res > 1e-2


class _DSU:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def _pattern_invariants(poly_n: int, pairs, s2s_flags) -> tuple:
    """chi, orientability, and boundary circle count of one polygon with the
    given side pairings; standalone union-find on the polygon corners,
    independent of the Surface/audit route."""
    dsu = _DSU()
    for k in range(poly_n):
        dsu.find(k)
    orientable = True
    for (i, j), s2s in zip(pairs, s2s_flags):
        if s2s:
            dsu.union(i, j)
            dsu.union((i + 1) % poly_n, (j + 1) % poly_n)
            orientable = False  # both sides on one face: parallel traversal flips
        else:
            dsu.union(i, (j + 1) % poly_n)
            dsu.union((i + 1) % poly_n, j)
    V = len({dsu.find(k) for k in range(poly_n)})
    E = poly_n - len(pairs)
    chi = V - E + 1

    paired = {i for ij in pairs for i in ij}
    unglued = [s for s in range(poly_n) if s not in paired]
    bnd_adj = {}
    for s in unglued:
        for r in (dsu.find(s), dsu.find((s + 1) % poly_n)):
            bnd_adj.setdefault(r, []).append(s)
    if any(len(v) != 2 for v in bnd_adj.values()):
        return chi, orientable, -1  # degenerate boundary graph, never a pants
    seen, circles = set(), 0
    for s in unglued:
        if s in seen:
            continue
        circles += 1
        seen.add(s)
        cursor = dsu.find((s + 1) % poly_n)
        while True:
            nxt = [e for e in bnd_adj[cursor] if e not in seen]
            if not nxt:
                break
            e = nxt[0]
            seen.add(e)
            r0, r1 = dsu.find(e), dsu.find((e + 1) % poly_n)
            cursor = r1 if r0 == cursor else r0
    return chi, orientable, circles


def octagon_patterns():
    """All 840 patterns of two disjoint side pairings of the octagon."""
    out = []
    for quad in itertools.combinations(range(8), 4):
        for b in quad[1:]:
            pairs = ((quad[0], b), tuple(s for s in quad[1:] if s != b))
            out += [(pairs, flags) for flags in itertools.product((False, True), repeat=2)]
    return out


def reference_scan(f, poly, samples_per_side):
    """The pattern scan as a per-pattern loop: both side maps of every
    pattern re-applied and interpolated point by point."""
    n = poly.n
    side_samples = []
    for i in range(n):
        s = poly.side(i)
        L = s.length
        side_samples.append([s.point_at(L * (q + 0.5) / samples_per_side) for q in range(samples_per_side)])
    f_at = {i: np.array([f(x) for x in side_samples[i]]) for i in range(n)}
    results = []
    for quad in itertools.combinations(range(n), 4):
        a = quad[0]
        for b in quad[1:]:
            pair1 = (a, b)
            pair2 = tuple(s for s in quad if s not in pair1)
            for s2s1 in (False, True):
                for s2s2 in (False, True):
                    compat = 0.0
                    for (i, j), s2s in zip((pair1, pair2), (s2s1, s2s2)):
                        iso = surfglue._side_iso(poly, i, j, s2s)
                        vals_j = np.array([f(apply(iso, x)) for x in side_samples[i]])
                        compat = max(compat, float(np.max(np.abs(vals_j - f_at[i]))))
                    chi, orientable, circles = _pattern_invariants(n, (pair1, pair2), (s2s1, s2s2))
                    results.append(
                        surfglue.PatternResult((pair1, pair2), (s2s1, s2s2), compat, chi, orientable, circles)
                    )
    fmax = float(np.max(np.abs(f.values)))
    results.sort(key=lambda r: (round(r.compat / fmax, 9), r.pairs, r.start_to_start))
    return results


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

    def test_scan_matches_per_pattern_loop(self, tiling_ext):
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        poly = surfglue.octagon_polygon()
        got = surfglue.scan_pants_patterns(f, poly, samples_per_side=4)
        assert got == reference_scan(f, poly, samples_per_side=4)

    def test_roundoff_ties_in_lexicographic_order(self, tiling_ext):
        # the patterns the odd mode matches exactly sit at roundoff, far below the next one
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        fmax = float(np.max(np.abs(f.values)))
        results = surfglue.scan_pants_patterns(f)
        tied = [r for r in results if r.compat <= 1e-12 * fmax]
        assert len(tied) >= 2
        assert results[len(tied)].compat > 0.1 * fmax
        keys = [(r.pairs, r.start_to_start) for r in tied]
        assert keys == sorted(keys)

    def test_zero_function_rejected(self, tiling_ext):
        f = surfglue.chart_interpolator(tiling_ext.system, np.zeros(tiling_ext.system.n_dofs))
        with pytest.raises(surfglue.GlueError):
            surfglue.scan_pants_patterns(f)

    def test_scan_needs_no_fallback(self, tiling_ext):
        # every side sample and mapped sample lies in a chart triangle at h = 0.16:
        # the interpolator raises for a point in none, so the scan completes
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        assert len(surfglue.scan_pants_patterns(f)) == 840

    def test_cell_complex_matches_reference_count(self):
        patterns = octagon_patterns()
        assert len(patterns) == 840
        for pairs, flags in patterns:
            rep = surfglue._cell_complex(1, 8, [(0, i, 0, j, s2s) for (i, j), s2s in zip(pairs, flags)])
            got = (rep.chi, rep.orientable, len(rep.boundary_circles))
            assert got == _pattern_invariants(8, pairs, flags)
            assert (rep.n_vertices - rep.n_edges + rep.n_faces, rep.n_edges, rep.n_faces) == (rep.chi, 6, 1)

    def test_invariants_agree_with_audit_route(self, tiling_ext):
        # dual-route check on every pattern, compatible or not
        f = surfglue.chart_interpolator(tiling_ext.system, tiling_ext.vector)
        results = surfglue.scan_pants_patterns(f, samples_per_side=2)
        assert len(results) == 840
        for r in results:
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


class TestMirrorOddEigenvector:
    """The octagon mode odd under both axis mirrors, the (-, -) character block."""

    def axis_maps(self, mesh):
        tree = cKDTree(np.column_stack([mesh.nodes.real, mesh.nodes.imag]))
        maps = []
        for image in (mesh.nodes.conj(), -mesh.nodes.conj()):
            dist, j = tree.query(np.column_stack([image.real, image.imag]))
            assert dist.max() <= 1e-9
            maps.append(j)
        return maps

    def test_exactly_odd_under_both_mirrors(self, octagon_modes):
        lam, v = surfglue.mirror_odd_eigenvector(octagon_modes, 3.8390)
        p_real, p_imag = self.axis_maps(octagon_modes.mesh)
        assert np.array_equal(v[p_real], -v)
        assert np.array_equal(v[p_imag], -v)
        on_axes = (p_real == np.arange(len(v))) | (p_imag == np.arange(len(v)))
        assert on_axes.sum() == 129  # 65 nodes on each axis, the centre on both
        assert np.all(v[on_axes] == 0.0)

    def test_eigenvalue_is_the_doublet(self, octagon_modes):
        lam, v = surfglue.mirror_odd_eigenvector(octagon_modes, 3.8390)
        near = octagon_modes.values[np.argmin(np.abs(octagon_modes.values - lam))]
        assert abs(lam - near) <= 1e-12 * lam
        assert v @ (octagon_modes.M @ v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_on_the_constrained_nodes(self):
        octagon = surfglue.octagon_polygon()
        modes = hypfem.solve_polygon(relabeled(octagon, ["dirichlet"] * 8), 0.16, k=6)
        p_real, p_imag = self.axis_maps(modes.mesh)
        # levels 3 and 4 are the cos 2 theta / sin 2 theta doublet; sin 2 theta is odd under both axes
        lam, v = surfglue.mirror_odd_eigenvector(modes, modes.values[3])
        assert np.abs(modes.values[3:5] - lam).max() <= 1e-10 * lam
        assert modes.constrained.sum() == 128 and np.all(v[modes.constrained] == 0.0)
        assert np.array_equal(v[p_real], -v) and np.array_equal(v[p_imag], -v)

    def test_rejects_target_nearest_another_level(self, octagon_modes):
        with pytest.raises(surfglue.GlueError, match="no mirror-odd eigenvector near lambda = 0.0"):
            surfglue.mirror_odd_eigenvector(octagon_modes, 0.0)

    def test_rejects_mesh_that_is_not_symmetric(self, octagon_modes):
        nodes = octagon_modes.mesh.nodes.copy()
        nodes[np.argmin(np.abs(nodes - 0.3 - 0.1j))] += 1e-6
        modes = dataclasses.replace(octagon_modes, mesh=dataclasses.replace(octagon_modes.mesh, nodes=nodes))
        with pytest.raises(surfglue.GlueError, match="not symmetric under the coordinate mirrors"):
            surfglue.mirror_odd_eigenvector(modes, 3.8390)


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


class TestClosedSurfaceOracle:
    """The transported eigenvalue is an eigenvalue of the unconstrained
    closed-surface pencil, at the index the construction predicts."""

    def test_genus2_index_3(self):
        modes = hypfem.solve_polygon(surfglue.octagon_polygon(), 0.16, k=6, essential_labels=())
        lam, _ = surfglue.mirror_odd_eigenvector(modes, 3.8390)
        system = surfglue.assemble_glued(surfglue.genus2_surface(), modes.mesh)
        assert system.n_dofs == 2046
        vals, _ = hypfem.solve_lowest(system.K, system.M, 5, system.dof_points)
        assert abs(vals[3] - lam) <= 1e-9 * lam

    def test_genus3_index_1(self):
        ext = surfglue.build_genus3(2.0, h_target=0.16)
        assert ext.system.n_dofs == 28668
        vals, _ = hypfem.solve_lowest(ext.system.K, ext.system.M, 3, ext.system.dof_points)
        assert abs(vals[1] - ext.lam) <= 1e-9 * ext.lam


class TestOneAssemblyPerBase:
    @pytest.fixture
    def assemble_calls(self, monkeypatch):
        calls = []
        assemble = hypfem.assemble

        def counted(*args):
            calls.append(args[0].n_nodes)
            return assemble(*args)

        monkeypatch.setattr(hypfem, "assemble", counted)
        return calls

    def test_build_genus3_assembles_once(self, assemble_calls):
        ext = surfglue.build_genus3(2.0, h_target=0.24)
        assert assemble_calls == [ext.system.base_mesh.n_nodes]

    def test_extend_quarter_mode_assembles_once(self, assemble_calls):
        ext = surfglue.extend_quarter_mode(0.16)
        assert assemble_calls == [ext.system.base_mesh.n_nodes]

    def test_genus3_from_pants_matches_mesh_assembly(self):
        ext = surfglue.build_genus3(2.0, h_target=0.24)
        direct = surfglue.assemble_glued(ext.surface, ext.system.base_mesh)
        assert np.array_equal(direct.glue_index, ext.system.glue_index)
        for a, b in ((direct.K, ext.system.K), (direct.M, ext.system.M)):
            assert abs(a - b).max() <= 1e-13 * abs(b).max()

    def test_base_dof_split_raises(self):
        # the pants system merges seam twins into one dof; a chart without
        # the seam pairings would put them on two glued dofs
        pants = surfglue.pants_decagon_surface()
        mesh = mesh_polygon(pants.base, 0.25)
        psys = surfglue.assemble_glued(pants, mesh)
        base = surfglue.Base(mesh, psys.K, psys.M, psys.glue_index)
        bare = surfglue.Surface(base=pants.base, charts=[surfglue.Chart()], pairings=[])
        with pytest.raises(surfglue.GlueError, match="base dof"):
            surfglue.assemble_glued(bare, base)


MIRROR = reflect_in(surfglue.REAL_MIRROR)


def mirror_nodes(mesh):
    """Index of the real-axis mirror image of every mesh node."""
    tree = cKDTree(np.column_stack([mesh.nodes.real, mesh.nodes.imag]))
    dist, j = tree.query(np.column_stack([mesh.nodes.real, -mesh.nodes.imag]))
    assert dist.max() <= 1e-9
    return j


def plain_solve(system, k):
    """Lowest modes of the whole free pencil: reduce, solve, lift."""
    free = np.flatnonzero(~system.constrained)
    Kf, Mf = hypfem.reduce_system(system.K, system.M, free)
    vals, vecs = hypfem.solve_lowest(Kf, Mf, k, system.dof_points[free])
    full = np.zeros((system.n_dofs, vecs.shape[1]))
    full[free] = vecs
    return vals, full


def flip_one_diagonal(mesh):
    """The mesh with the diagonal of one convex quad of two triangles above
    the real axis flipped: the node set stays mirror symmetric, the
    triangulation does not."""
    z, tris = mesh.nodes, mesh.triangles
    owner = {(t[i], t[(i + 1) % 3]): n for n, t in enumerate(tris) for i in range(3)}

    def ccw(tri):
        a, b, c = z[list(tri)]
        return ((b - a).conjugate() * (c - a)).imag > 0

    for (a, b), n in owner.items():
        m = owner.get((b, a))
        if m is None:
            continue
        (c,) = set(tris[n]) - {a, b}
        (d,) = set(tris[m]) - {a, b}
        new = [(a, d, c), (d, b, c)]
        if min(z[[a, b, c, d]].imag) > 0.1 and all(ccw(t) for t in new):
            out = tris.copy()
            out[n], out[m] = new
            return with_triangles(mesh, out)
    raise AssertionError("no flippable quad above the real axis")


class TestMirrorFold:
    """The pants ground state solved on the mirror orbits of its pencil."""

    @pytest.fixture(scope="class", params=[0.24, 0.16])
    def pants_system(self, request):
        pants = surfglue.pants_decagon_surface()
        return surfglue.assemble_glued(pants, mesh_polygon(pants.base, request.param))

    def test_even_solve_matches_plain_solve(self, pants_system):
        vals, vecs = plain_solve(pants_system, k=1)
        even_vals, even_vecs = surfglue.solve_glued(pants_system, k=1, even_under=MIRROR)
        assert abs(even_vals[0] - vals[0]) <= 1e-12 * vals[0]
        assert np.abs(even_vecs - vecs).max() <= 1e-10

    def test_lifted_vector_is_exactly_even(self, pants_system):
        _, vecs = surfglue.solve_glued(pants_system, k=1, even_under=MIRROR)
        u = vecs[:, 0][pants_system.glue_index]
        assert np.array_equal(u[mirror_nodes(pants_system.base_mesh)], u)
        assert np.max(np.abs(u)) > 0.0

    def test_rejects_map_that_moves_the_mesh(self, pants_system):
        with pytest.raises(surfglue.GlueError, match="not mapped onto mesh nodes"):
            surfglue.solve_glued(pants_system, k=1, even_under=rotation(0.1))

    def test_rejects_mesh_whose_triangles_are_not_symmetric(self):
        pants = surfglue.pants_decagon_surface()
        mesh = flip_one_diagonal(mesh_polygon(pants.base, 0.24))
        system = surfglue.assemble_glued(pants, mesh)
        with pytest.raises(surfglue.GlueError, match="does not commute"):
            surfglue.solve_glued(system, k=1, even_under=MIRROR)

    @pytest.mark.parametrize("matrix, name", [("K", "stiffness"), ("M", "mass")])
    def test_rejects_pencil_entry_that_is_not_symmetric(self, pants_system, matrix, name):
        gi = pants_system.glue_index
        moved = gi[mirror_nodes(pants_system.base_mesh)] != gi
        d = gi[np.flatnonzero(moved & ~pants_system.constrained[gi])[0]]
        A = getattr(pants_system, matrix).copy()
        A[d, d] *= 1.01  # same pattern, one diagonal entry without its mirror
        system = dataclasses.replace(pants_system, **{matrix: A})
        with pytest.raises(surfglue.GlueError, match=f"the {name} matrix does not commute"):
            surfglue.solve_glued(system, k=1, even_under=MIRROR)

    def test_rejects_map_that_breaks_constrained(self):
        pants = surfglue.pants_decagon_surface()
        labels = list(pants.base.labels)
        labels[0] = "dirichlet"  # half of B2 only: its mirror half (side 9) stays neumann
        surf = surfglue.Surface(relabeled(pants.base, labels), pants.charts, pants.pairings)
        system = surfglue.assemble_glued(surf, mesh_polygon(surf.base, 0.24))
        with pytest.raises(surfglue.GlueError, match="constrained"):
            surfglue.solve_glued(system, k=1, even_under=MIRROR)

    def test_rejects_map_that_splits_a_dof(self):
        # the mirror takes the glued sides (7, 1) of the diagonal pants to unglued ones
        surf = surfglue.canonical_pants_surface()
        system = surfglue.assemble_glued(surf, mesh_polygon(surf.base, 0.24))
        with pytest.raises(surfglue.GlueError, match="two glued dofs"):
            surfglue.solve_glued(system, k=1, even_under=MIRROR)

    def test_rejects_map_that_is_not_an_involution(self):
        octagon = surfglue.octagon_polygon()
        surf = surfglue.Surface(octagon, [surfglue.Chart()], [])
        system = surfglue.assemble_glued(surf, mesh_polygon(octagon, 0.24))
        with pytest.raises(surfglue.GlueError, match="involution"):
            surfglue.solve_glued(system, k=1, even_under=rotation(math.pi / 4))

    def test_build_genus3_solves_the_folded_pencil(self, monkeypatch):
        sizes = []
        solve_lowest = hypfem.solve_lowest

        def recorded(K, M, k, points):
            sizes.append(K.shape[0])
            return solve_lowest(K, M, k, points)

        monkeypatch.setattr(hypfem, "solve_lowest", recorded)
        surfglue.build_genus3(2.0, h_target=0.16)
        assert sizes == [3696]  # orbits of the 7,199 free pants dofs, 193 of them on the mirror

    def test_one_debug_record_per_fold(self, pants_system, caplog):
        with caplog.at_level(logging.DEBUG, logger="hypnodal.surfglue"):
            surfglue.solve_glued(pants_system, k=1, even_under=MIRROR)
        (rec,) = [r for r in caplog.records if r.name == "hypnodal.surfglue"]
        assert rec.levelno == logging.DEBUG
        msg = rec.getMessage()
        nodes = pants_system.base_mesh.nodes
        worst = np.abs(nodes[mirror_nodes(pants_system.base_mesh)] - nodes.conj()).max()
        assert msg == f"mirror fold: 7199 -> 3696 dofs, 193 fixed, worst mirror match {worst:.3e}"
        assert 0.0 < worst <= surfglue.MATCH_TOL


class TestOneOrbitMatrixGlued:
    """Glued solves hold the constrained dofs at zero through the orbit
    matrix itself, bit-identical to reduce, fold in free numbering, lift."""

    @pytest.fixture(scope="class")
    def pants_system(self):
        pants = surfglue.pants_decagon_surface()
        return surfglue.assemble_glued(pants, mesh_polygon(pants.base, 0.24))

    def mirror_map(self, system):
        return hypfem.dof_symmetry(
            system.base_mesh.nodes, system.glue_index, MIRROR, system.constrained, "the mirror"
        )[0]

    def test_constrained_fold_is_the_free_numbering_fold(self, pants_system):
        s, r = pants_system, self.mirror_map(pants_system)
        vals, vecs, counts = hypfem.solve_character(s.K, s.M, [r], [1], 1, s.dof_points, s.constrained)
        ref_vals, ref_vecs, ref_counts = free_numbering_fold(s.K, s.M, [r], [1], 1, s.dof_points, s.constrained)
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
        assert counts == ref_counts
        even_vals, even_vecs = surfglue.solve_glued(s, k=1, even_under=MIRROR)
        assert np.array_equal(even_vals, vals) and np.array_equal(even_vecs, vecs)

    def test_dof_symmetry_over_the_glue_index(self, pants_system):
        r = self.mirror_map(pants_system)
        gi = pants_system.glue_index
        assert len(r) == pants_system.n_dofs < len(gi)  # the seam twins share a dof
        assert np.array_equal(r[gi], gi[mirror_nodes(pants_system.base_mesh)])
        assert np.array_equal(r[r], np.arange(pants_system.n_dofs))
        assert np.array_equal(pants_system.constrained[r], pants_system.constrained)

    def test_build_genus3_is_the_free_numbering_build(self):
        ext = surfglue.build_genus3(2.0, h_target=0.16)
        psys = surfglue.assemble_glued(surfglue.pants_decagon_surface(), ext.base.mesh)
        r = self.mirror_map(psys)
        (lam,), vecs, _ = free_numbering_fold(psys.K, psys.M, [r], [1], 1, psys.dof_points, psys.constrained)
        u = vecs[:, 0][psys.glue_index]
        assert ext.lam == lam and np.array_equal(ext.base_vector, u)
        assert np.array_equal(ext.vector, surfglue.transport(ext.system, u))


class TestSurfaceInputChecks:
    @pytest.mark.parametrize("indices, bad", [([0, 0], 0), ([-1], -1), ([5], 5)])
    def test_double_rejects_bad_circle_index(self, indices, bad):
        with pytest.raises(surfglue.GlueError, match=rf"circle index {bad} .*\(3 boundary circles\)"):
            surfglue.double_surface(surfglue.pants_decagon_surface(), indices)

    def test_audit_rejects_a_side_in_two_pairings(self):
        surf = surfglue.genus2_surface()
        p = surf.pairings[0]
        twice = surfglue.Surface(surf.base, surf.charts, surf.pairings + [p])
        with pytest.raises(surfglue.GlueError, match=rf"side \({p.chart_a}, {p.side_a}\) occurs in two pairings"):
            surfglue.audit_topology(twice)

    def test_audit_rejects_a_side_paired_with_itself(self):
        surf = surfglue.canonical_pants_surface()
        own = surfglue.Pairing(0, 2, 0, 2, surfglue.IDENTITY)
        with pytest.raises(surfglue.GlueError, match=r"side \(0, 2\) .*paired with itself"):
            surfglue.audit_topology(surfglue.Surface(surf.base, surf.charts, surf.pairings + [own]))


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
    per = sorted(circle_length(surf, c) for c in rep.boundary_circles)
    assert per == pytest.approx([2.0, 2.4, 3.0], abs=1e-9)


def test_distance_between_pairing_endpoints_is_isometric():
    # the pairing isometries really map side onto side: endpoints and length
    poly = surfglue.octagon_polygon()
    surf = surfglue.canonical_pants_surface()
    for p in surf.pairings:
        sa, sb = poly.side(p.side_a), poly.side(p.side_b)
        ia, ib = apply(p.mu, sa.start), apply(p.mu, sa.end)
        d_ends = min(
            abs(ia - sb.start) + abs(ib - sb.end), abs(ia - sb.end) + abs(ib - sb.start)
        )
        assert d_ends < 1e-9
        assert hyp_distance(ia, ib) == pytest.approx(sa.length, abs=1e-12)
