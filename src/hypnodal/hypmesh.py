"""Triangulation of geodesic polygons in the Poincare disk.

The mesh is built in three stages: a macro fan from an interior hub to
arclength-uniform boundary subdivisions, uniform 1:4 refinement until every
edge is hyperbolically shorter than the target, and Jacobi smoothing with
boundary nodes retracted onto their geodesic side by orthogonal projection.
All stages are array operations, and from the fan on they keep the boundary
as the Mesh does, in its side chains.  One argsort per refinement level
gives the unique edges and the inverse map from triangle sides to edges
(_edge_pattern): the edge-length check and the smoother share the edges,
and refinement numbers its midpoints through the inverse.  A Mesh is
frozen, with read-only arrays (its side chains are tuples of them), and
derives its edges and triangle_edges, the pattern of hypfem.assemble, from
its triangles on first use; mesh_polygon hands over the final level's
pattern instead, and a Mesh made by dataclasses.replace derives its own.
Edge lengths are measured once per level and once per smoothing round; a
round that misses the target refines at once, so rounds <= level + 1, and
the triangle budget MAX_TRIANGLES, checked before each refinement, bounds
both.  A smoothing sweep runs on the split real coordinates x and y of the
nodes: the neighbour sums are two 1-D products of a CSR matrix of ones,
whose rows list each node's neighbours in np.add.at order, with x and with
y; the means scale them in place by the reciprocal neighbour counts, bit
for bit numpy's complex sums divided by the counts (see smooth); and every
chain interior is retracted at once with the map coefficients of its side
(hypgeo.side_maps, axis_foot, axis_point).  mesh_polygon logs one DEBUG
record: nodes, triangles, refinement level, smoothing rounds and the
seconds they took.

Boundary placement and projection are intrinsic, but the hub (the
Euclidean mean of the vertices), the Euclidean interior midpoints and the
Jacobi means are equivariant only under isometries that fix 0: rotations
and reflections about 0 that map the polygon to itself.  Polygons with
such symmetries get symmetric meshes.  That exactness is load-bearing
downstream: reflection extension and chart gluing pair side nodes across
isometries at tolerance MATCH_TOL, and hypfem.dof_symmetry matches nodes
for the symmetry reductions with match_nodes, one range search within
MATCH_TOL along a sorted projection.  A mesh that cannot meet its target
within the triangle budget or has an inverted triangle raises MeshError.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hypgeo import HyperbolicPolygon, axis_foot, axis_point, hyp_distance, side_maps


MATCH_TOL = 1e-9  # a node matches the image of a node under a mesh symmetry when this close
_SORT_AXIS = complex(math.cos(1.0), math.sin(1.0))  # match_nodes sorts along u = Re(z e^-i) = z . _SORT_AXIS
SMOOTH_SWEEPS = 40  # Jacobi relaxation passes (interior and tangential-boundary)
MAX_TRIANGLES = 2**21  # mesh_polygon refines no level into more triangles than this

_log = logging.getLogger(__name__)


class MeshError(ValueError):
    """mesh_polygon cannot produce a valid mesh; the message gives the reason."""


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh of one geodesic polygon.

    nodes are complex disk coordinates, and node k is polygon vertex k;
    triangles index into nodes, CCW.  side_nodes[i] is the chain of nodes
    on side i from corner i to corner i + 1, in arclength order by
    construction, so consecutive entries span a boundary edge;
    side_params[i] are their arclengths, 0 to the side's length.  All four
    are read-only arrays, views of the arrays given, and the chains are
    held in tuples.  level is the number of 1:4 refinements of the macro fan.

    edges are the unique edges (lo, hi) in lexicographic order, and
    triangle_edges[t, j] indexes the edge joining corners j and j + 1 of
    triangle t; both are int32, derived from triangles (_edge_pattern) and
    cached, and they are the pattern of hypfem.assemble.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    side_nodes: tuple
    side_params: tuple
    polygon: HyperbolicPolygon
    level: int

    def __post_init__(self):
        def read_only(a):
            a = np.asarray(a).view()
            a.flags.writeable = False
            return a

        object.__setattr__(self, "nodes", read_only(self.nodes))
        object.__setattr__(self, "triangles", read_only(self.triangles))
        object.__setattr__(self, "side_nodes", tuple(map(read_only, self.side_nodes)))
        object.__setattr__(self, "side_params", tuple(map(read_only, self.side_params)))

    @functools.cached_property
    def _pattern(self) -> tuple:
        return _edge_pattern(self.triangles)

    @property
    def edges(self) -> np.ndarray:
        return self._pattern[0]

    @property
    def triangle_edges(self) -> np.ndarray:
        return self._pattern[1]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def nodes_on_label(self, label: str) -> np.ndarray:
        """All nodes on sides carrying the given condition label (corners included)."""
        picked = [sn for sn, lab in zip(self.side_nodes, self.polygon.labels) if lab == label]
        if not picked:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate(picked))

    def hyp_edge_lengths(self) -> np.ndarray:
        e = self.edges
        return hyp_distance(self.nodes[e[:, 0]], self.nodes[e[:, 1]])


def _unique_edges(tris: np.ndarray) -> tuple:
    """(edges, inverse): the unique edges (lo, hi) of a triangle array in
    lexicographic order, and the (T, 3) map from each triangle's local edge
    j, which joins its corners j and j + 1, to its index in edges; both int32.

    One argsort of the integer codes lo * n + hi, which sort in the same
    order as the pairs, gives both (np.unique hashes integer input and is
    many times slower on these arrays).
    """
    a, b = tris, tris[:, [1, 2, 0]]
    n = int(tris.max()) + 1
    codes = (np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)).ravel()
    order = np.argsort(codes)
    codes = codes[order]
    new = np.concatenate([[True], codes[1:] != codes[:-1]])
    inverse = np.empty(len(codes), dtype=np.int32)
    inverse[order] = np.cumsum(new) - 1
    codes = codes[new]
    return np.stack([codes // n, codes % n], axis=1).astype(np.int32), inverse.reshape(-1, 3)


def _edge_pattern(tris: np.ndarray) -> tuple:
    """_unique_edges of tris, whose count must fit their int32 index, or MeshError."""
    e, tri_e = _unique_edges(tris)
    if len(e) > np.iinfo(np.int32).max:
        raise MeshError(f"{len(e)} edges do not fit the int32 edge index")
    return e, tri_e


def _neighbour_matrix(e: np.ndarray, n: int) -> sp.csr_matrix:
    """n x n CSR matrix of ones with an entry (i, j) and (j, i) per edge (i, j) of e.

    Each row holds its entries in the order in which np.add.at(acc, e[:, 0],
    x[e[:, 1]]) followed by np.add.at(acc, e[:, 1], x[e[:, 0]]) adds into
    node i: its edges' second ends in edge order, then their first ends.
    The product with a real (n, k) array starts from zero and adds 1.0 * x
    in that order, so it equals those sums bit for bit.
    """
    rows = np.concatenate([e[:, 0], e[:, 1]])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([e[:, 1], e[:, 0]])[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))


def match_nodes(points: np.ndarray, targets: np.ndarray) -> tuple:
    """(index of the point nearest to each target within MATCH_TOL, or -1;
    worst matched distance, 0.0 with none).

    One range search along a sorted projection: points and targets are
    sorted by u = Re(z e^-i), off every mesh symmetry axis, and two
    searchsorted calls give each target the points within MATCH_TOL of it
    along u, with room for rounding.  A point within MATCH_TOL of a target
    is that close along u, so the match is exact.  Ties go to the lower
    index.  ValueError for non-finite input.  One DEBUG record gives the
    sizes, the unmatched targets and the worst distance.
    """
    n, m = len(points), len(targets)
    bad = int(np.count_nonzero(~np.isfinite(points)) + np.count_nonzero(~np.isfinite(targets)))
    if bad:
        raise ValueError(f"match_nodes needs finite points and targets: {bad} of {n + m} are not")
    u, ut = (z.real * _SORT_AXIS.real + z.imag * _SORT_AXIS.imag for z in (points, targets))
    order, by_u = np.argsort(u), np.argsort(ut)  # sorted targets: the gathers below run ahead
    u, z, ut, zt = u[order], points[order], ut[by_u], targets[by_u]
    reach = MATCH_TOL + 64 * np.finfo(float).eps * np.abs(np.concatenate([points, targets])).max(initial=0.0)
    lo = np.searchsorted(u, ut - reach)
    count = np.searchsorted(u, ut + reach, side="right") - lo
    t = np.repeat(np.arange(m), count)  # (sorted target, sorted point) candidate pairs
    k = np.arange(len(t)) + np.repeat(lo - np.cumsum(count) + count, count)
    d = np.abs(z[k] - zt[t])
    best, j = np.full(m, np.inf), np.full(m, n)
    np.minimum.at(best, t, d)
    np.minimum.at(j, t, np.where(d == best[t], order[k], n))
    matched = best <= MATCH_TOL
    worst = float(best[matched].max(initial=0.0))
    _log.debug("match_nodes: %d targets on %d points, %d unmatched, worst distance %.3e",
               m, n, m - np.count_nonzero(matched), worst)
    nearest = np.full(m, -1, dtype=np.intp)
    nearest[by_u[matched]] = j[matched]
    return nearest, worst


def min_angle_degrees(mesh: Mesh) -> float:
    """Smallest corner angle over all triangles (conformal metric: Euclidean angles)."""
    z = mesh.nodes[mesh.triangles]
    worst = math.inf
    for i in range(3):
        a, b, c = z[:, i], z[:, (i + 1) % 3], z[:, (i + 2) % 3]
        u, v = b - a, c - a
        dot = u.real * v.real + u.imag * v.imag
        cosang = dot / (np.abs(u) * np.abs(v))
        worst = min(worst, math.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)).min()))
    return worst


def mesh_polygon(poly: HyperbolicPolygon, h_target: float) -> Mesh:
    """Triangulate a geodesic polygon so every hyperbolic edge is at most
    h_target; see module docstring for the pipeline."""
    if not (h_target > 0.0 and math.isfinite(h_target)):
        raise ValueError(f"h_target must be positive and finite, got {h_target!r}")
    sides = poly.sides
    lengths = np.array([s.length for s in sides])
    to_axis, from_axis = side_maps(sides)
    lmin = float(lengths.min())

    # macro fan: side i's chain runs from corner i to corner i + 1 through
    # arclength-uniform nodes, and each chain edge spans a triangle with the hub
    nodes = list(poly.vertices)
    side_nodes, side_params = [], []
    for i, (sd, L) in enumerate(zip(sides, lengths.tolist())):
        cnt = max(1, round(L / lmin))
        s = [L * j / cnt for j in range(1, cnt)]
        side_nodes.append(np.array([i, *range(len(nodes), len(nodes) + cnt - 1), (i + 1) % poly.n]))
        side_params.append(np.array([0.0, *s, L]))
        nodes += [sd.point_at(t) for t in s]
    hub = len(nodes)
    nodes.append(sum(poly.vertices) / poly.n)
    z = np.array(nodes, dtype=np.complex128)
    tris = np.concatenate([np.column_stack([c[:-1], c[1:], np.full(len(c) - 1, hub)]) for c in side_nodes])

    def refine(z, tris, e, tri_e):
        """One uniform 1:4 split; e is the level's unique edges, whose k-th
        midpoint becomes node n + k, and tri_e the edges of each triangle.
        Boundary midpoints sit at the arclength midpoints of consecutive
        chain entries, interleaved into the chains; interior ones Euclidean."""
        n = len(z)
        codes = e[:, 0].astype(np.int64) * n + e[:, 1]
        mids = 0.5 * (z[e[:, 0]] + z[e[:, 1]])
        for i, (c, s) in enumerate(zip(side_nodes, side_params)):
            k = np.searchsorted(codes, np.minimum(c[:-1], c[1:]) * n + np.maximum(c[:-1], c[1:]))
            sm = 0.5 * (s[:-1] + s[1:])
            mids[k] = axis_point(*from_axis[:, i], sm)
            side_nodes[i] = np.insert(c, np.arange(1, len(c)), n + k)
            side_params[i] = np.insert(s, np.arange(1, len(s)), sm)

        z = np.concatenate([z, mids])
        m01, m12, m20 = (n + tri_e.astype(np.int64)).T
        a, b, c = tris.T
        children = ((a, m01, m20), (b, m12, m01), (c, m20, m12), (m01, m12, m20))
        return z, np.concatenate([np.stack(t, axis=1) for t in children])

    def smooth(z, e):
        """Jacobi sweeps over the level's unique edges e: interior nodes to
        the neighbour mean, the other boundary nodes to the orthogonal
        projection of the mean onto their side, corners pinned.  A sweep
        runs on the split coordinates x, y of z: two 1-D products with the
        neighbour matrix scaled in place by the reciprocal neighbour counts,
        then the boundary nodes retracted with their sides' map coefficients
        and lengths and the corners restored, both by index.  The means are
        bit for bit the complex sums s / counts c: numpy divides by c + 0j
        by Smith's method, ((s.re + s.im * 0) * scl, (s.im - s.re * 0) * scl)
        with scl = 1 / c, and adding a zero changes only a -0.0, which sums
        that start from +0.0 never are.  z is rebuilt by assigning its parts,
        which keeps the sign of a zero (x + 1j * y would not).  The last
        sweep's arclengths are written back to the chain interiors."""
        adj = _neighbour_matrix(e, len(z))
        inv_cnt = 1.0 / np.maximum(np.diff(adj.indptr), 1.0)
        inner = [len(c) - 2 for c in side_nodes]
        bnd = np.concatenate([c[1:-1] for c in side_nodes])
        par = np.concatenate([s[1:-1] for s in side_params])
        sb = np.repeat(np.arange(poly.n), inner)
        to_sb, from_sb, len_sb = to_axis[:, sb], from_axis[:, sb], lengths[sb]
        x, y = z.real.copy(), z.imag.copy()
        corners = z[: poly.n].copy()
        mean_b = np.empty(len(bnd), dtype=np.complex128)
        for _ in range(SMOOTH_SWEEPS):
            x, y = adj @ x, adj @ y
            x *= inv_cnt
            y *= inv_cnt
            mean_b.real, mean_b.imag = x[bnd], y[bnd]
            par = np.clip(axis_foot(*to_sb, mean_b), 0.0, len_sb)
            zb = axis_point(*from_sb, par)
            x[bnd], y[bnd] = zb.real, zb.imag
            x[: poly.n], y[: poly.n] = corners.real, corners.imag
        for s, p in zip(side_params, np.split(par, np.cumsum(inner)[:-1])):
            s[1:-1] = p
        z = np.empty(len(x), dtype=np.complex128)
        z.real, z.imag = x, y
        return z

    def too_long(z, e):
        """Whether some edge of the level's unique edges e is longer than h_target."""
        return hyp_distance(z[e[:, 0]], z[e[:, 1]]).max() > h_target

    # refine while an edge is too long, else smooth, until a smoothing leaves
    # every edge within h_target (smoothing can stretch edges, so the check
    # runs on the final positions); the triangle budget bounds the levels,
    # and so the rounds, and is checked before a level is built
    e, tri_e = _edge_pattern(tris)
    level, rounds, smooth_s = 0, 0, 0.0
    miss, smoothed = too_long(z, e), False
    while miss or not smoothed:
        if not miss:
            t0 = time.perf_counter()
            z = smooth(z, e)
            rounds, smooth_s = rounds + 1, smooth_s + time.perf_counter() - t0
        elif 4 * len(tris) > MAX_TRIANGLES:
            raise MeshError(f"h_target = {h_target} needs a level after {level}, "
                            f"whose {4 * len(tris)} triangles exceed MAX_TRIANGLES = {MAX_TRIANGLES}")
        else:
            z, tris = refine(z, tris, e, tri_e)
            (e, tri_e), level = _edge_pattern(tris), level + 1
        smoothed = not miss
        miss = too_long(z, e)
    d1, d2 = z[tris[:, 1]] - z[tris[:, 0]], z[tris[:, 2]] - z[tris[:, 0]]
    inverted = int(np.count_nonzero(d1.real * d2.imag - d2.real * d1.imag <= 0.0))
    if inverted:
        raise MeshError(f"{inverted} of {len(tris)} triangles have det <= 0 (inverted or degenerate)")

    _log.debug(
        "mesh_polygon: %d nodes, %d triangles, level %d, %d smoothing rounds in %.3f s",
        len(z), len(tris), level, rounds, smooth_s,
    )
    mesh = Mesh(nodes=z, triangles=tris, side_nodes=side_nodes, side_params=side_params, polygon=poly, level=level)
    mesh.__dict__["_pattern"] = (e, tri_e)  # the final level's pattern, derived from tris above
    return mesh
