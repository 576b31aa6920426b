"""Triangulation of geodesic polygons in the Poincare disk.

The mesh is built in three stages: a macro fan from an interior hub to
arclength-uniform boundary subdivisions, uniform 1:4 refinement until every
edge is hyperbolically shorter than the target, and Jacobi smoothing with
boundary nodes retracted onto their geodesic side by orthogonal projection.
All stages are array operations: the unique edges are computed once per
refinement level and shared by the edge-length check and the smoother, and
boundary nodes are projected side by side, one array per side and sweep.

Boundary placement and projection are intrinsic, but the hub (the
Euclidean mean of the vertices), the Euclidean interior midpoints and the
Jacobi means are equivariant only under isometries that fix 0: rotations
and reflections about 0 that map the polygon to itself.  Polygons with
such symmetries get symmetric meshes.  That exactness is load-bearing
downstream: reflection extension and chart gluing pair side nodes across
isometries at tolerance MATCH_TOL, and hypfem.dof_symmetry matches nodes
(match_nodes) for the symmetry reductions.  A mesh that cannot meet its
target or has an inverted triangle raises MeshError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .hypgeo import HyperbolicPolygon, foot_parameter


MATCH_TOL = 1e-9  # a node matches the image of a node under a mesh symmetry when this close
SMOOTH_SWEEPS = 40  # Jacobi relaxation passes (interior and tangential-boundary)
MAX_REFINEMENTS = 14  # at most this many 1:4 refinement levels, and refine + smooth rounds


class MeshError(ValueError):
    """mesh_polygon cannot produce a valid mesh; the message gives the reason."""


@dataclass
class Mesh:
    """Triangle mesh of one geodesic polygon.

    nodes are complex disk coordinates; triangles index into nodes, CCW.
    corners[k] is the node at polygon vertex k.  side_nodes[i] lists the
    nodes on side i ordered by arclength from the side's start corner
    (both corners included); side_params[i] are the matching arclengths.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    corners: np.ndarray
    side_nodes: list
    side_params: list
    polygon: HyperbolicPolygon
    h_target: float

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

    def edges(self) -> np.ndarray:
        return _unique_edges(self.triangles)

    def hyp_edge_lengths(self) -> np.ndarray:
        e = self.edges()
        return _hyp_len(self.nodes[e[:, 0]], self.nodes[e[:, 1]])


def _hyp_len(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    den = (1.0 - np.abs(z1) ** 2) * (1.0 - np.abs(z2) ** 2)
    return 2.0 * np.arcsinh(np.abs(z1 - z2) / np.sqrt(den))


def _unique_edges(tris: np.ndarray) -> np.ndarray:
    """Unique edges (lo, hi) of a triangle array in lexicographic order.

    Deduplicates the integer codes lo * n + hi, which sort in the same
    order as the pairs (sort and mask: np.unique hashes integer input and
    is many times slower on these arrays).
    """
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]).astype(np.int64)
    e.sort(axis=1)
    n = int(e.max()) + 1 if len(e) else 1
    codes = np.sort(e[:, 0] * n + e[:, 1])
    codes = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]
    return np.stack([codes // n, codes % n], axis=1)


def match_nodes(points: np.ndarray, targets: np.ndarray) -> tuple:
    """(index of the point nearest to each target, worst nearest distance).

    The tree search is bounded just above MATCH_TOL, which prunes it; when
    some target has no point that close, the query is repeated unbounded,
    so the worst distance is always the true one.
    """
    tree = cKDTree(np.column_stack([points.real, points.imag]))
    xy = np.column_stack([targets.real, targets.imag])
    dist, j = tree.query(xy, distance_upper_bound=2.0 * MATCH_TOL)
    if not np.isfinite(dist).all():
        dist, j = tree.query(xy)
    return j, float(dist.max())


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
    lmin = float(lengths.min())

    # macro boundary subdivision, arclength-uniform per side.  Boundary
    # state: side_of[node] is the side of a non-corner boundary node (-1 for
    # interior nodes and corners), par[node] its arclength along that side,
    # bedges the (a, b, side) boundary edges in arclength order per side.
    nodes = list(poly.vertices)
    corners = np.arange(poly.n, dtype=np.int64)
    side_of, par, bedges = [-1] * poly.n, [0.0] * poly.n, []
    for i, (sd, L) in enumerate(zip(sides, lengths.tolist())):
        cnt = max(1, round(L / lmin))
        chain = [i, *range(len(nodes), len(nodes) + cnt - 1), (i + 1) % poly.n]
        for j in range(1, cnt):
            s = L * j / cnt
            nodes.append(sd.point_at(s))
            side_of.append(i)
            par.append(s)
        bedges += [(a, b, i) for a, b in zip(chain, chain[1:])]

    hub = len(nodes)
    nodes.append(sum(poly.vertices) / poly.n)
    side_of.append(-1)
    par.append(0.0)

    z = np.array(nodes, dtype=np.complex128)
    side_of = np.array(side_of, dtype=np.int64)
    par = np.array(par, dtype=np.float64)
    bedges = np.array(bedges, dtype=np.int64)
    tris = np.column_stack([bedges[:, :2], np.full(len(bedges), hub)])

    def arclength(x, side):
        """Arclength of boundary node x along side (corners are nodes 0..n-1)."""
        return np.where(x == side, 0.0, np.where(x == (side + 1) % poly.n, lengths[side], par[x]))

    def refine(z, tris, e):
        """One uniform 1:4 split; e is the level's unique edges, whose k-th
        midpoint becomes node n + k.  Boundary midpoints are placed at the
        arclength midpoint of their side segment, interior midpoints
        Euclidean."""
        nonlocal side_of, par, bedges
        n = len(z)
        codes = e[:, 0] * n + e[:, 1]
        raw = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
        inv = np.searchsorted(codes, raw[:, 0] * n + raw[:, 1])
        mids = 0.5 * (z[e[:, 0]] + z[e[:, 1]])

        a, b, side = bedges.T
        k = np.searchsorted(codes, np.minimum(a, b) * n + np.maximum(a, b))
        sm = 0.5 * (arclength(a, side) + arclength(b, side))
        for i, sd in enumerate(sides):
            on = side == i
            mids[k[on]] = sd.point_at(sm[on])
        m = n + k
        side_of = np.concatenate([side_of, np.full(len(e), -1)])
        par = np.concatenate([par, np.zeros(len(e))])
        side_of[m], par[m] = side, sm
        bedges = np.column_stack([a, m, side, m, b, side]).reshape(-1, 3)

        z = np.concatenate([z, mids])
        m01, m12, m20 = (n + inv).reshape(3, -1)
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        tris = np.concatenate(
            [
                np.stack([a, m01, m20], axis=1),
                np.stack([b, m12, m01], axis=1),
                np.stack([c, m20, m12], axis=1),
                np.stack([m01, m12, m20], axis=1),
            ]
        )
        return z, tris

    def smooth(z, e):
        """Jacobi sweeps over the level's unique edges e: interior nodes to
        the neighbor mean, boundary nodes to the orthogonal projection of
        the mean onto their side (one array per side), corners pinned."""
        n = len(z)
        ei, ej = e[:, 0], e[:, 1]
        cnt = np.maximum(np.bincount(ei, minlength=n) + np.bincount(ej, minlength=n), 1.0)
        interior = side_of < 0
        interior[corners] = False
        on_side = [np.flatnonzero(side_of == i) for i in range(poly.n)]
        for _ in range(SMOOTH_SWEEPS):
            acc = np.zeros(n, dtype=np.complex128)
            np.add.at(acc, ei, z[ej])
            np.add.at(acc, ej, z[ei])
            mean = acc / cnt
            znew = np.where(interior, mean, z)
            for idx, sd, L in zip(on_side, sides, lengths):
                par[idx] = np.clip(foot_parameter(sd.start, sd.end, mean[idx]), 0.0, L)
                znew[idx] = sd.point_at(par[idx])
            z = znew
        return z

    def max_edge(z, e):
        """Longest hyperbolic edge; e is the level's unique edge list, computed once per level."""
        return _hyp_len(z[e[:, 0]], z[e[:, 1]]).max()

    # refine + smooth until the smoothed mesh meets the edge criterion
    # (smoothing can stretch edges, so the check runs on the final positions)
    e = _unique_edges(tris)
    level = 0
    for _ in range(MAX_REFINEMENTS):
        while max_edge(z, e) > h_target:
            if level == MAX_REFINEMENTS:
                raise MeshError(f"{level} refinement levels leave an edge longer than h_target = {h_target}")
            z, tris = refine(z, tris, e)
            e, level = _unique_edges(tris), level + 1
        z = smooth(z, e)
        if max_edge(z, e) <= h_target:
            break
    else:
        raise MeshError(f"{MAX_REFINEMENTS} refine + smooth rounds end with an edge above h_target = {h_target}")
    d1, d2 = z[tris[:, 1]] - z[tris[:, 0]], z[tris[:, 2]] - z[tris[:, 0]]
    inverted = int(np.count_nonzero(d1.real * d2.imag - d2.real * d1.imag <= 0.0))
    if inverted:
        raise MeshError(f"{inverted} of {len(tris)} triangles have det <= 0 (inverted or degenerate)")

    side_nodes, side_params = [], []
    for i in range(poly.n):
        own = np.flatnonzero(side_of == i)
        own = own[np.argsort(par[own], kind="stable")]
        side_nodes.append(np.concatenate([[corners[i]], own, [corners[(i + 1) % poly.n]]]))
        side_params.append(np.concatenate([[0.0], par[own], [lengths[i]]]))

    return Mesh(
        nodes=z,
        triangles=tris,
        corners=corners,
        side_nodes=side_nodes,
        side_params=side_params,
        polygon=poly,
        h_target=h_target,
    )
