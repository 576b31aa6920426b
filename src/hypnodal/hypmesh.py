"""Triangulation of geodesic polygons in the Poincare disk.

The mesh is built in three stages: a macro fan from an interior hub to
arclength-uniform boundary subdivisions, uniform 1:4 refinement until every
edge is hyperbolically shorter than the target, and Jacobi smoothing with
boundary nodes retracted onto their geodesic side by orthogonal projection.
All stages are array operations: the unique edges are computed once per
refinement level and shared by the edge-length check and the smoother, and
boundary nodes are projected side by side, one array per side and sweep.

All operations are equivariant under disk isometries that map the polygon
to itself, so symmetric polygons get symmetric meshes.  That exactness is
load-bearing downstream: reflection extension and chart gluing match nodes
across isometries at tolerance 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hypgeo import (
    HyperbolicPolygon,
    Side,
    apply,
    axis_map,
    foot_parameter,
    inverse,
)


@dataclass(frozen=True)
class MeshConfig:
    """Mesh generation knobs.

    h_target is the maximum hyperbolic edge length; smooth_sweeps the number
    of Jacobi relaxation passes (interior and tangential-boundary).
    """

    h_target: float = 0.08
    smooth_sweeps: int = 40
    max_refinements: int = 14


class _SideProjector:
    """Fast arclength parametrization of one polygon side.

    Caches the inverse axis map so placing boundary nodes does not
    recompose isometries every call.
    """

    def __init__(self, side: Side):
        self.side = side
        self.length = side.length
        self.Ainv = inverse(axis_map(side.start, side.end))

    def at(self, s):
        """Point at arclength s (a float, or an ndarray of them) from the side's start."""
        if isinstance(s, np.ndarray):
            return apply(self.Ainv, np.tanh(s / 2.0).astype(np.complex128))
        return apply(self.Ainv, complex(math.tanh(s / 2.0)))


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

    def boundary_nodes(self) -> np.ndarray:
        return np.unique(np.concatenate(self.side_nodes))

    def interior_mask(self) -> np.ndarray:
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes()] = False
        return mask

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


def mesh_polygon(poly: HyperbolicPolygon, config: MeshConfig = None) -> Mesh:
    """Triangulate a geodesic polygon; see module docstring for the pipeline."""
    cfg = config or MeshConfig()
    sides = poly.sides
    projs = [_SideProjector(s) for s in sides]
    lengths = [s.length for s in sides]
    lmin = min(lengths)

    # macro boundary subdivision, arclength-uniform per side
    nodes = list(poly.vertices)
    corners = np.arange(poly.n, dtype=np.int64)
    node_side = {}  # non-corner boundary node -> (side index, arclength)
    chains = []
    for i, (pr, L) in enumerate(zip(projs, lengths)):
        cnt = max(1, round(L / lmin))
        chain = [corners[i]]
        params = [0.0]
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

    tris = []
    bdict = {}  # sorted node pair -> (side, param of pair[0], param of pair[1])
    for i, (chain, params) in enumerate(chains):
        for k in range(len(chain) - 1):
            a, b = chain[k], chain[k + 1]
            tris.append((a, b, hub))
            key = (a, b) if a < b else (b, a)
            sa, sb = params[k], params[k + 1]
            bdict[key] = (i, sa, sb) if a < b else (i, sb, sa)

    z = np.array(nodes, dtype=np.complex128)
    tris = np.array(tris, dtype=np.int64)

    def refine(z, tris):
        """One uniform 1:4 split; boundary midpoints placed at the arclength
        midpoint of their side segment, interior midpoints Euclidean."""
        n = len(z)
        raw = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        raw_sorted = np.sort(raw, axis=1)
        codes = raw_sorted[:, 0] * n + raw_sorted[:, 1]
        ucodes, inv = np.unique(codes, return_inverse=True)
        ua, ub = ucodes // n, ucodes % n

        mids = 0.5 * (z[ua] + z[ub])
        bpos = np.searchsorted(ucodes, [a * n + b for a, b in bdict]).tolist()
        new_bdict = {}
        for ((a, b), (side_i, sa, sb)), k in zip(bdict.items(), bpos):
            sm = 0.5 * (sa + sb)
            mids[k] = projs[side_i].at(sm)
            m = n + k
            node_side[m] = (side_i, sm)
            ka = (a, m) if a < m else (m, a)
            kb = (m, b) if m < b else (b, m)
            new_bdict[ka] = (side_i, sa, sm) if a < m else (side_i, sm, sa)
            new_bdict[kb] = (side_i, sm, sb) if m < b else (side_i, sb, sm)
        bdict.clear()
        bdict.update(new_bdict)

        z = np.concatenate([z, mids])
        mid_idx = (n + inv).reshape(3, -1).T  # columns: m01, m12, m20
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        m01, m12, m20 = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
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
        interior = np.ones(n, dtype=bool)
        interior[corners] = False
        bnd = np.array(sorted(node_side), dtype=np.int64)
        interior[bnd] = False
        side_of = np.array([node_side[m][0] for m in bnd], dtype=np.int64)
        on_side = [bnd[side_of == i] for i in range(poly.n)]
        params = [np.array([node_side[m][1] for m in idx], dtype=np.float64) for idx in on_side]
        for _ in range(cfg.smooth_sweeps):
            acc = np.zeros(n, dtype=np.complex128)
            np.add.at(acc, ei, z[ej])
            np.add.at(acc, ej, z[ei])
            mean = acc / cnt
            znew = np.where(interior, mean, z)
            for i, (idx, pr) in enumerate(zip(on_side, projs)):
                params[i] = np.clip(foot_parameter(pr.side.start, pr.side.end, mean[idx]), 0.0, pr.length)
                znew[idx] = pr.at(params[i])
            z = znew
        for i, (idx, par) in enumerate(zip(on_side, params)):
            for m, s in zip(idx.tolist(), par.tolist()):
                node_side[m] = (i, s)
        return z

    def max_edge(z, e):
        """Longest hyperbolic edge; e is the level's unique edge list, computed once per level."""
        return _hyp_len(z[e[:, 0]], z[e[:, 1]]).max()

    def param_of(m, side_i):
        if m == corners[side_i]:
            return 0.0
        if m == corners[(side_i + 1) % poly.n]:
            return lengths[side_i]
        return node_side[m][1]

    def refresh_bdict():
        # smoothing slides boundary nodes along their sides; keep the
        # per-edge params in sync or later midpoints land off-segment
        for key in list(bdict):
            side_i = bdict[key][0]
            bdict[key] = (side_i, param_of(key[0], side_i), param_of(key[1], side_i))

    # refine + smooth until the smoothed mesh meets the edge criterion
    # (smoothing can stretch edges, so the check runs on the final positions)
    e = _unique_edges(tris)
    for _ in range(cfg.max_refinements):
        while max_edge(z, e) > cfg.h_target:
            z, tris = refine(z, tris)
            e = _unique_edges(tris)
        z = smooth(z, e)
        refresh_bdict()
        if max_edge(z, e) <= cfg.h_target:
            break

    side_nodes, side_params = [], []
    for i in range(poly.n):
        own = [(s, m) for m, (si, s) in node_side.items() if si == i]
        own.sort()
        idx = [corners[i]] + [m for _, m in own] + [corners[(i + 1) % poly.n]]
        par = [0.0] + [s for s, _ in own] + [lengths[i]]
        side_nodes.append(np.array(idx, dtype=np.int64))
        side_params.append(np.array(par, dtype=np.float64))

    return Mesh(
        nodes=z,
        triangles=tris,
        corners=corners,
        side_nodes=side_nodes,
        side_params=side_params,
        polygon=poly,
        h_target=cfg.h_target,
    )
