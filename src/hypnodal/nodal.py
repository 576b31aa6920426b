"""Zero level sets of piecewise linear functions on disk meshes.

extract_nodal collects, in array code, the zero segments of the linear
interpolant on the triangles that the zero set meets, and chains them into
polylines in one walk over the segment graph.  Segment ends are keyed by the
mesh's own numbers: the crossing on edge k of mesh.edges is key k, and zero
node i is key E + i for E edges, so glue_index takes a zero key's node to
its glued dof.  A key where two segments meet passes the walk through.  A
key where more than two meet is a crossing point, reported with a
transversality angle; there the walk goes straight on when exactly two
segments share one direction (modulo pi), and stops otherwise.  Every zero
segment lies on exactly one component, so a nodal line that runs straight
through crossings is one component.  geodesic_deviation measures the
hyperbolic distance from a polyline to a target geodesic, and
self_intersections scans a nodal set for the points where it crosses itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import Geodesic, point_to_geodesic_distance, segment_intersection


class NodalError(ValueError):
    """Degenerate input to nodal extraction."""


@dataclass(frozen=True)
class NodalComponent:
    """One polyline of a zero set, ordered along the curve.

    points are complex disk coordinates.  A closed component does not
    repeat its first point.  chart records which surface chart the
    component was extracted on.
    """

    points: np.ndarray
    closed: bool = False
    chart: int = 0


@dataclass(frozen=True)
class NodalSet:
    components: list
    crossing_points: list  # (complex point, transversality angle in radians)


def euclidean_mesh_size(mesh) -> float:
    """Longest Euclidean edge of the mesh in disk coordinates."""
    e = mesh.edges
    return float(np.abs(mesh.nodes[e[:, 1]] - mesh.nodes[e[:, 0]]).max())


def _fold_line_angle(delta: float) -> float:
    """Angle between two lines given the difference of direction angles."""
    d = math.fmod(abs(delta), math.pi)
    return min(d, math.pi - d)


def _line_angle(d: complex) -> float:
    return math.atan2(d.imag, d.real) % math.pi


def _cluster_lines(angles, tol: float = 1e-2):
    """Group direction angles modulo pi, chaining neighbours at most tol apart.

    Returns the clusters as lists of (angle, index into angles) in ascending
    angle order; a cluster that wraps around pi carries its angles below pi
    shifted down by pi.
    """
    arr = sorted((a % math.pi, i) for i, a in enumerate(angles))
    clusters = []
    for a, i in arr:
        if clusters and a - clusters[-1][-1][0] <= tol:
            clusters[-1].append((a, i))
        else:
            clusters.append([(a, i)])
    # wraparound: angles just below pi belong with angles just above 0
    if len(clusters) > 1 and (arr[0][0] + math.pi) - clusters[-1][-1][0] <= tol:
        tail = clusters.pop()
        clusters[0] = [(a - math.pi, i) for a, i in tail] + clusters[0]
    return clusters


def _crossing_angle(lines) -> float:
    """Smallest angle between the lines (clusters of _cluster_lines) through a crossing."""
    reps = sorted(sum(a for a, _ in c) / len(c) % math.pi for c in lines)
    return min((_fold_line_angle(a - b) for a, b in itertools.combinations(reps, 2)), default=0.0)


def extract_nodal(mesh, u, zero_tol: float = 1e-9, chart: int = 0) -> NodalSet:
    """Zero set of the piecewise linear interpolant of u on the mesh.

    Nodes with |u| <= zero_tol * max|u| count as exact zeros.  Each
    triangle contributes at most one zero segment (three for the fully
    degenerate all-zero triangle); segments shared between triangles are
    emitted once.  The mesh gives nodes, triangles, edges and
    triangle_edges (see hypmesh.Mesh).  Raises NodalError unless u has one
    finite value per mesh node, or when u vanishes identically.
    """
    u = np.asarray(u, dtype=float)
    nodes = np.asarray(mesh.nodes, dtype=np.complex128)
    if u.shape != nodes.shape:
        raise NodalError(f"extract_nodal needs one value per mesh node: {len(nodes)} nodes, u of shape {u.shape}")
    if not np.isfinite(u).all():
        raise NodalError(f"extract_nodal needs finite values: {int((~np.isfinite(u)).sum())} of {len(u)} are not")
    zero = np.abs(u) <= zero_tol * np.abs(u).max(initial=0.0)
    if zero.all():
        raise NodalError("nodal extraction of an identically zero vector")
    sgn = np.where(zero, 0.0, np.sign(u))

    # only triangles with a zero vertex or a sign change contribute: all but
    # those whose three signs are equal and not zero
    tris = np.asarray(mesh.triangles, dtype=np.int64)
    ts = sgn[tris]
    live = (ts[:, 0] != ts[:, 1]) | (ts[:, 1] != ts[:, 2]) | (ts[:, 0] == 0)
    tris, ts, n_e = tris[live], ts[live], len(mesh.edges)
    # each live triangle's keys, sorted with the absent ones (-1) first: its
    # zero corners and its edges j (corners j, j + 1) whose ends change sign;
    # at most three, and three only when all corners are zeros
    ents = np.sort(np.concatenate([np.where(zero[tris], n_e + tris, -1),
                                   np.where(ts * ts[:, [1, 2, 0]] < 0, mesh.triangle_edges[live], -1)], axis=1), axis=1)
    three = ents[:, 3] >= 0
    segs = np.concatenate([ents[~three & (ents[:, 4] >= 0), 4:], *(ents[three][:, p] for p in ([3, 4], [3, 5], [4, 5]))])
    segs = np.unique(segs, axis=0)
    keys = np.unique(segs)
    lo, hi = mesh.edges[keys[keys < n_e]].T
    t = u[lo] / (u[lo] - u[hi])
    pts = np.concatenate([nodes[lo] + t * (nodes[hi] - nodes[lo]), nodes[keys[keys >= n_e] - n_e]])
    return _nodal_set(dict(zip(keys.tolist(), pts.tolist())), set(map(tuple, segs.tolist())), chart)


def _nodal_set(pts: dict, segs: set, chart: int) -> NodalSet:
    """Chain zero segments (pairs of keys into pts) into the components and crossings of a NodalSet."""
    adj = {}
    for k1, k2 in segs:
        adj.setdefault(k1, set()).add(k2)
        adj.setdefault(k2, set()).add(k1)

    # through[k, a]: the key a walk moves on to after arriving at k from a
    through = {}
    crossings = []
    for k in sorted(adj):
        nbrs = sorted(adj[k])
        pairs = [nbrs] if len(nbrs) == 2 else []
        if len(nbrs) >= 3:
            lines = _cluster_lines([_line_angle(pts[n] - pts[k]) for n in nbrs])
            crossings.append((pts[k], _crossing_angle(lines)))
            pairs = [[nbrs[i] for _, i in line] for line in lines if len(line) == 2]
        for a, b in pairs:
            through[k, a], through[k, b] = b, a

    walked = set()

    def walk(a, b):
        chain, closed = [a, b], False
        walked.update(((a, b), (b, a)))
        while (b, a) in through:
            a, b = b, through[b, a]
            if (a, b) == (chain[0], chain[1]):
                chain.pop()
                closed = True
                break
            chain.append(b)
            walked.update(((a, b), (b, a)))
        pl = [pts[k] for k in chain]
        if closed:
            return _normalize_cycle(pl), True
        return (pl if _point_key(pl[0]) <= _point_key(pl[-1]) else pl[::-1]), False

    # open components start where a walk cannot continue backwards; the
    # segments left over lie on cycles
    edges = [(k, n) for k in sorted(adj) for n in sorted(adj[k])]
    components = [walk(k, n) for k, n in edges if (k, n) not in through and (k, n) not in walked]
    components += [walk(k, n) for k, n in edges if (k, n) not in walked]
    comps = [
        NodalComponent(points=np.array(pl, dtype=np.complex128), closed=closed, chart=chart)
        for pl, closed in components
    ]
    comps.sort(key=lambda c: (_point_key(c.points[0]), _point_key(c.points[-1]), len(c.points)))
    crossings.sort(key=lambda pa: _point_key(pa[0]))
    return NodalSet(components=comps, crossing_points=crossings)


def _point_key(p: complex):
    return (round(p.real, 9), round(p.imag, 9))


def _normalize_cycle(pl):
    k = min(range(len(pl)), key=lambda i: _point_key(pl[i]))
    rot = pl[k:] + pl[:k]
    if len(rot) > 2 and _point_key(rot[-1]) < _point_key(rot[1]):
        rot = [rot[0]] + list(reversed(rot[1:]))
    return rot


def geodesic_deviation(component, g: Geodesic) -> float:
    """Maximum hyperbolic distance from the polyline vertices to g."""
    pts = np.asarray(component.points if isinstance(component, NodalComponent) else component, dtype=np.complex128)
    if len(pts) == 0:
        raise NodalError("geodesic deviation of an empty polyline")
    return float(point_to_geodesic_distance(pts, g).max())


def self_intersections(ns: NodalSet):
    """Points where the nodal set crosses itself, with crossing angles.

    One array pass over all pairs of segments, within and across
    components; consecutive segments of one component are skipped, and hits
    closer than 1e-3 in angle (near-tangential contacts) are dropped.
    Coincident hits are reported once, by the first pair in segment order.
    """
    comps = ns.components
    # segment i of a component joins its points i and i + 1 (mod len, closed only)
    counts = [max(len(c.points) - 1, 0) + int(c.closed and len(c.points) >= 3) for c in comps]
    pts = [np.asarray(c.points, dtype=np.complex128) for c in comps]
    none = np.zeros(0, dtype=np.complex128)
    p = np.concatenate([none, *(x[:m] for x, m in zip(pts, counts))])
    q = np.concatenate([none, *(np.roll(x, -1)[:m] for x, m in zip(pts, counts))])
    comp = np.repeat(np.arange(len(comps)), counts)
    idx = np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
    wrap = np.array([len(c.points) - 1 if c.closed else -1 for c in comps], dtype=np.int64)
    a, b = np.triu_indices(len(p), 1)
    gap = np.abs(idx[a] - idx[b])
    adjacent = (comp[a] == comp[b]) & ((gap == 1) | (gap == wrap[comp[a]]))
    a, b = a[~adjacent], b[~adjacent]
    hit, point = segment_intersection(p[a], q[a], p[b], q[b])
    seen = {}
    for i in np.flatnonzero(hit):
        d1, d2 = complex(q[a[i]] - p[a[i]]), complex(q[b[i]] - p[b[i]])
        ang = _fold_line_angle(_line_angle(d1) - _line_angle(d2))
        if ang < 1e-3:
            continue
        hit_point = complex(point[i])
        seen.setdefault((round(hit_point.real, 7), round(hit_point.imag, 7)), (hit_point, ang))
    return [seen[k] for k in sorted(seen)]

