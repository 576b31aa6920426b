"""Zero level sets of piecewise linear functions on disk meshes.

extract_nodal walks the triangles of a mesh that the zero set meets (an
array mask picks those with a zero vertex or a sign change), collects the
zero segments of the linear interpolant, and chains them into polylines.
Chains split at vertices where more than two segments meet; those vertices
are reported as crossing points with a transversality angle, and chains
that continue straight through a crossing are re-joined so every maximal
collinear piece appears as one component.  geodesic_deviation measures the
hyperbolic distance from a polyline to a target geodesic, and
self_intersections scans a nodal set for the points where it crosses
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypgeo import Geodesic, point_to_geodesic_distance


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

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class NodalSet:
    components: list
    crossing_points: list  # (complex point, transversality angle in radians)


def euclidean_mesh_size(mesh) -> float:
    """Longest Euclidean edge of the mesh in disk coordinates."""
    tris = np.asarray(mesh.triangles, dtype=np.int64)
    z = np.asarray(mesh.nodes, dtype=np.complex128)[tris]
    d = np.abs(np.stack([z[:, 1] - z[:, 0], z[:, 2] - z[:, 1], z[:, 0] - z[:, 2]]))
    return float(d.max())


def _fold_line_angle(delta: float) -> float:
    """Angle between two lines given the difference of direction angles."""
    d = math.fmod(abs(delta), math.pi)
    return min(d, math.pi - d)


def _line_angle(d: complex) -> float:
    return math.atan2(d.imag, d.real) % math.pi


def _cluster_lines(angles, tol: float = 1e-2):
    """Group direction angles modulo pi; returns sorted cluster means."""
    if not angles:
        return []
    arr = sorted(a % math.pi for a in angles)
    clusters = [[arr[0]]]
    for a in arr[1:]:
        if a - clusters[-1][-1] <= tol:
            clusters[-1].append(a)
        else:
            clusters.append([a])
    # wraparound: angles just below pi belong with angles just above 0
    if len(clusters) > 1 and (arr[0] + math.pi) - clusters[-1][-1] <= tol:
        tail = clusters.pop()
        clusters[0] = [a - math.pi for a in tail] + clusters[0]
    return sorted(sum(c) / len(c) % math.pi for c in clusters)


def _crossing_angle(dirs) -> float:
    reps = _cluster_lines([_line_angle(d) for d in dirs])
    if len(reps) < 2:
        return 0.0
    best = min(
        _fold_line_angle(reps[i] - reps[j])
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    )
    return best


def extract_nodal(mesh, u, zero_tol: float = 1e-9, chart: int = 0) -> NodalSet:
    """Zero set of the piecewise linear interpolant of u on the mesh.

    Nodes with |u| <= zero_tol * max|u| count as exact zeros.  Each
    triangle contributes at most one zero segment (three for the fully
    degenerate all-zero triangle); segments shared between triangles are
    emitted once.  Raises NodalError when u vanishes identically.
    """
    u = np.asarray(u, dtype=float)
    nodes = np.asarray(mesh.nodes, dtype=np.complex128)
    amax = float(np.max(np.abs(u))) if len(u) else 0.0
    if amax == 0.0:
        raise NodalError("nodal extraction of an identically zero vector")
    cut = zero_tol * amax
    zero = np.abs(u) <= cut
    if bool(zero.all()):
        raise NodalError("nodal extraction of an identically zero vector")
    sgn = np.where(zero, 0.0, np.sign(u))

    pts = {}
    segs = set()

    def vkey(i):
        k = ("v", int(i))
        if k not in pts:
            pts[k] = complex(nodes[i])
        return k

    def ekey(i, j):
        lo, hi = (int(i), int(j)) if i < j else (int(j), int(i))
        k = ("e", lo, hi)
        if k not in pts:
            t = u[lo] / (u[lo] - u[hi])
            pts[k] = complex(nodes[lo] + t * (nodes[hi] - nodes[lo]))
        return k

    # only triangles with a zero vertex or a sign change contribute
    tris = np.asarray(mesh.triangles, dtype=np.int64)
    ts = sgn[tris]
    live = zero[tris].any(axis=1) | ((ts.min(axis=1) < 0) & (ts.max(axis=1) > 0))
    for tri in tris[live]:
        a, b, c = (int(x) for x in tri)
        ents = [vkey(i) for i in (a, b, c) if zero[i]]
        for i, j in ((a, b), (b, c), (c, a)):
            if sgn[i] * sgn[j] < 0:
                ents.append(ekey(i, j))
        if len(ents) == 2:
            segs.add(tuple(sorted(ents)))
        elif len(ents) == 3:
            # fully degenerate triangle: all three vertices are zeros
            for p in range(3):
                for q in range(p + 1, 3):
                    segs.add(tuple(sorted((ents[p], ents[q]))))
    return _nodal_set(pts, segs, chart)


def _nodal_set(pts: dict, segs: set, chart: int) -> NodalSet:
    """Chain zero segments (pairs of keys into pts) into the components and crossings of a NodalSet."""
    adj = {}
    for k1, k2 in segs:
        adj.setdefault(k1, set()).add(k2)
        adj.setdefault(k2, set()).add(k1)

    cross_keys = sorted(k for k in adj if len(adj[k]) >= 3)
    crossings = []
    for k in cross_keys:
        p = pts[k]
        dirs = [pts[n] - p for n in sorted(adj[k])]
        crossings.append((p, _crossing_angle(dirs)))

    cross_set = set(cross_keys)
    sub = {
        k: sorted(n for n in adj[k] if n not in cross_set)
        for k in adj
        if k not in cross_set
    }
    tails = {k: sorted(n for n in adj[k] if n in cross_set) for k in sub}

    visited = set()
    chains = []
    # open chains first: start from every subgraph endpoint
    for start in sorted(sub):
        if start in visited or len(sub[start]) > 1:
            continue
        visited.add(start)
        chain = [start]
        prev, cur = None, start
        while True:
            nxt = [n for n in sub[cur] if n != prev and n not in visited]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            visited.add(cur)
            chain.append(cur)
        chains.append((chain, False))
    # what remains are pure cycles
    for start in sorted(sub):
        if start in visited:
            continue
        visited.add(start)
        chain = [start]
        prev, cur = None, start
        while True:
            nxt = [n for n in sorted(sub[cur]) if n != prev]
            if not nxt or nxt[0] in visited:
                break
            prev, cur = cur, nxt[0]
            visited.add(cur)
            chain.append(cur)
        chains.append((chain, True))

    components = []
    for chain, closed in chains:
        pl = [pts[k] for k in chain]
        if not closed:
            tt_head = tails.get(chain[0], [])
            if len(chain) == 1:
                if tt_head:
                    pl.insert(0, pts[tt_head[0]])
                if len(tt_head) == 2:
                    pl.append(pts[tt_head[1]])
            else:
                tt_tail = tails.get(chain[-1], [])
                if tt_head:
                    pl.insert(0, pts[tt_head[0]])
                if tt_tail:
                    pl.append(pts[tt_tail[0]])
        if len(pl) >= 2:
            components.append((pl, closed))

    components = _merge_collinear(components, [p for p, _ in crossings])
    comps = [
        NodalComponent(points=np.array(pl, dtype=np.complex128), closed=closed, chart=chart)
        for pl, closed in components
    ]
    comps.sort(key=lambda c: (_point_key(c.points[0]), _point_key(c.points[-1]), len(c.points)))
    crossings.sort(key=lambda pa: _point_key(pa[0]))
    return NodalSet(components=comps, crossing_points=crossings)


def _point_key(p: complex):
    return (round(p.real, 9), round(p.imag, 9))


def _merge_collinear(components, crossing_points, tol: float = 1e-7, angle_tol: float = 1e-2):
    """Re-join open chains that continue straight through a crossing point."""
    comps = [(list(pl), closed) for pl, closed in components]
    merged = True
    while merged:
        merged = False
        for cp in sorted(crossing_points, key=_point_key):
            ends = []
            for ci, (pl, closed) in enumerate(comps):
                if closed or len(pl) < 2:
                    continue
                if abs(pl[0] - cp) <= tol:
                    ends.append((ci, 0, _line_angle(pl[1] - pl[0])))
                if abs(pl[-1] - cp) <= tol:
                    ends.append((ci, -1, _line_angle(pl[-2] - pl[-1])))
            if len(ends) < 2:
                continue
            reps = _cluster_lines([a for _, _, a in ends], tol=angle_tol)
            for rep in reps:
                grp = [e for e in ends if _fold_line_angle(e[2] - rep) <= angle_tol]
                if len(grp) != 2:
                    continue
                (ca, sa, _), (cb, sb, _) = sorted(grp[:2], key=lambda e: (e[0], e[1]))
                if ca == cb:
                    # both ends of one chain meet straight: close the loop
                    pl = comps[ca][0]
                    if abs(pl[0] - pl[-1]) <= 2 * tol:
                        comps[ca] = (pl[:-1], True)
                        merged = True
                        break
                    continue
                pa = comps[ca][0] if sa == -1 else list(reversed(comps[ca][0]))
                pb = comps[cb][0] if sb == 0 else list(reversed(comps[cb][0]))
                comps[ca] = (pa + pb[1:], False)
                comps[cb] = ([], False)
                merged = True
                break
            if merged:
                break
        comps = [(pl, closed) for pl, closed in comps if len(pl) >= 2 or closed]
    out = []
    for pl, closed in comps:
        if closed and len(pl) >= 3:
            out.append((_normalize_cycle(pl), True))
        elif len(pl) >= 2:
            out.append((pl if _point_key(pl[0]) <= _point_key(pl[-1]) else list(reversed(pl)), False))
    return out


def _normalize_cycle(pl):
    k = min(range(len(pl)), key=lambda i: _point_key(pl[i]))
    rot = pl[k:] + pl[:k]
    if len(rot) > 2 and _point_key(rot[-1]) < _point_key(rot[1]):
        rot = [rot[0]] + list(reversed(rot[1:]))
    return rot


def geodesic_deviation(component, g: Geodesic) -> float:
    """Maximum hyperbolic distance from the polyline vertices to g."""
    pts = component.points if isinstance(component, NodalComponent) else np.asarray(component)
    if len(pts) == 0:
        raise NodalError("geodesic deviation of an empty polyline")
    return max(point_to_geodesic_distance(complex(p), g) for p in pts)


def _segments(ns: NodalSet):
    out = []
    for ci, comp in enumerate(ns.components):
        pl = comp.points
        n = len(pl)
        for i in range(n - 1):
            out.append((ci, i, complex(pl[i]), complex(pl[i + 1])))
        if comp.closed and n >= 3:
            out.append((ci, n - 1, complex(pl[-1]), complex(pl[0])))
    return out


def _seg_hit(p1, p2, p3, p4, tol=1e-9):
    """Intersection point of two segments, or None; endpoint touches count."""
    d1 = p2 - p1
    d2 = p4 - p3
    den = d1.real * d2.imag - d1.imag * d2.real
    scale = max(abs(d1), abs(d2), 1e-30)
    if abs(den) <= 1e-14 * scale * scale:
        return None
    r = p3 - p1
    t = (r.real * d2.imag - r.imag * d2.real) / den
    s = (r.real * d1.imag - r.imag * d1.real) / den
    eps = tol / scale
    if -eps <= t <= 1 + eps and -eps <= s <= 1 + eps:
        return p1 + t * d1
    return None


def self_intersections(ns: NodalSet, transversal_tol: float = 1e-3):
    """Points where the nodal set crosses itself, with crossing angles.

    Pairwise scan over all segments, within and across components;
    consecutive segments of one component are skipped, and hits closer
    than transversal_tol in angle (near-tangential contacts) are dropped.
    Coincident hits are reported once.
    """
    segs = _segments(ns)
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
            hit = _seg_hit(p1, p2, p3, p4)
            if hit is None:
                continue
            ang = _fold_line_angle(_line_angle(p2 - p1) - _line_angle(p4 - p3))
            if ang < transversal_tol:
                continue
            key = (round(hit.real, 7), round(hit.imag, 7))
            if key not in seen:
                seen[key] = (hit, ang)
    return [seen[k] for k in sorted(seen)]


def format_nodal_text(ns: NodalSet) -> str:
    """Structured text rendering: one polyline per block, x y per line."""
    lines = [f"components {len(ns.components)}", f"crossings {len(ns.crossing_points)}"]
    for i, comp in enumerate(ns.components):
        lines.append(
            f"polyline {i} chart {comp.chart} closed {int(comp.closed)} points {len(comp.points)}"
        )
        for p in comp.points:
            lines.append(f"{p.real:.17g} {p.imag:.17g}")
    for p, ang in ns.crossing_points:
        lines.append(f"crossing {p.real:.17g} {p.imag:.17g} angle {ang:.17g}")
    return "\n".join(lines) + "\n"
