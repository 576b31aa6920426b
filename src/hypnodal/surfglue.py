"""Hyperbolic surfaces assembled from polygon charts with side pairings.

A Surface is a base geodesic polygon, a list of charts (placements of that
polygon, each with a transport sign for eigenfunction extension), and a
list of pairings identifying chart sides through explicit isometries.
Unpaired sides keep their polygon labels as outer boundary conditions.

The module provides reflection extension of eigenfunctions across geodesic
mirror lines (schwarz_extend), the combinatorial audit (Euler
characteristic, orientability, boundary circles), reflection doubling of
whole boundary circles, the exhaustive search for octagon side-pairing
patterns compatible with a given eigenfunction, the staged construction of
closed genus 2 and genus 3 surfaces, and the gluing of finite element
systems across charts by exact node matching.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from . import hypfem
from .hypgeo import (
    IDENTITY,
    Geodesic,
    HyperbolicPolygon,
    Isometry,
    apply,
    axis_map,
    compose,
    inverse,
    reflect_in,
    regular_right_polygon,
    right_angled_hexagon,
)
from .hypmesh import Mesh, MeshConfig, mesh_polygon

MATCH_TOL = 1e-9


class GlueError(ValueError):
    """A gluing is geometrically or combinatorially inconsistent."""


@dataclass(frozen=True)
class Chart:
    """One placed copy of the base polygon.

    placement maps base coordinates into the chart's own disk picture; sign
    multiplies base values when a base eigenfunction is transported to this
    chart.
    """

    placement: Isometry = IDENTITY
    sign: float = 1.0


@dataclass(frozen=True)
class Pairing:
    """Identification of side side_a of chart chart_a with side side_b of
    chart chart_b through the picture-coordinate isometry iso.

    parity is +1 for an even (mirror/Neumann) interface, -1 for an odd
    (Dirichlet) one, and None for a generic gluing with no reflection
    symmetry attached.
    """

    chart_a: int
    side_a: int
    chart_b: int
    side_b: int
    iso: Isometry
    parity: int = None


def pairing_from_base(charts, chart_a, side_a, chart_b, side_b, mu, parity=None) -> Pairing:
    """Build a pairing from its base-coordinate correspondence mu
    (the map taking base side_a points to base side_b points)."""
    iso = compose(charts[chart_b].placement, compose(mu, inverse(charts[chart_a].placement)))
    return Pairing(chart_a, side_a, chart_b, side_b, iso, parity)


@dataclass
class Surface:
    """Charts over one base polygon plus side pairings."""

    base: HyperbolicPolygon
    charts: list
    pairings: list

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def base_correspondence(self, p: Pairing) -> Isometry:
        """The pairing's action in base coordinates: placement_b^-1 iso placement_a."""
        return compose(
            inverse(self.charts[p.chart_b].placement),
            compose(p.iso, self.charts[p.chart_a].placement),
        )

    def glued_sides(self) -> set:
        out = set()
        for p in self.pairings:
            out.add((p.chart_a, p.side_a))
            out.add((p.chart_b, p.side_b))
        return out

    def unglued_sides(self) -> list:
        glued = self.glued_sides()
        return [
            (c, s)
            for c in range(self.n_charts)
            for s in range(self.base.n)
            if (c, s) not in glued
        ]

    def side_label(self, chart: int, side: int) -> str:
        return self.base.labels[side]


def _pairing_start_to_start(surface: Surface, p: Pairing, tol: float = MATCH_TOL) -> bool:
    """True if the pairing maps side_a's start vertex to side_b's start vertex."""
    mu = surface.base_correspondence(p)
    sa = surface.base.side(p.side_a)
    sb = surface.base.side(p.side_b)
    im = apply(mu, sa.start)
    if abs(im - sb.start) <= tol:
        return True
    if abs(im - sb.end) <= tol:
        return False
    raise GlueError(
        f"pairing ({p.chart_a},{p.side_a})-({p.chart_b},{p.side_b}) does not match side endpoints"
    )


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


@dataclass
class TopologyReport:
    """Combinatorial invariants of the glued cell complex."""

    n_vertices: int
    n_edges: int
    n_faces: int
    chi: int
    orientable: bool
    boundary_circles: list  # each a list of (chart, side)
    closed: bool

    @property
    def genus(self):
        if not self.orientable:
            return None
        return (2 - self.chi - len(self.boundary_circles)) // 2


def audit_topology(surface: Surface) -> TopologyReport:
    """Euler characteristic, orientability, and boundary circles of the glued complex.

    Vertices are chart polygon corners identified through pairing endpoint
    matches; every pairing merges two sides into one edge; faces are charts.
    Orientability assigns each chart a flag: a pairing that matches start
    vertex to start vertex forces opposite flags (the sides are traversed
    parallel), start to end forces equal flags.
    """
    n = surface.base.n
    dsu = _DSU()
    for c in range(surface.n_charts):
        for k in range(n):
            dsu.find((c, k))

    flips = []  # (chart_a, chart_b, must_flip)
    for p in surface.pairings:
        s2s = _pairing_start_to_start(surface, p)
        a0, a1 = (p.chart_a, p.side_a), (p.chart_a, (p.side_a + 1) % n)
        b0, b1 = (p.chart_b, p.side_b), (p.chart_b, (p.side_b + 1) % n)
        if s2s:
            dsu.union(a0, b0)
            dsu.union(a1, b1)
        else:
            dsu.union(a0, b1)
            dsu.union(a1, b0)
        flips.append((p.chart_a, p.chart_b, s2s))

    classes = {dsu.find((c, k)) for c in range(surface.n_charts) for k in range(n)}
    V = len(classes)
    E = surface.n_charts * n - len(surface.pairings)
    F = surface.n_charts
    chi = V - E + F

    # orientability: propagate face flags, contradiction means non-orientable
    orient = {}
    orientable = True
    adj = {}
    for ca, cb, must_flip in flips:
        adj.setdefault(ca, []).append((cb, must_flip))
        adj.setdefault(cb, []).append((ca, must_flip))
    for start in range(surface.n_charts):
        if start in orient:
            continue
        orient[start] = 1
        stack = [start]
        while stack:
            c = stack.pop()
            for d, must_flip in adj.get(c, []):
                want = -orient[c] if must_flip else orient[c]
                if d not in orient:
                    orient[d] = want
                    stack.append(d)
                elif orient[d] != want:
                    orientable = False

    # boundary circles: unglued sides chained through vertex classes
    unglued = surface.unglued_sides()
    bnd_adj = {}
    for c, s in unglued:
        r0 = dsu.find((c, s))
        r1 = dsu.find((c, (s + 1) % n))
        bnd_adj.setdefault(r0, []).append((c, s))
        bnd_adj.setdefault(r1, []).append((c, s))
    for r, sides in bnd_adj.items():
        if len(sides) != 2:
            raise GlueError(
                f"boundary vertex class {r} touches {len(sides)} unglued sides; expected 2"
            )
    circles = []
    seen = set()
    for c, s in unglued:
        if (c, s) in seen:
            continue
        circle = [(c, s)]
        seen.add((c, s))
        cursor = dsu.find((c, (s + 1) % n))
        while True:
            nxt = [e for e in bnd_adj[cursor] if e not in seen]
            if not nxt:
                break
            e = nxt[0]
            circle.append(e)
            seen.add(e)
            r0 = dsu.find((e[0], e[1]))
            r1 = dsu.find((e[0], (e[1] + 1) % n))
            cursor = r1 if r0 == cursor else r0
        circles.append(circle)

    return TopologyReport(
        n_vertices=V,
        n_edges=E,
        n_faces=F,
        chi=chi,
        orientable=orientable,
        boundary_circles=circles,
        closed=not unglued,
    )


def circle_length(surface: Surface, circle) -> float:
    """Total hyperbolic length of a boundary circle (list of (chart, side))."""
    return sum(surface.base.side(s).length for _, s in circle)


# ---------------------------------------------------------------------------
# canonical domains: right-angled octagon and its quarter


def octagon_polygon() -> HyperbolicPolygon:
    """Regular octagon with right angles, all sides free (Neumann)."""
    return regular_right_polygon(8, math.pi / 2)


def quarter_octagon() -> HyperbolicPolygon:
    """Fundamental domain of the octagon's two orthogonal mirror diameters,
    in the first quadrant: two mirror segments on the coordinate axes
    (labeled dirichlet for the odd extension) and three octagon sides."""
    R = math.acosh(1.0 / math.tan(math.pi / 8))
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
    return HyperbolicPolygon(verts, labels)


REAL_MIRROR = Geodesic(math.pi, 0.0)
IMAG_MIRROR = Geodesic(3 * math.pi / 2, math.pi / 2)


def mirror_tiling_surface() -> Surface:
    """Four placements of the quarter domain tiling the right-angled octagon,
    written out by hand (the same complex schwarz_extend builds in two steps).

    Charts carry the odd-extension transport signs; the four mirror
    interfaces are odd pairings, the twelve outer sides reassemble the
    octagon boundary.
    """
    base = quarter_octagon()
    refl_imag = reflect_in(IMAG_MIRROR)
    refl_real = reflect_in(REAL_MIRROR)
    charts = [
        Chart(IDENTITY, 1.0),
        Chart(refl_imag, -1.0),
        Chart(compose(refl_real, refl_imag), 1.0),
        Chart(refl_real, -1.0),
    ]
    pairings = [
        pairing_from_base(charts, 0, 4, 1, 4, refl_imag, parity=-1),
        pairing_from_base(charts, 1, 0, 2, 0, refl_real, parity=-1),
        pairing_from_base(charts, 2, 4, 3, 4, refl_imag, parity=-1),
        pairing_from_base(charts, 3, 0, 0, 0, refl_real, parity=-1),
    ]
    return Surface(base=base, charts=charts, pairings=pairings)


# ---------------------------------------------------------------------------
# gluing finite element systems across charts


@dataclass
class GluedSystem:
    """Finite element pencil on a glued surface.

    Chart c's copy of base mesh node n is global slot c*N + n; glue_index
    maps slots to glued dof ids.  K and M are unreduced (all glued dofs);
    constrained marks dofs on odd-parity interfaces and on unglued sides
    labeled dirichlet, to be removed for constrained solves.
    """

    surface: Surface
    base_mesh: Mesh
    glue_index: np.ndarray
    n_dofs: int
    K: object
    M: object
    constrained: np.ndarray
    dirichlet_boundary: np.ndarray  # dofs on unglued dirichlet sides only

    @property
    def free(self) -> np.ndarray:
        return np.flatnonzero(~self.constrained)

    @property
    def eigen_rows(self) -> np.ndarray:
        """Dofs where the eigen equation itself must hold: everything except
        the unglued Dirichlet boundary (odd interfaces stay in, the fluxes of
        adjacent charts cancel there when the extension is consistent)."""
        return np.flatnonzero(~self.dirichlet_boundary)

    def picture_nodes(self) -> np.ndarray:
        """Per-chart picture coordinates of all base nodes, shape (C, N)."""
        out = []
        for ch in self.surface.charts:
            out.append(apply(ch.placement, self.base_mesh.nodes))
        return np.stack(out)

    def chart_values(self, v: np.ndarray, c: int) -> np.ndarray:
        """Restriction of a glued vector to chart c's base mesh nodes."""
        N = self.base_mesh.n_nodes
        return v[self.glue_index[c * N : (c + 1) * N]]


def assemble_glued(surface: Surface, base_mesh: Mesh) -> GluedSystem:
    """Glue chart copies of the base mesh system by exact side-node matching.

    Nodes are merged only along pairings (never by picture position: mirror
    placements overlap everywhere).  Every side node of a paired side must
    land on a partner node within 1e-9 under the pairing's base
    correspondence, which holds when the base mesh is symmetric under the
    composite side maps.
    """
    N = base_mesh.n_nodes
    C = surface.n_charts
    slots_a, slots_b = [], []
    odd_slots = []
    for p in surface.pairings:
        mu = surface.base_correspondence(p)
        na = base_mesh.side_nodes[p.side_a]
        nb = base_mesh.side_nodes[p.side_b]
        za = apply(mu, base_mesh.nodes[na])
        zb = base_mesh.nodes[nb]
        tree = cKDTree(np.column_stack([zb.real, zb.imag]))
        dist, j = tree.query(np.column_stack([za.real, za.imag]))
        if dist.max() > MATCH_TOL:
            raise GlueError(
                f"pairing ({p.chart_a},{p.side_a})-({p.chart_b},{p.side_b}): "
                f"side nodes mismatch by {dist.max():.3e} (mesh not symmetric under the gluing)"
            )
        if len(np.unique(j)) != len(nb):
            raise GlueError("pairing side-node matching is not one-to-one")
        slots_a.append(p.chart_a * N + na)
        slots_b.append(p.chart_b * N + nb[j])
        if p.parity == -1:
            odd_slots.extend(p.chart_a * N + na)
            odd_slots.extend(p.chart_b * N + nb)

    # glued dofs are the connected components of the matched slot pairs,
    # numbered in the order of each class's smallest slot
    a = np.concatenate([np.zeros(0, dtype=np.int64), *slots_a])
    b = np.concatenate([np.zeros(0, dtype=np.int64), *slots_b])
    pairs = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(C * N, C * N))
    G, labels = connected_components(pairs, directed=False)
    glue_index = labels.astype(np.int64)

    K0, M0 = hypfem.assemble(base_mesh.nodes, base_mesh.triangles)
    K0, M0 = K0.tocoo(), M0.tocoo()
    rows, cols, kv, mv = [], [], [], []
    for c in range(C):
        rows.append(glue_index[c * N + K0.row])
        cols.append(glue_index[c * N + K0.col])
        kv.append(K0.data)
        mv.append(M0.data)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    K = sp.coo_matrix((np.concatenate(kv), (rows, cols)), shape=(G, G)).tocsr()
    M = sp.coo_matrix((np.concatenate(mv), (rows, cols)), shape=(G, G)).tocsr()

    dirichlet_boundary = np.zeros(G, dtype=bool)
    for c, s in surface.unglued_sides():
        if surface.side_label(c, s) == "dirichlet":
            dirichlet_boundary[glue_index[c * N + base_mesh.side_nodes[s]]] = True
    constrained = dirichlet_boundary.copy()
    if odd_slots:
        constrained[glue_index[np.array(odd_slots)]] = True

    return GluedSystem(
        surface=surface,
        base_mesh=base_mesh,
        glue_index=glue_index,
        n_dofs=G,
        K=K,
        M=M,
        constrained=constrained,
        dirichlet_boundary=dirichlet_boundary,
    )


def transport(system: GluedSystem, u: np.ndarray, consistency_tol: float = 1e-10) -> np.ndarray:
    """Extend a base-mesh vector to the glued surface with the chart signs.

    Every glued dof collects sign_c * u[n] from its member slots; all
    members (across charts and within one chart, for self-paired sides)
    must agree within consistency_tol * max|u| or the extension is not well
    defined (wrong symmetry class of u).  The dof value is the member mean.
    """
    N = system.base_mesh.n_nodes
    sums = np.zeros(system.n_dofs)
    counts = np.zeros(system.n_dofs)
    per_chart = []
    for c, ch in enumerate(system.surface.charts):
        gi = system.glue_index[c * N : (c + 1) * N]
        cand = ch.sign * u
        np.add.at(sums, gi, cand)
        np.add.at(counts, gi, 1.0)
        per_chart.append((gi, cand))
    vals = sums / counts
    scale = float(np.max(np.abs(u)))
    worst = max(float(np.max(np.abs(cand - vals[gi]))) for gi, cand in per_chart)
    if worst > consistency_tol * scale:
        raise GlueError(
            f"transport inconsistent: chart values disagree by {worst:.3e} (|u|max = {scale:.3e})"
        )
    return vals


def glued_residual(system: GluedSystem, lam: float, v: np.ndarray, rows: np.ndarray = None) -> float:
    """Relative eigen-residual of (lam, v) on the unreduced glued pencil,
    restricted to the given dof rows (default: all eigen rows, leaving out
    only the unglued Dirichlet boundary where the boundary condition rather
    than the equation holds)."""
    if rows is None:
        rows = system.eigen_rows
    kv = (system.K @ v)[rows]
    mv = (system.M @ v)[rows]
    num = np.linalg.norm(kv - lam * mv)
    den = np.linalg.norm(kv) + abs(lam) * np.linalg.norm(mv)
    return float(num / den) if den > 0 else float(num)


def solve_glued(system: GluedSystem, k: int = 6, constrain: bool = True, solver=None) -> tuple:
    """Lowest modes of the glued pencil; constrained dofs removed if requested.

    Returns (values, vectors) with vectors on all glued dofs (zeros on
    removed ones).
    """
    free = system.free if constrain else np.arange(system.n_dofs)
    Kf, Mf = hypfem.reduce_system(system.K, system.M, free)
    vals, vecs = hypfem.solve_lowest(Kf, Mf, k, solver)
    full = np.zeros((system.n_dofs, vecs.shape[1]))
    full[free] = vecs
    return vals, full


def chart_interpolator(system: GluedSystem, v: np.ndarray) -> hypfem.P1Interpolator:
    """P1 evaluator of a glued vector over all chart triangles in picture
    coordinates (meaningful when the placements tile without overlap)."""
    N = system.base_mesh.n_nodes
    pts = system.picture_nodes().ravel()
    tris = np.concatenate(
        [system.base_mesh.triangles + c * N for c in range(system.surface.n_charts)]
    )
    vals = v[system.glue_index]
    return hypfem.P1Interpolator(pts, tris, vals)


def picture_symmetry_error(system: GluedSystem, v: np.ndarray, mapping, sign: float) -> float:
    """max |v(mapping(z)) - sign v(z)| / max |v| over all picture nodes.

    mapping acts on complex picture coordinates and must permute the node
    set (tiling placements only)."""
    pts = system.picture_nodes().ravel()
    vals = v[system.glue_index]
    tree = cKDTree(np.column_stack([pts.real, pts.imag]))
    target = mapping(pts)
    dist, j = tree.query(np.column_stack([target.real, target.imag]))
    if dist.max() > MATCH_TOL:
        raise GlueError("picture nodes are not invariant under the requested mapping")
    return float(np.max(np.abs(vals[j] - sign * vals)) / np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# reflection extension across mirror lines and across boundary circles


@dataclass
class ExtendedSolution:
    """An eigenfunction transported over a glued surface.

    base_vector holds the eigenvector on the base mesh; vector its
    transported copy on the glued dofs; residual the eigen-row residual of
    the unreduced glued pencil.
    """

    surface: Surface
    system: GluedSystem
    lam: float
    base_vector: np.ndarray
    vector: np.ndarray
    residual: float


def as_extended(modes: hypfem.PolygonModes, index: int = 0) -> ExtendedSolution:
    """Wrap one polygon eigenmode as a single-chart extended solution."""
    surface = Surface(base=modes.mesh.polygon, charts=[Chart()], pairings=[])
    system = assemble_glued(surface, modes.mesh)
    u = modes.vectors[:, index]
    lam = float(modes.values[index])
    v = transport(system, u)
    return ExtendedSolution(
        surface=surface,
        system=system,
        lam=lam,
        base_vector=u,
        vector=v,
        residual=glued_residual(system, lam, v),
    )


def schwarz_extend(ext: ExtendedSolution, mirror: Geodesic, parity: str) -> ExtendedSolution:
    """Reflect an extended solution across a geodesic mirror line.

    Every unglued chart side lying on the mirror must carry the boundary
    label matching the parity (dirichlet for odd, neumann for even); the
    surface gains a reflected copy of every chart, with value signs flipped
    for the odd extension, and the mirror sides become interface pairings.
    The transported vector solves the enlarged system exactly up to
    roundoff: at odd interfaces the one-sided fluxes of the two adjacent
    charts cancel, at even interfaces they add to the interior equation.
    """
    if parity not in ("odd", "even"):
        raise GlueError(f"parity must be 'odd' or 'even', got {parity!r}")
    sigma = -1.0 if parity == "odd" else 1.0
    want = "dirichlet" if parity == "odd" else "neumann"
    surface = ext.surface
    r_m = reflect_in(mirror)

    on_mirror = []
    for c, s in surface.unglued_sides():
        side = surface.base.side(s)
        p = surface.charts[c].placement
        za, zb = apply(p, side.start), apply(p, side.end)
        if mirror.contains(za) and mirror.contains(zb):
            if surface.side_label(c, s) != want:
                raise GlueError(
                    f"side ({c},{s}) on the mirror is labeled {surface.side_label(c, s)}, "
                    f"but {parity} extension requires {want}"
                )
            on_mirror.append((c, s))
    if not on_mirror:
        raise GlueError("no unglued side lies on the requested mirror")

    C = surface.n_charts
    charts = list(surface.charts) + [
        Chart(compose(r_m, ch.placement), sigma * ch.sign) for ch in surface.charts
    ]
    pairings = list(surface.pairings)
    for p in surface.pairings:
        mu = surface.base_correspondence(p)
        pairings.append(
            pairing_from_base(charts, p.chart_a + C, p.side_a, p.chart_b + C, p.side_b, mu, p.parity)
        )
    for c, s in on_mirror:
        pairings.append(Pairing(c, s, c + C, s, r_m, int(sigma)))

    new_surface = Surface(base=surface.base, charts=charts, pairings=pairings)
    system = assemble_glued(new_surface, ext.system.base_mesh)
    v = transport(system, ext.base_vector)
    return ExtendedSolution(
        surface=new_surface,
        system=system,
        lam=ext.lam,
        base_vector=ext.base_vector,
        vector=v,
        residual=glued_residual(system, ext.lam, v),
    )


def verify_extension(ext: ExtendedSolution) -> float:
    """Eigen-row residual of the extended vector on the unreduced glued
    pencil; decreases to solver roundoff when the extension is exact."""
    return glued_residual(ext.system, ext.lam, ext.vector)


def extend_quarter_mode(h_target: float, mode_index: int = 0, k: int = None) -> ExtendedSolution:
    """Solve the mixed quarter-octagon problem and extend it over the full
    right-angled octagon by two odd reflections (real mirror, then
    imaginary mirror): four charts with signs +1, -1, -1, +1."""
    modes = hypfem.solve_polygon(quarter_octagon(), h_target, k=k or mode_index + 1)
    ext = as_extended(modes, mode_index)
    ext = schwarz_extend(ext, REAL_MIRROR, "odd")
    ext = schwarz_extend(ext, IMAG_MIRROR, "odd")
    return ext


def double_surface(surface: Surface, circle_indices=None) -> Surface:
    """Reflection double across whole boundary circles.

    Appends a mirror copy of every chart (placement composed with the base
    reflection in the real axis) and glues each doubled boundary side to its
    mirror twin by the identity correspondence.  circle_indices selects
    which boundary circles to double (default all).  All doubled circles
    must carry one parity: sides labeled neumann give the even double
    (mirror signs keep the chart sign), dirichlet the odd double (mirror
    signs flip).
    """
    report = audit_topology(surface)
    if report.chi > 0:
        raise GlueError(f"doubling a disk-like complex (chi = {report.chi} > 0) is not supported")
    if not report.orientable:
        raise GlueError("doubling requires an orientable complex")
    circles = report.boundary_circles
    if circle_indices is None:
        circle_indices = list(range(len(circles)))
    if not circle_indices:
        raise GlueError("doubling requires at least one boundary circle")
    chosen = [circles[i] for i in circle_indices]

    parities = set()
    for circle in chosen:
        labs = {surface.side_label(c, s) for c, s in circle}
        if len(labs) != 1:
            raise GlueError(f"boundary circle {circle} mixes side labels {labs}")
        parities.add(labs.pop())
    if len(parities) != 1:
        raise GlueError(f"doubled circles mix parities {parities}; double them in stages")
    parity = 1 if parities.pop() == "neumann" else -1

    r0 = reflect_in(REAL_MIRROR)
    C = surface.n_charts
    charts = list(surface.charts) + [
        Chart(compose(ch.placement, r0), parity * ch.sign) for ch in surface.charts
    ]
    pairings = list(surface.pairings)
    for p in surface.pairings:
        mu = surface.base_correspondence(p)
        pairings.append(
            pairing_from_base(charts, p.chart_a + C, p.side_a, p.chart_b + C, p.side_b, mu, p.parity)
        )
    for circle in chosen:
        for c, s in circle:
            pairings.append(pairing_from_base(charts, c, s, c + C, s, IDENTITY, parity))

    return Surface(base=surface.base, charts=charts, pairings=pairings)


# ---------------------------------------------------------------------------
# exhaustive search for eigenfunction-compatible octagon side pairings


@dataclass
class PatternResult:
    """One candidate octagon side-pairing pattern and its invariants."""

    pairs: tuple  # ((i, j), (k, l)) polygon side indices
    start_to_start: tuple  # endpoint orientation choice per pair
    compat: float  # max |f(iso x) - f(x)| over side samples
    chi: int
    orientable: bool
    n_boundary: int

    def is_pants(self) -> bool:
        return self.chi == -1 and self.orientable and self.n_boundary == 3

    def accepted(self, tol: float) -> bool:
        return self.compat <= tol and self.is_pants()


def _side_iso(poly: HyperbolicPolygon, i: int, j: int, start_to_start: bool) -> Isometry:
    """The unique orientation-preserving isometry taking side i onto side j
    with the chosen endpoint correspondence."""
    si, sj = poly.side(i), poly.side(j)
    Ai = axis_map(si.start, si.end)
    Aj = axis_map(sj.start, sj.end) if start_to_start else axis_map(sj.end, sj.start)
    return compose(inverse(Aj), Ai)


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


def scan_pants_patterns(
    f: hypfem.P1Interpolator,
    poly: HyperbolicPolygon = None,
    samples_per_side: int = 24,
) -> list:
    """Score every pattern of two disjoint side pairings of the polygon
    against the function f.

    All C(8,2) C(6,2) / 2 = 210 pairings-of-pairs times 4 endpoint
    orientations are scored by the worst value mismatch |f(iso x) - f(x)|
    along the paired sides, and their combinatorial invariants computed.
    Ordering is deterministic (ascending mismatch, then lexicographic).
    """
    poly = poly or octagon_polygon()
    n = poly.n

    side_samples = []
    for i in range(n):
        s = poly.side(i)
        L = s.length
        side_samples.append(
            [s.point_at(L * (q + 0.5) / samples_per_side) for q in range(samples_per_side)]
        )
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
                        iso = _side_iso(poly, i, j, s2s)
                        vals_j = np.array([f(apply(iso, x)) for x in side_samples[i]])
                        compat = max(compat, float(np.max(np.abs(vals_j - f_at[i]))))
                    chi, orientable, circles = _pattern_invariants(
                        n, (pair1, pair2), (s2s1, s2s2)
                    )
                    results.append(
                        PatternResult(
                            pairs=(pair1, pair2),
                            start_to_start=(s2s1, s2s2),
                            compat=compat,
                            chi=chi,
                            orientable=orientable,
                            n_boundary=circles,
                        )
                    )
    results.sort(key=lambda r: (r.compat, r.pairs, r.start_to_start))
    return results


def build_pattern_surface(pattern: PatternResult, poly: HyperbolicPolygon = None) -> Surface:
    """Surface object for one polygon pairing pattern (for the independent
    cell-complex recount and for doubling into closed surfaces)."""
    poly = poly or octagon_polygon()
    charts = [Chart(IDENTITY, 1.0)]
    pairings = []
    for (i, j), s2s in zip(pattern.pairs, pattern.start_to_start):
        if i == j:
            raise GlueError("a side cannot be paired with itself")
        mu = _side_iso(poly, i, j, s2s)
        pairings.append(pairing_from_base(charts, 0, i, 0, j, mu))
    return Surface(base=poly, charts=charts, pairings=pairings)


def search_pants_gluing(
    ext: ExtendedSolution,
    poly: HyperbolicPolygon = None,
    samples_per_side: int = 24,
    tol_factor: float = 1e-6,
) -> list:
    """Side-pairing patterns of the octagon compatible with the extended
    eigenfunction: pair of pants combinatorics (chi = -1, orientable, three
    boundary circles) and value mismatch at most tol_factor * max |f|.

    Every accepted pattern is re-audited through the full cell-complex
    route; disagreement between the two independent counts is an internal
    error.  An empty list is a legitimate finding, not an error.
    """
    poly = poly or octagon_polygon()
    f = chart_interpolator(ext.system, ext.vector)
    tol = tol_factor * float(np.max(np.abs(f.values)))
    accepted = [r for r in scan_pants_patterns(f, poly, samples_per_side) if r.accepted(tol)]
    for r in accepted:
        report = audit_topology(build_pattern_surface(r, poly))
        agree = (
            report.chi == r.chi
            and report.orientable == r.orientable
            and len(report.boundary_circles) == r.n_boundary
        )
        if not agree:
            raise GlueError(f"cell-complex recount disagrees for pattern {r.pairs}")
    return accepted


def mirror_odd_eigenvector(modes: hypfem.PolygonModes, target: float) -> tuple:
    """The eigenvector odd under both coordinate-axis mirrors from the
    eigenspace nearest target, as (eigenvalue, vector).

    The mixed quarter-domain mode lifts into a two-dimensional octagon
    eigenspace: the quarter problem and its quarter-turn image are
    isospectral, and the pi/4 rotation acts on the pair without fixed
    vectors.  A direct solve therefore returns an arbitrary basis of the
    plane; the odd-odd member is the -1 eigenvector of the real-axis
    reflection represented on the eigenspace.  A cluster of size one (a
    discretization that splits the pair) is handled the same way.
    """
    vals = np.asarray(modes.values, dtype=float)
    i0 = int(np.argmin(np.abs(vals - target)))
    lam = float(vals[i0])
    cluster = [i for i, v in enumerate(vals) if abs(v - lam) <= 1e-6 * (1.0 + abs(lam))]
    U = modes.vectors[:, cluster]

    nodes = modes.mesh.nodes
    tree = cKDTree(np.column_stack([nodes.real, nodes.imag]))

    def node_perm(mapping):
        tgt = mapping(nodes)
        dist, j = tree.query(np.column_stack([tgt.real, tgt.imag]))
        if dist.max() > MATCH_TOL:
            raise GlueError("mesh is not symmetric under the coordinate mirrors")
        return j

    p_real = node_perm(np.conj)
    S = U.T @ (modes.M @ U[p_real])
    w, Q = np.linalg.eigh(0.5 * (S + S.T))
    if w[0] > -1.0 + 1e-6:
        raise GlueError(f"no mirror-odd eigenvector near lambda = {target}")
    if len(w) > 1 and w[1] < -1.0 + 1e-6:
        raise GlueError(f"mirror-odd member near lambda = {target} is ambiguous")
    v = U @ Q[:, 0]
    v = v / math.sqrt(float(v @ (modes.M @ v)))
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    p_imag = node_perm(lambda z: -np.conj(z))
    err = float(np.max(np.abs(v[p_imag] + v)) / np.max(np.abs(v)))
    if err > 1e-8:
        raise GlueError(f"selected vector is not odd under the imaginary-axis mirror ({err:.2e})")
    return lam, v


def canonical_pants_surface() -> Surface:
    """The diagonal-matched pants: octagon sides (7, 1) and (3, 5) glued by
    the orientation-preserving maps agreeing with the reflections in the
    pi/4 and 3 pi/4 diagonals on those sides."""
    poly = octagon_polygon()
    charts = [Chart(IDENTITY, 1.0)]
    pairings = [
        pairing_from_base(charts, 0, 7, 0, 1, _side_iso(poly, 7, 1, False)),
        pairing_from_base(charts, 0, 3, 0, 5, _side_iso(poly, 3, 5, False)),
    ]
    return Surface(base=poly, charts=charts, pairings=pairings)


def genus2_surface() -> Surface:
    """Even double of the diagonal-matched pants: closed orientable genus 2."""
    return double_surface(canonical_pants_surface())


# ---------------------------------------------------------------------------
# pants from right-angled hexagons and the genus-3 staged double


def pants_decagon(l1: float, l2: float, l3: float) -> HyperbolicPolygon:
    """Decagon carrying a hyperbolic pair of pants with boundary lengths
    l1, l2, l3: a right-angled hexagon with alternating sides l_i / 2 united
    with its reflection across one seam, which is placed on the real axis.

    Side order: [B2h, S23, B3h, S31, B1h, B1h', S31', B3h', S23', B2h']
    where the B_ih are half boundary circles (B1 labeled dirichlet, B2 and
    B3 neumann) and the S seams are matched to their mirror images by
    conjugation in pants_decagon_surface.
    """
    hx = right_angled_hexagon(l1 / 2.0, l2 / 2.0, l3 / 2.0)
    v = list(hx.vertices)
    A = axis_map(v[1], v[2])  # seam S12 goes onto the real axis
    w = [apply(A, x) for x in v]
    if w[0].imag < 0:
        w = [x.conjugate() for x in w]
    verts = (
        w[2],
        w[3],
        w[4],
        w[5],
        w[0],
        w[1],
        w[0].conjugate(),
        w[5].conjugate(),
        w[4].conjugate(),
        w[3].conjugate(),
    )
    labels = (
        "neumann",
        "neumann",
        "neumann",
        "neumann",
        "dirichlet",
        "dirichlet",
        "neumann",
        "neumann",
        "neumann",
        "neumann",
    )
    return HyperbolicPolygon(verts, labels)


def pants_decagon_surface(l1: float = 2.0, l2: float = 2.0, l3: float = 2.0) -> Surface:
    """Single-chart pants: the decagon with its two seam self-pairings."""
    poly = pants_decagon(l1, l2, l3)
    charts = [Chart(IDENTITY, 1.0)]
    r0 = reflect_in(REAL_MIRROR)
    pairings = [
        pairing_from_base(charts, 0, 1, 0, 8, r0),
        pairing_from_base(charts, 0, 3, 0, 6, r0),
    ]
    return Surface(base=poly, charts=charts, pairings=pairings)


def genus3_surface(boundary_length: float = 2.0) -> Surface:
    """Closed orientable genus 3 surface from one pair of pants, doubled in
    two stages: evenly across the two neumann circles, then oddly across
    the remaining dirichlet circles.

    The four resulting charts carry transport signs (+1, +1, -1, -1): a
    pants mode with Dirichlet conditions on B1 extends to an eigenfunction
    vanishing on the two closed geodesics the dirichlet circles become.
    """
    pants = pants_decagon_surface(boundary_length, boundary_length, boundary_length)
    report = audit_topology(pants)
    neumann_ids = [
        i
        for i, circle in enumerate(report.boundary_circles)
        if all(pants.side_label(c, s) == "neumann" for c, s in circle)
    ]
    stage_a = double_surface(pants, neumann_ids)
    return double_surface(stage_a)


def build_genus3(
    boundary_length: float = 2.0,
    h_target: float = 0.08,
    k: int = 1,
    solver: hypfem.SolverConfig = None,
) -> ExtendedSolution:
    """Solve the pants eigenproblem (Dirichlet on one boundary circle,
    Neumann on the other two, seams glued) and transport its ground state
    to the closed genus 3 surface of four pants charts."""
    pants = pants_decagon_surface(boundary_length, boundary_length, boundary_length)
    base_mesh = mesh_polygon(pants.base, MeshConfig(h_target=h_target))
    psys = assemble_glued(pants, base_mesh)
    vals, vecs = solve_glued(psys, k=k, solver=solver)
    lam = float(vals[0])
    u = vecs[:, 0][psys.glue_index]  # back to base-mesh nodes (seam twins equal)

    surf = genus3_surface(boundary_length)
    system = assemble_glued(surf, base_mesh)
    v = transport(system, u)
    return ExtendedSolution(
        surface=surf,
        system=system,
        lam=lam,
        base_vector=u,
        vector=v,
        residual=glued_residual(system, lam, v),
    )
