"""Hyperbolic surfaces assembled from polygon charts with side pairings.

A Surface is a base geodesic polygon, a list of charts (placements of that
polygon, each with a transport sign for eigenfunction extension), and a
list of pairings identifying chart sides through explicit isometries.
The side labels are the boundary conditions: a dirichlet side is held at
zero, glued or not, and a reflection across it is odd, so the reflected
eigenfunction vanishes on the closed geodesic the side becomes.

One union-find over chart corners, chart sheets (the two orientations of
each face) and boundary sides counts the glued cell complex: vertex
classes, orientability and boundary circles come from one merge pass.
audit_topology feeds it the endpoint correspondences read off a surface's
isometries; a pants-search pattern feeds it its flags directly, on the
first read of its invariants, so the search counts only the patterns whose
values match.  One mirror-copy builder serves both reflection extension of
eigenfunctions across a geodesic mirror line (schwarz_extend) and
reflection doubling across whole boundary circles (double_surface), which
differ only in where the copies are placed.  The module also stages the
closed genus 2 and genus 3 surfaces and glues finite element systems
across charts, pairing the nodes of two paired sides in arclength order.

The charts of a glued surface copy a base: a mesh and its finite element
pencil.  Each base mesh is assembled once, and gluing only numbers the
glued dofs: residuals come from base products, and the glued K and M are
summed from every chart's copy of the base entries when first read.  A
reflection extension reuses the base of the solution it extends, and the
genus 3 surface copies the pants decagon's mesh pencil, whose ground state
hypfem.solve_polygon folds by the decagon's real-axis mirror.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import hypfem
from .hypgeo import (
    IDENTITY,
    Geodesic,
    HyperbolicPolygon,
    Isometry,
    apply,
    axis_map,
    compose,
    reflect_in,
    regular_right_polygon,
    right_angled_hexagon,
)
from .hypmesh import MATCH_TOL, Mesh
from .hypmesh import mesh_polygon as mesh_polygon  # re-exported: perfbench/selftest.py reads surfglue.mesh_polygon

_log = logging.getLogger(__name__)


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
    chart chart_b through the base-coordinate isometry mu, which takes base
    side side_a onto base side side_b.

    The side nodes pair in arclength order, reversed unless mu maps start
    vertex to start vertex; the sides' labels are the interface condition.
    """

    chart_a: int
    side_a: int
    chart_b: int
    side_b: int
    mu: Isometry


@dataclass
class Surface:
    """Charts over one base polygon, whose side labels hold in every chart, plus side pairings."""

    base: HyperbolicPolygon
    charts: list
    pairings: list

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def unglued_sides(self) -> list:
        glued = {(p.chart_a, p.side_a) for p in self.pairings} | {(p.chart_b, p.side_b) for p in self.pairings}
        return [
            (c, s)
            for c in range(self.n_charts)
            for s in range(self.base.n)
            if (c, s) not in glued
        ]


def _pairing_start_to_start(surface: Surface, p: Pairing) -> bool:
    """True if the pairing maps side_a's start vertex to side_b's start vertex."""
    sa = surface.base.side(p.side_a)
    sb = surface.base.side(p.side_b)
    im = apply(p.mu, sa.p)
    if abs(im - sb.p) <= MATCH_TOL:
        return True
    if abs(im - sb.q) <= MATCH_TOL:
        return False
    raise GlueError(
        f"pairing ({p.chart_a},{p.side_a})-({p.chart_b},{p.side_b}) does not match side endpoints"
    )


@dataclass
class TopologyReport:
    """Combinatorial invariants of the glued cell complex."""

    n_vertices: int
    n_edges: int
    n_faces: int
    orientable: bool
    boundary_circles: list  # each a list of (chart, side)

    @property
    def chi(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    @property
    def closed(self) -> bool:
        return not self.boundary_circles

    @property
    def genus(self):
        return (2 - self.chi - len(self.boundary_circles)) // 2 if self.orientable else None


def _cell_complex(n_charts: int, n: int, glued) -> TopologyReport:
    """Invariants of n_charts n-gons with sides identified by glued, a list
    of (chart_a, side_a, chart_b, side_b, start_to_start) tuples.

    One union-find answers every question.  Its items are the chart
    corners (corner k of chart c is c * n + k) and the two sheets of each
    chart (sheet f of chart c is C * n + 2 c + f, for C charts), the
    orientations of its face.  A pairing merges its sides' end corners,
    start with start or start with end, and merges the sheets of its two
    charts: a start-to-start pairing traverses its sides in parallel, so
    it merges sheet f with sheet 1 - f, a start-to-end pairing equal
    sheets.  The vertices are the corner classes, every pairing merges two
    sides into one edge and the faces are the charts; the complex is
    orientable unless some chart's two sheets share a class.  Each boundary
    vertex class must touch exactly two unglued sides; merging the two end
    corners of every unglued side then makes each boundary circle one
    class.  Circles are listed in the order of their first side, their
    sides in (chart, side) order.
    """
    C = n_charts
    parent = list(range(C * n + 2 * C))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for ca, sa, cb, sb, s2s in glued:
        ends_b = (sb, sb + 1) if s2s else (sb + 1, sb)
        for ka, kb in zip((sa, sa + 1), ends_b):
            union(ca * n + ka % n, cb * n + kb % n)
        for f in (0, 1):
            union(C * n + 2 * ca + f, C * n + 2 * cb + (1 - f if s2s else f))
    V = len({find(x) for x in range(C * n)})
    E = C * n - len(glued)
    orientable = all(find(C * n + 2 * c) != find(C * n + 2 * c + 1) for c in range(C))

    glued_sides = {(ca, sa) for ca, sa, *_ in glued} | {(cb, sb) for _, _, cb, sb, _ in glued}
    unglued = [(c, s) for c in range(C) for s in range(n) if (c, s) not in glued_sides]
    touches = {}  # unglued sides at each boundary vertex class
    for c, s in unglued:
        for k in (s, (s + 1) % n):
            r = find(c * n + k)
            touches[r] = touches.get(r, 0) + 1
    for r, m in touches.items():
        if m != 2:
            raise GlueError(f"boundary vertex class {divmod(r, n)} touches {m} unglued sides; expected 2")
    for c, s in unglued:
        union(c * n + s, c * n + (s + 1) % n)
    circles = {}
    for c, s in unglued:
        circles.setdefault(find(c * n + s), []).append((c, s))

    return TopologyReport(
        n_vertices=V,
        n_edges=E,
        n_faces=C,
        orientable=orientable,
        boundary_circles=list(circles.values()),
    )


def audit_topology(surface: Surface) -> TopologyReport:
    """Euler characteristic, orientability, and boundary circles of the glued
    complex; the endpoint correspondence of each pairing is read off its
    isometry.  A (chart, side) in two pairings, or paired with itself,
    raises GlueError."""
    sides = [side for p in surface.pairings for side in ((p.chart_a, p.side_a), (p.chart_b, p.side_b))]
    for j, side in enumerate(sides):
        if side in sides[:j]:
            raise GlueError(f"side {side} occurs in two pairings or is paired with itself")
    glued = [
        (p.chart_a, p.side_a, p.chart_b, p.side_b, _pairing_start_to_start(surface, p))
        for p in surface.pairings
    ]
    return _cell_complex(surface.n_charts, surface.base.n, glued)


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


REAL_MIRROR = Geodesic(0j, 0.5)  # the real axis, oriented toward +1
IMAG_MIRROR = Geodesic(0j, 0.5j)  # the imaginary axis, oriented toward +i


# ---------------------------------------------------------------------------
# gluing finite element systems across charts


@dataclass
class GluedSystem:
    """Finite element pencil on a glued surface.

    Chart c's copy of base mesh node n is global slot c*N + n; glue_index
    maps slots to glued dof ids (int32, as connected_components numbers
    them), and chart_dof[c, n] is the glued dof of slot c*N + n.  The
    pencil is held as the base and this map: K and M, CSR on all n_dofs
    glued dofs, are scattered on the first read of either, which logs one
    DEBUG record of the charts, each matrix's base and glued nnz and
    seconds.  constrained marks the dofs on dirichlet sides of every chart,
    glued (odd interfaces) or not, held at zero by constrained solves.
    """

    surface: Surface
    base: Base
    glue_index: np.ndarray
    n_dofs: int
    constrained: np.ndarray
    dirichlet_boundary: np.ndarray  # dofs on unglued dirichlet sides only

    @property
    def base_mesh(self) -> Mesh:
        return self.base.mesh

    @property
    def chart_dof(self) -> np.ndarray:
        return self.glue_index.reshape(self.surface.n_charts, self.base_mesh.n_nodes)

    @functools.cached_property
    def _pencil(self) -> tuple:
        t0 = time.perf_counter()
        K, M = _scatter(self.base, self.chart_dof, self.n_dofs)
        _log.debug("scatter: %d charts, nnz %d -> %d (K) and %d -> %d (M), %.3f s", len(self.chart_dof),
                   self.base.K.nnz, K.nnz, self.base.M.nnz, M.nnz, time.perf_counter() - t0)
        return K, M

    @property
    def K(self) -> sp.csr_matrix:
        return self._pencil[0]

    @property
    def M(self) -> sp.csr_matrix:
        return self._pencil[1]

    @property
    def eigen_rows(self) -> np.ndarray:
        """Dofs where the eigen equation itself must hold: everything except
        the unglued Dirichlet boundary (odd interfaces stay in, the fluxes of
        adjacent charts cancel there when the extension is consistent)."""
        return np.flatnonzero(~self.dirichlet_boundary)

    @property
    def dof_points(self) -> np.ndarray:
        """Base-mesh position of each glued dof: that of its smallest slot."""
        _, first = np.unique(self.glue_index, return_index=True)
        return self.base_mesh.nodes[first % self.base_mesh.n_nodes]

    def picture_nodes(self) -> np.ndarray:
        """Per-chart picture coordinates of all base nodes, shape (C, N)."""
        return np.stack([apply(ch.placement, self.base_mesh.nodes) for ch in self.surface.charts])


@dataclass(frozen=True)
class Base:
    """What every chart of a glued surface copies: a mesh and its pencil K,
    M, one row and column per mesh node.  K and M are square CSR matrices of
    one shape, or GlueError names both shapes; each glues on its own pattern.
    """

    mesh: Mesh
    K: sp.csr_matrix
    M: sp.csr_matrix

    def __post_init__(self):
        K, M = self.K, self.M
        if K.shape[0] != K.shape[1] or M.shape != K.shape:
            raise GlueError(f"the base pencil must be square and of one shape: K is {K.shape}, M is {M.shape}")


def assemble_glued(surface: Surface, base) -> GluedSystem:
    """Glue chart copies of a base system along the side pairings.

    base is a Base, or a Mesh, which is assembled here and is its own base;
    its mesh must be of surface.base, labels included, or GlueError.  Nodes
    are merged only along pairings (never by picture position: mirror
    placements overlap everywhere).  Paired side nodes pair in arclength
    order (see Pairing); each image under mu must lie within MATCH_TOL of
    its partner, which holds when the base mesh is symmetric under the
    composite side maps, or GlueError with the worst distance; paired sides
    of unequal node counts raise GlueError with both counts.  Nothing is
    scattered here: the system keeps the base and its glue index, and
    scatters K and M when they are first read (see GluedSystem).  Every dof
    on a dirichlet side of any chart is constrained.  One DEBUG record gives
    the charts, glued dofs, worst side match and seconds taken.
    """
    t0 = time.perf_counter()
    if isinstance(base, Mesh):
        K0, M0 = hypfem.assemble(base)
        base = Base(base, K0, M0)
    base_mesh = base.mesh
    if base_mesh.polygon != surface.base:
        raise GlueError("the base mesh is not a mesh of the surface's base polygon (vertices and labels)")
    N = base_mesh.n_nodes
    C = surface.n_charts
    slots_a, slots_b = [], []
    worst_match = 0.0
    for p in surface.pairings:
        na = base_mesh.side_nodes[p.side_a]
        nb = base_mesh.side_nodes[p.side_b]
        if not _pairing_start_to_start(surface, p):
            nb = nb[::-1]
        fail = (f"pairing ({p.chart_a},{p.side_a})-({p.chart_b},{p.side_b}): side nodes do not match "
                f"(mesh not symmetric under the gluing; {len(na)} and {len(nb)} nodes")
        if len(na) != len(nb):
            raise GlueError(f"{fail})")
        worst = float(np.max(np.abs(apply(p.mu, base_mesh.nodes[na]) - base_mesh.nodes[nb])))
        if worst > MATCH_TOL:
            raise GlueError(f"{fail}, worst match distance {worst:.3e})")
        worst_match = max(worst_match, worst)
        slots_a.append(p.chart_a * N + na)
        slots_b.append(p.chart_b * N + nb)

    # glued dofs are the connected components of the matched slot pairs,
    # numbered in the order of each class's smallest slot
    a = np.concatenate([np.zeros(0, dtype=np.int64), *slots_a])
    b = np.concatenate([np.zeros(0, dtype=np.int64), *slots_b])
    pairs = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(C * N, C * N))
    G, glue_index = connected_components(pairs, directed=False)

    dirichlet_boundary = np.zeros(G, dtype=bool)
    for c, s in surface.unglued_sides():
        if surface.base.labels[s] == "dirichlet":
            dirichlet_boundary[glue_index[c * N + base_mesh.side_nodes[s]]] = True
    constrained = np.zeros(G, dtype=bool)
    constrained[glue_index.reshape(C, N)[:, base_mesh.nodes_on_label("dirichlet")]] = True

    _log.debug("assemble_glued: %d charts, %d glued dofs, worst side match %.3e, %.3f s",
               C, G, worst_match, time.perf_counter() - t0)
    return GluedSystem(
        surface=surface,
        base=base,
        glue_index=glue_index,
        n_dofs=G,
        constrained=constrained,
        dirichlet_boundary=dirichlet_boundary,
    )


def _scatter(base: Base, chart_dof: np.ndarray, G: int) -> tuple:
    """The glued (K, M): each matrix's entries, copied chart by chart in
    storage order with rows and columns mapped through chart_dof, summed
    by one COO -> CSR conversion over that matrix's own pattern."""

    def glue(A):
        rows = np.repeat(chart_dof, np.diff(A.indptr), axis=1).ravel()
        cols = chart_dof[:, A.indices].ravel()
        return sp.coo_matrix((np.tile(A.data, len(chart_dof)), (rows, cols)), shape=(G, G)).tocsr()

    return glue(base.K), glue(base.M)


def transport(system: GluedSystem, u: np.ndarray, consistency_tol: float = 1e-10) -> np.ndarray:
    """Extend a base-mesh vector to the glued surface with the chart signs.

    Every glued dof collects sign_c * u[n] from its member slots; all
    members (across charts and within one chart, for self-paired sides)
    must agree within consistency_tol * max|u| or the extension is not well
    defined (wrong symmetry class of u).  The dof value is the member mean.
    A u with a non-finite value raises GlueError.
    """
    if not np.isfinite(u).all():
        raise GlueError(f"transport needs a finite vector: {int((~np.isfinite(u)).sum())} of {len(u)} values are not")
    gi, n = system.glue_index, system.n_dofs
    cand = np.concatenate([ch.sign * u for ch in system.surface.charts])  # value of every slot
    vals = np.bincount(gi, cand, n) / np.bincount(gi, minlength=n)
    scale = float(np.max(np.abs(u)))
    worst = float(np.max(np.abs(cand - vals[gi])))
    if worst > consistency_tol * scale:
        raise GlueError(
            f"transport inconsistent: chart values disagree by {worst:.3e} (|u|max = {scale:.3e})"
        )
    return vals


def _glued_product(system: GluedSystem, A, v: np.ndarray) -> np.ndarray:
    """The product with v of the glued copy of the base matrix A: v is
    gathered at every chart's dofs, A multiplies the stack of the charts'
    columns once, and one np.bincount sums the products back onto the
    glued dofs.  It equals the scattered matrix's product up to the order
    of summation."""
    cd = system.chart_dof
    return np.bincount(cd.ravel(), (A @ v[cd].T).T.ravel(), minlength=system.n_dofs)


def glued_residual(system: GluedSystem, lam: float, v: np.ndarray) -> float:
    """Relative eigen-residual of (lam, v) on the unreduced glued pencil,
    restricted to the eigen rows (leaving out only the unglued Dirichlet
    boundary, where the boundary condition rather than the equation holds),
    with K v and M v from base products (_glued_product)."""
    rows = system.eigen_rows
    kv = _glued_product(system, system.base.K, v)[rows]
    mv = _glued_product(system, system.base.M, v)[rows]
    num = np.linalg.norm(kv - lam * mv)
    den = np.linalg.norm(kv) + abs(lam) * np.linalg.norm(mv)
    return float(num / den) if den > 0 else float(num)


def solve_glued(system: GluedSystem, k: int, even_under: Isometry) -> tuple:
    """Lowest modes, even under a symmetry, of the glued pencil with the
    constrained dofs held at zero.

    even_under is a base-coordinate isometry; its dof map r over the glue
    index (hypfem.dof_symmetry) must exist and pass hypfem.solve_character's
    checks against the pencil and system.constrained, or GlueError.  The
    even modes are those of the free pencil on the orbits {d, r(d)}, about
    half the size: one hypfem.solve_character call with [r], [+1] and
    system.constrained, which logs the fold.

    Returns (values, vectors) with vectors on all glued dofs (zeros on the
    constrained ones).
    """
    try:
        r = hypfem.dof_symmetry(system.base_mesh.nodes, system.glue_index, even_under, "the even_under isometry")
        return hypfem.solve_character(system.K, system.M, [r], [1], k, system.dof_points, system.constrained)
    except hypfem.SymmetryError as e:
        raise GlueError(str(e)) from e


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


# ---------------------------------------------------------------------------
# reflection extension across mirror lines and across boundary circles


@dataclass
class ExtendedSolution:
    """An eigenfunction transported over a glued surface.

    base_vector holds the eigenvector on the base mesh; vector its
    transported copy on the glued dofs; residual the eigen-row residual of
    the unreduced glued pencil.  base, what the charts copy, is the system's.
    """

    system: GluedSystem
    lam: float
    base_vector: np.ndarray
    vector: np.ndarray
    residual: float

    @property
    def base(self) -> Base:
        return self.system.base

    @property
    def surface(self) -> Surface:
        return self.system.surface


def _extended(surface: Surface, base: Base, lam: float, u: np.ndarray) -> ExtendedSolution:
    """Glue the base system over the surface and transport u to it."""
    system = assemble_glued(surface, base)
    v = transport(system, u)
    return ExtendedSolution(
        system=system,
        lam=lam,
        base_vector=u,
        vector=v,
        residual=glued_residual(system, lam, v),
    )


def as_extended(modes: hypfem.PolygonModes) -> ExtendedSolution:
    """Wrap the lowest polygon eigenmode as a single-chart extended solution
    whose base is the polygon's own pencil."""
    surface = Surface(base=modes.mesh.polygon, charts=[Chart()], pairings=[])
    return _extended(surface, Base(modes.mesh, modes.K, modes.M), float(modes.values[0]), modes.vectors[:, 0])


def _mirror_copies(surface: Surface, place, twins) -> Surface:
    """The surface with a mirror copy of every chart appended.

    Copy c + C of chart c has placement place(P) of its placement P; the
    pairings are replicated on the copies, and every (chart, side) in twins
    is glued to its copy's same side by the identity base correspondence.
    The copies keep the signs across neumann twins, flip them across
    dirichlet twins; mixed labels raise GlueError.
    """
    labels = {surface.base.labels[s] for _, s in twins}
    if len(labels) != 1:
        raise GlueError(f"the sides reflected across mix labels {sorted(labels)}; reflect in stages")
    parity = -1 if labels == {"dirichlet"} else 1
    C = surface.n_charts
    charts = list(surface.charts) + [
        Chart(place(ch.placement), parity * ch.sign) for ch in surface.charts
    ]
    pairings = list(surface.pairings)
    pairings += [replace(p, chart_a=p.chart_a + C, chart_b=p.chart_b + C) for p in surface.pairings]
    pairings += [Pairing(c, s, c + C, s, IDENTITY) for c, s in twins]
    return Surface(base=surface.base, charts=charts, pairings=pairings)


def schwarz_extend(ext: ExtendedSolution, mirror: Geodesic) -> ExtendedSolution:
    """Reflect an extended solution across a geodesic mirror line.

    The surface gains a reflected copy of every chart, and the unglued
    chart sides on the mirror become interface pairings: odd (signs flip)
    across dirichlet sides, even across neumann sides, GlueError if mixed.
    The transported vector solves the enlarged system exactly up to
    roundoff: at odd interfaces the one-sided fluxes of the two adjacent
    charts cancel, at even interfaces they add to the interior equation.
    """
    surface = ext.surface
    on_mirror = []
    for c, s in surface.unglued_sides():
        side = surface.base.side(s)
        p = surface.charts[c].placement
        if mirror.contains(apply(p, side.p)) and mirror.contains(apply(p, side.q)):
            on_mirror.append((c, s))
    if not on_mirror:
        raise GlueError("no unglued side lies on the requested mirror")
    r_m = reflect_in(mirror)
    new_surface = _mirror_copies(surface, lambda P: compose(r_m, P), on_mirror)
    return _extended(new_surface, ext.base, ext.lam, ext.base_vector)


def extend_quarter_mode(h_target: float) -> ExtendedSolution:
    """Solve the mixed quarter-octagon problem and extend its ground state
    over the full right-angled octagon by two reflections across its
    dirichlet sides (real mirror, then imaginary mirror), both odd: four
    charts with signs +1, -1, -1, +1."""
    modes = hypfem.solve_polygon(quarter_octagon(), h_target, k=1)
    ext = as_extended(modes)
    ext = schwarz_extend(ext, REAL_MIRROR)
    ext = schwarz_extend(ext, IMAG_MIRROR)
    return ext


def double_surface(surface: Surface, circle_indices=None) -> Surface:
    """Reflection double across whole boundary circles.

    Appends a mirror copy of every chart (placement composed with the base
    reflection in the real axis) and glues each doubled boundary side to its
    mirror twin by the identity correspondence.  circle_indices selects
    which boundary circles to double (default all).  Their labels give the
    parity: neumann the even double (mirror signs keep the chart sign),
    dirichlet the odd double (mirror signs flip); mixed labels raise
    GlueError, so mixed circles are doubled in stages.
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
    for j, i in enumerate(circle_indices):
        if not 0 <= i < len(circles) or i in circle_indices[:j]:
            raise GlueError(f"circle index {i} is out of range or repeated ({len(circles)} boundary circles)")
    r0 = reflect_in(REAL_MIRROR)
    twins = [side for i in circle_indices for side in circles[i]]
    return _mirror_copies(surface, lambda P: compose(P, r0), twins)


# ---------------------------------------------------------------------------
# exhaustive search for eigenfunction-compatible octagon side pairings


@dataclass
class PatternResult:
    """One candidate side-pairing pattern of an n-gon and its value
    mismatch; its cell-complex invariants are counted on first read."""

    pairs: tuple  # ((i, j), (k, l)) polygon side indices
    start_to_start: tuple  # endpoint orientation choice per pair
    compat: float  # max |f(iso x) - f(x)| over side samples
    n: int  # side count of the polygon

    @functools.cached_property
    def topology(self) -> TopologyReport:
        return _cell_complex(1, self.n, [(0, i, 0, j, s2s) for (i, j), s2s in zip(self.pairs, self.start_to_start)])

    def is_pants(self) -> bool:
        t = self.topology
        return t.chi == -1 and t.orientable and len(t.boundary_circles) == 3

    def accepted(self, tol: float) -> bool:
        return self.compat <= tol and self.is_pants()


def _side_iso(poly: HyperbolicPolygon, i: int, j: int, start_to_start: bool) -> Isometry:
    """The unique orientation-preserving isometry taking side i onto side j
    with the chosen endpoint correspondence."""
    si, sj = poly.side(i), poly.side(j)
    target = sj if start_to_start else Geodesic(sj.q, sj.p)
    return compose(target.from_axis, si.to_axis)


def scan_pants_patterns(
    f: hypfem.P1Interpolator,
    poly: HyperbolicPolygon = None,
    samples_per_side: int = 24,
) -> list:
    """Score every pattern of two disjoint side pairings of the n-gon poly
    against the function f.

    All C(n,4) * 3 pairings-of-pairs times 4 endpoint orientations are
    scored by the worst value mismatch |f(iso x) - f(x)| along the paired
    sides; their cell-complex invariants are left to PatternResult.topology.
    A pattern's mismatch is the larger of its two side maps'.  A side map
    (i < j, both orientations) between sides whose lengths differ by more
    than MATCH_TOL is no gluing and scores math.inf; the samples of the
    others are evaluated in one batched call of f.  Patterns are ordered by
    mismatch relative to max |f|, rounded to 9 digits so that patterns tied
    in exact arithmetic are not ordered by rounding noise, then
    lexicographically.  Raises GlueError when f vanishes identically.
    """
    poly = poly or octagon_polygon()
    n = poly.n
    fmax = float(np.max(np.abs(f.values)))
    if fmax == 0.0:
        raise GlueError("pattern scan of an identically zero function")

    sides = poly.sides
    side_samples = [
        [s.point_at(s.length * (q + 0.5) / samples_per_side) for q in range(samples_per_side)] for s in sides
    ]
    maps = [
        (i, j, s2s)
        for i, j in itertools.combinations(range(n), 2)
        if abs(sides[i].length - sides[j].length) <= MATCH_TOL
        for s2s in (False, True)
    ]
    isos = [_side_iso(poly, *m) for m in maps]
    # point by point: the array form of apply rounds differently and moves compat by ulps
    mapped = [apply(iso, x) for iso, (i, _, _) in zip(isos, maps) for x in side_samples[i]]
    vals = f(np.array([x for xs in side_samples for x in xs] + mapped)).reshape(-1, samples_per_side)
    f_at, f_mapped = vals[:n], vals[n:]
    mismatch = np.abs(f_mapped - f_at[[i for i, _, _ in maps]]).max(axis=1)
    compat = dict(zip(maps, mismatch.tolist()))

    results = [
        PatternResult(pairs, flags, max(compat.get((i, j, s2s), math.inf) for (i, j), s2s in zip(pairs, flags)), n)
        for pairs, flags in _pair_patterns(n)
    ]
    results.sort(key=lambda r: (round(r.compat / fmax, 9), r.pairs, r.start_to_start))
    return results


@functools.cache
def _pair_patterns(n: int) -> tuple:
    """Every pattern of two disjoint side pairings of an n-gon with endpoint
    flags, as (pairs, flags); listed once per n."""
    out = []
    for quad in itertools.combinations(range(n), 4):
        for b in quad[1:]:
            pairs = ((quad[0], b), tuple(s for s in quad[1:] if s != b))
            out += [(pairs, flags) for flags in itertools.product((False, True), repeat=2)]
    return tuple(out)


def build_pattern_surface(pattern: PatternResult, poly: HyperbolicPolygon = None) -> Surface:
    """Surface object for one polygon pairing pattern, for auditing or
    doubling it."""
    poly = poly or octagon_polygon()
    pairings = []
    for (i, j), s2s in zip(pattern.pairs, pattern.start_to_start):
        if i == j:
            raise GlueError("a side cannot be paired with itself")
        pairings.append(Pairing(0, i, 0, j, _side_iso(poly, i, j, s2s)))
    return Surface(base=poly, charts=[Chart()], pairings=pairings)


def search_pants_gluing(ext: ExtendedSolution) -> list:
    """Side-pairing patterns of the octagon compatible with the extended
    eigenfunction: pair of pants combinatorics (chi = -1, orientable, three
    boundary circles) and value mismatch at most 1e-6 * max |f|.  The
    mismatch is tested first, so only the value matches count their cell
    complex.

    An empty list is a legitimate finding, not an error.
    """
    f = chart_interpolator(ext.system, ext.vector)
    tol = 1e-6 * float(np.max(np.abs(f.values)))
    return [r for r in scan_pants_patterns(f) if r.accepted(tol)]


def mirror_odd_eigenvector(modes: hypfem.PolygonModes, target: float) -> tuple:
    """The eigenpair of modes' pencil odd under both coordinate-axis
    mirrors, as (eigenvalue, vector on all mesh nodes).

    The mixed quarter-domain mode lifts into a two-dimensional octagon
    eigenspace (the quarter problem and its quarter-turn image are
    isospectral); its odd-odd member is the ground state of the (-, -)
    character of the two mirrors (hypfem.solve_character).  The eigenvalue
    of modes nearest target must equal it within 1e-6 (1 + lambda), and the
    mesh and its constrained nodes must be symmetric; GlueError otherwise.
    """
    nodes = modes.mesh.nodes
    try:
        gens = [
            hypfem.dof_symmetry(nodes, np.arange(len(nodes)), reflect_in(m), "the coordinate mirrors")
            for m in (REAL_MIRROR, IMAG_MIRROR)
        ]
        (lam,), vecs = hypfem.solve_character(modes.K, modes.M, gens, [-1, -1], 1, nodes, modes.constrained)
    except hypfem.SymmetryError as e:
        raise GlueError(str(e)) from e
    near = modes.values[np.argmin(np.abs(modes.values - target))]
    if abs(near - lam) > 1e-6 * (1.0 + abs(lam)):
        raise GlueError(f"no mirror-odd eigenvector near lambda = {target}")
    return float(lam), vecs[:, 0]


def canonical_pants_surface() -> Surface:
    """The diagonal-matched pants: octagon sides (7, 1) and (3, 5) glued by
    the orientation-preserving maps agreeing with the reflections in the
    pi/4 and 3 pi/4 diagonals on those sides."""
    poly = octagon_polygon()
    pairings = [
        Pairing(0, 7, 0, 1, _side_iso(poly, 7, 1, False)),
        Pairing(0, 3, 0, 5, _side_iso(poly, 3, 5, False)),
    ]
    return Surface(base=poly, charts=[Chart()], pairings=pairings)


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
    verts = (*w[2:], *w[:2], *(w[k].conjugate() for k in (0, 5, 4, 3)))
    labels = ("neumann",) * 4 + ("dirichlet",) * 2 + ("neumann",) * 4
    return HyperbolicPolygon(verts, labels)


def pants_decagon_surface(l1: float = 2.0, l2: float = 2.0, l3: float = 2.0) -> Surface:
    """Single-chart pants: the decagon with its two seam self-pairings."""
    poly = pants_decagon(l1, l2, l3)
    r0 = reflect_in(REAL_MIRROR)
    pairings = [Pairing(0, 1, 0, 8, r0), Pairing(0, 3, 0, 6, r0)]
    return Surface(base=poly, charts=[Chart()], pairings=pairings)


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
        if all(pants.base.labels[s] == "neumann" for _, s in circle)
    ]
    stage_a = double_surface(pants, neumann_ids)
    return double_surface(stage_a)


def build_genus3(boundary_length: float = 2.0, h_target: float = 0.08) -> ExtendedSolution:
    """Solve the pants eigenproblem (Dirichlet on one boundary circle,
    Neumann on the other two, seams glued) and transport its ground state
    to the closed genus 3 surface of four pants charts.

    The pants is the decagon with each seam glued to its mirror image by
    the reflection in the real axis, which is the decagon's mirror
    (hypgeo.polygon_mirror) and keeps its labels.  A mirror-even function
    takes equal values on the two sides of each seam, so the even modes of
    the glued pants are the even modes of the decagon: the ground state,
    simple and positive, hence even, is hypfem.solve_polygon's folded
    ground state (k = 1), solved on the mirror orbits of the free dofs.
    The genus 3 charts copy the decagon's mesh pencil, assembled once; the
    closed genus 3 pencil is scattered only if system.K or system.M is read.
    """
    modes = hypfem.solve_polygon(pants_decagon(boundary_length, boundary_length, boundary_length), h_target, k=1)
    base = Base(modes.mesh, modes.K, modes.M)
    return _extended(genus3_surface(boundary_length), base, float(modes.values[0]), modes.vectors[:, 0])
