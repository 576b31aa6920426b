"""Poincare disk geometry: points, geodesics, isometries, geodesic polygons.

Everything lives in the open unit disk with the constant-curvature -1 metric
4|dz|^2/(1-|z|^2)^2.  Geodesics are diameters or circular arcs meeting the
unit circle orthogonally, and they have one representation, Geodesic(p, q)
with its cached isometry axis_map(p, q) onto the real axis; polygon sides
are Geodesics too.  Arclength points, feet, reflections and distances to a
geodesic are all asked of the real axis after that map, so no circle centre
is formed and diameters need no branch of their own.  Orientation-preserving
isometries are stored as
SU(1,1) coefficients (a, b) with |a|^2 - |b|^2 = 1 acting by

    z -> (a z + b) / (conj(b) z + conj(a)),

orientation-reversing ones apply the same coefficients to conj(z) first.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

GEOM_TOL = 1e-9
MIRROR_TOL = 1e-12  # vertex mismatch allowed for a mirror of a polygon (polygon_mirror)
LABELS = ("dirichlet", "neumann")  # the side conditions: held at zero, or free (natural)


class FeasibilityError(ValueError):
    """A requested hyperbolic construction does not exist; names the violated inequality."""


class GeometryError(ValueError):
    """Geometric input is invalid (point outside disk, degenerate polygon, ...)."""


def hyp_distance(p, q):
    """Hyperbolic distance, 2 asinh(|p-q| / sqrt((1-|p|^2)(1-|q|^2))).

    The asinh form is the cancellation-free rewrite of
    arccosh(1 + 2|p-q|^2 / ((1-|p|^2)(1-|q|^2))) and stays accurate for
    nearby points.  p and q are points (returns a float), or ndarrays of one
    broadcast shape (returns the distances elementwise).  GeometryError
    unless every point lies strictly inside the disk (each factor is checked).
    """
    if isinstance(p, np.ndarray) or isinstance(q, np.ndarray):
        fp, fq = 1.0 - np.abs(p) ** 2, 1.0 - np.abs(q) ** 2
        if not (np.all(fp > 0.0) and np.all(fq > 0.0)):
            raise GeometryError("hyp_distance requires every point strictly inside the disk")
        return 2.0 * np.arcsinh(np.abs(p - q) / np.sqrt(fp * fq))
    zp, zq = complex(p), complex(q)
    fp, fq = 1.0 - abs(zp) ** 2, 1.0 - abs(zq) ** 2
    if not (fp > 0.0 and fq > 0.0):
        raise GeometryError(f"hyp_distance requires both points strictly inside the disk, got {zp} and {zq}")
    return 2.0 * math.asinh(abs(zp - zq) / math.sqrt(fp * fq))


@dataclass(frozen=True)
class Isometry:
    """Disk isometry, coefficients normalized to |a|^2 - |b|^2 = 1.

    reverses is True for orientation-reversing maps (reflections and their
    compositions with rotations/translations).
    """

    a: complex
    b: complex
    reverses: bool = False

    def __post_init__(self):
        n = abs(self.a) ** 2 - abs(self.b) ** 2
        if not abs(n - 1.0) <= 1e-6:  # also rejects non-finite coefficients, whose n is nan
            raise GeometryError(f"isometry coefficients not normalized: |a|^2-|b|^2 = {n}")

    def normalized(self) -> "Isometry":
        n = math.sqrt(abs(self.a) ** 2 - abs(self.b) ** 2)
        return Isometry(self.a / n, self.b / n, self.reverses)


IDENTITY = Isometry(1.0 + 0.0j, 0.0j, False)
CONJUGATION = Isometry(1.0 + 0.0j, 0.0j, True)  # z -> conj(z), the reflection in the real axis


def _moebius(a, b, w):
    """w -> (a w + b) / (conj(b) w + conj(a)): complex arithmetic on a complex
    w, elementwise on an ndarray w (a and b scalars or arrays of its shape)."""
    if isinstance(w, np.ndarray):
        return (a * w + b) / (np.conjugate(b) * w + np.conjugate(a))
    return (a * w + b) / (b.conjugate() * w + a.conjugate())


def apply(iso: Isometry, p):
    """Apply an isometry to a complex point (returns a complex) or an ndarray of them."""
    if isinstance(p, np.ndarray):
        return _moebius(iso.a, iso.b, np.conjugate(p) if iso.reverses else p)
    zp = complex(p)
    return _moebius(iso.a, iso.b, zp.conjugate() if iso.reverses else zp)


def compose(f: Isometry, g: Isometry) -> Isometry:
    """Composition f o g (apply g first).  Orientation flags combine by XOR."""
    ag, bg = g.a, g.b
    if f.reverses:
        ag, bg = ag.conjugate(), bg.conjugate()
    a = f.a * ag + f.b * bg.conjugate()
    b = f.a * bg + f.b * ag.conjugate()
    return Isometry(a, b, f.reverses != g.reverses).normalized()


def inverse(iso: Isometry) -> Isometry:
    """Inverse isometry."""
    if not iso.reverses:
        return Isometry(iso.a.conjugate(), -iso.b, False)
    # for z -> M(conj z), the inverse is w -> conj(M^{-1} w)
    return Isometry(iso.a, -iso.b.conjugate(), True)


def rotation(phi: float) -> Isometry:
    """Rotation about the disk center by angle phi."""
    return Isometry(cmath.exp(0.5j * phi), 0.0j, False)


def translation(d: float) -> Isometry:
    """Hyperbolic translation along the positive real axis by distance d."""
    return Isometry(complex(math.cosh(d / 2.0)), complex(math.sinh(d / 2.0)), False)


def translate_to_zero(p) -> Isometry:
    """The disk automorphism sending p to the center; GeometryError unless p is inside the disk."""
    zp = complex(p)
    if not abs(zp) < 1.0:
        raise GeometryError(f"translate_to_zero needs a point inside the unit disk, got {zp}")
    s = math.sqrt(1.0 - abs(zp) ** 2)
    return Isometry(1.0 / s + 0.0j, -zp / s, False)


def axis_map(p, q) -> Isometry:
    """Isometry taking the geodesic through p, q to the real axis, p to 0, q to the positive ray."""
    T = translate_to_zero(p)
    psi = cmath.phase(apply(T, q))
    return compose(rotation(-psi), T)


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic through two distinct interior points p and q,
    oriented from p toward q.

    Its one representation is to_axis = axis_map(p, q), the isometry that
    maps it onto the real axis (p to 0, q to the positive ray): every
    question about the geodesic, diameter or arc alike, is asked of the real
    axis after that map.
    """

    p: complex
    q: complex

    def __post_init__(self):
        zp, zq = complex(self.p), complex(self.q)
        if not (abs(zp) < 1.0 and abs(zq) < 1.0):
            raise GeometryError(f"geodesic points {zp} and {zq} must lie inside the unit disk")
        if abs(zp - zq) < 1e-14:
            raise GeometryError("a geodesic needs two distinct points")
        object.__setattr__(self, "p", zp)
        object.__setattr__(self, "q", zq)

    @functools.cached_property
    def to_axis(self) -> Isometry:
        return axis_map(self.p, self.q)

    @functools.cached_property
    def from_axis(self) -> Isometry:
        return inverse(self.to_axis)

    @functools.cached_property
    def length(self) -> float:
        return hyp_distance(self.p, self.q)

    def point_at(self, s):
        """Point at hyperbolic arclength s (a float, or an ndarray of them)
        from p along the geodesic toward q."""
        return axis_point(self.from_axis.a, self.from_axis.b, s)

    def contains(self, x, tol: float = GEOM_TOL) -> bool:
        """Whether x lies within hyperbolic distance tol of the geodesic."""
        return point_to_geodesic_distance(x, self) <= tol


def geodesic_between(p, q) -> Geodesic:
    """The unique geodesic through two distinct interior points, oriented p -> q."""
    return Geodesic(p, q)


def reflect_in(g: Geodesic) -> Isometry:
    """Reflection (orientation-reversing involution) fixing g pointwise: the
    reflection in the real axis conjugated by g.to_axis."""
    A = g.to_axis
    return compose(inverse(A), compose(CONJUGATION, A))


def point_to_geodesic_distance(x, g: Geodesic):
    """Hyperbolic distance from x to the complete geodesic g: with
    w = g.to_axis(x), the distance d from w to the real axis has
    sinh d = 2 |Im w| / (1 - |w|^2).  x is one point (returns a float) or an
    ndarray of points (returns an array of its shape)."""
    a, b = g.to_axis.a, g.to_axis.b
    num, den = a * x + b, np.conjugate(b) * x + np.conjugate(a)
    # w = num / den and 1 - |w|^2 = (1 - |x|^2) / |den|^2, so 1 - |w|^2, which cancels
    # when w nears the unit circle, is never formed
    d = np.arcsinh(2.0 * np.abs(np.imag(num * np.conjugate(den))) / (1.0 - np.abs(x) ** 2))
    return d if isinstance(x, np.ndarray) else float(d)


def axis_foot(a, b, x):
    """Arclength foot of x on the geodesic that the isometry with coefficients
    (a, b) maps onto the real axis, from the preimage of 0 toward that of 1:
    with a, b of axis_map(p, q), the arclength of x's orthogonal projection
    on the geodesic p -> q (intrinsic, so retracting the nodes of a symmetric
    mesh keeps it symmetric).  Elementwise over an ndarray x, with a and b
    scalars or arrays of its shape (per point)."""
    w = np.asarray(_moebius(a, b, x if isinstance(x, np.ndarray) else complex(x)))
    # t = tanh(s / 2) is the root in [-1, 1] of t^2 - 2 c t + 1 with c = (1 + |w|^2) / (2 Re w);
    # c - 1 = |w - 1|^2 / (2 Re w) and c + 1 = |w + 1|^2 / (2 Re w) give it without cancellation
    t = 2.0 * w.real / (1.0 + np.abs(w) ** 2 + np.abs(w - 1.0) * np.abs(w + 1.0))
    return 2.0 * np.arctanh(np.clip(t, -1.0 + 1e-15, 1.0 - 1e-15))


def axis_point(a, b, s):
    """Image of the real-axis point at arclength s from 0 under the isometry
    with coefficients (a, b): the point at arclength s along a geodesic with
    a, b those of its from_axis.  A float s gives a complex; an ndarray s works
    elementwise, with a and b scalars or arrays of its shape (per point)."""
    if isinstance(s, np.ndarray):
        return _moebius(a, b, np.tanh(s / 2.0).astype(np.complex128))
    return _moebius(a, b, complex(math.tanh(s / 2.0)))


def side_maps(sides) -> tuple:
    """(to_axis, from_axis): complex arrays of shape (2, len(sides)) holding
    the coefficients a, b of each side's cached Geodesic.to_axis and
    from_axis.  Indexed by a side per point, they give axis_foot and
    axis_point: the foot on each point's side and its point_at per point."""
    return tuple(np.array([[m.a for m in maps], [m.b for m in maps]], dtype=np.complex128)
                 for maps in ([sd.to_axis for sd in sides], [sd.from_axis for sd in sides]))


@dataclass(frozen=True)
class HyperbolicPolygon:
    """Simple geodesic polygon: vertices in counterclockwise order, one label from LABELS per side."""

    vertices: tuple
    labels: tuple = None

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple("neumann" for _ in verts))
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(verts):
            raise GeometryError("one label per side required")
        for i, lab in enumerate(self.labels):
            if lab not in LABELS:
                raise GeometryError(f"side {i} is labeled {lab!r}; labels are {LABELS}")
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        for i, v in enumerate(verts):
            if not abs(v) < 1.0:
                raise GeometryError(f"vertex {i} = {v} is not inside the unit disk")
            j = (i + 1) % len(verts)
            if abs(verts[j] - v) < 1e-14:
                raise GeometryError(f"consecutive vertices {i} = {v} and {j} = {verts[j]} coincide")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def sides(self) -> tuple:
        """Side i is the Geodesic from vertex i to vertex i + 1 (mod n)."""
        return tuple(Geodesic(p, q) for p, q in zip(self.vertices, self.vertices[1:] + self.vertices[:1]))

    def side(self, i: int) -> Geodesic:
        return self.sides[i]

    def transformed(self, iso: Isometry) -> "HyperbolicPolygon":
        verts = tuple(apply(iso, v) for v in self.vertices)
        if iso.reverses:
            # reversal flips the boundary orientation; re-reverse to stay CCW
            verts = (verts[0],) + tuple(reversed(verts[1:]))
            labels = (self.labels[-1],) + tuple(reversed(self.labels[:-1]))
            return HyperbolicPolygon(verts, labels)
        return HyperbolicPolygon(verts, self.labels)


def interior_angles(poly: HyperbolicPolygon) -> list:
    """Interior angle at each vertex v.  The metric is conformal, so it is
    the Euclidean angle between the two sides at v; translate_to_zero(v)
    keeps that angle and makes both sides diameters, which point at the
    images of the neighbouring vertices.  The interior of a CCW polygon
    lies counterclockwise from the side to the next vertex, so the angle is
    measured that way round, in [0, 2 pi): reflex vertices exceed pi."""
    angles = []
    for i, v in enumerate(poly.vertices):
        T = translate_to_zero(v)
        prev, nxt = poly.vertices[i - 1], poly.vertices[(i + 1) % poly.n]
        angles.append(cmath.phase(apply(T, prev) / apply(T, nxt)) % (2.0 * math.pi))
    return angles


def segment_intersection(p1, p2, p3, p4, tol=1e-9) -> tuple:
    """Intersections of the Euclidean segments p1p2 and p3p4, elementwise
    over complex arrays (or scalars) of one broadcast shape.

    Returns (hit, point): hit is True where the segments meet, endpoint
    touches within tol included and parallel segments never; point is the
    meeting point p1 + t (p2 - p1) where hit holds (meaningless elsewhere).
    """
    d1 = np.asarray(p2 - p1)
    d2 = np.asarray(p4 - p3)
    den = d1.real * d2.imag - d1.imag * d2.real
    scale = np.maximum(np.maximum(np.abs(d1), np.abs(d2)), 1e-30)
    r = p3 - p1
    with np.errstate(all="ignore"):  # parallel or degenerate pairs, masked below
        t = (r.real * d2.imag - r.imag * d2.real) / den
        s = (r.real * d1.imag - r.imag * d1.real) / den
        point = p1 + t * d1
    eps = tol / scale
    hit = (np.abs(den) > 1e-14 * scale * scale) & (-eps <= t) & (t <= 1 + eps)
    hit &= (-eps <= s) & (s <= 1 + eps)
    return hit, point


def _sides_intersect(poly: HyperbolicPolygon) -> bool:
    """Whether two non-adjacent sides meet (endpoint touches count), exactly:
    in the Klein model k = 2z / (1 + |z|^2) geodesics are straight chords."""
    v = np.asarray(poly.vertices, dtype=np.complex128)
    k = 2.0 * v / (1.0 + np.abs(v) ** 2)
    n = poly.n
    i, j = np.triu_indices(n, 2)
    nonadjacent = (i > 0) | (j < n - 1)  # sides 0 and n-1 share vertex 0
    hit, _ = segment_intersection(k[i], k[i + 1], k[j], k[(j + 1) % n])
    return bool((hit & nonadjacent).any())


def polygon_area(poly: HyperbolicPolygon) -> float:
    """Hyperbolic area by angle defect: (n-2) pi - sum of interior angles."""
    if _sides_intersect(poly):
        raise GeometryError("polygon sides intersect; area by angle defect needs a simple polygon")
    angles = interior_angles(poly)
    area = (poly.n - 2) * math.pi - sum(angles)
    if area <= 0.0:
        raise GeometryError("nonpositive angle defect; vertex order is not a simple CCW polygon")
    return area


def polygon_mirror(poly: HyperbolicPolygon) -> Isometry | None:
    """A reflection in a line through 0 that maps poly onto itself, side
    labels included, or None if there is none.

    Such a reflection reverses the boundary: for some c it maps vertex i to
    vertex c - i and side i onto side c - 1 - i (mod n).  For each c in
    turn, the farthest vertex from 0 and its partner fix the mirror line;
    the first c whose reflection maps every vertex within MIRROR_TOL of its
    partner and every side onto a side with the same label gives the
    result.  The tolerance is far below the mesh node match, so a polygon
    that is only nearly symmetric has no mirror.
    """
    v = np.asarray(poly.vertices, dtype=np.complex128)
    n, j = poly.n, int(np.argmax(np.abs(v)))
    for c in range(n):
        partner = (c - np.arange(n)) % n
        turn = v[partner[j]] / np.conj(v[j])  # exp(2i theta) for the mirror line at angle theta
        if np.abs(turn * np.conj(v) - v[partner]).max() <= MIRROR_TOL and all(
            poly.labels[s] == poly.labels[(c - 1 - s) % n] for s in range(n)
        ):
            return Isometry(cmath.exp(0.5j * cmath.phase(turn)), 0j, True)
    return None


def regular_right_polygon(n: int, alpha: float) -> HyperbolicPolygon:
    """Regular n-gon with all interior angles alpha, centered at the disk origin.

    Feasible iff the angle defect (n-2) pi - n alpha is positive.  The
    circumradius R satisfies cosh R = cot(pi/n) cot(alpha/2) (right triangle
    spanned by center, vertex, and side midpoint); vertices sit at angles
    (2k+1) pi / n so that side midpoints lie on the coordinate axes when
    4 | n.
    """
    if n < 3:
        raise FeasibilityError(f"need n >= 3 sides, got n = {n}")
    defect = (n - 2) * math.pi - n * alpha
    if defect <= 0.0:
        raise FeasibilityError(
            f"no hyperbolic polygon with n = {n}, alpha = {alpha}: requires (n-2) pi - n alpha > 0, got {defect}"
        )
    R = math.acosh(1.0 / (math.tan(math.pi / n) * math.tan(alpha / 2.0)))
    rho = math.tanh(R / 2.0)
    verts = tuple(rho * cmath.exp(1j * (2 * k + 1) * math.pi / n) for k in range(n))
    return HyperbolicPolygon(verts)


def right_angled_hexagon(a: float, b: float, c: float) -> HyperbolicPolygon:
    """Right-angled hexagon with alternating side lengths a, b, c.

    Sides 0, 2, 4 have lengths a, b, c; sides 1, 3, 5 are determined by the
    hexagon relation cosh(opposite) = (cosh(s) + cosh(x) cosh(y)) / (sinh(x) sinh(y)).
    Built by a frame walk (translate, turn left pi/2) starting at the origin,
    so the first vertex is the origin and the first side runs along the
    positive real axis.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if v <= 0.0:
            raise FeasibilityError(f"hexagon side {name} must be positive, got {v}")

    def between(x, y, s):
        return math.acosh((math.cosh(s) + math.cosh(x) * math.cosh(y)) / (math.sinh(x) * math.sinh(y)))

    gp = between(a, b, c)  # side between a and b, opposite c
    ap = between(b, c, a)
    bp = between(c, a, b)
    lengths = [a, gp, b, ap, c, bp]
    F = IDENTITY
    verts = []
    for L in lengths:
        verts.append(apply(F, 0.0j))
        F = compose(F, translation(L))
        F = compose(F, rotation(math.pi / 2.0))
    closure = abs(apply(F, 0.0j) - verts[0])
    if closure > 1e-9:
        raise GeometryError(f"hexagon frame walk failed to close: residual {closure}")
    return HyperbolicPolygon(tuple(verts))
