"""Poincare disk geometry: points, geodesics, isometries, geodesic polygons.

Everything lives in the open unit disk with the constant-curvature -1 metric
4|dz|^2/(1-|z|^2)^2.  Geodesics are diameters or circular arcs meeting the
unit circle orthogonally.  Orientation-preserving isometries are stored as
SU(1,1) coefficients (a, b) with |a|^2 - |b|^2 = 1 acting by

    z -> (a z + b) / (conj(b) z + conj(a)),

orientation-reversing ones apply the same coefficients to conj(z) first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

GEOM_TOL = 1e-9


class FeasibilityError(ValueError):
    """A requested hyperbolic construction does not exist; names the violated inequality."""


class GeometryError(ValueError):
    """Geometric input is invalid (point outside disk, degenerate polygon, ...)."""


def _z(p) -> complex:
    """Coerce DiskPoint or complex-like to a complex number."""
    if isinstance(p, DiskPoint):
        return complex(p.x, p.y)
    return complex(p)


@dataclass(frozen=True)
class DiskPoint:
    """Point of the open unit disk, stored as Cartesian coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if self.x * self.x + self.y * self.y >= 1.0:
            raise GeometryError(f"point ({self.x}, {self.y}) lies outside the open unit disk")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @staticmethod
    def from_complex(z: complex) -> "DiskPoint":
        return DiskPoint(z.real, z.imag)


def hyp_distance(p, q) -> float:
    """Hyperbolic distance, 2 asinh(|p-q| / sqrt((1-|p|^2)(1-|q|^2))).

    The asinh form is the cancellation-free rewrite of
    arccosh(1 + 2|p-q|^2 / ((1-|p|^2)(1-|q|^2))) and stays accurate for
    nearby points.
    """
    zp, zq = _z(p), _z(q)
    den = (1.0 - abs(zp) ** 2) * (1.0 - abs(zq) ** 2)
    if den <= 0.0:
        raise GeometryError("hyp_distance requires both points strictly inside the disk")
    return 2.0 * math.asinh(abs(zp - zq) / math.sqrt(den))


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
        if abs(n - 1.0) > 1e-6:
            raise GeometryError(f"isometry coefficients not normalized: |a|^2-|b|^2 = {n}")

    def normalized(self) -> "Isometry":
        n = math.sqrt(abs(self.a) ** 2 - abs(self.b) ** 2)
        return Isometry(self.a / n, self.b / n, self.reverses)


IDENTITY = Isometry(1.0 + 0.0j, 0.0j, False)


def apply(iso: Isometry, p):
    """Apply an isometry; accepts DiskPoint/complex (returns same kind) or ndarray."""
    if isinstance(p, np.ndarray):
        w = np.conjugate(p) if iso.reverses else p
        return (iso.a * w + iso.b) / (np.conjugate(iso.b) * w + np.conjugate(iso.a))
    zp = _z(p)
    w = zp.conjugate() if iso.reverses else zp
    out = (iso.a * w + iso.b) / (iso.b.conjugate() * w + iso.a.conjugate())
    if isinstance(p, DiskPoint):
        return DiskPoint.from_complex(out)
    return out


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
    """The disk automorphism sending p to the center."""
    zp = _z(p)
    s = math.sqrt(1.0 - abs(zp) ** 2)
    return Isometry(1.0 / s + 0.0j, -zp / s, False)


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic, stored by its two ideal endpoint angles.

    Oriented from endpoint at angle theta_p toward endpoint at theta_q.
    Center/radius of the orthogonal circle are derived; diameters are the
    case of antipodal endpoints.
    """

    theta_p: float
    theta_q: float

    @property
    def endpoints(self) -> tuple[complex, complex]:
        return cmath.exp(1j * self.theta_p), cmath.exp(1j * self.theta_q)

    @property
    def is_diameter(self) -> bool:
        d = (self.theta_p - self.theta_q) % (2.0 * math.pi)
        return abs(d - math.pi) < 1e-12

    def _bisector(self) -> tuple[complex, float]:
        """Unit vector toward the circle center and cos(half angular gap).

        Angle arithmetic keeps relative precision for near-diameters, where
        unit-vector sums would round the transverse component away.
        """
        d_raw = (self.theta_q - self.theta_p) % (2.0 * math.pi)
        if d_raw <= math.pi:
            gamma = self.theta_p + d_raw / 2.0
            delta = d_raw / 2.0
        else:
            gamma = self.theta_p + d_raw / 2.0 + math.pi
            delta = math.pi - d_raw / 2.0
        return cmath.exp(1j * gamma), math.cos(delta)

    def center_radius(self) -> tuple[complex, float]:
        """Euclidean center and radius of the orthogonal circle carrying the arc.

        Raises for diameters, which have no finite center.
        """
        if self.is_diameter:
            raise GeometryError("diameter geodesic has no finite circle center")
        e, cd = self._bisector()
        c = e / cd
        r = math.sqrt(max(0.0, abs(c) ** 2 - 1.0))
        return c, r

    def euclidean_residual(self, p) -> float:
        """Euclidean distance from p to the circle/line carrying this geodesic.

        Uses |f| / |grad f| for f(z) = cos(d) (|z|^2 + 1) - 2 Re(z conj(e)),
        whose zero set is the carrier; stable even for near-diameter arcs
        whose circle center runs off to infinity (diameters are the cd -> 0
        limit of the same formula).
        """
        zp = _z(p)
        e, cd = self._bisector()
        f = cd * (abs(zp) ** 2 + 1.0) - 2.0 * (zp.real * e.real + zp.imag * e.imag)
        grad = 2.0 * abs(zp * cd - e)
        return abs(f) / grad

    def contains(self, p, tol: float = GEOM_TOL) -> bool:
        return self.euclidean_residual(p) <= tol

    def same_carrier(self, other: "Geodesic", tol: float = GEOM_TOL) -> bool:
        """True if both describe the same unoriented complete geodesic."""
        e1 = sorted((self.theta_p % (2 * math.pi), self.theta_q % (2 * math.pi)))
        e2 = sorted((other.theta_p % (2 * math.pi), other.theta_q % (2 * math.pi)))
        return all(
            min(abs(a - b), 2 * math.pi - abs(a - b)) <= tol for a, b in zip(e1, e2)
        )


def geodesic_between(p, q) -> Geodesic:
    """The unique geodesic through two distinct interior points, oriented p -> q."""
    zp, zq = _z(p), _z(q)
    if abs(zp - zq) < 1e-14:
        raise GeometryError("geodesic_between requires distinct points")
    cross = zp.real * zq.imag - zp.imag * zq.real
    # collinear with the center (or through it): a diameter
    if abs(cross) < 1e-14 * max(1.0, abs(zp) * abs(zq)):
        ang = cmath.phase(zq - zp)
        return Geodesic(ang + math.pi, ang)
    # center c of the orthogonal circle solves 2 c.p = 1+|p|^2, 2 c.q = 1+|q|^2
    bp = (1.0 + abs(zp) ** 2) / 2.0
    bq = (1.0 + abs(zq) ** 2) / 2.0
    det = cross
    cx = (bp * zq.imag - bq * zp.imag) / det
    cy = (bq * zp.real - bp * zq.real) / det
    c = complex(cx, cy)
    gamma = cmath.phase(c)
    delta = math.acos(min(1.0, 1.0 / abs(c)))
    u1 = gamma - delta
    u2 = gamma + delta
    # orient so travel theta_p -> theta_q passes p before q
    e1, e2 = cmath.exp(1j * u1), cmath.exp(1j * u2)
    sp = abs(zp - e1) / abs(zp - e2)
    sq = abs(zq - e1) / abs(zq - e2)
    if sp <= sq:
        return Geodesic(u1, u2)
    return Geodesic(u2, u1)


def reflect_in(g: Geodesic) -> Isometry:
    """Reflection (orientation-reversing involution) fixing g pointwise."""
    if g.is_diameter:
        return Isometry(cmath.exp(1j * g.theta_q), 0.0j, True)
    c, r = g.center_radius()
    return Isometry(-1j * c / r, 1j / r, True)


def point_to_geodesic_distance(p, g: Geodesic) -> float:
    """Hyperbolic distance from p to the complete geodesic g.

    The geodesic from p to its mirror image crosses g orthogonally at its
    midpoint, so the distance is half the distance to the reflection.
    """
    zp = _z(p)
    return 0.5 * hyp_distance(zp, apply(reflect_in(g), zp))


def axis_map(p, q) -> Isometry:
    """Isometry taking the geodesic through p, q to the real axis, p to 0, q to the positive ray."""
    T = translate_to_zero(p)
    psi = cmath.phase(apply(T, _z(q)))
    return compose(rotation(-psi), T)


def point_along(p, q, s: float) -> complex:
    """Point at hyperbolic arclength s from p along the geodesic toward q."""
    A = axis_map(p, q)
    return apply(inverse(A), complex(math.tanh(s / 2.0)))


def arc_parameter(p, q, x) -> float:
    """Signed hyperbolic arclength of x's position along the geodesic through p, q.

    x is assumed on (or numerically near) that geodesic; measured from p.
    """
    w = apply(axis_map(p, q), _z(x))
    t = max(-1.0 + 1e-15, min(1.0 - 1e-15, w.real))
    return 2.0 * math.atanh(t)


def foot_parameter(p, q, x):
    """Arclength parameter of the orthogonal projection of x onto the geodesic p -> q.

    x is one point (returns a float) or an ndarray of points (returns an
    array).  Intrinsic (isometry-equivariant), so symmetric meshes stay
    symmetric when boundary nodes are retracted with it.
    """
    many = isinstance(x, np.ndarray)
    w = np.asarray(apply(axis_map(p, q), x if many else _z(x)))
    u = w.real
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (1.0 + np.abs(w) ** 2) / (2.0 * u)
        t = np.clip(c - np.copysign(np.sqrt(c * c - 1.0), c), -1.0 + 1e-15, 1.0 - 1e-15)
        s = np.where(np.abs(u) < 1e-15, 0.0, 2.0 * np.arctanh(t))
    return s if many else float(s)


@dataclass(frozen=True)
class Side:
    """Polygon side: geodesic segment between consecutive vertices, with a condition label."""

    start: complex
    end: complex
    geodesic: Geodesic
    label: str = "neumann"

    @property
    def length(self) -> float:
        return hyp_distance(self.start, self.end)

    def point_at(self, s: float) -> complex:
        return point_along(self.start, self.end, s)

    def parameter_of(self, x) -> float:
        return arc_parameter(self.start, self.end, x)


@dataclass(frozen=True)
class HyperbolicPolygon:
    """Simple geodesic polygon given by vertices in counterclockwise order."""

    vertices: tuple
    labels: tuple = None

    def __post_init__(self):
        verts = tuple(_z(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple("neumann" for _ in verts))
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(verts):
            raise GeometryError("one label per side required")
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def sides(self) -> tuple:
        out = []
        for i in range(self.n):
            p, q = self.vertices[i], self.vertices[(i + 1) % self.n]
            out.append(Side(p, q, geodesic_between(p, q), self.labels[i]))
        return tuple(out)

    def side(self, i: int) -> Side:
        p, q = self.vertices[i], self.vertices[(i + 1) % self.n]
        return Side(p, q, geodesic_between(p, q), self.labels[i])

    def relabeled(self, labels) -> "HyperbolicPolygon":
        return HyperbolicPolygon(self.vertices, tuple(labels))

    def transformed(self, iso: Isometry) -> "HyperbolicPolygon":
        verts = tuple(apply(iso, v) for v in self.vertices)
        if iso.reverses:
            # reversal flips the boundary orientation; re-reverse to stay CCW
            verts = (verts[0],) + tuple(reversed(verts[1:]))
            labels = (self.labels[-1],) + tuple(reversed(self.labels[:-1]))
            return HyperbolicPolygon(verts, labels)
        return HyperbolicPolygon(verts, self.labels)


def _tangent_at(g: Geodesic, at: complex, toward: complex) -> complex:
    """Unit Euclidean tangent of g at point 'at', directed toward 'toward'."""
    if g.is_diameter:
        t = cmath.exp(1j * g.theta_q)
    else:
        c, _ = g.center_radius()
        t = 1j * (at - c)
        t /= abs(t)
    if (t.real * (toward - at).real + t.imag * (toward - at).imag) < 0.0:
        t = -t
    return t


def interior_angles(poly: HyperbolicPolygon) -> list:
    """Interior angle at each vertex (conformal metric, so Euclidean angles between arcs)."""
    n = poly.n
    angles = []
    for i in range(n):
        v = poly.vertices[i]
        prev = poly.vertices[i - 1]
        nxt = poly.vertices[(i + 1) % n]
        g_in = geodesic_between(prev, v)
        g_out = geodesic_between(v, nxt)
        t_in = _tangent_at(g_in, v, prev)
        t_out = _tangent_at(g_out, v, nxt)
        dot = t_in.real * t_out.real + t_in.imag * t_out.imag
        angles.append(math.acos(max(-1.0, min(1.0, dot))))
    return angles


def _segments_intersect(poly: HyperbolicPolygon) -> bool:
    """Check intersections between non-adjacent sides (sampled chords)."""
    n = poly.n
    chains = []
    for i in range(n):
        s = poly.side(i)
        L = s.length
        pts = [s.point_at(L * k / 16.0) for k in range(17)]
        chains.append(pts)

    def seg_hit(a1, a2, b1, b2):
        d1 = a2 - a1
        d2 = b2 - b1
        den = d1.real * d2.imag - d1.imag * d2.real
        if abs(den) < 1e-18:
            return False
        t = ((b1 - a1).real * d2.imag - (b1 - a1).imag * d2.real) / den
        u = ((b1 - a1).real * d1.imag - (b1 - a1).imag * d1.real) / den
        eps = 1e-12
        return eps < t < 1 - eps and eps < u < 1 - eps

    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            for k in range(16):
                for m in range(16):
                    if seg_hit(chains[i][k], chains[i][k + 1], chains[j][m], chains[j][m + 1]):
                        return True
    return False


def polygon_area(poly: HyperbolicPolygon) -> float:
    """Hyperbolic area by angle defect: (n-2) pi - sum of interior angles."""
    if _segments_intersect(poly):
        raise GeometryError("polygon sides intersect; area by angle defect needs a simple polygon")
    angles = interior_angles(poly)
    area = (poly.n - 2) * math.pi - sum(angles)
    if area <= 0.0:
        raise GeometryError("nonpositive angle defect; vertex order is not a simple CCW polygon")
    return area


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


def circumradius(poly: HyperbolicPolygon) -> float:
    """Hyperbolic distance from the disk origin to the farthest vertex."""
    return max(hyp_distance(0j, v) for v in poly.vertices)


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
