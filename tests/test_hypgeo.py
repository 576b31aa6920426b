"""Geometry oracle tests.

Expected constants were derived independently (closed-form identities,
Gauss-Bonnet, reflection involutions) before the implementation existed;
they pin conventions as much as values.
"""

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hypnodal import hypgeo as hg

# closed forms, frozen
OCTAGON_HALF_SIDE = 0.7642854597404991  # arccosh(cos(pi/8) / sin(pi/4))
HEXAGON_111_OPPOSITE = 1.7049128323580138  # arccosh((cosh 1 + cosh^2 1) / sinh^2 1)


def relabeled(poly, labels):
    """poly with new side labels (tests build mixed boundary conditions)."""
    return hg.HyperbolicPolygon(poly.vertices, tuple(labels))


def disk_points(r_max=0.93):
    return st.tuples(
        st.floats(-r_max, r_max), st.floats(-r_max, r_max)
    ).filter(lambda t: t[0] ** 2 + t[1] ** 2 < r_max**2).map(lambda t: complex(*t))


class TestDistance:
    def test_radial_closed_form(self):
        # d(0, x) = 2 atanh(x); x = 0.5 gives ln 3
        assert hg.hyp_distance(0j, 0.5 + 0j) == pytest.approx(math.log(3.0), abs=1e-14)

    def test_symmetry_and_zero(self):
        p, q = 0.3 + 0.1j, -0.2 + 0.55j
        assert hg.hyp_distance(p, q) == pytest.approx(hg.hyp_distance(q, p), abs=1e-15)
        assert hg.hyp_distance(p, p) == 0.0

    @given(disk_points(), disk_points(), disk_points())
    @settings(max_examples=120, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        assert hg.hyp_distance(p, r) <= hg.hyp_distance(p, q) + hg.hyp_distance(q, r) + 1e-10

    def test_rejects_boundary(self):
        with pytest.raises(hg.GeometryError):
            hg.hyp_distance(0j, 1.0 + 0j)

    def test_rejects_two_points_outside(self):
        # (1 - |p|^2)(1 - |q|^2) is positive when both factors are negative
        with pytest.raises(hg.GeometryError, match=re.escape("got (2+0j) and (3+0j)")):
            hg.hyp_distance(2, 3)
        with pytest.raises(hg.GeometryError, match="every point"):
            hg.hyp_distance(np.array([0.1 + 0.2j, 2.0 + 0j]), np.array([0.3j, 0.4 + 0j]))
        with pytest.raises(hg.GeometryError):
            hg.hyp_distance(np.array([2.0 + 0j]), np.array([3.0 + 0j]))

    def test_array_matches_scalar_calls(self):
        # numpy's complex abs and arcsinh round differently from abs and math.asinh
        rng = np.random.default_rng(0)
        p, q = (0.95 * np.sqrt(rng.uniform(0.0, 1.0, 500)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 500))
                for _ in range(2))
        d = hg.hyp_distance(p, q)
        assert isinstance(d, np.ndarray) and d.shape == p.shape
        want = np.array([hg.hyp_distance(x, y) for x, y in zip(p.tolist(), q.tolist())])
        assert np.all(np.abs(d - want) <= 1e-14 * want)
        assert hg.hyp_distance(p[:, None], q[None, :5]).shape == (500, 5)


# ---------------------------------------------------------------------------
# the endpoint-angle geodesic that the axis-map Geodesic replaced, kept
# verbatim (renamed) as the reference: circle centres, a diameter branch and
# angle arithmetic for near-diameters

@dataclass(frozen=True)
class ReferenceGeodesic:
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
            raise hg.GeometryError("diameter geodesic has no finite circle center")
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
        zp = complex(p)
        e, cd = self._bisector()
        f = cd * (abs(zp) ** 2 + 1.0) - 2.0 * (zp.real * e.real + zp.imag * e.imag)
        grad = 2.0 * abs(zp * cd - e)
        return abs(f) / grad

    def contains(self, p, tol: float = hg.GEOM_TOL) -> bool:
        return self.euclidean_residual(p) <= tol


def reference_geodesic_between(p, q) -> ReferenceGeodesic:
    """The unique geodesic through two distinct interior points, oriented p -> q."""
    zp, zq = complex(p), complex(q)
    if abs(zp - zq) < 1e-14:
        raise hg.GeometryError("geodesic_between requires distinct points")
    cross = zp.real * zq.imag - zp.imag * zq.real
    # collinear with the center (or through it): a diameter
    if abs(cross) < 1e-14 * max(1.0, abs(zp) * abs(zq)):
        ang = cmath.phase(zq - zp)
        return ReferenceGeodesic(ang + math.pi, ang)
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
        return ReferenceGeodesic(u1, u2)
    return ReferenceGeodesic(u2, u1)


def reference_reflect_in(g: ReferenceGeodesic) -> hg.Isometry:
    """Reflection (orientation-reversing involution) fixing g pointwise."""
    if g.is_diameter:
        return hg.Isometry(cmath.exp(1j * g.theta_q), 0.0j, True)
    c, r = g.center_radius()
    return hg.Isometry(-1j * c / r, 1j / r, True)


def reference_point_to_geodesic_distance(p, g: ReferenceGeodesic) -> float:
    """Hyperbolic distance from p to the complete geodesic g.

    The geodesic from p to its mirror image crosses g orthogonally at its
    midpoint, so the distance is half the distance to the reflection.
    """
    zp = complex(p)
    return 0.5 * hg.hyp_distance(zp, hg.apply(reference_reflect_in(g), zp))


# Worst disagreements of reflect_in and point_to_geodesic_distance with the
# reference, measured over 5,000 hypothesis examples per regime (up to 6
# points plus 10 off-line points each): reflected points 1.3e-12 (random
# pairs), 1.1e-12 (near-diameters) and 9.7e-10 (|z| in [0.95, 0.999]);
# distances 6.9e-12, 4.0e-12 and 5.4e-9 absolute.  Near the unit circle the
# reference's error dominates: against a 50-digit evaluation the axis-map
# code is within 4.8e-12 (points) and 1.6e-10 (distances), the reference
# within 9.7e-10 and 5.4e-9.  The tolerances leave a factor of 10 or more.
REFLECT_TOL, DIST_RTOL, DIST_ATOL = 1e-10, 1e-9, 1e-10
NEAR_CIRCLE_REFLECT_TOL, NEAR_CIRCLE_DIST_ATOL = 1e-8, 1e-7


def near_boundary_points():
    """Points within 0.05 of the unit circle: |z| in [0.95, 0.999]."""
    return st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(0.95, 0.999), st.floats(0.0, 2 * math.pi))


def near_diameter_pairs():
    """p and a q turned by at most 1e-4 off the diameter through p (exact
    diameters included): the case the reference's angle arithmetic handles."""
    return st.builds(
        lambda r1, r2, t, eps: (r1 * cmath.exp(1j * t), -r2 * cmath.exp(1j * (t + eps))),
        st.floats(0.05, 0.9),
        st.floats(0.05, 0.9),
        st.floats(0.0, 2 * math.pi),
        st.floats(-1e-4, 1e-4),
    )


def assert_matches_reference(p, q, xs, reflect_tol=REFLECT_TOL, dist_atol=DIST_ATOL):
    """reflect_in, point_to_geodesic_distance and contains agree with the
    reference: at the points xs, on the line between p and q, and at points
    1e-3 and 0.5 off it."""
    g, ref = hg.geodesic_between(p, q), reference_geodesic_between(p, q)
    R, R_ref = hg.reflect_in(g), reference_reflect_in(ref)
    for x in xs:
        assert abs(hg.apply(R, x) - hg.apply(R_ref, x)) <= reflect_tol
        want = reference_point_to_geodesic_distance(x, ref)
        assert hg.point_to_geodesic_distance(x, g) == pytest.approx(want, rel=DIST_RTOL, abs=dist_atol)
    from_axis = hg.inverse(hg.axis_map(p, q))
    for s in np.linspace(0.0, hg.hyp_distance(p, q), 5):
        on = hg.apply(from_axis, complex(math.tanh(s / 2)))
        assert g.contains(on) and ref.contains(on)
        for d in (1e-3, 0.5):
            off = hg.apply(from_axis, hg.apply(hg.translation(s), 1j * math.tanh(d / 2)))
            assert not g.contains(off) and not ref.contains(off)
            want = reference_point_to_geodesic_distance(off, ref)
            assert hg.point_to_geodesic_distance(off, g) == pytest.approx(want, rel=DIST_RTOL, abs=dist_atol)
            assert hg.point_to_geodesic_distance(off, g) == pytest.approx(d, abs=1e-9)


class TestGeodesic:
    def test_diameter_detection(self):
        # a diameter needs no branch: the real axis reflects by exact conjugation
        g = hg.geodesic_between(-0.5 + 0j, 0.5 + 0j)
        assert reference_geodesic_between(-0.5 + 0j, 0.5 + 0j).is_diameter
        assert g.contains(0j)
        assert hg.reflect_in(g) == hg.Isometry(1 + 0j, 0j, True)
        assert hg.reflect_in(hg.Geodesic(0j, 0.5)) == hg.Isometry(1 + 0j, 0j, True)

    def test_orthogonal_circle(self):
        ref = reference_geodesic_between(0.5 + 0j, 0.5j)
        assert not ref.is_diameter
        c, r = ref.center_radius()
        # orthogonality to the unit circle
        assert abs(c) ** 2 == pytest.approx(r**2 + 1.0, abs=1e-12)
        assert ref.contains(0.5 + 0j, tol=1e-12)
        assert ref.contains(0.5j, tol=1e-12)
        # the axis-map geodesic holds the points of that circle inside the disk
        g = hg.geodesic_between(0.5 + 0j, 0.5j)
        for t in np.linspace(-0.6, 0.6, 7):
            z = c - r * c / abs(c) * cmath.exp(1j * t)
            assert abs(z) < 1.0 and g.contains(z, tol=1e-12)

    def test_center_solves_linear_system(self):
        # the reference's centre solve, which its tests rest on
        p, q = 0.3 + 0.2j, -0.1 + 0.6j
        c, _ = reference_geodesic_between(p, q).center_radius()
        for w in (p, q):
            lhs = c.real * w.real + c.imag * w.imag
            assert lhs == pytest.approx((1.0 + abs(w) ** 2) / 2.0, abs=1e-13)

    def test_orientation(self):
        p, q = 0.2 + 0.1j, 0.6 + 0.3j
        g = hg.geodesic_between(p, q)
        assert abs(hg.apply(g.to_axis, p)) < 1e-15
        w = hg.apply(g.to_axis, q)
        assert w.real > 0.0 and abs(w.imag) < 1e-15
        # the ideal ends -1 and +1 of the axis are the reference's p and q ends
        e_p, e_q = reference_geodesic_between(p, q).endpoints
        from_axis = hg.inverse(g.to_axis)
        assert hg.apply(from_axis, -1 + 0j) == pytest.approx(e_p, abs=1e-12)
        assert hg.apply(from_axis, 1 + 0j) == pytest.approx(e_q, abs=1e-12)

    @given(st.one_of(disk_points(), near_boundary_points()), st.one_of(disk_points(), near_boundary_points()))
    @settings(max_examples=80, deadline=None)
    def test_both_points_on_carrier(self, p, q):
        if abs(p - q) < 1e-3:
            return
        g = hg.geodesic_between(p, q)
        assert hg.point_to_geodesic_distance(p, g) < 1e-9 and g.contains(p)
        assert hg.point_to_geodesic_distance(q, g) < 1e-9 and g.contains(q)
        assert abs(hg.apply(g.to_axis, q).imag) < 1e-12 < hg.apply(g.to_axis, q).real

    def test_distance_takes_arrays(self):
        g = hg.geodesic_between(0.1 + 0.3j, -0.4 - 0.2j)
        xs = np.array([[0.3 + 0.4j, -0.1 - 0.2j], [0j, 0.1 + 0.3j]])
        got = hg.point_to_geodesic_distance(xs, g)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        one_by_one = [[hg.point_to_geodesic_distance(complex(x), g) for x in row] for row in xs]
        assert np.allclose(got, one_by_one, rtol=1e-14, atol=1e-15)
        assert isinstance(hg.point_to_geodesic_distance(0j, g), float)

    @pytest.mark.parametrize("p, q", [(0.3j, 0.3j), (0.3j, 1.0 + 0j), (1.2 + 0j, 0j)])
    def test_rejects_coincident_or_outside_points(self, p, q):
        with pytest.raises(hg.GeometryError):
            hg.geodesic_between(p, q)


class TestAgainstReference:
    @given(disk_points(), disk_points(), st.lists(disk_points(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_random_pairs(self, p, q, xs):
        assume(abs(p - q) > 1e-3)
        assert_matches_reference(p, q, xs)

    @given(near_diameter_pairs(), st.lists(disk_points(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_near_diameters(self, pq, xs):
        assert_matches_reference(*pq, xs)

    @given(near_boundary_points(), near_boundary_points(), st.lists(near_boundary_points(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_near_the_unit_circle(self, p, q, xs):
        assume(abs(p - q) > 1e-3)
        assert_matches_reference(p, q, xs, NEAR_CIRCLE_REFLECT_TOL, NEAR_CIRCLE_DIST_ATOL)


class TestIsometry:
    def test_normalization_enforced(self):
        with pytest.raises(hg.GeometryError):
            hg.Isometry(2.0 + 0j, 0j, False)

    @pytest.mark.parametrize("make", [lambda: hg.Isometry(math.nan, 0j), lambda: hg.rotation(math.nan),
                                      lambda: hg.translation(math.inf)], ids=["nan", "rotation-nan", "translation-inf"])
    def test_rejects_non_finite_coefficients(self, make):
        with pytest.raises(hg.GeometryError, match="= nan"):
            make()

    @given(disk_points(), disk_points())
    @settings(max_examples=80, deadline=None)
    def test_translation_preserves_distance(self, p, q):
        T = hg.translation(0.8)
        assert hg.hyp_distance(hg.apply(T, p), hg.apply(T, q)) == pytest.approx(
            hg.hyp_distance(p, q), abs=1e-9
        )

    def test_translate_to_zero(self):
        p = 0.4 - 0.3j
        T = hg.translate_to_zero(p)
        assert abs(hg.apply(T, p)) < 1e-15

    @pytest.mark.parametrize("p", [1.0 + 0j, 0.6 + 0.8j, 1.2j])
    def test_translate_to_zero_rejects_points_off_the_disk(self, p):
        with pytest.raises(hg.GeometryError, match=re.escape(f"got {complex(p)}")):
            hg.translate_to_zero(p)

    def test_compose_against_pointwise(self):
        f = hg.rotation(0.7)
        g = hg.translation(0.5)
        h = hg.compose(f, g)
        for z in (0.1 + 0.2j, -0.3j, 0.05 + 0j):
            assert hg.apply(h, z) == pytest.approx(hg.apply(f, hg.apply(g, z)), abs=1e-13)

    def test_compose_with_reversal(self):
        f = hg.reflect_in(hg.geodesic_between(0.3 + 0j, 0.3 + 0.2j))
        g = hg.rotation(1.1)
        for pair in ((f, g), (g, f), (f, f)):
            h = hg.compose(*pair)
            for z in (0.1 + 0.2j, -0.25 + 0.3j):
                want = hg.apply(pair[0], hg.apply(pair[1], z))
                assert hg.apply(h, z) == pytest.approx(want, abs=1e-12)

    def test_inverse(self):
        for iso in (
            hg.rotation(0.9),
            hg.translation(1.3),
            hg.compose(hg.rotation(0.4), hg.translation(0.7)),
            hg.reflect_in(hg.geodesic_between(0.2 + 0.1j, 0.5 + 0.1j)),
            hg.compose(hg.rotation(0.3), hg.reflect_in(hg.geodesic_between(0.3 + 0.1j, -0.2 + 0.4j))),
        ):
            inv = hg.inverse(iso)
            for z in (0.3 + 0.4j, -0.1 - 0.2j):
                assert hg.apply(inv, hg.apply(iso, z)) == pytest.approx(z, abs=1e-12)
                assert hg.apply(iso, hg.apply(inv, z)) == pytest.approx(z, abs=1e-12)

    def test_apply_ndarray(self):
        zs = np.array([0.1 + 0.2j, -0.3 + 0.05j])
        T = hg.translation(0.6)
        out = hg.apply(T, zs)
        assert out[0] == pytest.approx(hg.apply(T, zs[0]), abs=1e-15)


def point_along(p, q, s):
    """Point at arclength s from p toward q, through the side projector."""
    return hg.Geodesic(p, q).point_at(s)


def foot_on(p, q, x):
    """Arclength foot of x on the geodesic p -> q: axis_foot with the
    coefficients of axis_map(p, q)."""
    A = hg.axis_map(p, q)
    return hg.axis_foot(A.a, A.b, x)


class TestReflection:
    def test_fixes_geodesic_pointwise(self):
        g = hg.geodesic_between(0.5 + 0j, 0.3 + 0.3j)
        R = hg.reflect_in(g)
        assert R.reverses
        for s in (0.0, 0.2, 0.5):
            z = point_along(0.5 + 0j, 0.3 + 0.3j, s)
            assert hg.apply(R, z) == pytest.approx(z, abs=1e-12)

    def test_involution(self):
        g = hg.geodesic_between(-0.2 + 0.1j, 0.4 + 0.4j)
        R = hg.reflect_in(g)
        for z in (0.1 - 0.5j, 0.7 + 0j):
            assert hg.apply(R, hg.apply(R, z)) == pytest.approx(z, abs=1e-12)

    def test_diameter_reflection(self):
        R = hg.reflect_in(hg.Geodesic(0j, 0.5j))  # imaginary axis
        assert hg.apply(R, 0.3 + 0.2j) == pytest.approx(-0.3 + 0.2j, abs=1e-15)

    def test_two_reflections_make_rotation(self):
        # reflections in diameters at angles 0 and t compose to rotation by 2t
        t = 0.65
        r1 = hg.reflect_in(hg.Geodesic(0j, 0.5))
        r2 = hg.reflect_in(hg.Geodesic(0j, 0.5 * cmath.exp(1j * t)))
        rot = hg.compose(r2, r1)
        assert not rot.reverses
        z = 0.37 + 0.11j
        assert hg.apply(rot, z) == pytest.approx(z * cmath.exp(2j * t), abs=1e-13)

    def test_distance_to_geodesic(self):
        # distance from i*y to the real axis is 2 atanh(y)
        g = hg.Geodesic(0j, 0.5)
        assert hg.point_to_geodesic_distance(0.4j, g) == pytest.approx(2 * math.atanh(0.4), abs=1e-12)


class TestArcParameters:
    def test_point_along_roundtrip(self):
        p, q = 0.1 + 0.3j, -0.4 - 0.2j
        L = hg.hyp_distance(p, q)
        z = point_along(p, q, 0.3 * L)
        assert foot_on(p, q, z) == pytest.approx(0.3 * L, abs=1e-12)
        assert foot_on(p, q, q) == pytest.approx(L, abs=1e-12)

    def test_point_at_takes_floats_and_arrays(self):
        side = hg.Geodesic(0.1 + 0.3j, -0.4 - 0.2j)
        s = np.linspace(0.0, side.length, 7)
        many = side.point_at(s)
        assert many.shape == s.shape
        assert np.allclose(many, [side.point_at(float(x)) for x in s], rtol=0.0, atol=1e-15)
        assert abs(side.point_at(side.length) - side.q) < 1e-12

    def test_foot_parameter_matches_on_curve(self):
        p, q = 0.2 + 0j, 0.2 + 0.4j
        z = point_along(p, q, 0.37)
        assert foot_on(p, q, z) == pytest.approx(0.37, abs=1e-12)

    def test_foot_parameter_is_nearest_point(self):
        p, q = 0.2 + 0j, 0.2 + 0.4j
        x = 0.5 + 0.1j
        s = foot_on(p, q, x)
        foot = point_along(p, q, s)
        d0 = hg.hyp_distance(x, foot)
        for ds in (-1e-4, 1e-4):
            assert hg.hyp_distance(x, point_along(p, q, s + ds)) >= d0

    def test_foot_parameter_equivariance(self):
        p, q, x = 0.1 + 0.05j, 0.3 + 0.4j, -0.2 + 0.3j
        F = hg.compose(hg.rotation(1.2), hg.translation(0.4))
        s1 = foot_on(p, q, x)
        s2 = foot_on(hg.apply(F, p), hg.apply(F, q), hg.apply(F, x))
        assert s1 == pytest.approx(s2, abs=1e-12)

    @given(disk_points(), disk_points(), st.lists(disk_points(), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    @example(1e-7 + 0j, 0.5j, [0.3125 + 0j])  # foot near the side start: c - sqrt(c^2 - 1) cancels
    @example(0.8359375 + 0.015625j, 0.15625 + 0j, [-0.859375 + 0j])  # x near the geodesic: c near 1
    def test_foot_parameter_array_matches_scalar(self, p, q, xs):
        if hg.hyp_distance(p, q) < 1e-3:
            return
        s = foot_on(p, q, np.array(xs, dtype=np.complex128))
        assert isinstance(s, np.ndarray) and s.shape == (len(xs),)
        for x, sx in zip(xs, s):
            scalar = foot_on(p, q, x)
            assert isinstance(scalar, float)
            assert sx == pytest.approx(scalar, abs=1e-12)


class TestRegularPolygon:
    def test_octagon_half_side(self):
        # right triangle identity: cosh(side/2) = cos(pi/8) / sin(pi/4)
        poly = hg.regular_right_polygon(8, math.pi / 2)
        side = hg.hyp_distance(poly.vertices[0], poly.vertices[1])
        assert 0.5 * side == pytest.approx(OCTAGON_HALF_SIDE, abs=1e-12)
        assert math.acosh(math.cos(math.pi / 8) / math.sin(math.pi / 4)) == pytest.approx(
            OCTAGON_HALF_SIDE, abs=1e-15
        )

    def test_octagon_angles_and_area(self):
        poly = hg.regular_right_polygon(8, math.pi / 2)
        for ang in hg.interior_angles(poly):
            assert ang == pytest.approx(math.pi / 2, abs=1e-10)
        assert hg.polygon_area(poly) == pytest.approx(2 * math.pi, abs=1e-10)

    def test_vertex_placement(self):
        # vertices at odd multiples of pi/8: mirror symmetry across both axes
        poly = hg.regular_right_polygon(8, math.pi / 2)
        v0 = poly.vertices[0]
        assert cmath.phase(v0) == pytest.approx(math.pi / 8, abs=1e-14)

    def test_infeasible_raises(self):
        with pytest.raises(hg.FeasibilityError):
            hg.regular_right_polygon(4, math.pi / 2)  # euclidean square, zero defect
        with pytest.raises(hg.FeasibilityError):
            hg.regular_right_polygon(3, math.pi)

    def test_gauss_bonnet_grid(self):
        for n, alpha in ((5, math.pi / 3), (6, math.pi / 4), (12, 0.3)):
            poly = hg.regular_right_polygon(n, alpha)
            assert hg.polygon_area(poly) == pytest.approx((n - 2) * math.pi - n * alpha, abs=1e-9)


class TestHexagon:
    def test_symmetric_opposite_side(self):
        hexg = hg.right_angled_hexagon(1.0, 1.0, 1.0)
        want = math.acosh((math.cosh(1.0) + math.cosh(1.0) ** 2) / math.sinh(1.0) ** 2)
        assert want == pytest.approx(HEXAGON_111_OPPOSITE, abs=1e-15)
        s = hexg.side(1)
        assert s.length == pytest.approx(HEXAGON_111_OPPOSITE, abs=1e-10)

    def test_right_angles(self):
        hexg = hg.right_angled_hexagon(0.8, 1.1, 1.4)
        for ang in hg.interior_angles(hexg):
            assert ang == pytest.approx(math.pi / 2, abs=1e-9)

    def test_prescribed_alternating_sides(self):
        a, b, c = 0.8, 1.1, 1.4
        hexg = hg.right_angled_hexagon(a, b, c)
        lengths = [hexg.side(i).length for i in range(6)]
        assert lengths[0] == pytest.approx(a, abs=1e-10)
        assert lengths[2] == pytest.approx(b, abs=1e-10)
        assert lengths[4] == pytest.approx(c, abs=1e-10)

    def test_area_from_angles(self):
        hexg = hg.right_angled_hexagon(1.0, 1.0, 1.0)
        # 4 pi - 6 (pi/2) = pi
        assert hg.polygon_area(hexg) == pytest.approx(math.pi, abs=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(hg.FeasibilityError):
            hg.right_angled_hexagon(1.0, 0.0, 1.0)


def grid_or_disk_points():
    """Disk points, half of them on a coarse grid so that segments touch,
    overlap and run parallel."""
    grid = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])
    return st.one_of(st.builds(complex, grid, grid), disk_points(0.9))


def reference_segment_intersection(p1, p2, p3, p4, tol=1e-9):
    """Intersection point of the Euclidean segments p1p2 and p3p4, or None;
    endpoint touches within tol count, parallel segments never meet."""
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


def sampled_sides_intersect(poly: hg.HyperbolicPolygon) -> bool:
    """Check intersections between non-adjacent sides (sampled chords)."""
    n = poly.n
    chains = []
    for i in range(n):
        s = poly.side(i)
        L = s.length
        pts = [s.point_at(L * k / 16.0) for k in range(17)]
        chains.append(pts)

    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            for k in range(16):
                for m in range(16):
                    a1, a2, b1, b2 = chains[i][k], chains[i][k + 1], chains[j][m], chains[j][m + 1]
                    if hg.segment_intersection(a1, a2, b1, b2)[0]:
                        return True
    return False


def clear_of_touches(poly: hg.HyperbolicPolygon, margin: float) -> bool:
    """No vertex within margin of a non-adjacent side, measured in the Klein
    model, where sides are straight: non-adjacent sides then either cross
    well inside both or stay apart, and sampled chords agree with the arcs."""
    k = np.array([2 * v / (1 + abs(v) ** 2) for v in poly.vertices])
    n = poly.n

    def dist(p, a, b):
        t = np.clip(((p - a) * np.conj(b - a)).real / abs(b - a) ** 2, 0.0, 1.0)
        return abs(p - (a + t * (b - a)))

    for i in range(n):
        for j in range(i + 2, n - 1 if i == 0 else n):
            a0, a1, b0, b1 = k[i], k[(i + 1) % n], k[j], k[(j + 1) % n]
            if min(dist(a0, b0, b1), dist(a1, b0, b1), dist(b0, a0, a1), dist(b1, a0, a1)) <= margin:
                return False
    return True


class TestExactSimplicity:
    @given(st.lists(disk_points(0.9), min_size=4, max_size=6))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_matches_sampled_chords(self, verts):
        assume(all(abs(p - q) > 0.05 for p, q in zip(verts, verts[1:] + verts[:1])))
        poly = hg.HyperbolicPolygon(tuple(verts))
        assume(clear_of_touches(poly, 0.01))
        assert hg._sides_intersect(poly) == sampled_sides_intersect(poly)


class TestPolygonBasics:
    def test_area_rejects_self_intersecting(self):
        # bowtie ordering
        verts = (0.4 + 0j, -0.4 + 0.01j, 0.4 + 0.3j, -0.4 + 0.31j)
        with pytest.raises(hg.GeometryError):
            hg.polygon_area(hg.HyperbolicPolygon(verts))

    def test_area_rejects_vertex_on_nonadjacent_side(self):
        # vertex 3 = 0 touches side 0 (the diameter from -0.5 to 0.5) at its midpoint
        verts = (-0.5 + 0j, 0.5 + 0j, 0.3 + 0.4j, 0j, -0.3 + 0.4j)
        with pytest.raises(hg.GeometryError):
            hg.polygon_area(hg.HyperbolicPolygon(verts))

    def test_segment_intersection(self):
        hit, p = hg.segment_intersection(-1 + 0j, 1 + 0j, -1j, 1j)
        assert hit and p == pytest.approx(0j)
        # crossing, endpoint touch, apart, parallel
        c = np.array([-1j, 1 + 0j, 2 + 0j, -1 + 1j])
        d = np.array([1j, 1 + 1j, 2 + 1j, 1 + 1j])
        hit, p = hg.segment_intersection(-1 + 0j, 1 + 0j, c, d)
        assert hit.tolist() == [True, True, False, False]
        assert p[:2] == pytest.approx([0j, 1 + 0j])

    @given(st.lists(st.tuples(*[grid_or_disk_points()] * 4), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_segment_intersection_matches_scalar_reference(self, quads):
        p1, p2, p3, p4 = (np.array(x) for x in zip(*quads))
        hit, p = hg.segment_intersection(p1, p2, p3, p4)
        for j, quad in enumerate(quads):
            ref = reference_segment_intersection(*quad)
            assert hit[j] == (ref is not None)
            if ref is not None:
                assert complex(p[j]) == ref

    def test_sides_are_cached_geodesics(self):
        poly = hg.regular_right_polygon(5, math.pi / 3)
        for i in range(poly.n):
            side = poly.side(i)
            assert side is poly.side(i) and side is poly.sides[i]
            assert side == hg.Geodesic(poly.vertices[i], poly.vertices[(i + 1) % poly.n])
            assert side.to_axis is side.to_axis and side.from_axis is side.from_axis
            assert side.from_axis == hg.inverse(hg.axis_map(side.p, side.q))
            assert side.length == hg.hyp_distance(side.p, side.q)

    def test_labels_default_and_relabel(self):
        poly = hg.regular_right_polygon(8, math.pi / 2)
        assert set(poly.labels) == {"neumann"}
        p2 = relabeled(poly, ["dirichlet"] * 8)
        assert set(p2.labels) == {"dirichlet"}

    def test_transform_preserves_area(self):
        poly = hg.regular_right_polygon(5, math.pi / 3)
        F = hg.compose(hg.translation(0.5), hg.rotation(0.8))
        moved = poly.transformed(F)
        assert hg.polygon_area(moved) == pytest.approx(hg.polygon_area(poly), abs=1e-9)

    def test_reversing_transform_keeps_ccw(self):
        poly = hg.regular_right_polygon(5, math.pi / 3)
        R = hg.reflect_in(hg.Geodesic(0j, 0.5))
        moved = poly.transformed(R)
        # area computation only works for CCW simple polygons
        assert hg.polygon_area(moved) == pytest.approx(hg.polygon_area(poly), abs=1e-9)

    def test_area_of_a_polygon_with_a_reflex_vertex(self):
        # vertex 3 = 0.1j points inwards; the chord from vertex 1 cuts the
        # dart into two convex pieces whose areas must add up
        v = (-0.5 - 0.4j, 0.5 - 0.4j, 0.5 + 0.4j, 0.1j, -0.5 + 0.4j)
        angles = hg.interior_angles(hg.HyperbolicPolygon(v))
        assert angles[3] > math.pi and max(angles[:3] + angles[4:]) < math.pi
        pieces = hg.polygon_area(hg.HyperbolicPolygon((v[0], v[1], v[3], v[4])))
        pieces += hg.polygon_area(hg.HyperbolicPolygon((v[1], v[2], v[3])))
        assert hg.polygon_area(hg.HyperbolicPolygon(v)) == pytest.approx(pieces, abs=1e-12)

    def test_rejects_vertex_outside_disk(self):
        # the angle defect of these reads 0.6435 and 0.9273 if they are let through
        for bad in (1.5j, 1j):
            with pytest.raises(hg.GeometryError, match=r"vertex 2 = .* not inside the unit disk"):
                hg.HyperbolicPolygon((0j, 0.5 + 0j, bad))

    def test_rejects_coincident_consecutive_vertices(self):
        with pytest.raises(hg.GeometryError, match=r"consecutive vertices 1 = .* and 2 = .* coincide"):
            hg.HyperbolicPolygon((0j, 0.5 + 0j, 0.5 + 1e-15j, 0.3j))

    def test_rejects_labels_outside_the_vocabulary(self):
        # a quarter octagon with "Dirichlet" mirror sides used to solve as all-Neumann (lambda_0 = 0)
        from hypnodal.surfglue import quarter_octagon

        labels = ("Dirichlet", "neumann", "neumann", "neumann", "Dirichlet")
        msg = r"side 0 is labeled 'Dirichlet'; labels are \('dirichlet', 'neumann'\)"
        with pytest.raises(hg.GeometryError, match=msg):
            hg.HyperbolicPolygon(quarter_octagon().vertices, labels)


def reference_interior_angles(poly):
    """Interior angles from the Euclidean unit tangents of the two side arcs
    at each vertex, the form that interior_angles replaced (in [0, pi], so
    right for convex polygons only)."""

    def tangent(g, at, toward):
        if g.is_diameter:
            t = cmath.exp(1j * g.theta_q)
        else:
            c, _ = g.center_radius()
            t = 1j * (at - c) / abs(at - c)
        return -t if (t.conjugate() * (toward - at)).real < 0.0 else t

    out = []
    for i, v in enumerate(poly.vertices):
        prev, nxt = poly.vertices[i - 1], poly.vertices[(i + 1) % poly.n]
        t_in = tangent(reference_geodesic_between(prev, v), v, prev)
        t_out = tangent(reference_geodesic_between(v, nxt), v, nxt)
        out.append(math.acos(max(-1.0, min(1.0, (t_in.conjugate() * t_out).real))))
    return out


@pytest.mark.parametrize(
    "poly",
    [
        hg.regular_right_polygon(8, math.pi / 2),
        hg.regular_right_polygon(5, math.pi / 3),
        hg.right_angled_hexagon(0.8, 1.1, 1.4),
        hg.HyperbolicPolygon((0j, 0.6 + 0j, 0.5 + 0.5j, 0.1 + 0.7j, -0.4 + 0.2j)),
    ],
)
def test_interior_angles_match_tangent_reference(poly):
    assert np.allclose(hg.interior_angles(poly), reference_interior_angles(poly), rtol=0.0, atol=1e-13)
