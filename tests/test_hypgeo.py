"""Geometry oracle tests.

Expected constants were derived independently (closed-form identities,
Gauss-Bonnet, reflection involutions) before the implementation existed;
they pin conventions as much as values.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypnodal import hypgeo as hg

# closed forms, frozen
OCTAGON_CIRCUMRADIUS = 1.5285709194809982  # arccosh(cot(pi/8) cot(pi/4))
OCTAGON_HALF_SIDE = 0.7642854597404991  # arccosh(cos(pi/8) / sin(pi/4))
HEXAGON_111_OPPOSITE = 1.7049128323580138  # arccosh((cosh 1 + cosh^2 1) / sinh^2 1)


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


class TestDiskPoint:
    def test_rejects_outside(self):
        with pytest.raises(hg.GeometryError):
            hg.DiskPoint(0.8, 0.7)

    def test_roundtrip(self):
        p = hg.DiskPoint.from_complex(0.25 - 0.125j)
        assert p.z == 0.25 - 0.125j


class TestGeodesic:
    def test_diameter_detection(self):
        g = hg.geodesic_between(-0.5 + 0j, 0.5 + 0j)
        assert g.is_diameter
        assert g.contains(0j)

    def test_orthogonal_circle(self):
        g = hg.geodesic_between(0.5 + 0j, 0.5j)
        assert not g.is_diameter
        c, r = g.center_radius()
        # orthogonality to the unit circle
        assert abs(c) ** 2 == pytest.approx(r**2 + 1.0, abs=1e-12)
        assert g.contains(0.5 + 0j, tol=1e-12)
        assert g.contains(0.5j, tol=1e-12)

    def test_center_solves_linear_system(self):
        p, q = 0.3 + 0.2j, -0.1 + 0.6j
        c, _ = hg.geodesic_between(p, q).center_radius()
        for w in (p, q):
            lhs = c.real * w.real + c.imag * w.imag
            assert lhs == pytest.approx((1.0 + abs(w) ** 2) / 2.0, abs=1e-13)

    def test_orientation(self):
        g = hg.geodesic_between(0.2 + 0.1j, 0.6 + 0.3j)
        e_p, e_q = g.endpoints
        # p end of the arc is nearer the p-side ideal point
        assert abs((0.2 + 0.1j) - e_p) < abs((0.6 + 0.3j) - e_p)

    @given(disk_points(), disk_points())
    @settings(max_examples=80, deadline=None)
    def test_both_points_on_carrier(self, p, q):
        if abs(p - q) < 1e-3:
            return
        g = hg.geodesic_between(p, q)
        assert g.euclidean_residual(p) < 1e-9
        assert g.euclidean_residual(q) < 1e-9


class TestIsometry:
    def test_normalization_enforced(self):
        with pytest.raises(hg.GeometryError):
            hg.Isometry(2.0 + 0j, 0j, False)

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
            hg.compose(hg.rotation(0.3), hg.reflect_in(hg.Geodesic(0.0, math.pi / 2))),
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


class TestReflection:
    def test_fixes_geodesic_pointwise(self):
        g = hg.geodesic_between(0.5 + 0j, 0.3 + 0.3j)
        R = hg.reflect_in(g)
        assert R.reverses
        for s in (0.0, 0.2, 0.5):
            z = hg.point_along(0.5 + 0j, 0.3 + 0.3j, s)
            assert hg.apply(R, z) == pytest.approx(z, abs=1e-12)

    def test_involution(self):
        g = hg.geodesic_between(-0.2 + 0.1j, 0.4 + 0.4j)
        R = hg.reflect_in(g)
        for z in (0.1 - 0.5j, 0.7 + 0j):
            assert hg.apply(R, hg.apply(R, z)) == pytest.approx(z, abs=1e-12)

    def test_diameter_reflection(self):
        R = hg.reflect_in(hg.Geodesic(math.pi / 2, 3 * math.pi / 2))  # imaginary axis
        assert hg.apply(R, 0.3 + 0.2j) == pytest.approx(-0.3 + 0.2j, abs=1e-15)

    def test_two_reflections_make_rotation(self):
        # reflections in diameters at angles 0 and t compose to rotation by 2t
        t = 0.65
        r1 = hg.reflect_in(hg.Geodesic(math.pi, 0.0))
        r2 = hg.reflect_in(hg.Geodesic(t + math.pi, t))
        rot = hg.compose(r2, r1)
        assert not rot.reverses
        z = 0.37 + 0.11j
        assert hg.apply(rot, z) == pytest.approx(z * cmath.exp(2j * t), abs=1e-13)

    def test_distance_to_geodesic(self):
        # distance from i*y to the real axis is 2 atanh(y)
        g = hg.Geodesic(math.pi, 0.0)
        assert hg.point_to_geodesic_distance(0.4j, g) == pytest.approx(2 * math.atanh(0.4), abs=1e-12)


class TestArcParameters:
    def test_point_along_roundtrip(self):
        p, q = 0.1 + 0.3j, -0.4 - 0.2j
        L = hg.hyp_distance(p, q)
        z = hg.point_along(p, q, 0.3 * L)
        assert hg.arc_parameter(p, q, z) == pytest.approx(0.3 * L, abs=1e-12)
        assert hg.arc_parameter(p, q, q) == pytest.approx(L, abs=1e-12)

    def test_foot_parameter_matches_on_curve(self):
        p, q = 0.2 + 0j, 0.2 + 0.4j
        z = hg.point_along(p, q, 0.37)
        assert hg.foot_parameter(p, q, z) == pytest.approx(0.37, abs=1e-12)

    def test_foot_parameter_is_nearest_point(self):
        p, q = 0.2 + 0j, 0.2 + 0.4j
        x = 0.5 + 0.1j
        s = hg.foot_parameter(p, q, x)
        foot = hg.point_along(p, q, s)
        d0 = hg.hyp_distance(x, foot)
        for ds in (-1e-4, 1e-4):
            assert hg.hyp_distance(x, hg.point_along(p, q, s + ds)) >= d0

    def test_foot_parameter_equivariance(self):
        p, q, x = 0.1 + 0.05j, 0.3 + 0.4j, -0.2 + 0.3j
        F = hg.compose(hg.rotation(1.2), hg.translation(0.4))
        s1 = hg.foot_parameter(p, q, x)
        s2 = hg.foot_parameter(hg.apply(F, p), hg.apply(F, q), hg.apply(F, x))
        assert s1 == pytest.approx(s2, abs=1e-12)

    @given(disk_points(), disk_points(), st.lists(disk_points(), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_foot_parameter_array_matches_scalar(self, p, q, xs):
        if hg.hyp_distance(p, q) < 1e-3:
            return
        s = hg.foot_parameter(p, q, np.array(xs, dtype=np.complex128))
        assert isinstance(s, np.ndarray) and s.shape == (len(xs),)
        for x, sx in zip(xs, s):
            scalar = hg.foot_parameter(p, q, x)
            assert isinstance(scalar, float)
            assert sx == pytest.approx(scalar, abs=1e-12)


class TestRegularPolygon:
    def test_octagon_circumradius_closed_form(self):
        poly = hg.regular_right_polygon(8, math.pi / 2)
        want = math.acosh(1.0 / math.tan(math.pi / 8))  # cot(pi/8) cot(pi/4) = cot(pi/8)
        assert want == pytest.approx(OCTAGON_CIRCUMRADIUS, abs=1e-15)
        assert hg.circumradius(poly) == pytest.approx(OCTAGON_CIRCUMRADIUS, abs=1e-12)

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


class TestPolygonBasics:
    def test_area_rejects_self_intersecting(self):
        # bowtie ordering
        verts = (0.4 + 0j, -0.4 + 0.01j, 0.4 + 0.3j, -0.4 + 0.31j)
        with pytest.raises(hg.GeometryError):
            hg.polygon_area(hg.HyperbolicPolygon(verts))

    def test_labels_default_and_relabel(self):
        poly = hg.regular_right_polygon(8, math.pi / 2)
        assert set(poly.labels) == {"neumann"}
        p2 = poly.relabeled(["dirichlet"] * 8)
        assert set(p2.labels) == {"dirichlet"}

    def test_transform_preserves_area(self):
        poly = hg.regular_right_polygon(5, math.pi / 3)
        F = hg.compose(hg.translation(0.5), hg.rotation(0.8))
        moved = poly.transformed(F)
        assert hg.polygon_area(moved) == pytest.approx(hg.polygon_area(poly), abs=1e-9)

    def test_reversing_transform_keeps_ccw(self):
        poly = hg.regular_right_polygon(5, math.pi / 3)
        R = hg.reflect_in(hg.Geodesic(math.pi, 0.0))
        moved = poly.transformed(R)
        # area computation only works for CCW simple polygons
        assert hg.polygon_area(moved) == pytest.approx(hg.polygon_area(poly), abs=1e-9)
