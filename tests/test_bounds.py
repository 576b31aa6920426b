"""Curve-system combinatorics and area-based counting bounds.

The exhaustive block enumerates every way of distributing up to 5
intersection labels over up to 3 curves and replays the Euler and
jump-down inequalities against an independent recount of the union graph.
"""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from hypnodal import bounds
from hypnodal.bounds import CurveSystem, SurfaceTopology


def recount_chi(curves):
    # from-scratch union graph: vertices are labels, edges are the arcs
    # between consecutive visits along each cyclic sequence
    vertices = set()
    edges = []
    for ci, c in enumerate(curves):
        m = len(c)
        for i in range(m):
            vertices.add(c[i])
            edges.append((ci, i, c[i], c[(i + 1) % m]))
    return len(vertices) - len(edges)


def enumerate_systems(max_curves=3, max_labels=5):
    for k in range(1, max_curves + 1):
        for n_labels in range(max_labels + 1):
            slots = [lab for lab in range(n_labels) for _ in range(2)]
            for assign in itertools.product(range(k), repeat=2 * n_labels):
                curves = [[] for _ in range(k)]
                for lab, cur in zip(slots, assign):
                    curves[cur].append(lab)
                yield CurveSystem(tuple(tuple(c) for c in curves))


class TestPantsNumber:
    def test_reference_values(self):
        assert bounds.pants_number(SurfaceTopology(2, 0)) == 3
        assert bounds.pants_number(SurfaceTopology(1, 1)) == 1
        assert bounds.pants_number(SurfaceTopology(0, 3)) == 0

    def test_non_hyperbolic_rejected(self):
        for g, n in ((0, 0), (0, 2), (1, 0)):
            with pytest.raises(bounds.DomainError):
                bounds.pants_number(SurfaceTopology(g, n))

    def test_negative_genus_rejected(self):
        with pytest.raises(bounds.DomainError):
            SurfaceTopology(-1, 5)


class TestEulerChar:
    def test_circle_is_zero(self):
        assert bounds.euler_char(CurveSystem(((),))) == 0

    def test_figure_eight_is_minus_one(self):
        assert bounds.euler_char(CurveSystem((("a", "a"),))) == -1

    def test_two_curves_crossing_twice(self):
        assert bounds.euler_char(CurveSystem((("a", "b"), ("a", "b")))) == -2

    def test_malformed_label_rejected(self):
        with pytest.raises(bounds.MalformedSystemError):
            bounds.euler_char(CurveSystem((("a",),)))
        with pytest.raises(bounds.MalformedSystemError):
            bounds.euler_char(CurveSystem((("a", "a", "a"), ("a",))))


class TestEulerBound:
    def test_pants_decomposition_slack_zero(self):
        t = SurfaceTopology(2, 0)
        cs = CurveSystem(((), (), ()))
        holds, slack = bounds.check_euler_bound(t, cs)
        assert holds and slack == 0

    def test_figure_eight_on_pair_of_pants_slack_zero(self):
        t = SurfaceTopology(0, 3)
        cs = CurveSystem((("a", "a"),))
        holds, slack = bounds.check_euler_bound(t, cs)
        assert holds and slack == 0

    def test_single_circle_on_genus_two_slack_two(self):
        t = SurfaceTopology(2, 0)
        holds, slack = bounds.check_euler_bound(t, CurveSystem(((),)))
        assert holds and slack == 2

    def test_slack_zero_circles_match_pants_number(self):
        # systems of disjoint simple curves reach slack 0 exactly at k = p
        for g, n in ((2, 0), (1, 1), (3, 0), (1, 2)):
            t = SurfaceTopology(g, n)
            p = bounds.pants_number(t)
            for k in range(1, p + 1):
                holds, slack = bounds.check_euler_bound(t, CurveSystem(((),) * k))
                assert holds
                assert (slack == 0) == (k == p)


class TestJumpDown:
    def test_disjoint_circle_equality(self):
        cs = CurveSystem((("a", "a"),))
        assert bounds.check_jump_down(cs, ()) is True
        union = CurveSystem(cs.curves + ((),))
        assert bounds.euler_char(union) == bounds.euler_char(cs)

    def test_circle_crossing_simple_curve_twice(self):
        # the existing curve appears with the two shared labels
        cs = CurveSystem((("a", "b"),))
        assert bounds.check_jump_down(cs, ("a", "b")) is True
        assert bounds.euler_char(CurveSystem((("a", "b"), ("a", "b")))) == -2

    def test_disjoint_figure_eight_strict(self):
        cs = CurveSystem((("a", "a"),))
        assert bounds.check_jump_down(cs, ("d", "d")) is True

    def test_union_must_be_well_formed(self):
        with pytest.raises(bounds.MalformedSystemError):
            bounds.check_jump_down(CurveSystem((("a", "b"),)), ("a",))


class TestExhaustiveOracle:
    def test_euler_and_jump_down_zero_violations(self):
        expected = sum(
            k ** (2 * L) for k in range(1, 4) for L in range(6)
        )
        count = 0
        for cs in enumerate_systems(max_curves=3, max_labels=5):
            count += 1
            chi = bounds.euler_char(cs)
            assert chi == recount_chi(cs.curves)
            n_labels = len(cs.label_counts())
            assert chi == -n_labels  # union graph is 4-valent
            for j in range(cs.k):
                rest = CurveSystem(cs.curves[:j] + cs.curves[j + 1 :])
                assert bounds.check_jump_down(rest, cs.curves[j]) is True
        assert count == expected

    @given(
        st.integers(min_value=0, max_value=6).flatmap(
            lambda L: st.tuples(
                st.just(L),
                st.lists(
                    st.integers(min_value=0, max_value=2),
                    min_size=2 * L,
                    max_size=2 * L,
                ),
            )
        )
    )
    def test_random_systems_satisfy_identities(self, data):
        L, assign = data
        curves = [[] for _ in range(3)]
        for lab, cur in zip([x for x in range(L) for _ in range(2)], assign):
            curves[cur].append(lab)
        cs = CurveSystem(tuple(tuple(c) for c in curves))
        assert bounds.euler_char(cs) == -L
        for j in range(cs.k):
            rest = CurveSystem(cs.curves[:j] + cs.curves[j + 1 :])
            assert bounds.check_jump_down(rest, cs.curves[j])


class TestNprimeBound:
    def test_reference_values(self):
        assert bounds.nprime_upper_bound(SurfaceTopology(2, 0)) == 173
        assert bounds.nprime_upper_bound(SurfaceTopology(1, 1)) == 86
        assert bounds.nprime_upper_bound(SurfaceTopology(0, 3)) == 86

    def test_matches_area_formula(self):
        for g, n in ((2, 0), (1, 1), (0, 3), (3, 2), (0, 5)):
            t = SurfaceTopology(g, n)
            via_area = math.floor(bounds.NPRIME_AREA_COEFFICIENT * t.area + 1e-9)
            assert bounds.nprime_upper_bound(t) == via_area

    def test_strictly_monotone(self):
        for g in range(0, 6):
            for n in range(0, 6):
                try:
                    here = bounds.nprime_upper_bound(SurfaceTopology(g, n))
                except bounds.DomainError:
                    continue
                up_g = bounds.nprime_upper_bound(SurfaceTopology(g + 1, n))
                up_n = bounds.nprime_upper_bound(SurfaceTopology(g, n + 1))
                assert up_g > here and up_n > here

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(bounds.DomainError):
            bounds.nprime_upper_bound(SurfaceTopology(0, 2))


class TestConstants:
    def test_min_reflection_polygon_area(self):
        assert bounds.MIN_REFLECTION_POLYGON_AREA == math.pi / 42
        assert abs(bounds.MIN_REFLECTION_POLYGON_AREA - 0.0747998) < 1e-6

    def test_disk_component_bound_at_four_pi(self):
        assert bounds.disk_component_bound(4 * math.pi) == 168

    def test_pants_chi_bound(self):
        assert bounds.pants_chi_bound(-2) == 3
        assert bounds.pants_chi_bound(-1) == 1
        with pytest.raises(bounds.DomainError):
            bounds.pants_chi_bound(0)

