"""Counting bounds for systems of closed curves on hyperbolic surfaces.

SurfaceTopology carries (genus, punctures).  A CurveSystem is purely
combinatorial: each curve is the cyclic sequence of its intersection
labels, every label naming one transversal double point and therefore
occurring exactly twice across the whole system.  A label meeting one
curve twice is a self-intersection; split between two curves it is a
crossing; a label-free curve is an embedded circle.

The operations compute the Euler characteristic of the union graph
(vertices are double points, edges the arcs between them), compare it
against the pants-count inequality, verify the jump-down inequality for
adding one curve, and evaluate the area-proportional upper bound on the
number of distinct reflection-generated geodesic components.  The
topological hypotheses behind the inequalities (essential, nonperipheral,
mutually non-homotopic curves) are caller obligations; only the
arithmetic content is checked here.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


class DomainError(ValueError):
    """Surface topology outside the hyperbolic range (Euler char >= 0)."""


class MalformedSystemError(ValueError):
    """A label fails to occur exactly twice across the curve system."""


MIN_REFLECTION_POLYGON_AREA = math.pi / 42
PANTS_CHI_COEFFICIENT = 1.5
NPRIME_AREA_COEFFICIENT = 173.0 / (4.0 * math.pi)


@dataclass(frozen=True)
class SurfaceTopology:
    """Closed orientable surface of genus g with n punctures."""

    g: int
    n: int = 0

    def __post_init__(self):
        if self.g < 0 or self.n < 0 or self.g != int(self.g) or self.n != int(self.n):
            raise DomainError(f"invalid topology (g={self.g}, n={self.n})")

    @property
    def euler(self) -> int:
        return 2 - 2 * self.g - self.n

    @property
    def area(self) -> float:
        # constant curvature -1: area = -2 pi chi
        return 2.0 * math.pi * (2 * self.g - 2 + self.n)


def _require_hyperbolic(t: SurfaceTopology):
    if t.euler >= 0:
        raise DomainError(
            f"surface (g={t.g}, n={t.n}) has Euler characteristic {t.euler} >= 0"
        )


def pants_number(t: SurfaceTopology) -> int:
    """Maximal count of disjoint nonparallel essential simple closed curves."""
    _require_hyperbolic(t)
    return 3 * t.g - 3 + t.n


@dataclass(frozen=True)
class CurveSystem:
    """Closed curves given by cyclic sequences of intersection labels."""

    curves: tuple

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(tuple(c) for c in self.curves))

    @property
    def k(self) -> int:
        return len(self.curves)

    def label_counts(self) -> Counter:
        return Counter(lab for c in self.curves for lab in c)


def _validated_counts(cs: CurveSystem) -> Counter:
    counts = cs.label_counts()
    bad = sorted((str(lab) for lab, c in counts.items() if c != 2))
    if bad:
        raise MalformedSystemError(
            f"labels not occurring exactly twice: {', '.join(bad)}"
        )
    return counts


def euler_char(cs: CurveSystem) -> int:
    """V - E of the union graph: labels are vertices, arcs are edges.

    Every visit to a label splits an arc, so a curve of cyclic length m
    contributes m edges; label-free curves are circles and contribute 0.
    """
    counts = _validated_counts(cs)
    v = len(counts)
    e = sum(len(c) for c in cs.curves)
    return v - e


def check_euler_bound(t: SurfaceTopology, cs: CurveSystem):
    """Whether chi(cs) <= -k + pants_number(t), and the slack."""
    chi = euler_char(cs)
    slack = (-cs.k + pants_number(t)) - chi
    return slack >= 0, slack


def check_jump_down(cs: CurveSystem, new_curve) -> bool:
    """Adding one curve drops chi by at least the declared crossing count.

    cs lists the existing curves as they appear in the union: labels
    shared with new_curve occur once in cs and once in new_curve and are
    exactly the crossings between the old system and the new curve.
    """
    gamma = tuple(new_curve)
    union = CurveSystem(cs.curves + (gamma,))
    _validated_counts(union)
    old_labels = set(cs.label_counts())
    shared = sorted(set(lab for lab in gamma if lab in old_labels), key=str)
    chi_union = euler_char(union)
    cleaned = CurveSystem(
        tuple(tuple(lab for lab in c if lab not in shared) for c in cs.curves)
    )
    chi_old = euler_char(cleaned)
    return chi_union <= chi_old - len(shared)


def nprime_upper_bound(t: SurfaceTopology) -> int:
    """Area-proportional cap: floor(173 * (2g - 2 + n) / 2)."""
    _require_hyperbolic(t)
    return (173 * (2 * t.g - 2 + t.n)) // 2


def disk_component_bound(area: float) -> int:
    """How many disjoint reflection polygons can tile the given area."""
    if area <= 0:
        raise DomainError(f"area must be positive, got {area}")
    return int(math.floor(area / MIN_REFLECTION_POLYGON_AREA + 1e-9))


def pants_chi_bound(chi: int) -> int:
    """Pants count cap from the Euler characteristic: p <= -(3/2) chi."""
    if chi >= 0:
        raise DomainError(f"Euler characteristic must be negative, got {chi}")
    return int(math.floor(-PANTS_CHI_COEFFICIENT * chi + 1e-9))

