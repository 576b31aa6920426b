"""P1 finite elements for the Laplacian of the Poincare disk metric.

The hyperbolic Dirichlet energy of piecewise linear functions equals the
Euclidean one (conformal invariance in two dimensions), so the stiffness
matrix is the plain flat-metric P1 matrix.  The area weight
w(z) = 4 / (1 - |z|^2)^2 enters only the mass matrix, integrated by the
edge-midpoint rule, which is exact for quadratics against a constant weight
and second-order accurate here.

Eigenpairs of K u = lambda M u are computed by shift-invert Lanczos with a
fixed start vector, so repeated solves are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from .hypmesh import Mesh, mesh_polygon

# phi[node, midpoint] for midpoints (01, 12, 20) of the reference triangle
_PHI_MID = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])

SIGMA = -1.0  # shift for shift-invert; negative keeps K - SIGMA M positive definite


def assemble(nodes: np.ndarray, triangles: np.ndarray) -> tuple:
    """Stiffness and mass matrices (CSR) for the hyperbolic metric.

    nodes are complex disk coordinates, triangles CCW index triples.
    """
    z = nodes[triangles]
    x, y = z.real, z.imag
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    y0, y1, y2 = y[:, 0], y[:, 1], y[:, 2]
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det.min() <= 0.0:
        raise ValueError("assemble requires positively oriented triangles")

    b = np.stack([y1 - y2, y2 - y0, y0 - y1], axis=1)
    c = np.stack([x2 - x1, x0 - x2, x1 - x0], axis=1)
    k_loc = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        2.0 * det[:, None, None]
    )

    zm = np.stack(
        [0.5 * (z[:, 0] + z[:, 1]), 0.5 * (z[:, 1] + z[:, 2]), 0.5 * (z[:, 2] + z[:, 0])],
        axis=1,
    )
    w = 4.0 / (1.0 - np.abs(zm) ** 2) ** 2
    area = det / 2.0
    # M_ab = area/3 * sum_m phi[a,m] phi[b,m] w_m
    pw = _PHI_MID[None, :, :] * w[:, None, :]
    m_loc = (area / 3.0)[:, None, None] * np.einsum("tam,bm->tab", pw, _PHI_MID)

    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    n = len(nodes)
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def total_mass(M) -> float:
    """Sum of all mass entries = integral of 1 = hyperbolic area of the mesh."""
    return float(M.sum())


def reduce_system(K, M, free: np.ndarray) -> tuple:
    """Restrict the pencil to the free (unconstrained) nodes."""
    return K[np.ix_(free, free)], M[np.ix_(free, free)]


def solve_lowest(K, M, k: int) -> tuple:
    """Lowest k eigenpairs of K u = lambda M u, M-normalized, deterministic.

    Shift-invert Lanczos about SIGMA; at most n - 1 pairs of an n-dof
    system.  The sign convention makes the largest-magnitude
    component positive, so repeated runs return identical vectors (up to
    degeneracies).
    """
    n = K.shape[0]
    if n < 2:
        raise ValueError(f"solve_lowest needs at least 2 dofs, got {n}")
    vals, vecs = eigsh(K, k=min(k, n - 1), M=M, sigma=SIGMA, v0=np.ones(n))
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        nrm = math.sqrt(abs(v @ (M @ v)))
        v /= nrm
        if v[np.argmax(np.abs(v))] < 0.0:
            v *= -1.0
    return vals, vecs


def eigen_residuals(K, M, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Normwise backward errors ||K v - lambda M v|| / ((||K||_1 + |lambda| ||M||_1) ||v||).

    The scale does not vanish for the Neumann zero mode, where K v does.
    """
    k1, m1 = sp.linalg.norm(K, 1), sp.linalg.norm(M, 1)
    out = []
    for lam, v in zip(vals, vecs.T):
        r = np.linalg.norm(K @ v - lam * (M @ v))
        out.append(r / ((k1 + abs(lam) * m1) * np.linalg.norm(v)))
    return np.array(out)


@dataclass
class PolygonModes:
    """Eigenpairs on a meshed polygon; vectors live on all mesh nodes
    (zeros on constrained ones), free flags the unconstrained nodes."""

    mesh: Mesh
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    free: np.ndarray
    K: sp.csr_matrix
    M: sp.csr_matrix


def solve_polygon(
    poly,
    h_target: float,
    k: int = 6,
    essential_labels: tuple = ("dirichlet",),
) -> PolygonModes:
    """Mesh a polygon and solve for its lowest Laplace modes.

    Sides whose label is in essential_labels get homogeneous essential
    conditions; all other sides are natural (no constraint).
    """
    mesh = mesh_polygon(poly, h_target)
    K, M = assemble(mesh.nodes, mesh.triangles)
    constrained = np.zeros(mesh.n_nodes, dtype=bool)
    for lab in essential_labels:
        constrained[mesh.nodes_on_label(lab)] = True
    free = np.flatnonzero(~constrained)
    Kf, Mf = reduce_system(K, M, free)
    vals, vecs = solve_lowest(Kf, Mf, k)
    full = np.zeros((mesh.n_nodes, vecs.shape[1]))
    full[free] = vecs
    res = eigen_residuals(Kf, Mf, vals, vecs)
    return PolygonModes(mesh, vals, full, res, free, K, M)


class P1Interpolator:
    """Point evaluation of a piecewise linear function on a triangle soup.

    Works on any collection of triangles (several charts laid side by side
    included); lookup is nearest-centroid candidates plus a barycentric
    containment test, with graceful clipping for points that sit on the
    curved boundary just outside every chord triangle.  fallbacks counts
    the points evaluated by that clipping.
    """

    def __init__(self, points: np.ndarray, triangles: np.ndarray, values: np.ndarray):
        from scipy.spatial import cKDTree

        self.points = np.asarray(points, dtype=np.complex128)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        z = self.points[self.triangles]
        cent = z.mean(axis=1)
        self._tree = cKDTree(np.column_stack([cent.real, cent.imag]))
        self._z = z
        self.fallbacks = 0

    def _bary(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Barycentric weights (..., 3) of points x in triangles t (broadcast shapes)."""
        z0, z1, z2 = np.moveaxis(self._z[t], -1, 0)
        e1, e2, d = z1 - z0, z2 - z0, x - z0
        det = e1.real * e2.imag - e1.imag * e2.real
        l1 = (d.real * e2.imag - d.imag * e2.real) / det
        l2 = (e1.real * d.imag - e1.imag * d.real) / det
        return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)

    def __call__(self, x):
        """Value at x: a complex point gives a float, an ndarray of points an
        array of its shape.

        Each point takes the first of its 8 nearest-centroid triangles (64
        if none of those) that contains it within 1e-9; failing that, the
        clipped weights of the candidate it violates least.
        """
        q = np.asarray(x, dtype=np.complex128)
        pts = q.reshape(-1)
        out = np.empty(len(pts))
        todo = np.arange(len(pts))
        n_tri = len(self.triangles)
        for k in (8, 64):
            k_eff = min(k, n_tri)
            p = pts[todo]
            _, idx = self._tree.query(np.column_stack([p.real, p.imag]), k=k_eff)
            idx = idx.reshape(len(todo), k_eff)
            lam = self._bary(idx, p[:, None])
            viol = -lam.min(axis=2)
            inside = viol <= 1e-9
            hit = inside.any(axis=1)
            pick = np.where(hit, inside.argmax(axis=1), viol.argmin(axis=1))
            done = hit | (k_eff == n_tri or k == 64)
            lam, tri = lam[done, pick[done]], self.triangles[idx[done, pick[done]]]
            # boundary fallback: clip the weights of the least violated candidate
            clip = ~hit[done]
            lam[clip] = np.clip(lam[clip], 0.0, None)
            lam[clip] /= lam[clip].sum(axis=1, keepdims=True)
            self.fallbacks += int(clip.sum())
            out[todo[done]] = np.vecdot(lam, self.values[tri])
            todo = todo[~done]
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)


def richardson(values) -> tuple:
    """Extrapolate a second-order sequence at mesh sizes h, h/2, h/4, ...

    Returns (limit, ratios, error_estimate).  ratios[j] is
    (v_j - v_{j+1}) / (v_{j+1} - v_{j+2}); for a clean O(h^2) method each
    ratio is near 4.  The limit assumes the theoretical factor, the error
    estimate is the distance from the finest value to the limit.
    """
    v = list(values)
    if len(v) < 2:
        raise ValueError("richardson needs at least two values")
    ratios = []
    for j in range(len(v) - 2):
        d1, d2 = v[j] - v[j + 1], v[j + 1] - v[j + 2]
        ratios.append(d1 / d2 if d2 != 0.0 else math.inf)
    limit = v[-1] - (v[-2] - v[-1]) / 3.0
    return limit, ratios, abs(v[-1] - limit)
