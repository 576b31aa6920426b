"""P1 finite elements for the Laplacian of the Poincare disk metric.

The hyperbolic Dirichlet energy of piecewise linear functions equals the
Euclidean one (conformal invariance in two dimensions), so the stiffness
matrix is the plain flat-metric P1 matrix.  The area weight
w(z) = 4 / (1 - |z|^2)^2 enters only the mass matrix, integrated by the
edge-midpoint rule, which is exact for quadratics against a constant weight
and second-order accurate here.

assemble builds one sorted CSR pattern for K and M from Mesh.edges by
index arithmetic, computes the 3 diagonal and 3 edge values of each element
matrix, and sums them into the pattern with np.bincount over the triangle
corners and over Mesh.triangle_edges.

Eigenpairs of K u = lambda M u are computed by shift-invert Lanczos with a
fixed start vector, so repeated solves are deterministic.  The Lanczos
basis is small (LANCZOS_VECTORS, or 2k + 1 vectors for k pairs): a ground
state costs about 13 shift inversions, where eigsh's default basis of 20
vectors takes 21.  K - SIGMA M is factorised once per solve, without
pivoting (it is symmetric positive definite), in a geometric
nested-dissection order computed from the dof positions: on planar meshes
it fills the LU factors less than a general column ordering.  Each solve
logs its size, fill, timings and operator applications at DEBUG level.

solve_character is the one reduction: the modes of a pencil that vanish on
its constrained dofs and lie in a character of a group of commuting dof
involutions commuting with the pencil are its modes on the signed orbits;
an orbit with a constrained dof and one the character forces to zero alike
get no column.  dof_symmetry maps an isometry to its dof map.
solve_polygon folds ground states (k == 1) by the polygon's mirror through
0 with chi = +1: the mesh, labels and pencil are symmetric
(hypgeo.polygon_mirror), and the ground state is simple and positive, hence
even.  Higher modes need not be even, so k > 1 uses no generator.  surfglue
uses it for glued pencils and the octagon mode odd under both axis mirrors.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .hypgeo import LABELS, apply, polygon_mirror
from .hypmesh import MATCH_TOL, Mesh, match_nodes, mesh_polygon

SIGMA = -1.0  # shift for shift-invert; negative keeps K - SIGMA M positive definite

PENCIL_SYMMETRY_TOL = 1e-10  # entry mismatch of a pencil and its mirror image, relative to its largest entry
# DEBUG record of a fold: dofs before and after, fixed dofs, worst node match of the symmetry
FOLD_RECORD = "mirror fold: %d -> %d dofs, %d fixed, worst mirror match %.3e"

LEAF_SIZE = 16  # nested dissection stops bisecting blocks of at most this many dofs
LANCZOS_VECTORS = 8  # Lanczos basis of max(2k + 1, this many) vectors, at most n; eigsh's default is 20
# bisection directions (0, 45, 90, 135 degrees); each block keeps the one with the smallest separator
_DIRECTIONS = np.exp(1j * np.pi * np.arange(4) / 4)
_DIRECTION_BIT = (1 << np.arange(len(_DIRECTIONS), dtype=np.uint8))[:, None]
# _CODE_BITS[c, j]: bit j of the direction code c
_CODE_BITS = (np.arange(1 << len(_DIRECTIONS))[:, None] >> np.arange(len(_DIRECTIONS))) & 1

_log = logging.getLogger(__name__)


class SymmetryError(ValueError):
    """A map of the dofs that should be a symmetry of a pencil is not one."""


def assemble(mesh: Mesh) -> tuple:
    """Stiffness and mass matrices (CSR, one sorted pattern) for the hyperbolic metric.

    The pattern comes from mesh.edges: row i holds its lower neighbours, i
    and its upper neighbours.  Of each element matrix only the 3 diagonal
    and the 3 edge entries are computed (it is symmetric; local edge j joins
    corners j and j + 1).  Two np.bincount calls per matrix sum them per
    node and per edge (mesh.triangle_edges) into precomputed positions of
    the pattern.  K and M share one indices array, so copy a matrix before
    changing its pattern in place.  ValueError, with the count, unless every
    triangle is CCW.
    """
    tri, edges = mesh.triangles, mesh.edges
    n, n_edges = mesh.n_nodes, len(edges)
    z = mesh.nodes[tri]
    x0, x1, x2 = z.real.T
    y0, y1, y2 = z.imag.T
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    flipped = int(np.count_nonzero(det <= 0.0))
    if flipped:
        raise ValueError(f"assemble requires CCW triangles: {flipped} of {len(tri)} triangles have det <= 0")

    b = np.stack([y1 - y2, y2 - y0, y0 - y1], axis=1)
    c = np.stack([x2 - x1, x0 - x2, x1 - x0], axis=1)
    nxt, prev = [1, 2, 0], [2, 0, 1]
    two_det = 2.0 * det[:, None]
    k_diag = (b * b + c * c) / two_det
    k_edge = (b * b[:, nxt] + c * c[:, nxt]) / two_det
    # edge-midpoint rule: local edge j's midpoint carries weight 1/2 at both of its corners
    w = 4.0 / (1.0 - np.abs(0.5 * (z + z[:, nxt])) ** 2) ** 2
    area_12 = (det / 24.0)[:, None]
    m_edge = area_12 * w
    m_diag = area_12 * (w + w[:, prev])

    lower = np.bincount(edges[:, 1], minlength=n)
    upper = np.bincount(edges[:, 0], minlength=n)
    rows = np.arange(n)
    indptr = np.concatenate([[0], np.cumsum(lower + upper + 1)])
    diag = indptr[:-1] + lower
    # edge k = (i, j) sits in row i at its place among i's edges, which are
    # consecutive in lexicographic order, and in row j at its rank among the
    # edges ending at j, which a stable argsort of the upper ends gives
    up_pos = (np.cumsum(lower) + rows + 1)[edges[:, 0]] + np.arange(n_edges)
    by_upper = np.argsort(edges[:, 1], kind="stable")
    lo_pos = np.empty(n_edges, dtype=np.int64)
    lo_pos[by_upper] = (np.cumsum(upper) - upper + rows)[edges[by_upper, 1]] + np.arange(n_edges)
    indices = np.empty(n + 2 * n_edges, dtype=np.int32)
    indices[diag], indices[up_pos], indices[lo_pos] = rows, edges[:, 1], edges[:, 0]

    def fill(d, e):
        data = np.empty(len(indices))
        data[diag] = np.bincount(tri.ravel(), d.ravel(), minlength=n)
        data[up_pos] = data[lo_pos] = np.bincount(mesh.triangle_edges.ravel(), e.ravel(), minlength=n_edges)
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    return fill(k_diag, k_edge), fill(m_diag, m_edge)


def total_mass(M) -> float:
    """Sum of all mass entries = integral of 1 = hyperbolic area of the mesh."""
    return float(M.sum())


def reduce_system(K, M, free: np.ndarray) -> tuple:
    """Restrict the pencil to the free (unconstrained) nodes."""
    return K[np.ix_(free, free)], M[np.ix_(free, free)]


def nested_dissection(A, points: np.ndarray) -> np.ndarray:
    """Fill-reducing symmetric ordering of a CSR matrix A from dof positions.

    Level by level, every block of more than LEAF_SIZE dofs is bisected at
    the median of its points along each of _DIRECTIONS; the separator of a
    bisection is the left-hand dofs with a right-hand neighbour in A, and
    each block keeps the direction with the smallest separator.  The
    permutation lists every block's left half, right half and separator in
    that order (post-order, George 1973), so separators are eliminated last.
    Every row of A needs an entry (a positive definite A has its diagonal).
    """
    n = A.shape[0]
    nbr, row_start = A.indices.astype(np.intp), A.indptr[:-1]
    proj = (points * np.conj(_DIRECTIONS)[:, None]).real
    rank = np.empty((len(_DIRECTIONS), n), dtype=np.int64)
    np.put_along_axis(rank, np.argsort(proj, axis=1), np.arange(n)[None, :], axis=1)
    key = np.zeros(n, dtype=np.int64)  # base-3 post-order digits: left 0, right 1, separator 2
    code = np.zeros(n, dtype=np.uint8)  # bit j: right of the median along direction j
    act = np.arange(n)  # dofs still in a block to bisect
    blk = np.zeros(n, dtype=np.int64)  # their block, in tree-path numbering
    while True:
        sizes = np.bincount(blk)
        split = np.take(sizes, blk) > LEAF_SIZE
        if not split.all():
            code[act[~split]] = 0
            act, blk, rank = act[split], blk[split], np.compress(split, rank, axis=1)
            if not act.size:
                break
            sizes = np.bincount(blk)
        start = np.cumsum(sizes) - sizes
        k = blk * n + rank  # sorts by block, then along each direction
        med = np.sort(k, axis=1)[:, start + sizes // 2]
        right = ((k >= np.take(med, blk, axis=1)) * _DIRECTION_BIT).sum(axis=0, dtype=np.uint8)
        code[act] = right
        # left dofs with a right neighbour: active neighbours share a block, the others have code 0
        sep = np.take(np.bitwise_or.reduceat(np.take(code, nbr), row_start), act) & ~right
        # separator size of every block along every direction, from a (block, code) histogram
        nc = len(_CODE_BITS)
        counts = np.bincount(blk * nc + sep, minlength=nc * len(sizes)).reshape(-1, nc) @ _CODE_BITS
        best = np.take(counts.argmin(axis=1).astype(np.uint8), blk)
        is_sep, is_right = (sep >> best) & 1, (right >> best) & 1
        key *= 3
        key[act] += is_right + 2 * is_sep
        keep = is_sep == 0
        code[act[~keep]] = 0
        act, rank = act[keep], np.compress(keep, rank, axis=1)
        blk = 2 * blk[keep] + is_right[keep]
    return np.argsort(key, kind="stable")


def solve_lowest(K, M, k: int, points) -> tuple:
    """Lowest k eigenpairs of K u = lambda M u, M-normalized, deterministic.

    points holds the complex position of each dof, for the nested-dissection
    ordering of K - SIGMA M; the LU factors in that order invert the shift
    for Lanczos.  1 <= k < n for an n-dof system, or ValueError.  The sign
    convention makes the largest-magnitude component positive, so repeated
    runs return identical vectors (up to degeneracies).
    """
    n = K.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"solve_lowest needs at least 2 dofs and 1 <= k < n: k = {k}, n = {n} dofs")
    points = np.asarray(points)
    if points.shape != (n,):
        raise ValueError(f"solve_lowest needs one point per dof: {n} dofs, points of shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError(f"solve_lowest needs finite points: {int((~np.isfinite(points)).sum())} of {n} are not")
    t0 = time.perf_counter()
    A = (K - SIGMA * M).tocsr()
    p = nested_dissection(A, points)
    t1 = time.perf_counter()
    lu = splu(
        A[p][:, p].tocsc(),
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    t2 = time.perf_counter()
    applied = 0

    def shift_inverse(x):
        nonlocal applied
        applied += 1
        y = np.empty_like(x)
        y[p] = lu.solve(x[p])
        return y

    op = LinearOperator((n, n), matvec=shift_inverse, dtype=np.float64)
    ncv = min(n, max(2 * k + 1, LANCZOS_VECTORS))
    vals, vecs = eigsh(K, k=k, M=M, sigma=SIGMA, v0=np.ones(n), OPinv=op, ncv=ncv)
    # lu.nnz counts the stored (supernodal) L and U entries; lu.L and lu.U would copy the factors
    _log.debug(
        "solve_lowest: %d dofs, k=%d, LU nnz %d, ordering %.3f s, factorisation %.3f s, "
        "Lanczos %.3f s, %d OPinv applications",
        n, k, lu.nnz, t1 - t0, t2 - t1, time.perf_counter() - t2, applied,
    )
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        v = vecs[:, j]
        nrm = math.sqrt(abs(v @ (M @ v)))
        v /= nrm
        if v[np.argmax(np.abs(v))] < 0.0:
            v *= -1.0
    return vals, vecs


def eigen_residuals(K, M, vals: np.ndarray, vecs: np.ndarray, free=None) -> np.ndarray:
    """Normwise backward errors ||K v - lambda M v|| / ((||K||_1 + |lambda| ||M||_1) ||v||).

    The scale does not vanish for the Neumann zero mode, where K v does.
    With a boolean mask free (default all dofs), they are those of the
    pencil restricted to the free dofs, taken on the unreduced K and M:
    the vectors must vanish on the other dofs, the residual is taken on
    the free rows, and ||K_ff||_1 is the largest column sum of |K| over
    the free rows, among the free columns.
    """
    free = np.ones(K.shape[0], dtype=bool) if free is None else free
    k1, m1 = ((abs(A).T @ free.astype(np.float64))[free].max() for A in (K, M))
    out = []
    for lam, v in zip(vals, vecs.T):
        r = np.linalg.norm((K @ v - lam * (M @ v))[free])
        out.append(r / ((k1 + abs(lam) * m1) * np.linalg.norm(v[free])))
    return np.array(out)


def solve_character(K, M, gens, chi, k: int, points, constrained=None) -> tuple:
    """Lowest k modes of K u = lambda M u with u = 0 on the constrained dofs
    (a boolean mask, default none) and u[g(d)] = chi(g) u[d] for every g of
    the group that the dof maps gens generate; chi[i] = +1 or -1.

    Each generator (gens[i][d] the image of dof d) must be an involution
    that commutes with the pencil (R K R = K and R M R = M for its
    permutation matrix R, entry by entry on the pattern within
    PENCIL_SYMMETRY_TOL of the largest entry), and the generators must
    commute, or SymmetryError.  The modes are those of Q^T K Q and Q^T M Q
    for the signed orbit matrix Q: the column of the orbit with smallest dof
    d holds chi(g) at g(d) and is solved at the point of d.  Orbits with a
    constrained dof, and orbits whose stabiliser chi does not fix, are zero
    and get no column; with no generator Q selects the free dofs.  The lift
    Q w is M-normalized, with its largest entry at a column's d positive.

    Returns (values, vectors, counts): vectors on all dofs of K, counts the
    (free dofs, columns, free dofs fixed by every generator) of FOLD_RECORD.
    """
    n = K.shape[0]
    dofs = np.arange(n)
    free = np.ones(n, dtype=bool) if constrained is None else ~constrained
    for r in gens:
        if not np.array_equal(r[r], dofs):
            raise SymmetryError("the symmetry does not act on the dofs as an involution")
        for name, A in (("stiffness", K), ("mass", M)):
            RAR = A[r][:, r]  # compared entry by entry on the pattern of A
            RAR.sort_indices()
            A.sort_indices()
            same = np.array_equal(RAR.indptr, A.indptr) and np.array_equal(RAR.indices, A.indices)
            if not same or np.abs(RAR.data - A.data).max() > PENCIL_SYMMETRY_TOL * np.abs(A.data).max():
                raise SymmetryError(f"the {name} matrix does not commute with the symmetry (mesh not symmetric)")
    if any(not np.array_equal(a[b], b[a]) for a, b in itertools.combinations(gens, 2)):
        raise SymmetryError("the symmetries do not commute")
    group = [(dofs, 1.0)]  # (dof map, character) of every group element
    for r, c in zip(gens, chi):
        group += [(r[g], c * s) for g, s in group]
    rep = np.min([g for g, _ in group], axis=0)  # smallest dof of each orbit
    sign = np.zeros(n)
    dead = ~np.logical_and.reduce([free[g] for g, _ in group])  # orbits with a constrained dof
    for g, s in group:
        hit = g[rep] == dofs  # dofs that g reaches from their orbit's smallest dof
        dead |= hit & (sign == -s)
        sign[hit] = s
    live = np.flatnonzero(~dead)
    cols, col = np.unique(rep[live], return_inverse=True)
    Q = sp.csr_matrix((sign[live], (live, col)), shape=(n, len(cols)))
    Qt = Q.T.tocsr()
    vals, vecs = solve_lowest(Qt @ K @ Q, Qt @ M @ Q, k, points[cols])
    fixed = np.logical_and.reduce([g == dofs for g, _ in group]) & free
    return vals, Q @ vecs, (int(free.sum()), len(cols), int(fixed.sum()))


def dof_symmetry(nodes, node_dof, iso, constrained, what: str) -> tuple:
    """(r, worst): the map r[d] of the dofs that the isometry iso induces,
    and the worst node match.

    node_dof[c * N + n] is the dof of copy c of mesh node n (np.arange(N)
    for a polygon, a glue index for a glued system); constrained is the
    dof mask.  SymmetryError naming what unless iso maps the nodes onto
    nodes within MATCH_TOL, the copies of one dof to one dof, and the
    constrained dofs onto constrained dofs.
    """
    image, worst = match_nodes(nodes, apply(iso, nodes))
    fail = f"the mesh is not symmetric under {what}"
    if worst > MATCH_TOL:
        raise SymmetryError(f"{fail}: nodes not mapped onto mesh nodes (worst match distance {worst:.3e})")
    mapped = node_dof.reshape(-1, len(nodes))[:, image].ravel()  # dof of the image of every copy
    r = np.empty(len(constrained), dtype=np.int64)
    r[node_dof] = mapped
    if not np.array_equal(r[node_dof], mapped):
        raise SymmetryError(f"{fail}: it maps the copies of one dof to two glued dofs")
    if not np.array_equal(constrained[r], constrained):
        raise SymmetryError(f"{fail}: it does not preserve the constrained dofs")
    return r, worst


@dataclass
class PolygonModes:
    """Eigenpairs on a meshed polygon; vectors live on all mesh nodes
    (zeros on the constrained ones, those with an essential condition)."""

    mesh: Mesh
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    constrained: np.ndarray
    K: sp.csr_matrix
    M: sp.csr_matrix

    @property
    def free(self) -> np.ndarray:
        return np.flatnonzero(~self.constrained)


def solve_polygon(
    poly,
    h_target: float,
    k: int = 6,
    essential_labels: tuple = ("dirichlet",),
) -> PolygonModes:
    """Mesh a polygon and solve for its lowest Laplace modes.

    Sides whose label is in essential_labels (hypgeo.LABELS, or ValueError)
    get homogeneous essential conditions; all other sides are natural.

    A ground state (k == 1) of a polygon with a mirror through 0
    (hypgeo.polygon_mirror) is solved on the mirror orbits of the free
    dofs, about half of them: the mesh, the labels and the pencil are
    symmetric, and the ground state is simple and positive, hence even.
    The mirror's dof_symmetry map must exist, or SymmetryError; one DEBUG
    record gives FOLD_RECORD.  Higher modes need not be even, so k > 1
    solves the whole free pencil; either way it is one solve_character
    call.  residuals are the backward errors on the free pencil.
    """
    if not set(essential_labels) <= set(LABELS):
        raise ValueError(f"essential_labels {essential_labels} are not all in {LABELS}")
    mesh = mesh_polygon(poly, h_target)
    K, M = assemble(mesh)
    constrained = np.zeros(mesh.n_nodes, dtype=bool)
    for lab in essential_labels:
        constrained[mesh.nodes_on_label(lab)] = True
    mirror = polygon_mirror(poly) if k == 1 else None
    gens = []
    if mirror is not None:
        r, worst = dof_symmetry(mesh.nodes, np.arange(mesh.n_nodes), mirror, constrained, "the polygon's mirror")
        gens = [r]
    vals, vecs, counts = solve_character(K, M, gens, [1] * len(gens), k, mesh.nodes, constrained)
    if gens:
        _log.debug(FOLD_RECORD, *counts, worst)
    res = eigen_residuals(K, M, vals, vecs, ~constrained)
    return PolygonModes(mesh, vals, vecs, res, constrained, K, M)


class P1Interpolator:
    """Point evaluation of a piecewise linear function on a triangle soup.

    Works on any collection of triangles (several charts laid side by side
    included); lookup is nearest-centroid candidates plus a barycentric
    containment test.  A point that lies in no triangle is an error: the
    function is not defined there.
    """

    def __init__(self, points: np.ndarray, triangles: np.ndarray, values: np.ndarray):
        from scipy.spatial import cKDTree

        self.points = np.asarray(points, dtype=np.complex128)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        n, t = len(self.points), self.triangles
        if self.values.shape != (n,):
            raise ValueError(f"P1Interpolator needs one value per point: {n} points, values of shape {self.values.shape}")
        if t.ndim != 2 or t.shape[1] != 3 or (t.size and (t.min() < 0 or t.max() >= n)):
            raise ValueError(f"P1Interpolator needs (T, 3) triangles indexing {n} points, got shape {t.shape}")
        z = self.points[self.triangles]
        cent = z.mean(axis=1)
        self._tree = cKDTree(np.column_stack([cent.real, cent.imag]))
        self._z = z

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
        if none of those) that contains it within 1e-9.  Raises ValueError
        when some point lies in none of them, naming how many points missed
        and the worst barycentric violation among them.
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
            pick = inside.argmax(axis=1)[hit]
            out[todo[hit]] = np.vecdot(lam[hit, pick], self.values[self.triangles[idx[hit, pick]]])
            todo = todo[~hit]
            if not len(todo) or k_eff == n_tri:
                break
        if len(todo):
            worst = viol[~hit].min(axis=1).max()
            raise ValueError(
                f"P1Interpolator: {len(todo)} of {len(pts)} points lie in no triangle "
                f"(worst barycentric violation {worst:.3g})"
            )
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
