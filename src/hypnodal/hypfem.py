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
corners and over Mesh.triangle_edges; K and M share the pattern's arrays.

Eigenpairs of K u = lambda M u are computed by shift-invert Lanczos with a
fixed start vector, so repeated solves are deterministic.  The Lanczos
basis is small (LANCZOS_VECTORS, or 2k + 1 vectors for k pairs): a ground
state costs about 13 shift inversions, where eigsh's default basis of 20
vectors takes 21.  K - SIGMA M is factorised once per solve, without
pivoting (it is symmetric positive definite), in a geometric
nested-dissection order computed from the dof positions: on planar meshes
it fills the LU factors less than a general column ordering.  Each solve
logs its size, fill, timings and operator applications at DEBUG level.

A symmetry has one home per half.  dof_symmetry maps an isometry to its
dof map, whatever the constrained mask, so one map serves every mask.
solve_character checks the maps against the pencil and the mask, and
reduces: the modes of a pencil that vanish on its constrained dofs and lie
in a character of a group of commuting dof involutions are its modes on
the signed orbits; an orbit with a constrained dof and one the character
forces to zero alike get no column.  solve_polygon folds ground states
(k == 1) by the polygon's mirror through 0 with chi = +1: the mesh, labels
and pencil are symmetric (hypgeo.polygon_mirror), and the ground state is
simple and positive, hence even; k > 1 uses no generator.  surfglue uses
both for glued pencils and the octagon mode odd under both axis mirrors,
and solve_polygon for the genus 3 pants: its seams are glued by the pants
decagon's mirror, so the decagon's folded ground state is the pants'.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .hypgeo import LABELS, apply, polygon_mirror
from .hypmesh import Mesh, match_nodes, mesh_polygon

INSIDE_TOL = 1e-9  # P1Interpolator: a point lies in a triangle when no barycentric weight is below -INSIDE_TOL
SIGMA = -1.0  # shift for shift-invert; negative keeps K - SIGMA M positive definite

PENCIL_SYMMETRY_TOL = 1e-10  # entry mismatch of a pencil and its mirror image, relative to its largest entry

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
    the pattern.  K and M share the pattern's arrays (indptr and indices),
    so copy a matrix before changing its pattern in place.  ValueError, with
    the count, unless every triangle is CCW.
    """
    tri, edges = mesh.triangles, mesh.edges
    n, n_edges = mesh.n_nodes, len(edges)
    x, y = mesh.nodes.real[tri], mesh.nodes.imag[tri]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
    flipped = int(np.count_nonzero(det <= 0.0))
    if flipped:
        raise ValueError(f"assemble requires CCW triangles: {flipped} of {len(tri)} triangles have det <= 0")
    nxt, prev = [1, 2, 0], [2, 0, 1]
    b, c = y[:, nxt] - y[:, prev], x[:, prev] - x[:, nxt]
    del x, y

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
    del lower, upper, rows, by_upper

    def fill(d, e, pattern):
        data = np.empty(len(pattern[0]))
        data[diag] = np.bincount(tri.ravel(), d.ravel(), minlength=n)
        data[up_pos] = data[lo_pos] = np.bincount(mesh.triangle_edges.ravel(), e.ravel(), minlength=n_edges)
        return sp.csr_matrix((data, *pattern), shape=(n, n))

    # K, then M, each temporary freed once used: this sets the memory peak
    # of a large assembly (the corners are gathered again for M)
    two_det = 2.0 * det[:, None]
    K = fill((b * b + c * c) / two_det, (b * b[:, nxt] + c * c[:, nxt]) / two_det, (indices, indptr))
    del b, c, two_det, indices, indptr  # K holds the pattern, its indptr copied to int32
    z = mesh.nodes[tri]
    # edge-midpoint rule: local edge j's midpoint carries weight 1/2 at both of its corners
    w = 4.0 / (1.0 - np.abs(0.5 * (z + z[:, nxt])) ** 2) ** 2
    del z
    area_12 = (det / 24.0)[:, None]
    return K, fill(area_12 * (w + w[:, prev]), area_12 * w, (K.indices, K.indptr))


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
    A = A[p][:, p].tocsc()  # the shifted CSR goes before the factorisation
    t1 = time.perf_counter()
    lu = splu(
        A,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    del A
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

    Every generator check is here.  Each map (gens[i][d] the image of dof
    d) must have n entries, be an involution, keep the constrained mask and
    commute with the pencil (R K R = K and R M R = M for its permutation
    matrix R, entry by entry on the pattern within PENCIL_SYMMETRY_TOL of
    the largest entry), and the maps must commute, or SymmetryError.  The
    modes are those of Q^T K Q and Q^T M Q for the signed orbit matrix Q:
    the column of the orbit with smallest dof d holds chi(g) at g(d) and is
    solved at the point of d.  Orbits with a constrained dof, and orbits
    whose stabiliser chi does not fix, are zero and get no column; with no
    generator Q selects the free dofs.  The lift Q w is M-normalized, with
    its largest entry at a column's d positive.  One DEBUG record gives the
    free dofs, the columns and the free dofs fixed by every generator.

    Returns (values, vectors), vectors on all dofs of K; K and M are not changed.
    """
    n = K.shape[0]
    dofs = np.arange(n)
    free = np.ones(n, dtype=bool) if constrained is None else ~constrained
    for r in gens:
        if len(r) != n:
            raise SymmetryError(f"the symmetry maps {len(r)} dofs, the pencil has {n}")
        if not np.array_equal(r[r], dofs):
            raise SymmetryError("the symmetry does not act on the dofs as an involution")
        if not np.array_equal(free[r], free):
            raise SymmetryError("the symmetry does not preserve the constrained dofs")
        for name, A in (("stiffness", K), ("mass", M)):
            RAR = A[r][:, r]  # compared entry by entry on the pattern of A
            RAR.sort_indices()
            if not A.has_sorted_indices:  # sort a copy: A may share its pattern arrays with the other matrix
                A = A.sorted_indices()
            same = np.array_equal(RAR.indptr, A.indptr) and np.array_equal(RAR.indices, A.indices)
            if not same or np.abs(RAR.data - A.data).max() > PENCIL_SYMMETRY_TOL * np.abs(A.data).max():
                raise SymmetryError(f"the {name} matrix does not commute with the symmetry (mesh not symmetric)")
            del RAR
    if any(not np.array_equal(a[b], b[a]) for a, b in itertools.combinations(gens, 2)):
        raise SymmetryError("the symmetries do not commute")
    group = [(dofs, 1.0)]  # (dof map, character) of every group element
    for r, c in zip(gens, chi):
        group += [(r[g], c * s) for g, s in group]
    rep = np.min([g for g, _ in group], axis=0)  # smallest dof of each orbit
    sign = np.zeros(n)
    dead = ~free  # the generators keep the mask, so the orbit of a constrained dof is constrained
    for g, s in group:
        hit = g[rep] == dofs  # dofs that g reaches from their orbit's smallest dof
        dead |= hit & (sign == -s)
        sign[hit] = s
    live = np.flatnonzero(~dead)
    cols, col = np.unique(rep[live], return_inverse=True)
    Q = sp.csr_matrix((sign[live], (live, col)), shape=(n, len(cols)))
    Qt = Q.T.tocsr()
    fixed = np.logical_and.reduce([g == dofs for g, _ in group]) & free
    _log.debug("solve_character: %d free dofs -> %d columns, %d fixed by every generator",
               free.sum(), len(cols), fixed.sum())
    Kq, Mq = Qt @ K @ Q, Qt @ M @ Q
    for A in (Kq, Mq):  # sorted: eigsh's products round by the folded values, not by the dof numbering
        A.sort_indices()
    del group, rep, sign, dead, live, col, Qt, fixed  # the orbit work goes before the solve
    vals, vecs = solve_lowest(Kq, Mq, k, points[cols])
    return vals, Q @ vecs


def dof_symmetry(nodes, node_dof, iso, what: str) -> np.ndarray:
    """The map r[d] of the dofs that the isometry iso induces.

    node_dof[c * N + n] is the dof of copy c of mesh node n (np.arange(N)
    for a polygon, a glue index for a glued system); every dof has a copy,
    so r has node_dof.max() + 1 entries.  SymmetryError naming what unless
    iso maps every node to a node within MATCH_TOL (match_nodes; the error
    counts the nodes without one) and the copies of one dof to one dof.
    The map is geometry only, the same for every constrained mask;
    solve_character checks it against a pencil and a mask.  One DEBUG
    record gives the worst node match.
    """
    image, worst = match_nodes(nodes, apply(iso, nodes))
    fail = f"the mesh is not symmetric under {what}"
    unmatched = int(np.count_nonzero(image < 0))
    if unmatched:
        raise SymmetryError(f"{fail}: {unmatched} of {len(nodes)} nodes not mapped onto mesh nodes within MATCH_TOL")
    mapped = node_dof.reshape(-1, len(nodes))[:, image].ravel()  # dof of the image of every copy
    r = np.empty(node_dof.max() + 1, dtype=np.int64)
    r[node_dof] = mapped
    if not np.array_equal(r[node_dof], mapped):
        raise SymmetryError(f"{fail}: it maps the copies of one dof to two glued dofs")
    _log.debug("dof_symmetry: %s on %d dofs, worst node match %.3e", what, len(r), worst)
    return r


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
    Higher modes need not be even, so k > 1 gets no generator.  Either way
    it is one solve_character call (given the mirror's dof_symmetry map
    when k == 1), which may raise SymmetryError and logs the fold.
    residuals are the backward errors on the free pencil.
    """
    if not set(essential_labels) <= set(LABELS):
        raise ValueError(f"essential_labels {essential_labels} are not all in {LABELS}")
    mesh = mesh_polygon(poly, h_target)
    K, M = assemble(mesh)
    constrained = np.zeros(mesh.n_nodes, dtype=bool)
    for lab in essential_labels:
        constrained[mesh.nodes_on_label(lab)] = True
    mirror = polygon_mirror(poly) if k == 1 else None
    gens = [] if mirror is None else [dof_symmetry(mesh.nodes, np.arange(mesh.n_nodes), mirror, "the polygon's mirror")]
    vals, vecs = solve_character(K, M, gens, [1] * len(gens), k, mesh.nodes, constrained)
    res = eigen_residuals(K, M, vals, vecs, ~constrained)
    return PolygonModes(mesh, vals, vecs, res, constrained, K, M)


class P1Interpolator:
    """Point evaluation of a piecewise linear function on a triangle soup
    (several charts laid side by side included).

    A point lies in a triangle when no barycentric weight is below
    -INSIDE_TOL: inside the triangle scaled by 1 + 3 INSIDE_TOL about its
    centroid.  A bucket grid of square cells, about one per triangle, lists
    the triangles whose bounding box, grown by 4 INSIDE_TOL (width + height)
    on every side, meets the cell; one argsort of the (cell, triangle) keys
    builds it.  A point's candidates are its cell's list, which holds every
    triangle the test accepts.  A point in no triangle is an error.
    """

    def __init__(self, points: np.ndarray, triangles: np.ndarray, values: np.ndarray):
        self.points = np.asarray(points, dtype=np.complex128)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        n, t = len(self.points), self.triangles
        if self.values.shape != (n,):
            raise ValueError(f"P1Interpolator needs one value per point: {n} points, values of shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            bad = int((~np.isfinite(self.values)).sum())
            raise ValueError(f"P1Interpolator needs finite values: {bad} of {n} are not")
        if t.ndim != 2 or t.shape[1] != 3 or not len(t) or t.min() < 0 or t.max() >= n:
            raise ValueError(f"P1Interpolator needs (T, 3) triangles, T > 0, indexing {n} points, got shape {t.shape}")
        z = self.points[self.triangles]
        if not np.isfinite(z).all():
            raise ValueError(f"P1Interpolator needs finite corners: {int((~np.isfinite(z)).sum())} of {z.size} are not")
        self._z, self._cent = z, z.mean(axis=1)
        # corner by corner: a reduction along an axis of length 3 is many times slower
        lo, hi = (np.stack([functools.reduce(f, c.T) for c in (z.real, z.imag)]) for f in (np.minimum, np.maximum))
        pad = 4 * INSIDE_TOL * (hi - lo).sum(axis=0)
        lo, hi = lo - pad, hi + pad
        self._origin = lo.min(axis=1)
        width, height = hi.max(axis=1) - self._origin
        self._size = max(math.sqrt(width * height / len(t)), (width + height) / len(t)) or 1.0
        c0, c1 = self._cell_xy(np.stack([lo, hi])).astype(np.int64)
        self._shape = c1.max(axis=1) + 1  # columns, rows
        span = c1 - c0 + 1
        count = span[0] * span[1]  # cells that triangle's box meets
        tri = np.repeat(np.arange(len(t)), count)
        row, col = np.divmod(np.arange(len(tri)) - np.repeat(np.cumsum(count) - count, count), span[0][tri])
        cell = (c0[1][tri] + row) * self._shape[0] + c0[0][tri] + col
        self._cell_tri = tri[np.argsort(cell * len(t) + tri)]  # unique keys: each cell lists its triangles in order
        self._start = np.concatenate([[0], np.cumsum(np.bincount(cell, minlength=self._shape.prod()))])

    def _cell_xy(self, xy: np.ndarray) -> np.ndarray:
        """Grid columns and rows (floats) of the coordinates xy, whose axis -2 is x, y."""
        return np.floor((xy - self._origin[:, None]) / self._size)

    def _candidates(self, pts: np.ndarray) -> tuple:
        """(point, triangle) index pairs: the triangles listed in each point's
        grid cell, or in the nearest cell for a point off the grid (which no
        triangle accepts)."""
        c = np.clip(self._cell_xy(np.stack([pts.real, pts.imag])), 0, self._shape[:, None] - 1).astype(np.int64)
        cell = c[1] * self._shape[0] + c[0]
        start, count = self._start[cell], self._start[cell + 1] - self._start[cell]
        pt = np.repeat(np.arange(len(pts)), count)
        return pt, self._cell_tri[np.arange(len(pt)) + np.repeat(start - np.cumsum(count) + count, count)]

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

        Each point takes the candidate that contains it whose centroid is
        nearest (squared distance, lower index on ties), so where one of
        its 8 or 64 nearest centroids has a triangle that contains it, the
        first such one.  ValueError for non-finite points, and when a point
        is in no triangle, naming the misses, their worst barycentric
        violation, each measured in the triangles its grid cell lists, and
        how many lie outside every triangle's box: their cells list no
        triangle, and their violation is inf.
        """
        q = np.asarray(x, dtype=np.complex128)
        pts = q.reshape(-1)
        if not np.isfinite(pts).all():
            raise ValueError(f"P1Interpolator needs finite points: {int((~np.isfinite(pts)).sum())} of {len(pts)} are not")
        pt, tri = self._candidates(pts)
        lam = self._bary(tri, pts[pt])
        inside = np.flatnonzero(lam.min(axis=1) >= -INSIDE_TOL)
        d = pts[pt[inside]] - self._cent[tri[inside]]
        pick = inside[np.lexsort((d.real * d.real + d.imag * d.imag, pt[inside]))]  # stable: by point, then distance
        pick = pick[np.diff(pt[pick], prepend=-1) != 0]
        out = np.empty(len(pts))
        out[pt[pick]] = np.vecdot(lam[pick], self.values[self.triangles[tri[pick]]])
        if len(pick) < len(pts):
            violation = np.full(len(pts), np.inf)  # in the best triangle of each point's cell, inf if it lists none
            np.minimum.at(violation, pt, -lam.min(axis=1))
            miss = np.delete(violation, pt[pick])
            raise ValueError(
                f"P1Interpolator: {len(miss)} of {len(pts)} points lie in no triangle (worst barycentric "
                f"violation {miss.max():.3g}; {np.count_nonzero(np.isinf(miss))} outside every triangle's box)"
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
