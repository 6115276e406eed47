"""Sparse matrix construction and the two Krylov solvers of the scheme.

Storage is scipy CSR.  A matrix assembled from per-cell blocks over a
fixed dof map is written into a :class:`SparsityPattern` built once from
that map, whose :class:`BandOrdering` holds the band storage and factors
of its matrices.  CG (:func:`cg_deflated`) is written out here, as the
pressure needs deflation against a weighted mean constraint.  Both
solvers take any preconditioner v -> M^{-1} v and report a relative
residual: GMRES the true one, CG its recursively updated one.  README
"Solver design" says which preconditioners the time stepper passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import (dgbtrf, dgbtrs, dgeqrf, dorgqr, dpbtrf,
                                 dpbtrs, dtrtrs)
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .checks import check_number


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool


def from_triplets(n_rows, n_cols, rows, cols, values) -> sp.csr_matrix:
    """Assemble CSR from COO triplets; duplicate entries are summed.

    Returns a canonical matrix (sorted column indices within each row).
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    values = np.asarray(values, dtype=np.float64).ravel()
    if not (rows.size == cols.size == values.size):
        raise ValueError("rows, cols and values must have equal length")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValueError(f"row index out of range [0, {n_rows})")
    if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError(f"column index out of range [0, {n_cols})")
    return sp.coo_matrix((values, (rows, cols)), shape=(n_rows, n_cols)).tocsr()


@dataclass(frozen=True)
class BandOrdering:
    """The reverse Cuthill-McKee ordering of one :class:`SparsityPattern`
    and the LAPACK band storage of its matrices: ``order`` is q and
    ``position`` its inverse, the new index of each old one, so that
    B = A[q][:, q] has half-bandwidth k = ``half_bandwidth``, and A x = b
    is B y = b[q] with x = y[position].  ``lu_slots[s]`` is the flat
    position of entry s of A's data in the Fortran-ordered (3k + 1, n)
    storage of B that ``dgbtrf`` factors, whose top k rows take the fill
    of its row exchanges; ``cholesky_slots[s]`` is its position in the
    (k + 1, n) storage of B's lower triangle that ``dpbtrf`` factors, or,
    for an entry above the diagonal, the one spare slot past its end.
    The arrays are read-only.

    A matrix with a convection term is nonsymmetric and takes :meth:`lu`;
    one without is symmetric positive definite and takes
    :meth:`cholesky`, half the arithmetic in a third of the storage."""

    order: np.ndarray
    position: np.ndarray
    half_bandwidth: int
    lu_slots: np.ndarray
    cholesky_slots: np.ndarray

    def lu(self, A):
        """The solve v -> A^{-1} v of the band LU factor of B, with
        partial pivoting, for A on the pattern; RuntimeError when a pivot
        is exactly zero."""
        k, n = self.half_bandwidth, self.order.size
        band = np.zeros((3 * k + 1) * n)
        band[self.lu_slots] = A.data
        lu, pivots, info = dgbtrf(band.reshape(3 * k + 1, n, order="F"),
                                  k, k, overwrite_ab=True)
        if info > 0:
            raise RuntimeError(f"pivot {info} is exactly zero: the matrix "
                               f"is singular")

        def solve(v):
            return dgbtrs(lu, k, k, v[self.order], pivots)[0][self.position]
        return solve

    def cholesky(self, A):
        """The solve v -> A^{-1} v of the band Cholesky factor of B, for a
        symmetric A on the pattern, of which only the lower triangle is
        read; RuntimeError when a pivot is not positive, as it is for a
        matrix that is not positive definite."""
        k, n = self.half_bandwidth, self.order.size
        band = np.zeros((k + 1) * n + 1)
        band[self.cholesky_slots] = A.data
        factor, info = dpbtrf(band[:-1].reshape(k + 1, n, order="F"),
                              lower=1, overwrite_ab=True)
        if info > 0:
            raise RuntimeError(f"pivot {info} is not positive: the matrix "
                               f"is not positive definite")

        def solve(v):
            return dpbtrs(factor, v[self.order], lower=1)[0][self.position]
        return solve


@dataclass(frozen=True)
class SparsityPattern:
    """Canonical CSR structure of an n x n matrix assembled from per-cell
    (k, k) blocks.  ``slots[t, i, j]`` is the position in the matrix data
    of block entry (i, j) of cell t, and ``transpose[s]`` the position of
    the entry mirroring position s: the structure of such a matrix is
    symmetric, so A.T has the same ``indptr`` and ``indices`` as A, with
    data ``A.data[transpose]``; ``band`` is its :class:`BandOrdering`.
    The index arrays are read-only."""

    size: int
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray              # (T, k, k)
    transpose: np.ndarray          # (nnz,)

    def assemble(self, local) -> sp.csr_matrix:
        """The matrix whose cell blocks are ``local`` (T, k, k), duplicate
        entries summed in cell order."""
        data = np.bincount(self.slots.ravel(), weights=local.ravel(),
                           minlength=self.indices.size)
        A = sp.csr_matrix((data, self.indices, self.indptr),
                          shape=(self.size, self.size))
        A.pattern = self
        return A

    @cached_property
    def band(self) -> BandOrdering:
        """The :class:`BandOrdering` of the pattern's graph (Cuthill &
        McKee, 1969); it reads only the structure, so it is computed at
        its first use and kept."""
        n = self.size
        graph = sp.csr_matrix((np.ones(self.indices.size), self.indices,
                               self.indptr), shape=(n, n))
        order = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(
            np.intp)
        position = np.empty(n, dtype=np.intp)
        position[order] = np.arange(n)
        rows = position[np.repeat(np.arange(n), np.diff(self.indptr))]
        cols = position[self.indices]
        k = int(np.max(np.abs(rows - cols), initial=0))
        # entry (i, j) of B sits in row 2k + i - j, column j of the LU
        # storage, at flat position 2k + i - j + (3k + 1) j, and, when
        # i >= j, in row i - j of the Cholesky storage, at i - j + (k + 1) j
        lu_slots = 2 * k + rows + 3 * k * cols
        cholesky_slots = np.where(rows >= cols, rows + k * cols, (k + 1) * n)
        for arr in (order, position, lu_slots, cholesky_slots):
            arr.flags.writeable = False
        return BandOrdering(order, position, k, lu_slots, cholesky_slots)

    def leading_block(self, m, k) -> SparsityPattern:
        """The pattern of the leading m x m block, assembled from the first
        k local dofs of each cell, which must be the cell's only dofs below
        m (as P2 numbers the vertices before the edges): the same arrays
        as ``sparsity_pattern(m, cell_dofs[:, :k])``, without a sort."""
        inner = np.flatnonzero(self.indices[:self.indptr[m]] < m)
        renumber = np.full(self.indices.size, -1, dtype=np.intp)
        renumber[inner] = np.arange(inner.size)
        slots = renumber[self.slots[:, :k, :k]]
        hit = np.zeros(inner.size + 1, dtype=bool)
        hit[slots] = True               # a slot outside the block hits hit[-1]
        if hit[-1] or not hit[:-1].all():
            raise ValueError(f"the first {k} local dofs of each cell are "
                             f"not its only dofs below {m}")
        block = (np.searchsorted(inner, self.indptr[:m + 1]).astype(
            self.indptr.dtype), self.indices[inner], slots,
            renumber[self.transpose[inner]])
        for arr in block:
            arr.flags.writeable = False
        return SparsityPattern(m, *block)


def number_pairs(rows, cols, n):
    """Number the distinct (row, col) pairs of two broadcast integer
    arrays with entries in [0, n), in row-major order, from one sort of
    the keys row * n + col packed with their flat positions into int64;
    keys that would leave int64 are a ValueError, which no admitted mesh
    meets (at M = 1024 they take about 60 bits).  Returns ``distinct``,
    the sorted distinct keys; ``first``, the flat position of each one's
    first occurrence; and ``inverse``, the number of the pair at each flat
    position: what ``np.unique`` returns as its values, ``return_index``
    and ``return_inverse`` for the keys."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    shape = np.broadcast_shapes(rows.shape, cols.shape)
    count = math.prod(shape)
    shift = count.bit_length()
    if n * n << shift > np.iinfo(np.int64).max:
        raise ValueError(f"keys of {n} x {n} pairs at {count} positions "
                         f"do not fit in int64")
    # the key with its position in the low bits: one plain sort, about
    # half the cost of an argsort, orders both, equal keys by position
    keys = (rows * (n << shift) + (cols << shift)).ravel()
    keys |= np.arange(count)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    new = np.empty(count, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    rank = new.astype(np.intp)      # rank[s]: the distinct key at s
    rank[:1] = 0
    np.cumsum(rank, out=rank)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = rank
    return np.compress(new, keys), np.compress(new, order), inverse


def sparsity_pattern(n, cell_dofs) -> SparsityPattern:
    """The pattern of an n x n matrix assembled from per-cell blocks on
    ``cell_dofs`` (T, k): :func:`number_pairs` numbers the distinct
    (row, column) pairs of all block entries in row-major order."""
    cell_dofs = np.asarray(cell_dofs, dtype=np.int64)
    if cell_dofs.size and (cell_dofs.min() < 0 or cell_dofs.max() >= n):
        raise ValueError(f"dof index out of range [0, {n})")
    distinct, _, slots = number_pairs(cell_dofs[:, :, None],
                                      cell_dofs[:, None, :], n)
    rows = distinct // n
    # scipy's own index type, so that assembly never converts the arrays
    index = np.int32 if max(n, rows.size) <= np.iinfo(np.int32).max \
        else np.int64
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(index)
    indices = (distinct - rows * n).astype(index)
    slot3 = slots.reshape(cell_dofs.shape + cell_dofs.shape[-1:])
    transpose = np.empty(indices.size, dtype=np.intp)
    transpose[slot3.transpose(0, 2, 1)] = slot3
    for arr in (indptr, indices, slot3, transpose):
        arr.flags.writeable = False
    return SparsityPattern(size=n, indptr=indptr, indices=indices,
                           slots=slot3, transpose=transpose)


def _check_square(A, b):
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if b.shape != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")


def _symmetry_defect(A) -> float:
    # a matrix from SparsityPattern.assemble keeps the pattern's structure
    # unless its index arrays were replaced: they are read-only
    pattern = getattr(A, "pattern", None)
    if pattern is not None and A.indptr is pattern.indptr:
        d = A.data - A.data[pattern.transpose]
    else:
        d = (A - A.T).data
    return float(np.max(np.abs(d))) if d.size else 0.0


# the stagnation stop of cg_deflated: no converging solve of the test
# suite, the benchmark workloads or the --fast CLI protocols goes more
# than 19 iterations without a new least residual
STAGNATION_ITERATIONS = 50

# both Krylov loops stop at the first non-finite curvature or residual
# and say so in their report, so numpy's warnings on the arithmetic that
# made it are noise
_QUIET_NON_FINITE = np.errstate(invalid="ignore", over="ignore")


def deflated_start(A, b, deflate, window):
    """The x0 in the span of ``window`` with the least deflated residual
    ||P(b - A x0)||, P the projector of :func:`cg_deflated` for
    m = ``deflate`` (Fischer's projection of successive right-hand sides,
    CMAME 163, 1998, in minimal-residual form); returns x0, m-orthogonal,
    and b - A x0.  A Householder QR of [m | window] gives an orthonormal
    [q | B]: B spans the window projected onto m-perp, completed to k
    columns where the window is degenerate.  The R of a QR of
    [m | A B | b] holds the least-squares coefficients, m's absorbing the
    deflation; its k x k triangle is nonsingular when A is positive
    definite on m-perp, as no m-orthogonal x then has A x parallel to m."""
    W = np.array((deflate,) + tuple(window)).T          # Fortran (n, K + 1)
    n, k = W.shape[0], min(W.shape)
    qr, tau = dgeqrf(W, overwrite_a=True)[:2]
    B = dorgqr(qr[:, :k], tau[:k], overwrite_a=True)[0][:, 1:]
    AB = A @ B
    C = np.empty((n, k + 1), order="F")
    C[:, 0], C[:, 1:-1], C[:, -1] = deflate, AB, b
    R = dgeqrf(C, overwrite_a=True)[0]
    a = dtrtrs(R[:k, :k], R[:k, k])[0][1:]
    return B @ a, b - AB @ a


@_QUIET_NON_FINITE
def cg_deflated(A, b, deflate=None, rel_tol=1e-11, max_iter=None, x0=None,
                precond=None, r0=None):
    """Conjugate gradients, optionally deflated against one vector.

    With ``deflate = m`` the iteration runs in the subspace orthogonal to m
    (projector P = I - m m^T / m^T m applied to the right-hand side and to
    every residual), which makes a consistent singular system whose kernel
    is not m-orthogonal solvable; the returned solution x satisfies
    m^T x = 0 up to roundoff.  ``rel_tol`` is met by, and the report
    carries, the recursively updated residual ||r_k|| / ||P b||: in exact
    arithmetic ||P(b - A x)|| / ||P b||, near the rounding floor it can
    fall an order of magnitude below that.  A curvature p^T A p that is
    not positive and finite (lost definiteness, or non-finite data), or a
    residual norm that has made no new minimum in
    ``STAGNATION_ITERATIONS`` iterations (a tolerance below what rounding
    lets CG reach), ends the iteration with converged=False.

    Parameters
    ----------
    A : scipy sparse matrix, symmetric (checked) positive definite on the
        iteration subspace
    deflate : vector m or None
    precond : callable v -> M^{-1} v, symmetric positive definite on the
        iteration subspace, or None for plain CG.  The preconditioned
        residual is projected like every other iterate.
    r0 : b - A x0 when the caller has it, or None to spend a matvec on it

    Returns
    -------
    (x, SolveReport)
    """
    check_number("rel_tol", rel_tol, above=0)
    b = np.asarray(b, dtype=np.float64)
    _check_square(A, b)
    n = b.size
    defect = _symmetry_defect(A)
    scale = float(np.max(np.abs(A.data))) if A.nnz else 0.0
    if defect > 1e-12 * max(scale, 1.0):
        raise ValueError(f"matrix is not symmetric (defect {defect:.3e})")
    if max_iter is None:
        max_iter = 10 * n

    if deflate is not None:
        m = np.asarray(deflate, dtype=np.float64)
        if m.shape != (n,):
            raise ValueError("deflation vector has wrong shape")
        mtm = m @ m
        if mtm == 0.0:
            raise ValueError("deflation vector must be nonzero")

        def project(v):
            return v - ((m @ v) / mtm) * m
    else:
        def project(v):
            return v

    pb = project(b)
    bnorm = float(np.linalg.norm(pb))
    x = np.zeros(n) if x0 is None else project(np.array(x0, dtype=np.float64))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    r = project(pb - A @ x if r0 is None else r0)
    rnorm = float(np.linalg.norm(r))
    if rnorm / bnorm <= rel_tol:
        return x, SolveReport(0, rnorm / bnorm, True)

    z = r if precond is None else project(precond(r))
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    least, least_at = rnorm, 0
    for _ in range(max_iter):
        Ap = project(A @ p)
        pAp = float(p @ Ap)
        if not 0.0 < pAp < np.inf:
            # lost positive definiteness, or non-finite data: report
            # non-convergence
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
        rnorm = float(np.linalg.norm(r))
        if rnorm / bnorm <= rel_tol:
            return x, SolveReport(iterations, rnorm / bnorm, True)
        if rnorm < least:
            least, least_at = rnorm, iterations
        elif iterations - least_at >= STAGNATION_ITERATIONS:
            break
        z = r if precond is None else project(precond(r))
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, SolveReport(iterations, rnorm / bnorm, False)


@_QUIET_NON_FINITE
def gmres(A, b, rel_tol=1e-10, restart=30, max_iter=None, x0=None,
          precond=None):
    """Restarted GMRES: one ``scipy.sparse.linalg.gmres`` cycle per restart.

    Right preconditioning, so the monitored residual is the true residual
    of the original system.  ``precond``, a callable v -> M^{-1} v, is the
    right preconditioner; by default it is Jacobi scaling, which a zero
    diagonal entry makes undefined (ValueError).  Each cycle solves
    A M^{-1} y = r for the current residual r and adds M^{-1} y to x;
    scipy's own ``M=`` would precondition on the left and monitor M^{-1} r
    instead.  Before the first cycle GMRES tries the one correction
    x0 + M^{-1} r0 and returns it, as one iteration, when its true
    residual meets ``rel_tol``; otherwise the cycles start from x0, so an
    inexact preconditioner yields the same iterates as without that try.
    The time stepper's transport passes the solve of an exact band factor
    (:class:`BandOrdering`), so that correction is the solution: one
    exact solve and a true-residual check, with the cycles as the fallback.
    Stagnation across a restart cycle (no measurable residual decrease)
    or a non-finite residual terminates the iteration with
    converged=False rather than spinning.

    Returns
    -------
    (x, SolveReport)
    """
    check_number("rel_tol", rel_tol, above=0)
    b = np.asarray(b, dtype=np.float64)
    _check_square(A, b)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n

    if precond is None:
        diag = A.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry: Jacobi preconditioner "
                             "is undefined")
        dinv = 1.0 / diag

        def precond(v):
            return dinv * v

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - A @ x
    res = float(np.linalg.norm(r)) / bnorm
    if rel_tol < res < np.inf and max_iter > 0:
        x1 = x + precond(r)
        res1 = float(np.linalg.norm(b - A @ x1)) / bnorm
        if res1 <= rel_tol:
            return x1, SolveReport(1, res1, True)
    AMinv = spla.LinearOperator(A.shape, matvec=lambda v: A @ precond(v),
                                dtype=np.float64)

    history = []        # scipy's residual estimate, one per iteration
    last = np.inf
    while True:
        if res <= rel_tol:
            return x, SolveReport(len(history), res, True)
        # no measurable decrease, or a non-finite residual
        if not res < last * (1.0 - 1e-12) or len(history) >= max_iter:
            return x, SolveReport(len(history), res, False)
        last = res
        y, _ = spla.gmres(AMinv, r, rtol=0.0, atol=rel_tol * bnorm,
                          restart=min(restart, max_iter - len(history)),
                          maxiter=1, callback=history.append,
                          callback_type="pr_norm")
        x += precond(y)
        r = b - A @ x
        res = float(np.linalg.norm(r)) / bnorm
