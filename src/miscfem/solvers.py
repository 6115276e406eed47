"""Sparse matrix construction and the two Krylov solvers used by the scheme.

Storage is scipy CSR.  The CG loop is written out here because the pressure
solver needs deflation against a weighted mean constraint; GMRES runs each
restart cycle through ``scipy.sparse.linalg.gmres``.  Both solvers report
iteration counts and true relative residuals in a fixed, reproducible way,
and both take any preconditioner v -> M^{-1} v.  The time
stepper passes GMRES the solve of an exact sparse LU factor of each step's
transport matrix, so GMRES converges in one iteration and still reports its
residual; it passes CG the solve of a lagged LU factor of the bordered
Neumann pressure system, which CG keeps across steps while the
concentration drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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


def _check_square(A, b):
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if b.shape != (n,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},)")


def _symmetry_defect(A) -> float:
    d = A - A.T
    return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))


def cg_deflated(A, b, deflate=None, rel_tol=1e-11, max_iter=None, x0=None,
                precond=None):
    """Conjugate gradients, optionally deflated against one vector.

    With ``deflate = m`` the iteration runs in the subspace orthogonal to m
    (projector P = I - m m^T / m^T m applied to the right-hand side and to
    every residual), which makes a consistent singular system whose kernel
    is not m-orthogonal solvable; the returned solution x satisfies
    m^T x = 0 up to roundoff and the report carries the projected residual
    ||P(b - A x)|| / ||P b||.

    Parameters
    ----------
    A : scipy sparse matrix, symmetric (checked) positive definite on the
        iteration subspace
    deflate : vector m or None
    precond : callable v -> M^{-1} v, symmetric positive definite on the
        iteration subspace, or None for plain CG.  The preconditioned
        residual is projected like every other iterate.

    Returns
    -------
    (x, SolveReport)
    """
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
    x = np.zeros(n) if x0 is None else project(np.asarray(x0, dtype=np.float64))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    r = project(pb - A @ x)
    rnorm = float(np.linalg.norm(r))
    if rnorm / bnorm <= rel_tol:
        return x, SolveReport(0, rnorm / bnorm, True)

    z = r if precond is None else project(precond(r))
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    for _ in range(max_iter):
        Ap = project(A @ p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break  # lost positive definiteness: report non-convergence
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
        rnorm = float(np.linalg.norm(r))
        if rnorm / bnorm <= rel_tol:
            return x, SolveReport(iterations, rnorm / bnorm, True)
        z = r if precond is None else project(precond(r))
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, SolveReport(iterations, rnorm / bnorm, False)


def gmres(A, b, rel_tol=1e-10, restart=30, max_iter=None, x0=None,
          precond=None):
    """Restarted GMRES: one ``scipy.sparse.linalg.gmres`` cycle per restart.

    Right preconditioning, so the monitored residual is the true residual
    of the original system.  ``precond``, a callable v -> M^{-1} v, is the
    right preconditioner; by default it is Jacobi scaling, which a zero
    diagonal entry makes undefined (ValueError).  Each cycle solves
    A M^{-1} y = r for the current residual r and adds M^{-1} y to x;
    scipy's own ``M=`` would precondition on the left and monitor M^{-1} r
    instead.  Stagnation across a restart cycle (no measurable residual
    decrease) terminates the iteration with converged=False rather than
    spinning.

    Returns
    -------
    (x, SolveReport)
    """
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
    AMinv = spla.LinearOperator(A.shape, matvec=lambda v: A @ precond(v),
                                dtype=np.float64)

    history = []        # scipy's residual estimate, one per iteration
    last = np.inf
    while True:
        r = b - A @ x
        res = float(np.linalg.norm(r)) / bnorm
        if res <= rel_tol:
            return x, SolveReport(len(history), res, True)
        if res >= last * (1.0 - 1e-12) or len(history) >= max_iter:
            return x, SolveReport(len(history), res, False)
        last = res
        y, _ = spla.gmres(AMinv, r, rtol=0.0, atol=rel_tol * bnorm,
                          restart=min(restart, max_iter - len(history)),
                          maxiter=1, callback=history.append,
                          callback_type="pr_norm")
        x += precond(y)
