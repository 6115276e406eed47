"""Sparse matrix construction and the two Krylov solvers used by the scheme.

Storage is scipy CSR; the iteration loops are written out here because the
pressure solver needs deflation against a weighted mean constraint and both
solvers must report iteration counts and residuals in a fixed, reproducible
way.  Both solvers take Jacobi scaling or any preconditioner
v -> M^{-1} v.  The time stepper passes GMRES the solve of an exact sparse
LU factor of each step's transport matrix, so GMRES converges in one
iteration and still reports its residual; it passes CG the solve of a
lagged LU factor of the bordered Neumann pressure system, which CG keeps
across steps while the concentration drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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
    A = sp.coo_matrix((values, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


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
                jacobi=False, precond=None):
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
    jacobi : precondition with inverse diagonal (projected PCG)
    precond : callable v -> M^{-1} v, symmetric positive definite on the
        iteration subspace; replaces the Jacobi scaling when given
        (``jacobi`` is then ignored).  The preconditioned residual is
        projected like every other iterate.

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

    if precond is None and jacobi:
        diag = A.diagonal()
        if np.any(diag <= 0):
            raise ValueError("Jacobi preconditioning needs positive diagonal")
        dinv = 1.0 / diag

        def precond(v):
            return dinv * v

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


def gmres(A, b, rel_tol=1e-10, restart=30, max_iter=None, jacobi=True,
          x0=None, precond=None):
    """Restarted GMRES with modified Gram-Schmidt and Givens rotations.

    Right Jacobi preconditioning by default, so the monitored residual is
    the true residual of the original system.  ``precond``, a callable
    v -> M^{-1} v, replaces the Jacobi scaling as the right preconditioner
    when given (``jacobi`` is then ignored).  Stagnation across a restart
    cycle (no measurable residual decrease) terminates the iteration with
    converged=False rather than spinning.

    Returns
    -------
    (x, SolveReport)
    """
    b = np.asarray(b, dtype=np.float64)
    _check_square(A, b)
    n = b.size
    if max_iter is None:
        max_iter = 10 * n
    restart = min(restart, n)

    if precond is None and jacobi:
        diag = A.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry: Jacobi preconditioner "
                             "is undefined")
        dinv = 1.0 / diag

        def precond(v):
            return dinv * v
    elif precond is None:
        def precond(v):
            return v

    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()

    total = 0
    last_cycle_res = np.inf
    res = np.inf
    while total < max_iter:
        r = b - A @ x
        beta = float(np.linalg.norm(r))
        res = beta / bnorm
        if res <= rel_tol:
            return x, SolveReport(total, res, True)
        if res >= last_cycle_res * (1.0 - 1e-12):
            return x, SolveReport(total, res, False)  # stagnated
        last_cycle_res = res

        V = np.zeros((restart + 1, n))
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        V[0] = r / beta
        g[0] = beta

        k = 0
        breakdown = False
        for j in range(restart):
            if total >= max_iter:
                break
            w = A @ precond(V[j])
            total += 1
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = float(np.linalg.norm(w))
            if H[j + 1, j] > 0.0:
                V[j + 1] = w / H[j + 1, j]
            else:
                breakdown = True

            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j] = H[j, j] / denom
            sn[j] = H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]

            k = j + 1
            if abs(g[k]) / bnorm <= rel_tol or breakdown:
                break

        if k:
            y = np.linalg.solve(H[:k, :k], g[:k])  # upper triangular after Givens
            x += precond(V[:k].T @ y)
        if breakdown:
            r = b - A @ x
            res = float(np.linalg.norm(r)) / bnorm
            return x, SolveReport(total, res, res <= rel_tol)

    r = b - A @ x
    res = float(np.linalg.norm(r)) / bnorm
    return x, SolveReport(total, res, res <= rel_tol)
