"""Sparse assembly helper and the two hand-rolled Krylov solvers,
checked against dense linear algebra on small random systems."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from miscfem import cg_deflated, from_triplets, gmres


def random_spd(n, rng, cond=50.0):
    """Random SPD matrix with a controlled condition number."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (Q * eigs) @ Q.T


def test_from_triplets_accumulates_duplicates():
    A = from_triplets(3, 3, [0, 0, 1, 2], [0, 0, 1, 0], [1.0, 2.0, 5.0, -1.0])
    dense = A.toarray()
    assert dense[0, 0] == 3.0
    assert dense[1, 1] == 5.0
    assert dense[2, 0] == -1.0
    assert A.has_canonical_format


def test_from_triplets_rejects_out_of_range():
    with pytest.raises(ValueError):
        from_triplets(2, 2, [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError):
        from_triplets(2, 2, [0, -1], [0, 0], [1.0, 1.0])


@pytest.mark.parametrize("n", [5, 20, 50])
def test_cg_matches_dense_solve(n, rng):
    A = sp.csr_matrix(random_spd(n, rng))
    b = rng.standard_normal(n)
    x, report = cg_deflated(A, b, rel_tol=1e-13)
    assert report.converged
    assert np.allclose(x, np.linalg.solve(A.toarray(), b),
                       atol=1e-9, rtol=1e-9)


def test_cg_deflated_singular_neumann_like(rng):
    """A graph-Laplacian-style singular system with nullspace = span{m}:
    the deflated solver must return the particular solution orthogonal
    to m, which matches the pseudoinverse answer."""
    n = 30
    L = random_spd(n, rng)
    m = rng.random(n) + 0.5
    # make m an exact null vector: A = P^T L P with P = I - m m^T/(m^T m)
    P = np.eye(n) - np.outer(m, m) / (m @ m)
    A = P.T @ L @ P
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    b -= m * (m @ b) / (m @ m)          # compatible right-hand side
    x, report = cg_deflated(sp.csr_matrix(A), b, deflate=m, rel_tol=1e-12)
    assert report.converged
    assert abs(m @ x) < 1e-9 * np.linalg.norm(x)
    expected = np.linalg.pinv(A) @ b
    expected -= m * (m @ expected) / (m @ m)
    assert np.allclose(x, expected, atol=1e-8)


def test_cg_bordered_factor_preconditioner(rng):
    """A Neumann-like system: kernel = constants, deflation against a
    positive weight vector m.  The LU factor of [[A, m], [m^T, 0]], solved
    with [r, 0], inverts the deflated operator on m-orthogonal vectors, so
    CG preconditioned by it converges in one iteration to the Jacobi-CG
    solution."""
    n = 30
    ones = np.ones(n)
    P1 = np.eye(n) - np.outer(ones, ones) / n
    A = P1 @ random_spd(n, rng) @ P1
    A = 0.5 * (A + A.T)
    m = rng.random(n) + 0.5
    b = rng.standard_normal(n)
    b -= b.mean()                       # compatible: orthogonal to the kernel
    A = sp.csr_matrix(A)
    factor = splu(sp.bmat([[A, m[:, None]], [m[None, :], None]],
                          format="csc"))

    def bordered_solve(r):
        return factor.solve(np.append(r, 0.0))[:n]

    tol = 1e-12
    x_jac, jac = cg_deflated(A, b, deflate=m, rel_tol=tol, jacobi=True)
    x, report = cg_deflated(A, b, deflate=m, rel_tol=tol,
                            precond=bordered_solve)
    assert jac.converged and jac.iterations > 1
    assert report.converged
    assert report.iterations == 1
    assert abs(m @ x) < 1e-12 * np.linalg.norm(m) * np.linalg.norm(x)
    assert np.allclose(x, x_jac, rtol=0, atol=1e-10 * np.linalg.norm(x_jac))
    assert np.allclose(A @ x, b, atol=1e-10 * np.linalg.norm(b))


def test_cg_warm_start_cuts_iterations(rng):
    n = 40
    A = sp.csr_matrix(random_spd(n, rng, cond=200.0))
    b = rng.standard_normal(n)
    x, cold = cg_deflated(A, b, rel_tol=1e-12)
    _, warm = cg_deflated(A, b, rel_tol=1e-12, x0=x)
    assert warm.iterations < cold.iterations
    assert warm.iterations <= 1


def test_cg_zero_rhs_shortcut(rng):
    A = sp.csr_matrix(random_spd(6, rng))
    x, report = cg_deflated(A, np.zeros(6))
    assert np.all(x == 0)
    assert report.converged
    assert report.iterations == 0


def test_cg_rejects_nonsymmetric(rng):
    A = sp.csr_matrix(np.triu(np.ones((4, 4))) + np.eye(4))
    with pytest.raises(ValueError):
        cg_deflated(A, np.ones(4))


def test_cg_jacobi_preconditioning_converges(rng):
    n = 30
    scales = np.geomspace(1.0, 1e4, n)
    A = random_spd(n, rng)
    A = (A * scales).T * scales          # badly scaled SPD
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    x, report = cg_deflated(sp.csr_matrix(A), b, rel_tol=1e-12, jacobi=True)
    assert report.converged
    assert np.allclose(A @ x, b, atol=1e-7 * np.linalg.norm(b))


@pytest.mark.parametrize("n", [5, 20, 50])
def test_gmres_matches_dense_solve(n, rng):
    D = np.diag(np.arange(1.0, n + 1.0))
    N = rng.standard_normal((n, n)) / np.sqrt(n)
    A = sp.csr_matrix(D + N)             # diagonally dominant-ish
    b = rng.standard_normal(n)
    x, report = gmres(A, b, rel_tol=1e-12)
    assert report.converged
    assert np.allclose(x, np.linalg.solve(A.toarray(), b),
                       atol=1e-9, rtol=1e-9)


def test_gmres_restart_still_converges(rng):
    n = 40
    A = sp.csr_matrix(np.diag(np.linspace(1.0, 30.0, n))
                      + 0.1 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    x, report = gmres(A, b, rel_tol=1e-11, restart=7)
    assert report.converged
    assert np.linalg.norm(A @ x - b) < 1e-9 * np.linalg.norm(b)


def test_gmres_zero_diagonal_rejected_with_jacobi():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        gmres(A, np.ones(2), jacobi=True)
    # without the preconditioner the same system is solvable
    x, report = gmres(A, np.array([1.0, 2.0]), jacobi=False)
    assert report.converged
    assert np.allclose(x, [2.0, 1.0], atol=1e-10)


def test_gmres_exact_preconditioner_takes_one_iteration(rng):
    """An exact LU solve as the right preconditioner replaces the Jacobi
    scaling (this matrix has a zero diagonal, which Jacobi rejects) and
    GMRES converges in one iteration."""
    n = 30
    dense = rng.standard_normal((n, n))
    np.fill_diagonal(dense, 0.0)
    A = sp.csc_matrix(dense)
    b = rng.standard_normal(n)
    x, report = gmres(A, b, rel_tol=1e-12, precond=splu(A).solve)
    assert report.converged
    assert report.iterations == 1
    assert report.relative_residual <= 1e-12
    assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-10, rtol=1e-10)


def test_gmres_reports_nonconvergence(rng):
    n = 40
    A = sp.csr_matrix(random_spd(n, rng, cond=1e6))
    b = rng.standard_normal(n)
    x, report = gmres(A, b, rel_tol=1e-14, max_iter=3, restart=3)
    assert not report.converged
    assert report.iterations <= 3
    assert report.relative_residual > 0


def test_solve_report_residual_definition(rng):
    n = 25
    A = sp.csr_matrix(random_spd(n, rng))
    b = rng.standard_normal(n)
    x, report = cg_deflated(A, b, rel_tol=1e-12)
    true_rel = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert report.relative_residual == pytest.approx(true_rel,
                                                     abs=1e-12, rel=1e-3)
