"""Sparse assembly helper and the two Krylov solvers (deflated CG written
out, restarted GMRES over scipy cycles), checked against dense linear
algebra on small random systems."""

import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spilu, splu

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (bordered_neumann_solve, cg_deflated_oracle,
                     gmres_cycles_oracle)

from miscfem import (SolveReport, TimeGrid, assemble_pressure,
                     build_discretization, cg_deflated, disk_trig_case,
                     from_triplets, generate_disk_mesh, gmres, interpolate,
                     problem_coefficients, run, solvers, sparsity_pattern)
from miscfem.solvers import _symmetry_defect, deflated_start, number_pairs
from miscfem.timestepping import _pinned_factor


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


@st.composite
def cell_maps(draw):
    """(n, cell_dofs, seed): T cells of k = 3 (P1-like) or 6 (P2-like)
    dofs drawn from n, so dofs repeat across and within cells."""
    k = draw(st.sampled_from([3, 6]))
    n = draw(st.integers(1, 3 * k))
    T = draw(st.integers(1, 6))
    dofs = draw(st.lists(st.integers(0, n - 1), min_size=T * k,
                         max_size=T * k))
    return n, np.array(dofs).reshape(T, k), draw(st.integers(0, 2**32 - 1))


def triplet_matrix(n, cell_dofs, local):
    T, k = cell_dofs.shape
    rows = np.broadcast_to(cell_dofs[:, :, None], (T, k, k))
    cols = np.broadcast_to(cell_dofs[:, None, :], (T, k, k))
    return from_triplets(n, n, rows, cols, local)


@settings(max_examples=300)
@given(cell_maps())
def test_pattern_assembly_matches_from_triplets(case):
    """The fixed pattern has from_triplets' canonical structure.  The two
    sum duplicates in different orders: with d positive summands every
    order rounds d - 1 partial sums, none above the result, so an entry
    differs by at most (d - 1)/2 (ulp(a) + ulp(b)) -- 4 units in the last
    place where at most five meet -- and by nothing when every partial
    sum is exact.  The transpose permutation gives the data of the
    transposed assembly."""
    n, cell_dofs, seed = case
    rng = np.random.default_rng(seed)
    pattern = sparsity_pattern(n, cell_dofs)
    local = rng.uniform(1.0, 2.0, size=cell_dofs.shape + cell_dofs.shape[-1:])
    A, B = pattern.assemble(local), triplet_matrix(n, cell_dofs, local)
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    summands = np.bincount(pattern.slots.ravel())
    ulps = 0.5 * (np.spacing(A.data) + np.spacing(B.data))
    assert np.all(np.abs(A.data - B.data) <= (summands - 1) * ulps)

    # integers: every order of summation gives the same bits
    whole = rng.integers(-2**20, 2**20, size=local.shape).astype(float)
    A, B = pattern.assemble(whole), triplet_matrix(n, cell_dofs, whole)
    assert np.array_equal(A.data, B.data)
    At = pattern.assemble(whole.transpose(0, 2, 1))
    assert np.array_equal(A.data[pattern.transpose], At.data)
    assert np.array_equal(A.data[pattern.transpose], B.T.tocsr().data)


@st.composite
def covering_maps(draw):
    """(n, cell_dofs, seed) like ``cell_maps``, but every dof of n is in
    some cell, so that every diagonal entry is in the pattern."""
    k = draw(st.sampled_from([3, 6]))
    T = draw(st.integers(1, 6))
    n = draw(st.integers(1, T * k))
    extra = draw(st.lists(st.integers(0, n - 1), min_size=T * k - n,
                          max_size=T * k - n))
    dofs = draw(st.permutations(list(range(n)) + extra))
    return n, np.array(dofs).reshape(T, k), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100)
@given(covering_maps())
def test_band_ordering_permutes_the_pattern(case):
    """The pattern keeps one ordering: ``order`` and ``position`` are
    inverse permutations, the half-bandwidth k is the widest reach of the
    reordered pattern, the LU slots scatter any A on the pattern into
    LAPACK's (3k + 1, n) storage of A[q][:, q] and the Cholesky slots its
    lower triangle into the (k + 1, n) storage, and the LU factor's solve
    matches a dense solve on a diagonally dominant A."""
    n, cell_dofs, seed = case
    rng = np.random.default_rng(seed)
    pattern = sparsity_pattern(n, cell_dofs)
    band = pattern.band
    assert pattern.band is band
    q, position, k = band.order, band.position, band.half_bandwidth
    assert np.array_equal(np.sort(q), np.arange(n))
    assert np.array_equal(position[q], np.arange(n))
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    assert k == np.max(np.abs(position[rows] - position[pattern.indices]))

    local = rng.uniform(-1.0, 1.0,
                        size=cell_dofs.shape + cell_dofs.shape[-1:])
    A = pattern.assemble(local)
    storage = np.zeros((3 * k + 1) * n)
    storage[band.lu_slots] = A.data
    storage = storage.reshape(3 * k + 1, n, order="F")
    i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n),
                                               np.arange(n))) <= k)
    dense = np.zeros((n, n))
    dense[i, j] = storage[2 * k + i - j, j]
    assert np.array_equal(dense, A.toarray()[q][:, q])
    assert not storage[:k].any()        # the rows for the pivoting fill

    lower = np.zeros((k + 1) * n + 1)   # the last slot takes the upper half
    lower[band.cholesky_slots] = A.data
    lower = lower[:-1].reshape(k + 1, n, order="F")
    i, j = i[i >= j], j[i >= j]
    dense = np.zeros((n, n))
    dense[i, j] = lower[i - j, j]
    assert np.array_equal(dense, np.tril(A.toarray()[q][:, q]))

    diagonal = np.flatnonzero(pattern.indices == rows)
    A.data[diagonal] += 1.0 + np.add.reduceat(np.abs(A.data),
                                             pattern.indptr[:-1])
    b = rng.standard_normal(n)
    np.testing.assert_allclose(band.lu(A)(b),
                               np.linalg.solve(A.toarray(), b),
                               rtol=1e-10, atol=1e-12)


def symmetric_on_pattern(pattern, cell_dofs, rng):
    """A symmetric, strictly diagonally dominant matrix with positive
    diagonal on the pattern, so positive definite, and its diagonal's
    positions in the data."""
    local = rng.uniform(-1.0, 1.0,
                        size=cell_dofs.shape + cell_dofs.shape[-1:])
    A = pattern.assemble(local + local.transpose(0, 2, 1))
    rows = np.repeat(np.arange(pattern.size), np.diff(pattern.indptr))
    diagonal = np.flatnonzero(pattern.indices == rows)
    A.data[diagonal] += 1.0 + np.add.reduceat(np.abs(A.data),
                                             pattern.indptr[:-1])
    return A, diagonal


@settings(max_examples=100)
@given(covering_maps())
def test_band_cholesky_solves_symmetric_positive_definite_matrices(case):
    """The band Cholesky factor's solve of a random symmetric positive
    definite matrix on a pattern matches a dense solve; with the diagonal
    entry that the ordering puts last negated, the matrix is indefinite
    (or, for n = 1, negative), and the factorization refuses it at that
    last pivot with a RuntimeError naming it."""
    n, cell_dofs, seed = case
    rng = np.random.default_rng(seed)
    pattern = sparsity_pattern(n, cell_dofs)
    A, diagonal = symmetric_on_pattern(pattern, cell_dofs, rng)
    b = rng.standard_normal(n)
    np.testing.assert_allclose(pattern.band.cholesky(A)(b),
                               np.linalg.solve(A.toarray(), b),
                               rtol=1e-10, atol=1e-12)
    A.data[diagonal[pattern.band.order[-1]]] *= -1.0
    with pytest.raises(RuntimeError, match=rf"pivot {n} is not positive"):
        pattern.band.cholesky(A)


@settings(max_examples=100)
@given(cell_maps())
def test_pattern_symmetry_check(case):
    """On a pattern the symmetry defect is read off a permutation of the
    data; it equals the defect of A - A.T, and CG still refuses a
    nonsymmetric matrix."""
    n, cell_dofs, seed = case
    i, j = cell_dofs[0, :2]
    assume(i != j)
    rng = np.random.default_rng(seed)
    local = rng.uniform(1.0, 2.0, size=cell_dofs.shape + cell_dofs.shape[-1:])
    pattern = sparsity_pattern(n, cell_dofs)
    symmetric = local + local.transpose(0, 2, 1)
    S = pattern.assemble(symmetric)
    assert S.pattern is pattern and S.indptr is pattern.indptr
    assert _symmetry_defect(S) == _symmetry_defect(S.copy()) < 1e-12
    symmetric[0, 0, 1] += 1.0     # entry (i, j) of cell 0, not (j, i)
    A = pattern.assemble(symmetric)
    assert _symmetry_defect(A) == _symmetry_defect(A.copy()) > 0.5
    with pytest.raises(ValueError, match="matrix is not symmetric"):
        cg_deflated(A, np.ones(n))


def test_pattern_assemblies_own_their_data(rng):
    """Assemblies on one pattern are distinct matrices that share only
    the pattern's index arrays: writing into one's data changes neither
    another nor a later assembly, and each behaves as the matrix scipy
    builds from the same arrays."""
    cell_dofs = np.array([[0, 1, 2], [2, 1, 3], [3, 4, 0]])
    pattern = sparsity_pattern(5, cell_dofs)
    local = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
    # the first assembly on a pattern is built apart from the later ones
    first, A, B = (pattern.assemble(local) for _ in range(3))
    for M, N in ((first, A), (A, B)):
        assert M is not N and not np.shares_memory(M.data, N.data)
    for M in (first, A, B):
        assert M.indptr is pattern.indptr and M.pattern is pattern
    want = B.data.copy()
    A.data[:] = -7.0
    assert np.array_equal(B.data, want)
    twice = pattern.assemble(2.0 * local)
    assert np.array_equal(twice.data, 2.0 * want)
    assert np.array_equal(B.data, want)

    C = pattern.assemble(local)
    built = sp.csr_matrix((C.data.copy(), pattern.indices, pattern.indptr),
                          shape=(5, 5))
    x = rng.standard_normal(5)
    assert np.array_equal(C @ x, built @ x)
    assert np.array_equal(C.T.toarray(), built.T.toarray())
    assert np.array_equal(C.tocsc().toarray(), built.tocsc().toarray())
    assert C.has_canonical_format and built.has_canonical_format


def test_a_dropped_discretization_frees_its_patterns_without_the_gc():
    """No reference cycle runs through a pattern: with the cyclic garbage
    collector off, a discretization's pattern dies with it, after its
    assemblies have built and kept what they reuse."""
    disc = build_discretization(generate_disk_mesh(M=8))
    disc.p2_pattern.assemble(np.ones((disc.mesh.num_triangles, 6, 6)))
    patterns = [weakref.ref(disc.p1_pattern), weakref.ref(disc.p2_pattern)]
    gc.disable()
    try:
        del disc
        assert [ref() for ref in patterns] == [None, None]
    finally:
        gc.enable()


@st.composite
def two_level_maps(draw):
    """Cell maps numbered as P2 numbers its dofs: the first three local
    dofs of each cell below m, the other three at or above it."""
    m, extra, T = (draw(st.integers(1, 8)) for _ in range(3))
    low = draw(st.lists(st.integers(0, m - 1), min_size=3 * T,
                        max_size=3 * T))
    high = draw(st.lists(st.integers(m, m + extra - 1), min_size=3 * T,
                         max_size=3 * T))
    cell_dofs = np.hstack([np.reshape(low, (T, 3)), np.reshape(high, (T, 3))])
    return m, m + extra, cell_dofs


@given(two_level_maps())
def test_leading_block_is_the_pattern_of_the_leading_dofs(case):
    m, n, cell_dofs = case
    block = sparsity_pattern(n, cell_dofs).leading_block(m, 3)
    direct = sparsity_pattern(m, cell_dofs[:, :3])
    assert block.size == direct.size == m
    for name in ("indptr", "indices", "slots", "transpose"):
        assert np.array_equal(getattr(block, name), getattr(direct, name))


@pytest.mark.parametrize("cell_dofs, m", [
    ([[0, 1, 2, 3], [2, 3, 0, 1]], 2),     # leading dofs 2, 3 above m
    ([[0, 1, 2, 3]], 3),                   # trailing dof 2 below m
])
def test_leading_block_refuses_maps_not_numbered_leading_first(cell_dofs, m):
    pattern = sparsity_pattern(4, cell_dofs)
    with pytest.raises(ValueError, match="not its only dofs below"):
        pattern.leading_block(m, 2)


def check_slot_sets(pattern, cell_dofs, rng):
    """``diagonal``, ``upper`` and ``lower`` of ``pattern`` are exactly the
    slots with column equal to, above and below their row, ``lower``
    mirroring ``upper`` slot for slot, all read-only, kept and of the
    dtype of ``indices``; the symmetry defect read off them is 0 for a
    symmetric matrix and, with one off-diagonal slot perturbed, that of
    the dense A - A.T."""
    rows = np.repeat(np.arange(pattern.size), np.diff(pattern.indptr))
    cols = pattern.indices
    assert np.array_equal(pattern.diagonal, np.flatnonzero(cols == rows))
    assert np.array_equal(pattern.upper, np.flatnonzero(cols > rows))
    assert np.array_equal(pattern.lower, pattern.transpose[pattern.upper])
    assert np.array_equal(np.sort(pattern.lower), np.flatnonzero(cols < rows))
    for name in ("diagonal", "upper", "lower"):
        slots = getattr(pattern, name)
        assert not slots.flags.writeable
        assert slots.dtype == pattern.indices.dtype
        assert getattr(pattern, name) is slots

    # integer entries: every order of summation gives a symmetric sum
    whole = rng.integers(-2**20, 2**20, size=cell_dofs.shape
                         + cell_dofs.shape[-1:]).astype(float)
    A = pattern.assemble(whole + whole.transpose(0, 2, 1))
    assert np.array_equal(A.data[pattern.diagonal],
                          A.diagonal()[cols[pattern.diagonal]])
    assert _symmetry_defect(A) == 0.0
    off = np.concatenate([pattern.upper, pattern.lower])
    if off.size:
        A.data[rng.choice(off)] += rng.uniform(-1.0, 1.0)
        dense = A.toarray()
        assert _symmetry_defect(A) == np.max(np.abs(dense - dense.T)) > 0.0


@settings(max_examples=200)
@given(cell_maps())
def test_pattern_slot_sets(case):
    n, cell_dofs, seed = case
    check_slot_sets(sparsity_pattern(n, cell_dofs), cell_dofs,
                    np.random.default_rng(seed))


@given(two_level_maps(), st.integers(0, 2**32 - 1))
def test_leading_block_slot_sets(case, seed):
    m, n, cell_dofs = case
    block = sparsity_pattern(n, cell_dofs).leading_block(m, 3)
    check_slot_sets(block, cell_dofs[:, :3], np.random.default_rng(seed))


def test_sparsity_pattern_without_room_to_pack_positions():
    """When n * n with the entry positions in its low bits would overflow
    int64 the keys cannot be packed, and the pattern is refused; a mesh
    of the largest admitted resolution is far from that."""
    cell_dofs = np.random.default_rng(3).integers(0, 5000, (28000, 6))
    assert (3_500_000 ** 2) << (cell_dofs.size * 6).bit_length() > 2**63
    with pytest.raises(ValueError, match="do not fit in int64"):
        sparsity_pattern(3_500_000, cell_dofs)


@settings(max_examples=200)
@given(st.integers(1, 40), st.booleans(), st.data())
def test_number_pairs_matches_np_unique(count, wide, data):
    """Sorted distinct keys, first occurrences and inverse as np.unique
    gives them, with the positions packed into the keys' low bits; for n
    this wide the packed keys would leave int64, which is a ValueError."""
    n = 3_000_000_000 if wide else data.draw(st.integers(1, 12))
    pairs = st.lists(st.integers(0, min(n, 12) - 1), min_size=count,
                     max_size=count)
    rows, cols = (np.array(data.draw(pairs)) for _ in range(2))
    if wide:
        rows = rows * 250_000_000      # spread over [0, n)
        with pytest.raises(ValueError, match="do not fit in int64"):
            number_pairs(rows, cols, n)
        return
    keys = rows * n + cols
    distinct, first, inverse = number_pairs(rows, cols, n)
    want = np.unique(keys, return_index=True, return_inverse=True)
    for got, expected in zip((distinct, first, inverse), want):
        assert np.array_equal(got, expected)


def test_sparsity_pattern_rejects_out_of_range():
    with pytest.raises(ValueError):
        sparsity_pattern(2, [[0, 2, 1]])
    with pytest.raises(ValueError):
        sparsity_pattern(2, [[0, -1, 1]])


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
    bordered_solve, _ = bordered_neumann_solve(A, m)
    tol = 1e-12
    x_jac, jac = cg_deflated(A, b, deflate=m, rel_tol=tol,
                             precond=lambda v: v / A.diagonal())
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


@st.composite
def start_problems(draw):
    """A matrix that is symmetric positive definite on m-perp (semidefinite
    with the constants as its kernel, as the Neumann stiffness, or
    definite), a right-hand side, m > 0, and a window of one to eight
    vectors among which are duplicates, exact multiples and zeros, with n
    from 2, so that the window may be longer than b."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = random_spd(n, rng, cond=draw(st.sampled_from([2.0, 1e3])))
    if draw(st.booleans()):
        P1 = np.eye(n) - 1.0 / n
        A = P1 @ A @ P1
    m = rng.random(n) + 0.5
    window = []
    for kind in draw(st.lists(st.sampled_from(["new", "copy", "multiple",
                                               "zero"]),
                              min_size=1, max_size=8)):
        if kind == "zero":
            window.append(np.zeros(n))
        elif kind == "new" or not window:
            window.append(rng.standard_normal(n))
        else:
            v = window[draw(st.integers(0, len(window) - 1))]
            scale = 1.0 if kind == "copy" else draw(st.sampled_from(
                [-2.0, 0.5, 4.0]))
            window.append(scale * v)        # exact: a power of two
    if draw(st.booleans()):                 # pressures are m-orthogonal
        window = [v - (m @ v) / (m @ m) * m for v in window]
    return sp.csr_matrix(0.5 * (A + A.T)), rng.standard_normal(n), m, window


@settings(max_examples=300)
@given(start_problems())
def test_deflated_start_beats_every_window_vector(problem):
    """The start minimises the deflated residual over the window's span:
    it is finite and m-orthogonal, raises no warning, comes with its own
    residual b - A x0, and its deflated residual is at most that of every
    window vector and of the extrapolation 2 w0 - w1 (each projected, as
    CG projects its start), up to rounding.  Its residual profile falls
    from ||P b|| to that residual, one entry per window vector that fits
    in m-perp."""
    A, b, m, window = problem

    def project(v):
        return v - (m @ v) / (m @ m) * m

    def residual(x):
        return np.linalg.norm(project(b - A @ project(x)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x0, r0, residuals = deflated_start(A, b, m, tuple(window))
    assert np.all(np.isfinite(x0)) and np.all(np.isfinite(r0))
    scale = np.linalg.norm(b) + abs(A).max() * np.linalg.norm(x0)
    assert abs(m @ x0) <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(x0)
    assert np.linalg.norm(r0 - (b - A @ x0)) <= 1e-12 * scale
    assert residuals.shape == (min(len(window) + 1, b.size),)
    assert np.all(np.diff(residuals) <= 0.0)
    assert abs(residuals[0] - np.linalg.norm(project(b))) <= 1e-12 * scale
    assert abs(residuals[-1] - residual(x0)) <= 1e-12 * scale
    candidates = window + ([2.0 * window[0] - window[1]]
                           if len(window) > 1 else [])
    best = residual(x0)
    for x in candidates:
        assert best <= (1.0 + 1e-8) * residual(x)


@pytest.mark.parametrize("n, width", [(30, 8), (6, 8), (2, 1)])
def test_deflated_start_reports_the_residual_of_each_window_prefix(
        rng, n, width):
    """Entry j of the start's residual profile is the deflated residual of
    the start over the first j window vectors, to rounding, for each j up
    to the window's width or to n - 1, the dimension of m-perp, which a
    wider window spans: its last entry is then 0."""
    A = sp.csr_matrix(random_spd(n, rng, cond=1e3))
    b, m = rng.standard_normal(n), rng.random(n) + 0.5
    window = tuple(rng.standard_normal((width, n)))

    def project(v):
        return v - (m @ v) / (m @ m) * m

    _, _, residuals = deflated_start(A, b, m, window)
    assert residuals.size == min(width + 1, n)
    scale = np.linalg.norm(b)
    for j, reported in enumerate(residuals):
        _, r0, _ = deflated_start(A, b, m, window[:j])
        assert abs(reported - np.linalg.norm(project(r0))) <= 1e-12 * scale
    if width >= n - 1:
        assert residuals[-1] == 0.0


def test_cg_reads_its_first_residual_from_r0(rng):
    """Given r0 = b - A x0, CG runs the iteration it runs without it, bit
    for bit, without the matvec that computes it; r0 is taken as given,
    so a zero r0 ends the solve at x0.  The caller's x0 is left as it
    was, with or without deflation."""
    n = 40
    A = sp.csr_matrix(random_spd(n, rng, cond=200.0))
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    start = x0.copy()
    x, report = cg_deflated(A, b, rel_tol=1e-12, x0=x0)
    given, given_report = cg_deflated(A, b, rel_tol=1e-12, x0=x0,
                                      r0=b - A @ x0)
    assert report.iterations > 1 and given_report == report
    assert np.array_equal(given, x)
    stop, stop_report = cg_deflated(A, b, x0=x0, r0=np.zeros(n))
    assert stop_report == SolveReport(0, 0.0, True)
    assert np.array_equal(stop, x0) and stop is not x0
    assert np.array_equal(x0, start)


def cg_problem(rng, n=40):
    """An SPD system with a start, its residual, a deflation vector and a
    Jacobi preconditioner."""
    A = sp.csr_matrix(random_spd(n, rng, cond=200.0))
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    diagonal = A.diagonal()
    return A, b, x0, b - A @ x0, rng.random(n) + 0.5, lambda v: v / diagonal


@pytest.mark.parametrize("deflated", [False, True])
@pytest.mark.parametrize("preconditioned", [False, True])
def test_cg_never_writes_into_its_arguments(rng, deflated, preconditioned):
    """CG updates in place, but b, x0, r0 and the deflation vector hold
    after a solve what they held before it."""
    A, b, x0, r0, m, jacobi = cg_problem(rng)
    given = (b, x0, r0, m)
    before = [v.copy() for v in given]
    _, report = cg_deflated(A, b, deflate=m if deflated else None,
                            rel_tol=1e-12, x0=x0, r0=r0,
                            precond=jacobi if preconditioned else None)
    assert report.converged and report.iterations > 1
    for now, then in zip(given, before):
        assert np.array_equal(now, then)


@pytest.mark.parametrize("deflated", [False, True])
def test_cg_identity_preconditioner_may_return_its_input(rng, deflated):
    """A preconditioner that returns its input array gives the solve of
    one that returns a copy, bit for bit."""
    A, b, x0, r0, m, _ = cg_problem(rng)
    solves = [cg_deflated(A, b, deflate=m if deflated else None,
                          rel_tol=1e-12, x0=x0, r0=r0, precond=precond)
              for precond in (lambda v: v, lambda v: v.copy())]
    (x, report), (x_copy, report_copy) = solves
    assert report.converged and report == report_copy
    assert np.array_equal(x, x_copy)


def assert_matches_cg_oracle(A, b, **kwargs):
    # the allocating loop writes into r0 when it does not deflate
    copies = {key: value.copy() if isinstance(value, np.ndarray) else value
              for key, value in kwargs.items()}
    want, (iterations, residual, converged) = cg_deflated_oracle(A, b,
                                                                 **copies)
    x, report = cg_deflated(A, b, **kwargs)
    assert report == SolveReport(iterations, residual, converged)
    assert np.array_equal(x.view(np.uint64), want.view(np.uint64))
    return report


@pytest.mark.parametrize("variant", ["plain", "deflated", "jacobi", "start"])
def test_cg_matches_the_allocating_loop_on_criterion_5s_system(rng,
                                                                variant):
    """On criterion 5's 50 x 50 system (eigenvalues 1 to 1e4,
    ``rel_tol=1e-13``) the in-place CG gives the iterates, the report and
    the solution of the loop that allocated every vector, bit for bit."""
    n = 50
    rows, cols = [idx.ravel() for idx in np.mgrid[0:n, 0:n]]
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spd = (basis * np.geomspace(1.0, 1e4, n)) @ basis.T
    A = from_triplets(n, n, rows, cols, spd.ravel())
    b, x0 = rng.standard_normal(n), rng.standard_normal(n)
    kwargs = {"plain": {},
              "deflated": {"deflate": rng.random(n) + 0.5},
              "jacobi": {"precond": lambda v: v / spd.diagonal()},
              "start": {"x0": x0, "r0": b - A @ x0}}[variant]
    report = assert_matches_cg_oracle(A, b, rel_tol=1e-13, **kwargs)
    assert report.converged and report.iterations > 10


def test_cg_matches_the_allocating_loop_on_a_pressure_system(disc16):
    """On the pressure system of step 3 at M = 16, preconditioned as the
    time stepper does with the pinned factor of level 0, and from a cold
    and a projected start, the in-place CG matches the allocating loop
    bit for bit."""
    coeffs = problem_coefficients(disk_trig_case())
    grid = TimeGrid(final_time=3.0 / 32.0, num_steps=3)
    state, _ = run(disc16, coeffs, grid)
    first = assemble_pressure(
        disc16, coeffs, interpolate(disc16.p1, coeffs.initial_concentration),
        0.0).matrix
    system = assemble_pressure(disc16, coeffs, state.concentration,
                               grid.time(3))
    A, m = system.matrix, disc16.p2_basis_integrals
    factor = _pinned_factor(disc16, first, 0)
    scale = np.sqrt(first.diagonal() / A.diagonal())

    def precond(r):
        return scale * factor(scale * r)

    x0, r0, _ = deflated_start(A, system.rhs, m, state.level.window[1:])
    for start in ({}, {"x0": x0, "r0": r0}):
        report = assert_matches_cg_oracle(A, system.rhs, deflate=m,
                                          rel_tol=1e-11, precond=precond,
                                          **start)
        assert report.converged and report.iterations > 1


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


@st.composite
def near_threshold_matrices(draw):
    """Small symmetric matrices of scale 1e-3 to 1e6 with one entry off
    its mirror by up to three times the refusal threshold
    1e-12 max(max |a_ij|, 1), and some with a NaN or infinite entry."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.uniform(-1.0, 1.0, (n, n))
    dense = (dense + dense.T) * 10.0 ** draw(st.floats(-3.0, 6.0))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    dense[i, j] += (draw(st.integers(0, 300)) / 100.0
                    * 1e-12 * max(np.abs(dense).max(), 1.0))
    bad = draw(st.sampled_from([None] * 3 + [np.nan, np.inf, -np.inf]))
    if bad is not None:
        dense[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = bad
    return dense


@settings(max_examples=300)
@given(near_threshold_matrices(), st.booleans())
def test_cg_refuses_what_the_scaled_threshold_refuses(dense, on_pattern):
    """CG reads the scale max |a_ij| only for a defect above 1e-12, and
    refuses exactly the matrices that ``defect > 1e-12 max(scale, 1)``
    refuses, on a pattern and off one."""
    n = dense.shape[0]
    if on_pattern:
        A = sparsity_pattern(n, [np.arange(n)]).assemble(dense[None])
    else:
        A = sp.csr_matrix(dense)
    with np.errstate(invalid="ignore"):     # inf - inf
        defect = _symmetry_defect(A)
    scale = float(np.max(np.abs(A.data))) if A.nnz else 0.0
    refused = defect > 1e-12 * max(scale, 1.0)
    try:
        cg_deflated(A, np.ones(n), max_iter=1)
    except ValueError as exc:
        assert refused, exc
        assert "matrix is not symmetric" in str(exc)
    else:
        assert not refused


def test_cg_stops_when_its_residual_stagnates(rng):
    """On the Neumann-like system of the bordered preconditioner test, a
    tolerance below what rounding lets CG reach ends the solve,
    unconverged, STAGNATION_ITERATIONS iterations after its least
    residual, long before its budget of 10 n; up to there the iterates
    are those of the same solve to a tolerance it reaches."""
    n = 30
    ones = np.ones(n)
    P1 = np.eye(n) - np.outer(ones, ones) / n
    A = sp.csr_matrix(P1 @ random_spd(n, rng, cond=1e4) @ P1)
    A = 0.5 * (A + A.T)
    m = rng.random(n) + 0.5
    b = rng.standard_normal(n)
    b -= b.mean()
    solve, _ = bordered_neumann_solve(A, m)

    def cg(rel_tol, max_iter=None):
        return cg_deflated(A, b, deflate=m, rel_tol=rel_tol,
                           max_iter=max_iter, precond=solve)

    _, report = cg(1e-300)
    assert not report.converged
    residuals = [cg(1e-300, k)[1].relative_residual
                 for k in range(1, report.iterations + 1)]
    least = int(np.argmin(residuals)) + 1
    assert report.iterations == least + solvers.STAGNATION_ITERATIONS
    assert report.iterations < 10 * n
    assert residuals[least - 1] < 1e-14
    x, reached = cg(1e-12)
    assert reached.converged
    assert np.array_equal(x, cg(1e-300, reached.iterations)[0])


def test_cg_jacobi_preconditioning_converges(rng):
    n = 30
    scales = np.geomspace(1.0, 1e4, n)
    A = random_spd(n, rng)
    A = (A * scales).T * scales          # badly scaled SPD
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    A = sp.csr_matrix(A)
    x, report = cg_deflated(A, b, rel_tol=1e-12,
                            precond=lambda v: v / A.diagonal())
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
        gmres(A, np.ones(2))
    # without the preconditioner the same system is solvable
    x, report = gmres(A, np.array([1.0, 2.0]), precond=lambda v: v)
    assert report.converged
    assert np.allclose(x, [2.0, 1.0], atol=1e-10)


def test_gmres_exact_preconditioner_takes_one_iteration(rng):
    """An exact LU solve as the right preconditioner replaces the Jacobi
    scaling (this matrix has a zero diagonal, which Jacobi rejects) and
    GMRES converges in one iteration: the first correction x0 + M^{-1} r0
    is the solution, so the factor is applied once and no cycle runs."""
    n = 30
    dense = rng.standard_normal((n, n))
    np.fill_diagonal(dense, 0.0)
    A = sp.csc_matrix(dense)
    b = rng.standard_normal(n)
    factor = splu(A)
    applications = []

    def precond(v):
        applications.append(1)
        return factor.solve(v)

    x, report = gmres(A, b, rel_tol=1e-12, precond=precond,
                      x0=rng.standard_normal(n))
    assert report.converged
    assert report.iterations == 1
    assert len(applications) == 1
    assert report.relative_residual <= 1e-12
    assert report.relative_residual == pytest.approx(
        np.linalg.norm(A @ x - b) / np.linalg.norm(b), rel=1e-12)
    assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-10, rtol=1e-10)


@pytest.mark.parametrize("kind", ["jacobi", "ilu"])
def test_gmres_inexact_preconditioner_keeps_the_cycle_iterates(rng, kind):
    """When the first correction misses the tolerance, the cycles start
    from x0 as if it had not been tried: x, the iteration count and the
    residual equal those of the bare cycle loop, bit for bit."""
    n = 60
    A = sp.csc_matrix(np.diag(np.linspace(1.0, 30.0, n))
                      + 0.3 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    if kind == "jacobi":
        dinv = 1.0 / A.diagonal()
        precond, passed = (lambda v: dinv * v), None
    else:
        precond = passed = spilu(A, drop_tol=0.1, fill_factor=1.0).solve
    first = x0 + precond(b - A @ x0)
    assert np.linalg.norm(b - A @ first) > 1e-11 * np.linalg.norm(b)
    want, iterations, res = gmres_cycles_oracle(
        A, b, rel_tol=1e-11, restart=7, max_iter=10 * n, x0=x0,
        precond=precond)
    x, report = gmres(A, b, rel_tol=1e-11, restart=7, x0=x0,
                      precond=passed)
    assert report.converged
    assert iterations > 1
    assert np.array_equal(x, want)
    assert report.iterations == iterations
    assert report.relative_residual == res


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_stop_at_non_finite_data(rng, bad):
    """A non-finite right-hand side ends either solve at once, reported
    as not converged, instead of running to the iteration cap, and
    without a numpy warning: the report is the whole diagnosis."""
    n = 40
    A = sp.csr_matrix(random_spd(n, rng))
    b = rng.standard_normal(n)
    b[7] = bad
    m = np.linspace(-1.0, 1.0, n)   # a zero entry: inf * 0 is NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for solve, kwargs in ((cg_deflated, {}), (cg_deflated, {"deflate": m}),
                              (gmres, {})):
            x, report = solve(A, b, rel_tol=1e-12, **kwargs)
            assert not report.converged
            assert report.iterations <= 1
            x, report = solve(A, b, rel_tol=1e-12,
                              precond=splu(sp.csc_matrix(A)).solve, **kwargs)
            assert not report.converged
            assert report.iterations <= 1
    assert [str(w.message) for w in caught] == []


def test_gmres_reports_nonconvergence(rng):
    n = 40
    A = sp.csr_matrix(random_spd(n, rng, cond=1e6))
    b = rng.standard_normal(n)
    x, report = gmres(A, b, rel_tol=1e-14, max_iter=3, restart=3)
    assert not report.converged
    assert report.iterations <= 3
    assert report.relative_residual > 0


def test_gmres_stagnation_stops_early(rng):
    """A singular diagonal system: the component of b along the zero
    eigenvalue can never be reduced, so the residual stalls at
    |b_n| / ||b|| and a restart cycle that does not lower it ends the
    solve long before the iteration cap."""
    n = 40
    d = np.linspace(1.0, 30.0, n)
    d[-1] = 0.0
    A = sp.csr_matrix(np.diag(d))
    b = rng.standard_normal(n)
    x, report = gmres(A, b, restart=5, max_iter=10_000,
                      precond=lambda v: v)
    assert not report.converged
    assert report.iterations < 200
    assert report.relative_residual == pytest.approx(
        abs(b[-1]) / np.linalg.norm(b), rel=1e-9)


def test_gmres_iteration_cap_not_a_multiple_of_restart(rng):
    n = 40
    A = sp.csr_matrix(np.diag(np.linspace(1.0, 30.0, n))
                      + 0.1 * rng.standard_normal((n, n)))
    b = rng.standard_normal(n)
    x, report = gmres(A, b, rel_tol=1e-14, max_iter=5, restart=3)
    assert not report.converged
    assert report.iterations == 5


def test_solve_report_residual_definition(rng):
    n = 25
    A = sp.csr_matrix(random_spd(n, rng))
    b = rng.standard_normal(n)
    for solve in (cg_deflated, gmres):
        x, report = solve(A, b, rel_tol=1e-12)
        true_rel = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
        assert report.relative_residual == pytest.approx(
            true_rel, abs=1e-12, rel=1e-3)


@pytest.mark.parametrize("solve", [cg_deflated, gmres])
@pytest.mark.parametrize("rel_tol", [True, float("nan"), "1e-3", -1.0, 0.0])
def test_solvers_refuse_a_tolerance_that_is_not_a_positive_number(solve,
                                                                  rel_tol):
    """A boolean, NaN, string, negative or zero ``rel_tol`` is a
    ValueError naming it, before any iteration: neither a residual of 1.0
    reported as converged, nor a run to the iteration cap, nor an error
    from inside scipy."""
    n = 20
    A = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    with pytest.raises(ValueError, match="rel_tol must be a finite real "
                       "number and exceed 0"):
        solve(A, np.ones(n), rel_tol=rel_tol)
