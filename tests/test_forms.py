"""Assembly against exact-integration oracles on a single element, plus
structural properties of the pressure and transport systems."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from oracles import (concentration_rhs_oracle, p1_mass_oracle,
                     p2_basis_polynomials, p2_stiffness_oracle, poly_int,
                     pressure_data_broadcast_oracle, pressure_matrix_oracle,
                     pressure_rhs_oracle, transport_matrix_oracle,
                     velocity_broadcast_oracle, velocity_oracle,
                     write_unit_triangle_mesh)

from miscfem import (CoefficientBlowupError, DispersionParams,
                     ProblemCoefficients, ScalarDispersionParams, TimeGrid,
                     assemble_concentration, assemble_pressure,
                     build_discretization, compute_velocity, disk_trig_case,
                     generate_disk_mesh, interpolate, load_mesh,
                     measure_errors, problem_coefficients, run, save_mesh)
from miscfem.forms import _eval_wall_flux


@pytest.fixture(scope="module")
def unit_triangle(tmp_path_factory):
    """A mesh holding the single reference-shaped triangle (0,0),(1,0),(0,1)."""
    path = write_unit_triangle_mesh(tmp_path_factory.mktemp("oracle")
                                    / "tri.json")
    return load_mesh(path)


@pytest.fixture(scope="module")
def unit_disc(unit_triangle):
    return build_discretization(unit_triangle)


def unit_coefficients(**overrides):
    """Trivial physics: k = mu = gamma = 1, unit scalar diffusion."""
    base = dict(
        permeability=lambda x, y: np.ones(np.broadcast(x, y).shape),
        viscosity=lambda c: np.ones_like(np.asarray(c, dtype=float)),
        viscosity_bounds=(0.5, 2.0),
        porosity=1.0,
        dispersion=ScalarDispersionParams(base=1.0, slope=0.0),
        initial_concentration=lambda x, y: np.zeros(np.broadcast(x, y).shape),
    )
    base.update(overrides)
    return ProblemCoefficients(**base)


def test_p1_mass_matrix_oracle(unit_disc):
    """M_ij = area/12 * (1 + delta_ij) on any triangle; area = 1/2 here."""
    oracle = p1_mass_oracle()
    assert np.max(np.abs(unit_disc.mass_p1.toarray() - oracle)) < 1e-13
    assert np.max(np.abs(unit_disc.mass_local[0] - oracle)) < 1e-13


def test_p2_stiffness_matrix_oracle(unit_disc, unit_triangle):
    """Assembled pressure stiffness with unit mobility must equal the
    exact integrals of grad(phi_i) . grad(phi_j), computed through
    closed-form monomial integration, entry by entry."""
    system = assemble_pressure(unit_disc, unit_coefficients(),
                               np.zeros(3), t=0.0)
    got = system.matrix.toarray()
    # the local-to-global dof order on a one-triangle mesh is the local one
    perm = unit_disc.p2.cell_dofs[0]
    got = got[np.ix_(perm, perm)]
    assert np.max(np.abs(got - p2_stiffness_oracle())) < 1e-13


def test_p2_mass_vector_oracle(unit_disc):
    """Basis integrals over the element: 0 for vertices (each quadratic
    vertex function integrates to 0 on a triangle) and area/3 for edges."""
    oracle_local = np.array([0.0, 0.0, 0.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0])
    perm = unit_disc.p2.cell_dofs[0]
    got = unit_disc.p2_basis_integrals[perm]
    assert np.allclose(got, oracle_local, atol=1e-14)
    basis = p2_basis_polynomials()
    for i in range(6):
        assert poly_int(basis[i]) == pytest.approx(oracle_local[i], abs=1e-15)


def test_p1_diffusion_stiffness_oracle(unit_disc):
    """With unit diffusion, zero velocity, and gamma/tau chosen to cancel
    nothing, the transport matrix minus the mass part is the exact P1
    stiffness of the unit triangle."""
    coeffs = unit_coefficients(velocity_coupling="none")
    Q = unit_disc.quad_points.shape[1]
    vel = np.zeros((1, Q, 2))
    tau = 0.25
    system = assemble_concentration(unit_disc, coeffs, np.zeros(3), vel,
                                    tau=tau, t=0.0, mode="direct")
    got = system.matrix.toarray() - unit_disc.mass_p1.toarray() / tau
    oracle = 0.5 * np.array([[2.0, -1.0, -1.0],
                             [-1.0, 1.0, 0.0],
                             [-1.0, 0.0, 1.0]])
    assert np.max(np.abs(got - oracle)) < 1e-13
    assert np.max(np.abs(got - got.T)) == 0.0


def test_advection_matrix_constant_velocity(unit_disc):
    """For constant u, N1_ij = (u . grad(phi_j)) * area/3 exactly."""
    coeffs = unit_coefficients()
    Q = unit_disc.quad_points.shape[1]
    a, b = 0.7, -0.4
    vel = np.broadcast_to([a, b], (1, Q, 2))
    none = assemble_concentration(
        unit_disc, unit_coefficients(velocity_coupling="none"),
        np.zeros(3), vel, tau=1.0, t=0.0, mode="direct")
    direct = assemble_concentration(unit_disc, coeffs, np.zeros(3), vel,
                                    tau=1.0, t=0.0, mode="direct")
    n1 = direct.matrix.toarray() - none.matrix.toarray()
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    oracle = np.tile(grads @ [a, b], (3, 1)) / 6.0     # area/3 = 1/6
    perm = unit_disc.p1.cell_dofs[0]
    assert np.max(np.abs(n1[np.ix_(perm, perm)] - oracle)) < 1e-14


def test_skew_mode_antisymmetric_part(unit_disc, rng):
    """Without sources/fluxes the skew matrix minus mass and diffusion is
    exactly antisymmetric, so its quadratic form vanishes."""
    coeffs = unit_coefficients()
    Q = unit_disc.quad_points.shape[1]
    vel = rng.standard_normal((1, Q, 2))
    none = assemble_concentration(
        unit_disc, unit_coefficients(velocity_coupling="none"),
        np.zeros(3), vel, tau=1.0, t=0.0, mode="direct")
    skew = assemble_concentration(unit_disc, coeffs, np.zeros(3), vel,
                                  tau=1.0, t=0.0, mode="skew")
    B = skew.matrix.toarray() - none.matrix.toarray()
    assert np.max(np.abs(B + B.T)) < 1e-14
    x = rng.standard_normal(3)
    assert abs(x @ B @ x) < 1e-14


def test_direct_mode_annihilates_constants(disc16, rng):
    """u . grad(const) = 0: with no sources the direct transport matrix
    applied to the constant vector is purely the mass/tau part."""
    coeffs = unit_coefficients()
    T, Q = disc16.quad_points.shape[:2]
    B = disc16.mesh.num_boundary_edges
    vel = rng.standard_normal((T, Q, 2))
    tau = 0.125
    system = assemble_concentration(disc16, coeffs,
                                    np.zeros(disc16.p1.dof_count), vel,
                                    tau=tau, t=0.0, mode="direct")
    ones = np.ones(disc16.p1.dof_count)
    drift = system.matrix @ ones - disc16.mass_p1 @ ones / tau
    assert np.max(np.abs(drift)) < 1e-13


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                 True])
def test_bad_time_step_is_a_bad_argument(disc8, tau):
    """A time step that is not a positive finite number is refused as a
    bad argument, not blamed on the coefficients (NaN) or used to drop
    the (gamma/tau) M term (inf)."""
    T, Q = disc8.cell_weights.shape
    with pytest.raises(ValueError, match="time step"):
        assemble_concentration(disc8, unit_coefficients(),
                               np.zeros(disc8.p1.dof_count),
                               np.zeros((T, Q, 2)), tau=tau, t=0.0)


def test_velocity_coupling_validated():
    with pytest.raises(ValueError):
        unit_coefficients(velocity_coupling="upwind")


@given(porosity=st.one_of(st.floats(), st.integers(-3, 10**6),
                          st.booleans()))
def test_porosity_accepted_exactly_when_positive_and_finite(porosity):
    """NaN, +-inf, booleans and nonpositive values are refused, as
    DispersionParams and TimeGrid refuse theirs."""
    valid = (not isinstance(porosity, bool)
             and 0 < porosity < math.inf)
    if valid:
        assert unit_coefficients(porosity=porosity).porosity == porosity
    else:
        with pytest.raises(ValueError, match="porosity"):
            unit_coefficients(porosity=porosity)


@pytest.mark.parametrize("M", [8, 16, 64, 128])
def test_p1_mass_is_exactly_symmetric(M):
    """(w phi_i) phi_j and (w phi_j) phi_i round apart in their last bit
    on some cells, so the mass blocks are built with one triangle
    mirrored: they, and the mass matrix that sums them, are symmetric
    bit for bit."""
    disc = build_discretization(generate_disk_mesh(M=M))
    assert np.array_equal(disc.mass_local,
                          disc.mass_local.transpose(0, 2, 1))
    mass = disc.mass_p1
    assert np.array_equal(mass.data, mass.data[disc.p1_pattern.transpose])


def test_transport_matrix_symmetric_without_advection(disc16):
    sol = disk_trig_case()
    coeffs = problem_coefficients(sol)
    assert coeffs.velocity_coupling == "none"
    c0 = interpolate(disc16.p1, coeffs.initial_concentration)
    system_p = assemble_pressure(disc16, coeffs, c0, t=0.0)
    from miscfem import cg_deflated
    p, _ = cg_deflated(system_p.matrix, system_p.rhs,
                       deflate=disc16.p2_basis_integrals)
    vel = compute_velocity(disc16, system_p.mobility, p)
    system = assemble_concentration(disc16, coeffs, c0, vel,
                                    tau=1e-2, t=1e-2, mode="direct")
    asym = (system.matrix - system.matrix.T).toarray()
    assert np.max(np.abs(asym)) < 1e-12 * np.max(np.abs(system.matrix.toarray()))


def test_pressure_compatibility_defect_small(disc16):
    """Manufactured wall data evaluated on the discrete normals keep the
    Neumann problem compatible to roundoff-dominated levels."""
    sol = disk_trig_case()
    coeffs = problem_coefficients(sol)
    c0 = interpolate(disc16.p1, coeffs.initial_concentration)
    system = assemble_pressure(disc16, coeffs, c0, t=0.0)
    assert abs(system.rhs.sum()) < 1e-6 * np.linalg.norm(system.rhs)


def test_incompatible_wall_flux_warns(disc16):
    coeffs = unit_coefficients(pressure_flux=lambda x, y, t, nx, ny:
                               np.ones(np.broadcast(x, y).shape))
    with pytest.warns(UserWarning, match="incompatible"):
        assemble_pressure(disc16, coeffs, np.zeros(disc16.p1.dof_count),
                          t=0.0)


def test_viscosity_blowup_guard(disc16):
    sol = disk_trig_case()
    coeffs = problem_coefficients(sol)
    wild = np.full(disc16.p1.dof_count, 50.0)    # far outside [0.3, 0.7]
    with pytest.raises(CoefficientBlowupError):
        assemble_pressure(disc16, coeffs, wild, t=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_permeability_guard(disc16, bad):
    """k/mu must be positive and finite at every quadrature point: one
    zero, negative or non-finite permeability value is refused, before
    any matrix is built, by an error that names the permeability."""
    base = problem_coefficients(disk_trig_case())

    def permeability(x, y):
        k = np.array(base.permeability(x, y), dtype=float)
        k.flat[7] = bad
        return k

    coeffs = dataclasses.replace(base, permeability=permeability)
    c = np.full(disc16.p1.dof_count, 0.5)
    with pytest.raises(CoefficientBlowupError, match="permeability"):
        assemble_pressure(disc16, coeffs, c, t=0.0)


def test_wall_flux_receives_discrete_normals(disc16):
    seen = {}

    def flux(x, y, t, nx, ny):
        seen["nx"], seen["ny"] = nx, ny
        return np.zeros(np.broadcast(x, y).shape)

    _eval_wall_flux(disc16, flux, 0.0)
    n = disc16.mesh.boundary_normals[:, None, :]
    assert np.array_equal(seen["nx"], np.broadcast_to(n[..., 0],
                                                      disc16.edge_x.shape))
    assert np.array_equal(seen["ny"], np.broadcast_to(n[..., 1],
                                                      disc16.edge_x.shape))


def test_callables_receive_the_discretizations_own_points(disc8):
    """Through a march and measure_errors, every coefficient callable gets
    the discretization's immutable, C-contiguous coordinate arrays
    themselves, the same objects at every call, so that it can keep what
    depends on the points alone."""
    sol = disk_trig_case()
    volume = (disc8.quad_x, disc8.quad_y)
    edge = (disc8.edge_x, disc8.edge_y, disc8.edge_nx, disc8.edge_ny)
    for arr in volume + edge:
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert np.array_equal(np.stack(volume, axis=-1), disc8.quad_points)
    seen = []

    def spy(func):
        def wrapped(*args):
            seen.append(args[:2] + args[3:])
            return func(*args)
        return wrapped

    coeffs = problem_coefficients(sol)
    coeffs = dataclasses.replace(coeffs, **{
        name: spy(getattr(coeffs, name)) for name in (
            "pressure_source", "concentration_source", "pressure_flux",
            "concentration_flux")})
    sol = dataclasses.replace(sol, **{
        name: spy(getattr(sol, name)) for name in (
            "pressure", "pressure_grad", "concentration_grad")})
    grid = TimeGrid(final_time=0.5, num_steps=2)
    state, _ = run(disc8, coeffs, grid)
    measure_errors(disc8, state, grid, sol)
    # the source and flux of three pressure levels and of two transport
    # steps, then p, grad p, grad p again inside the velocity, and grad c
    assert len(seen) == 3 * 2 + 2 * 2 + 4
    for args in seen:
        want = volume if len(args) == 2 else edge
        assert all(a is b for a, b in zip(args, want, strict=True))


FIELDS = ("permeability", "injection", "production", "injected_concentration",
          "pressure_source", "concentration_source", "pressure_flux",
          "concentration_flux")


@pytest.mark.parametrize("mode", ["direct", "skew"])
def test_assembly_only_reads_the_arrays_callables_return(disc8, mode):
    """Assembly uses a float64 array of the points' shape that a field
    callable returns as it is, with no read-only view around it: a march
    whose callables return read-only arrays, every field of
    ``ProblemCoefficients`` set and the skew terms on, is the march with
    writable ones bit for bit, so no assembly writes into such an
    array."""
    def const(value):
        def field(x, y, t):
            return np.full(x.shape, value)
        return field

    coeffs = dataclasses.replace(
        problem_coefficients(disk_trig_case()), velocity_coupling="advection",
        injection=const(0.25), production=const(0.25),
        injected_concentration=const(0.5))

    def read_only(func):
        def wrapped(*args):
            out = np.array(func(*args), dtype=np.float64)
            out.flags.writeable = False
            return out
        return wrapped

    frozen = dataclasses.replace(coeffs, **{
        name: read_only(getattr(coeffs, name)) for name in FIELDS})
    grid = TimeGrid(final_time=1e-3, num_steps=2)
    want, _ = run(disc8, coeffs, grid, mode=mode)
    got, _ = run(disc8, frozen, grid, mode=mode)
    for name in ("concentration", "pressure", "velocity"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_coordinates_cannot_be_made_writable(disc8):
    """The six coordinate arrays and ``quad_points`` view bytes: numpy
    refuses to make any of them, or any array they view, writable, and
    the six stay C-contiguous."""
    coords = (disc8.quad_x, disc8.quad_y, disc8.edge_x, disc8.edge_y,
              disc8.edge_nx, disc8.edge_ny)
    for arr in coords + (disc8.quad_points,):
        while isinstance(arr, np.ndarray):
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            assert not arr.flags.writeable
            arr = arr.base
        assert isinstance(arr, bytes)
    assert all(arr.flags.c_contiguous for arr in coords)


def test_quadratic_pressure_reproduced_exactly(disc16):
    """A globally quadratic pressure lies in the P2 space; with constant
    mobility the Galerkin solution and its velocity are exact up to
    solver tolerance."""
    from miscfem import cg_deflated

    def p_exact(x, y):
        return 3.0 * x ** 2 - 2.0 * x * y + y ** 2 - x + 0.5 * y

    def p_grad(x, y):
        return np.stack([6.0 * x - 2.0 * y - 1.0,
                         -2.0 * x + 2.0 * y + 0.5], axis=-1)

    # f = -laplace(p) = -(6 + 2) = -8 and u.n = -grad(p).n with k/mu = 1
    coeffs = unit_coefficients(
        pressure_source=lambda x, y, t: np.full(np.broadcast(x, y).shape, -8.0),
        pressure_flux=lambda x, y, t, nx, ny: -(
            p_grad(x, y)[..., 0] * nx + p_grad(x, y)[..., 1] * ny))
    c0 = np.zeros(disc16.p1.dof_count)
    system = assemble_pressure(disc16, coeffs, c0, t=0.0)
    p, report = cg_deflated(system.matrix, system.rhs,
                            deflate=disc16.p2_basis_integrals, rel_tol=1e-13)
    assert report.converged
    vel = compute_velocity(disc16, system.mobility, p)
    x, y = disc16.quad_points[..., 0], disc16.quad_points[..., 1]
    exact = -p_grad(x, y)
    assert np.max(np.abs(vel - exact)) < 1e-8


def max_relative_gap(got, oracle):
    return np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))


def test_pressure_matrix_and_velocity_match_einsum_oracle(disc16, rng):
    """The reference-tensor P2 stiffness and the velocity, from the
    reference-gradient GEMM and J^-T per cell, agree with the 4-index
    einsums of the first assembly code, for a varying mobility."""
    coeffs = unit_coefficients(
        permeability=lambda x, y: 1.0 + x * y,
        viscosity=lambda c: 1.0 + np.asarray(c, dtype=float))
    c = rng.uniform(0.0, 0.5, disc16.p1.dof_count)
    system = assemble_pressure(disc16, coeffs, c, t=0.0)
    oracle = pressure_matrix_oracle(disc16, coeffs, c)
    assert max_relative_gap(system.matrix.toarray(), oracle) < 1e-13

    p = rng.standard_normal(disc16.p2.dof_count)
    velocity = compute_velocity(disc16, system.mobility, p)
    assert max_relative_gap(velocity,
                            velocity_oracle(disc16, coeffs, c, p)) < 1e-13


def test_pressure_and_velocity_kernels_match_the_broadcasts_bit_for_bit(
        disc16):
    """Writing the per-point products one component at a time changes no
    bit of the pressure matrix or the velocity against the broadcasts
    over a trailing axis, on a state marched three steps."""
    coeffs = problem_coefficients(disk_trig_case())
    grid = TimeGrid(final_time=3.0 / 32.0, num_steps=3)
    state, _ = run(disc16, coeffs, grid)
    system = assemble_pressure(disc16, coeffs, state.concentration,
                               grid.time(3))
    want = pressure_data_broadcast_oracle(disc16, system.mobility)
    assert np.array_equal(system.matrix.data.view(np.uint64),
                          want.view(np.uint64))
    velocity = compute_velocity(disc16, system.mobility, state.pressure)
    assert velocity.flags.c_contiguous
    assert np.array_equal(velocity.view(np.uint64), velocity_broadcast_oracle(
        disc16, system.mobility, state.pressure).view(np.uint64))


@pytest.mark.parametrize("mode", ["direct", "skew"])
@pytest.mark.parametrize("coupling", ["advection", "none"])
@pytest.mark.parametrize("dispersion", [
    DispersionParams(gamma_dm=0.002, alpha_l=0.01, alpha_t=0.001),
    ScalarDispersionParams(base=0.05, slope=0.01)])
def test_transport_matrix_matches_einsum_oracle(disc16, rng, mode, coupling,
                                                dispersion):
    """The reference-tensor transport kernels agree with the 4-index
    einsums of the first assembly code, including the skew form's
    reaction and wall terms."""
    coeffs = unit_coefficients(
        dispersion=dispersion, velocity_coupling=coupling, porosity=0.7,
        injection=lambda x, y, t: 1.0 + x + 0.0 * y,
        production=lambda x, y, t: 0.5 + y + 0.0 * x,
        pressure_flux=lambda x, y, t, nx, ny: 0.3 * nx - 0.2 * ny)
    T, Q = disc16.cell_weights.shape
    vel = rng.standard_normal((T, Q, 2))
    system = assemble_concentration(disc16, coeffs,
                                    np.zeros(disc16.p1.dof_count), vel,
                                    tau=1.0, t=0.5, mode=mode)
    # tau = 1 keeps the mass part below the dispersion and convection
    oracle = transport_matrix_oracle(disc16, coeffs, vel, 1.0, 0.5, mode)
    assert max_relative_gap(system.matrix.toarray(), oracle) < 1e-13



@pytest.mark.parametrize("mode", ["direct", "skew"])
def test_load_vectors_match_scatter_oracle(disc16, rng, mode):
    """Both right-hand sides agree with a dense scatter of per-cell volume
    loads plus per-edge wall loads, with every source and both wall
    fluxes set."""
    coeffs = unit_coefficients(
        porosity=0.7,
        injection=lambda x, y, t: 1.0 + x + 0.0 * y,
        production=lambda x, y, t: 0.5 + y + 0.0 * x,
        injected_concentration=lambda x, y, t: 0.8 - x * y,
        pressure_source=lambda x, y, t: np.sin(x + 2.0 * y + t),
        concentration_source=lambda x, y, t: np.cos(3.0 * x - y * t),
        pressure_flux=lambda x, y, t, nx, ny: 0.3 * nx - 0.2 * ny + x * y,
        concentration_flux=lambda x, y, t, nx, ny: (1.0 + t) * nx * y - x)
    c = rng.uniform(0.0, 0.5, disc16.p1.dof_count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the data are not compatible
        pressure = assemble_pressure(disc16, coeffs, c, t=0.5)
    assert max_relative_gap(pressure.rhs,
                            pressure_rhs_oracle(disc16, coeffs, 0.5)) < 1e-13

    T, Q = disc16.cell_weights.shape
    vel = rng.standard_normal((T, Q, 2))
    transport = assemble_concentration(disc16, coeffs, c, vel, tau=0.25,
                                       t=0.5, mode=mode)
    oracle = concentration_rhs_oracle(disc16, coeffs, c, 0.25, 0.5)
    assert max_relative_gap(transport.rhs, oracle) < 1e-13


def rigid_motion(mesh, angle, shift):
    """The mesh rotated counterclockwise by ``angle`` and then translated
    by ``shift``; triangles keep their orientation and numbering."""
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return dataclasses.replace(
        mesh, vertices=mesh.vertices @ R.T + np.asarray(shift),
        boundary_normals=mesh.boundary_normals @ R.T)


def pressure_stiffness(disc, **overrides):
    system = assemble_pressure(disc, unit_coefficients(**overrides),
                               np.zeros(disc.p1.dof_count), t=0.0)
    return system.matrix


@settings(max_examples=30)
@given(angle=st.floats(0.0, 2.0 * math.pi),
       shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_rigid_motion_leaves_stiffness_and_mass_unchanged(disc16, angle,
                                                          shift):
    """Rotating and translating the mesh moves no entry of the P2
    stiffness, the P1 mass matrix or the P2 basis integrals beyond
    roundoff in the shifted coordinates."""
    moved = build_discretization(rigid_motion(disc16.mesh, angle, shift))
    A, A_moved = pressure_stiffness(disc16), pressure_stiffness(moved)
    assert max_relative_gap(A_moved.toarray(), A.toarray()) < 1e-11
    assert max_relative_gap(moved.mass_p1.toarray(),
                            disc16.mass_p1.toarray()) < 1e-11
    assert max_relative_gap(moved.p2_basis_integrals,
                            disc16.p2_basis_integrals) < 1e-11


@settings(max_examples=30)
@given(M=st.integers(8, 40), radius=st.floats(0.1, 10.0),
       center=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
       slope=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_stiffness_kernel_and_mass_total(M, radius, center, slope):
    """On any disk mesh, the stiffness rows sum to 0 for any positive
    mobility (the constant kernel the bordered pressure factor relies
    on), and both the P1 mass and the P2 basis integrals sum to the area
    of the discrete disk, the regular M-gon (M/2) r^2 sin(2 pi/M)."""
    disc = build_discretization(generate_disk_mesh(center, radius, M))
    (a, b), (cx, cy) = slope, center
    A = pressure_stiffness(disc, permeability=lambda x, y: np.exp(
        (a * (x - cx) + b * (y - cy)) / radius))
    assert np.max(np.abs(A @ np.ones(A.shape[0]))) < 1e-12 * np.max(
        np.abs(A.data))
    area = 0.5 * M * radius ** 2 * math.sin(2.0 * math.pi / M)
    assert disc.mass_p1.sum() == pytest.approx(area, rel=1e-12)
    assert disc.p2_basis_integrals.sum() == pytest.approx(area, rel=1e-12)


@pytest.fixture(scope="module")
def mesh_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("affine")


def affine_image(mesh, matrix, shift, path):
    """The mesh under x -> matrix x + shift, written with save_mesh and
    read back with load_mesh, which rebuilds the boundary normals of the
    mapped walls."""
    save_mesh(dataclasses.replace(
        mesh, vertices=mesh.vertices @ np.asarray(matrix).T
        + np.asarray(shift)), path)
    return load_mesh(path)


# every example builds its own Discretization, so shrinking a failure
# would take minutes; the first failing example is reported as drawn
@settings(max_examples=20,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(turn=st.floats(0.0, 2.0 * math.pi), twist=st.floats(0.0, 2.0 * math.pi),
       log_scale=st.floats(-1.0, 1.0), log_condition=st.floats(0.0, 3.0),
       shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_kernels_match_oracles_on_affine_images(disc16, mesh_dir, turn, twist,
                                                log_scale, log_condition,
                                                shift):
    """On any affine image of the M=16 disk with det J > 0 and condition
    number up to 1e3, where the metric |det J| J^-1 J^-T of every cell
    is as skewed as the map, both assembled matrices and the velocity
    agree with the 4-index einsum oracles, for both convection forms and
    an anisotropic Bear-Scheidegger tensor."""
    def rotation(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])

    stretch = 10.0 ** log_scale * np.diag([1.0, 10.0 ** -log_condition])
    matrix = rotation(turn) @ stretch @ rotation(twist)
    disc = build_discretization(affine_image(disc16.mesh, matrix, shift,
                                             mesh_dir / "image.json"))
    coeffs = unit_coefficients(
        permeability=lambda x, y: 2.0 + np.sin(x + 2.0 * y),
        viscosity=lambda c: 1.0 + np.asarray(c, dtype=float),
        dispersion=DispersionParams(gamma_dm=0.002, alpha_l=0.01,
                                    alpha_t=0.001),
        porosity=0.7,
        injection=lambda x, y, t: 1.0 + np.cos(x) ** 2 + 0.0 * y,
        production=lambda x, y, t: 0.5 + np.sin(y) ** 2 + 0.0 * x,
        pressure_flux=lambda x, y, t, nx, ny: 0.3 * nx - 0.2 * ny)
    rng = np.random.default_rng(7)
    c = rng.uniform(0.0, 0.5, disc.p1.dof_count)
    with warnings.catch_warnings():     # q_I - q_P is not mean-free
        warnings.filterwarnings("ignore", "pressure data incompatible")
        system = assemble_pressure(disc, coeffs, c, t=0.0)
    assert max_relative_gap(system.matrix.toarray(),
                            pressure_matrix_oracle(disc, coeffs, c)) < 1e-12
    p = rng.standard_normal(disc.p2.dof_count)
    assert max_relative_gap(compute_velocity(disc, system.mobility, p),
                            velocity_oracle(disc, coeffs, c, p)) < 1e-12

    T, Q = disc.cell_weights.shape
    vel = rng.standard_normal((T, Q, 2))
    for mode in ("direct", "skew"):
        system = assemble_concentration(disc, coeffs, c, vel, tau=1.0,
                                        t=0.5, mode=mode)
        oracle = transport_matrix_oracle(disc, coeffs, vel, 1.0, 0.5, mode)
        assert max_relative_gap(system.matrix.toarray(), oracle) < 1e-12
