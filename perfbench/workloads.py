"""The benchmark workloads and their correctness gates.

Every workload runs the public pipeline that ``studies.simulate_row``
runs -- case and coefficients, ``generate_disk_mesh``,
``build_discretization``, ``run(..., observers=[clock.split])`` and
``measure_errors`` -- and times the gaps between those calls, with the
speed probe run in each gap (see ``probe.py``).  Calls go
through module attributes (``timestepping.run``, never a from-import) so
that a traced run can rebind them (see ``spans.py``).

A row returns a :class:`RowResult`; a row whose outputs miss a gate
carries one message per miss in ``failures``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import probe
from miscfem import errors, forms, manufactured, meshing, timestepping
from miscfem.dispersion import DispersionParams
from miscfem.forms import ProblemCoefficients
from miscfem.timestepping import TimeGrid

REFERENCE_FILE = Path(__file__).with_name("reference.json")

ERROR_COLUMNS = ("c_l2", "c_linf", "c_h1semi", "u_l2", "u_linf", "p_l2",
                 "p_grad_l4")

# Relative gate on each ErrorRecord column.  Tightening both solver
# tolerances tenfold moves no column by more than 1e-5 relative (9.2e-6
# on p_l2 of an M=32, tau=2^-12 row), so 1e-4 admits any change that stays
# inside the solver tolerances -- the five digits report.csv prints --
# and rejects a 1 % error.
COLUMN_RTOL = 1e-4
# Relative gate on the plume's final L2 norm; GMRES stops at 1e-10.
PLUME_NORM_RTOL = 1e-6
# Largest L2-norm rise a skew-form step may show (criterion 4's bound).
PLUME_NORM_RISE = 1e-10

def load_reference() -> dict:
    with open(REFERENCE_FILE) as f:
        return json.load(f)


@dataclass
class RowResult:
    """One row's outputs checked and its wall time split into consecutive
    parts -- set-up, initial solve, each step, final solve, measurement
    -- that do the same work in every row of a workload.  ``probes_s``
    holds the speed probe timed before the first part and after each
    part; probe time is in no part."""

    parts_s: list                  # sums to the row's wall time
    probes_s: list                 # one more than parts_s
    march: list                    # indices of the parts in solve_s
    steps: list                    # indices of the parts that are steps
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def row_s(self) -> float:
        return float(sum(self.parts_s))

    @property
    def scaled_parts_s(self) -> np.ndarray:
        """Each part scaled to the probe's reference speed."""
        return np.asarray(self.parts_s) * probe.scales(self.probes_s)


class Clock:
    """Splits a row into parts and runs the probe between them."""

    def __init__(self, run_probe):
        self.run_probe = run_probe
        self.parts, self.probes = [], [run_probe()]
        self.start = perf_counter()

    def split(self, *_):
        """End the current part, probe, start the next.  Also serves as
        the ``timestepping.run`` observer."""
        self.parts.append(perf_counter() - self.start)
        self.probes.append(self.run_probe())
        self.start = perf_counter()

    def result(self, steps: int) -> RowResult:
        """Parts: set-up, initial solve, ``steps`` steps, final solve,
        then whatever followed the march."""
        return RowResult(parts_s=self.parts, probes_s=self.probes,
                         march=list(range(1, steps + 3)),
                         steps=list(range(2, steps + 2)))


def gate_columns(record, reference: dict) -> list:
    """Messages for every ErrorRecord column off its reference."""
    out = []
    for col in ERROR_COLUMNS:
        got, want = getattr(record, col), reference[col]
        if not abs(got - want) <= COLUMN_RTOL * abs(want):
            out.append(f"{col} = {got:.10e}, reference {want:.10e}")
    return out


def gate_plume(norms, reference_norm: float) -> list:
    """Messages if the skew-form L2 norm rose in a step or the final norm
    left its reference."""
    out = []
    rise = float(np.max(np.diff(norms)))
    if not rise <= PLUME_NORM_RISE:
        out.append(f"L2 norm rose by {rise:.3e} in a step")
    final = float(norms[-1])
    if not abs(final - reference_norm) <= PLUME_NORM_RTOL * reference_norm:
        out.append(f"final L2 norm {final:.12e}, reference "
                   f"{reference_norm:.12e}")
    return out


def _clock(run_probe, recorder) -> Clock:
    """A Clock for one row; a traced row records each probe as a span of
    its own, so probe time is covered and in no layer's self time."""
    if recorder is not None:
        run_probe = recorder.wrapped(run_probe, "probe")
    return Clock(run_probe)


def _wrap(recorder, coeffs, name):
    return coeffs if recorder is None else recorder.wrap_sources(coeffs, name)


class DiskTrigRow:
    """One row of a disk-trig study: the paper's benchmark, seed-free."""

    def __init__(self, name, M, tau, steps, reference):
        self.name, self.M, self.tau, self.steps = name, M, tau, steps
        self.probe = probe.Probe()
        self.reference = reference["rows"][name]

    def describe(self):
        return (f"disk-trig M={self.M} tau={self.tau:g} steps={self.steps} "
                f"mode=direct; the seed is ignored: the rows are fixed by "
                f"the paper's benchmark")

    def row(self, recorder=None) -> RowResult:
        clock = _clock(self.probe, recorder)
        sol = manufactured.disk_trig_case()
        coeffs = manufactured.problem_coefficients(sol)
        mesh = meshing.generate_disk_mesh(sol.domain_center,
                                          sol.domain_radius, self.M)
        disc = forms.build_discretization(mesh)
        clock.split()
        coeffs = _wrap(recorder, coeffs, "manufactured.source_eval")
        grid = TimeGrid(final_time=self.steps * self.tau, num_steps=self.steps)
        state, _ = timestepping.run(disc, coeffs, grid, mode="direct",
                                    observers=[clock.split])
        clock.split()
        record = errors.measure_errors(disc, state, grid, sol)
        clock.split()
        result = clock.result(self.steps)
        result.failures = gate_columns(record, self.reference)
        result.counters = {
            "steps": self.steps, "p1_dofs": [disc.p1.dof_count],
            "p2_dofs": [disc.p2.dof_count],
            "errors": {c: getattr(record, c) for c in ERROR_COLUMNS}}
        return result


# The plume table: the seed picks one centre and one dipole direction,
# and reference.json holds the final norm of every combination.
PLUME_CENTRES = ((0.40, 0.50), (0.55, 0.42), (0.50, 0.60), (0.45, 0.45))
DIPOLE_ANGLES = tuple(k * np.pi / 4.0 for k in range(8))
PLUME_CASES = len(PLUME_CENTRES) * len(DIPOLE_ANGLES)


def plume_coefficients(disc, centre, angle) -> ProblemCoefficients:
    """Full transport: advection, Bear-Scheidegger dispersion, a Gaussian
    plume carried by a mean-free dipole pressure source."""
    sol = manufactured.disk_trig_case()
    w, xq = disc.cell_weights, disc.quad_points
    xbar = float((w * xq[..., 0]).sum() / w.sum())
    ybar = float((w * xq[..., 1]).sum() / w.sum())
    ca, sa = float(np.cos(angle)), float(np.sin(angle))
    x0, y0 = centre

    def initial(x, y):
        return 0.4 * np.exp(-50.0 * ((x - x0) ** 2 + (y - y0) ** 2))

    def dipole(x, y, t):
        return 40.0 * ((x - xbar) * ca + (y - ybar) * sa)

    return ProblemCoefficients(
        permeability=sol.permeability, viscosity=sol.viscosity,
        viscosity_bounds=(0.5, 3.0), porosity=1.0,
        dispersion=DispersionParams(gamma_dm=0.002, alpha_l=0.01,
                                    alpha_t=0.001),
        initial_concentration=initial, pressure_source=dipole)


class AdvectiveSkew:
    """The paper's full transport in skew form on M=64."""

    M, tau, steps = 64, 1.0 / 512.0, 128

    def __init__(self, case, reference):
        self.case = case
        self.centre = PLUME_CENTRES[self.case // len(DIPOLE_ANGLES)]
        self.angle = DIPOLE_ANGLES[self.case % len(DIPOLE_ANGLES)]
        self.name = "advective-skew"
        self.probe = probe.Probe()
        self.reference_norm = reference["plume_final_l2"][self.case]

    def describe(self):
        return (f"skew M={self.M} tau={self.tau:g} steps={self.steps}; "
                f"plume case {self.case}: centre {self.centre}, dipole "
                f"angle {self.angle:.4f}")

    def row(self, recorder=None) -> RowResult:
        clock = _clock(self.probe, recorder)
        mesh = meshing.generate_disk_mesh((0.5, 0.5), 0.5, self.M)
        disc = forms.build_discretization(mesh)
        coeffs = plume_coefficients(disc, self.centre, self.angle)
        clock.split()
        coeffs = _wrap(recorder, coeffs, "coefficients.source_eval")
        grid = TimeGrid(final_time=self.steps * self.tau, num_steps=self.steps)
        _, history = timestepping.run(disc, coeffs, grid, mode="skew",
                                      observers=[clock.split])
        clock.split()
        norms = [h.concentration_l2 for h in history]
        result = clock.result(self.steps)
        result.failures = gate_plume(norms, self.reference_norm)
        result.counters = {
            "steps": self.steps, "p1_dofs": [disc.p1.dof_count],
            "p2_dofs": [disc.p2.dof_count], "final_l2": norms[-1]}
        return result


def warm_up():
    """Fill lazy imports and first-call caches on a tiny problem whose
    outputs are not gated."""
    sol = manufactured.disk_trig_case()
    coeffs = manufactured.problem_coefficients(sol)
    mesh = meshing.generate_disk_mesh(sol.domain_center, sol.domain_radius, 16)
    disc = forms.build_discretization(mesh)
    grid = TimeGrid(final_time=0.25, num_steps=2)
    state, _ = timestepping.run(disc, coeffs, grid, mode="direct")
    errors.measure_errors(disc, state, grid, sol)
    timestepping.run(disc, plume_coefficients(disc, PLUME_CENTRES[0], 0.0),
                     grid, mode="skew")


WORKLOAD_NAMES = ("temporal-row", "advective-skew")


def make_workload(name: str, seed: int, reference: dict):
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "temporal-row":
        # one study-temporal --fast row
        return DiskTrigRow(name, M=128, tau=1.0 / 32.0, steps=32,
                           reference=reference)
    if name == "advective-skew":
        case = int(np.random.default_rng(seed).integers(PLUME_CASES))
        return AdvectiveSkew(case, reference=reference)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")
