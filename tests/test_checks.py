"""One rule for every numeric input: each entry point that takes a scalar
refuses the same bad values with a ValueError naming the field, and
stores a valid value as it always has."""

import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miscfem import (ConfigError, DispersionParams, ProblemCoefficients,
                     ScalarDispersionParams, SolverOptions, StudyConfig,
                     TimeGrid, assemble_concentration, disk_trig_case,
                     generate_disk_mesh, manufacture_sources, quadrature_rule)

NOT_NUMBERS = [True, False, np.True_, np.False_, math.nan, -math.inf,
               math.inf, np.float64(math.nan), "1", "a", None, 10 ** 400,
               -10 ** 400]
NOT_POSITIVE = [0, 0.0, -1, -0.5, np.int64(-3), np.float64(-2.0)]
NOT_INTEGRAL = [2.5, np.float64(9.5)]


def variants(*values):
    """Each value as float and np.float64, and integral ones also as int
    and np.int64."""
    out = []
    for v in values:
        out += [float(v), np.float64(v)]
        if v == int(v):
            out += [int(v), np.int64(v)]
    return out


def problem(**overrides):
    base = dict(
        permeability=lambda x, y: np.ones(np.broadcast(x, y).shape),
        viscosity=lambda c: np.ones_like(np.asarray(c, dtype=float)),
        viscosity_bounds=(0.5, 2.0), porosity=1.0,
        dispersion=ScalarDispersionParams(base=1.0, slope=0.0),
        initial_concentration=lambda x, y: np.zeros(np.broadcast(x, y).shape))
    base.update(overrides)
    return ProblemCoefficients(**base)


def transport_matrix(tau, disc):
    T, Q = disc.cell_weights.shape
    return assemble_concentration(disc, problem(), np.zeros(disc.p1.dof_count),
                                  np.ones((T, Q, 2)), tau=tau, t=0.0).matrix


class Field(NamedTuple):
    """An input field: the name its errors give, ``call(value, disc)``,
    which returns what is stored or computed from ``value``, valid and
    extra bad values, and how a valid value is kept: ``"same"`` object,
    converted to ``int`` or ``float``, or ``"result"``, the same result
    as for the value as a Python number."""

    name: str
    call: Callable
    valid: list
    bad: list
    kept: object

    def __repr__(self):
        return f"Field({self.name!r})"


SOL = disk_trig_case()
FIELDS = [Field(*spec) for spec in [
    ("final_time", lambda v, d: TimeGrid(v, 4).final_time,
     variants(0.5, 1, 3), NOT_POSITIVE, "same"),
    ("num_steps", lambda v, d: TimeGrid(1.0, v).num_steps,
     variants(1, 4), NOT_POSITIVE + NOT_INTEGRAL, int),
    ("gamma_dm", lambda v, d: DispersionParams(v, 0.1, 0.1).gamma_dm,
     variants(1e-3, 2), NOT_POSITIVE, "same"),
    ("alpha_l", lambda v, d: DispersionParams(0.1, v, 0.1).alpha_l,
     variants(0, 0.5, 3), [-1, -1e-300, np.int64(-1)], "same"),
    ("alpha_t", lambda v, d: DispersionParams(0.1, 0.1, v).alpha_t,
     variants(0, 0.5, 3), [-1, -1e-300, np.int64(-1)], "same"),
    ("porosity", lambda v, d: problem(porosity=v).porosity,
     variants(0.2, 1), NOT_POSITIVE, "same"),
    ("viscosity_bounds[0]",
     lambda v, d: problem(viscosity_bounds=(v, 4.0)).viscosity_bounds[0],
     variants(0.5, 1, 4), NOT_POSITIVE, "same"),
    ("viscosity_bounds[1]",
     lambda v, d: problem(viscosity_bounds=(0.5, v)).viscosity_bounds[1],
     variants(0.5, 1, 3.5), NOT_POSITIVE + [0.25], "same"),
    ("viscosity_bounds", lambda v, d: problem(viscosity_bounds=v),
     [], [(1.0,), (0.5, 1.0, 2.0), 5.0], "same"),
    ("pressure_tol", lambda v, d: SolverOptions(pressure_tol=v).pressure_tol,
     variants(1e-11, 1), NOT_POSITIVE, "same"),
    ("concentration_tol",
     lambda v, d: SolverOptions(concentration_tol=v).concentration_tol,
     variants(1e-10, 1), NOT_POSITIVE, "same"),
    ("tau", transport_matrix, variants(0.25, 1, 2), NOT_POSITIVE, "result"),
    ("fd_step", lambda v, d: manufacture_sources(
        SOL, fd_step=v).pressure_source.keywords["step"],
     variants(1e-5, 1), NOT_POSITIVE, "same"),
    ("M", lambda v, d: generate_disk_mesh(M=v).vertices,
     variants(8, 11), NOT_INTEGRAL + [7, 7.0, 0, -8], "result"),
    ("center[0]", lambda v, d: generate_disk_mesh(center=(v, 0.5), M=8).vertices,
     variants(-1, 0, 2.5), [], "result"),
    ("center[1]", lambda v, d: generate_disk_mesh(center=(0.5, v), M=8).vertices,
     variants(-1, 0, 2.5), [], "result"),
    ("center", lambda v, d: generate_disk_mesh(center=v, M=8),
     [], [(0.5,), (0.5, 0.5, 0.5), 0.5], "same"),
    ("radius", lambda v, d: generate_disk_mesh(radius=v, M=8).vertices,
     variants(0.25, 1, 3), NOT_POSITIVE, "result"),
    ("degree", lambda v, d: quadrature_rule(v).points,
     variants(1, 2, 3, 4), NOT_INTEGRAL + [0, 5, 5.0, 6, 7, -1], "result"),
    # the study config, whose errors are ConfigErrors naming the field
    ("T", lambda v, d: StudyConfig(final_time=v).final_time,
     variants(0.5, 1, 3), NOT_POSITIVE, float),
    ("tau[0]", lambda v, d: StudyConfig(time_steps=(v,)).time_steps[0],
     variants(0.125, 1), NOT_POSITIVE, "same"),
    ("pressure_tol", lambda v, d: StudyConfig(pressure_tol=v).pressure_tol,
     variants(1e-11, 1), NOT_POSITIVE, float),
    ("concentration_tol",
     lambda v, d: StudyConfig(concentration_tol=v).concentration_tol,
     variants(1e-10, 1), NOT_POSITIVE, float),
]]


def same_result(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if hasattr(a, "toarray"):
        return np.array_equal(a.toarray(), b.toarray())
    return a == pytest.approx(b, rel=1e-12)


@settings(max_examples=400)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_every_entry_point_applies_the_one_rule(disc8, field, data):
    """Booleans, NaN, +-inf, strings, None, integers beyond the float
    range and values outside the field's bounds are ValueErrors that name
    the field; valid int, float, np.float64 and np.int64 values are kept
    as before."""
    value = data.draw(st.sampled_from(NOT_NUMBERS + field.bad)
                      | st.sampled_from(field.valid or [None]))
    if not any(value is v for v in field.valid):
        named = rf"(?<![\w\[]){re.escape(field.name)}(?![\w\[])"
        with pytest.raises(ValueError, match=named) as info:
            field.call(value, disc8)
        if isinstance(info.value, ConfigError):
            assert info.value.path == field.name
        return
    got = field.call(value, disc8)
    if field.kept == "same":
        assert got is value
    elif field.kept == "result":
        python = int(value) if value == int(value) else float(value)
        assert same_result(got, field.call(python, disc8))
    else:
        assert type(got) is field.kept and got == value

