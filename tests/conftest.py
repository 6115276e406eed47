"""Shared fixtures: coarse meshes and discretizations, built once."""

import numpy as np
import pytest
from hypothesis import settings

from miscfem import build_discretization, generate_disk_mesh

# property tests draw the same examples on every run and have no deadline
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def mesh16():
    return generate_disk_mesh(M=16)


@pytest.fixture(scope="session")
def disc16(mesh16):
    return build_discretization(mesh16)


@pytest.fixture(scope="session")
def mesh8():
    return generate_disk_mesh(M=8)


@pytest.fixture(scope="session")
def disc8(mesh8):
    return build_discretization(mesh8)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
