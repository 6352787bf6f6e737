# oscthin first: it sets the BLAS thread default, which only takes effect
# if numpy is not imported yet (see oscthin/__init__.py)
from oscthin import ProfileSpec, build_cell_mesh, build_thin_mesh, homogenize

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def fresh_cell_predictor():
    """Each test starts with no cell predictor kept from another, so a
    count of factorizations or points does not depend on test order."""
    homogenize._PREDICTOR_MEMO.clear()


@pytest.fixture(scope="session")
def flat_profile():
    return ProfileSpec(period=1.0, mean=1.0)


@pytest.fixture(scope="session")
def reference_profile():
    """The oscillating profile used throughout: 1 + cos(2 pi y) / 2."""
    return ProfileSpec(period=1.0, mean=1.0, cos_coeffs=(0.5,))


@pytest.fixture(scope="session")
def small_cell_mesh(reference_profile):
    return build_cell_mesh(reference_profile, 16, 8)


@pytest.fixture(scope="session")
def small_period_mesh(reference_profile):
    """The small cell's geometry meshed as a thin domain at eps 1: its last
    column is a column of its own, so fields that are not periodic, such
    as x1, live on it."""
    return build_thin_mesh(reference_profile, 1.0, 16, 8)


@pytest.fixture(scope="session")
def medium_cell_mesh(reference_profile):
    return build_cell_mesh(reference_profile, 64, 16)


@pytest.fixture(scope="session")
def unit_square_mesh(flat_profile):
    return build_cell_mesh(flat_profile, 8, 8)


def rng(seed=0):
    return np.random.default_rng(seed)
