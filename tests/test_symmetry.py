"""The problem's own symmetries, which need neither stored numbers nor an
oracle: a cell shifted by whole columns or mirrored has the same
coefficient, the solutions scale with the load as the (p-1)-homogeneous
problem says, and the thin solution's departure from the continuous
problem's reflection symmetry halves under refinement."""

from dataclasses import replace

import numpy as np
import pytest

from oscthin import (ProfileSpec, build_cell_mesh, build_thin_mesh, fem,
                     solve_cell, study)
from oscthin.study import LoadSpec, StudyConfig, solve_thin


def _phase_profile(k, mirror=False):
    """1 + cos(2 pi y - 2 pi k/32) / 2, or its mirror image y -> -y (the
    sine coefficient negated)."""
    t = 2.0 * np.pi * k / 32
    return ProfileSpec(period=1.0, mean=1.0, cos_coeffs=(0.5 * np.cos(t),),
                       sin_coeffs=((-0.5 if mirror else 0.5) * np.sin(t),))


def _coefficient(profile, p):
    return solve_cell(build_cell_mesh(profile, 32, 16), p).coeff_flux


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_cell_shifted_by_whole_columns(p):
    """A shift of the profile by k of the 32 columns moves the cell's
    columns, not its geometry: the same q bit for bit."""
    q = _coefficient(_phase_profile(0), p)
    assert [_coefficient(_phase_profile(k), p) for k in (1, 5)] == [q, q]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_mirrored_cell(p):
    """The mirror image of the cell has the same q; its triangles' diagonals
    lean the other way, so to roundoff (1.7e-16 relative at p = 3, bit for
    bit at p = 1.5)."""
    q = _coefficient(_phase_profile(5), p)
    assert abs(_coefficient(_phase_profile(5, mirror=True), p) - q) <= 2e-16 * q


# measured: thin 1.7e-11 at p = 1.5, where delta = 1e-8 breaks the
# homogeneity, and 1.1e-14 at p = 3; limit 8.5e-13 and 4.2e-16
@pytest.mark.parametrize("p, thin_rtol, limit_rtol", [(1.5, 1e-10, 1e-11),
                                                      (3.0, 5e-14, 5e-15)])
def test_load_scaling(reference_profile, p, thin_rtol, limit_rtol):
    """The problem is (p-1)-homogeneous: the load 4 f gives the solution
    4^(1/(p-1)) u, at eps 1/8 in the thin and the limit problem."""
    eps, lam = 1.0 / 8, 4.0
    scale = lam ** (1.0 / (p - 1.0))
    mesh = build_thin_mesh(reference_profile, eps, 32, 16)
    config = StudyConfig(
        profile=reference_profile, p=p, load=LoadSpec(kind="cos_pi"),
        epsilons=(eps,), partition_levels=(2,), cell_nx=32, cell_ny=16,
        thin_nx_per_period=32, thin_ny=16)
    cell = study.solve_config_cell(config)
    scaled = replace(config, load=LoadSpec(kind="cos_pi", value=lam))
    for solution, rtol in (
            (lambda c: solve_thin(mesh, p, c.load)[0], thin_rtol),
            (lambda c: study.solve_limit(c, cell, eps)[0], limit_rtol)):
        u = scale * solution(config)
        assert np.abs(solution(scaled) - u).max() <= rtol * np.abs(u).max()


def test_reflection_defect_halves_under_refinement(reference_profile):
    """The even profile over whole periods and the cos(pi x1) load make the
    continuous solution odd about x1 = 1/2.  The discrete thin one is not,
    since every diagonal leans one way: with (Ru)(x1, x2) = u(1 - x1, x2),
    ||u + Ru||_p / 2 at p = 3, eps 1/32 is 1.0e-4 on 32x16 columns per
    period and 5.1e-5 on 64x16, a first-order defect that refinement
    removes."""
    defects = []
    for nx_per_period in (32, 64):
        mesh = build_thin_mesh(reference_profile, 1.0 / 32, nx_per_period, 16)
        u, _ = solve_thin(mesh, 3.0, LoadSpec(kind="cos_pi"))
        grid = mesh.grid_nodes
        reflected = np.empty_like(u)
        reflected[grid] = u[grid[::-1]]
        defects.append(fem.lp_norm(mesh, u + reflected, 3.0) / 2.0)
    assert defects[0] <= 2e-4
    assert defects[0] >= 1.8 * defects[1]
