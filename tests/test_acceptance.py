"""Acceptance suite: the exit criteria of the package, one test per criterion.

Reference setup: period-1 profile 1 + cos(2 pi y)/2, p in {2, 3, 1.5},
load cos(pi x1), cell mesh 128 x 32, thin meshes 32 columns per period x 16
rows, oscillation ladder 1/2 .. 1/16, partition ladder 2, 4, 6.  Each test
prints one PASS/FAIL line (run with -s to see them live).
"""

import numpy as np
import pytest

from oscthin import (Limit1DProblem, ProfileSpec, StudyConfig, build_cell_mesh,
                     build_thin_mesh, solve_cell)
from oscthin.fem import FluxParams, Point, load_vector, p_flux, p_flux_scalar
from oscthin.limit1d import solve_homogenized
from oscthin.study import LoadSpec, run_study, solve_thin

import oracles
from test_limit1d import (MANUFACTURED_COEFF, grid, manufactured_forcing,
                          w1p_error)

P_VALUES = (2.0, 3.0, 1.5)
EPSILONS = (0.5, 0.25, 0.125, 0.0625)
LEVELS = (2, 4, 6)


def report(number, name, ok, detail=""):
    marker = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {marker} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def reference_profile_():
    return ProfileSpec(period=1.0, mean=1.0, cos_coeffs=(0.5,))


@pytest.fixture(scope="module")
def flat_profile_():
    return ProfileSpec(period=1.0, mean=1.0)


@pytest.fixture(scope="module")
def reference_cells(reference_profile_):
    mesh = build_cell_mesh(reference_profile_, 128, 32)
    return {p: solve_cell(mesh, p) for p in P_VALUES}


def reference_config(profile, p, load):
    return StudyConfig(
        profile=profile, p=p, load=load,
        epsilons=EPSILONS, partition_levels=LEVELS,
        cell_nx=128, cell_ny=32, thin_nx_per_period=32, thin_ny=16)


@pytest.fixture(scope="module")
def reference_studies(reference_profile_):
    load = LoadSpec(kind="cos_pi")
    return {p: run_study(reference_config(reference_profile_, p, load))
            for p in P_VALUES}


@pytest.fixture(scope="module")
def flat_unit_studies(flat_profile_):
    load = LoadSpec(kind="constant", value=1.0)
    return {p: run_study(reference_config(flat_profile_, p, load))
            for p in P_VALUES}


def test_criterion_01_flat_profile_exactness(flat_profile_):
    mesh = build_cell_mesh(flat_profile_, 128, 32)
    worst_coeff = 0.0
    worst_phi = 0.0
    for p in P_VALUES:
        cell = solve_cell(mesh, p)
        worst_coeff = max(worst_coeff, abs(cell.coeff_flux - 1.0))
        worst_phi = max(worst_phi, float(np.abs(cell.phi).max()))
    ok = worst_coeff < 1e-10 and worst_phi < 1e-10
    report(1, "flat-profile exactness", ok,
           f"|coeff-1|={worst_coeff:.2e} |phi|={worst_phi:.2e}")


def test_criterion_02_coefficient_formula_agreement(reference_cells):
    worst = max(abs(c.coeff_flux - c.coeff_energy) / c.coeff_energy
                for c in reference_cells.values())
    report(2, "coefficient formula agreement", worst < 1e-6,
           f"worst relative gap {worst:.2e}")


def test_criterion_03_coefficient_bounds(reference_cells):
    values = {p: c.coeff_flux for p, c in reference_cells.items()}
    ok = all(0.0 < q < 1.0 for q in values.values())
    report(3, "coefficient bounds 0 < q < 1", ok,
           " ".join(f"p={p}: {q:.6f}" for p, q in values.items()))


def test_criterion_04_linear_oracle(reference_cells, reference_profile_):
    mesh = build_cell_mesh(reference_profile_, 128, 32)
    _, coeff_oracle = oracles.linear_periodic_cell(mesh)
    gap = abs(reference_cells[2.0].coeff_flux - coeff_oracle)
    report(4, "p=2 coefficient matches independent linear solve", gap < 1e-4,
           f"|q - oracle| = {gap:.2e}")


def test_criterion_05_constant_data_exactness(flat_unit_studies,
                                              reference_profile_):
    worst_col = 0.0
    for p, study_report in flat_unit_studies.items():
        for row in study_report.rows:
            assert row.status == "ok"
            worst_col = max(worst_col, row.err_u, row.err_corrector,
                            row.flux_discrepancy)
    # the constant solution is exact on the oscillating domain as well
    worst_u = 0.0
    load = LoadSpec(kind="constant", value=1.0)
    for p in P_VALUES:
        for eps in EPSILONS:
            mesh = build_thin_mesh(reference_profile_, eps, 32, 16)
            u, _ = solve_thin(mesh, p, load)
            worst_u = max(worst_u, float(np.abs(u - 1.0).max()))
        u0, _ = solve_homogenized(
            Limit1DProblem(coeff=1.0, p=p, forcing=np.ones(513)))
        worst_u = max(worst_u, float(np.abs(u0 - 1.0).max()))
    ok = worst_col < 1e-8 and worst_u < 1e-8
    report(5, "constant data exactness", ok,
           f"worst error column {worst_col:.2e}, worst |u-1| {worst_u:.2e}")


def test_criterion_06_solution_convergence(reference_studies):
    details = []
    ok = True
    for p, study_report in reference_studies.items():
        errors = [row.err_u for row in study_report.rows if row.level == LEVELS[0]]
        decreasing = all(a > b for a, b in zip(errors, errors[1:]))
        halved = errors[-1] < 0.5 * errors[0]
        ok = ok and decreasing and halved
        details.append(f"p={p}: " + "->".join(f"{e:.2e}" for e in errors))
    report(6, "thin solution converges to the limit", ok, "; ".join(details))


def test_criterion_07_corrector(reference_studies):
    ok = True
    details = []
    for p, study_report in reference_studies.items():
        finest = EPSILONS[-1]
        in_level = [row.err_corrector for row in study_report.rows
                    if row.eps == finest]
        level_monotone = all(a >= b - 1e-12 for a, b in zip(in_level, in_level[1:]))
        at_top_level = [row.err_corrector for row in study_report.rows
                        if row.level == LEVELS[-1]]
        eps_monotone = all(a >= b - 1e-12
                           for a, b in zip(at_top_level, at_top_level[1:]))
        final_row = [row for row in study_report.rows
                     if row.eps == finest and row.level == LEVELS[-1]][0]
        beats_naive = final_row.err_corrector <= final_row.err_naive
        ok = ok and level_monotone and eps_monotone and beats_naive
        details.append(
            f"p={p}: corrector {final_row.err_corrector:.3e} vs naive "
            f"{final_row.err_naive:.3e}")
    report(7, "corrector upgrades gradient convergence", ok, "; ".join(details))


def test_criterion_08_flux_identity(reference_cells, reference_studies):
    worst = 0.0
    xi = np.array([-2.0, -1.0, 0.5, 1.0, 3.0])
    for p, cell in reference_cells.items():
        lhs = oracles.flux_density_height_integral(cell, xi, n_levels=4096)
        rhs = (cell.coeff_flux * cell.cell_measure / cell.mesh.width
               * p_flux_scalar(xi, p))
        worst = max(worst, float((np.abs(lhs - rhs) / np.abs(rhs)).max()))
    ladders_ok = True
    for p, study_report in reference_studies.items():
        disc = [row.flux_discrepancy for row in study_report.rows
                if row.level == LEVELS[0]]
        ladders_ok = ladders_ok and all(a > b for a, b in zip(disc, disc[1:]))
    ok = worst < 1e-4 and ladders_ok
    report(8, "flux identity and weak flux convergence", ok,
           f"worst identity gap {worst:.2e}, ladder decreasing: {ladders_ok}")


def test_criterion_09_measure_identity(reference_profile_):
    left, right = oracles.measure_identity_check(reference_profile_)
    worst = abs(left - right)
    rng = np.random.default_rng(29)
    for _ in range(20):
        mean = rng.uniform(0.5, 2.0)
        spec = ProfileSpec(
            period=rng.uniform(0.5, 2.0), mean=mean,
            cos_coeffs=(rng.uniform(-0.3, 0.3) * mean,),
            sin_coeffs=(rng.uniform(-0.3, 0.3) * mean,))
        l, r = oracles.measure_identity_check(spec)
        worst = max(worst, abs(l - r) / max(1.0, abs(r)))
    report(9, "level-fraction measure identity", worst < 1e-3,
           f"worst gap {worst:.2e}")


def test_criterion_10_operator_toolbox():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(10_000, 2)) * 2.0
    y = rng.normal(size=(10_000, 2)) * 2.0
    constants = {}
    ok = True
    for p in P_VALUES:
        params = FluxParams(p=p)
        inner = ((p_flux(x, params) - p_flux(y, params)) * (x - y)).sum(axis=1)
        if p >= 2.0:
            lower = np.linalg.norm(x - y, axis=1) ** p
        else:
            lower = (np.linalg.norm(x - y, axis=1) ** 2
                     * (np.linalg.norm(x, axis=1)
                        + np.linalg.norm(y, axis=1)) ** (p - 2.0))
        constants[p] = float((inner / lower).min())
        ok = ok and constants[p] > 0.0
    v = rng.uniform(-1.0, 1.0, size=(1000, 2)) * 10.0 ** rng.uniform(-2, 2, (1000, 1))
    round_trip = max(
        float(np.abs(oracles.p_flux_inverse(p_flux(v, FluxParams(p=p)), p)
                     - v).max())
        for p in P_VALUES)
    ok = ok and round_trip < 1e-8
    report(10, "monotonicity and duality toolbox", ok,
           f"constants {constants}, round trip {round_trip:.2e}")


def test_criterion_11_discretization_consistency(reference_profile_):
    mesh = build_cell_mesh(reference_profile_, 16, 8)
    rng = np.random.default_rng(37)
    worst_res = 0.0
    worst_jac = 0.0
    for p, delta in ((1.5, 0.1), (2.0, 0.0), (3.0, 1e-2)):
        params = FluxParams(p=p, delta=delta)
        u = 1.0 + 0.3 * rng.normal(size=mesh.num_nodes)
        w = rng.normal(size=mesh.num_nodes)
        b = load_vector(mesh, 0.5 + 0.1 * rng.normal(size=mesh.num_nodes))
        h = 1e-5
        energy = [Point(mesh, u + k * h * w, params, True, b).energy()
                  for k in (1, -1)]
        directional = (energy[0] - energy[1]) / (2 * h)
        exact = Point(mesh, u, params, True, b).residual() @ w
        worst_res = max(worst_res,
                        abs(directional - exact) / max(abs(exact), 1.0))
        params_j = FluxParams(p=p, delta=max(delta, 1e-3))
        jac = Point(mesh, u, params_j).jacobian()
        h = 3e-4
        res = [Point(mesh, u + k * h * w, params_j).residual()
               for k in (2, 1, -1, -2)]
        fd = (-res[0] + 8.0 * res[1] - 8.0 * res[2] + res[3]) / (12.0 * h)
        gap = np.linalg.norm(fd - jac @ w) / np.linalg.norm(jac @ w)
        worst_jac = max(worst_jac, float(gap))

    errors = []
    for n in (16, 32, 64, 128):
        prob = Limit1DProblem(coeff=MANUFACTURED_COEFF, p=3.0,
                              forcing=manufactured_forcing(grid(n)))
        u, _ = solve_homogenized(prob)
        errors.append(w1p_error(u, 3.0))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = worst_res < 1e-5 and worst_jac < 1e-5 and min(ratios) >= 1.7
    report(11, "discretization consistency", ok,
           f"residual fd {worst_res:.2e}, jacobian fd {worst_jac:.2e}, "
           f"rates {[f'{r:.2f}' for r in ratios]}")
