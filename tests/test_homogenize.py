import numpy as np
import pytest

from oscthin import ProfileSpec, build_cell_mesh, geometry, solve, solve_cell
from oscthin.fem import lp_norm, p_flux_scalar
from oscthin.homogenize import (CellSolution, _CellFunctional,
                                _coefficient_pair, cell_constraints,
                                effective_coefficient,
                                flux_density_height_integral,
                                format_cell_summary, measure_identity_check,
                                read_cell_summary, rescale_forcing,
                                write_cell_summary)

import oracles


class TestFlatCell:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_flat_profile_is_exact(self, flat_profile, p):
        mesh = build_cell_mesh(flat_profile, 16, 8)
        cell = solve_cell(mesh, p)
        assert np.abs(cell.phi).max() < 1e-10
        assert abs(cell.coeff_flux - 1.0) < 1e-10
        assert abs(cell.coeff_energy - 1.0) < 1e-10

    def test_flat_exactness_independent_of_resolution(self, flat_profile):
        for nx, ny in ((4, 4), (32, 8)):
            cell = solve_cell(build_cell_mesh(flat_profile, nx, ny), 3.0)
            assert abs(cell.coeff_flux - 1.0) < 1e-10


class TestOscillatingCell:
    def test_linear_case_matches_independent_solve(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 48, 12)
        phi_oracle, coeff_oracle = oracles.linear_periodic_cell(mesh)
        cell = solve_cell(mesh, 2.0)
        assert lp_norm(mesh, cell.phi - phi_oracle, 2.0) < 1e-6
        assert abs(cell.coeff_flux - coeff_oracle) < 1e-4

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_cell_solution_invariants(self, medium_cell_mesh, p):
        cell = solve_cell(medium_cell_mesh, p)
        assert abs(cell.mesh.weighted_mean(cell.phi)) < 1e-10
        gap = abs(cell.coeff_flux - cell.coeff_energy) / cell.coeff_energy
        assert gap < 1e-6
        assert 0.0 < cell.coeff_flux < 1.0 - 1e-4
        assert effective_coefficient(cell) == pytest.approx(cell.coeff_flux,
                                                            rel=1e-12)

    def test_large_p_cell_solves(self, reference_profile):
        """p = 12 on the 128x32 reference cell: from the linear corrector,
        whose jacobian diagonal spans 34 decades, the one-solve bordered
        step leaves its residual above the ceiling (a LinearSolveError),
        and the ladder from zero, whose diagonal spans up to sixteen
        decades, solves the cell; the coefficient is the one the bordered
        sparse LU step gave."""
        cell = solve_cell(build_cell_mesh(reference_profile, 128, 32), 12.0)
        assert [s.iterations for s in cell.diagnostics.stages] == [
            1, 0, 31, 18, 1]
        assert cell.coeff_flux == pytest.approx(0.5894552498391834, rel=1e-10)

    def test_coefficient_self_convergence(self, reference_profile):
        coeffs = [solve_cell(build_cell_mesh(reference_profile, nx, nx // 4), 3.0).coeff_flux
                  for nx in (16, 32, 64)]
        assert abs(coeffs[0] - coeffs[1]) > abs(coeffs[1] - coeffs[2])


def _ladder_cell(mesh, p):
    """The cell by the default continuation ladder from zero."""
    phi, diagnostics = solve.newton_solve(
        _CellFunctional(mesh, p), np.zeros(mesh.num_nodes),
        cell_constraints(mesh), solve.SolveOptions())
    cell = CellSolution(mesh=mesh, phi=phi, p=p, delta=1e-8,
                        cell_measure=geometry.mesh_area(mesh),
                        coeff_flux=0.0, coeff_energy=0.0,
                        diagnostics=diagnostics)
    cell.coeff_flux, cell.coeff_energy = _coefficient_pair(cell)
    return cell


class TestLinearStart:
    """solve_cell starts from the linear corrector at the target delta and
    falls back to the continuation ladder from zero."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_matches_the_ladder(self, medium_cell_mesh, p):
        cell = solve_cell(medium_cell_mesh, p)
        ladder = _ladder_cell(medium_cell_mesh, p)
        stages = cell.diagnostics.stages
        assert [(s.delta, s.converged) for s in stages] == [(1e-8, True)] * 3
        assert stages[0].iterations == 1
        assert cell.diagnostics.factorizations == cell.diagnostics.total_iterations
        assert (cell.diagnostics.total_iterations
                < ladder.diagnostics.total_iterations)
        assert cell.coeff_flux == pytest.approx(ladder.coeff_flux, rel=1e-10)
        assert (np.abs(cell.phi - ladder.phi).max()
                <= 1e-8 * np.abs(ladder.phi).max())

    def test_linear_case_is_one_solve(self, medium_cell_mesh):
        cell = solve_cell(medium_cell_mesh, 2.0)
        ladder = _ladder_cell(medium_cell_mesh, 2.0)
        assert [s.iterations for s in cell.diagnostics.stages] == [1]
        assert cell.diagnostics.factorizations == 1
        assert np.array_equal(cell.phi, ladder.phi)
        assert cell.coeff_flux == ladder.coeff_flux
        assert cell.coeff_energy == ladder.coeff_energy

    def test_stall_falls_back_to_the_ladder(self, medium_cell_mesh,
                                             monkeypatch, caplog):
        """A line search that stalls in the target stage: the ladder's
        result bit for bit, and every step counted."""
        mesh, p = medium_cell_mesh, 3.0
        ladder = _ladder_cell(mesh, p)
        real_point = _CellFunctional.point
        started, ladder_started = [], []

        def point(self, phi, delta):
            """Points at p from the corrector: the start and the first
            step's trial as they are, every later energy infinite."""
            made = real_point(self, phi, delta)
            if self.p == p and not ladder_started:
                if not np.any(phi):            # the fallback starts at zero
                    ladder_started.append(True)
                else:
                    started.append(True)
                    if len(started) > 2:
                        made.energy = lambda: np.inf
            return made

        monkeypatch.setattr(_CellFunctional, "point", point)
        with caplog.at_level("INFO", logger="oscthin.homogenize"):
            cell = solve_cell(mesh, p)
        assert np.array_equal(cell.phi, ladder.phi)
        assert cell.coeff_flux == ladder.coeff_flux
        assert cell.coeff_energy == ladder.coeff_energy
        linear, abandoned, *rest = cell.diagnostics.stages
        assert linear.iterations == 1 and linear.converged
        assert abandoned.iterations == 1 and not abandoned.converged
        assert abandoned.stop_reason == "LineSearchStallError"
        assert abandoned.factorizations == 2
        assert ([(s.delta, s.iterations) for s in rest]
                == [(s.delta, s.iterations) for s in ladder.diagnostics.stages])
        assert (cell.diagnostics.total_iterations
                == 2 + ladder.diagnostics.total_iterations)
        assert (cell.diagnostics.factorizations
                == 3 + ladder.diagnostics.factorizations)
        assert "LineSearchStallError" in caplog.text
        assert "falling back" in caplog.text


class TestMeasureIdentity:
    def test_flat_profile(self, flat_profile):
        left, right = measure_identity_check(flat_profile)
        assert left == pytest.approx(1.0, abs=1e-12)
        assert right == pytest.approx(1.0, abs=1e-12)

    def test_reference_profile(self, reference_profile):
        left, right = measure_identity_check(reference_profile)
        assert abs(left - right) < 1e-3
        assert right == pytest.approx(1.0, abs=1e-12)

    def test_random_profiles(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            mean = rng.uniform(0.5, 2.0)
            spec = ProfileSpec(
                period=rng.uniform(0.5, 2.0), mean=mean,
                cos_coeffs=(rng.uniform(-0.3, 0.3) * mean,),
                sin_coeffs=(rng.uniform(-0.3, 0.3) * mean,))
            left, right = measure_identity_check(spec)
            assert abs(left - right) < 1e-3 * max(1.0, right)


class TestFluxDensity:
    def test_flat_profile_density(self, flat_profile):
        """On the unit flat cell the flux density is the scalar flux at
        every height, so its height integral is that flux."""
        cell = solve_cell(build_cell_mesh(flat_profile, 16, 8), 3.0)
        xi = np.array([-2.0, 0.5, 1.0])
        assert flux_density_height_integral(cell, xi, n_levels=64) \
            == pytest.approx(p_flux_scalar(xi, 3.0), abs=1e-10)

    def test_zero_gradient_gives_zero(self, flat_profile):
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 4), 3.0)
        assert flux_density_height_integral(cell, 0.0, n_levels=64) == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_height_integral_matches_coefficient(self, medium_cell_mesh, p):
        cell = solve_cell(medium_cell_mesh, p)
        xi = np.array([-1.0, 0.5, 3.0])
        lhs = flux_density_height_integral(cell, xi, n_levels=4096)
        rhs = (cell.coeff_flux * cell.cell_measure / cell.mesh.width
               * p_flux_scalar(xi, p))
        assert np.all(np.abs(lhs - rhs) < 1e-4 * np.abs(rhs))


class TestForcingRescale:
    def test_cell_average_maps_to_one(self, reference_profile):
        measure = 1.0
        fhat = np.full(9, measure / reference_profile.period)
        fbar = rescale_forcing(fhat, measure, reference_profile.period)
        assert np.allclose(fbar, 1.0)

    def test_zero_maps_to_zero(self):
        assert np.all(rescale_forcing(np.zeros(5), 1.3, 1.0) == 0.0)

    def test_linear_load_recovers_slope_after_averaging(self, reference_profile):
        from oscthin.fem import integrate_load_fibers
        eps = 1.0 / 16.0
        n = 512
        fhat = integrate_load_fibers(lambda x, y: x * np.ones_like(y),
                                     reference_profile, eps, n + 1)
        ys = np.linspace(0.0, 1.0, 1 << 14)
        measure = np.trapezoid(reference_profile.evaluate(ys), ys)
        fbar = rescale_forcing(fhat, measure, reference_profile.period)
        # average over whole oscillation periods: the result tracks x1
        per = n // 16
        chunks = fbar[:-1].reshape(16, per).mean(axis=1)
        mids = (np.arange(16) + 0.5) / 16.0
        assert np.abs(chunks - mids).max() < 1e-2

    def test_bad_measure_rejected(self):
        with pytest.raises(ValueError):
            rescale_forcing(np.ones(3), 0.0, 1.0)


def test_cell_summary_round_trip(tmp_path, flat_profile):
    cell = solve_cell(build_cell_mesh(flat_profile, 8, 4), 2.0)
    text = format_cell_summary(cell)
    assert "coeff_flux" in text
    path = tmp_path / "summary.txt"
    write_cell_summary(cell, path)
    data = read_cell_summary(path)
    assert data["coeff_flux"] == cell.coeff_flux
    assert data["p"] == 2.0
    assert data["cell_measure"] == cell.cell_measure
