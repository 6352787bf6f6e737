import weakref

import numpy as np
import pytest

from oscthin import (ProfileSpec, build_cell_mesh, fem, geometry,
                     homogenize, solve, solve_cell)
from oscthin.cli import write_field
from oscthin.fem import load_vector, lp_norm, p_flux_scalar
from oscthin.homogenize import (CellSolution, _CellFunctional,
                                _coefficient_pair, effective_coefficient,
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
        # the oracle's phi is periodic: its copies carry their nodes' values
        phi_mesh = phi_oracle[:mesh.num_nodes]
        assert np.array_equal(oracles.unfold(mesh, phi_mesh), phi_oracle)
        assert lp_norm(mesh, cell.phi - phi_mesh, 2.0) < 1e-6
        assert abs(cell.coeff_flux - coeff_oracle) < 1e-4

    def test_solve_computes_the_coefficient_pair_once(self, monkeypatch,
                                                      small_cell_mesh):
        """The agreement check reads the pair the solve stored."""
        calls = []

        def counting(cell):
            calls.append(cell)
            return _coefficient_pair(cell)

        monkeypatch.setattr(homogenize, "_coefficient_pair", counting)
        cell = solve_cell(small_cell_mesh, 3.0)
        assert len(calls) == 1
        assert effective_coefficient(cell) == cell.coeff_flux
        assert len(calls) == 2

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_cell_solution_invariants(self, medium_cell_mesh, p):
        cell = solve_cell(medium_cell_mesh, p)
        mean = (oracles.lumped_masses(cell.mesh)
                @ oracles.unfold(cell.mesh, cell.phi) / cell.cell_measure)
        assert abs(mean) < 1e-10
        gap = abs(cell.coeff_flux - cell.coeff_energy) / cell.coeff_energy
        assert gap < 1e-6
        assert 0.0 < cell.coeff_flux < 1.0 - 1e-4
        assert effective_coefficient(cell) == pytest.approx(cell.coeff_flux,
                                                            rel=1e-12)

    def test_large_p_cell_solves(self, reference_profile):
        """p = 12 on the 128x32 reference cell: the predictor starts from
        the linear corrector (its continuations have far more energy at
        p = 12), whose jacobian diagonal spans 34 decades; the line search
        of the first p = 12 stage stalls, and the ladder from zero, whose
        diagonal spans up to sixteen decades, solves the cell; the
        coefficient is the one the bordered sparse LU step gave."""
        cell = solve_cell(build_cell_mesh(reference_profile, 128, 32), 12.0)
        stages = cell.diagnostics.stages
        assert [s.iterations for s in stages] == [1, 0, 31, 18, 1]
        assert [s.stop_reason for s in stages[:2]] == [
            "start=linear", "LineSearchStallError"]
        assert [s.converged for s in stages] == [True, False, True, True, True]
        assert cell.coeff_flux == pytest.approx(0.5894552498391834, rel=1e-10)

    def test_coefficient_self_convergence(self, reference_profile):
        coeffs = [solve_cell(build_cell_mesh(reference_profile, nx, nx // 4), 3.0).coeff_flux
                  for nx in (16, 32, 64)]
        assert abs(coeffs[0] - coeffs[1]) > abs(coeffs[1] - coeffs[2])


def _ladder_cell(mesh, p):
    """The cell by the default continuation ladder from zero."""
    phi, diagnostics = solve.newton_solve(
        _CellFunctional(mesh, p), np.zeros(mesh.num_nodes),
        load_vector(mesh, np.ones(mesh.num_nodes)), solve.SolveOptions())
    cell = CellSolution(mesh=mesh, phi=phi, p=p, delta=1e-8,
                        cell_measure=geometry.mesh_area(mesh),
                        coeff_flux=0.0, coeff_energy=0.0,
                        diagnostics=diagnostics)
    cell.coeff_flux, cell.coeff_energy = _coefficient_pair(cell)
    return cell


class TestLinearStart:
    """solve_cell starts from the p-predictor at the target delta and
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
            """Points at p from the predictor: its three candidates, the
            start and the first step's trial as they are, every later
            energy infinite."""
            made = real_point(self, phi, delta)
            if self.p == p and not ladder_started:
                if not np.any(phi):            # the fallback starts at zero
                    ladder_started.append(True)
                else:
                    started.append(True)
                    if len(started) > 3 + 2:
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


class TestPredictor:
    """The p-predictor against the start it replaced, kept as
    oracles.linear_start_cell: Newton at p from the linear corrector."""

    @pytest.mark.parametrize("resolution", [32, 64])
    def test_linear_case_byte_identical(self, reference_profile, tmp_path,
                                        resolution):
        """At p = 2 the predictor's corrector is the answer, with the
        bits, the residual and the count of the Newton step it replaced:
        cell_summary.txt and cell_phi.txt are the same bytes."""
        mesh = build_cell_mesh(reference_profile, 4 * resolution, resolution)
        cell = solve_cell(mesh, 2.0)
        oracle = oracles.linear_start_cell(mesh, 2.0)
        assert format_cell_summary(cell) == format_cell_summary(oracle)
        for name, solved in (("new", cell), ("old", oracle)):
            write_field(mesh, solved.phi, tmp_path / f"{name}.txt")
        assert ((tmp_path / "new.txt").read_bytes()
                == (tmp_path / "old.txt").read_bytes())
        [stage] = cell.diagnostics.stages
        assert stage.stop_reason == "start=linear"
        assert (stage.iterations, stage.factorizations) == (1, 1)

    @pytest.mark.parametrize("p", [1.5, 3.0, 5.0, 8.0])
    def test_start_has_no_more_energy_than_the_corrector(
            self, medium_cell_mesh, p):
        """Newton at p starts from no more energy than the corrector; at
        p 5 and 8 the continuations have far more, so the start is the
        corrector and every count and bit is the oracle's."""
        cell = solve_cell(medium_cell_mesh, p)
        oracle = oracles.linear_start_cell(medium_cell_mesh, p)
        predictor, first, *_ = cell.diagnostics.stages
        corrector_energy = oracle.diagnostics.stages[1].energies[0]
        if p < 5.0:
            assert predictor.stop_reason in ("start=first_order",
                                              "start=second_order")
            assert first.energies[0] < corrector_energy
            assert (cell.diagnostics.total_iterations
                    < oracle.diagnostics.total_iterations)
        else:
            assert predictor.stop_reason == "start=linear"
            assert first.energies[0] == corrector_energy
            assert ([s.iterations for s in cell.diagnostics.stages]
                    == [s.iterations for s in oracle.diagnostics.stages])
            assert np.array_equal(cell.phi, oracle.phi)
        assert cell.coeff_flux == pytest.approx(oracle.coeff_flux, abs=1e-10)

    @pytest.mark.parametrize("p, most", [(1.5, 9), (3.0, 5)])
    def test_fewer_factorizations_on_the_study_cell(self, reference_profile,
                                                    p, most):
        """The study's 128x32 cell: 9 factorizations at p = 1.5 and 5 at
        p = 3, against the corrector start's 12 and 6, for the same
        coefficients."""
        mesh = build_cell_mesh(reference_profile, 128, 32)
        cell = solve_cell(mesh, p)
        oracle = oracles.linear_start_cell(mesh, p)
        assert (cell.diagnostics.factorizations <= most
                < oracle.diagnostics.factorizations)
        assert abs(cell.coeff_flux - oracle.coeff_flux) <= 1e-10
        assert abs(cell.coeff_energy - oracle.coeff_energy) <= 1e-10

    @pytest.mark.parametrize("p", [1.9, 2.1])
    def test_prediction_is_second_order(self, medium_cell_mesh, p):
        """The chosen start's distance to the solution, relative to the
        corrector's, shrinks like (p - 2)^2: the tangent and the
        second-order term are both right."""
        mesh = medium_cell_mesh
        weights = load_vector(mesh, np.ones(mesh.num_nodes))
        corrector = solve_cell(mesh, 2.0).phi

        def ratio(q):
            start, stage = homogenize._predicted_start(
                mesh, q, weights, solve.SolveOptions())
            assert stage.stop_reason == "start=second_order"
            phi = solve_cell(mesh, q).phi
            return (np.abs(start - phi).max()
                    / np.abs(corrector - phi).max())

        near, far = ratio(p), ratio(2.0 + 2.0 * (p - 2.0))
        assert near < 1e-2
        assert 3.0 < far / near < 5.0

    def test_one_factor_at_a_time(self, medium_cell_mesh, monkeypatch):
        """The predictor's three solves share one factorization, and every
        factor is released before the next is made: the p = 2 factor is
        gone before Newton at p begins.  No jacobian band is alive when a
        point is evaluated, the predictor's included: its tangent and
        second-order solves are back-substitutions, which need no band."""
        factors, bands, points = [], [], []
        real_factor = solve.Band.factor
        real_jacobian = fem.Point.jacobian
        real_point = _CellFunctional.point

        def recording(self, ground=0.0):
            assert all(ref() is None for ref in factors)
            factor = real_factor(self, ground)
            factors.append(weakref.ref(factor))
            return factor

        def jacobian(self):
            band = real_jacobian(self)
            bands.append(weakref.ref(band))
            return band

        def point(self, phi, delta):
            points.append(self.p)
            assert all(ref() is None for ref in bands)
            return real_point(self, phi, delta)

        monkeypatch.setattr(solve.Band, "factor", recording)
        monkeypatch.setattr(fem.Point, "jacobian", jacobian)
        monkeypatch.setattr(_CellFunctional, "point", point)
        cell = solve_cell(medium_cell_mesh, 1.5)
        assert len(factors) == cell.diagnostics.factorizations
        assert cell.diagnostics.stages[0].factorizations == 1
        assert 2.0 + homogenize._P_STEP in points

    @pytest.mark.filterwarnings("error")
    def test_overflowing_candidate_counts_as_infinite(self, reference_profile,
                                                      caplog):
        """At p = 80 the second-order candidate's energy overflows: it
        counts as infinite, without a warning, and the start is the
        corrector."""
        mesh = build_cell_mesh(reference_profile, 32, 8)
        weights = load_vector(mesh, np.ones(mesh.num_nodes))
        with caplog.at_level("INFO", logger="oscthin.homogenize"):
            start, stage = homogenize._predicted_start(
                mesh, 80.0, weights, solve.SolveOptions())
        assert "second_order=inf" in caplog.text
        assert stage.stop_reason == "start=linear"
        assert np.array_equal(start, oracles.linear_start_cell(mesh, 2.0).phi)

    def test_predictor_stage_and_log(self, medium_cell_mesh, caplog):
        """The predictor is the first stage: one step and one
        factorization, converged, its stop_reason the start chosen; the
        candidates' energies at p are logged at INFO."""
        with caplog.at_level("INFO", logger="oscthin.homogenize"):
            cell = solve_cell(medium_cell_mesh, 3.0)
        predictor, *newton = cell.diagnostics.stages
        assert (predictor.iterations, predictor.factorizations) == (1, 1)
        assert predictor.converged
        chosen = predictor.stop_reason.removeprefix("start=")
        [message] = [r.getMessage() for r in caplog.records
                     if "start energies" in r.getMessage()]
        assert all(f"{name}=" in message
                   for name in ("linear", "first_order", "second_order"))
        assert message.endswith(f"starting from {chosen}")
        assert (cell.diagnostics.total_iterations
                == 1 + sum(s.iterations for s in newton))
        assert (cell.diagnostics.factorizations
                == 1 + sum(s.factorizations for s in newton))


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


@pytest.mark.parametrize("line, number", [
    ("coeff_flux 0.5 extra", 5), ("coeff_flux", 5), ("coeff_flux half", 5),
    ("", 9), (None, 5)])
def test_damaged_cell_summary_refused(tmp_path, flat_profile, line, number):
    """A summary line that is not a key and a number is refused in one line
    that names the file and the line; a summary cut before line number
    (line None) in one line that names the file and the missing keys."""
    cell = solve_cell(build_cell_mesh(flat_profile, 8, 4), 2.0)
    lines = format_cell_summary(cell).splitlines()
    path = tmp_path / "summary.txt"
    if line is None:
        del lines[number - 1:]
        message = (f"{path}: cell summary lacks coeff_flux, coeff_energy, "
                   "residual, newton_iterations")
    else:
        lines[number - 1:number] = [line]
        message = f"{path}: line {number} is not a key and a number: {line!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_cell_summary(path)
    assert str(info.value) == message
