import os
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from oscthin import (ProfileSpec, build_cell_mesh, build_thin_mesh, fem,
                     homogenize, limit1d, solve, solve_cell, study)
from oscthin.cli import main, parse_config, write_field
from oscthin.fem import load_vector, lp_norm, p_flux_scalar
from oscthin.homogenize import (CellSolution, UnconvergedCellError,
                                format_cell_summary, read_cell_summary,
                                write_cell_summary)

import oracles

ROOT = os.path.join(os.path.dirname(__file__), "..")


class TestFlatCell:
    # at p = 1e300 the predictor's second-order candidate, 0 * inf, is
    # NaN without a warning and dropped, and the linear start is the answer
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 1e300])
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
        """The pair and the measure are cached on the cell, from the one
        set of gradients the solve's checks formed: the attributes read
        them without forming another."""
        calls = []
        real = fem.element_gradients

        def counting(mesh, u):
            calls.append(mesh)
            return real(mesh, u)

        monkeypatch.setattr(fem, "element_gradients", counting)
        cell = solve_cell(small_cell_mesh, 3.0)
        assert len(calls) == 1
        assert {"gradients", "flux", "cell_measure", "coeff_flux",
                "coeff_energy"} <= vars(cell).keys()
        assert cell.coeff_flux == vars(cell)["coeff_flux"]
        assert cell.cell_measure == small_cell_mesh.areas.sum()
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_cell_solution_invariants(self, medium_cell_mesh, p):
        cell = solve_cell(medium_cell_mesh, p)
        mean = (oracles.lumped_masses(cell.mesh)
                @ oracles.unfold(cell.mesh, cell.phi) / cell.cell_measure)
        assert abs(mean) < 1e-10
        gap = abs(cell.coeff_flux - cell.coeff_energy) / cell.coeff_energy
        assert gap < 1e-6
        assert 0.0 < cell.coeff_flux < 1.0 - 1e-4

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

    def test_disagreeing_formulas_refused(self, medium_cell_mesh):
        """At p = 1.1 the solve on the 64x16 cell ends with flux 0.574286
        and energy 0.574086, 3.5e-4 apart: beyond COEFF_FAILURE, an
        unconverged cell, refused in one line naming both."""
        with pytest.raises(UnconvergedCellError) as info:
            solve_cell(medium_cell_mesh, 1.1)
        message = str(info.value)
        assert message.startswith("coefficient formulas disagree: flux=0.57428")
        assert " energy=0.57408" in message
        assert "\n" not in message

    def test_coefficient_self_convergence(self, reference_profile):
        coeffs = [solve_cell(build_cell_mesh(reference_profile, nx, nx // 4), 3.0).coeff_flux
                  for nx in (16, 32, 64)]
        assert abs(coeffs[0] - coeffs[1]) > abs(coeffs[1] - coeffs[2])


def _ladder_cell(mesh, p):
    """The cell by the default continuation ladder from zero."""
    phi, diagnostics = solve.newton_solve(
        partial(homogenize._cell_point, mesh, p), np.zeros(mesh.num_nodes),
        load_vector(mesh, np.ones(mesh.num_nodes)), solve.SolveOptions())
    return CellSolution(mesh=mesh, phi=phi, p=p, delta=1e-8,
                        diagnostics=diagnostics)


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
        real_point = homogenize._cell_point
        started, ladder_started = [], []

        def point(mesh, q, phi, delta):
            """Points at p from the predictor: its three candidates, the
            start and the first step's trial as they are, every later
            energy infinite."""
            made = real_point(mesh, q, phi, delta)
            if q == p and not ladder_started:
                if not np.any(phi):            # the fallback starts at zero
                    ladder_started.append(True)
                else:
                    started.append(True)
                    if len(started) > 3 + 2:
                        made.energy = lambda: np.inf
            return made

        monkeypatch.setattr(homogenize, "_cell_point", point)
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

    def test_predictor_failure_falls_back_to_the_ladder(self,
                                                        medium_cell_mesh,
                                                        monkeypatch):
        """An IndefiniteSystemError from the p = 2 predictor's one
        factorization leaves with the predictor's stage, and the ladder
        from zero solves the cell: its result bit for bit, nothing kept
        in the memo."""
        mesh, p = medium_cell_mesh, 3.0
        ladder = _ladder_cell(mesh, p)
        real_solver, calls = solve.constrained_solver, []

        def failing_once(a, w):
            calls.append(True)
            if len(calls) == 1:
                raise solve.IndefiniteSystemError("refused")
            return real_solver(a, w)

        monkeypatch.setattr(solve, "constrained_solver", failing_once)
        cell = solve_cell(mesh, p)
        predictor, *rest = cell.diagnostics.stages
        assert predictor.stop_reason == "IndefiniteSystemError"
        assert predictor.factorizations == 1 and not predictor.converged
        assert ([(s.delta, s.iterations) for s in rest]
                == [(s.delta, s.iterations) for s in ladder.diagnostics.stages])
        assert np.array_equal(cell.phi, ladder.phi)
        assert homogenize._PREDICTOR_MEMO == {}

    def test_overflow_at_large_p_fails_in_the_ladder(self, reference_profile):
        """At p = 400 the residual at the predictor's start overflows on
        the 128x32 reference cell, and the ladder takes over: its 1e-2
        stage converges, its 1e-4 stage meets a jacobian that is not
        positive definite, and the error carries the ladder's stages."""
        with pytest.raises(solve.IndefiniteSystemError,
                           match="228-th leading minor") as info:
            solve_cell(build_cell_mesh(reference_profile, 128, 32), 400.0)
        stages = info.value.diagnostics.stages
        assert [(s.delta, s.converged, s.stop_reason) for s in stages] == [
            (1e-2, True, "residual"), (1e-4, False, "IndefiniteSystemError")]


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
            assert predictor.stop_reason == "start=third_order"
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

    @pytest.mark.parametrize(
        "p, most, nx",
        [(1.5, 8, 128), (3.0, 5, 128), (1.5, 5, 256), (3.0, 5, 256)],
        ids=["1.5-8", "3.0-5", "256x64-1.5-5", "256x64-3.0-5"])
    def test_fewer_factorizations_on_the_study_cell(self, reference_profile,
                                                    p, most, nx):
        """The study's 128x32 cell: 8 factorizations at p = 1.5 and 5 at
        p = 3, against the corrector start's 12 and 6; the cell benchmark's
        256x64 cell: 5 and 5, against 11 and 6; for the same
        coefficients."""
        mesh = build_cell_mesh(reference_profile, nx, nx // 4)
        cell = solve_cell(mesh, p)
        oracle = oracles.linear_start_cell(mesh, p)
        assert (cell.diagnostics.factorizations <= most
                < oracle.diagnostics.factorizations)
        assert abs(cell.coeff_flux - oracle.coeff_flux) <= 1e-10
        assert abs(cell.coeff_energy - oracle.coeff_energy) <= 1e-10

    @staticmethod
    def _candidate_ratio(mesh, p, name):
        """The distance of the named candidate at p to the solution at p,
        relative to the corrector's."""
        weights = load_vector(mesh, np.ones(mesh.num_nodes))
        terms, _ = homogenize._p2_predictor(mesh, weights,
                                            solve.SolveOptions())
        corrector = terms[0]
        start = homogenize._candidates(terms, p)[name]
        phi = solve_cell(mesh, p).phi
        return np.abs(start - phi).max() / np.abs(corrector - phi).max()

    @pytest.mark.parametrize("p", [1.9, 2.1])
    def test_prediction_is_second_order(self, medium_cell_mesh, p):
        """The second-order candidate's distance to the solution,
        relative to the corrector's, shrinks like (p - 2)^2: the tangent
        and the second-order term are both right."""
        near, far = (self._candidate_ratio(medium_cell_mesh, q,
                                           "second_order")
                     for q in (p, 2.0 + 2.0 * (p - 2.0)))
        assert near < 1e-2
        assert 3.0 < far / near < 5.0

    @pytest.mark.parametrize("p", [1.9, 2.1])
    def test_prediction_is_third_order(self, medium_cell_mesh, p):
        """The chosen start near p = 2 is the third-order candidate, and
        its distance to the solution, relative to the corrector's, shrinks
        like (p - 2)^3 (measured: 4.6e-4 at p 1.9 and 2.1, far/near 8.3
        and 7.7)."""
        mesh = medium_cell_mesh
        weights = load_vector(mesh, np.ones(mesh.num_nodes))
        _, stage = homogenize._predicted_start(mesh, p, weights,
                                               solve.SolveOptions())
        assert stage.stop_reason == "start=third_order"
        near, far = (self._candidate_ratio(mesh, q, "third_order")
                     for q in (p, 2.0 + 2.0 * (p - 2.0)))
        assert near < 1e-3
        assert 6.0 < far / near < 10.0

    def test_one_factor_at_a_time(self, medium_cell_mesh, monkeypatch):
        """The predictor's three solves share one factorization, and every
        factor is released before the next is made: the p = 2 factor is
        gone before Newton at p begins.  No jacobian band is alive when a
        point is evaluated, the predictor's included: its tangent and
        second-order solves are back-substitutions, which need no band."""
        factors, bands, points = [], [], []
        real_factor = solve.Band.factor
        real_jacobian = fem.Point.jacobian
        real_point = homogenize._cell_point

        def recording(self, ground=0.0):
            assert all(ref() is None for ref in factors)
            factor = real_factor(self, ground)
            factors.append(weakref.ref(factor))
            return factor

        def jacobian(self):
            band = real_jacobian(self)
            bands.append(weakref.ref(band))
            return band

        def point(mesh, q, phi, delta):
            points.append(q)
            assert all(ref() is None for ref in bands)
            return real_point(mesh, q, phi, delta)

        monkeypatch.setattr(solve.Band, "factor", recording)
        monkeypatch.setattr(fem.Point, "jacobian", jacobian)
        monkeypatch.setattr(homogenize, "_cell_point", point)
        cell = solve_cell(medium_cell_mesh, 1.5)
        assert len(factors) == cell.diagnostics.factorizations
        assert cell.diagnostics.stages[0].factorizations == 1
        assert 2.0 + homogenize._P_STEP in points
        assert 2.0 - homogenize._P_STEP in points

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

    def test_readme_table_reproduced(self):
        """The README's table of factorizations and coeff_flux across p:
        its --resolution 32 rows, re-solved on the reference config's
        128x32 cell, give the predictor's count exactly and its
        coefficient ("same bits": the phi_2 one) to 1e-12 relative, which
        covers the 5e-14 seen between hosts."""
        rows = []
        with open(os.path.join(ROOT, "README.md")) as fh:
            for line in fh:
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                if len(cells) == 5 and cells[0] == "32":
                    _, p, counts, linear, predicted = cells
                    rows.append((float(p), int(counts.split("→")[1]),
                                 float(linear if predicted == "same bits"
                                       else predicted)))
        assert [p for p, _, _ in rows] == [1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0]
        config = parse_config(os.path.join(ROOT, "configs", "reference.json"))
        assert (config.cell_nx, config.cell_ny) == (128, 32)
        for p, factorizations, coeff in rows:
            homogenize._PREDICTOR_MEMO.clear()      # one p per geometry
            cell = study.solve_config_cell(replace(config, p=p))
            assert cell.diagnostics.factorizations == factorizations, p
            assert cell.coeff_flux == pytest.approx(coeff, rel=1e-12), p

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
                   for name in ("linear", "second_order", "third_order"))
        assert "first_order" not in message
        assert message.endswith(f"starting from {chosen}")
        assert (cell.diagnostics.total_iterations
                == 1 + sum(s.iterations for s in newton))
        assert (cell.diagnostics.factorizations
                == 1 + sum(s.factorizations for s in newton))


class TestPredictorMemo:
    """The p = 2 predictor of the last cell geometry solved is kept, so a
    later solve of that geometry at another p factors nothing to start."""

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_reused_solve_is_a_fresh_one(self, reference_profile, p):
        """After a p = 1.5 solve, a solve of the same geometry (meshed
        again) at p has the fresh solve's bits, and its predictor stage
        counts no iteration and no factorization."""
        def mesh():
            return build_cell_mesh(reference_profile, 64, 16)

        fresh = solve_cell(mesh(), p)
        homogenize._PREDICTOR_MEMO.clear()
        solve_cell(mesh(), 1.5)
        reused = solve_cell(mesh(), p)
        assert np.array_equal(reused.phi, fresh.phi)
        assert reused.coeff_flux == fresh.coeff_flux
        assert reused.coeff_energy == fresh.coeff_energy
        stage, *newton = reused.diagnostics.stages
        first = fresh.diagnostics.stages[0]
        assert (stage.iterations, stage.factorizations) == (0, 0)
        assert stage.stop_reason == first.stop_reason + ", reused"
        assert stage.residual_norms == first.residual_norms
        assert stage.converged
        assert ([(s.iterations, s.factorizations) for s in newton]
                == [(s.iterations, s.factorizations)
                    for s in fresh.diagnostics.stages[1:]])
        assert (reused.diagnostics.factorizations
                == fresh.diagnostics.factorizations - 1)

    @pytest.mark.parametrize("change", [
        "grid_x", "grid_heights", "grid_rows", "final_delta",
        "residual_tol", "linear_tol"])
    def test_another_geometry_or_setting_misses(self, reference_profile,
                                                change):
        """A cell that differs in its grid, or a solve that differs in a
        setting the predictor reads, factors its own p = 2 jacobian, and
        it replaces the one entry kept."""
        opts = solve.SolveOptions()
        mesh = build_cell_mesh(reference_profile, 32, 8)
        other, other_opts = mesh, opts
        if change == "grid_x":
            other = build_cell_mesh(replace(reference_profile, period=2.0),
                                    32, 8)
        elif change == "grid_heights":
            other = build_cell_mesh(replace(reference_profile, mean=1.5),
                                    32, 8)
        elif change == "grid_rows":
            other = build_cell_mesh(reference_profile, 32, 9)
        else:
            other_opts = replace(opts, **{
                "final_delta": {"continuation_deltas": (1e-2, 1e-7)},
                "residual_tol": {"residual_tol": 1e-11},
                "linear_tol": {"linear_tol": 1e-13}}[change])
        assert (homogenize._predictor_key(other, other_opts)
                != homogenize._predictor_key(mesh, opts))
        for m, o in ((mesh, opts), (other, other_opts), (mesh, opts)):
            cell = solve_cell(m, 3.0, o)
            assert cell.diagnostics.stages[0].factorizations == 1
        assert len(homogenize._PREDICTOR_MEMO) == 1

    def test_cell_benchmark_pass_factors_nine_times(self, tmp_path,
                                                    monkeypatch):
        """`cell --resolution 64` at p 1.5 then 3 in one process begins
        5 + 4 band factorizations, counted by the diagnostics and by the
        band's own factor calls."""
        counts, cells = [], []
        real_factor, real_solve_cell = solve.Band.factor, homogenize.solve_cell

        def factor(self, ground=0.0):
            counts.append(1)
            return real_factor(self, ground)

        def solve_and_keep(*args, **kwargs):
            cells.append(real_solve_cell(*args, **kwargs))
            return cells[-1]

        monkeypatch.setattr(solve.Band, "factor", factor)
        monkeypatch.setattr(homogenize, "solve_cell", solve_and_keep)
        config = os.path.join(ROOT, "configs", "reference.json")
        for p in ("1.5", "3"):
            assert main(["cell", "--config", config, "--resolution", "64",
                             "--p", p, "--out", str(tmp_path / p)]) == 0
        assert [c.diagnostics.factorizations for c in cells] == [5, 4]
        assert len(counts) == 9


class TestMeasureIdentity:
    def test_flat_profile(self, flat_profile):
        left, right = oracles.measure_identity_check(flat_profile)
        assert left == pytest.approx(1.0, abs=1e-12)
        assert right == pytest.approx(1.0, abs=1e-12)

    def test_reference_profile(self, reference_profile):
        left, right = oracles.measure_identity_check(reference_profile)
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
            left, right = oracles.measure_identity_check(spec)
            assert abs(left - right) < 1e-3 * max(1.0, right)


class TestFluxDensity:
    def test_flat_profile_density(self, flat_profile):
        """On the unit flat cell the flux density is the scalar flux at
        every height, so its height integral is that flux."""
        cell = solve_cell(build_cell_mesh(flat_profile, 16, 8), 3.0)
        xi = np.array([-2.0, 0.5, 1.0])
        assert oracles.flux_density_height_integral(cell, xi, n_levels=64) \
            == pytest.approx(p_flux_scalar(xi, 3.0), abs=1e-10)

    def test_zero_gradient_gives_zero(self, flat_profile):
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 4), 3.0)
        assert oracles.flux_density_height_integral(cell, 0.0, n_levels=64) == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_height_integral_matches_coefficient(self, medium_cell_mesh, p):
        cell = solve_cell(medium_cell_mesh, p)
        xi = np.array([-1.0, 0.5, 3.0])
        lhs = oracles.flux_density_height_integral(cell, xi, n_levels=4096)
        rhs = (cell.coeff_flux * cell.cell_measure / cell.mesh.width
               * p_flux_scalar(xi, p))
        assert np.all(np.abs(lhs - rhs) < 1e-4 * np.abs(rhs))


def _limit_forcing(monkeypatch, profile, load, eps=0.25):
    """The forcing study.solve_limit gives the limit problem, on a 16x4
    cell at p = 2."""
    config = study.StudyConfig(profile=profile, p=2.0, load=load,
                               epsilons=(eps,), partition_levels=(0,),
                               limit_elements=64)
    cell = solve_cell(build_cell_mesh(profile, 16, 4), 2.0)
    problems = []
    monkeypatch.setattr(limit1d, "solve_homogenized",
                        lambda prob, opts: problems.append(prob))
    study.solve_limit(config, cell, eps)
    [problem] = problems
    return problem.forcing, cell


class TestForcingRescale:
    """The limit forcing is the fiber load integral per cell area: scaled
    by period / cell measure."""

    def test_cell_average_maps_to_one(self, monkeypatch):
        """A unit load on a flat profile of height 2 and period 0.5: fiber
        integrals of 2 on a cell of measure 1, so a forcing of 1."""
        profile = ProfileSpec(period=0.5, mean=2.0)
        fbar, cell = _limit_forcing(monkeypatch, profile,
                                    study.LoadSpec(kind="constant"))
        assert cell.cell_measure == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(fbar, 1.0, rtol=1e-13)

    def test_zero_maps_to_zero(self, monkeypatch, reference_profile):
        fbar, _ = _limit_forcing(monkeypatch, reference_profile,
                                 study.LoadSpec(kind="constant", value=0.0))
        assert np.all(fbar == 0.0)

    def test_linear_load_recovers_slope_after_averaging(self, reference_profile):
        n = 512
        x = np.linspace(0.0, 1.0, n + 1)
        fhat = study.LoadSpec(kind="linear").fiber_integral(
            x, reference_profile.evaluate(x * 16.0))
        ys = np.linspace(0.0, 1.0, 1 << 14)
        measure = np.trapezoid(reference_profile.evaluate(ys), ys)
        fbar = fhat * (reference_profile.period / measure)
        # average over whole oscillation periods: the result tracks x1
        per = n // 16
        chunks = fbar[:-1].reshape(16, per).mean(axis=1)
        mids = (np.arange(16) + 0.5) / 16.0
        assert np.abs(chunks - mids).max() < 1e-2


def test_thin_mesh_refused(reference_profile):
    """The cell problem is posed on a cell mesh only; a thin mesh, whose
    gradient is scaled by its eps, is refused before any solve."""
    mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
    with pytest.raises(ValueError) as info:
        solve_cell(mesh, 2.0)
    assert str(info.value) == "solve_cell needs a cell mesh, got a thin one"


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
