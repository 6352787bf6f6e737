import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import oscthin
from oscthin import (StudyConfig, build_cell_mesh, build_thin_mesh, geometry,
                     solve, solve_cell, study)
from oscthin.fem import element_gradients
from oscthin.limit1d import nodal_derivative
from oscthin.study import (LoadSpec, PartitionSpec, box_smooth, cell_response,
                           corrector_field, error_corrector, error_u,
                           flux_profile, flux_stations, flux_target,
                           partition_average, read_report_csv,
                           read_report_json, run_study, solve_config_cell,
                           solve_thin, write_report_csv, write_report_json)

import oracles


def tiny_config(profile, load, p=3.0, epsilons=(0.5, 0.25), levels=(2,)):
    return StudyConfig(
        profile=profile, p=p, load=load,
        epsilons=epsilons, partition_levels=levels,
        cell_nx=16, cell_ny=8, thin_nx_per_period=8, thin_ny=4,
        limit_elements=64, flux_stations=50)


class TestPartition:
    def test_dyadic_unit_period(self):
        part = PartitionSpec.dyadic(2, 1.0)
        assert len(part) == 4
        assert np.allclose(part.widths, 0.25)
        assert part.edges[0] == 0.0 and part.edges[-1] == 1.0

    def test_remainder_cell(self):
        part = PartitionSpec.dyadic(2, 0.3)
        assert np.allclose(part.widths[:-1], 0.075)
        assert part.widths[-1] == pytest.approx(1.0 - 13 * 0.075)
        assert part.edges[-1] == 1.0

    def test_level_zero_single_cell(self):
        part = PartitionSpec.dyadic(0, 1.0)
        assert len(part) == 1

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec.dyadic(-1, 1.0)


class TestPartitionAverage:
    def test_constant_samples(self):
        part = PartitionSpec.dyadic(3, 1.0)
        avg = partition_average(np.full(65, 2.5), part)
        assert np.allclose(avg, 2.5)

    def test_linear_over_single_cell_is_midpoint(self):
        part = PartitionSpec.dyadic(0, 1.0)
        samples = 3.0 * np.linspace(0.0, 1.0, 33) - 1.0
        avg = partition_average(samples, part)
        assert avg[0] == pytest.approx(0.5, abs=1e-12)

    def test_ladder_converges_to_pointwise_values(self):
        x = np.linspace(0.0, 1.0, 257)
        samples = np.sin(2.0 * np.pi * x)
        gaps = []
        for level in (2, 4, 6):
            part = PartitionSpec.dyadic(level, 1.0)
            avg = partition_average(samples, part)
            mids = 0.5 * (part.edges[:-1] + part.edges[1:])
            gaps.append(np.abs(avg - np.sin(2.0 * np.pi * mids)).max())
        assert gaps[0] > gaps[1] > gaps[2]


class TestCorrector:
    def test_flat_profile_constant_derivative(self, flat_profile):
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 4), 3.0)
        mesh = build_thin_mesh(flat_profile, 0.25, 8, 4)
        part = PartitionSpec.dyadic(2, 1.0)
        du0 = np.full(65, 0.7)
        c = corrector_field(du0, part, mesh, cell_response(cell, mesh))
        assert np.abs(c - [0.7, 0.0]).max() < 1e-12

    def test_zero_derivative_gives_zero(self, reference_profile):
        cell = solve_cell(build_cell_mesh(reference_profile, 16, 8), 3.0)
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        part = PartitionSpec.dyadic(2, 1.0)
        c = corrector_field(np.zeros(65), part, mesh,
                            cell_response(cell, mesh))
        assert np.abs(c).max() == 0.0

    def test_mean_matches_cell_average(self, reference_profile):
        """Double-quadrature oracle: for constant limit derivative the mesh
        average of the corrector approaches the cell average of the response."""
        cell = solve_cell(build_cell_mesh(reference_profile, 64, 16), 3.0)
        eps = 1.0 / 16.0
        mesh = build_thin_mesh(reference_profile, eps, 16, 8)
        part = PartitionSpec.dyadic(4, 1.0)
        d = 0.7
        c = corrector_field(np.full(129, d), part, mesh,
                            cell_response(cell, mesh))
        mesh_avg = (mesh.areas[:, None] * c).sum(axis=0) / mesh.areas.sum()
        grads = element_gradients(cell.mesh, cell.phi) + [1.0, 0.0]
        cell_avg = d * (cell.mesh.areas[:, None] * grads).sum(axis=0) \
            / cell.mesh.areas.sum()
        assert np.abs(mesh_avg - cell_avg).max() < 2e-2 * abs(d)

    @pytest.mark.parametrize("eps", [0.25, 1.0 / 16])
    def test_one_lookup_matches_lookup_per_level(self, reference_profile,
                                                 eps):
        cell = solve_cell(build_cell_mesh(reference_profile, 32, 8), 3.0)
        mesh = build_thin_mesh(reference_profile, eps, 16, 8)
        du0 = np.sin(3.0 * np.linspace(0.0, 1.0, 129))
        response = cell_response(cell, mesh)
        for level in (2, 4, 6):
            part = PartitionSpec.dyadic(level, reference_profile.period)
            assert np.array_equal(
                corrector_field(du0, part, mesh, response),
                oracles.corrector_field(cell, du0, part, eps, mesh))

    def test_study_locates_points_once_per_mesh(self, reference_profile,
                                                monkeypatch):
        calls = []
        locate = geometry.locate_points

        def counting(mesh, points):
            calls.append(mesh.domain_kind)
            return locate(mesh, points)

        monkeypatch.setattr(geometry, "locate_points", counting)
        config = tiny_config(reference_profile, LoadSpec(kind="cos_pi"),
                             levels=(2, 4, 6))
        cell = solve_config_cell(config)
        rows = study._study_rows_for_eps(config, cell, 0.25)
        assert len(rows) == 3 and calls == ["cell"]

    def test_study_reads_only_the_thin_column_grid(self, reference_profile,
                                                   monkeypatch):
        """A cell solve and a ladder entry measure everything from the
        column grids: neither builds the nodes or triangles of any mesh."""
        reads = []

        def recording(name):
            original = vars(geometry.Mesh)[name]

            def read(mesh):
                reads.append((name, mesh.domain_kind))
                return original.__get__(mesh, geometry.Mesh)
            return property(read)

        config = tiny_config(reference_profile, LoadSpec(kind="cos_pi"),
                             levels=(2, 4))
        for name in ("nodes", "triangles"):
            monkeypatch.setattr(geometry.Mesh, name, recording(name))
        cell = solve_config_cell(config)
        rows = study._study_rows_for_eps(config, cell, 0.25)
        assert all(row.status == "ok" for row in rows)
        assert reads == []
        # the recorder sees a read where there is one
        build_thin_mesh(reference_profile, 0.25, 8, 4).triangles
        assert reads[-1] == ("triangles", "thin")


class TestErrors:
    def test_error_u_constant_offset(self, flat_profile):
        mesh = build_thin_mesh(flat_profile, 0.5, 8, 4)
        u_eps = np.full(mesh.num_nodes, 1.3)
        u0 = np.zeros(33)
        # unit-area mesh: the distance is exactly the offset
        assert error_u(mesh, u_eps, u0, 3.0) == pytest.approx(1.3, abs=1e-12)

    def test_error_u_zero_for_matching_fields(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.5, 8, 4)
        u0 = np.linspace(0.0, 1.0, 65) ** 2
        u_eps = np.interp(mesh.nodes[:, 0], np.linspace(0.0, 1.0, 65), u0)
        assert error_u(mesh, u_eps, u0, 2.0) < 1e-12

    def test_error_corrector_flat_linear_matches_independent_pipeline(self, flat_profile):
        """Flat profile, p = 2: the whole chain against dense linear algebra.

        The load enters as a nodal field so both routes integrate the same
        interpolated data and solve the identical discrete system.
        """
        eps = 0.25
        mesh = build_thin_mesh(flat_profile, eps, 8, 8)
        x = np.linspace(0.0, 1.0, 65)

        u_eps, _ = solve_thin(mesh, 2.0, np.cos(np.pi * mesh.nodes[:, 0]))
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 8), 2.0)
        forcing = np.cos(np.pi * x)
        from oscthin.limit1d import solve_homogenized
        from oscthin import Limit1DProblem
        u0, _ = solve_homogenized(
            Limit1DProblem(coeff=cell.coeff_flux, p=2.0, forcing=forcing, n=64))
        du0 = nodal_derivative(u0)
        part = PartitionSpec.dyadic(3, 1.0)
        c = corrector_field(du0, part, mesh, cell_response(cell, mesh))
        err = error_corrector(mesh, element_gradients(mesh, u_eps, eps), c,
                              2.0)

        # independent route: dense thin solve, dense limit solve, the flat
        # corrector is (partition-averaged du0, 0)
        u_oracle = oracles.linear_thin_solve(
            mesh, np.cos(np.pi * mesh.nodes[:, 0]))
        u0_oracle = oracles.linear_limit_solve(1.0, forcing)
        du_oracle = nodal_derivative(u0_oracle)
        avg = partition_average(du_oracle, part)
        bary_x = oracles.barycenters(mesh)[:, 0]
        idx = np.clip(np.searchsorted(part.edges, bary_x, side="right") - 1,
                      0, len(part) - 1)
        grads = element_gradients(mesh, u_oracle)
        grads[:, 1] /= eps
        diff = grads - np.column_stack([avg[idx], np.zeros(len(idx))])
        mag = np.sqrt((diff * diff).sum(axis=1))
        err_oracle = float((mesh.areas * mag ** 2).sum() ** 0.5)
        assert abs(err - err_oracle) < 1e-8

    def test_unit_load_every_error_vanishes(self, flat_profile):
        config = tiny_config(flat_profile, LoadSpec(kind="constant", value=1.0))
        report = run_study(config)
        for row in report.rows:
            assert row.status == "ok"
            assert row.err_u < 1e-8
            assert row.err_corrector < 1e-8
            assert row.flux_discrepancy < 1e-8


class TestFlux:
    def test_unit_load_zero_flux(self, flat_profile):
        mesh = build_thin_mesh(flat_profile, 0.5, 8, 4)
        u, _ = solve_thin(mesh, 3.0, LoadSpec(kind="constant", value=1.0))
        profile = flux_profile(mesh, u, 3.0, 0.5, 20)
        assert np.abs(profile).max() < 1e-9

    def test_flat_linear_profile_matches_target(self, flat_profile):
        eps = 0.25
        mesh = build_thin_mesh(flat_profile, eps, 32, 16)
        u, _ = solve_thin(mesh, 2.0, LoadSpec(kind="cos_pi"))
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 8), 2.0)
        x = np.linspace(0.0, 1.0, 129)
        from oscthin.limit1d import solve_homogenized
        from oscthin import Limit1DProblem
        u0, _ = solve_homogenized(
            Limit1DProblem(coeff=1.0, p=2.0, forcing=np.cos(np.pi * x), n=128))
        du0 = nodal_derivative(u0)
        profile = flux_profile(mesh, u, 2.0, eps, 40)
        target = flux_target(cell, du0, 40)
        # flat case: the target is exactly max-height times the derivative
        du_at = np.interp(flux_stations(40), x, du0)
        assert np.abs(target - du_at).max() < 1e-12
        assert np.abs(profile - target).max() < 2e-2 * np.abs(du0).max()

    def test_box_smooth_preserves_linear(self):
        x = np.linspace(0.0, 1.0, 101)
        vals = 2.0 * x + 1.0
        sm = box_smooth(vals, x[1] - x[0], 0.1)
        inner = slice(10, 91)
        assert np.abs(sm[inner] - vals[inner]).max() < 1e-12

    def test_box_smooth_flattens_oscillation(self):
        x = np.linspace(0.0, 1.0, 400, endpoint=False)
        vals = np.sin(2.0 * np.pi * 20 * x)
        sm = box_smooth(vals, x[1] - x[0], 0.05)  # window = one full period
        # edge windows are truncated, so judge the interior
        assert np.abs(sm[10:-10]).max() < np.abs(vals).max() * 0.1


class TestStudy:
    def test_reference_ladder_decreases(self, reference_profile):
        config = StudyConfig(
            profile=reference_profile, p=3.0, load=LoadSpec(kind="cos_pi"),
            epsilons=(0.5, 0.25, 0.125), partition_levels=(2, 4),
            cell_nx=32, cell_ny=8, thin_nx_per_period=16, thin_ny=8,
            limit_elements=128, flux_stations=100)
        report = run_study(config)
        err_u = [row.err_u for row in report.rows if row.level == 2]
        assert err_u[0] > err_u[1] > err_u[2]
        for eps in config.epsilons:
            rows = [r for r in report.rows if r.eps == eps]
            assert rows[0].err_corrector >= rows[1].err_corrector - 1e-12

    def test_failed_ladder_entry_is_recorded(self, flat_profile, monkeypatch):
        def solve_thin_failing_at_quarter(mesh, *args):
            if mesh.eps == 0.25:
                raise solve.NonConvergenceError("stalled")
            return solve_thin(mesh, *args)

        monkeypatch.setattr(study, "solve_thin", solve_thin_failing_at_quarter)
        config = tiny_config(flat_profile, LoadSpec(kind="constant", value=1.0),
                             epsilons=(0.5, 0.25))
        report = run_study(config)
        by_eps = {}
        for row in report.rows:
            by_eps.setdefault(row.eps, []).append(row)
        assert all(r.status == "ok" for r in by_eps[0.5])
        assert all(r.status == "NonConvergenceError: stalled"
                   for r in by_eps[0.25])

    def test_parallel_matches_serial(self, flat_profile):
        config = tiny_config(flat_profile, LoadSpec(kind="cos_pi"))
        serial = run_study(config)
        config_par = tiny_config(flat_profile, LoadSpec(kind="cos_pi"))
        config_par.max_workers = 2
        parallel = run_study(config_par)
        for a, b in zip(serial.canonical().rows, parallel.canonical().rows):
            assert a == b

    def test_determinism(self, flat_profile, tmp_path):
        config = tiny_config(flat_profile, LoadSpec(kind="cos_pi"))
        first = run_study(config).canonical()
        second = run_study(config).canonical()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(first, p1)
        write_report_csv(second, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReportIO:
    def test_csv_round_trip(self, flat_profile, tmp_path):
        config = tiny_config(flat_profile, LoadSpec(kind="cos_pi"))
        report = run_study(config)
        path = tmp_path / "study.csv"
        write_report_csv(report, path)
        rows = read_report_csv(path)
        assert rows == report.rows

    @pytest.mark.parametrize("text", ["", "eps,level\n0.5,2\n"])
    def test_csv_bad_header_rejected(self, tmp_path, text):
        path = tmp_path / "study.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected header 'eps,level,"):
            read_report_csv(path)

    def test_readers_reject_malformed_files_under_optimize(self, tmp_path):
        """The header and section checks are not asserts: python -O keeps
        them."""
        (tmp_path / "study.csv").write_text("eps,level\n")
        (tmp_path / "mesh.txt").write_text("# oscthin mesh cell eps=\n"
                                           "# triangles 0\n")
        script = (
            "import sys\n"
            "from oscthin.geometry import read_mesh\n"
            "from oscthin.study import read_report_csv\n"
            "for read, name in ((read_report_csv, 'study.csv'),"
            " (read_mesh, 'mesh.txt')):\n"
            "    try:\n"
            "        read(name)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(oscthin.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2
        assert "expected header 'eps,level," in lines[0]
        assert "expected section '# grid', found '# triangles 0'" in lines[1]

    def test_json_round_trip(self, flat_profile, tmp_path):
        config = tiny_config(flat_profile, LoadSpec(kind="cos_pi"))
        report = run_study(config)
        path = tmp_path / "study.json"
        write_report_json(report, path)
        back = read_report_json(path)
        assert back.rows == report.rows
        assert back.config.to_dict() == report.config.to_dict()


    def test_json_keeps_every_solver_option(self, flat_profile, tmp_path):
        """study.json reads back with the solver options the config ran
        with, every field set away from its default."""
        config = tiny_config(flat_profile, LoadSpec(kind="cos_pi"))
        config.solver = solve.SolveOptions(
            residual_tol=1e-9, max_newton=40, ls_backtrack=0.3,
            ls_sufficient_decrease=0.2, max_halvings=40,
            continuation_deltas=(1e-3, 1e-8), linear_tol=1e-11)
        default = solve.SolveOptions()
        assert all(getattr(config.solver, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(default))
        path = tmp_path / "study.json"
        write_report_json(study.StudyReport(config=config, rows=[]), path)
        assert read_report_json(path).config.solver == config.solver


class TestLoadSpec:
    def test_kinds(self):
        x = np.array([0.0, 0.5])
        y = np.zeros(2)
        assert np.allclose(LoadSpec(kind="constant", value=2.0)(x, y), 2.0)
        assert np.allclose(LoadSpec(kind="cos_pi")(x, y), [1.0, 0.0], atol=1e-15)
        assert np.allclose(LoadSpec(kind="linear", value=2.0, offset=1.0)(x, y),
                           [1.0, 2.0])

    def test_vertical_modulation(self):
        load = LoadSpec(kind="constant", value=1.0, x2_coeff=0.5)
        assert np.allclose(load(np.zeros(2), np.array([0.0, 2.0])), [1.0, 2.0])

    def test_round_trip(self):
        load = LoadSpec(kind="cos_pi", value=1.5, k=2)
        assert LoadSpec.from_dict(load.to_dict()) == load

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LoadSpec(kind="random")


class TestConfigValidation:
    def test_bad_p(self, flat_profile):
        with pytest.raises(ValueError, match="p must exceed 1"):
            tiny_config(flat_profile, LoadSpec(kind="cos_pi"), p=1.0)

    def test_nonmonotone_ladder(self, flat_profile):
        with pytest.raises(ValueError, match="decreasing"):
            tiny_config(flat_profile, LoadSpec(kind="cos_pi"),
                        epsilons=(0.25, 0.5))

    def test_round_trip(self, reference_profile):
        config = tiny_config(reference_profile, LoadSpec(kind="cos_pi"))
        back = StudyConfig.from_dict(config.to_dict())
        assert back.to_dict() == config.to_dict()

    def test_absent_sizes_take_field_defaults(self, reference_profile):
        """A config that names no size gets the dataclass defaults."""
        data = tiny_config(reference_profile, LoadSpec(kind="cos_pi")).to_dict()
        for key in ("cell_mesh", "thin_mesh", "limit_elements",
                    "flux_stations", "max_workers"):
            del data[key]
        config = StudyConfig.from_dict(data)
        assert config == StudyConfig(
            profile=config.profile, p=config.p, load=config.load,
            epsilons=config.epsilons, partition_levels=config.partition_levels,
            solver=config.solver)
        assert (config.cell_nx, config.thin_ny, config.max_workers) == (128, 16, 1)
