import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oscthin
from oscthin import (StudyConfig, build_cell_mesh, build_thin_mesh, geometry,
                     solve, solve_cell, study)
from oscthin.fem import FluxParams, element_gradients, p_flux
from oscthin.limit1d import nodal_derivative
from oscthin.study import (LoadSpec, box_smooth, cell_response,
                           corrector_field, dyadic_edges, error_corrector, error_u,
                           flux_profile, flux_stations, flux_target,
                           partition_average, read_report_json, run_study,
                           solve_config_cell, solve_thin, write_report_json)

import oracles
from test_geometry import TABLE_DAMAGE, write_damaged_tables


def tiny_config(profile, load, p=3.0, epsilons=(0.5, 0.25), levels=(2,)):
    return StudyConfig(
        profile=profile, p=p, load=load,
        epsilons=epsilons, partition_levels=levels,
        cell_nx=16, cell_ny=8, thin_nx_per_period=8, thin_ny=4,
        limit_elements=64, flux_stations=50)


# each way a study.json can be damaged, and what the refusal says after
# the file's name; a config that names max_workers is of the older layout
REPORT_DAMAGE = {
    "not_json": "Expecting value: line 1 column 1 (char 0)",
    "cut_short": "Expecting property name enclosed in double quotes",
    "empty_object": "missing key 'config'",
    "no_rows": "missing key 'rows'",
    "list": "report must be an object, got []",
    "row_number": "row must be an object, got 5",
    "row_lacks_status": ("StudyRow.__init__() missing 1 required positional "
                         "argument: 'status'"),
    "row_adds_field": ("StudyRow.__init__() got an unexpected keyword "
                       "argument 'extra'"),
    "max_workers": "unknown config key 'max_workers'",
    "eps_text": "row eps must be a number, got 'abc'",
    "level_fraction": "row level must be an integer, got 2.5",
    "err_null": "row err_u must be a number, got None",
    "iterations_bool": "row newton_iterations must be an integer, got True",
    "status_number": "row status must be a string, got 0",
}


def write_damaged_reports(directory, profile):
    """A one-row study.json damaged each REPORT_DAMAGE way, one file per
    case named after it: {case: path}."""
    row = study.StudyRow(eps=0.5, level=2, node_count=9, err_u=0.0,
                         err_corrector=0.0, err_naive=0.0,
                         flux_discrepancy=0.0, newton_iterations=1,
                         wall_time=0.0, status="ok")
    good = directory / "study.json"
    write_report_json(study.StudyReport(
        config=tiny_config(profile, LoadSpec(kind="cos_pi")), rows=[row]),
        good)
    text = good.read_text()
    data = json.loads(text)
    row = data["rows"][0]
    texts = {"not_json": "not json", "cut_short": text[:text.index('"rows"')]}
    payloads = {
        "empty_object": {},
        "no_rows": {"config": data["config"]},
        "list": [],
        "row_number": dict(data, rows=[5]),
        "row_lacks_status": dict(data, rows=[
            {k: v for k, v in row.items() if k != "status"}]),
        "row_adds_field": dict(data, rows=[dict(row, extra=1)]),
        "max_workers": dict(data, config=dict(data["config"], max_workers=1)),
        "eps_text": dict(data, rows=[dict(row, eps="abc")]),
        "level_fraction": dict(data, rows=[dict(row, level=2.5)]),
        "err_null": dict(data, rows=[dict(row, err_u=None)]),
        "iterations_bool": dict(data,
                                rows=[dict(row, newton_iterations=True)]),
        "status_number": dict(data, rows=[dict(row, status=0)]),
    }
    paths = {}
    for case in REPORT_DAMAGE:
        paths[case] = directory / f"{case}.json"
        paths[case].write_text(texts[case] if case in texts
                               else json.dumps(payloads[case]))
    return paths


class TestPartition:
    def test_dyadic_unit_period(self):
        edges = dyadic_edges(2, 1.0)
        assert len(edges) == 5
        assert np.allclose(np.diff(edges), 0.25)
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_remainder_cell(self):
        edges = dyadic_edges(2, 0.3)
        assert np.allclose(np.diff(edges)[:-1], 0.075)
        assert np.diff(edges)[-1] == pytest.approx(1.0 - 13 * 0.075)
        assert edges[-1] == 1.0

    def test_level_zero_single_cell(self):
        edges = dyadic_edges(0, 1.0)
        assert len(edges) == 2

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            dyadic_edges(-1, 1.0)


class TestPartitionAverage:
    def test_constant_samples(self):
        edges = dyadic_edges(3, 1.0)
        avg = partition_average(np.full(65, 2.5), edges)
        assert np.allclose(avg, 2.5)

    def test_linear_over_single_cell_is_midpoint(self):
        edges = dyadic_edges(0, 1.0)
        samples = 3.0 * np.linspace(0.0, 1.0, 33) - 1.0
        avg = partition_average(samples, edges)
        assert avg[0] == pytest.approx(0.5, abs=1e-12)

    def test_ladder_converges_to_pointwise_values(self):
        x = np.linspace(0.0, 1.0, 257)
        samples = np.sin(2.0 * np.pi * x)
        gaps = []
        for level in (2, 4, 6):
            edges = dyadic_edges(level, 1.0)
            avg = partition_average(samples, edges)
            mids = 0.5 * (edges[:-1] + edges[1:])
            gaps.append(np.abs(avg - np.sin(2.0 * np.pi * mids)).max())
        assert gaps[0] > gaps[1] > gaps[2]


class TestCorrector:
    def test_flat_profile_constant_derivative(self, flat_profile):
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 4), 3.0)
        mesh = build_thin_mesh(flat_profile, 0.25, 8, 4)
        edges = dyadic_edges(2, 1.0)
        du0 = np.full(65, 0.7)
        c = corrector_field(du0, edges, mesh, cell_response(cell, mesh))
        assert np.abs(c - [0.7, 0.0]).max() < 1e-12

    def test_zero_derivative_gives_zero(self, reference_profile):
        cell = solve_cell(build_cell_mesh(reference_profile, 16, 8), 3.0)
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        edges = dyadic_edges(2, 1.0)
        c = corrector_field(np.zeros(65), edges, mesh,
                            cell_response(cell, mesh))
        assert np.abs(c).max() == 0.0

    def test_mean_matches_cell_average(self, reference_profile):
        """Double-quadrature oracle: for constant limit derivative the mesh
        average of the corrector approaches the cell average of the response."""
        cell = solve_cell(build_cell_mesh(reference_profile, 64, 16), 3.0)
        eps = 1.0 / 16.0
        mesh = build_thin_mesh(reference_profile, eps, 16, 8)
        edges = dyadic_edges(4, 1.0)
        d = 0.7
        c = corrector_field(np.full(129, d), edges, mesh,
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
            edges = dyadic_edges(level, reference_profile.period)
            assert np.array_equal(
                corrector_field(du0, edges, mesh, response),
                oracles.corrector_field(cell, du0, edges, eps, mesh))

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

    def test_study_reads_only_the_thin_column_grid(self, reference_profile):
        """A cell solve and a ladder entry measure everything from the
        column grids, the only form a mesh has (test_api checks that no
        node or triangle table is left), and every row is ok."""
        config = tiny_config(reference_profile, LoadSpec(kind="cos_pi"),
                             levels=(2, 4))
        cell = solve_config_cell(config)
        rows = study._study_rows_for_eps(config, cell, 0.25)
        assert all(row.status == "ok" for row in rows)


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
        u_eps = np.interp(oracles.nodes(mesh)[:, 0], np.linspace(0.0, 1.0, 65), u0)
        assert error_u(mesh, u_eps, u0, 2.0) < 1e-12

    def test_error_corrector_flat_linear_matches_independent_pipeline(self, flat_profile):
        """Flat profile, p = 2: the whole chain against dense linear algebra.

        The load enters as a nodal field so both routes integrate the same
        interpolated data and solve the identical discrete system.
        """
        eps = 0.25
        mesh = build_thin_mesh(flat_profile, eps, 8, 8)
        x = np.linspace(0.0, 1.0, 65)

        u_eps, _ = solve_thin(mesh, 2.0, np.cos(np.pi * oracles.nodes(mesh)[:, 0]))
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 8), 2.0)
        forcing = np.cos(np.pi * x)
        from oscthin.limit1d import solve_homogenized
        from oscthin import Limit1DProblem
        u0, _ = solve_homogenized(
            Limit1DProblem(coeff=cell.coeff_flux, p=2.0, forcing=forcing))
        du0 = nodal_derivative(u0)
        edges = dyadic_edges(3, 1.0)
        c = corrector_field(du0, edges, mesh, cell_response(cell, mesh))
        err = error_corrector(mesh, element_gradients(mesh, u_eps), c, 2.0)

        # independent route: dense thin solve, dense limit solve, the flat
        # corrector is (partition-averaged du0, 0)
        u_oracle = oracles.linear_thin_solve(
            mesh, np.cos(np.pi * oracles.nodes(mesh)[:, 0]))
        u0_oracle = oracles.linear_limit_solve(1.0, forcing)
        du_oracle = nodal_derivative(u0_oracle)
        avg = partition_average(du_oracle, edges)
        bary_x = oracles.barycenters(mesh)[:, 0]
        idx = np.clip(np.searchsorted(edges, bary_x, side="right") - 1,
                      0, len(edges) - 2)
        # the scaled gradient (d1, d2/eps) from the hat-function gradients
        tris, _, hat_x, hat_y = oracles.tri_geometry(mesh)
        uv = u_oracle[tris]
        grads = np.column_stack([(uv * hat_x).sum(axis=1),
                                 (uv * hat_y).sum(axis=1) / eps])
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
        profile = flux_profile(mesh, u, 3.0, 20)
        assert np.abs(profile).max() < 1e-9

    def test_profile_matches_fiber_oracle(self, reference_profile):
        """The flux profile of a solved thin field equals the all-triangle
        clipper's operator times the flux a1 at the 250 stations, 0.25 and
        0.75 among them, which lie on column lines of 32 columns a period
        (so a station not shifted off its line lands in the wrong column)."""
        eps = 0.25
        mesh = build_thin_mesh(reference_profile, eps, 32, 8)
        u, _ = solve_thin(mesh, 3.0, LoadSpec(kind="cos_pi"))
        a1 = p_flux(element_gradients(mesh, u), FluxParams(p=3.0))[:, 0]
        oracle = oracles.fiber_matrix(mesh, 0, flux_stations(250)) @ a1
        profile = flux_profile(mesh, u, 3.0, 250)
        assert np.abs(profile - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_flat_linear_profile_matches_target(self, flat_profile):
        eps = 0.25
        mesh = build_thin_mesh(flat_profile, eps, 32, 16)
        u, _ = solve_thin(mesh, 2.0, LoadSpec(kind="cos_pi"))
        cell = solve_cell(build_cell_mesh(flat_profile, 8, 8), 2.0)
        x = np.linspace(0.0, 1.0, 129)
        from oscthin.limit1d import solve_homogenized
        from oscthin import Limit1DProblem
        u0, _ = solve_homogenized(
            Limit1DProblem(coeff=1.0, p=2.0, forcing=np.cos(np.pi * x)))
        du0 = nodal_derivative(u0)
        profile = flux_profile(mesh, u, 2.0, 40)
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

    def test_box_smooth_window_under_one_station_is_a_copy(self):
        """A window under one station spacing, as at eps 1/256, leaves the
        values as they are, in a copy."""
        vals = np.array([1.0, -2.0, 3.0])
        sm = box_smooth(vals, 0.1, 0.09)
        assert np.array_equal(sm, vals) and not np.shares_memory(sm, vals)

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

    def test_determinism(self, flat_profile, tmp_path):
        config = tiny_config(flat_profile, LoadSpec(kind="cos_pi"))
        first = run_study(config).canonical()
        second = run_study(config).canonical()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(first, p1)
        write_report_json(second, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReportIO:
    @pytest.mark.parametrize("case", REPORT_DAMAGE)
    def test_damaged_report_refused(self, flat_profile, tmp_path, case):
        path = write_damaged_reports(tmp_path, flat_profile)[case]
        with pytest.raises(ValueError) as info:
            read_report_json(path)
        message = str(info.value)
        assert message.startswith(f"{path}: {REPORT_DAMAGE[case]}")
        assert "\n" not in message

    def test_readers_reject_malformed_files_under_optimize(self, tmp_path,
                                                            flat_profile):
        """The report, table and mesh header checks are not asserts:
        python -O keeps them.  Each damaged report and each damaged table
        is refused naming the file.  A mesh header's eps token without '='
        or with a value that is no number is refused naming the file; a
        NaN is a number, which the thin mesh refuses."""
        reports = write_damaged_reports(tmp_path, flat_profile)
        tables = write_damaged_tables(tmp_path)
        bad_eps = ("eps", "eps=abc", "eps=nan")
        for k, token in enumerate(bad_eps):
            (tmp_path / f"eps{k}.txt").write_text(
                f"index x height records=3 kind=thin rows=2 {token}\n"
                "0 0.0 1.0\n1 0.5 1.0\n2 1.0 1.0\n")
        names = ([path.name for path in (*reports.values(), *tables.values())]
                 + [f"eps{k}.txt" for k in range(len(bad_eps))])
        script = (
            "import sys\n"
            "from oscthin.geometry import read_mesh, read_table\n"
            "from oscthin.study import read_report_json\n"
            "for name in sys.argv[1:]:\n"
            "    try:\n"
            "        if name.endswith('.json'):\n"
            "            read_report_json(name)\n"
            "        elif name.startswith('table_'):\n"
            "            read_table(name, ('x', 'height'))\n"
            "        else:\n"
            "            read_mesh(name)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
        src = os.path.dirname(os.path.dirname(oscthin.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-O", "-c", script, *names],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == len(names)
        expected = [*(f"{case}.json: {message}"
                      for case, message in REPORT_DAMAGE.items()),
                    *(f"table_{case}.txt: {message}"
                      for case, message in TABLE_DAMAGE.items()),
                    "eps0.txt: expected header 'index x height "
                    "records=<count> key=value ...', found 'index x height "
                    "records=3 kind=thin rows=2 eps'",
                    "eps1.txt: could not convert string to float: 'abc'",
                    "eps2.txt: a thin mesh needs its eps in (0, 1]: nan"]
        for line, start in zip(lines, expected):
            assert line.startswith(start)

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
        assert LoadSpec(**dataclasses.asdict(load)) == load

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
                    "flux_stations"):
            del data[key]
        config = StudyConfig.from_dict(data)
        assert config == StudyConfig(
            profile=config.profile, p=config.p, load=config.load,
            epsilons=config.epsilons, partition_levels=config.partition_levels,
            solver=config.solver)
        assert (config.cell_nx, config.thin_ny) == (128, 16)
