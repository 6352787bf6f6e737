import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from oscthin import build_cell_mesh, build_thin_mesh, geometry, study
from oscthin.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER,
                         ConfigError, main, parse_config, read_field,
                         write_field)
from oscthin.geometry import read_mesh, read_table, write_mesh, write_table
from oscthin.limit1d import read_solution, write_solution
from oscthin.homogenize import COEFF_AGREEMENT, read_cell_summary
from oscthin.study import read_report_json

import oracles

REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                                "reference.json")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _readme_edge_claims():
    """The README's edges-of-p bullets by their first quote (the command's
    arguments): (exit code, the bullet's further quotes)."""
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("The edges of p are measured"):
                   text.index("### Config file format")]
    claims = {}
    for bullet in section.split("\n* ")[1:]:
        bullet = " ".join(bullet.split("\n\n")[0].split())
        argv, *quotes = re.findall(r"`([^`]+)`", bullet)
        claims[argv] = (int(re.search(r": exit (\d)", bullet).group(1)), quotes)
    return claims


def _assert_same_words_and_numbers(expected, actual):
    assert NUMBER.split(actual) == NUMBER.split(expected)
    for a, b in zip(NUMBER.findall(actual), NUMBER.findall(expected)):
        assert float(a) == pytest.approx(float(b), rel=1e-12)


# an override that drops the key from the written config
MISSING = object()


def write_config(path, **overrides):
    data = {
        "profile": {"period": 1.0, "mean": 1.0, "cos_coeffs": [], "sin_coeffs": []},
        "p": 3.0,
        "load": {"kind": "constant", "value": 1.0},
        "epsilons": [0.5, 0.25],
        "partition_levels": [2],
        "cell_mesh": {"nx": 16, "ny": 8},
        "thin_mesh": {"nx_per_period": 8, "ny": 4},
    }
    data.update(overrides)
    data = {key: value for key, value in data.items() if value is not MISSING}
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


@pytest.mark.parametrize("kind", ["cell", "thin"])
def test_writers_match_row_by_row_format(reference_profile, tmp_path, kind):
    """The bulk mesh, field, limit-solution and flux-profile writers give
    the bytes of the row-by-row table format; the cell has more nodes than
    one written chunk.  The thin case's flux profile is that of a
    solve-eps run at its mesh."""
    mesh = (build_cell_mesh(reference_profile, 64, 32) if kind == "cell"
            else build_thin_mesh(reference_profile, 0.25, 8, 4))
    x1, x2 = oracles.nodes(mesh)[:mesh.num_nodes].T
    values = np.sin(3.0 * x1) * x2
    write_mesh(mesh, tmp_path / "mesh.txt")
    write_field(mesh, values, tmp_path / "field.txt")
    write_solution(values, tmp_path / "u0.txt")
    expected = {
        "mesh.txt": (("x", "height"), (mesh.grid_x, mesh.grid_heights),
                     {"kind": kind, "rows": mesh.grid_rows,
                      "eps": "" if mesh.eps is None else repr(mesh.eps)}),
        "field.txt": (("value",), (values,), {}),
        "u0.txt": (("x", "u0"), (np.linspace(0.0, 1.0, len(values)), values),
                   {}),
    }
    if kind == "thin":
        path = write_config(
            tmp_path / "cfg.json", profile={"period": 1.0, "mean": 1.0,
                                            "cos_coeffs": [0.5]},
            load={"kind": "cos_pi"}, thin_mesh={"nx_per_period": 8, "ny": 4})
        assert main(["solve-eps", "--config", path, "--eps", "0.25",
                     "--out", str(tmp_path)]) == EXIT_OK
        config = parse_config(path)
        cell = study.solve_config_cell(config)
        solved, u, _, _, du0 = study.solve_eps(config, cell, 0.25)
        assert solved.num_nodes == mesh.num_nodes
        expected["flux_profile.txt"] = (
            ("x1", "flux", "smoothed", "target"),
            (study.STATIONS,
             *study.flux_profiles(config, cell, solved, u, du0)), {})
    for name, (names, columns, meta) in expected.items():
        text = oracles.row_by_row_table_text(names, columns, meta)
        assert (tmp_path / name).read_bytes() == text.encode(), name


@pytest.mark.parametrize("kind", ["cell", "thin"])
def test_mesh_and_field_give_every_node(reference_profile, tmp_path, kind):
    """read_mesh and read_field give every node's (x1, x2, value) bit for
    bit: the field on the grid, values[mesh.grid_nodes.T], lines up with
    mesh.grid_coordinates(), a cell's last column taking its first's
    values.  The cell has more nodes than one written chunk."""
    mesh = (build_cell_mesh(reference_profile, 64, 32) if kind == "cell"
            else build_thin_mesh(reference_profile, 0.25, 8, 4))
    nodes = oracles.nodes(mesh)
    values = np.sin(3.0 * nodes[:mesh.num_nodes, 0]) + nodes[:mesh.num_nodes, 1]
    write_mesh(mesh, tmp_path / "mesh.txt")
    write_field(mesh, values, tmp_path / "field.txt")
    back = read_mesh(tmp_path / "mesh.txt")
    x1, x2 = back.grid_coordinates()
    got = np.stack([x1, x2, read_field(tmp_path / "field.txt")[back.grid_nodes.T]])
    node = oracles.grid_nodes(mesh).T
    expected = np.stack([nodes[node, 0], nodes[node, 1],
                         oracles.unfold(mesh, values)[node]])
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("change", [-3, 3], ids=["short", "long"])
def test_field_of_wrong_length_refused(reference_profile, tmp_path, change):
    """A field with 3 values too few or too many for the mesh's nodes is
    refused before the file is opened, and so are table columns of
    unequal length or not one per name."""
    mesh = build_cell_mesh(reference_profile, 8, 4)
    values = np.zeros(mesh.num_nodes + change)
    with pytest.raises(ValueError, match="40 nodes"):
        write_field(mesh, values, tmp_path / "field.txt")
    with pytest.raises(ValueError, match="lengths"):
        write_table(tmp_path / "field.txt", ("x1", "value"),
                    (oracles.nodes(mesh)[:mesh.num_nodes, 0], values))
    with pytest.raises(ValueError, match="1 names"):
        write_table(tmp_path / "field.txt", ("x1",), (values, values))
    assert not (tmp_path / "field.txt").exists()


@pytest.mark.parametrize("change, message", [
    ("short", "record 14 is not an index and 1 number: '14'"),
    ("non_numeric", "record 0 is not an index and 1 number: '0 abc'"),
    ("extra", "record 15 has index 14"),
    ("long", "record 3 is not an index and 1 number: '3 3.0 7'"),
    ("header_only", "0 records after the header, expected 15"),
    ("cut", "14 records after the header, expected 15"),
])
def test_field_records_refused(reference_profile, tmp_path, change, message):
    """A field file cut short in its last record or at a record boundary,
    with a field that is not a number, a record repeated (under a count
    that admits it) or too long, or no record after the header is refused
    in one line naming the file."""
    mesh = build_thin_mesh(reference_profile, 1.0, 4, 2)
    path = tmp_path / "field.txt"
    write_field(mesh, np.arange(float(mesh.num_nodes)), path)
    lines = path.read_text().splitlines()
    if change == "short":
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
    elif change == "non_numeric":
        lines[1] = "0 abc"
    elif change == "extra":
        lines[0] = lines[0].replace("records=15", "records=16")
        lines.append(lines[-1])
    elif change == "long":
        lines[4] += " 7"
    elif change == "cut":
        lines = lines[:-1]
    else:
        lines = lines[:1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_field(path)
    assert str(info.value) == f"{path}: {message}"


# Newton's settings are no config keys: a solver section, the layout of
# earlier versions, is refused by name whatever it holds
SOLVER_SECTIONS = {
    "deltas_number": {"continuation_deltas": 1e-8},
    "max_halvings_float": {"max_halvings": 2.5},
    "max_newton_float": {"max_newton": 2.5},
    "residual_tol_bool": {"residual_tol": True},
    "residual_tol_inf": {"residual_tol": 1e309},
    "linear_tol_inf": {"linear_tol": 1e309},
    "max_halvings_negative": {"max_halvings": -1},
    "sufficient_decrease": {"ls_sufficient_decrease": 0.25},
    "deltas_string": {"continuation_deltas": ["0.01", "1e-8"]},
    "solver_typo": {"max_newtons": 3},
    "delta_inf": {"continuation_deltas": [1e-2, 1e309]},
    "solver_list": [],
    "solver_string": "abc",
    "deltas_empty": {"continuation_deltas": []},
    "backtrack_one": {"ls_backtrack": 1.0},
    "backtrack_zero": {"ls_backtrack": 0},
}


class TestParseConfig:
    def test_reference_config_parses_to_documented_values(self):
        config = parse_config(REFERENCE_CONFIG)
        assert config.profile.period == 1.0
        assert config.profile.cos_coeffs == (0.5,)
        assert config.p == 3.0
        assert config.load.kind == "cos_pi"
        assert config.epsilons == (0.5, 0.25, 0.125, 0.0625)
        assert config.partition_levels == (2, 4, 6)
        assert (config.cell_nx, config.cell_ny) == (128, 32)
        assert (config.thin_nx_per_period, config.thin_ny) == (32, 16)

    def test_readme_example_is_the_reference_config(self):
        """The README's config example, the first json block under its
        "Config file format" heading, is configs/reference.json."""
        with open(README) as fh:
            text = fh.read()
        section = text[text.index("### Config file format"):]
        block = section[section.index("```json\n") + len("```json\n"):]
        with open(REFERENCE_CONFIG) as fh:
            assert json.loads(block[:block.index("```")]) == json.load(fh)

    def test_p_of_one_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.json", p=1.0)
        with pytest.raises(ConfigError, match="p must exceed 1"):
            parse_config(path)

    def test_nonpositive_profile_rejected(self, tmp_path):
        path = write_config(tmp_path / "bad.json",
                            profile={"period": 1.0, "mean": 0.1,
                                     "cos_coeffs": [0.5], "sin_coeffs": []})
        with pytest.raises(ConfigError, match="positive"):
            parse_config(path)

    @pytest.mark.parametrize("overrides, key", [
        ({"limit_element": 8}, "'limit_element'"),
        ({"profile": {"period": 1.0, "mean": 1.0, "cos_coef": [0.5]}},
         "'cos_coef' in profile"),
        ({"cell_mesh": {"nx": 16, "nY": 8}}, "'nY' in cell_mesh"),
        ({"thin_mesh": {"nx": 8, "ny": 4}}, "'nx' in thin_mesh"),
        ({"max_workers": 1}, "'max_workers'"),
        ({"load": {"kind": "constant", "value": 1.0, "kk": 2}},
         "'kk' in load"),
    ])
    def test_unknown_key_rejected(self, tmp_path, overrides, key):
        path = write_config(tmp_path / "typo.json", **overrides)
        with pytest.raises(ConfigError, match=f"unknown config key {key}"):
            parse_config(path)
        assert main(["cell", "--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("field", ["value", "offset", "x2_coeff"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_load_rejected(self, tmp_path, field, bad):
        load = {"kind": "linear", "value": 1.0, field: bad}
        path = write_config(tmp_path / "bad.json", load=load)
        with pytest.raises(ConfigError, match=f"load {field} must be finite"):
            parse_config(path)
        assert main(["solve-eps", "--config", path, "--eps", "0.5"]) == EXIT_CONFIG

    @pytest.mark.parametrize("overrides, message", [
        ({"thin_mesh": {"nx_per_period": 1, "ny": 4}},
         "thin_mesh.nx_per_period must be at least 2, got 1"),
        ({"thin_mesh": {"nx_per_period": 8, "ny": 1}},
         "thin_mesh.ny must be at least 2, got 1"),
        # the limit grid and the flux stations are constants of the study
        ({"limit_elements": 1}, "unknown config key 'limit_elements'"),
        ({"flux_stations": 0}, "unknown config key 'flux_stations'"),
        ({"flux_stations": -3}, "unknown config key 'flux_stations'"),
        ({"limit_elements": 64.9}, "unknown config key 'limit_elements'"),
        ({"thin_mesh": {"nx_per_period": 8, "ny": "8"}},
         "thin_mesh.ny must be an integer, got '8'"),
        ({"flux_stations": 2.5}, "unknown config key 'flux_stations'"),
        ({"cell_mesh": {"nx": True, "ny": 8}},
         "cell_mesh.nx must be an integer, got True"),
        ({"cell_mesh": {"nx": 32, "ny": 8.0}},
         "cell_mesh.ny must be an integer, got 8.0"),
        ({"partition_levels": [2.5]},
         "partition_levels must be an integer, got 2.5"),
        ({"partition_levels": [2, True]},
         "partition_levels must be an integer, got True"),
        ({"partition_levels": ["4"]},
         "partition_levels must be an integer, got '4'"),
        ({"partition_levels": [2, 7]},
         "partition_levels must be at most 6 (cells no narrower than a "
         "column half of the finest thin mesh), got 7"),
        ({"partition_levels": [40]},
         "partition_levels must be at most 6 (cells no narrower than a "
         "column half of the finest thin mesh), got 40"),
        ({"p": "3"}, "p must be a number, got '3'"),
        ({"epsilons": ["0.5", "0.25"]}, "epsilons must be a number, got '0.5'"),
        ({"epsilons": [True, 0.5]}, "epsilons must be a number, got True"),
        ({"profile": {"period": "1.0", "mean": 1.0}},
         "profile.period must be a number, got '1.0'"),
        ({"profile": {"period": 1.0, "mean": 1.0, "cos_coeffs": ["0.5"]}},
         "profile.cos_coeffs must be a number, got '0.5'"),
        # a list-valued key given one value is refused, not iterated
        ({"epsilons": 0.5}, "epsilons must be a list, got 0.5"),
        ({"partition_levels": "24"},
         "partition_levels must be a list, got '24'"),
        ({"profile": {"period": 1.0, "mean": 1.0, "cos_coeffs": "0.5"}},
         "profile.cos_coeffs must be a list, got '0.5'"),
        ({"profile": {"period": 1.0, "mean": 1.0, "sin_coeffs": 0.5}},
         "profile.sin_coeffs must be a list, got 0.5"),
        ({"load": {"kind": "constant", "value": True}},
         "load value must be a number, got True"),
        # 1e309 overflows to inf, in the config file as here
        ({"p": 1e309}, "p must be finite, got inf"),
        ({"epsilons": [1e309]}, "epsilons must be finite, got inf"),
        ({"epsilons": [0.5, -0.5]}, "epsilons must lie in (0, 1], got -0.5"),
        ({"epsilons": [2.0]}, "epsilons must lie in (0, 1], got 2.0"),
        # every section is a JSON object
        ({"thin_mesh": "x"}, "thin_mesh must be an object, got 'x'"),
        ({"cell_mesh": []}, "cell_mesh must be an object, got []"),
        ({"profile": [1.0]}, "profile must be an object, got [1.0]"),
        ({"load": "constant"}, "load must be an object, got 'constant'"),
        ({"p": MISSING}, "config is missing or mistypes a field: 'p'"),
        ({"profile": MISSING},
         "config is missing or mistypes a field: 'profile'"),
        ({"epsilons": []}, "the oscillation ladder must not be empty"),
        ({"partition_levels": []}, "the partition ladder must not be empty"),
        ({"partition_levels": [2, 4, 4]},
         "partition_levels must not repeat a level, got [2, 4, 4]"),
        *(({"solver": section}, "unknown config key 'solver'")
          for section in SOLVER_SECTIONS.values()),
    ], ids=["nx_per_period", "ny", "limit_elements", "flux_stations_0",
            "flux_stations_negative", "limit_elements_float", "ny_string",
            "flux_stations_float", "cell_nx_bool", "cell_ny_float",
            "level_float", "level_bool",
            "level_string", "level_past_mesh", "level_huge", "p_string",
            "eps_string", "eps_bool", "period_string", "cos_coeff_string",
            "eps_number", "levels_string", "cos_coeffs_string",
            "sin_coeffs_number", "load_value_bool", "p_inf", "eps_inf",
            "eps_negative", "eps_above_one",
            "thin_mesh_string", "cell_mesh_list", "profile_list",
            "load_string", "p_missing", "profile_missing", "eps_empty",
            "levels_empty", "levels_repeated", *SOLVER_SECTIONS])
    @pytest.mark.parametrize("command", ["study", "solve-eps", "cell"])
    def test_bad_size_is_config_error(self, tmp_path, capsys, monkeypatch,
                                      overrides, message, command):
        """Sizes and types are checked with the config, before any solve:
        one line and exit 2, not a failed row, a traceback, a value
        coerced from a string or bool or a silent 0."""
        def no_cell(config):
            raise AssertionError("the cell was solved")

        monkeypatch.setattr(study, "solve_config_cell", no_cell)
        path = write_config(tmp_path / "bad.json", **overrides)
        assert main([command, "--config", path, "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("flag, message", [
        ("--p", "p must be finite, got inf"),
        ("--eps", "epsilons must be finite, got inf")], ids=["p", "eps"])
    @pytest.mark.parametrize("command", ["study", "solve-eps", "cell"])
    def test_non_finite_override_is_config_error(self, tmp_path, capsys,
                                                 monkeypatch, flag, message,
                                                 command):
        """An override of inf on the command line is refused like one in
        the config file."""
        def no_cell(config):
            raise AssertionError("the cell was solved")

        monkeypatch.setattr(study, "solve_config_cell", no_cell)
        path = write_config(tmp_path / "cfg.json")
        assert main([command, "--config", path, flag, "inf", "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("value", ["-0.5", "0"])
    @pytest.mark.parametrize("command",
                             ["study", "solve-eps", "solve-limit", "cell"])
    def test_eps_override_outside_unit_interval_is_config_error(
            self, tmp_path, capsys, monkeypatch, value, command):
        """An eps override of 0 or below is refused with the config, on
        every command, before the cell is solved: one line and exit 2,
        not a limit solved from its forcing or NaN warnings and exit 3."""
        def no_cell(config):
            raise AssertionError("the cell was solved")

        monkeypatch.setattr(study, "solve_config_cell", no_cell)
        path = write_config(tmp_path / "cfg.json")
        assert main([command, "--config", path, f"--eps={value}", "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        message = f"epsilons must lie in (0, 1], got {float(value)!r}"
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("k", ["a", 1.5, 2.0, True, None])
    def test_non_integer_load_k_rejected(self, tmp_path, capsys, k):
        load = {"kind": "cos_pi", "value": 1.0, "k": k}
        path = write_config(tmp_path / "bad.json", load=load)
        assert main(["study", "--config", path, "--out",
                     str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: load k must be an integer, got {k!r}\n"

    def test_config_not_an_object_refused(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["cell", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: config must be an object, got [1, 2]\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.json"))

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  oops\n}")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(str(path))


class TestCommands:
    def test_cell_flat_profile_prints_unit_coefficient(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        coeff = dict(line.split() for line in out.strip().splitlines())
        assert abs(float(coeff["coeff_flux"]) - 1.0) < 1e-10

    def test_cell_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["cell", "--config", path, "--out", str(out)]) == EXIT_OK
        summary = read_cell_summary(out / "cell_summary.txt")
        assert abs(summary["coeff_flux"] - 1.0) < 1e-10
        mesh = read_mesh(out / "cell_mesh.txt")
        phi = read_field(out / "cell_phi.txt")
        assert sorted(os.listdir(out)) == ["cell_mesh.txt", "cell_phi.txt",
                                           "cell_summary.txt"]
        # one record per distinct node: the last column is the first
        assert len(phi) == mesh.num_nodes == 16 * 9
        assert np.abs(phi).max() < 1e-10
        # the file holds only the grid; what read_mesh builds from it is
        # the mesh the cell was solved on
        solved = study.solve_config_cell(parse_config(path)).mesh
        for name in ("grid_x", "grid_heights", "grid_rows", "grid_nodes"):
            assert np.array_equal(getattr(mesh, name), getattr(solved, name))
        for table in (oracles.nodes, oracles.triangles):
            assert np.array_equal(table(mesh), table(solved))
        edges = oracles.boundary_edges(mesh)
        assert edges.keys() == oracles.boundary_edges(solved).keys()
        for tag, solved_edges in oracles.boundary_edges(solved).items():
            assert np.array_equal(edges[tag], solved_edges)

    def test_solve_limit_unit_forcing(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["solve-limit", "--config", path, "--out", str(out)]) == EXIT_OK
        assert os.listdir(out) == ["u0.txt"]
        x, u0 = read_solution(out / "u0.txt")
        assert np.abs(u0 - 1.0).max() < 1e-8

    def test_solve_eps_writes_solution_and_flux(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        code = main(["solve-eps", "--config", path, "--eps", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert sorted(os.listdir(out)) == ["flux_profile.txt", "thin_mesh.txt",
                                           "u_eps.txt"]
        mesh = read_mesh(out / "thin_mesh.txt")
        # the mesh u_eps was solved on
        built = build_thin_mesh(parse_config(path).profile, 0.5, 8, 4)
        for name in ("domain_kind", "eps", "grid_x", "grid_heights", "grid_rows"):
            assert np.array_equal(getattr(mesh, name), getattr(built, name))
        u = read_field(out / "u_eps.txt")
        assert len(u) == mesh.num_nodes
        assert np.abs(u - 1.0).max() < 1e-8
        flux, meta = read_table(out / "flux_profile.txt",
                                ("x1", "flux", "smoothed", "target"))
        assert meta == {} and np.array_equal(flux[:, 0], study.STATIONS)
        assert np.abs(flux[:, 1]).max() < 1e-8

    def test_study_constant_load_errors_vanish(self, tmp_path):
        """The study writes its one report, study.json, and nothing else."""
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["study", "--config", path, "--out", str(out)]) == EXIT_OK
        assert os.listdir(out) == ["study.json"]
        rows = read_report_json(out / "study.json").rows
        assert len(rows) == 2
        for row in rows:
            assert row.status == "ok"
            assert row.err_u < 1e-8
            assert row.err_corrector < 1e-8
            assert row.flux_discrepancy < 1e-8

    def test_study_outputs_deterministic(self, tmp_path):
        path = write_config(tmp_path / "cfg.json",
                            load={"kind": "cos_pi", "value": 1.0})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["study", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["study", "--config", path, "--out", str(out2)]) == EXIT_OK

        def masked(out):
            return read_report_json(out / "study.json").canonical().rows

        assert masked(out1) == masked(out2)

    def test_study_at_coarsest_resolution(self, tmp_path):
        """At --resolution 4 the top barycenter of a coarse thin column lies
        above the finer cell polyline in the convex trough of the
        reference profile; the cell lookup still finds it, so every row
        is solved."""
        out = tmp_path / "out"
        assert main(["study", "--config", REFERENCE_CONFIG, "--resolution",
                     "4", "--out", str(out)]) == EXIT_OK
        rows = read_report_json(out / "study.json").rows
        assert len(rows) == 12
        assert all(row.status == "ok" for row in rows)

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", p=1.0)
        assert main(["cell", "--config", path]) == EXIT_CONFIG
        assert "p must exceed 1" in capsys.readouterr().err

    def test_resolution_below_four_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path, "--resolution", "3"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: resolution must be at least 4\n")

    @pytest.mark.parametrize("where", ["out", "config"])
    def test_io_error_exit_code(self, tmp_path, capsys, where):
        """An --out that names an existing file, or a --config that names
        a directory, exits 4 with one line."""
        path = write_config(tmp_path / "cfg.json")
        existing = tmp_path / "existing"
        existing.write_text("")
        argv = (["--config", path, "--out", str(existing)] if where == "out"
                else ["--config", str(tmp_path)])
        assert main(["cell", *argv]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error (cell): ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("load, message", [
        # the residual norm overflows: Newton must not report convergence
        ({"kind": "constant", "value": 1e300}, "residual norm is inf"),
        # finite inputs whose product overflows inside assembly
        ({"kind": "constant", "value": 1e308, "x2_coeff": 1e308},
         "non-finite load"),
    ])
    def test_solver_failure_exit_code(self, tmp_path, capsys, load, message):
        path = write_config(tmp_path / "cfg.json", load=load)
        code = main(["solve-eps", "--config", path, "--eps", "0.5",
                     "--resolution", "4", "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_unconverged_cell_exit_code(self, capsys):
        """At p = 1.1 the 64x16 reference cell's coefficient formulas
        disagree: exit 3 and one line that names both."""
        assert main(["cell", "--config", REFERENCE_CONFIG, "--p", "1.1",
                     "--resolution", "16"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error (cell): coefficient formulas "
                              "disagree: flux=0.57428")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, argv", [
        ("cell", ["--p", "1e300"]),
        ("solve-limit", ["--p", "1e300"]),
        ("study", ["--p", "1e300"]),
        ("cell", ["--p", "1e6", "--resolution", "4"]),
    ], ids=["cell", "solve-limit", "study", "cell-1e6"])
    def test_overflowing_p_exit_code(self, tmp_path, capsys, command, argv):
        """A p whose flux overflows raises no numpy warning (an error
        under the test suite's warning filter), and the predictor's
        (p - 2)^2 and (p - 2)^3 no OverflowError.  At p = 1e300 the flux
        overflows at every start: exit 3 with one line.  At p = 1e6 on
        the 16x4 cell the predictor's starts overflow, and the ladder from
        zero converges, its overflowing trials rejected: exit 0 with
        coefficients that agree."""
        code = main([command, "--config", REFERENCE_CONFIG, *argv,
                     "--out", str(tmp_path)])
        captured = capsys.readouterr()
        if "1e6" in argv:
            assert code == EXIT_OK and captured.err == ""
            summary = read_cell_summary(tmp_path / "cell_summary.txt")
            assert (abs(summary["coeff_flux"] - summary["coeff_energy"])
                    <= COEFF_AGREEMENT * summary["coeff_energy"])
            return
        assert code == EXIT_SOLVER
        assert captured.err.startswith(
            f"solver error ({command}): non-finite flux")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("claim", [
        "--p 1.1", "--p 8", "solve-limit --p 8", "--p 1e300",
        "cell --resolution 4 --p 1e6",
        "solve-limit --resolution 4 --p 400", "cell --p 400"])
    def test_readme_edges_of_p_reproduced(self, tmp_path, capsys, claim):
        """The README's edges-of-p bullets, run through main on the
        reference config (study unless the bullet names a command): the
        exit code, and each quoted line in its words exactly and its
        numbers to 1e-12 relative.  On exit 0 stderr is empty and the
        quote is a line of stdout.  At p = 8 every row's stall line is
        on stderr, the first one quoted, and stdout ends with the quoted
        count."""
        code, quotes = _readme_edge_claims()[claim]
        command, *argv = (claim if not claim.startswith("--")
                          else "study " + claim).split()
        assert main([command, "--config", REFERENCE_CONFIG, *argv,
                     "--out", str(tmp_path)]) == code
        captured = capsys.readouterr()
        lines = [line.strip() for line in captured.err.splitlines()]
        if code == EXIT_OK:
            assert lines == []
            key = quotes[0].split()[0]
            [line] = [line for line in captured.out.splitlines()
                      if line.split()[0] == key]
            _assert_same_words_and_numbers(quotes[0], line)
            return
        if claim != "--p 8":
            assert len(lines) == 1
            _assert_same_words_and_numbers(quotes[0], lines[0])
            return
        first, finished = quotes
        rows = int(NUMBER.findall(finished)[0])
        assert finished == f"study finished: {rows} rows ({rows} failed)"
        assert len(lines) == rows == 12
        _assert_same_words_and_numbers(first, lines[0])
        assert all("LineSearchStallError: line search stalled at stage "
                   "delta=1.0e-02, iteration 0:" in line for line in lines)
        last = captured.out.splitlines()[-1]
        assert last == f"{finished}, written to {tmp_path}"

    def test_bad_p_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path, "--p", "1.0"]) == EXIT_CONFIG
        assert "p must exceed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["study", "solve-eps", "solve-limit", "cell"])
    def test_non_tiling_eps_is_config_error(self, tmp_path, capsys,
                                            monkeypatch, command):
        """An eps that does not tile the unit interval is refused with the
        config, on every command: one line and exit 2, before the cell
        solve, and no output written."""
        cells = []
        monkeypatch.setattr(study, "solve_config_cell", cells.append)
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main([command, "--config", path, "--eps", "0.3",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: eps=0.3 does not tile")
        assert err.count("\n") == 1
        assert cells == [] and not out.exists()

    @pytest.mark.parametrize("command", ["study", "solve-eps"])
    def test_eps_too_small_to_mesh_is_config_error(self, tmp_path, capsys,
                                                   monkeypatch, command):
        """An eps whose thin mesh has more nodes than the solver's band
        addresses stops with one line naming eps and the node count,
        before the cell solve."""
        cells = []
        monkeypatch.setattr(study, "solve_config_cell", cells.append)
        path = write_config(tmp_path / "cfg.json")
        assert main([command, "--config", path, "--eps", "1e-300",
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: eps=1e-300 needs 4e+301 thin-mesh nodes, more "
            "than the solver's 2^29 - 1\n")
        assert cells == []

    @pytest.mark.parametrize("cell_mesh, argv, message", [
        ({"nx": 1000000, "ny": 100000}, [],
         "cell_mesh 1000000x100000 needs 1e+11 cell-mesh nodes"),
        ({"nx": 16, "ny": 8}, ["--resolution", "10000"],
         "cell_mesh 40000x10000 needs 4e+08 cell-mesh nodes")],
        ids=["config", "resolution"])
    @pytest.mark.parametrize("command",
                             ["study", "solve-eps", "solve-limit", "cell"])
    def test_cell_mesh_too_large_is_config_error(self, tmp_path, capsys,
                                                 monkeypatch, cell_mesh, argv,
                                                 message, command):
        """A cell mesh with more nodes than its band of up to eight
        diagonals addresses is refused with the config, in the file and
        after --resolution: one line, before any cell mesh is built."""
        def no_mesh(*args):
            raise AssertionError("a cell mesh was built")

        monkeypatch.setattr(geometry, "build_cell_mesh", no_mesh)
        path = write_config(tmp_path / "cfg.json", cell_mesh=cell_mesh)
        assert main([command, "--config", path, *argv,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {message}, more than the solver's 2^28 - 1\n")

    @pytest.mark.parametrize("command",
                             ["study", "solve-eps", "solve-limit", "cell"])
    def test_subnormal_period_is_config_error(self, tmp_path, capsys,
                                              command):
        """A period so small that 1/(eps period) overflows tiles no whole
        count of periods: one line and exit 2, not a traceback."""
        path = write_config(tmp_path / "cfg.json",
                            profile={"period": 1e-320, "mean": 1.0})
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: eps=0.5 does not tile (0,1): "
                              "it must equal 1/(m*L) with integer m >= 1 "
                              "and L=1e-320 ")
        assert err.count("\n") == 1

    def test_p_override(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path, "--p", "2.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert dict(line.split() for line in out.strip().splitlines())["p"] == "2.0"

    def test_resolution_override(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path, "--resolution", "8"]) == EXIT_OK

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_blas_threads_default_to_one(self, preset):
        """Importing oscthin before numpy sets one BLAS thread unless the
        environment already names a count, which is kept."""
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        code = ("import os, sys, oscthin; assert 'numpy' in sys.modules; "
                f"print(' '.join(os.environ[k] for k in {names!r}))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == [preset or "1", "1", "1"]
