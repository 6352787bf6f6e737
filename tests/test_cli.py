import json
import os

import numpy as np
import pytest

from oscthin.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, ConfigError, main,
                         parse_config, read_field)
from oscthin.geometry import read_mesh
from oscthin.limit1d import read_solution
from oscthin.homogenize import read_cell_summary
from oscthin.study import read_report_csv, read_report_json

REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                                "reference.json")


def write_config(path, **overrides):
    data = {
        "profile": {"period": 1.0, "mean": 1.0, "cos_coeffs": [], "sin_coeffs": []},
        "p": 3.0,
        "load": {"kind": "constant", "value": 1.0},
        "epsilons": [0.5, 0.25],
        "partition_levels": [2],
        "cell_mesh": {"nx": 16, "ny": 8},
        "thin_mesh": {"nx_per_period": 8, "ny": 4},
        "limit_elements": 64,
        "flux_stations": 50,
    }
    data.update(overrides)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


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
        assert config.solver.continuation_deltas == (1e-2, 1e-4, 1e-8)

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
        nodes, phi = read_field(out / "cell_phi.txt")
        assert len(phi) == mesh.num_nodes
        assert np.abs(phi).max() < 1e-10

    def test_solve_limit_unit_forcing(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["solve-limit", "--config", path, "--out", str(out)]) == EXIT_OK
        x, u0 = read_solution(out / "u0.csv")
        assert np.abs(u0 - 1.0).max() < 1e-8

    def test_solve_eps_writes_solution_and_flux(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        code = main(["solve-eps", "--config", path, "--eps", "0.5",
                     "--out", str(out)])
        assert code == EXIT_OK
        nodes, u = read_field(out / "u_eps.txt")
        assert np.abs(u - 1.0).max() < 1e-8
        flux = np.genfromtxt(out / "flux_profile.csv", delimiter=",",
                             names=True)
        assert np.abs(flux["flux"]).max() < 1e-8

    def test_study_constant_load_errors_vanish(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["study", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = read_report_csv(out / "study.csv")
        assert len(rows) == 2
        for row in rows:
            assert row.status == "ok"
            assert row.err_u < 1e-8
            assert row.err_corrector < 1e-8
            assert row.flux_discrepancy < 1e-8
        report = read_report_json(out / "study.json")
        assert report.rows == rows

    def test_study_outputs_deterministic(self, tmp_path):
        path = write_config(tmp_path / "cfg.json",
                            load={"kind": "cos_pi", "value": 1.0})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["study", "--config", path, "--out", str(out1)]) == EXIT_OK
        assert main(["study", "--config", path, "--out", str(out2)]) == EXIT_OK

        def masked(path):
            rows = read_report_csv(path)
            return [vars(r) | {"wall_time": 0.0} for r in rows]

        assert masked(out1 / "study.csv") == masked(out2 / "study.csv")

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", p=1.0)
        assert main(["cell", "--config", path]) == EXIT_CONFIG
        assert "p must exceed 1" in capsys.readouterr().err

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

    def test_bad_p_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path, "--p", "1.0"]) == EXIT_CONFIG
        assert "p must exceed 1" in capsys.readouterr().err

    def test_bad_eps_override_is_config_error(self, tmp_path):
        path = write_config(tmp_path / "cfg.json")
        assert main(["solve-eps", "--config", path, "--eps", "0.3"]) == EXIT_CONFIG

    def test_p_override(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path, "--p", "2.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert dict(line.split() for line in out.strip().splitlines())["p"] == "2.0"

    def test_resolution_override(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        assert main(["cell", "--config", path, "--resolution", "8"]) == EXIT_OK

    def test_thread_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OSCTHIN_THREADS", "2")
        path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["study", "--config", path, "--out", str(out)]) == EXIT_OK
        rows = read_report_csv(out / "study.csv")
        assert [r.eps for r in rows] == [0.5, 0.25]
