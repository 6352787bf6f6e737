"""Command-line front end: cell, solve-eps, solve-limit and study.

One JSON config file describes a whole study; each command reads the
sections it needs and ignores the rest.  Array outputs are
geometry.write_table tables, the report JSON and the cell summary ``name
value`` lines, so they diff cleanly and plot with any external tool.

Exit codes: 0 success, 2 config error, 3 solver non-convergence, 4 I/O
error.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import geometry, homogenize, limit1d, solve, study
from .geometry import MeshingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Raised when the config file cannot be parsed or validated."""


def parse_config(path):
    """Load and validate a study config from a JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        return study.StudyConfig.from_dict(data)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"config is missing or mistypes a field: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _apply_overrides(config, args):
    changes = {}
    if args.p is not None:
        changes["p"] = args.p
    if args.resolution is not None:
        r = args.resolution
        if r < 4:
            raise ConfigError("resolution must be at least 4")
        changes.update(cell_nx=4 * r, cell_ny=r, thin_nx_per_period=r,
                       thin_ny=max(2, r // 2))
    if args.eps is not None:
        changes["epsilons"] = (args.eps,)
    return dataclasses.replace(config, **changes)


def _field_path(out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_field(mesh, values, path):
    """Nodal field export: a geometry.write_table table, one ``index value``
    record per node in node order (geometry.write_mesh places the nodes).
    values needs one per node, else ValueError."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.num_nodes,):
        raise ValueError(f"a field on {mesh.num_nodes} nodes cannot take "
                         f"values of shape {values.shape}")
    geometry.write_table(path, ("value",), (values,))


def read_field(path):
    """Read a field written by write_field: its values; a table
    geometry.read_table refuses raises its ValueError."""
    return geometry.read_table(path, ("value",))[0][:, 0]


def _cmd_cell(config, args):
    cell = study.solve_config_cell(config)
    sys.stdout.write(homogenize.format_cell_summary(cell))
    if args.out:
        homogenize.write_cell_summary(cell, _field_path(args.out, "cell_summary.txt"))
        geometry.write_mesh(cell.mesh, _field_path(args.out, "cell_mesh.txt"))
        write_field(cell.mesh, cell.phi, _field_path(args.out, "cell_phi.txt"))
    return EXIT_OK


def _cmd_solve_eps(config, args):
    eps = min(config.epsilons)      # --eps overrides the whole ladder
    cell = study.solve_config_cell(config)
    mesh, u, diag, _, du0 = study.solve_eps(config, cell, eps)
    profiles = study.flux_profiles(config, cell, mesh, u, du0)

    out = args.out or "."
    geometry.write_mesh(mesh, _field_path(out, "thin_mesh.txt"))
    write_field(mesh, u, _field_path(out, "u_eps.txt"))
    geometry.write_table(_field_path(out, "flux_profile.txt"),
                         ("x1", "flux", "smoothed", "target"),
                         (study.STATIONS, *profiles))
    print(f"solved eps={eps!r}: {mesh.num_nodes} nodes, "
          f"{diag.total_iterations} Newton iterations, "
          f"final residual {diag.final_residual:.3e}")
    return EXIT_OK


def _cmd_solve_limit(config, args):
    eps = min(config.epsilons)      # --eps overrides the whole ladder
    cell = study.solve_config_cell(config)
    u0, diag = study.solve_limit(config, cell, eps)
    out = args.out or "."
    limit1d.write_solution(u0, _field_path(out, "u0.txt"))
    print(f"solved limit problem (coefficient {cell.coeff_flux!r}, "
          f"forcing from eps={eps!r}): {diag.total_iterations} Newton iterations")
    return EXIT_OK


def _cmd_study(config, args):
    report = study.run_study(config)
    out = args.out or "."
    study.write_report_json(report, _field_path(out, "study.json"))
    failed = [row for row in report.rows if row.status != "ok"]
    print(f"study finished: {len(report.rows)} rows "
          f"({len(failed)} failed), written to {out}")
    if failed:
        for row in failed:
            print(f"  eps={row.eps!r} level={row.level}: {row.status}",
                  file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


_COMMANDS = {
    "cell": _cmd_cell,
    "solve-eps": _cmd_solve_eps,
    "solve-limit": _cmd_solve_limit,
    "study": _cmd_study,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscthin",
        description="Homogenization pipeline for the thin oscillating domain")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--eps", type=float, default=None,
                        help="override the oscillation parameter")
    parser.add_argument("--p", type=float, default=None,
                        help="override the exponent p")
    parser.add_argument("--resolution", type=int, default=None,
                        help="override mesh resolution (rows of the cell mesh)")
    parser.add_argument("--verbose", action="store_true",
                        help="log solver progress")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = parse_config(args.config)
        config = _apply_overrides(config, args)
        return _COMMANDS[args.command](config, args)
    except (ConfigError, MeshingError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solve.SolveError as exc:
        print(f"solver error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
