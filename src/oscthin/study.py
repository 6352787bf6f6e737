"""Convergence and corrector harness for the oscillating thin domain.

For each oscillation parameter on the ladder the driver solves the thin
problem, builds the limit problem from the fiber-integrated load and the
cell solve, and measures how far the thin solution and its scaled gradient
are from the limit solution and the two-scale corrector.  The corrector is
assembled per partition cell from averages of the limit derivative and the
cell perturbation gradient looked up at the periodically wrapped point.

Flux profiles converge only weakly, so they are compared after a moving
average at the oscillation scale - the discrete stand-in for testing
against dual functions.
"""

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import fem, geometry, homogenize, limit1d, solve

@dataclass(frozen=True)
class PartitionSpec:
    """Partition of (0, 1) into cells of width period/2^level; the final
    cell is the remainder when the width does not divide 1."""

    level: int
    edges: np.ndarray

    @classmethod
    def dyadic(cls, level, period):
        if level < 0:
            raise ValueError(f"partition level must be >= 0, got {level}")
        width = period * 2.0 ** (-level)
        count = int(np.floor(1.0 / width + 1e-12))
        edges = np.arange(count + 1) * width
        # the last edge is 1: a remainder cell, or the rounded final edge
        edges = np.append(edges[edges < 1.0 - 1e-12], 1.0)
        return cls(level=level, edges=edges)

    def __post_init__(self):
        edges = np.ascontiguousarray(self.edges, dtype=float)
        if edges[0] != 0.0 or edges[-1] != 1.0 or np.any(np.diff(edges) <= 0):
            raise ValueError("partition edges must increase from 0 to 1")
        object.__setattr__(self, "edges", edges)

    @property
    def widths(self):
        return np.diff(self.edges)

    def __len__(self):
        return len(self.edges) - 1


@dataclass(frozen=True)
class LoadSpec:
    """Serializable closed-form load: "constant" -> value, "cos_pi" ->
    value*cos(k*pi*x1), "linear" -> offset + value*x1, each times
    (1 + x2_coeff*x2)."""

    kind: str
    value: float = 1.0
    k: int = 1
    offset: float = 0.0
    x2_coeff: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "cos_pi", "linear"):
            raise ValueError(f"unknown load kind {self.kind!r}")
        for name in ("value", "offset", "x2_coeff"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"load {name} must be finite")
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"load k must be an integer, got {self.k!r}")

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "constant":
            base = np.full(x1.shape, self.value)
        elif self.kind == "cos_pi":
            base = self.value * np.cos(self.k * np.pi * x1)
        else:
            base = self.offset + self.value * x1
        if self.x2_coeff != 0.0:
            return base * (1.0 + self.x2_coeff * np.asarray(x2, dtype=float))
        return base

    def to_dict(self):
        return {"kind": self.kind, "value": self.value, "k": self.k,
                "offset": self.offset, "x2_coeff": self.x2_coeff}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclass
class StudyConfig:
    """Everything one study run needs; ladders are walked in the given order."""

    profile: geometry.ProfileSpec
    p: float
    load: LoadSpec
    epsilons: tuple
    partition_levels: tuple
    cell_nx: int = 128
    cell_ny: int = 32
    thin_nx_per_period: int = 32
    thin_ny: int = 16
    limit_elements: int = 512
    flux_stations: int = 250
    solver: solve.SolveOptions = field(default_factory=solve.SolveOptions)
    max_workers: int = 1

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValueError("the oscillation ladder must not be empty")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("the oscillation ladder must be strictly decreasing")
        levels = tuple(int(v) for v in self.partition_levels)
        if not levels:
            raise ValueError("the partition ladder must not be empty")
        if any(v < 0 for v in levels):
            raise ValueError("partition levels must be nonnegative")
        for key, value, least in (
                ("cell_mesh.nx", self.cell_nx, 2), ("cell_mesh.ny", self.cell_ny, 2),
                ("thin_mesh.nx_per_period", self.thin_nx_per_period, 2),
                ("thin_mesh.ny", self.thin_ny, 2), ("max_workers", self.max_workers, 1),
                ("limit_elements", self.limit_elements, 2),
                ("flux_stations", self.flux_stations, 1)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
        self.epsilons = eps
        self.partition_levels = levels

    def to_dict(self):
        return {
            "profile": {
                "period": self.profile.period,
                "mean": self.profile.mean,
                "cos_coeffs": list(self.profile.cos_coeffs),
                "sin_coeffs": list(self.profile.sin_coeffs),
            },
            "p": self.p,
            "load": self.load.to_dict(),
            "epsilons": list(self.epsilons),
            "partition_levels": list(self.partition_levels),
            "cell_mesh": {"nx": self.cell_nx, "ny": self.cell_ny},
            "thin_mesh": {"nx_per_period": self.thin_nx_per_period,
                          "ny": self.thin_ny},
            "limit_elements": self.limit_elements,
            "flux_stations": self.flux_stations,
            "solver": asdict(self.solver),
            "max_workers": self.max_workers,
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of to_dict, which also fixes the keys it accepts."""
        prof = data["profile"]
        profile = geometry.ProfileSpec(
            period=float(prof["period"]), mean=float(prof["mean"]),
            cos_coeffs=tuple(prof.get("cos_coeffs", ())),
            sin_coeffs=tuple(prof.get("sin_coeffs", ())))
        solver_data = data.get("solver", {})
        solver = solve.SolveOptions(**{
            key: (tuple(val) if key == "continuation_deltas" else val)
            for key, val in solver_data.items()
        })
        cell = data.get("cell_mesh", {})
        thin = data.get("thin_mesh", {})
        config = cls(
            profile=profile,
            p=float(data["p"]),
            load=LoadSpec.from_dict(data["load"]),
            epsilons=tuple(data["epsilons"]),
            partition_levels=tuple(data["partition_levels"]),
            cell_nx=cell.get("nx", 128),
            cell_ny=cell.get("ny", 32),
            thin_nx_per_period=thin.get("nx_per_period", 32),
            thin_ny=thin.get("ny", 16),
            limit_elements=data.get("limit_elements", 512),
            flux_stations=data.get("flux_stations", 250),
            solver=solver,
            max_workers=data.get("max_workers", 1),
        )
        # load and solver keys are checked by the constructors they reach
        layout = config.to_dict()
        for section in ("", "profile", "cell_mesh", "thin_mesh"):
            given, known = ((data.get(section, {}), layout[section]) if section
                            else (data, layout))
            unknown = sorted(set(given) - set(known))
            if unknown:
                where = f" in {section}" if section else ""
                raise ValueError(f"unknown config key {unknown[0]!r}{where}")
        return config


@dataclass
class StudyRow:
    eps: float
    level: int
    node_count: int
    err_u: float
    err_corrector: float
    err_naive: float
    flux_discrepancy: float
    newton_iterations: int
    wall_time: float
    status: str = "ok"


REPORT_COLUMNS = tuple(f.name for f in fields(StudyRow))


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list

    def canonical(self):
        """Copy with timings zeroed; the numerically reproducible content."""
        rows = [replace(r, wall_time=0.0) for r in self.rows]
        return StudyReport(config=self.config, rows=rows)


class _ThinFunctional:
    """Anisotropic thin-problem points for the Newton driver; the load
    term is linear in u, so its vector is built once."""

    def __init__(self, mesh, p, load):
        self.mesh = mesh
        self.p = p
        self.load_vector = fem.load_vector(mesh, load)

    def point(self, u, delta):
        params = fem.FluxParams(p=self.p, delta=delta, eps_weight=self.mesh.eps)
        return fem.Point(self.mesh, u, params, load_vector=self.load_vector)


def solve_thin(mesh, p, load, opts=None):
    """Converged thin-domain solution; the boundary condition is natural."""
    if mesh.eps is None:
        raise ValueError("solve_thin needs a thin mesh (eps attached)")
    opts = opts or solve.SolveOptions()
    functional = _ThinFunctional(mesh, p, load)
    return solve.newton_solve(functional, np.zeros(mesh.num_nodes),
                              solve.ConstraintSet(), opts)


def solve_config_cell(config):
    """Cell problem of a config, on its cell mesh."""
    mesh = geometry.build_cell_mesh(config.profile, config.cell_nx,
                                    config.cell_ny)
    return homogenize.solve_cell(mesh, config.p, config.solver)


def solve_limit(config, cell, eps):
    """Limit problem forced by the fiber load at eps: (u0, diagnostics)."""
    n1 = config.limit_elements
    fhat = fem.integrate_load_fibers(config.load, config.profile, eps, n1 + 1)
    fbar = homogenize.rescale_forcing(fhat, cell.cell_measure,
                                      config.profile.period)
    return limit1d.solve_homogenized(
        limit1d.Limit1DProblem(coeff=cell.coeff_flux, p=config.p,
                               forcing=fbar, n=n1), config.solver)


def _cumulative_linear_integral(samples):
    """Antiderivative data of the piecewise-linear interpolant on [0, 1]."""
    n = len(samples) - 1
    h = 1.0 / n
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (samples[:-1] + samples[1:]))])

    def integral_to(t):
        t = np.asarray(t, dtype=float)
        k = np.clip((t * n).astype(np.int64), 0, n - 1)
        frac = t - k * h
        slope = (samples[k + 1] - samples[k]) * n
        return cum[k] + samples[k] * frac + 0.5 * slope * frac * frac

    return integral_to


def partition_average(samples, part):
    """Exact mean of the piecewise-linear interpolant over each cell."""
    samples = np.asarray(samples, dtype=float)
    integral_to = _cumulative_linear_integral(samples)
    upper = integral_to(part.edges[1:])
    lower = integral_to(part.edges[:-1])
    return (upper - lower) / part.widths


def cell_response(cell, mesh):
    """Cell response (1, 0) + grad(phi) at the periodically wrapped
    barycenter of each thin-mesh triangle, (T, 2).  It does not depend on
    the partition, so one lookup serves every level."""
    bary = mesh.barycenters
    wrapped = np.column_stack(
        [np.mod(bary[:, 0] / mesh.eps, cell.mesh.width), bary[:, 1]])
    tri = geometry.locate_points(cell.mesh, wrapped)
    gphi = fem.element_gradients(cell.mesh, cell.phi)[tri]
    return gphi + np.array([1.0, 0.0])


def corrector_field(du0, part, mesh, response):
    """Two-scale corrector gradient per thin-mesh triangle: the partition
    average of the limit derivative at its barycenter times its cell
    response (see cell_response)."""
    coeffs = partition_average(du0, part)
    cell_idx = np.clip(
        np.searchsorted(part.edges, mesh.barycenters[:, 0], side="right")
        - 1, 0, len(part) - 1)
    return coeffs[cell_idx][:, None] * response


def error_u(mesh, u_eps, u0, p):
    """L^p distance between the thin solution and the limit solution,
    interpolated onto the thin mesh through the first coordinate."""
    grid = np.linspace(0.0, 1.0, len(u0))
    u0_nodes = np.interp(mesh.nodes[:, 0], grid, np.asarray(u0, dtype=float))
    return fem.lp_norm(mesh, np.asarray(u_eps) - u0_nodes, p)


def thin_gradient(mesh, u_eps):
    """Scaled gradient (d1, d2/eps) of a thin-mesh field, (T, 2)."""
    return fem.element_gradients(mesh, u_eps, mesh.eps)


def error_corrector(mesh, gs, c_field, p):
    """L^p distance between the scaled thin gradient gs (thin_gradient) and
    a per-triangle field."""
    diff = gs - np.asarray(c_field, dtype=float)
    mag = np.sqrt((diff * diff).sum(axis=1))
    return float((mesh.areas * mag ** p).sum() ** (1.0 / p))


def naive_gradient_field(du0, mesh):
    """The no-oscillation comparison field (du0(x1), 0) per triangle."""
    grid = np.linspace(0.0, 1.0, len(du0))
    bary = mesh.barycenters
    vals = np.interp(bary[:, 0], grid, np.asarray(du0, dtype=float))
    return np.column_stack([vals, np.zeros_like(vals)])


def flux_stations(n1):
    """Interior station grid used for flux profiles (midpoints of n1 cells)."""
    return (np.arange(n1) + 0.5) / n1


def flux_profile(mesh, u_eps, p, eps, n1, gs=None):
    """First component of the fiber-integrated flux at each station.

    Integrates |grad_eps u|^(p-2) grad_eps u . (1,0) over each vertical
    fiber of the thin mesh; outside the domain the integrand extends by
    zero, which the fiber operator realizes automatically.  gs is the
    scaled gradient of u_eps if the caller holds it (thin_gradient).
    """
    params = fem.FluxParams(p=p, delta=0.0, eps_weight=eps)
    if gs is None:
        gs = fem.element_gradients(mesh, u_eps, eps)
    a1 = fem.p_flux(gs, params)[:, 0]
    return geometry.fiber_matrix(mesh, axis=0, values=flux_stations(n1)) @ a1


def flux_target(cell, du0, n1):
    """Homogenized flux the profiles converge to, at the same stations."""
    grid = np.linspace(0.0, 1.0, len(du0))
    du_at = np.interp(flux_stations(n1), grid, np.asarray(du0, dtype=float))
    scale = cell.coeff_flux * cell.cell_measure / cell.mesh.width
    return scale * fem.p_flux_scalar(du_at, cell.p)


def flux_profiles(config, cell, mesh, u_eps, du0, gs=None):
    """Raw, smoothed (moving average over one oscillation period) and
    homogenized target flux profiles at the config's stations."""
    n1 = config.flux_stations
    profile = flux_profile(mesh, u_eps, config.p, mesh.eps, n1, gs)
    smoothed = box_smooth(profile, 1.0 / n1, mesh.eps * config.profile.period)
    return profile, smoothed, flux_target(cell, du0, n1)


def box_smooth(values, spacing, window):
    """Moving average with a box kernel, truncated and renormalized at the ends."""
    values = np.asarray(values, dtype=float)
    half = int(round(0.5 * window / spacing))
    if half < 1:
        return values.copy()
    n = len(values)
    cum = np.concatenate([[0.0], np.cumsum(values)])
    lo = np.clip(np.arange(n) - half, 0, n)
    hi = np.clip(np.arange(n) + half + 1, 0, n)
    return (cum[hi] - cum[lo]) / (hi - lo)


def _dual_norm(values, spacing, p):
    """Discrete L^q norm with q = p/(p-1) on a uniform station grid."""
    q = p / (p - 1.0)
    return float((spacing * np.abs(values) ** q).sum() ** (1.0 / q))


def solve_eps(config, cell, eps):
    """The thin chain at eps: thin mesh, thin solution and its diagnostics,
    limit solution and its nodal derivative."""
    mesh = geometry.build_thin_mesh(config.profile, eps,
                                    config.thin_nx_per_period, config.thin_ny)
    u_eps, diag = solve_thin(mesh, config.p, config.load, config.solver)
    u0, _ = solve_limit(config, cell, eps)
    return mesh, u_eps, diag, u0, limit1d.nodal_derivative(u0)


def _study_rows_for_eps(config, cell, eps):
    start = time.perf_counter()
    mesh, u_eps, diag, u0, du0 = solve_eps(config, cell, eps)

    e_u = error_u(mesh, u_eps, u0, config.p)
    gs = thin_gradient(mesh, u_eps)
    e_naive = error_corrector(mesh, gs, naive_gradient_field(du0, mesh),
                              config.p)

    _, smoothed, target = flux_profiles(config, cell, mesh, u_eps, du0, gs)
    discrepancy = _dual_norm(smoothed - target, 1.0 / config.flux_stations,
                             config.p)

    response = cell_response(cell, mesh)
    corrector_errors = []
    for level in config.partition_levels:
        part = PartitionSpec.dyadic(level, config.profile.period)
        c_field = corrector_field(du0, part, mesh, response)
        corrector_errors.append(error_corrector(mesh, gs, c_field, config.p))
    wall = time.perf_counter() - start
    return [StudyRow(
        eps=eps, level=level, node_count=mesh.num_nodes,
        err_u=e_u, err_corrector=e_c, err_naive=e_naive,
        flux_discrepancy=discrepancy,
        newton_iterations=diag.total_iterations, wall_time=wall)
        for level, e_c in zip(config.partition_levels, corrector_errors)]


def run_study(config):
    """Walk the oscillation ladder and aggregate the per-row measurements.
    A failing entry is recorded in its rows' status and the study goes on;
    rows come back in ladder order however the entries were scheduled.
    An eps that does not tile the unit interval is a config error, raised
    (MeshingError) before the cell solve."""
    for eps in config.epsilons:
        geometry.tiling_periods(config.profile, eps)
    cell = solve_config_cell(config)

    def job(eps):
        try:
            return _study_rows_for_eps(config, cell, eps)
        except Exception as exc:  # recorded per-row, study continues
            return [StudyRow(eps=eps, level=level, node_count=0,
                             err_u=np.nan, err_corrector=np.nan,
                             err_naive=np.nan, flux_discrepancy=np.nan,
                             newton_iterations=0, wall_time=0.0,
                             status=f"{type(exc).__name__}: {exc}")
                    for level in config.partition_levels]

    if config.max_workers > 1:
        with ThreadPoolExecutor(max_workers=config.max_workers) as pool:
            chunks = list(pool.map(job, config.epsilons))
    else:
        chunks = [job(eps) for eps in config.epsilons]
    rows = [row for chunk in chunks for row in chunk]
    return StudyReport(config=config, rows=rows)


def write_report_csv(report, path):
    """Comma-separated report, one row per (eps, level) with a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for row in report.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in vars(row).values()])


def read_report_csv(path):
    """Rows of a written report as a list of StudyRow."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != REPORT_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(REPORT_COLUMNS)!r}, "
                f"found {','.join(header)!r}")
        kinds = [f.type for f in fields(StudyRow)]
        return [StudyRow(*(kind(v) for kind, v in zip(kinds, rec)))
                for rec in reader]


def write_report_json(report, path):
    """Structured-object report mirroring the config plus all row fields."""
    payload = {
        "config": report.config.to_dict(),
        "rows": [vars(row) for row in report.rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_report_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    config = StudyConfig.from_dict(payload["config"])
    rows = [StudyRow(**row) for row in payload["rows"]]
    return StudyReport(config=config, rows=rows)
