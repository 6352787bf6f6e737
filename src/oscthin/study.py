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

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import fem, geometry, homogenize, limit1d, solve


def _number(key, value, integer=False):
    """value if it is a number, an integer if integer is set, else
    ValueError naming the config key: strings and bools are refused, not
    coerced."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{key} must be {'an integer' if integer else 'a number'}"
                         f", got {value!r}")
    return value


def _object(where, value):
    """value if it is a JSON object, else ValueError naming where it sits."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    return value


def _numbers(key, values, integer=False):
    """values as a tuple of _number if a JSON list (or a tuple), else
    ValueError naming the config key: a number or string is not iterated."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {values!r}")
    return tuple(_number(key, value, integer) for value in values)


@dataclass(frozen=True)
class PartitionSpec:
    """Partition of (0, 1) into cells between increasing edges; dyadic
    cells have width period/2^level, the last the remainder, if any."""

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
        return cls(edges)

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
            if not np.isfinite(_number(f"load {name}", getattr(self, name))):
                raise ValueError(f"load {name} must be finite")
        _number("load k", self.k, integer=True)

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


# each config size: its StudyConfig field, its section of the config file
# ("" the top level), its key there and its least value
_SIZES = (("cell_nx", "cell_mesh", "nx", 2), ("cell_ny", "cell_mesh", "ny", 2),
          ("thin_nx_per_period", "thin_mesh", "nx_per_period", 2),
          ("thin_ny", "thin_mesh", "ny", 2),
          ("limit_elements", "", "limit_elements", 2),
          ("flux_stations", "", "flux_stations", 1))


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

    def __post_init__(self):
        if not _number("p", self.p) > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        eps = tuple(map(float, _numbers("epsilons", self.epsilons)))
        if not eps:
            raise ValueError("the oscillation ladder must not be empty")
        for key, value in (("p", self.p), *(("epsilons", e) for e in eps)):
            if not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        for value in eps:
            if not 0.0 < value <= 1.0:
                raise ValueError(f"epsilons must lie in (0, 1], got {value!r}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("the oscillation ladder must be strictly decreasing")
        levels = _numbers("partition_levels", self.partition_levels, True)
        if not levels:
            raise ValueError("the partition ladder must not be empty")
        for key, value, least in (
                *((f"{section}.{key}" if section else key,
                   getattr(self, name), least)
                  for name, section, key, least in _SIZES),
                *(("partition_levels", level, 0) for level in levels)):
            if _number(key, value, integer=True) < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
        # no partition cell narrower than a column half of the finest thin
        # mesh: 2^level/period cells against 2 nx_per_period/(eps period)
        most = math.floor(
            math.log2(2 * self.thin_nx_per_period / min(eps)) + 1e-9)
        if max(levels) > most:
            raise ValueError(
                f"partition_levels must be at most {most} (cells no "
                "narrower than a column half of the finest thin mesh), "
                f"got {max(levels)}")
        self.epsilons = eps
        self.partition_levels = levels

    def to_dict(self):
        data = {
            "profile": {
                "period": self.profile.period,
                "mean": self.profile.mean,
                "cos_coeffs": list(self.profile.cos_coeffs),
                "sin_coeffs": list(self.profile.sin_coeffs),
            },
            "p": self.p,
            "load": asdict(self.load),
            "epsilons": list(self.epsilons),
            "partition_levels": list(self.partition_levels),
            "solver": asdict(self.solver),
        }
        for name, section, key, _ in _SIZES:
            (data.setdefault(section, {}) if section else data)[key] = (
                getattr(self, name))
        return data

    @classmethod
    def from_dict(cls, data):
        """Inverse of to_dict, which also fixes the keys it accepts.  The
        config and each section must be a JSON object; the profile and
        load sections are required."""
        sections = {"": _object("config", data)}
        for name in ("profile", "load", "cell_mesh", "thin_mesh", "solver"):
            given = data[name] if name in ("profile", "load") else data.get(name, {})
            sections[name] = _object(name, given)
        prof = sections["profile"]
        profile = geometry.ProfileSpec(
            period=float(_number("profile.period", prof["period"])),
            mean=float(_number("profile.mean", prof["mean"])),
            **{key: _numbers(f"profile.{key}", prof.get(key, ()))
               for key in ("cos_coeffs", "sin_coeffs")})
        # each solver option takes the type of its default
        defaults = asdict(solve.SolveOptions())
        solver = solve.SolveOptions(**{
            key: (_numbers(f"solver.{key}", val)
                  if isinstance(defaults[key], tuple)
                  else _number(f"solver.{key}", val,
                               isinstance(defaults[key], int)))
            for key, val in sections["solver"].items() if key in defaults})
        # known load keys only, so a typo meets the layout check below
        load = {key: val for key, val in sections["load"].items()
                if key in {f.name for f in fields(LoadSpec)}}
        # only the sizes given, so the field defaults are the one copy
        sizes = {name: sections[section][key]
                 for name, section, key, _ in _SIZES if key in sections[section]}
        config = cls(
            profile=profile,
            p=float(_number("p", data["p"])),
            load=LoadSpec(**load),
            epsilons=data["epsilons"],
            partition_levels=data["partition_levels"],
            solver=solver,
            **sizes,
        )
        layout = config.to_dict()
        for section, given in sections.items():
            known = layout[section] if section else layout
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
    status: str


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list

    def canonical(self):
        """Copy with timings zeroed; the numerically reproducible content."""
        rows = [replace(r, wall_time=0.0) for r in self.rows]
        return StudyReport(config=self.config, rows=rows)


def solve_thin(mesh, p, load, opts=None):
    """Converged thin-domain solution; the boundary condition is natural."""
    if mesh.eps is None:
        raise ValueError("solve_thin needs a thin mesh (eps attached)")
    opts = opts or solve.SolveOptions()
    b = fem.load_vector(mesh, load)
    return solve.newton_solve(
        lambda u, delta: fem.Point(mesh, u, fem.FluxParams(p, delta),
                                   load_vector=b),
        np.zeros(mesh.num_nodes), opts=opts)


def solve_config_cell(config):
    """Cell problem of a config, on its cell mesh."""
    mesh = geometry.build_cell_mesh(config.profile, config.cell_nx,
                                    config.cell_ny)
    return homogenize.solve_cell(mesh, config.p, config.solver)


def solve_limit(config, cell, eps):
    """Limit problem forced by the fiber load at eps: (u0, diagnostics)."""
    n1 = config.limit_elements
    fhat = fem.integrate_load_fibers(config.load, config.profile, eps, n1 + 1)
    fbar = fhat * (config.profile.period / cell.cell_measure)
    return limit1d.solve_homogenized(
        limit1d.Limit1DProblem(coeff=cell.coeff_flux, p=config.p,
                               forcing=fbar), config.solver)


def partition_average(samples, part):
    """Exact mean of the piecewise-linear interpolant of samples on [0, 1]
    over each cell: differences of its antiderivative at the edges."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples) - 1
    h = 1.0 / n
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (samples[:-1] + samples[1:]))])
    k = np.clip((part.edges * n).astype(np.int64), 0, n - 1)
    frac = part.edges - k * h
    slope = (samples[k + 1] - samples[k]) * n
    integral = cum[k] + samples[k] * frac + 0.5 * slope * frac * frac
    return np.diff(integral) / part.widths


def cell_response(cell, mesh):
    """Cell response (1, 0) + grad(phi) at the periodically wrapped
    barycenter of each thin-mesh triangle, (T, 2), its height clamped to
    the cell's top (a coarse column's top barycenter can lie above the finer
    cell polyline where the profile is convex), abscissa and top per column
    half.  It does not depend on the partition: one lookup serves every level."""
    x = np.mod(mesh.barycenter_abscissae() / mesh.eps, cell.mesh.width)
    top = np.interp(x, cell.mesh.grid_x, cell.mesh.grid_heights)
    tri = geometry.locate_points(cell.mesh, np.column_stack(
        [mesh.per_triangle(x), np.minimum(mesh.barycenter_heights(),
                                          mesh.per_triangle(top))]))
    return cell.gradients[tri]


def corrector_field(du0, part, mesh, response):
    """Two-scale corrector gradient per thin-mesh triangle: the partition
    average of the limit derivative at its barycenter (per column half)
    times its cell response (see cell_response)."""
    coeffs = partition_average(du0, part)
    cell_idx = np.clip(
        np.searchsorted(part.edges, mesh.barycenter_abscissae(), side="right")
        - 1, 0, len(part) - 1)
    return mesh.per_triangle(coeffs[cell_idx])[:, None] * response


def error_u(mesh, u_eps, u0, p):
    """L^p distance between the thin solution and the limit solution,
    interpolated onto the thin mesh through the first coordinate."""
    grid = np.linspace(0.0, 1.0, len(u0))
    u0_nodes = np.empty(mesh.num_nodes)
    u0_nodes[mesh.grid_nodes] = np.interp(mesh.grid_x, grid, u0)[:, None]
    return fem.lp_norm(mesh, np.asarray(u_eps) - u0_nodes, p)


def error_corrector(mesh, gs, c_field, p):
    """L^p distance between the scaled thin gradient gs (element_gradients
    of the thin mesh) and a per-triangle field."""
    diff = gs - np.asarray(c_field, dtype=float)
    mag = np.sqrt((diff * diff).sum(axis=1))
    return float((mesh.areas * mag ** p).sum() ** (1.0 / p))


def naive_gradient_field(du0, mesh):
    """The no-oscillation field (du0(x1), 0) per triangle, by column half."""
    grid = np.linspace(0.0, 1.0, len(du0))
    vals = mesh.per_triangle(np.interp(mesh.barycenter_abscissae(), grid, du0))
    return np.column_stack([vals, np.zeros_like(vals)])


def flux_stations(n1):
    """Interior station grid used for flux profiles (midpoints of n1 cells)."""
    return (np.arange(n1) + 0.5) / n1


def flux_profile(mesh, u_eps, p, n1, gs=None):
    """First component of the fiber-integrated flux at each station.

    Integrates |grad_eps u|^(p-2) grad_eps u . (1,0) over each vertical
    fiber of the thin mesh; outside the domain the integrand extends by
    zero, which the fiber integrals realize automatically.  gs is the
    scaled gradient of u_eps if the caller holds it.
    """
    if gs is None:
        gs = fem.element_gradients(mesh, u_eps)
    a1 = fem.p_flux(gs, fem.FluxParams(p=p))[:, 0]
    return geometry.fiber_integrals(mesh, 0, flux_stations(n1), a1)


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
    profile = flux_profile(mesh, u_eps, config.p, n1, gs)
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
    gs = fem.element_gradients(mesh, u_eps)
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
        newton_iterations=diag.total_iterations, wall_time=wall, status="ok")
        for level, e_c in zip(config.partition_levels, corrector_errors)]


def run_study(config):
    """Walk the oscillation ladder and aggregate the per-row measurements.
    A failing entry is recorded in its rows' status and the study goes on.
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

    rows = [row for eps in config.epsilons for row in job(eps)]
    return StudyReport(config=config, rows=rows)


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
    """Read a report written by write_report_json.  A file that is not a
    JSON object of a valid config and rows, each an object of exactly the
    StudyRow fields, numbers (integers where StudyRow says int, NaN too)
    but a string status, raises a one-line ValueError naming the file."""
    try:
        with open(path) as fh:
            payload = _object("report", json.load(fh))
        config = StudyConfig.from_dict(payload["config"])
        rows = [StudyRow(**_object("row", row)) for row in payload["rows"]]
        for row in rows:
            for f in fields(StudyRow):
                if f.type is not str:
                    _number(f"row {f.name}", getattr(row, f.name), f.type is int)
            if not isinstance(row.status, str):
                raise ValueError(f"row status must be a string, got {row.status!r}")
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return StudyReport(config=config, rows=rows)
