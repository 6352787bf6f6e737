"""Periodic cell problem, effective coefficient and limit-problem data.

The cell unknown is the periodic mean-zero perturbation phi of the linear
background y1: the total field v = y1 + phi carries a unit macroscopic
horizontal gradient and solves the flux equilibrium equation on one period
of the oscillating geometry.  y1 is not periodic, so it is no nodal field
of the cell mesh: its gradient (1, 0) is added to that of phi on every
triangle, where v's gradient is all the flux needs.

The effective coefficient is reported through two discretizations of the
same integral - the first-component flux average and the energy average -
whose agreement certifies convergence of the cell solve.
"""

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fem, geometry, solve

logger = logging.getLogger(__name__)


class UnconvergedCellError(RuntimeError):
    """The two effective-coefficient formulas disagree beyond tolerance."""


# agreement of the two coefficient formulas expected from a converged solve,
# and the looser threshold treated as evidence the solve is broken
COEFF_AGREEMENT = 1e-6
COEFF_FAILURE = 1e-4


@dataclass
class CellSolution:
    """Converged cell solve plus the derived scalar data: phi is the
    mean-zero periodic perturbation, cell_measure the triangulated cell
    area, coeff_flux and coeff_energy the two discretizations of the
    effective coefficient (agreeing to COEFF_AGREEMENT)."""

    mesh: geometry.Mesh
    phi: np.ndarray
    p: float
    delta: float
    cell_measure: float
    coeff_flux: float
    coeff_energy: float
    diagnostics: solve.NewtonDiagnostics

    @cached_property
    def gradients(self):
        """Per-triangle gradients of v = y1 + phi (constant on each one)."""
        return (fem.element_gradients(self.mesh, self.phi)
                + np.array([1.0, 0.0]))

    @cached_property
    def flux(self):
        """Per-triangle unregularized flux of v."""
        return fem.p_flux(self.gradients, fem.FluxParams(p=self.p))


class _CellFunctional:
    """Flux-only energy of v = y1 + phi as points over phi."""

    def __init__(self, mesh, p):
        self.mesh = mesh
        self.p = p

    def point(self, phi, delta):
        return fem.Point(self.mesh, phi,
                         fem.FluxParams(p=self.p, delta=delta, eps_weight=1.0),
                         include_mass=False, slope=1.0)


def solve_cell(mesh, p, opts=None):
    """Solve the periodic cell problem and package the scalar outputs.

    The solve starts from the linear corrector: Newton on the p = 2
    functional from zero at the target delta (the last continuation
    delta), whose energy is quadratic, so one step solves it and at p = 2
    it is the answer.  Any other p runs Newton from it at the target delta
    twice: the second pass stops relative to the first's small residual,
    not to the residual of the start.  On a SolveError the configured
    continuation ladder from zero takes over.  The diagnostics hold every
    stage run, abandoned ones included.

    The cell energy is shift invariant, so each Newton step keeps phi's
    mean zero (newton_solve's mean_weights).  The weights are the load
    vector of f = 1, the hat functions' integrals (its rule is exact for
    P1).
    """
    opts = opts or solve.SolveOptions()
    weights = fem.load_vector(mesh, np.ones(mesh.num_nodes))
    target = opts.final_delta
    diagnostics = solve.NewtonDiagnostics()

    def newton(q, init, deltas):
        phi, diag = solve.newton_solve(
            _CellFunctional(mesh, q), init, weights,
            replace(opts, continuation_deltas=deltas))
        diagnostics.stages += diag.stages
        return phi

    try:
        phi = newton(2.0, np.zeros(mesh.num_nodes), (target,))
        if p != 2.0:
            phi = newton(p, phi, (target, target))
    except solve.SolveError as exc:
        diagnostics.stages += exc.diagnostics.stages
        logger.info("cell p=%g: start from the linear corrector failed (%s: "
                    "%s); falling back to the ladder %s", p,
                    type(exc).__name__, exc, opts.continuation_deltas)
        phi = newton(p, np.zeros(mesh.num_nodes), opts.continuation_deltas)

    measure = geometry.mesh_area(mesh)
    mean = float(weights @ phi) / measure
    if abs(mean) > 1e-10:
        raise UnconvergedCellError(
            f"cell perturbation has nonzero mean {mean:.3e}")
    cell = CellSolution(
        mesh=mesh, phi=phi, p=p, delta=opts.final_delta,
        cell_measure=measure, coeff_flux=0.0, coeff_energy=0.0,
        diagnostics=diagnostics)
    cell.coeff_flux, cell.coeff_energy = _coefficient_pair(cell)
    if cell.coeff_flux <= 0.0 or cell.coeff_energy <= 0.0:
        raise UnconvergedCellError(
            f"effective coefficient not positive: flux={cell.coeff_flux!r} "
            f"energy={cell.coeff_energy!r}")
    _agreed(cell.coeff_flux, cell.coeff_energy)
    return cell


def _coefficient_pair(cell):
    grads, area, p = cell.gradients, cell.mesh.areas, cell.p
    sq = (grads * grads).sum(axis=1)
    flux = (area * fem._power_weight(sq, p, 0.0) * grads[:, 0]).sum()
    energy = (area * np.sqrt(sq) ** p).sum()
    return float(flux / cell.cell_measure), float(energy / cell.cell_measure)


def _agreed(flux, energy):
    """flux, unless the formulas disagree beyond COEFF_FAILURE: a bad solve."""
    if abs(flux - energy) > COEFF_FAILURE * abs(energy):
        raise UnconvergedCellError(
            f"coefficient formulas disagree: flux={flux!r} energy={energy!r}")
    return flux


def effective_coefficient(cell):
    """Effective coefficient of the 1-D limit problem (flux form); both
    discretizations disagreeing beyond COEFF_FAILURE flags an unconverged
    cell solve and raises."""
    return _agreed(*_coefficient_pair(cell))


def measure_identity_check(spec, n_levels=4096, n_samples=16384):
    """Both sides of the identity  L * int_0^gmax fraction(h) dh = |cell|.

    The left side integrates the sampled level fraction over heights
    (midpoint rule); the right side is the period times the mean profile
    height by fine trapezoid quadrature.  The caller asserts agreement.
    """
    ys = (np.arange(n_samples) + 0.5) * (spec.period / n_samples)
    gs = np.sort(np.asarray(spec.evaluate(ys)))
    levels = (np.arange(n_levels) + 0.5) * (spec.maximum / n_levels)
    above = n_samples - np.searchsorted(gs, levels, side="right")
    fraction_integral = float(
        spec.period * (above / n_samples).sum() * (spec.maximum / n_levels))

    yt = np.linspace(0.0, spec.period, (1 << 14) + 1)
    area = float(np.trapezoid(spec.evaluate(yt), yt))
    return fraction_integral, area


def flux_density_height_integral(cell, grad_value, n_levels=4096):
    """Midpoint-rule integral over heights of the first flux component
    (the fiber averages do not depend on grad_value: pass an array of
    values, and one set of fiber integrals serves them all)."""
    top = float(cell.mesh.grid_heights.max())
    levels = (np.arange(n_levels) + 0.5) * (top / n_levels)
    fibers = geometry.fiber_integrals(cell.mesh, 1, levels, cell.flux[:, 0])
    fiber_sum = float(fibers.sum()) / cell.mesh.width
    return fem.p_flux_scalar(grad_value, cell.p) * fiber_sum * (top / n_levels)


def rescale_forcing(fhat_samples, cell_measure, period):
    """Limit forcing: fiber load integrals scaled by period / cell measure."""
    if cell_measure <= 0.0:
        raise ValueError(f"cell measure must be positive, got {cell_measure}")
    return np.asarray(fhat_samples, dtype=float) * (period / cell_measure)


_SUMMARY_KEYS = ("p", "period", "delta", "cell_measure", "coeff_flux",
                 "coeff_energy", "residual", "newton_iterations")


def format_cell_summary(cell):
    """One structured-text record per scalar output of a cell solve."""
    values = (cell.p, cell.mesh.width, cell.delta, cell.cell_measure,
              cell.coeff_flux, cell.coeff_energy,
              cell.diagnostics.final_residual,
              cell.diagnostics.total_iterations)
    return "".join(f"{key} {value!r}\n"
                   for key, value in zip(_SUMMARY_KEYS, values))


def write_cell_summary(cell, path):
    with open(path, "w") as fh:
        fh.write(format_cell_summary(cell))


def read_cell_summary(path):
    """Read a summary written by write_cell_summary into a dict of floats,
    or raise a one-line ValueError naming the file on a malformed line or
    a missing key."""
    out = {}
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            try:
                key, value = line.split()
                out[key] = float(value)
            except ValueError:
                raise ValueError(f"{path}: line {n} is not a key and a "
                                 f"number: {line.strip()!r}") from None
    missing = [key for key in _SUMMARY_KEYS if key not in out]
    if missing:
        raise ValueError(f"{path}: cell summary lacks {', '.join(missing)}")
    return out
