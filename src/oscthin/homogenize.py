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

    The solve starts from the p-predictor (_predicted_start): the linear
    corrector phi_2, the p = 2 solution at the target delta (the last
    continuation delta), and its first- and second-order continuations in
    p, of which Newton starts from the one with the lowest energy at p.
    At p = 2 phi_2 is the answer.  Any other p runs Newton from that start
    at the target delta twice: the second pass stops relative to the
    first's small residual, not to the residual of the start.  On a
    SolveError the configured continuation ladder from zero takes over.
    The diagnostics hold the predictor's stage and every Newton stage
    run, abandoned ones included.

    The cell energy is shift invariant, so each Newton step keeps phi's
    mean zero (newton_solve's mean_weights).  The weights are the load
    vector of f = 1, the hat functions' integrals (its rule is exact for
    P1).
    """
    opts = opts or solve.SolveOptions()
    weights = fem.load_vector(mesh, np.ones(mesh.num_nodes))
    target = opts.final_delta
    diagnostics = solve.NewtonDiagnostics()

    def newton(init, deltas):
        phi, diag = solve.newton_solve(
            _CellFunctional(mesh, p), init, weights,
            replace(opts, continuation_deltas=deltas))
        diagnostics.stages += diag.stages
        return phi

    try:
        phi, stage = _predicted_start(mesh, p, weights, opts)
        diagnostics.stages.append(stage)
        if p != 2.0 or not stage.converged:
            phi = newton(phi, (target, target))
    except solve.SolveError as exc:
        diagnostics.stages += exc.diagnostics.stages
        logger.info("cell p=%g: start from the p-predictor failed (%s: "
                    "%s); falling back to the ladder %s", p,
                    type(exc).__name__, exc, opts.continuation_deltas)
        phi = newton(np.zeros(mesh.num_nodes), opts.continuation_deltas)

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


# the step in p of the central difference that gives the second-order term
_P_STEP = 1e-2


def _predicted_start(mesh, p, weights, opts):
    """Newton's start at p from one factorization of the p = 2 jacobian,
    and the predictor's stage of the diagnostics.

    At p = 2 the cell jacobian J does not depend on phi (sigma = 1, and
    the cell has no mass term), so its one factor, at the target delta,
    serves three solves: the linear corrector phi_2, the Newton step from
    zero as newton_solve takes it (refined against J, so at p = 2 it has
    the ladder's bits); the tangent phi' = -J^-1 dR/dp(phi_2, 2); and the
    second-order term phi'' = -J^-1 g''(0) with
    g(s) = R(phi_2 + s phi', 2 + s), by a central difference of step
    _P_STEP.  The last two are back-substitutions, so J goes before any
    point is evaluated, and the factor goes before the candidates phi_2,
    phi_2 + (p - 2) phi' and phi_2 + (p - 2) phi' + (p - 2)^2 phi''/2 are
    evaluated at p; the one with the lowest energy there is returned
    (phi_2 at p = 2).

    The stage counts one iteration (none if zero meets residual_tol) and
    one factorization, holds the p = 2 energies and residual norms, is
    converged if phi_2 meets residual_tol, and its stop_reason names the
    start chosen.  A SolveError leaves with the stage as its diagnostics,
    the stop_reason naming the failure.
    """
    target = opts.final_delta
    stage = solve.StageDiagnostics(delta=target)
    linear = _CellFunctional(mesh, 2.0)
    phi = np.zeros(mesh.num_nodes)
    try:
        point = linear.point(phi, target)
        r = point.residual()
        stage.energies.append(point.energy())
        stage.residual_norms.append(float(np.linalg.norm(r)))
        tol = opts.residual_tol * (1.0 + stage.residual_norms[0])
        stage.factorizations = 1
        jacobian, point = point.jacobian(), None
        solve_linear = solve.constrained_solver(jacobian, weights)
        if stage.residual_norms[0] > tol:
            # newton_solve's full step from zero, refined against the band
            phi = phi + solve_linear(-r, jacobian, opts.linear_tol)
            stage.iterations = 1
            stage.step_lengths.append(1.0)
        del jacobian        # the later solves are back-substitutions
        point = linear.point(phi, target)
        if stage.iterations:
            r = point.residual()
            stage.energies.append(point.energy())
            stage.residual_norms.append(float(np.linalg.norm(r)))
        stage.converged = stage.residual_norms[-1] <= tol
        phi = phi - (weights @ phi) / weights.sum()
        candidates = {"linear": phi}
        if p != 2.0:
            tangent = solve_linear(-point.residual_dp())
            point = None

            def g(s):
                return _CellFunctional(mesh, 2.0 + s).point(
                    phi + s * tangent, target).residual()

            h = _P_STEP
            curvature = solve_linear((2.0 * r - g(h) - g(-h)) / (h * h))
            first = phi + (p - 2.0) * tangent
            candidates["first_order"] = first
            candidates["second_order"] = (first + 0.5 * (p - 2.0) ** 2
                                          * curvature)
    except solve.SolveError as exc:
        stage.stop_reason = type(exc).__name__
        exc.diagnostics = solve.NewtonDiagnostics([stage])
        raise
    del solve_linear             # the p = 2 factor goes here
    energies = {name: _energy_at(mesh, p, field, target)
                for name, field in candidates.items()}
    chosen = min(energies, key=energies.get)
    stage.stop_reason = f"start={chosen}"
    logger.info("cell p=%g: start energies %s; starting from %s", p,
                ", ".join(f"{name}={e:.6e}" for name, e in energies.items()),
                chosen)
    return candidates[chosen], stage


def _energy_at(mesh, p, phi, delta):
    """Cell energy of phi at p, infinite where it overflows (a candidate
    far from the solution at large p)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _CellFunctional(mesh, p).point(phi, delta).energy()
    except fem.AssemblyError:
        return np.inf


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
