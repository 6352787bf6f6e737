"""Periodic cell problem and its effective coefficient.

The cell unknown is the periodic mean-zero perturbation phi of the linear
background y1: the total field v = y1 + phi carries a unit macroscopic
horizontal gradient and solves the flux equilibrium equation on one period
of the oscillating geometry.  y1 is not periodic, so it is no nodal field
of the cell mesh: its gradient (1, 0) is added to that of phi on every
triangle, where v's gradient is all the flux needs.

The effective coefficient q of the limit problem is coeff_flux, the
first-component flux average.  The energy average discretizes the same
integral; solve_cell refuses a cell whose two averages disagree.
"""

import logging
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from . import fem, geometry, solve

logger = logging.getLogger(__name__)


class UnconvergedCellError(solve.SolveError):
    """The two effective-coefficient formulas disagree beyond tolerance."""


# the regularization every cell solution is reported at: the last delta of
# the solver's ladder
TARGET_DELTA = solve.SolveOptions().final_delta

# agreement of the two coefficient formulas expected from a converged solve,
# and the looser threshold treated as evidence the solve is broken
COEFF_AGREEMENT = 1e-6
COEFF_FAILURE = 1e-4


@dataclass
class CellSolution:
    """Converged cell solve: phi is the mean-zero periodic perturbation.
    The scalar data derive from it, each once: cell_measure the
    triangulated cell area, coeff_flux and coeff_energy the two
    discretizations of the effective coefficient (agreeing to
    COEFF_AGREEMENT in a converged solve)."""

    mesh: geometry.Mesh
    phi: np.ndarray
    p: float
    delta: float
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

    @cached_property
    def cell_measure(self):
        return float(self.mesh.areas.sum())

    @cached_property
    def coeff_flux(self):
        """Cell average of the flux's first component."""
        return float((self.mesh.areas * self.flux[:, 0]).sum()
                     / self.cell_measure)

    @cached_property
    def coeff_energy(self):
        """Cell average of |grad v|^p, the energy form."""
        sq = (self.gradients * self.gradients).sum(axis=1)
        return float((self.mesh.areas * np.sqrt(sq) ** self.p).sum()
                     / self.cell_measure)


def _cell_point(mesh, p, phi, delta):
    """The flux-only energy of v = y1 + phi at phi."""
    return fem.Point(mesh, phi, fem.FluxParams(p=p, delta=delta),
                     include_mass=False, slope=1.0)


def solve_cell(mesh, p):
    """Solve the periodic cell problem and package the scalar outputs.

    The solve starts from the p-predictor (_predicted_start): the linear
    corrector phi_2, the p = 2 solution at TARGET_DELTA (the last delta
    of the solver's ladder), or its second- or third-order continuation
    in p, whichever has the lowest energy at p.  The predictor of the last
    geometry solved is kept, so a later solve of it at another p factors
    nothing to start, and its diagnostics count only the work done in
    that call.
    At p = 2 phi_2 is the answer.  Any other p runs Newton from that start
    at TARGET_DELTA twice: the second pass stops relative to the
    first's small residual, not to the residual of the start.  On a
    SolveError the solver's default ladder from zero takes over.  Both
    ladders reach newton_solve as its SolveOptions; no caller chooses
    them.
    The diagnostics hold the predictor's stage and every Newton stage
    run, abandoned ones included.

    The cell energy is shift invariant, so each Newton step keeps phi's
    mean zero (newton_solve's mean_weights).  The weights are the load
    vector of f = 1, the hat functions' integrals (its rule is exact for
    P1).  A mesh that is not a cell mesh is a ValueError; a nonzero mean
    or a coefficient pair that is not positive or not agreed to
    COEFF_FAILURE is an UnconvergedCellError.
    """
    if mesh.domain_kind != "cell":
        raise ValueError(f"solve_cell needs a cell mesh, got a "
                         f"{mesh.domain_kind} one")
    weights = fem.load_vector(mesh, np.ones(mesh.num_nodes))
    diagnostics = solve.NewtonDiagnostics()

    def newton(init, opts):
        phi, diag = solve.newton_solve(
            partial(_cell_point, mesh, p), init, weights, opts)
        diagnostics.stages += diag.stages
        return phi

    try:
        phi, stage = _predicted_start(mesh, p, weights)
        diagnostics.stages.append(stage)
        if p != 2.0 or not stage.converged:
            phi = newton(phi, solve.SolveOptions(
                continuation_deltas=(TARGET_DELTA, TARGET_DELTA)))
    except solve.SolveError as exc:
        diagnostics.stages += exc.diagnostics.stages
        ladder = solve.SolveOptions()
        logger.info("cell p=%g: start from the p-predictor failed (%s: "
                    "%s); falling back to the ladder %s", p,
                    type(exc).__name__, exc, ladder.continuation_deltas)
        phi = newton(np.zeros(mesh.num_nodes), ladder)

    cell = CellSolution(mesh=mesh, phi=phi, p=p, delta=TARGET_DELTA,
                        diagnostics=diagnostics)
    mean = float(weights @ phi) / cell.cell_measure
    if abs(mean) > 1e-10:
        raise UnconvergedCellError(
            f"cell perturbation has nonzero mean {mean:.3e}")
    flux, energy = cell.coeff_flux, cell.coeff_energy
    if flux <= 0.0 or energy <= 0.0:
        raise UnconvergedCellError(f"effective coefficient not positive: "
                                   f"flux={flux!r} energy={energy!r}")
    if abs(flux - energy) > COEFF_FAILURE * energy:
        raise UnconvergedCellError(f"coefficient formulas disagree: "
                                   f"flux={flux!r} energy={energy!r}")
    return cell


# the step in p of the central differences that give the tangent and the
# higher-order terms
_P_STEP = 1e-2

# the p = 2 predictor of the last cell geometry solved, under its
# _predictor_key: its terms and its stage.  One entry, so a later solve of
# that geometry at any p starts without factoring, and a solve of another
# geometry replaces it.
_PREDICTOR_MEMO = {}


def _predictor_key(mesh):
    """What the p = 2 predictor depends on: the cell grid (its delta is
    TARGET_DELTA)."""
    return (mesh.grid_x.tobytes(), mesh.grid_heights.tobytes(),
            mesh.grid_rows)


def _predicted_start(mesh, p, weights):
    """Newton's start at p and the predictor's stage of the diagnostics.

    The p = 2 predictor (_p2_predictor) does not depend on p, so it is
    taken from _PREDICTOR_MEMO when the memo holds this geometry, and
    computed and kept there otherwise.  A reused stage
    counts no iteration and no factorization; it keeps the p = 2 energies,
    residual norms and convergence of the stage that computed it.  The
    candidates (_candidates) are evaluated at p, and the one with the
    lowest energy there is returned (phi_2 at p = 2); the stop_reason
    names it, followed by ", reused" for a reused stage.  A SolveError
    leaves with the stage as its diagnostics, the stop_reason naming the
    failure, and nothing memoized.
    """
    key = _predictor_key(mesh)
    kept = _PREDICTOR_MEMO.get(key)
    if kept is not None:
        terms, done = kept
        stage = replace(done, iterations=0, factorizations=0,
                        energies=list(done.energies),
                        residual_norms=list(done.residual_norms),
                        step_lengths=[])
        reused = ", reused"
    else:
        terms, stage = _p2_predictor(mesh, weights)
        _PREDICTOR_MEMO.clear()
        _PREDICTOR_MEMO[key] = terms, stage
        reused = ""
    candidates = _candidates(terms, p)
    energies = {name: _cell_point(mesh, p, field, TARGET_DELTA).energy()
                for name, field in candidates.items()}
    chosen = min(energies, key=energies.get)
    stage.stop_reason = f"start={chosen}{reused}"
    logger.info("cell p=%g: start energies %s; starting from %s%s", p,
                ", ".join(f"{name}={e:.6e}" for name, e in energies.items()),
                chosen, reused)
    return candidates[chosen], stage


def _candidates(terms, p):
    """The starts at p from the p = 2 terms (phi_2, phi', phi'', phi'''):
    phi_2 alone at p = 2, and otherwise also its second- and third-order
    continuations phi_2 + s phi' + s^2 phi''/2 (+ s^3 phi'''/6) in
    s = p - 2, each unless it overflows (at large p)."""
    phi, tangent, curvature, third = terms
    candidates = {"linear": phi.copy()}     # the memo keeps phi
    if p != 2.0:
        s = p - 2.0     # s ** 3 would raise OverflowError at large p
        with np.errstate(over="ignore", invalid="ignore"):
            second = phi + s * tangent + 0.5 * s * s * curvature
            starts = {"second_order": second,
                      "third_order": second + s * s * s / 6.0 * third}
        candidates.update({name: start for name, start in starts.items()
                           if np.isfinite(start).all()})
    return candidates


def _p2_predictor(mesh, weights):
    """The terms (phi_2, phi', phi'', phi''') of phi's expansion in p
    about p = 2, from one factorization of the p = 2 jacobian, and their
    stage of the diagnostics.

    At p = 2 the cell jacobian J does not depend on phi (sigma = 1, and
    the cell has no mass term), so its one factor, at TARGET_DELTA,
    serves four solves: the linear corrector phi_2, the Newton step from
    zero as newton_solve takes it (refined against J, so at p = 2 it has
    the ladder's bits); the tangent phi' = -J^-1 dR/dp(phi_2, 2); the
    second-order term phi'' = -J^-1 g''(0) with
    g(s) = R(phi_2 + s phi', 2 + s); and the third-order term
    phi''' = -J^-1 G'''(0) with G(s) = R(phi_2 + s phi' + s^2 phi''/2,
    2 + s).  The derivatives are central differences of step
    h = _P_STEP of the one residual R(field, q):
    (R(phi_2, 2 + h) - R(phi_2, 2 - h)) / 2h, (g(h) - 2 g(0) + g(-h)) / h^2
    and (G(2h) - 2 G(h) + 2 G(-h) - G(-2h)) / 2h^3.  The last three solves
    are back-substitutions, so J goes before any point is evaluated, and
    the factor goes on return.

    The stage counts one iteration (none if zero meets solve.RESIDUAL_TOL)
    and one factorization, holds the p = 2 energies and residual norms and
    is converged if phi_2 meets that tolerance.  A SolveError leaves with
    the stage as its diagnostics, the stop_reason naming the failure.
    """
    stage = solve.StageDiagnostics(delta=TARGET_DELTA)
    phi = np.zeros(mesh.num_nodes)
    try:
        point = _cell_point(mesh, 2.0, phi, TARGET_DELTA)
        r = point.residual()
        stage.energies.append(point.energy())
        stage.residual_norms.append(float(np.linalg.norm(r)))
        tol = solve.RESIDUAL_TOL * (1.0 + stage.residual_norms[0])
        stage.factorizations = 1
        jacobian, point = point.jacobian(), None
        solve_linear = solve.constrained_solver(jacobian, weights)
        if stage.residual_norms[0] > tol:
            # newton_solve's full step from zero, refined against the band
            phi = phi + solve_linear(-r, jacobian, solve.LINEAR_TOL)
            stage.iterations = 1
            stage.step_lengths.append(1.0)
        del jacobian        # the later solves are back-substitutions
        if stage.iterations:
            point = _cell_point(mesh, 2.0, phi, TARGET_DELTA)
            r = point.residual()
            stage.energies.append(point.energy())
            stage.residual_norms.append(float(np.linalg.norm(r)))
            point = None
        stage.converged = stage.residual_norms[-1] <= tol
        phi = phi - (weights @ phi) / weights.sum()

        def residual(field, q):
            return _cell_point(mesh, q, field, TARGET_DELTA).residual()

        def path(s):
            return residual(phi + s * tangent + 0.5 * s * s * curvature,
                            2.0 + s)

        h = _P_STEP
        tangent = solve_linear(
            (residual(phi, 2.0 - h) - residual(phi, 2.0 + h)) / (2.0 * h))
        curvature = solve_linear(
            (2.0 * r - residual(phi + h * tangent, 2.0 + h)
             - residual(phi - h * tangent, 2.0 - h)) / (h * h))
        third = solve_linear(
            (2.0 * (path(h) - path(-h)) + path(-2.0 * h) - path(2.0 * h))
            / (2.0 * h * h * h))
    except solve.SolveError as exc:
        stage.stop_reason = type(exc).__name__
        exc.diagnostics = solve.NewtonDiagnostics([stage])
        raise
    return (phi, tangent, curvature, third), stage


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
