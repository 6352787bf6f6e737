"""Damped Newton with regularization continuation on constrained systems.

Periodic identification is realized by eliminating follower degrees of
freedom onto their leaders through a node map, and a zero mean by a
bordered step, so the reduced systems stay symmetric and no penalty
parameters appear.  Convergence is measured by the reduced residual's
Euclidean norm.  Every jacobian reaches the linear solvers as a Band.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
# kept importable as solve.spla: bench/spans.py wraps solve.spla.splu
import scipy.sparse.linalg as spla  # noqa: F401

logger = logging.getLogger(__name__)


class SolveError(RuntimeError):
    """Base class for solver failures; one raised by newton_solve carries
    its NewtonDiagnostics as ``diagnostics``."""

    diagnostics = None


class NonConvergenceError(SolveError):
    """Newton iteration exhausted without meeting the residual tolerance."""


class LineSearchStallError(SolveError):
    """Backtracking failed to find a decreasing step."""


class IndefiniteSystemError(SolveError):
    """The linear system is not positive definite (broken jacobian)."""


class LinearSolveError(SolveError):
    """The linear solver could not reach the requested residual."""


@dataclass(frozen=True)
class SolveOptions:
    """Newton driver knobs.

    continuation_deltas is walked front to back, each stage warm-starting
    the next; the last entry is the regularization the solution is reported
    at.  residual_tol is relative to 1 + the stage-initial residual norm.
    """

    residual_tol: float = 1e-10
    max_newton: int = 50
    ls_backtrack: float = 0.5
    # must stay below 1/2 so full Newton steps pass asymptotically; values
    # near 0 accept the first-step overshoot for p < 2 and Newton then
    # crawls, so the default is deliberately strict
    ls_sufficient_decrease: float = 0.25
    max_halvings: int = 30
    continuation_deltas: tuple = (1e-2, 1e-4, 1e-8)
    linear_tol: float = 1e-12

    def __post_init__(self):
        if self.residual_tol <= 0.0 or self.linear_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if not 0.0 < self.ls_backtrack < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if not 0.0 < self.ls_sufficient_decrease < 0.5:
            raise ValueError("sufficient-decrease constant must lie in (0, 1/2)")
        if not self.continuation_deltas:
            raise ValueError("continuation_deltas must not be empty")
        object.__setattr__(self, "continuation_deltas",
                           tuple(float(d) for d in self.continuation_deltas))

    @property
    def final_delta(self):
        return self.continuation_deltas[-1]


@dataclass(frozen=True)
class ConstraintSet:
    """Admissible-space description for a solve.

    periodic_pairs folds each follower (second column) onto its leader.
    Given mean_weights (nodal quadrature weights), every Newton step keeps
    the weighted mean zero and the converged field is shifted by a
    constant so its mean vanishes; the energy must be shift invariant, its
    jacobian annihilating constants (constrained_linear_solve checks).
    Periodic pairs need mean_weights: only the mean constraint grounds
    the jacobian of a folded periodic energy."""

    periodic_pairs: object = None
    mean_weights: object = None


class Reduction:
    """The periodic fold between the full and the reduced DOF spaces as a
    node map: index[i] is node i's reduced index, each follower (second
    column of periodic_pairs) taking its leader's and the leaders numbered
    in node order.  expand gathers through it and reduce_vector sums over
    it (both return their argument without pairs); problem points fold
    their jacobian by it, and key (None when nothing folds) names it."""

    def __init__(self, n, constraints):
        leader, pairs = np.arange(n), constraints.periodic_pairs
        if pairs is not None and len(pairs):
            pairs = np.asarray(pairs, dtype=np.int64)
            leaders, followers = pairs[:, 0], pairs[:, 1]
            if len(np.unique(followers)) != len(followers):
                raise ValueError("a node follows two different leaders")
            if np.intersect1d(leaders, followers).size:
                raise ValueError("constraint pairs form a chain (not acyclic)")
            leader[followers] = leaders
        self.keep = leader == np.arange(n)
        self.index = (np.cumsum(self.keep) - 1)[leader]
        self.n_reduced = int(self.keep.sum())
        self.folded = self.n_reduced < n

    @property
    def key(self):
        """The node map's bytes, made on each call: a solve holds no copy
        beside the one a plan's cache keeps."""
        return self.index.tobytes() if self.folded else None

    def reduce_vector(self, v):
        v = np.asarray(v)
        return (np.bincount(self.index, weights=v, minlength=self.n_reduced)
                if self.folded else v)

    def expand(self, u_reduced):
        u = np.asarray(u_reduced)
        return u[self.index] if self.folded else u

    def restrict(self, u):
        """Reduced coordinates of a full field that satisfies the constraints."""
        return np.asarray(u)[self.keep]


def band_layout(offset, col, n):
    """Where the lower entries (offset = row - col >= 0) of a symmetric
    n x n matrix go in a Band: the ascending offsets that occur, 0 always
    among them, and each entry's position in the band's rows."""
    present = np.bincount(offset.ravel(), minlength=1) > 0
    present[0] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[offset] * n + col


class Band:
    """A symmetric matrix by its nonzero lower diagonals.

    rows[k] holds the diagonal at offset offsets[k] (ascending from 0)
    aligned as in LAPACK lower band storage: rows[k][j] = a[j + d, j] for
    j < n - d, the last d entries unused.  Products run over the stored
    diagonals only; factor writes them in one assignment into the
    Fortran-ordered band that the lower cholesky_banded factors in place.
    """

    def __init__(self, rows, offsets):
        self.rows, self.offsets = rows, offsets

    def __matmul__(self, x):
        y = self.rows[0] * x
        for d, row in zip(self.offsets[1:], self.rows[1:]):
            y[:-d] += row[:-d] * x[d:]
            y[d:] += row[:-d] * x[:-d]
        return y

    def factor(self, ground=0.0):
        """Lower banded Cholesky factor of a + ground * e0 e0^T, for
        cho_solve_banded.  A nonpositive diagonal entry or a failed
        Cholesky flags a matrix that lost definiteness (a bug upstream, not
        a condition to iterate through)."""
        ab = np.zeros((int(self.offsets[-1]) + 1, self.rows.shape[1]),
                      order="F")
        ab[self.offsets] = self.rows
        ab[0, 0] += ground
        i = int(np.argmin(ab[0]))
        if ab[0, i] <= 0.0:
            raise IndefiniteSystemError(
                f"nonpositive diagonal entry {ab[0, i]:.3e} at index {i}")
        try:
            return (sla.cholesky_banded(ab, overwrite_ab=True, lower=True,
                                        check_finite=False), True)
        except np.linalg.LinAlgError as exc:
            raise IndefiniteSystemError(
                f"banded Cholesky failed: {exc}") from exc


# refinement stalls at a relative residual of roughly eps * cond(a), which
# reaches ~1e-8 for the stiffest p < 2 systems at the final regularization;
# past this ceiling the factorization itself must be broken
_RESIDUAL_CEILING = 1e-6
# cell jacobians' row sums stay below 5e-16 of their largest diagonal entry
_ROW_SUM_TOL = 1e-12


def linear_solve(a, b, tol):
    """Solve an SPD system a x = b (a Band) to relative residual tol:
    banded Cholesky in the given node order, refined with the band's
    own product.  Refinement stops at tol or at the first step that
    fails to halve the residual, keeping the better iterate; at that
    floor, about eps * cond(a), a residual above tol is accepted below
    _RESIDUAL_CEILING.
    """
    return _band_solve(a, b, None, tol)


def constrained_linear_solve(a, b, w, tol):
    """Solve a x = b on the hyperplane w . x = 0: the bordered system
    a x + lam w = b, w . x = 0, the step for shift-invariant energies.

    a must annihilate constants, as a folded cell jacobian does (each
    diagonal entry is minus its row sum), so lam = (1 . b) / (1 . w) and
    one solve of the grounded B = a + c e0 e0^T, c = a[0, 0] (SPD when
    constants are a's only null direction), gives the y of a y = b - lam w
    with y[0] = 0; the shift by -(w . y) / (1 . w) meets the constraint.
    Row sums above _ROW_SUM_TOL of the largest diagonal entry, or 1 . w = 0,
    are an IndefiniteSystemError.  Refines as linear_solve does, on the
    bordered residual."""
    return _band_solve(a, b, np.asarray(w, dtype=float), tol)


def _band_solve(a, b, w, tol):
    b = np.asarray(b, dtype=float)
    bnorm, n = np.linalg.norm(b), len(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    if w is None:
        factor = a.factor()

        def correct(r):
            return sla.cho_solve_banded(factor, r, check_finite=False)
    else:
        drift, scale = np.abs(a @ np.ones(n)).max(), a.rows[0].max()
        if not drift <= _ROW_SUM_TOL * scale:
            raise IndefiniteSystemError(
                f"bordered step needs a jacobian that annihilates constants: "
                f"row sums reach {drift:.3e}, largest diagonal {scale:.3e}")
        total = w.sum()
        if not abs(total) > _ROW_SUM_TOL * np.abs(w).sum():
            raise IndefiniteSystemError("singular bordered system: 1 . w = 0")
        factor = a.factor(ground=float(a.rows[0, 0]))

        def correct(r):
            """(dx, dlam) with a dx + dlam w = r[:n] and w . dx = r[n]."""
            lam = r[:n].sum() / total
            y = sla.cho_solve_banded(factor, r[:n] - lam * w,
                                     check_finite=False)
            return np.append(y + (r[n] - w @ y) / total, lam)

    def residual(z):
        r = b - a @ z[:n]
        if w is not None:       # z = (x, lam): the bordered residual
            r = np.append(r - z[n] * w, -float(w @ z[:n]))
        return r, np.linalg.norm(r)

    # refinement: at most five steps, stopping at tol or at the first step
    # that fails to halve the residual; the better of the last two iterates
    z = correct(b if w is None else np.append(b, 0.0))
    r, rnorm = residual(z)
    for _ in range(5):
        if rnorm <= tol * bnorm:
            break
        z_new = z + correct(r)
        r_new, rnorm_new = residual(z_new)
        stalled = not rnorm_new <= 0.5 * rnorm
        if rnorm_new < rnorm:
            z, r, rnorm = z_new, r_new, rnorm_new
        if stalled:
            break
    if not rnorm <= max(tol, _RESIDUAL_CEILING) * bnorm:
        raise LinearSolveError(
            f"relative residual {rnorm / bnorm:.3e} above tol {tol:.1e} "
            "after refinement")
    # x . a x, which is x . b on the hyperplane w . x = 0
    if float(z[:n] @ (b - r[:n])) < 0.0:
        raise IndefiniteSystemError("negative curvature direction detected")
    return z[:n]


@dataclass
class StageDiagnostics:
    """One continuation stage: accepted steps, their energies, residual
    norms and step lengths, and the factorizations begun (one per step,
    and one more for a step that failed after it).  An abandoned stage
    keeps converged False and the failure's class name as stop_reason."""

    delta: float
    iterations: int = 0
    energies: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    factorizations: int = 0


@dataclass
class NewtonDiagnostics:
    stages: list = field(default_factory=list)

    @property
    def total_iterations(self):
        return sum(s.iterations for s in self.stages)

    @property
    def factorizations(self):
        return sum(s.factorizations for s in self.stages)

    @property
    def final_residual(self):
        return self.stages[-1].residual_norms[-1]


def _residual_norm(r, delta, iterations):
    """Norm of a residual; a non-finite one can never meet a tolerance."""
    with np.errstate(over="ignore"):
        rnorm = float(np.linalg.norm(r))
    if not np.isfinite(rnorm):
        raise NonConvergenceError(
            f"stage delta={delta:.1e}: residual norm is {rnorm} after "
            f"{iterations} Newton steps")
    return rnorm


def newton_solve(problem, init, constraints, opts=None):
    """Damped Newton over the continuation ladder of regularizations.

    ``problem.point(u, delta)`` evaluates a full nodal field once for
    energy(), residual() (full length) and jacobian(fold), the Band of the
    reduced unknowns folded by the solve's Reduction.  A trial field is
    evaluated for its energy; the accepted one then gives the residual
    and the next jacobian, and is dropped before the next line search.
    Returns the converged full field (mean-shifted when mean_weights are
    given) and per-stage diagnostics.  Accepted steps never increase the
    stage energy (Armijo backtracking).  A SolveError leaves with the
    diagnostics so far as its ``diagnostics``, the failed stage last.
    """
    opts = opts or SolveOptions()
    u = np.asarray(init, dtype=float)       # read only: restrict copies
    red = Reduction(len(u), constraints)
    u_red = red.restrict(u)
    gap = np.abs(red.expand(u_red) - u).max(initial=0.0)
    if gap > 1e-10 * (1.0 + np.abs(u).max(initial=0.0)):
        raise ValueError(f"initial field violates periodicity by {gap:.3e}")
    diagnostics = NewtonDiagnostics()

    w = constraints.mean_weights
    if red.folded and w is None:      # see ConstraintSet
        raise ValueError("periodic_pairs require mean_weights")
    w = None if w is None else np.asarray(w, dtype=float)
    w_red = None if w is None else red.reduce_vector(w)

    for delta in opts.continuation_deltas:
        stage = StageDiagnostics(delta=delta)
        diagnostics.stages.append(stage)
        try:
            u_red = _newton_stage(problem, red, w_red, u_red, stage, opts)
        except SolveError as exc:
            stage.stop_reason = type(exc).__name__
            exc.diagnostics = diagnostics
            raise

    u = red.expand(u_red)
    if w is not None:
        u = u - (w @ u) / w.sum()
    return u, diagnostics


def _newton_stage(problem, red, w_red, u_red, stage, opts):
    """Newton at the stage's delta from u_red; the converged reduced field."""
    delta = stage.delta
    point = problem.point(red.expand(u_red), delta)
    energy = point.energy()
    r = red.reduce_vector(point.residual())
    rnorm = _residual_norm(r, delta, stage.iterations)
    stage.energies.append(energy)
    stage.residual_norms.append(rnorm)
    tol = opts.residual_tol * (1.0 + rnorm)
    stage.stop_reason = "residual"

    while rnorm > tol:
        if stage.iterations >= opts.max_newton:
            raise NonConvergenceError(
                f"stage delta={delta:.1e}: residual {rnorm:.3e} above "
                f"{tol:.3e} after {opts.max_newton} Newton steps")
        jac, point = point.jacobian(red), None    # the point is spent
        if jac.rows.shape[1] != red.n_reduced:
            raise ValueError(f"jacobian has {jac.rows.shape[1]} unknowns, "
                             f"the constraints leave {red.n_reduced}")
        stage.factorizations += 1
        if w_red is not None:
            step = constrained_linear_solve(jac, -r, w_red, opts.linear_tol)
        else:
            step = linear_solve(jac, -r, opts.linear_tol)
        del jac
        slope = float(r @ step)        # directional derivative of energy
        noise = 1e-14 * (abs(energy) + 1.0)
        if slope > noise:
            raise IndefiniteSystemError(
                f"Newton step is an ascent direction (slope {slope:.3e})")
        t = 1.0
        for _ in range(opts.max_halvings + 1):
            trial_red = u_red + t * step
            point = problem.point(red.expand(trial_red), delta)
            trial_energy = point.energy()
            # a predicted decrease below energy roundoff leaves the
            # Armijo test blind: take the full step, the residual decides
            if -slope <= noise or (trial_energy <= energy
                                   + opts.ls_sufficient_decrease * t * slope):
                break
            t, point = t * opts.ls_backtrack, None   # drop the rejected trial
        else:
            raise LineSearchStallError(
                f"line search stalled at stage delta={delta:.1e}, "
                f"iteration {stage.iterations}: energy {energy:.6e}, "
                f"residual {rnorm:.3e}, slope {slope:.3e}, "
                f"last step length {t:.3e}")
        u_red, energy = trial_red, trial_energy
        r = red.reduce_vector(point.residual())
        rnorm = _residual_norm(r, delta, stage.iterations + 1)
        stage.iterations += 1
        stage.energies.append(energy)
        stage.residual_norms.append(rnorm)
        stage.step_lengths.append(t)
        logger.debug(
            "newton stage=%g iter=%d energy=%.12e residual=%.3e step=%.3g",
            delta, stage.iterations, energy, rnorm, t)
        # residual entries can sit on a roundoff floor above tol when the
        # jacobian is stiff (p < 2 at tiny delta); a negligible full step
        # means the iterate itself is converged to machine precision
        if t == 1.0 and (np.linalg.norm(step)
                         <= 1e-12 * (1.0 + np.linalg.norm(u_red))):
            stage.stop_reason = "step"
            break
    stage.converged = True
    logger.info("newton stage=%g converged: iters=%d residual=%.3e",
                delta, stage.iterations, rnorm)
    return u_red
