"""Damped Newton with regularization continuation.

A zero mean is kept by each Newton step of a shift-invariant energy: its
residual is projected off the constants, solved with one node grounded
and shifted back onto the mean-zero hyperplane, so the systems stay
symmetric and no penalty parameters or multipliers appear.  Periodic
fields need nothing here: a cell mesh numbers its last column as its
first.  Convergence is measured by the residual's Euclidean norm.  Every
jacobian reaches the linear solvers as a Band, factored and solved by
LAPACK's dpbtrf and dpbtrs.
"""

import importlib.machinery
import importlib.util
import logging
import os
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


def _load_lapack():
    """scipy's LAPACK extension module, loaded from its file.

    The band solves need only dpbtrf and dpbtrs.  Importing scipy.linalg
    for them would run its package __init__, whose array-API set-up costs
    several times the extension's own load.  The module keeps its name,
    so a later import of scipy.linalg reuses this one."""
    import scipy
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    path = os.path.join(directory,
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy has no LAPACK extension _flapack in "
                          f"{directory}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_lapack = _load_lapack()


def __getattr__(name):
    """solve.spla: scipy.sparse.linalg, imported on first access.  The
    benchmark's tracer wraps solve.spla.splu; nothing here calls it."""
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        for name in ("residual_tol", "linear_tol"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if not 0.0 < self.ls_backtrack < 1.0:
            raise ValueError("backtracking factor must lie in (0, 1)")
        if not 0.0 < self.ls_sufficient_decrease < 0.5:
            raise ValueError("sufficient-decrease constant must lie in (0, 1/2)")
        if not self.continuation_deltas:
            raise ValueError("continuation_deltas must not be empty")
        deltas = tuple(float(d) for d in self.continuation_deltas)
        for d in deltas:
            if not 0.0 <= d < np.inf:
                raise ValueError("continuation_deltas must be finite and "
                                 f"nonnegative, got {d!r}")
        object.__setattr__(self, "continuation_deltas", deltas)

    @property
    def final_delta(self):
        return self.continuation_deltas[-1]


class Band:
    """A symmetric matrix by its nonzero lower diagonals.

    rows[k] holds the diagonal at offset offsets[k] (ascending from 0)
    aligned as in LAPACK lower band storage: rows[k][j] = a[j + d, j] for
    j < n - d, the last d entries unused.  Products run over the stored
    diagonals only; factor writes them in one assignment into the
    Fortran-ordered band that dpbtrf factors in place.
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
        """Lower banded Cholesky factor of a + ground * e0 e0^T in LAPACK
        band storage, for dpbtrs.  A nonpositive diagonal entry or a failed
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
        c, info = _lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise IndefiniteSystemError(
                f"banded Cholesky failed: {info}-th leading minor not "
                "positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        return c


# refinement stalls at a relative residual of roughly eps * cond(a), which
# reaches ~1e-8 for the stiffest p < 2 systems at the final regularization;
# past this ceiling the factorization itself must be broken
_RESIDUAL_CEILING = 1e-6
# cell jacobians' row sums stay below 5e-16 of their largest diagonal entry
_ROW_SUM_TOL = 1e-12


def linear_solve(a, b, tol, ground=0.0):
    """Solve a x = b (a Band) to relative residual tol: banded Cholesky of
    a + ground * e0 e0^T in the given node order, refined against a itself
    with the band's own product: at most six band solves from x = 0,
    stopping at tol or at the first one that fails to halve the residual,
    keeping the better iterate.  At that floor, about eps * cond(a), a
    residual above tol is accepted below _RESIDUAL_CEILING.  A zero b is
    solved without a factorization.
    """
    b = np.asarray(b, dtype=float)
    if not b.any():
        return np.zeros_like(b)
    return linear_solver(a, ground)(b, a, tol)


def linear_solver(a, ground=0.0):
    """The banded Cholesky factor of a + ground * e0 e0^T as a solve for
    several right-hand sides: solve(b) is one back-substitution, and
    solve(b, a, tol) is linear_solve's, refined against a.  The function
    holds the factor, not a, so a caller that needs no more refinement
    can let the band go."""
    factor = a.factor(ground)

    def back_substitute(r):
        x, info = _lapack.dpbtrs(factor, r, lower=1)
        if info:
            raise ValueError(f"illegal value in argument {-info} of dpbtrs")
        return x

    def solve(b, a=None, tol=None):
        b = np.asarray(b, dtype=float)
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        if a is None:
            return back_substitute(b)
        x, r, rnorm = np.zeros_like(b), b, bnorm
        for _ in range(6):
            if rnorm <= tol * bnorm:
                break
            x_new = x + back_substitute(r)
            r_new = b - a @ x_new
            rnorm_new = np.linalg.norm(r_new)
            stalled = not rnorm_new <= 0.5 * rnorm
            if rnorm_new < rnorm:
                x, r, rnorm = x_new, r_new, rnorm_new
            if stalled:
                break
        if not rnorm <= max(tol, _RESIDUAL_CEILING) * bnorm:
            raise LinearSolveError(
                f"relative residual {rnorm / bnorm:.3e} above tol {tol:.1e} "
                "after refinement")
        if float(x @ (b - r)) < 0.0:        # x . a x
            raise IndefiniteSystemError("negative curvature direction detected")
        return x

    return solve


def constrained_linear_solve(a, b, w, tol):
    """Solve a x = b on the hyperplane w . x = 0, the step for
    shift-invariant energies.

    a must annihilate constants, as a cell jacobian does (each
    diagonal entry is minus its row sum), so its range is the complement
    of the constants: b - mean(b) projects b onto it, dropping the
    roundoff a shift-invariant energy's residual has along the constants.
    One linear_solver factorization grounded at c = a[0, 0] (a + c e0 e0^T
    is SPD when constants are a's only null direction), refined against
    a, solves the projected system, and the shift by -(w . x) / (1 . w)
    meets the constraint.  Row sums above _ROW_SUM_TOL of the largest
    diagonal entry, or 1 . w = 0, are an IndefiniteSystemError."""
    return constrained_solver(a, w)(b, a, tol)


def constrained_solver(a, w):
    """constrained_linear_solve's factorization for several right-hand
    sides: checks a and w, factors now and returns solve(b), one
    back-substitution, or solve(b, a, tol), refined against a; both
    project b and shift x as constrained_linear_solve does.  Like
    linear_solver's, the function holds the factor, not a."""
    w = np.asarray(w, dtype=float)
    drift = np.abs(a @ np.ones(a.rows.shape[1])).max()
    scale = a.rows[0].max()
    if not drift <= _ROW_SUM_TOL * scale:
        raise IndefiniteSystemError(
            f"the mean-zero step needs a jacobian that annihilates constants: "
            f"row sums reach {drift:.3e}, largest diagonal {scale:.3e}")
    total = w.sum()
    if not abs(total) > _ROW_SUM_TOL * np.abs(w).sum():
        raise IndefiniteSystemError("singular constraint: 1 . w = 0")
    solve = linear_solver(a, ground=float(a.rows[0, 0]))

    def constrained(b, a=None, tol=None):
        b = np.asarray(b, dtype=float)
        x = solve(b - b.mean(), a, tol)
        return x - (w @ x) / total

    return constrained


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


def newton_solve(problem, init, mean_weights=None, opts=None):
    """Damped Newton over the continuation ladder of regularizations.

    ``problem.point(u, delta)`` evaluates a nodal field once for energy(),
    residual() and jacobian(), a Band of the same size.  A trial field is
    evaluated for its energy; the accepted one then gives the residual
    and the next jacobian, and is dropped before the next line search.
    The field is held once: a stage's start and the previous step are
    dropped before the next factorization.
    Given mean_weights (nodal quadrature weights), every Newton step keeps
    the weighted mean zero and the converged field is shifted by a
    constant so its mean vanishes; the energy must then be shift
    invariant, its jacobian annihilating constants
    (constrained_linear_solve checks).  Returns the converged field and
    per-stage diagnostics.  Accepted steps never increase the stage energy
    (Armijo backtracking).  A SolveError leaves with the diagnostics so
    far as its ``diagnostics``, the failed stage last.
    """
    opts = opts or SolveOptions()
    u = np.array(init, dtype=float)     # the solve's own copy
    del init
    diagnostics = NewtonDiagnostics()
    w = None if mean_weights is None else np.asarray(mean_weights, dtype=float)

    for delta in opts.continuation_deltas:
        stage = StageDiagnostics(delta=delta)
        diagnostics.stages.append(stage)
        try:
            point = problem.point(u, delta)
            energy = point.energy()
            r = point.residual()
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
                jac, point = point.jacobian(), None    # the point is spent
                if jac.rows.shape[1] != len(u):
                    raise ValueError(f"jacobian has {jac.rows.shape[1]} "
                                     f"unknowns, the field has {len(u)}")
                stage.factorizations += 1
                if w is not None:
                    step = constrained_linear_solve(jac, -r, w,
                                                    opts.linear_tol)
                else:
                    step = linear_solve(jac, -r, opts.linear_tol)
                del jac
                slope = float(r @ step)   # directional derivative of energy
                t, u, point, energy = _line_search(
                    problem, u, step, energy, slope, stage, opts)
                r = point.residual()
                rnorm = _residual_norm(r, delta, stage.iterations + 1)
                stage.iterations += 1
                stage.energies.append(energy)
                stage.residual_norms.append(rnorm)
                stage.step_lengths.append(t)
                logger.debug("newton stage=%g iter=%d energy=%.12e "
                             "residual=%.3e step=%.3g",
                             delta, stage.iterations, energy, rnorm, t)
                # residual entries can sit on a roundoff floor above tol
                # when the jacobian is stiff (p < 2 at tiny delta); a
                # negligible full step means the iterate itself is
                # converged to machine precision
                negligible = t == 1.0 and (np.linalg.norm(step) <= 1e-12
                                           * (1.0 + np.linalg.norm(u)))
                del step                  # before the next factorization
                if negligible:
                    stage.stop_reason = "step"
                    break
            point = None        # before the next stage's first point
        except SolveError as exc:
            stage.stop_reason = type(exc).__name__
            exc.diagnostics = diagnostics
            raise
        stage.converged = True
        logger.info("newton stage=%g converged: iters=%d residual=%.3e",
                    delta, stage.iterations, rnorm)

    if w is not None:
        u = u - (w @ u) / w.sum()
    return u, diagnostics


def _line_search(problem, u, step, energy, slope, stage, opts):
    """Armijo backtracking along step from u at the stage's delta: the
    step length, the accepted trial, its point and its energy.  An ascent
    direction is an IndefiniteSystemError, no acceptable length a
    LineSearchStallError."""
    delta = stage.delta
    noise = 1e-14 * (abs(energy) + 1.0)
    if slope > noise:
        raise IndefiniteSystemError(
            f"Newton step is an ascent direction (slope {slope:.3e})")
    t = 1.0
    for _ in range(opts.max_halvings + 1):
        trial = u + t * step
        point = problem.point(trial, delta)
        trial_energy = point.energy()
        # a predicted decrease below energy roundoff leaves the Armijo
        # test blind: take the full step, the residual decides
        if -slope <= noise or (trial_energy <= energy
                               + opts.ls_sufficient_decrease * t * slope):
            return t, trial, point, trial_energy
        t, point = t * opts.ls_backtrack, None   # drop the rejected trial
    raise LineSearchStallError(
        f"line search stalled at stage delta={delta:.1e}, "
        f"iteration {stage.iterations}: energy {energy:.6e}, "
        f"residual {stage.residual_norms[-1]:.3e}, slope {slope:.3e}, "
        f"last step length {t:.3e}")
