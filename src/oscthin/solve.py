"""Damped Newton with regularization continuation on constrained systems.

Constraints (periodic identification, one pinned node, mean-zero
post-shift) are realized by eliminating follower degrees of freedom onto
their leaders through a 0/1 prolongation matrix, so the reduced systems
stay symmetric and no penalty parameters appear.  Convergence is measured
by the Euclidean norm of the reduced residual.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

logger = logging.getLogger(__name__)


class SolveError(RuntimeError):
    """Base class for solver failures."""


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

    periodic_pairs folds each follower (second column) onto its leader;
    pinned_node fixes one node to zero to remove the constant null space;
    mean_zero_postshift shifts the converged field by a constant so its
    mesh-weighted mean vanishes (valid when the energy is shift invariant),
    using mean_weights as the nodal quadrature weights.
    """

    periodic_pairs: object = None
    pinned_node: object = None
    mean_zero_postshift: bool = False
    mean_weights: object = None


class Reduction:
    """Prolongation between the reduced (constrained) and full DOF spaces."""

    def __init__(self, n, constraints):
        leader = np.arange(n)
        pairs = constraints.periodic_pairs
        if pairs is not None and len(pairs):
            pairs = np.asarray(pairs, dtype=np.int64)
            leaders, followers = pairs[:, 0], pairs[:, 1]
            if len(np.unique(followers)) != len(followers):
                raise ValueError("a node follows two different leaders")
            if np.intersect1d(leaders, followers).size:
                raise ValueError("constraint pairs form a chain (not acyclic)")
            leader[followers] = leaders
        keep = np.ones(n, dtype=bool)
        keep[leader != np.arange(n)] = False
        pin = constraints.pinned_node
        if pin is not None:
            pin = int(pin)
            if not keep[pin]:
                raise ValueError(f"node {pin} is both follower and pinned")
            keep[pin] = False
        reduced_index = np.full(n, -1, dtype=np.int64)
        reduced_index[keep] = np.arange(keep.sum())
        col = reduced_index[leader]          # -1 exactly for the pinned node
        rows = np.flatnonzero(col >= 0)
        self.n_full = n
        self.n_reduced = int(keep.sum())
        self.keep = keep
        self.prolongation = sp.csr_matrix(
            (np.ones(len(rows)), (rows, col[rows])),
            shape=(n, self.n_reduced))

    def reduce_vector(self, v):
        return self.prolongation.T @ np.asarray(v)

    def reduce_matrix(self, a):
        return (self.prolongation.T @ a @ self.prolongation).tocsr()

    def expand(self, u_reduced):
        return self.prolongation @ np.asarray(u_reduced)

    def restrict(self, u):
        """Reduced coordinates of a full field that satisfies the constraints."""
        return np.asarray(u)[self.keep]


# refinement stalls at a relative residual of roughly eps * cond(a), which
# reaches ~1e-8 for the stiffest p < 2 systems at the final regularization;
# past this ceiling the factorization itself must be broken
_RESIDUAL_CEILING = 1e-6


def linear_solve(a, b, tol):
    """Solve a sparse SPD system, driving the relative residual to tol.

    Sparse LU with iterative refinement; the attainable floor is
    eps * cond(a), so a solve that refines past tol is still accepted below
    _RESIDUAL_CEILING.  Cheap positivity checks flag a jacobian that lost
    definiteness (that is a bug upstream, not a condition to iterate
    through).
    """
    b = np.asarray(b, dtype=float)
    if not sp.issparse(a):
        a = sp.csc_matrix(np.asarray(a, dtype=float))
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    diag = a.diagonal()
    if np.any(diag <= 0.0):
        i = int(np.argmin(diag))
        raise IndefiniteSystemError(
            f"nonpositive diagonal entry {diag[i]:.3e} at index {i}")
    lu = spla.splu(a.tocsc())
    x = lu.solve(b)
    for _ in range(5):
        r = b - a @ x
        if np.linalg.norm(r) <= tol * bnorm:
            break
        x = x + lu.solve(r)
    rel = np.linalg.norm(b - a @ x) / bnorm
    if rel > max(tol, _RESIDUAL_CEILING):
        raise LinearSolveError(
            f"relative residual {rel:.3e} above tol {tol:.1e} after refinement")
    if float(x @ (a @ x)) < 0.0:
        raise IndefiniteSystemError("negative curvature direction detected")
    return x


def constrained_linear_solve(a, b, w, tol):
    """Solve a x = b restricted to the hyperplane w . x = 0.

    Bordered (Lagrange multiplier) sparse LU: a only needs to be positive
    definite on the hyperplane, so this is the right step computation for
    shift-invariant energies whose jacobian is singular along constants.
    Pinning a single node instead leaves that mode with near-zero curvature
    (the capacity of a point in 2-D), which wrecks Newton for p far from 2.
    """
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    if not sp.issparse(a):
        a = sp.csc_matrix(np.asarray(a, dtype=float))
    n = len(b)
    bordered = sp.bmat([[a, w[:, None]], [w[None, :], None]], format="csc")
    rhs = np.concatenate([b, [0.0]])
    lu = spla.splu(bordered)
    sol = lu.solve(rhs)
    for _ in range(5):
        r = rhs - bordered @ sol
        if np.linalg.norm(r) <= tol * bnorm:
            break
        sol = sol + lu.solve(r)
    rel = np.linalg.norm(rhs - bordered @ sol) / bnorm
    if rel > max(tol, _RESIDUAL_CEILING):
        raise LinearSolveError(
            f"constrained solve stalled at relative residual {rel:.3e}")
    x = sol[:n]
    if float(x @ b) < 0.0:   # x.b = x.Ax on the hyperplane
        raise IndefiniteSystemError(
            "negative curvature on the constrained subspace")
    return x


@dataclass
class StageDiagnostics:
    delta: float
    iterations: int = 0
    energies: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""


@dataclass
class NewtonDiagnostics:
    stages: list = field(default_factory=list)

    @property
    def total_iterations(self):
        return sum(s.iterations for s in self.stages)

    @property
    def final_residual(self):
        return self.stages[-1].residual_norms[-1]

    @property
    def final_delta(self):
        return self.stages[-1].delta


def _check_initial(u, constraints):
    pairs = constraints.periodic_pairs
    scale = 1.0 + float(np.abs(u).max(initial=0.0))
    if pairs is not None and len(pairs):
        pairs = np.asarray(pairs, dtype=np.int64)
        gap = np.abs(u[pairs[:, 0]] - u[pairs[:, 1]]).max()
        if gap > 1e-10 * scale:
            raise ValueError(f"initial field violates periodicity by {gap:.3e}")
    if constraints.pinned_node is not None:
        v = abs(u[int(constraints.pinned_node)])
        if v > 1e-10 * scale:
            raise ValueError(f"initial field is {v:.3e} at the pinned node")


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

    ``problem`` exposes energy(u, delta), residual(u, delta) and
    jacobian(u, delta) on full nodal fields.  Returns the converged full
    field (mean-shifted if requested) and per-stage diagnostics.  Accepted
    steps never increase the stage energy (Armijo backtracking).
    """
    opts = opts or SolveOptions()
    u = np.asarray(init, dtype=float).copy()
    _check_initial(u, constraints)
    red = Reduction(len(u), constraints)
    u_red = red.restrict(u)
    diagnostics = NewtonDiagnostics()

    if constraints.mean_zero_postshift and constraints.mean_weights is None:
        raise ValueError("mean_zero_postshift requires mean_weights")
    # shift-invariant problems (mean-zero requested, nothing pinned) get the
    # mean constraint enforced inside the step computation
    mean_constrained = (constraints.mean_zero_postshift
                        and constraints.pinned_node is None)
    if mean_constrained:
        w_red = red.reduce_vector(np.asarray(constraints.mean_weights, float))

    for delta in opts.continuation_deltas:
        stage = StageDiagnostics(delta=delta)
        diagnostics.stages.append(stage)
        u = red.expand(u_red)
        energy = problem.energy(u, delta)
        r = red.reduce_vector(problem.residual(u, delta))
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
            jac = red.reduce_matrix(problem.jacobian(u, delta))
            if mean_constrained:
                step = constrained_linear_solve(jac, -r, w_red, opts.linear_tol)
            else:
                step = linear_solve(jac, -r, opts.linear_tol)
            slope = float(r @ step)        # directional derivative of energy
            noise = 1e-14 * (abs(energy) + 1.0)
            if slope > noise:
                raise IndefiniteSystemError(
                    f"Newton step is an ascent direction (slope {slope:.3e})")
            if -slope <= noise:
                # predicted decrease below energy roundoff: the Armijo test
                # cannot discriminate, so take the full step and let the
                # residual test decide
                t = 1.0
                trial_red = u_red + step
                trial = red.expand(trial_red)
                trial_energy = problem.energy(trial, delta)
            else:
                t = 1.0
                for _ in range(opts.max_halvings + 1):
                    trial_red = u_red + t * step
                    trial = red.expand(trial_red)
                    trial_energy = problem.energy(trial, delta)
                    if trial_energy <= energy + opts.ls_sufficient_decrease * t * slope:
                        break
                    t *= opts.ls_backtrack
                else:
                    raise LineSearchStallError(
                        f"line search stalled at stage delta={delta:.1e}, "
                        f"iteration {stage.iterations}: energy {energy:.6e}, "
                        f"residual {rnorm:.3e}, slope {slope:.3e}, "
                        f"last step length {t:.3e}")
            u_red = trial_red
            u = trial
            energy = trial_energy
            r = red.reduce_vector(problem.residual(u, delta))
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

    u = red.expand(u_red)
    if constraints.mean_zero_postshift:
        w = np.asarray(constraints.mean_weights, dtype=float)
        u = u - (w @ u) / w.sum()
    return u, diagnostics
