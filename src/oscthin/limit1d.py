"""Homogenized 1-D Neumann problem on the unit interval.

P1 elements on a uniform grid with the same damped Newton driver and the
same flux regularization as the 2-D solves, so the quantities being
compared across the pipeline share one discretization convention.  The
forcing arrives as nodal samples (it comes out of fiber quadrature, not a
closed form) and is treated as its piecewise-linear interpolant; with the
two-point Gauss rule per element the load integrals are then exact.
"""

from dataclasses import dataclass

import numpy as np

from . import fem, geometry, solve

# two-point Gauss rule on the reference element [0, 1]
_GAUSS_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GAUSS_W = np.array([0.5, 0.5])


@dataclass(frozen=True)
class Limit1DProblem:
    """Data of the limit problem: coefficient, exponent, forcing samples.

    forcing holds n+1 nodal samples on the uniform grid over [0, 1].
    """

    coeff: float
    p: float
    forcing: np.ndarray
    n: int

    def __post_init__(self):
        if not self.coeff > 0.0:
            raise ValueError(f"coefficient must be positive, got {self.coeff}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.n < 2:
            raise ValueError(f"need at least 2 elements, got {self.n}")
        forcing = np.ascontiguousarray(self.forcing, dtype=float)
        if forcing.shape != (self.n + 1,):
            raise ValueError(
                f"forcing needs {self.n + 1} samples, got {forcing.shape}")
        object.__setattr__(self, "forcing", forcing)


class _LimitFunctional:
    """Points of the discrete 1-D problem for the Newton driver."""

    def __init__(self, prob):
        self.prob = prob
        self.h = 1.0 / prob.n
        # forcing at the Gauss points of each element (exact interpolation)
        self.f_gauss = self._gauss_values(prob.forcing)

    def _gauss_values(self, u):
        return (u[:-1, None] * (1.0 - _GAUSS_T)[None, :]
                + u[1:, None] * _GAUSS_T[None, :])

    def point(self, u, delta):
        return _LimitPoint(self, u, delta)


class _LimitPoint:
    """Energy, residual and jacobian at one field, sharing its element
    slopes, Gauss-point values and their power weights."""

    def __init__(self, functional, u, delta):
        self.f, self.delta = functional, delta
        p = functional.prob.p
        self.slopes = np.diff(u) / functional.h
        self.ug = functional._gauss_values(u)
        self.sigma = fem._power_weight(self.slopes ** 2, p, delta)
        self.mass_weight = fem._power_weight(self.ug ** 2, p, delta)

    def energy(self):
        f, d2 = self.f, self.delta ** 2
        p, q = f.prob.p, f.prob.coeff
        s, ug = self.slopes, self.ug
        flux = f.h * (q / p) * ((d2 + s * s) * self.sigma)
        dens = (d2 + ug * ug) * self.mass_weight / p - f.f_gauss * ug
        return float(flux.sum() + (f.h * (dens @ _GAUSS_W)).sum())

    def residual(self):
        f = self.f
        a = f.prob.coeff * self.sigma * self.slopes
        res = np.zeros(f.prob.n + 1)
        res[:-1] -= a
        res[1:] += a
        s = self.mass_weight * self.ug - f.f_gauss
        res[:-1] += f.h * ((s * (1.0 - _GAUSS_T)[None, :]) @ _GAUSS_W)
        res[1:] += f.h * ((s * _GAUSS_T[None, :]) @ _GAUSS_W)
        return res

    def jacobian(self, fold=None):
        """Tridiagonal: the diagonal and the subdiagonal of a solve.Band.
        The limit grid has no periodic fold; fold is not used."""
        f, delta = self.f, self.delta
        p, q = f.prob.p, f.prob.coeff
        if p < 2.0 and delta == 0.0:
            raise ValueError("jacobian with p < 2 requires delta > 0")
        s, ug = self.slopes, self.ug
        stiff = (q / f.h) * self.sigma * (
            1.0 + fem._ratio(p, delta * delta + s * s, delta) * s * s)
        mprime = self.mass_weight * (
            1.0 + fem._ratio(p, delta * delta + ug * ug, delta) * ug * ug)
        basis = np.stack([1.0 - _GAUSS_T, _GAUSS_T])
        mass = np.einsum("eg,ag,bg,g->eab", mprime, basis, basis,
                         _GAUSS_W) * f.h
        rows = np.zeros((2, f.prob.n + 1))
        rows[0, :-1] += stiff + mass[:, 0, 0]
        rows[0, 1:] += stiff + mass[:, 1, 1]
        rows[1, :-1] = mass[:, 0, 1] - stiff
        return solve.Band(rows, np.array([0, 1]))


def solve_homogenized(prob, opts=None):
    """Nodal solution of the limit problem plus solver diagnostics.

    The Neumann conditions are natural, and the zeroth-order term makes the
    problem well posed without constraints.
    """
    opts = opts or solve.SolveOptions()
    functional = _LimitFunctional(prob)
    return solve.newton_solve(functional, np.zeros(prob.n + 1),
                              solve.ConstraintSet(), opts)


def nodal_derivative(values):
    """Recovered derivative samples on the same uniform grid.

    Element slopes averaged at interior nodes, one-sided at the ends;
    second-order accurate at interior nodes for smooth limits.
    """
    values = np.asarray(values, dtype=float)
    slopes = np.diff(values) * (len(values) - 1)
    return np.concatenate(
        [slopes[:1], 0.5 * (slopes[:-1] + slopes[1:]), slopes[-1:]])


def write_solution(values, path):
    """Structured-text export of (abscissa, value) pairs."""
    values = np.asarray(values, dtype=float)
    grid = np.linspace(0.0, 1.0, len(values))
    with open(path, "w") as fh:
        fh.write("x u0\n")
        geometry.write_records(fh, (grid, values), index=False)


def read_solution(path):
    """Read a file written by write_solution: header line, then x/value pairs."""
    with open(path) as fh:
        fh.readline()
        rows = [line.split() for line in fh if line.strip()]
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1]
