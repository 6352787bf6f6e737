"""Homogenized 1-D Neumann problem on the unit interval.

P1 elements on a uniform grid with the same damped Newton driver and the
same flux regularization as the 2-D solves, so the quantities being
compared across the pipeline share one discretization convention.  The
forcing arrives as nodal samples (it comes out of fiber quadrature, not a
closed form) and is treated as its piecewise-linear interpolant; with the
two-point Gauss rule per element the load integrals are then exact.
"""

from dataclasses import dataclass
from functools import partial

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


def _gauss_values(u):
    """Nodal u at each element's Gauss points, (n, 2): exact for P1."""
    return (u[:-1, None] * (1.0 - _GAUSS_T)[None, :]
            + u[1:, None] * _GAUSS_T[None, :])


class _LimitPoint:
    """Energy, residual and jacobian at one field, sharing its element
    slopes, Gauss-point values and their power weights; f_gauss is the
    forcing at the Gauss points."""

    def __init__(self, prob, f_gauss, u, delta):
        self.prob, self.f_gauss, self.delta = prob, f_gauss, delta
        self.h = 1.0 / prob.n
        self.slopes = np.diff(u) / self.h
        self.ug = _gauss_values(u)
        self.sigma = fem._power_weight(self.slopes ** 2, prob.p, delta)
        self.mass_weight = fem._power_weight(self.ug ** 2, prob.p, delta)

    def energy(self):
        d2, h = self.delta ** 2, self.h
        p, q = self.prob.p, self.prob.coeff
        s, ug = self.slopes, self.ug
        flux = h * (q / p) * ((d2 + s * s) * self.sigma)
        dens = (d2 + ug * ug) * self.mass_weight / p - self.f_gauss * ug
        return float(flux.sum() + (h * (dens @ _GAUSS_W)).sum())

    def residual(self):
        h = self.h
        a = self.prob.coeff * self.sigma * self.slopes
        res = np.zeros(self.prob.n + 1)
        res[:-1] -= a
        res[1:] += a
        s = self.mass_weight * self.ug - self.f_gauss
        res[:-1] += h * ((s * (1.0 - _GAUSS_T)[None, :]) @ _GAUSS_W)
        res[1:] += h * ((s * _GAUSS_T[None, :]) @ _GAUSS_W)
        return res

    def jacobian(self):
        """Tridiagonal: the diagonal and the subdiagonal of a solve.Band."""
        delta, h = self.delta, self.h
        p, q = self.prob.p, self.prob.coeff
        if p < 2.0 and delta == 0.0:
            raise ValueError("jacobian with p < 2 requires delta > 0")
        s, ug = self.slopes, self.ug
        stiff = (q / h) * self.sigma * (
            1.0 + fem._ratio(p, delta * delta + s * s, delta) * s * s)
        mprime = self.mass_weight * (
            1.0 + fem._ratio(p, delta * delta + ug * ug, delta) * ug * ug)
        basis = np.stack([1.0 - _GAUSS_T, _GAUSS_T])
        mass = np.einsum("eg,ag,bg,g->eab", mprime, basis, basis,
                         _GAUSS_W) * h
        rows = np.zeros((2, self.prob.n + 1))
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
    return solve.newton_solve(
        partial(_LimitPoint, prob, _gauss_values(prob.forcing)),
        np.zeros(prob.n + 1), opts=opts)


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
    """Read a file written by write_solution: header line, then x/value
    pairs.  Records read_records refuses, or abscissae not running from 0
    to 1 (a file cut short), raise a one-line ValueError naming the file."""
    with open(path) as fh:
        fh.readline()
        x, u = geometry.read_records(fh, path, 2, index=False).T
    if x[0] != 0.0 or x[-1] != 1.0:
        raise ValueError(f"{path}: abscissae run from {x[0]} to {x[-1]}, "
                         "expected 0 to 1 (file cut short?)")
    return x, u
