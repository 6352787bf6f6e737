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

    forcing holds n+1 >= 3 nodal samples on the uniform grid over [0, 1].
    """

    coeff: float
    p: float
    forcing: np.ndarray

    def __post_init__(self):
        if not self.coeff > 0.0:
            raise ValueError(f"coefficient must be positive, got {self.coeff}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        forcing = np.ascontiguousarray(self.forcing, dtype=float)
        if forcing.ndim != 1 or len(forcing) < 3:
            raise ValueError("forcing needs at least 3 samples in one "
                             f"dimension, got shape {forcing.shape}")
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
        self.h = 1.0 / (len(u) - 1)
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
        res = np.zeros(len(self.ug) + 1)
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

        def mass(a, b):
            """The element mass block's entry for basis functions a and b
            at the Gauss points, each product in the operands' order."""
            t = mprime * a * b * _GAUSS_W
            return (t[:, 0] + t[:, 1]) * h

        left, right = 1.0 - _GAUSS_T, _GAUSS_T
        rows = np.zeros((2, len(self.ug) + 1))
        rows[0, :-1] += stiff + mass(left, left)
        rows[0, 1:] += stiff + mass(right, right)
        rows[1, :-1] = mass(left, right) - stiff
        return solve.Band(rows, np.array([0, 1]))


def solve_homogenized(prob, opts=None):
    """Nodal solution of the limit problem plus solver diagnostics.

    The Neumann conditions are natural, and the zeroth-order term makes the
    problem well posed without constraints.
    """
    opts = opts or solve.SolveOptions()
    return solve.newton_solve(
        partial(_LimitPoint, prob, _gauss_values(prob.forcing)),
        np.zeros_like(prob.forcing), opts=opts)


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
    """Limit solution export: a geometry.write_table table ``index x u0``."""
    values = np.asarray(values, dtype=float)
    geometry.write_table(path, ("x", "u0"),
                         (np.linspace(0.0, 1.0, len(values)), values))


def read_solution(path):
    """Read a file written by write_solution: (abscissae, values).  A table
    read_table refuses, or abscissae not from 0 to 1, raise ValueError."""
    x, u = geometry.read_table(path, ("x", "u0"))[0].T
    ends = x[:1].tolist() + x[-1:].tolist()
    if ends != [0.0, 1.0]:
        raise ValueError(f"{path}: abscissae run {ends}, expected [0.0, 1.0] "
                         "(file cut short?)")
    return x, u
