from dataclasses import replace

import numpy as np
import pytest

from oscthin import Limit1DProblem, fem
from oscthin.limit1d import (_GAUSS_T, _GAUSS_W, _gauss_values, _LimitPoint,
                             nodal_derivative, read_solution,
                             solve_homogenized, write_solution)

import oracles


def grid(n):
    return np.linspace(0.0, 1.0, n + 1)


class TestConstantData:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("coeff", [0.3, 1.0, 2.0])
    def test_unit_forcing_gives_unit_solution(self, p, coeff):
        prob = Limit1DProblem(coeff=coeff, p=p, forcing=np.ones(33))
        u, _ = solve_homogenized(prob)
        assert np.abs(u - 1.0).max() < 1e-8

    def test_constant_forcing_balances_zeroth_order_term(self):
        # |u|^(p-2) u = c  =>  u = c^(1/(p-1))
        prob = Limit1DProblem(coeff=0.7, p=3.0, forcing=np.full(33, 2.0))
        u, _ = solve_homogenized(prob)
        assert np.abs(u - np.sqrt(2.0)).max() < 1e-8


# hand-derived data for p = 3: with u*(x) = cos(pi x) one has
# u*' = -pi sin(pi x), |u*'| u*' = -pi^2 sin^2(pi x) on (0, 1), and
#   -q (|u*'| u*')' + |u*| u* = 2 q pi^3 sin(pi x) cos(pi x) + cos(pi x)|cos(pi x)|
MANUFACTURED_COEFF = 0.64


def manufactured_forcing(x):
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    return 2.0 * MANUFACTURED_COEFF * np.pi ** 3 * s * c + c * np.abs(c)


def manufactured_solution(x):
    return np.cos(np.pi * x)


def manufactured_derivative(x):
    return -np.pi * np.sin(np.pi * x)


def w1p_error(u, p):
    """W^{1,p} distance to the manufactured solution by per-element Gauss-5."""
    n = len(u) - 1
    h = 1.0 / n
    t, w = np.polynomial.legendre.leggauss(5)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    x = grid(n)[:-1, None] + h * t[None, :]
    uh = u[:-1, None] * (1.0 - t)[None, :] + u[1:, None] * t[None, :]
    duh = (np.diff(u) / h)[:, None]
    err_u = (h * w[None, :] * np.abs(uh - manufactured_solution(x)) ** p).sum()
    err_du = (h * w[None, :] * np.abs(duh - manufactured_derivative(x)) ** p).sum()
    return (err_u + err_du) ** (1.0 / p)


class TestManufacturedConvergence:
    def test_w1p_rate_at_least_1_7_per_doubling(self):
        errors = []
        for n in (16, 32, 64, 128):
            prob = Limit1DProblem(coeff=MANUFACTURED_COEFF, p=3.0,
                                  forcing=manufactured_forcing(grid(n)))
            u, _ = solve_homogenized(prob)
            errors.append(w1p_error(u, 3.0))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert min(ratios) >= 1.7, (errors, ratios)


class TestNeumannAndPositivity:
    def test_boundary_slopes_vanish_under_refinement(self):
        slopes = []
        for n in (16, 32, 64):
            x = grid(n)
            prob = Limit1DProblem(coeff=0.5, p=3.0,
                                  forcing=np.cos(np.pi * x) + 2.0)
            u, _ = solve_homogenized(prob)
            s = np.diff(u) * n
            slopes.append(max(abs(s[0]), abs(s[-1])))
        assert slopes[0] > slopes[1] > slopes[2]

    def test_nonnegative_forcing_gives_nonnegative_solution(self):
        rng = np.random.default_rng(23)
        for p in (1.5, 2.0, 3.0):
            forcing = rng.uniform(0.0, 2.0, size=17)
            prob = Limit1DProblem(coeff=0.8, p=p, forcing=forcing)
            u, _ = solve_homogenized(prob)
            assert u.min() > -1e-10

    def test_energy_never_increases(self):
        x = grid(64)
        prob = Limit1DProblem(coeff=0.6, p=3.0,
                              forcing=np.cos(np.pi * x) + 1.5)
        _, diag = solve_homogenized(prob)
        for stage in diag.stages:
            assert np.all(np.diff(stage.energies)
                          <= 1e-12 * (1.0 + abs(stage.energies[0])))


class TestScaleInvariance:
    def test_constant_forcing_is_coefficient_independent(self):
        prob = Limit1DProblem(coeff=1.0, p=3.0, forcing=np.ones(33))
        base, _ = solve_homogenized(prob)
        scaled, _ = solve_homogenized(replace(prob, coeff=2.0))
        assert np.abs(base - 1.0).max() < 1e-8
        assert np.abs(scaled - 1.0).max() < 1e-8
        assert np.abs(base - scaled).max() < 1e-8

    def test_nonconstant_solution_moves_with_coefficient(self):
        x = grid(32)
        prob = Limit1DProblem(coeff=1.0, p=3.0,
                              forcing=np.cos(np.pi * x) + 1.5)
        base, _ = solve_homogenized(prob)
        scaled, _ = solve_homogenized(replace(prob, coeff=2.0))
        assert np.abs(base - scaled).max() > 1e-6

    def test_refinement_gap_is_discretization_sized(self):
        """Doubling the grid (forcing interpolated onto it) moves the
        solution at the shared nodes by a discretization-sized amount."""
        x = grid(32)
        prob = Limit1DProblem(coeff=1.0, p=3.0,
                              forcing=np.cos(np.pi * x) + 1.5)
        base, _ = solve_homogenized(prob)
        fine, _ = solve_homogenized(replace(
            prob, forcing=np.interp(grid(64), x, prob.forcing)))
        assert np.abs(base - fine[::2]).max() < 1e-3


class TestLinearOracle:
    def test_p2_matches_dense_tridiagonal_solve(self):
        x = grid(48)
        forcing = np.cos(np.pi * x) + 1.0
        prob = Limit1DProblem(coeff=0.7, p=2.0, forcing=forcing)
        u, _ = solve_homogenized(prob)
        ref = oracles.linear_limit_solve(0.7, forcing)
        assert np.abs(u - ref).max() < 1e-9


def _einsum_jacobian_rows(point):
    """The limit jacobian's band rows with the element mass blocks from
    one four-operand einsum, the form _LimitPoint.jacobian replaced."""
    delta, h = point.delta, point.h
    p, q = point.prob.p, point.prob.coeff
    s, ug = point.slopes, point.ug
    stiff = (q / h) * point.sigma * (
        1.0 + fem._ratio(p, delta * delta + s * s, delta) * s * s)
    mprime = point.mass_weight * (
        1.0 + fem._ratio(p, delta * delta + ug * ug, delta) * ug * ug)
    basis = np.stack([1.0 - _GAUSS_T, _GAUSS_T])
    mass = np.einsum("eg,ag,bg,g->eab", mprime, basis, basis, _GAUSS_W) * h
    rows = np.zeros((2, len(ug) + 1))
    rows[0, :-1] += stiff + mass[:, 0, 0]
    rows[0, 1:] += stiff + mass[:, 1, 1]
    rows[1, :-1] = mass[:, 0, 1] - stiff
    return rows


@pytest.mark.parametrize("delta", [1e-2, 1e-8])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_jacobian_mass_blocks_keep_the_einsum_bits(p, delta):
    """The jacobian's explicit Gauss-point products give the bits of the
    einsum they replaced."""
    rng = np.random.default_rng(5)
    prob = Limit1DProblem(coeff=0.63, p=p, forcing=rng.normal(size=129))
    point = _LimitPoint(prob, _gauss_values(prob.forcing),
                        rng.normal(size=129), delta)
    assert np.array_equal(point.jacobian().rows, _einsum_jacobian_rows(point))


class TestDerivativeRecovery:
    def test_linear_field(self):
        u = 2.0 * grid(16) + 1.0
        assert np.allclose(nodal_derivative(u), 2.0)

    def test_quadratic_field_interior_second_order(self):
        x = grid(64)
        du = nodal_derivative(x ** 2)
        assert np.abs(du[1:-1] - 2.0 * x[1:-1]).max() < 1e-10


class TestValidation:
    def test_bad_coefficient(self):
        with pytest.raises(ValueError):
            Limit1DProblem(coeff=0.0, p=2.0, forcing=np.ones(5))

    def test_bad_exponent(self):
        with pytest.raises(ValueError, match="p must exceed 1"):
            Limit1DProblem(coeff=1.0, p=1.0, forcing=np.ones(5))

    def test_unregularized_jacobian_below_p2_refused(self):
        """At p < 2 the jacobian needs delta > 0: its weight |u'|^(p-2)
        has no bound at a zero slope."""
        prob = Limit1DProblem(coeff=1.0, p=1.5, forcing=np.ones(5))
        point = _LimitPoint(prob, _gauss_values(prob.forcing),
                            1.0 + grid(4), 0.0)
        with pytest.raises(ValueError,
                           match=r"^jacobian with p < 2 requires delta > 0$"):
            point.jacobian()

    def test_mismatched_forcing(self):
        """The element count is read from the forcing, which must be 1-D
        with at least 3 samples (2 elements)."""
        for forcing in (np.ones(2), np.ones((3, 3)), np.ones(())):
            with pytest.raises(ValueError, match="at least 3 samples"):
                Limit1DProblem(coeff=1.0, p=2.0, forcing=forcing)


def test_solution_round_trip(tmp_path):
    prob = Limit1DProblem(coeff=1.0, p=2.0, forcing=np.ones(9))
    u, _ = solve_homogenized(prob)
    path = tmp_path / "u0.txt"
    write_solution(u, path)
    x, back = read_solution(path)
    assert np.array_equal(back, u)
    assert np.array_equal(x, grid(8))



@pytest.mark.parametrize("keep, line, text, message", [
    (6, 0, "index x u0 records=5",
     "abscissae run [0.0, 0.5], expected [0.0, 1.0]"),
    (1, 0, None, "0 records after the header, expected 9"),
    (10, 4, "3 0.375", "record 3 is not an index and 2 numbers: '3 0.375'"),
    (10, 4, "3 0.375 1.0 2.0",
     "record 3 is not an index and 2 numbers: '3 0.375 1.0 2.0'"),
    (10, 4, "3 0.375 one",
     "record 3 is not an index and 2 numbers: '3 0.375 one'"),
    (10, 0, "x u0 records=9",
     "expected header 'index x u0 records=<count> key=value"),
], ids=["cut", "empty", "short", "long", "text", "header"])
def test_damaged_solution_refused(tmp_path, keep, line, text, message):
    """A u0.txt cut after 5 of its 9 records with its count set to match,
    with no record, with a record that is not an index, x and a value, or
    with a header of other names is refused in one line that names the
    file."""
    path = tmp_path / "u0.txt"
    write_solution(np.ones(9), path)
    lines = path.read_text().splitlines()[:keep]
    if text is not None:
        lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_solution(path)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value) and "\n" not in str(info.value)
