import sys
import types
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscthin import (Limit1DProblem, SolveOptions, build_cell_mesh,
                     build_thin_mesh, fem, geometry, solve)
from oscthin.fem import FluxParams, Point, element_gradients, load_vector
from oscthin.homogenize import _CellFunctional, solve_cell
from oscthin.limit1d import _LimitFunctional
from oscthin.solve import (IndefiniteSystemError, LinearSolveError,
                           NonConvergenceError, constrained_linear_solve,
                           constrained_solver, linear_solve, linear_solver,
                           newton_solve)
from oscthin.study import (LoadSpec, _ThinFunctional, error_corrector,
                           solve_thin)

import oracles


def _cell_band(mesh, p):
    """The cell's jacobian at delta 1e-8 for a smooth periodic
    perturbation."""
    phi = 0.05 * np.sin(2.0 * np.pi * oracles.nodes(mesh)[:mesh.num_nodes, 0])
    return _CellFunctional(mesh, p).point(phi, 1e-8).jacobian()


def _cell_weights(mesh):
    """The oracle's hat-function integrals summed onto the cell's nodes."""
    return oracles.fold(mesh, oracles.lumped_masses(mesh))


def _patch_lapack(monkeypatch, **routines):
    """Give solve LAPACK routines by name through its own _lapack
    attribute; scipy's shared extension module stays untouched."""
    real = solve._lapack
    monkeypatch.setattr(solve, "_lapack", types.SimpleNamespace(
        **{"dpbtrf": real.dpbtrf, "dpbtrs": real.dpbtrs, **routines}))


class TestLinearSolve:
    def test_identity(self):
        b = np.arange(1.0, 6.0)
        x = linear_solve(oracles.band(sp.identity(5)), b, 1e-12)
        assert np.allclose(x, b)

    def test_diagonal(self):
        a = oracles.band(np.diag([2.0, 4.0]))
        assert np.allclose(linear_solve(a, np.array([2.0, 4.0]), 1e-12), [1.0, 1.0])

    def test_random_spd_against_dense_oracle(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(100, 100))
        a = m @ m.T + 100.0 * np.eye(100)
        b = rng.normal(size=100)
        x = linear_solve(oracles.band(a), b, 1e-12)
        assert np.linalg.norm(x - np.linalg.solve(a, b)) < 1e-8

    def test_zero_rhs(self):
        a = oracles.band(np.diag([2.0, 4.0]))
        assert np.all(linear_solve(a, np.zeros(2), 1e-12) == 0.0)

    def test_negative_diagonal_rejected(self):
        a = oracles.band(np.diag([1.0, -2.0]))
        with pytest.raises(IndefiniteSystemError):
            linear_solve(a, np.ones(2), 1e-12)

    def test_positive_diagonal_indefinite_rejected(self):
        a = oracles.band(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IndefiniteSystemError):
            linear_solve(a, np.array([1.0, 1.0]), 1e-12)

    def test_broken_factor_is_linear_solve_error(self, monkeypatch):
        """Band solves that never reduce the residual leave it above the
        ceiling after refinement: a LinearSolveError, not a solution."""
        _patch_lapack(monkeypatch,
                      dpbtrs=lambda factor, r, **kw: (np.zeros_like(r), 0))
        with pytest.raises(LinearSolveError, match="after refinement"):
            linear_solve(oracles.band(np.diag([2.0, 4.0])),
                         np.array([1.0, 1.0]), 1e-12)

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_thin_jacobian_against_sparse_lu(self, reference_profile, p,
                                             delta):
        mesh = build_thin_mesh(reference_profile, 1.0 / 16, 32, 16)
        x1, x2 = oracles.nodes(mesh).T
        u = np.cos(np.pi * x1) * (1.0 + 0.3 * x2) + 0.05 * np.sin(40.0 * x1)
        band = Point(mesh, u, FluxParams(p=p, delta=delta,
                                         eps_weight=mesh.eps)).jacobian()
        b = np.random.default_rng(15).normal(size=mesh.num_nodes)
        x = linear_solve(band, b, 1e-12)
        ref = spla.spsolve(oracles.band_matrix(band).tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_thin_jacobian_half_bandwidth(self, reference_profile):
        """Column-major numbering of the mapped grid puts every coupling
        within rows + 2 of the diagonal, and the corner-to-corner diagonal
        of each quad reaches that distance."""
        for ny in (2, 5, 16):
            mesh = build_thin_mesh(reference_profile, 1.0 / 4, 8, ny)
            band = Point(mesh, np.zeros(mesh.num_nodes),
                         FluxParams(p=2.0, eps_weight=mesh.eps)).jacobian()
            assert band.offsets[-1] == ny + 2
            assert np.abs(band.rows[-1]).max() > 0.0

    @pytest.mark.parametrize("nx, ny", [(8, 4), (9, 4), (128, 32)])
    def test_folded_cell_jacobian_half_bandwidth(self, reference_profile,
                                                 nx, ny):
        """Ring-ordered cell columns keep every coupling of the periodic
        fold within two columns of the diagonal, for odd and even nx: in
        the oracle jacobian folded and in the cell's band."""
        mesh = build_cell_mesh(reference_profile, nx, ny)
        a = oracles.coo_jacobian(mesh, oracles.nodes(mesh)[:, 0],
                                 FluxParams(p=2.0), include_mass=False)
        coo = oracles.fold_matrix(a, oracles.periodic_pairs(mesh)).tocoo()
        assert (coo.col - coo.row).max() == 2 * ny + 3
        band = Point(mesh, np.zeros(mesh.num_nodes), FluxParams(p=2.0),
                     False).jacobian()
        assert band.offsets[-1] == 2 * ny + 3

    def test_tall_columns_keep_the_band(self, reference_profile):
        """The band grows with the rows of a column, not with the mesh:
        tall ring-ordered cells and tall thin meshes still solve."""
        cell = solve_cell(build_cell_mesh(reference_profile, 8, 230), 2.0)
        assert cell.diagnostics.stages[-1].converged
        mesh = build_thin_mesh(reference_profile, 1.0, 4, 460)
        a = Point(mesh, oracles.nodes(mesh)[:, 0], FluxParams(p=2.0)).jacobian()
        b = np.random.default_rng(17).normal(size=mesh.num_nodes)
        x = linear_solve(a, b, 1e-10)
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_constrained_solve_matches_bordered_lu(self, medium_cell_mesh,
                                                   p, delta):
        mesh = medium_cell_mesh
        x1, x2 = oracles.nodes(mesh)[:mesh.num_nodes].T
        phi = 0.05 * np.sin(2.0 * np.pi * x1) * (1.0 + x2)
        a = oracles.band_matrix(
            _CellFunctional(mesh, p).point(phi, delta).jacobian())
        b = np.random.default_rng(16).normal(size=mesh.num_nodes)
        b -= b.mean()
        w = _cell_weights(mesh)
        x = constrained_linear_solve(oracles.band(a), b, w, 1e-12)
        ref = oracles.bordered_solve(a, b, w)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("c", [1e-3, -2.5, 1e3])
    def test_constant_in_rhs_is_dropped(self, medium_cell_mesh, c):
        """a annihilates constants, so its range misses them: b and
        b + c 1 give the same step, the one for the mean-zero part."""
        band = _cell_band(medium_cell_mesh, 3.0)
        b = np.random.default_rng(18).normal(size=medium_cell_mesh.num_nodes)
        b -= b.mean()
        w = _cell_weights(medium_cell_mesh)
        x = constrained_linear_solve(band, b, w, 1e-12)
        shifted = constrained_linear_solve(band, b + c, w, 1e-12)
        assert np.linalg.norm(shifted - x) <= 1e-10 * np.linalg.norm(x)
        assert abs(w @ shifted) <= 1e-12 * np.abs(w).sum() * np.abs(x).max()

    def test_constrained_solve_matches_dense_kkt(self):
        """A dense semidefinite a whose null space is the constants, the
        property of the cell jacobian the step relies on, and a
        mean-zero b, the step's contract."""
        rng = np.random.default_rng(14)
        m = rng.normal(size=(40, 40))
        centre = np.eye(40) - 1.0 / 40.0
        a = centre @ (m @ m.T + 40.0 * np.eye(40)) @ centre
        b = centre @ rng.normal(size=40)
        w = rng.uniform(0.5, 1.5, size=40)
        x = constrained_linear_solve(oracles.band(a), b, w, 1e-12)
        kkt = np.zeros((41, 41))
        kkt[:40, :40] = a
        kkt[:40, 40] = w
        kkt[40, :40] = w
        ref = np.linalg.solve(kkt, np.concatenate([b, [0.0]]))[:40]
        assert np.linalg.norm(x - ref) < 1e-8
        assert abs(w @ x) < 1e-10

    @pytest.mark.parametrize("drift, refused", [(1e-10, True), (1e-14, False)])
    def test_constrained_needs_constant_null_space(self, drift, refused):
        """Row sums above 1e-12 of the largest diagonal entry break the
        step's premise: a SolveError (exit 3), not a ValueError (a config
        error from the command line); roundoff-sized ones solve."""
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])
        a[1, 1] += drift * 3.0
        b, w = np.array([1.0, 0.5, -1.5]), np.ones(3)
        if refused:
            with pytest.raises(IndefiniteSystemError,
                               match="annihilates constants"):
                constrained_linear_solve(oracles.band(a), b, w, 1e-12)
        else:
            x = constrained_linear_solve(oracles.band(a), b, w, 1e-12)
            assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_constrained_singular_system_is_solve_error(self):
        """A zero jacobian is a solver error (exit 3 from the
        command line): its grounded band has a zero diagonal."""
        with pytest.raises(IndefiniteSystemError,
                           match="nonpositive diagonal entry"):
            constrained_linear_solve(oracles.band(np.zeros((3, 3))), np.array(
                [1.0, 0.0, -1.0]), np.ones(3), 1e-12)

    @pytest.mark.parametrize("shift", [1e-8, 1e-9, 1e-10])
    def test_stalled_refinement_stops_early(self, monkeypatch, shift):
        """A shifted Neumann Laplacian (condition about 4/shift) leaves the
        refinement floor far above tol.  By the solver's own residual
        after each band solve, every refinement step halved the residual
        but the last, which stopped the solve (or was the fifth), and the
        result is no worse than five steps would leave."""
        n = 60
        main = np.full(n, 2.0)
        main[[0, -1]] = 1.0
        a = np.diag(main + shift) - np.diag(np.ones(n - 1), 1) \
            - np.diag(np.ones(n - 1), -1)
        b = np.random.default_rng(3).normal(size=n)
        residuals, solves = [], []
        product, band_solve = solve.Band.__matmul__, solve._lapack.dpbtrs

        def recording(band, x):
            y = product(band, x)
            residuals.append(np.linalg.norm(b - y))
            return y

        def counting(*args, **kwargs):
            solves.append(1)
            return band_solve(*args, **kwargs)

        monkeypatch.setattr(solve.Band, "__matmul__", recording)
        _patch_lapack(monkeypatch, dpbtrs=counting)
        x = linear_solve(oracles.band(a), b, 1e-12)
        assert len(residuals) == len(solves) and 2 <= len(solves) <= 6
        assert all(new <= 0.5 * old
                   for old, new in zip(residuals[:-2], residuals[1:-1]))
        assert residuals[-1] > 0.5 * residuals[-2] or len(solves) == 6
        residual = np.linalg.norm(b - a @ x)
        assert residual > 1e-12 * np.linalg.norm(b)      # it did stall
        assert residual <= np.linalg.norm(
            b - a @ oracles.five_step_refinement(a, b))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_one_band_solve_per_bordered_correction(self, monkeypatch,
                                                    medium_cell_mesh, p):
        """The mean-zero step solves no basis: one band solve of a single
        right-hand side per correction, each checked by one residual (a
        band product; one more checks the row sums), and one solve in all
        when the first correction meets tol."""
        mesh = medium_cell_mesh
        band = _cell_band(mesh, p)
        b = np.random.default_rng(57).normal(size=mesh.num_nodes)
        b -= b.mean()
        w = _cell_weights(mesh)
        product, band_solve = solve.Band.__matmul__, solve._lapack.dpbtrs
        products, shapes = [], []

        def counting_product(a, x):
            products.append(1)
            return product(a, x)

        def counting_solve(factor, r, **kwargs):
            shapes.append(np.shape(r))
            return band_solve(factor, r, **kwargs)

        monkeypatch.setattr(solve.Band, "__matmul__", counting_product)
        _patch_lapack(monkeypatch, dpbtrs=counting_solve)
        for tol, solves in ((1e-6, [1]), (1e-12, range(1, 7))):
            products.clear()
            shapes.clear()
            constrained_linear_solve(band, b, w, tol)
            assert len(shapes) in solves
            assert shapes == [(mesh.num_nodes,)] * len(shapes)
            assert len(products) == len(shapes) + 1

    def test_constraint_orthogonal_to_ground_direction_solves(self):
        """A constraint that gives the grounded node no weight
        (w . e0 = 0) still fixes the constant: on a path Laplacian the
        grounded and shifted solve matches the KKT one."""
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])
        b = np.array([1.0, 2.0, -3.0])
        w = np.array([0.0, 1.0, 2.0])
        x = constrained_linear_solve(oracles.band(a), b, w, 1e-12)
        kkt = np.zeros((4, 4))
        kkt[:3, :3] = a
        kkt[:3, 3] = kkt[3, :3] = w
        ref = np.linalg.solve(kkt, np.append(b, 0.0))[:3]
        assert np.abs(x - ref).max() < 1e-14

    @pytest.mark.filterwarnings("error")
    def test_constrained_singular_schur_is_solve_error(self):
        """a = [[1, -1], [-1, 1]] grounds to an SPD band, but w = (1, -1)
        sums to zero and leaves the constants free: reported before any
        division by 1 . w."""
        a = oracles.band(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(IndefiniteSystemError,
                           match="singular constraint"):
            constrained_linear_solve(a, np.array([1.0, -1.0]),
                                     np.array([1.0, -1.0]), 1e-12)


class TestSharedFactor:
    """linear_solver and constrained_solver: one factorization serves
    several right-hand sides.  Given the band and a tolerance a solve has
    the bits of linear_solve's or constrained_linear_solve's; without, it
    is one back-substitution, and the function does not keep the band."""

    def test_constrained_solves_share_one_factor(self, medium_cell_mesh,
                                                 monkeypatch):
        band = _cell_band(medium_cell_mesh, 2.0)
        w = _cell_weights(medium_cell_mesh)
        rhs = np.random.default_rng(19).normal(
            size=(3, medium_cell_mesh.num_nodes))
        separate = [constrained_linear_solve(band, b, w, 1e-12) for b in rhs]
        calls = []
        real_factor = solve.Band.factor

        def counting(self, ground=0.0):
            calls.append(ground)
            return real_factor(self, ground)

        monkeypatch.setattr(solve.Band, "factor", counting)
        solve_with = constrained_solver(band, w)
        refined = [solve_with(b, band, 1e-12) for b in rhs]
        single = [solve_with(b) for b in rhs]
        assert calls == [band.rows[0, 0]]
        for x, y, ref in zip(refined, single, separate):
            assert np.array_equal(x, ref)
            assert np.linalg.norm(y - ref) <= 1e-8 * np.linalg.norm(ref)
            assert abs(w @ y) <= 1e-12 * np.abs(w).sum() * np.abs(y).max()
        assert np.array_equal(solve_with(np.zeros(len(w))), np.zeros(len(w)))

    def test_plain_solves_share_one_factor(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 8)
        band = _ThinFunctional(mesh, 3.0, LoadSpec(kind="cos_pi")).point(
            np.ones(mesh.num_nodes), 1e-2).jacobian()
        solve_with = linear_solver(band)
        for seed in (20, 21):
            b = np.random.default_rng(seed).normal(size=mesh.num_nodes)
            ref = linear_solve(band, b, 1e-12)
            assert np.array_equal(solve_with(b, band, 1e-12), ref)
            assert (np.linalg.norm(solve_with(b) - ref)
                    <= 1e-10 * np.linalg.norm(ref))

    def test_the_band_is_not_kept(self, medium_cell_mesh):
        """The solve holds the factor only: once the caller lets the band
        go, it is freed, and back-substitutions go on."""
        band = _cell_band(medium_cell_mesh, 2.0)
        w = _cell_weights(medium_cell_mesh)
        b = np.random.default_rng(22).normal(size=medium_cell_mesh.num_nodes)
        ref = constrained_linear_solve(band, b, w, 1e-12)
        solve_with, gone = constrained_solver(band, w), weakref.ref(band)
        del band
        assert gone() is None
        assert np.linalg.norm(solve_with(b) - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_checks_come_before_the_factor(self):
        """The constrained checks refuse a band before it is factored."""
        a = oracles.band(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(IndefiniteSystemError,
                           match="singular constraint"):
            constrained_solver(a, np.array([1.0, -1.0]))


def _assert_band_matches(band, ref, seed):
    """The band's own (diagonal-wise) product equals the reference
    matrix's on random vectors, so every entry sits where it belongs."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.normal(size=ref.shape[0])
        ax = ref @ x
        assert np.linalg.norm(band @ x - ax) <= 1e-13 * np.linalg.norm(ax)


class TestPlanBand:
    """Newton jacobians as scattered from the plan's band map, against the
    nine-block COO jacobian of tests/oracles.py and a sparse LU solve."""

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_thin_band_matches_oracle(self, reference_profile, p, delta):
        mesh = build_thin_mesh(reference_profile, 1.0 / 16, 32, 16)
        x1, x2 = oracles.nodes(mesh).T
        u = np.cos(np.pi * x1) * (1.0 + 0.3 * x2) + 0.05 * np.sin(40.0 * x1)
        load = LoadSpec(kind="cos_pi")
        band = _ThinFunctional(mesh, p, load).point(u, delta).jacobian()
        ref = oracles.coo_jacobian(
            mesh, u, FluxParams(p=p, delta=delta, eps_weight=mesh.eps))
        assert list(band.offsets) == [0, 1, 17, 18]
        _assert_band_matches(band, ref, 51)
        b = np.random.default_rng(52).normal(size=mesh.num_nodes)
        x = linear_solve(band, b, 1e-12)
        expected = spla.spsolve(ref.tocsc(), b)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_folded_cell_band_matches_oracle(self, medium_cell_mesh, p, delta):
        mesh = medium_cell_mesh
        x1, x2 = oracles.nodes(mesh).T
        phi = 0.05 * np.sin(2.0 * np.pi * x1) * (1.0 + x2)
        band = _CellFunctional(mesh, p).point(
            phi[:mesh.num_nodes], delta).jacobian()
        ref = oracles.fold_matrix(oracles.coo_jacobian(
            mesh, x1 + phi, FluxParams(p=p, delta=delta), include_mass=False),
            oracles.periodic_pairs(mesh))
        assert band.rows.shape[1] == mesh.num_nodes
        assert band.offsets[-1] == 2 * 16 + 3
        _assert_band_matches(band, ref, 53)
        b = np.random.default_rng(54).normal(size=mesh.num_nodes)
        b -= b.mean()
        w = _cell_weights(mesh)
        x = constrained_linear_solve(band, b, w, 1e-12)
        expected = oracles.bordered_solve(ref, b, w)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_limit_band_matches_oracle(self, p, delta):
        n = 64
        grid = np.linspace(0.0, 1.0, n + 1)
        prob = Limit1DProblem(coeff=0.7, p=p, forcing=np.cos(np.pi * grid),
                              n=n)
        u = np.cos(np.pi * grid) + 0.1 * np.sin(9.0 * grid)
        band = _LimitFunctional(prob).point(u, delta).jacobian()
        ref = oracles.limit_jacobian(prob, u, delta)
        assert list(band.offsets) == [0, 1]
        _assert_band_matches(band, ref, 55)
        b = np.random.default_rng(56).normal(size=n + 1)
        x = linear_solve(band, b, 1e-12)
        expected = spla.spsolve(sp.csc_matrix(ref), b)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_factor_is_lower_and_in_place(self, monkeypatch,
                                          medium_cell_mesh):
        """Band.factor hands dpbtrf the band it wrote, asks for the lower
        factor and gets it back in that memory; the factor solves the
        grounded matrix a + c e0 e0^T."""
        band = _cell_band(medium_cell_mesh, 3.0)
        written, lower, cholesky = [], [], solve._lapack.dpbtrf

        def recording(ab, **kwargs):
            written.append(ab)
            lower.append(kwargs["lower"])
            return cholesky(ab, **kwargs)

        _patch_lapack(monkeypatch, dpbtrf=recording)
        c = band.rows[0, 0]
        factor = band.factor(ground=c)
        assert lower == [1] and np.shares_memory(factor, written[0])
        x = np.random.default_rng(58).normal(size=medium_cell_mesh.num_nodes)
        b = band @ x
        b[0] += c * x[0]
        y = scipy.linalg.cho_solve_banded((factor, True), b)
        assert np.linalg.norm(y - x) <= 1e-8 * np.linalg.norm(x)

    def test_point_matches_standalone_assembly(self, reference_profile):
        """A Newton point gives the energy, residual and jacobian that a
        fresh point gives, bit for bit, whatever it evaluated first."""
        mesh = build_thin_mesh(reference_profile, 1.0 / 8, 16, 6)
        x1, x2 = oracles.nodes(mesh).T
        u = np.cos(np.pi * x1) * (1.0 + 0.3 * x2) + 0.05 * np.sin(40.0 * x1)
        load = LoadSpec(kind="cos_pi", x2_coeff=0.3)
        params = FluxParams(p=1.5, delta=1e-2, eps_weight=mesh.eps)
        point = _ThinFunctional(mesh, 1.5, load).point(u, 1e-2)
        energy, band, res = point.energy(), point.jacobian(), point.residual()
        b = fem.load_vector(mesh, load)
        assert energy == Point(mesh, u, params, True, b).energy()
        assert np.array_equal(res, Point(mesh, u, params, True, b).residual())
        ref = Point(mesh, u, params, True, b).jacobian()
        assert np.array_equal(band.offsets, ref.offsets)
        assert np.array_equal(band.rows, ref.rows)


def _lapack_band(profile, kind, p):
    """A thin jacobian (eps 1/16, 32x16 per period) or a 128x32 cell
    jacobian, and the ground that makes it SPD (the cell's constants)."""
    if kind == "thin":
        mesh = build_thin_mesh(profile, 1.0 / 16, 32, 16)
        x1, x2 = oracles.nodes(mesh).T
        u = np.cos(np.pi * x1) * (1.0 + 0.3 * x2) + 0.05 * np.sin(40.0 * x1)
        params = FluxParams(p=p, delta=1e-8, eps_weight=mesh.eps)
        return Point(mesh, u, params).jacobian(), 0.0
    band = _cell_band(build_cell_mesh(profile, 128, 32), p)
    return band, float(band.rows[0, 0])


def _scipy_band_storage(band, ground):
    """LAPACK lower band storage read off the band's CSR matrix."""
    m = oracles.band_matrix(band)
    n, kd = m.shape[0], int(band.offsets[-1])
    ab = np.zeros((kd + 1, n))
    for d in range(kd + 1):
        ab[d, :n - d] = m.diagonal(-d)
    ab[0, 0] += ground
    return ab


class TestLapackPath:
    """The band solves call dpbtrf and dpbtrs themselves and agree bit for
    bit with scipy.linalg's cholesky_banded and cho_solve_banded."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("kind", ["thin", "cell"])
    def test_bit_identical_to_scipy_linalg(self, monkeypatch,
                                           reference_profile, kind, p):
        band, ground = _lapack_band(reference_profile, kind, p)
        ref = scipy.linalg.cholesky_banded(_scipy_band_storage(band, ground),
                                           lower=True)
        assert np.array_equal(band.factor(ground), ref)
        b = np.random.default_rng(59).normal(size=band.rows.shape[1])
        b -= b.mean()
        x = linear_solve(band, b, 1e-12, ground)
        _patch_lapack(
            monkeypatch,
            dpbtrf=lambda ab, **kw: (scipy.linalg.cholesky_banded(
                ab, overwrite_ab=True, lower=True, check_finite=False), 0),
            dpbtrs=lambda c, r, **kw: (scipy.linalg.cho_solve_banded(
                (c, True), r, check_finite=False), 0))
        assert np.array_equal(x, linear_solve(band, b, 1e-12, ground))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("kind", ["thin", "cell"])
    def test_negative_pivot_names_leading_minor(self, reference_profile,
                                                kind, p):
        """A diagonal entry lowered to half its row's share of the factor
        stays positive but makes that pivot negative: the first leading
        minor that is not positive definite is the one that ends there."""
        band, ground = _lapack_band(reference_profile, kind, p)
        k = band.rows.shape[1] // 2
        pivot = band.factor(ground)[0, k] ** 2
        rows = band.rows.copy()
        rows[0, k] = 0.5 * (band.rows[0, k] - pivot)
        assert rows[0, k] > 0.0
        with pytest.raises(IndefiniteSystemError) as info:
            solve.Band(rows, band.offsets).factor(ground)
        assert str(info.value) == (f"banded Cholesky failed: {k + 1}-th "
                                   "leading minor not positive definite")

    def test_missing_extension_is_one_line_import_error(self, monkeypatch,
                                                        tmp_path):
        """A scipy without the LAPACK extension is refused by name and
        directory, with no second route to LAPACK."""
        (tmp_path / "linalg").mkdir()
        monkeypatch.setitem(sys.modules, "scipy", types.SimpleNamespace(
            __file__=str(tmp_path / "__init__.py")))
        with pytest.raises(ImportError) as info:
            solve._load_lapack()
        assert str(info.value) == ("scipy has no LAPACK extension _flapack "
                                   f"in {tmp_path / 'linalg'}")


class TestConstraints:
    def test_constant_field_mean_shift_gives_zero(self, small_cell_mesh):
        mesh = small_cell_mesh
        u = np.full(mesh.num_nodes, 3.7)
        w = load_vector(mesh, np.ones(mesh.num_nodes))
        shifted = u - (w @ u) / geometry.mesh_area(mesh)
        assert np.abs(shifted).max() < 1e-12


class TestNewton:
    def test_linear_problem_converges_in_one_step(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.5, 8, 4)
        _, diag = solve_thin(mesh, 2.0, LoadSpec(kind="cos_pi"))
        assert diag.total_iterations == 1
        assert diag.final_residual < 1e-10

    def test_unit_load_gives_unit_solution(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.5, 8, 4)
        for p in (1.5, 2.0, 3.0):
            u, diag = solve_thin(mesh, p, LoadSpec(kind="constant", value=1.0))
            assert np.abs(u - 1.0).max() < 1e-8

    def test_energy_never_increases(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 8)
        _, diag = solve_thin(mesh, 3.0, LoadSpec(kind="cos_pi"))
        for stage in diag.stages:
            diffs = np.diff(stage.energies)
            assert np.all(diffs <= 1e-12 * (1.0 + np.abs(stage.energies[0])))

    def test_final_stage_residual_decreases(self, medium_cell_mesh):
        cell = solve_cell(medium_cell_mesh, 3.0)
        final = cell.diagnostics.stages[-1]
        assert all(a >= b for a, b in
                   zip(final.residual_norms, final.residual_norms[1:]))

    def test_solution_independent_of_init(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 8)
        load = LoadSpec(kind="cos_pi")
        from oscthin.study import _ThinFunctional
        functional = _ThinFunctional(mesh, 3.0, load)
        opts = SolveOptions()
        u1, _ = newton_solve(functional, np.zeros(mesh.num_nodes), opts=opts)
        rng = np.random.default_rng(21)
        init = 0.5 * rng.normal(size=mesh.num_nodes)
        u2, _ = newton_solve(functional, init, opts=opts)
        gs = element_gradients(mesh, u1 - u2, mesh.eps)
        assert error_corrector(mesh, gs, np.zeros(2), 3.0) < 1e-6

    def test_thin_solve_builds_no_mesh_arrays(self, reference_profile):
        """A thin solve reads the column grid only, the one form a mesh
        has (test_api checks that no node or triangle table is left)."""
        mesh = build_thin_mesh(reference_profile, 1.0 / 32, 32, 16)
        _, diag = solve_thin(mesh, 3.0, LoadSpec(kind="cos_pi"))
        assert diag.total_iterations > 0

    def test_max_newton_exceeded_raises(self, medium_cell_mesh):
        opts = SolveOptions(max_newton=2, continuation_deltas=(1e-8,))
        with pytest.raises(NonConvergenceError):
            solve_cell(medium_cell_mesh, 3.0, opts)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("good_calls", [0, 1])
    def test_non_finite_residual_raises(self, bad, good_calls):
        """A residual norm of inf or NaN, at the start of a stage or after
        a step, is a failure and never counts as converged."""

        class Quadratic:
            # energy |u|^2/2 - sum(u); the residual turns non-finite after
            # good_calls finite evaluations
            calls = 0

            def point(self, u, delta):
                return Point(self, u)

        class Point:
            def __init__(self, problem, u):
                self.problem, self.u = problem, u

            def energy(self):
                return 0.5 * float(self.u @ self.u) - float(self.u.sum())

            def residual(self):
                self.problem.calls += 1
                return (self.u - 1.0 if self.problem.calls <= good_calls
                        else np.full(3, bad))

            def jacobian(self):
                return solve.Band(np.ones((1, 3)), np.array([0]))

        with pytest.raises(NonConvergenceError, match=f"after {good_calls} "):
            newton_solve(Quadratic(), np.zeros(3),
                         opts=SolveOptions(continuation_deltas=(1e-8,)))

    def test_jacobian_folded_otherwise_rejected(self, small_cell_mesh):
        """A jacobian in another numbering than the field's, the oracles'
        unfolded one with the cell's last column apart, is refused with
        both sizes named, before any linear solve."""
        mesh = small_cell_mesh
        functional = _CellFunctional(mesh, 2.0)
        unfolded = oracles.band(oracles.coo_jacobian(
            mesh, oracles.nodes(mesh)[:, 0], FluxParams(p=2.0),
            include_mass=False))

        class Unfolded:
            def point(self, phi, delta):
                point = functional.point(phi, delta)
                point.jacobian = lambda: unfolded
                return point

        n, full = mesh.num_nodes, len(oracles.nodes(mesh))
        with pytest.raises(ValueError, match=f"jacobian has {full} unknowns, "
                                             f"the field has {n}"):
            newton_solve(Unfolded(), np.zeros(n),
                         load_vector(mesh, np.ones(n)), SolveOptions())

    def test_no_point_outlives_its_step(self, reference_profile, monkeypatch):
        """A point is dropped once its jacobian is built, a rejected trial
        before the next trial and a stage's last point before the next
        stage: no point is alive while another is built or while the
        linear system is solved, nor is the start field."""
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 8)
        functional = _ThinFunctional(mesh, 3.0, LoadSpec(kind="cos_pi"))
        refs, alive_at_solve = [], []

        def alive():
            return sum(ref() is not None for ref in refs)

        class Tracked:
            def point(self, u, delta):
                assert alive() == 0 and start() is None
                point = functional.point(u, delta)
                refs.append(weakref.ref(point))
                return point

        real_solve = solve.linear_solve

        def counting(a, b, tol):
            alive_at_solve.append(alive())
            return real_solve(a, b, tol)

        monkeypatch.setattr(solve, "linear_solve", counting)
        # the solve keeps its own copy of the start, not the caller's array
        starts = [np.zeros(mesh.num_nodes)]
        start = weakref.ref(starts[0])
        _, diag = newton_solve(Tracked(), starts.pop(), opts=SolveOptions())
        assert alive_at_solve == [0] * diag.total_iterations
        steps = [t for stage in diag.stages for t in stage.step_lengths]
        assert min(steps) < 1.0              # a trial was rejected
        assert len(refs) > diag.total_iterations + len(diag.stages)

    def test_one_field_and_no_step_at_each_factorization(
            self, reference_profile, monkeypatch):
        """When a step's system is factored, the current iterate is the
        only field the solve holds: a stage's start and earlier iterates
        are dropped, and so is the previous step."""
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 8)
        functional = _ThinFunctional(mesh, 3.0, LoadSpec(kind="cos_pi"))
        fields, steps, alive_at_factor = [], [], []

        def alive(refs):
            return sum(ref() is not None for ref in refs)

        class Tracked:
            def point(self, u, delta):
                if not any(ref() is u for ref in fields):
                    fields.append(weakref.ref(u))
                return functional.point(u, delta)

        real_solve = solve.linear_solve

        def recording(a, b, tol):
            alive_at_factor.append((alive(fields), alive(steps)))
            step = real_solve(a, b, tol)
            steps.append(weakref.ref(step))
            return step

        monkeypatch.setattr(solve, "linear_solve", recording)
        _, diag = newton_solve(Tracked(), np.zeros(mesh.num_nodes),
                               opts=SolveOptions())
        assert sum(s.iterations > 0 for s in diag.stages) > 1
        assert alive_at_factor == [(1, 0)] * diag.total_iterations

    def test_cell_solve_matches_dense_multiplier_oracle(self, small_cell_mesh):
        phi_oracle, _ = oracles.linear_periodic_cell(small_cell_mesh)
        cell = solve_cell(small_cell_mesh, 2.0)
        assert np.abs(oracles.unfold(small_cell_mesh, cell.phi)
                      - phi_oracle).max() < 1e-8
