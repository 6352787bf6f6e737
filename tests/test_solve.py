import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscthin import (ConstraintSet, Limit1DProblem, SolveOptions,
                     build_cell_mesh, build_thin_mesh, fem, solve)
from oscthin.fem import FluxParams, assemble_jacobian, element_gradients
from oscthin.homogenize import _CellFunctional, cell_constraints, solve_cell
from oscthin.limit1d import _LimitFunctional
from oscthin.solve import (IndefiniteSystemError, LinearSolveError,
                           NonConvergenceError, Reduction,
                           constrained_linear_solve, linear_solve,
                           newton_solve)
from oscthin.study import (LoadSpec, _ThinFunctional, error_corrector,
                           solve_thin)

import oracles


def _cell_band(mesh, p):
    """The cell's Reduction and its folded jacobian at delta 1e-8 for a
    smooth periodic perturbation."""
    red = Reduction(mesh.num_nodes, cell_constraints(mesh))
    phi = 0.05 * np.sin(2.0 * np.pi * mesh.nodes[:, 0])
    return red, _CellFunctional(mesh, p).point(phi, 1e-8).jacobian(red)


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
        monkeypatch.setattr(solve.sla, "cho_solve_banded",
                            lambda factor, r, **kw: np.zeros_like(r))
        with pytest.raises(LinearSolveError, match="after refinement"):
            linear_solve(oracles.band(np.diag([2.0, 4.0])),
                         np.array([1.0, 1.0]), 1e-12)

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_thin_jacobian_against_sparse_lu(self, reference_profile, p,
                                             delta):
        mesh = build_thin_mesh(reference_profile, 1.0 / 16, 32, 16)
        x1, x2 = mesh.nodes.T
        u = np.cos(np.pi * x1) * (1.0 + 0.3 * x2) + 0.05 * np.sin(40.0 * x1)
        a = assemble_jacobian(mesh, u, FluxParams(p=p, delta=delta,
                                                  eps_weight=mesh.eps))
        b = np.random.default_rng(15).normal(size=mesh.num_nodes)
        x = linear_solve(oracles.band(a), b, 1e-12)
        ref = spla.spsolve(a.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_thin_jacobian_half_bandwidth(self, reference_profile):
        """Column-major numbering of the mapped grid puts every coupling
        within rows + 2 of the diagonal, and the corner-to-corner diagonal
        of each quad reaches that distance."""
        for ny in (2, 5, 16):
            mesh = build_thin_mesh(reference_profile, 1.0 / 4, 8, ny)
            a = assemble_jacobian(mesh, np.zeros(mesh.num_nodes),
                                  FluxParams(p=2.0, eps_weight=mesh.eps))
            coo = a.tocoo()
            assert (coo.col - coo.row).max() == ny + 2

    @pytest.mark.parametrize("nx, ny", [(8, 4), (9, 4), (128, 32)])
    def test_folded_cell_jacobian_half_bandwidth(self, reference_profile,
                                                 nx, ny):
        """Ring-ordered cell columns keep every coupling of the periodic
        fold within two columns of the diagonal, for odd and even nx."""
        mesh = build_cell_mesh(reference_profile, nx, ny)
        a = assemble_jacobian(mesh, mesh.nodes[:, 0], FluxParams(p=2.0),
                              include_mass=False)
        coo = oracles.fold_matrix(a, mesh.periodic_pairs).tocoo()
        assert (coo.col - coo.row).max() == 2 * ny + 3
        red = Reduction(mesh.num_nodes, cell_constraints(mesh))
        assert fem._plan(mesh).band(red)[0][-1] == 2 * ny + 3

    def test_tall_columns_keep_the_band(self, reference_profile):
        """The band grows with the rows of a column, not with the mesh:
        tall ring-ordered cells and tall thin meshes still solve."""
        cell = solve_cell(build_cell_mesh(reference_profile, 8, 230), 2.0)
        assert cell.diagnostics.stages[-1].converged
        mesh = build_thin_mesh(reference_profile, 1.0, 4, 460)
        a = assemble_jacobian(mesh, mesh.nodes[:, 0], FluxParams(p=2.0))
        b = np.random.default_rng(17).normal(size=mesh.num_nodes)
        x = linear_solve(oracles.band(a), b, 1e-10)
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_constrained_solve_matches_bordered_lu(self, medium_cell_mesh,
                                                   p, delta):
        mesh = medium_cell_mesh
        red = Reduction(mesh.num_nodes, cell_constraints(mesh))
        x1, x2 = mesh.nodes.T
        v = x1 + 0.05 * np.sin(2.0 * np.pi * x1) * (1.0 + x2)
        a = oracles.fold_matrix(assemble_jacobian(
            mesh, v, FluxParams(p=p, delta=delta), include_mass=False),
            mesh.periodic_pairs)
        b = np.random.default_rng(16).normal(size=red.n_reduced)
        w = red.reduce_vector(mesh.node_weights)
        x = constrained_linear_solve(oracles.band(a), b, w, 1e-12)
        ref = oracles.bordered_solve(a, b, w)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_constrained_solve_matches_dense_kkt(self):
        """A dense semidefinite a whose null space is the constants, the
        property of the folded cell jacobian the step relies on."""
        rng = np.random.default_rng(14)
        m = rng.normal(size=(40, 40))
        centre = np.eye(40) - 1.0 / 40.0
        a = centre @ (m @ m.T + 40.0 * np.eye(40)) @ centre
        b = rng.normal(size=40)
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
        """A singular bordered system is a solver error (exit 3 from the
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
        product, band_solve = solve.Band.__matmul__, solve.sla.cho_solve_banded

        def recording(band, x):
            y = product(band, x)
            residuals.append(np.linalg.norm(b - y))
            return y

        def counting(*args, **kwargs):
            solves.append(1)
            return band_solve(*args, **kwargs)

        monkeypatch.setattr(solve.Band, "__matmul__", recording)
        monkeypatch.setattr(solve.sla, "cho_solve_banded", counting)
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
        """The bordered step solves no basis: one band solve of a single
        right-hand side per correction, each checked by one bordered
        residual (a band product; one more checks the row sums), and one
        solve in all when the first correction meets tol."""
        mesh = medium_cell_mesh
        red, band = _cell_band(mesh, p)
        b = np.random.default_rng(57).normal(size=red.n_reduced)
        b -= b.mean()
        w = red.reduce_vector(mesh.node_weights)
        product, band_solve = solve.Band.__matmul__, solve.sla.cho_solve_banded
        products, shapes = [], []

        def counting_product(a, x):
            products.append(1)
            return product(a, x)

        def counting_solve(factor, r, **kwargs):
            shapes.append(np.shape(r))
            return band_solve(factor, r, **kwargs)

        monkeypatch.setattr(solve.Band, "__matmul__", counting_product)
        monkeypatch.setattr(solve.sla, "cho_solve_banded", counting_solve)
        for tol, solves in ((1e-6, [1]), (1e-12, range(1, 7))):
            products.clear()
            shapes.clear()
            constrained_linear_solve(band, b, w, tol)
            assert len(shapes) in solves
            assert shapes == [(red.n_reduced,)] * len(shapes)
            assert len(products) == len(shapes) + 1

    def test_constraint_orthogonal_to_ground_direction_solves(self):
        """A constraint that gives the grounded node no weight
        (w . e0 = 0) still fixes the constant: on a path Laplacian the
        bordered solve matches the KKT one."""
        a = np.array([[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])
        b = np.array([1.0, 2.0, -1.0])
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
                           match="singular bordered system"):
            constrained_linear_solve(a, np.array([1.0, -1.0]),
                                     np.array([1.0, -1.0]), 1e-12)


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
        x1, x2 = mesh.nodes.T
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
        red = Reduction(mesh.num_nodes, cell_constraints(mesh))
        x1, x2 = mesh.nodes.T
        phi = 0.05 * np.sin(2.0 * np.pi * x1) * (1.0 + x2)
        band = _CellFunctional(mesh, p).point(phi, delta).jacobian(red)
        ref = oracles.fold_matrix(oracles.coo_jacobian(
            mesh, x1 + phi, FluxParams(p=p, delta=delta), include_mass=False),
            mesh.periodic_pairs)
        assert band.rows.shape[1] == red.n_reduced
        assert band.offsets[-1] == 2 * 16 + 3
        _assert_band_matches(band, ref, 53)
        b = np.random.default_rng(54).normal(size=red.n_reduced)
        w = red.reduce_vector(mesh.node_weights)
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
        """Band.factor hands cholesky_banded the band it wrote and gets
        the lower factor back in that memory; the factor solves the
        grounded matrix a + c e0 e0^T."""
        red, band = _cell_band(medium_cell_mesh, 3.0)
        written, cholesky = [], solve.sla.cholesky_banded

        def recording(ab, **kwargs):
            written.append(ab)
            return cholesky(ab, **kwargs)

        monkeypatch.setattr(solve.sla, "cholesky_banded", recording)
        c = band.rows[0, 0]
        factor, lower = band.factor(ground=c)
        assert lower is True and np.shares_memory(factor, written[0])
        x = np.random.default_rng(58).normal(size=red.n_reduced)
        b = band @ x
        b[0] += c * x[0]
        y = solve.sla.cho_solve_banded((factor, lower), b)
        assert np.linalg.norm(y - x) <= 1e-8 * np.linalg.norm(x)

    def test_point_matches_standalone_assembly(self, reference_profile):
        """A Newton point gives the residual and jacobian that standalone
        assemble_residual and assemble_jacobian calls give, bit for bit,
        whatever it evaluated first."""
        mesh = build_thin_mesh(reference_profile, 1.0 / 8, 16, 6)
        x1, x2 = mesh.nodes.T
        u = np.cos(np.pi * x1) * (1.0 + 0.3 * x2) + 0.05 * np.sin(40.0 * x1)
        load = LoadSpec(kind="cos_pi", x2_coeff=0.3)
        params = FluxParams(p=1.5, delta=1e-2, eps_weight=mesh.eps)
        point = _ThinFunctional(mesh, 1.5, load).point(u, 1e-2)
        energy, band, res = point.energy(), point.jacobian(), point.residual()
        assert energy == fem.assemble_energy(mesh, u, params, load)
        assert np.array_equal(res, fem.assemble_residual(mesh, u, params, load))
        ref = oracles.band(fem.assemble_jacobian(mesh, u, params))
        assert np.array_equal(band.offsets, ref.offsets)
        assert np.array_equal(band.rows, ref.rows)


class TestConstraints:
    def test_no_constraints_is_identity(self):
        red = Reduction(7, ConstraintSet())
        u = np.arange(7.0)
        assert np.array_equal(red.expand(red.restrict(u)), u)
        assert red.n_reduced == 7
        assert red.expand(u) is u
        assert red.reduce_vector(u) is u

    def test_apply_constraints_folds_system(self):
        a = sp.identity(4, format="csr")
        b = np.ones(4)
        pairs = np.array([[0, 3]])
        red = Reduction(4, ConstraintSet(periodic_pairs=pairs))
        ar, br = oracles.fold_matrix(a, pairs), red.reduce_vector(b)
        assert ar.shape == (3, 3)
        assert br[0] == 2.0  # leader accumulates the follower's entry

    def test_expand_reduce_idempotent_on_constrained_field(self):
        pairs = np.array([[0, 4], [1, 5]])
        red = Reduction(6, ConstraintSet(periodic_pairs=pairs))
        u = np.array([3.0, 7.0, 0.5, 2.0, 3.0, 7.0])
        assert np.array_equal(red.expand(red.restrict(u)), u)

    def test_chained_pairs_rejected(self):
        pairs = np.array([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="chain"):
            Reduction(3, ConstraintSet(periodic_pairs=pairs))

    def test_constant_field_mean_shift_gives_zero(self, small_cell_mesh):
        u = np.full(small_cell_mesh.num_nodes, 3.7)
        shifted = u - small_cell_mesh.weighted_mean(u)
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
        u1, _ = newton_solve(functional, np.zeros(mesh.num_nodes),
                             ConstraintSet(), opts)
        rng = np.random.default_rng(21)
        init = 0.5 * rng.normal(size=mesh.num_nodes)
        u2, _ = newton_solve(functional, init, ConstraintSet(), opts)
        gs = element_gradients(mesh, u1 - u2, mesh.eps)
        assert error_corrector(mesh, gs, np.zeros(2), 3.0) < 1e-6

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

            def jacobian(self, fold):
                return solve.Band(np.ones((1, 3)), np.array([0]))

        with pytest.raises(NonConvergenceError, match=f"after {good_calls} "):
            newton_solve(Quadratic(), np.zeros(3), ConstraintSet(),
                         SolveOptions(continuation_deltas=(1e-8,)))

    def test_init_violating_constraints_rejected(self, small_cell_mesh):
        constraints = cell_constraints(small_cell_mesh)
        bad = np.zeros(small_cell_mesh.num_nodes)
        bad[int(small_cell_mesh.periodic_pairs[0, 1])] = 1.0

        class Dummy:
            def energy(self, u, delta):
                return 0.0

        with pytest.raises(ValueError, match="periodicity"):
            newton_solve(Dummy(), bad, constraints, SolveOptions())

    def test_periodic_pairs_need_mean_constraint(self, small_cell_mesh):
        constraints = ConstraintSet(
            periodic_pairs=small_cell_mesh.periodic_pairs)

        class Dummy:
            def energy(self, u, delta):
                return 0.0

        with pytest.raises(ValueError, match="periodic_pairs require mean_weights"):
            newton_solve(Dummy(), np.zeros(small_cell_mesh.num_nodes),
                         constraints, SolveOptions())

    def test_jacobian_folded_otherwise_rejected(self, small_cell_mesh):
        """A jacobian that ignores the fold of the constraints is refused
        with both sizes named, before any linear solve."""
        functional = _CellFunctional(small_cell_mesh, 2.0)

        class Unfolded:
            def point(self, phi, delta):
                point = functional.point(phi, delta)
                point.jacobian = lambda fold: fem.Point.jacobian(point)
                return point

        with pytest.raises(ValueError, match="jacobian has .* unknowns"):
            newton_solve(Unfolded(), np.zeros(small_cell_mesh.num_nodes),
                         cell_constraints(small_cell_mesh), SolveOptions())

    def test_no_point_outlives_its_step(self, reference_profile, monkeypatch):
        """A point is dropped once its jacobian is built, a rejected trial
        before the next trial and a stage's last point before the next
        stage: no point is alive while another is built or while the
        linear system is solved."""
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 8)
        functional = _ThinFunctional(mesh, 3.0, LoadSpec(kind="cos_pi"))
        refs, alive_at_solve = [], []

        def alive():
            return sum(ref() is not None for ref in refs)

        class Tracked:
            def point(self, u, delta):
                assert alive() == 0
                point = functional.point(u, delta)
                refs.append(weakref.ref(point))
                return point

        real_solve = solve.linear_solve

        def counting(a, b, tol):
            alive_at_solve.append(alive())
            return real_solve(a, b, tol)

        monkeypatch.setattr(solve, "linear_solve", counting)
        _, diag = newton_solve(Tracked(), np.zeros(mesh.num_nodes),
                               ConstraintSet(), SolveOptions())
        assert alive_at_solve == [0] * diag.total_iterations
        steps = [t for stage in diag.stages for t in stage.step_lengths]
        assert min(steps) < 1.0              # a trial was rejected
        assert len(refs) > diag.total_iterations + len(diag.stages)

    def test_cell_solve_matches_dense_multiplier_oracle(self, small_cell_mesh):
        phi_oracle, _ = oracles.linear_periodic_cell(small_cell_mesh)
        cell = solve_cell(small_cell_mesh, 2.0)
        assert np.abs(cell.phi - phi_oracle).max() < 1e-8
