import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscthin import ConstraintSet, SolveOptions, build_thin_mesh
from oscthin.fem import FluxParams, assemble_jacobian, w1p_seminorm
from oscthin.homogenize import cell_constraints, solve_cell
from oscthin.solve import (IndefiniteSystemError, LinearSolveError,
                           NonConvergenceError, Reduction,
                           constrained_linear_solve, linear_solve,
                           newton_solve)
from oscthin.study import LoadSpec, solve_thin

import oracles


class TestLinearSolve:
    def test_identity(self):
        b = np.arange(1.0, 6.0)
        x = linear_solve(sp.identity(5, format="csr"), b, 1e-12)
        assert np.allclose(x, b)

    def test_diagonal(self):
        a = sp.diags([2.0, 4.0]).tocsr()
        assert np.allclose(linear_solve(a, np.array([2.0, 4.0]), 1e-12), [1.0, 1.0])

    def test_random_spd_against_dense_oracle(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(100, 100))
        a = m @ m.T + 100.0 * np.eye(100)
        b = rng.normal(size=100)
        x = linear_solve(sp.csr_matrix(a), b, 1e-12)
        assert np.linalg.norm(x - np.linalg.solve(a, b)) < 1e-8

    def test_zero_rhs(self):
        a = sp.diags([2.0, 4.0]).tocsr()
        assert np.all(linear_solve(a, np.zeros(2), 1e-12) == 0.0)

    def test_negative_diagonal_rejected(self):
        a = sp.diags([1.0, -2.0]).tocsr()
        with pytest.raises(IndefiniteSystemError):
            linear_solve(a, np.ones(2), 1e-12)

    def test_positive_diagonal_indefinite_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IndefiniteSystemError):
            linear_solve(a, np.array([1.0, 1.0]), 1e-12)

    def test_non_symmetric_rejected(self):
        """The factor sees only the upper half; refinement against the
        full matrix diverges instead of returning the upper half's answer."""
        a = sp.csr_matrix(np.array([[1.0, 0.5], [-2.0, 1.0]]))
        with pytest.raises(LinearSolveError):
            linear_solve(a, np.array([1.0, 1.0]), 1e-12)

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
        x = linear_solve(a, b, 1e-12)
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

    def test_constrained_solve_matches_dense_kkt(self):
        rng = np.random.default_rng(14)
        m = rng.normal(size=(40, 40))
        a = m @ m.T + 40.0 * np.eye(40)
        b = rng.normal(size=40)
        w = rng.uniform(0.5, 1.5, size=40)
        x = constrained_linear_solve(sp.csr_matrix(a), b, w, 1e-12)
        kkt = np.zeros((41, 41))
        kkt[:40, :40] = a
        kkt[:40, 40] = w
        kkt[40, :40] = w
        ref = np.linalg.solve(kkt, np.concatenate([b, [0.0]]))[:40]
        assert np.linalg.norm(x - ref) < 1e-8
        assert abs(w @ x) < 1e-10

    def test_constrained_singular_system_is_solve_error(self):
        """SuperLU's failure on a singular bordered matrix is a solver error
        (exit 3 from the command line), not a bare RuntimeError."""
        with pytest.raises(IndefiniteSystemError, match="bordered LU failed"):
            constrained_linear_solve(sp.csr_matrix((3, 3)), np.array(
                [1.0, 0.0, -1.0]), np.ones(3), 1e-12)


class TestConstraints:
    def test_no_constraints_is_identity(self):
        red = Reduction(7, ConstraintSet())
        u = np.arange(7.0)
        a = sp.identity(7, format="csr")
        assert np.array_equal(red.expand(red.restrict(u)), u)
        assert red.n_reduced == 7
        assert red.reduce_matrix(a) is a
        assert red.reduce_vector(u) is u

    def test_apply_constraints_folds_system(self):
        a = sp.identity(4, format="csr")
        b = np.ones(4)
        pairs = np.array([[0, 3]])
        red = Reduction(4, ConstraintSet(periodic_pairs=pairs))
        ar, br = red.reduce_matrix(a), red.reduce_vector(b)
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
        params = FluxParams(p=3.0, delta=0.0, eps_weight=mesh.eps)
        assert w1p_seminorm(mesh, u1 - u2, params) < 1e-6

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

            def energy(self, u, delta):
                return 0.5 * float(u @ u) - float(u.sum())

            def residual(self, u, delta):
                self.calls += 1
                return u - 1.0 if self.calls <= good_calls else np.full(3, bad)

            def jacobian(self, u, delta):
                return sp.identity(3, format="csr")

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

        with pytest.raises(ValueError, match="mean_zero_postshift"):
            newton_solve(Dummy(), np.zeros(small_cell_mesh.num_nodes),
                         constraints, SolveOptions())

    def test_cell_solve_matches_dense_multiplier_oracle(self, small_cell_mesh):
        phi_oracle, _ = oracles.linear_periodic_cell(small_cell_mesh)
        cell = solve_cell(small_cell_mesh, 2.0)
        assert np.abs(cell.phi - phi_oracle).max() < 1e-8
