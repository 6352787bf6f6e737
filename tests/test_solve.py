import numpy as np
import pytest
import scipy.sparse as sp

from oscthin import ConstraintSet, SolveOptions, build_thin_mesh
from oscthin.fem import FluxParams, w1p_seminorm
from oscthin.homogenize import cell_constraints, solve_cell
from oscthin.solve import (IndefiniteSystemError, NonConvergenceError,
                           Reduction,
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


class TestConstraints:
    def test_no_constraints_is_identity(self):
        red = Reduction(7, ConstraintSet())
        u = np.arange(7.0)
        assert np.array_equal(red.expand(red.restrict(u)), u)
        assert red.n_reduced == 7

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
        red = Reduction(6, ConstraintSet(periodic_pairs=pairs, pinned_node=2))
        u = np.array([3.0, 7.0, 0.0, 2.0, 3.0, 7.0])
        assert np.array_equal(red.expand(red.restrict(u)), u)

    def test_follower_cannot_be_pinned(self):
        pairs = np.array([[0, 3]])
        with pytest.raises(ValueError, match="follower"):
            Reduction(4, ConstraintSet(periodic_pairs=pairs, pinned_node=3))

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

    def test_pinned_and_mean_constrained_formulations_agree(self, medium_cell_mesh):
        """The two realizations of the quotient space give the same field."""
        from oscthin.homogenize import _CellFunctional
        mesh = medium_cell_mesh
        functional = _CellFunctional(mesh, 2.0)
        opts = SolveOptions()
        bordered = cell_constraints(mesh)
        phi_a, _ = newton_solve(functional, np.zeros(mesh.num_nodes),
                                bordered, opts)
        pinned = ConstraintSet(
            periodic_pairs=mesh.periodic_pairs,
            pinned_node=int(mesh.periodic_pairs[0, 0]),
            mean_zero_postshift=True,
            mean_weights=mesh.node_weights)
        phi_b, _ = newton_solve(functional, np.zeros(mesh.num_nodes),
                                pinned, opts)
        assert np.abs(phi_a - phi_b).max() < 1e-8

    def test_cell_solve_matches_dense_multiplier_oracle(self, small_cell_mesh):
        phi_oracle, _ = oracles.linear_periodic_cell(small_cell_mesh)
        cell = solve_cell(small_cell_mesh, 2.0)
        assert np.abs(cell.phi - phi_oracle).max() < 1e-8
