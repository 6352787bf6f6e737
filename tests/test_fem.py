import numpy as np
import pytest

from oscthin import FluxParams, build_cell_mesh
from oscthin.fem import (AssemblyError, assemble_energy, assemble_jacobian,
                         assemble_residual, element_gradients,
                         integrate_load_fibers, lp_norm, p_flux,
                         p_flux_inverse, p_flux_scalar, scaled_gradient,
                         w1p_seminorm)

import oracles


class TestElementGradient:
    def test_reproduces_x1(self, small_cell_mesh):
        u = small_cell_mesh.nodes[:, 0].copy()
        grads = element_gradients(small_cell_mesh, u)
        assert np.abs(grads - [1.0, 0.0]).max() < 1e-12

    def test_constant_field(self, small_cell_mesh):
        grads = element_gradients(small_cell_mesh, np.full(small_cell_mesh.num_nodes, 4.2))
        assert np.abs(grads).max() < 1e-12

    def test_reproduces_general_linear(self, small_cell_mesh):
        u = 3.0 * small_cell_mesh.nodes[:, 0] + 2.0 * small_cell_mesh.nodes[:, 1]
        grads = element_gradients(small_cell_mesh, u)
        assert np.abs(grads - [3.0, 2.0]).max() < 1e-11
        # one triangle through the oracle's hat-function gradients
        idx, _, b, c = oracles.tri_geometry(small_cell_mesh)
        single = [b[5] @ u[idx[5]], c[5] @ u[idx[5]]]
        assert single == pytest.approx([3.0, 2.0], abs=1e-11)


class TestScaledGradient:
    def test_identity_weight(self):
        params = FluxParams(p=2.0, eps_weight=1.0)
        assert np.allclose(scaled_gradient([1.0, 1.0], params), [1.0, 1.0])

    def test_small_weight_amplifies_vertical(self):
        params = FluxParams(p=2.0, eps_weight=0.1)
        assert np.allclose(scaled_gradient([1.0, 1.0], params), [1.0, 10.0])

    def test_zero_vector(self):
        params = FluxParams(p=3.0, eps_weight=0.25)
        assert np.allclose(scaled_gradient([0.0, 0.0], params), [0.0, 0.0])


class TestMonotoneFlux:
    def test_zero_maps_to_zero(self):
        for p in (1.5, 2.0, 4.0):
            out = p_flux(np.zeros(2), FluxParams(p=p))
            assert np.allclose(out, 0.0)

    def test_p2_is_identity(self):
        out = p_flux(np.array([3.0, 4.0]), FluxParams(p=2.0))
        assert np.allclose(out, [3.0, 4.0])

    def test_unit_vector_fixed_for_any_p(self):
        out = p_flux(np.array([1.0, 0.0]), FluxParams(p=4.0))
        assert np.allclose(out, [1.0, 0.0])

    def test_dual_inverts_single_vector(self):
        xi = np.array([2.0, 1.0])
        back = p_flux_inverse(p_flux(xi, FluxParams(p=3.0)), 3.0)
        assert np.abs(back - xi).max() < 1e-10

    def test_dual_is_identity_for_p2(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(50, 2))
        assert np.allclose(p_flux_inverse(v, 2.0), v)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_duality_round_trip(self, p):
        rng = np.random.default_rng(11)
        v = rng.uniform(-1.0, 1.0, size=(100, 2)) * 10.0 ** rng.uniform(-2, 2, (100, 1))
        back = p_flux_inverse(p_flux(v, FluxParams(p=p)), p)
        assert np.abs(back - v).max() < 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_monotonicity_p_ge_2(self, p):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10_000, 2)) * 2.0
        y = rng.normal(size=(10_000, 2)) * 2.0
        params = FluxParams(p=p)
        inner = ((p_flux(x, params) - p_flux(y, params)) * (x - y)).sum(axis=1)
        dist_p = np.linalg.norm(x - y, axis=1) ** p
        ratio = inner / dist_p
        empirical_constant = ratio.min()
        assert empirical_constant > 0.0
        print(f"\nempirical monotonicity constant p={p}: {empirical_constant:.6f}")

    def test_monotonicity_p_lt_2(self):
        p = 1.5
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10_000, 2)) * 2.0
        y = rng.normal(size=(10_000, 2)) * 2.0
        params = FluxParams(p=p)
        inner = ((p_flux(x, params) - p_flux(y, params)) * (x - y)).sum(axis=1)
        lower = (np.linalg.norm(x - y, axis=1) ** 2
                 * (np.linalg.norm(x, axis=1) + np.linalg.norm(y, axis=1)) ** (p - 2.0))
        ratio = inner / lower
        empirical_constant = ratio.min()
        assert empirical_constant > 0.0
        print(f"\nempirical monotonicity constant p=1.5: {empirical_constant:.6f}")

    def test_scalar_flux(self):
        assert p_flux_scalar(0.0, 1.5) == 0.0
        assert p_flux_scalar(-2.0, 3.0) == pytest.approx(-4.0)
        assert p_flux_scalar(2.0, 2.0) == pytest.approx(2.0)


class TestAssembly:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_constant_solution_residual_vanishes(self, small_cell_mesh, p):
        mesh = small_cell_mesh
        params = FluxParams(p=p, delta=0.0)
        u = np.ones(mesh.num_nodes)
        res = assemble_residual(mesh, u, params, load=lambda x, y: np.ones_like(x))
        assert np.abs(res).max() < 1e-13

    def test_zero_solution_zero_load(self, small_cell_mesh):
        params = FluxParams(p=3.0, delta=0.0)
        res = assemble_residual(small_cell_mesh, np.zeros(small_cell_mesh.num_nodes),
                                params, load=lambda x, y: np.zeros_like(x))
        assert np.abs(res).max() == 0.0

    def test_energy_of_zero_field(self, small_cell_mesh):
        params = FluxParams(p=3.0, delta=0.0)
        e = assemble_energy(small_cell_mesh, np.zeros(small_cell_mesh.num_nodes), params)
        assert e == 0.0

    def test_energy_of_unit_field_p2(self, unit_square_mesh):
        params = FluxParams(p=2.0, delta=0.0)
        e = assemble_energy(unit_square_mesh, np.ones(unit_square_mesh.num_nodes), params)
        assert e == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("p,delta", [(1.5, 0.1), (2.0, 0.0), (3.0, 1e-2)])
    def test_residual_is_gradient_of_energy(self, small_cell_mesh, p, delta):
        mesh = small_cell_mesh
        params = FluxParams(p=p, delta=delta)
        rng = np.random.default_rng(5)
        u = 1.0 + 0.3 * rng.normal(size=mesh.num_nodes)
        w = rng.normal(size=mesh.num_nodes)
        load = 0.5 + 0.1 * rng.normal(size=mesh.num_nodes)
        h = 1e-5
        plus = assemble_energy(mesh, u + h * w, params, load)
        minus = assemble_energy(mesh, u - h * w, params, load)
        directional = (plus - minus) / (2.0 * h)
        exact = assemble_residual(mesh, u, params, load) @ w
        assert abs(directional - exact) < 1e-6 * max(abs(exact), 1.0)

    @pytest.mark.parametrize("p,delta", [(1.5, 0.1), (2.0, 0.0), (3.0, 1e-2)])
    def test_jacobian_matches_residual_derivative(self, small_cell_mesh, p, delta):
        mesh = small_cell_mesh
        params = FluxParams(p=p, delta=max(delta, 1e-3))
        rng = np.random.default_rng(6)
        u = 1.0 + 0.3 * rng.normal(size=mesh.num_nodes)
        w = rng.normal(size=mesh.num_nodes)
        jac = assemble_jacobian(mesh, u, params)
        h = 3e-4
        # five-point stencil, fourth order
        fd = (-assemble_residual(mesh, u + 2 * h * w, params)
              + 8.0 * assemble_residual(mesh, u + h * w, params)
              - 8.0 * assemble_residual(mesh, u - h * w, params)
              + assemble_residual(mesh, u - 2 * h * w, params)) / (12.0 * h)
        exact = jac @ w
        assert np.linalg.norm(fd - exact) < 1e-5 * np.linalg.norm(exact)

    def test_jacobian_symmetric(self, small_cell_mesh):
        rng = np.random.default_rng(7)
        u = rng.normal(size=small_cell_mesh.num_nodes)
        jac = assemble_jacobian(small_cell_mesh, u, FluxParams(p=3.0, delta=1e-4))
        gap = np.abs((jac - jac.T).toarray()).max()
        assert gap < 1e-12

    def test_jacobian_independent_of_u_for_p2(self, small_cell_mesh):
        rng = np.random.default_rng(8)
        params = FluxParams(p=2.0, delta=0.0)
        j1 = assemble_jacobian(small_cell_mesh, rng.normal(size=small_cell_mesh.num_nodes), params)
        j2 = assemble_jacobian(small_cell_mesh, rng.normal(size=small_cell_mesh.num_nodes), params)
        assert np.abs((j1 - j2).toarray()).max() < 1e-12

    def test_jacobian_rejects_singular_regime(self, small_cell_mesh):
        with pytest.raises(ValueError, match="delta"):
            assemble_jacobian(small_cell_mesh, np.ones(small_cell_mesh.num_nodes),
                              FluxParams(p=1.5, delta=0.0))

    def test_regularization_consistency(self, small_cell_mesh):
        mesh = small_cell_mesh
        rng = np.random.default_rng(9)
        u = rng.normal(size=mesh.num_nodes)
        base = assemble_residual(mesh, u, FluxParams(p=3.0, delta=0.0))
        gaps = []
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            res = assemble_residual(mesh, u, FluxParams(p=3.0, delta=delta))
            gaps.append(np.linalg.norm(res - base))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12

    def test_bad_field_rejected(self, small_cell_mesh):
        params = FluxParams(p=2.0)
        with pytest.raises(AssemblyError):
            assemble_residual(small_cell_mesh, np.ones(3), params)
        bad = np.ones(small_cell_mesh.num_nodes)
        bad[0] = np.nan
        with pytest.raises(AssemblyError):
            assemble_energy(small_cell_mesh, bad, params)


class TestNorms:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_unit_field(self, unit_square_mesh, p):
        u = np.ones(unit_square_mesh.num_nodes)
        assert lp_norm(unit_square_mesh, u, p) == pytest.approx(1.0, abs=1e-12)

    def test_constant_field(self, unit_square_mesh):
        u = np.full(unit_square_mesh.num_nodes, -2.5)
        assert lp_norm(unit_square_mesh, u, 3.0) == pytest.approx(2.5, abs=1e-12)

    def test_linear_field_against_exact_integral(self, flat_profile):
        mesh = build_cell_mesh(flat_profile, 32, 32)
        u = mesh.nodes[:, 0].copy()
        # integral of x1^2 over the unit square is 1/3
        assert lp_norm(mesh, u, 2.0) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)

    def test_seminorm_of_linear_field(self, unit_square_mesh):
        params = FluxParams(p=3.0, eps_weight=0.5)
        u = 3.0 * unit_square_mesh.nodes[:, 0] + 2.0 * unit_square_mesh.nodes[:, 1]
        expected = np.hypot(3.0, 4.0)   # scaled gradient (3, 2/0.5)
        assert w1p_seminorm(unit_square_mesh, u, params) == pytest.approx(expected, rel=1e-12)


class TestLoadFiberIntegrals:
    def test_unit_load_gives_profile(self, reference_profile):
        eps = 0.25
        fhat = integrate_load_fibers(lambda x, y: np.ones_like(y), reference_profile,
                                     eps, 33)
        x = np.linspace(0.0, 1.0, 33)
        assert np.abs(fhat - reference_profile.evaluate(x / eps)).max() < 1e-12

    def test_horizontal_load_scales_profile(self, reference_profile):
        eps = 0.5
        fhat = integrate_load_fibers(lambda x, y: x * np.ones_like(y),
                                     reference_profile, eps, 17)
        x = np.linspace(0.0, 1.0, 17)
        expected = x * reference_profile.evaluate(x / eps)
        assert np.abs(fhat - expected).max() < 1e-12

    def test_vertical_dependence_integrated_exactly(self, reference_profile):
        # f = 1 + x2 integrates to g + g^2/2 on each fiber
        eps = 0.5
        fhat = integrate_load_fibers(lambda x, y: 1.0 + y, reference_profile,
                                     eps, 17)
        g = reference_profile.evaluate(np.linspace(0.0, 1.0, 17) / eps)
        assert np.abs(fhat - (g + 0.5 * g * g)).max() < 1e-12

    def test_mean_tends_to_cell_average(self, reference_profile):
        eps = 1.0 / 64.0
        n = 513
        fhat = integrate_load_fibers(lambda x, y: np.ones_like(y),
                                     reference_profile, eps, n)
        x = np.linspace(0.0, 1.0, n)
        mean = np.trapezoid(fhat, x)
        ys = np.linspace(0.0, 1.0, 1 << 14)
        cell_average = np.trapezoid(reference_profile.evaluate(ys), ys)
        assert abs(mean - cell_average) < 1e-3
