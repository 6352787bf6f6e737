import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from oscthin import FluxParams, build_cell_mesh, build_thin_mesh, fem, geometry
from oscthin.fem import (AssemblyError, Point, element_gradients,
                         load_vector, lp_norm, p_flux, p_flux_scalar)
from oscthin.geometry import ProfileSpec, read_mesh, write_mesh
from oscthin.homogenize import _cell_point
from oscthin.solve import constrained_linear_solve, linear_solve
from oscthin.study import LoadSpec, error_corrector, solve_thin

import oracles


class TestElementGradient:
    def test_reproduces_x1(self, small_period_mesh):
        u = oracles.nodes(small_period_mesh)[:, 0].copy()
        grads = element_gradients(small_period_mesh, u)
        assert np.abs(grads - [1.0, 0.0]).max() < 1e-12

    def test_constant_field(self, small_period_mesh):
        mesh = small_period_mesh
        grads = element_gradients(mesh, np.full(mesh.num_nodes, 4.2))
        assert np.abs(grads).max() < 1e-12

    def test_reproduces_general_linear(self, small_period_mesh):
        x1, x2 = oracles.nodes(small_period_mesh).T
        u = 3.0 * x1 + 2.0 * x2
        grads = element_gradients(small_period_mesh, u)
        assert np.abs(grads - [3.0, 2.0]).max() < 1e-11
        # one triangle through the oracle's hat-function gradients
        idx, _, b, c = oracles.tri_geometry(small_period_mesh)
        single = [b[5] @ u[idx[5]], c[5] @ u[idx[5]]]
        assert single == pytest.approx([3.0, 2.0], abs=1e-11)


class TestScaledGradient:
    """element_gradients scales by the mesh's eps: (d1, d2/eps) on a thin
    mesh, the plain gradient on a cell or at eps 1."""

    def test_identity_weight(self, small_period_mesh):
        """At eps 1 the scaled gradient is the plain one."""
        x1, x2 = oracles.nodes(small_period_mesh).T
        assert np.allclose(element_gradients(small_period_mesh, x1 + x2),
                           [1.0, 1.0])

    def test_small_weight_amplifies_vertical(self, reference_profile):
        """The second component is the unscaled grid gradient (the same
        grid at eps 1) divided by eps, bit for bit, and the first is
        untouched."""
        mesh = build_thin_mesh(reference_profile, 0.1, 8, 4)
        plain_mesh = geometry.Mesh("thin", mesh.grid_x, mesh.grid_heights,
                                   mesh.grid_rows, eps=1.0)
        x1, x2 = oracles.nodes(mesh).T
        u = x1 + 0.1 * x2
        plain = element_gradients(plain_mesh, u)
        grads = element_gradients(mesh, u)
        assert np.allclose(plain, [1.0, 0.1])
        assert np.allclose(grads, [1.0, 1.0])
        assert np.array_equal(grads[:, 0], plain[:, 0])
        assert np.array_equal(grads[:, 1], plain[:, 1] / mesh.eps)

    def test_zero_vector(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        u = np.full(mesh.num_nodes, 4.2)
        assert np.all(element_gradients(mesh, u) == 0.0)


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
        back = oracles.p_flux_inverse(p_flux(xi, FluxParams(p=3.0)), 3.0)
        assert np.abs(back - xi).max() < 1e-10

    def test_dual_is_identity_for_p2(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(50, 2))
        assert np.allclose(oracles.p_flux_inverse(v, 2.0), v)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_duality_round_trip(self, p):
        rng = np.random.default_rng(11)
        v = rng.uniform(-1.0, 1.0, size=(100, 2)) * 10.0 ** rng.uniform(-2, 2, (100, 1))
        back = oracles.p_flux_inverse(p_flux(v, FluxParams(p=p)), p)
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
        b = load_vector(mesh, lambda x, y: np.ones_like(x))
        res = Point(mesh, u, params, True, b).residual()
        assert np.abs(res).max() < 1e-13

    def test_zero_solution_zero_load(self, small_cell_mesh):
        params = FluxParams(p=3.0, delta=0.0)
        mesh = small_cell_mesh
        b = load_vector(mesh, lambda x, y: np.zeros_like(x))
        res = Point(mesh, np.zeros(mesh.num_nodes), params, True, b).residual()
        assert np.abs(res).max() == 0.0

    def test_energy_of_zero_field(self, small_cell_mesh):
        params = FluxParams(p=3.0, delta=0.0)
        e = Point(small_cell_mesh, np.zeros(small_cell_mesh.num_nodes),
                  params).energy()
        assert e == 0.0

    def test_energy_of_unit_field_p2(self, unit_square_mesh):
        params = FluxParams(p=2.0, delta=0.0)
        e = Point(unit_square_mesh, np.ones(unit_square_mesh.num_nodes),
                  params).energy()
        assert e == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("p,delta", [(1.5, 0.1), (2.0, 0.0), (3.0, 1e-2)])
    def test_residual_is_gradient_of_energy(self, small_cell_mesh, p, delta):
        mesh = small_cell_mesh
        params = FluxParams(p=p, delta=delta)
        rng = np.random.default_rng(5)
        u = 1.0 + 0.3 * rng.normal(size=mesh.num_nodes)
        w = rng.normal(size=mesh.num_nodes)
        b = load_vector(mesh, 0.5 + 0.1 * rng.normal(size=mesh.num_nodes))
        h = 1e-5
        plus = Point(mesh, u + h * w, params, True, b).energy()
        minus = Point(mesh, u - h * w, params, True, b).energy()
        directional = (plus - minus) / (2.0 * h)
        exact = Point(mesh, u, params, True, b).residual() @ w
        assert abs(directional - exact) < 1e-6 * max(abs(exact), 1.0)

    @pytest.mark.parametrize("p,delta", [(1.5, 0.1), (2.0, 0.0), (3.0, 1e-2)])
    def test_jacobian_matches_residual_derivative(self, small_cell_mesh, p, delta):
        mesh = small_cell_mesh
        params = FluxParams(p=p, delta=max(delta, 1e-3))
        rng = np.random.default_rng(6)
        u = 1.0 + 0.3 * rng.normal(size=mesh.num_nodes)
        w = rng.normal(size=mesh.num_nodes)
        jac = Point(mesh, u, params).jacobian()
        h = 3e-4
        res = [Point(mesh, u + k * h * w, params).residual()
               for k in (2, 1, -1, -2)]
        # five-point stencil, fourth order
        fd = (-res[0] + 8.0 * res[1] - 8.0 * res[2] + res[3]) / (12.0 * h)
        exact = jac @ w
        assert np.linalg.norm(fd - exact) < 1e-5 * np.linalg.norm(exact)

    def test_jacobian_symmetric(self, small_cell_mesh):
        """A band stores the lower half only, which holds because the full
        jacobian (all nine blocks of every element) is symmetric; the
        band's matrix is that jacobian."""
        mesh = small_cell_mesh
        rng = np.random.default_rng(7)
        u = rng.normal(size=mesh.num_nodes)
        params = FluxParams(p=3.0, delta=1e-4)
        full = oracles.fold_matrix(
            oracles.coo_jacobian(mesh, oracles.unfold(mesh, u), params),
            oracles.periodic_pairs(mesh)).toarray()
        assert np.abs(full - full.T).max() < 1e-12
        jac = oracles.band_matrix(Point(small_cell_mesh, u, params).jacobian())
        _assert_rel_close(jac.toarray(), full)

    def test_jacobian_independent_of_u_for_p2(self, small_cell_mesh):
        rng = np.random.default_rng(8)
        params = FluxParams(p=2.0, delta=0.0)
        j1, j2 = (Point(small_cell_mesh,
                        rng.normal(size=small_cell_mesh.num_nodes),
                        params).jacobian().rows for _ in range(2))
        assert np.abs(j1 - j2).max() < 1e-12

    def test_jacobian_rejects_singular_regime(self, small_cell_mesh):
        with pytest.raises(ValueError, match="delta"):
            Point(small_cell_mesh, np.ones(small_cell_mesh.num_nodes),
                  FluxParams(p=1.5, delta=0.0)).jacobian()

    def test_regularization_consistency(self, small_cell_mesh):
        mesh = small_cell_mesh
        rng = np.random.default_rng(9)
        u = rng.normal(size=mesh.num_nodes)
        base = Point(mesh, u, FluxParams(p=3.0, delta=0.0)).residual()
        gaps = []
        for delta in (1e-2, 1e-4, 1e-6, 1e-8):
            res = Point(mesh, u, FluxParams(p=3.0, delta=delta)).residual()
            gaps.append(np.linalg.norm(res - base))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-12

    def test_bad_field_rejected(self, small_cell_mesh):
        params = FluxParams(p=2.0)
        with pytest.raises(AssemblyError):
            Point(small_cell_mesh, np.ones(3), params)
        bad = np.ones(small_cell_mesh.num_nodes)
        bad[0] = np.nan
        with pytest.raises(AssemblyError):
            Point(small_cell_mesh, bad, params)

    def test_non_finite_value_names_lowest_triangle(self):
        """Per-triangle values (pair, half, i, j) on a 4x5 grid: triangle
        2(i*ny + j) + h, the lowest-numbered bad one, not the first in
        pair order."""
        values = np.ones((3, 2, 4, 5))
        values[0, 1, 1, 3] = np.inf     # triangle 17
        values[2, 0, 1, 2] = np.nan     # triangle 14
        with pytest.raises(AssemblyError,
                           match=r"^non-finite flux tensor on triangle 14$"):
            fem._check_finite(values, "flux tensor")


def _assert_rel_close(new, ref, rtol=1e-13):
    assert np.abs(new - ref).max() <= rtol * np.abs(ref).max()


def _assert_same_jacobian(new, ref, rtol=1e-13):
    """Two solve.Bands hold the same diagonals, entry for entry."""
    assert np.array_equal(new.offsets, ref.offsets)
    _assert_rel_close(new.rows, ref.rows, rtol)


def _thin_case(profile):
    mesh = build_thin_mesh(profile, 1.0 / 8, 16, 6)
    x1, x2 = oracles.nodes(mesh).T
    u = np.cos(np.pi * x1) * (1.0 + 0.3 * x2) + 0.05 * np.sin(40.0 * x1)
    return mesh, u, LoadSpec(kind="cos_pi", x2_coeff=0.3)


# columns that slope (b != a) in both directions, without the reference
# profile's mirror symmetry: the row-dependent terms s k of the column
# forms are exercised with either sign
SLOPED_PROFILE = ProfileSpec(period=0.5, mean=1.0, cos_coeffs=(0.3,),
                             sin_coeffs=(0.25, 0.1))


def _grid_case(profile, case):
    """A mesh and a field on it of one of the two layouts a point meets:
    an eps 1/16 thin mesh and a ring-ordered 64x16 cell, whose last column
    is its first (the field periodic); a case ending in _sloped takes
    SLOPED_PROFILE."""
    if case.endswith("_sloped"):
        profile, case = SLOPED_PROFILE, case[:-len("_sloped")]
    if case == "thin":
        mesh = build_thin_mesh(profile, 1.0 / 16, 16, 8)
        x1, x2 = oracles.nodes(mesh).T
        return mesh, np.cos(np.pi * x1) * (1.0 + 0.3 * x2)
    mesh = build_cell_mesh(profile, 64, 16)
    x1, x2 = oracles.nodes(mesh)[:mesh.num_nodes].T
    # no point where both gradient components vanish
    return mesh, (np.cos(2.0 * np.pi * x1 / mesh.width) * (1.0 + 0.3 * x2)
                  + 0.2 * x2)


class TestAssemblyPlan:
    """The per-mesh plan against the per-call load form and the nine-block
    COO jacobian kept in tests/oracles.py."""

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_cell_flux_only_matches_oracle(self, reference_profile, p, delta):
        """The cell's point at a periodic phi (the background slope added to
        its gradient) against the oracles at x1 + phi in their unfolded
        numbering: the same energy, the oracle residual folded and the
        folded oracle jacobian, diagonal for diagonal."""
        mesh = build_cell_mesh(reference_profile, 32, 8)
        phi = 0.2 * np.random.default_rng(41).normal(size=mesh.num_nodes)
        u = oracles.nodes(mesh)[:, 0] + oracles.unfold(mesh, phi)
        params = FluxParams(p=p, delta=delta)
        point = _cell_point(mesh, p, phi, delta)
        assert point.energy() == pytest.approx(
            oracles.energy(mesh, u, params, include_mass=False), rel=1e-13)
        _assert_rel_close(point.residual(), oracles.fold(
            mesh, oracles.residual(mesh, u, params, include_mass=False)))
        ref = oracles.coo_jacobian(mesh, u, params, include_mass=False)
        _assert_same_jacobian(point.jacobian(), oracles.band(
            oracles.fold_matrix(ref, oracles.periodic_pairs(mesh))))

    @pytest.mark.filterwarnings("error")
    def test_flux_only_oracle_forms_no_mass_tensor(self, reference_profile):
        """At p = 2, delta = 0 the field x1 is 0 on the cell's left edge,
        where the mass tensor would divide 0 by 0: the flux-only oracle
        jacobian forms none, so nothing warns, and it is the stiffness
        matrix, the same for another field and zero on constants."""
        mesh = build_cell_mesh(reference_profile, 8, 4)
        params = FluxParams(p=2.0, delta=0.0)
        u = oracles.nodes(mesh)[:, 0]
        ref = oracles.coo_jacobian(mesh, u, params, include_mass=False)
        other = oracles.coo_jacobian(mesh, u * u + 1.0, params,
                                     include_mass=False)
        scale = abs(ref).max()
        assert abs(ref - other).max() <= 1e-13 * scale
        assert np.abs(ref @ np.ones(len(u))).max() <= 1e-13 * scale

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_thin_mass_and_load_match_oracle(self, reference_profile, p,
                                             delta):
        """A thin point scales its gradient by the mesh's eps, with no
        weight passed: its energy, residual and jacobian are the oracle's
        at the weight mesh.eps."""
        mesh, u, load = _thin_case(reference_profile)
        params = FluxParams(p=p, delta=delta)
        point = Point(mesh, u, params, True, load_vector(mesh, load))
        assert point.energy() == pytest.approx(
            oracles.energy(mesh, u, params, load), rel=1e-13)
        _assert_rel_close(point.residual(),
                          oracles.residual(mesh, u, params, load))
        _assert_same_jacobian(
            point.jacobian(),
            oracles.band(oracles.coo_jacobian(mesh, u, params)))

    @pytest.mark.parametrize("kind", ["cell", "thin"])
    def test_unit_load_is_lumped_mass(self, reference_profile, kind):
        """The load vector of f = 1 is the integral of each hat function:
        the edge-midpoint rule is exact for P1, so it matches the lumped
        masses of the triangle table and sums to the mesh area."""
        mesh = (build_cell_mesh(reference_profile, 128, 32) if kind == "cell"
                else build_thin_mesh(reference_profile, 1.0 / 16, 32, 16))
        w = load_vector(mesh, np.ones(mesh.num_nodes))
        _assert_rel_close(w, oracles.fold(mesh, oracles.lumped_masses(mesh)),
                          rtol=1e-15)
        assert w.sum() == pytest.approx(mesh.areas.sum(), rel=1e-14)

    def test_nodal_load_matches_oracle(self, small_cell_mesh):
        """At u = 0 and without the mass term the residual is -b."""
        mesh = small_cell_mesh
        rng = np.random.default_rng(43)
        load = 0.5 + 0.1 * rng.normal(size=mesh.num_nodes)
        zero = np.zeros(len(oracles.nodes(mesh)))
        _assert_rel_close(fem.load_vector(mesh, load), -oracles.fold(
            mesh, oracles.residual(mesh, zero, FluxParams(p=2.0, delta=1.0),
                                   oracles.unfold(mesh, load),
                                   include_mass=False)))

    def test_solve_thin_builds_plan_and_load_once(self, reference_profile,
                                                  monkeypatch):
        built = []
        plan_class = fem._Plan

        def counting_plan(mesh):
            built.append(mesh)
            return plan_class(mesh)

        monkeypatch.setattr(fem, "_Plan", counting_plan)
        evaluations = []

        def load(x1, x2):
            evaluations.append(x1.shape)
            return np.cos(np.pi * x1)

        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        _, diag = solve_thin(mesh, 3.0, load)
        assert diag.total_iterations > 1
        assert built == [mesh]
        assert len(evaluations) == 1

    def test_round_tripped_mesh_assembles_identically(self, reference_profile,
                                                      tmp_path):
        mesh, u, load = _thin_case(reference_profile)
        write_mesh(mesh, tmp_path / "thin.txt")
        back = read_mesh(tmp_path / "thin.txt")
        params = FluxParams(p=3.0, delta=1e-2)
        new, ref = (Point(m, u, params, True, load_vector(m, load))
                    for m in (back, mesh))
        assert new.energy() == ref.energy()
        assert np.array_equal(new.residual(), ref.residual())
        _assert_same_jacobian(new.jacobian(), ref.jacobian(), rtol=0.0)

    def test_threads_building_one_plan_agree(self, reference_profile):
        mesh, u, load = _thin_case(reference_profile)   # fresh: no plan yet
        params = FluxParams(p=1.5, delta=1e-2)
        workers = 4
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def evaluate():
            point = Point(mesh, u, params, True, load_vector(mesh, load))
            return point.energy(), point.residual(), point.jacobian()

        def work(i):
            barrier.wait(timeout=30)
            results[i] = evaluate()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        e, r, j = evaluate()
        for got in results:
            assert got is not None
            assert got[0] == e
            assert np.array_equal(got[1], r)
            _assert_same_jacobian(got[2], j, rtol=0.0)

    @pytest.mark.parametrize("delta", [1e-2, 1e-8])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("case", ["thin", "ring", "thin_sloped",
                                      "ring_sloped"])
    def test_grid_layouts_match_oracle(self, reference_profile, case, p,
                                       delta):
        """fem.Point on each layout against the oracle energy, residual and
        COO jacobian in the oracles' unfolded numbering, the residual and
        jacobian folded (no change on a thin mesh), with and without the
        mass term; then the solves of the problems as posed: thin with the
        mass term, cells flux-only on the mean-zero hyperplane with a
        mean-zero right-hand side."""
        mesh, u = _grid_case(reference_profile, case)
        full, pairs = oracles.unfold(mesh, u), oracles.periodic_pairs(mesh)
        params = FluxParams(p=p, delta=delta)
        load = LoadSpec(kind="cos_pi", x2_coeff=0.3)
        b = fem.load_vector(mesh, load)
        rng = np.random.default_rng(61)
        for include_mass in (True, False):
            point = fem.Point(mesh, u, params, include_mass, b)
            assert point.energy() == pytest.approx(
                oracles.energy(mesh, full, params, load, include_mass),
                rel=1e-13)
            _assert_rel_close(point.residual(), oracles.fold(
                mesh, oracles.residual(mesh, full, params, load,
                                       include_mass)))
            band = point.jacobian()
            matrix = oracles.fold_matrix(
                oracles.coo_jacobian(mesh, full, params, include_mass), pairs)
            for _ in range(3):
                x = rng.normal(size=matrix.shape[0])
                ax = matrix @ x
                assert (np.linalg.norm(band @ x - ax)
                        <= 1e-13 * np.linalg.norm(ax))
        rhs = rng.normal(size=matrix.shape[0])
        if mesh.domain_kind == "thin":
            x = linear_solve(fem.Point(mesh, u, params).jacobian(), rhs, 1e-12)
            expected = spla.spsolve(
                oracles.coo_jacobian(mesh, u, params).tocsc(), rhs)
        else:
            w = oracles.fold(mesh, oracles.lumped_masses(mesh))
            rhs -= rhs.mean()
            x = constrained_linear_solve(band, rhs, w, 1e-12)
            expected = oracles.bordered_solve(matrix, rhs, w)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind", ["cell", "thin"])
def test_edge_views_are_the_split_views(reference_profile, kind):
    """The plan's edge views slice precomputed bounds: the parts np.split
    gives, in their shapes, and views of the flat array, which weigh
    writes through."""
    mesh = (build_cell_mesh(reference_profile, 12, 5) if kind == "cell"
            else build_thin_mesh(reference_profile, 0.25, 6, 5))
    plan = fem._plan(mesh)
    a = np.random.default_rng(3).normal(size=plan.n_edges)
    shapes = [(5, 13), (6, 12), (5, 12)] if kind == "cell" else [
        (5, 25), (6, 24), (5, 24)]
    bounds = np.cumsum([np.prod(s) for s in shapes])[:-1]
    views = plan.edge_views(a)
    assert [v.shape for v in views] == shapes
    for view, part, shape in zip(views, np.split(a, bounds), shapes):
        assert np.array_equal(view, part.reshape(shape))
        assert np.shares_memory(view, a)


class TestGridPoint:
    """Properties of fem.Point on the column grid."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_flux_jacobian_annihilates_constants(self, medium_cell_mesh, p):
        """Each flux diagonal is minus its row sum, so the periodic cell
        jacobian times the ones vector vanishes to roundoff."""
        mesh = medium_cell_mesh
        x1, x2 = oracles.nodes(mesh)[:mesh.num_nodes].T
        phi = 0.05 * np.sin(2.0 * np.pi * x1) * x2
        band = _cell_point(mesh, p, phi, 1e-8).jacobian()
        ones = band @ np.ones(mesh.num_nodes)
        assert np.abs(ones).max() <= 1e-14 * np.abs(band.rows[0]).max()

    def test_evaluation_order_gives_same_bits(self, reference_profile):
        """A point keeps only xi, sigma and the edge terms: its energy,
        residual and jacobian give the same bits whichever is asked first
        and however often."""
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        x1, x2 = oracles.nodes(mesh).T
        u = np.cos(3.0 * x1) + x2
        params = FluxParams(p=3.0, delta=1e-8)
        trial = fem.Point(mesh, u, params)
        energy = trial.energy()
        residual = trial.residual()
        band = trial.jacobian()
        assert np.array_equal(trial.residual(), residual)
        assert sorted(vars(trial)) == [
            "include_mass", "load_vector", "mass_weight", "params", "plan",
            "sigma", "sq", "u", "um", "xi"]
        other = fem.Point(mesh, u, params)
        assert np.array_equal(other.jacobian().rows, band.rows)
        assert np.array_equal(other.residual(), residual)
        assert other.energy() == energy


class TestColumnForms:
    """The per-column closed forms of the plan and the mesh against the
    per-triangle formulas of tests/oracles.py, and the memory they save."""

    @pytest.mark.parametrize("case", ["thin", "ring", "thin_sloped",
                                      "ring_sloped"])
    def test_gradient_and_areas_match_oracle(self, reference_profile, case):
        mesh, u = _grid_case(reference_profile, case)
        plan = fem._plan(mesh)
        # the columns slope both ways, and s k reaches a tenth of a row
        assert plan.s.min() < 0.0 < plan.s.max()
        assert np.abs(plan.s).max() * mesh.grid_rows > 0.1 * plan.c.max()
        *_, grad, _ = oracles._p1_fields(mesh, oracles.unfold(mesh, u))
        _assert_rel_close(element_gradients(mesh, u), grad, rtol=1e-12)
        area = oracles.tri_geometry(mesh)[1]
        _assert_rel_close(mesh.areas, area, rtol=1e-14)
        assert mesh.areas.sum() == pytest.approx(area.sum(), rel=1e-14)

    def test_non_finite_flux_names_its_triangle(self, reference_profile):
        """A huge value at node (i, j) = (2, 1) overflows the flux of the
        triangles around it, the lowest of which is the lower half of quad
        (1, 0): the energy is +inf, and the residual names triangle 2 ny.
        No numpy warning is raised (an error under the suite's filter)."""
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        u = np.zeros(mesh.num_nodes)
        u[mesh.grid_nodes[2, 1]] = 1e200
        point = fem.Point(mesh, u, FluxParams(p=3.0, delta=1e-8))
        assert point.energy() == np.inf
        with pytest.raises(AssemblyError, match=r"^non-finite flux on "
                                                f"triangle {2 * mesh.grid_rows}$"):
            point.residual()

    def test_plan_holds_per_column_arrays(self, reference_profile):
        """Beside the node map (the mesh's own, transposed) a plan keeps
        per-column and per-row arrays, 48 bytes a column and 16 a row, and
        the int32 band position map of the edges alone (the diagonal is
        the band's first row and needs no map): the bound, 64 bytes a column and a
        row, leaves a third of margin; per-triangle tables (the hat
        gradients alone were 48 bytes a triangle) cannot pass it."""
        mesh = build_thin_mesh(reference_profile, 1.0 / 32, 32, 16)
        x1, x2 = oracles.nodes(mesh).T
        u = np.cos(np.pi * x1) * (1.0 + x2)
        params = FluxParams(p=3.0, delta=1e-8)
        fem.Point(mesh, u, params).jacobian()
        plan = fem._plan(mesh)
        assert np.shares_memory(plan.node, mesh.grid_nodes)
        nx, ny = mesh.grid_nodes.shape[0] - 1, mesh.grid_rows
        owned = sum(value.nbytes for name, value in vars(plan).items()
                    if isinstance(value, np.ndarray) and name != "node")
        assert owned <= 64 * (nx + ny)
        _, _, where = plan._band
        assert where.dtype == np.int32
        assert where.size == plan.n_edges

    @pytest.mark.parametrize("call", ["first", "later"])
    def test_jacobian_peak_memory_per_triangle(self, reference_profile, call):
        """The traced peak of one thin jacobian (eps 1/32, 32768
        triangles, mass term on) above the memory live before it stays
        under 100 bytes a triangle: about 81 on the first call, which also
        builds and keeps the band map, and 73 on later ones.  Per-triangle
        tables and edge lists took 220 and 155."""
        mesh = build_thin_mesh(reference_profile, 1.0 / 32, 32, 16)
        x1, x2 = oracles.nodes(mesh).T
        u = np.cos(np.pi * x1) * (1.0 + x2)
        params = FluxParams(p=3.0, delta=1e-8)
        if call == "later":
            fem.Point(mesh, u, params).jacobian()
        point = fem.Point(mesh, u, params)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            band = point.jacobian()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert band.rows.shape[1] == mesh.num_nodes
        assert peak <= 100 * mesh.num_triangles


class TestNorms:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_unit_field(self, unit_square_mesh, p):
        u = np.ones(unit_square_mesh.num_nodes)
        assert lp_norm(unit_square_mesh, u, p) == pytest.approx(1.0, abs=1e-12)

    def test_constant_field(self, unit_square_mesh):
        u = np.full(unit_square_mesh.num_nodes, -2.5)
        assert lp_norm(unit_square_mesh, u, 3.0) == pytest.approx(2.5, abs=1e-12)

    def test_linear_field_against_exact_integral(self, flat_profile):
        mesh = build_thin_mesh(flat_profile, 1.0, 32, 32)
        u = oracles.nodes(mesh)[:, 0].copy()
        # integral of x1^2 over the unit square is 1/3
        assert lp_norm(mesh, u, 2.0) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-3)

    def test_seminorm_of_linear_field(self, flat_profile):
        """The L^p norm of a scaled gradient as the study measures it
        (error_corrector against a zero field)."""
        mesh = build_thin_mesh(flat_profile, 0.5, 4, 8)
        x1, x2 = oracles.nodes(mesh).T
        u = 3.0 * x1 + 2.0 * x2
        gs = element_gradients(mesh, u)
        expected = np.hypot(3.0, 4.0)   # scaled gradient (3, 2/0.5)
        assert error_corrector(mesh, gs, np.zeros(2),
                               3.0) == pytest.approx(expected, rel=1e-12)


class TestLoadFiberIntegrals:
    """LoadSpec.fiber_integral, the closed form int_0^g f dx2 that forces
    the limit problem, against closed forms and the Gauss-Legendre oracle."""

    LOADS = [LoadSpec(kind="constant", value=1.7),
             LoadSpec(kind="cos_pi", value=-0.8, k=3),
             LoadSpec(kind="linear", value=2.0, offset=-0.5)]

    def test_unit_load_gives_profile(self, reference_profile):
        x = np.linspace(0.0, 1.0, 33)
        g = reference_profile.evaluate(x / 0.25)
        fhat = LoadSpec(kind="constant").fiber_integral(x, g)
        assert np.abs(fhat - g).max() < 1e-12

    def test_horizontal_load_scales_profile(self, reference_profile):
        x = np.linspace(0.0, 1.0, 17)
        g = reference_profile.evaluate(x / 0.5)
        fhat = LoadSpec(kind="linear").fiber_integral(x, g)
        assert np.abs(fhat - x * g).max() < 1e-12

    def test_vertical_dependence_integrated_exactly(self, reference_profile):
        # f = 1 + x2 integrates to g + g^2/2 on each fiber
        x = np.linspace(0.0, 1.0, 17)
        g = reference_profile.evaluate(x / 0.5)
        fhat = LoadSpec(kind="constant", x2_coeff=1.0).fiber_integral(x, g)
        assert np.abs(fhat - (g + 0.5 * g * g)).max() < 1e-12

    def test_mean_tends_to_cell_average(self, reference_profile):
        x = np.linspace(0.0, 1.0, 513)
        fhat = LoadSpec(kind="constant").fiber_integral(
            x, reference_profile.evaluate(x * 64.0))
        mean = np.trapezoid(fhat, x)
        ys = np.linspace(0.0, 1.0, 1 << 14)
        cell_average = np.trapezoid(reference_profile.evaluate(ys), ys)
        assert abs(mean - cell_average) < 1e-3

    @pytest.mark.parametrize("x2_coeff", [0.0, 1.3])
    @pytest.mark.parametrize("load", LOADS, ids=lambda load: load.kind)
    @pytest.mark.parametrize("harmonics", [(0.5,), (0.5, 0.2)],
                             ids=["reference", "two_harmonic"])
    def test_matches_gauss_oracle(self, load, x2_coeff, harmonics):
        """Every load kind, flat and linear in x2, on the reference profile
        and on 1 + 0.5 cos + 0.2 cos 2, to 1e-14 of the largest sample."""
        load = replace(load, x2_coeff=x2_coeff)
        profile = ProfileSpec(period=1.0, mean=1.0, cos_coeffs=harmonics)
        x = np.linspace(0.0, 1.0, 257)
        g = profile.evaluate(x * 16.0)
        fhat = load.fiber_integral(x, g)
        oracle = oracles.load_fiber_integrals(load, g, x)
        assert np.abs(fhat - oracle).max() <= 1e-14 * np.abs(oracle).max()
