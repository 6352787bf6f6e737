import numpy as np
import pytest

from oscthin import ProfileSpec, build_cell_mesh, build_thin_mesh, mesh_area
from oscthin.geometry import (MeshingError, Mesh, fiber_matrix, locate_points,
                              read_mesh, write_mesh)
from oscthin.study import flux_stations

import oracles


def fine_profile_integral(spec, a=0.0, b=None):
    """Trapezoid oracle for the area under the profile."""
    b = spec.period if b is None else b
    ys = np.linspace(a, b, 1 << 14)
    return float(np.trapezoid(spec.evaluate(ys), ys))


class TestProfile:
    def test_constant_profile(self):
        spec = ProfileSpec(period=1.0, mean=1.0)
        assert spec.evaluate(0.37) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_at_zero(self):
        spec = ProfileSpec(period=1.0, mean=1.0, cos_coeffs=(0.5,))
        assert spec.evaluate(0.0) == pytest.approx(1.5, abs=1e-15)

    def test_cosine_at_quarter_period(self):
        spec = ProfileSpec(period=1.0, mean=1.0, cos_coeffs=(0.5,))
        assert spec.evaluate(0.25) == pytest.approx(1.0, abs=1e-15)

    def test_periodicity_to_machine_precision(self):
        spec = ProfileSpec(period=0.7, mean=1.2, cos_coeffs=(0.3, -0.1),
                           sin_coeffs=(0.2,))
        ys = np.linspace(-1.0, 1.0, 101)
        assert np.abs(spec.evaluate(ys) - spec.evaluate(ys + 0.7)).max() < 1e-12

    def test_bounds_enclose_samples(self):
        spec = ProfileSpec(period=1.0, mean=1.0, cos_coeffs=(0.4,),
                           sin_coeffs=(0.2,))
        ys = np.linspace(0.0, 1.0, 20011)
        vals = spec.evaluate(ys)
        assert vals.min() >= spec.minimum - 1e-12
        assert vals.max() <= spec.maximum + 1e-12
        assert spec.minimum > 0.0

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ProfileSpec(period=1.0, mean=0.1, cos_coeffs=(0.5,))

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            ProfileSpec(period=0.0, mean=1.0)


class TestCellMesh:
    def test_flat_2x2_counts(self, flat_profile):
        mesh = build_cell_mesh(flat_profile, 2, 2)
        assert mesh.num_nodes == 9
        assert mesh.num_triangles == 8
        assert len(mesh.periodic_pairs) == 3
        assert mesh_area(mesh) == pytest.approx(1.0, abs=1e-15)

    def test_area_against_quadrature_oracle(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 64, 16)
        oracle = fine_profile_integral(reference_profile)
        assert abs(mesh_area(mesh) - oracle) < 1e-3
        assert mesh_area(mesh) == pytest.approx(1.0, abs=1e-3)

    def test_all_areas_positive(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 13, 7)
        assert np.all(mesh.areas > 0.0)

    def test_area_exact_under_refinement(self):
        # the column sums are the composite trapezoid rule, which integrates
        # a truncated Fourier series over its period exactly; the area error
        # therefore sits at the roundoff floor at every resolution (stronger
        # than the generic second-order decay of the trapezoid rule)
        spec = ProfileSpec(period=1.0, mean=1.0, cos_coeffs=(0.4,),
                           sin_coeffs=(0.15,))
        oracle = fine_profile_integral(spec)
        errors = [abs(mesh_area(build_cell_mesh(spec, nx, nx // 4)) - oracle)
                  for nx in (16, 32, 64)]
        assert max(errors) < 1e-12

    def test_upper_boundary_on_profile_graph(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 24, 6)
        upper_nodes = np.unique(mesh.boundary_edges["upper"])
        x = mesh.nodes[upper_nodes]
        assert np.abs(x[:, 1] - reference_profile.evaluate(x[:, 0])).max() < 1e-12

    def test_periodic_pairs_match(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 24, 6)
        left, right = mesh.periodic_pairs[:, 0], mesh.periodic_pairs[:, 1]
        assert np.abs(mesh.nodes[left, 1] - mesh.nodes[right, 1]).max() < 1e-12
        dx = mesh.nodes[right, 0] - mesh.nodes[left, 0]
        assert np.abs(dx - reference_profile.period).max() < 1e-12

    def test_boundary_edges_close_up(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 9, 5)
        counts = np.zeros(mesh.num_nodes, dtype=int)
        for edges in mesh.boundary_edges.values():
            for a, b in edges:
                counts[a] += 1
                counts[b] += 1
        on_boundary = counts > 0
        assert np.all(counts[on_boundary] == 2)

    def test_too_coarse_rejected(self, flat_profile):
        with pytest.raises(ValueError):
            build_cell_mesh(flat_profile, 1, 4)

    def test_degenerate_triangle_detected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        triangles = np.array([[0, 2, 1]])  # negative orientation
        edges = {t: np.empty((0, 2), dtype=int)
                 for t in ("lower", "upper", "left", "right")}
        with pytest.raises(MeshingError, match="triangle 0"):
            Mesh(nodes, triangles, edges, np.empty((0, 2), dtype=int), "cell")


class TestThinMesh:
    def test_flat_is_unit_square(self, flat_profile):
        mesh = build_thin_mesh(flat_profile, 0.5, 4, 4)
        assert mesh_area(mesh) == pytest.approx(1.0, abs=1e-14)
        assert mesh.nodes[:, 0].min() == 0.0 and mesh.nodes[:, 0].max() == 1.0
        assert mesh.nodes[:, 1].max() == pytest.approx(1.0, abs=1e-14)

    def test_period_count(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        upper_nodes = np.unique(mesh.boundary_edges["upper"])
        heights = mesh.nodes[upper_nodes, 1]
        # four oscillations: the maximum height reappears once per period
        peaks = np.isclose(heights, reference_profile.maximum, atol=1e-12)
        assert peaks.sum() == 5   # period endpoints inclusive

    def test_area_against_quadrature_oracle(self, reference_profile):
        eps = 0.25
        mesh = build_thin_mesh(reference_profile, eps, 32, 8)
        xs = np.linspace(0.0, 1.0, 1 << 15)
        oracle = float(np.trapezoid(reference_profile.evaluate(xs / eps), xs))
        assert abs(mesh_area(mesh) - oracle) < 1e-3

    def test_tiles_exactly(self, reference_profile):
        thin = build_thin_mesh(reference_profile, 0.125, 8, 4)
        cell = build_cell_mesh(reference_profile, 8, 4)
        assert abs(mesh_area(thin) - mesh_area(cell) / reference_profile.period) < 1e-12

    def test_incommensurate_eps_rejected(self, reference_profile):
        with pytest.raises(MeshingError, match=r"1/\(m\*L\)"):
            build_thin_mesh(reference_profile, 0.3, 8, 4)

    def test_eps_out_of_range_rejected(self, reference_profile):
        with pytest.raises(ValueError):
            build_thin_mesh(reference_profile, 1.5, 8, 4)

    def test_node_count_grows_linearly(self, reference_profile):
        n_at = {m: build_thin_mesh(reference_profile, 1.0 / m, 4, 4).num_nodes
                for m in (2, 4)}
        # nodes = m * nx_per_period * (ny+1) + (ny+1), linear in m
        assert n_at[4] - 5 == 2 * (n_at[2] - 5)


def fiber_lengths(mesh, axis, value):
    """Nonzero fiber lengths of one fiber, from the fiber operator."""
    return fiber_matrix(mesh, axis, [value]).data


class TestFiberSegments:
    def test_horizontal_fiber_spans_width(self, unit_square_mesh):
        lengths = fiber_lengths(unit_square_mesh, axis=1, value=0.37)
        assert lengths.sum() == pytest.approx(1.0, abs=1e-12)

    def test_vertical_fiber_spans_height(self, unit_square_mesh):
        lengths = fiber_lengths(unit_square_mesh, axis=0, value=0.61)
        assert lengths.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fiber_above_domain_is_empty(self, unit_square_mesh):
        fiber = fiber_matrix(unit_square_mesh, axis=1, values=[2.0])
        assert fiber.shape == (1, unit_square_mesh.num_triangles)
        assert fiber.nnz == 0

    def test_oscillating_fiber_length_matches_level_width(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 256, 16)
        # at height h the fiber length is the measure of {g > h}
        value = 1.2
        lengths = fiber_lengths(mesh, axis=1, value=value)
        ys = np.linspace(0.0, 1.0, 1 << 16)
        oracle = float(np.mean(reference_profile.evaluate(ys) > value))
        assert lengths.sum() == pytest.approx(oracle, abs=2e-3)

    def test_edge_aligned_fiber_is_nudged(self, unit_square_mesh):
        # node rows sit at multiples of 1/8; the fiber must not double count
        lengths = fiber_lengths(unit_square_mesh, axis=1, value=0.5)
        assert lengths.sum() == pytest.approx(1.0, abs=1e-6)


class TestFiberMatrixOracle:
    """fiber_matrix against the all-triangle clipper, row by row."""

    @staticmethod
    def assert_matches(mesh, axis, values):
        values = np.asarray(values, dtype=float)
        fiber = fiber_matrix(mesh, axis, values)
        oracle = oracles.fiber_matrix(mesh, axis, values)
        assert fiber.shape == oracle.shape == (len(values), mesh.num_triangles)
        gap = abs(fiber - oracle).max(axis=1).toarray().ravel()
        scale = abs(oracle).max(axis=1).toarray().ravel()
        assert np.all(gap <= 1e-12 * scale)
        assert np.array_equal(fiber.getnnz(axis=1), oracle.getnnz(axis=1))

    @pytest.mark.parametrize("eps", [0.5, 1.0 / 64])
    def test_thin_mesh_stations(self, reference_profile, eps):
        mesh = build_thin_mesh(reference_profile, eps, 32, 16)
        stations = flux_stations(250)
        # 0.25 and 0.75 lie on column lines; so do both ends of the domain
        assert {0.25, 0.75} <= set(stations)
        self.assert_matches(mesh, 0, np.concatenate(
            [stations, [0.0, 1.0, -0.5, 1.5]]))

    def test_reference_cell_levels(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 128, 32)
        top = float(mesh.nodes[:, 1].max())
        self.assert_matches(mesh, 1, (np.arange(4096) + 0.5) * (top / 4096))

    def test_flat_profile_node_rows(self, unit_square_mesh):
        rows = np.arange(9) / 8.0
        self.assert_matches(unit_square_mesh, 1, rows)
        self.assert_matches(unit_square_mesh, 0, rows)

    def test_level_above_domain(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 32, 8)
        self.assert_matches(mesh, 1, [0.8, 1.6, 3.0])
        assert fiber_matrix(mesh, 1, [1.6, 3.0]).nnz == 0


class TestLocatePoints:
    def test_random_points_located(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 32, 8)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, 200)
        y = rng.uniform(0.0, 1.0, 200) * 0.95 * reference_profile.evaluate(x)
        tri = locate_points(mesh, np.column_stack([x, y]))
        verts = mesh.nodes[mesh.triangles[tri]]
        lo = verts.min(axis=1)
        hi = verts.max(axis=1)
        pts = np.column_stack([x, y])
        assert np.all(pts >= lo - 1e-9) and np.all(pts <= hi + 1e-9)

    def test_point_outside_raises_with_coordinates(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 32, 8)
        with pytest.raises(MeshingError, match="0.5"):
            locate_points(mesh, np.array([[0.5, 5.0]]))


def test_mesh_round_trip(tmp_path, reference_profile):
    mesh = build_thin_mesh(reference_profile, 0.5, 6, 3)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.periodic_pairs, mesh.periodic_pairs)
    assert back.domain_kind == mesh.domain_kind
    assert back.eps == mesh.eps
    for tag in mesh.boundary_edges:
        assert np.array_equal(back.boundary_edges[tag], mesh.boundary_edges[tag])
