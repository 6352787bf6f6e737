import tracemalloc
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from oscthin import ProfileSpec, build_cell_mesh, build_thin_mesh, mesh_area
from oscthin.geometry import (MeshingError, Mesh, fiber_matrix, grid_triangles,
                              locate_points, read_mesh, write_mesh)
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

    @pytest.mark.parametrize("coeffs", [
        {"mean": float("nan")}, {"mean": float("inf")},
        {"cos_coeffs": (float("nan"),)}, {"sin_coeffs": (0.1, -float("inf"))},
    ])
    def test_non_finite_coefficient_rejected(self, coeffs):
        """A NaN minimum would pass the positivity test (NaN <= 0 is
        false), so a non-finite mean or coefficient is refused first."""
        with pytest.raises(ValueError, match="must be finite"):
            ProfileSpec(**{"period": 1.0, "mean": 1.0, **coeffs})


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

    @pytest.mark.parametrize("xs, heights, message", [
        ([0.0, 0.5, 0.5, 1.0], [1.0, 1.2, 0.8, 1.0], "strictly increase"),
        ([0.0, 0.5, 1.0], [1.0, -0.2, 1.0], "column 1 height -2.000e-01"),
        ([0.0, 0.5, 1.0], [1.0, 1.2, 0.8], "last column heights differ"),
    ], ids=["abscissae", "height", "ends"])
    def test_bad_grid_refused(self, xs, heights, message):
        with pytest.raises(MeshingError, match=message) as info:
            Mesh("cell", xs, heights, 2)
        assert "\n" not in str(info.value)


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

    def test_mesh_retains_only_its_grid(self, reference_profile):
        """Building a thin mesh keeps its column grid and node map and
        nothing per triangle: at most 16 bytes a node stay allocated."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mesh = build_thin_mesh(reference_profile, 1.0 / 32, 32, 16)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 16 * mesh.num_nodes

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

    def test_wrapped_barycenters_match_oracle(self, reference_profile):
        """The barycenters of an eps 1/16 mesh wrapped into the cell, as
        study.cell_response wraps them, each get a cell triangle that
        contains them by the brute-force search."""
        cell = build_cell_mesh(reference_profile, 32, 8)
        thin = build_thin_mesh(reference_profile, 1.0 / 16, 16, 8)
        x = thin.per_triangle(thin.barycenter_abscissae())
        pts = np.column_stack([np.mod(x / thin.eps, 1.0),
                               thin.barycenter_heights()])
        inside = oracles.containing_triangles(cell, pts)
        tri = locate_points(cell, pts)
        assert np.all(inside[np.arange(len(pts)), tri])

    @pytest.mark.parametrize("kind", ["cell", "thin"])
    def test_points_on_mesh_lines_match_oracle(self, reference_profile, kind):
        """Points on column lines, on row lines and on quad diagonals, the
        domain's boundary included, each get a triangle that contains them
        by the brute-force search."""
        mesh = (build_cell_mesh(reference_profile, 16, 4) if kind == "cell"
                else build_thin_mesh(reference_profile, 0.25, 8, 4))
        xs, hs, ny = mesh.grid_x, mesh.grid_heights, mesh.grid_rows
        s = np.linspace(0.0, 1.0, 7)
        columns = np.column_stack([np.repeat(xs, 7), np.outer(hs, s).ravel()])
        i, f, j = (a.ravel() for a in np.meshgrid(
            np.arange(len(xs) - 1), [0.25, 0.5, 0.8], np.arange(ny + 1)))
        x = xs[i] + f * (xs[i + 1] - xs[i])
        h = (1.0 - f) * hs[i] + f * hs[i + 1]
        rows = np.column_stack([x, j * h / ny])
        below = j < ny
        diagonals = np.column_stack(
            [x, (j * h + f * hs[i + 1]) / ny])[below]
        pts = np.concatenate([columns, rows, diagonals])
        inside = oracles.containing_triangles(mesh, pts)
        tri = locate_points(mesh, pts)
        assert np.all(inside[np.arange(len(pts)), tri])

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


@pytest.mark.parametrize("kind", ["cell", "thin"])
def test_mesh_round_trip_keeps_column_grid(tmp_path, reference_profile, kind):
    """A mesh read back from disk still carries the column grid, so fiber
    operators and point location give what they give on the original."""
    mesh = (build_cell_mesh(reference_profile, 32, 8) if kind == "cell"
            else build_thin_mesh(reference_profile, 0.25, 8, 4))
    write_mesh(mesh, tmp_path / "mesh.txt")
    back = read_mesh(tmp_path / "mesh.txt")
    stations = np.linspace(0.0, mesh.width, 37)
    levels = np.linspace(0.05, 1.45, 23)
    for axis, values in ((0, stations), (1, levels)):
        diff = fiber_matrix(back, axis, values) - fiber_matrix(mesh, axis,
                                                                values)
        assert diff.count_nonzero() == 0
    points = oracles.barycenters(mesh)
    assert np.array_equal(locate_points(back, points),
                          locate_points(mesh, points))


@pytest.mark.parametrize("kind", ["cell", "thin"])
def test_closed_form_barycenters_match_oracle(reference_profile, kind):
    """The per-column barycenter abscissae spread to the triangles and the
    barycenter heights equal the mean of each triangle's nodes bit for
    bit."""
    mesh = (build_cell_mesh(reference_profile, 32, 8) if kind == "cell"
            else build_thin_mesh(reference_profile, 1.0 / 16, 16, 8))
    bary = oracles.barycenters(mesh)
    assert mesh.barycenter_abscissae().shape == (len(mesh.grid_x) - 1, 2)
    assert np.array_equal(mesh.per_triangle(mesh.barycenter_abscissae()),
                          bary[:, 0])
    assert np.array_equal(mesh.barycenter_heights(), bary[:, 1])


@pytest.mark.parametrize("kind", ["cell", "thin", "sin"])
def test_grid_nodes_place_each_node(tmp_path, reference_profile, kind):
    """The grid node map puts node (i, j) at column i, row j, on a built
    mesh and on its copy read back from disk, and the triangles are
    grid_triangles of it.  Both derived arrays are sized by num_nodes and
    num_triangles; the nodes are built once, the triangles on each read.
    Every array a mesh stores or caches is read-only."""
    sloped = ProfileSpec(period=0.5, mean=1.0, cos_coeffs=(0.1,),
                         sin_coeffs=(0.3, -0.05))
    mesh = {"cell": lambda: build_cell_mesh(reference_profile, 16, 4),
            "thin": lambda: build_thin_mesh(reference_profile, 0.25, 8, 4),
            "sin": lambda: build_thin_mesh(sloped, 0.5, 6, 3)}[kind]()
    write_mesh(mesh, tmp_path / "mesh.txt")
    rows = np.arange(mesh.grid_rows + 1) / mesh.grid_rows
    for m in (mesh, read_mesh(tmp_path / "mesh.txt")):
        node = m.grid_nodes
        assert not node.flags.writeable
        assert np.array_equal(grid_triangles(node), m.triangles)
        x, y = m.nodes[node].transpose(2, 0, 1)
        assert np.array_equal(x, np.broadcast_to(mesh.grid_x[:, None], x.shape))
        assert np.array_equal(y, mesh.grid_heights[:, None] * rows)
        assert m.nodes.shape == (m.num_nodes, 2)
        assert m.triangles.shape == (m.num_triangles, 3)
        assert m.nodes is m.nodes and m.triangles is not m.triangles
        cached = [getattr(m, name) for name, attr in vars(Mesh).items()
                  if isinstance(attr, cached_property)]
        assert len(cached) >= 4     # nodes, boundary_edges and both areas
        arrays = [m.grid_x, m.grid_heights, m.periodic_pairs, m.triangles,
                  *(a for c in cached
                    for a in (c.values() if isinstance(c, dict) else [c]))]
        for array in arrays:
            assert not array.flags.writeable


OLD_LAYOUT = "expected section '# grid', found '# nodes 45'"


@pytest.mark.parametrize("change, message", [
    ("old_layout", OLD_LAYOUT), ("swap", OLD_LAYOUT), ("rotate", OLD_LAYOUT),
    ("no_grid", "at least two columns"), ("columns", OLD_LAYOUT),
    ("nudge", OLD_LAYOUT)],
    ids=["old_layout", "swap", "rotate", "no_grid", "columns", "nudge"])
def test_mesh_off_the_grid_refused_at_read(tmp_path, reference_profile,
                                           change, message):
    """A mesh file of the older layout (nodes, triangles, boundary edges
    and periodic pairs before the grid) is refused when read, in one line
    naming the file, whatever those sections hold: as written, with two
    triangles swapped, a triangle's vertices rotated, a cell numbered
    column by column (as cells were written before the ring order) or one
    node off its column. So is a file with no column grid (as a gridless
    mesh was written)."""
    ring = build_cell_mesh(reference_profile, 8, 4)
    mesh = SimpleNamespace(**{name: getattr(ring, name) for name in (
        "domain_kind", "eps", "num_nodes", "nodes", "num_triangles",
        "triangles", "boundary_edges", "periodic_pairs", "grid_x",
        "grid_heights", "grid_rows")})
    mesh.triangles = tris = ring.triangles.copy()
    if change == "swap":            # two lower triangles trade places
        tris[[0, 2]] = tris[[2, 0]]
    elif change == "rotate":        # same triangle, vertices rotated
        tris[5] = tris[5, [1, 2, 0]]
    elif change == "nudge":
        mesh.nodes = ring.nodes.copy()
        mesh.nodes[7, 1] *= 1.0 + 1e-15
    elif change == "columns":
        order = np.lexsort((ring.nodes[:, 1], ring.nodes[:, 0]))
        new = np.empty_like(order)
        new[order] = np.arange(len(order))
        mesh.nodes, mesh.triangles = ring.nodes[order], new[ring.triangles]
        mesh.boundary_edges = {tag: new[e]
                               for tag, e in ring.boundary_edges.items()}
        mesh.periodic_pairs = new[ring.periodic_pairs]
    if change == "no_grid":
        mesh.grid_x = mesh.grid_heights = np.empty(0)
        mesh.grid_rows = 0
        text = oracles.row_by_row_mesh_text(mesh)
    else:
        text = oracles.old_layout_mesh_text(mesh)
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        read_mesh(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "\n" not in str(info.value)


def test_mesh_file_is_header_and_grid(tmp_path, reference_profile,
                                      monkeypatch):
    """Writing a mesh reads only its column grid: the resolution-64 cell
    file is the header, the grid line and one line per column, written
    with nodes, triangles and boundary edges out of reach, and it reads
    back to the same grid."""
    mesh = build_cell_mesh(reference_profile, 256, 64)

    def unreachable(self):
        raise AssertionError("the mesh writer read a per-node table")

    for name in ("nodes", "triangles", "boundary_edges"):
        monkeypatch.setattr(Mesh, name, property(unreachable))
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    assert len(path.read_text().splitlines()) == len(mesh.grid_x) + 2 == 259
    back = read_mesh(path)
    for name in ("grid_x", "grid_heights", "grid_nodes", "periodic_pairs"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name))
    assert (back.domain_kind, back.eps, back.grid_rows) == ("cell", None, 64)


@pytest.mark.parametrize("old, new, message", [
    ("# oscthin mesh", "# mesh", "expected header '# oscthin mesh"),
    ("# grid 5 2", "# grid 5", "expected section '# grid', found '# grid 5'"),
    ("# grid", "", "expected section '# grid', found 'end of file'"),
])
def test_malformed_mesh_rejected(tmp_path, reference_profile, old, new,
                                 message):
    path = tmp_path / "mesh.txt"
    write_mesh(build_cell_mesh(reference_profile, 4, 2), path)
    text = path.read_text()
    # an empty replacement cuts the file at the grid line, leaving the header
    text = text.replace(old, new) if new else text[:text.index(old)]
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_mesh(path)
