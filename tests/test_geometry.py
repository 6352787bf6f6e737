import re
import tracemalloc
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from oscthin import ProfileSpec, build_cell_mesh, build_thin_mesh
from oscthin.geometry import (MeshingError, Mesh, fiber_integrals,
                              locate_points, read_mesh, read_table,
                              write_mesh, write_table)
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
        assert mesh.num_nodes == 6      # the last column is the first
        assert mesh.num_triangles == 8
        assert len(oracles.periodic_pairs(mesh)) == 3
        assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-15)

    def test_area_against_quadrature_oracle(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 64, 16)
        oracle = fine_profile_integral(reference_profile)
        assert abs(mesh.areas.sum() - oracle) < 1e-3
        assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-3)

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
        errors = [abs(build_cell_mesh(spec, nx, nx // 4).areas.sum() - oracle)
                  for nx in (16, 32, 64)]
        assert max(errors) < 1e-12

    def test_upper_boundary_on_profile_graph(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 24, 6)
        upper_nodes = np.unique(oracles.boundary_edges(mesh)["upper"])
        x = oracles.nodes(mesh)[upper_nodes]
        assert np.abs(x[:, 1] - reference_profile.evaluate(x[:, 0])).max() < 1e-12

    def test_periodic_pairs_match(self, reference_profile):
        """The mesh numbers its last column as its first, and in the
        oracles' unfolded numbering each node of the first column and its
        copy lie one period apart at the same height."""
        mesh = build_cell_mesh(reference_profile, 24, 6)
        assert np.array_equal(mesh.grid_nodes[-1], mesh.grid_nodes[0])
        assert np.array_equal(np.unique(mesh.grid_nodes),
                              np.arange(mesh.num_nodes))
        assert mesh.num_nodes == 24 * 7
        pairs = oracles.periodic_pairs(mesh)
        left, right = pairs[:, 0], pairs[:, 1]
        nodes = oracles.nodes(mesh)
        assert np.abs(nodes[left, 1] - nodes[right, 1]).max() < 1e-12
        dx = nodes[right, 0] - nodes[left, 0]
        assert np.abs(dx - reference_profile.period).max() < 1e-12

    def test_boundary_edges_close_up(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 9, 5)
        counts = np.zeros(len(oracles.nodes(mesh)), dtype=int)
        for edges in oracles.boundary_edges(mesh).values():
            for a, b in edges:
                counts[a] += 1
                counts[b] += 1
        on_boundary = counts > 0
        assert np.all(counts[on_boundary] == 2)

    def test_too_coarse_rejected(self, flat_profile):
        with pytest.raises(ValueError):
            build_cell_mesh(flat_profile, 1, 4)

    @pytest.mark.parametrize("kind, xs, heights, eps, message", [
        ("cell", [0.0, 0.5, 0.5, 1.0], [1.0, 1.2, 0.8, 1.0], None,
         "strictly increase"),
        ("cell", [0.0, 0.5, 1.0], [1.0, -0.2, 1.0], None,
         "column 1 height -2.000e-01"),
        ("cell", [0.0, 0.5, 1.0], [1.0, 1.2, 0.8], None,
         "last column heights differ"),
        ("cell", [0.0, 1.0], [1.0, 1.0], None, "two distinct columns"),
        # the thin scaling belongs to a thin mesh, and only there
        ("cell", [0.0, 0.5, 1.0], [1.0, 1.5, 1.0], 0.5,
         "a cell mesh takes no eps, got 0.5"),
        ("thin", [0.0, 0.5, 1.0], [1.0, 1.5, 1.0], None,
         "a thin mesh needs its eps"),
        *(("thin", [0.0, 0.5, 1.0], [1.0, 1.5, 1.0], eps,
           re.escape(f"a thin mesh needs its eps in (0, 1]: {eps!r}"))
          for eps in (0.0, -0.5, float("nan"), 2.0, float("inf"))),
    ], ids=["abscissae", "height", "ends", "one_column", "eps", "thin_no_eps",
            "thin_eps_0", "thin_eps_negative", "thin_eps_nan",
            "thin_eps_above_one", "thin_eps_inf"])
    def test_bad_grid_refused(self, kind, xs, heights, eps, message):
        with pytest.raises(MeshingError, match=message) as info:
            Mesh(kind, xs, heights, 2, eps=eps)
        assert "\n" not in str(info.value)


class TestThinMesh:
    def test_flat_is_unit_square(self, flat_profile):
        mesh = build_thin_mesh(flat_profile, 0.5, 4, 4)
        assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-14)
        x1, x2 = oracles.nodes(mesh).T
        assert x1.min() == 0.0 and x1.max() == 1.0
        assert x2.max() == pytest.approx(1.0, abs=1e-14)

    def test_period_count(self, reference_profile):
        mesh = build_thin_mesh(reference_profile, 0.25, 8, 4)
        upper_nodes = np.unique(oracles.boundary_edges(mesh)["upper"])
        heights = oracles.nodes(mesh)[upper_nodes, 1]
        # four oscillations: the maximum height reappears once per period
        peaks = np.isclose(heights, reference_profile.maximum, atol=1e-12)
        assert peaks.sum() == 5   # period endpoints inclusive

    def test_area_against_quadrature_oracle(self, reference_profile):
        eps = 0.25
        mesh = build_thin_mesh(reference_profile, eps, 32, 8)
        xs = np.linspace(0.0, 1.0, 1 << 15)
        oracle = float(np.trapezoid(reference_profile.evaluate(xs / eps), xs))
        assert abs(mesh.areas.sum() - oracle) < 1e-3

    def test_tiles_exactly(self, reference_profile):
        thin = build_thin_mesh(reference_profile, 0.125, 8, 4)
        cell = build_cell_mesh(reference_profile, 8, 4)
        assert abs(thin.areas.sum() - cell.areas.sum() / reference_profile.period) < 1e-12

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


def fiber_length(mesh, value):
    """Length of one vertical fiber inside the mesh: its integral of 1."""
    ones = np.ones(mesh.num_triangles)
    return fiber_integrals(mesh, [value], ones)[0]


def random_fields(mesh, count=3):
    """Per-triangle fields of distinct random values, so that a segment
    given to the wrong triangle changes the integral."""
    rng = np.random.default_rng(7)
    return rng.uniform(-1.0, 1.0, (count, mesh.num_triangles))


class TestFiberSegments:
    def test_vertical_fiber_spans_height(self, unit_square_mesh):
        length = fiber_length(unit_square_mesh, value=0.61)
        assert length == pytest.approx(1.0, abs=1e-12)

    def test_fiber_above_domain_is_empty(self, unit_square_mesh):
        """A vertical fiber right of the domain misses it."""
        for field in random_fields(unit_square_mesh):
            fiber = fiber_integrals(unit_square_mesh, [2.0], field)
            assert fiber.shape == (1,)
            assert fiber[0] == 0.0

    def test_oscillating_fiber_length_matches_level_width(self, reference_profile):
        """The horizontal fibers of the flux identity (criterion 8) come
        from the oracle's clipper: at height h its fiber length is the
        measure of {g > h}."""
        mesh = build_cell_mesh(reference_profile, 256, 16)
        value = 1.2
        length = oracles.fiber_matrix(mesh, 1, [value]).sum()
        ys = np.linspace(0.0, 1.0, 1 << 16)
        oracle = float(np.mean(reference_profile.evaluate(ys) > value))
        assert length == pytest.approx(oracle, abs=2e-3)

    def test_field_of_another_size_refused(self, unit_square_mesh):
        field = np.ones(unit_square_mesh.num_triangles - 16)
        with pytest.raises(ValueError, match=r"\(112,\), not one per triangle"):
            fiber_integrals(unit_square_mesh, [0.5], field)

    def test_edge_aligned_fiber_is_nudged(self, unit_square_mesh):
        # column lines sit at multiples of 1/8; the fiber must not double
        # count
        length = fiber_length(unit_square_mesh, value=0.5)
        assert length == pytest.approx(1.0, abs=1e-6)


class TestFiberMatrixOracle:
    """fiber_integrals against the all-triangle clipper's operator times
    random per-triangle fields, fiber by fiber."""

    @staticmethod
    def assert_matches(mesh, values):
        values = np.asarray(values, dtype=float)
        oracle = oracles.fiber_matrix(mesh, 0, values)
        assert oracle.shape == (len(values), mesh.num_triangles)
        missed = oracle.getnnz(axis=1) == 0
        for field in random_fields(mesh):
            fibers = fiber_integrals(mesh, values, field)
            assert fibers.shape == (len(values),)
            scale = abs(oracle) @ np.abs(field)
            assert np.all(np.abs(fibers - oracle @ field) <= 1e-12 * scale)
            assert np.all(fibers[missed] == 0.0)

    @pytest.mark.parametrize("eps", [0.5, 1.0 / 64])
    def test_thin_mesh_stations(self, reference_profile, eps):
        mesh = build_thin_mesh(reference_profile, eps, 32, 16)
        stations = flux_stations(250)
        # 0.25 and 0.75 lie on column lines; so do both ends of the domain
        assert {0.25, 0.75} <= set(stations)
        self.assert_matches(mesh, np.concatenate(
            [stations, [0.0, 1.0, -0.5, 1.5]]))

    def test_flat_profile_node_rows(self, unit_square_mesh):
        """Every column line of the unit square, its sides included."""
        self.assert_matches(unit_square_mesh, np.arange(9) / 8.0)


class TestLocatePoints:
    def test_random_points_located(self, reference_profile):
        mesh = build_cell_mesh(reference_profile, 32, 8)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, 200)
        y = rng.uniform(0.0, 1.0, 200) * 0.95 * reference_profile.evaluate(x)
        tri = locate_points(mesh, np.column_stack([x, y]))
        verts = oracles.nodes(mesh)[oracles.triangles(mesh)[tri]]
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
    assert np.array_equal(oracles.nodes(back), oracles.nodes(mesh))
    assert np.array_equal(oracles.triangles(back), oracles.triangles(mesh))
    assert np.array_equal(back.grid_nodes, mesh.grid_nodes)
    assert back.domain_kind == mesh.domain_kind
    assert back.eps == mesh.eps
    for tag, edges in oracles.boundary_edges(mesh).items():
        assert np.array_equal(oracles.boundary_edges(back)[tag], edges)


@pytest.mark.parametrize("kind", ["cell", "thin"])
def test_mesh_round_trip_keeps_column_grid(tmp_path, reference_profile, kind):
    """A mesh read back from disk still carries the column grid, so fiber
    integrals and point location give what they give on the original."""
    mesh = (build_cell_mesh(reference_profile, 32, 8) if kind == "cell"
            else build_thin_mesh(reference_profile, 0.25, 8, 4))
    write_mesh(mesh, tmp_path / "mesh.txt")
    back = read_mesh(tmp_path / "mesh.txt")
    stations = np.linspace(0.0, mesh.width, 37)
    for field in random_fields(mesh):
        assert np.array_equal(fiber_integrals(back, stations, field),
                              fiber_integrals(mesh, stations, field))
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
    mesh and on its copy read back from disk (a cell's last column at its
    first), numbering num_nodes nodes, and the oracle's triangles of it
    number num_triangles.  Every array a mesh stores or caches is
    read-only."""
    sloped = ProfileSpec(period=0.5, mean=1.0, cos_coeffs=(0.1,),
                         sin_coeffs=(0.3, -0.05))
    mesh = {"cell": lambda: build_cell_mesh(reference_profile, 16, 4),
            "thin": lambda: build_thin_mesh(reference_profile, 0.25, 8, 4),
            "sin": lambda: build_thin_mesh(sloped, 0.5, 6, 3)}[kind]()
    write_mesh(mesh, tmp_path / "mesh.txt")
    rows = np.arange(mesh.grid_rows + 1) / mesh.grid_rows
    for m in (mesh, read_mesh(tmp_path / "mesh.txt")):
        assert not m.grid_nodes.flags.writeable
        node = oracles.grid_nodes(m)
        nodes, triangles = oracles.nodes(m), oracles.triangles(m)
        x, y = nodes[node].transpose(2, 0, 1)
        assert np.array_equal(x, np.broadcast_to(mesh.grid_x[:, None], x.shape))
        assert np.array_equal(y, mesh.grid_heights[:, None] * rows)
        distinct = len(m.grid_x) - (kind == "cell")
        assert m.num_nodes == distinct * (m.grid_rows + 1)
        assert np.array_equal(np.unique(m.grid_nodes), np.arange(m.num_nodes))
        assert np.array_equal(node[:distinct], m.grid_nodes[:distinct])
        assert triangles.shape == (m.num_triangles, 3)
        cached = [getattr(m, name) for name, attr in vars(Mesh).items()
                  if isinstance(attr, cached_property)]
        assert len(cached) >= 2     # both areas
        for array in (m.grid_x, m.grid_heights, *cached):
            assert not array.flags.writeable


OLD_LAYOUT = ("expected header 'index x height records=<count> key=value "
              "...', found '# oscthin mesh cell eps='")


@pytest.mark.parametrize("change, message", [
    ("old_layout", OLD_LAYOUT), ("no_grid", "at least two columns")],
    ids=["old_layout", "no_grid"])
def test_mesh_off_the_grid_refused_at_read(tmp_path, reference_profile,
                                           change, message):
    """A mesh file of an older layout (nodes, triangles, boundary edges
    and periodic pairs before the grid) is refused at its header line, in
    one line naming the file, whatever those sections hold.  So is a file
    with no column grid (as a gridless mesh was written)."""
    ring = build_cell_mesh(reference_profile, 8, 4)
    mesh = SimpleNamespace(
        nodes=oracles.nodes(ring), triangles=oracles.triangles(ring),
        boundary_edges=oracles.boundary_edges(ring),
        num_nodes=len(oracles.nodes(ring)),
        periodic_pairs=oracles.periodic_pairs(ring),
        **{name: getattr(ring, name) for name in (
            "domain_kind", "eps", "num_triangles", "grid_x", "grid_heights",
            "grid_rows")})
    if change == "no_grid":
        text = oracles.row_by_row_table_text(
            ("x", "height"), ([], []), {"kind": "cell", "rows": 0, "eps": ""})
    else:
        text = oracles.old_layout_mesh_text(mesh)
    path = tmp_path / "mesh.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        read_mesh(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "\n" not in str(info.value)


def test_mesh_file_is_header_and_grid(tmp_path, reference_profile):
    """The resolution-64 cell mesh file is the header and one line per
    column, and it reads back to the same grid."""
    mesh = build_cell_mesh(reference_profile, 256, 64)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    assert len(path.read_text().splitlines()) == len(mesh.grid_x) + 1 == 258
    back = read_mesh(path)
    for name in ("grid_x", "grid_heights", "grid_nodes"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name))
    assert (back.domain_kind, back.eps, back.grid_rows) == ("cell", None, 64)


@pytest.mark.parametrize("change, message", [
    ("short", "4 records after the header, expected 5"),
    ("cut", "record 4 is not an index and 2 numbers: '4 1.0'"),
    ("non_numeric", "record 0 is not an index and 2 numbers: '0 abc 1.5'"),
    ("extra", "6 records after the header, expected 5"),
    ("index", "record 2 has index 3"),
    ("header_only", "0 records after the header, expected 5"),
])
def test_mesh_records_refused(tmp_path, reference_profile, change, message):
    """A mesh file's grid records cut short (a line or a field missing),
    with a field that is not a number, more than the declared columns, out
    of sequence or missing altogether are refused in one line naming the
    file."""
    path = tmp_path / "mesh.txt"
    write_mesh(build_cell_mesh(reference_profile, 4, 2), path)
    lines = path.read_text().splitlines()
    if change == "short":
        lines = lines[:-1]
    elif change == "cut":
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
    elif change == "non_numeric":
        lines[1] = "0 abc 1.5"
    elif change == "extra":
        lines.append("5 1.25 1.5")
    elif change == "index":
        lines[3], lines[4] = lines[4], lines[3]
    else:
        lines = lines[:1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_mesh(path)
    assert str(info.value) == f"{path}: {message}"


# each way write_damaged_tables damages a five-record table, and the
# message (after the file name) read_table refuses it with
HEADER = "expected header 'index x height records=<count> key=value ...'"
TABLE_DAMAGE = {
    "short": "record 4 is not an index and 2 numbers: '4 1.0'",
    "non_numeric": "record 0 is not an index and 2 numbers: '0 abc 1.5'",
    "long": "record 2 is not an index and 2 numbers: '2 0.5 1.5 7'",
    "index": "record 2 has index 3",
    "count_high": "4 records after the header, expected 5",
    "count_low": "6 records after the header, expected 5",
    "header_only": "0 records after the header, expected 5",
    "no_count": f"{HEADER}, found 'index x height unit=m'",
    "names": f"{HEADER}, found 'index x h records=5 unit=m'",
    "no_equals": f"{HEADER}, found 'index x height records=5 unit'",
    "empty": f"{HEADER}, found ''",
}


def write_damaged_tables(directory):
    """A five-record ``index x height`` table with the field unit=m,
    damaged each TABLE_DAMAGE way, one file per case named after it:
    {case: path}.  Cut short in its last record or by a record, with an
    entry that is not a number, a record too long, two records swapped, a
    record repeated, nothing after the header, a header without the
    record count, with other names or with a field that is not key=value,
    or empty."""
    good = directory / "table.txt"
    write_table(good, ("x", "height"),
                (np.linspace(0.0, 1.0, 5), np.full(5, 1.5)), unit="m")
    lines = good.read_text().splitlines()
    header, records = lines[0], lines[1:]
    damaged = {
        "short": [header, *records[:-1], records[-1].rsplit(" ", 1)[0]],
        "non_numeric": [header, "0 abc 1.5", *records[1:]],
        "long": [header, *records[:2], records[2] + " 7", *records[3:]],
        "index": [header, *records[:2], records[3], records[2], records[4]],
        "count_high": [header, *records[:-1]],
        "count_low": [header, *records, records[-1]],
        "header_only": [header],
        "no_count": [header.replace(" records=5", ""), *records],
        "names": [header.replace(" height ", " h "), *records],
        "no_equals": [header.replace("unit=m", "unit"), *records],
        "empty": [],
    }
    paths = {}
    for case in TABLE_DAMAGE:
        paths[case] = directory / f"table_{case}.txt"
        paths[case].write_text("".join(f"{line}\n" for line in damaged[case]))
    return paths


@pytest.mark.parametrize("case", TABLE_DAMAGE)
def test_damaged_table_refused(tmp_path, case):
    """A damaged table is refused in one line naming the file."""
    path = write_damaged_tables(tmp_path)[case]
    with pytest.raises(ValueError) as info:
        read_table(path, ("x", "height"))
    assert str(info.value) == f"{path}: {TABLE_DAMAGE[case]}"


@pytest.mark.parametrize("old, new, message", [
    ("kind=cell", "kind=ring",
     "mesh kind must be 'cell' or 'thin', got 'ring'"),
    ("rows=2", "rows=two", "invalid literal for int() with base 10: 'two'"),
    ("rows=2", "rows=0", "one row"),
    ("eps=", "eps=abc", "could not convert string to float: 'abc'"),
    ("eps=", "eps=0.5", "a cell mesh takes no eps, got 0.5"),
    ("kind=cell", "kind=thin", "a thin mesh needs its eps"),
    ("kind=cell rows=2 eps=", "kind=thin rows=2", "a thin mesh needs its eps"),
], ids=["kind", "rows_text", "rows_zero", "eps_text", "cell_eps",
        "thin_empty_eps", "thin_no_eps"])
def test_malformed_mesh_rejected(tmp_path, reference_profile, old, new,
                                 message):
    """A mesh header whose kind, rows or eps is not of its form, or that
    Mesh refuses, is refused in one line naming the file."""
    path = tmp_path / "mesh.txt"
    write_mesh(build_cell_mesh(reference_profile, 4, 2), path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        read_mesh(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "\n" not in str(info.value)
