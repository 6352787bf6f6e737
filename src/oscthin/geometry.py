"""Oscillating boundary profiles and mapped triangular meshes.

The geometry is always one of two flavors: the representative cell
(one period of the upper-boundary profile) or the rescaled thin domain
(an integer number of periods tiling the unit interval).  Both are meshed
with the same vertical-fiber mapping: equispaced columns, each column
holding equispaced nodes between the flat bottom and the profile graph.
This keeps the left and right boundary layers identical, so a cell's
last column can be its first, and makes point location inside the mesh a
closed-form computation.  The column grid is the only form a mesh is
stored or read in: triangle_vertices states the triangle numbering, and
the fiber integrals, the barycenters and the mesh file all read the grid.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class MeshingError(RuntimeError):
    """Raised when a mesh cannot be built or fails a geometric invariant."""


# dense sampling used to bracket the profile extrema; the exact extremum is
# only needed to gate validation, not for any quadrature
_EXTREMUM_SAMPLES = 1 << 14
_EXTREMUM_ROUNDS = 3


def _fourier_eval(y, period, mean, cos_coeffs, sin_coeffs):
    y = np.asarray(y, dtype=float)
    out = np.full(y.shape, float(mean))
    w = 2.0 * np.pi / period
    for k, a in enumerate(cos_coeffs, start=1):
        if a != 0.0:
            out += a * np.cos(w * k * y)
    for k, b in enumerate(sin_coeffs, start=1):
        if b != 0.0:
            out += b * np.sin(w * k * y)
    return out


def _refine_extremum(fun, lo, hi, rounds, mode):
    """Zoom into [lo, hi] a few times and return the refined extremum."""
    pick = np.argmin if mode == "min" else np.argmax
    for _ in range(rounds):
        ys = np.linspace(lo, hi, 1025)
        vals = fun(ys)
        i = int(pick(vals))
        lo = ys[max(i - 1, 0)]
        hi = ys[min(i + 1, len(ys) - 1)]
    return float(vals[i])


@dataclass(frozen=True)
class ProfileSpec:
    """Positive periodic height profile given as a truncated Fourier series,
    evaluate(y) = mean + sum_k cos_coeffs[k-1]*cos(2 pi k y / period)
                       + sum_k sin_coeffs[k-1]*sin(2 pi k y / period).

    Such series are exactly periodic, smooth and serializable, and dense
    sampling certifies their positivity: ``minimum`` and ``maximum`` are
    computed at construction, which fails unless the minimum is positive.
    """

    period: float
    mean: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    minimum: float = field(init=False, default=0.0)
    maximum: float = field(init=False, default=0.0)

    def __post_init__(self):
        if not np.isfinite(self.period) or self.period <= 0.0:
            raise ValueError(f"profile period must be positive, got {self.period}")
        object.__setattr__(self, "cos_coeffs", tuple(float(a) for a in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(b) for b in self.sin_coeffs))
        if not np.all(np.isfinite([self.mean, *self.cos_coeffs, *self.sin_coeffs])):
            raise ValueError("profile mean and coefficients must be finite")
        h = self.period / _EXTREMUM_SAMPLES
        ys = np.arange(_EXTREMUM_SAMPLES) * h
        vals = self.evaluate(ys)
        gmin, gmax = (_refine_extremum(self.evaluate, ys[i] - h, ys[i] + h,
                                       _EXTREMUM_ROUNDS, mode)
                      for i, mode in ((int(np.argmin(vals)), "min"),
                                      (int(np.argmax(vals)), "max")))
        object.__setattr__(self, "minimum", gmin)
        object.__setattr__(self, "maximum", gmax)
        if gmin <= 0.0:
            raise ValueError(
                f"profile must stay positive: sampled minimum {gmin:.6g} <= 0")

    def evaluate(self, y):
        """Height of the profile at abscissa ``y`` (scalar or array)."""
        return _fourier_eval(y, self.period, self.mean,
                             self.cos_coeffs, self.sin_coeffs)


class Mesh:
    """Conforming triangulation of the cell or of the rescaled thin domain,
    stored as its column grid: column i at abscissa grid_x[i] holds
    grid_rows + 1 equispaced nodes from x2 = 0 up to grid_heights[i].

    grid_nodes   (nx+1, ny+1) int array, the node at column i, row j
    domain_kind  "cell" or "thin"
    eps          a thin mesh's oscillation parameter in (0, 1], which
                 scales its gradient to (d1, d2/eps); None on a cell

    No node or triangle table is kept (triangle_vertices states the
    triangle numbering); column_areas and areas are cached on first read.
    Every array is read-only.

    Node (i, j) has index slot[i]*(ny+1) + j.  Thin meshes keep column
    order (slot[i] = i, jacobian half-bandwidth ny + 2).  A cell mesh is
    periodic: its last column is its first (slot[nx] = slot[0] = 0), so
    it has nx*(ny+1) nodes and a periodic nodal field is an ordinary
    one.  It numbers the other columns around the ring, 1, nx-1, 2,
    nx-2, ...: ring neighbours sit at most two slots apart (half-bandwidth
    2*(ny+1) + 1), where column order would couple column 0 to column
    nx-1 across the whole matrix.  Meshes are immutable after
    construction and safe for concurrent reads.
    """

    def __init__(self, domain_kind, grid_x, grid_heights, grid_rows,
                 eps=None):
        xs = np.array(grid_x, dtype=float)
        heights = np.array(grid_heights, dtype=float)
        ny = int(grid_rows)
        nx = len(xs) - 1
        if domain_kind not in ("cell", "thin"):
            raise MeshingError(
                f"mesh kind must be 'cell' or 'thin', got {domain_kind!r}")
        if xs.ndim != 1 or xs.shape != heights.shape or nx < 1 or ny < 1:
            raise MeshingError("a column grid needs at least two columns, "
                               "one height per column and one row")
        if not (np.isfinite(xs).all() and np.all(np.diff(xs) > 0.0)):
            raise MeshingError(
                "column abscissae must be finite and strictly increase")
        bad = ~(np.isfinite(heights) & (heights > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise MeshingError(
                f"column {i} height {heights[i]:.3e} is not finite and positive")
        if heights[0] != heights[nx]:
            raise MeshingError(
                f"first and last column heights differ ({heights[0]!r}, "
                f"{heights[nx]!r}): the periodic domain needs them equal")
        slot = np.arange(nx + 1)
        if domain_kind == "cell":
            if nx < 2:
                raise MeshingError("a cell mesh needs at least two distinct "
                                   "columns")
            if eps is not None:
                raise MeshingError(f"a cell mesh takes no eps, got {eps!r}")
            slot = np.where(2 * slot <= nx, 2 * slot - 1, 2 * (nx - slot))
            slot[0] = slot[nx] = 0
        elif eps is None or not 0.0 < eps <= 1.0:   # NaN fails too
            raise MeshingError(f"a thin mesh needs its eps in (0, 1]: {eps!r}")
        node = slot[:, None] * (ny + 1) + np.arange(ny + 1)
        self.domain_kind, self.eps = domain_kind, eps
        self.grid_x, self.grid_heights, self.grid_rows = xs, heights, ny
        self.grid_nodes = node
        for arr in (xs, heights, node):
            arr.flags.writeable = False

    @property
    def num_nodes(self):
        """Distinct nodes: a cell's last column is not counted again."""
        return (self.grid_nodes.size
                - (self.domain_kind == "cell") * (self.grid_rows + 1))

    @property
    def num_triangles(self):
        return 2 * (self.grid_nodes.shape[0] - 1) * self.grid_rows

    def grid_coordinates(self):
        """Coordinates x1 and x2 of the nodes on the grid transposed, row
        by row with the columns last (ny+1, nx+1): at [j, i] column i's
        abscissa and row j of ny equal rows up to the column's height."""
        rows = (np.arange(self.grid_rows + 1) / self.grid_rows)[:, None]
        return (np.broadcast_to(self.grid_x, (len(rows), len(self.grid_x))),
                self.grid_heights * rows)

    @property
    def width(self):
        """Horizontal extent of the domain (period for cells, 1 for thin)."""
        return float(self.grid_x[-1] - self.grid_x[0])

    @cached_property
    def column_areas(self):
        """Lower and upper triangle area of the quads of each column, (2, nx):
        dx h_{i+1}/(2 ny) and dx h_i/(2 ny), the same in every row."""
        heights = np.stack([self.grid_heights[1:], self.grid_heights[:-1]])
        areas = np.diff(self.grid_x) * heights / (2.0 * self.grid_rows)
        areas.flags.writeable = False
        return areas

    def per_triangle(self, v):
        """Values v (nx, 2) of each column's lower and upper half, the same
        in every row, spread to triangle order 2(i*ny + j) + h, (T,)."""
        return np.broadcast_to(v[:, None, :],
                               (len(v), self.grid_rows, 2)).reshape(-1)

    @cached_property
    def areas(self):
        """Triangle areas (T,) from column_areas, positive by orientation."""
        areas = self.per_triangle(self.column_areas.T)
        areas.flags.writeable = False
        return areas

    def barycenter_abscissae(self):
        """Barycenter abscissa of each column's lower (ll, lr, ur) and upper
        (ll, ur, ul) triangle, (nx, 2), the same in every row: the vertex
        sum in that order over 3, equal to the mean of the nodes bit for bit."""
        a, b = self.grid_x[:-1], self.grid_x[1:]
        return np.stack([a + b + b, a + b + a], axis=-1) / 3.0

    def barycenter_heights(self):
        """Barycenter height of every triangle (T,) in triangle order, by
        the same vertex sums over the node heights of grid_coordinates."""
        g = self.grid_coordinates()[1].T
        ll, lr, ur, ul = g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]
        return np.stack([ll + lr + ur, ll + ur + ul], axis=-1).ravel() / 3.0


def triangle_vertices(mesh, tris, axis):
    """Coordinate axis (0: x1, 1: x2) of the vertices of triangles tris,
    (len(tris), 3), read from grid_coordinates: triangle 2(i*ny + j) + h
    of quad (i, j) is its lower half ll, lr, ur for h = 0 and its upper
    half ll, ur, ul for h = 1 (split along the ll-ur diagonal, positively
    oriented)."""
    g = mesh.grid_coordinates()[axis]
    q, h = np.divmod(tris, 2)
    i, j = np.divmod(q, mesh.grid_rows)
    return np.stack([g[j, i], g[j + h, i + 1], g[j + 1, i + 1 - h]], axis=-1)


def build_cell_mesh(spec, nx, ny):
    """Mesh one period of the profile: columns in [0, period], rows up to
    g; the last column, the first one's periodic image, takes its height
    exactly."""
    if nx < 2 or ny < 2:
        raise ValueError("cell mesh needs nx >= 2 and ny >= 2")
    xs = np.arange(nx + 1) * (spec.period / nx)
    xs[-1] = spec.period
    heights = np.asarray(spec.evaluate(np.arange(nx + 1) * (spec.period / nx)))
    heights[-1] = heights[0]
    return Mesh("cell", xs, heights, ny)


def tiling_periods(spec, eps):
    """Whole profile periods m in the unit interval at eps: eps in (0, 1]
    (else ValueError) equal to 1/(m*period), m integer (else MeshingError)."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    m_real = 1.0 / (eps * spec.period)
    m = int(round(m_real))
    if m < 1 or abs(m_real - m) > 1e-9 * max(1.0, m_real):
        raise MeshingError(
            f"eps={eps!r} does not tile (0,1): it must equal 1/(m*L) with "
            f"integer m >= 1 and L={spec.period!r} so that whole periods of "
            "the oscillation fit the unit interval (3.0 periods, say, would "
            "leave a partial cell at the right end)")
    return m


def build_thin_mesh(spec, eps, nx_per_period, ny):
    """Mesh the rescaled thin domain: unit interval, height g(x1/eps).
    eps must tile the unit interval (tiling_periods), and the mesh is then
    the exact m-fold concatenation of one period's column pattern."""
    m = tiling_periods(spec, eps)
    if nx_per_period < 2 or ny < 2:
        raise ValueError("thin mesh needs nx_per_period >= 2 and ny >= 2")
    phases = np.arange(nx_per_period + 1) * (spec.period / nx_per_period)
    column_heights = np.asarray(spec.evaluate(phases))
    column_heights[-1] = column_heights[0]
    nx = m * nx_per_period
    xs = np.arange(nx + 1) / nx
    xs[-1] = 1.0
    heights = np.concatenate(
        [np.tile(column_heights[:-1], m), column_heights[:1]])
    return Mesh("thin", xs, heights, ny, eps=eps)


def mesh_area(mesh):
    """Total area of the triangulation (the discrete domain measure)."""
    return float(mesh.areas.sum())


def fiber_integrals(mesh, axis, values, field):
    """Integral of the per-triangle field (T,) along each line
    {x[axis] == values[k]} inside the mesh, zero for a line that misses
    it; a field of another shape raises ValueError.  A vertical fiber
    (axis 0) crosses the lower triangles of one column with one length and
    the upper ones with another, so it is two column sums of the field; a
    horizontal one (axis 1) meets a band of rows per column, which alone
    is clipped against the vertices triangle_vertices reads.  A value on a
    mesh line is shifted once by 1e-9 times the largest of |value| and the
    coordinates of the triangles it touches (fiber integrals are defined
    up to sets of measure zero, so the nearby generic fiber is equivalent).
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    field = np.asarray(field, dtype=float)
    if field.shape != (mesh.num_triangles,):
        raise ValueError(f"field of shape {field.shape}, not one per triangle")
    if axis == 1:
        rows, tris, lengths = _horizontal_fibers(mesh, values)
        return np.bincount(rows, lengths * field[tris], minlength=len(values))
    xs, hs, ny = mesh.grid_x, mesh.grid_heights, mesh.grid_rows
    k = np.minimum(np.searchsorted(xs, values), len(xs) - 1)
    # abscissae are nonnegative and increasing, so line k+1 carries the
    # largest coordinate of the columns that touch line k
    xv = values + (xs[k] == values) * 1e-9 * xs[np.minimum(k + 1, len(xs) - 1)]
    inside = np.flatnonzero((xs[0] < xv) & (xv < xs[-1]))
    i = np.searchsorted(xs, xv[inside]) - 1
    f = (xv[inside] - xs[i]) / (xs[i + 1] - xs[i])
    # the field summed over the rows of each column half (triangle
    # 2(i*ny + j) + h), times the lengths f*h[i+1]/ny and (1-f)*h[i]/ny
    lower, upper = field.reshape(-1, ny, 2).sum(axis=1)[i].T
    out = np.zeros(len(xv))
    out[inside] = (f * hs[i + 1] * lower + (1.0 - f) * hs[i] * upper) / ny
    return out


def _horizontal_fibers(mesh, levels):
    for shifted in (False, True):
        rows, tris, y = _level_candidates(mesh, levels)
        s = y - levels[rows, None]
        flat = (s == 0.0).sum(axis=1) >= 2      # an edge lies on the level
        if not flat.any():
            break
        if shifted:
            raise MeshingError(
                f"fiber at {levels[rows[flat][0]]!r} lies on a mesh edge")
        reach = np.maximum(np.abs(levels), 1e-30)
        np.maximum.at(reach, rows, np.abs(y).max(axis=1))
        levels = np.where(np.isin(np.arange(len(levels)), rows[flat]),
                          levels + 1e-9 * reach, levels)
    # the segment spans the points where the level meets the edges; fmin and
    # fmax skip the NaN of the edges it does not meet
    x = triangle_vertices(mesh, tris, 0)
    left = right = np.full(len(tris), np.nan)
    for k in range(3):
        s0, s1 = s[:, k], s[:, k - 1]
        t = s0 / np.where((s0 * s1 <= 0.0) & (s0 != s1), s0 - s1, np.nan)
        pt = x[:, k] + t * (x[:, k - 1] - x[:, k])
        left, right = np.fmin(left, pt), np.fmax(right, pt)
    keep = right > left
    return rows[keep], tris[keep], (right - left)[keep]


def _level_candidates(mesh, levels):
    """(level, triangle) pairs whose triangle spans the level, with the
    triangle's vertex heights.  In column i the level h meets only rows
    floor(h*ny/max(h_i, h_i+1)) to floor(h*ny/min(h_i, h_i+1)); one row of
    slack on each side absorbs roundoff before the exact span test."""
    hs, ny = mesh.grid_heights, mesh.grid_rows
    scaled = levels[:, None] * ny
    lo = np.maximum(np.floor(scaled / np.maximum(hs[:-1], hs[1:])) - 1, 0)
    hi = np.minimum(np.floor(scaled / np.minimum(hs[:-1], hs[1:])) + 1, ny - 1)
    # quad q = i*ny + j holds triangles 2q and 2q+1, so a band is one range
    first = (2 * (np.arange(len(hs) - 1) * ny + lo)).astype(np.int64).ravel()
    count = np.maximum(2 * (hi - lo + 1), 0).astype(np.int64).ravel()
    pair = np.repeat(np.arange(count.size), count)
    tris = (first[pair] + np.arange(pair.size)
            - np.repeat(np.cumsum(count) - count, count))
    rows = pair // (len(hs) - 1)
    y = triangle_vertices(mesh, tris, 1)
    h = levels[rows]
    keep = ((np.fmin(np.fmin(y[:, 0], y[:, 1]), y[:, 2]) <= h)
            & (h <= np.fmax(np.fmax(y[:, 0], y[:, 1]), y[:, 2])))
    return rows[keep], tris[keep], y[keep]


def locate_points(mesh, points):
    """Containing triangle of each point in closed form: column i by
    searchsorted, f the fraction across it, h = (1-f) h_i + f h_{i+1},
    row j = floor(y ny / h), and the upper half of quad (i, j) iff
    y ny - j h > f h_{i+1} (above its ll-ur diagonal).  A point outside the
    domain (by a relative 1e-9 in height) raises MeshingError naming it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = pts[:, 0], pts[:, 1]
    xs, hs, ny = mesh.grid_x, mesh.grid_heights, mesh.grid_rows
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    f = (x - xs[i]) / (xs[i + 1] - xs[i])
    h = (1.0 - f) * hs[i] + f * hs[i + 1]
    bad = np.flatnonzero(~((xs[0] <= x) & (x <= xs[-1]) & (-1e-9 * h <= y)
                           & (y <= (1.0 + 1e-9) * h)))
    if bad.size:
        raise MeshingError(
            f"point ({x[bad[0]]!r}, {y[bad[0]]!r}) lies outside the "
            f"{mesh.domain_kind} mesh (geometric mismatch between meshes)")
    j = np.clip(np.floor(y * ny / h), 0, ny - 1).astype(np.int64)
    upper = y * ny - j * h > f * hs[i + 1]
    return 2 * (i * ny + j) + upper


# rows per formatted chunk of write_table
_CHUNK = 2048


def write_table(path, names, columns, **meta):
    """Write equal-length float array columns, one per name, to path as a
    table: a header ``index``, the names, ``records=<count>`` and
    ``key=value`` per meta item, then per row its index and entries, space
    separated, each by repr (which round-trips).  Columns are
    formatted and written _CHUNK rows at a time, in bounded memory.
    Columns of unequal length, or not one per name, raise ValueError
    before the file is opened."""
    n = len(columns[0])
    if len(columns) != len(names) or any(len(col) != n for col in columns):
        raise ValueError(f"{len(names)} names for record columns of "
                         f"lengths {[len(col) for col in columns]}")
    fields = [f"records={n}", *(f"{key}={value}" for key, value in meta.items())]
    with open(path, "w") as fh:
        fh.write(" ".join(["index", *names, *fields]) + "\n")
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            parts = [map(str, range(start, stop)),
                     *(map(repr, col[start:stop].tolist()) for col in columns)]
            fh.write("\n".join(map(" ".join, zip(*parts))) + "\n")


def read_table(path, names):
    """Read a table written by write_table with these column names:
    (data, meta), the records' numbers (n, len(names)) without the index
    and the header's other fields as strings.  A header of other names, a
    field that is not key=value, no records=<count> or a count other than
    the records', or a record other than its index and a number per name
    raises a one-line ValueError naming path."""
    with open(path) as fh:
        header = fh.readline().split()
        rows = [line.split() for line in fh if line.strip()]
    lead = ["index", *names]
    fields = [token.partition("=") for token in header[len(lead):]]
    meta = {key: value for key, _, value in fields}
    count = meta.pop("records", "")
    if (header[:len(lead)] != lead or not count.isdecimal()
            or not all(key and sep for key, sep, _ in fields)):
        raise ValueError(f"{path}: expected header '{' '.join(lead)} records="
                         f"<count> key=value ...', found {' '.join(header)!r}")
    if len(rows) != int(count):
        raise ValueError(f"{path}: {len(rows)} records after the header, "
                         f"expected {count}")
    data = np.empty((len(rows), len(names)))
    for k, row in enumerate(rows):
        try:
            if len(row) != len(lead):
                raise ValueError
            data[k] = row[1:]
        except ValueError:
            raise ValueError(f"{path}: record {k} is not an index and "
                             f"{len(names)} numbers: {' '.join(row)!r}") from None
        if row[0] != str(k):
            raise ValueError(f"{path}: record {k} has index {row[0]}")
    return data, meta


def write_mesh(mesh, path):
    """Table export of the column grid; see read_mesh for the format."""
    write_table(path, ("x", "height"), (mesh.grid_x, mesh.grid_heights),
                kind=mesh.domain_kind, rows=mesh.grid_rows,
                eps="" if mesh.eps is None else repr(mesh.eps))


def read_mesh(path):
    """Read a mesh written by write_mesh: a table of one ``index x height``
    record per grid column, with fields kind, rows and eps (empty on a
    cell).  What read_table or Mesh refuses, or rows or eps not a number
    (a missing field reads as empty), raises a ValueError naming the file."""
    grid, meta = read_table(path, ("x", "height"))
    kind, rows, eps = (meta.get(key, "") for key in ("kind", "rows", "eps"))
    try:
        return Mesh(kind, grid[:, 0], grid[:, 1], int(rows),
                    eps=float(eps) if eps else None)
    except (ValueError, MeshingError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
