"""Oscillating boundary profiles and mapped triangular meshes.

The geometry is always one of two flavors: the representative cell
(one period of the upper-boundary profile) or the rescaled thin domain
(an integer number of periods tiling the unit interval).  Both are meshed
with the same vertical-fiber mapping: equispaced columns, each column
holding equispaced nodes between the flat bottom and the profile graph.
This keeps the left and right boundary layers identical, so periodic node
pairing is exact, and makes point location inside the mesh a closed-form
computation.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse


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
    """Positive periodic height profile given as a truncated Fourier series.

    evaluate(y) = mean + sum_k cos_coeffs[k-1]*cos(2 pi k y / period)
                       + sum_k sin_coeffs[k-1]*sin(2 pi k y / period)

    Truncated series are exactly periodic and smooth, and their positivity
    can be certified by dense sampling; arbitrary callables are rejected so
    profiles stay serializable.  ``minimum`` and ``maximum`` are computed at
    construction and construction fails unless the minimum is positive.
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
        ys = np.arange(_EXTREMUM_SAMPLES) * (self.period / _EXTREMUM_SAMPLES)
        vals = self.evaluate(ys)
        imin = int(np.argmin(vals))
        imax = int(np.argmax(vals))
        h = self.period / _EXTREMUM_SAMPLES
        gmin = _refine_extremum(self.evaluate, ys[imin] - h, ys[imin] + h,
                                _EXTREMUM_ROUNDS, "min")
        gmax = _refine_extremum(self.evaluate, ys[imax] - h, ys[imax] + h,
                                _EXTREMUM_ROUNDS, "max")
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
    """Conforming triangulation of the cell or of the rescaled thin domain.

    nodes          (n, 2) float array
    triangles      (t, 3) int array, positively oriented
    boundary_edges dict tag -> (m, 2) int array, tags lower/upper/left/right
    periodic_pairs (k, 2) int array of matching (left, right) node indices
    domain_kind    "cell" or "thin"
    eps            oscillation parameter for thin meshes, None for cell meshes

    Meshes are immutable after construction and safe for concurrent reads.
    The column grid used by the mapped construction is retained
    (``grid_x``, ``grid_heights``, ``grid_rows``) so points can be located
    without a search structure.
    """

    def __init__(self, nodes, triangles, boundary_edges, periodic_pairs,
                 domain_kind, eps=None, grid_x=None, grid_heights=None,
                 grid_rows=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = {
            tag: np.ascontiguousarray(e, dtype=np.int64)
            for tag, e in boundary_edges.items()
        }
        self.periodic_pairs = np.ascontiguousarray(periodic_pairs, dtype=np.int64)
        self.domain_kind = domain_kind
        self.eps = eps
        self.grid_x = None if grid_x is None else np.asarray(grid_x, dtype=float)
        self.grid_heights = (None if grid_heights is None
                             else np.asarray(grid_heights, dtype=float))
        self.grid_rows = grid_rows
        self._validate()
        for arr in (self.nodes, self.triangles, self.periodic_pairs):
            arr.flags.writeable = False

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def width(self):
        """Horizontal extent of the domain (period for cells, 1 for thin)."""
        return float(self.nodes[:, 0].max() - self.nodes[:, 0].min())

    @cached_property
    def areas(self):
        """Signed triangle areas; positive by the orientation invariant."""
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def node_weights(self):
        """Lumped P1 masses: integral of each nodal hat function (exact)."""
        w = np.zeros(self.num_nodes)
        third = self.areas / 3.0
        for k in range(3):
            np.add.at(w, self.triangles[:, k], third)
        return w

    def barycenters(self):
        # vertex by vertex: the same sums as a mean over the (T, 3, 2)
        # gather, about four times faster on large meshes
        nodes, tri = self.nodes, self.triangles.T
        return (nodes[tri[0]] + nodes[tri[1]] + nodes[tri[2]]) / 3.0

    def weighted_mean(self, u):
        """Mesh-weighted mean of a nodal field (exact for P1 interpolants)."""
        return float(self.node_weights @ np.asarray(u)) / float(self.areas.sum())

    def _validate(self):
        areas = self.areas
        bad = np.flatnonzero(areas <= 0.0)
        if bad.size:
            t = int(bad[0])
            msg = f"triangle {t} has non-positive area {areas[t]:.3e}"
            if self.grid_rows:
                msg += f" (column {t // (2 * self.grid_rows)})"
            raise MeshingError(msg)
        pairs = self.periodic_pairs
        if pairs.size:
            left, right = pairs[:, 0], pairs[:, 1]
            if (len(np.unique(left)) != len(left)
                    or len(np.unique(right)) != len(right)):
                raise MeshingError("periodic pairing is not a bijection")
            dy = np.abs(self.nodes[left, 1] - self.nodes[right, 1])
            if dy.max() > 1e-12:
                raise MeshingError(
                    f"periodic pair x2 mismatch up to {dy.max():.3e}")
            dx = self.nodes[right, 0] - self.nodes[left, 0]
            if np.abs(dx - self.width).max() > 1e-12:
                raise MeshingError("periodic pair x1 offsets differ from width")


def _mapped_grid(xs, heights, ny, domain_kind, eps=None):
    """Triangulate the region between x2=0 and the per-column heights.

    Columns are the given abscissae; each column holds ny+1 equispaced
    nodes up to its height.  Node (i, j) gets index slot[i]*(ny+1) + j and
    grid quad q = i*ny + j is split along its lower-left/upper-right
    diagonal into triangles 2q, 2q+1.  Thin meshes keep column order
    (slot[i] = i, jacobian half-bandwidth ny + 2).  Cell meshes number
    columns around the ring, 0, 1, nx-1, 2, nx-2, ..., the periodic copy of
    column 0 last: after the periodic fold ring neighbours sit at most two
    slots apart (half-bandwidth 2*(ny+1) + 1), where column order would
    couple column 0 to column nx-1 across the whole matrix.
    """
    xs = np.asarray(xs, dtype=float)
    heights = np.asarray(heights, dtype=float)
    nx = len(xs) - 1
    if np.any(heights <= 0.0):
        i = int(np.argmin(heights))
        raise MeshingError(f"column {i} has non-positive height {heights[i]:.3e}")

    slot = np.arange(nx + 1)
    if domain_kind == "cell":
        slot = np.where(2 * slot <= nx, 2 * slot - 1, 2 * (nx - slot))
        slot[0], slot[nx] = 0, nx
    order = np.argsort(slot)
    jj = np.arange(ny + 1) / ny
    node_x = np.repeat(xs[order], ny + 1)
    node_y = (heights[order, None] * jj[None, :]).ravel()
    nodes = np.column_stack([node_x, node_y])

    idx = lambda i, j: slot[i] * (ny + 1) + j
    ii, jq = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ll = idx(ii, jq).ravel()
    lr = idx(ii + 1, jq).ravel()
    ul = ll + 1
    ur = lr + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    cols = np.arange(nx)
    rows = np.arange(ny)
    boundary_edges = {
        "lower": np.column_stack([idx(cols, 0), idx(cols + 1, 0)]),
        "upper": np.column_stack([idx(cols + 1, ny), idx(cols, ny)]),
        "left": np.column_stack([idx(0, rows + 1), idx(0, rows)]),
        "right": np.column_stack([idx(nx, rows), idx(nx, rows + 1)]),
    }
    periodic_pairs = np.column_stack(
        [idx(0, np.arange(ny + 1)), idx(nx, np.arange(ny + 1))])
    return Mesh(nodes, triangles, boundary_edges, periodic_pairs,
                domain_kind, eps=eps, grid_x=xs, grid_heights=heights,
                grid_rows=ny)


def build_cell_mesh(spec, nx, ny):
    """Mesh one period of the profile: columns in [0, period], rows up to g.

    The first and last column heights are identified exactly (periodicity),
    so the periodic node pairing matches to machine precision.
    """
    if nx < 2 or ny < 2:
        raise ValueError("cell mesh needs nx >= 2 and ny >= 2")
    xs = np.arange(nx + 1) * (spec.period / nx)
    xs[-1] = spec.period
    heights = np.asarray(spec.evaluate(np.arange(nx + 1) * (spec.period / nx)))
    heights[-1] = heights[0]
    return _mapped_grid(xs, heights, ny, "cell")


def build_thin_mesh(spec, eps, nx_per_period, ny):
    """Mesh the rescaled thin domain: unit interval, height g(x1/eps).

    eps must equal 1/(m*period) for an integer m, so that an integer number
    of profile periods tiles (0, 1); the mesh is then the exact m-fold
    concatenation of one period's column pattern.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if nx_per_period < 2 or ny < 2:
        raise ValueError("thin mesh needs nx_per_period >= 2 and ny >= 2")
    m_real = 1.0 / (eps * spec.period)
    m = int(round(m_real))
    if m < 1 or abs(m_real - m) > 1e-9 * max(1.0, m_real):
        raise MeshingError(
            f"eps={eps!r} does not tile (0,1): it must equal 1/(m*L) with "
            f"integer m >= 1 and L={spec.period!r} so that whole periods of "
            "the oscillation fit the unit interval (3.0 periods, say, would "
            "leave a partial cell at the right end)")
    phases = np.arange(nx_per_period + 1) * (spec.period / nx_per_period)
    column_heights = np.asarray(spec.evaluate(phases))
    column_heights[-1] = column_heights[0]
    nx = m * nx_per_period
    xs = np.arange(nx + 1) / nx
    xs[-1] = 1.0
    heights = np.concatenate(
        [np.tile(column_heights[:-1], m), column_heights[:1]])
    return _mapped_grid(xs, heights, ny, "thin", eps=eps)


def folded_half_bandwidth(mesh):
    """Half-bandwidth of the P1 node coupling once each periodic copy is
    folded onto its source and dropped from the numbering, as the periodic
    reduction of the jacobian does.  Ring-ordered cell columns (see
    _mapped_grid) give 2*grid_rows + 3; column order would give about
    nx*(grid_rows + 1)."""
    source, copy = mesh.periodic_pairs.T
    keep = np.ones(mesh.num_nodes, dtype=bool)
    keep[copy] = False
    index = np.cumsum(keep) - 1
    index[copy] = index[source]
    t = index[mesh.triangles]
    return int((t.max(axis=1) - t.min(axis=1)).max())


def mesh_area(mesh):
    """Total area of the triangulation (the discrete domain measure)."""
    return float(mesh.areas.sum())


def fiber_matrix(mesh, axis, values):
    """CSR operator whose entry (k, t) is the length of the line
    {x[axis] == values[k]} inside triangle t: its product with a per-triangle
    field integrates the field along each fiber.

    The column grid fixes what a fiber meets: a vertical one (axis 0) the
    2*grid_rows triangles of one column, in closed form; a horizontal one
    (axis 1) a band of rows per column, which alone is clipped.  A value on
    a mesh line is shifted once by 1e-9 times the largest of |value| and the
    coordinates of the triangles it touches (fiber integrals are defined up
    to sets of measure zero, so the nearby generic fiber is equivalent).
    """
    if mesh.grid_x is None:
        raise MeshingError("mesh carries no column grid; cannot build fibers")
    values = np.atleast_1d(np.asarray(values, dtype=float))
    fibers = _vertical_fibers if axis == 0 else _horizontal_fibers
    rows, tris, lengths = fibers(mesh, values)
    return sparse.csr_matrix((lengths, (rows, tris)),
                             shape=(len(values), mesh.num_triangles))


def _vertical_fibers(mesh, xv):
    xs, hs, ny = mesh.grid_x, mesh.grid_heights, mesh.grid_rows
    k = np.minimum(np.searchsorted(xs, xv), len(xs) - 1)
    # abscissae are nonnegative and increasing, so line k+1 carries the
    # largest coordinate of the columns that touch line k
    xv = xv + (xs[k] == xv) * 1e-9 * xs[np.minimum(k + 1, len(xs) - 1)]
    inside = np.flatnonzero((xs[0] < xv) & (xv < xs[-1]))
    i = np.searchsorted(xs, xv[inside]) - 1
    f = ((xv[inside] - xs[i]) / (xs[i + 1] - xs[i]))[:, None]
    # in each quad the lower triangle holds f*h[i+1]/ny, the upper (1-f)*h[i]/ny
    lengths = np.where(np.arange(2 * ny) % 2 == 0, f * hs[i + 1, None],
                       (1.0 - f) * hs[i, None]) / ny
    tris = 2 * ny * i[:, None] + np.arange(2 * ny)
    return np.repeat(inside, 2 * ny), tris.ravel(), lengths.ravel()


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
    x = mesh.nodes[mesh.triangles[tris], 0]
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
    y = mesh.nodes[mesh.triangles[tris], 1]
    h = levels[rows]
    keep = ((np.fmin(np.fmin(y[:, 0], y[:, 1]), y[:, 2]) <= h)
            & (h <= np.fmax(np.fmax(y[:, 0], y[:, 1]), y[:, 2])))
    return rows[keep], tris[keep], y[keep]


def locate_points(mesh, points):
    """Containing triangle for each point of a mapped-grid mesh.

    Uses the column grid for a direct lookup, then verifies containment via
    barycentric coordinates (with a small relative slack for points on
    shared edges).  Raises MeshingError listing the first point that falls
    outside every candidate triangle.
    """
    if mesh.grid_x is None:
        raise MeshingError("mesh carries no column grid; cannot locate points")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xs, hs, ny = mesh.grid_x, mesh.grid_heights, mesh.grid_rows
    nx = len(xs) - 1
    i = np.clip(np.searchsorted(xs, pts[:, 0], side="right") - 1, 0, nx - 1)
    frac = (pts[:, 0] - xs[i]) / (xs[i + 1] - xs[i])
    h_here = (1.0 - frac) * hs[i] + frac * hs[i + 1]
    j = np.clip((pts[:, 1] * ny / h_here).astype(np.int64), 0, ny - 1)

    result = np.full(len(pts), -1, dtype=np.int64)
    tol = 1e-9
    # diagonal-split guess first, then each neighbor quad (float roundoff can
    # push a point across a row or column boundary)
    for di, dj in ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)):
        if np.all(result >= 0):
            break
        for half in (0, 1):
            still = np.flatnonzero(result < 0)
            if still.size == 0:
                break
            qi = np.clip(i[still] + di, 0, nx - 1)
            qj = np.clip(j[still] + dj, 0, ny - 1)
            t = 2 * (qi * ny + qj) + half
            v = mesh.nodes[mesh.triangles[t]]
            ok = _bary_min(v, pts[still]) >= -tol
            result[still[ok]] = t[ok]
    bad = np.flatnonzero(result < 0)
    if bad.size:
        x, y = pts[bad[0]]
        raise MeshingError(
            f"point ({x!r}, {y!r}) lies outside every candidate cell "
            "triangle (geometric mismatch between meshes)")
    return result


def _bary_min(v, p):
    """Smallest barycentric coordinate of points p in triangles v, scaled."""
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = p - v[:, 0]
    l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
    return np.minimum(np.minimum(l1, l2), 1.0 - l1 - l2)


def write_mesh(mesh, path):
    """Structured-text mesh export; see read_mesh for the exact format."""
    with open(path, "w") as fh:
        fh.write(f"# oscthin mesh {mesh.domain_kind}"
                 f" eps={'' if mesh.eps is None else repr(mesh.eps)}\n")
        fh.write(f"# nodes {mesh.num_nodes}\n")
        for k, (x, y) in enumerate(mesh.nodes):
            fh.write(f"{k} {float(x)!r} {float(y)!r}\n")
        fh.write(f"# triangles {mesh.num_triangles}\n")
        for k, (a, b, c) in enumerate(mesh.triangles):
            fh.write(f"{k} {a} {b} {c}\n")
        n_edges = sum(len(e) for e in mesh.boundary_edges.values())
        fh.write(f"# boundary_edges {n_edges}\n")
        k = 0
        for tag in ("lower", "upper", "left", "right"):
            for a, b in mesh.boundary_edges.get(tag, ()):
                fh.write(f"{k} {a} {b} {tag}\n")
                k += 1
        fh.write(f"# periodic_pairs {len(mesh.periodic_pairs)}\n")
        for k, (a, b) in enumerate(mesh.periodic_pairs):
            fh.write(f"{k} {a} {b}\n")
        xs = () if mesh.grid_x is None else mesh.grid_x
        fh.write(f"# grid {len(xs)} {mesh.grid_rows or 0}\n")
        for k, x in enumerate(xs):
            fh.write(f"{k} {float(x)!r} {float(mesh.grid_heights[k])!r}\n")


def read_mesh(path):
    """Read a mesh written by write_mesh.

    Format: a header line ``# oscthin mesh <kind> eps=<eps or empty>``,
    then sections each introduced by ``# <name> <count>`` with one record
    per line: nodes ``index x y``, triangles ``index a b c``,
    boundary_edges ``index a b tag``, periodic_pairs ``index a b`` and the
    column grid, ``# grid <columns> <rows>``, ``index x height``.  A header
    or section line out of place raises ValueError.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if header[:3] != ["#", "oscthin", "mesh"] or len(header) != 5:
            raise ValueError(f"{path}: expected header '# oscthin mesh "
                             f"<kind> eps=...', found {' '.join(header)!r}")
        kind = header[3]
        eps_txt = header[4].split("=", 1)[1]
        eps = float(eps_txt) if eps_txt else None

        def section(name):
            line = fh.readline().split()
            if line[:2] != ["#", name]:
                raise ValueError(f"{path}: expected section '# {name}', "
                                 f"found {' '.join(line) or 'end of file'!r}")
            return [int(v) for v in line[2:]]

        nodes = np.array([fh.readline().split()[1:3]
                          for _ in range(section("nodes")[0])], dtype=float)
        tris = np.array([fh.readline().split()[1:4]
                         for _ in range(section("triangles")[0])], dtype=np.int64)
        edges = {"lower": [], "upper": [], "left": [], "right": []}
        for _ in range(section("boundary_edges")[0]):
            rec = fh.readline().split()
            edges[rec[3]].append((int(rec[1]), int(rec[2])))
        edges = {tag: np.array(e, dtype=np.int64).reshape(-1, 2)
                 for tag, e in edges.items()}
        pairs = np.array([fh.readline().split()[1:3]
                          for _ in range(section("periodic_pairs")[0])],
                         dtype=np.int64).reshape(-1, 2)
        columns, rows = section("grid")
        grid = np.array([fh.readline().split()[1:3] for _ in range(columns)],
                        dtype=float).reshape(-1, 2)
    xs, heights = grid.T if columns else (None, None)
    return Mesh(nodes, tris, edges, pairs, kind, eps=eps, grid_x=xs,
                grid_heights=heights, grid_rows=rows or None)
