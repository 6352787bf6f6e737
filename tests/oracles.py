"""Independent reference implementations used only as test oracles.

Everything here is deliberately coded along a different path from the
package: explicit matrices, per-triangle formulas, direct solves and
searches over every triangle.  Where a solver's strategy changes, the
strategy it replaced is kept here as the oracle of the new one.
"""

from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from oscthin import fem, geometry, homogenize, solve, study


def grid_nodes(mesh):
    """The unfolded node map (nx+1, ny+1) of the oracles: the mesh's own,
    except that a cell's last column, which the mesh numbers as its first,
    gets numbers of its own after the mesh's nodes.  Every oracle field,
    vector and matrix is in this numbering."""
    node = np.array(mesh.grid_nodes)
    if mesh.domain_kind == "cell":
        node[-1] = mesh.num_nodes + np.arange(mesh.grid_rows + 1)
    return node


def periodic_pairs(mesh):
    """(node, copy) pairs of the unfolded numbering: a cell's first column
    against its last; none on a thin mesh."""
    node = grid_nodes(mesh)
    if mesh.domain_kind != "cell":
        return np.empty((0, 2), dtype=node.dtype)
    return np.column_stack([node[0], node[-1]])


def unfold(mesh, u):
    """A nodal field of the mesh in the unfolded numbering: each copy
    takes its node's value."""
    u = np.asarray(u)
    return np.concatenate([u, u[periodic_pairs(mesh)[:, 0]]])


def fold(mesh, r):
    """A nodal vector of the unfolded numbering summed onto the mesh's
    nodes: each copy's entry added to its node's."""
    pairs = periodic_pairs(mesh)
    out = np.array(r[:mesh.num_nodes], dtype=float)
    out[pairs[:, 0]] += r[pairs[:, 1]]
    return out


def nodes(mesh):
    """Node coordinates (n, 2) in the unfolded numbering, scattered from
    the column grid."""
    node = grid_nodes(mesh)
    out = np.empty((node.size, 2))
    for k, coordinate in enumerate(mesh.grid_coordinates()):
        out[node.T, k] = coordinate
    return out


def triangles(mesh):
    """Triangles (T, 3) of the unfolded node map: quad q = i*ny + j is
    split along its lower-left/upper-right diagonal into triangles 2q
    (ll, lr, ur) and 2q+1 (ll, ur, ul), positively oriented."""
    node = grid_nodes(mesh)
    ll, lr, ur, ul = node[:-1, :-1], node[1:, :-1], node[1:, 1:], node[:-1, 1:]
    return np.stack([ll, lr, ur, ll, ur, ul], axis=-1).reshape(-1, 3)


def boundary_edges(mesh):
    """Boundary edges by tag (lower, upper, left, right), each (m, 2) and
    oriented with the domain on its left, in the unfolded numbering."""
    node, ny = grid_nodes(mesh), mesh.grid_rows
    return {
        "lower": np.column_stack([node[:-1, 0], node[1:, 0]]),
        "upper": np.column_stack([node[1:, ny], node[:-1, ny]]),
        "left": np.column_stack([node[0, 1:], node[0, :-1]]),
        "right": np.column_stack([node[-1, :-1], node[-1, 1:]]),
    }


def tri_geometry(mesh):
    """Per-triangle hat-function gradients and areas, recomputed from scratch."""
    idx = triangles(mesh)
    x, y = nodes(mesh)[idx].transpose(2, 0, 1)
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                 axis=1) / (2.0 * area)[:, None]
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                 axis=1) / (2.0 * area)[:, None]
    return idx, area, b, c


def eps_weight(mesh):
    """The weight w of the scaled gradient (d1, d2/w): a thin mesh's eps,
    1 on a cell."""
    return 1.0 if mesh.eps is None else mesh.eps


def laplace_matrices(mesh):
    """Sparse stiffness (with the mesh's anisotropic weight) and P1 mass
    matrix, summed from the 3x3 element matrices as COO triplets."""
    idx, area, b, c = tri_geometry(mesh)
    n = grid_nodes(mesh).size
    w2 = eps_weight(mesh) ** 2
    rows, cols, stiff, mass = [], [], [], []
    for a_ in range(3):
        for b_ in range(3):
            rows.append(idx[:, a_])
            cols.append(idx[:, b_])
            stiff.append(area * (b[:, a_] * b[:, b_] + c[:, a_] * c[:, b_] / w2))
            mass.append(area * (1.0 / 6.0 if a_ == b_ else 1.0 / 12.0))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return tuple(sparse.csr_matrix((np.concatenate(v), (rows, cols)),
                                   shape=(n, n)) for v in (stiff, mass))


def linear_periodic_cell(mesh):
    """Linear (quadratic-energy) periodic cell solve by sparse algebra.

    Periodic identification by an explicit 0/1 folding matrix of the
    unfolded numbering, zero mean by a Lagrange multiplier, sparse direct
    solve.  Returns the perturbation field (unfolded) and the effective
    coefficient.
    """
    n = grid_nodes(mesh).size
    stiff, _ = laplace_matrices(mesh)
    x1 = nodes(mesh)[:, 0]
    rhs = -stiff @ x1

    leader = np.arange(n)
    for left, right in periodic_pairs(mesh):
        leader[right] = left
    keep = np.flatnonzero(leader == np.arange(n))
    pos = np.full(n, -1)
    pos[keep] = np.arange(len(keep))
    z = sparse.csr_matrix((np.ones(n), (np.arange(n), pos[leader])),
                          shape=(n, len(keep)))

    weights_red = z.T @ lumped_masses(mesh)
    bordered = sparse.bmat([[z.T @ stiff @ z, weights_red[:, None]],
                            [weights_red[None, :], None]], format="csc")
    sol = sparse_linalg.spsolve(bordered, np.append(z.T @ rhs, 0.0))
    phi = z @ sol[:-1]

    idx, area, b, _ = tri_geometry(mesh)
    v = (x1 + phi)[idx]
    coeff = float((area * (v * b).sum(axis=1)).sum() / area.sum())
    return phi, coeff


def linear_start_cell(mesh, p, opts=None):
    """The cell solve started from the linear corrector alone: Newton on
    the p = 2 functional from zero at the target delta, then Newton at p
    from it at the target delta twice; on a SolveError the configured
    ladder from zero.  A CellSolution whose diagnostics hold every stage
    run (the start solve_cell took before its p-predictor)."""
    opts = opts or solve.SolveOptions()
    weights = fem.load_vector(mesh, np.ones(mesh.num_nodes))
    target = opts.final_delta
    diagnostics = solve.NewtonDiagnostics()

    def newton(q, init, deltas):
        phi, diag = solve.newton_solve(
            partial(homogenize._cell_point, mesh, q), init, weights,
            replace(opts, continuation_deltas=deltas))
        diagnostics.stages += diag.stages
        return phi

    try:
        phi = newton(2.0, np.zeros(mesh.num_nodes), (target,))
        if p != 2.0:
            phi = newton(p, phi, (target, target))
    except solve.SolveError as exc:
        diagnostics.stages += exc.diagnostics.stages
        phi = newton(p, np.zeros(mesh.num_nodes), opts.continuation_deltas)
    return homogenize.CellSolution(mesh=mesh, phi=phi, p=p, delta=target,
                                   diagnostics=diagnostics)


def linear_thin_solve(mesh, load_values):
    """Linear (p=2) thin-domain solve by sparse algebra.

    load_values are nodal samples; the load functional uses the consistent
    P1 mass matrix, the flux the anisotropic weight carried by the mesh.
    """
    stiff, mass = laplace_matrices(mesh)
    return sparse_linalg.spsolve((stiff + mass).tocsc(),
                                 mass @ np.asarray(load_values))


def linear_limit_solve(coeff, forcing):
    """Linear (p=2) limit problem on the forcing's uniform grid, dense."""
    n = len(forcing) - 1
    h = 1.0 / n
    main = np.full(n + 1, 2.0 * coeff / h + 2.0 * h / 3.0)
    main[0] = main[-1] = coeff / h + h / 3.0
    off = np.full(n, -coeff / h + h / 6.0)
    a = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    mass = np.diag(np.full(n + 1, 2.0 * h / 3.0)) \
        + np.diag(np.full(n, h / 6.0), 1) + np.diag(np.full(n, h / 6.0), -1)
    mass[0, 0] = mass[-1, -1] = h / 3.0
    return np.linalg.solve(a, mass @ np.asarray(forcing))


def fiber_segments(mesh, axis, value, _attempt=0):
    """Intersect the line {x[axis] == value} with every triangle.

    The all-triangle clipper: returns (tri_indices, lengths), the triangles
    the line passes through and the length of each intersection segment.
    A line on a mesh edge is nudged by a relative 1e-9 and clipped again.
    """
    v = nodes(mesh)[triangles(mesh)]
    coord, other = v[..., axis], v[..., 1 - axis]
    cmin = coord.min(axis=1)
    cmax = coord.max(axis=1)
    cand = np.flatnonzero((cmin <= value) & (value <= cmax) & (cmin < cmax))
    if cand.size == 0:
        return cand, np.empty(0)

    c = coord[cand]
    o = other[cand]
    s = c - value
    scale = max(abs(value), float(np.abs(c).max()), 1e-30)
    pts = np.full((len(cand), 6), np.nan)
    for k in range(3):
        k2 = (k + 1) % 3
        s0, s1 = s[:, k], s[:, k2]
        if np.any((s0 == 0.0) & (s1 == 0.0)):
            if _attempt >= 3:
                raise RuntimeError(f"fiber at {value!r} keeps hitting mesh edges")
            nudged = value + (1e-9 * scale) * (1 + _attempt)
            return fiber_segments(mesh, axis, nudged, _attempt + 1)
        cross = (s0 * s1) < 0.0
        t = np.where(cross, s0 / np.where(cross, s0 - s1, 1.0), np.nan)
        pts[:, 2 * k] = np.where(cross, o[:, k] + t * (o[:, k2] - o[:, k]),
                                 np.nan)
        pts[:, 2 * k + 1] = np.where(s0 == 0.0, o[:, k], np.nan)
    with np.errstate(invalid="ignore"):
        lengths = np.nanmax(pts, axis=1) - np.nanmin(pts, axis=1)
    lengths = np.nan_to_num(lengths, nan=0.0)
    keep = lengths > 0.0
    return cand[keep], lengths[keep]


def fiber_matrix(mesh, axis, values, block=64):
    """Fiber operator by the all-triangle clipper, a block of values at a
    time: every value against every triangle, the clip of fiber_segments
    on all (value, triangle) pairs whose extent holds the value at once.
    A value whose line runs along a mesh edge goes through fiber_segments
    alone, which nudges it."""
    values = np.asarray(values, dtype=float)
    v = nodes(mesh)[triangles(mesh)]
    coord, other = v[..., axis], v[..., 1 - axis]
    cmin, cmax = coord.min(axis=1), coord.max(axis=1)
    rows, tris, lengths = [], [], []
    for start in range(0, len(values), block):
        v = values[start:start + block, None]
        k, tri = np.nonzero((cmin <= v) & (v <= cmax) & (cmin < cmax))
        s = coord[tri] - v[k]
        o = other[tri]
        pts = np.full((len(tri), 6), np.nan)
        on_edge = np.zeros(len(tri), dtype=bool)
        for e in range(3):
            e2 = (e + 1) % 3
            s0, s1 = s[:, e], s[:, e2]
            on_edge |= (s0 == 0.0) & (s1 == 0.0)
            cross = (s0 * s1) < 0.0
            t = np.where(cross, s0 / np.where(cross, s0 - s1, 1.0), np.nan)
            pts[:, 2 * e] = np.where(cross, o[:, e] + t * (o[:, e2] - o[:, e]),
                                     np.nan)
            pts[:, 2 * e + 1] = np.where(s0 == 0.0, o[:, e], np.nan)
        with np.errstate(invalid="ignore"):
            seg = np.nanmax(pts, axis=1) - np.nanmin(pts, axis=1)
        seg = np.nan_to_num(seg, nan=0.0)
        nudged = np.zeros(len(v), dtype=bool)
        nudged[k[on_edge]] = True
        keep = (seg > 0.0) & ~nudged[k]
        rows.append(k[keep] + start)
        tris.append(tri[keep])
        lengths.append(seg[keep])
        for j in np.flatnonzero(nudged):
            tri_j, seg_j = fiber_segments(mesh, axis, float(v[j, 0]))
            rows.append(np.full(len(tri_j), start + j))
            tris.append(tri_j)
            lengths.append(seg_j)
    return sparse.csr_matrix(
        (np.concatenate(lengths), (np.concatenate(rows), np.concatenate(tris))),
        shape=(len(values), mesh.num_triangles))


@lru_cache(maxsize=2)
def _level_fibers(mesh, n_levels):
    """Horizontal fiber operator of the midpoint levels (k + 1/2) top /
    n_levels, top the highest column, by fiber_matrix: built once per
    mesh and level count."""
    top = float(mesh.grid_heights.max())
    levels = (np.arange(n_levels) + 0.5) * (top / n_levels)
    return fiber_matrix(mesh, 1, levels)


def flux_density_height_integral(cell, grad_value, n_levels=4096):
    """Midpoint-rule integral over heights of the first flux component,
    the left side of the flux identity (acceptance criterion 8).  The
    fiber averages do not depend on grad_value: pass an array of values,
    and one set of fiber integrals serves them all."""
    top = float(cell.mesh.grid_heights.max())
    fibers = _level_fibers(cell.mesh, n_levels) @ cell.flux[:, 0]
    fiber_sum = float(fibers.sum()) / cell.mesh.width
    return (fem.p_flux_scalar(grad_value, cell.p) * fiber_sum
            * (top / n_levels))


def measure_identity_check(spec, n_levels=4096, n_samples=16384):
    """Both sides of the identity  L * int_0^gmax fraction(h) dh = |cell|
    (acceptance criterion 9).

    The left side integrates the sampled level fraction over heights
    (midpoint rule); the right side is the period times the mean profile
    height by fine trapezoid quadrature.  The caller asserts agreement.
    """
    ys = (np.arange(n_samples) + 0.5) * (spec.period / n_samples)
    gs = np.sort(np.asarray(spec.evaluate(ys)))
    levels = (np.arange(n_levels) + 0.5) * (spec.maximum / n_levels)
    above = n_samples - np.searchsorted(gs, levels, side="right")
    fraction_integral = float(
        spec.period * (above / n_samples).sum() * (spec.maximum / n_levels))

    yt = np.linspace(0.0, spec.period, (1 << 14) + 1)
    area = float(np.trapezoid(spec.evaluate(yt), yt))
    return fraction_integral, area


def p_flux_inverse(xi, p):
    """Flux with the conjugate exponent p' = p/(p-1); inverts fem.p_flux
    at delta = 0 (acceptance criterion 10)."""
    return fem.p_flux(xi, fem.FluxParams(p=p / (p - 1.0)))


def _p1_fields(mesh, u):
    """Triangles, areas, hat gradients, scaled element gradients (T, 2) and
    midpoint values (T, 3) of a field; midpoint k lies opposite vertex k."""
    idx, area, b, c = tri_geometry(mesh)
    uv = np.asarray(u, dtype=float)[idx]
    d1 = uv[:, 1] - uv[:, 0]
    d2 = uv[:, 2] - uv[:, 0]
    grad = np.column_stack([d1 * b[:, 1] + d2 * b[:, 2],
                            (d1 * c[:, 1] + d2 * c[:, 2]) / eps_weight(mesh)])
    um = 0.5 * (uv.sum(axis=1, keepdims=True) - uv)
    return idx, area, b, c, grad, um


def load_fiber_integrals(load, heights, x1, order=12):
    """int_0^heights load(x1, x2) dx2 by an order-point Gauss-Legendre rule
    on each fiber, for any broadcasting callable load: the general rule
    that LoadSpec.fiber_integral's closed form replaced."""
    t, wts = np.polynomial.legendre.leggauss(order)
    x1 = np.asarray(x1, dtype=float)[:, None]
    heights = np.asarray(heights, dtype=float)
    x2 = heights[:, None] * 0.5 * (t + 1.0)
    vals = np.broadcast_to(np.asarray(load(x1, x2), dtype=float), x2.shape)
    return heights * (vals * (0.5 * wts)).sum(axis=1)


def load_at_midpoints(mesh, load):
    """The load at the three edge midpoints of every triangle, (T, 3):
    a callable of (x1, x2) evaluated there, or a nodal field interpolated."""
    idx = triangles(mesh)
    if callable(load):
        v = nodes(mesh)[idx]
        mid = 0.5 * (v[:, [1, 2, 0]] + v[:, [2, 0, 1]])
        return np.asarray(load(mid[..., 0], mid[..., 1]), dtype=float)
    fv = np.asarray(load, dtype=float)[idx]
    return 0.5 * (fv.sum(axis=1, keepdims=True) - fv)


def energy(mesh, u, params, load=None, include_mass=True):
    """Discrete energy with the load evaluated at the midpoints on every
    call, triangle by triangle (delta > 0)."""
    p, d2 = params.p, params.delta ** 2
    _, area, _, _, grad, um = _p1_fields(mesh, u)
    total = (area * (d2 + (grad * grad).sum(axis=1)) ** (p / 2.0) / p).sum()
    if include_mass:
        total += ((area / 3.0) * ((d2 + um * um) ** (p / 2.0)).sum(axis=1)
                  / p).sum()
    if load is not None:
        fm = load_at_midpoints(mesh, load)
        total -= ((area / 3.0) * (fm * um).sum(axis=1)).sum()
    return float(total)


def residual(mesh, u, params, load=None, include_mass=True):
    """Gradient of energy, accumulated vertex by vertex (delta > 0)."""
    p, d2 = params.p, params.delta ** 2
    idx, area, b, c, grad, um = _p1_fields(mesh, u)
    a = fem.p_flux(grad, params)
    # hat function k is 1/2 at the two midpoints not opposite to k
    mid = np.zeros_like(um)
    if include_mass:
        mid += (d2 + um * um) ** ((p - 2.0) / 2.0) * um
    if load is not None:
        mid -= load_at_midpoints(mesh, load)
    res = np.zeros(grid_nodes(mesh).size)
    for k in range(3):
        flux = area * (a[:, 0] * b[:, k] + a[:, 1] * c[:, k] / eps_weight(mesh))
        mass = area / 3.0 * 0.5 * (mid.sum(axis=1) - mid[:, k])
        np.add.at(res, idx[:, k], flux + mass)
    return res


def coo_jacobian(mesh, u, params, include_mass=True):
    """Derivative of residual from all nine blocks of every element matrix,
    summed by a COO-to-CSR conversion (delta > 0)."""
    p, d2 = params.p, params.delta ** 2
    idx, area, b, c, grad, um = _p1_fields(mesh, u)
    w = eps_weight(mesh)
    den = d2 + (grad * grad).sum(axis=1)
    sigma = den ** ((p - 2.0) / 2.0)
    ratio = (p - 2.0) / den
    m11 = sigma * (1.0 + ratio * grad[:, 0] ** 2)
    m12 = sigma * ratio * grad[:, 0] * grad[:, 1]
    m22 = sigma * (1.0 + ratio * grad[:, 1] ** 2)
    if include_mass:
        mden = d2 + um * um
        mprime = mden ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * um * um / mden)
    rows, cols, vals = [], [], []
    for k in range(3):
        for l in range(3):
            e = area * (b[:, k] * (m11 * b[:, l] + m12 * c[:, l] / w)
                        + c[:, k] / w * (m12 * b[:, l] + m22 * c[:, l] / w))
            if include_mass:
                # phi_k(m_j) = (1 - delta_kj)/2
                for j in range(3):
                    if j != k and j != l:
                        e = e + (area / 3.0) * 0.25 * mprime[:, j]
            rows.append(idx[:, k])
            cols.append(idx[:, l])
            vals.append(e)
    n = grid_nodes(mesh).size
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


def lumped_masses(mesh):
    """Integral of each nodal hat function: a third of every triangle's
    area added to each of its vertices."""
    w = np.zeros(grid_nodes(mesh).size)
    third, tris = mesh.areas / 3.0, triangles(mesh)
    for k in range(3):
        np.add.at(w, tris[:, k], third)
    return w


def barycenters(mesh):
    """Triangle barycenters (T, 2): the mean of each triangle's nodes."""
    return nodes(mesh)[triangles(mesh)].mean(axis=1)


def containing_triangles(mesh, points, tol=1e-9):
    """(P, T) boolean: point k lies in triangle t, by its barycentric
    coordinates in every triangle of the mesh, each at least -tol."""
    v = nodes(mesh)[triangles(mesh)]                     # (T, 3, 2)
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = np.asarray(points, dtype=float)[:, None, :] - v[None, :, 0]
    l1 = (r[..., 0] * d2[:, 1] - r[..., 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[..., 1] - d1[:, 1] * r[..., 0]) / det
    return np.minimum(np.minimum(l1, l2), 1.0 - l1 - l2) >= -tol


def row_by_row_table_text(names, columns, meta):
    """The table file format written one record at a time: the header
    (index, the names, the record count and the meta fields), then each
    row's index and its entries by repr."""
    fields = [f"records={len(columns[0])}",
              *(f"{key}={value}" for key, value in meta.items())]
    out = [" ".join(["index", *names, *fields]) + "\n"]
    for k, row in enumerate(zip(*columns)):
        out.append(" ".join([str(k), *(repr(float(v)) for v in row)]) + "\n")
    return "".join(out)


def old_layout_mesh_text(mesh):
    """The mesh file of an older layout, which read_mesh refuses: a
    '# oscthin mesh' header, then nodes, triangles, boundary edges and
    periodic pairs before the column grid.  mesh holds the header fields,
    the grid and those four tables as attributes."""
    out = [f"# oscthin mesh {mesh.domain_kind}"
           f" eps={'' if mesh.eps is None else repr(mesh.eps)}\n",
           f"# nodes {mesh.num_nodes}\n"]
    for k, (x, y) in enumerate(mesh.nodes):
        out.append(f"{k} {float(x)!r} {float(y)!r}\n")
    out.append(f"# triangles {mesh.num_triangles}\n")
    for k, (a, b, c) in enumerate(mesh.triangles):
        out.append(f"{k} {a} {b} {c}\n")
    n_edges = sum(len(e) for e in mesh.boundary_edges.values())
    out.append(f"# boundary_edges {n_edges}\n")
    k = 0
    for tag in ("lower", "upper", "left", "right"):
        for a, b in mesh.boundary_edges.get(tag, ()):
            out.append(f"{k} {a} {b} {tag}\n")
            k += 1
    out.append(f"# periodic_pairs {len(mesh.periodic_pairs)}\n")
    for k, (a, b) in enumerate(mesh.periodic_pairs):
        out.append(f"{k} {a} {b}\n")
    out.append(f"# grid {len(mesh.grid_x)} {mesh.grid_rows}\n")
    for k, (x, h) in enumerate(zip(mesh.grid_x, mesh.grid_heights)):
        out.append(f"{k} {float(x)!r} {float(h)!r}\n")
    return "".join(out)


def fold_matrix(a, pairs):
    """P^T a P for the 0/1 prolongation P that copies each leader (first
    column of pairs) onto its follower; leaders keep their node order."""
    n = a.shape[0]
    source = np.arange(n)
    source[pairs[:, 1]] = pairs[:, 0]
    kept = np.flatnonzero(source == np.arange(n))
    column = np.full(n, -1)
    column[kept] = np.arange(len(kept))
    prolong = sparse.csr_matrix((np.ones(n), (np.arange(n), column[source])),
                                shape=(n, len(kept)))
    return (prolong.T @ a @ prolong).tocsr()


def band(a):
    """The solve.Band of a symmetric matrix, dense or sparse: each lower
    diagonal of its pattern (explicit zeros included) read off by
    diagonal(), so the band holds exactly the matrix's entries."""
    a = sparse.csr_matrix(a)
    coo = a.tocoo()
    offsets = np.unique(np.r_[0, coo.row - coo.col])
    offsets = offsets[offsets >= 0]
    n = a.shape[0]
    rows = np.zeros((len(offsets), n))
    for k, d in enumerate(offsets):
        rows[k, :n - d] = a.diagonal(-d)
    return solve.Band(rows, offsets)


def band_matrix(a):
    """The symmetric CSR matrix of a solve.Band: its stored diagonals
    below the main one and their mirror images above it."""
    n = a.rows.shape[1]
    lower = sparse.diags([row[:n - d] for d, row in zip(a.offsets, a.rows)],
                         [-int(d) for d in a.offsets], shape=(n, n))
    return (lower + sparse.tril(lower, -1).T).tocsr()


def limit_jacobian(prob, u, delta):
    """Dense jacobian of the 1-D limit residual, element by element: the
    stiffness block and the two-point Gauss mass block of each element."""
    n, p, d2 = len(prob.forcing) - 1, prob.p, delta ** 2
    h = 1.0 / n
    gauss = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    a = np.zeros((n + 1, n + 1))
    for e in range(n):
        s = (u[e + 1] - u[e]) / h
        k = (prob.coeff / h) * (d2 + s * s) ** ((p - 2.0) / 2.0) \
            * (1.0 + (p - 2.0) * s * s / (d2 + s * s))
        a[e:e + 2, e:e + 2] += k * np.array([[1.0, -1.0], [-1.0, 1.0]])
        for t in gauss:
            v = u[e] * (1.0 - t) + u[e + 1] * t
            m = (d2 + v * v) ** ((p - 2.0) / 2.0) \
                * (1.0 + (p - 2.0) * v * v / (d2 + v * v))
            phi = np.array([1.0 - t, t])
            a[e:e + 2, e:e + 2] += 0.5 * h * m * np.outer(phi, phi)
    return a


def five_step_refinement(a, b):
    """Banded Cholesky of the upper half of a dense SPD matrix and five
    refinement steps whatever the residual does; the last iterate."""
    n = len(b)
    bw = max(j - i for i in range(n) for j in range(i, n) if a[i, j] != 0.0)
    ab = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        ab[bw - d, d:] = np.diagonal(a, d)
    factor = (scipy.linalg.cholesky_banded(ab), False)
    x = scipy.linalg.cho_solve_banded(factor, b)
    for _ in range(5):
        x = x + scipy.linalg.cho_solve_banded(factor, b - a @ x)
    return x


def bordered_solve(a, b, w):
    """x of the bordered system [[a, w], [w^T, 0]] [x, lam] = [b, 0],
    solved by sparse LU."""
    bordered = sparse.bmat([[a, w[:, None]], [w[None, :], None]],
                           format="csc")
    return sparse_linalg.spsolve(bordered, np.append(b, 0.0))[:len(b)]


def corrector_field(cell, du0, edges, eps, mesh):
    """Corrector gradient with the cell response looked up afresh for the
    partition: the wrapped barycenters, the point location and the cell
    gradients, per call."""
    coeffs = study.partition_average(du0, edges)
    bary = barycenters(mesh)
    cell_idx = np.clip(
        np.searchsorted(edges, bary[:, 0], side="right") - 1,
        0, len(edges) - 2)
    period = cell.mesh.width
    wrapped_x = np.mod(bary[:, 0] / eps, period)
    wrapped_x = np.minimum(wrapped_x, np.nextafter(period, 0.0))
    wrapped = np.column_stack([wrapped_x, bary[:, 1]])
    tri = geometry.locate_points(cell.mesh, wrapped)
    gphi = fem.element_gradients(cell.mesh, cell.phi)[tri]
    response = gphi + np.array([1.0, 0.0])
    return coeffs[cell_idx][:, None] * response
