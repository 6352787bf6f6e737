"""Independent reference implementations used only as test oracles.

Everything here is deliberately coded along a different path from the
package: dense matrices, explicit per-triangle formulas, numpy solves.
"""

import numpy as np
from scipy import sparse

from oscthin import fem


def tri_geometry(mesh):
    """Per-triangle hat-function gradients and areas, recomputed from scratch."""
    idx = mesh.triangles
    x = mesh.nodes[idx, 0]
    y = mesh.nodes[idx, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                 axis=1) / (2.0 * area)[:, None]
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                 axis=1) / (2.0 * area)[:, None]
    return idx, area, b, c


def dense_laplace_matrices(mesh, eps_weight=1.0):
    """Dense stiffness (with anisotropic weight) and P1 mass matrix."""
    idx, area, b, c = tri_geometry(mesh)
    n = mesh.num_nodes
    stiff = np.zeros((n, n))
    mass = np.zeros((n, n))
    w2 = eps_weight * eps_weight
    for a_ in range(3):
        for b_ in range(3):
            np.add.at(stiff, (idx[:, a_], idx[:, b_]),
                      area * (b[:, a_] * b[:, b_] + c[:, a_] * c[:, b_] / w2))
            factor = 1.0 / 6.0 if a_ == b_ else 1.0 / 12.0
            np.add.at(mass, (idx[:, a_], idx[:, b_]), area * factor)
    return stiff, mass


def linear_periodic_cell(mesh):
    """Linear (quadratic-energy) periodic cell solve by dense algebra.

    Periodic identification by explicit index folding, zero mean by a
    Lagrange multiplier, dense numpy solve.  Returns the perturbation field
    and the effective coefficient.
    """
    n = mesh.num_nodes
    stiff, _ = dense_laplace_matrices(mesh)
    rhs = -stiff @ mesh.nodes[:, 0]

    fold = np.arange(n)
    for left, right in mesh.periodic_pairs:
        fold[right] = left
    keep = np.flatnonzero(fold == np.arange(n))
    pos = np.full(n, -1)
    pos[keep] = np.arange(len(keep))
    z = np.zeros((n, len(keep)))
    z[np.arange(n), pos[fold]] = 1.0

    stiff_red = z.T @ stiff @ z
    rhs_red = z.T @ rhs
    weights_red = z.T @ mesh.node_weights
    m = len(keep)
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, :m] = stiff_red
    bordered[:m, m] = weights_red
    bordered[m, :m] = weights_red
    sol = np.linalg.solve(bordered, np.concatenate([rhs_red, [0.0]]))
    phi = z @ sol[:m]

    grads = fem.element_gradients(mesh, mesh.nodes[:, 0] + phi)
    area = mesh.areas
    coeff = float((area * grads[:, 0]).sum() / area.sum())
    return phi, coeff


def linear_thin_solve(mesh, load_values):
    """Linear (p=2) thin-domain solve by dense algebra.

    load_values are nodal samples; the load functional uses the consistent
    P1 mass matrix, the flux the anisotropic weight carried by the mesh.
    """
    stiff, mass = dense_laplace_matrices(mesh, eps_weight=mesh.eps)
    return np.linalg.solve(stiff + mass, mass @ np.asarray(load_values))


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
    coord = mesh.nodes[:, axis][mesh.triangles]
    other = mesh.nodes[:, 1 - axis][mesh.triangles]
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


def fiber_matrix(mesh, axis, values):
    """Fiber operator assembled one fiber_segments call per value."""
    rows, tris, lengths = [], [], []
    for k, value in enumerate(values):
        tri, seg = fiber_segments(mesh, axis, float(value))
        rows.append(np.full(len(tri), k))
        tris.append(tri)
        lengths.append(seg)
    return sparse.csr_matrix(
        (np.concatenate(lengths), (np.concatenate(rows), np.concatenate(tris))),
        shape=(len(values), mesh.num_triangles))
