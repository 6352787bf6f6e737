"""P1 primitives for the anisotropically weighted p-Laplacian.

Fields are plain 1-D numpy arrays with one entry per mesh node.  The flux
term is integrated exactly (P1 gradients are constant per triangle); the
zeroth-order and load terms use the 3-point edge-midpoint rule, which is
order 2.  Because energy, residual and jacobian all use the same
quadrature, the residual is the exact gradient of the discrete energy and
the jacobian its exact derivative - the finite-difference tests in the
suite rely on that.

The flux is regularized as (delta^2 + |xi|^2)^((p-2)/2) xi; at delta = 0
this is exactly the monotone map |xi|^(p-2) xi.  The same delta enters the
|u|^(p-2) u term so the linearization stays bounded for p < 2.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class AssemblyError(RuntimeError):
    """Raised when assembly meets a non-finite intermediate value."""


@dataclass(frozen=True)
class FluxParams:
    """Exponent, regularization and gradient anisotropy of the flux.

    eps_weight scales the second gradient component as (d1, d2/eps_weight);
    use 1 for cell problems and the oscillation parameter for thin ones.
    """

    p: float
    delta: float = 0.0
    eps_weight: float = 1.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if not self.eps_weight > 0.0:
            raise ValueError(f"eps_weight must be positive, got {self.eps_weight}")


def _tri_arrays(mesh):
    """Per-triangle P1 data, computed once and cached on the mesh."""
    cache = getattr(mesh, "_fem_arrays", None)
    if cache is not None:
        return cache
    tri = mesh.triangles
    v = mesh.nodes[tri]                  # (T, 3, 2)
    area = mesh.areas
    nxt = [1, 2, 0]
    prv = [2, 0, 1]
    # gradient of hat function k on each triangle
    gx = (v[:, nxt, 1] - v[:, prv, 1]) / (2.0 * area)[:, None]
    gy = (v[:, prv, 0] - v[:, nxt, 0]) / (2.0 * area)[:, None]
    # edge midpoints, midpoint k opposite vertex k
    mid = 0.5 * (v[:, nxt] + v[:, prv])  # (T, 3, 2)
    cache = (tri, area, gx, gy, mid)
    mesh._fem_arrays = cache
    return cache


def element_gradients(mesh, u):
    """Constant gradient of the P1 interpolant on every triangle, (T, 2).

    Written in difference form (the hat gradients sum to zero), so constant
    fields give an exactly zero gradient; the sublinear flux at p < 2 would
    otherwise amplify roundoff-level gradients to visible size.
    """
    tri, _, gx, gy, _ = _tri_arrays(mesh)
    uv = np.asarray(u)[tri]
    d1 = uv[:, 1] - uv[:, 0]
    d2 = uv[:, 2] - uv[:, 0]
    return np.column_stack([d1 * gx[:, 1] + d2 * gx[:, 2],
                            d1 * gy[:, 1] + d2 * gy[:, 2]])


def scaled_gradient(grad, params):
    """Anisotropic gradient (d1, d2/eps_weight) of a plain gradient."""
    g = np.asarray(grad, dtype=float)
    out = g.copy()
    out[..., 1] /= params.eps_weight
    return out


def _power_weight(sq, p, delta):
    """(delta^2 + sq)^((p-2)/2) with the singular p<2, delta=0 case masked.

    The masked entries multiply a zero vector in every caller, so mapping
    them to 0 realizes the continuous limit |xi|^(p-2) xi -> 0.
    """
    base = delta * delta + np.asarray(sq, dtype=float)
    if p >= 2.0 or delta > 0.0:
        return base ** ((p - 2.0) / 2.0)
    out = np.zeros_like(base)
    pos = base > 0.0
    out[pos] = base[pos] ** ((p - 2.0) / 2.0)
    return out


def p_flux(xi, params):
    """Regularized monotone flux (delta^2 + |xi|^2)^((p-2)/2) xi."""
    xi = np.asarray(xi, dtype=float)
    sq = (xi * xi).sum(axis=-1)
    return _power_weight(sq, params.p, params.delta)[..., None] * xi


def p_flux_inverse(xi, p):
    """Flux with the conjugate exponent p' = p/(p-1); inverts p_flux at delta=0."""
    xi = np.asarray(xi, dtype=float)
    sq = (xi * xi).sum(axis=-1)
    return _power_weight(sq, p / (p - 1.0), 0.0)[..., None] * xi


def p_flux_scalar(x, p):
    """Scalar monotone flux |x|^(p-2) x = sign(x) |x|^(p-1)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def _midpoint_values(mesh, u):
    """P1 interpolant at the three edge midpoints of every triangle."""
    tri = _tri_arrays(mesh)[0]
    uv = np.asarray(u)[tri]
    return 0.5 * (uv.sum(axis=1, keepdims=True) - uv)


def _load_at_midpoints(mesh, load):
    if load is None:
        return None
    if callable(load):
        mid = _tri_arrays(mesh)[4]
        return np.asarray(load(mid[..., 0], mid[..., 1]), dtype=float)
    load = np.asarray(load, dtype=float)
    if load.shape != (mesh.num_nodes,):
        raise AssemblyError(
            f"load field has {load.shape} entries, mesh has {mesh.num_nodes} nodes")
    return _midpoint_values(mesh, load)


def _check_field(mesh, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise AssemblyError(
            f"field has shape {u.shape}, mesh has {mesh.num_nodes} nodes")
    if not np.all(np.isfinite(u)):
        raise AssemblyError("field contains non-finite entries")
    return u


def _check_finite(values, what):
    v = np.atleast_1d(values)
    ok = np.isfinite(v).reshape(v.shape[0], -1).all(axis=1)
    if not ok.all():
        t = int(np.flatnonzero(~ok)[0])
        raise AssemblyError(f"non-finite {what} on triangle {t}")


def assemble_energy(mesh, u, params, load=None, include_mass=True):
    """Convex energy whose Euler-Lagrange system is the weighted p-Laplace
    problem:  int (1/p)(d^2+|grad_w u|^2)^(p/2) [+ (1/p)(d^2+u^2)^(p/2) - f u].
    """
    u = _check_field(mesh, u)
    p, delta = params.p, params.delta
    area = _tri_arrays(mesh)[1]
    gs = scaled_gradient(element_gradients(mesh, u), params)
    sq = (gs * gs).sum(axis=1)
    flux = area * ((delta * delta + sq) ** (p / 2.0)) / p
    _check_finite(flux, "flux energy")
    total = flux.sum()
    if include_mass:
        um = _midpoint_values(mesh, u)
        mass = (area / 3.0) * ((delta * delta + um * um) ** (p / 2.0)).sum(axis=1) / p
        _check_finite(mass, "mass energy")
        total += mass.sum()
    fm = _load_at_midpoints(mesh, load)
    if fm is not None:
        um = _midpoint_values(mesh, u)
        work = (area / 3.0) * (fm * um).sum(axis=1)
        _check_finite(work, "load energy")
        total -= work.sum()
    return float(total)


def assemble_residual(mesh, u, params, load=None, include_mass=True):
    """Gradient of the discrete energy: one entry per nodal hat function.

    A field solves the discrete Neumann problem iff this vanishes; the
    boundary condition is natural so no boundary terms appear.
    """
    u = _check_field(mesh, u)
    p, delta = params.p, params.delta
    tri, area, gx, gy, _ = _tri_arrays(mesh)
    n = mesh.num_nodes
    w = params.eps_weight

    gs = scaled_gradient(element_gradients(mesh, u), params)
    a = p_flux(gs, params)
    _check_finite(a, "flux")
    res = np.zeros(n)
    for k in range(3):
        contrib = area * (a[:, 0] * gx[:, k] + a[:, 1] * gy[:, k] / w)
        res += np.bincount(tri[:, k], weights=contrib, minlength=n)

    um = _midpoint_values(mesh, u)
    fm = _load_at_midpoints(mesh, load)
    third = area / 3.0
    if include_mass:
        s = _power_weight(um * um, p, delta) * um
        _check_finite(s, "mass term")
        s_sum = s.sum(axis=1)
        for k in range(3):
            # hat function k is 1/2 at the two midpoints not opposite to k
            contrib = third * 0.5 * (s_sum - s[:, k])
            res += np.bincount(tri[:, k], weights=contrib, minlength=n)
    if fm is not None:
        _check_finite(fm, "load")
        f_sum = fm.sum(axis=1)
        for k in range(3):
            contrib = third * 0.5 * (f_sum - fm[:, k])
            res -= np.bincount(tri[:, k], weights=contrib, minlength=n)
    return res


def assemble_jacobian(mesh, u, params, include_mass=True):
    """Derivative of the residual; sparse symmetric positive semidefinite.

    Per triangle the flux block is (d^2+|xi|^2)^((p-2)/2)
    (I + (p-2) xi xi^T / (d^2+|xi|^2)) in the scaled gradient xi, which is
    positive definite for p > 1 whenever delta > 0.
    """
    u = _check_field(mesh, u)
    p, delta = params.p, params.delta
    if p < 2.0 and delta == 0.0:
        raise ValueError("jacobian with p < 2 requires delta > 0")
    tri, area, gx, gy, _ = _tri_arrays(mesh)
    n = mesh.num_nodes
    w = params.eps_weight

    gs = scaled_gradient(element_gradients(mesh, u), params)
    sq = (gs * gs).sum(axis=1)
    den = delta * delta + sq
    sigma = _power_weight(sq, p, delta)
    ratio = np.divide(p - 2.0, den, out=np.zeros_like(den), where=den > 0.0)
    m11 = sigma * (1.0 + ratio * gs[:, 0] * gs[:, 0])
    m12 = sigma * ratio * gs[:, 0] * gs[:, 1]
    m22 = sigma * (1.0 + ratio * gs[:, 1] * gs[:, 1])
    _check_finite(m11, "flux tensor")

    if include_mass:
        um = _midpoint_values(mesh, u)
        mden = delta * delta + um * um
        mratio = np.divide(p - 2.0, mden, out=np.zeros_like(mden),
                           where=mden > 0.0)
        mprime = _power_weight(um * um, p, delta) * (1.0 + mratio * um * um)
        _check_finite(mprime, "mass tensor")

    rows, cols, vals = [], [], []
    for k in range(3):
        bxk, byk = gx[:, k], gy[:, k] / w
        for l in range(3):
            bxl, byl = gx[:, l], gy[:, l] / w
            e = area * (bxk * (m11 * bxl + m12 * byl)
                        + byk * (m12 * bxl + m22 * byl))
            if include_mass:
                # phi_k(m_j) = (1 - delta_kj)/2
                for j in range(3):
                    if j != k and j != l:
                        e = e + (area / 3.0) * 0.25 * mprime[:, j]
            rows.append(tri[:, k])
            cols.append(tri[:, l])
            vals.append(e)
    jac = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return jac.tocsr()


def lp_norm(mesh, u, p):
    """L^p norm by the order-2 midpoint rule."""
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    u = _check_field(mesh, u)
    area = _tri_arrays(mesh)[1]
    um = _midpoint_values(mesh, u)
    total = ((area / 3.0) * (np.abs(um) ** p).sum(axis=1)).sum()
    return float(total ** (1.0 / p))


def w1p_seminorm(mesh, u, params):
    """L^p norm of the scaled gradient (exact: gradients are elementwise constant)."""
    u = _check_field(mesh, u)
    area = _tri_arrays(mesh)[1]
    gs = scaled_gradient(element_gradients(mesh, u), params)
    mag = np.sqrt((gs * gs).sum(axis=1))
    return float((area * mag ** params.p).sum() ** (1.0 / params.p))


# Gauss-Legendre rule used on every vertical fiber of the load integral
_FIBER_GAUSS_ORDER = 12


def integrate_load_fibers(load, spec, eps, n_stations, quad_order=_FIBER_GAUSS_ORDER):
    """Vertical fiber integrals of the load over the oscillating domain.

    Returns the fiberwise integral int_0^{g(x1/eps)} f(x1, x2) dx2 sampled
    at n_stations uniformly spaced abscissae covering [0, 1].  The load must
    be a broadcasting callable of (x1, x2).
    """
    if n_stations < 2:
        raise ValueError("need at least 2 stations")
    x, wts = np.polynomial.legendre.leggauss(quad_order)
    t = 0.5 * (x + 1.0)
    wts = 0.5 * wts
    stations = np.linspace(0.0, 1.0, n_stations)
    heights = np.asarray(spec.evaluate(stations / eps))
    x2 = heights[:, None] * t[None, :]
    vals = np.asarray(load(stations[:, None], x2), dtype=float)
    vals = np.broadcast_to(vals, x2.shape)
    return heights * (vals * wts[None, :]).sum(axis=1)
