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

from . import solve


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


# vertex pairs (k, l), k <= l, of the six distinct blocks of a symmetric
# element matrix: the jacobian's scatter order
_ROWS = [0, 1, 2, 0, 0, 1]
_COLS = [0, 1, 2, 1, 2, 2]


class _Plan:
    """Everything assembly needs of a mesh that no field changes: tri, gx,
    gy (3, T), node index and hat-function gradient of each triangle
    vertex, and area (T,).  The flux metric per eps_weight and the band
    layouts are built on first use, each kept in one assignment."""

    def __init__(self, mesh):
        self.tri = tri = np.ascontiguousarray(mesh.triangles.T)
        self.area = area = mesh.areas
        x, y = mesh.nodes[tri, 0], mesh.nodes[tri, 1]
        nxt, prv = [1, 2, 0], [2, 0, 1]
        self.gx = (y[nxt] - y[prv]) / (2.0 * area)
        self.gy = (x[prv] - x[nxt]) / (2.0 * area)
        self.num_nodes = mesh.num_nodes
        self._cache = {}
        tri.flags.writeable = False

    def metric(self, eps_weight):
        """G (6, T): area * (b_k . b_l) of the scaled hat gradients
        b = (gx, gy/eps_weight), for the six distinct blocks."""
        key = ("metric", eps_weight)
        if key not in self._cache:
            gx, gy, k, l = self.gx, self.gy / eps_weight, _ROWS, _COLS
            self._cache[key] = self.area * (gx[k] * gx[l] + gy[k] * gy[l])
        return self._cache[key]

    def band(self, fold=None):
        """Band layout of the jacobian in node order or folded by fold (a
        solve.Reduction): its offsets, size m and the (6, T) int32 position
        of each distinct block entry in the rows of a solve.Band."""
        key = ("band", None if fold is None else fold.key)
        if key not in self._cache:
            index = fold.index if key[1] else np.arange(self.num_nodes)
            i, j = index[self.tri[_ROWS]], index[self.tri[_COLS]]
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            if np.any(lo[3:] == hi[3:]):
                raise ValueError("a triangle joins a node to its periodic copy")
            m = int(index.max()) + 1
            offsets, where = solve.band_layout(hi - lo, hi, m)
            where = where.astype(np.int32)
            where.flags.writeable = False
            self._cache[key] = (offsets, m, where)
        return self._cache[key]


def _plan(mesh):
    """The mesh's assembly plan, built on first use and attached in one
    assignment: concurrent callers see none or all of it."""
    plan = getattr(mesh, "_fem_plan", None)
    if plan is None:
        plan = _Plan(mesh)
        mesh._fem_plan = plan
    return plan


def _gather(mesh, u, eps_weight=None):
    """Checked field, plan, field values at the triangle vertices (3, T)
    and, given eps_weight, the scaled element gradient (2, T): the one
    gather of a call.

    The gradient is written in difference form (the hat gradients sum to
    zero), so constant fields give an exactly zero gradient; the sublinear
    flux at p < 2 would otherwise amplify roundoff-level gradients to
    visible size.
    """
    u = _check_field(mesh, u)
    plan = _plan(mesh)
    uv = u[plan.tri]
    gs = None
    if eps_weight is not None:
        d1, d2 = uv[1] - uv[0], uv[2] - uv[0]
        gx, gy = plan.gx, plan.gy
        gs = np.stack([d1 * gx[1] + d2 * gx[2],
                       (d1 * gy[1] + d2 * gy[2]) / eps_weight])
    return u, plan, uv, gs


def element_gradients(mesh, u):
    """Constant gradient of the P1 interpolant on every triangle, (T, 2)."""
    return np.ascontiguousarray(_gather(mesh, u, 1.0)[3].T)


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


def _ratio(p, den, delta):
    """(p - 2) / den, read as 0 where den = delta^2 + |.|^2 vanishes."""
    if delta > 0.0:
        return (p - 2.0) / den
    return np.divide(p - 2.0, den, out=np.zeros_like(den), where=den > 0.0)


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


def _midpoint_values(uv):
    """P1 interpolant at the three edge midpoints of every triangle (3, T);
    midpoint k lies opposite vertex k."""
    return 0.5 * (uv.sum(axis=0) - uv)


def load_vector(mesh, load):
    """Load functional b_i = int f phi_i by the edge-midpoint rule: the load
    term of the energy is -b @ u and of the residual -b.

    ``load`` is a broadcasting callable of (x1, x2) or a nodal field, which
    enters through its P1 interpolant.
    """
    plan = _plan(mesh)
    if callable(load):
        v = mesh.nodes[plan.tri]                 # (3, T, 2)
        mid = 0.5 * (v[[1, 2, 0]] + v[[2, 0, 1]])
        fm = np.asarray(load(mid[..., 0], mid[..., 1]), dtype=float)
    else:
        load = np.asarray(load, dtype=float)
        if load.shape != (mesh.num_nodes,):
            raise AssemblyError(
                f"load field has {load.shape} entries, mesh has "
                f"{mesh.num_nodes} nodes")
        fm = _midpoint_values(load[plan.tri])
    _check_finite(fm, "load")
    # hat function k is 1/2 at the two midpoints not opposite to k
    contrib = plan.area / 3.0 * 0.5 * (fm.sum(axis=0) - fm)
    return np.bincount(plan.tri.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_nodes)


def _check_field(mesh, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise AssemblyError(
            f"field has shape {u.shape}, mesh has {mesh.num_nodes} nodes")
    if not np.all(np.isfinite(u)):
        raise AssemblyError("field contains non-finite entries")
    return u


def _check_finite(values, what):
    """Raise naming the first triangle (last axis) with a non-finite value."""
    ok = np.isfinite(values)
    if not ok.all():
        bad = ~ok.reshape(-1, ok.shape[-1]).all(axis=0)
        raise AssemblyError(
            f"non-finite {what} on triangle {int(np.flatnonzero(bad)[0])}")


class Point:
    """A field evaluated once for its energy, residual and jacobian: one
    gather, the scaled element gradient xi, the midpoint values, their
    power weights and c_k = b_k . xi for the scaled hat gradients b_k.
    load_vector b enters as -b . u and -b."""

    def __init__(self, mesh, u, params, include_mass=True, load_vector=None):
        self.u, self.plan, uv, gs = _gather(mesh, u, params.eps_weight)
        self.params, self.include_mass = params, include_mass
        self.load_vector = load_vector
        p, delta, plan = params.p, params.delta, self.plan
        self.sq = gs[0] * gs[0] + gs[1] * gs[1]
        self.sigma = _power_weight(self.sq, p, delta)
        self.c = plan.gx * gs[0] + plan.gy * (gs[1] / params.eps_weight)
        if include_mass:
            self.um = _midpoint_values(uv)
            self.mass_weight = _power_weight(self.um * self.um, p, delta)

    def energy(self):
        """int (1/p)(d^2+|xi|^2)^(p/2) [+ (1/p)(d^2+u^2)^(p/2)] - b . u."""
        p, d2, area = self.params.p, self.params.delta ** 2, self.plan.area
        flux = area * ((d2 + self.sq) * self.sigma) / p
        _check_finite(flux, "flux energy")
        total = flux.sum()
        if self.include_mass:
            um2 = self.um * self.um
            mass = (area / 3.0) * ((d2 + um2) * self.mass_weight).sum(axis=0) / p
            _check_finite(mass, "mass energy")
            total += mass.sum()
        if self.load_vector is not None:
            total -= self.load_vector @ self.u
        return float(total)

    def residual(self):
        """Gradient of the energy, one entry per node."""
        plan = self.plan
        contrib = (plan.area * self.sigma) * self.c
        _check_finite(contrib, "flux")
        if self.include_mass:
            s = self.mass_weight * self.um
            _check_finite(s, "mass term")
            # hat function k is 1/2 at the two midpoints not opposite to k
            contrib += plan.area / 3.0 * 0.5 * (s.sum(axis=0) - s)
        res = np.bincount(plan.tri.ravel(), weights=contrib.ravel(),
                          minlength=len(self.u))
        if self.load_vector is not None:
            res -= self.load_vector
        return res

    def blocks(self):
        """The six distinct entries (6, T) of each element matrix: the flux
        tensor sigma (I + r xi xi^T), r = (p-2)/(d^2+|xi|^2), positive
        definite for p > 1 if delta > 0, gives sigma G_kl + area sigma r
        c_k c_l with the plan's metric G."""
        p, delta = self.params.p, self.params.delta
        if p < 2.0 and delta == 0.0:
            raise ValueError("jacobian with p < 2 requires delta > 0")
        plan, sigma, c = self.plan, self.sigma, self.c
        wc = (plan.area * sigma * _ratio(p, delta * delta + self.sq, delta)) * c
        blocks = plan.metric(self.params.eps_weight) * sigma
        for b, (k, l) in enumerate(zip(_ROWS, _COLS)):
            blocks[b] += wc[k] * c[l]
        _check_finite(blocks, "flux tensor")
        if self.include_mass:
            um = self.um
            mprime = self.mass_weight * (
                1.0 + _ratio(p, delta * delta + um * um, delta) * um * um)
            _check_finite(mprime, "mass tensor")
            # phi_k(m_j) = (1 - delta_kj)/2, so midpoint j feeds the blocks
            # of the two vertices other than j (added in ascending j)
            mass = (plan.area / 3.0) * 0.25 * mprime
            blocks[:3] += mass[[1, 0, 0]]
            blocks[:3] += mass[[2, 2, 1]]
            blocks[3:] += mass[[2, 1, 0]]
        return blocks

    def jacobian(self, fold=None):
        """The blocks scattered through the plan's band map, folded by fold
        (a solve.Reduction) if given: a solve.Band."""
        offsets, m, where = self.plan.band(fold)
        rows = np.bincount(where.ravel(), weights=self.blocks().ravel(),
                           minlength=len(offsets) * m)
        return solve.Band(rows.reshape(len(offsets), m), offsets)


def assemble_energy(mesh, u, params, load=None, include_mass=True):
    """Convex energy whose Euler-Lagrange system is the weighted p-Laplace
    problem:  int (1/p)(d^2+|grad_w u|^2)^(p/2) [+ (1/p)(d^2+u^2)^(p/2) - f u].
    """
    b = None if load is None else load_vector(mesh, load)
    return Point(mesh, u, params, include_mass, b).energy()


def assemble_residual(mesh, u, params, load=None, include_mass=True):
    """Gradient of the discrete energy: one entry per nodal hat function.

    A field solves the discrete Neumann problem iff this vanishes; the
    boundary condition is natural so no boundary terms appear.
    """
    b = None if load is None else load_vector(mesh, load)
    return Point(mesh, u, params, include_mass, b).residual()


def assemble_jacobian(mesh, u, params, include_mass=True):
    """Derivative of the residual; sparse symmetric positive semidefinite.

    The CSR form of Point.jacobian's band in node order, over the full
    coupling pattern (entries that happen to vanish included); the Newton
    solves take the band itself.
    """
    point = Point(mesh, u, params, include_mass)
    offsets, m, where = point.plan.band()
    pos = np.unique(where)
    d, j = offsets[pos // m], pos % m
    values, off = point.jacobian().rows.ravel()[pos], d > 0
    return sp.csr_matrix((np.r_[values, values[off]], (np.r_[j - d, j[off]],
                          np.r_[j, (j - d)[off]])), shape=(m, m))


def lp_norm(mesh, u, p):
    """L^p norm by the order-2 midpoint rule."""
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    _, plan, uv, _ = _gather(mesh, u)
    um = _midpoint_values(uv)
    total = ((plan.area / 3.0) * (np.abs(um) ** p).sum(axis=0)).sum()
    return float(total ** (1.0 / p))


def w1p_seminorm(mesh, u, params):
    """L^p norm of the scaled gradient (exact: gradients are elementwise constant)."""
    _, plan, _, gs = _gather(mesh, u, params.eps_weight)
    mag = np.sqrt(gs[0] * gs[0] + gs[1] * gs[1])
    return float((plan.area * mag ** params.p).sum() ** (1.0 / params.p))


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
