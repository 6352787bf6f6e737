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
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import geometry, solve


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


def _ends(g):
    """Both ends of the vertical, horizontal and diagonal edges, as views."""
    return [(g[:, :-1], g[:, 1:]), (g[:-1], g[1:]), (g[:-1, :-1], g[1:, 1:])]


class _Plan:
    """Everything assembly needs of a mesh that no field changes, on its
    column grid: node is Mesh.grid_nodes.  Triangle arrays are (2, nx, ny),
    lower and upper: area, and the hat gradients gx, gy (3, 2, nx, ny) of
    the vertices.  Edge arrays are flat, the vertical, horizontal and
    diagonal edges in turn: weight, area/3 summed over each edge's
    triangles, is the edge-midpoint rule's.  Metrics and band layouts are
    cached on first use, each in one assignment."""

    def __init__(self, mesh):
        self.node = node = mesh.grid_nodes
        self._cache = {}
        self._shapes = [a.shape for a, _ in _ends(node)]
        self._split = np.cumsum([np.prod(s) for s in self._shapes])
        nx, ny = self._shapes[2]            # one diagonal per quad
        self.area = area = mesh.areas.reshape(nx, ny, 2).transpose(2, 0, 1).copy()
        tri = mesh.triangles.reshape(nx, ny, 2, 3).transpose(3, 2, 0, 1)
        x, y = mesh.nodes[tri, 0], mesh.nodes[tri, 1]
        nxt, prv = [1, 2, 0], [2, 0, 1]
        self.gx = (y[nxt] - y[prv]) / (2.0 * area)
        self.gy = (x[prv] - x[nxt]) / (2.0 * area)
        self.weight = self.to_edges(np.broadcast_to(area / 3.0, self.gx.shape))

    def edge_views(self, a):
        """The vertical (nx+1, ny), horizontal (nx, ny+1) and diagonal
        (nx, ny) parts of a flat edge array."""
        return [e.reshape(s) for e, s
                in zip(np.split(a, self._split[:-1]), self._shapes)]

    def edge_mean(self, g):
        """Grid values g (nx+1, ny+1) at every edge midpoint."""
        return 0.5 * np.concatenate([(a + b).ravel() for a, b in _ends(g)])

    def to_edges(self, k):
        """Per-triangle values of the vertex pairs (0, 1), (0, 2), (1, 2)
        (3, 2, nx, ny) summed onto the edges they join."""
        out = np.zeros(self._split[-1])
        v, h, d = self.edge_views(out)
        # lower (ll, lr, ur): 01 horizontal, 02 diagonal, 12 vertical at i+1;
        # upper (ll, ur, ul): 01 diagonal, 02 vertical at i, 12 horizontal at j+1
        (l01, u01), (l02, u02), (l12, u12) = k
        v[1:] += l12
        v[:-1] += u02
        h[:, :-1] += l01
        h[:, 1:] += u12
        np.add(l02, u01, out=d)
        return out

    def node_sum(self, corners=None, edges=None):
        """Nodal sums of per-triangle vertex values (3, 2, nx, ny) and of
        edge values, each edge's going to both its ends: slice-adds on the
        grid, then the one scatter through node."""
        g = np.zeros(self.node.shape)
        if corners is not None:
            ll, lr, ur, ul = geometry.quad_corners(g)
            for view, (h, k) in zip((ll, lr, ur, ll, ur, ul), np.ndindex(2, 3)):
                view += corners[k, h]       # vertex k of half h
        if edges is not None:
            for (a, b), e in zip(_ends(g), self.edge_views(edges)):
                a += e
                b += e
        out = np.empty(g.size)
        out[self.node] = g
        return out

    def gradient(self, g, eps_weight):
        """Scaled element gradient (2, 2, nx, ny) of grid values g, in
        difference form from vertex 0 (the hat gradients sum to zero):
        constant fields give an exactly zero gradient, which the sublinear
        flux at p < 2 would otherwise amplify from roundoff."""
        ll, lr, ur, ul = geometry.quad_corners(g)
        d = np.stack([lr - ll, ur - ll, ul - ll])
        d1, d2 = d[:2], d[1:]         # to vertices 1 and 2, lower and upper
        gx, gy = self.gx, self.gy
        return np.stack([d1 * gx[1] + d2 * gx[2],
                         (d1 * gy[1] + d2 * gy[2]) / eps_weight])

    def metric(self, eps_weight):
        """area * (b_k . b_l) (3, 2, nx, ny) of the scaled hat gradients
        b = (gx, gy/eps_weight) for the vertex pairs (0, 1), (0, 2), (1, 2)."""
        key = ("metric", eps_weight)
        if key not in self._cache:
            gx, gy, k, l = self.gx, self.gy / eps_weight, [0, 0, 1], [1, 2, 2]
            self._cache[key] = self.area * (gx[k] * gx[l] + gy[k] * gy[l])
        return self._cache[key]

    def band(self, fold=None):
        """Band layout of the jacobian in node order or folded by fold (a
        solve.Reduction): its offsets, size m and the int32 position map,
        where in the rows of a solve.Band each node's diagonal (node order)
        and then each edge goes."""
        key = ("band", None if fold is None else fold.key)
        if key not in self._cache:
            index = fold.index if key[1] else np.arange(self.node.size)
            a, b = (np.concatenate([e[k].ravel() for e in _ends(index[self.node])])
                    for k in (0, 1))
            if np.any(a == b):
                raise ValueError("an edge joins a node to its periodic copy")
            hi, m = np.maximum(a, b), int(index.max()) + 1
            offsets, where = solve.band_layout(
                np.r_[np.zeros(len(index), dtype=np.int64), hi - np.minimum(a, b)],
                np.r_[index, hi], m)
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


def _gather(mesh, u):
    """Checked field, plan and the field on the grid: the one gather."""
    u = _check_field(mesh, u)
    plan = _plan(mesh)
    return u, plan, u[plan.node]


def element_gradients(mesh, u, eps_weight=1.0):
    """Constant gradient of the P1 interpolant on every triangle, (T, 2),
    scaled to (d1, d2/eps_weight)."""
    _, plan, g = _gather(mesh, u)
    return plan.gradient(g, eps_weight).transpose(2, 3, 1, 0).reshape(-1, 2)


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
    return p_flux(xi, FluxParams(p=p / (p - 1.0)))


def p_flux_scalar(x, p):
    """Scalar monotone flux |x|^(p-2) x = sign(x) |x|^(p-1)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def load_vector(mesh, load):
    """Load functional b_i = int f phi_i by the edge-midpoint rule: the load
    term of the energy is -b @ u and of the residual -b.

    ``load`` is a broadcasting callable of (x1, x2) or a nodal field, which
    enters through its P1 interpolant.
    """
    plan = _plan(mesh)
    if callable(load):
        fm = load(*(plan.edge_mean(mesh.nodes[plan.node, k]) for k in (0, 1)))
    else:
        fm = plan.edge_mean(_check_field(mesh, load)[plan.node])
    fm = np.asarray(fm, dtype=float)
    _check_finite(fm, "load")
    # hat function k is 1/2 at the midpoints of the edges at k
    return plan.node_sum(edges=0.5 * plan.weight * fm)


def _check_field(mesh, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise AssemblyError(
            f"field has shape {u.shape}, mesh has {mesh.num_nodes} nodes")
    if not np.all(np.isfinite(u)):
        raise AssemblyError("field contains non-finite entries")
    return u


def _check_finite(values, what):
    """Raise on a non-finite value.  Per-triangle values (..., 2, nx, ny)
    name the lowest-numbered triangle with one; flat edge values name
    none."""
    ok = np.isfinite(values)
    if not ok.all():
        where = ""
        if ok.ndim > 2:     # (i, j, h) order numbers triangle 2(i*ny + j) + h
            bad = ~ok.reshape(-1, *ok.shape[-3:]).all(axis=0)
            where = f" on triangle {np.flatnonzero(bad.transpose(1, 2, 0))[0]}"
        raise AssemblyError(f"non-finite {what}{where}")


class Point:
    """A field evaluated once for its energy, residual and jacobian on the
    plan's column grid: one gather of the grid values, per triangle the
    scaled gradient xi and its power weight, per edge the midpoint value
    and its power weight.  c_k = b_k . xi for the scaled hat gradients b_k
    is formed on first use by the residual or the jacobian, so a trial
    that only needs its energy never builds it.  load_vector b enters as
    -b . u and -b."""

    def __init__(self, mesh, u, params, include_mass=True, load_vector=None):
        self.u, self.plan, g = _gather(mesh, u)
        self.params, self.include_mass = params, include_mass
        self.load_vector = load_vector
        p, delta, w, plan = params.p, params.delta, params.eps_weight, self.plan
        self._gs = gs = plan.gradient(g, w)
        self.sq = gs[0] * gs[0] + gs[1] * gs[1]
        self.sigma = _power_weight(self.sq, p, delta)
        if include_mass:
            self.um = plan.edge_mean(g)
            self.mass_weight = _power_weight(self.um * self.um, p, delta)

    @cached_property
    def c(self):
        """c_k = b_k . xi (3, 2, nx, ny); xi is not kept beside it."""
        gs, plan = self._gs, self.plan
        del self._gs
        return plan.gx * gs[0] + plan.gy * (gs[1] / self.params.eps_weight)

    def energy(self):
        """int (1/p)(d^2+|xi|^2)^(p/2) [+ (1/p)(d^2+u^2)^(p/2)] - b . u."""
        p, d2, plan = self.params.p, self.params.delta ** 2, self.plan
        flux = plan.area * ((d2 + self.sq) * self.sigma) / p
        _check_finite(flux, "flux energy")
        total = flux.sum()
        if self.include_mass:
            mass = plan.weight * ((d2 + self.um * self.um) * self.mass_weight) / p
            _check_finite(mass, "mass energy")
            total += mass.sum()
        if self.load_vector is not None:
            total -= self.load_vector @ self.u
        return float(total)

    def residual(self):
        """Gradient of the energy, one entry per node."""
        plan, mass = self.plan, None
        flux = (plan.area * self.sigma) * self.c
        _check_finite(flux, "flux")
        if self.include_mass:
            mass = self.mass_weight * self.um
            _check_finite(mass, "mass term")
            # hat function k is 1/2 at the midpoints of the edges at k
            mass *= 0.5 * plan.weight
        res = plan.node_sum(flux, mass)
        if self.load_vector is not None:
            res -= self.load_vector
        return res

    def jacobian(self, fold=None):
        """The jacobian's stencil scattered through the plan's position
        map, folded by fold (a solve.Reduction) if given: a solve.Band.

        The flux tensor sigma (I + r xi xi^T), r = (p-2)/(d^2+|xi|^2), is
        positive definite for p > 1 if delta > 0.  Per triangle only its
        off-diagonal entries sigma G_kl + area sigma r c_k c_l (the plan's
        metric G) are formed and summed onto the edges; the b_k and the c_k
        each sum to zero over a triangle, so every diagonal entry is minus
        its row sum.  The mass term adds W m'(u_e)/4 of each edge to its
        entry and to the diagonal of both its ends.
        """
        p, delta = self.params.p, self.params.delta
        if p < 2.0 and delta == 0.0:
            raise ValueError("jacobian with p < 2 requires delta > 0")
        plan, sigma, c = self.plan, self.sigma, self.c
        wc = (plan.area * sigma * _ratio(p, delta * delta + self.sq, delta)) * c
        kl = plan.metric(self.params.eps_weight) * sigma
        kl[0] += wc[0] * c[1]
        kl[1] += wc[0] * c[2]
        kl[2] += wc[1] * c[2]
        _check_finite(kl, "flux tensor")
        off = plan.to_edges(kl)
        diag = -off
        if self.include_mass:
            um = self.um
            mprime = self.mass_weight * (
                1.0 + _ratio(p, delta * delta + um * um, delta) * um * um)
            _check_finite(mprime, "mass tensor")
            mass = 0.25 * plan.weight * mprime
            off += mass
            diag += mass
        offsets, m, where = plan.band(fold)
        values = np.concatenate([plan.node_sum(edges=diag), off])
        rows = np.bincount(where, weights=values, minlength=len(offsets) * m)
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
    # in node order every stencil entry has a position of its own
    d, j = offsets[where // m], where % m
    values, off = point.jacobian().rows.ravel()[where], d > 0
    return sp.csr_matrix((np.r_[values, values[off]], (np.r_[j - d, j[off]],
                          np.r_[j, (j - d)[off]])), shape=(m, m))


def lp_norm(mesh, u, p):
    """L^p norm by the order-2 edge-midpoint rule."""
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    _, plan, g = _gather(mesh, u)
    total = (plan.weight * np.abs(plan.edge_mean(g)) ** p).sum()
    return float(total ** (1.0 / p))


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
