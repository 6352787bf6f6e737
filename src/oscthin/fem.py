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

Assembly uses the structure of the mapped column grid: every quad of a
column has the same two triangles, whose areas and hat gradients follow in
closed form from the column's width and end heights (affine in the row).
The per-mesh plan (_Plan) keeps only those per-column arrays and the band
position map; a field's gradient, residual and jacobian are formed from
its grid differences by broadcasting (Point).  On a cell mesh the last
column is the first, so a periodic field is gathered as it is and the
nodal sums add the last column into the first.
"""

from dataclasses import dataclass

import numpy as np

from . import solve


class AssemblyError(solve.SolveError):
    """Raised when assembly meets a non-finite intermediate value."""


@dataclass(frozen=True)
class FluxParams:
    """Exponent and regularization of the flux."""

    p: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.delta < 0.0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")


def _ends(g):
    """Both ends of the vertical, horizontal and diagonal edges of grid
    values g (ny+1, nx+1), as views."""
    return [(g[:-1], g[1:]), (g[:, :-1], g[:, 1:]), (g[:-1, :-1], g[1:, 1:])]


class _Plan:
    """Everything assembly needs of a mesh that no field changes, on its
    column grid in per-column arrays.  Grid arrays are row by row, columns
    last: node (ny+1, nx+1) is Mesh.grid_nodes transposed, so per-column
    arrays broadcast along the long axis of a thin mesh.

    Quad (i, j) splits into a lower triangle (ll, lr, ur) and an upper one
    (ll, ur, ul); with the row heights a = h_i/ny and b = h_{i+1}/ny every
    quad of column i has the same two.  Triangle arrays are (2, ny, nx),
    lower then upper.  Per half: area (2, 1, nx) is Mesh.column_areas, c
    (2, 1, nx) is b then a and k (2, ny, 1) is j then j + 1; the width dx
    and the slope s = b - a are (nx,).  A half holds one horizontal grid
    difference dh and one vertical dv (lower lr - ll and ur - lr, upper
    ur - ul and ul - ll), and its gradient ((dh - s k dv/c)/dx, dv/(c eps))
    is affine in the row.  eps is the mesh's (1 if it has none, as a cell):
    the plan is the one reader of the thin scaling (d1, d2/eps).

    Edge arrays are flat, the vertical, horizontal and diagonal edges in
    turn.  The band layout is cached on first use in one assignment.
    """

    def __init__(self, mesh):
        self.node = mesh.grid_nodes.T
        self.eps = 1.0 if mesh.eps is None else mesh.eps
        self.size = mesh.num_nodes
        self._band = None
        shapes = [a.shape for a, _ in _ends(self.node)]
        ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes]).tolist()
        self._parts = list(zip(ends[:-1], ends[1:], shapes))
        self.n_edges = ends[-1]
        hs, ny = mesh.grid_heights, mesh.grid_rows
        self.dx = np.diff(mesh.grid_x)
        self.area = mesh.column_areas[:, None, :]
        self.c = np.stack([hs[1:], hs[:-1]])[:, None, :] / ny
        self.s = self.c[0, 0] - self.c[1, 0]
        self.k = (np.arange(ny) + np.arange(2.0)[:, None])[:, :, None]

    def edge_views(self, a):
        """The vertical (ny, nx+1), horizontal (ny+1, nx) and diagonal
        (ny, nx) parts of a flat edge array."""
        return [a[start:stop].reshape(shape)
                for start, stop, shape in self._parts]

    def halves(self, a):
        """The horizontal and the vertical edge of each half, lower then
        upper (the edges of its dh and dv), as views of a flat edge array."""
        v, h, _ = self.edge_views(a)
        return [(h[:-1], v[:, 1:]), (h[1:], v[:, :-1])]

    def edge_mean(self, g):
        """Grid values g (ny+1, nx+1) at every edge midpoint."""
        return 0.5 * np.concatenate([(a + b).ravel() for a, b in _ends(g)])

    def weigh(self, e, scale=1.0):
        """The flat edge array e times scale and the edge-midpoint rule's
        weights, in place: area/3 summed over each edge's triangles."""
        lower, upper = self.area[:, 0] * (scale / 3.0)
        vertical = np.zeros(len(lower) + 1)
        vertical[1:] += lower
        vertical[:-1] += upper
        v, h, d = self.edge_views(e)
        v *= vertical
        h[0] *= lower
        h[1:-1] *= lower + upper
        h[-1] *= upper
        d *= lower + upper
        return e

    def node_sum(self, edges=None, diffs=None):
        """Nodal sums of flat edge arrays: each value of edges goes to both
        ends of its edge, each of diffs (the coefficient of a grid
        difference) to its second end and, negated, to its first.
        Slice-adds on the grid, the last column added into the first on a
        cell, then the one scatter through node."""
        g = np.zeros(self.node.shape)
        for values, first in ((edges, np.add), (diffs, np.subtract)):
            if values is not None:
                for (a, b), e in zip(_ends(g), self.edge_views(values)):
                    first(a, e, out=a)
                    b += e
        if self.size < g.size:      # a cell: its last column is its first
            g[:, 0] += g[:, -1]
            g = g[:, :-1]
        out = np.empty(self.size)
        # column by column: out in node order
        out[self.node[:, :g.shape[1]].T] = g.T
        return out

    def gradient(self, g):
        """Scaled element gradient xi (2, 2, ny, nx) of grid values g from
        the grid differences of each half: constant fields give an exactly
        zero gradient, which the sublinear flux at p < 2 would otherwise
        amplify from roundoff."""
        v, h = np.diff(g, axis=0), np.diff(g, axis=1)
        xi = np.array([[h[:-1], h[1:]], [v[:, 1:], v[:, :-1]]])
        del v, h
        gx, gy = xi
        gy /= self.c
        gx -= self.s * self.k * gy
        gx /= self.dx
        gy /= self.eps
        return xi

    def band(self):
        """Band layout of the jacobian in node order: its offsets, size m
        and the int32 position map of the edges alone (the diagonal is the
        rows' first m entries), where in the rows of a solve.Band each edge
        goes: offset rank times m plus the lower of its two indices, built
        edge family by edge family."""
        if self._band is None:
            m = self.size
            grid = self.node.astype(np.int32)
            present = np.zeros(m, dtype=bool)
            present[0] = True
            for a, b in _ends(grid):
                present[np.abs(a - b)] = True
            offsets = np.flatnonzero(present)
            if len(offsets) * m >= 2 ** 31:
                raise ValueError("the band does not fit int32 positions")
            rank = (np.cumsum(present, dtype=np.int32) - 1) * np.int32(m)
            where = np.empty(self.n_edges, dtype=np.int32)
            for (a, b), out in zip(_ends(grid), self.edge_views(where)):
                np.minimum(a, b, out=out)
                out += rank[np.abs(a - b)]
            where.flags.writeable = False
            self._band = (offsets, m, where)
        return self._band


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


def element_gradients(mesh, u):
    """Constant gradient of the P1 interpolant on every triangle, (T, 2),
    scaled to (d1, d2/eps) with the mesh's eps (1 on a cell)."""
    _, plan, g = _gather(mesh, u)
    return plan.gradient(g).transpose(3, 2, 1, 0).reshape(-1, 2)


def _power_weight(sq, p, delta):
    """(delta^2 + sq)^((p-2)/2) with the singular p<2, delta=0 case masked.

    The masked entries multiply a zero vector in every caller, so mapping
    them to 0 realizes the continuous limit |xi|^(p-2) xi -> 0.  A weight
    that overflows (large p) is inf, an infinite energy or AssemblyError.
    """
    base = delta * delta + np.asarray(sq, dtype=float)
    if p >= 2.0 or delta > 0.0:
        with np.errstate(over="ignore"):
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


def p_flux_scalar(x, p):
    """Scalar monotone flux |x|^(p-2) x = sign(x) |x|^(p-1)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def load_vector(mesh, load):
    """Load functional b_i = int f phi_i by the edge-midpoint rule: the load
    term of the energy is -b @ u and of the residual -b.

    ``load`` is a broadcasting callable of (x1, x2), evaluated at the edge
    midpoints of the column grid (the mesh's nodes are not built), or a
    nodal field, which enters through its P1 interpolant.
    """
    plan = _plan(mesh)
    if callable(load):
        fm = load(*map(plan.edge_mean, mesh.grid_coordinates()))
    else:
        fm = plan.edge_mean(_check_field(mesh, load)[plan.node])
    fm = np.asarray(fm, dtype=float)
    _check_finite(fm, "load")
    # hat function k is 1/2 at the midpoints of the edges at k
    return plan.node_sum(
        edges=plan.weigh(np.broadcast_to(fm, (plan.n_edges,)) * 0.5))


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
    (the plan's (..., 2, ny, nx) with its last two axes swapped) name the
    lowest-numbered triangle with one; flat edge values name none."""
    ok = np.isfinite(values)
    if not ok.all():
        where = ""
        if ok.ndim > 2:     # (i, j, h) order numbers triangle 2(i*ny + j) + h
            bad = ~ok.reshape(-1, *ok.shape[-3:]).all(axis=0)
            where = f" on triangle {np.flatnonzero(bad.transpose(1, 2, 0))[0]}"
        raise AssemblyError(f"non-finite {what}{where}")


_by_value = np.errstate(over="ignore", invalid="ignore")  # Point checks values


class Point:
    """A field evaluated once for its energy, residual and jacobian on the
    plan's column grid: one gather of the grid values, per triangle the
    scaled gradient xi (2, 2, ny, nx) and its power weight sigma, per edge
    the midpoint value and its power weight.  The residual and jacobian
    form what else they need from the plan's per-column arrays.
    load_vector b enters as -b . u and -b.  slope is the gradient of a
    linear background slope * x1 added to the field, so xi is that of
    slope * x1 + u (the cell's unit macroscopic gradient, slope 1)."""

    @_by_value
    def __init__(self, mesh, u, params, include_mass=True, load_vector=None,
                 slope=0.0):
        self.u, self.plan, g = _gather(mesh, u)
        self.params, self.include_mass = params, include_mass
        self.load_vector = load_vector
        p, delta, plan = params.p, params.delta, self.plan
        self.xi = xi = plan.gradient(g)
        if slope:
            xi[0] += slope
        self.sq = xi[0] * xi[0] + xi[1] * xi[1]
        self.sigma = _power_weight(self.sq, p, delta)
        if include_mass:
            self.um = plan.edge_mean(g)
            self.mass_weight = _power_weight(self.um * self.um, p, delta)

    @_by_value
    def energy(self):
        """int (1/p)(d^2+|xi|^2)^(p/2) [+ (1/p)(d^2+u^2)^(p/2)] - b . u,
        +inf where that is not finite: a line search rejects the trial."""
        p, d2, plan = self.params.p, self.params.delta ** 2, self.plan
        total = ((plan.area / p) * ((d2 + self.sq) * self.sigma)).sum()
        if self.include_mass:
            total += plan.weigh((d2 + self.um * self.um) * self.mass_weight,
                                1.0 / p).sum()
        if self.load_vector is not None:
            total -= self.load_vector @ self.u
        return float(total) if np.isfinite(total) else np.inf

    @_by_value
    def residual(self):
        """Gradient of the energy, one entry per node.  In a half's grid
        differences xi is ((dh - s k dv/c)/dx, dv/(c eps)), so the energy's
        gradient in (dh, dv) is (c xi_1, psi) sigma/2 with
        psi = dx xi_2/eps - s k xi_1; these coefficients go through the
        adjoint of the grid differences."""
        plan, mass = self.plan, None
        flux = (0.5 * self.sigma) * self.xi       # in place from here on
        flux[1] *= plan.dx / plan.eps
        flux[1] -= plan.s * plan.k * flux[0]
        flux[0] *= plan.c
        _check_finite(flux.swapaxes(-1, -2), "flux")
        diffs = np.zeros(plan.n_edges)
        for (h, v), fh, fv in zip(plan.halves(diffs), *flux):
            h += fh
            v += fv
        del flux
        if self.include_mass:
            mass = self.mass_weight * self.um
            _check_finite(mass, "mass term")
            # hat function k is 1/2 at the midpoints of the edges at k
            plan.weigh(mass, 0.5)
        res = plan.node_sum(mass, diffs)
        if self.load_vector is not None:
            res -= self.load_vector
        return res

    @_by_value
    def jacobian(self):
        """The jacobian's stencil scattered through the plan's position
        map: a solve.Band.

        The flux tensor sigma (I + r xi xi^T), r = (p-2)/(d^2+|xi|^2), is
        positive definite for p > 1 if delta > 0.  In a half's grid
        differences (dh, dv) it is, with q = sigma/(2 dx) and the
        residual's psi,
            K_hh = q c (1 + r xi_1^2),   K_hv = q (r xi_1 psi - s k),
            K_vv = q ((s k)^2 + (dx/eps)^2 + r psi^2) / c,
        and its vertex pairs are K_hv - K_hh on the horizontal edge,
        K_hv - K_vv on the vertical one and -K_hv on the diagonal; it is
        summed onto the edges one half at a time.  The hat gradients sum to
        zero over a triangle, so every diagonal entry is minus its row sum.
        The mass term adds W m'(u_e)/4 of each edge to its entry and to the
        diagonal of both its ends.
        """
        p, delta = self.params.p, self.params.delta
        if p < 2.0 and delta == 0.0:
            raise ValueError("jacobian with p < 2 requires delta > 0")
        plan = self.plan
        off = np.zeros(plan.n_edges)
        diagonal = plan.edge_views(off)[2]
        stretch = (plan.dx / plan.eps) ** 2
        for half, (h, v) in enumerate(plan.halves(off)):
            sk, c, (xi1, xi2) = plan.s * plan.k[half], plan.c[half], self.xi[:, half]
            psi = plan.dx / plan.eps * xi2 - sk * xi1
            q = self.sigma[half] * (0.5 / plan.dx)
            qr = q * _ratio(p, delta * delta + self.sq[half], delta)
            k_hv = qr * xi1 * psi - q * sk
            diagonal -= k_hv
            h += k_hv - c * (q + qr * xi1 * xi1)
            v += k_hv - (q * (sk * sk + stretch) + qr * psi * psi) / c
        _check_finite(off, "flux tensor")
        diag = -off
        if self.include_mass:
            um = self.um
            mass = plan.weigh(self.mass_weight * (
                1.0 + _ratio(p, delta * delta + um * um, delta) * um * um), 0.25)
            _check_finite(mass, "mass tensor")
            off += mass
            diag += mass
            del mass
        offsets, m, where = plan.band()
        rows = np.zeros(len(offsets) * m)
        rows[:m] = plan.node_sum(edges=diag)
        del diag
        np.add.at(rows, where, off)
        return solve.Band(rows.reshape(len(offsets), m), offsets)


def lp_norm(mesh, u, p):
    """L^p norm by the order-2 edge-midpoint rule."""
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    _, plan, g = _gather(mesh, u)
    total = plan.weigh(np.abs(plan.edge_mean(g)) ** p).sum()
    return float(total ** (1.0 / p))
