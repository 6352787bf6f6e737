"""Periodic cell problem, effective coefficient and limit-problem data.

The cell unknown is the periodic mean-zero perturbation phi of the linear
background y1: the total field v = y1 + phi carries a unit macroscopic
horizontal gradient and solves the flux equilibrium equation on one period
of the oscillating geometry.  Because y1 is itself a P1 function, v is
represented exactly on the mesh and the background never needs separate
quadrature.

The effective coefficient is reported through two discretizations of the
same integral - the first-component flux average and the energy average -
whose agreement certifies convergence of the cell solve.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem, geometry, solve


class UnconvergedCellError(RuntimeError):
    """The two effective-coefficient formulas disagree beyond tolerance."""


# agreement of the two coefficient formulas expected from a converged solve,
# and the looser threshold treated as evidence the solve is broken
COEFF_AGREEMENT = 1e-6
COEFF_FAILURE = 1e-4


@dataclass
class CellSolution:
    """Converged cell solve plus the derived scalar data.

    phi is the mean-zero periodic perturbation; cell_measure the triangulated
    cell area; coeff_flux and coeff_energy the two discretizations of the
    effective coefficient, agreeing to COEFF_AGREEMENT at the solver's
    tolerance.
    """

    mesh: geometry.Mesh
    phi: np.ndarray
    p: float
    delta: float
    cell_measure: float
    coeff_flux: float
    coeff_energy: float
    diagnostics: solve.NewtonDiagnostics

    @cached_property
    def total_field(self):
        """Nodal values of v = y1 + phi."""
        return self.mesh.nodes[:, 0] + self.phi

    @cached_property
    def gradients(self):
        """Per-triangle gradients of v (constant on each triangle)."""
        return fem.element_gradients(self.mesh, self.total_field)

    @cached_property
    def flux(self):
        """Per-triangle unregularized flux of v."""
        params = fem.FluxParams(p=self.p, delta=0.0, eps_weight=1.0)
        return fem.p_flux(self.gradients, params)


class _CellFunctional:
    """Flux-only energy of v = y1 + phi as callbacks over phi."""

    def __init__(self, mesh, p):
        self.mesh = mesh
        self.p = p
        self.base = mesh.nodes[:, 0].copy()

    def _params(self, delta):
        return fem.FluxParams(p=self.p, delta=delta, eps_weight=1.0)

    def energy(self, phi, delta):
        return fem.assemble_energy(self.mesh, self.base + phi,
                                   self._params(delta), include_mass=False)

    def residual(self, phi, delta):
        return fem.assemble_residual(self.mesh, self.base + phi,
                                     self._params(delta), include_mass=False)

    def jacobian(self, phi, delta):
        return fem.assemble_jacobian(self.mesh, self.base + phi,
                                     self._params(delta), include_mass=False)


def cell_constraints(mesh):
    """Periodic identification plus the zero-mean normalization.

    The solver enforces the mean constraint inside each Newton step
    (bordered system, solved through a grounded band), which keeps the
    jacobian uniformly definite on the admissible space; the post-shift
    then only mops up roundoff.
    """
    return solve.ConstraintSet(
        periodic_pairs=mesh.periodic_pairs,
        mean_zero_postshift=True,
        mean_weights=mesh.node_weights,
    )


def solve_cell(mesh, p, opts=None):
    """Solve the periodic cell problem and package the scalar outputs."""
    opts = opts or solve.SolveOptions()
    # the cell step factors a band as wide as the folded numbering; a mesh
    # not in ring order (a cell mesh written in column order) would need
    # one about nx/2 times wider, so it is refused before that is allocated
    bw = geometry.folded_half_bandwidth(mesh)
    if mesh.grid_rows and bw > 2 * mesh.grid_rows + 3:
        raise solve.LinearSolveError(
            f"folded half-bandwidth {bw} is wider than the ring order's "
            f"{2 * mesh.grid_rows + 3}: rebuild the mesh with build_cell_mesh")
    functional = _CellFunctional(mesh, p)
    phi, diagnostics = solve.newton_solve(
        functional, np.zeros(mesh.num_nodes), cell_constraints(mesh), opts)

    measure = geometry.mesh_area(mesh)
    mean = mesh.weighted_mean(phi)
    if abs(mean) > 1e-10:
        raise UnconvergedCellError(
            f"cell perturbation has nonzero mean {mean:.3e}")
    cell = CellSolution(
        mesh=mesh, phi=phi, p=p, delta=opts.final_delta,
        cell_measure=measure, coeff_flux=0.0, coeff_energy=0.0,
        diagnostics=diagnostics)
    cell.coeff_flux, cell.coeff_energy = _coefficient_pair(cell)
    if cell.coeff_flux <= 0.0 or cell.coeff_energy <= 0.0:
        raise UnconvergedCellError(
            f"effective coefficient not positive: flux={cell.coeff_flux!r} "
            f"energy={cell.coeff_energy!r}")
    effective_coefficient(cell)   # formula disagreement flags a bad solve
    return cell


def _coefficient_pair(cell):
    grads = cell.gradients
    area = cell.mesh.areas
    p = cell.p
    sq = (grads * grads).sum(axis=1)
    mag = np.sqrt(sq)
    weight = fem._power_weight(sq, p, 0.0)
    flux = float((area * weight * grads[:, 0]).sum() / cell.cell_measure)
    energy = float((area * mag ** p).sum() / cell.cell_measure)
    return flux, energy


def effective_coefficient(cell):
    """Effective coefficient of the 1-D limit problem (flux form).

    Recomputes both discretizations and errors out if they disagree beyond
    COEFF_FAILURE, which indicates an unconverged cell solve.
    """
    flux, energy = _coefficient_pair(cell)
    if abs(flux - energy) > COEFF_FAILURE * abs(energy):
        raise UnconvergedCellError(
            f"coefficient formulas disagree: flux={flux!r} energy={energy!r}")
    return flux


def level_fraction(spec, height, n_samples=10_000):
    """Fraction of one period where the profile exceeds the given height.

    Sampled rather than root-found: profiles may touch a level
    tangentially, and 1e4 samples resolve the fraction to 1e-4.
    """
    ys = (np.arange(n_samples) + 0.5) * (spec.period / n_samples)
    return float(np.mean(spec.evaluate(ys) > height))


def measure_identity_check(spec, n_levels=4096, n_samples=16384):
    """Both sides of the identity  L * int_0^gmax fraction(h) dh = |cell|.

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


def homogenized_flux_density(cell, grad_value, height):
    """Averaged flux response at one height of the cell, a 2-vector.

    Averages |grad v|^(p-2) grad v along the horizontal fiber through the
    cell at the given height, weighted by the scalar flux of the
    macroscopic gradient value.  Only the part of the fiber inside the cell
    contributes, so no extension beyond the oscillating boundary is needed.
    """
    fiber = geometry.fiber_matrix(cell.mesh, axis=1, values=[height])
    fiber_avg = (fiber @ cell.flux)[0] / cell.mesh.width
    return fem.p_flux_scalar(grad_value, cell.p) * fiber_avg


def flux_density_height_integral(cell, grad_value, n_levels=4096):
    """Midpoint-rule integral over heights of the first flux component
    (the fiber averages do not depend on grad_value: pass an array of
    values, and one operator serves them all)."""
    top = float(cell.mesh.nodes[:, 1].max())
    levels = (np.arange(n_levels) + 0.5) * (top / n_levels)
    fiber = geometry.fiber_matrix(cell.mesh, axis=1, values=levels)
    fiber_sum = float((fiber @ cell.flux[:, 0]).sum()) / cell.mesh.width
    return fem.p_flux_scalar(grad_value, cell.p) * fiber_sum * (top / n_levels)


def rescale_forcing(fhat_samples, cell_measure, period):
    """Limit forcing: fiber load integrals scaled by period / cell measure."""
    if cell_measure <= 0.0:
        raise ValueError(f"cell measure must be positive, got {cell_measure}")
    return np.asarray(fhat_samples, dtype=float) * (period / cell_measure)


def format_cell_summary(cell):
    """One structured-text record per scalar output of a cell solve."""
    lines = [
        f"p {cell.p!r}",
        f"period {cell.mesh.width!r}",
        f"delta {cell.delta!r}",
        f"cell_measure {cell.cell_measure!r}",
        f"coeff_flux {cell.coeff_flux!r}",
        f"coeff_energy {cell.coeff_energy!r}",
        f"residual {cell.diagnostics.final_residual!r}",
        f"newton_iterations {cell.diagnostics.total_iterations}",
    ]
    return "\n".join(lines) + "\n"


def write_cell_summary(cell, path):
    with open(path, "w") as fh:
        fh.write(format_cell_summary(cell))


def read_cell_summary(path):
    """Read a summary written by write_cell_summary into a dict of floats."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, value = line.split()
            out[key] = float(value)
    return out
