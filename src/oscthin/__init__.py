"""Homogenization toolkit for the Neumann p-Laplacian on thin domains
with oscillating upper boundaries: cell problem, effective coefficient,
thin-domain and 1-D limit solves, corrector and convergence studies."""

import os

# Newton steps factor narrow bands, where BLAS threads only contend: one per
# process unless set (effective only if numpy is not yet imported)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .fem import FluxParams
from .geometry import Mesh, ProfileSpec, build_cell_mesh, build_thin_mesh
from .homogenize import CellSolution, solve_cell
from .limit1d import Limit1DProblem, solve_homogenized
from .solve import SolveOptions, newton_solve
from .study import LoadSpec, StudyConfig, StudyReport, run_study

__version__ = "0.1.0"

__all__ = [
    "CellSolution",
    "FluxParams",
    "Limit1DProblem",
    "LoadSpec",
    "Mesh",
    "ProfileSpec",
    "SolveOptions",
    "StudyConfig",
    "StudyReport",
    "build_cell_mesh",
    "build_thin_mesh",
    "newton_solve",
    "run_study",
    "solve_cell",
    "solve_homogenized",
    "__version__",
]
