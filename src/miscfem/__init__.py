"""Finite element solver for incompressible miscible displacement in
porous media: quadratic pressure / linear concentration Galerkin scheme
with a lagged linearization, velocity-dependent dispersion, and a
manufactured-solution convergence harness."""

from .dispersion import (DispersionParams, ScalarDispersionParams,
                         bear_scheidegger, dispersion_eigenvalues,
                         dispersion_matrices)
from .elements import (DofMap, QuadratureRule, build_dofmap, edge_quadrature,
                       interpolate, quadrature_rule, reference_basis)
from .errors import ErrorRecord, measure_errors, observed_orders
from .forms import (CoefficientBlowupError, ConcentrationSystem,
                    Discretization, PressureSystem, ProblemCoefficients,
                    assemble_concentration, assemble_pressure,
                    build_discretization, compute_velocity)
from .manufactured import (ManufacturedSolution, disk_trig_case,
                           fd_divergence, manufacture_sources,
                           problem_coefficients, strong_residuals)
from .meshing import (Mesh, MeshConstructionError, MeshFormatError,
                      QualityReport, generate_disk_mesh, load_mesh,
                      mesh_quality, save_mesh)
from .solvers import (SolveReport, SparsityPattern, cg_deflated,
                      from_triplets, gmres, sparsity_pattern)
from .studies import (ConfigError, ConvergenceReport, RowResult, StudyConfig,
                      config_from_dict, load_config, run_single,
                      run_spatial_study, run_temporal_study, simulate_row)
from .timestepping import (PressureLevel, SolverOptions, StepFailure,
                           StepRecord, TimeGrid, TimeStepState,
                           finalize_pressure, initialize, run, step)
from .vtkio import write_vtk

__version__ = "0.1.0"
