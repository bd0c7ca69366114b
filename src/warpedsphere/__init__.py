"""Numerical laboratory for warped-product 3-sphere geometry.

Constructs metrics g = phi(theta)^2 dtheta^2 + f(theta)^2 g_{S^2} that
dominate the round metric, solves the radial Llarull potential equation,
and verifies the quantitative estimate chain behind a scalar-curvature
stability theorem: flux identities, global gradient bounds, polar-shell
estimates, good-set volume bounds, and dyadic convergence experiments.
"""

from .errors import (ConfigError, ConstructionError, DegenerateMetricError,
                     DomainError, ResidualGuardError, SolverError,
                     StructuralError, WarpedSphereError)
from .grids import RadialGrid, refine_nodes
from .metrics import (ClassParams, GeometrySummary, MembershipReport,
                      ValidationReport, WarpedMetric, ball_volume,
                      cheeger_levelset, load_profile_table, scalar_curvature,
                      scalar_deficit, summarize, validate, volume)
from .distance import diameter_bounds, meridian_arclength
from .families import (FAMILIES, FAMILY_CATALOG, bubble_sphere, bump_sphere,
                       make, round_sphere, scaled_sphere, tendril_sphere)
from .potential import (PotentialSolution, flux_residual, pde_residual,
                        solve_quadrature)
from .functionals import (AlignmentConstants, CoreIntegrals, GoodSetReport,
                          Evaluation, PointPickResult, ShellSelection,
                          good_set_volumes, point_pick, weighted_median)
from .constants import constant_ledger
from .verification import (SUITES, CheckResult, ConvergenceReport,
                           SequenceEntry, SequenceSpec, run_all_checks,
                           run_sequence, tol_disc)
from .report import (build_report, checks_csv, config_hash, report_json,
                     sequence_csv, write_text_atomic)

__version__ = "0.1.0"
