"""Prescribed k-curvature spacelike graphs over the sphere in de Sitter space.

A numpy/scipy toolkit for the curvature equation f(lam[A(u)]) = psi(x, tau):
symmetric-function kernel and Garding-cone tests, finite-difference
sphere grids, induced graph geometry, prescription audits and barrier
scans, a priori bound monitors, and a damped-Newton homotopy
continuation solver from the exactly solvable umbilic start.
"""

__version__ = "0.1.0"

from .errors import (AdmissibilityError, ConfigError, ContinuationError,
                     InternalConsistencyError, NewtonError, SpacelikeError)
from .geometry import (InducedGeometry, induced_geometry, induced_metric,
                       shape_eigenvalues, tilt_and_height)
from .grid import SphereGrid, build_grid, covariant_hessian
from .monitor import (BoundReport, IdentityResiduals, check_bounds,
                      identity_residuals, maclaurin_monitor)
from .prescription import (AuditBox, BarrierScan, ConstantPrescription,
                           HomotopyPrescription, Prescription, PsiEval,
                           ReferencePrescription, SpaceTiltPower,
                           StructuralAudit, TiltConcave, TiltPower,
                           audit_structural, make_prescription, scan_barriers)
from .solver import (ContinuationSolver, HomotopyState, NewtonResult,
                     SolverConfig, StepRecord, combined_barriers,
                     ellipticity_margin, initial_constant, run_homotopy,
                     zeroth_coefficient_at_start)
from .symmetric import (ConeReport, elementary_symmetric, in_gamma_k,
                        normalized_root, normalized_root_gradient)
