"""flowsteer: constructive steering controls for divergence-free fields.

Build or audit a bounded incompressible vector field, correct it so a radial
weight makes almost every point recurrent, and assemble a small piecewise
control that drives the state between two prescribed points.  Local
endpoint steering, bump-diffeomorphism trajectory surgery, and flat-torus
orbit connection are exposed as standalone tools.
"""

from .correction import (CorrectionResult, CorrectionSettings, PsiWeight,
                         certify_proposition, check_weighted_divfree, correct)
from .deform import (FieldStats, PhiMap, build_phi_map, bump_constants,
                     choose_delta, correct_start, pushforward_field)
from .errors import (BudgetExceeded, DegenerateBudget, EpsilonUnreachable,
                     FieldConstructionError, FlowsteerError,
                     HypothesisViolation, IntegrationError, NoReturnFound,
                     NoTransitFound, ResidualTooLarge, ScheduleError,
                     SupportOverlap, TargetOutOfRange, VMDViolation)
from .fields import (DriftReport, ScalarField2D, VectorField,
                     build_field, builtin_field, check_vmd,
                     estimate_divergence, estimate_norms, expression_field,
                     from_stream_function_2d, from_vector_potential_3d,
                     grid_field, mean_drift)
from .integrate import (ControlSchedule, IntegratorSettings, Segment,
                        Trajectory, integrate, integrate_controlled, sup_norm,
                        zero_schedule)
from .planner import (PlanRequest, PlanResult, VerifyReport, choose_rho_tau,
                      plan, verify_plan, waypoints)
from .recurrence import (RecurrenceResult, find_poisson_stable, near_returns,
                         nonwandering_fraction)
from .sampling import Box
from .steer_local import (LocalSteerParams, SteerSegment, compute_tau_rho,
                          steer_endpoint, steer_from_states)
from .torus import (ConnectBudgets, TransitResult, connect, find_transit,
                    torus_distance, wrap_point)

__version__ = "0.1.0"
