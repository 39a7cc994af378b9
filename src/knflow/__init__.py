"""knflow: gradient flows of dimensionally convex functionals on model spaces.

Numerical verifiers for convexity inequalities with distortion
coefficients, evolution variational inequalities in several equivalent
forms, time-change correspondences between flows, contraction-rate
certificates, slope formulas and energy-dissipation audits, together with
closed-form, ODE and proximal (minimizing-movement) flow generators.
"""

__version__ = "0.1.0"

from .analysis import (
    Bracket,
    ContractionRate,
    EnergyAudit,
    EviReport,
    bracket,
    check_evi_integrated,
    check_evi_kn,
    check_evi_lambda,
    check_evi_local,
    contraction_rate,
    energy_audit,
    forward_upper_derivative,
    metric_derivative,
    slope,
)
from .coefficients import (
    CurvatureParams,
    c_kn,
    s_kn,
    sigma,
    sigma_rate_limits,
)
from .convexity import (
    ConvexityReport,
    check_gluing,
    check_kn_convex,
    check_lambda_convex,
    check_lifting,
)
from .core import DEFAULT_TOL, SampleSpec, Tolerance
from .flows import (
    Curve,
    ProxStep,
    minimizing_movement,
    ode_flow,
    oracle_flow,
    prox,
    time_grid,
)
from .functionals import (
    Functional,
    directional_derivative,
    expression_functional,
    fN_functional,
    fN_ratio_values,
    fN_values,
    library,
)
from .reparam import (
    Membership,
    class_membership,
    r1,
    r2,
    roundtrip_error,
)
from .spaces import (
    EuclideanRn,
    Geodesic,
    Interval,
    ModelSpace,
    dist,
    geodesic,
    geodesic_eval,
    space_from_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
