"""Rotational surfaces whose second fundamental form has unit length.

The classification reduces to a planar field on {z > |cos theta|}: this
package integrates it, classifies the shooting family, locates the critical
height, and emits verified profile curves and revolution meshes.
"""

from .errors import (
    BracketError,
    DegenerateProfileError,
    DomainError,
    ExtensionSpecError,
    InvalidLambdaError,
    NoSignChangeError,
    NotOnAxisError,
    NotPeriodicError,
    RangeError,
    RotsurfError,
    SeedError,
    SlopeZeroError,
    StepLimitError,
    StepUnderflowError,
    TooFewSamplesError,
)
from .field import (
    AsymptoticReport,
    CurvaturePair,
    PhasePoint,
    PhaseVelocity,
    R4_LIMIT,
    SQRT2,
    THETA3_LIMIT,
    asymptotics,
    curvatures,
    domain_gap,
    field_eval,
    in_domain,
    theta_second,
)
from .integrate import (
    EndInfo,
    IntegratorConfig,
    Trajectory,
    concat,
    corner_series,
    integrate,
    launch_separatrix,
    reflect,
    with_mirror,
)
from .profile import (
    ExtensionSpec,
    IntersectionInfo,
    JunctionReport,
    PeriodInfo,
    ProfileCurve,
    RegularityReport,
    VerificationReport,
    build_profile,
    cylinder_profile,
    extend_separatrix,
    find_period,
    find_self_intersection,
    separatrix_profile,
    sphere_profile,
    verify_profile,
)
from .shooting import (
    INCOMPLETE_HIGH,
    INCOMPLETE_LOW,
    PERIODIC,
    SEPARATRIX,
    SPHERE,
    Lambda0Result,
    LambdaClass,
    PortraitEntry,
    PortraitReport,
    backward_trajectory,
    classify_lambda,
    find_lambda0,
    full_curve,
    portrait,
)
from .surface import Mesh, export_mesh_csv, export_obj, revolve
from .text import parse_obj

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
