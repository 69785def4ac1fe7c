"""Closed-form evaluation of the phase-plane vector field and its diagnostics.

The planar field drives the tangent angle ``theta`` and height ``z`` of a
unit-speed profile curve whose revolution surface has squared principal
curvatures summing to one:

    dtheta/dt = sqrt(1 - cos(theta)^2 / z^2),     dz/dt = sin(theta)

defined on the open region z > |cos(theta)|.  Everything here is a pure
function of (theta, z); the integrator lives in :mod:`rotsurf.integrate`.
Its stepping loop copies the arithmetic of slope and domain_gap inline, and
a test holds every stage it stores to these functions bit for bit: change
one, change the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SlopeZeroError

SQRT2 = math.sqrt(2.0)
# The first integral's level at the corner (0, 1), the separatrix's: the
# shooting height lambda0 is the one whose level is this.
CORNER_LEVEL = math.exp(0.5 * math.pi)

# The least z whose square z * z is positive (it rounds to the least
# subnormal, 5e-324); below it z * z is 0, slope_sq reads -inf and slope
# clamps to 0 there.
Z_MIN = float.fromhex("0x1.6a09e667f3bcdp-538")  # 1.5717277847026288e-162
# The greatest z whose square z * z is finite, the square root of the
# largest double.  Above it z * z and (z - cos)(z + cos) overflow, slope_sq
# reads inf / inf and slope clamps to 0, so no height above it is
# integrated (integrate.integrate, shooting.classify_lambda).
Z_MAX = float.fromhex("0x1.fffffffffffffp+511")  # 1.3407807929942596e154

# Limits approached along the critical trajectory at the corner (0, 1).
THETA3_LIMIT = 1.0 / 3.0
R4_LIMIT = 4.0 * SQRT2 / 3.0


@dataclass(frozen=True)
class PhasePoint:
    """A point (theta, z) of the phase plane, z > 0.

    theta is stored unwrapped (not reduced mod 2*pi): the periodic family
    satisfies theta(t + period) = theta(t) + 2*pi and needs the lift.
    Boundary points (z == |cos theta|) are representable so that trajectory
    limit points can be stored; all field operations guard with in_domain.
    """

    theta: float
    z: float

    def __post_init__(self):
        if not self.z > 0.0:
            raise DomainError(f"z must be positive, got {self.z}")


@dataclass(frozen=True)
class PhaseVelocity:
    dtheta: float
    dz: float


@dataclass(frozen=True)
class CurvaturePair:
    k1: float  # meridian curvature, equals dtheta/dt
    k2: float  # parallel curvature, equals -cos(theta)/z


@dataclass(frozen=True)
class AsymptoticReport:
    """Corner diagnostics: the four limit ratios and the closed-form theta''."""

    r1: float  # sin^2(theta) / theta'^2            -> 0 at the corner
    r2: float  # (z - cos theta) / sin theta        -> 0
    r3: float  # sin^(3/2)(theta) / (z - cos theta) -> 0
    r4: float  # sin^2(theta) / (z - cos theta)^1.5 -> 4*sqrt(2)/3
    theta2: float


def z_minus_cos(theta: float, z: float) -> float:
    # (z-1) + 2 sin^2(theta/2) == z - cos(theta) without cancellation when
    # z and cos(theta) are both near 1; the shooting discriminates cases
    # exactly in that regime.
    s = math.sin(0.5 * theta)
    return (z - 1.0) + 2.0 * s * s


def z_plus_cos(theta: float, z: float) -> float:
    return z + math.cos(theta)


def domain_gap(theta: float, z: float) -> float:
    """z - |cos theta|; positive exactly on the interior of the domain."""
    return min(z_minus_cos(theta, z), z_plus_cos(theta, z))


def slope_sq(theta: float, z: float) -> float:
    """1 - cos^2(theta)/z^2 computed as (z-cos)(z+cos)/z^2; may be negative.

    -inf where z * z underflows to 0 (z < Z_MIN), which is outside the domain.
    """
    if z < Z_MIN:
        return -math.inf
    return z_minus_cos(theta, z) * z_plus_cos(theta, z) / (z * z)


def slope(theta: float, z: float) -> float:
    """dtheta/dt, clamped to 0 outside the domain (integrator stage guard).

    Also 0 where z * z underflows to 0 (z < Z_MIN), which is outside it.
    """
    q = slope_sq(theta, z)
    return math.sqrt(q) if q > 0.0 else 0.0


def first_integral(theta: float, z: float) -> float:
    """F = z^2 (theta' + cos(theta)/z) exp(arcsin(cos(theta)/z)), constant along the flow.

    With sin(phi) = cos(theta)/z = k2 and cos(phi) = theta' = k1 the field
    gives dz/z = -cos(phi) dphi / (sin(phi) + cos(phi)), which integrates
    to F = z^2 (sin(phi) + cos(phi)) e^phi.  The sphere (pi, sqrt(2)) has
    level 0 and the corner (0, 1) CORNER_LEVEL; a height's class is its
    level's interval: below 0 IncompleteLow, up to CORNER_LEVEL
    IncompleteHigh, above it Periodic.  NaN where |cos(theta)| > z, outside
    the domain.
    """
    k2 = math.cos(theta) / z
    if not -1.0 <= k2 <= 1.0:
        return math.nan
    return z * z * (slope(theta, z) + k2) * math.exp(math.asin(k2))


def in_domain(p: PhasePoint) -> bool:
    """Strict membership in {z > |cos theta|}."""
    return z_minus_cos(p.theta, p.z) > 0.0 and z_plus_cos(p.theta, p.z) > 0.0


def field_eval(p: PhasePoint) -> PhaseVelocity:
    """The field (sqrt(1 - cos^2 theta / z^2), sin theta) at an interior point.

    Raises
    ------
    DomainError
        If z <= |cos theta|; signals boundary contact to callers.
    """
    if not in_domain(p):
        raise DomainError(f"({p.theta}, {p.z}) is outside the domain")
    q = slope_sq(p.theta, p.z)
    return PhaseVelocity(math.sqrt(q) if q > 0.0 else 0.0, math.sin(p.theta))


def curvatures(p: PhasePoint) -> CurvaturePair:
    """Principal curvature pair (theta', -cos(theta)/z); squares sum to 1."""
    v = field_eval(p)
    return CurvaturePair(v.dtheta, -math.cos(p.theta) / p.z)


def theta_second(p: PhasePoint) -> float:
    """Closed form of theta'' along the flow.

    theta'' = sin/( z theta') + sin cos / z^2 - theta' sin / z, with theta'
    taken from the field at the same point.

    Raises
    ------
    SlopeZeroError
        If theta' = 0 (the first term is singular; use the corner series).
    """
    v = field_eval(p)
    if v.dtheta == 0.0:
        raise SlopeZeroError("theta'' closed form is singular at theta' = 0")
    s, c, z = math.sin(p.theta), math.cos(p.theta), p.z
    return s / (z * v.dtheta) + s * c / (z * z) - v.dtheta * s / z


def asymptotics(p: PhasePoint) -> AsymptoticReport:
    """The four corner ratios and theta'' at an interior state with theta in (0, pi)."""
    if not 0.0 < p.theta < math.pi:
        raise DomainError(f"asymptotics need theta in (0, pi), got {p.theta}")
    v = field_eval(p)
    if v.dtheta == 0.0:
        raise SlopeZeroError("r1 undefined at theta' = 0")
    s = math.sin(p.theta)
    u = z_minus_cos(p.theta, p.z)
    return AsymptoticReport(
        r1=s * s / (v.dtheta * v.dtheta),
        r2=u / s,
        r3=s ** 1.5 / u,
        r4=s * s / u ** 1.5,
        theta2=theta_second(p),
    )
