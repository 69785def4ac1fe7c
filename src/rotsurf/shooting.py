"""Classification of the shooting family and location of the critical height.

Every height lambda > 1 seeds a backward trajectory from (pi, lambda).  It
either crosses theta = 0 above z = 1 (periodic regime), dies on the domain
boundary with a limit height in (0, 1) (incomplete regimes, split by
lambda vs sqrt(2)), or -- for exactly one critical lambda0 -- limps into the
degenerate corner (0, 1).  Distinct heights cannot share a boundary limit
point, so the crossing predicate has a single threshold in lambda and plain
bisection is valid.

The same threshold lets find_lambda0 skip most of its integrations: every
integrated height decides the heights beyond it, and the heights either
side of the series-launch estimate (within 1e-14 of lambda0 at the default
config) are integrated first.  The result is still the plain bisection's,
bit for bit: a wrong or unusable estimate costs time, never bits.

The last backward trajectory is kept (a one-entry memo keyed on the height
and the config), so drawing a height right after classifying it integrates
it once.  A kept trajectory is handed to every caller that asks for it, so
its node and dense-output arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidLambdaError, RotsurfError
from .field import CORNER_LEVEL, SQRT2, Z_MAX, PhasePoint, first_integral
from .integrate import IntegratorConfig, Trajectory, integrate, launch_separatrix, with_mirror

SPHERE = "Sphere"
PERIODIC = "Periodic"
SEPARATRIX = "Separatrix"
INCOMPLETE_LOW = "IncompleteLow"
INCOMPLETE_HIGH = "IncompleteHigh"

SPHERE_HALF_SPAN = SQRT2 * math.pi / 2.0


@dataclass(frozen=True)
class LambdaClass:
    """Case tag plus the witnesses that pin it down."""

    tag: str
    crossing_z: float | None = None  # Periodic: z at the theta = 0 crossing
    limit_point: tuple[float, float] | None = None  # boundary limit (theta0, z0)
    span: float | None = None  # finite |t| to the trajectory end, where finite


@dataclass(frozen=True)
class Lambda0Result:
    value: float
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class PortraitEntry:
    lam: float
    klass: LambdaClass | None
    polyline: np.ndarray  # (n, 2) columns theta, z over the [0, 2*pi] lift
    error: str | None = None


@dataclass(frozen=True)
class PortraitReport:
    entries: tuple[PortraitEntry, ...]
    lambda0: Lambda0Result


MEMO_SIZE = 1  # backward trajectories kept: the last one, for classify-then-draw


@functools.lru_cache(maxsize=MEMO_SIZE)
def backward_trajectory(lam: float, cfg: IntegratorConfig) -> Trajectory:
    """Backward integral curve from (pi, lam), stopped at theta = 0 or contact.

    The last result is reused for the same (lam, cfg), so classify_lambda
    followed by full_curve integrates once; its arrays are read-only.
    Clear the memo with backward_trajectory.cache_clear().
    """
    return integrate(PhasePoint(math.pi, lam), "backward", cfg.with_targets(0.0))


def _crosses(lam: float, cfg: IntegratorConfig) -> bool:
    return backward_trajectory(lam, cfg).termination.kind == "theta_crossing"


TOL_SPHERE = 1e-9  # heights this close to sqrt(2) are the closed-form sphere
BAND = 1e-9  # ambiguity band around the corner (0, 1): closer is Separatrix


def classify_lambda(lam: float, cfg: IntegratorConfig) -> LambdaClass:
    """Assign one of the five cases to a shooting height.

    lam = sqrt(2) (within TOL_SPHERE) is special-cased to the closed-form
    semicircle.  Trajectories creeping into the corner (0, 1) closer than
    the ambiguity BAND are reported as Separatrix rather than guessed a
    side.  Heights just above the critical one legitimately cross theta = 0
    and are classified Periodic.  Heights above field.Z_MAX, where z * z
    overflows, are refused.
    """
    if not 1.0 < lam <= Z_MAX:
        raise InvalidLambdaError(f"need 1 < lambda <= {Z_MAX!r} (field.Z_MAX), got {lam}")
    if abs(lam - SQRT2) <= TOL_SPHERE:
        return LambdaClass(SPHERE, limit_point=(math.pi / 2.0, 0.0), span=SPHERE_HALF_SPAN)

    traj = backward_trajectory(lam, cfg)
    stop = traj.termination
    if stop.kind == "theta_crossing":
        z_cross = float(traj.zs[0])
        if z_cross - 1.0 <= BAND:
            return LambdaClass(SEPARATRIX, crossing_z=z_cross)
        return LambdaClass(PERIODIC, crossing_z=z_cross)
    if stop.kind == "boundary_contact":
        theta0, z0 = stop.limit_point
        span = abs(stop.t_star)
        if abs(z0 - 1.0) <= BAND and abs(theta0) <= 2.0 * math.sqrt(2.0 * BAND):
            return LambdaClass(SEPARATRIX, limit_point=(theta0, z0), span=span)
        tag = INCOMPLETE_LOW if lam < SQRT2 else INCOMPLETE_HIGH
        return LambdaClass(tag, limit_point=(theta0, z0), span=span)
    raise RotsurfError(f"classification inconclusive for lambda={lam}: hit {stop.kind}")


PROBE_FLOOR = 1e-12  # least distance from the lambda0 estimate to its first probes
LAMBDA_MAX = 65536.0  # the bracket search gives up above this height


def find_lambda0(
    cfg: IntegratorConfig, tol: float = 1e-8, *, estimate: float | None = None
) -> Lambda0Result:
    """Bisection on "the backward trajectory crosses theta = 0 above z = 1".

    The initial bracket doubles upward from sqrt(2) (which contacts the
    boundary, so the predicate is false there) until the predicate flips.
    Injectivity of boundary limit points guarantees a single threshold.
    Bisection stops at hi - lo <= tol, or once lo and hi are adjacent floats
    (the midpoint is one of them), where the bracket is wider than a tol
    below one ulp.

    Every integrated height is a fact: "no" at and below the highest no,
    "yes" at and above the lowest yes; a height a fact decides is not
    integrated.  The estimate e (launch_separatrix's terminal z, launched
    here when None) is probed at e - s and e + s, s = max(tol/8,
    PROBE_FLOOR), and s grows 16-fold on the side that has not flipped
    until the answers differ (Bentley & Yao's unbounded search); no probe
    leaves (sqrt(2), LAMBDA_MAX).  Within about 2e-15 of the threshold the
    numerical predicate is not monotone, so a fact there could contradict
    integration; the floor keeps the probes of a close estimate some 450
    times farther away, and the result equals the plain bisection's.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    no_at, yes_at = -math.inf, math.inf

    def crosses(lam: float) -> bool:
        nonlocal no_at, yes_at
        if no_at < lam < yes_at:
            if _crosses(lam, cfg):
                yes_at = lam
            else:
                no_at = lam
        return lam >= yes_at

    try:
        if estimate is None:
            estimate = float(launch_separatrix(cfg).zs[-1])
        below = above = max(tol / 8.0, PROBE_FLOOR)
        while SQRT2 < estimate - below and estimate + above < LAMBDA_MAX:
            if crosses(estimate - below):
                below *= 16.0
            elif not crosses(estimate + above):
                above *= 16.0
            else:
                break
    except RotsurfError:
        pass

    lo = SQRT2
    hi = 2.0 * SQRT2
    while not crosses(hi):
        lo = hi
        hi *= 2.0
        if hi > LAMBDA_MAX:
            raise BracketError("no theta = 0 crossing found up to lambda = 2^16")
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if crosses(mid):
            hi = mid
        else:
            lo = mid
        iters += 1
    return Lambda0Result(0.5 * (lo + hi), (lo, hi), iters)


def lambda0_closed_form() -> float:
    """lambda0 as the root of F(pi, lambda) = CORNER_LEVEL, by Newton's method.

    F is field.first_integral, and the separatrix's level is the corner's.
    At theta = pi, with sin(phi) = -1/lambda and cos(phi) = theta', F =
    lambda^2 (sin(phi) + cos(phi)) e^phi has the derivative 2 lambda
    cos(phi) e^phi = 2 sqrt(lambda^2 - 1) e^(-arcsin(1/lambda)), positive
    above 1.  From 3.2 the iteration stops at the first step that leaves
    lambda where it is: the fourth, at 3.213624398649711, the double
    nearest lambda0.  No integration.
    """
    lam = 3.2
    for _ in range(50):
        step = ((first_integral(math.pi, lam) - CORNER_LEVEL)
                / (2.0 * math.sqrt(lam * lam - 1.0) * math.exp(-math.asin(1.0 / lam))))
        if lam - step == lam:
            return lam
        lam -= step
    raise RotsurfError("Newton's iteration for lambda0 did not settle")


def _decimate(arr: np.ndarray, n_max: int) -> np.ndarray:
    if len(arr) <= n_max:
        return arr
    idx = np.unique(np.linspace(0, len(arr) - 1, n_max).round().astype(int))
    return arr[idx]


def _sphere_polyline(n: int) -> np.ndarray:
    ts = np.linspace(-SPHERE_HALF_SPAN * (1 - 1e-9), SPHERE_HALF_SPAN * (1 - 1e-9), n)
    theta = math.pi + ts / SQRT2
    z = SQRT2 * np.array([math.cos(a) for a in (ts / SQRT2).tolist()])  # libm, as revolve
    return np.column_stack([theta, z])


def full_curve(lam: float, cfg: IntegratorConfig) -> Trajectory:
    """Backward half from (pi, lam) joined with its mirror about theta = pi."""
    return with_mirror(backward_trajectory(lam, cfg))


N_POLYLINE = 400  # most points of one portrait polyline


def portrait(lambdas, cfg: IntegratorConfig, *, tol_lambda0: float = 1e-8) -> PortraitReport:
    """Classify a sweep of heights and attach plot-ready (theta, z) polylines.

    Per-entry failures are recorded in the entry instead of aborting the
    sweep.  lambda0 is always computed, even for an empty sweep.
    """
    lam0 = find_lambda0(cfg, tol=tol_lambda0)
    entries = []
    for lam in sorted(float(l) for l in lambdas):
        try:
            klass = classify_lambda(lam, cfg)
            if klass.tag == SPHERE:
                poly = _sphere_polyline(N_POLYLINE)
            else:
                traj = full_curve(lam, cfg)
                poly = _decimate(np.column_stack([traj.thetas, traj.zs]), N_POLYLINE)
            entries.append(PortraitEntry(lam, klass, poly))
        except RotsurfError as exc:
            entries.append(PortraitEntry(lam, None, np.empty((0, 2)), error=str(exc)))
    return PortraitReport(tuple(entries), lam0)
