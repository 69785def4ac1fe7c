"""Arc-length profile curves, their closed forms, and derived constructions.

A profile curve (x(t), z(t)) with tangent angle theta(t) generates a
revolution surface about the x-axis; t is simultaneously arc length.
Trajectory-built profiles keep the quadrature convention x(0) = 0.  The
closed-form sphere follows the displayed parametrization centered at
(-sqrt(2), 0), i.e. the same quadrature shifted left by sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    DegenerateProfileError,
    ExtensionSpecError,
    NoSignChangeError,
    NotPeriodicError,
    TooFewSamplesError,
)
from .field import SQRT2, PhasePoint
from .integrate import (
    SERIES_S0,
    IntegratorConfig,
    Trajectory,
    bisect_root,
    corner_series,
    integrate,
    launch_separatrix,
    with_mirror,
)
from .shooting import PERIODIC, classify_lambda
from .text import read_profile_csv, write_csv

TWO_PI = 2.0 * math.pi

# uniform steps verify_profile may sample an evaluator at, and samples a glued curve may have
MAX_RESAMPLE_STEPS = 1_000_000
SAMPLE_DT = 0.01  # largest time step between stored samples of a built profile
CONTACT_GRADING = 0.1  # near a contact end, the step is at most this times the distance to it
# The least step, and the least distance between kept samples, in a gap
# graded toward a contact end (elsewhere SAMPLE_DT / 4).  At SAMPLE_DT / 4
# verify's 5-point stencils just outside its 0.01 collar read the end's
# s^(3/2): `curve --span 10` then `verify --step 1e-3` at 106 heights on
# [1.05, 3.15] failed 4 of them (worst residual 3.3e-4), and none here
# (worst 3.4e-5), for 0.5% more profile CSV bytes on the seed-1 emit deck
# and 1.7% more rows on the seed-1 verify deck.
CONTACT_MIN_DT = SAMPLE_DT / 16
SPHERE_TRIM = 1e-6  # the closed-form sphere stops this short of its two poles
N_PERIOD_CHECK = 800  # points of the one-period overlap find_period measures on
H_CHECK = 4e-3  # finite-difference step of extend_separatrix's junction grading


@dataclass
class ProfileCurve:
    """Sampled unit-speed generator curve, optionally with a dense evaluator.

    Samples are finite and ascending in t; z stays positive; theta is the
    unwrapped tangent angle and is non-decreasing (strictly increasing
    except on the horizontal stretches of extensions and the cylinder).
    """

    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    kind: str = "Generic"
    junctions: tuple = ()
    meta: dict = dc_field(default_factory=dict)
    evaluator: object = dc_field(default=None, repr=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if len(self.t) < 2:
            raise TooFewSamplesError("profile needs at least 2 samples")
        self._check_finite()
        if not np.all(np.diff(self.t) > 0.0):
            raise ValueError("profile times must be strictly increasing")
        if not np.all(self.z > 0.0):
            raise DegenerateProfileError("profile has z <= 0")

    def _check_finite(self) -> None:
        """DegenerateProfileError naming the first sample that is NaN or infinite.

        A file would spell such a value null.  The arrays stay writable, so
        write_csv checks again.
        """
        for name in ("t", "x", "z", "theta"):
            values = getattr(self, name)
            if not np.isfinite(values).all():
                k = np.flatnonzero(~np.isfinite(values))[0]
                raise DegenerateProfileError(f"profile {name}[{k}] is {values[k]}, not finite")

    def __len__(self):
        return len(self.t)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.t[0]), float(self.t[-1])

    def eval_at(self, tq):
        """(x, z, theta) at tq from the dense evaluator.

        tq is a time (three floats back) or an array of times (three arrays
        back).  An evaluator maps a 1-d time array to three arrays.  A
        profile read from CSV has none and raises ValueError: it is its
        samples and nothing between them.
        """
        if self.evaluator is None:
            raise ValueError("profile has no evaluator: a profile read from CSV "
                             "is known only at its samples")
        ts = np.asarray(tq, dtype=float)
        out = self.evaluator(ts.reshape(-1))
        if ts.ndim == 0:
            return tuple(float(col[0]) for col in out)
        return out

    def write_csv(self, sink) -> None:
        """Header t,x,z,theta; one sample per line, each value the shortest text of its bits.

        A sample made NaN or infinite since the profile was built raises
        DegenerateProfileError before the sink is opened.
        """
        self._check_finite()
        write_csv(sink, b"t,x,z,theta", self.t, self.x, self.z, self.theta)

    @classmethod
    def read_csv(cls, source) -> "ProfileCurve":
        """A profile CSV's samples.

        A t not above the row before, or a z that is not positive, raises
        ValueError naming its data row.
        """
        t, x, z, theta = read_profile_csv(source).T
        try:
            return cls(t, x, z, theta)
        except ValueError:  # the times do not increase
            k = np.flatnonzero(np.diff(t) <= 0.0)[0] + 1
            raise ValueError(f"profile CSV data row {k + 1}: t is {t[k]}, not above "
                             f"the row before ({t[k - 1]})") from None
        except DegenerateProfileError:  # a z <= 0; the rows are finite
            k = np.flatnonzero(z <= 0.0)[0]
            raise ValueError(f"profile CSV data row {k + 1}: z is {z[k]}, not positive") from None


@dataclass(frozen=True)
class PeriodInfo:
    t0: float  # theta(-t0) = 0 on the backward half
    period: float  # 2 * t0
    x_shift: float  # x(2 t0): horizontal translation per period
    z_residual: float
    theta_residual: float
    x_residual: float


@dataclass(frozen=True)
class IntersectionInfo:
    t2: float
    point: tuple[float, float]  # the double point (x, z), x = 0 up to tolerance
    x_abs: float  # max |x(t2)|, |x(-t2)|
    z_mismatch: float  # |z(t2) - z(-t2)|


@dataclass(frozen=True)
class ExtensionSpec:
    """Gluing plan: copies of the critical profile joined by horizontal
    segments of height 1 (zero length means copies abut directly)."""

    copies: int
    segment_lengths: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "segment_lengths",
                           tuple(float(v) for v in self.segment_lengths))
        if self.copies < 1:
            raise ExtensionSpecError("need at least one copy")
        if len(self.segment_lengths) != self.copies - 1:
            raise ExtensionSpecError(
                f"{self.copies} copies need {self.copies - 1} segment lengths, "
                f"got {len(self.segment_lengths)}")
        if not all(0.0 <= l < math.inf for l in self.segment_lengths):  # NaN fails too
            raise ExtensionSpecError("segment lengths must be finite and non-negative")


@dataclass(frozen=True)
class JunctionReport:
    t: float
    junction_type: str  # "copy-copy" | "copy-segment" | "segment-copy"
    position_jump: float
    theta_jump: float
    dtheta_jump: float
    d2theta_jump: float
    d3theta_jump: float
    order: str  # highest verified continuity class of the curve


@dataclass(frozen=True)
class RegularityReport:
    junctions: tuple
    h: float


@dataclass(frozen=True)
class VerificationReport:
    max_curvature_residual: float  # max |k1^2 + k2^2 - 1| from positions only
    max_speed_residual: float  # max ||(x', z')| - 1|
    monotone_violations: int
    n_points: int  # points the estimator read: CSV rows, or the grid at step h
    h: float
    end_trim: float  # collar excluded at the two profile ends


# -- construction --------------------------------------------------------


def build_profile(traj: Trajectory, kind: str = "Generic") -> ProfileCurve:
    """Extract (t, x, z, theta) from a trajectory, regularized to SAMPLE_DT.

    A gap between nodes a and b larger than its step dt is cut into
    n = ceil(gap / dt) equal steps, at a + gap * k / n for k < n, and
    filled from the dense output; the nodes themselves are kept as they
    are.  dt is SAMPLE_DT, or, in a gap graded toward an end where the
    trajectory meets the boundary (CONTACT_GRADING times the gap's distance
    to that end is below SAMPLE_DT), that product, but not below
    CONTACT_MIN_DT: theta ~ c s^(3/2) in the distance s to such an end,
    and verify's 5-point stencils there read their own truncation error
    unless the rows close in on the end (the integrator's own steps are
    too long there for that).  A sample closer to the last sample kept
    than its gap's drop distance, CONTACT_MIN_DT in a graded gap and
    SAMPLE_DT/4 elsewhere, is dropped (never the first); the last node is
    kept in the place of the sample before it when those two are that
    close.  So the stored grid stays compatible with fine resampling.
    """
    nodes = traj.ts
    gaps = np.diff(nodes)
    dt = np.full(len(gaps), SAMPLE_DT)
    drop = np.full(len(gaps), 0.25 * SAMPLE_DT)
    for end, info in ((nodes[0], traj.left_info), (nodes[-1], traj.right_info)):
        if info.kind == "boundary_contact":
            graded_dt = CONTACT_GRADING * np.minimum(abs(nodes[:-1] - end), abs(nodes[1:] - end))
            graded = graded_dt < SAMPLE_DT
            dt[graded] = np.minimum(dt, np.maximum(CONTACT_MIN_DT, graded_dt))[graded]
            drop[graded] = CONTACT_MIN_DT
    steps = np.ones(len(gaps), np.int64)
    wide = gaps > dt
    steps[wide] = np.ceil(gaps[wide] / dt[wide])
    ends = np.cumsum(steps)  # the index of each node after the first among the samples
    gap_of = np.repeat(np.arange(len(gaps)), steps)  # the gap of each sample after the first
    k = np.arange(1, len(gap_of) + 1) - np.repeat(ends - steps, steps)
    raw = np.empty(len(gap_of) + 1)
    raw[0] = nodes[0]
    raw[1:] = nodes[gap_of] + gaps[gap_of] * k / steps[gap_of]
    raw[ends] = nodes[1:]
    keep = np.ones(len(raw), bool)
    drop = drop[gap_of]  # the drop distance of each sample after the first
    # the nodes ascend, so a sample at least its drop distance after the one
    # before it is kept; only the others are compared with the last sample
    # kept, in order
    close = np.flatnonzero(np.diff(raw) < drop) + 1
    last = 0  # the index of the last sample kept
    for i in close.tolist():
        if keep[i - 1]:
            last = i - 1
        if i < len(raw) - 1:
            keep[i] = raw[i] - raw[last] >= drop[i - 1]
        elif raw[i] - raw[last] < drop[i - 1] and last > 0:
            keep[last] = False
    ts = raw[keep]

    def evaluator(tq):
        th, zz, xx = traj.states_at(tq).T
        return xx, zz, th

    x, z, theta = evaluator(ts)
    return ProfileCurve(ts, x, z, theta, kind=kind, evaluator=evaluator)


def sphere_profile(n: int = 1201) -> ProfileCurve:
    """Closed-form arc-length semicircle of radius sqrt(2) about (-sqrt(2), 0).

    The open span (-sqrt(2) pi/2, sqrt(2) pi/2) is trimmed by SPHERE_TRIM at
    both ends so that z stays positive (the surface misses its two poles).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    half = SQRT2 * math.pi / 2.0 - SPHERE_TRIM
    t = np.linspace(-half, half, n)

    def evaluator(tq):
        # libm's sin and cos, not numpy's SIMD loops, so that the profile's
        # bits do not depend on which loops numpy dispatches to
        u = (tq / SQRT2).tolist()
        return (-SQRT2 * np.array([math.sin(a) for a in u]) - SQRT2,
                SQRT2 * np.array([math.cos(a) for a in u]),
                math.pi + tq / SQRT2)

    x, z, theta = evaluator(t)
    return ProfileCurve(t, x, z, theta, kind="Sphere", evaluator=evaluator)


def cylinder_profile(length: float, n: int = 2) -> ProfileCurve:
    """Horizontal unit-height segment: curvature pair (0, -1)."""
    if not length > 0.0:
        raise ValueError("length must be positive")
    if n < 2:
        raise ValueError("need n >= 2")
    t = np.linspace(0.0, length, n)

    def evaluator(tq):
        return tq.copy(), np.ones_like(tq), np.zeros_like(tq)

    return ProfileCurve(t, t.copy(), np.ones_like(t), np.zeros_like(t),
                        kind="Cylinder", evaluator=evaluator)


def _separatrix_evaluator(cfg: IntegratorConfig):
    """The critical profile's evaluator on [-b, b], and its meta, from one launch.

    Internally: series launch up to theta = pi, re-based so theta(0) = pi and
    x(0) = 0, mirrored about theta = pi; the two short tails within
    SERIES_S0 of the corners are evaluated from the series itself.  meta
    carries half_span (b), lambda0 (terminal height), and x_corner = x(-b).
    """
    launch = launch_separatrix(cfg)
    t_cross = float(launch.ts[-1])
    x_cross = float(launch.xs[-1])
    lambda0 = float(launch.zs[-1])
    b = t_cross + SERIES_S0
    full = with_mirror(launch.shifted(dt=-t_cross, dx=-x_cross))
    _, _, x_ser0 = corner_series(SERIES_S0)
    x_corner = -x_cross - x_ser0
    t_in = b - SERIES_S0  # dense data covers [-t_in, t_in]

    def evaluator(tq):
        out = np.empty((3, len(tq)))
        left, right = tq <= -t_in, tq >= t_in
        mid = ~(left | right)
        th, zz, xr = corner_series(np.maximum(tq[left] + b, 0.0))
        out[:, left] = x_corner + xr, zz, th
        th, zz, xr = corner_series(np.maximum(b - tq[right], 0.0))
        out[:, right] = -x_corner - xr, zz, TWO_PI - th
        th, zz, xx = full.states_at(tq[mid]).T
        out[:, mid] = xx, zz, th
        return tuple(out)

    return evaluator, {"half_span": b, "lambda0": lambda0, "x_corner": x_corner}


def separatrix_profile(cfg: IntegratorConfig) -> ProfileCurve:
    """The critical profile on its full finite span [-b, b], sampled at most SAMPLE_DT apart.

    Its evaluator and meta are _separatrix_evaluator's.
    """
    evaluator, meta = _separatrix_evaluator(cfg)
    b = meta["half_span"]
    n = int(math.ceil(2.0 * b / SAMPLE_DT))
    ts = np.linspace(-b, b, n + 1)
    x, z, theta = evaluator(ts)
    return ProfileCurve(ts, x, z, theta, kind="Separatrix", evaluator=evaluator, meta=meta)


# -- periodicity and self-intersection ------------------------------------


def find_period(lam: float, cfg: IntegratorConfig) -> PeriodInfo:
    """Period data for a height above the critical one, with verification.

    t0 is the theta = 0 crossing time of the backward trajectory; the shift
    identities z(t + 2 t0) = z(t), theta(t + 2 t0) = theta(t) + 2 pi and
    x(t + 2 t0) = x(t) + x(2 t0) are measured on a one-period overlap.
    """
    klass = classify_lambda(lam, cfg)
    if klass.tag != PERIODIC:
        raise NotPeriodicError(f"lambda={lam} classifies as {klass.tag}")
    back = integrate(PhasePoint(math.pi, lam), "backward", cfg.with_targets(-TWO_PI))
    t_zero = back.crossing_time(0.0)
    if t_zero is None:
        raise NotPeriodicError(f"no theta = 0 crossing for lambda={lam}")
    t0 = -t_zero
    full = with_mirror(back)
    x_shift = full.state_at(2.0 * t0)[2]
    grid = np.linspace(-t0, t0, N_PERIOD_CHECK)
    th_a, z_a, x_a = full.states_at(grid).T
    th_b, z_b, x_b = full.states_at(grid + 2.0 * t0).T

    def worst(d):
        return float(np.max(np.abs(d), initial=0.0))

    return PeriodInfo(t0, 2.0 * t0, x_shift, worst(z_b - z_a),
                      worst(th_b - th_a - TWO_PI), worst(x_b - x_a - x_shift))


def find_self_intersection(profile: ProfileCurve, t0: float, t1: float) -> IntersectionInfo:
    """The double point of a symmetric profile: the root t2 of x(-t) on (t1, t0).

    Preconditions (the construction of the periodic family): the profile is
    symmetric about t = 0 and x(-t0) < 0 < x(-t1), with t1 the theta = pi/2
    crossing time of the backward half.
    """
    if not 0.0 < t1 < t0:
        raise NoSignChangeError(f"need 0 < t1 < t0, got t1={t1}, t0={t0}")
    g = lambda t: profile.eval_at(-t)[0]
    g1, g0 = g(t1), g(t0)
    if not (g1 > 0.0 > g0):
        raise NoSignChangeError(
            f"bracket precondition failed: x(-t1)={g1}, x(-t0)={g0}")
    t2 = bisect_root(lambda t: -g(t), t1, t0, 200)
    x_p, z_p, _ = profile.eval_at(t2)
    x_m, z_m, _ = profile.eval_at(-t2)
    return IntersectionInfo(
        t2=t2,
        point=(0.5 * (x_p + x_m), 0.5 * (z_p + z_m)),
        x_abs=max(abs(x_p), abs(x_m)),
        z_mismatch=abs(z_p - z_m),
    )


# -- the glued family -----------------------------------------------------


def extend_separatrix(ext: ExtensionSpec,
                      cfg: IntegratorConfig) -> tuple[ProfileCurve, RegularityReport]:
    """Glue copies of the critical profile with horizontal unit-height segments.

    The glued curve starts at t = 0, x = 0 with the left corner of the first
    copy; each copy lifts theta by 2 pi, each segment holds theta constant.
    Zero-length segments collapse to direct copy-copy junctions.  The report
    measures one-sided jumps of theta and its first three derivatives at
    every junction (one-sided finite differences at step h = H_CHECK) and
    grades the junction C0..C4+ against thresholds max(1e-3, 50 h^(4-k)).

    With copies=1 the result is the critical profile itself, re-based to
    t in [0, 2b] and x(0) = 0.  A plan whose glued curve would have more
    than MAX_RESAMPLE_STEPS samples raises ValueError before its grid is
    built.
    """
    sep, meta = _separatrix_evaluator(cfg)  # no grid of the critical profile is sampled
    b = meta["half_span"]
    x_corner = meta["x_corner"]
    width = -2.0 * x_corner

    pieces = []  # (t_start, t_end, kind, x_start, theta_offset)
    junctions = []  # (t, type)
    cursor_t = 0.0
    cursor_x = 0.0
    for j in range(ext.copies):
        if j > 0:
            seg_len = ext.segment_lengths[j - 1]
            if seg_len > 0.0:
                junctions.append((cursor_t, "copy-segment"))
                pieces.append((cursor_t, cursor_t + seg_len, "segment", cursor_x, TWO_PI * j))
                cursor_t += seg_len
                cursor_x += seg_len
                junctions.append((cursor_t, "segment-copy"))
            else:
                junctions.append((cursor_t, "copy-copy"))
        pieces.append((cursor_t, cursor_t + 2.0 * b, "copy", cursor_x, TWO_PI * j))
        cursor_t += 2.0 * b
        cursor_x += width

    def eval_piece(piece, tq):
        """(x, z, theta) arrays of one piece at the times tq (an array)."""
        t_start, t_end, kind, x_start, th_off = piece
        if kind == "segment":
            return x_start + (tq - t_start), np.ones_like(tq), np.full_like(tq, th_off)
        tau = (tq - t_start) - b
        xx, zz, th = sep(np.clip(tau, -b, b))
        return x_start + (xx - x_corner), zz, th + th_off

    starts = np.array([p[0] for p in pieces])

    def evaluator(tq):
        idx = np.clip(np.searchsorted(starts, tq, side="right") - 1, 0, len(pieces) - 1)
        out = np.empty((3, len(tq)))
        for i in np.unique(idx):
            sel = idx == i
            out[:, sel] = eval_piece(pieces[i], tq[sel])
        return tuple(out)

    steps = np.maximum(np.ceil([(p[1] - p[0]) / SAMPLE_DT for p in pieces]), 1.0)
    if not steps.sum() + 1 <= MAX_RESAMPLE_STEPS:  # also when the glued span overflows
        raise ValueError(f"glued curve would have more than {MAX_RESAMPLE_STEPS} samples")
    grids = []
    for (t_start, t_end, *_), n in zip(pieces, steps.astype(int)):
        grids.append(np.linspace(t_start, t_end, n + 1)[1 if grids else 0:])
    x, z, theta = np.concatenate([eval_piece(p, g) for p, g in zip(pieces, grids)], axis=1)
    curve = ProfileCurve(np.concatenate(grids), x, z, theta, kind="Extension",
                         junctions=tuple(t for t, _ in junctions),
                         evaluator=evaluator,
                         meta={"half_span": b, "lambda0": meta["lambda0"]})

    # One-sided regularity measurement at each junction.
    h = H_CHECK

    def one_sided(piece, t_j, sgn):
        f = eval_piece(piece, t_j + sgn * np.arange(5) * h)[2].tolist()
        d1 = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
        d2 = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / (h * h)
        d3 = (-5 * f[0] + 18 * f[1] - 24 * f[2] + 14 * f[3] - 3 * f[4]) / (2 * h ** 3)
        return sgn * d1, d2, sgn * d3

    def threshold(k):
        return max(1e-3, 50.0 * h ** (4 - k))

    reports = []  # junction k joins pieces[k] and pieces[k + 1]
    for (t_j, jtype), left, right in zip(junctions, pieces, pieces[1:]):
        xl, zl, thl = (float(v[0]) for v in eval_piece(left, np.array([t_j])))
        xr, zr, thr_ = (float(v[0]) for v in eval_piece(right, np.array([t_j])))
        pos_jump = math.hypot(xr - xl, zr - zl)
        theta_jump = abs(thr_ - thl)
        dl = one_sided(left, t_j, -1.0)
        dr = one_sided(right, t_j, +1.0)
        jumps = [abs(dr[i] - dl[i]) for i in range(3)]
        # the class is the number of leading checks that pass (NaN fails each)
        checks = [pos_jump <= threshold(0) and theta_jump <= threshold(0)]
        checks += [jump <= threshold(k) for k, jump in enumerate(jumps, start=1)]
        n_pass = checks.index(False) if False in checks else 4
        order = f"C{n_pass}" if n_pass < 4 else "C4+"
        reports.append(JunctionReport(t_j, jtype, pos_jump, theta_jump,
                                      jumps[0], jumps[1], jumps[2], order))
    return curve, RegularityReport(tuple(reports), h)


# -- the acceptance oracle -------------------------------------------------


def _five_point_weights(d):
    """Weights of x'(0) and x''(0) for values at the offsets d, minus the value at 0.

    d is the four nonzero offsets of each stencil, t[i + j] - t[i] for
    j = -2, -1, 1, 2 (arrays alike in shape).  A point's weight is the
    derivative at 0 of its Lagrange cardinal polynomial (Fornberg, Math.
    Comp. 51, 1988): with a, b, c the other three offsets and
    D = d (d - a)(d - b)(d - c), that is -abc / D for the first derivative
    and 2 (ab + ac + bc) / D for the second.  The centre's weight is minus
    the others' sum, so they apply to values minus the centre value.
    """
    w1, w2 = [], []
    for j, dj in enumerate(d):
        a, b, c = (dk for k, dk in enumerate(d) if k != j)
        den = dj * (dj - a) * (dj - b) * (dj - c)
        w1.append(-(a * b * c) / den)
        w2.append(2.0 * (a * b + a * c + b * c) / den)
    return w1, w2


def verify_profile(profile: ProfileCurve, h: float,
                   end_trim: float | None = None) -> VerificationReport:
    """Reconstruct curvatures from positions only and check k1^2 + k2^2 = 1.

    The points are a CSV profile's own samples, or an in-memory profile's
    evaluator on the uniform grid at step h.  At every point with two
    neighbours on each side, x', x'', z' and z'' come from the 5-point
    Lagrange weights on the stencil's own times (`_five_point_weights`);
    then k1 = (x' z'' - z' x'') / |v|^3 and k2 = -(x' / |v|) / z.  It
    reports the worst |k1^2 + k2^2 - 1|, the worst ||v| - 1| and the count
    of points where k1 < -1e-9 / h (theta falling by more than 1e-9 per
    step h).  Deliberately ignores the stored theta and the field: this is
    the independent check that emitted geometry satisfies the unit
    curvature-norm everywhere.  Only arithmetic and sqrt see the data.

    A collar of width end_trim (default 10 h) is excluded at the two open
    ends: profiles that die on the domain boundary have theta ~ c s^(3/2)
    in the distance s to the end, so difference quotients there measure the
    estimator's own blowup, not the surface.  Interior-smooth profiles are
    unaffected by the trim.  A grid of more than MAX_RESAMPLE_STEPS steps
    raises ValueError before it is built; fewer than 5 points, or no
    stencil centre outside the collar, raise TooFewSamplesError.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    if end_trim is None:
        end_trim = 10.0 * h
    lo, hi = profile.span
    if profile.evaluator is None:
        ts, xs, zs = profile.t, profile.x, profile.z
    else:
        steps = (hi - lo) / h
        if not steps <= MAX_RESAMPLE_STEPS:
            raise ValueError(f"step {h} gives more than {MAX_RESAMPLE_STEPS} grid steps")
        ts = lo + h * np.arange(int(math.floor(steps)) + 1)
        xs, zs, _ = profile.eval_at(ts)
    n = len(ts)
    if n < 5:
        raise TooFewSamplesError(f"{n} points; the 5-point estimator needs at least 5")
    centre = slice(2, n - 2)
    tc = ts[centre]
    inner = (tc >= lo + end_trim) & (tc <= hi - end_trim)
    if not np.any(inner):
        raise TooFewSamplesError(f"no stencil centre of the {n} points lies {end_trim} "
                                 f"inside both ends")
    around = [slice(k, n - 4 + k) for k in (0, 1, 3, 4)]  # j = -2, -1, 1, 2
    w1, w2 = _five_point_weights([ts[s] - tc for s in around])

    def derivatives(f):
        df = [f[s] - f[centre] for s in around]
        return sum(w * g for w, g in zip(w1, df)), sum(w * g for w, g in zip(w2, df))

    # rows that repeat a time or a position give inf and NaN here, without
    # a warning: the residual reads NaN and fails every threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        dx, ddx = derivatives(xs)
        dz, ddz = derivatives(zs)
        speed = np.sqrt(dx * dx + dz * dz)
        k1 = (dx * ddz - dz * ddx) / (speed * speed * speed)
        k2 = -(dx / speed) / zs[centre]
    residual = float(np.max(np.abs(k1 * k1 + k2 * k2 - 1.0)[inner]))
    speed_residual = float(np.max(np.abs(speed - 1.0)[inner]))
    monotone_violations = int(np.count_nonzero(k1[inner] < -1e-9 / h))
    return VerificationReport(residual, speed_residual, monotone_violations, n, h, end_trim)
