"""Adaptive Runge-Kutta integration of the phase field with dense output.

The scheme is the Dormand-Prince embedded 5(4) pair with its free 4th-order
interpolant, coefficients pinned here so that results are reproducible
bit-for-bit for a given config.  The field is smooth in the interior; the
boundary z = |cos theta| (where it is continuous but not Lipschitz) is
handled by events, not by implicit methods: stage evaluations that land
outside the domain are clamped, and an accepted step whose end falls within
``boundary_eps`` of the boundary is cut at the contact event.

Dense output is lazy: each accepted step keeps its size and its 7 stage
derivatives, and the quartic coefficients are built on the step's first
dense evaluation.  The stepping loop builds them itself only for the one
step that brackets a boundary contact or a theta-target crossing, so
callers that read only nodes and the termination record (shooting) never
pay for them.

Trajectory time t always increases with theta; backward integration runs in
an internal parameter and is exposed with t = -sigma, so samples are always
ascending in both t and theta.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from . import field as _field
from .errors import (
    DomainError,
    NotOnAxisError,
    RangeError,
    SeedError,
    StepUnderflowError,
)
from .field import PhasePoint, domain_gap, slope

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b - b_hat: weights of the embedded error estimate.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Free quartic interpolant: y(sigma) = y0 + h * sum_i k_i * P_i(sigma).
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_ORDER_EXP = -1.0 / 5.0

# Trajectory series at the degenerate corner (0, 1), s = arc length from the
# corner.  1/18 and 1/72 follow from theta'' -> 0, theta''' -> 1/3; the
# higher coefficients come from matching theta'^2 + cos^2/z^2 = 1 order by
# order (constraint residual of this truncation is O(s^10); the leading-order
# truncation has residual -s^6/324, both pinned in tests).
SERIES_A = (1 / 18, 1 / 432, -17 / 77760)
SERIES_B = (1 / 72, 1 / 2592, -17 / 622080)
_X7 = -1 / 4536  # x(s) = s - s^7/4536 + O(s^9), from x' = cos(theta(s))


def corner_series(s: float) -> tuple[float, float, float]:
    """(theta, z, x) on the critical trajectory at arc length s from the corner.

    x is measured from the corner itself.
    """
    a3, a5, a7 = SERIES_A
    b4, b6, b8 = SERIES_B
    s2 = s * s
    theta = s * s2 * (a3 + s2 * (a5 + s2 * a7))
    z = 1.0 + s2 * s2 * (b4 + s2 * (b6 + s2 * b8))
    x = s * (1.0 + s2 * s2 * s2 * _X7)
    return theta, z, x


def corner_series_slope(s: float) -> float:
    """d(theta)/ds of the corner series."""
    a3, a5, a7 = SERIES_A
    s2 = s * s
    return s2 * (3 * a3 + s2 * (5 * a5 + s2 * 7 * a7))


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_step: float = 0.1
    min_step: float = 1e-13
    boundary_eps: float = 1e-10
    max_time: float = 200.0
    theta_targets: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.max_time < math.inf:
            raise ValueError("max_time must be positive and finite")
        if not 0.0 < self.min_step < self.max_step:
            raise ValueError("need 0 < min_step < max_step")
        if not self.boundary_eps > 0.0:
            raise ValueError("boundary_eps must be positive")
        object.__setattr__(self, "theta_targets", tuple(self.theta_targets))

    def tightened(self, factor: float) -> "IntegratorConfig":
        return replace(self, rel_tol=self.rel_tol / factor, abs_tol=self.abs_tol / factor)

    def with_targets(self, *targets: float) -> "IntegratorConfig":
        return replace(self, theta_targets=tuple(targets))


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    theta: float
    z: float
    x: float
    dtheta: float
    dz: float


@dataclass(frozen=True)
class EndInfo:
    """How a trajectory ends (or starts) at one of its two time endpoints."""

    kind: str  # "initial" | "theta_crossing" | "boundary_contact" | "time_cap" | "series_origin"
    theta_target: float | None = None
    t_star: float | None = None
    limit_point: tuple[float, float] | None = None

    def mirrored(self, n: int, t_c: float, x_c: float) -> "EndInfo":
        tgt = None if self.theta_target is None else 2 * n * math.pi - self.theta_target
        ts = None if self.t_star is None else 2 * t_c - self.t_star
        lp = None
        if self.limit_point is not None:
            lp = (2 * n * math.pi - self.limit_point[0], self.limit_point[1])
        return EndInfo(self.kind, tgt, ts, lp)


def _dense_coef(h: float, stages) -> tuple:
    """Quartic coefficients (rows for u, u^2, u^3, u^4) of one step.

    stages holds the step's 7 stage derivatives flattened, (k1_theta, k1_z,
    k1_x, k2_theta, ...).
    """
    return tuple(
        tuple(h * sum(stages[3 * j + i] * _P[j][m] for j in range(7)) for i in range(3))
        for m in range(4)
    )


def _horner(y0, coef, u: float) -> tuple[float, float, float]:
    """The step interpolant y0 + u*c1 + u^2*c2 + u^3*c3 + u^4*c4 at u."""
    c1, c2, c3, c4 = coef
    return (
        y0[0] + u * (c1[0] + u * (c2[0] + u * (c3[0] + u * c4[0]))),
        y0[1] + u * (c1[1] + u * (c2[1] + u * (c3[1] + u * c4[1]))),
        y0[2] + u * (c1[2] + u * (c2[2] + u * (c3[2] + u * c4[2]))),
    )


class _Dense:
    """One accepted step's size and stage derivatives.

    The quartic coefficients are built from them on first use and kept.  A
    step's segment and all its mirrored or shifted copies share one _Dense,
    so each step's coefficients are built at most once, and only for steps
    that are evaluated.
    """

    __slots__ = ("h", "stages", "coef")

    def __init__(self, h: float, stages: tuple):
        self.h = h
        self.stages = stages
        self.coef = None

    def coefficients(self) -> tuple:
        coef = self.coef
        if coef is None:
            coef = self.coef = _dense_coef(self.h, self.stages)
        return coef


class _Segment:
    """One integration step's quartic interpolant, with output/time transforms.

    Evaluates y(t) = scale * p(u) + offset where u = a*t + b maps trajectory
    time onto the step's internal [0, 1] parameter.  Reflection and time
    shifts compose into (a, b, scale, offset), so mirrored and concatenated
    trajectories keep full dense output.  The coefficients of p are built on
    the first eval or deriv (see _Dense); mirrored and shifted copies do not
    build them.
    """

    __slots__ = ("t_lo", "t_hi", "a", "b", "y0", "dense", "scale", "offset")

    def __init__(self, t_lo, t_hi, a, b, y0, dense, scale=(1.0, 1.0, 1.0), offset=(0.0, 0.0, 0.0)):
        self.t_lo, self.t_hi = t_lo, t_hi
        self.a, self.b = a, b
        self.y0 = y0
        self.dense = dense
        self.scale, self.offset = scale, offset

    def eval(self, t: float) -> tuple[float, float, float]:
        p0, p1, p2 = _horner(self.y0, self.dense.coefficients(), self.a * t + self.b)
        s, o = self.scale, self.offset
        return (s[0] * p0 + o[0], s[1] * p1 + o[1], s[2] * p2 + o[2])

    def deriv(self, t: float) -> tuple[float, float, float]:
        u = self.a * t + self.b
        c1, c2, c3, c4 = self.dense.coefficients()
        out = []
        for i in range(3):
            dp = c1[i] + u * (2 * c2[i] + u * (3 * c3[i] + u * 4 * c4[i]))
            out.append(self.scale[i] * dp * self.a)
        return tuple(out)

    def mirrored(self, n: int, t_c: float, x_c: float) -> "_Segment":
        r = (-1.0, 1.0, -1.0)
        q = (2 * n * math.pi, 0.0, 2 * x_c)
        return _Segment(
            2 * t_c - self.t_hi,
            2 * t_c - self.t_lo,
            -self.a,
            self.b + 2 * self.a * t_c,
            self.y0,
            self.dense,
            tuple(r[i] * self.scale[i] for i in range(3)),
            tuple(r[i] * self.offset[i] + q[i] for i in range(3)),
        )

    def shifted(self, dt: float, dtheta: float, dx: float) -> "_Segment":
        return _Segment(
            self.t_lo + dt,
            self.t_hi + dt,
            self.a,
            self.b - self.a * dt,
            self.y0,
            self.dense,
            self.scale,
            (self.offset[0] + dtheta, self.offset[1], self.offset[2] + dx),
        )


class Trajectory:
    """Dense, adaptively sampled integral curve with a termination record.

    Samples are ascending in t, and theta is strictly increasing across them
    (the field's first component is positive on the domain, so the angle
    function is monotone by construction).
    """

    def __init__(self, ts, ys, segments, left_info, right_info, direction, cfg):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.segments = segments
        self.left_info = left_info
        self.right_info = right_info
        self.direction = direction
        self.cfg = cfg
        self._seg_los = [s.t_lo for s in segments]

    # -- basic accessors ---------------------------------------------------

    @property
    def thetas(self) -> np.ndarray:
        return self.ys[:, 0]

    @property
    def zs(self) -> np.ndarray:
        return self.ys[:, 1]

    @property
    def xs(self) -> np.ndarray:
        return self.ys[:, 2]

    @property
    def t_span(self) -> tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    @property
    def termination(self) -> EndInfo:
        """The stop record of the integration (the non-initial end)."""
        if self.right_info.kind != "initial":
            return self.right_info
        return self.left_info

    def samples(self) -> list[TrajectorySample]:
        out = []
        for t, (th, z, x) in zip(self.ts, self.ys):
            out.append(TrajectorySample(float(t), float(th), float(z), float(x),
                                        slope(th, z), math.sin(th)))
        return out

    # -- dense output ------------------------------------------------------

    def _segment_for(self, t: float) -> _Segment:
        lo, hi = self.t_span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if t < lo - slack or t > hi + slack:
            raise RangeError(f"t={t} outside span [{lo}, {hi}]")
        t = min(max(t, lo), hi)
        i = _bisect.bisect_right(self._seg_los, t) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return self.segments[i]

    def state_at(self, t: float) -> tuple[float, float, float]:
        return self._segment_for(t).eval(t)

    def deriv_at(self, t: float) -> tuple[float, float, float]:
        """d(theta, z, x)/dt of the interpolant (not of the field)."""
        return self._segment_for(t).deriv(t)

    def dense_eval(self, t: float) -> TrajectorySample:
        th, z, x = self.state_at(t)
        return TrajectorySample(t, th, z, x, slope(th, z), math.sin(th))

    def shifted(self, dt: float = 0.0, dtheta: float = 0.0, dx: float = 0.0) -> "Trajectory":
        """Translate in time, angle lift, and abscissa (all affine, dense output kept)."""
        ys = self.ys.copy()
        ys[:, 0] += dtheta
        ys[:, 2] += dx

        def sh(info: EndInfo) -> EndInfo:
            return EndInfo(
                info.kind,
                None if info.theta_target is None else info.theta_target + dtheta,
                None if info.t_star is None else info.t_star + dt,
                None if info.limit_point is None else
                (info.limit_point[0] + dtheta, info.limit_point[1]),
            )

        segs = [s.shifted(dt, dtheta, dx) for s in self.segments]
        return Trajectory(self.ts + dt, ys, segs, sh(self.left_info),
                          sh(self.right_info), self.direction, self.cfg)

    def crossing_time(self, theta_target: float) -> float | None:
        """Time of theta(t) = theta_target; None when outside the theta range."""
        th = self.thetas
        lo, hi = float(th[0]), float(th[-1])
        tol = 4e-15 * max(1.0, abs(theta_target))
        if abs(lo - theta_target) <= tol:
            return float(self.ts[0])
        if abs(hi - theta_target) <= tol:
            return float(self.ts[-1])
        if not lo < theta_target < hi:
            return None
        i = int(np.searchsorted(th, theta_target)) - 1
        a, b = float(self.ts[i]), float(self.ts[i + 1])
        fa = float(th[i]) - theta_target
        for _ in range(100):
            m = 0.5 * (a + b)
            fm = self.state_at(m)[0] - theta_target
            if fm == 0.0:
                return m
            if (fa < 0.0) == (fm < 0.0):
                a, fa = m, fm
            else:
                b = m
            if b - a <= 1e-16 * max(1.0, abs(a), abs(b)):
                break
        return 0.5 * (a + b)


def _extrapolate_limit(sig_pts, th_pts, z_pts, sig_b):
    """Quadratic (Neville) extrapolation of (theta, z) to the arrival time."""

    def quad(ss, ff, s):
        n = len(ss)
        f = list(ff)
        for j in range(1, n):
            for i in range(n - j):
                f[i] = ((s - ss[i + j]) * f[i] + (ss[i] - s) * f[i + 1]) / (ss[i] - ss[i + j])
        return f[0]

    return quad(sig_pts, th_pts, sig_b), quad(sig_pts, z_pts, sig_b)


def _integrate_raw(y_start, sgn, cfg: IntegratorConfig, boundary_eps: float):
    """Core stepping loop in internal time sigma >= 0.

    Returns (sig_nodes, y_nodes, raw_segments, stop) where raw segments hold
    (sig0, span, y0, dense) with dense a _Dense, and stop is an EndInfo in
    internal time.

    The stage, solution and error sums are written out over locals in the
    tableau's left-to-right order, zero weights included, so every float
    equals that of the textbook summation.  The field is (sgn * slope,
    sgn * sin, sgn * cos) of (theta, z); x does not feed back.
    """
    sin, cos = math.sin, math.cos
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A[1:6]
    b1, b2, b3, b4, b5, b6, _ = _B
    e1, e2, e3, e4, e5, e6, e7 = _E
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    max_step, min_step, max_time = cfg.max_step, cfg.min_step, cfg.max_time
    targets = cfg.theta_targets

    th, z, x = y_start
    y = (th, z, x)
    k1a, k1b, k1c = sgn * slope(th, z), sgn * sin(th), sgn * cos(th)
    sig = 0.0
    h = min(max_step, 1e-3)
    sig_nodes = [0.0]
    y_nodes = [y]
    segs = []
    last_rejected = False

    if domain_gap(th, z) <= 0.0:
        raise DomainError("start state outside the domain")

    while True:
        if sig >= max_time:
            stop = EndInfo("time_cap", t_star=sig)
            break
        h = min(h, max_step, max_time - sig)

        # Stages 2..6, then the FSAL stage at y1 (row 7 of A equals b).
        t_, z_ = th + h * (a21 * k1a), z + h * (a21 * k1b)
        k2a, k2b, k2c = sgn * slope(t_, z_), sgn * sin(t_), sgn * cos(t_)
        t_ = th + h * (a31 * k1a + a32 * k2a)
        z_ = z + h * (a31 * k1b + a32 * k2b)
        k3a, k3b, k3c = sgn * slope(t_, z_), sgn * sin(t_), sgn * cos(t_)
        t_ = th + h * (a41 * k1a + a42 * k2a + a43 * k3a)
        z_ = z + h * (a41 * k1b + a42 * k2b + a43 * k3b)
        k4a, k4b, k4c = sgn * slope(t_, z_), sgn * sin(t_), sgn * cos(t_)
        t_ = th + h * (a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a)
        z_ = z + h * (a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b)
        k5a, k5b, k5c = sgn * slope(t_, z_), sgn * sin(t_), sgn * cos(t_)
        t_ = th + h * (a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a + a65 * k5a)
        z_ = z + h * (a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b + a65 * k5b)
        k6a, k6b, k6c = sgn * slope(t_, z_), sgn * sin(t_), sgn * cos(t_)
        th1 = th + h * (b1 * k1a + b2 * k2a + b3 * k3a + b4 * k4a + b5 * k5a + b6 * k6a)
        z1 = z + h * (b1 * k1b + b2 * k2b + b3 * k3b + b4 * k4b + b5 * k5b + b6 * k6b)
        x1 = x + h * (b1 * k1c + b2 * k2c + b3 * k3c + b4 * k4c + b5 * k5c + b6 * k6c)
        k7a, k7b, k7c = sgn * slope(th1, z1), sgn * sin(th1), sgn * cos(th1)

        err = h * (e1 * k1a + e2 * k2a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a)
        y_abs, y1_abs = abs(th), abs(th1)
        norm = (err / (abs_tol + rel_tol * (y1_abs if y1_abs > y_abs else y_abs))) ** 2
        err = h * (e1 * k1b + e2 * k2b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b)
        y_abs, y1_abs = abs(z), abs(z1)
        norm += (err / (abs_tol + rel_tol * (y1_abs if y1_abs > y_abs else y_abs))) ** 2
        err = h * (e1 * k1c + e2 * k2c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c)
        y_abs, y1_abs = abs(x), abs(x1)
        norm += (err / (abs_tol + rel_tol * (y1_abs if y1_abs > y_abs else y_abs))) ** 2
        norm = math.sqrt(norm / 3.0)

        if not norm <= 1.0:  # too large, or NaN
            fac = 0.2 if norm != norm else max(0.2, 0.9 * norm ** _ORDER_EXP)
            h_new = h * fac
            if h_new < min_step:
                if domain_gap(th, z) < 10.0 * boundary_eps:
                    stop = _contact_stop(sig_nodes, y_nodes, sig, y, boundary_eps)
                    break
                raise StepUnderflowError(
                    f"step underflow at sigma={sig} away from the boundary")
            h = h_new
            last_rejected = True
            continue

        y1 = (th1, z1, x1)
        dense = _Dense(h, (k1a, k1b, k1c, k2a, k2b, k2c, k3a, k3b, k3c, k4a, k4b, k4c,
                           k5a, k5b, k5c, k6a, k6b, k6c, k7a, k7b, k7c))

        # Event scan: boundary contact and theta-target crossings.  Dense
        # coefficients are built only for a step that brackets an event.
        u_event = None
        ev = None
        if domain_gap(th1, z1) - boundary_eps < 0.0:
            coef = dense.coefficients()
            a, b = 0.0, 1.0
            for _ in range(80):
                m = 0.5 * (a + b)
                thm, zm, _x = _horner(y, coef, m)
                if domain_gap(thm, zm) - boundary_eps < 0.0:
                    b = m
                else:
                    a = m
            u_event, ev = b, ("boundary", None)
        for tgt in targets:
            d0 = th - tgt
            d1 = th1 - tgt
            if d0 == 0.0:
                continue  # crossing at a node belongs to the previous step
            if d0 * d1 < 0.0 or d1 == 0.0:
                coef = dense.coefficients()
                a, b = 0.0, 1.0
                for _ in range(60):
                    m = 0.5 * (a + b)
                    if (_horner(y, coef, m)[0] - tgt) * d0 > 0.0:
                        a = m
                    else:
                        b = m
                u_c = 0.5 * (a + b)
                if u_event is None or u_c < u_event:
                    u_event, ev = u_c, ("theta", tgt)

        if ev is not None:
            sig_c = sig + u_event * h
            y_c = _horner(y, dense.coef, u_event)
            # keep the full-step polynomial but restrict its valid span
            segs.append((sig, u_event * h, y, dense))
            sig_nodes.append(sig_c)
            y_nodes.append(y_c)
            if ev[0] == "boundary":
                stop = _contact_stop(sig_nodes, y_nodes, sig_c, y_c, boundary_eps)
            else:
                stop = EndInfo("theta_crossing", theta_target=ev[1], t_star=sig_c)
            break

        segs.append((sig, h, y, dense))
        sig += h
        sig_nodes.append(sig)
        y_nodes.append(y1)
        y, th, z, x = y1, th1, z1, x1
        k1a, k1b, k1c = k7a, k7b, k7c
        if norm == 0.0:
            fac = 5.0  # the limit of the expression below as norm -> 0
        else:
            fac = min(5.0, max(0.2, 0.9 * norm ** _ORDER_EXP))
        if last_rejected:
            fac = min(fac, 1.0)
        last_rejected = False
        h = min(h * fac, max_step)

    return sig_nodes, y_nodes, segs, stop


def _contact_stop(sig_nodes, y_nodes, sig_c, y_c, boundary_eps):
    """Boundary-contact EndInfo with the limit point extrapolated past sig_c."""
    gap_c = domain_gap(y_c[0], y_c[1])
    pts = [(sig_c, y_c[0], y_c[1])]
    for s_n, y_n in zip(reversed(sig_nodes[:-1]), reversed(y_nodes[:-1])):
        pts.append((float(s_n), y_n[0], y_n[1]))
        if len(pts) == 3:
            break
    pts = pts[::-1]
    if len(pts) >= 2:
        s_prev, th_prev, z_prev = pts[-2]
        g_prev = domain_gap(th_prev, z_prev)
        rate = (g_prev - gap_c) / (sig_c - s_prev) if sig_c > s_prev else 0.0
    else:
        rate = 0.0
    sig_b = sig_c + (gap_c / rate if rate > 0.0 else 0.0)
    if len(pts) >= 2:
        th0, z0 = _extrapolate_limit([p[0] for p in pts], [p[1] for p in pts],
                                     [p[2] for p in pts], sig_b)
    else:
        th0, z0 = y_c[0], y_c[1]
    return EndInfo("boundary_contact", t_star=sig_b, limit_point=(th0, z0))


def _finalized(sig_nodes, y_nodes, raw_segs, stop, direction, cfg, start_info):
    """Convert internal-time data into an ascending-t Trajectory."""
    sgn = 1.0 if direction > 0 else -1.0
    segments = []
    for sig0, span, y0, dense in raw_segs:
        if direction > 0:
            t_lo, t_hi = sig0, sig0 + span
        else:
            t_lo, t_hi = -(sig0 + span), -sig0
        # u = (sigma - sig0)/h with sigma = sgn * t
        segments.append(_Segment(t_lo, t_hi, sgn / dense.h, -sig0 / dense.h, y0, dense))
    ts = [sgn * s for s in sig_nodes]
    ys = list(y_nodes)
    stop_t = None if stop.t_star is None else sgn * stop.t_star
    stop = EndInfo(stop.kind, stop.theta_target, stop_t, stop.limit_point)
    if direction > 0:
        left, right = start_info, stop
    else:
        ts.reverse()
        ys.reverse()
        segments.reverse()
        left, right = stop, start_info
    return Trajectory(ts, ys, segments, left, right, direction, cfg)


def integrate(start: PhasePoint, direction, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the field from an interior start until an event stops it.

    direction is "forward"/"backward" (or +1/-1); backward runs the negated
    field.  Stops at the first of: a theta-target crossing from
    cfg.theta_targets (located by bisection on the dense output), boundary
    contact (domain gap below cfg.boundary_eps, limit point extrapolated),
    or cfg.max_time.  The abscissa x is co-integrated with x' = cos(theta),
    x(0) = 0 at the start state.
    """
    if isinstance(direction, str):
        d = {"forward": 1, "backward": -1}.get(direction)
        if d is None:
            raise ValueError(f"unknown direction {direction!r}")
    else:
        d = 1 if direction > 0 else -1
    if not _field.in_domain(start):
        raise DomainError(f"start ({start.theta}, {start.z}) not in the domain")
    y0 = (start.theta, start.z, 0.0)
    nodes, ys, segs, stop = _integrate_raw(y0, float(d), cfg, cfg.boundary_eps)
    return _finalized(nodes, ys, segs, stop, d, cfg, EndInfo("initial"))


def launch_separatrix(cfg: IntegratorConfig, s0: float = 1e-3) -> Trajectory:
    """Forward trajectory from the corner-series seed up to theta = pi.

    The terminal z estimates the critical shooting height.  The seed sits at
    arc length s0 from the corner; its constraint residual is checked before
    trusting it.  x(0) = 0 at the seed (rebase to the corner via s0 and the
    series when needed); trajectory attribute series_s0 records the seed.
    """
    theta_s, z_s, _ = corner_series(s0)
    dth = corner_series_slope(s0)
    c = math.cos(theta_s)
    residual = dth * dth + (c * c) / (z_s * z_s) - 1.0
    if abs(residual) > 1e-12:
        raise SeedError(f"series seed at s0={s0} has constraint residual {residual:.3e}")
    gap0 = domain_gap(theta_s, z_s)
    if gap0 <= 0.0:
        raise SeedError(f"series seed at s0={s0} is outside the domain")
    run_cfg = replace(cfg, boundary_eps=min(cfg.boundary_eps, 0.25 * gap0),
                      theta_targets=(math.pi,))
    nodes, ys, segs, stop = _integrate_raw((theta_s, z_s, 0.0), 1.0, run_cfg,
                                           run_cfg.boundary_eps)
    traj = _finalized(nodes, ys, segs, stop, 1, cfg, EndInfo("series_origin"))
    traj.series_s0 = s0
    return traj


def reflect(traj: Trajectory, n: int) -> Trajectory:
    """Mirror a trajectory about the line theta = n*pi.

    Requires the trajectory to pass through (n*pi, z) with z > 1 at some
    t_c; samples map (t, theta, z, x) -> (2 t_c - t, 2 n pi - theta, z,
    2 x(t_c) - x).  Concatenating with the original is again a trajectory
    of the field.
    """
    t_c = traj.crossing_time(n * math.pi)
    if t_c is None:
        raise NotOnAxisError(f"no point with theta = {n}*pi on this trajectory")
    th_c, z_c, x_c = traj.state_at(t_c)
    if not z_c > 1.0:
        raise NotOnAxisError(f"mirror point has z = {z_c} <= 1")
    two_npi = 2 * n * math.pi
    ts = (2 * t_c - traj.ts)[::-1].copy()
    ys = traj.ys[::-1].copy()
    ys[:, 0] = two_npi - ys[:, 0]
    ys[:, 2] = 2 * x_c - ys[:, 2]
    segments = [s.mirrored(n, t_c, x_c) for s in reversed(traj.segments)]
    left = traj.right_info.mirrored(n, t_c, x_c)
    right = traj.left_info.mirrored(n, t_c, x_c)
    out = Trajectory(ts, ys, segments, left, right, -traj.direction, traj.cfg)
    return out


def concat(a: Trajectory, b: Trajectory, tol: float = 1e-8) -> Trajectory:
    """Join two trajectories sharing an endpoint state (a's right = b's left)."""
    ta, tb = a.ts[-1], b.ts[0]
    if abs(ta - tb) > 1e-9 * max(1.0, abs(ta), abs(tb)):
        raise ValueError(f"junction times differ: {ta} vs {tb}")
    ya, yb = a.ys[-1], b.ys[0]
    if max(abs(ya[i] - yb[i]) for i in range(3)) > tol:
        raise ValueError(f"junction states differ beyond {tol}: {ya} vs {yb}")
    ts = np.concatenate([a.ts, b.ts[1:]])
    ys = np.concatenate([a.ys, b.ys[1:]])
    return Trajectory(ts, ys, a.segments + b.segments, a.left_info, b.right_info, 0, a.cfg)
