"""Adaptive Runge-Kutta integration of the phase field with dense output.

The scheme is the Dormand-Prince embedded 5(4) pair with its free 4th-order
interpolant, coefficients pinned here so that results are reproducible
bit-for-bit for a given config.  The field is smooth in the interior; the
boundary z = |cos theta| (where it is continuous but not Lipschitz) is
handled by events, not by implicit methods: stage evaluations that land
outside the domain are clamped, and an accepted step whose end falls within
``boundary_eps`` of the boundary is cut at the contact event.

The stepping loop evaluates the field inline with exactly the arithmetic of
field.slope and field.domain_gap, which stay the reference: a test checks
every stored stage against them bit for bit.  The direction sign rides on
the step size (exact, see _integrate_raw), and _finalized signs the stages.

Dense output is one table per trajectory, numpy columns with a row per
accepted step: row k covers [ts[k], ts[k+1]] between two nodes, so the
table keeps no time span of its own.  A row holds the affine map onto the
step's internal parameter, the start state, the step size and the 7 stage
derivatives, and an output scale and offset (see Trajectory).  Reflection
and time shifts are one affine move of the columns, concatenation joins
them, and states_at evaluates many times at once by searchsorted plus
Horner.  The quartic coefficients are not stored: each evaluation builds
them in one vectorized pass (_dense_coef), once for each distinct row it
reads, so callers that read only nodes and the termination record
(shooting) never pay for them.  One row's coefficients are built in plain
floats with the same bits (_step_coef): by the stepping loop, only for the
one step that brackets a boundary contact or a theta-target crossing, and
by Trajectory._row, the row reader of state_at and crossing_time, which
bisects on the one row that brackets its target.

Trajectory time t always increases with theta; backward integration runs in
an internal parameter and is exposed with t = -sigma, so samples are always
ascending in both t and theta.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import field as _field
from .errors import (
    DomainError,
    NotOnAxisError,
    RangeError,
    SeedError,
    StepLimitError,
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
# Accepted steps one integration may take.  A span of 200 at max_step 0.1
# takes 2,000; the cap stops a huge max_time or a tolerance that makes the
# steps crawl before their lists fill memory.
MAX_STEPS = 100_000

# Trajectory series at the degenerate corner (0, 1), s = arc length from the
# corner.  1/18 and 1/72 follow from theta'' -> 0, theta''' -> 1/3; the
# higher coefficients come from matching theta'^2 + cos^2/z^2 = 1 order by
# order (constraint residual of this truncation is O(s^10); the leading-order
# truncation has residual -s^6/324, both pinned in tests).
SERIES_A = (1 / 18, 1 / 432, -17 / 77760)
SERIES_B = (1 / 72, 1 / 2592, -17 / 622080)
_X7 = -1 / 4536  # x(s) = s - s^7/4536 + O(s^9), from x' = cos(theta(s))
SERIES_S0 = 1e-3  # arc length of the series seed that launch_separatrix integrates from


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
        if not 0.0 < self.boundary_eps < math.inf:
            raise ValueError("boundary_eps must be positive and finite")
        object.__setattr__(self, "theta_targets", tuple(self.theta_targets))

    def tightened(self, factor: float) -> "IntegratorConfig":
        return replace(self, rel_tol=self.rel_tol / factor, abs_tol=self.abs_tol / factor)

    def with_targets(self, *targets: float) -> "IntegratorConfig":
        return replace(self, theta_targets=tuple(targets))


@dataclass(frozen=True)
class EndInfo:
    """How a trajectory ends (or starts) at one of its two time endpoints."""

    kind: str  # "initial" | "theta_crossing" | "boundary_contact" | "time_cap" | "series_origin"
    theta_target: float | None = None
    t_star: float | None = None
    limit_point: tuple[float, float] | None = None


_P_COLS = np.array(_P)[:, :, None]  # (7, 4, 1): stage j, power m


def _dense_coef(h: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """Quartic coefficients coef[m, n, i] of n steps (m = 0..3 for u .. u^4).

    h has shape (n,) and stages (n, 7, 3), the 7 stage derivatives of each
    step.  Each coefficient is h * (0.0 + k_1 P_1 + ... + k_7 P_7), summed
    left to right: the bits of the scalar per-step expression this table
    replaced (plain builtins.sum, Python <= 3.11).  The stages are laid out
    as 7 contiguous rows first, so each term is one long elementwise pass.
    """
    k = np.ascontiguousarray(stages.transpose(1, 0, 2)).reshape(7, -1)
    acc = 0.0 + k[0] * _P_COLS[0]
    for j in range(1, 7):
        acc = acc + k[j] * _P_COLS[j]
    return h[:, None] * acc.reshape(4, -1, 3)


_P_ROWS = tuple(zip(*_P))  # (4, 7): power m, stage j


def _step_coef(h: float, sgn: float, k) -> list[list[float]]:
    """Quartic coefficients of one step as float lists, one per component.

    k is the flat sequence of the step's 21 stage values (k1_theta, k1_z,
    k1_x, k2_theta, ...) and sgn the sign _dense_coef's stages carry: the
    direction sign for the loop's unsigned stages (see _integrate_raw), 1.0
    for a table row's.  In plain floats with _dense_coef's bits: the same
    products, summed left to right from 0.0.
    """
    coef = []
    for i in range(3):
        k1, k2, k3, k4, k5, k6, k7 = [sgn * v for v in k[i::3]]
        coef.append([h * (0.0 + k1 * p1 + k2 * p2 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6
                          + k7 * p7) for p1, p2, p3, p4, p5, p6, p7 in _P_ROWS])
    return coef


def _quartic(y0, coef, u):
    """The step interpolant y0 + u*c1 + u^2*c2 + u^3*c3 + u^4*c4 at u.

    Elementwise: floats for one component, or arrays for many rows.
    """
    c1, c2, c3, c4 = coef
    return y0 + u * (c1 + u * (c2 + u * (c3 + u * c4)))


class Trajectory:
    """Dense, adaptively sampled integral curve with a termination record.

    Samples (nodes) are ascending in t, and theta is strictly increasing
    across them (the field's first component is positive on the domain, so
    the angle function is monotone by construction).

    The dense output is one table of numpy columns with a row per step,
    ascending in t: row k covers the nodes' [ts[k], ts[k+1]] (the table
    keeps no time span of its own), maps t onto its internal parameter
    u = a*t + b, starts at y0 with size h and 7 stage derivatives
    (stages[n, 7, 3]), and evaluates to scale * p(u) + offset with p the
    quartic interpolant.  Reflection and time shifts compose into (a, b,
    scale, offset), so mirrored and concatenated trajectories keep full dense
    output.  The coefficients of p are built, by _dense_coef, once for each
    distinct row an evaluation reads.  The arrays of an integrated
    trajectory are read-only: shooting hands one trajectory to several
    callers.
    """

    def __init__(self, ts, ys, table, left_info, right_info):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.table = table
        self.left_info = left_info
        self.right_info = right_info

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

    # -- dense output ------------------------------------------------------

    def states_at(self, ts, deriv: bool = False) -> np.ndarray:
        """Rows (theta, z, x) of the dense output at the times ts.

        With deriv, rows of d(theta, z, x)/dt of the interpolant (not of the
        field).  Times within a relative 1e-9 outside the span are taken by
        the end steps; farther ones, and NaN, raise RangeError.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        lo, hi = self.t_span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        outside = ~((ts >= lo - slack) & (ts <= hi + slack))  # NaN is outside
        if outside.any():
            raise RangeError(f"t={ts[outside][0]} outside span [{lo}, {hi}]")
        tab = self.table
        # the last row starting at or before t (row 0 before the first start)
        i = np.searchsorted(self.ts[1:-1], np.clip(ts, lo, hi), side="right")
        # build each distinct row read once (a mask: cheaper than np.unique)
        read = np.zeros(len(tab["h"]), dtype=bool)
        read[i] = True
        rows = np.flatnonzero(read)
        a = tab["a"][i, None]
        u = a * ts[:, None] + tab["b"][i, None]
        coef = _dense_coef(tab["h"][rows], tab["stages"][rows])
        c1, c2, c3, c4 = coef[:, np.cumsum(read)[i] - 1]
        if deriv:
            return tab["scale"][i] * (c1 + u * (2 * c2 + u * (3 * c3 + u * 4 * c4))) * a
        return tab["scale"][i] * _quartic(tab["y0"][i], (c1, c2, c3, c4), u) + tab["offset"][i]

    def state_at(self, t: float) -> tuple[float, float, float]:
        """states_at's row at one time, in plain floats with its bits."""
        t, (lo, hi) = float(t), self.t_span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not (t >= lo - slack and t <= hi + slack):  # NaN is outside
            raise RangeError(f"t={t} outside span [{lo}, {hi}]")
        a, b, comps = self._row(int(np.searchsorted(self.ts[1:-1], min(max(t, lo), hi), "right")))
        u = a * t + b
        return tuple(scale * _quartic(y0, coef, u) + offset for y0, coef, scale, offset in comps)

    def _row(self, i: int):
        """Row i's a, b and per component (y0, quartic coef, scale, offset), as floats."""
        tab = self.table
        coef = _step_coef(tab["h"][i].item(), 1.0, tab["stages"][i].ravel().tolist())
        y0, scale, offset = (tab[key][i].tolist() for key in ("y0", "scale", "offset"))
        return tab["a"][i].item(), tab["b"][i].item(), list(zip(y0, coef, scale, offset))

    def shifted(self, dt: float = 0.0, dtheta: float = 0.0, dx: float = 0.0) -> "Trajectory":
        """Translate in time, angle lift, and abscissa (all affine, dense output kept)."""
        return self._moved(1.0, dt, (1.0, 1.0, 1.0), (dtheta, 0.0, dx))

    def _moved(self, s: float, dt: float, r: tuple, q: tuple) -> "Trajectory":
        """The trajectory under t -> s*t + dt and y -> r*y + q, for s = 1 or -1.

        Row k's parameter map a*t + b becomes (s*a)*t + (b - (s*a)*dt) and its
        output scale * p + offset becomes (r*scale) * p + (r*offset + q); the
        end records move with the nodes.  With s = -1 the nodes and rows run
        in reverse and the two end records swap.  r and q are float triples.
        """
        rv, qv = np.array(r), np.array(q)
        tab = self.table
        a = s * tab["a"]
        table = dict(tab, a=a, b=tab["b"] - a * dt, scale=rv * tab["scale"],
                     offset=rv * tab["offset"] + qv)
        ts, ys = s * self.ts + dt, rv * self.ys + qv

        def end(info: EndInfo) -> EndInfo:
            return EndInfo(
                info.kind,
                None if info.theta_target is None else r[0] * info.theta_target + q[0],
                None if info.t_star is None else s * info.t_star + dt,
                None if info.limit_point is None else
                (r[0] * info.limit_point[0] + q[0], info.limit_point[1]),
            )

        left, right = end(self.left_info), end(self.right_info)
        if s < 0.0:
            ts, ys, left, right = ts[::-1], ys[::-1], right, left
            table = {key: col[::-1] for key, col in table.items()}
        return Trajectory(ts, ys, table, left, right)

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
        # row i covers the bracket [ts[i], ts[i+1]], so every midpoint reads it:
        # theta(m) - theta_target in plain floats with the coefficients and
        # Horner order of states_at, so with its bits
        i = int(np.searchsorted(th, theta_target)) - 1
        a, b, comps = self._row(i)
        y0, coef, scale, offset = comps[0]

        def gap(m):
            return scale * _quartic(y0, coef, a * m + b) + offset - theta_target

        return bisect_root(gap, float(self.ts[i]), float(self.ts[i + 1]), 100)


def bisect_root(f, a: float, b: float, max_iter: int) -> float:
    """Root of f on [a, b] by bisection, where f(a) < 0.

    m = (a + b)/2; return m when f(m) == 0, else a = m when f(m) < 0 and
    b = m otherwise, until max_iter halvings or b - a <= 1e-16 * max(1, |a|,
    |b|); then (a + b)/2.  Once a and b are adjacent floats the midpoint is
    one of them and the loop cannot move; its answer is then that midpoint,
    returned at once.
    """
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if m == a or m == b:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if fm < 0.0:
            a = m
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


def _integrate_raw(y_start, sgn, cfg: IntegratorConfig):
    """Core stepping loop in internal time sigma >= 0.

    Returns (sig_nodes, nodes, hs, stages, stop): nodes is one flat list of
    the node states (theta, z, x of node 0, then node 1, ...); step i runs
    from node i to node i + 1 with size hs[i] (the last step may be cut
    short at its event); stages is one flat list of the steps' 7 unsigned
    stage derivatives (k1_theta, k1_z, k1_x, k2_theta, ... of step 0, then
    step 1, ...); stop is an EndInfo in internal time.

    The field is (sgn * slope, sgn * sin, sgn * cos) of (theta, z); x does
    not feed back.  The sign rides on the step, hh = sgn * h, which is exact
    as rounding to nearest is symmetric: h*(a*(-f)) == (-h)*(a*f), a sum of
    negated terms is the negated sum, and the error norm squares the sign
    away.  The sums are written out over locals in the tableau's
    left-to-right order, so every float equals that of the textbook
    summation; the zero-weight b2 k2 and e2 k2 are left out, since adding
    +-0.0 to a nonzero float returns it (k2 is never NaN, by the q > 0
    guard, and an infinite k2 raises in stage 3's sin first).  Stages 2..7
    evaluate it inline with field.py's arithmetic (one cos serves z + cos
    and the x component), and the FSAL stage's min(z - cos, z + cos) is the
    end state's domain_gap for the event scan; only k1 of the start state
    calls slope.  Step-size clamps are comparisons with min's and max's tie
    semantics.  TestScheme::test_stages_are_the_field_module holds every
    stored stage to field.py bit for bit.

    The error norm squares with ** 2, not x * x: glibc 2.36's pow(x, 2.0)
    differs from the product in the last bit on about 1 in 1,200 random
    doubles, so that rewrite is not exact and could move accepted steps.
    The abs() of a state is taken once, when it is the end of the step
    being tried, and reused while the next step starts from it.  The
    contact and crossing bisections halve the step's parameter interval
    (a, b) at most 80 and 60 times, and stop at the first halving that
    leaves (a, b) unchanged (the midpoint is already the endpoint it would
    replace): every later halving would repeat it, so the result is that
    of the full count.
    """
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A[1:6]
    b1, _, b3, b4, b5, b6, _ = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol
    max_step, min_step, max_time = cfg.max_step, cfg.min_step, cfg.max_time
    boundary_eps, targets = cfg.boundary_eps, cfg.theta_targets

    th, z, x = y_start
    ath, az, ax = abs(th), abs(z), abs(x)  # of the state the step starts from
    k1a, k1b, k1c = slope(th, z), sin(th), cos(th)
    sig = 0.0
    h = min(max_step, 1e-3)
    sig_nodes = [0.0]
    nodes = [th, z, x]
    hs = []
    stages = []
    last_rejected = False

    gap = domain_gap(th, z)
    if gap <= 0.0:
        raise DomainError("start state outside the domain")
    if gap <= boundary_eps:  # the first step would end at a contact at sigma ~ 0
        raise ValueError(f"start state's domain gap {gap:.6g} is within "
                         f"boundary_eps = {boundary_eps:.6g} of the boundary")

    while True:
        if sig >= max_time:
            stop = EndInfo("time_cap", t_star=sig)
            break
        # h = min(h, max_step, max_time - sig), ties to the earlier argument
        if max_step < h:
            h = max_step
        r = max_time - sig
        if r < h:
            h = r
        hh = sgn * h

        # Stages 2..6, then the FSAL stage at y1 (row 7 of A equals b); zm,
        # zp and q are field.z_minus_cos, z_plus_cos and slope_sq.
        t_, z_ = th + hh * (a21 * k1a), z + hh * (a21 * k1b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ > 0.0 else 0.0
        k2a, k2b, k2c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a31 * k1a + a32 * k2a)
        z_ = z + hh * (a31 * k1b + a32 * k2b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ > 0.0 else 0.0
        k3a, k3b, k3c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a41 * k1a + a42 * k2a + a43 * k3a)
        z_ = z + hh * (a41 * k1b + a42 * k2b + a43 * k3b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ > 0.0 else 0.0
        k4a, k4b, k4c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a)
        z_ = z + hh * (a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ > 0.0 else 0.0
        k5a, k5b, k5c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a + a65 * k5a)
        z_ = z + hh * (a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b + a65 * k5b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ > 0.0 else 0.0
        k6a, k6b, k6c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        th1 = th + hh * (b1 * k1a + b3 * k3a + b4 * k4a + b5 * k5a + b6 * k6a)
        z1 = z + hh * (b1 * k1b + b3 * k3b + b4 * k4b + b5 * k5b + b6 * k6b)
        x1 = x + hh * (b1 * k1c + b3 * k3c + b4 * k4c + b5 * k5c + b6 * k6c)
        s, c = sin(0.5 * th1), cos(th1)
        zm, zp = (z1 - 1.0) + 2.0 * s * s, z1 + c
        q = zm * zp / (z1 * z1) if z1 > 0.0 else 0.0
        k7a, k7b, k7c = sqrt(q) if q > 0.0 else 0.0, sin(th1), c

        try:
            err = hh * (e1 * k1a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a)
            ath1, az1, ax1 = abs(th1), abs(z1), abs(x1)
            norm = (err / (abs_tol + rel_tol * (ath1 if ath1 > ath else ath))) ** 2
            err = hh * (e1 * k1b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b)
            norm += (err / (abs_tol + rel_tol * (az1 if az1 > az else az))) ** 2
            err = hh * (e1 * k1c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c)
            norm += (err / (abs_tol + rel_tol * (ax1 if ax1 > ax else ax))) ** 2
            norm = math.sqrt(norm / 3.0)
        except OverflowError:  # float ** 2 raises past 1e308 (tiny tolerances)
            norm = math.inf

        if not norm <= 1.0:  # too large, or NaN
            fac = 0.2 if norm != norm else max(0.2, 0.9 * norm ** _ORDER_EXP)
            h_new = h * fac
            if h_new < min_step:
                if domain_gap(th, z) < 10.0 * boundary_eps:
                    stop = _contact_stop(sig_nodes, nodes)
                    break
                raise StepUnderflowError(
                    f"step underflow at sigma={sig} away from the boundary")
            h = h_new
            last_rejected = True
            continue

        k = (k1a, k1b, k1c, k2a, k2b, k2c, k3a, k3b, k3c, k4a, k4b, k4c,
             k5a, k5b, k5c, k6a, k6b, k6c, k7a, k7b, k7c)

        # Event scan: boundary contact and theta-target crossings.  Dense
        # coefficients (one list per component) are built only for a step
        # that brackets an event.
        u_event = None
        ev = None
        coef = None
        # domain_gap(th1, z1) is min(zm, zp) of the FSAL stage
        if (zp if zp < zm else zm) - boundary_eps < 0.0:
            coef = _step_coef(h, sgn, k)
            a, b = 0.0, 1.0
            for _ in range(80):
                m = 0.5 * (a + b)
                if domain_gap(_quartic(th, coef[0], m), _quartic(z, coef[1], m)) - boundary_eps < 0.0:
                    if m == b:
                        break  # a fixed point: no later iteration moves (a, b)
                    b = m
                else:
                    if m == a:
                        break
                    a = m
            u_event, ev = b, ("boundary", None)
        for tgt in targets:
            d0 = th - tgt
            d1 = th1 - tgt
            if d0 == 0.0:
                continue  # crossing at a node belongs to the previous step
            if d0 * d1 < 0.0 or d1 == 0.0:
                coef = coef or _step_coef(h, sgn, k)
                a, b = 0.0, 1.0
                for _ in range(60):
                    m = 0.5 * (a + b)
                    if (_quartic(th, coef[0], m) - tgt) * d0 > 0.0:
                        if m == a:
                            break
                        a = m
                    else:
                        if m == b:
                            break
                        b = m
                u_c = 0.5 * (a + b)
                if u_event is None or u_c < u_event:
                    u_event, ev = u_c, ("theta", tgt)

        if ev is not None:
            sig_c = sig + u_event * h
            y_c = (_quartic(th, coef[0], u_event), _quartic(z, coef[1], u_event),
                   _quartic(x, coef[2], u_event))
            # keep the full-step polynomial but restrict its valid span
            hs.append(h)
            stages += k
            sig_nodes.append(sig_c)
            nodes += y_c
            if ev[0] == "boundary":
                stop = _contact_stop(sig_nodes, nodes)
            else:
                stop = EndInfo("theta_crossing", theta_target=ev[1], t_star=sig_c)
            break

        hs.append(h)
        stages += k
        sig += h
        sig_nodes.append(sig)
        nodes += (th1, z1, x1)
        th, z, x = th1, z1, x1
        ath, az, ax = ath1, az1, ax1
        k1a, k1b, k1c = k7a, k7b, k7c
        if len(hs) == MAX_STEPS:
            raise StepLimitError(f"more than {MAX_STEPS} steps, at sigma={sig}")
        if norm == 0.0:
            fac = 5.0  # the limit of the expression below as norm -> 0
        else:
            # min(5.0, max(0.2, f)), then min(fac, 1.0) and min(h * fac, max_step)
            fac = 0.9 * norm ** _ORDER_EXP
            if not fac > 0.2:
                fac = 0.2
            if not fac < 5.0:
                fac = 5.0
        if last_rejected and 1.0 < fac:
            fac = 1.0
        last_rejected = False
        h *= fac
        if max_step < h:
            h = max_step

    return sig_nodes, nodes, hs, stages, stop


def _contact_stop(sig_nodes, nodes):
    """Boundary-contact EndInfo with the limit point extrapolated past the last node.

    sig_nodes are the node times and nodes the flat (theta, z, x) list of
    the loop; the last node is the contact state.
    """
    sig_c = sig_nodes[-1]
    gap_c = domain_gap(nodes[-3], nodes[-2])
    # the last three nodes (fewer on a short run), oldest first
    pts = [(sig_nodes[j], nodes[3 * j], nodes[3 * j + 1])
           for j in range(max(0, len(sig_nodes) - 3), len(sig_nodes))]
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
        th0, z0 = nodes[-3], nodes[-2]
    return EndInfo("boundary_contact", t_star=sig_b, limit_point=(th0, z0))


def _packed(values: list) -> np.ndarray:
    """A read-only float array of the floats in values, packed in one call."""
    return np.frombuffer(struct.pack(f"{len(values)}d", *values))


def _finalized(sig_nodes, nodes, hs, stages, stop, direction, start_info):
    """Convert internal-time data into an ascending-t Trajectory."""
    sgn = 1.0 if direction > 0 else -1.0
    sig = _packed(sig_nodes)
    ys = _packed(nodes).reshape(-1, 3)
    h = _packed(hs)
    ts = sgn * sig
    table = {
        "a": sgn / h,  # u = (sigma - sig0)/h with sigma = sgn * t
        "b": -sig[:-1] / h,
        "h": h,
        "y0": ys[:-1],
        "stages": sgn * _packed(stages).reshape(-1, 7, 3),  # unsigned in the loop
        "scale": np.ones((len(h), 3)),
        "offset": np.zeros((len(h), 3)),
    }
    stop_t = None if stop.t_star is None else sgn * stop.t_star
    stop = EndInfo(stop.kind, stop.theta_target, stop_t, stop.limit_point)
    if direction > 0:
        left, right = start_info, stop
    else:
        ts, ys = ts[::-1], ys[::-1]
        table = {key: col[::-1] for key, col in table.items()}
        left, right = stop, start_info
    for col in (ts, ys, *table.values()):
        col.flags.writeable = False  # a memoized trajectory is shared
    return Trajectory(ts, ys, table, left, right)


def integrate(start: PhasePoint, direction, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the field from an interior start until an event stops it.

    direction is "forward" or "backward"; backward runs the negated field.
    Stops at the first of: a theta-target crossing from cfg.theta_targets
    (located by bisection on the dense output), boundary contact (domain gap
    below cfg.boundary_eps, limit point extrapolated), or cfg.max_time.
    The abscissa x is co-integrated with x' = cos(theta), x(0) = 0 at the
    start state.  A start whose domain gap is at most cfg.boundary_eps
    would stop at once, so it is a ValueError naming boundary_eps.
    """
    d = {"forward": 1, "backward": -1}.get(direction)
    if d is None:
        raise ValueError(f"unknown direction {direction!r}")
    if not _field.in_domain(start):
        raise DomainError(f"start ({start.theta}, {start.z}) not in the domain")
    y0 = (start.theta, start.z, 0.0)
    return _finalized(*_integrate_raw(y0, float(d), cfg), d, EndInfo("initial"))


def launch_separatrix(cfg: IntegratorConfig, s0: float = SERIES_S0) -> Trajectory:
    """Forward trajectory from the corner-series seed up to theta = pi.

    The terminal z estimates the critical shooting height.  The seed sits at
    arc length s0 from the corner; its constraint residual is checked before
    trusting it.  x(0) = 0 at the seed (rebase to the corner via s0 and the
    series when needed).
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
    return _finalized(*_integrate_raw((theta_s, z_s, 0.0), 1.0, run_cfg), 1,
                      EndInfo("series_origin"))


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
    return traj._moved(-1.0, 2 * t_c, (-1.0, 1.0, -1.0), (2 * n * math.pi, 0.0, 2 * x_c))


def concat(a: Trajectory, b: Trajectory, tol: float = 1e-8) -> Trajectory:
    """Join two trajectories sharing an endpoint state (a's right = b's left).

    The junction node keeps a's time, and b's first row is read from there
    on, also where b's own first time differs from it (by up to the 1e-9
    accepted here).
    """
    ta, tb = a.ts[-1].item(), b.ts[0].item()
    if abs(ta - tb) > 1e-9 * max(1.0, abs(ta), abs(tb)):
        raise ValueError(f"junction times differ: {ta} vs {tb}")
    ya, yb = a.ys[-1].tolist(), b.ys[0].tolist()
    if max(abs(ya[i] - yb[i]) for i in range(3)) > tol:
        raise ValueError(f"junction states differ beyond {tol}: {ya} vs {yb}")
    ts = np.concatenate([a.ts, b.ts[1:]])
    ys = np.concatenate([a.ys, b.ys[1:]])
    table = {key: np.concatenate([a.table[key], b.table[key]]) for key in a.table}
    return Trajectory(ts, ys, table, a.left_info, b.right_info)


def with_mirror(half: Trajectory) -> Trajectory:
    """A trajectory followed by its mirror about theta = pi (see reflect)."""
    return concat(half, reflect(half, 1))
