"""Adaptive Runge-Kutta integration of the phase field with dense output.

The scheme is DOP853, the Dormand-Prince 8(5,3) pair: an 8th-order step
whose error is estimated from a 5th- and a 3rd-order part, with its
7th-order dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and
II.6; Hairer's dop853.f).  Its coefficients are pinned here so that results
are reproducible bit-for-bit for a given config.  The field is smooth in
the interior; the boundary z = |cos theta| (where it is continuous but not
Lipschitz) is handled by events, not by implicit methods: stage evaluations
that land outside the domain are clamped, and an accepted step whose end
falls within ``boundary_eps`` of the boundary is cut at the contact event.

The stepping loop evaluates the field inline with exactly the arithmetic of
field.slope and field.domain_gap, which stay the reference: a test checks
every stored stage against them bit for bit.  The direction sign rides on
the step size (exact, see _integrate_raw): the stages are stored unsigned
and the table keeps the signed step.

Dense output is one table per trajectory, numpy columns with a row per
accepted step: row k covers [ts[k], ts[k+1]] between two nodes, so the
table keeps no time span of its own.  A row holds the affine map onto the
step's internal parameter, the start state, the signed step size and the
13 stages of the step, an output scale and offset (see Trajectory), and
the index of its step in the integration.  Reflection and time shifts are
one affine move of the columns, concatenation joins them, and states_at
evaluates many times at once by searchsorted and the interpolant's nested
form.  The interpolant needs 3 more stages and 7 terms per component,
which are not in the table: states_at builds them in one vectorized pass
(_dense_terms) for the steps it reads that were never built, and keeps
them in a store (_StepTerms) that the trajectory shares with its mirror,
its shifts and their concatenation, so the mirrored half of a full curve
and every repeated evaluation reuse them.  Callers that read only nodes
and the termination record (shooting) never pay for them.  One row's
terms are built in plain floats with the same bits (_step_terms): by the
stepping loop, only for the one step that brackets a boundary contact or
a theta-target crossing, and by Trajectory._row, the row reader of
state_at and crossing_time, which bisects on the one row that brackets
its target.
The field at the extra stages is field.slope and libm's sin and cos, never
a numpy ufunc, so no output bit depends on numpy's SIMD dispatch.

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

# Dormand-Prince 8(5,3) tableau, as in Hairer's dop853.f (Hairer, Norsett &
# Wanner, Solving ODEs I, II.5; Prince & Dormand, J. Comput. Appl. Math. 7(1),
# 1981), each coefficient the float nearest its 30-digit value.  Row i - 1
# of _A holds a_i1 .. a_i,i-1 of stage i, zeros included: stages 2 .. 12 of
# the step, then the weights b of its 8th-order update (the 13th stage is
# the field at the update, FSAL), then stages 14 .. 16, which only the
# dense output evaluates.  The field is autonomous, so the nodes c_i are
# not needed.
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ),
)
_B = _A[12]
# Weights of the two error estimates over stages 1 .. 12: the 5th-order
# part, and the 3rd-order part b - bhat (dop853.f's bhh1, bhh2, bhh3).
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294,
)
_E3 = tuple(b - bhh for b, bhh in zip(_B, (0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                                           0.0, 0.7338466882816118, 0.0, 0.0,
                                           0.022058823529411766)))
# Interpolant terms 4 .. 7 of the dense output: h * (d_m1 k_1 + ... + d_m16 k_16).
_D = (
    (
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ),
    (
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ),
    (
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ),
    (
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ),
)


def _nonzero(weights) -> tuple:
    """The (index, weight) pairs of the nonzero weights, in order."""
    return tuple((j, w) for j, w in enumerate(weights) if w != 0.0)


_B_NZ = _nonzero(_B)
_EXTRA_NZ = tuple(_nonzero(row) for row in _A[13:])
_D_NZ = tuple(_nonzero(row) for row in _D)
# The rows of _D share their zeros, so _dense_terms takes the 4 rows in one
# pass: the weight of stage j is the column (d_1j, .., d_4j), shaped to
# broadcast over (row, component).
_D_COLS = tuple((j, np.array([row[j] for row in _D])[:, None, None]) for j, _ in _D_NZ[0])

# Step-size factor limits and safety factor: dop853.f's defaults FAC1 = 0.333,
# FAC2 = 6.0 and SAFE = 0.9 (its WORK(3), WORK(4) and WORK(2)), with the
# exponent -1/8 of its error estimate (BETA = 0, no step-size stabilization).
_FAC_MIN, _FAC_MAX, _SAFE = 0.333, 6.0, 0.9
_ORDER_EXP = -1.0 / 8.0
# Step control at a closing boundary contact.  There theta' = sqrt(q) has
# an infinite derivative and theta ~ s^(3/2) in the distance s to the
# contact: at a fixed h the error of a step grows as s shrinks, at a fixed
# h/s it falls.  Once an accepted step is longer than _CONTACT_LIMITED
# times the distance at its start, the next proposal, h * fac, is also
# scaled by _CONTACT_HOLD times s_end / s_start: the controller holds h/s
# instead of h.  Plain DOP853 control alternates accepted and rejected
# steps there instead (a step that passed may not grow, and the next, at
# the same h and closer, fails).  On the seed-1 shoot deck's 201 heights,
# the backward halves that end at a contact rejected 35.6 steps each
# (IncompleteHigh) against 1.7 with this control, and their accepted steps
# rose from 56.1 to 61.4.  With 0.2 in place of 0.1 they rejected 5-10
# steps each again; with 0.05 the deck took 10,213 step attempts against
# 10,209.  With a hold of 1.0 the contact records lost accuracy, 1.6e-12
# at lambda 2.5 against 2.9e-13 here (mpmath references,
# tests/test_reference.py); 0.7 bought 1.2e-13 there for 5% more steps.
_CONTACT_LIMITED = 0.1
_CONTACT_HOLD = 0.8
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
# Arc length of the series seed that launch_separatrix integrates from, and
# of the series tails of the critical profile (profile._separatrix_evaluator).
# At 0.05 the truncated series is the separatrix to within 7.5e-17 in theta,
# 6.5e-19 in z - 1 and 3.1e-17 in x (a 30-digit Taylor integration,
# tests/reference_mp.py), and z - 1 = 8.7e-8 keeps about 9 digits in a float.
# A seed nearer the corner gains no accuracy and costs steps: at 1e-3,
# z - 1 = 1.4e-14 kept two digits, which left s* and the x extent good to
# only 4e-7 (5e-12 here), and the launch crawled there, 199 steps against
# 91 at the default config and 4,148 against 181 at tightened(100).
SERIES_S0 = 0.05


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


def _dot(weights, k):
    """w_1 k_1 + w_2 k_2 + ... over the nonzero (index, weight) pairs, left to right.

    k holds floats (one component of a step's stages) or arrays (one per
    stage, of many rows): both take the same products and sums, so both
    have the same bits.
    """
    (j, w), *rest = weights
    acc = w * k[j]
    for j, w in rest:
        acc = acc + w * k[j]
    return acc


def _dense_stages(y0, hh, k) -> list:
    """A step's 13 stages extended by the 3 stages only the dense output reads.

    k is the flat sequence of the 39 stage values (k1_theta, k1_z, k1_x,
    k2_theta, ...) unsigned, as the stepping loop computes them, and hh the
    step's signed size: the stage state is y0 + hh * (a_i1 k_1 + ...), the
    loop's arithmetic.  The field comes from field.slope and libm.
    """
    th, z = y0[0], y0[1]
    k = list(k)
    for row in _EXTRA_NZ:
        t_, z_ = th + hh * _dot(row, k[0::3]), z + hh * _dot(row, k[1::3])
        k += (slope(t_, z_), math.sin(t_), math.cos(t_))
    return k


def _step_terms(y0, hh, k) -> list[list[float]]:
    """Interpolant terms F0 .. F6 of one step, a float list per component.

    y0 is the step's start state, hh its signed size and k its 39 unsigned
    stage values (see _dense_stages).  F0 is the update hh * (b_1 k_1 + ...)
    that the loop adds to y0, F1 and F2 follow dop853.f's rcont, and F3 ..
    F6 are hh * (d_m1 k_1 + ... + d_m16 k_16).  _dense_terms builds the
    same bits for many rows.
    """
    k = _dense_stages(y0, hh, k)
    terms = []
    for i in range(3):
        ki = k[i::3]
        f0 = hh * _dot(_B_NZ, ki)
        f1 = hh * ki[0] - f0
        terms.append([f0, f1, f0 - hh * ki[12] - f1] + [hh * _dot(w, ki) for w in _D_NZ])
    return terms


def _field_rows(th: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(slope, sin, cos) of field.py at n states, as an (n, 3) array.

    The arithmetic of field.slope is numpy's, which rounds each operation
    as floats do; sin, cos and sqrt are libm's, one value at a time, so no
    numpy transcendental reaches a bit.
    """
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    ths = th.tolist()
    s = np.array([sin(0.5 * v) for v in ths])
    c = np.array([cos(v) for v in ths])
    with np.errstate(divide="ignore", invalid="ignore"):  # z * z = 0 is clamped below
        q = np.where(z >= _field.Z_MIN, ((z - 1.0) + 2.0 * s * s) * (z + c) / (z * z), 0.0)
    slopes = [sqrt(v) if v > 0.0 else 0.0 for v in q.tolist()]
    return np.column_stack([slopes, [sin(v) for v in ths], c])


def _dense_terms(y0: np.ndarray, h: np.ndarray, stages: np.ndarray) -> np.ndarray:
    """_step_terms of n table rows at once, as an array F[m, n, i].

    y0 has shape (n, 3), h (n,) and stages (n, 13, 3).  Stage states and
    terms are numpy sums in _dot's order, and the 3 extra stages come from
    _field_rows.
    """
    hc = h[:, None]
    k = list(stages.transpose(1, 0, 2))  # 13 arrays (n, 3)
    for row in _EXTRA_NZ:
        st = y0 + hc * _dot(row, k)
        k.append(_field_rows(st[:, 0], st[:, 1]))
    f0 = hc * _dot(_B_NZ, k)
    f1 = hc * k[0] - f0
    return np.concatenate([[f0, f1, f0 - hc * k[12] - f1], hc * _dot(_D_COLS, k)])


def _dense(y0, terms, u):
    """The step interpolant at u, in dop853.f's nested form (its CONTD8).

    y0 + u (F0 + v (F1 + u (F2 + v (F3 + u (F4 + v (F5 + u F6)))))) with
    v = 1 - u: y0 at u = 0, and y0 + F0, the step's end node, at u = 1.
    Elementwise: floats for one component, or arrays for many rows.
    """
    f0, f1, f2, f3, f4, f5, f6 = terms
    v = 1.0 - u
    return y0 + u * (f0 + v * (f1 + u * (f2 + v * (f3 + u * (f4 + v * (f5 + u * f6))))))


def _dense_slope(terms, u):
    """d/du of _dense, by the product rule through the same nesting."""
    f0, f1, f2, f3, f4, f5, f6 = terms
    v = 1.0 - u
    q5 = f5 + u * f6
    q4 = f4 + v * q5
    q3 = f3 + u * q4
    q2 = f2 + v * q3
    q1 = f1 + u * q2
    d = q4 + u * (v * f6 - q5)  # dq3
    d = q2 + u * (v * d - q3)  # dq1
    return f0 + v * q1 + u * (v * d - q1)


class _StepTerms:
    """The interpolant terms of one integration's steps, each built at its first read.

    y0, h and stages are the steps' table columns in step order, and a
    table row reads step tab["step"][row]: a trajectory, its moved copies
    (mirror, shifts) and their concatenations share one store.  The terms
    (7, steps, 3) and the mask of built steps are allocated at the first
    read, so a trajectory never evaluated densely allocates neither.
    """

    __slots__ = ("y0", "h", "stages", "terms", "built")

    def __init__(self, table: dict):
        """The store of a table whose rows are its steps, in order."""
        self.y0, self.h, self.stages = table["y0"], table["h"], table["stages"]
        self.terms = self.built = None

    def read(self, steps: np.ndarray) -> np.ndarray:
        """The terms F[m, k, i] of the steps, building those never built by _dense_terms."""
        n = len(self.h)
        if self.terms is None:
            self.terms, self.built = np.empty((7, n, 3)), np.zeros(n, dtype=bool)
        new = np.zeros(n, dtype=bool)  # a mask: cheaper than np.unique
        new[steps] = True
        new = np.flatnonzero(new & ~self.built)
        if len(new):
            self.terms[:, new] = _dense_terms(self.y0[new], self.h[new], self.stages[new])
            self.built[new] = True
        return self.terms[:, steps]


class Trajectory:
    """Dense, adaptively sampled integral curve with a termination record.

    Samples (nodes) are ascending in t, and theta is strictly increasing
    across them (the field's first component is positive on the domain, so
    the angle function is monotone by construction).

    The dense output is one table of numpy columns with a row per step,
    ascending in t: row k covers the nodes' [ts[k], ts[k+1]] (the table
    keeps no time span of its own), maps t onto its internal parameter
    u = a*t + b, starts at y0 with signed size h and the 13 unsigned stage
    derivatives of its step (stages[n, 13, 3]), and evaluates to
    scale * p(u) + offset with p the step's 7th-order interpolant.
    Reflection and time shifts compose into (a, b, scale, offset), so
    mirrored and concatenated trajectories keep full dense output.  The
    interpolant's 3 extra stages and its terms are built, by _dense_terms,
    once per step of the integration: the column step maps a row to its
    step in terms, a store shared by the trajectory's mirror, shifts and
    their concatenation.  The arrays of an integrated trajectory are
    read-only: shooting hands one trajectory to several callers.
    """

    def __init__(self, ts, ys, table, left_info, right_info, terms: _StepTerms, rejected: int):
        self.ts = np.asarray(ts, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.table = table
        self.left_info = left_info
        self.right_info = right_info
        self.terms = terms
        self.rejected = rejected  # steps the integrations behind it rejected

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
        a = tab["a"][i, None]
        u = a * ts[:, None] + tab["b"][i, None]
        terms = self.terms.read(tab["step"][i])
        if deriv:
            return tab["scale"][i] * _dense_slope(terms, u) * a
        return tab["scale"][i] * _dense(tab["y0"][i], terms, u) + tab["offset"][i]

    def state_at(self, t: float) -> tuple[float, float, float]:
        """states_at's row at one time, in plain floats with its bits."""
        t, (lo, hi) = float(t), self.t_span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not (t >= lo - slack and t <= hi + slack):  # NaN is outside
            raise RangeError(f"t={t} outside span [{lo}, {hi}]")
        i = int(np.searchsorted(self.ts[1:-1], min(max(t, lo), hi), "right"))
        tab = self.table
        if tab["a"][i].item() * t + tab["b"][i].item() == 0.0:
            # the row's start node, where reflect reads a backward half's
            # initial state: u times the finite nested terms is a zero, and
            # y0 plus a zero is y0 but for y0 = -0.0, whose sum takes the
            # zero's sign, so only such a row builds its terms
            y0 = tab["y0"][i].tolist()
            if not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in y0):
                return tuple(scale * v + offset for v, scale, offset in
                             zip(y0, tab["scale"][i].tolist(), tab["offset"][i].tolist()))
        a, b, comps = self._row(i)
        u = a * t + b
        return tuple(scale * _dense(y0, terms, u) + offset for y0, terms, scale, offset in comps)

    def _row(self, i: int):
        """Row i's a, b and per component (y0, interpolant terms, scale, offset), as floats."""
        tab = self.table
        y0 = tab["y0"][i].tolist()
        terms = _step_terms(y0, tab["h"][i].item(), tab["stages"][i].ravel().tolist())
        scale, offset = (tab[key][i].tolist() for key in ("scale", "offset"))
        return tab["a"][i].item(), tab["b"][i].item(), list(zip(y0, terms, scale, offset))

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
        return Trajectory(ts, ys, table, left, right, self.terms, self.rejected)

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
        # theta(m) - theta_target in plain floats with the terms and nesting
        # of states_at, so with its bits
        i = int(np.searchsorted(th, theta_target)) - 1
        a, b, comps = self._row(i)
        y0, terms, scale, offset = comps[0]

        def gap(m):
            return scale * _dense(y0, terms, a * m + b) + offset - theta_target

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

    Returns (sig_nodes, nodes, hs, stages, stop, rejected): nodes is one flat list of
    the node states (theta, z, x of node 0, then node 1, ...); step i runs
    from node i to node i + 1 with size hs[i] (the last step may be cut
    short at its event); stages is one flat list of the steps' 13 unsigned
    stage derivatives (k1_theta, k1_z, k1_x, k2_theta, ... of step 0, then
    step 1, ...); stop is an EndInfo in internal time; rejected counts the
    rejected steps.

    The scheme is DOP853: 12 stages and the 8th-order update, then the FSAL
    stage k13 at the update, which is the next step's k1.  The field is
    (sgn * slope, sgn * sin, sgn * cos) of (theta, z); x does not feed back.
    The sign rides on the step, hh = sgn * h, which is exact as rounding to
    nearest is symmetric: h*(a*(-f)) == (-h)*(a*f), a sum of negated terms
    is the negated sum, and the error norm squares the sign away.  Each sum
    is written out over locals in the tableau's order, its zero weights left
    out.  Stages 2..13 evaluate the field inline with field.py's arithmetic,
    its clamp below field.Z_MIN included (one cos serves z + cos and the x
    component), and the FSAL stage's min(z - cos, z + cos) is the end
    state's domain_gap for the event scan; only k1 of the start state calls
    slope.
    TestScheme::test_stages_are_the_field_module holds every stored stage to
    field.py bit for bit.

    The error norm is that of dop853.f and scipy's DOP853: per component,
    the 5th-order estimate e5 and the 3rd-order estimate e3 over the scale
    abs_tol + rel_tol * max(|y0|, |y1|), then
    h * |e5|^2 / sqrt(3 * (|e5|^2 + 0.01 |e3|^2)); the step is accepted at
    norm <= 1, and the next is h * fac with fac = min(6, max(0.333, 0.9 *
    norm^(-1/8))), not above 1 after a rejection.  Near a boundary contact
    the gap is closing on, the step after an accepted one that was longer
    than _CONTACT_LIMITED times its start's distance s to the contact is
    h * fac * _CONTACT_HOLD * s_end / s_start instead.  s comes from the
    FSAL stage: the gap's nearer branch z -+ cos(theta) changes at the rate
    sgn * sin(theta) * (1 +- theta') per unit sigma, so s = gap / -rate
    where that rate is negative (s = inf where the gap opens, and at the
    start, which no step precedes).  A 5th-order sum that overflows makes
    the norm NaN, which rejects the step by the least factor.  The abs() of a state is taken
    once, when it is the end of the step being tried, and reused while the
    next step starts from it.  Step-size clamps are comparisons with min's
    and max's tie semantics.

    A step whose end is within boundary_eps of the boundary, or past a
    theta target, is cut at its event: the dense output of that one step
    (_step_terms, with its 3 extra stages) is bisected in its parameter
    (a, b) at most 80 (contact) or 60 (crossing) times, stopping at the
    first halving that leaves (a, b) unchanged (the midpoint is already the
    endpoint it would replace): every later halving would repeat it, so
    the result is that of the full count.
    """
    sin, cos, sqrt, z_min = math.sin, math.cos, math.sqrt, _field.Z_MIN
    (
        (a2_1,), (a3_1, a3_2), (a4_1, _, a4_3), (a5_1, _, a5_3, a5_4), (a6_1, _, _, a6_4, a6_5),
        (a7_1, _, _, a7_4, a7_5, a7_6), (a8_1, _, _, a8_4, a8_5, a8_6, a8_7),
        (a9_1, _, _, a9_4, a9_5, a9_6, a9_7, a9_8),
        (a10_1, _, _, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
        (a11_1, _, _, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10),
        (a12_1, _, _, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11),
    ) = _A[1:12]
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _B
    e1, _, _, _, _, e6, e7, e8, e9, e10, e11, e12 = _E5
    d1, _, _, _, _, d6, d7, d8, d9, d10, d11, d12 = _E3
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
    rejected = 0
    last_rejected = False
    s_start = math.inf  # sigma from the step's start to the contact its gap closes on

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

        # Stages 2..12, then the update and the FSAL stage k13 at it; zm, zp
        # and q are field.z_minus_cos, z_plus_cos and slope_sq (q = 0 in
        # place of its -inf below Z_MIN: both clamp the slope to 0).
        t_ = th + hh * (a2_1 * k1a)
        z_ = z + hh * (a2_1 * k1b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k2a, k2b, k2c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a3_1 * k1a + a3_2 * k2a)
        z_ = z + hh * (a3_1 * k1b + a3_2 * k2b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k3a, k3b, k3c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a4_1 * k1a + a4_3 * k3a)
        z_ = z + hh * (a4_1 * k1b + a4_3 * k3b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k4a, k4b, k4c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a5_1 * k1a + a5_3 * k3a + a5_4 * k4a)
        z_ = z + hh * (a5_1 * k1b + a5_3 * k3b + a5_4 * k4b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k5a, k5b, k5c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a6_1 * k1a + a6_4 * k4a + a6_5 * k5a)
        z_ = z + hh * (a6_1 * k1b + a6_4 * k4b + a6_5 * k5b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k6a, k6b, k6c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a7_1 * k1a + a7_4 * k4a + a7_5 * k5a + a7_6 * k6a)
        z_ = z + hh * (a7_1 * k1b + a7_4 * k4b + a7_5 * k5b + a7_6 * k6b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k7a, k7b, k7c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a8_1 * k1a + a8_4 * k4a + a8_5 * k5a + a8_6 * k6a + a8_7 * k7a)
        z_ = z + hh * (a8_1 * k1b + a8_4 * k4b + a8_5 * k5b + a8_6 * k6b + a8_7 * k7b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k8a, k8b, k8c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a9_1 * k1a + a9_4 * k4a + a9_5 * k5a + a9_6 * k6a + a9_7 * k7a
                        + a9_8 * k8a)
        z_ = z + hh * (a9_1 * k1b + a9_4 * k4b + a9_5 * k5b + a9_6 * k6b + a9_7 * k7b + a9_8 * k8b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k9a, k9b, k9c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a10_1 * k1a + a10_4 * k4a + a10_5 * k5a + a10_6 * k6a + a10_7 * k7a
                        + a10_8 * k8a + a10_9 * k9a)
        z_ = z + hh * (a10_1 * k1b + a10_4 * k4b + a10_5 * k5b + a10_6 * k6b + a10_7 * k7b
                       + a10_8 * k8b + a10_9 * k9b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k10a, k10b, k10c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a11_1 * k1a + a11_4 * k4a + a11_5 * k5a + a11_6 * k6a + a11_7 * k7a
                        + a11_8 * k8a + a11_9 * k9a + a11_10 * k10a)
        z_ = z + hh * (a11_1 * k1b + a11_4 * k4b + a11_5 * k5b + a11_6 * k6b + a11_7 * k7b
                       + a11_8 * k8b + a11_9 * k9b + a11_10 * k10b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k11a, k11b, k11c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        t_ = th + hh * (a12_1 * k1a + a12_4 * k4a + a12_5 * k5a + a12_6 * k6a + a12_7 * k7a
                        + a12_8 * k8a + a12_9 * k9a + a12_10 * k10a + a12_11 * k11a)
        z_ = z + hh * (a12_1 * k1b + a12_4 * k4b + a12_5 * k5b + a12_6 * k6b + a12_7 * k7b
                       + a12_8 * k8b + a12_9 * k9b + a12_10 * k10b + a12_11 * k11b)
        s, c = sin(0.5 * t_), cos(t_)
        zm, zp = (z_ - 1.0) + 2.0 * s * s, z_ + c
        q = zm * zp / (z_ * z_) if z_ >= z_min else 0.0
        k12a, k12b, k12c = sqrt(q) if q > 0.0 else 0.0, sin(t_), c
        th1 = th + hh * (b1 * k1a + b6 * k6a + b7 * k7a + b8 * k8a + b9 * k9a + b10 * k10a
                         + b11 * k11a + b12 * k12a)
        z1 = z + hh * (b1 * k1b + b6 * k6b + b7 * k7b + b8 * k8b + b9 * k9b + b10 * k10b
                       + b11 * k11b + b12 * k12b)
        x1 = x + hh * (b1 * k1c + b6 * k6c + b7 * k7c + b8 * k8c + b9 * k9c + b10 * k10c
                       + b11 * k11c + b12 * k12c)
        s, c = sin(0.5 * th1), cos(th1)
        zm, zp = (z1 - 1.0) + 2.0 * s * s, z1 + c
        q = zm * zp / (z1 * z1) if z1 >= z_min else 0.0
        k13a, k13b, k13c = sqrt(q) if q > 0.0 else 0.0, sin(th1), c

        ath1, az1, ax1 = abs(th1), abs(z1), abs(x1)
        sk = abs_tol + rel_tol * (ath1 if ath1 > ath else ath)
        e = (e1 * k1a + e6 * k6a + e7 * k7a + e8 * k8a + e9 * k9a + e10 * k10a + e11 * k11a
             + e12 * k12a) / sk
        d = (d1 * k1a + d6 * k6a + d7 * k7a + d8 * k8a + d9 * k9a + d10 * k10a + d11 * k11a
             + d12 * k12a) / sk
        n5, n3 = e * e, d * d
        sk = abs_tol + rel_tol * (az1 if az1 > az else az)
        e = (e1 * k1b + e6 * k6b + e7 * k7b + e8 * k8b + e9 * k9b + e10 * k10b + e11 * k11b
             + e12 * k12b) / sk
        d = (d1 * k1b + d6 * k6b + d7 * k7b + d8 * k8b + d9 * k9b + d10 * k10b + d11 * k11b
             + d12 * k12b) / sk
        n5, n3 = n5 + e * e, n3 + d * d
        sk = abs_tol + rel_tol * (ax1 if ax1 > ax else ax)
        e = (e1 * k1c + e6 * k6c + e7 * k7c + e8 * k8c + e9 * k9c + e10 * k10c + e11 * k11c
             + e12 * k12c) / sk
        d = (d1 * k1c + d6 * k6c + d7 * k7c + d8 * k8c + d9 * k9c + d10 * k10c + d11 * k11c
             + d12 * k12c) / sk
        n5, n3 = n5 + e * e, n3 + d * d
        den = n5 + 0.01 * n3
        norm = h * n5 / sqrt(3.0 * den) if den != 0.0 else 0.0

        if not norm <= 1.0:  # too large, or NaN
            fac = _FAC_MIN if norm != norm else max(_FAC_MIN, _SAFE * norm ** _ORDER_EXP)
            h_new = h * fac
            if h_new < min_step:
                if domain_gap(th, z) < 10.0 * boundary_eps:
                    stop = _contact_stop(sig_nodes, nodes)
                    break
                raise StepUnderflowError(
                    f"step underflow at sigma={sig} away from the boundary")
            h = h_new
            rejected += 1
            last_rejected = True
            continue

        k = (k1a, k1b, k1c, k2a, k2b, k2c, k3a, k3b, k3c, k4a, k4b, k4c, k5a, k5b, k5c,
             k6a, k6b, k6c, k7a, k7b, k7c, k8a, k8b, k8c, k9a, k9b, k9c, k10a, k10b, k10c,
             k11a, k11b, k11c, k12a, k12b, k12c, k13a, k13b, k13c)

        # Event scan: boundary contact and theta-target crossings.  The
        # dense output (terms per component) is built only for a step that
        # brackets an event.
        u_event = None
        ev = None
        terms = None
        # domain_gap(th1, z1) is min(zm, zp) of the FSAL stage
        if (zp if zp < zm else zm) - boundary_eps < 0.0:
            terms = _step_terms((th, z, x), hh, k)
            a, b = 0.0, 1.0
            for _ in range(80):
                m = 0.5 * (a + b)
                if domain_gap(_dense(th, terms[0], m), _dense(z, terms[1], m)) - boundary_eps < 0.0:
                    if m == b:
                        break  # a fixed point: no later iteration moves (a, b)
                    b = m
                else:
                    if m == a:
                        break
                    a = m
            u_event, ev = b, ("boundary", None)
        for tgt in targets:
            g0 = th - tgt
            g1 = th1 - tgt
            if g0 == 0.0:
                continue  # crossing at a node belongs to the previous step
            if g0 * g1 < 0.0 or g1 == 0.0:
                terms = terms or _step_terms((th, z, x), hh, k)
                a, b = 0.0, 1.0
                for _ in range(60):
                    m = 0.5 * (a + b)
                    if (_dense(th, terms[0], m) - tgt) * g0 > 0.0:
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
            y_c = (_dense(th, terms[0], u_event), _dense(z, terms[1], u_event),
                   _dense(x, terms[2], u_event))
            # keep the full-step interpolant but restrict its valid span
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
        k1a, k1b, k1c = k13a, k13b, k13c
        if len(hs) == MAX_STEPS:
            raise StepLimitError(f"more than {MAX_STEPS} steps, at sigma={sig}")
        if norm == 0.0:
            fac = _FAC_MAX  # the limit of the expression below as norm -> 0
        else:
            # min(FAC_MAX, max(FAC_MIN, f)), then min(fac, 1.0) and min(h * fac, max_step)
            fac = _SAFE * norm ** _ORDER_EXP
            if not fac > _FAC_MIN:
                fac = _FAC_MIN
            if not fac < _FAC_MAX:
                fac = _FAC_MAX
        if last_rejected and 1.0 < fac:
            fac = 1.0
        last_rejected = False
        # zm and zp are the FSAL stage's, the new start's, and k13a, k13b
        # its theta' and sin(theta)
        if zm < zp:
            rate, g = sgn * k13b * (1.0 + k13a), zm
        else:
            rate, g = sgn * k13b * (1.0 - k13a), zp
        s_end = g / -rate if rate < 0.0 else math.inf
        if h > _CONTACT_LIMITED * s_start and s_end < math.inf:
            fac *= _CONTACT_HOLD * s_end / s_start
        s_start = s_end
        h *= fac
        if max_step < h:
            h = max_step

    return sig_nodes, nodes, hs, stages, stop, rejected


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


def _finalized(sig_nodes, nodes, hs, stages, stop, rejected, direction, start_info):
    """Convert internal-time data into an ascending-t Trajectory."""
    sgn = 1.0 if direction > 0 else -1.0
    sig = _packed(sig_nodes)
    ys = _packed(nodes).reshape(-1, 3)
    h = _packed(hs)
    ts = sgn * sig
    table = {
        "a": sgn / h,  # u = (sigma - sig0)/h with sigma = sgn * t
        "b": -sig[:-1] / h,
        "h": sgn * h,  # the loop's signed step hh
        "y0": ys[:-1],
        "stages": _packed(stages).reshape(-1, 13, 3),  # unsigned, as the loop's
        "scale": np.ones((len(h), 3)),
        "offset": np.zeros((len(h), 3)),
        "step": np.arange(len(h)),
    }
    terms = _StepTerms(table)
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
    return Trajectory(ts, ys, table, left, right, terms, rejected)


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
    accepted here).  Two moved copies of one integration (with_mirror) keep
    its store of built terms and its count of rejected steps; otherwise the
    rows are numbered as their own steps in a fresh store, and the counts
    add.
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
    terms, rejected = a.terms, a.rejected
    if b.terms is not terms:
        table["step"] = np.arange(len(table["h"]))
        terms, rejected = _StepTerms(table), a.rejected + b.rejected
    return Trajectory(ts, ys, table, a.left_info, b.right_info, terms, rejected)


def with_mirror(half: Trajectory) -> Trajectory:
    """A trajectory followed by its mirror about theta = pi (see reflect)."""
    return concat(half, reflect(half, 1))
