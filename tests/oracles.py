"""Independent reference computations for the test suite.

Everything in this module is deliberately primitive: a fixed-step classical
RK4 march plus plain bisection, written before (and kept independent of) the
package's adaptive integrator.  Reference values frozen into the tests were
produced by `python tests/oracles.py`; rerunning prints the table so drift
can be audited.  This module must never import from the package under test.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)

# Limit of sin^2(theta)/(z - cos(theta))^(3/2) at the degenerate corner.
R4_LIMIT = 4.0 * SQRT2 / 3.0

# Recorded output of lambda0_bisection(tol=1e-10) at h in {2e-3, 1e-3, 5e-4}:
# all three agree to 1e-10; the series launch oracle gives ...3976.
LAMBDA0_REF = 3.2136243987


def rhs(theta, z, sign=1.0):
    c = math.cos(theta)
    q = 1.0 - (c * c) / (z * z)
    dtheta = math.sqrt(q) if q > 0.0 else 0.0
    return sign * dtheta, sign * math.sin(theta)


def first_integral(theta, z):
    """F = z^2 (theta' + cos(theta)/z) exp(arcsin(cos(theta)/z)), constant along the flow.

    Put sin(phi) = cos(theta)/z, so that cos(phi) = theta'.  Then
    dz/z = -cos(phi) dphi / (sin(phi) + cos(phi)) along the field, and
    z^2 (sin(phi) + cos(phi)) e^phi is constant.  The sphere (pi, sqrt(2))
    has level 0, the corner (0, 1) e^(pi/2).
    """
    c = math.cos(theta) / z
    q = 1.0 - c * c
    return z * z * ((math.sqrt(q) if q > 0.0 else 0.0) + c) * math.exp(math.asin(c))


def rk4_step(theta, z, h, sign=1.0):
    k1t, k1z = rhs(theta, z, sign)
    k2t, k2z = rhs(theta + 0.5 * h * k1t, z + 0.5 * h * k1z, sign)
    k3t, k3z = rhs(theta + 0.5 * h * k2t, z + 0.5 * h * k2z, sign)
    k4t, k4z = rhs(theta + h * k3t, z + h * k3z, sign)
    theta += h * (k1t + 2.0 * k2t + 2.0 * k3t + k4t) / 6.0
    z += h * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
    return theta, z


def crosses_axis(lam, h=1e-3, t_max=60.0):
    """Backward march from (pi, lam): True iff theta reaches 0 inside the domain.

    Leaving the domain (z <= |cos theta|) before the crossing means the
    trajectory dies on the boundary instead.
    """
    theta, z = math.pi, lam
    for _ in range(int(t_max / h)):
        theta_prev, z_prev = theta, z
        theta, z = rk4_step(theta, z, h, sign=-1.0)
        if z <= abs(math.cos(theta)):
            return False
        if theta <= 0.0:
            # Linear interpolation of z at the crossing.
            frac = theta_prev / (theta_prev - theta)
            return z_prev + frac * (z - z_prev) > 1.0
    raise RuntimeError("no decision reached within t_max")


def lambda0_bisection(tol=1e-10, h=1e-3):
    """Critical shooting height via bracket doubling from sqrt(2) plus bisection."""
    lo = SQRT2
    hi = 2.0
    while not crosses_axis(hi, h=h):
        hi *= 2.0
        if hi > 65536.0:
            raise RuntimeError("no crossing found while doubling")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if crosses_axis(mid, h=h):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# Series for the trajectory leaving the corner (0, 1), s = arc length from
# the corner.  Leading coefficients 1/18 and 1/72 follow from the limits
# theta'' -> 0, theta''' -> 1/3; the higher ones come from matching the
# constraint theta'^2 + cos^2(theta)/z^2 = 1 order by order.
A3, A5, A7 = 1.0 / 18.0, 1.0 / 432.0, -17.0 / 77760.0
B4, B6, B8 = 1.0 / 72.0, 1.0 / 2592.0, -17.0 / 622080.0


def corner_series(s):
    s2 = s * s
    theta = s * s2 * (A3 + s2 * (A5 + s2 * A7))
    z = 1.0 + s2 * s2 * (B4 + s2 * (B6 + s2 * B8))
    return theta, z


def corner_series_leading(s):
    return s ** 3 / 18.0, 1.0 + s ** 4 / 72.0


def series_residual(s, leading_only=False):
    """Constraint residual theta'^2 + cos^2(theta)/z^2 - 1 of the series."""
    s2 = s * s
    if leading_only:
        theta, z = corner_series_leading(s)
        dtheta = s2 / 6.0
    else:
        theta, z = corner_series(s)
        dtheta = s2 * (3.0 * A3 + s2 * (5.0 * A5 + s2 * 7.0 * A7))
    c = math.cos(theta)
    return dtheta * dtheta + (c * c) / (z * z) - 1.0


def launch(s0=1e-3, h=1e-4, record_at=()):
    """Forward RK4 march from the corner series seed until theta reaches pi.

    Returns (terminal z, states) where states maps each requested theta in
    `record_at` to the first (t, theta, z) sample at or beyond it.
    """
    theta, z = corner_series(s0)
    t = 0.0
    pending = sorted(record_at)
    states = {}
    while theta < math.pi:
        theta_prev, z_prev, t_prev = theta, z, t
        theta, z = rk4_step(theta, z, h, sign=1.0)
        t += h
        while pending and theta >= pending[0]:
            tgt = pending.pop(0)
            frac = (tgt - theta_prev) / (theta - theta_prev)
            states[tgt] = (t_prev + frac * h, tgt, z_prev + frac * (z - z_prev))
    frac = (math.pi - theta_prev) / (theta - theta_prev)
    z_pi = z_prev + frac * (z - z_prev)
    return z_pi, states


def theta_third_fd(theta_c, s0=1e-3, h=1e-4):
    """Centered third difference of theta(t) around the state with theta=theta_c."""
    # March and keep a window of samples around the target crossing.
    k = 400  # wide stencil: truncation O(k^2 h^2), roundoff eps/(k h)^3
    theta, z = corner_series(s0)
    hist = [theta]
    idx_hit = None
    n = 0
    while theta < math.pi:
        theta, z = rk4_step(theta, z, h, sign=1.0)
        hist.append(theta)
        n += 1
        if idx_hit is None and theta >= theta_c:
            idx_hit = n
        if idx_hit is not None and n >= idx_hit + 2 * k:
            break
    i = idx_hit
    if i < 3 * k:
        raise RuntimeError("crossing too close to the seed for the stencil")
    f = lambda j: hist[i + j]
    return (f(2 * k) - 2.0 * f(k) + 2.0 * f(-k) - f(-2 * k)) / (2.0 * (k * h) ** 3)


def r4_at(theta, z):
    return math.sin(theta) ** 2 / (z - math.cos(theta)) ** 1.5


def march_in_angle(lam, n=40_000):
    """Fixed-step RK4 march of the angle-parametrized form, theta: pi -> 0.

    Uses dz/dtheta = sin(theta) z / sqrt(z^2 - cos^2 theta) and the matching
    quadratures dt/dtheta, dx/dtheta: a different ODE form and discretization
    than the package integrator, valid for heights above the critical one
    (the slope never vanishes then).  Returns (t0, z_cross, x_at_minus_t0,
    theta-grid, x-grid) with t measured from (pi, lam), so t0 > 0 is the
    time of the theta = 0 crossing of the backward half.
    """

    def rhs(theta, y):
        z = y[0]
        dth = math.sqrt(max(z * z - math.cos(theta) ** 2, 0.0)) / z
        return (math.sin(theta) / dth, 1.0 / dth, math.cos(theta) / dth)

    h = -math.pi / n  # theta runs downhill
    theta = math.pi
    y = (lam, 0.0, 0.0)  # z, tau = -t, x
    thetas = [theta]
    xs = [0.0]
    for _ in range(n):
        k1 = rhs(theta, y)
        k2 = rhs(theta + 0.5 * h, tuple(y[i] + 0.5 * h * k1[i] for i in range(3)))
        k3 = rhs(theta + 0.5 * h, tuple(y[i] + 0.5 * h * k2[i] for i in range(3)))
        k4 = rhs(theta + h, tuple(y[i] + h * k3[i] for i in range(3)))
        y = tuple(y[i] + h * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6.0
                  for i in range(3))
        theta += h
        thetas.append(theta)
        xs.append(y[2])
    z_cross, tau_end, x_end = y
    return -tau_end, z_cross, x_end, thetas, xs


def intersection_in_angle(lam, n=40_000):
    """(t2, z at t2): the x = 0 crossing of the backward half, via the
    angle march.  x starts at 0, rises while theta > pi/2, and returns to 0
    at some angle below pi/2."""

    def rhs(theta, y):
        z = y[0]
        dth = math.sqrt(max(z * z - math.cos(theta) ** 2, 0.0)) / z
        return (math.sin(theta) / dth, 1.0 / dth, math.cos(theta) / dth)

    h = -math.pi / n
    theta = math.pi
    y = (lam, 0.0, 0.0)
    prev = None
    for _ in range(n):
        k1 = rhs(theta, y)
        k2 = rhs(theta + 0.5 * h, tuple(y[i] + 0.5 * h * k1[i] for i in range(3)))
        k3 = rhs(theta + 0.5 * h, tuple(y[i] + 0.5 * h * k2[i] for i in range(3)))
        k4 = rhs(theta + h, tuple(y[i] + h * k3[i] for i in range(3)))
        y_new = tuple(y[i] + h * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) / 6.0
                      for i in range(3))
        theta += h
        if theta < 0.5 * math.pi and prev is not None and prev[2] > 0.0 >= y_new[2]:
            frac = prev[2] / (prev[2] - y_new[2])
            t_cross = prev[1] + frac * (y_new[1] - prev[1])  # negative
            z2 = prev[0] + frac * (y_new[0] - prev[0])
            return -t_cross, z2
        prev = y_new
        y = y_new
    raise RuntimeError("no x = 0 crossing found below pi/2")


def sphere_max_error(h=1e-4):
    """Backward march from (pi, sqrt(2)) compared against the closed form."""
    theta, z = math.pi, SQRT2
    t = 0.0
    err = 0.0
    while z > abs(math.cos(theta)) + 1e-6:
        theta, z = rk4_step(theta, z, h, sign=-1.0)
        t -= h
        err = max(err, abs(theta - (math.pi + t / SQRT2)),
                  abs(z - SQRT2 * math.cos(t / SQRT2)))
    return err, t


def main():
    print("series residual scaling (leading-order seed):")
    for s in (0.2, 0.1, 0.05):
        r = series_residual(s, leading_only=True)
        print(f"  s={s:5.3f}  residual={r: .6e}  residual/s^6={r / s ** 6: .6f}")
    print("series residual scaling (refined seed):")
    for s in (0.4, 0.2, 0.1):
        r = series_residual(s)
        print(f"  s={s:5.3f}  residual={r: .6e}  residual/s^10={r / s ** 10: .6f}")

    err, t_end = sphere_max_error()
    print(f"sphere closed-form max error (h=1e-4): {err:.3e}, span reached {t_end:.6f}")

    for h in (2e-3, 1e-3, 5e-4):
        lam0 = lambda0_bisection(tol=1e-10, h=h)
        print(f"lambda0 bisection (h={h:g}): {lam0:.10f}")

    z_pi, states = launch(s0=1e-3, h=1e-4, record_at=(1e-3, 1e-2))
    print(f"lambda0 from series launch (s0=1e-3, h=1e-4): {z_pi:.10f}")
    for tgt, (t, th, z) in sorted(states.items()):
        r4 = r4_at(th, z)
        print(f"  at theta={tgt:g}: z={z:.12f}  r4={r4:.6f} "
              f"(dev {abs(r4 / R4_LIMIT - 1.0) * 100:.3f}%)")
    for tgt in (1e-2, 1e-3):
        d3 = theta_third_fd(tgt)
        print(f"  theta''' near theta={tgt:g}: {d3:.6f} "
              f"(dev {abs(3.0 * d3 - 1.0) * 100:.3f}%)")


if __name__ == "__main__":
    main()
