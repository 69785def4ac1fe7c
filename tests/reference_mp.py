"""High-precision references for the integrator, from mpmath's Taylor method.

Like tests/oracles.py, this module imports no module of the package: its
values judge the package's integrator, so they must not come from it.
mpmath.odefun integrates by Taylor series of high degree at a working
precision of `dps` digits, so the values here are good to about 20 digits
at dps = 30 (two precisions are compared when the table is made).

Three computations:

- the separatrix, launched from the corner series at arc length s0 and
  integrated in t up to theta = pi: lambda0 is its z there, s* its arc
  length from the corner, and its x extent its x, also from the corner;
  and its state at s = SEED_S, the package's series seed.
  The state is (theta, u = z - 1, x), so that z - cos(theta) =
  u + 2 sin^2(theta/2) keeps its digits near the corner;
- a backward trajectory from (pi, lam), on the regular system in a time tau
  with dt = w dtau, where w = theta' = sqrt(1 - cos^2(theta)/z^2):

      theta' = w^2,  z' = w sin(theta),
      w' = sin(theta)/z + w sin(theta) cos(theta)/z^2 - w^2 sin(theta)/z,

  with theta', z' and w' negated to run t backward, t' = -w and
  x' = -w cos(theta).  Its right-hand side has no square root, so a
  boundary contact is the plain root w = 0 and a crossing of theta = 0 the
  root theta = 0;
- the records are in the package's conventions: t = 0 and x = 0 at the
  start (pi, lam), so a backward end has t < 0.

Run as a script, `python tests/reference_mp.py` prints the table that
tests/test_reference.py freezes (a few minutes).
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

# Corner series of the separatrix, s = arc length from the corner (0, 1):
# theta = s^3 (a3 + s^2 (a5 + s^2 a7)), z - 1 = s^4 (b4 + s^2 (b6 + s^2 b8)),
# x = s - s^7/4536, from theta'^2 + cos^2/z^2 = 1 order by order.
SERIES_A = ("1/18", "1/432", "-17/77760")
SERIES_B = ("1/72", "1/2592", "-17/622080")
SERIES_X7 = "-1/4536"
S0 = "3e-4"


def _frac(text):
    num, _, den = text.partition("/")
    return mpf(num) / mpf(den or 1)


def _series(s):
    a3, a5, a7 = map(_frac, SERIES_A)
    b4, b6, b8 = map(_frac, SERIES_B)
    s2 = s * s
    return (s * s2 * (a3 + s2 * (a5 + s2 * a7)), s2 * s2 * (b4 + s2 * (b6 + s2 * b8)),
            s * (1 + s2 * s2 * s2 * _frac(SERIES_X7)))


def _root(f, x0, x1):
    """A root of f by the secant method from x0, x1, to working precision."""
    return mpmath.findroot(f, (x0, x1), solver="secant", tol=mpf(10) ** (-2 * mp.dps + 4),
                           maxsteps=200)


def _first_sign_change(f, a, step):
    """(b - step, b): the first bracket from a of width step where f changes sign."""
    fa = f(a)
    while True:
        b = a + step
        fb = f(b)
        if fa * fb <= 0:
            return a, b
        a, fa = b, fb


def _separatrix_solution(s0: str):
    """The separatrix (theta, u, x) as a function of s, launched at s0 (working precision)."""
    s0 = mpf(s0)
    theta0, u0, x0 = _series(s0)

    def field(s, y):
        theta, u, _ = y
        h = mpmath.sin(theta / 2)
        zm = u + 2 * h * h  # z - cos(theta)
        zp = 2 + u - 2 * h * h  # z + cos(theta)
        z = 1 + u
        return [mpmath.sqrt(zm * zp) / z, mpmath.sin(theta), mpmath.cos(theta)]

    return mpmath.odefun(field, s0, [theta0, u0, x0])


def separatrix_state(s: str, dps: int = 30, s0: str = S0) -> dict:
    """The separatrix's theta, u = z - 1 and x at arc length s from the corner, at dps digits."""
    with mp.workdps(dps):
        theta, u, x = _separatrix_solution(s0)(mpf(s))
        return {"theta": theta, "u": u, "x": x}


def separatrix(dps: int = 30, s0: str = S0) -> dict:
    """lambda0, s* and the x extent of the separatrix, at dps digits."""
    with mp.workdps(dps):
        sol = _separatrix_solution(s0)
        lo, hi = _first_sign_change(lambda s: sol(s)[0] - mp.pi, mpf(4), mpf("0.25"))
        s_star = _root(lambda s: sol(s)[0] - mp.pi, lo, hi)
        _, u, x = sol(s_star)
        return {"lambda0": 1 + u, "s_star": s_star, "x_extent": x}


def backward_end(lam: float, dps: int = 30) -> dict:
    """How the backward trajectory from (pi, lam) ends, at dps digits.

    kind is "boundary_contact" (then theta and z are the limit point) or
    "theta_crossing" (theta = 0; then z and x are the crossing state);
    t_star is the end's time, negative.
    """
    with mp.workdps(dps):
        lam = mpf(lam)  # the float's exact value

        def field(tau, y):
            theta, z, w, _, _ = y
            s, c = mpmath.sin(theta), mpmath.cos(theta)
            return [-w * w, -w * s, -(s / z + w * s * c / (z * z) - w * w * s / z), -w, -w * c]

        w0 = mpmath.sqrt(1 - 1 / (lam * lam))  # cos(pi)^2 = 1
        sol = mpmath.odefun(field, 0, [mp.pi, lam, w0, mpf(0), mpf(0)])
        # the first of w = 0 and theta = 0 along tau
        lo, hi = _first_sign_change(lambda tau: min(sol(tau)[0], sol(tau)[2]), mpf(0),
                                    mpf("0.125"))
        theta, _, w, _, _ = sol(hi)
        index, kind = (2, "boundary_contact") if w <= theta else (0, "theta_crossing")
        tau = _root(lambda tau: sol(tau)[index], lo, hi)
        theta, z, _, t, x = sol(tau)
        return {"kind": kind, "t_star": t, "theta": theta, "z": z, "x": x}


# The heights of the table: contacts and crossings either side of lambda0.
# 3.2136243987 is the paper's lambda0 to 11 digits, 3.213624398649711 the
# double nearest lambda0.
HEIGHTS = (1.05, 1.2, 1.45, 1.8, 2.0, 2.5, 3.0, 3.2036, 4.0, 6.0, 3.2136243987 + 1e-6,
           3.2136243987 - 1e-6, 3.213624398649711 - 1e-8, 3.213624398649711 - 1e-10)
# The arc length of the package's series seed, where its state is compared.
SEED_S = "0.05"


def table(dps: int = 30) -> dict:
    """Every reference row at dps digits, keyed by name."""
    rows = {"separatrix": separatrix(dps),
            f"separatrix at s = {SEED_S}": separatrix_state(SEED_S, dps)}
    for lam in HEIGHTS:
        rows[repr(lam)] = backward_end(lam, dps)
    return rows


def _main() -> None:
    import time

    rows, check = {}, {}
    for dps, out in ((30, rows), (36, check)):
        start = time.perf_counter()
        out.update(table(dps))
        print(f"# dps {dps}: {time.perf_counter() - start:.1f} s")
    for name, row in rows.items():
        print(name)
        for key, value in row.items():
            if key == "kind":
                print(f"    {key} = {value}")
                continue
            with mp.workdps(30):
                agree = abs(value - check[name][key])
                print(f"    {key} = {mpmath.nstr(value, 22)}  "
                      f"(dps 30 vs 36: {mpmath.nstr(agree, 2)})")


if __name__ == "__main__":
    _main()
