"""The integrator against independent 20-digit references.

The table is tests/reference_mp.py's output (mpmath's Taylor method at 30
digits, which agreed with 36 digits to 1e-26 or better), frozen here to 20
significant digits; that module imports no package module.  Errors are
taken in exact decimal arithmetic on the float's exact value, so the tests
need no mpmath; one slow test recomputes a row with it.

The bounds are the errors measured at the default config (MEASURED), with
a margin of up to 2, and never above 1.25 times the error of the DP5
integrator this one replaced (DP5).  Contact records are good to about
6e-13: the loop stops at the node about CONTACT_STOP (1e-2) short of the
contact, the limit point is the first integral's closed form (within
1.1e-15 away from lambda0), and t_star adds a Gauss-Legendre quadrature in
phi from that node, exact to rounding, so what is left is the node's own
error in t.  The step control at a closing contact holds h/s, the step
over the distance to the contact, so the steps close in on it.  The rows
near lambda0 carry the passage by the corner in t_star, a crossing's x
too: about 1e-10 at 1e-6 from it, 1.5e-9 at 1e-8 and 8.5e-8 at 1e-10
(the rows below the double nearest lambda0, 3.213624398649711).  The separatrix is launched
from the corner series at s0 = SERIES_S0 = 0.05, where the series is the
separatrix to within 1e-16 in each of theta, z and x (SEED, the same
Taylor run's state there) and z - 1 = 8.7e-8 keeps about 9 digits in a
float, so the launch's s* and x extent are good to 5.3e-12.  A seed at
s0 = 1e-3 held z - 1 = 1.4e-14 to two digits, and left them good only to
4.1e-7.  The terminal z, lambda0, is insensitive to the seed.
"""

import ast
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import rotsurf as rs
from oracles import first_integral
from rotsurf.integrate import SERIES_S0, corner_series

LAMBDA0 = "3.2136243986497109426"
S_STAR = "4.8242320820087434339"
X_EXTENT = "1.5580910836203020763"
# the separatrix's (theta, z - 1, x) at arc length 0.05 from the corner
SEED = ("6.9451676532013929545e-6", "8.6811582650995782859e-8", "0.049999999999827738851")

# height -> (kind, t_star, theta, z, x): a contact's theta and z are its
# limit point, a crossing's theta is 0; x is measured from (pi, lambda).
# 3.2136243987 is the paper's lambda0 to 11 digits, 3.213624398649711 the
# double nearest lambda0.
ENDS = {
    1.05: ("boundary_contact", "-0.67692259340072523045", "2.976869176268735894",
           "0.9864637371272200054", "0.67308440081104757271"),
    1.2: ("boundary_contact", "-1.1732185422234626898", "2.5903520415699395818",
          "0.8518754140990982064", "1.1033808400538000272"),
    1.45: ("boundary_contact", "-2.1466802644905839354", "1.4867857291332861442",
           "0.083911811135468726704", "1.3449120896148037994"),
    1.8: ("boundary_contact", "-2.159635128524985541", "1.2438850333274242999",
          "0.32111944017294775692", "1.0868959430107093964"),
    2.0: ("boundary_contact", "-2.2428452491049400265", "1.1322617093752665326",
          "0.42461320089400664799", "0.98964417314730534156"),
    2.5: ("boundary_contact", "-2.543356083403271081", "0.84082361447952131914",
          "0.66684930067133733357", "0.71649753413417779651"),
    3.0: ("boundary_contact", "-3.0603640629929353837", "0.44879448117220107525",
          "0.90097080706764311963", "0.22076875562534793478"),
    3.2036: ("boundary_contact", "-3.799035770556201581", "0.09635273318662878179",
             "0.99536166553655803635", "-0.53080686932453302118"),
    4.0: ("theta_crossing", "-3.2746389714195283078", "0", "1.9485491098064196453",
          "-0.069824918720168420383"),
    6.0: ("theta_crossing", "-3.1771629633042800692", "0", "3.9852797560349609062",
          "-0.010804285668717942891"),
    3.2136243987 + 1e-6: ("theta_crossing", "-4.6310254602627060736", "0",
                          "1.0000625657349551965", "-1.364884835155049521"),
    3.2136243987 - 1e-6: ("boundary_contact", "-4.6013671152382339949",
                          "0.00096191831777847808547", "0.99999953735661063427",
                          "-1.3352257494967570442"),
    3.213624398649711 - 1e-8: ("boundary_contact", "-4.7207018530804164035",
                               "0.000096194246730384947405", "0.99999999537333345155",
                               "-1.4545608507815456417"),
    3.213624398649711 - 1e-10: ("boundary_contact", "-4.7761689040140705947",
                                "0.0000096194302754390668816", "0.99999999995373328059",
                                "-1.5100279055854249695"),
}

# the largest error of each row at the default config: contacts over
# (t_star, theta, z), crossings over (t_star, z, x), measured on this
# integrator (DOP853) and on the DP5 integrator it replaced
MEASURED = {
    1.05: 5.73e-13, 1.2: 5.59e-13, 1.45: 6.44e-13, 1.8: 2.50e-13, 2.0: 2.39e-13,
    2.5: 1.46e-13, 3.0: 8.69e-14, 3.2036: 8.96e-14, 4.0: 5.28e-15, 6.0: 1.65e-15,
    3.2136243987 + 1e-6: 9.49e-11, 3.2136243987 - 1e-6: 6.84e-11,
    3.213624398649711 - 1e-8: 1.53e-9, 3.213624398649711 - 1e-10: 8.46e-8,
}
DP5 = {
    1.05: 1.59e-10, 1.2: 7.53e-11, 1.45: 2.62e-11, 1.8: 7.46e-11, 2.0: 5.10e-11,
    2.5: 8.13e-12, 3.0: 2.52e-11, 3.2036: 4.49e-12, 4.0: 1.60e-13, 6.0: 5.25e-13,
    3.2136243987 + 1e-6: 3.67e-9, 3.2136243987 - 1e-6: 4.12e-9,
    3.213624398649711 - 1e-8: 1.94e-7, 3.213624398649711 - 1e-10: 9.09e-6,
}
BOUND = {
    1.05: 1.1e-12, 1.2: 1.1e-12, 1.45: 1.2e-12, 1.8: 4.8e-13, 2.0: 4.5e-13, 2.5: 2.8e-13,
    3.0: 1.7e-13, 3.2036: 1.6e-13, 4.0: 8e-15, 6.0: 2.5e-15,
    3.2136243987 + 1e-6: 1.3e-10, 3.2136243987 - 1e-6: 1e-10,
    3.213624398649711 - 1e-8: 3e-9, 3.213624398649711 - 1e-10: 1.6e-7,
}


# the largest |F - F(lambda)| / |F(lambda)| of the first integral over 2,001
# dense samples of full_curve(lambda), measured at the default config; the
# level of 1.45 is small (0.034), so its relative drift is large
DRIFT = {
    1.05: 2.1e-12, 1.2: 4.0e-12, 1.45: 8.0e-11, 1.8: 3.7e-12, 2.0: 3.1e-12, 2.5: 6.8e-13,
    3.0: 2.0e-13, 3.2036: 2.0e-13, 4.0: 2.2e-14, 6.0: 3.0e-15,
    3.2136243987 + 1e-6: 5.5e-14, 3.2136243987 - 1e-6: 5.5e-14,
    3.213624398649711 - 1e-8: 5.6e-14, 3.213624398649711 - 1e-10: 5.6e-14,
}


def error(value: float, ref: str) -> float:
    """|value - ref|, with value's exact decimal expansion."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs(Decimal(value) - Decimal(ref)))


def end_errors(lam: float, cfg) -> tuple[float, ...]:
    rs.backward_trajectory.cache_clear()
    tr = rs.backward_trajectory(lam, cfg)
    kind, t_star, theta, z, x = ENDS[lam]
    stop = tr.termination
    assert stop.kind == kind
    if kind == "boundary_contact":
        got, want = (stop.t_star, *stop.limit_point), (t_star, theta, z)
    else:
        got, want = (stop.t_star, tr.zs[0].item(), tr.xs[0].item()), (t_star, z, x)
    return tuple(error(g, w) for g, w in zip(got, want))


def test_bounds_hold_the_measured_errors():
    # each bound clears its measured error, and no row may be worse than
    # 1.25 times DP5's error
    assert sorted(MEASURED) == sorted(DP5) == sorted(BOUND) == sorted(ENDS)
    for lam in ENDS:
        assert MEASURED[lam] < BOUND[lam] <= min(2 * MEASURED[lam], 1.25 * DP5[lam]), lam


@pytest.mark.parametrize("lam", sorted(ENDS))
def test_end_records(cfg, lam):
    assert max(end_errors(lam, cfg)) <= BOUND[lam]


def test_contact_limit_points(cfg):
    # the first integral's closed form, on the contact rows away from
    # lambda0: measured 4.3e-17 to 1.9e-16, and 1.06e-15 (theta at 3.2036)
    rows = [lam for lam, row in ENDS.items()
            if row[0] == "boundary_contact" and abs(lam - 3.2136) > 1e-3]
    assert len(rows) == 8
    for lam in rows:
        assert max(end_errors(lam, cfg)[1:]) <= 2e-15, lam


@pytest.mark.parametrize("lam", sorted(ENDS))
def test_first_integral_drift(cfg, lam):
    # the oracle's F along the whole curve stays at its start's level, within
    # twice the drift measured
    assert sorted(DRIFT) == sorted(ENDS)
    tr = rs.full_curve(lam, cfg)
    level = first_integral(np.pi, lam)
    states = tr.states_at(np.linspace(*tr.t_span, 2001)).tolist()
    drift = max(abs(first_integral(theta, z) - level) for theta, z, _ in states)
    assert drift <= 2 * DRIFT[lam] * abs(level)


def test_lambda0_closed_form():
    # Newton on F(pi, lambda) = e^(pi/2) reaches the double nearest lambda0,
    # and the oracle's F is the corner level there within 2 ulps
    value = rs.lambda0_closed_form()
    assert value == 3.213624398649711
    assert error(value, LAMBDA0) <= 0.5 * math.ulp(value)
    corner = math.exp(math.pi / 2)
    assert abs(first_integral(math.pi, value) - corner) <= 2 * math.ulp(corner)


@pytest.mark.parametrize("factor, bound", [(1.0, 1e-14), (100.0, 5e-15)])
def test_lambda0_by_launch_and_bisection(factor, bound):
    # measured: 1.2e-15 (launch) and 4.8e-15 (bisection) at the default
    # config, 7.8e-16 and 2.1e-15 at tightened(100); the same bounds hold
    # from the closed form, the double nearest lambda0
    cfg = rs.IntegratorConfig().tightened(factor)
    closed = rs.lambda0_closed_form()
    for value in (rs.launch_separatrix(cfg).zs[-1].item(), rs.find_lambda0(cfg, tol=1e-15).value):
        assert error(value, LAMBDA0) <= bound
        assert abs(value - closed) <= bound


def test_series_seed_is_the_separatrix():
    # measured: 7.5e-17 (theta), 6.2e-17 (z, set by the rounding of
    # 1 + (z - 1) to a float) and 2.8e-17 (x)
    assert SERIES_S0 == 0.05
    theta, z, x = corner_series(SERIES_S0)
    theta_ref, u_ref, x_ref = SEED
    assert error(theta, theta_ref) <= 1e-16
    assert error(z - 1.0, u_ref) <= 1e-16  # z - 1.0 is exact
    assert error(x, x_ref) <= 1e-16


def test_separatrix_arc_length_and_extent(launch):
    # measured: 5.3e-12 for both at the default config; one ulp of the
    # seed's float z moves them by up to ulp(1)/sin(theta(s0)) = 3.2e-11
    s_star = launch.ts[-1].item() + SERIES_S0
    x_extent = launch.xs[-1].item() + corner_series(SERIES_S0)[2]
    assert error(s_star, S_STAR) <= 1e-11
    assert error(x_extent, X_EXTENT) <= 1e-11


def test_reference_imports_no_package_module():
    tree = ast.parse((Path(__file__).parent / "reference_mp.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(name.split(".")[0] in ("rotsurf", "") for name in imported), imported


def test_recomputed_seed_agrees():
    # the separatrix's state at s = 0.05 at 25 digits (about 2 s): within
    # 1e-19 relative of SEED
    mpmath = pytest.importorskip("mpmath")
    import reference_mp

    row = reference_mp.separatrix_state(reference_mp.SEED_S, dps=25)
    for key, ref in zip(("theta", "u", "x"), SEED):
        with localcontext() as ctx:
            ctx.prec = 40
            got = Decimal(mpmath.nstr(row[key], 25))
            assert abs(got - Decimal(ref)) <= Decimal("1e-19") * abs(Decimal(ref)), key


def test_recomputed_row_agrees():
    # the 2.5 contact at 25 digits (about 4 s): every field of the frozen
    # row within 1e-19 relative
    mpmath = pytest.importorskip("mpmath")
    import reference_mp

    row = reference_mp.backward_end(2.5, dps=25)
    kind, *fields = ENDS[2.5]
    assert row["kind"] == kind
    for key, ref in zip(("t_star", "theta", "z", "x"), fields):
        with localcontext() as ctx:
            ctx.prec = 40
            got = Decimal(mpmath.nstr(row[key], 25))
            assert abs(got - Decimal(ref)) <= Decimal("1e-19") * abs(Decimal(ref)), key
