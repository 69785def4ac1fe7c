"""The integrator against independent 20-digit references.

The table is tests/reference_mp.py's output (mpmath's Taylor method at 30
digits, which agreed with 36 digits to 1e-26 or better), frozen here to 20
significant digits; that module imports no package module.  Errors are
taken in exact decimal arithmetic on the float's exact value, so the tests
need no mpmath; one slow test recomputes a row with it.

The bounds are the errors measured at the default config (MEASURED), with
a margin of up to 2, and never above 1.25 times the error of the DP5
integrator this one replaced (DP5).  Contact records are good to about
1e-12: the loop stops once the domain gap falls below boundary_eps and
_contact_stop extrapolates from there, and the step control at a closing
contact holds h/s, the step over the distance to the contact, so the
steps close in on it (plain DOP853 control left 8e-11 at lambda 1.2 and
4e-11 at 2.0).  The two rows within 1e-6 of lambda0 carry about 1e-10
in t_star, a crossing's x too, from the passage by the corner.  The separatrix is launched
from the corner series at s0 = SERIES_S0 = 0.05, where the series is the
separatrix to within 1e-16 in each of theta, z and x (SEED, the same
Taylor run's state there) and z - 1 = 8.7e-8 keeps about 9 digits in a
float, so the launch's s* and x extent are good to 5.3e-12.  A seed at
s0 = 1e-3 held z - 1 = 1.4e-14 to two digits, and left them good only to
4.1e-7.  The terminal z, lambda0, is insensitive to the seed.
"""

import ast
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

import rotsurf as rs
from rotsurf.integrate import SERIES_S0, corner_series

LAMBDA0 = "3.2136243986497109426"
S_STAR = "4.8242320820087434339"
X_EXTENT = "1.5580910836203020763"
# the separatrix's (theta, z - 1, x) at arc length 0.05 from the corner
SEED = ("6.9451676532013929545e-6", "8.6811582650995782859e-8", "0.049999999999827738851")

# height -> (kind, t_star, theta, z, x): a contact's theta and z are its
# limit point, a crossing's theta is 0; x is measured from (pi, lambda).
# 3.2136243987 is the paper's lambda0 to 11 digits.
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
}

# the largest error of each row at the default config: contacts over
# (t_star, theta, z), crossings over (t_star, z, x), measured on this
# integrator (DOP853) and on the DP5 integrator it replaced
MEASURED = {
    1.05: 1.26e-12, 1.2: 1.00e-12, 1.45: 9.30e-13, 1.8: 5.35e-13, 2.0: 4.64e-13,
    2.5: 2.93e-13, 3.0: 1.60e-13, 3.2036: 8.47e-14, 4.0: 5.28e-15, 6.0: 1.65e-15,
    3.2136243987 + 1e-6: 9.47e-11, 3.2136243987 - 1e-6: 8.01e-11,
}
DP5 = {
    1.05: 1.59e-10, 1.2: 7.53e-11, 1.45: 2.62e-11, 1.8: 7.46e-11, 2.0: 5.10e-11,
    2.5: 8.13e-12, 3.0: 2.52e-11, 3.2036: 4.49e-12, 4.0: 1.60e-13, 6.0: 5.25e-13,
    3.2136243987 + 1e-6: 3.67e-9, 3.2136243987 - 1e-6: 4.12e-9,
}
BOUND = {
    1.05: 2.4e-12, 1.2: 1.9e-12, 1.45: 1.8e-12, 1.8: 1e-12, 2.0: 9e-13, 2.5: 5.5e-13,
    3.0: 3e-13, 3.2036: 1.6e-13, 4.0: 8e-15, 6.0: 2.5e-15,
    3.2136243987 + 1e-6: 1.3e-10, 3.2136243987 - 1e-6: 1e-10,
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


@pytest.mark.parametrize("factor, bound", [(1.0, 1e-14), (100.0, 5e-15)])
def test_lambda0_by_launch_and_bisection(factor, bound):
    # measured: 1.2e-15 (launch) and 4.8e-15 (bisection) at the default
    # config, 7.8e-16 and 2.1e-15 at tightened(100)
    cfg = rs.IntegratorConfig().tightened(factor)
    assert error(rs.launch_separatrix(cfg).zs[-1].item(), LAMBDA0) <= bound
    assert error(rs.find_lambda0(cfg, tol=1e-15).value, LAMBDA0) <= bound


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
