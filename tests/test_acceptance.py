"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, none deferred to later calibration.
"""

import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest

import rotsurf as rs
from rotsurf import ExtensionSpec, PhasePoint
from rotsurf.field import slope

from oracles import LAMBDA0_REF, lambda0_bisection

SQRT2 = math.sqrt(2.0)


def report(num, name, ok, detail):
    line = f"criterion {num:>2} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def periodic_pack(cfg, lambda0):
    lam = lambda0.value + 1.0
    info = rs.find_period(lam, cfg)
    return lam, info


def test_criterion_1_sphere_oracle(cfg):
    t_start = time.perf_counter()
    back = rs.integrate(PhasePoint(math.pi, SQRT2), "backward", cfg)
    full = rs.concat(back, rs.reflect(back, 1))
    lo, hi = full.t_span
    worst = 0.0
    for t in np.linspace(lo + 1e-3, hi - 1e-3, 4000):
        th, z, _ = full.state_at(float(t))
        worst = max(worst, abs(th - (math.pi + t / SQRT2)),
                    abs(z - SQRT2 * math.cos(t / SQRT2)))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, "sphere oracle", ok,
           f"max err {worst:.2e} over span excl. 1e-3 bands, {elapsed:.2f}s")


def test_criterion_2_lambda0_dual_method(cfg, lambda0, launch):
    z_launch = float(launch.zs[-1])
    agree = abs(lambda0.value - z_launch)
    tight = rs.find_lambda0(cfg.tightened(10.0), tol=1e-8)
    stab = abs(tight.value - lambda0.value)
    oracle_live = lambda0_bisection(tol=1e-8, h=2e-3)
    dev_oracle = abs(lambda0.value - oracle_live)
    dev_ref = abs(lambda0.value - LAMBDA0_REF)
    ok = (agree <= 1e-6 and stab <= 1e-6 and lambda0.value > SQRT2
          and dev_oracle <= 1e-7 and dev_ref <= 5e-8)
    report(2, "lambda0 dual method", ok,
           f"bisect {lambda0.value:.10f}, launch {z_launch:.10f} "
           f"(diff {agree:.1e}), 10x-tightened diff {stab:.1e}, "
           f"RK4-oracle diff {dev_oracle:.1e}, frozen-ref diff {dev_ref:.1e}")


def test_criterion_3_unit_norm_reconstruction(cfg, periodic_pack):
    rep_s = rs.verify_profile(rs.sphere_profile(), 1e-3)
    rep_c = rs.verify_profile(rs.cylinder_profile(3.0, n=301), 1e-3)
    lam, info = periodic_pack
    run_cfg = replace(cfg, theta_targets=(), max_time=info.period)
    back = rs.integrate(PhasePoint(math.pi, lam), "backward", run_cfg)
    full = rs.concat(back, rs.reflect(back, 1))
    prof = rs.build_profile(full, kind="Periodic")
    assert prof.span[1] - prof.span[0] == pytest.approx(2 * info.period, rel=1e-9)
    rep_p = rs.verify_profile(prof, 1e-3)
    ok = (rep_s.max_curvature_residual <= 1e-8
          and rep_c.max_curvature_residual <= 1e-8
          and rep_p.max_curvature_residual <= 1e-4
          and rep_s.monotone_violations == rep_p.monotone_violations == 0)
    report(3, "|A|=1 reconstruction", ok,
           f"sphere {rep_s.max_curvature_residual:.2e}, "
           f"cylinder {rep_c.max_curvature_residual:.2e}, "
           f"periodic 2T {rep_p.max_curvature_residual:.2e}")


def test_criterion_4_separatrix_asymptotics(launch):
    # The 1% tolerance holds once theta has fallen to 1e-4; at 1e-2 the
    # diagnostics are still ~4% and ~12% away (the ODE's own approach rate,
    # see the decisions ledger), so convergence through the decades is
    # asserted together with the 1% band at 1e-4.
    def diagnostics(theta_at):
        t = launch.crossing_time(theta_at)
        th, z, _ = launch.state_at(t)
        r4 = rs.asymptotics(PhasePoint(th, z)).r4
        d = 2e-3
        th_p, z_p, _ = launch.state_at(t + d)
        th_m, z_m, _ = launch.state_at(t - d)
        th3 = (rs.theta_second(PhasePoint(th_p, z_p))
               - rs.theta_second(PhasePoint(th_m, z_m))) / (2 * d)
        return abs(r4 / rs.R4_LIMIT - 1.0), abs(th3 / rs.THETA3_LIMIT - 1.0)

    devs = [diagnostics(th) for th in (1e-2, 1e-3, 1e-4)]
    r4_dev, th3_dev = devs[-1]
    monotone = all(a[0] > b[0] and a[1] > b[1] for a, b in zip(devs, devs[1:]))
    ok = r4_dev <= 1e-2 and th3_dev <= 1e-2 and monotone
    report(4, "separatrix asymptotics", ok,
           f"at theta=1e-4: r4 dev {r4_dev:.2%}, theta''' dev {th3_dev:.2%}; "
           f"at 1e-2: {devs[0][0]:.2%}/{devs[0][1]:.2%}, decreasing={monotone}")


def test_criterion_5_periodicity(periodic_pack):
    lam, info = periodic_pack
    ok = (info.z_residual <= 1e-8 and info.theta_residual <= 1e-8
          and info.x_residual <= 1e-8)
    report(5, "periodicity", ok,
           f"lambda={lam:.6f}: |dz| {info.z_residual:.2e}, "
           f"|dtheta-2pi| {info.theta_residual:.2e}, |dx-shift| {info.x_residual:.2e}")


def test_criterion_6_self_intersection(cfg, periodic_pack):
    lam, _ = periodic_pack
    back = rs.backward_trajectory(lam, cfg)
    t0 = -back.crossing_time(0.0)
    t1 = -back.crossing_time(math.pi / 2)
    full = rs.concat(back, rs.reflect(back, 1))
    prof = rs.build_profile(full)
    x_t0 = prof.eval_at(-t0)[0]
    x_t1 = prof.eval_at(-t1)[0]
    info = rs.find_self_intersection(prof, t0, t1)
    ok = (x_t0 < 0.0 < x_t1 and info.x_abs <= 1e-8 and info.z_mismatch <= 1e-8
          and t1 < info.t2 < t0)
    report(6, "self-intersection", ok,
           f"x(-t0)={x_t0:.4f} < 0 < x(-t1)={x_t1:.4f}, t2={info.t2:.6f}, "
           f"|x(+-t2)| {info.x_abs:.2e}, z gap {info.z_mismatch:.2e}")


def test_criterion_7_classification_sweep(cfg, lambda0):
    lams = [1.2, SQRT2, 0.5 * (SQRT2 + lambda0.value), lambda0.value + 0.5, 10.0]
    want = [rs.INCOMPLETE_LOW, rs.SPHERE, rs.INCOMPLETE_HIGH, rs.PERIODIC, rs.PERIODIC]
    got = []
    details = []
    ok = True
    for lam, expect in zip(lams, want):
        k = rs.classify_lambda(lam, cfg)
        got.append(k.tag)
        if k.tag != expect:
            ok = False
        if k.tag in (rs.INCOMPLETE_LOW, rs.INCOMPLETE_HIGH):
            z0 = k.limit_point[1]
            if not (0.0 < z0 < 1.0 and k.span is not None and math.isfinite(k.span)):
                ok = False
            details.append(f"{lam:.4g}:{k.tag}(z0={z0:.3f},b={k.span:.3f})")
        else:
            details.append(f"{lam:.4g}:{k.tag}")
    report(7, "classification sweep", ok, "; ".join(details))


def test_criterion_8_field_properties(cfg):
    rng = np.random.default_rng(20260809)
    n_samples = 0
    worst_constraint = 0.0
    worst_low = -1.0
    monotone_ok = True

    def harvest(tr):
        nonlocal n_samples, worst_constraint, worst_low, monotone_ok
        lo, hi = tr.t_span
        grid = np.linspace(lo, hi, 900)
        # dense states in one call; dtheta from the field at each state
        for theta, z, _ in tr.states_at(grid).tolist():
            dtheta = slope(theta, z)
            res = abs(dtheta ** 2 + math.cos(theta) ** 2 / z ** 2 - 1.0)
            worst_constraint = max(worst_constraint, res)
            if z < 1.0:
                worst_low = max(worst_low, dtheta - abs(math.sin(theta)))
        monotone_ok &= bool(np.all(np.diff(tr.thetas) > 0.0))
        n_samples += len(grid)

    # backward family from (pi, lambda)
    for lam in np.concatenate([rng.uniform(1.02, 8.0, 60), [1.1, 2.0, 5.0]]):
        harvest(rs.backward_trajectory(float(lam), cfg))

    # forward trajectories from low starts: barrier (z > 1 happens) and
    # reach (theta = pi happens) on every one
    barrier_ok = reach_ok = True
    n_low = 0
    while n_low < 50:
        theta0 = rng.uniform(0.02, math.pi - 0.02)
        z0 = rng.uniform(abs(math.cos(theta0)) + 1e-6, 1.0)
        if z0 >= 1.0 or z0 <= abs(math.cos(theta0)):
            continue
        n_low += 1
        tr = rs.integrate(PhasePoint(theta0, z0), "forward", cfg.with_targets(math.pi))
        harvest(tr)
        if tr.termination.kind != "theta_crossing":
            reach_ok = False
        if not float(np.max(tr.zs)) > 1.0:
            barrier_ok = False

    # reach also holds starting on the axis theta = 0 (needs z > 1 there)
    for z0 in rng.uniform(1.001, 5.0, 8):
        tr = rs.integrate(PhasePoint(0.0, float(z0)), "forward",
                          cfg.with_targets(math.pi))
        harvest(tr)
        if tr.termination.kind != "theta_crossing":
            reach_ok = False

    # two-run symmetry about theta = pi
    sym = 0.0
    for lam in (1.7, 2.4, 3.6, 5.5):
        back = rs.integrate(PhasePoint(math.pi, lam), "backward", cfg.with_targets(0.0))
        fwd = rs.integrate(PhasePoint(math.pi, lam), "forward",
                           cfg.with_targets(2 * math.pi))
        smax = min(-back.t_span[0], fwd.t_span[1]) - 1e-9
        for s in np.linspace(0.0, smax, 150):
            thb, zb, _ = back.state_at(-float(s))
            thf, zf, _ = fwd.state_at(float(s))
            sym = max(sym, abs(zf - zb), abs(thf + thb - 2 * math.pi))
        n_samples += 150

    # curvature-norm identity on a million random interior points, in one
    # numpy pass of field.curvatures' closed form
    thetas = rng.uniform(0.0, 2 * math.pi, 1_000_000)
    gaps = rng.uniform(1e-9, 10.0, 1_000_000)
    cos = np.cos(thetas)
    zs = np.abs(cos) + gaps
    half_sin = np.sin(0.5 * thetas)
    z_minus, z_plus = (zs - 1.0) + 2.0 * half_sin * half_sin, zs + cos
    assert np.all(z_minus > 0.0) and np.all(z_plus > 0.0)  # interior points
    k1 = np.sqrt(z_minus * z_plus / (zs * zs))
    k2 = -cos / zs
    norm_worst = float(np.max(np.abs(k1 * k1 + k2 * k2 - 1.0)))
    # the scalar API agrees with the vectorized form on the first 10^4
    n_scalar = 10_000
    scalar = np.array([astuple(rs.curvatures(PhasePoint(th, z)))
                       for th, z in zip(thetas[:n_scalar].tolist(), zs[:n_scalar].tolist())])
    vector = np.column_stack([k1[:n_scalar], k2[:n_scalar]])
    ulps = np.abs(scalar - vector) / np.spacing(np.abs(vector))
    scalar_ok = bool(np.all(ulps <= 2.0))

    ok = (n_samples >= 100_000 and worst_constraint <= 1e-8
          and worst_low <= 1e-12 and monotone_ok and sym <= 1e-8
          and barrier_ok and reach_ok and norm_worst <= 1e-12 and scalar_ok)
    report(8, "field properties", ok,
           f"{n_samples} samples: constraint {worst_constraint:.2e}, "
           f"low-z slope margin {worst_low:.2e}, monotone={monotone_ok}, "
           f"symmetry {sym:.2e}, barrier={barrier_ok}, reach={reach_ok}, "
           f"curvature norm {norm_worst:.2e} on 1e6 points "
           f"(scalar within {float(np.max(ulps)):.0f} ulp on 1e4)")


def test_criterion_9_extension_regularity(cfg):
    _, rep_seg = rs.extend_separatrix(ExtensionSpec(2, (1.0,)), cfg)
    _, rep_glue = rs.extend_separatrix(ExtensionSpec(2, (0.0,)), cfg)
    seg_ok = (len(rep_seg.junctions) == 2
              and all(j.order == "C3" for j in rep_seg.junctions)
              and all(abs(j.d3theta_jump - 1 / 3) <= 1 / 30
                      for j in rep_seg.junctions))
    glue_ok = (len(rep_glue.junctions) == 1
               and rep_glue.junctions[0].order == "C4+")
    ok = seg_ok and glue_ok
    jumps = ",".join(f"{j.d3theta_jump:.5f}" for j in rep_seg.junctions)
    report(9, "extension regularity", ok,
           f"segment junctions C3 with theta''' jumps [{jumps}] ~ 1/3; "
           f"direct gluing {rep_glue.junctions[0].order} "
           f"(jump {rep_glue.junctions[0].d3theta_jump:.1e})")


def test_criterion_10_determinism(tmp_path):
    from rotsurf.cli import main

    pairs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert main(["portrait", "--lambdas", "1.5,4.0", "--tol", "1e-5",
                     "--out", str(d / "p.json")]) == 0
        assert main(["curve", "--lambda", "2.0", "--out", str(d / "c.csv")]) == 0
        assert main(["mesh", "--builtin", "sphere", "--n-angular", "12",
                     "--out", str(d / "m.obj")]) == 0
        pairs.append(d)
    a, b = pairs
    files = ["p.json", "p_00.csv", "p_01.csv", "c.csv", "m.obj"]
    same = {f: (a / f).read_bytes() == (b / f).read_bytes() for f in files}
    ok = all(same.values())
    report(10, "determinism", ok,
           "byte-identical reruns: " + ", ".join(f"{k}={v}" for k, v in same.items()))
