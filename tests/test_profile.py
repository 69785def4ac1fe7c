import io
import math
from dataclasses import replace

import numpy as np
import orjson
import pytest

import rotsurf as rs
from rotsurf import ExtensionSpec, PhasePoint, ProfileCurve
from rotsurf.errors import (
    DegenerateProfileError,
    ExtensionSpecError,
    NoSignChangeError,
    NotPeriodicError,
    TooFewSamplesError,
)
from rotsurf.profile import (
    CONTACT_GRADING,
    CONTACT_MIN_DT,
    MAX_RESAMPLE_STEPS,
    SAMPLE_DT,
    _five_point_weights,
)
from rotsurf.shooting import SPHERE_HALF_SPAN, _sphere_polyline
from rotsurf.text import ROW_BLOCK

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def periodic_setup(cfg, lambda0):
    lam = lambda0.value + 1.0
    info = rs.find_period(lam, cfg)
    back = rs.backward_trajectory(lam, cfg)
    t0 = -back.crossing_time(0.0)
    t1 = -back.crossing_time(math.pi / 2)
    full = rs.concat(back, rs.reflect(back, 1))
    prof = rs.build_profile(full, kind="Periodic")
    return lam, info, prof, t0, t1


class TestBuildProfile:
    def test_x_zero_at_origin(self, cfg):
        prof = rs.build_profile(rs.full_curve(2.0, cfg))
        assert prof.eval_at(0.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_sphere_trajectory_quadrature(self, cfg):
        # trajectory-built sphere: x(t) = -sqrt(2) sin(t/sqrt2), circle about
        # the origin (the closed form is the same curve shifted by -sqrt2)
        back = rs.integrate(PhasePoint(math.pi, SQRT2), "backward", cfg)
        full = rs.concat(back, rs.reflect(back, 1))
        prof = rs.build_profile(full, kind="Sphere")
        sel = np.abs(prof.t) < abs(prof.t[0]) - 1e-3
        x_ref = -SQRT2 * np.sin(prof.t[sel] / SQRT2)
        assert np.max(np.abs(prof.x[sel] - x_ref)) < 1e-8
        r = np.hypot(prof.x[sel], prof.z[sel])
        assert np.max(np.abs(r - SQRT2)) < 1e-8

    def test_odd_symmetry_of_x(self, cfg):
        prof = rs.build_profile(rs.full_curve(4.0, cfg))
        for t in (0.3, 0.9, 1.7):
            xp = prof.eval_at(t)[0]
            xm = prof.eval_at(-t)[0]
            assert xp == pytest.approx(-xm, abs=1e-9)

    def test_unit_speed_from_samples(self, cfg):
        prof = rs.build_profile(rs.full_curve(2.5, cfg))
        dx = np.diff(prof.x) / np.diff(prof.t)
        dz = np.diff(prof.z) / np.diff(prof.t)
        speed = np.hypot(dx, dz)
        # chord speed of a unit-speed curve deviates at O(dt^2)
        assert np.max(np.abs(speed - 1.0)) < 1e-4


def reference_grid(nodes, contact_ends=()):
    """build_profile's sample times as the plain loop over the nodes: fill, then thin.

    contact_ends are the end times where the trajectory meets the boundary.
    A gap graded toward one (CONTACT_GRADING times its distance to it below
    SAMPLE_DT) fills at that product, floored at CONTACT_MIN_DT, and drops
    its samples closer than CONTACT_MIN_DT to the last one kept; other gaps
    fill at SAMPLE_DT and drop at SAMPLE_DT / 4.
    """
    raw = [(float(nodes[0]), None)]  # (time, drop distance)
    for a, b in zip(nodes[:-1], nodes[1:]):
        gap = float(b - a)
        dt, drop = SAMPLE_DT, 0.25 * SAMPLE_DT
        for end in contact_ends:
            s = CONTACT_GRADING * min(abs(float(a) - end), abs(float(b) - end))
            if s < SAMPLE_DT:
                dt, drop = min(dt, max(CONTACT_MIN_DT, s)), CONTACT_MIN_DT
        if gap > dt:
            n = int(math.ceil(gap / dt))
            raw.extend((float(a) + gap * k / n, drop) for k in range(1, n))
        raw.append((float(b), drop))
    ts = [raw[0][0]]
    for t, drop in raw[1:-1]:
        if t - ts[-1] >= drop:
            ts.append(t)
    t, drop = raw[-1]
    if t - ts[-1] < drop and len(ts) > 1:
        ts.pop()
    ts.append(t)
    return np.asarray(ts)


class StubTrajectory:
    """Nodes at the given times, and a dense output with theta = x = t and z = 1.

    Its two ends are of the given kinds.
    """

    def __init__(self, ts, left="initial", right="initial"):
        self.ts = np.asarray(ts, dtype=float)
        self.left_info, self.right_info = rs.EndInfo(left), rs.EndInfo(right)

    def states_at(self, tq):
        return np.column_stack([tq, np.ones_like(tq), tq])


class TestBuildProfileGrid:
    """build_profile's numpy grid has the bits of the plain loop (reference_grid)."""

    @staticmethod
    def assert_grid_is_the_loop(traj):
        ends = [t for t, info in ((traj.ts[0], traj.left_info), (traj.ts[-1], traj.right_info))
                if info.kind == "boundary_contact"]
        got, want = rs.build_profile(traj).t, reference_grid(traj.ts, ends)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lam", [1.2, 1.41421356, 2.5, 3.2136243986, 3.2136244, 4.0, 8.0])
    def test_trajectories(self, cfg, lam):
        # contacts (1.2, 2.5) and the corner (near lambda0) cluster nodes
        # closer than SAMPLE_DT / 4; large heights leave gaps above SAMPLE_DT
        self.assert_grid_is_the_loop(rs.full_curve(lam, cfg))

    @pytest.mark.parametrize("nodes", [
        [0.0, 0.5],  # two nodes, filled
        [0.0, 0.001],  # two nodes closer than SAMPLE_DT / 4, both kept
        [0.0, SAMPLE_DT, np.nextafter(2 * SAMPLE_DT, 1.0), 0.35],  # gaps at and just above
        [-1.0, -0.0, 1.0],  # a -0.0 node survives
        [-0.0, 0.001, 0.5],  # and so does a -0.0 first node
        [0.0, 0.3, 0.3001, 0.3002, 0.3003],  # a cluster at the end: its last node replaces one
        [0.0, 0.3, 0.301],  # the last node too close to the one before
        [0.0, 0.0001, 0.0002, 0.0003, 0.2],  # a cluster at the start
        [0.0, 0.1, 0.1024, 0.1049, 0.1074, 0.1099, 0.2],  # steps just under and over the bound
    ])
    def test_chosen_nodes(self, nodes):
        self.assert_grid_is_the_loop(StubTrajectory(nodes))
        # the same nodes with one and two ends on the boundary
        self.assert_grid_is_the_loop(StubTrajectory(nodes, "boundary_contact"))
        self.assert_grid_is_the_loop(StubTrajectory(nodes, "boundary_contact", "boundary_contact"))

    def test_random_nodes(self):
        rng = np.random.default_rng(22)
        kinds = ["initial", "boundary_contact", "theta_crossing"]
        for _ in range(200):
            n = int(rng.integers(2, 60))
            scale = rng.choice([1e-4, 1e-3, 3e-3, 1e-2, 0.1, 1.0], n - 1)
            gaps = rng.uniform(0.1, 1.0, n - 1) * scale
            self.assert_grid_is_the_loop(StubTrajectory(rng.uniform(-5.0, 5.0) + np.cumsum(
                np.concatenate([[0.0], gaps])), *rng.choice(kinds, 2)))

    def test_rows_close_in_on_a_contact_end(self, cfg):
        # within 0.05 of a contact end the fill step is at most 0.005
        # (CONTACT_GRADING times the distance, or CONTACT_MIN_DT), and the
        # thinning keeps rows at most SAMPLE_DT / 2 apart; without the
        # grading, the integrator's steps leave 0.0086 there at lambda 1.6.
        # A periodic curve keeps SAMPLE_DT.
        t = rs.build_profile(rs.full_curve(1.6, cfg)).t
        for s in (t[1:] - t[0], t[-1] - t[:-1]):
            near = s < 0.05
            assert near.sum() > 10 and np.all(np.diff(t)[near] <= 0.5 * SAMPLE_DT)
        assert np.max(np.diff(rs.build_profile(rs.full_curve(4.0, cfg)).t)) > 0.9 * SAMPLE_DT


class TestClosedForms:
    def test_sphere_profile_points(self):
        prof = rs.sphere_profile(n=501)
        i = np.argmin(np.abs(prof.t))
        assert prof.x[i] == pytest.approx(-SQRT2, abs=1e-15)
        assert prof.z[i] == pytest.approx(SQRT2, abs=1e-15)
        # every sample sits on the circle about (-sqrt2, 0) to machine precision
        r = np.hypot(prof.x + SQRT2, prof.z)
        assert np.max(np.abs(r - SQRT2)) < 1e-14
        # endpoints approach the axis
        assert prof.z[0] < 1e-5 and prof.z[-1] < 1e-5

    def test_sphere_profile_curvatures(self):
        prof = rs.sphere_profile(n=101)
        for i in range(0, 101, 10):
            c = rs.curvatures(PhasePoint(prof.theta[i], prof.z[i]))
            assert c.k1 == pytest.approx(1 / SQRT2, abs=1e-9)
            assert c.k2 == pytest.approx(1 / SQRT2, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 7, 400, 1201])
    def test_sphere_is_libm(self, n):
        # the closed-form sphere's profile and its portrait polyline take
        # libm's sin and cos bit for bit, whatever SIMD loops numpy dispatches to
        prof = rs.sphere_profile(n=n)
        u = (prof.t / SQRT2).tolist()
        assert prof.x.tobytes() == np.array([-SQRT2 * math.sin(a) - SQRT2 for a in u]).tobytes()
        assert prof.z.tobytes() == np.array([SQRT2 * math.cos(a) for a in u]).tobytes()
        half = SPHERE_HALF_SPAN * (1 - 1e-9)
        u = (np.linspace(-half, half, n) / SQRT2).tolist()
        assert _sphere_polyline(n)[:, 1].tobytes() == np.array([SQRT2 * math.cos(a) for a in u]).tobytes()

    def test_cylinder_profile(self):
        prof = rs.cylinder_profile(3.0, n=7)
        assert np.all(prof.z == 1.0)
        assert np.all(prof.theta == 0.0)
        assert prof.x[0] == 0.0 and prof.x[-1] == 3.0
        # curvature pair (0, -1) on the boundary line: |A|^2 = 0 + 1
        k1, k2 = 0.0, -math.cos(0.0) / 1.0
        assert k1 ** 2 + k2 ** 2 == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rs.sphere_profile(n=1)
        with pytest.raises(ValueError):
            rs.cylinder_profile(0.0)


class TestPeriod:
    def test_shift_identities(self, periodic_setup):
        _, info, _, t0, _ = periodic_setup
        assert info.t0 == pytest.approx(t0, abs=1e-10)
        assert info.period == pytest.approx(2 * t0, rel=1e-12)
        assert info.z_residual <= 1e-8
        assert info.theta_residual <= 1e-8
        assert info.x_residual <= 1e-8

    def test_not_periodic_rejected(self, cfg):
        with pytest.raises(NotPeriodicError):
            rs.find_period(2.0, cfg)

    def test_against_angle_parametrized_oracle(self, periodic_setup):
        # independent route: fixed-step RK4 march of the angle-parametrized
        # form cross-checks t0, the crossing height, and x(-t0)
        from oracles import march_in_angle

        lam, info, prof, t0, _ = periodic_setup
        t0_oracle, z_cross_oracle, x_end_oracle, _, _ = march_in_angle(lam)
        assert info.t0 == pytest.approx(t0_oracle, abs=1e-9)
        assert prof.eval_at(-t0)[0] == pytest.approx(x_end_oracle, abs=1e-9)
        klass = rs.classify_lambda(lam, rs.IntegratorConfig())
        assert klass.crossing_z == pytest.approx(z_cross_oracle, abs=1e-9)


class TestSelfIntersection:
    def test_witness(self, periodic_setup):
        _, _, prof, t0, t1 = periodic_setup
        # bracket for the double-point search: x(-t0) < 0 < x(-t1)
        assert prof.eval_at(-t0)[0] < 0.0 < prof.eval_at(-t1)[0]
        info = rs.find_self_intersection(prof, t0, t1)
        assert t1 < info.t2 < t0
        assert info.x_abs <= 1e-8
        assert info.z_mismatch <= 1e-8
        assert info.point[0] == pytest.approx(0.0, abs=1e-8)
        assert info.point[1] > 1.0

    def test_bad_bracket_rejected(self, periodic_setup):
        _, _, prof, t0, t1 = periodic_setup
        with pytest.raises(NoSignChangeError):
            rs.find_self_intersection(prof, t1, t0)  # swapped

    def test_against_angle_parametrized_oracle(self, periodic_setup):
        from oracles import intersection_in_angle

        lam, _, prof, t0, t1 = periodic_setup
        info = rs.find_self_intersection(prof, t0, t1)
        t2_oracle, z2_oracle = intersection_in_angle(lam)
        assert info.t2 == pytest.approx(t2_oracle, abs=1e-8)
        assert info.point[1] == pytest.approx(z2_oracle, abs=1e-8)


class TestSeparatrixProfile:
    def test_metadata_and_symmetry(self, sep_profile, lambda0):
        b = sep_profile.meta["half_span"]
        assert sep_profile.meta["lambda0"] == pytest.approx(lambda0.value, abs=1e-6)
        lo, hi = sep_profile.span
        assert lo == pytest.approx(-b, abs=1e-12) and hi == pytest.approx(b, abs=1e-12)
        for t in (0.4, 1.9, 4.0):
            xp, zp, thp = sep_profile.eval_at(t)
            xm, zm, thm = sep_profile.eval_at(-t)
            assert xp == pytest.approx(-xm, abs=1e-9)
            assert zp == pytest.approx(zm, abs=1e-9)
            assert thp + thm == pytest.approx(2 * math.pi, abs=1e-9)

    def test_endpoints_at_corners(self, sep_profile):
        b = sep_profile.meta["half_span"]
        x, z, th = sep_profile.eval_at(-b)
        assert th == 0.0 and z == 1.0
        x2, z2, th2 = sep_profile.eval_at(b)
        assert th2 == pytest.approx(2 * math.pi, abs=1e-15) and z2 == 1.0
        assert x2 == pytest.approx(-x, abs=1e-9)

    def test_strictly_increasing_angle(self, sep_profile):
        # strict on sphere/separatrix interiors; constant only on the
        # cylinder and extension segments
        assert np.all(np.diff(sep_profile.theta) > 0.0)
        assert np.all(np.diff(rs.sphere_profile(n=301).theta) > 0.0)


class TestExtension:
    def test_spec_validation(self):
        with pytest.raises(ExtensionSpecError):
            ExtensionSpec(0, ())
        with pytest.raises(ExtensionSpecError):
            ExtensionSpec(3, (1.0,))
        with pytest.raises(ExtensionSpecError):
            ExtensionSpec(2, (-1.0,))

    def test_single_copy_is_identity(self, cfg, sep_profile):
        curve, rep = rs.extend_separatrix(ExtensionSpec(1, ()), cfg)
        assert rep.junctions == ()
        b = sep_profile.meta["half_span"]
        assert curve.span[1] == pytest.approx(2 * b, rel=1e-12)
        for t in (0.7, 2.0, 5.5):
            xs, zs, ths = sep_profile.eval_at(t - b)
            xc, zc, thc = curve.eval_at(t)
            assert zc == pytest.approx(zs, abs=1e-12)
            assert thc == pytest.approx(ths, abs=1e-12)

    def test_segment_junctions_are_c3(self, cfg):
        curve, rep = rs.extend_separatrix(ExtensionSpec(2, (1.0,)), cfg)
        assert len(rep.junctions) == 2
        types = [j.junction_type for j in rep.junctions]
        assert types == ["copy-segment", "segment-copy"]
        for j in rep.junctions:
            assert j.order == "C3"
            assert j.position_jump <= 1e-9
            assert j.theta_jump <= 1e-9
            assert j.d3theta_jump == pytest.approx(1.0 / 3.0, rel=0.1)

    def test_direct_gluing_is_c4(self, cfg):
        curve, rep = rs.extend_separatrix(ExtensionSpec(2, (0.0,)), cfg)
        assert len(rep.junctions) == 1
        j = rep.junctions[0]
        assert j.junction_type == "copy-copy"
        assert j.order == "C4+"
        assert j.d3theta_jump < 1e-2

    def test_multi_piece_layout(self, cfg):
        curve, rep = rs.extend_separatrix(ExtensionSpec(3, (0.5, 0.0)), cfg)
        types = [j.junction_type for j in rep.junctions]
        assert types == ["copy-segment", "segment-copy", "copy-copy"]
        # theta climbs by 2 pi per copy and holds on segments
        assert curve.theta[0] == 0.0
        assert curve.theta[-1] == pytest.approx(6 * math.pi, abs=1e-12)
        assert np.all(np.diff(curve.theta) >= -1e-12)

    def test_no_separatrix_grid_is_sampled(self, cfg, monkeypatch):
        # the glued curve reads the critical profile's evaluator at its own
        # samples and junction stencils only
        points = []
        make = rs.profile._separatrix_evaluator

        def counted(cfg):
            evaluator, meta = make(cfg)

            def count(tq):
                points.append(len(tq))
                return evaluator(tq)

            return count, meta

        monkeypatch.setattr(rs.profile, "_separatrix_evaluator", counted)
        curve, _ = rs.extend_separatrix(ExtensionSpec(1, ()), cfg)
        assert sum(points) == len(curve)
        points.clear()
        curve, _ = rs.extend_separatrix(ExtensionSpec(3, (0.5, 0.0)), cfg)
        t = curve.t
        on_segment = np.count_nonzero((t > curve.junctions[0]) & (t <= curve.junctions[1]))
        # a junction's copy side reads its one point and a 5-point stencil
        copy_sides = 4  # copy-segment, segment-copy, and both sides of copy-copy
        assert sum(points) == len(curve) - on_segment + 6 * copy_sides


class TestEvalAt:
    def test_array_evaluation_reproduces_samples(self, cfg, sep_profile):
        # every evaluator takes a time array; its samples came from it
        profiles = [rs.build_profile(rs.full_curve(4.0, cfg)), sep_profile,
                    rs.sphere_profile(n=301), rs.cylinder_profile(2.0, n=51)]
        for prof in profiles:
            x, z, th = prof.eval_at(prof.t)
            assert np.array_equal(x, prof.x)
            assert np.array_equal(z, prof.z)
            assert np.array_equal(th, prof.theta)
            k = len(prof) // 3
            one = prof.eval_at(float(prof.t[k]))
            assert all(type(v) is float for v in one)
            assert one == (x[k], z[k], th[k])

    def test_extension_pieces(self, cfg):
        curve, _ = rs.extend_separatrix(ExtensionSpec(3, (0.5, 0.0)), cfg)
        x, z, th = curve.eval_at(curve.t)
        # at a junction time the samples hold the left piece's value and the
        # evaluator takes the right piece; the two agree to rounding
        inner = ~np.isin(curve.t, curve.junctions)
        assert np.array_equal(x[inner], curve.x[inner])
        assert np.array_equal(th[inner], curve.theta[inner])
        assert np.max(np.abs(z - curve.z)) <= 1e-12

    def test_eval_at_needs_an_evaluator(self, cfg):
        # a profile read from CSV is its samples and nothing between them
        buf = io.StringIO()
        rs.build_profile(rs.full_curve(2.0, cfg)).write_csv(buf)
        buf.seek(0)
        again = ProfileCurve.read_csv(buf)
        for tq in (float(again.t[3]), again.t):
            with pytest.raises(ValueError, match="profile has no evaluator"):
                again.eval_at(tq)


def _stencils(rng, m, max_ratio):
    """m random stencils of width 1: their four nonzero offsets, shape (4, m).

    Neighbouring gaps differ by a factor of up to max_ratio.
    """
    gaps = np.exp(rng.uniform(0.0, math.log(max_ratio), (4, m)))
    left, right = -np.cumsum(gaps[1::-1], axis=0)[::-1], np.cumsum(gaps[2:], axis=0)
    return np.concatenate((left, right)) / gaps.sum(axis=0)


class TestFivePoint:
    @pytest.mark.parametrize("max_ratio", [1.0 + 1e-9, 4.0, 1e2, 1e3])
    def test_weights_differentiate_quartics(self, max_ratio):
        # a 5-point stencil fits a quartic exactly, so p'(0) = c1 and
        # p''(0) = 2 c2 up to the rounding of the values it reads
        rng = np.random.default_rng(int(max_ratio))
        m = 2000
        d = _stencils(rng, m, max_ratio)
        gaps = np.diff(np.concatenate((d[:2], np.zeros((1, m)), d[2:])), axis=0)
        ratio = np.max(np.maximum(gaps[1:] / gaps[:-1], gaps[:-1] / gaps[1:]), axis=0)
        assert np.all(ratio <= max_ratio * (1 + 1e-9)) and np.max(ratio) > 0.5 * max_ratio
        c = rng.normal(size=(5, m))
        f = [c[0] + u * (c[1] + u * (c[2] + u * (c[3] + u * c[4]))) for u in d]
        w1, w2 = _five_point_weights(list(d))
        for w, want in ((w1, c[1]), (w2, 2.0 * c[2])):
            got = sum(wj * (fj - c[0]) for wj, fj in zip(w, f))
            scale = sum(np.abs(wj) * (np.abs(fj) + np.abs(c[0])) for wj, fj in zip(w, f))
            assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * scale)


class TestVerify:
    def test_sphere_tight(self):
        rep = rs.verify_profile(rs.sphere_profile(), 1e-3)
        assert rep.max_curvature_residual <= 1e-8
        assert rep.monotone_violations == 0

    def test_cylinder_exact(self):
        rep = rs.verify_profile(rs.cylinder_profile(3.0, n=301), 1e-3)
        assert rep.max_curvature_residual <= 1e-12
        assert rep.max_speed_residual <= 1e-12

    def test_periodic_budget(self, periodic_setup):
        _, _, prof, _, _ = periodic_setup
        rep = rs.verify_profile(prof, 1e-3)
        assert rep.max_curvature_residual <= 1e-4
        assert rep.monotone_violations == 0

    def test_csv_points_are_its_rows(self, periodic_setup):
        # without an evaluator the estimator reads the samples themselves, at
        # any step h: h sets only the collar and the monotone threshold
        _, _, prof, _, _ = periodic_setup
        rows = ProfileCurve(prof.t, prof.x, prof.z, prof.theta)
        for h in (1e-3, 0.05):
            rep = rs.verify_profile(rows, h)
            assert (rep.n_points, rep.h, rep.end_trim) == (len(prof), h, 10 * h)
            assert rep.max_curvature_residual <= 5e-7
            assert rep.max_speed_residual <= 1e-8
            assert rep.monotone_violations == 0

    DEFECTS = {
        "scale": lambda t, z: z * (1.0 + 1e-4),
        "wave": lambda t, z: z * (1.0 + 1e-4 * np.sin(5.0 * t)),
        "kink": lambda t, z: z + 1e-3 * np.abs(t - t[len(t) // 2]),
        "step": lambda t, z: z + 1e-4 * (t > t[len(t) // 2]),
    }

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("lam, span", [(1.8, 3.0), (4.0, 2.0)], ids=["clamped", "periodic"])
    def test_seeded_defects_fail(self, cfg, lam, span, defect):
        # the samples `curve --lambda lam --span span` writes pass; each defect
        # of z fails by at least twice the CLI's 1e-4 threshold
        run_cfg = replace(cfg, theta_targets=(), max_time=span)
        back = rs.integrate(PhasePoint(math.pi, lam), "backward", run_cfg)
        prof = rs.build_profile(rs.concat(back, rs.reflect(back, 1)))
        clean = ProfileCurve(prof.t, prof.x, prof.z, prof.theta)
        assert rs.verify_profile(clean, 1e-3).max_curvature_residual <= 1e-4
        bad = ProfileCurve(prof.t, prof.x, self.DEFECTS[defect](prof.t, prof.z), prof.theta)
        assert rs.verify_profile(bad, 1e-3).max_curvature_residual >= 2e-4

    def test_too_many_steps_rejected(self):
        # checked before the resample grid is allocated
        prof = rs.cylinder_profile(3.0, n=301)
        for h in (1e-300, 0.5 * 3.0 / MAX_RESAMPLE_STEPS):
            with pytest.raises(ValueError):
                rs.verify_profile(prof, h)

    def test_tiny_span_rejected(self):
        # no stencil centre outside the collar, or fewer than 5 points
        t = np.arange(4) * 0.1
        for prof, h in ((rs.cylinder_profile(0.1, n=5), 0.012),
                        (rs.cylinder_profile(0.003, n=2), 1e-3),
                        (ProfileCurve(t, t, np.ones(4), np.zeros(4)), 1e-3)):
            with pytest.raises(TooFewSamplesError):
                rs.verify_profile(prof, h)


class TestReconstructionSweep:
    @pytest.mark.parametrize("lam", [1.1, 1.3, 1.6, 2.2, 2.9, 3.5, 5.0, 8.0])
    def test_unit_norm_across_the_family(self, cfg, lam):
        # the package's whole point: every emitted curve reconstructs
        # k1^2 + k2^2 = 1 from positions alone, with the default collar
        run_cfg = replace(cfg, theta_targets=(), max_time=8.0)
        back = rs.integrate(PhasePoint(math.pi, lam), "backward", run_cfg)
        full = rs.concat(back, rs.reflect(back, 1))
        rep = rs.verify_profile(rs.build_profile(full), 1e-3)
        assert rep.max_curvature_residual <= 1e-4
        assert rep.monotone_violations == 0


class TestCsv:
    def test_roundtrip_bit_exact(self, cfg):
        prof = rs.build_profile(rs.full_curve(2.0, cfg))
        buf = io.StringIO()
        prof.write_csv(buf)
        buf.seek(0)
        again = ProfileCurve.read_csv(buf)
        assert np.array_equal(again.t, prof.t)
        assert np.array_equal(again.x, prof.x)
        assert np.array_equal(again.z, prof.z)
        assert np.array_equal(again.theta, prof.theta)

    def test_write_csv_is_the_row_loop_at_block_edges(self, format_branches):
        # block writing gives the bytes of one orjson.dumps per value on each
        # side of a block edge, with a value for every branch of the float
        # text (a profile has at least 2 samples; the mesh export tests
        # cover 0 and 1 rows, and NaN and inf)
        rng = np.random.default_rng(7)
        special = format_branches
        for n in (2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1):
            t = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 0.5 * n
            x, theta = (np.resize(special, n) * rng.choice([1.0, -1.0], n) for _ in range(2))
            z = np.resize(special[special > 0.0], n)
            prof = ProfileCurve(t, x, z, theta)
            buf = io.StringIO()
            prof.write_csv(buf)
            ref = "t,x,z,theta\n" + "".join(
                ",".join(orjson.dumps(v).decode() for v in row) + "\n"
                for row in zip(t.tolist(), x.tolist(), z.tolist(), theta.tolist()))
            assert buf.getvalue() == ref

    def test_header_validated(self):
        with pytest.raises(ValueError):
            ProfileCurve.read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_z_positivity_enforced(self):
        with pytest.raises(DegenerateProfileError):
            ProfileCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                         np.array([1.0, 0.0]), np.array([0.0, 0.0]))

    def test_non_finite_samples_rejected(self):
        # a file would spell NaN and inf as null, so no profile holds them
        with pytest.raises(DegenerateProfileError, match=r"profile x\[1\] is nan, not finite"):
            ProfileCurve([0, 1], [0, math.nan], [1, math.inf], [0, 0])
        for name in ("t", "x", "z", "theta"):
            columns = {"t": [0.0, 1.0, 2.0], "x": [0.0] * 3, "z": [1.0] * 3, "theta": [0.0] * 3}
            for bad in (math.nan, math.inf, -math.inf):
                columns[name][2] = bad
                with pytest.raises(DegenerateProfileError, match=rf"profile {name}\[2\] is "):
                    ProfileCurve(**columns)
        # revolve checks the arrays again: a profile's arrays can change after it is built
        prof = ProfileCurve([0.0, 1.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0])
        for name, bad in (("x", math.nan), ("z", math.inf)):
            getattr(prof, name)[1] = bad
            with pytest.raises(DegenerateProfileError, match="not finite"):
                rs.revolve(prof, 8)
            getattr(prof, name)[1] = 1.0

    def test_write_csv_rejects_a_sample_made_non_finite(self, tmp_path):
        # write_csv checks the arrays again, before it opens the path, so no
        # file with a null is written and none is left behind
        prof = ProfileCurve([0, 1], [0, 1], [1, 1], [0, 0])
        x = prof.x
        prof.x[1] = math.nan
        out = tmp_path / "p.csv"
        with pytest.raises(DegenerateProfileError, match=r"profile x\[1\] is nan, not finite"):
            prof.write_csv(out)
        assert not out.exists() and prof.x is x
        prof.x[1] = 1.0
        prof.write_csv(out)
        assert out.read_bytes() == b"t,x,z,theta\n0.0,0.0,1.0,0.0\n1.0,1.0,1.0,0.0\n"
