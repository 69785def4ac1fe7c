import io
import math

import numpy as np
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
from rotsurf.profile import MAX_RESAMPLE_STEPS, ROW_BLOCK
from rotsurf.spline import MAX_GAP_RATIO, interpolate

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

    def test_spline_fallback_vector_and_scalar(self, cfg):
        prof = rs.build_profile(rs.full_curve(2.0, cfg))
        buf = io.StringIO()
        prof.write_csv(buf)
        buf.seek(0)
        again = ProfileCurve.read_csv(buf)
        ts = np.linspace(*again.span, 97)
        x, z, th = again.eval_at(ts)
        assert x.shape == z.shape == th.shape == ts.shape
        for k in (0, 40, 96):
            assert again.eval_at(float(ts[k])) == (x[k], z[k], th[k])
        assert np.max(np.abs(again.eval_at(again.t)[1] - again.z)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 1000])
    def test_vector_spline_is_the_per_column_spline(self, n):
        # one interpolant of the stacked columns equals three scalar ones
        # bit for bit: the data only meet elementwise operations
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(0.2, 3.0, n)) * 1e-2  # non-uniform times
        cols = (rng.normal(size=n), rng.uniform(0.5, 2.0, n),
                np.cumsum(rng.uniform(0.0, 0.1, n)))
        prof = ProfileCurve(t, *cols)
        dense = np.linspace(t[0], t[-1], 4001)
        alone = [interpolate(t, col[None]) for col in cols]
        for ts in (t, dense):
            got = prof.eval_at(ts)
            for g, fit in zip(got, alone):
                ref = fit(ts)[0]
                assert g.shape == ts.shape
                assert np.array_equal(g.view(np.int64), ref.view(np.int64))
        tq = float(dense[1234])
        one = prof.eval_at(tq)
        assert all(type(v) is float for v in one)
        assert one == tuple(float(fit(np.array([tq]))[0, 0]) for fit in alone)

    def test_scipy_make_interp_spline_is_the_same_spline(self, cfg):
        # The reference implementation of the same not-a-knot spline.  Both
        # solve for it in rounding arithmetic: within 1e-12 of the largest
        # value on random data with noise (the worst seen is 1.2e-13) and
        # on a profile CSV (2e-14).
        interp = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(11)
        cases = []
        for n in list(range(2, 9)) + [1000]:
            t = np.cumsum(rng.uniform(0.2, 3.0, n)) * 1e-2
            cases.append((t, np.stack((rng.normal(size=n), rng.uniform(0.5, 2.0, n),
                                       np.cumsum(rng.uniform(0.0, 0.1, n))))))
        buf = io.StringIO()
        rs.build_profile(rs.full_curve(1.8, cfg)).write_csv(buf)  # clamped, as verify reads it
        buf.seek(0)
        csv = ProfileCurve.read_csv(buf)
        cases.append((csv.t, np.stack((csv.x, csv.z, csv.theta))))
        for t, ys in cases:
            got, ref = self._both(interp, t, ys)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ys)), len(t)

    @staticmethod
    def _both(interp, t, ys):
        n = len(t)
        ts = np.concatenate((t, np.linspace(t[0], t[-1], 2001)))
        ref = interp.make_interp_spline(t, ys.T, k=5 if n > 6 else min(3, n - 1))(ts).T
        return interpolate(t, ys)(ts), ref

    @staticmethod
    def _irregular(n, r):
        """Meshes whose neighbouring gaps differ by the factor r: one step, alternating, in pairs."""
        k = np.arange(n - 1)
        for small in (k >= (n - 1) // 2, k % 2 == 0, k // 2 % 2 == 0):
            yield np.concatenate(([0.0], np.cumsum(np.where(small, 1.0 / r, 1.0)))) * 1e-2

    @pytest.mark.parametrize("r", [4.0, MAX_GAP_RATIO])
    def test_scipy_spline_on_irregular_samples(self, r):
        # The Hermite conditions lose about eps * r^3 to rounding where
        # neighbouring gaps differ by r, and the problem itself grows ill
        # conditioned: scipy's own error against a 50-digit solve is about
        # 4e-13 at r = 16, where the package's is 1.4e-12.  Seen here at
        # most: 2.5e-14 (smooth data) and 1.1e-12 (noise) at r = 4;
        # 3.7e-12 and 7.9e-11 at r = 16.
        interp = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(int(r))
        for n in (3, 5, 7, 8, 9, 10, 12, 40, 300):
            for t in self._irregular(n, r):
                smooth = np.stack((np.sin(3 * t / t[-1]), np.cos(2 * t / t[-1]) + t / t[-1]))
                for ys, bound in ((smooth, 2e-11 if r > 4 else 1e-13),
                                  (rng.normal(size=(2, n)), 3e-10 if r > 4 else 5e-12)):
                    got, ref = self._both(interp, t, ys)
                    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ys)), (n, r)

    @pytest.mark.parametrize("r", [17.0, 1e2, 1e5])
    def test_irregular_samples_past_the_limit_refused(self, r):
        for n in (4, 7, 300):
            for t in self._irregular(n, r):
                with pytest.raises(ValueError, match="neighbouring time gaps differ by a factor of"):
                    interpolate(t, np.ones((1, n)))


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

    def test_coarse_step_rejected(self):
        prof = rs.sphere_profile(n=1201)
        with pytest.raises(TooFewSamplesError):
            rs.verify_profile(prof, 0.01)  # sample gap ~3.7e-3

    def test_too_many_steps_rejected(self):
        # checked before the resample grid is allocated
        prof = rs.cylinder_profile(3.0, n=301)
        for h in (1e-300, 0.5 * 3.0 / MAX_RESAMPLE_STEPS):
            with pytest.raises(ValueError):
                rs.verify_profile(prof, h)

    def test_tiny_span_rejected(self):
        prof = rs.cylinder_profile(0.1, n=5)
        with pytest.raises(TooFewSamplesError):
            rs.verify_profile(prof, 0.012)


class TestReconstructionSweep:
    @pytest.mark.parametrize("lam", [1.1, 1.3, 1.6, 2.2, 2.9, 3.5, 5.0, 8.0])
    def test_unit_norm_across_the_family(self, cfg, lam):
        # the package's whole point: every emitted curve reconstructs
        # k1^2 + k2^2 = 1 from positions alone.  Incomplete heights get a
        # fixed interior window: the cusp coefficient at their contact ends
        # scales like 1/z0, so the difference-quotient collar widens for
        # limits near the axis and the default 10h trim is not uniform.
        from dataclasses import replace

        run_cfg = replace(cfg, theta_targets=(), max_time=8.0)
        back = rs.integrate(PhasePoint(math.pi, lam), "backward", run_cfg)
        full = rs.concat(back, rs.reflect(back, 1))
        prof = rs.build_profile(full)
        trim = None if back.termination.kind == "time_cap" else 0.25
        rep = rs.verify_profile(prof, 1e-3, end_trim=trim)
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

    def test_write_csv_is_the_row_loop_at_block_edges(self):
        # bulk %-formatting gives the bytes of one f-string per row on each
        # side of a block edge, including signed zero, subnormals and huge
        # values (a profile has at least 2 samples; the mesh export tests
        # cover 0 and 1 rows)
        rng = np.random.default_rng(7)
        special = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0])
        for n in (2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1):
            t = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 0.5 * n
            x, theta = (np.resize(special, n) * rng.choice([1.0, -1.0], n) for _ in range(2))
            z = np.resize(np.abs(special[1:]), n)
            prof = ProfileCurve(t, x, z, theta)
            buf = io.StringIO()
            prof.write_csv(buf)
            ref = "t,x,z,theta\n" + "".join(
                f"{a:.17g},{b:.17g},{c:.17g},{d:.17g}\n" for a, b, c, d in zip(t, x, z, theta))
            assert buf.getvalue() == ref

    def test_header_validated(self):
        with pytest.raises(ValueError):
            ProfileCurve.read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_z_positivity_enforced(self):
        with pytest.raises(DegenerateProfileError):
            ProfileCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                         np.array([1.0, 0.0]), np.array([0.0, 0.0]))
