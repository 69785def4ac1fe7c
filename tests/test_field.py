import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rotsurf as rs
from rotsurf import PhasePoint
from rotsurf.errors import DomainError
from rotsurf.field import slope

SQRT2 = math.sqrt(2.0)


def dtheta_at(tr, t):
    """theta' of the field at the dense state of tr at time t."""
    th, z, _ = tr.state_at(t)
    return slope(th, z)


class TestDomain:
    def test_boundary_point_excluded(self):
        assert not rs.in_domain(PhasePoint(0.0, 1.0))

    def test_interior_above_zero_cosine(self):
        assert rs.in_domain(PhasePoint(math.pi / 2, 0.5))

    def test_strict_inequality(self):
        assert rs.in_domain(PhasePoint(math.pi, 1.0000001))
        assert not rs.in_domain(PhasePoint(math.pi, 1.0))

    def test_nonpositive_z_rejected(self):
        with pytest.raises(DomainError):
            PhasePoint(0.3, 0.0)
        with pytest.raises(DomainError):
            PhasePoint(0.3, -1.0)


class TestFieldEval:
    def test_sphere_point(self):
        v = rs.field_eval(PhasePoint(math.pi, SQRT2))
        assert v.dtheta == pytest.approx(SQRT2 / 2, abs=1e-15)
        assert abs(v.dz) <= 1e-15

    def test_vertical_tangent(self):
        v = rs.field_eval(PhasePoint(math.pi / 2, 5.0))
        assert v.dtheta == pytest.approx(1.0, abs=1e-15)
        assert v.dz == pytest.approx(1.0, abs=1e-15)

    def test_boundary_raises(self):
        with pytest.raises(DomainError):
            rs.field_eval(PhasePoint(0.0, 1.0))

    def test_positive_slope_inside(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            theta = rng.uniform(-3 * math.pi, 3 * math.pi)
            z = abs(math.cos(theta)) + rng.uniform(1e-6, 5.0)
            v = rs.field_eval(PhasePoint(theta, z))
            assert v.dtheta > 0.0
            assert abs(v.dz) <= 1.0


class TestCurvatures:
    def test_sphere(self):
        c = rs.curvatures(PhasePoint(math.pi, SQRT2))
        assert c.k1 == pytest.approx(1 / SQRT2, abs=1e-15)
        assert c.k2 == pytest.approx(1 / SQRT2, abs=1e-15)

    def test_vertical(self):
        for z in (0.5, 1.0, 3.0):
            c = rs.curvatures(PhasePoint(math.pi / 2, z))
            assert c.k1 == pytest.approx(1.0, abs=1e-15)
            assert abs(c.k2) <= 1e-15

    def test_diagonal(self):
        c = rs.curvatures(PhasePoint(math.pi / 4, 1.0))
        assert c.k1 == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert c.k2 == pytest.approx(-math.sqrt(0.5), rel=1e-15)

    def test_norm_is_one_randomly(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10_000):
            theta = rng.uniform(0.0, 2 * math.pi)
            z = abs(math.cos(theta)) + rng.uniform(1e-9, 10.0)
            c = rs.curvatures(PhasePoint(theta, z))
            worst = max(worst, abs(c.k1 ** 2 + c.k2 ** 2 - 1.0))
        assert worst <= 1e-12


class TestThetaSecond:
    def test_vanishes_at_pi(self):
        for lam in (1.2, 2.0, 7.0):
            assert rs.theta_second(PhasePoint(math.pi, lam)) == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_at_half_pi(self):
        for z in (0.4, 1.0, 6.0):
            assert rs.theta_second(PhasePoint(math.pi / 2, z)) == pytest.approx(0.0, abs=1e-14)

    def test_matches_slope_derivative_along_flow(self, cfg):
        # theta'' from the closed form vs a finite difference of theta'
        # along an actual trajectory.
        tr = rs.backward_trajectory(2.0, cfg)
        lo, hi = tr.t_span
        for t in np.linspace(lo + 0.3, hi - 0.3, 11):
            th, z, _ = tr.state_at(float(t))
            want = rs.theta_second(PhasePoint(th, z))
            d = 1e-5
            sp = dtheta_at(tr, float(t) + d)
            sm = dtheta_at(tr, float(t) - d)
            assert (sp - sm) / (2 * d) == pytest.approx(want, rel=2e-4, abs=1e-7)

    def test_separatrix_small_angle(self, launch):
        # near the corner theta'' ~ s/3, small but nonzero
        t = launch.crossing_time(1e-3)
        th, z, _ = launch.state_at(t)
        val = rs.theta_second(PhasePoint(th, z))
        d = 2e-3
        fd = (dtheta_at(launch, t + d) - dtheta_at(launch, t - d)) / (2 * d)
        assert val == pytest.approx(fd, rel=1e-3)
        assert abs(val) < 0.1


class TestAsymptotics:
    def test_r2_direct(self):
        rep = rs.asymptotics(PhasePoint(math.pi / 2, SQRT2))
        assert rep.r2 == pytest.approx(SQRT2, rel=1e-15)

    def test_all_finite_interior(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            theta = rng.uniform(1e-3, math.pi - 1e-3)
            z = abs(math.cos(theta)) + rng.uniform(1e-6, 4.0)
            rep = rs.asymptotics(PhasePoint(theta, z))
            for v in (rep.r1, rep.r2, rep.r3, rep.r4, rep.theta2):
                assert math.isfinite(v)

    def test_angle_range_enforced(self):
        with pytest.raises(DomainError):
            rs.asymptotics(PhasePoint(3.5, 2.0))

    def test_separatrix_corner_limits(self, launch):
        # r1, r2, r3 -> 0 and r4 -> 4 sqrt(2)/3 approaching the corner;
        # the vanishing ratios decay like s^2/9, s/4, sqrt(s)
        t = launch.crossing_time(1e-4)
        th, z, _ = launch.state_at(t)
        rep = rs.asymptotics(PhasePoint(th, z))
        t_far = launch.crossing_time(1e-2)
        th_far, z_far, _ = launch.state_at(t_far)
        far = rs.asymptotics(PhasePoint(th_far, z_far))
        assert rep.r1 < far.r1 and rep.r1 < 2e-3
        assert rep.r2 < far.r2 and rep.r2 < 0.04
        assert rep.r3 < far.r3 and rep.r3 < 0.4
        assert rep.r4 == pytest.approx(rs.R4_LIMIT, rel=1e-2)
        # recorded approach rate: at theta = 1e-2 the ratio is still ~4% away
        t2 = launch.crossing_time(1e-2)
        th2, z2, _ = launch.state_at(t2)
        rep2 = rs.asymptotics(PhasePoint(th2, z2))
        dev = abs(rep2.r4 / rs.R4_LIMIT - 1.0)
        assert 0.02 < dev < 0.06


class TestAlgebraicInvariants:
    @settings(max_examples=300, derandomize=True)
    @given(
        theta=st.floats(-20.0, 20.0),
        gap=st.floats(1e-12, 50.0),
    )
    def test_constraint_identity(self, theta, gap):
        z = abs(math.cos(theta)) + gap
        p = PhasePoint(theta, z)
        if not rs.in_domain(p):
            return
        v = rs.field_eval(p)
        assert abs(v.dtheta ** 2 + math.cos(theta) ** 2 / z ** 2 - 1.0) <= 1e-12

    @settings(max_examples=300, derandomize=True)
    @given(
        theta=st.floats(0.0, 2 * math.pi),
        z=st.floats(1e-6, 1.0),
    )
    def test_low_height_slope_bound(self, theta, z):
        # below z = 1 the height component dominates: |sin| >= theta'
        p = PhasePoint(theta, z)
        if not rs.in_domain(p):
            return
        v = rs.field_eval(p)
        assert v.dtheta <= abs(math.sin(theta)) + 1e-12

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            theta = rng.uniform(0.0, 2 * math.pi)
            z = abs(math.cos(theta)) + rng.uniform(1e-9, 5.0)
            a = rs.field_eval(PhasePoint(theta, z))
            b = rs.field_eval(PhasePoint(2 * math.pi - theta, z))
            assert a.dtheta == pytest.approx(b.dtheta, abs=1e-14)
            assert a.dz == pytest.approx(-b.dz, abs=1e-14)
