import functools
import math

import pytest

import rotsurf as rs
import rotsurf.shooting
from rotsurf.errors import InvalidLambdaError

from oracles import LAMBDA0_REF

SQRT2 = math.sqrt(2.0)
LAMBDA0_13_DIGITS = 3.2136243986497


class TestClassify:
    def test_sphere_special_case(self, cfg):
        k = rs.classify_lambda(SQRT2, cfg)
        assert k.tag == rs.SPHERE
        assert k.limit_point == (math.pi / 2, 0.0)
        assert k.span == pytest.approx(SQRT2 * math.pi / 2, rel=1e-15)

    def test_low_incomplete(self, cfg):
        k = rs.classify_lambda(1.2, cfg)
        assert k.tag == rs.INCOMPLETE_LOW
        th0, z0 = k.limit_point
        assert 0.0 < z0 < 1.0
        assert math.pi / 2 < th0 < math.pi
        assert k.span is not None and math.isfinite(k.span)

    def test_high_incomplete(self, cfg):
        # 3.0 < lambda0 ~ 3.2136, so it dies on the boundary despite being large
        k = rs.classify_lambda(3.0, cfg)
        assert k.tag == rs.INCOMPLETE_HIGH
        th0, z0 = k.limit_point
        assert 0.0 < z0 < 1.0
        assert 0.0 < th0 < math.pi / 2

    def test_periodic_above_critical(self, cfg, lambda0):
        for lam in (lambda0.value + 0.5, 10.0):
            k = rs.classify_lambda(lam, cfg)
            assert k.tag == rs.PERIODIC
            assert k.crossing_z > 1.0

    def test_rejects_low_lambda(self, cfg):
        for lam in (1.0, 0.3, -2.0, math.inf, math.nan):
            with pytest.raises(InvalidLambdaError):
                rs.classify_lambda(lam, cfg)

    def test_limit_point_on_boundary(self, cfg):
        for lam in (1.1, 1.3, 2.0, 2.9):
            k = rs.classify_lambda(lam, cfg)
            th0, z0 = k.limit_point
            assert z0 == pytest.approx(abs(math.cos(th0)), abs=1e-8)

    def test_ambiguity_band_near_critical(self, cfg, lambda0):
        k = rs.classify_lambda(lambda0.value, cfg)
        assert k.tag in (rs.SEPARATRIX, rs.PERIODIC, rs.INCOMPLETE_HIGH)


class TestFindLambda0:
    def test_above_sqrt2(self, lambda0):
        assert lambda0.value > SQRT2

    def test_bracket_contains_value_and_launch(self, lambda0, launch):
        lo, hi = lambda0.bracket
        assert lo <= lambda0.value <= hi
        assert hi - lo <= 1e-8
        z_launch = float(launch.zs[-1])
        assert lo - 1e-7 <= z_launch <= hi + 1e-7

    def test_agreement_with_launch(self, lambda0, launch):
        assert abs(lambda0.value - float(launch.zs[-1])) <= 1e-6

    def test_matches_independent_oracle(self, lambda0):
        assert lambda0.value == pytest.approx(LAMBDA0_REF, abs=5e-8)

    def test_thirteen_digits(self, cfg):
        # bisection and series launch agree on 13 digits once the steps are
        # 10x tighter (at the default tolerances bisection stops at ...95643)
        tight = cfg.tightened(10.0)
        for value in (rs.find_lambda0(tight, tol=1e-13).value,
                      float(rs.launch_separatrix(tight).zs[-1])):
            assert abs(value - LAMBDA0_13_DIGITS) <= 5e-14

    def test_predicate_single_threshold(self, cfg, lambda0):
        # crossing predicate flips exactly once over a lambda grid
        grid = [1.5, 2.0, 2.5, 3.0, 3.1, 3.2, 3.25, 3.5, 4.0, 6.0]
        flags = [rs.backward_trajectory(l, cfg).termination.kind == "theta_crossing"
                 for l in grid]
        flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert flips == 1
        # and the flip brackets the reported value
        idx = flags.index(True)
        assert grid[idx - 1] < lambda0.value < grid[idx]


class TestMonotonicityAndInjectivity:
    def test_crossing_heights_increase(self, cfg, lambda0):
        lams = [lambda0.value + d for d in (0.2, 0.5, 1.0, 2.0, 4.0)]
        heights = [rs.classify_lambda(l, cfg).crossing_z for l in lams]
        assert all(b > a for a, b in zip(heights, heights[1:]))

    def test_limit_points_injective(self, cfg):
        lams = [1.05, 1.15, 1.3, 1.6, 2.0, 2.4, 2.8, 3.05]
        pts = [rs.classify_lambda(l, cfg).limit_point for l in lams]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                gap = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                assert gap > 1e-6

    def test_limit_theta_range_split_by_sqrt2(self, cfg):
        # below sqrt(2) the limit angle is past pi/2, above it is before pi/2
        for lam in (1.1, 1.35):
            assert rs.classify_lambda(lam, cfg).limit_point[0] > math.pi / 2
        for lam in (1.5, 2.5, 3.1):
            assert rs.classify_lambda(lam, cfg).limit_point[0] < math.pi / 2


class TestPortrait:
    def test_sweep_ordering(self, cfg, lambda0):
        mid = 0.5 * (SQRT2 + lambda0.value)
        rep = rs.portrait([1.2, SQRT2, mid, lambda0.value + 0.5], cfg,
                          tol_lambda0=1e-6)
        tags = [e.klass.tag for e in rep.entries]
        assert tags == [rs.INCOMPLETE_LOW, rs.SPHERE, rs.INCOMPLETE_HIGH, rs.PERIODIC]
        lams = [e.lam for e in rep.entries]
        assert lams == sorted(lams)

    def test_polylines_cover_one_lift(self, cfg, lambda0):
        rep = rs.portrait([lambda0.value + 0.5], cfg, tol_lambda0=1e-6)
        poly = rep.entries[0].polyline
        assert poly.shape[1] == 2
        assert poly[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert poly[-1, 0] == pytest.approx(2 * math.pi, abs=1e-9)
        assert len(poly) <= 400

    def test_no_duplicate_limit_points(self, cfg):
        rep = rs.portrait([1.2, 1.4, 2.0, 2.6], cfg, tol_lambda0=1e-6)
        pts = [e.klass.limit_point for e in rep.entries if e.klass.limit_point]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]) > 1e-6

    def test_empty_sweep_still_finds_lambda0(self, cfg):
        rep = rs.portrait([], cfg, tol_lambda0=1e-6)
        assert rep.entries == ()
        assert rep.lambda0.value == pytest.approx(LAMBDA0_REF, abs=1e-5)

    def test_per_entry_errors_do_not_abort(self, cfg):
        rep = rs.portrait([0.5, 2.0], cfg, tol_lambda0=1e-6)
        bad = [e for e in rep.entries if e.error is not None]
        good = [e for e in rep.entries if e.error is None]
        assert len(bad) == 1 and bad[0].lam == 0.5
        assert len(good) == 1 and good[0].klass.tag == rs.INCOMPLETE_HIGH

    def test_classification_stable_under_tightening(self, cfg, lambda0):
        tight = cfg.tightened(10.0)
        for lam in (1.2, 2.0, lambda0.value + 0.5):
            assert rs.classify_lambda(lam, cfg).tag == rs.classify_lambda(lam, tight).tag


class TestMemo:
    """backward_trajectory keeps its last result, and only that one."""

    HEIGHTS = (1.2, 2.5, 4.0)

    @pytest.fixture
    def integrations(self, monkeypatch):
        # other tests may have left a matching entry
        rs.backward_trajectory.cache_clear()
        calls = []
        real = rs.shooting.integrate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rs.shooting, "integrate", counted)
        yield calls
        rs.backward_trajectory.cache_clear()

    def test_classify_then_draw_integrates_once(self, cfg, integrations):
        rs.classify_lambda(4.0, cfg)
        rs.full_curve(4.0, cfg)
        assert len(integrations) == 1

    def test_no_result_survives_to_the_next_height(self, cfg, integrations):
        per_pass = []
        for _ in range(2):
            before = len(integrations)
            for lam in self.HEIGHTS:
                rs.classify_lambda(lam, cfg)
                rs.full_curve(lam, cfg)
            per_pass.append(len(integrations) - before)
        assert per_pass == [3, 3]
        assert rs.backward_trajectory.cache_info().maxsize == rs.shooting.MEMO_SIZE == 1

    def test_full_curve_is_the_unmemoized_curve(self, cfg, integrations):
        for lam in self.HEIGHTS:
            rs.classify_lambda(lam, cfg)
            got = rs.full_curve(lam, cfg)
            half = rs.integrate(rs.PhasePoint(math.pi, lam), "backward", cfg.with_targets(0.0))
            ref = rs.with_mirror(half)
            assert got.ts.tobytes() == ref.ts.tobytes()
            assert got.ys.tobytes() == ref.ys.tobytes()
            assert got.table.keys() == ref.table.keys()
            for key in ref.table:
                assert got.table[key].tobytes() == ref.table[key].tobytes(), key
            assert (got.left_info, got.right_info) == (ref.left_info, ref.right_info)
        assert len(integrations) == len(self.HEIGHTS)

    def test_returned_arrays_are_read_only(self, cfg):
        traj = rs.backward_trajectory(4.0, cfg)
        with pytest.raises(ValueError):
            traj.ts[0] = 0.0
        for col in (traj.ys, *traj.table.values()):
            assert not col.flags.writeable
        assert traj is rs.backward_trajectory(4.0, cfg)


@functools.lru_cache(maxsize=None)
def plain_crosses(lam, cfg):
    """The crossing predicate, integrated once per (height, config)."""
    return rs.backward_trajectory(lam, cfg).termination.kind == "theta_crossing"


def plain_bisection(cfg, tol):
    """The doubling-plus-bisection loop integrating every height it visits.

    Returns the result and the visited heights in order, for comparison
    with find_lambda0's skips.  The answers are cached across calls: loops
    at different tolerances share their first heights.
    """
    visited = []

    def crosses(lam):
        visited.append(lam)
        return plain_crosses(lam, cfg)

    lo, hi = SQRT2, 2.0 * SQRT2
    while not crosses(hi):
        lo, hi = hi, 2.0 * hi
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if crosses(mid):
            hi = mid
        else:
            lo = mid
        iters += 1
    return rs.Lambda0Result(0.5 * (lo + hi), (lo, hi), iters), visited


def assert_loop_skips_only_decided(heights, visited, cfg):
    """The integrated heights are the probes, then the undecided loop heights.

    The probes are the heights off the plain loop's path; their answers are
    the facts, and the loop integrates exactly its heights strictly between
    the highest no and the lowest yes.
    """
    on_path = set(visited)
    k = next((i for i, h in enumerate(heights) if h in on_path), len(heights))
    probes, loop = heights[:k], heights[k:]
    no_at = max((h for h in probes if not plain_crosses(h, cfg)), default=-math.inf)
    yes_at = min((h for h in probes if plain_crosses(h, cfg)), default=math.inf)
    assert loop == [h for h in visited if no_at < h < yes_at]
    return probes


SKIP_CONFIGS = {
    "default": rs.IntegratorConfig(),
    "tightened": rs.IntegratorConfig().tightened(10.0),
    "loose": rs.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9),
}


class TestCertifiedSkip:
    """find_lambda0 integrates only heights no earlier answer decides, with the plain result."""

    PINNED = rs.Lambda0Result(3.2136243981774015, (3.2136243955432233, 3.2136244008115797), 29)

    @pytest.fixture
    def heights(self, monkeypatch):
        # _crosses is called once per integrated height; start from an empty memo
        rs.backward_trajectory.cache_clear()
        calls = []
        real = rs.shooting._crosses

        def counted(lam, cfg):
            calls.append(lam)
            return real(lam, cfg)

        monkeypatch.setattr(rs.shooting, "_crosses", counted)
        yield calls
        rs.backward_trajectory.cache_clear()

    # tol -> heights find_lambda0 integrates and heights the plain loop
    # does, each on (default, tightened, loose)
    COUNTS = {
        1e-4: ((2, 2, 2), (17, 17, 17)),
        1e-6: ((3, 3, 3), (24, 24, 24)),
        1e-8: ((2, 2, 2), (31, 31, 31)),
        1e-10: ((2, 2, 2), (37, 37, 37)),
        1e-12: ((4, 4, 4), (44, 44, 44)),
        1e-13: ((7, 7, 7), (47, 47, 47)),
        1e-300: ((15, 14, 14), (55, 54, 54)),
    }

    @pytest.mark.parametrize("name", sorted(SKIP_CONFIGS))
    @pytest.mark.parametrize("tol", sorted(COUNTS))
    def test_equals_plain_bisection(self, name, tol, heights):
        cfg = SKIP_CONFIGS[name]
        got = rs.find_lambda0(cfg, tol=tol)
        want, visited = plain_bisection(cfg, tol)
        assert got == want
        index = list(SKIP_CONFIGS).index(name)
        assert (len(heights), len(visited)) == tuple(n[index] for n in self.COUNTS[tol])
        assert_loop_skips_only_decided(heights, visited, cfg)

    def test_default_solve_integrates_two_heights(self, cfg, launch, heights):
        # the launch estimate's two probes straddle the threshold, and no
        # midpoint of the loop falls between them
        res = rs.find_lambda0(cfg, tol=1e-8)
        assert res == self.PINNED
        e, s = float(launch.zs[-1]), 1e-8 / 8
        assert heights == [e - s, e + s]
        _, visited = plain_bisection(cfg, 1e-8)
        assert_loop_skips_only_decided(heights, visited, cfg)

    def test_launch_value_is_the_default_estimate(self, cfg, launch, heights):
        rs.find_lambda0(cfg, tol=1e-8, estimate=float(launch.zs[-1]))
        by_estimate = list(heights)
        heights.clear()
        rs.find_lambda0(cfg, tol=1e-8)
        assert heights == by_estimate

    # offset of the estimate from the launch value -> heights integrated
    OFFSETS = {1e-9: 3, -1e-9: 2, 3e-8: 7, -1e-6: 15, 1e-3: 24, -1e-3: 26}

    @pytest.mark.parametrize("offset", sorted(OFFSETS))
    def test_off_estimate_gallops_to_the_threshold(self, cfg, launch, heights, offset):
        res = rs.find_lambda0(cfg, tol=1e-8, estimate=float(launch.zs[-1]) + offset)
        assert res == self.PINNED
        assert len(heights) == self.OFFSETS[offset]
        _, visited = plain_bisection(cfg, 1e-8)
        probes = assert_loop_skips_only_decided(heights, visited, cfg)
        # the probes move away from the estimate 16-fold until they straddle it
        answers = [plain_crosses(h, cfg) for h in probes]
        assert answers[-2:] in ([False, True], [True, False])
        steps = [abs(b - a) for a, b in zip(probes[1:], probes[2:])]
        assert all(b / a == pytest.approx(16.0, rel=1e-3) for a, b in zip(steps, steps[1:]))

    @pytest.mark.parametrize("case", ["wrong", "nan", "inf", "seed_error"])
    def test_fallback_integrates_every_height(self, cfg, heights, monkeypatch, case):
        # no probe for an estimate that is not finite or whose lower probe
        # would not lie above sqrt(2), nor for a launch that fails
        kwargs = {}
        if case == "wrong":
            kwargs["estimate"] = SQRT2
        elif case in ("nan", "inf"):
            kwargs["estimate"] = float(case)
        else:
            def no_launch(cfg):
                raise rs.SeedError("forced")

            monkeypatch.setattr(rs.shooting, "launch_separatrix", no_launch)
        res = rs.find_lambda0(cfg, tol=1e-8, **kwargs)
        assert res == self.PINNED
        _, visited = plain_bisection(cfg, 1e-8)
        assert len(visited) == 31
        assert heights == visited

    # answer changes of the predicate over the 17 floats lo - 8 ulp .. lo + 8 ulp
    FLIPS = {"default": 1, "tightened": 5, "loose": 3}

    @pytest.mark.parametrize("name", sorted(SKIP_CONFIGS))
    def test_probe_floor_clears_the_non_monotone_heights(self, name):
        # Within a few ulps of the threshold the numerical predicate can flip
        # back and forth: on the tightened and loose configs it does (5 and 3
        # changes in 17 floats), while the default one is monotone there.
        # The widest band of flips measured, the loose config's, spans 32
        # ulps (its lowest yes sits at lo - 32 ulps).
        # A fact at such a height could answer another against its own
        # integration (under DP5, a floorless s = tol/2 probe turned the
        # tightened config's tol = 1e-300 result from ...702 into ...7046).
        # The floor keeps the facts thousands of ulps away, where the
        # answers are monotone on every config.
        cfg = SKIP_CONFIGS[name]
        lo, hi = rs.find_lambda0(cfg, tol=1e-300).bracket
        ulp = hi - lo
        scan = [plain_crosses(lo + k * ulp, cfg) for k in range(-8, 9)]
        assert scan[0] is False and scan[-1] is True
        flips = sum(a != b for a, b in zip(scan, scan[1:]))
        assert flips == self.FLIPS[name], scan
        floor = rs.shooting.PROBE_FLOOR
        for k in (1, 3, 10):
            assert not plain_crosses(lo - k * floor, cfg)
            assert plain_crosses(hi + k * floor, cfg)
