import importlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import rotsurf as rs
from rotsurf import IntegratorConfig, PhasePoint
from rotsurf.errors import (
    DomainError,
    NotOnAxisError,
    RangeError,
    SeedError,
    StepLimitError,
    StepUnderflowError,
)
from rotsurf.field import Z_MIN, domain_gap, slope, slope_sq
from rotsurf.integrate import (
    _A,
    _B,
    _D,
    _E3,
    _E5,
    _dense,
    _dense_stages,
    _dense_terms,
    _step_terms,
    bisect_root,
    corner_series,
    corner_series_slope,
)

integrate_mod = importlib.import_module("rotsurf.integrate")  # rs.integrate is the function

SQRT2 = math.sqrt(2.0)


def sphere_closed_form(t):
    return math.pi + t / SQRT2, SQRT2 * math.cos(t / SQRT2)


class TestScheme:
    def test_tableau_is_scipys(self):
        # every coefficient is the float of scipy's DOP853 tableau, bit for bit
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

        def bits(rows):
            return [[v.hex() for v in row] for row in np.asarray(rows, dtype=float).tolist()]

        full = np.zeros((16, 16))
        for i, row in enumerate(_A):
            full[i, :i] = row
        assert bits(full) == bits(coeffs.A)
        assert bits([_B]) == bits([coeffs.B])
        assert bits([_E3 + (0.0,), _E5 + (0.0,)]) == bits([coeffs.E3, coeffs.E5])
        assert bits(_D) == bits(coeffs.D)

    def test_dense_terms_are_the_row_path(self, cfg, launch):
        # states_at's builder (numpy sums, its 3 extra stages from
        # _field_rows) keeps the bits of _row's plain-float one, on
        # backward, mirrored and concatenated tables, and on random rows with
        # +-0.0 stage entries of either step sign
        t_cross, x_cross = float(launch.ts[-1]), float(launch.xs[-1])
        sep = rs.with_mirror(launch.shifted(dt=-t_cross, dx=-x_cross))
        rng = np.random.default_rng(7)
        n = 25
        stages = rng.normal(size=(n, 13, 3))
        stages[rng.random(stages.shape) < 0.2] = 0.0
        stages[rng.random(stages.shape) < 0.2] = -0.0
        stages[3] = 0.0  # all-zero rows: the sign of a zero term counts
        stages[4] = -0.0
        y0 = np.column_stack([rng.uniform(0.0, 3.0, n), rng.uniform(1.0, 3.0, n),
                              rng.normal(size=n)])
        h = rng.uniform(1e-4, 0.1, n) * rng.choice([-1.0, 1.0], n)
        tables = [tr.table for tr in (rs.backward_trajectory(4.0, cfg), rs.full_curve(2.5, cfg),
                                      sep)]
        tables.append({"y0": y0, "h": h, "stages": stages})
        for tab in tables:
            terms = _dense_terms(tab["y0"], tab["h"], tab["stages"])
            assert terms.shape == (7, len(tab["h"]), 3)
            for r in range(len(tab["h"])):
                got = _step_terms(tab["y0"][r].tolist(), tab["h"][r].item(),
                                  tab["stages"][r].ravel().tolist())
                assert [[v.hex() for v in comp] for comp in got] == [
                    [v.hex() for v in comp] for comp in terms[:, r].T.tolist()]

    def test_field_rows_are_the_field_module(self):
        # the extra stages' vectorized field keeps field.py's bits, also
        # outside the domain (slope clamped to 0), at z <= 0 and at NaN
        th = np.array([0.3, 2.0, math.pi, 0.0, 1.0, 1.0, 1.0, math.nan, 0.5, -4.0])
        z = np.array([2.0, 0.1, 1.0, 1.0, 0.0, -1.0, math.nan, 2.0, 1e-3, 3.0])
        want = [[v.hex() for v in (slope(t, zz), math.sin(t), math.cos(t))]
                for t, zz in zip(th.tolist(), z.tolist())]
        got = integrate_mod._field_rows(th, z).tolist()
        assert [[v.hex() for v in row] for row in got] == want
        assert integrate_mod._field_rows(th[:0], z[:0]).shape == (0, 3)

    def test_stages_where_the_square_of_z_underflows(self, cfg, monkeypatch):
        # below field.Z_MIN, z * z is 0: slope, the stepping loop's inline
        # stages and _field_rows clamp the slope to 0 there.  No state of
        # the domain has such a z, so the loop's start check is passed by
        # hand; at theta = 0 every stage of the step is at its start state
        z = 1e-300
        assert z * z == 0.0 == math.nextafter(Z_MIN, 0.0) ** 2 < Z_MIN * Z_MIN
        rows = integrate_mod._field_rows(np.array([0.0, 1.0]), np.array([z, z])).tolist()
        assert [slope(0.0, z), slope(1.0, z)] == [row[0] for row in rows] == [0.0, 0.0]
        monkeypatch.setattr(integrate_mod, "domain_gap", lambda th, z: 1.0)
        _, _, hs, stages, _, _ = integrate_mod._integrate_raw((0.0, z, 0.0), 1.0, cfg)
        assert len(hs) == 1
        assert [v.hex() for v in stages] == [v.hex() for v in rows[0]] * 13

    def test_slope_sq_where_the_square_of_z_underflows(self):
        # below field.Z_MIN, where z * z is 0, slope_sq reads -inf, outside
        # the domain, instead of dividing by 0; at Z_MIN it divides
        for z in (1e-300, math.nextafter(Z_MIN, 0.0), 0.0, -0.0):
            assert slope_sq(1.0, z) == -math.inf
            assert slope(1.0, z) == 0.0
        zmc, zpc = rs.field.z_minus_cos(1.0, Z_MIN), rs.field.z_plus_cos(1.0, Z_MIN)
        assert slope_sq(1.0, Z_MIN) == zmc * zpc / (Z_MIN * Z_MIN) < 0.0

    def test_row_ends_are_the_nodes(self, cfg, launch):
        # a row's interpolant is its start node at u = 0 exactly, and its end
        # node at u = 1 within 2 ulps, on every row but those of the
        # integration's last step, which its event cut (u_end < 1 there; a
        # full curve holds it twice); plain and mirrored-then-joined tables,
        # in t coordinates
        for tr in (rs.backward_trajectory(4.0, cfg), rs.backward_trajectory(1.2, cfg), launch,
                   rs.full_curve(2.5, cfg)):
            ys, steps = tr.ys.tolist(), tr.table["step"].tolist()
            cut = max(steps)  # the integration's last step
            for k in range(len(steps)):
                a, b, comps = tr._row(k)
                first, last = (k, k + 1) if a > 0.0 else (k + 1, k)
                at0 = [scale * _dense(y0, terms, 0.0) + offset
                       for y0, terms, scale, offset in comps]
                assert at0 == ys[first]
                if steps[k] == cut:
                    continue
                for (y0, terms, scale, offset), want in zip(comps, ys[last]):
                    got = scale * _dense(y0, terms, 1.0) + offset
                    assert abs(got - want) <= 2 * math.ulp(want)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(min_step=1.0, max_step=0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(boundary_eps=-1.0)
        for bad in ({"rel_tol": math.inf}, {"abs_tol": math.inf}, {"max_time": 0.0},
                    {"max_time": -1.0}, {"max_time": math.inf}, {"max_time": math.nan},
                    {"boundary_eps": 0.0}, {"boundary_eps": math.inf},
                    {"boundary_eps": math.nan}):
            with pytest.raises(ValueError):
                IntegratorConfig(**bad)

    def test_accepted_step_sequence_pinned(self, cfg, lambda0):
        # exact counts: any change to step control, stage arithmetic or event
        # location that moves an accepted node shows up here
        for lam, n_nodes in ((1.2, 43), (2.5, 62), (4.0, 37), (6.0, 36),
                             (3.2136253987, 76)):
            assert len(rs.backward_trajectory(lam, cfg).ts) == n_nodes
        assert lambda0.iterations == 29
        assert lambda0.value == 3.2136243981774015

    def test_rejected_step_counts_pinned(self, cfg, launch):
        # exact counts of the steps the controller rejected: a trajectory's
        # moved copies and with_mirror's join of one integration keep them,
        # and a join of two integrations adds them
        for lam, n_rejected in ((1.2, 0), (1.8, 3), (2.5, 0), (4.0, 0), (6.0, 0)):
            assert rs.backward_trajectory(lam, cfg).rejected == n_rejected
        assert launch.rejected == 0
        half = rs.backward_trajectory(1.8, cfg)
        assert (half.shifted(dt=1.0, dx=2.0).rejected == rs.reflect(half, 1).rejected
                == rs.with_mirror(half).rejected == 3)
        other = rs.integrate(PhasePoint(math.pi, 1.8), "backward", cfg.with_targets(0.0))
        assert other.terms is not half.terms
        assert rs.concat(half, rs.reflect(other, 1)).rejected == 6

    def test_launch_step_counts_pinned(self, cfg):
        # exact counts of the separatrix launch from its series seed at
        # SERIES_S0, at the default config and tightened 100-fold
        assert len(rs.launch_separatrix(cfg).ts) == 91
        assert len(rs.launch_separatrix(cfg.tightened(100.0)).ts) == 181

    TRAJECTORIES = ["periodic 4.0", "contact 1.2", "contact 2.5", "launch", "forward"]

    @staticmethod
    def trajectory(which, cfg, launch):
        """(trajectory, direction sign) for one of TRAJECTORIES."""
        if which == "launch":
            return launch, 1.0
        if which == "forward":
            return rs.integrate(PhasePoint(0.3, 2.0), "forward", cfg.with_targets(2 * math.pi)), 1.0
        return rs.backward_trajectory(float(which.split()[1]), cfg), -1.0

    @pytest.mark.parametrize("which", TRAJECTORIES)
    def test_stages_are_the_field_module(self, cfg, launch, which):
        # the stepping loop evaluates the field inline; every stored stage
        # must equal (slope, sin, cos) from field.py, bit for bit, at its
        # state: the row's start y0 for the FSAL stage k1, and
        # y0 + h * (a_i1 k_1 + ...) with the signed step h, all weights
        # (zeros too) summed left to right, for k2..k13; the dense output's
        # 3 extra stages k14..k16 likewise
        tr, _ = self.trajectory(which, cfg, launch)

        def bits(th, z):
            return [v.hex() for v in (slope(th, z), math.sin(th), math.cos(th))]

        tab = tr.table
        y0s, hs, stages = tab["y0"].tolist(), tab["h"].tolist(), tab["stages"].tolist()
        assert [[v.hex() for v in k[0]] for k in stages] == [bits(th, z) for th, z, _ in y0s]
        for y0, h, row in zip(y0s, hs, stages):
            flat = _dense_stages(y0, h, [v for stage in row for v in stage])
            k = [flat[3 * j:3 * j + 3] for j in range(16)]
            assert k[:13] == row
            for i in range(1, 16):
                acc = [_A[i][0] * k[0][0], _A[i][0] * k[0][1]]
                for j in range(1, i):
                    acc = [acc[0] + _A[i][j] * k[j][0], acc[1] + _A[i][j] * k[j][1]]
                assert [v.hex() for v in k[i]] == bits(y0[0] + h * acc[0], y0[1] + h * acc[1])
        if which == "contact 1.2":
            assert repr(tr.termination) == (
                "EndInfo(kind='boundary_contact', theta_target=None, t_star=-1.1732185422224666, "
                "limit_point=(2.5903520415709416, 0.8518754140996223))")
        elif which == "contact 2.5":
            assert repr(tr.termination) == (
                "EndInfo(kind='boundary_contact', theta_target=None, t_star=-2.5433560834035505, "
                "limit_point=(0.8408236144798141, 0.6668493006711221))")

    @pytest.mark.parametrize("which", TRAJECTORIES)
    def test_nodes_are_the_textbook_sum(self, cfg, launch, which):
        # each step's end node is y0 + h * (b_1 k_1 + ... + b_12 k_12) with the
        # signed step h, all twelve weights (zeros too) summed left to right
        # in floats: the loop's dropped zero-weight products keep these bits.
        # The end node is ys[k + 1] on a forward row and ys[k] on a backward
        # one.  The integration's last step (the last row forward, row 0
        # backward) is cut at its event, so it is skipped.
        tr, sgn = self.trajectory(which, cfg, launch)
        assert tr.termination.kind in ("theta_crossing", "boundary_contact")
        tab = tr.table
        y0s, hs, stages, ys = (tab["y0"].tolist(), tab["h"].tolist(), tab["stages"].tolist(),
                               tr.ys.tolist())
        rows = range(len(hs) - 1) if sgn > 0 else range(1, len(hs))
        for k in rows:
            end = ys[k + 1] if sgn > 0 else ys[k]
            for i in range(3):
                acc = _B[0] * stages[k][0][i]
                for j in range(1, 12):
                    acc += _B[j] * stages[k][j][i]
                assert (y0s[k][i] + hs[k] * acc).hex() == end[i].hex()

    def test_field_calls_per_trajectory(self, cfg, monkeypatch):
        # exact counts: slope for the start stage k1 and the 3 dense-output
        # stages of the event step, domain_gap for the start check, plus, at
        # a contact, the contact step's bisection probes up to its fixed
        # point (54 here, of at most 80) and the 2 gaps of the limit-point
        # extrapolation
        calls = Counter()
        for name in ("slope", "domain_gap"):
            def counted(*args, _real=getattr(integrate_mod, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(integrate_mod, name, counted)
        for lam, n_nodes, n_gaps in ((4.0, 37, 1), (1.2, 43, 57)):
            calls.clear()
            rs.backward_trajectory.cache_clear()
            assert len(rs.backward_trajectory(lam, cfg).ts) == n_nodes
            assert calls == {"slope": 4, "domain_gap": n_gaps}
        rs.backward_trajectory.cache_clear()

    def test_design_order_convergence(self, cfg):
        # with slack tolerances the step cap drives the error: halving
        # max_step should shrink the endpoint error by ~2^8 (64 and 4,400
        # here), against a reference with a 10 times finer cap
        ref = rs.integrate(PhasePoint(math.pi, 4.0), "backward",
                           replace(cfg, max_step=0.01, theta_targets=(0.0,)))
        z_ref = float(ref.zs[0])
        errs = []
        for h in (0.8, 0.4, 0.2):
            c = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3, max_step=h,
                                 theta_targets=(0.0,))
            tr = rs.integrate(PhasePoint(math.pi, 4.0), "backward", c)
            errs.append(abs(float(tr.zs[0]) - z_ref))
        assert errs[0] / errs[1] > 50.0
        assert errs[1] / errs[2] > 50.0
        assert errs[2] < 1e-12


class TestSphereTrajectory:
    def test_backward_matches_closed_form(self, cfg):
        tr = rs.integrate(PhasePoint(math.pi, SQRT2), "backward", cfg)
        assert tr.termination.kind == "boundary_contact"
        lo, hi = tr.t_span
        for t in np.linspace(lo + 1e-3, hi, 300):
            th, z, _ = tr.state_at(float(t))
            th_ref, z_ref = sphere_closed_form(t)
            assert abs(th - th_ref) < 1e-8
            assert abs(z - z_ref) < 1e-8

    def test_midspan_crossing_event(self, cfg):
        # stop at theta = 3/4 pi on the way down: z = sqrt(2) cos(t/sqrt2)
        tr = rs.integrate(PhasePoint(math.pi, SQRT2), "backward",
                          cfg.with_targets(0.75 * math.pi))
        assert tr.termination.kind == "theta_crossing"
        t_star = tr.termination.t_star
        assert abs(tr.thetas[0] - 0.75 * math.pi) < 1e-12
        assert tr.zs[0] == pytest.approx(SQRT2 * math.cos(t_star / SQRT2), abs=1e-9)
        # sqrt(2) cos(pi/4) = 1 at this crossing
        assert tr.zs[0] == pytest.approx(1.0, abs=1e-9)

    def test_limit_point_near_half_pi(self, cfg):
        tr = rs.integrate(PhasePoint(math.pi, SQRT2), "backward", cfg)
        th0, z0 = tr.termination.limit_point
        assert th0 == pytest.approx(math.pi / 2, abs=1e-5)
        assert 0.0 <= z0 < 1e-5


class TestEvents:
    def test_large_height_barely_descends(self, cfg):
        # far above the boundary the field is ~(1, sin theta): crossing
        # theta = 0 costs exactly integral(sin) = 2 of height
        lam = 1e4
        tr = rs.integrate(PhasePoint(math.pi, lam), "backward", cfg.with_targets(0.0))
        assert tr.termination.kind == "theta_crossing"
        assert tr.zs[0] == pytest.approx(lam - 2.0, abs=1e-2)
        assert tr.termination.t_star == pytest.approx(-math.pi, abs=1e-2)

    @staticmethod
    def reference_event_node(tr, sgn, boundary_eps):
        """(t, state) of tr's event-cut node from a bisection of full length.

        The cut step is the last row forward and row 0 backward.  Its
        parameter u is bisected for all 80 (contact) or 60 (crossing)
        halvings, the counts whose result the stepping loop's early stop
        must reproduce, on the interpolant of _dense_terms's terms in plain
        floats.
        """
        tab = tr.table
        r = len(tab["h"]) - 1 if sgn > 0 else 0
        y0, h = tab["y0"][r].tolist(), tab["h"][r].item()  # h is signed
        terms = _dense_terms(tab["y0"][r:r + 1], tab["h"][r:r + 1],
                             tab["stages"][r:r + 1])[:, 0].T.tolist()

        def at(i, u):
            return _dense(y0[i], terms[i], u)

        stop = tr.termination
        a, b = 0.0, 1.0
        if stop.kind == "boundary_contact":
            for _ in range(80):
                m = 0.5 * (a + b)
                if domain_gap(at(0, m), at(1, m)) - boundary_eps < 0.0:
                    b = m
                else:
                    a = m
            u = b
        else:
            tgt = stop.theta_target
            d0 = y0[0] - tgt
            for _ in range(60):
                m = 0.5 * (a + b)
                if (at(0, m) - tgt) * d0 > 0.0:
                    a = m
                else:
                    b = m
            u = 0.5 * (a + b)
        t_start = tr.ts[r if sgn > 0 else 1].item()  # the step's start node
        # the loop's sgn * (sigma + u * |h|), with the sign distributed (exact)
        return t_start + u * h, [at(i, u) for i in range(3)]

    def test_event_nodes_are_the_full_bisection(self, cfg, launch):
        # the event bisections stop at their fixed point: every event-cut
        # node, its time and its state, keeps the bits of the full 80 (contact)
        # or 60 (crossing) halvings, on both sides of lambda0 and the launch
        heights = (np.linspace(1.05, 3.2, 12).tolist() + np.linspace(3.3, 8.0, 12).tolist()
                   + [3.2136243987 + d for d in (-1e-6, 1e-6)])
        seen = Counter()
        cases = [(rs.backward_trajectory(lam, cfg), -1.0, cfg.boundary_eps) for lam in heights]
        gap0 = domain_gap(*corner_series(integrate_mod.SERIES_S0)[:2])
        cases.append((launch, 1.0, min(cfg.boundary_eps, 0.25 * gap0)))
        for tr, sgn, eps in cases:
            kind = tr.termination.kind
            seen[kind] += 1
            t, state = self.reference_event_node(tr, sgn, eps)
            i = -1 if sgn > 0 else 0
            assert tr.ts[i].hex() == t.hex(), kind
            assert [v.hex() for v in tr.ys[i].tolist()] == [v.hex() for v in state], kind
        assert seen["boundary_contact"] >= 10 and seen["theta_crossing"] >= 10

    def test_contact_below_critical(self, cfg):
        tr = rs.integrate(PhasePoint(math.pi, 1.5), "backward", cfg.with_targets(0.0))
        assert tr.termination.kind == "boundary_contact"
        th0, z0 = tr.termination.limit_point
        assert 0.0 < z0 < 1.0
        # the limit point sits on the boundary z = |cos theta|
        assert z0 == pytest.approx(abs(math.cos(th0)), abs=1e-8)

    def test_time_cap(self, cfg):
        c = IntegratorConfig(max_time=0.5)
        tr = rs.integrate(PhasePoint(0.3, 2.0), "forward", c)
        assert tr.termination.kind == "time_cap"
        assert tr.ts[-1] == pytest.approx(0.5, abs=1e-12)

    def test_start_must_be_interior(self, cfg):
        with pytest.raises(DomainError):
            rs.integrate(PhasePoint(0.0, 1.0), "forward", cfg)
        with pytest.raises(DomainError):
            rs.integrate(PhasePoint(math.pi, 1.0), "forward", cfg)

    def test_start_within_boundary_eps_rejected(self, cfg):
        # domain gap of (pi, 4) is 3: its first step would end in contact
        for eps in (3.0, 10.0, 1e300):
            with pytest.raises(ValueError, match="boundary_eps"):
                rs.integrate(PhasePoint(math.pi, 4.0), "backward",
                             IntegratorConfig(boundary_eps=eps))
        tr = rs.integrate(PhasePoint(math.pi, 4.0), "backward", IntegratorConfig(boundary_eps=2.9))
        assert tr.termination.kind == "boundary_contact"
        # the launch caps its boundary_eps at a quarter of the seed's gap
        launch = rs.launch_separatrix(IntegratorConfig(boundary_eps=1e300))
        assert launch.termination.kind == "theta_crossing"

    @pytest.mark.parametrize("direction", [1, -1, "sideways"])
    def test_direction_is_forward_or_backward(self, cfg, direction):
        with pytest.raises(ValueError, match="unknown direction"):
            rs.integrate(PhasePoint(0.3, 2.0), direction, cfg)

    def test_step_underflow_without_boundary(self, cfg):
        # min_step too close to max_step: the controller cannot satisfy the
        # tolerance in the smooth interior, which is a config bug, not contact
        c = IntegratorConfig(rel_tol=1e-16, abs_tol=1e-18, min_step=0.09,
                             max_step=0.1)
        with pytest.raises(StepUnderflowError):
            rs.integrate(PhasePoint(0.4, 3.0), "forward", c)

    def test_step_limit(self, monkeypatch):
        # a periodic curve with a huge max_time stops at the step cap
        monkeypatch.setattr(integrate_mod, "MAX_STEPS", 50)
        c = IntegratorConfig(max_time=1e300)
        with pytest.raises(StepLimitError):
            rs.integrate(PhasePoint(0.3, 2.0), "forward", c)
        assert len(rs.integrate(PhasePoint(0.3, 2.0), "forward",
                                IntegratorConfig(max_time=1.0)).ts) < 50

    def test_error_norm_overflow_rejects_the_step(self):
        # err / tol overflows float ** 2 for tolerances near 1e-300: a
        # rejected step (then underflow), not an OverflowError
        c = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
        with pytest.raises(StepUnderflowError):
            rs.integrate(PhasePoint(math.pi, 4.0), "backward", c)


class TestDenseOutput:
    def test_nodes_reproduced(self, cfg):
        tr = rs.backward_trajectory(2.0, cfg)
        for i in range(0, len(tr.ts), 7):
            th, z, x = tr.state_at(float(tr.ts[i]))
            assert th == pytest.approx(tr.thetas[i], abs=1e-12)
            assert z == pytest.approx(tr.zs[i], abs=1e-12)
            assert x == pytest.approx(tr.xs[i], abs=1e-12)

    def test_state_constraint_at_midpoints(self, cfg):
        tr = rs.backward_trajectory(2.0, cfg)
        mids = 0.5 * (tr.ts[:-1] + tr.ts[1:])
        for th, z, _ in tr.states_at(mids[::3]).tolist():
            dtheta = slope(th, z)
            res = dtheta ** 2 + math.cos(th) ** 2 / z ** 2 - 1.0
            assert abs(res) <= 1e-8

    def test_interpolant_defect_recorded(self, cfg):
        # derived bound: the interpolant's ODE defect stays below 5e-7
        # globally and 5e-8 away from the contact collar (default tolerances)
        worst_all = worst_interior = 0.0
        for lam in (1.2, 2.0, 2.8, 4.2):
            tr = rs.backward_trajectory(lam, cfg)
            lo, hi = tr.t_span
            grid = np.linspace(lo + 1e-9, hi - 1e-9, 500)
            rows = zip(grid, tr.states_at(grid).tolist(), tr.states_at(grid, deriv=True).tolist())
            for t, (th, z, x), (dth, dz, dx) in rows:
                defect = max(abs(dth * dth - slope_sq(th, z)),
                             abs(dz - math.sin(th)), abs(dx - math.cos(th)))
                worst_all = max(worst_all, defect)
                if t - lo > 0.2:
                    worst_interior = max(worst_interior, defect)
        assert worst_all <= 5e-7
        assert worst_interior <= 5e-8

    def test_out_of_span_raises(self, cfg):
        tr = rs.backward_trajectory(2.0, cfg)
        lo, hi = tr.t_span
        with pytest.raises(RangeError):
            tr.state_at(hi + 0.5)
        with pytest.raises(RangeError):
            tr.state_at(lo - 0.5)

    def test_nan_time_raises(self, cfg):
        # NaN fails both sides of the range check, so it counts as outside
        tr = rs.full_curve(4.0, cfg)
        with pytest.raises(RangeError):
            tr.state_at(math.nan)
        with pytest.raises(RangeError):
            tr.states_at([0.0, math.nan])
        with pytest.raises(RangeError):
            rs.build_profile(tr).eval_at(math.nan)

    def test_states_at_builds_each_step_once(self, cfg, monkeypatch):
        # a step's terms are built at its first read, into a store that the
        # trajectory's moved copies share: the mirrored half of a full curve
        # reads the steps of the other half, and a repeat call, a shifted
        # copy and a mirror build none; a concatenation of two independent
        # trajectories builds its own, with the same values
        rs.backward_trajectory.cache_clear()  # a fresh store
        tr = rs.full_curve(4.0, cfg)
        ts = np.linspace(*tr.t_span, 1401)
        built = []
        dense_terms = integrate_mod._dense_terms
        monkeypatch.setattr(integrate_mod, "_dense_terms", lambda y0, h, stages:
                            built.append(len(h)) or dense_terms(y0, h, stages))
        expected = tr.states_at(ts)
        rows = np.unique(np.searchsorted(tr.ts[1:-1], ts, side="right"))
        steps = np.unique(tr.table["step"][rows])
        assert built == [len(steps)] and len(steps) == len(tr.table["h"]) // 2 < len(rows)
        assert np.array_equal(tr.states_at(ts), expected)
        tr.shifted(dt=3.0, dtheta=2 * math.pi, dx=-1.5).states_at(ts + 3.0)
        rs.reflect(tr, 1).states_at(ts)
        assert built == [len(steps)]
        half, other = (rs.integrate(PhasePoint(math.pi, 4.0), "backward", cfg.with_targets(0.0))
                       for _ in range(2))
        joined = rs.concat(half, rs.reflect(other, 1))
        assert np.array_equal(joined.states_at(ts), expected)
        assert built == [len(steps), len(rows)]
        rs.backward_trajectory.cache_clear()

    def test_state_at_reads_a_start_node_from_the_table(self, cfg, monkeypatch):
        # at u == 0 state_at returns the row's start node, scaled and offset,
        # with the bits of the interpolant and without building its terms:
        # reflect reads a backward half's mirror point there.  A -0.0
        # component is read through the terms, as the zero that u adds to it
        # decides its sign (here: x, negated onto a -0.0 offset)
        half = rs.backward_trajectory(4.0, cfg)
        raw = integrate_mod._integrate_raw((0.3, 2.0, -0.0), 1.0, cfg.with_targets(2.0))
        signed = integrate_mod._finalized(*raw, 1, rs.EndInfo("initial"))._moved(
            1.0, 0.0, (1.0, 1.0, -1.0), (0.0, 0.0, -0.0))
        built = []
        step_terms = integrate_mod._step_terms
        monkeypatch.setattr(integrate_mod, "_step_terms",
                            lambda *args: built.append(1) or step_terms(*args))
        t_c = half.crossing_time(math.pi)
        assert t_c == half.ts[-1] and half.table["a"][-1] * t_c + half.table["b"][-1] == 0.0
        assert half.state_at(t_c) == tuple(half.ys[-1].tolist()) == (math.pi, 4.0, 0.0)
        assert built == []
        got = signed.state_at(0.0)
        assert built == [1]
        assert [v.hex() for v in got] == [v.hex() for v in signed.states_at((0.0,))[0].tolist()]
        assert got[2].hex() == "-0x0.0p+0"

    def test_monotone_theta(self, cfg):
        for lam in (1.3, 2.5, 5.0):
            tr = rs.backward_trajectory(lam, cfg)
            assert np.all(np.diff(tr.thetas) > 0.0)
            assert np.all(np.diff(tr.ts) > 0.0)

    def test_sample_records_field_slopes(self, cfg):
        tr = rs.backward_trajectory(3.0, cfg)
        assert len(tr.ys) == len(tr.ts)
        for th, z, _ in tr.ys[::5].tolist():
            v = rs.field_eval(rs.PhasePoint(th, z))
            assert v.dz == math.sin(th)
            assert slope(th, z) == v.dtheta

    def test_states_at_is_the_scalar_path(self, cfg, launch):
        # one table evaluation, row for row the bits of the scalar views,
        # on plain, mirrored and shifted-then-mirrored tables
        t_cross, x_cross = float(launch.ts[-1]), float(launch.xs[-1])
        sep = rs.with_mirror(launch.shifted(dt=-t_cross, dx=-x_cross))
        for tr in (rs.backward_trajectory(4.0, cfg), rs.full_curve(2.5, cfg), sep):
            ts = np.concatenate([np.linspace(*tr.t_span, 301), tr.ts])
            rows = tr.states_at(ts)
            drows = tr.states_at(ts, deriv=True)
            assert rows.shape == drows.shape == (len(ts), 3)
            for t, row, drow in zip(ts, rows, drows):
                assert tuple(row.tolist()) == tr.state_at(float(t))
                assert tuple(drow.tolist()) == tuple(
                    tr.states_at((float(t),), deriv=True)[0].tolist())
        lo, hi = sep.t_span
        with pytest.raises(RangeError):
            sep.states_at([0.0, hi + 0.5])
        assert sep.states_at([]).shape == (0, 3)

    def test_state_at_range_check(self, cfg, launch):
        # state_at checks the span itself: NaN and times beyond the relative
        # 1e-9 slack raise; times inside the slack and every node read the
        # end rows with the bits of states_at, on plain, mirrored and
        # shifted-then-mirrored tables
        t_cross, x_cross = float(launch.ts[-1]), float(launch.xs[-1])
        sep = rs.with_mirror(launch.shifted(dt=-t_cross, dx=-x_cross))
        for tr in (rs.backward_trajectory(4.0, cfg), rs.full_curve(2.5, cfg), sep):
            lo, hi = tr.t_span
            slack = 1e-9 * max(1.0, abs(lo), abs(hi))
            for t in (math.nan, lo - 2 * slack, hi + 2 * slack):
                with pytest.raises(RangeError):
                    tr.state_at(t)
            inside = [lo - 0.5 * slack, hi + 0.5 * slack]
            assert inside[0] < lo and inside[1] > hi
            for t in inside + tr.ts.tolist():
                assert ([v.hex() for v in tr.state_at(t)]
                        == [v.hex() for v in tr.states_at((t,))[0].tolist()])

    def test_crossing_time_is_the_state_at_bisection(self, cfg, launch, monkeypatch):
        # the float bisection on the bracket's table row returns the bits of
        # a plain bisection through state_at, on plain, reversed, mirrored and
        # shifted-then-mirrored tables, and makes no array evaluation per midpoint
        def by_state_at(tr, target):
            th = tr.thetas
            i = int(np.searchsorted(th, target)) - 1
            a, b = float(tr.ts[i]), float(tr.ts[i + 1])
            for _ in range(100):
                m = 0.5 * (a + b)
                fm = tr.state_at(m)[0] - target
                if fm == 0.0:
                    return m
                if fm < 0.0:
                    a = m
                else:
                    b = m
                if b - a <= 1e-16 * max(1.0, abs(a), abs(b)):
                    break
            return 0.5 * (a + b)

        t_cross, x_cross = float(launch.ts[-1]), float(launch.xs[-1])
        sep = rs.with_mirror(launch.shifted(dt=-t_cross, dx=-x_cross))
        trajs = (rs.backward_trajectory(4.0, cfg), rs.full_curve(2.5, cfg), launch, sep)
        targets = [np.linspace(tr.thetas[0], tr.thetas[-1], 9)[1:-1] for tr in trajs]
        expected = [[by_state_at(tr, float(v)) for v in vs] for tr, vs in zip(trajs, targets)]
        calls = []
        states_at = rs.Trajectory.states_at
        monkeypatch.setattr(rs.Trajectory, "states_at",
                            lambda self, *a, **k: calls.append(1) or states_at(self, *a, **k))
        got = [[tr.crossing_time(float(v)) for v in vs] for tr, vs in zip(trajs, targets)]
        assert got == expected
        assert calls == []

    def test_shift_is_affine_on_dense_output(self, cfg):
        tr = rs.backward_trajectory(2.0, cfg)
        moved = tr.shifted(dt=3.0, dtheta=2 * math.pi, dx=-1.5)
        lo, hi = tr.t_span
        for t in np.linspace(lo, hi, 25):
            th, z, x = tr.state_at(float(t))
            th2, z2, x2 = moved.state_at(float(t) + 3.0)
            assert th2 == pytest.approx(th + 2 * math.pi, abs=1e-13)
            assert z2 == pytest.approx(z, abs=1e-13)
            assert x2 == pytest.approx(x - 1.5, abs=1e-13)
        # the end records move with the nodes: theta by 2 pi, t by 3
        assert tr.left_info.kind == "boundary_contact" and tr.right_info.kind == "initial"
        (th0, z0), t_star = tr.left_info.limit_point, tr.left_info.t_star
        assert moved.left_info == rs.EndInfo(
            "boundary_contact", None, t_star + 3.0, (th0 + 2 * math.pi, z0))
        assert moved.right_info == tr.right_info
        periodic = rs.backward_trajectory(4.0, cfg)
        assert periodic.left_info.kind == "theta_crossing"
        assert periodic.shifted(dt=3.0, dtheta=2 * math.pi).left_info == rs.EndInfo(
            "theta_crossing", periodic.left_info.theta_target + 2 * math.pi,
            periodic.left_info.t_star + 3.0)


class TestBisectRoot:
    @staticmethod
    def plain(f, a, b, max_iter):
        for _ in range(max_iter):
            m = 0.5 * (a + b)
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

    def test_matches_plain_loop(self):
        # the early return at adjacent floats walks the same path as the
        # plain loop, through exact zeros, NaN (taken as "not below") and
        # iteration caps
        cases = [
            (lambda t: t ** 3 - 2.0, 0.0, 3.0),
            (lambda t: t - 0.375, 0.0, 1.0),
            (lambda t: math.sin(t) - 0.3, -0.5, 1.0),
            (lambda t: float("nan") if t > 0.7 else t - 0.9, 0.0, 1.0),
            (lambda t: t * 1e-300, -1.0, 5.0),
            (lambda t: math.log(t) - 20.0, 1.0, 1e12),
        ]
        for f, a, b in cases:
            for max_iter in (1, 7, 100, 200):
                assert bisect_root(f, a, b, max_iter) == self.plain(f, a, b, max_iter), (
                    a, b, max_iter)


class TestSeriesLaunch:
    def test_leading_seed_residual_scaling(self):
        # the spec-stated leading coefficients have constraint residual
        # -s^6/324; the refined series drops to O(s^10)
        for s in (0.05, 0.1):
            theta = s ** 3 / 18.0
            z = 1.0 + s ** 4 / 72.0
            dtheta = s ** 2 / 6.0
            res = dtheta ** 2 + math.cos(theta) ** 2 / z ** 2 - 1.0
            assert res / s ** 6 == pytest.approx(-1.0 / 324.0, rel=0.03)
        for s in (0.1, 0.2):
            theta, z, _ = corner_series(s)
            dtheta = corner_series_slope(s)
            res = dtheta ** 2 + math.cos(theta) ** 2 / z ** 2 - 1.0
            assert abs(res) <= 2e-4 * s ** 10

    def test_terminal_crossing_exact(self, launch):
        assert launch.termination.kind == "theta_crossing"
        assert abs(launch.thetas[-1] - math.pi) <= 1e-12
        assert launch.left_info.kind == "series_origin"

    def test_terminal_height_matches_reference(self, launch):
        from oracles import LAMBDA0_REF

        assert float(launch.zs[-1]) == pytest.approx(LAMBDA0_REF, abs=5e-8)

    def test_bad_seed_rejected(self, cfg):
        with pytest.raises(SeedError):
            rs.launch_separatrix(cfg, s0=0.5)

    def test_terminal_height_insensitive_to_seed(self, cfg, launch):
        # the corner attracts in backward time, so seeding errors contract
        # forward: different seed arc lengths must agree on the terminal z
        z_ref = float(launch.zs[-1])
        for s0 in (5e-4, 5e-3, 0.05):
            other = rs.launch_separatrix(cfg, s0=s0)
            assert float(other.zs[-1]) == pytest.approx(z_ref, abs=2e-9)

    def test_third_derivative_limit(self, launch):
        # FD of the closed-form theta'' along the launch approaches 1/3
        from rotsurf import theta_second

        def d3(theta_at):
            t = launch.crossing_time(theta_at)
            d = 2e-3
            th_p, z_p, _ = launch.state_at(t + d)
            th_m, z_m, _ = launch.state_at(t - d)
            a = theta_second(PhasePoint(th_p, z_p))
            b = theta_second(PhasePoint(th_m, z_m))
            return (a - b) / (2 * d)

        assert d3(1e-4) == pytest.approx(1.0 / 3.0, rel=1e-2)
        # deviation decreases toward the corner
        assert abs(d3(1e-4) - 1 / 3) < abs(d3(1e-3) - 1 / 3) < abs(d3(1e-2) - 1 / 3)


class TestReflect:
    def test_sphere_mirror(self, cfg):
        back = rs.integrate(PhasePoint(math.pi, SQRT2), "backward", cfg)
        mirror = rs.reflect(back, 1)
        lo, hi = mirror.t_span
        assert lo == pytest.approx(0.0, abs=1e-15)
        for t in np.linspace(1e-3, hi - 1e-3, 100):
            th, z, _ = mirror.state_at(float(t))
            th_ref, z_ref = sphere_closed_form(t)
            assert abs(th - th_ref) < 1e-8
            assert abs(z - z_ref) < 1e-8

    def test_involution(self, cfg):
        back = rs.backward_trajectory(3.5, cfg)
        once = rs.reflect(back, 1)
        twice = rs.reflect(once, 1)
        assert np.allclose(twice.ts, back.ts, atol=1e-14)
        assert np.allclose(twice.ys, back.ys, atol=1e-14)
        # one reflection maps the end records about (t_c, pi) and swaps them
        t_c = back.crossing_time(math.pi)
        assert back.left_info.kind == "theta_crossing" and back.right_info.kind == "initial"
        assert once.right_info == rs.EndInfo(
            "theta_crossing", 2 * math.pi - back.left_info.theta_target,
            2 * t_c - back.left_info.t_star)
        assert once.left_info == back.right_info
        assert twice.left_info == back.left_info and twice.right_info == back.right_info
        low = rs.backward_trajectory(1.3, cfg)
        assert low.left_info.kind == "boundary_contact"
        t_c = low.crossing_time(math.pi)
        (th0, z0), t_star = low.left_info.limit_point, low.left_info.t_star
        low_once = rs.reflect(low, 1)
        assert low_once.right_info == rs.EndInfo(
            "boundary_contact", None, 2 * t_c - t_star, (2 * math.pi - th0, z0))
        low_twice = rs.reflect(low_once, 1)
        assert (low_twice.left_info, low_twice.right_info) == (low.left_info, low.right_info)

    def test_symmetry_against_independent_forward(self, cfg):
        # forward half integrated on its own agrees with the mirror of the
        # backward half: a genuine two-run symmetry residual
        lam = 4.0
        back = rs.integrate(PhasePoint(math.pi, lam), "backward",
                            cfg.with_targets(0.0))
        fwd = rs.integrate(PhasePoint(math.pi, lam), "forward",
                           cfg.with_targets(2 * math.pi))
        for s in np.linspace(0.01, min(-back.t_span[0], fwd.t_span[1]) - 0.01, 200):
            thb, zb, xb = back.state_at(-float(s))
            thf, zf, xf = fwd.state_at(float(s))
            assert abs(zf - zb) <= 1e-8
            assert abs(thf + thb - 2 * math.pi) <= 1e-8
            assert abs(xf + xb) <= 1e-8

    def test_requires_axis_point(self, cfg):
        tr = rs.integrate(PhasePoint(0.3, 0.97), "forward", cfg.with_targets(2.0))
        with pytest.raises(NotOnAxisError):
            rs.reflect(tr, 1)

    def test_concat_mismatch_rejected(self, cfg):
        a = rs.backward_trajectory(2.0, cfg)
        b = rs.backward_trajectory(2.5, cfg)
        with pytest.raises(ValueError):
            rs.concat(a, rs.reflect(b, 1))


class TestBarrierAndReach:
    def test_low_starts_climb_and_arrive(self, cfg):
        rng = np.random.default_rng(23)
        for _ in range(25):
            theta0 = rng.uniform(0.05, math.pi - 0.05)
            z0 = abs(math.cos(theta0)) + rng.uniform(1e-4, 1.0)
            z0 = min(z0, 1.0)
            if z0 <= abs(math.cos(theta0)):
                continue
            tr = rs.integrate(PhasePoint(theta0, z0), "forward",
                              cfg.with_targets(math.pi))
            assert tr.termination.kind == "theta_crossing"
            assert float(tr.zs[-1]) > 1.0
