import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import rotsurf as rs
import rotsurf.cli
import rotsurf.shooting
import rotsurf.text
from rotsurf.cli import main
from rotsurf.errors import RotsurfError, StepUnderflowError

from oracles import LAMBDA0_REF

integrate_mod = importlib.import_module("rotsurf.integrate")  # rs.integrate is the function

SQRT2 = math.sqrt(2.0)


def run(*argv):
    return main([str(a) for a in argv])


class TestFindLambda0:
    def test_report(self, tmp_path):
        out = tmp_path / "lambda0.json"
        assert run("find-lambda0", "--tol", "1e-6", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["bisection"]["value"] == pytest.approx(LAMBDA0_REF, abs=1e-6)
        assert doc["bisection"]["value"] > SQRT2
        lo, hi = doc["bisection"]["bracket"]
        assert hi - lo <= 1e-6
        assert doc["difference"] <= 1e-6
        assert doc["launch"]["value"] == pytest.approx(LAMBDA0_REF, abs=1e-6)

    def test_tighter_tol_shrinks_bracket(self, tmp_path):
        widths = []
        for tol in ("1e-3", "1e-5"):
            out = tmp_path / f"l{tol}.json"
            assert run("find-lambda0", "--tol", tol, "--out", out) == 0
            lo, hi = json.loads(out.read_text())["bisection"]["bracket"]
            widths.append(hi - lo)
        assert widths[1] < widths[0]

    def test_tiny_tol_stops_at_adjacent_floats(self, cfg, tmp_path):
        # below one ulp the midpoint is lo or hi: the bracket cannot shrink
        res = rs.find_lambda0(cfg, tol=1e-300)
        lo, hi = res.bracket
        assert hi == math.nextafter(lo, math.inf)
        assert res.iterations <= 64
        out = tmp_path / "tiny.json"
        assert run("find-lambda0", "--tol", "1e-20", "--out", out) == 0
        assert json.loads(out.read_text())["bisection"]["bracket"] == [lo, hi]

    def test_one_launch_per_command(self, tmp_path, monkeypatch):
        # the launch is both the bisection's estimate and the cross-check
        launches = []
        real = rs.cli.launch_separatrix

        def counted(cfg):
            launches.append(cfg)
            return real(cfg)

        monkeypatch.setattr(rs.cli, "launch_separatrix", counted)
        monkeypatch.setattr(rs.shooting, "launch_separatrix", counted)
        assert run("find-lambda0", "--tol", "1e-8", "--out", tmp_path / "l.json") == 0
        assert len(launches) == 1

    def test_bad_tol_exit_2_before_launch(self, tmp_path, monkeypatch):
        def never(cfg):
            raise AssertionError("launched")

        monkeypatch.setattr(rs.cli, "launch_separatrix", never)
        for tol in ("0", "-1", "nan"):
            assert run("find-lambda0", "--tol", tol, "--out", tmp_path / "l.json") == 2


class TestPortrait:
    def test_json_schema_and_order(self, tmp_path):
        out = tmp_path / "portrait.json"
        assert run("portrait", "--lambdas", "1.2,2.5,4.0", "--tol", "1e-6",
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"lambda0", "entries"}
        assert doc["lambda0"]["value"] == pytest.approx(LAMBDA0_REF, abs=1e-5)
        classes = [e["class"] for e in doc["entries"]]
        assert classes == ["IncompleteLow", "IncompleteHigh", "Periodic"]
        for e in doc["entries"]:
            assert len(e["polyline"]) > 10
            assert all(len(p) == 2 for p in e["polyline"])
        # one polyline CSV per entry
        for k in range(3):
            csv = tmp_path / f"portrait_{k:02d}.csv"
            assert csv.exists()
            assert csv.read_text().splitlines()[0] == "theta,z"

    def test_range_spec(self, tmp_path):
        out = tmp_path / "p.json"
        assert run("portrait", "--lambdas", "2.0:3.0:0.5", "--tol", "1e-5",
                   "--out", out) == 0
        doc = json.loads(out.read_text())
        assert [e["lambda"] for e in doc["entries"]] == [2.0, 2.5, 3.0]

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("portrait", "--lambdas", "1.5,4.0", "--tol", "1e-5", "--out", a)
        run("portrait", "--lambdas", "1.5,4.0", "--tol", "1e-5", "--out", b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_00.csv").read_bytes() == (tmp_path / "b_00.csv").read_bytes()

    def test_error_entry_writes_header_only(self, tmp_path, monkeypatch):
        # a failed entry has an empty polyline: its CSV is the header alone
        real = rs.shooting.full_curve

        def failing(lam, cfg):
            if lam == 4.0:
                raise StepUnderflowError("forced")
            return real(lam, cfg)

        monkeypatch.setattr(rs.shooting, "full_curve", failing)
        out = tmp_path / "p.json"
        assert run("portrait", "--lambdas", "2.5,4.0", "--tol", "1e-5", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["entries"][1]["error"] == "forced"
        assert (tmp_path / "p_01.csv").read_bytes() == b"theta,z\n"
        assert len((tmp_path / "p_00.csv").read_text().splitlines()) > 10

    def test_invalid_spec_exit_2(self, tmp_path):
        assert run("portrait", "--lambdas", "0.5,2.0:", "--out", tmp_path / "x.json") == 2
        assert run("portrait", "--lambdas", "1.0", "--out", tmp_path / "x.json") == 2
        assert run("portrait", "--lambdas", "2,inf", "--out", tmp_path / "x.json") == 2
        assert run("portrait", "--lambdas", "2:inf:0.5", "--out", tmp_path / "x.json") == 2
        assert run("portrait", "--lambdas=-inf:2:0.5", "--out", tmp_path / "x.json") == 2
        # the height count is bounded before any list is built
        assert run("portrait", "--lambdas", "2:3:1e-320", "--out", tmp_path / "x.json") == 2
        assert run("portrait", "--lambdas", "2:3:1e-9", "--out", tmp_path / "x.json") == 2


class TestCurve:
    def test_incomplete_clamped_span(self, tmp_path):
        out = tmp_path / "low.csv"
        assert run("curve", "--lambda", "1.2", "--span", "50", "--out", out) == 0
        prof = rs.ProfileCurve.read_csv(out)
        lo, hi = prof.span
        assert hi < 2.0  # finite span, far below the requested 50
        assert hi == pytest.approx(-lo, abs=1e-9)
        # terminal height inside (0, 1): the boundary limit
        assert 0.0 < prof.z[0] < 1.0 and 0.0 < prof.z[-1] < 1.0

    def test_sphere_special_case(self, tmp_path):
        out = tmp_path / "sphere.csv"
        assert run("curve", "--lambda", repr(SQRT2), "--out", out) == 0
        prof = rs.ProfileCurve.read_csv(out)
        r = np.hypot(prof.x + SQRT2, prof.z)
        assert np.max(np.abs(r - SQRT2)) <= 1e-12

    def test_missing_lambda_exit_2(self, tmp_path):
        assert run("curve", "--out", tmp_path / "x.csv") == 2
        assert run("curve", "--lambda", "inf", "--out", tmp_path / "x.csv") == 2
        assert run("curve", "--lambda", "4", "--span", "-1", "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("argv", [
        ("curve", "--lambda", repr(SQRT2)),
        ("curve", "--lambda", "4"),
        ("curve", "--lambda", "1.2"),
        ("mesh", "--builtin", "sphere"),
        ("mesh", "--builtin", "cylinder"),
        ("mesh", "--lambda", "4"),
    ])
    @pytest.mark.parametrize("span", ["-1", "0", "nan", "inf", "-inf"])
    def test_bad_span_exit_2(self, tmp_path, capsys, argv, span):
        # every curve and mesh path names --span, the sphere's included,
        # which once ignored a bad span and wrote the full curve
        out = tmp_path / "x.csv"
        assert run(*argv, f"--span={span}", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --span ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["curve", "mesh"])
    def test_sphere_span_below_sample_spacing_exit_2(self, tmp_path, capsys, command):
        # a span that keeps fewer than 2 of the sphere's samples (spacing
        # 0.0037) once wrote the whole sphere
        out = tmp_path / "x.csv"
        assert run(command, "--lambda", repr(SQRT2), "--span", "1e-3", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --span ") and err.count("\n") == 1
        assert not out.exists()

    def test_sphere_span_of_three_samples(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("curve", "--lambda", repr(SQRT2), "--span", "0.004", "--out", out) == 0
        prof = rs.ProfileCurve.read_csv(out)
        assert len(prof) == 3 and np.all(np.abs(prof.t) <= 0.004)

    def test_step_cap_exit_3(self, tmp_path, monkeypatch):
        # a periodic height integrates for the whole span, up to the cap
        monkeypatch.setattr(integrate_mod, "MAX_STEPS", 1000)
        for argv in (("curve", "--lambda", "4"), ("mesh", "--lambda", "4", "--n-angular", "8")):
            assert run(*argv, "--span", "1e300", "--out", tmp_path / "x.csv") == 3
        assert not (tmp_path / "x.csv").exists()

    def test_zero_error_norm_step(self, tmp_path):
        # the span leaves a sliver last step whose error estimate is exactly 0
        out = tmp_path / "c.csv"
        assert run("curve", "--lambda", "7.990553728359371", "--span", "3.829698502067207",
                   "--out", out) == 0
        assert rs.ProfileCurve.read_csv(out).span[1] == pytest.approx(3.829698502067207)


class TestMesh:
    def test_builtin_sphere_obj(self, tmp_path):
        out = tmp_path / "sphere.obj"
        assert run("mesh", "--builtin", "sphere", "--n-angular", "16",
                   "--out", out) == 0
        verts, faces = rs.parse_obj(out)
        d = np.linalg.norm(verts - np.array([-SQRT2, 0, 0]), axis=1)
        assert np.max(np.abs(d - SQRT2)) <= 1e-12
        assert len(faces) > 0

    def test_builtin_cylinder_csv(self, tmp_path):
        out = tmp_path / "cyl.csv"
        assert run("mesh", "--builtin", "cylinder", "--span", "2.0",
                   "--n-angular", "8", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j,x,y,z"

    def test_requires_source_exit_2(self, tmp_path):
        assert run("mesh", "--out", tmp_path / "m.obj") == 2

    def test_n_angular_bounds_exit_2(self, tmp_path, monkeypatch):
        # rejected before any profile or mesh is built
        def never(*args, **kwargs):
            raise AssertionError("built a profile or mesh")

        monkeypatch.setattr(rs.cli, "sphere_profile", never)
        monkeypatch.setattr(rs.cli, "revolve", never)
        for n in (rs.cli.MAX_N_ANGULAR + 1, 0, -5):
            assert run("mesh", "--builtin", "sphere", "--n-angular", n,
                       "--out", tmp_path / "m.obj") == 2
        assert not (tmp_path / "m.obj").exists()

    def test_cylinder_span_bounds_exit_2(self, tmp_path, monkeypatch, capsys):
        # the sample count is checked before the profile is built
        built = []

        def cylinder(span, n):
            built.append(n)
            raise RotsurfError("not built")

        def never(*args, **kwargs):
            raise AssertionError("built a mesh")

        monkeypatch.setattr(rs.cli, "cylinder_profile", cylinder)
        monkeypatch.setattr(rs.cli, "revolve", never)
        top = 0.01 * (rs.cli.MAX_CYLINDER_SAMPLES - 1)
        for span in ("inf", "nan", "1e9", "1e300", repr(top + 0.01)):
            capsys.readouterr()
            assert run("mesh", "--builtin", "cylinder", "--span", span,
                       "--out", tmp_path / "m.obj") == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert built == []
        assert run("mesh", "--builtin", "cylinder", "--span", repr(top),
                   "--out", tmp_path / "m.obj") == 3
        assert built == [rs.cli.MAX_CYLINDER_SAMPLES]

    def test_total_size_bound_exit_2(self, cfg, tmp_path, monkeypatch, capsys):
        # len(profile) * n_angular is checked before revolve allocates
        revolved = []

        def revolve(prof, n_angular):
            revolved.append(len(prof) * n_angular)
            raise RotsurfError("not revolved")

        monkeypatch.setattr(rs.cli, "revolve", revolve)
        n_vertices = len(rs.cli._profile_for_lambda(2.5, 2.0, cfg)) * 8
        argv = ("mesh", "--lambda", "2.5", "--span", "2", "--n-angular", "8",
                "--out", tmp_path / "m.obj")
        monkeypatch.setattr(rs.cli, "MAX_MESH_VERTICES", n_vertices - 1)
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert revolved == []
        monkeypatch.setattr(rs.cli, "MAX_MESH_VERTICES", n_vertices)
        assert run(*argv) == 3
        assert revolved == [n_vertices]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        run("mesh", "--builtin", "sphere", "--n-angular", "12", "--out", a)
        run("mesh", "--builtin", "sphere", "--n-angular", "12", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_parser_built_once_keeps_no_state(self, tmp_path):
        # main reuses one parser: a --builtin run must not leak into the next
        assert rs.cli.build_parser() is rs.cli.build_parser()
        assert run("mesh", "--builtin", "sphere", "--n-angular", "8",
                   "--out", tmp_path / "s.obj") == 0
        argv = ["mesh", "--lambda", "4", "--span", "1", "--n-angular", "8", "--out"]
        after, alone = tmp_path / "after.obj", tmp_path / "alone.obj"
        assert rs.cli.build_parser().parse_args(argv + [str(after)]).builtin is None
        assert run(*argv, after) == 0
        rs.cli.build_parser.cache_clear()
        assert run(*argv, alone) == 0
        assert after.read_bytes() == alone.read_bytes()


class TestExtendAndVerify:
    def test_extend_report(self, tmp_path):
        out = tmp_path / "ext.csv"
        assert run("extend", "--copies", "2", "--segments", "1.0", "--out", out) == 0
        doc = json.loads((tmp_path / "ext.regularity.json").read_text())
        orders = [j["order"] for j in doc["junctions"]]
        assert orders == ["C3", "C3"]
        for j in doc["junctions"]:
            assert j["d3theta_jump"] == pytest.approx(1 / 3, rel=0.1)

    def test_extend_bad_segments_exit_2(self, tmp_path, capsys):
        # a plan ExtensionSpec rejects is bad input, not a numeric failure
        for argv in (["--copies", "3", "--segments", "1.0"], ["--copies", "0"]):
            assert run("extend", *argv, "--out", tmp_path / "x.csv") == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("length", ["nan", "inf"])
    def test_extend_non_finite_segment_exit_2(self, tmp_path, capsys, length):
        # NaN once failed "> 0" and was glued as a direct copy-copy junction
        out = tmp_path / "x.csv"
        assert run("extend", "--copies", "2", "--segments", length, "--out", out) == 2
        err = capsys.readouterr().err
        assert "finite" in err and err.count("\n") == 1
        assert not out.exists()

    def test_extend_sample_bound_exit_2(self, tmp_path, capsys):
        # a 1e9 segment would need 1e11 samples: refused before any grid is built
        out = tmp_path / "x.csv"
        assert run("extend", "--copies", "2", "--segments", "1e9", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(rs.profile.MAX_RESAMPLE_STEPS) in err
        assert not out.exists()

    def test_verify_pass_and_fail(self, tmp_path):
        curve = tmp_path / "c.csv"
        run("curve", "--lambda", "4.0", "--span", "8", "--out", curve)
        report = tmp_path / "rep.json"
        assert run("verify", curve, "--step", "1e-3", "--max-residual", "1e-4",
                   "--out", report) == 0
        doc = json.loads(report.read_text())
        assert doc["pass"] is True
        assert doc["max_curvature_residual"] <= 1e-4

        # corrupt the geometry: scale z by 1.05 -> |A| != 1
        lines = curve.read_text().splitlines()
        head, rows = lines[0], lines[1:]
        bad = [head]
        for r in rows:
            t, x, z, th = r.split(",")
            bad.append(f"{t},{x},{float(z) * 1.05:.17g},{th}")
        badfile = tmp_path / "bad.csv"
        badfile.write_text("\n".join(bad) + "\n")
        assert run("verify", badfile, "--step", "1e-3",
                   "--max-residual", "1e-4") == 4

    def test_verify_passes_full_incomplete_curves(self, tmp_path, capsys):
        # every curve on [1.05, 3.15] is incomplete, and --span 10 emits it
        # to its two contact ends: build_profile grades its rows there
        # finely enough (CONTACT_MIN_DT) that verify's stencils just outside
        # its collar do not read the end's s^(3/2).  With a SAMPLE_DT / 4
        # floor, lambda 1.43, 1.45, 1.47 and 1.61 failed (worst 3.3e-4);
        # the worst here is 3.4e-5
        curve, report = tmp_path / "c.csv", tmp_path / "rep.json"
        worst = 0.0
        for lam in np.linspace(1.05, 3.15, 106).tolist():
            run("curve", "--lambda", repr(lam), "--span", "10", "--out", curve)
            assert run("verify", curve, "--step", "1e-3", "--out", report) == 0, lam
            worst = max(worst, json.loads(report.read_text())["max_curvature_residual"])
        assert worst <= 5e-5
        assert capsys.readouterr().out.count("kind=Incomplete") == 106

    def test_verify_degenerate_profile_writes_strict_json(self, tmp_path):
        # rows that do not move give a NaN residual: the report holds null,
        # the verdict is FAIL (exit 4) and numpy prints no warning
        still = tmp_path / "still.csv"
        still.write_text("t,x,z,theta\n" + "".join(f"{k},0,1,0\n" for k in range(7)))
        report = tmp_path / "rep.json"
        src = str(Path(rs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run([sys.executable, "-m", "rotsurf.cli", "verify", str(still),
                               "--out", str(report)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 4, done.stderr
        assert done.stderr == ""
        doc = strict_json(report.read_text())
        assert doc["max_curvature_residual"] is None
        assert doc["pass"] is False
        buf = io.BytesIO()
        rotsurf.text.write_json(buf, [math.nan, math.inf, -math.inf, 1.5, np.float64(-math.inf)])
        assert buf.getvalue() == b"[null,null,null,1.5,null]\n"

    def test_side_outputs_beside_a_dotted_directory(self, tmp_path):
        # the stem of --out drops only the file's own extension
        where = tmp_path / "x" / "a.b"
        where.mkdir(parents=True)
        assert run("extend", "--copies", "1", "--out", where / "curve") == 0
        assert run("portrait", "--lambdas", "4.0", "--tol", "1e-5", "--out", where / "p") == 0
        assert sorted(os.listdir(where)) == ["curve", "curve.regularity.json", "p", "p_00.csv"]
        assert os.listdir(tmp_path / "x") == ["a.b"]

    def test_verify_emitted_sphere_at_1e8(self, tmp_path):
        curve = tmp_path / "sphere.csv"
        run("curve", "--lambda", repr(SQRT2), "--out", curve)
        assert run("verify", curve, "--step", "1e-3",
                   "--max-residual", "1e-8") == 0

    @pytest.mark.parametrize("flag", ["--max-residual", "--max-speed"])
    @pytest.mark.parametrize("value", ["nan", "-1", "-1e-300"])
    def test_verify_bad_threshold_exit_2(self, tmp_path, capsys, flag, value):
        # a NaN or negative threshold fails every profile: invalid input, not a FAIL
        curve, report = tmp_path / "c.csv", tmp_path / "rep.json"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        capsys.readouterr()
        assert run("verify", curve, f"{flag}={value}", "--out", report) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err
        assert not report.exists()

    def test_verify_missing_file_exit_2(self, tmp_path):
        assert run("verify", tmp_path / "nope.csv") == 2

    @pytest.mark.parametrize("rows, n_cols", [
        ("", 0),  # header only
        ("0,0,1\n0.1,0.1,1\n", 3),
        ("0,0,1,0,9\n0.1,0.1,1,0,9\n", 5),
    ])
    def test_verify_column_count_exit_2(self, tmp_path, capsys, rows, n_cols):
        # 0 and 3 columns once raised IndexError (a traceback, exit 1); a fifth
        # column was silently ignored
        csv, out = tmp_path / "p.csv", tmp_path / "v.json"
        csv.write_text("t,x,z,theta\n" + rows)
        assert run("verify", csv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"have {n_cols} columns" in err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["t", "x", "z", "theta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_verify_non_finite_value_exit_2(self, tmp_path, capsys, column, value):
        # a NaN x once gave FAIL residual=nan (exit 4), a NaN theta PASS, and
        # a NaN z the numeric failure "profile has z <= 0" (exit 3)
        curve, out = tmp_path / "c.csv", tmp_path / "v.json"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        lines = curve.read_text().splitlines()
        row = lines[40].split(",")
        row["t,x,z,theta".split(",").index(column)] = value
        lines[40] = ",".join(row)
        curve.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("verify", curve, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"data row 40: {column} is {value}, not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("column, value, message", [
        ("z", "0", "data row 40: z is 0.0, not positive"),
        ("z", "-0.0", "data row 40: z is -0.0, not positive"),
        ("z", "-0.5", "data row 40: z is -0.5, not positive"),
        ("t", None, "data row 40: t is "),  # t of data row 39 repeated
    ])
    def test_verify_invalid_profile_row_exit_2(self, tmp_path, capsys, column, value, message):
        # a z that is finite and not positive once exited 3 ("profile has
        # z <= 0"), and a t not above the row before named no row
        curve, out = tmp_path / "c.csv", tmp_path / "v.json"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        lines = curve.read_text().splitlines()
        row = lines[40].split(",")
        col = "t,x,z,theta".split(",").index(column)
        row[col] = lines[39].split(",")[col] if value is None else value
        lines[40] = ",".join(row)
        curve.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("verify", curve, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        if value is None:
            assert "not above the row before" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda f: ",".join([f[0], "abc", *f[2:]]), "data row 40: x is 'abc', not a number"),
        (lambda f: ",".join([*f[:3], "0x1p3"]), "data row 40: theta is '0x1p3', not a number"),
        (lambda f: ",".join([f[0], '"1"', *f[2:]]), "data row 40: x is '\"1\"', not a number"),
        (lambda f: ";".join(f), "data row 40 has 1 column, expected 4 (t,x,z,theta)"),
        (lambda f: ",".join(f[:3]), "data row 40 has 3 columns, expected 4 (t,x,z,theta)"),
        (lambda f: ",".join([*f, "1"]), "data row 40 has 5 columns, expected 4 (t,x,z,theta)"),
    ], ids=["abc", "hex", "quoted", "semicolons", "3-fields", "5-fields"])
    def test_verify_unreadable_row_exit_2(self, tmp_path, capsys, edit, message):
        # np.loadtxt's own messages once counted rows from 0 for a value and
        # from 1 for a column count, and named a usecols argument
        curve, out = tmp_path / "c.csv", tmp_path / "v.json"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        lines = curve.read_text().splitlines()
        lines[40] = edit(lines[40].split(","))
        curve.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("verify", curve, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: profile CSV {message}\n"
        assert captured.out == "" and not out.exists()

    def test_verify_non_finite_names_data_row_past_comments(self, tmp_path, capsys):
        # comment and blank lines are skipped: the message counts data rows
        curve, out = tmp_path / "c.csv", tmp_path / "v.json"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        lines = curve.read_text().splitlines()
        lines[40] = lines[40].replace(lines[40].split(",")[2], "nan", 1)
        lines[10:10] = ["# a comment", ""]
        curve.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("verify", curve, "--out", out) == 2
        assert "data row 40: z is nan" in capsys.readouterr().err

    def test_verify_irregular_gaps_pass(self, tmp_path):
        # the estimator reads the samples on their own times, so a gap about
        # 20 times its neighbours is data like any other
        curve, out = tmp_path / "c.csv", tmp_path / "v.json"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        header, *rows = curve.read_text().splitlines()
        del rows[41:60]  # one gap about 20 times its neighbour
        curve.write_text("\n".join([header] + rows) + "\n")
        t = [float(r.split(",")[0]) for r in rows[39:43]]
        assert (t[2] - t[1]) / (t[1] - t[0]) > 19.0
        assert run("verify", curve, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True and doc["n_points"] == len(rows)
        assert doc["max_curvature_residual"] <= 1e-4

    @pytest.mark.parametrize("rows, message", [
        ("0,0,1,0\n", "profile needs at least 2 samples"),
        ("".join(f"{k * 0.1!r},{k * 0.1!r},1,0\n" for k in range(4)),
         "4 points; the 5-point estimator needs at least 5"),
        ("".join(f"{k * 1e-301!r},0,1,0\n" for k in range(20)),
         "no stencil centre of the 20 points lies 0.01 inside both ends"),
    ], ids=["one-row", "four-rows", "gaps-1e-301"])
    def test_verify_too_few_samples_exit_2(self, tmp_path, capsys, rows, message):
        # too few samples, or none outside the end collar, is bad input: each
        # once exited 3 as a numeric failure
        csv, out = tmp_path / "p.csv", tmp_path / "v.json"
        csv.write_text("t,x,z,theta\n" + rows)
        assert run("verify", csv, "--step", "1e-3", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_verify_runs_without_scipy(self, tmp_path):
        # the package needs only numpy, though the test extra installs scipy:
        # with scipy unimportable, curve and verify still exit 0 and load no
        # scipy module
        curve = tmp_path / "c.csv"
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from rotsurf.cli import main\n"
            f"codes = (main(['curve', '--lambda', '4', '--span', '2', '--out', {str(curve)!r}]),\n"
            f"         main(['verify', {str(curve)!r}, '--step', '1e-3']))\n"
            "loaded = [m for m, mod in sys.modules.items()\n"
            "          if m.split('.')[0] == 'scipy' and mod is not None]\n"
            "print(codes, loaded)\n"
            "sys.exit(codes != (0, 0) or bool(loaded))\n")
        src = str(Path(rs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines()[-1] == "(0, 0) []"

    def test_import_and_shooting_load_no_orjson(self, tmp_path):
        # the number text and the CSV reader import orjson on first use, so
        # the CLI's import and the library's shooting path start without it;
        # a command that writes a file loads it
        code = (
            "import sys\n"
            "import rotsurf.cli\n"
            "from rotsurf import IntegratorConfig, classify_lambda, full_curve\n"
            "seen = ['orjson' in sys.modules]\n"
            "cfg = IntegratorConfig()\n"
            "classify_lambda(4.0, cfg), full_curve(4.0, cfg)\n"
            "seen.append('orjson' in sys.modules)\n"
            "argv = ['curve', '--lambda', '4', '--span', '2', '--out', sys.argv[1]]\n"
            "seen += [rotsurf.cli.main(argv), 'orjson' in sys.modules]\n"
            "print(seen)\n")
        src = str(Path(rs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.csv")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines()[-1] == str([False, False, 0, True])

    @pytest.mark.parametrize("flag", ["--rel-tol=nan", "--abs-tol=nan",
                                      "--boundary-eps=1e-10", "--config=run.conf"])
    def test_verify_rejects_integrator_flags(self, tmp_path, capsys, flag):
        # verify integrates nothing, so it takes no integrator settings
        curve = tmp_path / "c.csv"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        with pytest.raises(SystemExit) as exc:
            run("verify", curve, flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens strict JSON does not have."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


class TestOutputSinks:
    """Every writer gives the same bytes to a path, a binary handle and a text handle."""

    @staticmethod
    def assert_same_bytes(write, path):
        """write(sink) to a BytesIO, a StringIO and binary and text files gives path's bytes."""
        want = path.read_bytes()
        binary, text = io.BytesIO(), io.StringIO()
        write(binary)
        write(text)
        assert binary.getvalue() == want
        assert text.getvalue().encode() == want
        for mode, newline in (("wb", None), ("w", "")):
            other = path.with_name(f"again-{mode}")
            with open(other, mode, newline=newline) as fh:
                write(fh)
            assert other.read_bytes() == want
        return want

    def test_library_writers(self, cfg, tmp_path):
        prof = rs.build_profile(rs.full_curve(2.5, cfg))
        mesh = rs.revolve(prof, 7)
        for name, write in (("p.csv", prof.write_csv),
                            ("m.obj", lambda sink: rs.export_obj(mesh, sink)),
                            ("m.csv", lambda sink: rs.export_mesh_csv(mesh, sink))):
            path = tmp_path / name
            write(path)
            data = self.assert_same_bytes(write, path)
            assert data.endswith(b"\n") and b"\r" not in data

    def test_cli_outputs(self, tmp_path):
        # the CLI writes paths; its JSON and polyline CSVs, written again from
        # what they hold, are the same bytes on every kind of sink
        out = tmp_path / "p.json"
        assert run("portrait", "--lambdas", "1.2,4.0", "--tol", "1e-5", "--out", out) == 0
        assert run("extend", "--copies", "2", "--segments", "0.5",
                   "--out", tmp_path / "e.csv") == 0
        assert run("verify", tmp_path / "e.csv", "--out", tmp_path / "v.json") == 0
        for name in ("p.json", "e.regularity.json", "v.json"):
            path = tmp_path / name
            doc = strict_json(path.read_text())
            self.assert_same_bytes(lambda sink: rotsurf.text.write_json(sink, doc), path)
        for k in range(2):
            path = tmp_path / f"p_{k:02d}.csv"
            polyline = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

            def write(sink):
                with rs.text.byte_sink(sink) as put:
                    put(b"theta,z\n")
                    rs.text.write_rows(put, polyline)

            self.assert_same_bytes(write, path)

    def test_verify_report_to_stdout(self, tmp_path):
        curve = tmp_path / "c.csv"
        assert run("curve", "--lambda", "4.0", "--span", "2", "--out", curve) == 0
        assert run("verify", curve, "--out", tmp_path / "v.json") == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run("verify", curve) == 0
        assert stdout.getvalue().splitlines(True)[0] == (tmp_path / "v.json").read_text()


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        # a fat boundary_eps in the file truncates the curve early; the
        # flag overrides it and restores the full span
        conf = tmp_path / "run.conf"
        conf.write_text("boundary_eps = 0.05   # fat contact band\nrel_tol = 1e-10\n")
        out1 = tmp_path / "a.csv"
        assert run("curve", "--lambda", "1.2", "--config", conf, "--out", out1) == 0
        short = rs.ProfileCurve.read_csv(out1)
        out2 = tmp_path / "b.csv"
        assert run("curve", "--lambda", "1.2", "--config", conf,
                   "--boundary-eps", "1e-10", "--out", out2) == 0
        full = rs.ProfileCurve.read_csv(out2)
        assert full.span[1] > short.span[1] + 0.02

    def test_malformed_config_exit_2(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("rel_tol 1e-10\n")
        assert run("curve", "--lambda", "1.2", "--config", conf,
                   "--out", tmp_path / "x.csv") == 2

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        # a misspelt key was once ignored, and the run used the default
        conf = tmp_path / "typo.conf"
        conf.write_text("rel_tl = 1e-3\n")
        out = tmp_path / "x.csv"
        assert run("curve", "--lambda", "4", "--span", "2", "--config", conf,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert "'rel_tl'" in err and err.count("\n") == 1
        assert not out.exists()

    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys):
        # the bare float() error named neither the file, the line nor the key
        conf = tmp_path / "bad.conf"
        conf.write_text("# tolerances\nabs_tol = 1e-12\nrel_tol = abc\n")
        out = tmp_path / "x.csv"
        assert run("curve", "--lambda", "4", "--span", "2", "--config", conf,
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: {conf}:3: bad value for rel_tol: 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("curve", "--lambda", "4", "--span", "2"),
                                      ("find-lambda0",)])
    def test_infinite_boundary_eps_exit_2(self, tmp_path, capsys, argv):
        # it once passed validation: curve exited 2 on its non-increasing
        # profile times, find-lambda0 3 after doubling lambda to 2^16
        out = tmp_path / "o.out"
        assert run(*argv, "--boundary-eps", "inf", "--out", out) == 2
        err = capsys.readouterr().err
        assert "boundary_eps" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("portrait", "--lambdas", "2,4", "--boundary-eps", "10"),
        ("curve", "--lambda", "4", "--span", "2", "--boundary-eps", "10"),
        ("curve", "--lambda", "1.00000000001"),
        ("find-lambda0", "--boundary-eps", "1e300"),
    ])
    def test_start_within_boundary_eps_exit_2(self, tmp_path, capsys, argv):
        # a start whose domain gap is at most boundary_eps stopped at once:
        # portrait exited 0 with lambda0 = 13.00..., curve 2 on non-increasing
        # profile times, find-lambda0 3 after doubling lambda to 2^16
        out = tmp_path / "o.out"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "boundary_eps" in err and err.count("\n") == 1
        assert not out.exists()

    def test_merge_is_an_integrator_config(self, tmp_path):
        # defaults, then the file's values, then the flags
        conf = tmp_path / "run.conf"
        conf.write_text("max_time = 50\nrel_tol = 1e-10\n")
        args = rs.cli.build_parser().parse_args(
            ["curve", "--config", str(conf), "--rel-tol", "1e-9", "--out", "x.csv"])
        assert rs.cli._merge_run_config(args) == rs.IntegratorConfig(max_time=50.0, rel_tol=1e-9)


# Hostile values for every numeric flag, next to ordinary ones.
HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")


def _values(*ordinary):
    """Half hostile, half ordinary."""
    return st.one_of(st.sampled_from(HOSTILE), st.sampled_from(ordinary))


@st.composite
def _argv(draw, csv):
    """A command and flags; every flag is --name=value, so '-1' is a value."""
    cmd = draw(st.sampled_from(("curve", "mesh", "portrait", "find-lambda0", "extend", "verify")))
    heights = _values("1.2", repr(SQRT2), "2.5", "3.2136243987", "4")
    argv = [cmd]
    if cmd == "curve":
        argv += [f"--lambda={draw(heights)}", f"--span={draw(_values('0.5', '3'))}"]
    elif cmd == "mesh":
        source = draw(st.sampled_from(("sphere", "cylinder", "lambda")))
        argv.append(f"--lambda={draw(heights)}" if source == "lambda" else f"--builtin={source}")
        argv += [f"--span={draw(_values('0.5', '3'))}",
                 f"--n-angular={draw(st.integers(-2, 64))}"]
    elif cmd == "portrait":
        spec = draw(st.one_of(
            st.lists(heights, min_size=1, max_size=3).map(",".join),
            st.tuples(heights, heights, _values("0.5")).map(":".join)))
        argv += [f"--lambdas={spec}", f"--tol={draw(_values('1e-3', '1e-8'))}"]
    elif cmd == "find-lambda0":
        argv.append(f"--tol={draw(_values('1e-3', '1e-8'))}")
    elif cmd == "extend":
        segments = ",".join(draw(st.lists(_values("0.5", "0"), max_size=3)))
        argv += [f"--copies={draw(st.integers(-1, 4))}", f"--segments={segments}"]
    else:
        argv += [csv, f"--step={draw(_values('1e-3', '5e-3'))}",
                 f"--max-residual={draw(_values('1e-4'))}",
                 f"--max-speed={draw(_values('1e-6'))}"]
    for flag in ("--rel-tol", "--abs-tol", "--boundary-eps"):
        if draw(st.integers(0, 3)) == 3:  # one vector in four sets it
            argv.append(f"{flag}={draw(_values('1e-10'))}")
    return argv


class TestHostileArgv:
    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("hostile")
        run("curve", "--lambda", "4", "--span", "3", "--out", work / "c.csv")
        return work

    def test_exit_codes(self, work):
        @settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(argv=_argv(str(work / "c.csv")))
        # vectors that once hung, allocated without bound or raised
        @example(argv=["curve", "--lambda=4", "--span=1e300"])
        @example(argv=["find-lambda0", "--tol=1e-300", "--abs-tol=1e-300"])
        @example(argv=["portrait", "--lambdas=4", "--rel-tol=1e-300", "--abs-tol=1e-300"])
        @example(argv=["mesh", "--builtin=cylinder", "--span=inf"])
        @example(argv=["verify", str(work / "c.csv"), "--step=1e-9"])
        @example(argv=["extend", "--copies=2", "--segments=inf"])
        @example(argv=["extend", "--copies=2", "--segments=nan"])
        @example(argv=["extend", "--copies=2", "--segments=1e9"])
        def check(argv):
            out = str(work / ("o.json" if argv[0] in ("portrait", "find-lambda0", "verify")
                              else "o.csv"))
            err = io.StringIO()
            # any other exception escaping main (a traceback) fails the example
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv + [f"--out={out}"])
                except SystemExit as exc:  # argparse rejects the vector
                    code = exc.code
            assert code in (0, 2, 3, 4), (argv, err.getvalue())
            if code in (2, 3):
                assert err.getvalue().count("\n") == 1 or err.getvalue().startswith("usage:")

        check()
