"""Command-line front end: portraits, classification, curves, meshes, checks.

Side outputs (portrait's polyline CSVs, extend's regularity report) sit
beside --out, named after it without its extension.  Exit codes: 0 ok, 2
invalid input, 3 numeric failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .errors import ExtensionSpecError, InvalidLambdaError, RotsurfError, TooFewSamplesError
from .field import PhasePoint
from .integrate import IntegratorConfig, integrate, launch_separatrix, with_mirror
from .profile import (
    ExtensionSpec,
    ProfileCurve,
    build_profile,
    cylinder_profile,
    extend_separatrix,
    separatrix_profile,
    sphere_profile,
    verify_profile,
)
from .shooting import SEPARATRIX, SPHERE, classify_lambda, find_lambda0, portrait
from .surface import export_mesh_csv, export_obj, revolve
from .text import text_sink, write_csv, write_json


# IntegratorConfig fields a config file may set (the targets are the commands' own)
CONFIG_KEYS = tuple(f.name for f in fields(IntegratorConfig) if f.name != "theta_targets")


def _load_config_file(path: str) -> dict:
    """The key = value lines of a config file as {key: float}; '#' starts a comment.

    A line without '=', a key outside CONFIG_KEYS or a value float() rejects
    is a ValueError naming the file and line.
    """
    values = {}
    with text_sink(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r} "
                                 f"(accepted: {', '.join(CONFIG_KEYS)})")
            try:
                values[key] = float(val)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return values


def _merge_run_config(args) -> IntegratorConfig:
    """The default IntegratorConfig, updated by the --config file, then by flags."""
    values = _load_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return replace(IntegratorConfig(), **values)


# -- lambda specs ----------------------------------------------------------

MAX_RANGE_LAMBDAS = 10_000  # heights one lo:hi:step range may expand to


def _parse_lambdas(spec: str) -> list[float]:
    """Comma list (1.2,2.5) and/or colon ranges (2:4:0.5, endpoint included)."""
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            parts = tok.split(":")
            if len(parts) != 3:
                raise ValueError(f"range spec must be lo:hi:step, got {tok!r}")
            lo, hi, step = (float(p) for p in parts)
            if not (0.0 < step < math.inf and -math.inf < lo <= hi < math.inf):
                raise ValueError(f"bad range {tok!r}")
            steps = (hi - lo) / step + 1e-12
            if not steps < MAX_RANGE_LAMBDAS:  # also catches an infinite count
                raise ValueError(f"range {tok!r} has more than {MAX_RANGE_LAMBDAS} heights")
            out.extend(lo + k * step for k in range(int(math.floor(steps)) + 1))
        else:
            out.append(float(tok))
    if not out:
        raise ValueError("empty lambda spec")
    if not all(1.0 < l < math.inf for l in out):
        raise ValueError("all lambdas must be finite and exceed 1")
    return out


# -- commands --------------------------------------------------------------


def cmd_portrait(args) -> int:
    lams = _parse_lambdas(args.lambdas) if args.lambdas else []
    cfg = _merge_run_config(args)
    rep = portrait(lams, cfg, tol_lambda0=args.tol)
    doc = {
        "lambda0": {
            "value": rep.lambda0.value,
            "bracket": list(rep.lambda0.bracket),
        },
        "entries": [],
    }
    for entry in rep.entries:
        item = {
            "lambda": entry.lam,
            "class": None if entry.klass is None else entry.klass.tag,
            "polyline": entry.polyline,  # (n, 2), written as [[theta, z], ...]
        }
        if entry.error is not None:
            item["error"] = entry.error
        doc["entries"].append(item)
    write_json(args.out, doc)
    stem = os.path.splitext(args.out)[0]
    for k, entry in enumerate(rep.entries):
        write_csv(f"{stem}_{k:02d}.csv", b"theta,z", entry.polyline)
    print(f"portrait: {len(rep.entries)} entries, lambda0={rep.lambda0.value:.12g} -> {args.out}")
    return 0


def cmd_find_lambda0(args) -> int:
    cfg = _merge_run_config(args)
    if not args.tol > 0.0:  # invalid input exits 2 before any integration
        raise ValueError("tol must be positive")
    # one launch: the bisection's estimate and the printed cross-check
    z_launch = float(launch_separatrix(cfg).zs[-1])
    res = find_lambda0(cfg, tol=args.tol, estimate=z_launch)
    doc = {
        "bisection": {
            "value": res.value,
            "bracket": list(res.bracket),
            "iterations": res.iterations,
        },
        "launch": {"value": z_launch},
        "difference": abs(res.value - z_launch),
    }
    write_json(args.out, doc)
    print(f"lambda0: bisection={res.value:.12g} launch={z_launch:.12g} "
          f"difference={abs(res.value - z_launch):.3g} -> {args.out}")
    return 0


def _check_span(span: float) -> None:
    """--span must be positive and finite, on every curve and mesh path."""
    if not 0.0 < span < math.inf:  # NaN too
        raise ValueError(f"--span must be positive and finite, got {span}")


def _profile_for_lambda(lam: float, span: float, cfg: IntegratorConfig) -> ProfileCurve:
    """Profile on [-span, span]; incomplete cases clamp to their finite span."""
    klass = classify_lambda(lam, cfg)
    if klass.tag == SPHERE:
        prof = sphere_profile()
        keep = np.abs(prof.t) <= span
        if keep.sum() < 2:
            raise ValueError(f"--span {span} keeps fewer than 2 sphere samples "
                             f"(their spacing is {prof.t[1] - prof.t[0]:.2g})")
        if not keep.all():
            prof = ProfileCurve(prof.t[keep], prof.x[keep], prof.z[keep],
                                prof.theta[keep], kind=prof.kind, evaluator=prof.evaluator)
        return prof
    if klass.tag == SEPARATRIX:
        return separatrix_profile(cfg)
    run_cfg = replace(cfg, theta_targets=(), max_time=span)
    back = integrate(PhasePoint(math.pi, lam), "backward", run_cfg)
    return build_profile(with_mirror(back), kind=klass.tag)


def cmd_curve(args) -> int:
    if args.lam is None:
        raise ValueError("curve needs --lambda")
    _check_span(args.span)
    cfg = _merge_run_config(args)
    prof = _profile_for_lambda(args.lam, args.span, cfg)
    prof.write_csv(args.out)
    lo, hi = prof.span
    print(f"curve: lambda={args.lam:.12g} kind={prof.kind} span=[{lo:.6g},{hi:.6g}] "
          f"samples={len(prof)} -> {args.out}")
    return 0


MAX_N_ANGULAR = 1024  # angular samples a revolution mesh may have
MAX_CYLINDER_SAMPLES = 20_001  # profile samples of a builtin cylinder (span 200 at 0.01)
# vertices a revolution mesh may have: the largest builtin cylinder's, whose OBJ is about 2 GB
MAX_MESH_VERTICES = MAX_CYLINDER_SAMPLES * MAX_N_ANGULAR


def cmd_mesh(args) -> int:
    if not 3 <= args.n_angular <= MAX_N_ANGULAR:
        raise ValueError(f"--n-angular must be in [3, {MAX_N_ANGULAR}], got {args.n_angular}")
    _check_span(args.span)
    cfg = _merge_run_config(args)
    if args.builtin == "sphere":
        prof = sphere_profile()
    elif args.builtin == "cylinder":
        steps = args.span / 0.01
        if not steps + 1 <= MAX_CYLINDER_SAMPLES:
            raise ValueError(f"--span {args.span} gives more than {MAX_CYLINDER_SAMPLES} "
                             f"cylinder samples")
        prof = cylinder_profile(args.span, n=max(2, round(steps) + 1))
    elif args.lam is not None:
        prof = _profile_for_lambda(args.lam, args.span, cfg)
    else:
        raise ValueError("mesh needs --builtin sphere|cylinder or --lambda")
    if len(prof) * args.n_angular > MAX_MESH_VERTICES:
        raise ValueError(f"{len(prof)} profile samples x {args.n_angular} angles exceed "
                         f"{MAX_MESH_VERTICES} mesh vertices")
    mesh = revolve(prof, args.n_angular)
    if args.out.endswith(".csv"):
        export_mesh_csv(mesh, args.out)
    else:
        export_obj(mesh, args.out)
    print(f"mesh: {mesh.n_profile} x {mesh.n_angular} vertices, "
          f"{mesh.n_faces} faces -> {args.out}")
    return 0


def cmd_extend(args) -> int:
    segments = tuple(float(s) for s in args.segments.split(",")) if args.segments else ()
    spec = ExtensionSpec(args.copies, segments)
    cfg = _merge_run_config(args)
    curve, report = extend_separatrix(spec, cfg)
    curve.write_csv(args.out)
    stem = os.path.splitext(args.out)[0]
    doc = {
        "h": report.h,
        "junctions": [
            {
                "t": j.t,
                "type": j.junction_type,
                "order": j.order,
                "position_jump": j.position_jump,
                "theta_jump": j.theta_jump,
                "dtheta_jump": j.dtheta_jump,
                "d2theta_jump": j.d2theta_jump,
                "d3theta_jump": j.d3theta_jump,
            }
            for j in report.junctions
        ],
    }
    write_json(f"{stem}.regularity.json", doc)
    orders = ",".join(j.order for j in report.junctions) or "none"
    print(f"extend: copies={args.copies} junction orders: {orders} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--max-residual", args.max_residual), ("--max-speed", args.max_speed)):
        if not value >= 0.0:  # NaN too; such a threshold fails every profile
            raise ValueError(f"{flag} must be non-negative, got {value}")
    prof = ProfileCurve.read_csv(args.input)
    rep = verify_profile(prof, args.step)
    ok = (rep.max_curvature_residual <= args.max_residual
          and rep.max_speed_residual <= args.max_speed
          and rep.monotone_violations == 0)
    doc = {
        "max_curvature_residual": rep.max_curvature_residual,
        "max_speed_residual": rep.max_speed_residual,
        "monotone_violations": rep.monotone_violations,
        "n_points": rep.n_points,
        "h": rep.h,
        "end_trim": rep.end_trim,
        "threshold": args.max_residual,
        "speed_threshold": args.max_speed,
        "pass": ok,
    }
    write_json(args.out or sys.stdout, doc)
    print(f"verify: {'PASS' if ok else 'FAIL'} residual={rep.max_curvature_residual:.3e} "
          f"speed={rep.max_speed_residual:.3e} at h={rep.h:g}")
    return 0 if ok else 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args keeps no state)."""
    top = argparse.ArgumentParser(prog="rotsurf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
        p.add_argument("--abs-tol", dest="abs_tol", type=float, default=None)
        p.add_argument("--boundary-eps", dest="boundary_eps", type=float, default=None)
        p.add_argument("--config", default=None, help="key=value config file")

    p = sub.add_parser("portrait", help="classify a lambda sweep, emit JSON + CSV polylines")
    p.add_argument("--lambdas", required=True, help="comma list and/or lo:hi:step ranges")
    p.add_argument("--tol", type=float, default=1e-8, help="lambda0 bisection tolerance")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("find-lambda0", help="critical height by bisection and series launch")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_find_lambda0)

    p = sub.add_parser("curve", help="emit one profile curve as CSV")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--span", type=float, default=20.0,
                   help="half-width of the time window (clamped for incomplete cases)")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("mesh", help="revolve a profile into a mesh (.obj or .csv)")
    p.add_argument("--builtin", choices=["sphere", "cylinder"], default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--span", type=float, default=6.0)
    p.add_argument("--n-angular", dest="n_angular", type=int, default=64)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("extend", help="glue critical-profile copies with unit-height segments")
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--segments", default="", help="comma list of segment lengths")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="curvature-norm check of an emitted profile CSV")
    p.add_argument("input", help="profile CSV (t,x,z,theta)")
    p.add_argument("--step", type=float, default=1e-3,
                   help="step h: the end collar is 10 h, a monotone violation k1 < -1e-9 / h")
    p.add_argument("--max-residual", dest="max_residual", type=float, default=1e-4,
                   help="curvature-norm residual threshold")
    p.add_argument("--max-speed", dest="max_speed", type=float, default=1e-6,
                   help="unit-speed residual threshold")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InvalidLambdaError, TooFewSamplesError, ExtensionSpecError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RotsurfError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
