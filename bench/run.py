#!/usr/bin/env python3
"""rotsurf benchmark: one closed-loop client driving the package in-process.

Run from the root of a rotsurf checkout:

    python3 bench/run.py --workload shoot|emit|verify --seed N --seconds S --trace 0|1

One process, one client, no threads: each op starts when the previous one
ends.  The program is used from source (src/) through its public entry
points, the library functions and rotsurf.cli.main(argv); it receives only
the inputs generated from --seed.

--trace 0 times the workload's deck of ops, cycled, for --seconds seconds
and reports the end-to-end metrics.  --trace 1 makes one untraced and one
traced pass over the deck (a fixed number of ops, so its counters repeat
exactly) and reports the per-layer metrics and the tracing overhead.

The last line of standard output is the result JSON.  The line before it
is the full report (units, sample counts, metadata, digests of every
output), also written to .bench_out/.  Why the workloads and metrics are
what they are is in bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer
from workloads import PROBE, Op

BENCH = Path(__file__).resolve().parent
COLD_STARTS = 7  # measured fresh-interpreter starts per run, after one discarded
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
# Timings are scaled to the host speed at which host_reference() takes
# REF_NOMINAL_S; the host's speed drifts by 15-30% between runs (NOTES.md).
REF_NOMINAL_S = 1e-3
REF_WINDOW = 10
FIELD_POINTS = 4000
FIELD_REPEATS = 7

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


class Runner:
    """Runs ops in-process; checks and digests outputs outside the timed interval."""

    def __init__(self, work: Path):
        self.work = work
        self.cli = importlib.import_module("rotsurf.cli")
        self.shooting = importlib.import_module("rotsurf.shooting")
        self.cfg = importlib.import_module("rotsurf.integrate").IntegratorConfig()
        self.stderr = io.StringIO()
        self.digests = {}  # "<op key>:<output>" -> sha256
        self.errors = []
        self.attempted = self.failed = 0
        self.verdicts = self.fail_verdicts = 0

    def _call(self, op: Op):
        if op.kind == "entry":
            return (self.shooting.classify_lambda(op.h, self.cfg),
                    self.shooting.full_curve(op.h, self.cfg))
        return self.cli.main(op.cli_argv(self.work))

    def run(self, key, op: Op) -> float | None:
        """Seconds the op took, or None if it raised or failed its check."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(self.stderr):
                outcome = self._call(op)
        except (Exception, SystemExit) as exc:
            return self.fail(key, f"{op.kind} raised {type(exc).__name__}: {exc}")
        dt = perf_counter() - t0
        problem = workloads.check(op, outcome, self.work)
        if problem is None:
            for name, sha in workloads.digests(op, outcome, self.work).items():
                if self.digests.setdefault(f"{key}:{name}", sha) != sha:
                    problem = f"{name}: output bytes differ between repeats of one op"
        if problem:
            return self.fail(key, problem)
        if op.kind == "verify":
            self.verdicts += 1
            self.fail_verdicts += outcome == 4
        return dt

    def fail(self, key, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            err = self.stderr.getvalue().strip().splitlines()[-1:]
            self.errors.append(f"op {key}: {message}" + (f" ({err[0]})" if err else ""))
        return None


# -- set-up ------------------------------------------------------------------


def prepare_inputs(runner: Runner, workload: str, seed: int) -> None:
    """Emit the verify workload's input CSVs with the program itself (untimed)."""
    if workload != "verify":
        return
    for k, argv in enumerate(workloads.verify_pool(seed)):
        runner.run(f"pool{k}", Op(argv[0], argv[1:], out=workloads.pool_name(k)))


def cold_starts(root: Path, runner: Runner, op: Op) -> list[dict]:
    """Time a fresh interpreter from spawn until the first op completes.

    Each sample is host-scaled by the reference timed right after it; the
    wall time is kept as setup_wall_s.
    """
    samples = []
    for i in range(COLD_STARTS + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "coldstart.py"), op.to_json(), str(runner.work)],
            cwd=root, capture_output=True, text=True, timeout=120)
        runner.attempted += 1
        if proc.returncode != 0:
            runner.fail(f"cold{i}", f"cold start exited {proc.returncode}: "
                                    f"{proc.stderr.strip()[-300:]}")
            continue
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        if stamps["rc"] not in workloads.expected_rc(op):
            runner.fail(f"cold{i}", f"cold start op exited {stamps['rc']}")
        elif i:  # the first start also compiles bytecode; users pay that once
            scale = REF_NOMINAL_S / statistics.median(host_reference() for _ in range(3))
            samples.append({"setup_s": scale * (stamps["op_end"] - t0),
                            "import_s": scale * (stamps["import_end"] - stamps["import_start"]),
                            "first_op_s": scale * (stamps["op_end"] - stamps["import_end"]),
                            "setup_wall_s": stamps["op_end"] - t0})
    if not samples:
        raise RuntimeError("no cold start succeeded: " + "; ".join(runner.errors))
    return samples


# -- measurement -------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:  # too short a run for a tail: report the maximum
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def host_reference() -> float:
    """Seconds a fixed pure-Python kernel takes; it runs no rotsurf code."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(4000):
        x = i * 1e-3
        acc += math.sqrt(1.0 + x * x) * math.sin(x)
    return perf_counter() - t0


def timed_loop(runner: Runner, ops: list[Op], seconds: float) -> list[tuple]:
    """(op, seconds or None if it failed, host reference seconds right after it) per op."""
    samples = []
    i = 1  # ops[0] ran as the untimed first op
    t_end = perf_counter() + seconds
    while True:
        k = i % len(ops)
        dt = runner.run(k, ops[k])
        samples.append((ops[k], dt, host_reference()))
        i += 1
        if perf_counter() >= t_end:
            return samples


def host_scaled(samples: list[tuple]) -> list[tuple[Op, float]]:
    """Each completed op's seconds at the nominal host speed.

    The host's speed is the median of the reference timings of the op and
    its REF_WINDOW neighbours on each side, so it follows drift within the
    run without following the reference's own jitter.
    """
    refs = [ref for _, _, ref in samples]
    out = []
    for j, (op, dt, _) in enumerate(samples):
        if dt is not None:
            local = statistics.median(refs[max(j - REF_WINDOW, 0):j + REF_WINDOW + 1])
            out.append((op, dt * REF_NOMINAL_S / local))
    return out


def deck_pass(runner: Runner, ops: list[Op], tracer: Tracer | None = None) -> float:
    """One pass over the deck; returns the seconds spent in ops."""
    busy = 0.0
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        busy += runner.run(k, op) or 0.0
    return busy


def traced(runner: Runner, ops: list[Op]) -> tuple[Tracer, Tracer, float]:
    """Probe and deck tracers, and the deck pass's traced/untraced time ratio."""
    plain_s = deck_pass(runner, ops)
    probe, deck = Tracer(), Tracer()
    probe.install()
    try:
        for k, op in enumerate(PROBE):
            probe.op = f"probe{k}"
            runner.run(f"probe{k}", op)
    finally:
        probe.uninstall()
    deck.install()
    try:
        traced_s = deck_pass(runner, ops, deck)
    finally:
        deck.uninstall()
    return probe, deck, traced_s / plain_s


def field_ns(seed: int) -> dict[str, float]:
    """Per-call cost of the field primitives on a seeded batch of interior points."""
    field = importlib.import_module("rotsurf.field")
    rng = random.Random(f"field:{seed}")
    pts = []
    for _ in range(FIELD_POINTS):
        th = rng.uniform(0.0, 2.0 * math.pi)
        pts.append((th, abs(math.cos(th)) + rng.uniform(1e-3, 3.0)))
    out = {}
    for name in ("slope", "domain_gap"):
        fn, per_call = getattr(field, name), []
        for _ in range(FIELD_REPEATS):
            t0 = perf_counter()
            for th, z in pts:
                fn(th, z)
            per_call.append((perf_counter() - t0) / len(pts))
        out[f"field.{name}_ns"] = 1e9 * statistics.median(per_call)
    return out


# -- reporting ---------------------------------------------------------------


def metadata(root: Path, args) -> dict:
    commit = None  # the benchmark may run from an export that is not a git repository
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "rotsurf").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "source_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


def latency_metrics(timed: list[tuple[Op, float]]) -> dict:
    main_lat = [dt for op, dt in timed if op.main]
    side_lat = [dt for op, dt in timed if not op.main]
    tail_v, tail_p = tail(main_lat)
    m = {
        "ops_per_s": {"value": len(timed) / sum(dt for _, dt in timed), "samples": len(timed)},
        "op_p50_ms": {"value": 1e3 * statistics.median(main_lat), "samples": len(main_lat)},
        "op_tail_ms": {"value": 1e3 * tail_v, "percentile": tail_p, "samples": len(main_lat),
                       "beyond": TAIL_BEYOND if len(main_lat) > TAIL_BEYOND else 0},
    }
    if side_lat:  # reported only: it exists on one workload
        m["lambda0_s"] = {"value": statistics.median(side_lat), "unit": "s",
                          "samples": len(side_lat)}
    return m


def end_to_end(runner: Runner, samples: list[tuple], setup: list[dict]) -> dict:
    m = latency_metrics(host_scaled(samples))
    m["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "samples": 1}
    m["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setup),
                    "samples": len(setup)}
    for name, unit in END_TO_END_UNITS.items():
        m[name]["unit"] = unit
    # Reported only: 0 on a healthy run, or defined on one workload.
    m["error_rate"] = {"value": runner.failed / runner.attempted, "unit": "ratio",
                       "samples": runner.attempted}
    if runner.verdicts:
        m["fail_verdict_rate"] = {"value": runner.fail_verdicts / runner.verdicts,
                                  "unit": "ratio", "samples": runner.verdicts}
    refs = [ref for _, _, ref in samples]
    m["host_reference_ms"] = {"value": 1e3 * statistics.median(refs), "unit": "ms",
                              "samples": len(refs)}
    unscaled = latency_metrics([(op, dt) for op, dt, _ in samples if dt is not None])
    m["unscaled"] = {k: v["value"] for k, v in unscaled.items()}
    return m


def per_layer(probe: Tracer, deck: Tracer, slowdown: float, field: dict,
              setup: list[dict]) -> dict:
    m = {name: {"value": v, "unit": u} for name, (v, u) in probe.merged(deck).metrics().items()}
    for name, v in field.items():
        m[name] = {"value": v, "unit": "ns"}
    m["cli.import_s"] = {"value": statistics.median(s["import_s"] for s in setup), "unit": "s"}
    m["cli.first_op_s"] = {"value": statistics.median(s["first_op_s"] for s in setup), "unit": "s"}
    m["trace.slowdown"] = {"value": slowdown, "unit": "ratio"}
    return m


def measure(args, root: Path, work: Path, out_dir: Path) -> tuple[dict, dict]:
    ops = workloads.deck(args.workload, args.seed)
    meta = metadata(root, args)
    runner = Runner(work)
    prepare_inputs(runner, args.workload, args.seed)
    setup = cold_starts(root, runner, ops[0])
    runner.run(0, ops[0])
    report = {"meta": meta, "deck_ops": len(ops)}
    if args.trace:
        field = field_ns(args.seed)
        probe, deck, slowdown = traced(runner, ops)
        metrics = per_layer(probe, deck, slowdown, field, setup)
        report["deck_only"] = {k: v for k, (v, _) in deck.metrics().items()}
        report["probe_only"] = {k: v for k, (v, _) in probe.metrics().items()}
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans, "w") as fh:
            for span in probe.spans + deck.spans:
                fh.write(json.dumps(span) + "\n")
        report["spans_file"] = spans.name
    else:
        metrics = end_to_end(runner, timed_loop(runner, ops, args.seconds), setup)
    report.update(metrics=metrics, setup_samples=setup, errors=runner.errors,
                  digests=runner.digests,
                  outputs_sha256=hashlib.sha256(
                      json.dumps(runner.digests, sort_keys=True).encode()).hexdigest())
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()
                    if args.trace or k in END_TO_END_UNITS},
    }
    return report, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rotsurf" / "__init__.py").is_file():
        print("error: src/rotsurf not found; run from the root of a rotsurf checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    try:
        report, result = measure(args, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
