"""Tests of the benchmark itself (not collected by the package's test suite).

Run from the repository root: python -m pytest -q bench/test_bench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counters that must repeat exactly across traced runs of one seed.
DETERMINISTIC = (
    "integrate.calls",
    "integrate.nodes",
    "shooting.integrations_per_lambda0",
    "shooting.bisection_iters",
    "profile.eval_at_calls",
    "profile.verify_fail_verdicts",
    "surface.faces",
)


def _deck_in_fresh_process(workload: str, seed: int, hash_seed: str) -> str:
    code = ("import sys, json; sys.path.insert(0, 'bench'); import workloads; "
            f"print(json.dumps([[o.to_json() for o in workloads.deck({workload!r}, {seed})], "
            f"workloads.verify_pool({seed})]))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60).stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    a = _deck_in_fresh_process(workload, 7, "1")
    assert a == _deck_in_fresh_process(workload, 7, "2")
    assert a != _deck_in_fresh_process(workload, 8, "1")


def test_metric_names_and_units_match_benchmark_json():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    traced = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    traced.update({"field.slope_ns": "ns", "field.domain_gap_ns": "ns", "cli.import_s": "s",
                   "cli.first_op_s": "s", "trace.slowdown": "ratio"})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == traced


def _short_deck(workload: str, seed: int):
    ops = workloads.deck(workload, seed)
    if workload == "shoot":  # four entries and one find-lambda0
        return ops[:4] + [next(op for op in ops if op.kind == "find-lambda0")]
    return ops[:5]


def _traced_once(workload: str, seed: int, work: Path):
    work.mkdir()
    runner = run.Runner(work)
    run.prepare_inputs(runner, workload, seed)
    probe, deck, _ = run.traced(runner, _short_deck(workload, seed))
    assert runner.failed == 0, runner.errors
    return probe.merged(deck).metrics(), runner.digests


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_and_digests_repeat(workload, tmp_path):
    m1, d1 = _traced_once(workload, 3, tmp_path / "a")
    m2, d2 = _traced_once(workload, 3, tmp_path / "b")
    for name in DETERMINISTIC:
        assert m1[name] == m2[name], name
    assert d1 == d2
    assert m1["integrate.calls"][0] > 0 and m1["surface.faces"][0] > 0


def test_tracer_restores_every_binding():
    import rotsurf
    from rotsurf import cli, profile, shooting

    before = {(mod.__name__, name): val for mod in (rotsurf, cli, profile, shooting)
              for name, val in vars(mod).items() if callable(val)}
    methods = (profile.ProfileCurve.__dict__["eval_at"],
               profile.ProfileCurve.__dict__["read_csv"])
    t = Tracer()
    t.install()
    assert shooting.classify_lambda is not before[("rotsurf.shooting", "classify_lambda")]
    assert cli.classify_lambda is not before[("rotsurf.cli", "classify_lambda")]
    t.uninstall()
    after = {(mod.__name__, name): val for mod in (rotsurf, cli, profile, shooting)
             for name, val in vars(mod).items() if callable(val)}
    assert after == before
    assert (profile.ProfileCurve.__dict__["eval_at"],
            profile.ProfileCurve.__dict__["read_csv"]) == methods
    assert len(TARGETS) == len({attr for _, attr, _ in TARGETS})


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0


def test_host_scaling_cancels_a_uniformly_slower_host():
    op, side = workloads.Op("entry", h=4.0), workloads.Op("find-lambda0", main=False)
    fast = [(op, 0.010 + 1e-4 * j, 0.8e-3) for j in range(30)] + [(side, 0.5, 0.8e-3)]
    slow = [(o, 1.5 * dt, 1.5 * ref) for o, dt, ref in fast]
    a = run.latency_metrics(run.host_scaled(fast))
    b = run.latency_metrics(run.host_scaled(slow))
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms", "lambda0_s"):
        assert a[name]["value"] == pytest.approx(b[name]["value"], rel=1e-12)
    assert a["op_p50_ms"]["value"] == pytest.approx((0.010 + 1e-4 * 14.5) / 0.8e-3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shoot", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
