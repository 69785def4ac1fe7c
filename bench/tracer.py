"""Per-layer tracing for the benchmark's traced run, from outside the package.

Each public function of a layer is wrapped, and the wrapper is rebound in
every rotsurf module that holds the original: cli, shooting and profile
import library names directly, so patching only the defining module would
miss their calls.  Methods are patched on their class.  Nothing under src/
changes, and uninstall() restores every binding.

A span is (id, parent id, op index, layer, name, start, end).  Spans stay in
memory until the run writes them out.  The two high-frequency methods
(dense output and profile evaluation) are aggregated into counts and totals
instead of one span per call, but still take part in self time.  A layer's
self time is the duration of its spans minus the time their direct child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter
from time import perf_counter

# (layer, attribute in rotsurf.<layer>, aggregated)
TARGETS = (
    ("integrate", "integrate", False),
    ("integrate", "launch_separatrix", False),
    ("integrate", "reflect", False),
    ("integrate", "concat", False),
    ("integrate", "Trajectory.state_at", True),
    ("shooting", "backward_trajectory", False),
    ("shooting", "classify_lambda", False),
    ("shooting", "full_curve", False),
    ("shooting", "find_lambda0", False),
    ("shooting", "portrait", False),
    ("profile", "build_profile", False),
    ("profile", "separatrix_profile", False),
    ("profile", "sphere_profile", False),
    ("profile", "cylinder_profile", False),
    ("profile", "extend_separatrix", False),
    ("profile", "verify_profile", False),
    ("profile", "ProfileCurve.write_csv", False),
    ("profile", "ProfileCurve.read_csv", False),
    ("profile", "ProfileCurve.eval_at", True),
    ("surface", "revolve", False),
    ("surface", "export_obj", False),
    ("surface", "export_mesh_csv", False),
    ("cli", "main", False),
)
LAYERS = ("integrate", "shooting", "profile", "surface", "cli")


def _size(sink) -> int:
    return os.path.getsize(sink) if isinstance(sink, (str, os.PathLike)) else 0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []
        self.total = Counter()  # name -> inclusive seconds
        self.calls = Counter()  # name -> calls
        self.self_s = Counter()  # layer -> self seconds
        self.counts = Counter()  # derived counters, see _count
        self.op = None  # index of the op being run, shared by its spans
        self._stack = []  # frames [span id, name, child seconds]
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "rotsurf" or k.startswith("rotsurf.")]
        for layer, attr, aggregated in TARGETS:
            home = importlib.import_module(f"rotsurf.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, attr, raw.__func__, aggregated))
                else:
                    new = self._wrap(layer, attr, raw, aggregated)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(layer, attr, orig, aggregated)
            for mod in mods:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _wrap(self, layer, name, fn, aggregated):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.total[name] += dur
                self.calls[name] += 1
                self.self_s[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if not aggregated:
                    spans.append((frame[0], None if parent is None else parent[0],
                                  self.op, layer, name, t0, t1))
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result) -> None:
        c = self.counts
        if name in ("integrate", "launch_separatrix"):
            c["integrations"] += 1
            c["nodes"] += len(result.ts) - 1
            if any(f[1] == "find_lambda0" for f in self._stack):
                c["lambda0_integrations"] += 1
        elif name == "find_lambda0":
            c["lambda0_solves"] += 1
            c["bisection_iters"] += result.iterations
        elif name == "build_profile":
            c["samples"] += len(result)
        elif name == "ProfileCurve.write_csv":
            c["csv_bytes"] += _size(args[1])
        elif name == "verify_profile":
            c["verify_points"] += result.n_points
        elif name == "revolve":
            c["faces"] += len(result.faces)
        elif name in ("export_obj", "export_mesh_csv"):
            c["export_bytes"] += _size(args[1])
        elif name == "main" and args and args[0][0] == "verify" and result == 4:
            c["verify_fail_verdicts"] += 1

    # -- results -----------------------------------------------------------

    def merged(self, other: "Tracer") -> "Tracer":
        out = Tracer()
        for key in ("total", "calls", "self_s", "counts"):
            setattr(out, key, getattr(self, key) + getattr(other, key))
        out.spans = self.spans + other.spans
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); *_s are totals over the pass."""
        t, n, c = self.total, self.calls, self.counts
        stepping = t["integrate"] + t["launch_separatrix"]
        return {
            "integrate.calls": (c["integrations"], "count"),
            "integrate.nodes": (c["nodes"], "count"),
            "integrate.self_s": (self.self_s["integrate"], "s"),
            "integrate.us_per_node": (1e6 * stepping / max(c["nodes"], 1), "us"),
            "integrate.dense_evals": (n["Trajectory.state_at"], "count"),
            "integrate.dense_s": (t["Trajectory.state_at"], "s"),
            "shooting.self_s": (self.self_s["shooting"], "s"),
            "shooting.classify_s": (t["classify_lambda"], "s"),
            "shooting.full_curve_s": (t["full_curve"], "s"),
            "shooting.find_lambda0_s": (t["find_lambda0"], "s"),
            "shooting.bisection_iters": (c["bisection_iters"], "count"),
            "shooting.integrations_per_lambda0": (
                c["lambda0_integrations"] / max(c["lambda0_solves"], 1), "ratio"),
            "profile.self_s": (self.self_s["profile"], "s"),
            "profile.build_s": (t["build_profile"], "s"),
            "profile.samples": (c["samples"], "count"),
            "profile.extend_s": (t["extend_separatrix"], "s"),
            "profile.write_csv_s": (t["ProfileCurve.write_csv"], "s"),
            "profile.csv_bytes": (c["csv_bytes"], "bytes"),
            "profile.read_csv_s": (t["ProfileCurve.read_csv"], "s"),
            "profile.eval_at_calls": (n["ProfileCurve.eval_at"], "count"),
            "profile.verify_s": (t["verify_profile"], "s"),
            "profile.verify_points": (c["verify_points"], "count"),
            "profile.verify_fail_verdicts": (c["verify_fail_verdicts"], "count"),
            "surface.self_s": (self.self_s["surface"], "s"),
            "surface.revolve_s": (t["revolve"], "s"),
            "surface.faces": (c["faces"], "count"),
            "surface.export_s": (t["export_obj"] + t["export_mesh_csv"], "s"),
            "surface.export_bytes": (c["export_bytes"], "bytes"),
            "cli.self_s": (self.self_s["cli"], "s"),
        }
