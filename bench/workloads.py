"""Seeded inputs, operations and output checks of the rotsurf benchmark.

Each workload is a *deck*: a fixed list of operations generated from the
seed alone.  The timed loop cycles through the deck, so a run measures the
same mix however long it lasts, and the traced run makes one pass over it.
Parameters are drawn by stratified sampling (one draw per equal-width
stratum, then shuffled), so two seeds give different inputs of nearly the
same total cost; that keeps the run-to-run spread small without choosing
the inputs by hand.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

LAMBDA0 = 3.2136243987  # the paper's critical height, 10 decimals
SQRT2 = math.sqrt(2.0)
CLASS_BAND = 1e-8  # class tags are not checked this close to sqrt(2) or LAMBDA0
LAMBDA0_TOL = 5e-8  # find-lambda0 must land this close to LAMBDA0
LAUNCH_TOL = 1e-6  # bisection and series launch must agree this closely
SPHERE_SAMPLES = 1201  # rotsurf.profile.sphere_profile default

SHOOT_ENTRIES = 200
LAMBDA0_EVERY = 100  # one find-lambda0 command after this many portrait entries

WORKLOADS = ("shoot", "emit", "verify")


@dataclass(frozen=True)
class Op:
    """One operation of a deck.

    kind is "entry" (classify_lambda(h) then full_curve(h), library-level)
    or a CLI command name.  argv holds the command's flags; src and out are
    file names inside the run's work directory.  Only ops with main=True
    enter op_p50_ms and op_tail_ms.
    """

    kind: str
    argv: tuple = ()
    h: float = 0.0
    src: str = ""
    out: str = ""
    main: bool = True

    def cli_argv(self, work: Path) -> list[str]:
        argv = [self.kind]
        if self.src:
            argv.append(str(work / self.src))
        argv += list(self.argv)
        if self.out:
            argv += ["--out", str(work / self.out)]
        return argv

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One draw in each of n equal-width strata of (lo, hi), shuffled."""
    vals = _paired(rng, n, (lo, hi))
    rng.shuffle(vals)
    return [v for (v,) in vals]


def _paired(rng: random.Random, n: int, *ranges) -> list[tuple[float, ...]]:
    """n tuples; tuple k draws from stratum k of every range, so its cost is fixed."""
    return [tuple(lo + (hi - lo) * (k + rng.random()) / n for lo, hi in ranges)
            for k in range(n)]


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"{kind}:{seed}")


def _shoot(rng: random.Random) -> list[Op]:
    # 3/4 of the heights span every class; 1/4 sit within 1e-2..1e-6 of
    # lambda0, where trajectories creep along the corner and take 2-5x the
    # steps.  The integrator's cost depends on exactly that property.
    n_near = SHOOT_ENTRIES // 4
    heights = _strata(rng, 1.05, 8.0, SHOOT_ENTRIES - n_near)
    # Signs alternate by stratum, so the closest (costliest) heights, which
    # set op_tail_ms, are the same mix of sides on every seed.
    heights += [LAMBDA0 + (-1.0) ** k * 10.0 ** e
                for k, (e,) in enumerate(_paired(rng, n_near, (-6.0, -2.0)))]
    rng.shuffle(heights)
    # A periodic height leads, so the cold start (setup_s) times the same
    # work on every seed.
    ops = [Op("entry", h=rng.uniform(4.5, 5.5))]
    for i, h in enumerate(heights, start=1):
        ops.append(Op("entry", h=h))
        if i % LAMBDA0_EVERY == 0:
            ops.append(Op("find-lambda0", ("--tol", "1e-8"),
                          out=f"op{len(ops):03d}.json", main=False))
    return ops


def _emit(rng: random.Random) -> list[Op]:
    # Every size-setting parameter comes from _paired, so the deck's total
    # cost, its median op and its largest ops barely move between seeds.
    specs = []  # (kind, argv, extension)
    for lam, span in _paired(rng, 16, (1.05, 8.0), (2.0, 8.0)):
        specs.append(("curve", ("--lambda", repr(lam), "--span", repr(span)), "csv"))
    for k, (lam, span, n_a) in enumerate(_paired(rng, 16, (1.05, 8.0), (1.5, 3.0), (16, 40))):
        argv = ("--lambda", repr(lam), "--span", repr(span), "--n-angular", str(round(n_a)))
        specs.append(("mesh", argv, "csv" if k % 4 == 0 else "obj"))
    # The four sphere meshes are the deck's largest ops.  The tail's 10
    # samples beyond it fall inside their group, so op_tail_ms is a middle
    # value of many alike samples rather than the edge of a small group.
    for (n_a,) in _paired(rng, 4, (28.0, 32.0)):
        specs.append(("mesh", ("--builtin", "sphere", "--n-angular", str(round(n_a))), "obj"))
    # Segment codes: 0 glues copies directly; j = 1..3 draws from the j-th
    # third of (0.1, 1.0).
    for segs in ((), (), (0,), (1,), (3,), (0, 1), (2, 0), (1, 3)):
        segs = [0.0 if j == 0 else 0.1 + 0.3 * (j - 1 + rng.random()) for j in segs]
        argv = ("--copies", str(len(segs) + 1))
        if segs:
            argv += ("--segments", ",".join(repr(s) for s in segs))
        specs.append(("extend", argv, "csv"))
    rng.shuffle(specs)
    # A periodic curve of fixed span leads, so the cold start (setup_s)
    # times the same work on every seed.
    first = ("curve", ("--lambda", repr(rng.uniform(4.5, 5.5)), "--span", "3.0"), "csv")
    return [Op(kind, argv, out=f"op{i:03d}.{ext}")
            for i, (kind, argv, ext) in enumerate([first] + specs)]


def verify_pool(seed: int) -> list[tuple[str, ...]]:
    """CLI argv (without --out) that emit the verify workload's input CSVs.

    The six heights in (1.6, 2.0) are clamped incomplete profiles that
    the default verify settings reject (the known s^(3/2) end-collar
    defect); they stay in the data so that a fix shows as a lower FAIL
    count.
    """
    rng = _rng("verify-pool", seed)
    pool = [("curve", "--lambda", repr(SQRT2)),  # sphere; first, see _verify
            ("extend", "--copies", "1"),  # separatrix
            ("extend", "--copies", "2", "--segments", repr(rng.uniform(0.1, 1.0)))]
    # Two alike 3-copy extensions are the largest inputs; the tail's 10
    # samples beyond it fall inside their group (see _emit).
    for _ in range(2):
        segs = ",".join(repr(rng.uniform(0.4, 0.6)) for _ in range(2))
        pool.append(("extend", "--copies", "3", "--segments", segs))
    for lam, span in _paired(rng, 8, (3.4, 8.0), (2.0, 4.0)):
        pool.append(("curve", "--lambda", repr(lam), "--span", repr(span)))  # periodic
    for lam, span in _paired(rng, 6, (1.6, 2.0), (2.5, 5.0)):
        pool.append(("curve", "--lambda", repr(lam), "--span", repr(span)))  # clamped incomplete
    for lam in _strata(rng, 1.05, 1.35, 2):
        pool.append(("curve", "--lambda", repr(lam), "--span", "3.0"))
    for lam, span in _paired(rng, 2, (2.3, 3.1), (1.0, 1.8)):
        pool.append(("curve", "--lambda", repr(lam), "--span", repr(span)))  # cut by span
    for lam in _strata(rng, 2.3, 3.1, 2):
        pool.append(("curve", "--lambda", repr(lam), "--span", "4.0"))
    return pool


def pool_name(k: int) -> str:
    return f"pool{k:02d}.csv"


def _verify(rng: random.Random, n_pool: int) -> list[Op]:
    # The sphere CSV (seed-independent size) leads, so setup_s times the
    # same first op on every seed.
    order = list(range(1, n_pool))
    rng.shuffle(order)
    return [Op("verify", ("--step", "1e-3"), src=pool_name(k), out=f"op{i:03d}.json")
            for i, k in enumerate([0] + order)]


def deck(workload: str, seed: int) -> list[Op]:
    rng = _rng(workload, seed)
    if workload == "shoot":
        return _shoot(rng)
    if workload == "emit":
        return _emit(rng)
    if workload == "verify":
        return _verify(rng, len(verify_pool(seed)))
    raise ValueError(f"unknown workload {workload!r}")


# Fixed, seed-independent ops that the traced run passes through every layer
# before the deck, so that no per-layer metric is empty on any workload.
PROBE = (
    Op("entry", h=4.0),
    Op("find-lambda0", ("--tol", "1e-8"), out="probe1.json", main=False),
    Op("curve", ("--lambda", "4.0", "--span", "2.0"), out="probe2.csv"),
    Op("mesh", ("--lambda", "4.0", "--span", "1.0", "--n-angular", "8"), out="probe3.obj"),
    Op("extend", ("--copies", "1"), out="probe4.csv"),
    Op("verify", ("--step", "1e-3"), src="probe2.csv", out="probe5.json"),
)


# -- output checks (run outside each op's timed interval) -------------------


def expected_rc(op: Op) -> tuple[int, ...]:
    # verify exits 4 on a FAIL verdict; that is a result, not an error.
    return (0, 4) if op.kind == "verify" else (0,)


def output_files(op: Op) -> list[str]:
    files = [op.out] if op.out else []
    if op.kind == "extend":
        files.append(op.out.rsplit(".", 1)[0] + ".regularity.json")
    return files


def _expected_tag(h: float) -> str | None:
    if abs(h - SQRT2) <= CLASS_BAND or abs(h - LAMBDA0) <= CLASS_BAND:
        return None
    if h < SQRT2:
        return "IncompleteLow"
    return "IncompleteHigh" if h < LAMBDA0 else "Periodic"


def _check_entry(op: Op, outcome) -> str | None:
    klass, traj = outcome
    want = _expected_tag(op.h)
    if want is not None and klass.tag != want:
        return f"h={op.h!r}: class {klass.tag}, expected {want}"
    if klass.tag == "Periodic" and not klass.crossing_z > 1.0:
        return f"h={op.h!r}: periodic crossing_z {klass.crossing_z} <= 1"
    if klass.tag.startswith("Incomplete") and not 0.0 < klass.limit_point[1] < 1.0:
        return f"h={op.h!r}: incomplete limit z {klass.limit_point[1]} not in (0, 1)"
    if not (np.all(np.diff(traj.ts) > 0.0) and np.all(traj.zs > 0.0)):
        return f"h={op.h!r}: full curve not ascending in t or touches z <= 0"
    return None


def _check_profile_csv(path: Path) -> str | None:
    with open(path) as fh:
        if fh.readline().strip() != "t,x,z,theta":
            return f"{path.name}: bad header"
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(data) < 2 or not np.all(np.diff(data[:, 0]) > 0.0):
        return f"{path.name}: t not strictly increasing"
    if not np.all(data[:, 2] > 0.0):
        return f"{path.name}: z <= 0"
    return None


def _n_angular(op: Op) -> int:
    return int(op.argv[op.argv.index("--n-angular") + 1])


def _check_mesh(op: Op, path: Path) -> str | None:
    n_a = _n_angular(op)
    data = path.read_bytes()
    if path.suffix == ".obj":
        # Numbers never contain 'v' or 'f', so these count line heads.
        n_v, n_f = data.count(b"v "), data.count(b"f ")
        if data.count(b"\n") != n_v + n_f:
            return f"{path.name}: lines other than v/f"
    else:
        lines = data.split(b"\n")
        if lines[0] != b"i,j,x,y,z" or lines[-1] != b"":
            return f"{path.name}: bad mesh CSV framing"
        n_v, n_f = len(lines) - 2, None
    n_p, rem = divmod(n_v, n_a)
    if rem or n_p < 2:
        return f"{path.name}: {n_v} vertices is not n_p * {n_a}"
    if n_f is not None and n_f != 2 * (n_p - 1) * n_a:
        return f"{path.name}: {n_f} faces, expected 2*({n_p}-1)*{n_a}"
    if "--builtin" in op.argv and n_p != SPHERE_SAMPLES:
        return f"{path.name}: sphere mesh has {n_p} profile samples"
    return None


def _check_extend(op: Op, work: Path) -> str | None:
    problem = _check_profile_csv(work / op.out)
    if problem:
        return problem
    segs = []
    if "--segments" in op.argv:
        segs = [float(s) for s in op.argv[op.argv.index("--segments") + 1].split(",")]
    doc = json.loads((work / output_files(op)[1]).read_text())
    want = sum(1 if s == 0.0 else 2 for s in segs)
    if len(doc["junctions"]) != want:
        return f"{op.out}: {len(doc['junctions'])} junctions, expected {want}"
    return None


def _check_verify(rc: int, path: Path) -> str | None:
    doc = json.loads(path.read_text())
    ok = (doc["max_curvature_residual"] <= doc["threshold"]
          and doc["max_speed_residual"] <= doc["speed_threshold"]
          and doc["monotone_violations"] == 0)
    if doc["pass"] != ok:
        return f"{path.name}: pass={doc['pass']} disagrees with its thresholds"
    if (rc == 0) != ok:
        return f"{path.name}: exit {rc} disagrees with pass={doc['pass']}"
    return None


def _check_lambda0(path: Path) -> str | None:
    doc = json.loads(path.read_text())
    value = doc["bisection"]["value"]
    if abs(value - LAMBDA0) > LAMBDA0_TOL:
        return f"lambda0 {value!r} is not within {LAMBDA0_TOL} of {LAMBDA0}"
    if abs(value - doc["launch"]["value"]) > LAUNCH_TOL:
        return f"bisection and launch differ by {abs(value - doc['launch']['value'])}"
    return None


def check(op: Op, outcome, work: Path) -> str | None:
    """None when the op's outputs are right, else what is wrong."""
    if op.kind == "entry":
        return _check_entry(op, outcome)
    if outcome not in expected_rc(op):
        return f"{op.kind} exited {outcome}"
    path = work / op.out
    if op.kind == "find-lambda0":
        return _check_lambda0(path)
    if op.kind == "curve":
        return _check_profile_csv(path)
    if op.kind == "mesh":
        return _check_mesh(op, path)
    if op.kind == "extend":
        return _check_extend(op, work)
    if op.kind == "verify":
        return _check_verify(outcome, path)
    return f"no check for {op.kind}"


def digests(op: Op, outcome, work: Path) -> dict[str, str]:
    """sha256 of every output: each emitted file, or an entry's class and nodes."""
    if op.kind == "entry":
        klass, traj = outcome
        h = hashlib.sha256(klass.tag.encode())
        h.update(traj.ts.tobytes())
        h.update(traj.ys.tobytes())
        return {"entry": h.hexdigest()}
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in output_files(op)}
