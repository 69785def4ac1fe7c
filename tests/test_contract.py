"""The behaviour contract: pinned output bytes and independent oracles.

The digests pin the primary output of a fixed config, so a refactor or a
speed-up that moves a single emitted bit fails here.  They were measured on
Linux x86-64 with Python 3.11.7, numpy 2.4.6 and orjson 3.8.3; float text
is platform independent, but libm and numpy's vectorized sin/cos may round
differently on another platform, so a mismatch there is worth a look
before it is called a regression.  Every float in those files reads back
to the bits its writer was given.
"""

import ast
import hashlib
import importlib
import json
import math
from pathlib import Path

import numpy as np
import orjson
import pytest

from rotsurf.cli import main
from rotsurf.text import parse_obj, read_profile_csv

PINNED = {
    "curve.csv": "4967b9e664b0cb6b3a4ae7ea7d79ecfc13d2bc72ada9c06084fdc00bcec2dd7d",
    "extend.csv": "d2fb812fecfaf468b96b50be641da3f5e631e89444b46468ce99143cbc1a5963",
    "extend.regularity.json": "180b3b8b4d1fb9f02cd0661b9486011cbbcb980dd511350f81693b3086612b4e",
    "mesh.obj": "0bae62ef46b95c3ffbb0b9d35ece6809ab68b1452d01c5a675d77904fb5a91a5",
    "verify.json": "9d726e1d18c0f857a8579faabeeceb9fdd3789928a0a18d10203dbe040dbce7b",
    "portrait.json": "8ca0829b1fb5dabd5bc7b63b16b604e504b26b4c1a5796e8346a4a647df65590",
    "portrait_00.csv": "aec37d3e9d430e5006b222651cb56d33146ee6ab6a9367fe32412cf4a16037e9",
    "portrait_01.csv": "4ad6060e902e2e7c2f07c2c95bf30c9a46d5a730a886bdb23dc09b3444b8ffb4",
    "sphere.obj": "9027a9d10853a01103b11262b511eee437a0e26984e9a72cbac9a9dc15f1fd47",
    "mesh.csv": "535992d108c38d408fbde296c806f3309e3b718e6c2650f7747b49728569de7e",
    "lambda0.json": "48a5c279c49d802a0c53949d899c99cddfe2491543b38daae192dc057b79f840",
    "verify_extend.json": "314513a9189f4def29823c7fb23a175b4f71e993e45f31abad694a8984e4b220",
    "clamped.csv": "921d254cd5feefb516e5857050cb30f934cafe9c886969cf23800a440ac84e18",
    "verify_clamped.json": "b615705538323073c7a022c089ef74c15e5870c2bed3dcab398fb69fc16b2378",
}


def _emit_pinned(tmp_path):
    """Emit every pinned file into tmp_path; return the exit code of each command by output name."""
    codes = {}

    def run(*argv, code=0):
        name = Path(argv[-1]).name
        codes[name] = main([str(a) for a in argv])
        assert codes[name] == code

    run("curve", "--lambda", "4", "--span", "6", "--out", tmp_path / "curve.csv")
    run("extend", "--copies", "2", "--segments", "0.5", "--out", tmp_path / "extend.csv")
    run("mesh", "--lambda", "2.5", "--span", "2", "--n-angular", "8",
        "--out", tmp_path / "mesh.obj")
    run("verify", tmp_path / "curve.csv", "--step", "1e-3", "--out", tmp_path / "verify.json")
    run("portrait", "--lambdas", "2.5,4", "--out", tmp_path / "portrait.json")
    run("mesh", "--builtin", "sphere", "--n-angular", "12", "--out", tmp_path / "sphere.obj")
    run("mesh", "--lambda", "2.5", "--span", "2", "--n-angular", "8",
        "--out", tmp_path / "mesh.csv")
    run("find-lambda0", "--tol", "1e-8", "--out", tmp_path / "lambda0.json")
    # verify on two more kinds of curve: a glued extension, and an
    # incomplete curve clamped to its finite span, whose contact ends are
    # the estimator's hardest case
    run("verify", tmp_path / "extend.csv", "--step", "1e-3",
        "--out", tmp_path / "verify_extend.json")
    run("curve", "--lambda", "1.8", "--span", "3", "--out", tmp_path / "clamped.csv")
    run("verify", tmp_path / "clamped.csv", "--step", "1e-3",
        "--out", tmp_path / "verify_clamped.json")
    return tmp_path, codes


# the writers the commands call, as (module, the name it calls the writer by)
WRITERS = (("cli", "write_csv"), ("cli", "write_json"), ("profile", "write_csv"),
           ("surface", "write_obj"), ("surface", "write_mesh_csv"))


def _recorder(given, write):
    """write, keeping what it is given by the name of the file it writes."""
    def record(sink, *args):
        given[Path(sink).name] = (write.__name__, args)
        write(sink, *args)
    return record


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    """The output directory, each command's exit code, and what each file's writer was given."""
    given = {}
    with pytest.MonkeyPatch.context() as patch:
        for module, name in WRITERS:
            module = importlib.import_module(f"rotsurf.{module}")
            patch.setattr(module, name, _recorder(given, getattr(module, name)))
        out, codes = _emit_pinned(tmp_path_factory.mktemp("pinned"))
    return out, codes, given


def test_output_bytes_pinned(pinned):
    out, _, _ = pinned
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert got == PINNED


# The verify reports, field by field: the digests above pin their bytes,
# and these say what those bytes are.  n_points is the CSV's row count,
# since the estimator reads the rows themselves.
VERIFY = {
    "verify.json": ("curve.csv", 2.1967515140275395e-08, 5.566898053643854e-10),
    "verify_extend.json": ("extend.csv", 2.5360662458950856e-09, 9.205838313874892e-10),
    "verify_clamped.json": ("clamped.csv", 2.460253795355527e-06, 1.091006995856958e-08),
}


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_reports_pinned(pinned, name):
    out, codes, _ = pinned
    csv, curvature, speed = VERIFY[name]
    assert codes[name] == 0
    doc = json.loads((out / name).read_text())
    assert list(doc) == ["max_curvature_residual", "max_speed_residual", "monotone_violations",
                         "n_points", "h", "end_trim", "threshold", "speed_threshold", "pass"]
    assert doc["pass"] is True
    assert doc["monotone_violations"] == 0
    assert doc["n_points"] == len((out / csv).read_text().splitlines()) - 1
    assert (doc["h"], doc["end_trim"], doc["threshold"], doc["speed_threshold"]) == (
        0.001, 0.01, 0.0001, 9.9999999999999995e-07)
    assert (doc["max_curvature_residual"], doc["max_speed_residual"]) == (curvature, speed)


def same(read, value) -> bool:
    """Whether JSON read back is value: each float bit for bit, one that is not finite as null."""
    if isinstance(value, dict):
        return list(read) == list(value) and all(same(read[k], v) for k, v in value.items())
    if isinstance(value, (list, tuple, np.ndarray)):
        return len(read) == len(value) and all(map(same, read, value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            return read is None
        return type(read) is float and np.float64(read).tobytes() == np.float64(value).tobytes()
    return read == value


def csv_rows(path) -> list:
    """The data rows of a CSV file, each read by orjson as a JSON list."""
    return [orjson.loads(b"[" + line + b"]") for line in path.read_bytes().splitlines()[1:]]


def test_every_float_reads_back_to_its_bits(pinned, monkeypatch):
    # each file is read back (profile CSVs by read_profile_csv, OBJ by
    # parse_obj, the rest by orjson) and compared, -0.0 included, with the
    # arrays and documents its writer was given
    out, _, given = pinned
    assert sorted(given) == sorted(PINNED)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)  # every profile CSV takes the JSON path
    for name, (writer, args) in sorted(given.items()):
        path = out / name
        if writer == "write_json":
            assert same(orjson.loads(path.read_bytes()), args[0]), name
        elif writer == "write_csv":
            header, *columns = args
            want = np.column_stack(columns)
            got = read_profile_csv(path) if header == b"t,x,z,theta" else np.array(csv_rows(path))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        else:
            x, z, sin_phi, cos_phi = args[:4]
            n_ring = len(sin_phi)
            want = np.column_stack([np.repeat(x, n_ring), np.outer(z, sin_phi).ravel(),
                                    np.outer(z, cos_phi).ravel()])
            if writer == "write_obj":
                got = parse_obj(path)[0]
            else:
                rows = csv_rows(path)
                ij = [row[:2] for row in rows]
                assert ij == [[i, j] for i in range(len(x)) for j in range(n_ring)], name
                got = np.array([row[2:] for row in rows])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_oracles_import_no_package_module():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(name.split(".")[0] in ("rotsurf", "") for name in imported), imported
