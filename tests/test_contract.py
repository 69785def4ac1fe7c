"""The behaviour contract: pinned output bytes and independent oracles.

The digests pin the primary output of a fixed config, so a refactor or a
speed-up that moves a single emitted bit fails here.  They were measured on
Linux x86-64 with Python 3.11.7 and numpy 2.4.6; float formatting is
platform independent, but libm and numpy's vectorized sin/cos may round
differently on another platform, so a mismatch there is worth a look
before it is called a regression.
"""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from rotsurf.cli import main

PINNED = {
    "curve.csv": "833d19898e5d58d94059c31b48fabd32fcd104efdd85aebf8f373b8558ad8bd0",
    "extend.csv": "a67b0d6c98cdc803f2facad97a1cbbab4e4376f6be177a2c1d2b1aa43f3c03e6",
    "extend.regularity.json": "c46a3337579d7b6feb713325393997ab28b7056028fe3861d91f56a2c2b55db5",
    "mesh.obj": "8f9b08a13e55571d19e7be3c76871e94b887d969cbe7c3226d6f5a91be503f2e",
    "verify.json": "7c8b58bfa5679879a88add75fffe1f2ceb8d5b057422af411fb7d3c08e5cd329",
    "portrait.json": "03458349cd866bb25c46c35f0403937cc5c4ddce2ad8a6f0927a189b7f30639b",
    "portrait_00.csv": "a9f53649105cf19ee9560446af78b0a7ce6ada10d0aada2568a4af3860b0624d",
    "portrait_01.csv": "14ee832348cbc26380fc162510481da104c30ad26bf26bdc361ceb4f4b14a851",
    "sphere.obj": "f6dc46b117d884ed0fe5baa3132c74ba144bdb8636582b83acba51c10a06277a",
    "mesh.csv": "8189e2160697fda03385511a71c83bca795a03e399e26219bbd53f5aab8eb1fc",
    "lambda0.json": "8bbdbff4e6040652b634a81eb7bc60a47eaf4f3c46b874e53e4280cd75b2c0de",
    "verify_extend.json": "49863fc138e24013a722f91200bf39126c989cbd49d7ba4f433a7bac0aba6e63",
    "clamped.csv": "c47aa09de5bb1cc93cdb7e4bbd0c5bba3ad633e8c222a563a577c9d558c3a8c9",
    "verify_clamped.json": "9ec5846ead76c9212f2da7b5055c828d3b0ae6b731da4ae14a218a5206ac1839",
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


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    return _emit_pinned(tmp_path_factory.mktemp("pinned"))


def test_output_bytes_pinned(pinned):
    out, _ = pinned
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert got == PINNED


# The verify reports, field by field: the digests above pin their bytes,
# and these say what those bytes are.  n_points is the CSV's row count,
# since the estimator reads the rows themselves.
VERIFY = {
    "verify.json": ("curve.csv", 2.2779008079787388e-07, 2.0654856713875347e-09),
    "verify_extend.json": ("extend.csv", 2.0146118173691718e-07, 1.5946260978338955e-09),
    "verify_clamped.json": ("clamped.csv", 1.8111516685292983e-05, 8.437390563997837e-09),
}


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_reports_pinned(pinned, name):
    out, codes = pinned
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


def test_oracles_import_no_package_module():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(name.split(".")[0] in ("rotsurf", "") for name in imported), imported
