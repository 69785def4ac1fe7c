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
from pathlib import Path

from rotsurf.cli import main

PINNED = {
    "curve.csv": "833d19898e5d58d94059c31b48fabd32fcd104efdd85aebf8f373b8558ad8bd0",
    "extend.csv": "a67b0d6c98cdc803f2facad97a1cbbab4e4376f6be177a2c1d2b1aa43f3c03e6",
    "extend.regularity.json": "c46a3337579d7b6feb713325393997ab28b7056028fe3861d91f56a2c2b55db5",
    "mesh.obj": "8f9b08a13e55571d19e7be3c76871e94b887d969cbe7c3226d6f5a91be503f2e",
    "verify.json": "3b79a562cf1dfa05a2a719c14389a092d51725cea62f146159f5b42ecc87b0d3",
    "portrait.json": "03458349cd866bb25c46c35f0403937cc5c4ddce2ad8a6f0927a189b7f30639b",
    "portrait_00.csv": "a9f53649105cf19ee9560446af78b0a7ce6ada10d0aada2568a4af3860b0624d",
    "portrait_01.csv": "14ee832348cbc26380fc162510481da104c30ad26bf26bdc361ceb4f4b14a851",
    "sphere.obj": "f6dc46b117d884ed0fe5baa3132c74ba144bdb8636582b83acba51c10a06277a",
    "mesh.csv": "8189e2160697fda03385511a71c83bca795a03e399e26219bbd53f5aab8eb1fc",
    "lambda0.json": "8bbdbff4e6040652b634a81eb7bc60a47eaf4f3c46b874e53e4280cd75b2c0de",
    "verify_extend.json": "ba7e316209dd24e3cceae80664d87d2c4abdf917e451aa61589731ddc3172167",
    "clamped.csv": "c47aa09de5bb1cc93cdb7e4bbd0c5bba3ad633e8c222a563a577c9d558c3a8c9",
    "verify_clamped.json": "762ad68172c2fb30fb655a19548f09309a17b9ca5db9086490d15df22b643e0d",
}


def test_output_bytes_pinned(tmp_path):
    def run(*argv, code=0):
        assert main([str(a) for a in argv]) == code

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
    # the CSV spline on two more kinds of curve: a glued extension, and an
    # incomplete curve clamped to its finite span (its verdict is FAIL)
    run("verify", tmp_path / "extend.csv", "--step", "1e-3",
        "--out", tmp_path / "verify_extend.json")
    run("curve", "--lambda", "1.8", "--span", "3", "--out", tmp_path / "clamped.csv")
    run("verify", tmp_path / "clamped.csv", "--step", "1e-3",
        "--out", tmp_path / "verify_clamped.json", code=4)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    assert got == PINNED


def test_oracles_import_no_package_module():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(name.split(".")[0] in ("rotsurf", "") for name in imported), imported
