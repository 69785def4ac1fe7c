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
}


def test_output_bytes_pinned(tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("curve", "--lambda", "4", "--span", "6", "--out", tmp_path / "curve.csv")
    run("extend", "--copies", "2", "--segments", "0.5", "--out", tmp_path / "extend.csv")
    run("mesh", "--lambda", "2.5", "--span", "2", "--n-angular", "8",
        "--out", tmp_path / "mesh.obj")
    run("verify", tmp_path / "curve.csv", "--step", "1e-3", "--out", tmp_path / "verify.json")
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
