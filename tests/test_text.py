"""text.read_profile_csv against np.loadtxt, bit for bit, on either of its paths.

A block of JSON numbers, 4 a line, is parsed by orjson (text._json_rows
returns its rows); any other block by np.loadtxt (_json_rows returns None).
Values are spelled three ways: '%.17g', repr, and orjson's text, which is
what the package writes.  CI installs the latest orjson, so these tests
also guard a release that rounds differently.
"""

import importlib.util
import io
import itertools
import re
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

import rotsurf.text as text
from rotsurf.cli import main
from rotsurf.text import READ_BLOCK, read_profile_csv

HEADER = "t,x,z,theta\n"
LOADTXT = np.loadtxt  # the reference, kept where a test replaces np.loadtxt


def loadtxt(rows: str) -> np.ndarray:
    return LOADTXT(io.StringIO(rows), delimiter=",", ndmin=2)


def read(rows: str) -> np.ndarray:
    return read_profile_csv(io.StringIO(HEADER + rows))


def assert_bits(rows: str, fast: bool) -> np.ndarray:
    """The reader's rows equal loadtxt's bits, and the block took the path named."""
    assert (text._json_rows(rows) is not None) == fast
    got, ref = read(rows), loadtxt(rows)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    return got


def csv_rows(tokens) -> str:
    """tokens 4 a line, padded by repeating them."""
    tokens = list(tokens)
    tokens = [tokens[k % len(tokens)] for k in range(len(tokens) + -len(tokens) % 4)]
    return "".join(",".join(tokens[k:k + 4]) + "\n" for k in range(0, len(tokens), 4))


# the three spellings of a float: '%.17g', repr, and orjson's text (the package's)
SPELLINGS = ("%.17g".__mod__, repr, lambda v: orjson.dumps(v).decode())


def test_format_branches(format_branches):
    for spell in SPELLINGS:
        tokens = [spell(v) for v in format_branches.tolist()]
        got = assert_bits(csv_rows(tokens), fast=True)
        assert got.ravel()[:len(tokens)].tobytes() == np.array(
            [float(t) for t in tokens]).tobytes()


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_arbitrary_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(float)
    values = values[np.isfinite(values)]
    if not len(values):
        return
    for spell in SPELLINGS:
        assert_bits(csv_rows(spell(v) for v in values.tolist()), fast=True)


@pytest.mark.parametrize("rows", [
    "-0,1,2,3\n",  # the file's first token
    "1,2,3,4\n-0,5,6,7\n",  # a line's first token
    "1,2,3,-0\n4,5,6,7\n",  # a line's last token
    "1,2,3,4\n5,6,7,-0\n",  # the file's last token
    "1,2,3,4\n5,6,7,-0",  # the file's last token, with no line feed
    "-0,-0,-0,-0\n",
    "0,-0,0,-0\n-0,0,-0,0\n",
    "-0.0,-0e0,-0E-3,-0\n",
])
def test_minus_zero(rows):
    got = assert_bits(rows, fast=True)
    assert np.array_equal(np.signbit(got), [[t.startswith("-") for t in line.split(",")]
                                            for line in rows.splitlines()])


@pytest.mark.parametrize("rows, fast", [
    ("1E5,1e5,1e+5,1E-5\n", True),
    ("12345678901234567890,98765432109876543210,-12345678901234567890,1\n", True),
    ("1.2345678901234567890,0.12345678901234567890123,2e-320,1e-400\n", True),
    ("4.9406564584124654e-324,2.2250738585072009e-308,2.2250738585072014e-308,"
     "1.7976931348623157e308\n", True),
    ("1,2,3,4\r\n5,6,7,8\r\n", False),
    ("+1,2,3,4\n", False),
    (".5,2,3,4\n", False),
    ("5.,2,3,4\n", False),
    ("01,2,3,4\n", False),
    ("-01,2,3,4\n", False),
    (" 1,2 ,3, -0\n", False),
    ("1,2,3,4\t\n", False),
    ("1,2,3,4\n# a comment\n\n5,6,7,8\n", False),
    ("1,2,3,4 # a comment\n", False),
    ("1,2,3,4\n\n", False),
    ("2.4703282292062328e-324,2.4703282292062327e-324,1e-400,-1e-400\n", True),
])
def test_tokens(rows, fast):
    assert_bits(rows, fast)


@pytest.mark.parametrize("token", ["1e400", "-1e400", "nan", "inf", "-Infinity"])
def test_non_finite_tokens_take_loadtxt(token):
    rows = f"1,2,3,4\n5,{token},7,8\n"
    assert text._json_rows(rows) is None
    assert not np.isfinite(loadtxt(rows)[1, 1])
    with pytest.raises(ValueError, match=f"data row 2: x is {loadtxt(rows)[1, 1]}, "):
        read(rows)


def test_crlf_file(tmp_path):
    # a file opened as text reads \r\n as \n, so its blocks take the fast path
    path = tmp_path / "p.csv"
    path.write_bytes(b"t,x,z,theta\r\n1,2,3,-0\r\n5,6.5,7,8\r\n")
    got = read_profile_csv(path)
    assert got.tobytes() == loadtxt("1,2,3,-0\n5,6.5,7,8\n").tobytes()


def big_rows(n_rows: int) -> list[str]:
    rng = np.random.default_rng(24)
    values = rng.standard_normal((n_rows, 4)) * 10.0 ** rng.integers(-5, 5, (n_rows, 4))
    return [",".join("%.17g" % v for v in row) + "\n" for row in values.tolist()]


def second_block_start(lines: list[str]) -> int:
    """The index of the line the reader's second block starts with.

    The first block is READ_BLOCK characters and the rest of the line they end in.
    """
    ends = itertools.accumulate(map(len, lines))
    return 1 + next(i for i, end in enumerate(ends) if end > READ_BLOCK)


def test_blocks_with_a_fallback_past_the_first(monkeypatch):
    lines = big_rows(30_000)
    assert len("".join(lines)) > 2 * READ_BLOCK
    k = second_block_start(lines) + 5
    lines[k] = "+1,2,3,4\n"
    lines[k + 7] = "# a comment\n"
    rows = "".join(lines)
    paths = []
    json_rows = text._json_rows
    monkeypatch.setattr(text, "_json_rows", lambda b: paths.append(json_rows(b) is not None)
                        or json_rows(b))
    got, ref = read(rows), loadtxt(rows)
    assert paths[:3] == [True, False, True] and all(paths[2:])
    assert got.shape == ref.shape == (len(lines) - 1, 4)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("edit, message", [
    ("nan", "data row {row}: z is nan, not a finite number"),
    ("abc", "data row {row}: z is 'abc', not a number"),
    ("1,2", "data row {row} has 5 columns, expected 4 (t,x,z,theta)"),
])
def test_messages_name_data_rows_past_the_first_block(edit, message):
    # the comment and blank line in the first block are not data rows
    lines = big_rows(20_000)
    lines[10:10] = ["# a comment\n", "\n"]
    k = second_block_start(lines) + 5
    fields = lines[k].rstrip("\n").split(",")
    fields[2] = edit
    lines[k] = ",".join(fields) + "\n"
    with pytest.raises(ValueError, match=re.escape(message.format(row=k - 1))):
        read("".join(lines))


@pytest.mark.parametrize("rows, message", [
    ("1,2,3\n" * 3, "rows have 3 columns"),
    ("1,2,3,4\n1,2,3\n1,2,3,4\n", "data row 2 has 3 columns"),
    ("1,2,3\n1,2,3,4\n", "data row 1 has 3 columns"),
    ("1,2,3\n1,2,3,4,5\n", "data row 1 has 3 columns"),  # 4 values a line on average
    ("1,2,3,4\n1;2;3;4\n", "data row 2 has 1 column, expected 4"),
    ("1,2,3,4\n1,2,3,0x1p3\n", "data row 2: theta is '0x1p3', not a number"),
    ("1,2,3,4\n1,2,3,1_0\n", "data row 2: theta is '1_0', not a number"),
    ('1,2,3,4\n1,"1",3,4\n', "data row 2: x is '\"1\"', not a number"),
    ("1,2,3,4\n1,,3,4\n", "data row 2: x is '', not a number"),
    ("1,2,3,4\n   \n", "data row 2 has 1 column, expected 4"),
])
def test_row_messages(rows, message):
    with pytest.raises(ValueError, match=message):
        read(rows)


def test_column_change_across_blocks():
    # each block alone is uniform, and loadtxt reads the second, 5 wide
    lines = big_rows(20_000)
    k = second_block_start(lines)
    lines[k:] = [line.rstrip("\n") + ",9\n" for line in lines[k:]]
    with pytest.raises(ValueError, match=re.escape(
            f"data row {k + 1} has 5 columns, expected 4 (t,x,z,theta)")):
        read("".join(lines))


def load_bench_workloads(monkeypatch):
    """bench/workloads.py, which makes the verify pools of the benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_pool_never_reaches_loadtxt(seed, tmp_path, monkeypatch):
    # every CSV the program emits takes the fast path, with loadtxt's bits
    workloads = load_bench_workloads(monkeypatch)
    paths = []
    for k, argv in enumerate(workloads.verify_pool(seed)):
        paths.append(tmp_path / workloads.pool_name(k))
        assert main([*argv, "--out", str(paths[-1])]) == 0
    assert len(paths) == 25
    refs = []
    for path in paths:
        with open(path) as fh:
            fh.readline()
            refs.append(LOADTXT(fh, delimiter=",", ndmin=2))

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    for path, ref in zip(paths, refs):
        assert read_profile_csv(path).tobytes() == ref.tobytes()
