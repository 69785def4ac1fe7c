"""The text of every emitted float, and text._number_cells against '%d' % n,
the text of the mesh CSV's ring and angle numbers and of OBJ face entries.

A float's text is orjson's: the shortest decimal that reads back to the
same float64 bits, and null if the float is not finite.  These tests write
values through text.write_rows, the block writer of every profile and
polyline CSV, and compare each value's text with one orjson.dumps of it,
read it back, and pin its style.  CI installs the latest orjson, so a
release that spells a number differently fails test_style_is_pinned.
"""

import io

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from rotsurf.cli import MAX_MESH_VERTICES
from rotsurf.text import ROW_BLOCK, _number_cells, cells_text, write_rows


def texts(values) -> list[bytes]:
    """write_rows's text of each value, as a column of one value a line."""
    buf = io.BytesIO()
    write_rows(buf.write, np.asarray(values, dtype=float))
    return buf.getvalue().splitlines()


def assert_round_trip(values):
    """Each value's text is orjson.dumps of it, and reads back to its bits (null if not finite)."""
    values = np.asarray(values, dtype=float)
    got = texts(values)
    assert got == [orjson.dumps(v) for v in values.tolist()]
    finite = np.isfinite(values)
    assert [t for t, ok in zip(got, finite) if not ok] == [b"null"] * int((~finite).sum())
    for read in (float, orjson.loads):
        back = np.array([read(t) for t, ok in zip(got, finite) if ok], dtype=float)
        assert back.tobytes() == values[finite].tobytes()


# the text of the first half of conftest.format_branches, whose second half is its negation
STYLE = [
    "0.0", "1.0", "5e-324", "1e-300", "0.1", "0.3333333333333333", "2.0", "1e308",
    "9007199254740990.0", "9007199254740994.0",
    "1e-6", "0.00001", "0.0001", "1e16", "1e17",
    "9.999999999999997e-7", "9.999999999999999e-6", "0.00009999999999999999",
    "9999999999999998.0", "9.999999999999998e16",
    "1.0000000000000002e-6", "0.000010000000000000003", "0.00010000000000000002",
    "1.0000000000000002e16", "1.0000000000000002e17",
    "1125899906842624.2", "1125899906842624.8", "1125899906842625.2", "1125899906842625.8",
]


def test_style_is_pinned(format_branches):
    # orjson's spelling, which every emitted file holds: a point and a digit
    # after a whole number, positional from 1e-5 up to 1e16, no '+' and no
    # leading zeros in an exponent, and '-' on negative zero
    assert texts(format_branches) == [t.encode() for t in STYLE] + [
        b"-" + t.encode() for t in STYLE]
    assert_round_trip(format_branches)


def test_edges_and_ties(format_branches):
    powers = np.array([float(f"1e{k}") for k in range(-8, 18)])
    ties = (2.0 ** 50 + np.arange(1144)[:, None] + [0.25, 0.5, 0.75]).ravel()
    special = [np.inf, np.nan, 2.2250738585072014e-308, np.finfo(float).max]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             ties, special])
    values = np.concatenate([format_branches, values, -values])
    assert len(values) > ROW_BLOCK  # across a block edge of write_rows
    assert_round_trip(values)


def test_random_values_in_bulk():
    rng = np.random.default_rng(19)
    n = 50_000
    scale = 10.0 ** rng.integers(0, 12, n)  # decimals with 0 to 11 places
    for values in (rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float),
                   np.exp(rng.uniform(np.log(1e-8), np.log(1e18), n)) * rng.choice([-1, 1], n),
                   rng.uniform(-10.0, 10.0, n),
                   np.round(rng.uniform(-100.0, 100.0, n) * scale) / scale):
        assert_round_trip(values)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_arbitrary_bit_patterns(bits):
    assert_round_trip(np.array(bits, dtype=np.uint64).view(float))


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.floats(1e-5, 1e16, exclude_max=True), min_size=1, max_size=64),
       st.booleans())
def test_arbitrary_values_in_the_positional_range(values, negate):
    values = -np.array(values) if negate else np.array(values)
    assert_round_trip(values)
    assert not any(b"e" in t for t in texts(values))


def test_no_values():
    assert texts([]) == []
    assert texts(np.empty((0, 3))) == []


# digit-count edges, and the cell-size edges at 7 and 8 digits (one and two words)
NUMBERS = [0, 9, 10, 9999, 10000, 9_999_999, 10_000_000, 99_999_999, MAX_MESH_VERTICES]


@pytest.mark.parametrize("numbers", [NUMBERS, *([n] for n in NUMBERS)])
def test_number_cells(numbers):
    cells = _number_cells(np.array(numbers, np.int64))
    assert cells.shape[0] == len(numbers) and cells.shape[1] % 8 == 0  # whole words
    assert not cells[:, -1].any()  # the separator slot is free
    cells[:, -1] = ord(",")
    assert cells_text(cells) == b"".join(b"%d," % n for n in numbers)
