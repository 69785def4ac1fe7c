"""text.format_17g against '%.17g' % v, the text of every emitted float, and
text._number_cells against '%d' % n, the text of the mesh CSV's ring and
angle numbers and of OBJ face entries.

CI runs this file a second time with numpy's AVX-512 loops switched off:
format_17g calls np.log10 and np.rint, whose SIMD loops may differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotsurf.cli import MAX_MESH_VERTICES
from rotsurf.text import TEXT_CELL, _number_cells, cells_text, format_17g


def texts(values) -> list[str]:
    """format_17g's text of each value."""
    cells = format_17g(np.asarray(values, dtype=float))
    assert cells.shape == (len(values), TEXT_CELL)
    assert not cells[:, -1].any()  # the separator slot is free
    cells[:, -1] = ord("\n")
    return cells_text(cells).decode("ascii").splitlines()


def reference(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def test_edges_and_ties(format_branches):
    powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
    ties = (2.0 ** 50 + np.arange(1144)[:, None] + [0.25, 0.5, 0.75]).ravel()
    special = [np.inf, np.nan, 2.2250738585072014e-308, np.finfo(float).max]
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
                             ties, special])
    values = np.concatenate([format_branches, values, -values])
    assert texts(values) == reference(values)


def test_random_values_in_bulk():
    rng = np.random.default_rng(19)
    n = 50_000
    scale = 10.0 ** rng.integers(0, 12, n)  # decimals with 0 to 11 places
    for values in (rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float),
                   np.exp(rng.uniform(np.log(1e-8), np.log(1e18), n)) * rng.choice([-1, 1], n),
                   rng.uniform(-10.0, 10.0, n),
                   np.round(rng.uniform(-100.0, 100.0, n) * scale) / scale):
        assert texts(values) == reference(values)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_arbitrary_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(float)
    assert texts(values) == reference(values)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.floats(1e-4, 1e17, exclude_max=True), min_size=1, max_size=64),
       st.booleans())
def test_arbitrary_values_in_the_exact_range(values, negate):
    values = -np.array(values) if negate else np.array(values)
    assert texts(values) == reference(values)


def test_no_values():
    assert format_17g(np.empty(0)).shape == (0, TEXT_CELL)
    assert texts([]) == []


# digit-count edges, and the cell-size edges at 7 and 8 digits (one and two words)
NUMBERS = [0, 9, 10, 9999, 10000, 9_999_999, 10_000_000, 99_999_999, MAX_MESH_VERTICES]


@pytest.mark.parametrize("numbers", [NUMBERS, *([n] for n in NUMBERS)])
def test_number_cells(numbers):
    cells = _number_cells(np.array(numbers, np.int64))
    assert cells.shape[0] == len(numbers) and cells.shape[1] % 8 == 0  # whole words
    assert not cells[:, -1].any()  # the separator slot is free
    cells[:, -1] = ord(",")
    assert cells_text(cells) == b"".join(b"%d," % n for n in numbers)
