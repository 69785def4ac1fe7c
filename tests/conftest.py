import numpy as np
import pytest

import rotsurf as rs


@pytest.fixture(scope="session")
def cfg():
    return rs.IntegratorConfig()


@pytest.fixture(scope="session")
def lambda0(cfg):
    return rs.find_lambda0(cfg, tol=1e-8)


@pytest.fixture(scope="session")
def launch(cfg):
    return rs.launch_separatrix(cfg)


@pytest.fixture(scope="session")
def sep_profile(cfg):
    return rs.separatrix_profile(cfg)


@pytest.fixture(scope="session")
def format_branches():
    """Finite values that reach every branch of the float text, with both signs.

    The text is the shortest that reads back to the same bits, in orjson's
    style: positional for 1e-5 <= |v| < 1e16, with `.0` after a whole
    number (0.0, 1.0, 2**53 +- 2), and `d.ddde-N` or `d.dddeN` outside
    it, as for a subnormal, 1e-300 and 1e308.  1e-5, 1e16 and their
    neighbours sit at the edges of the positional range, 1e-4 and 1e17 with
    theirs where '%.17g' and repr change style; 0.1 and 1/3 need 1 and 16
    digits; 2**50 + k + 0.25 and 0.75 lie exactly halfway between two
    17-digit decimals.
    """
    edges = np.array([1e-6, 1e-5, 1e-4, 1e16, 1e17])
    values = np.concatenate([
        [0.0, 1.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 2.0, 1e308, 2.0 ** 53 - 2, 2.0 ** 53 + 2],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        2.0 ** 50 + np.array([0.25, 0.75, 1.25, 1.75]),
    ])
    return np.concatenate([values, -values])
