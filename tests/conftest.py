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
    """Finite values that reach every branch of text.format_17g, with both signs.

    Zero, a subnormal and 1e-300 take '%.17g' itself, and so do 1e17 and up;
    1e-4 and 1e17 with their neighbours sit at the edges of the exact range,
    and 1e16 with its neighbours at a change of exponent; 2**53 +- 2 are
    16-digit integers, written without a point; 2**50 + k + 0.25 and 0.75 lie
    exactly halfway between two 17-digit decimals, so they round half to even.
    """
    edges = np.array([1e-4, 1e16, 1e17])
    values = np.concatenate([
        [0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 2.0, 1e308, 2.0 ** 53 - 2, 2.0 ** 53 + 2],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        2.0 ** 50 + np.array([0.25, 0.75, 1.25, 1.75]),
    ])
    return np.concatenate([values, -values])
