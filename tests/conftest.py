import numpy as np
import pytest

import sraar as S
from sraar.projections import _shrink_scale


@pytest.fixture(scope="session")
def phantom64():
    return S.shepp_logan(64)


@pytest.fixture(scope="session")
def phantom128():
    return S.shepp_logan(128)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def shrink(coeffs, c):
    """P1 on complex Haar coefficients: the nearest point in the l1 ball of
    radius c, from the solvers' own shrink factors (None inside the ball)."""
    scale = _shrink_scale(coeffs, c, np.empty_like(coeffs))
    return coeffs.copy() if scale is None else coeffs * scale
