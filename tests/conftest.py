import pytest

from tvrates import BoundParams, GaussianMixture, gaussian


@pytest.fixture
def std_normal():
    return gaussian(0.0, 1.0)


@pytest.fixture
def bimodal():
    return GaussianMixture([0.5, 0.5], [[-1.0], [1.0]], [[[1.0]], [[1.0]]])


@pytest.fixture
def default_params():
    return BoundParams(p=2.0, q=2.0, epsilon=0.1)
