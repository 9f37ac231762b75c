import numpy as np
import pytest

from apwalks.verify import Pipeline


@pytest.fixture(scope="session")
def pipe():
    return Pipeline()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987654321)
