import numpy as np
import pytest
from hypothesis import settings

from apwalks.verify import Pipeline

# The same examples on every run, no per-example deadline on a slow host, and
# no example database written to the working tree.
settings.register_profile(
    "apwalks", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("apwalks")


@pytest.fixture(scope="session")
def pipe():
    return Pipeline()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987654321)
