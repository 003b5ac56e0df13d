import numpy as np
import pytest

from specdist.verify import DEFAULT_SEED, THETAS, rand_coeffs, rand_element  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(DEFAULT_SEED)
