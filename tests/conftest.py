import numpy as np
import pytest

from specdist.verify import DEFAULT_SEED, THETAS, rand_coeffs, rand_element  # noqa: F401


def permuted_blocks(rng, shapes, empty_rows=0, empty_cols=0):
    """Dense random complex blocks of the given shapes placed along the diagonal, then
    empty rows and columns, with the rows and the columns shuffled."""
    rows = sum(p for p, _ in shapes) + empty_rows
    cols = sum(q for _, q in shapes) + empty_cols
    m = np.zeros((rows, cols), dtype=complex)
    i = j = 0
    for p, q in shapes:
        m[i:i + p, j:j + q] = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        i, j = i + p, j + q
    return m[rng.permutation(rows)][:, rng.permutation(cols)]


def random_block_shapes(rng):
    """One to six shapes with sides from 1 to 6."""
    return [(int(p), int(q)) for p, q in rng.integers(1, 7, size=(rng.integers(1, 7), 2))]


@pytest.fixture
def rng():
    return np.random.default_rng(DEFAULT_SEED)
