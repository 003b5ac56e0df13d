"""The suites' draws: `_stacked` converts each stack of drawn elements in one pass and
must give the stacks that drawing them one element at a time with `rand_element` and
zero-padding gave, from the same stream, leaving it at the same position."""

import numpy as np
import pytest

from specdist import verify
from specdist.verify import DEFAULT_SEED, THETAS, Draws, draw_element, rand_coeffs, rand_element


def _mixed(element):
    # the distance suite's restriction draw: element, basis index, complex weights
    return lambda rng, i: (element(rng, THETAS[i % 3], 8), rng.integers(0, 6),
                           rng.standard_normal(5) + 1j * rng.standard_normal(5))


def _elements(count, max_order):
    return lambda element: lambda rng, i: tuple(element(rng, THETAS[i % 3], max_order)
                                                for _ in range(count))


# each shape the suites draw: singles and pairs (calculus, lipschitz), the algebra suite's
# triples at its default largest order, and the mixed tuple
SHAPES = {"single": _elements(1, 12), "pair": _elements(2, 12), "triple": _elements(3, 16),
          "mixed": _mixed}


def _by_hand(count, draw):
    """The stacks _stacked evaluates, for count instances drawn one element at a time."""
    rng, stacks = Draws(DEFAULT_SEED), []
    instances = [draw(rng, i) for i in range(count)]
    for start in range(0, count, verify.CHUNK):
        chunk = instances[start:start + verify.CHUNK]
        groups = {}
        for args in chunk:
            groups.setdefault(args[0].theta, []).append(args)
        for theta, group in groups.items():
            row = []
            for arg in zip(*group):
                if not isinstance(arg[0], verify.MoyalElement):
                    row.append(np.array(arg))
                    continue
                n = max(e.order for e in arg)
                c = np.zeros((len(arg), n, n), dtype=complex)
                for j, e in enumerate(arg):
                    c[j, :e.order, :e.order] = e.coeffs
                row.append((theta, c))
            stacks.append(row)
    return stacks, rng


@pytest.mark.parametrize("shape", SHAPES)
def test_stacks_are_rand_element_zero_padded_bit_for_bit(shape):
    count = 2 * verify.CHUNK + 20  # two whole chunks and a partial one
    rng, stacks = Draws(DEFAULT_SEED), []

    def evaluate(*args):
        stacks.append(args)
        return [None] * len(args[0].coeffs)

    draw = SHAPES[shape](draw_element)
    rows = list(verify._stacked(count, lambda i: draw(rng, i), evaluate))
    assert [i for i, _ in rows] == list(range(count))
    want, replay = _by_hand(count, SHAPES[shape](rand_element))
    assert len(stacks) == len(want) == 9
    for got, expected in zip(stacks, want):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            if isinstance(e, tuple):
                assert g.theta == e[0] and g.coeffs.shape == e[1].shape
                assert g.coeffs.tobytes() == e[1].tobytes()
            else:
                assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
    # the same stream position: the next draws agree
    assert rng.randbytes(64) == replay.randbytes(64) and rng.uniform(0, 1) == replay.uniform(0, 1)


def test_one_uniform_draw_of_test_vectors_equals_twenty_rand_coeffs_calls():
    # the lipschitz exactness check draws its 20 vectors as one uniform array
    one, many = Draws(DEFAULT_SEED + 2), Draws(DEFAULT_SEED + 2)
    phis = verify._disk(one.uniform(-1.0, 1.0, (20, 8, 8, 2)))
    want = np.array([rand_coeffs(many, 8) for _ in range(20)])
    assert phis.shape == want.shape and phis.tobytes() == want.tobytes()
    assert one.randbytes(64) == many.randbytes(64)


def test_draw_element_at_an_order_draws_as_rand_coeffs():
    drawn, replay = Draws(DEFAULT_SEED), Draws(DEFAULT_SEED)
    a = draw_element(drawn, 2.0, order=8)
    assert a.theta == 2.0 and a.order == 8
    assert verify._padded(2.0, [a]).coeffs[0].tobytes() == rand_coeffs(replay, 8).tobytes()
    assert drawn.uniform(0, 1, 3).tobytes() == replay.uniform(0, 1, 3).tobytes()
