import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewb import keep_masks, make_rng, random_frame, rng

from conftest import peak_bytes


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    trials=st.integers(min_value=1, max_value=6),
    more=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=64, max_value=80),
    p=st.floats(min_value=0.05, max_value=0.95),
)
def test_property_masks_have_their_own_stream(seed, trials, more, n, p):
    masks = keep_masks(seed, trials, n, 0.5)
    # at p = 1/2 a mask entry is the top bit of its uniform; every row holds at
    # least 64 of them, so equal rows would mean the streams share draws
    frame_draws = make_rng(seed, stream=0).random((trials, n)) < 0.5
    assert all((row != other).any() for row, other in zip(masks, frame_draws))
    # row t depends only on (seed, t), not on how many trials are drawn
    fewer, longer = keep_masks(seed, trials, n, p), keep_masks(seed, trials + more, n, p)
    np.testing.assert_array_equal(longer[:trials], fewer)


@pytest.mark.parametrize("p", [float("nan"), 1.5, -0.1, float("inf")])
def test_keep_masks_reject_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match="keep probability"):
        keep_masks(0, 2, 3, p)


@pytest.mark.parametrize("n", [2.5, True, -1, 0])
def test_keep_masks_take_n_as_an_integer_from_one(n):
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer in 1..inf, got {n}")):
        keep_masks(0, 2, n, 0.5)


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (7, 105)])
def test_blocked_masks_equal_one_draw_of_all_rows(blocks, extra):
    trials = blocks * rng._MASK_BLOCK_ROWS + extra
    want = make_rng(9, stream=1).random((trials, 37)) < 0.3
    np.testing.assert_array_equal(keep_masks(9, trials, 37, 0.3), want)


def test_keep_masks_peak_memory_is_bounded_by_its_output():
    peak = peak_bytes(keep_masks, 5, 200_000, 64, 0.5)
    assert keep_masks(5, 200_000, 64, 0.5).nbytes == 200_000 * 64
    assert peak < 2 * 200_000 * 64


@pytest.mark.parametrize("seed", [2.7, 9.9, float("nan"), float("inf"), -1, True])
def test_seeds_and_streams_must_be_integers_from_zero(seed):
    def raises(what):
        return pytest.raises(ValueError, match=re.escape(f"{what} must be an integer in 0..inf, got {seed}"))

    with raises("seed"):
        make_rng(seed)
    with raises("stream"):
        make_rng(0, stream=seed)
    with raises("seed"):
        random_frame(3, 8, seed=seed)
    for p in (0.0, 0.5, 1.0):  # every p, 0 and 1 too, takes the one draw from the seed's stream
        with raises("seed"):
            keep_masks(seed, 4, 9, p)


def test_integral_float_seeds_keep_the_integer_bytes():
    np.testing.assert_array_equal(random_frame(3, 8, seed=2.0).entries,
                                  random_frame(3, 8, seed=2).entries)
    np.testing.assert_array_equal(keep_masks(9.0, 5, 11, 0.3), keep_masks(9, 5, 11, 0.3))
    np.testing.assert_array_equal(keep_masks(9, 5, 11.0, 0.3), keep_masks(9, 5, 11, 0.3))
    assert make_rng(2**70, stream=3).random() == make_rng(2**70, stream=3.0).random()
