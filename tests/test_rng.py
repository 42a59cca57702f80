"""Counter-based generator: determinism and distribution sanity."""

import numpy as np
import pytest

from singmat.rng import (
    MASK64,
    Stream,
    bernoulli_threshold,
    derive_seed,
    derive_seeds,
    mix64,
    u64_block,
    value_at,
)


def test_mix64_is_64_bit():
    for z in (0, 1, MASK64, 0xDEADBEEF):
        assert 0 <= mix64(z) <= MASK64


def test_stream_matches_value_at():
    s = Stream(12345)
    assert [s.next_u64() for _ in range(8)] == [value_at(12345, k) for k in range(8)]


def test_u64_block_matches_scalar():
    seeds = [987654321, 0, MASK64]
    block = u64_block(seeds, 16)
    assert block.shape == (3, 16) and block.dtype == np.uint64
    assert block.tolist() == [[value_at(s, k) for k in range(16)] for s in seeds]
    assert u64_block(seeds, 0).shape == (3, 0)


def test_negative_grid_counts_are_rejected():
    with pytest.raises(ValueError):
        u64_block([1, 2], -3)
    with pytest.raises(ValueError):
        derive_seeds([1, 2], -1)


def _scalar_grids(seeds, count):
    flat = np.asarray(seeds, dtype=np.uint64).reshape(-1).tolist()
    return (
        [[value_at(s, k) for k in range(count)] for s in flat],
        [[derive_seed(s, k) for k in range(count)] for s in flat],
    )


@pytest.mark.parametrize(
    "seeds, count",
    [
        # 301 rows of 300: the last block of rows is ragged.
        (list(range(MASK64 - 150, MASK64 + 1)) + list(range(150)), 300),
        # Rows longer than a 2**14-entry block: one row per block.
        ([5, MASK64], (1 << 14) + 3),
        (123456789, 37),
        ([[1, 2, 3], [MASK64, 0, 7]], 11),
        (7, 0),
        ([1, 2], 0),
        ([[1, 2, 3], [4, 5, 6]], 0),
        ([], 5),
        ([], 0),
    ],
)
def test_grids_match_scalar_across_blocks(seeds, count):
    shape = np.shape(seeds) + (count,)
    values, children = _scalar_grids(seeds, count)
    block, derived = u64_block(seeds, count), derive_seeds(seeds, count)
    assert block.shape == derived.shape == shape
    assert block.dtype == derived.dtype == np.uint64
    assert block.reshape(len(values), count).tolist() == values
    assert derived.reshape(len(values), count).tolist() == children


def test_derive_seeds_matches_scalar():
    seeds = [42, 0, MASK64]
    assert derive_seeds(seeds, 9).tolist() == [[derive_seed(s, k) for k in range(9)] for s in seeds]
    assert derive_seeds(7, 4).tolist() == [derive_seed(7, k) for k in range(4)]


def test_derive_seed_changes_stream():
    children = {derive_seed(42, i) for i in range(100)}
    assert len(children) == 100
    assert 42 not in children


def test_below_range_and_coverage():
    s = Stream(7)
    draws = [s.below(6) for _ in range(2000)]
    assert set(draws) == set(range(6))
    assert all(0 <= d < 6 for d in draws)


def test_below_one_consumes_one_draw():
    s = Stream(9)
    assert s.below(1) == 0
    assert s.counter == 1


def test_bernoulli_threshold_edges():
    assert bernoulli_threshold(0, 1) == 0
    assert bernoulli_threshold(1, 1) == 1 << 64
    assert bernoulli_threshold(1, 2) == 1 << 63


def test_bit_is_fair_ish():
    s = Stream(11)
    ones = sum(s.bit() for _ in range(4000))
    assert abs(ones - 2000) < 200  # 6+ sigma slack
