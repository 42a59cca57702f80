"""Deterministic counter-based random number generation.

All randomness in the package flows through a SplitMix64-style generator
used in counter mode: the k-th output of a stream with seed ``s`` is

    value(s, k) = mix64((s + (k+1) * GAMMA) mod 2**64)

where ``mix64`` is the SplitMix64 finalizer (Steele, Lea & Flood's
constants).  Because each output is a pure function of (seed, counter),
streams can be evaluated out of order, in parallel, or in bulk with
numpy, and any implementation in any language that follows the formula
reproduces them bit for bit.  :func:`u64_block` evaluates the first
``count`` outputs of many streams as one uint64 grid, and
:func:`derive_seeds` does the same for child seeds; both equal the
scalar functions entry for entry.  The grid is mixed in blocks of whole
rows small enough to stay in cache.

Child streams are derived with :func:`derive_seed`, which mixes the
parent seed with the child index under distinct constants so that child
streams do not trivially collide with the parent counter sequence.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

MASK64 = (1 << 64) - 1

# SplitMix64 increment and finalizer constants.
GAMMA = 0x9E3779B97F4A7C15
MIX_C1 = 0xBF58476D1CE4E5B9
MIX_C2 = 0x94D049BB133111EB

# Distinct constants for child-seed derivation (from wyhash).
DERIVE_XOR = 0xA0761D6478BD642F
DERIVE_GAMMA = 0xE7037ED1A0B428DB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective mixing function."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_C1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_C2) & MASK64
    return z ^ (z >> 31)


def value_at(seed: int, counter: int) -> int:
    """The counter-th 64-bit output of the stream with the given seed."""
    return mix64((seed + (counter + 1) * GAMMA) & MASK64)


def derive_seed(seed: int, index: int) -> int:
    """Derive the seed of child stream ``index`` from a parent seed.

    Uses the same finalizer as the stream itself but a different
    increment and an xor salt, so child seeds land in an unrelated part
    of the state space.
    """
    return mix64(((seed ^ DERIVE_XOR) + (index + 1) * DERIVE_GAMMA) & MASK64)


# Entries mixed per block of rows: 2**14 uint64 values, 128 KB per
# block and as much again for its scratch, which stay in cache through
# the nine passes of the finalizer.
_BLOCK = 1 << 14


def _counter_grid(seeds, count: int, gamma: int) -> np.ndarray:
    """mix64(seeds[i] + (k+1) * gamma) over the grid of seeds by k in
    [0, count), shaped ``np.shape(seeds) + (count,)``.  The output is
    allocated once and mixed in place in blocks of whole rows of about
    ``_BLOCK`` entries, with one scratch block; numpy uint64 arithmetic
    wraps modulo 2**64 exactly as the scalar path does."""
    if count < 0:
        raise InvalidInput(f"count must be nonnegative, got {count}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(gamma)
    out = np.empty(seeds.shape + (count,), dtype=np.uint64)
    grid = out.reshape(seeds.size, count)
    column = seeds.reshape(seeds.size, 1)
    rows = max(1, _BLOCK // max(count, 1))
    scratch = np.empty((min(rows, seeds.size), count), dtype=np.uint64)
    for i in range(0, seeds.size, rows):
        z = grid[i : i + rows]
        t = scratch[: z.shape[0]]
        np.add(column[i : i + rows], steps, out=z)
        for shift, mult in ((30, MIX_C1), (27, MIX_C2)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            z *= np.uint64(mult)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return out


def u64_block(seeds, count: int) -> np.ndarray:
    """Outputs [0, count) of every stream in ``seeds``, as uint64 of
    shape ``np.shape(seeds) + (count,)``: entry [i, k] is
    ``value_at(seeds[i], k)``.  Raises InvalidInput if count < 0."""
    return _counter_grid(seeds, count, GAMMA)


def derive_seeds(seeds, count: int) -> np.ndarray:
    """Child seeds [0, count) of every seed in ``seeds``, shaped like
    :func:`u64_block`: entry [i, k] is ``derive_seed(seeds[i], k)``.
    Raises InvalidInput if count < 0."""
    salted = np.asarray(seeds, dtype=np.uint64) ^ np.uint64(DERIVE_XOR)
    return _counter_grid(salted, count, DERIVE_GAMMA)


class Stream:
    """Sequential view of a counter-based stream.

    Thin stateful wrapper: keeps the next counter value and hands out
    consecutive outputs of ``value_at(seed, .)``.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        v = value_at(self.seed, self.counter)
        self.counter += 1
        return v

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; unbiased for any n >= 1."""
        if n <= 0:
            raise InvalidInput("below() requires n >= 1")
        limit = MASK64 + 1 - ((MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def bit(self) -> int:
        """A fair coin: the top bit of the next output."""
        return self.next_u64() >> 63


def bernoulli_threshold(num: int, den: int) -> int:
    """floor(p * 2**64) for p = num/den; realizes Bernoulli(p) from one u64.

    The event (u < threshold) has probability within 2**-64 of p, and is
    exact whenever p * 2**64 is an integer (in particular for p in
    {0, 1/2, 1}).
    """
    if not 0 <= num <= den or den <= 0:
        raise InvalidInput("need 0 <= num/den <= 1")
    return (num << 64) // den
