"""Primality against sympy, on both sides of the four-witness bound."""

import random

import pytest
import sympy

from singmat.modular import PRIME_CEILING, crt_primes, is_prime

# Jaeschke (1993): the least strong pseudoprimes to the first three and
# the first four prime bases.
SPSP_2_3_5 = 25_326_001
SPSP_2_3_5_7 = 3_215_031_751


def _strong_probable_prime(n, a):
    """One Miller-Rabin round: whether odd n > 2 passes base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_matches_sympy_on_random_31_bit_integers():
    rng = random.Random(31)
    values = [rng.randrange(PRIME_CEILING // 2, PRIME_CEILING) for _ in range(2000)]
    values += [rng.randrange(PRIME_CEILING // 2, PRIME_CEILING) | 1 for _ in range(2000)]
    assert [is_prime(v) for v in values] == [sympy.isprime(v) for v in values]
    assert sum(map(is_prime, values)) > 50


@pytest.mark.parametrize("n, bases", [(SPSP_2_3_5, (2, 3, 5)), (SPSP_2_3_5_7, (2, 3, 5, 7))])
def test_strong_pseudoprimes_are_composite(n, bases):
    """Each passes every base it is a pseudoprime to, so only a further
    witness rejects it; the second needs witnesses past the first four."""
    assert all(_strong_probable_prime(n, a) for a in bases)
    assert not sympy.isprime(n)
    assert not is_prime(n)


def test_is_prime_matches_sympy_around_the_four_witness_bound():
    values = range(SPSP_2_3_5_7 - 2000, SPSP_2_3_5_7 + 2000)
    assert [is_prime(v) for v in values] == [sympy.isprime(v) for v in values]


def test_is_prime_on_small_integers_and_the_fixed_primes():
    assert [n for n in range(-3, 200) if is_prime(n)] == list(sympy.primerange(200))
    assert all(sympy.isprime(p) for p in crt_primes(20))
