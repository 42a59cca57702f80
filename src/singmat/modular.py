"""Prime generation, symmetric residues, and rational reconstruction.

Working primes are 31-bit: the largest size for which a*b with
a, b < p stays below 2**62, so vectorized int64 modular elimination
never overflows.  The fixed prime list (``crt_primes``) descends from
2**31, making every search over it reproducible.
"""

from __future__ import annotations

from math import gcd

from .rng import Stream

PRIME_BITS = 31
PRIME_CEILING = 1 << PRIME_BITS

# Witnesses certifying Miller-Rabin for all n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke
# 1993); every 31-bit candidate lies below it, so those four suffice.
_MR_FOUR_BASES_BELOW = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3e24: the first
    four witnesses below 3,215,031,751, all twelve from there on."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4] if n < _MR_FOUR_BASES_BELOW else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_crt_primes: list[int] = []


def crt_primes(count: int) -> list[int]:
    """First ``count`` primes below 2**31, in descending order.

    The list is extended lazily but deterministically, so prime i is
    the same in every run.
    """
    candidate = _crt_primes[-1] - 2 if _crt_primes else PRIME_CEILING - 1
    while len(_crt_primes) < count:
        if is_prime(candidate):
            _crt_primes.append(candidate)
        candidate -= 2
    return _crt_primes[:count]


def random_prime(stream: Stream) -> int:
    """A uniform-ish random 31-bit prime drawn from the given stream."""
    while True:
        candidate = (stream.below(PRIME_CEILING // 2 - 1) * 2 + 3)
        if is_prime(candidate):
            return candidate


def symmetric_lift(r: int, m: int) -> int:
    """Representative of r mod m in (-m/2, m/2]."""
    r %= m
    return r - m if r > m // 2 else r


def rational_reconstruct(r: int, m: int) -> tuple[int, int] | None:
    """Recover n/d with r*d = n (mod m), |n| <= sqrt(m/2), 0 < d <= sqrt(m/2).

    Classic half-extended Euclid (Wang's algorithm).  Returns None when
    no representative within the bound exists.
    """
    bound_sq = m // 2
    v0, v1 = m, r % m
    t0, t1 = 0, 1
    while v1 * v1 > bound_sq:
        q = v0 // v1
        v0, v1 = v1, v0 - q * v1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or t1 * t1 > bound_sq:
        return None
    if t1 < 0:
        v1, t1 = -v1, -t1
    if gcd(v1, t1) != 1 or gcd(t1, m) != 1:
        return None
    return v1, t1
