"""Integer helpers: primality, factorization, sieves, CRT, valuations."""

from __future__ import annotations

import functools
import math

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24, the 13-base bound)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SEGMENT = 1 << 18
"""Consecutive integers sieved at once by prime_segments; bounds its memory."""


def prime_segments(lo: int, hi: int):
    """The primes in [lo, hi] as sorted int64 arrays, one array (possibly
    empty) per segment of SEGMENT consecutive integers, in increasing order.

    Memory is O(SEGMENT + sqrt(hi)): the primes up to sqrt(hi) that cross
    off composites come from the same sieve.
    """
    lo = max(lo, 2)
    if hi < lo:
        return
    base = [p for seg in prime_segments(2, math.isqrt(hi)) for p in seg.tolist()]
    for seg_lo in range(lo, hi + 1, SEGMENT):
        seg_hi = min(seg_lo + SEGMENT - 1, hi)
        flags = np.ones(seg_hi - seg_lo + 1, dtype=bool)
        for p in base:
            if p * p > seg_hi:
                break
            start = max(p * p, -(-seg_lo // p) * p)
            flags[start - seg_lo::p] = False
        yield np.flatnonzero(flags) + seg_lo


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi]."""
    return [p for seg in prime_segments(lo, hi) for p in seg.tolist()]


def primes_upto(n: int) -> list[int]:
    """All primes <= n."""
    return primes_in_range(2, n)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization failed for {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    return dict(_factorize_cached(n))


@functools.lru_cache(maxsize=1 << 16)
def _factorize_cached(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(out.items()))


def valuation(n: int, p: int) -> int:
    """Exponent of p in n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 matching r1 mod m1 and r2 mod m2 (coprime moduli)."""
    inv = pow(m1, -1, m2)
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)
