"""Integer helpers: primality, factorization, sieves, CRT, valuations."""

from __future__ import annotations

import math

import numpy as np

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_EXACT_BELOW = 3317044064679887385961981
"""The least strong pseudoprime to all of _MR_BASES (Sorenson and Webster)."""
_MR4_EXACT_BELOW = 3215031751
"""The least strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke)."""


def is_prime(n: int) -> bool:
    """Whether n is prime.

    Miller-Rabin to the bases 2, 3, 5, 7 below _MR4_EXACT_BELOW, else to the
    13 prime bases 2 to 41, exact below _MR_EXACT_BELOW. From there on a
    strong Lucas test is added, which makes the Baillie-PSW test (Baillie
    and Wagstaff, Math. Comp. 35, 1980): no composite is known to pass it.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES if n >= _MR4_EXACT_BELOW else _MR_BASES[:4]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 free of small
    factors, with Selfridge's parameters: the first D in 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1 and Q = (1 - D) / 4."""
    if math.isqrt(n) ** 2 == n:  # no such D exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(x: int) -> int:
        return (x if x % 2 == 0 else x + n) // 2 % n

    # U_k, V_k and Q^k for k the leading bits of d: k -> 2k, then k -> k + 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):  # V_(2k) = V_k^2 - 2 Q^k
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


SEGMENT = 1 << 18
"""Consecutive integers sieved at once by prime_segments; bounds its memory."""


def prime_segments(lo: int, hi: int, d: int = 1, r: int = 0):
    """The primes p = r mod d in [lo, hi] as nonempty sorted int64 arrays, at
    most one per segment of SEGMENT consecutive integers, in increasing order.

    Only the members of the class are sieved, and segments without one are
    skipped. Memory is O(SEGMENT/d + sqrt(hi)): the primes up to sqrt(hi)
    that cross off composites come from the same sieve. hi >= 2^63 does not
    fit the int64 arrays and is refused here, before anything is sieved.
    """
    if hi >= 1 << 63:
        raise ValueError(f"bound {hi} is not below 2^63")
    return _class_segments(max(lo, 2), hi, d, r)


def _class_segments(lo: int, hi: int, d: int, r: int):
    v = lo + (r - lo) % d  # the first member of each segment
    if v > hi:
        return
    base = [q for seg in prime_segments(2, math.isqrt(hi)) for q in seg.tolist()]
    # a base prime q steps through the members i with v + i d = 0 mod q;
    # if q | d it divides every member (step 1, inv 0) when q | r, else none
    steps = [(q, pow(d, -1, q)) if d % q else (q, 0)
             for q in base if d % q or r % q == 0]
    while v <= hi:
        seg_hi = min(v - (v - lo) % SEGMENT + SEGMENT - 1, hi)
        flags = np.ones((seg_hi - v) // d + 1, dtype=bool)
        for q, inv in steps:
            if q * q > seg_hi:
                break
            i = max(0, -(-(q * q - v) // d))  # the first member >= q^2
            i += -(v + i * d) * inv % q
            flags[i::q if inv else 1] = False
        # one member per segment when d > hi, and numpy needs d < 2^63
        ps = np.flatnonzero(flags) * min(d, hi) + v
        if ps.size:
            yield ps
        v += flags.size * d


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Floyd's cycle finding)."""
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
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # what is left is 1 or a prime above every key
            return {**out, n: 1} if n > 1 else out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
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
    return dict(sorted(out.items()))


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
