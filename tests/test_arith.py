import math
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from intersective import arith
from intersective.arith import factorize, prime_segments, valuation


def test_factorize_matches_sympy_to_20000():
    for n in range(1, 20001):
        got = factorize(n)
        assert got == sympy.factorint(n) and list(got) == sorted(got), n


@pytest.mark.parametrize("n", [
    2809,  # 53^2, the least n free of primes <= 47 that is not prime
    2491,  # 47 * 53
    3127,  # 53 * 59
    2801, 2803, 2819, 2833,  # primes just below and above 53^2
    47 ** 2 * 2801,
    53 ** 3,
    (2 ** 31 - 1) * (2 ** 61 - 1),  # cofactors that reach Pollard rho
    1000003 ** 2,
    2 ** 5 * 53 * 1000003 * (2 ** 61 - 1),
])
def test_factorize_matches_sympy_near_shortcut_and_rho(n):
    assert factorize(n) == sympy.factorint(n)


def test_high_prime_powers_are_quick():
    # one division per unit of the exponent made these quadratic in it
    t0 = time.perf_counter()
    assert factorize(2 * 5 ** 100000) == {2: 1, 5: 100000}
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    assert valuation(5 ** 100000 * 7, 5) == 100000
    assert time.perf_counter() - t0 < 1.0


@given(st.integers(1, 10 ** 30), st.sampled_from([2, 3, 5, 7, 1000003]),
       st.integers(0, 300), st.sampled_from([1, -1]))
def test_valuation_matches_repeated_division(u, p, v, sign):
    n = sign * u * p ** v
    want = 0
    while n % p == 0:
        n //= p
        want += 1
    assert valuation(sign * u * p ** v, p) == want


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


# with SEGMENT = 64, a few hundred integers cross many segment boundaries
_ENDS = st.one_of(st.integers(-3, 700),
                  st.sampled_from([64 * k + e for k in range(1, 11)
                                   for e in (-1, 0, 1)]))


@given(lo=_ENDS, hi=_ENDS, d=st.integers(1, 30), r=st.integers(-40, 40))
@example(lo=0, hi=640, d=1, r=0)
@example(lo=64, hi=127, d=1, r=0)
@example(lo=63, hi=192, d=4, r=3)
@example(lo=2, hi=700, d=30, r=7)
def test_prime_segments_match_sympy_in_residue_class(lo, hi, d, r):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "SEGMENT", 64)
        segments = list(prime_segments(lo, hi, d, r))
    for seg in segments:
        assert seg.size and seg.dtype == np.int64
        assert (np.diff(seg) > 0).all()
    got = [int(p) for seg in segments for p in seg]
    assert got == [p for p in sympy.primerange(lo, hi + 1) if (p - r) % d == 0]
    # one array per segment of 64 integers, from max(lo, 2), that holds one
    assert len({(p - max(lo, 2)) // 64 for p in got}) == len(segments)


@given(lo=_ENDS, hi=st.integers(0, 4000), d=st.integers(65, 1500),
       r=st.integers(-40, 1600))
@example(lo=2, hi=4000, d=1024, r=1)
def test_prime_segments_skip_empty_segments(lo, hi, d, r):
    # d > SEGMENT: most segments hold no member of the class
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "SEGMENT", 64)
        segments = list(prime_segments(lo, hi, d, r))
    got = [int(p) for seg in segments for p in seg]
    assert got == [p for p in sympy.primerange(lo, hi + 1) if (p - r) % d == 0]
    assert len(segments) == len(got)


def test_prime_segments_sparse_class_is_quick():
    # ten members up to 10^10, 10^9 apart: no walk over empty segments
    got = [int(p) for seg in prime_segments(2, 10 ** 10, 10 ** 9, 7)
           for p in seg]
    assert got == [v for v in range(7, 10 ** 10 + 1, 10 ** 9)
                   if sympy.isprime(v)]
    assert [seg.tolist() for seg in prime_segments(10, 40, 10 ** 30, 37)] \
        == [[37]]


def test_prime_segments_refuse_bounds_from_2_63_eagerly():
    with pytest.raises(ValueError, match="2\\^63"):
        prime_segments(2, 2 ** 63)  # before the first segment is asked for
    prime_segments(2, 2 ** 63 - 1)


PSI_12 = 318665857834031151167461  # strong pseudoprime to bases 2 to 37
PSI_13 = 3317044064679887385961981  # strong pseudoprime to bases 2 to 41


# the least strong pseudoprimes to the first 1, 2, 3, 4, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, PSI_12, PSI_13)


def test_is_prime_refuses_strong_pseudoprimes():
    assert PSI_12 == 399165290221 * 798330580441
    assert sympy.isprime(399165290221) and sympy.isprime(798330580441)
    assert arith._MR4_EXACT_BELOW == 3215031751
    for n in STRONG_PSEUDOPRIMES:
        assert not sympy.isprime(n)
        assert not arith.is_prime(n), n


def _chernick(k: int) -> int | None:
    """(6k + 1)(12k + 1)(18k + 1) when all three factors are prime, which
    makes it a Carmichael number."""
    fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    return math.prod(fs) if all(sympy.isprime(f) for f in fs) else None


def test_is_prime_refuses_carmichael_numbers():
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
             41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921]
    chernick = [n for k in range(1, 400) if (n := _chernick(k))]
    assert min(chernick) < arith._MR4_EXACT_BELOW < max(chernick)
    # 3215031751 = 151 * 751 * 28351 is a Carmichael number as well
    for n in small + chernick + [3215031751]:
        fs = sympy.factorint(n)
        assert len(fs) >= 3 and set(fs.values()) == {1}
        assert all((n - 1) % (q - 1) == 0 for q in fs)  # Korselt
        assert not arith.is_prime(n), n


def test_is_prime_matches_sympy_below_10_5():
    assert [n for n in range(10 ** 5) if arith.is_prime(n)] == \
        list(sympy.primerange(10 ** 5))


def test_is_prime_matches_sympy_across_the_4_base_bound():
    rng = random.Random(17)
    bound = arith._MR4_EXACT_BELOW
    ns = list(range(bound - 2000, bound + 2000))
    ns += [rng.randrange(bound - 10 ** 7, bound + 10 ** 7) for _ in range(2000)]
    ns += [rng.randrange(2 ** 31, 2 ** 34) | 1 for _ in range(3000)]
    ns += [sympy.prevprime(bound), sympy.nextprime(bound)]
    for n in ns:
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_factorize_strong_pseudoprime():
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_is_prime_matches_sympy_on_large_odd_numbers():
    rng = random.Random(13)
    for bits in (40, 64, 82, 90, 128, 200):
        for _ in range(150):
            n = rng.getrandbits(bits) | 1 << bits - 1 | 1
            assert arith.is_prime(n) == sympy.isprime(n), n
    # primes around the exact bound of the 13 bases, where the Lucas test joins
    for n in (sympy.prevprime(PSI_13), sympy.nextprime(PSI_13),
              sympy.nextprime(10 ** 40), sympy.nextprime(2 ** 89)):
        assert arith.is_prime(n)
    for n in (sympy.nextprime(10 ** 15) ** 2, 5459 * sympy.nextprime(10 ** 25),
              sympy.nextprime(2 ** 45) * sympy.nextprime(2 ** 46)):
        assert not arith.is_prime(n)


def test_strong_lucas_matches_sympy():
    from sympy.ntheory.primetest import is_strong_lucas_prp
    for n in range(43, 30000, 2):
        if all(n % p for p in arith._MR_BASES):
            assert arith._strong_lucas(n) == is_strong_lucas_prp(n), n
