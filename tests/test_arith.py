import ast
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
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


def test_powers_of_primes_above_2_64_split():
    """Pollard rho needs about sqrt(q) = 2^32 steps on q^2, so factorize
    runs in a child process under a timeout: a regression fails, it does
    not hang the suite."""
    q, r = 18446744073709551629, 2 ** 31 - 1  # the least prime above 2^64
    ns = [q ** 2, 4 * q ** 2, q ** 3, q ** 2 * r ** 2]
    code = ("from intersective.arith import factorize; "
            f"print([factorize(n) for n in {ns}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [sympy.factorint(n) for n in ns]


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


def test_factorize_table_matches_sympy_in_every_order(monkeypatch):
    limit = arith.TABLE_LIMIT
    ns = sorted(set(range(1, limit)) | {limit + e for e in (-2, -1, 0, 1, 2)})
    want = {n: sympy.factorint(n) for n in ns}
    shuffled = ns[:]
    random.Random(27).shuffle(shuffled)
    for order in (ns, ns[::-1], shuffled):
        monkeypatch.setattr(arith, "_spf", [])  # the table as first imported
        top = 0
        for n in order:
            got = factorize(n)
            assert got == want[n] and list(got) == sorted(got), n
            # rd and roots write these into JSON: never numpy integers
            assert all(type(p) is int and type(e) is int
                       for p, e in got.items()), n
            if n < limit:  # grown to the power of two above the largest n
                top = max(top, n)
            assert len(arith._spf) == (1 << top.bit_length() if top else 0)
        assert len(arith._spf) == limit


def test_factorize_above_the_table_bound_never_grows_it(monkeypatch):
    monkeypatch.setattr(arith, "_spf", [])
    big = [arith.TABLE_LIMIT, arith.TABLE_LIMIT + 1, 48841, 2 ** 61 - 1,
           10 ** 12 + 39]
    for n in big:
        assert factorize(n) == sympy.factorint(n)
    assert arith.is_prime(101) and not arith.is_prime(91)  # nor is_prime
    assert arith._spf == []
    factorize(100)
    assert len(arith._spf) == 128
    for n in big:
        factorize(n)
    assert arith.is_prime(1009) and len(arith._spf) == 128


@pytest.fixture
def spf_states(monkeypatch):
    """Yields twice: first with factorize's table of least prime factors as
    first imported, so that is_prime below TABLE_LIMIT runs Miller-Rabin,
    then with the table full, so that it reads the table there. is_prime
    must leave the table as it found it."""
    def states():
        for size in (0, arith.TABLE_LIMIT):
            monkeypatch.setattr(arith, "_spf", [])
            if size:
                arith._spf_upto(size - 1)
            yield
            assert len(arith._spf) == size

    return states


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



@pytest.mark.parametrize("cost", [0, 10 ** 9])  # test every member, or sieve
@settings(max_examples=80, deadline=None)
@given(lo=st.integers(-3, 10 ** 9), span=st.integers(0, 3000),
       d=st.one_of(st.integers(1, 40), st.integers(65, 5000)),
       r=st.integers(-40, 5000))
@example(lo=2, span=700, d=1, r=0)
@example(lo=10 ** 9 - 1000, span=3000, d=6, r=5)
def test_tested_and_sieved_segments_match_sympy(cost, lo, span, d, r):
    hi = lo + span
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "SEGMENT", 64)
        mp.setattr(arith, "TEST_COST", cost)
        segments = list(prime_segments(lo, hi, d, r))
    for seg in segments:
        assert seg.size and seg.dtype == np.int64
        assert (np.diff(seg) > 0).all()
    got = [int(p) for seg in segments for p in seg]
    start = max(lo, 2)
    assert got == [v for v in range(start + (r - start) % d, hi + 1, d)
                   if sympy.isprime(v)]
    assert len({(p - start) // 64 for p in got}) == len(segments)


def test_sparse_classes_cost_their_members():
    # one member below 2^63, and the class 1 mod 10^12 to 10^14 that expsum
    # --m 10^12 --N 100 weighs; sieving lists the primes to 3e9 and 1e7
    t0 = time.perf_counter()
    assert list(prime_segments(2, 2 ** 63 - 1, 2 ** 63 - 2, 1)) == []
    got = [int(p) for seg in prime_segments(10 ** 12 + 1, 10 ** 14 + 1,
                                            10 ** 12, 1) for p in seg]
    assert time.perf_counter() - t0 < 1.0
    assert got == [v for v in range(10 ** 12 + 1, 10 ** 14 + 2, 10 ** 12)
                   if sympy.isprime(v)]
    # the bench classes hold tens of thousands of members per segment
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "is_prime", None)
        assert sum(seg.size for seg in prime_segments(2, 1 << 18, 6, 1)) == \
            sum(1 for v in range(7, (1 << 18) + 1, 6) if sympy.isprime(v))


def test_prime_segments_refuse_bounds_from_2_63_eagerly():
    with pytest.raises(ValueError, match="2\\^63"):
        prime_segments(2, 2 ** 63)  # before the first segment is asked for
    prime_segments(2, 2 ** 63 - 1)


PSI_12 = 318665857834031151167461  # strong pseudoprime to bases 2 to 37
PSI_13 = 3317044064679887385961981  # strong pseudoprime to bases 2 to 41


# the least strong pseudoprimes to the first 1, 2, 3, 4, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, PSI_12, PSI_13)


def test_is_prime_refuses_strong_pseudoprimes(spf_states):
    assert PSI_12 == 399165290221 * 798330580441
    assert sympy.isprime(399165290221) and sympy.isprime(798330580441)
    assert arith._MR4_EXACT_BELOW == 3215031751
    for _ in spf_states():
        for n in STRONG_PSEUDOPRIMES:
            assert not sympy.isprime(n)
            assert not arith.is_prime(n), n


def _chernick(k: int) -> int | None:
    """(6k + 1)(12k + 1)(18k + 1) when all three factors are prime, which
    makes it a Carmichael number."""
    fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    return math.prod(fs) if all(sympy.isprime(f) for f in fs) else None


def test_is_prime_refuses_carmichael_numbers(spf_states):
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
             41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921]
    chernick = [n for k in range(1, 400) if (n := _chernick(k))]
    assert min(chernick) < arith._MR4_EXACT_BELOW < max(chernick)
    # 3215031751 = 151 * 751 * 28351 is a Carmichael number as well
    for n in small + chernick + [3215031751]:
        fs = sympy.factorint(n)
        assert len(fs) >= 3 and set(fs.values()) == {1}
        assert all((n - 1) % (q - 1) == 0 for q in fs)  # Korselt
    for _ in spf_states():
        for n in small + chernick + [3215031751]:
            assert not arith.is_prime(n), n


def test_is_prime_matches_sympy_below_10_5(spf_states):
    for _ in spf_states():
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
