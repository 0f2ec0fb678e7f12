"""The batched root-existence scan against brute-force residue scans.

first_rootless_prime decides "P has a root mod p" for whole blocks of
primes at once: per int64 lane, a Euclid without inverses decides whether
gcd(f, h) != 1 for f = P mod p and h = (x^p mod f) - x. The oracles here
evaluate P at every residue instead (helpers.scan_roots), take
discriminants and squarefree parts from sympy, take that gcd with the
scalar F_p arithmetic of modroots, split with Cantor-Zassenhaus, and
use Euler's criterion at primes just below 2^31.
"""

import functools
import random
import time
import tracemalloc

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intersective import IntPoly, arith, check_intersective
from intersective.cli import main
from intersective.modroots import (_lane_frobenius, _pdivmod, _pgcd, _ppowmod,
                                   _ptrim, _rootless_lanes, _roots_cz,
                                   first_rootless_prime)

from helpers import scan_roots

X = IntPoly.x()
PRIMES = list(sympy.primerange(5001))
SMALL_PRIMES = [p for p in PRIMES if p < 3000]


def brute_first_rootless(P: IntPoly, primes) -> int | None:
    return next((p for p in sorted(primes) if not scan_roots(P, p)), None)


coefficients = st.one_of(st.integers(-30, 30), st.integers(-2 ** 70, 2 ** 70))
polys = st.builds(lambda low, lead: IntPoly(low + [lead]),
                  st.lists(coefficients, max_size=8),
                  coefficients.filter(bool))
prime_sets = st.builds(set.union,
                       st.sets(st.sampled_from(SMALL_PRIMES), max_size=40),
                       st.sets(st.sampled_from([2, 3, 5, 7])))


class TestFirstRootlessPrime:
    @settings(max_examples=300, deadline=None)
    @given(polys, prime_sets)
    def test_matches_brute_force(self, P, primes):
        primes = [p for p in primes if P.lead % p]
        assert first_rootless_prime(P, primes) == brute_first_rootless(P, primes)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([q for q in PRIMES if q % 8 == 3] + [None]))
    def test_across_block_boundaries(self, q):
        # (x^2+1)(x^2-2) has a root mod p unless p = 3 mod 8, so over the
        # ~500 other primes below 5000 (past the blocks of 64 and 256) plus
        # q, the first rootless prime is q
        P = (X ** 2 + 1) * (X ** 2 - 2)
        primes = [p for p in PRIMES if p % 8 != 3] + ([q] if q else [])
        assert len(primes) > 64 + 256 + 64
        assert brute_first_rootless(P, primes) == q
        assert first_rootless_prime(P, primes) == q

    def test_constant_has_no_root(self):
        assert first_rootless_prime(IntPoly((1,)), [5, 3, 2]) == 2
        assert first_rootless_prime(IntPoly((-7,)), [13, 11]) == 11

    def test_degree_one_and_primes_below_degree(self):
        assert first_rootless_prime(3 * X + 1, [2, 5, 7, 101]) is None
        assert first_rootless_prime(X ** 2 + X + 1, [2, 3]) == 2
        assert first_rootless_prime(X ** 2 - 1, [2, 3]) is None
        P = X ** 7 - X + 1
        assert first_rootless_prime(P, [2, 3, 5]) == brute_first_rootless(P, [2, 3, 5])

    def test_prime_dividing_leading_coefficient_rejected(self):
        with pytest.raises(ValueError, match="divides the leading coefficient"):
            first_rootless_prime(6 * X ** 2 + 1, [5, 7, 3])

    def test_primes_beyond_int64_lanes_rejected(self):
        with pytest.raises(ValueError, match="2\\^31"):
            first_rootless_prime(X + 1, [2, 2 ** 31 + 11])

    def test_no_primes(self):
        assert first_rootless_prime(X ** 2 + 1, []) is None


def brute_unramified_failure(P: IntPoly, kind: str, bound: int) -> int | None:
    """First prime <= bound, prime to the discriminant of the squarefree part
    (and, for the second kind, to the lowest coefficient), at which P has no
    root (no unit root) mod p."""
    x = sympy.symbols("x")
    f = sympy.Poly(list(reversed(P.coeffs)), x)
    fstar = f.sqf_part().primitive()[1]
    bad = set(sympy.primefactors(sympy.resultant(fstar, fstar.diff(x))))
    if kind == "second":
        low = next(c for c in P.primitive().coeffs if c)
        bad |= set(sympy.primefactors(low))
    for p in sympy.primerange(2, bound + 1):
        if p in bad:
            continue
        roots = scan_roots(P, p)
        if kind == "second":
            roots = [r for r in roots if r % p]
        if not roots:
            return p
    return None


class TestCheckAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=3),
           st.sampled_from(["first", "second"]))
    def test_products_of_quadratics(self, a, kind):
        P = IntPoly((1,))
        for ai in a:
            P = P * (X ** 2 - ai)
        v = check_intersective(P, kind, 2000)
        want = brute_unramified_failure(P, kind, 2000)
        if v.status == "fails" and "unramified" not in v.reason:
            return  # decided at a ramified prime, which is scanned first
        assert v.prime == want
        assert v.certified == (want is None)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=3),
           st.sampled_from(["first", "second"]))
    def test_scan_across_sieve_segments(self, a, kind):
        # segments of three integers put almost every failing prime past
        # the first segment
        P = IntPoly((1,))
        for ai in a:
            P = P * (X ** 2 - ai)
        want = check_intersective(P, kind, 500)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith, "SEGMENT", 3)
            got = check_intersective(P, kind, 500)
        assert (got.status, got.prime, got.reason) == \
            (want.status, want.prime, want.reason)

    def test_nonmonic_leading_primes_are_ramified(self):
        # 3 and 5 divide the leading coefficient; they must be certified
        # p-adically and never reach the scan
        v = check_intersective((3 * X - 1) * (5 * X - 2), "first", 1000)
        assert v.certified and {3, 5} <= set(v.ramified_witnesses)

    def test_bound_beyond_int64_lanes_rejected(self):
        with pytest.raises(ValueError, match="2\\^31"):
            check_intersective(X - 1, "first", 2 ** 31)


class TestCheckCli:
    def test_constant_cofactor_fails_at_two(self, capsys):
        # second kind of 3*x: the scan polynomial is the constant 1
        assert main(["check", "--kind", "second", "3*x"]) == 1
        assert '"prime": 2' in capsys.readouterr().out

    def test_huge_bound_exit_2(self, capsys):
        assert main(["check", "--bound", str(2 ** 31), "x-1"]) == 2
        assert "2^31" in capsys.readouterr().err

    def test_largest_bound_stops_at_first_failing_segment(self, capsys):
        # 5 is unramified and neither 33 nor 97 is a square mod 5; the scan
        # sieves one segment at a time, so neither time nor memory follows
        # the bound
        argv = ["check", "--kind", "first", "--bound", str(2 ** 31 - 1),
                "(x^2-33)*(x^2-97)"]
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        assert code == 1 and elapsed < 1.0
        assert '"prime": 5' in capsys.readouterr().out
        tracemalloc.start()
        try:
            assert main(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def gcd_verdicts(P: IntPoly, block) -> list[bool]:
    """Per prime: gcd(f, x^p - x) == 1 over F_p, with f = P mod p made monic,
    by the scalar F_p arithmetic."""
    out = []
    for p in block:
        inv = pow(P.lead, -1, p)
        f = [c * inv % p for c in P.coeffs]
        h = _ppowmod([0, 1], p, f, p)
        h = h + [0] * (2 - len(h))
        h[1] = (h[1] - 1) % p
        out.append(len(_pgcd(f, _ptrim(h), p)) == 1)
    return out


def primes_below(top: int, count: int) -> list[int]:
    """The count largest primes below top."""
    found = [int(p) for seg in arith.prime_segments(top - 40 * count, top - 1)
             for p in seg]
    return found[-count:]


def lane_verdicts(P: IntPoly, block) -> list[bool]:
    return _rootless_lanes(P, list(block)).tolist()


def product(factors, start: IntPoly = IntPoly((1,))) -> IntPoly:
    return functools.reduce(lambda a, b: a * b, factors, start)


# random polynomials of degree 0-12; products of distinct linear factors,
# which split completely mod every prime above their spread (h = 0 there);
# and powers of x - r, x^2 - a and x times a cofactor, whose repeated
# factors send the lane Euclid through zero leads, swaps and a remainder
# cancelled to zero
repeated = st.tuples(st.one_of(st.integers(-20, 20).map(lambda r: X - r),
                               st.integers(-20, 20).map(lambda a: X ** 2 - a),
                               st.just(X)),
                     st.integers(1, 4))
kernel_polys = st.one_of(
    st.builds(lambda low, lead: IntPoly(low + [lead]),
              st.lists(coefficients, max_size=12), coefficients.filter(bool)),
    st.builds(lambda roots: product(X - r for r in roots),
              st.sets(st.integers(-60, 60), max_size=12)),
    st.builds(lambda powers, low, lead: product(
                  (f ** k for f, k in powers), IntPoly(low + [lead])),
              st.lists(repeated, min_size=1, max_size=3),
              st.lists(st.integers(-30, 30), max_size=3),
              st.integers(-30, 30).filter(bool)))
kernel_blocks = st.builds(lambda a, b: sorted(a | b),
                          st.sets(st.sampled_from(SMALL_PRIMES), max_size=30),
                          st.sets(st.sampled_from([2, 3, 5, 7, 11])))


class TestLaneResultant:
    """The per-lane verdict against the scalar gcd it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_polys, kernel_blocks)
    def test_matches_scalar_gcd(self, P, block):
        block = [p for p in block if P.lead % p]
        assume(block)
        assert lane_verdicts(P, block) == gcd_verdicts(P, block)

    def test_split_polynomial_has_h_zero_and_roots(self):
        # x^p - x vanishes mod f when f splits into distinct linear factors
        P = product(X - r for r in range(12))
        block = [p for p in SMALL_PRIMES if p > 12][:50]
        assert gcd_verdicts(P, block) == [False] * len(block)
        assert lane_verdicts(P, block) == [False] * len(block)

    def test_primes_below_the_degree(self):
        # F_p has fewer elements than f has roots over C; the verdicts still
        # follow the residue scan
        for P in (X ** 12 + X + 1, X ** 12 - 3 * X ** 5 + 7, X ** 11 + 2):
            block = [p for p in (2, 3, 5, 7, 11) if P.lead % p]
            want = [not scan_roots(P, p) for p in block]
            assert lane_verdicts(P, block) == want

    def test_memory_is_linear_in_the_degree(self):
        # an (n, n, L) int64 array for n = 100 and 1024 lanes is 78 MiB
        P = (X ** 50 - 1) * (X ** 50 + 1)
        block = list(sympy.primerange(50_001, 70_001))[:1024]
        assert len(block) == 1024
        tracemalloc.start()
        try:
            rootless = _rootless_lanes(P, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rootless.any()  # x = 1 is a root mod every prime
        assert peak < 24 * 2 ** 20


class TestLanesNearTwoToThe31:
    """One product per reduction: Euler's criterion decides each prime."""

    BLOCK = primes_below(1 << 31, 400)

    def test_block_is_near_the_limit(self):
        assert len(self.BLOCK) == 400 and self.BLOCK[0] > (1 << 31) - 20000
        assert self.BLOCK[-1] < (1 << 31)

    def test_x2_plus_1(self):
        assert lane_verdicts(X ** 2 + 1, self.BLOCK) == \
            [p % 4 != 1 for p in self.BLOCK]

    def test_x2_minus_2(self):
        assert lane_verdicts(X ** 2 - 2, self.BLOCK) == \
            [p % 8 not in (1, 7) for p in self.BLOCK]

    def test_x3_minus_2(self):
        assert lane_verdicts(X ** 3 - 2, self.BLOCK) == \
            [p % 3 == 1 and pow(2, (p - 1) // 3, p) != 1 for p in self.BLOCK]

    def test_first_rootless_prime_near_the_limit(self):
        want = next(p for p in self.BLOCK if p % 4 == 3)
        assert first_rootless_prime(X ** 2 + 1, self.BLOCK) == want


def padded(a: list[int], n: int) -> list[int]:
    return a + [0] * (n - len(a))


# blocks with a prime near 2^31 reduce after every product, near 2^30
# after every 7
near_limit = st.sets(st.sampled_from(TestLanesNearTwoToThe31.BLOCK
                                     + primes_below(1 << 30, 100)),
                     min_size=1, max_size=4)
part_blocks = st.one_of(kernel_blocks, near_limit.map(sorted),
                        st.builds(lambda a, b: sorted(set(a) | b),
                                  kernel_blocks, near_limit))


class TestLaneParts:
    """x^n mod f and the x^p ladder of each lane against the scalar F_p
    arithmetic of modroots, for f the reduction of the monic integer
    polynomial g(y) = lc^(n-1) P(y / lc)."""

    @settings(max_examples=150, deadline=None)
    @given(st.builds(lambda low, lead: IntPoly(low + [lead]),
                     st.lists(coefficients, min_size=1, max_size=12),
                     coefficients.filter(bool)),
           part_blocks)
    def test_table_and_frobenius_match_scalar(self, P, block):
        block = [p for p in block if P.lead % p]
        assume(block)
        n = P.degree
        frobenius, low, ps = _lane_frobenius(P, block)
        for lane, p in enumerate(block):
            # coefficient i of g is c_i lc^(n-1-i), and g is monic
            f = [c * P.lead ** (n - 1 - i) % p
                 for i, c in enumerate(P.coeffs[:-1])] + [1]
            want = _pdivmod([0] * n + [1], f, p)[1]
            assert low[:, lane].tolist() == padded(want, n)
            want = _ppowmod([0, 1], p, f, p)
            assert frobenius[:, lane].tolist() == padded(want, n)


def random_monic(seed: int, n: int) -> IntPoly:
    rng = random.Random(seed)
    return IntPoly([rng.randrange(-10 ** 6, 10 ** 6) for _ in range(n)] + [1])


class TestDegree40:
    """Lanes add up to 2^63 // p^2 - 1 products before reducing: about two
    million near 2^21, so all of a square; 31 near 2^29 and 7 near 2^30,
    fewer than the 40 or 64 products of a square or a fold."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_near_2_21_against_cantor_zassenhaus(self, seed):
        block = primes_below(1 << 21, 12)
        for n in (40, 64):
            P = random_monic(seed, n)
            want = [not _roots_cz([c % p for c in P.coeffs], p) for p in block]
            assert True in want and False in want
            assert lane_verdicts(P, block) == want

    @pytest.mark.parametrize("top", [1 << 29, 1 << 30])
    def test_short_periods_against_scalar_gcd(self, top):
        block = primes_below(top, 8)
        for n in (40, 64):
            P = random_monic(top, n)
            assert lane_verdicts(P, block) == gcd_verdicts(P, block)
