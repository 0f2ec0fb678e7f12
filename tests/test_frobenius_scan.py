"""The batched root-existence scan against brute-force residue scans.

first_rootless_prime decides "P has a root mod p" through gcd(P, x^p - x)
for whole blocks of primes; the oracles here evaluate P at every residue
instead (helpers.scan_roots) and take discriminants and squarefree parts
from sympy.
"""

import time
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective import IntPoly, arith, check_intersective, primes_upto
from intersective.cli import main
from intersective.modroots import first_rootless_prime

from helpers import scan_roots

X = IntPoly.x()
PRIMES = primes_upto(5000)
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
