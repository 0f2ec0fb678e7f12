"""The batched root-existence scan against brute-force residue scans.

first_rootless_prime decides "some member P of a family has a root mod p"
for whole blocks of primes at once, one int64 lane per prime. A member of
degree at most 2 is decided in closed form: a constant has no root, a
linear member has one everywhere, and a quadratic has one exactly when its
discriminant is a square mod p (Euler's criterion in the lanes; parity at
p = 2). A cubic has a root at every odd p, prime to its leading
coefficient and its discriminant, at which the discriminant is a
nonresidue (Stickelberger's theorem, after Swan, Pacific J. Math. 12
(1962): (disc/p) = (-1)^(n-r) for a squarefree f mod p of degree n with r
irreducible factors); a square discriminant skips that step, and from
degree 4 on the parity of r leaves the shape open. Every other lane of
degree 3 and up goes to a Euclid without inverses, which decides whether
gcd(f, h) != 1 for f = P mod p and h = (x^p mod f) - x. The cubic marks are
checked against that Euclid alone, with the marking step patched out. The
oracles here evaluate P, or the product of the family, at every residue
instead (helpers.scan_roots), take discriminants and squarefree parts from
sympy, take that gcd with the scalar F_p arithmetic of modroots, split with
Cantor-Zassenhaus, and use Euler's criterion at primes just below 2^31.
"""

import functools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intersective import IntPoly, arith, check_intersective, modroots
from intersective.cli import main
from intersective.modroots import (_lane_frobenius, _lane_residues, _pdivmod,
                                   _pgcd, _ppowmod, _ptrim, _rootless_lanes,
                                   _roots_cz, first_rootless_prime)
from intersective.parse import parse_factors

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


# scan families: repeated members, members with content, x-power members
# and linear members
members = st.one_of(
    polys,
    st.builds(lambda a, b: IntPoly((b, a)), st.integers(-30, 30).filter(bool),
              st.integers(-30, 30)),
    st.builds(lambda f, c: f * c, polys, st.integers(2, 12)),
    st.builds(lambda f, k: f * X ** k, polys, st.integers(1, 3)),
)
families = st.lists(members, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=4))


class TestFirstRootlessPrime:
    @settings(max_examples=300, deadline=None)
    @given(families, prime_sets)
    def test_matches_brute_force(self, fs, primes):
        P = math.prod(fs, start=IntPoly((1,)))
        primes = [p for p in primes if P.lead % p]
        assert first_rootless_prime(fs, primes) == brute_first_rootless(P, primes)

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
        assert first_rootless_prime([P], primes) == q
        assert first_rootless_prime([X ** 2 - 2, X ** 2 + 1], primes) == q

    def test_constant_has_no_root(self):
        assert first_rootless_prime([IntPoly((1,))], [5, 3, 2]) == 2
        assert first_rootless_prime([IntPoly((-7,))], [13, 11]) == 11
        assert first_rootless_prime([], [13, 11]) == 11

    def test_degree_one_and_primes_below_degree(self):
        assert first_rootless_prime([3 * X + 1], [2, 5, 7, 101]) is None
        assert first_rootless_prime([X ** 2 + X + 1], [2, 3]) == 2
        assert first_rootless_prime([X ** 2 - 1], [2, 3]) is None
        P = X ** 7 - X + 1
        assert first_rootless_prime([P], [2, 3, 5]) == brute_first_rootless(P, [2, 3, 5])

    def test_prime_dividing_leading_coefficient_rejected(self):
        # one check, one message, for the closed forms and the ladder alike
        for P in (IntPoly((6,)), 6 * X + 1, 6 * X ** 2 + 1, 6 * X ** 3 + 1):
            with pytest.raises(ValueError,
                               match="^3 divides the leading coefficient"):
                first_rootless_prime([P], [5, 7, 3])

    def test_primes_beyond_int64_lanes_rejected(self):
        # the same error above 2^63, where an int64 array cannot hold them
        for big in (2 ** 31 + 11, 2 ** 64 + 13):
            with pytest.raises(ValueError,
                               match="^primes must be below 2\\^31$"):
                first_rootless_prime([X + 1], [2, big])

    def test_list_order_and_int64_array_agree(self):
        # check passes each segment as a sorted int64 array; (x^2+1)(x^2-2)
        # has no root mod p = 3 mod 8 alone, and 3 is the smallest of them
        rng = random.Random(24)
        P = (X ** 2 + 1) * (X ** 2 - 2)
        for q in (2083, 4483, None, 3):
            primes = [p for p in PRIMES if p % 8 != 3 or q == 3]
            primes += [q] if q and q not in primes else []
            shuffled = rng.sample(primes, len(primes))
            for form in (primes, shuffled, np.array(primes, dtype=np.int64),
                         np.array(shuffled, dtype=np.int64)):
                assert first_rootless_prime([P], form) == q
                assert first_rootless_prime([X ** 2 - 2, X ** 2 + 1],
                                            form) == q

    def test_ramified_prime_above_int64(self):
        # D = 27 b^2 + 4 is a prime q > 2^63 with a witness (the simple root
        # of P mod q lifts); the scan drops only the ramified primes up to
        # the bound, so q never meets an int64 array
        b = 2 ** 32 + 17
        q = 27 * b * b + 4
        assert sympy.isprime(q) and q > 2 ** 63
        P = X ** 3 + X + b
        v = check_intersective(P, "first", 20000)
        assert list(v.ramified_witnesses) == [q]
        assert v.reason.endswith("(unramified prime)")
        assert v.prime == brute_unramified_failure(P, "first", 20000)

    def test_no_primes(self):
        assert first_rootless_prime([X ** 2 + 1], []) is None


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


# x^2 - a, and a x^2 + b x + c with non-monic a and odd b
quadratics = st.one_of(
    st.integers(-40, 40).map(lambda a: X ** 2 - a),
    st.builds(lambda a, b, c: IntPoly((c, b, a)),
              st.integers(-6, 6).filter(bool),
              st.one_of(st.integers(-20, 20).map(lambda t: 2 * t + 1),
                        st.integers(-40, 40)),
              st.integers(-40, 40)))


class TestCheckAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(quadratics, min_size=1, max_size=3),
           st.sampled_from(["first", "second"]))
    def test_products_of_quadratics(self, qs, kind):
        # the factors scan as quadratics, the expanded product by the ladder
        P = product(qs)
        v = check_intersective(qs, kind, 2000)
        expanded = check_intersective(P, kind, 2000)
        assert (v.status, v.prime, v.reason) == \
            (expanded.status, expanded.prime, expanded.reason)
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
        assert first_rootless_prime([X ** 2 + 1], self.BLOCK) == want


def refuse_ladder(P, ps, lc):
    raise AssertionError(f"{P} reached the x^p ladder")


# a block of small primes, some near 2^31, and sometimes 2
quad_blocks = st.builds(lambda small, near, two: sorted({*small, *near, *two}),
                        kernel_blocks,
                        st.sets(st.sampled_from(TestLanesNearTwoToThe31.BLOCK),
                                max_size=4),
                        st.sets(st.just(2)))


@st.composite
def quadratic_lanes(draw):
    """a x^2 + b x + c with a, b, c up to 2^70, and a block of primes that
    do not divide a; c is sometimes chosen so that an odd lane prime
    divides b^2 - 4ac, or b^2 - 4ac = 0."""
    small = st.integers(-30, 30)
    big = st.integers(-2 ** 70, 2 ** 70)
    any_size = st.one_of(small, big)
    a = draw(any_size.filter(bool))
    b = draw(st.one_of(small, big, big.map(lambda t: 2 * t + 1)))
    c = draw(any_size)
    block = [p for p in draw(quad_blocks) if a % p]
    assume(block)
    odd = [p for p in block if p > 2]
    how = draw(st.sampled_from(["any", "p | delta", "delta = 0"]))
    if how == "p | delta" and odd:
        p = draw(st.sampled_from(odd))
        c = b * b * pow(4 * a, -1, p) % p + p * draw(small)
    elif how == "delta = 0":
        u, v = draw(any_size.filter(bool)), draw(any_size)
        a, b, c = u * u, 2 * u * v, v * v
        block = [p for p in block if u % p]
        assume(block)
    return IntPoly((c, b, a)), block


class TestQuadraticLanes:
    """Euler's criterion on b^2 - 4ac in the lanes against the scalar gcd
    and, below 5000, the residue scan."""

    @settings(max_examples=300, deadline=None)
    @given(quadratic_lanes())
    def test_matches_scalar_gcd_and_residue_scan(self, case):
        P, block = case
        got = lane_verdicts(P, block)
        assert got == gcd_verdicts(P, block)
        for p, rootless in zip(block, got):
            if p < 5000:
                assert rootless == (not scan_roots(P, p))

    def test_quads_never_reach_the_ladder(self, monkeypatch):
        # the README quads and the bench control, each written as its
        # quadratic factors, against the expanded sextic, which the ladder
        # scans
        for fs in ([X ** 2 - 13, X ** 2 - 17, X ** 2 - 221],
                   [X ** 2 - 193, X ** 2 - 207, X ** 2 - 194]):
            want = check_intersective(product(fs), "second", 20_000)
            with monkeypatch.context() as mp:
                mp.setattr(modroots, "_lane_frobenius", refuse_ladder)
                got = check_intersective(fs, "second", 20_000)
            assert (got.status, got.prime, got.reason) == \
                (want.status, want.prime, want.reason)
            assert got.ramified_witnesses == want.ramified_witnesses
        assert want.prime == 17
        assert want.reason == "no root mod 17 (unramified prime)"

    def test_linear_member_decides_without_the_ladder(self, monkeypatch):
        monkeypatch.setattr(modroots, "_lane_frobenius", refuse_ladder)
        fs = [X ** 5 + X + 1, X ** 2 + 1, 2 * X + 1]
        assert first_rootless_prime(fs, [p for p in PRIMES if p > 2]) is None


def mark_nothing(delta, ps):
    return np.zeros(len(ps), dtype=bool)


# discriminants 81 and 49: cyclic cubics, a square discriminant at every p
SQUARE_DISC_CUBICS = [X ** 3 - 3 * X + 1, X ** 3 - 7 * X + 7]
# p = 3 and lanes near 2^31 next to the kernel blocks, and sometimes 2
cubic_blocks = st.builds(lambda small, near, extra: sorted({*small, *near, *extra}),
                         kernel_blocks,
                         st.sets(st.sampled_from(TestLanesNearTwoToThe31.BLOCK),
                                 max_size=4),
                         st.sets(st.sampled_from([2, 3])))


@st.composite
def cubic_lanes(draw):
    """a x^3 + b x^2 + c x + d with coefficients up to 2^70, and a block of
    primes that do not divide a. Some cubics have a square discriminant (a
    shifted, scaled cyclic cubic), discriminant 0 (a repeated root), or a
    double root mod an odd lane prime p, so that p divides the
    discriminant."""
    small = st.integers(-30, 30)
    any_size = st.one_of(small, st.integers(-2 ** 70, 2 ** 70))
    block = draw(cubic_blocks)
    how = draw(st.sampled_from(["any", "square", "zero", "p | disc"]))
    if how == "square":
        t, u = draw(any_size), draw(any_size.filter(bool))
        P = u * draw(st.sampled_from(SQUARE_DISC_CUBICS)).compose_linear(1, t)
    elif how == "zero":
        r, s, u = draw(any_size), draw(any_size), draw(any_size.filter(bool))
        P = u * (X - r) ** 2 * (X - s)
    elif how == "p | disc" and [p for p in block if p > 2]:
        p = draw(st.sampled_from([p for p in block if p > 2]))
        r, s, a = draw(small), draw(small), draw(small.filter(lambda a: a % p))
        P = a * (X - r) ** 2 * (X - s) + p * IntPoly(
            draw(st.lists(any_size, min_size=4, max_size=4)))
    else:
        P = IntPoly(draw(st.lists(any_size, min_size=3, max_size=3))
                    + [draw(any_size.filter(bool))])
    assume(P.degree == 3)
    block = [p for p in block if P.lead % p]
    assume(block)
    return P, block


class TestCubicLanes:
    """Stickelberger's marks on the cubic lanes against the x^p ladder
    alone and, below 5000, the residue scan."""

    @settings(max_examples=300, deadline=None)
    @given(cubic_lanes())
    def test_matches_ladder_alone_and_residue_scan(self, case):
        P, block = case
        got = lane_verdicts(P, block)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modroots, "_nonresidue_lanes", mark_nothing)
            assert got == lane_verdicts(P, block)
        for p, rootless in zip(block, got):
            if p < 5000:
                assert rootless == (not scan_roots(P, p))

    def test_square_discriminant_goes_to_the_ladder(self, monkeypatch):
        # x^3 - 3x + 1 is irreducible mod p = 2, 5, 7 mod 9, rootless there
        block = [p for p in PRIMES if p != 3][:200]
        calls = []
        monkeypatch.setattr(modroots, "_nonresidue_lanes",
                            lambda *args: calls.append(args))
        assert lane_verdicts(SQUARE_DISC_CUBICS[0], block) == \
            [p % 9 in (2, 4, 5, 7) for p in block]
        assert not calls

    def test_readme_cubic_never_reaches_the_ladder(self, monkeypatch):
        # x^2 + x + 1 has a root mod p = 1 mod 3, and at p = 2 mod 3 the
        # discriminant -3^3 19^2 of x^3 - 19 is a nonresidue; 2, 3 and 19
        # are ramified. The expanded quintic goes through the ladder
        for text in ("(x^3-19)*(x^2+x+1)",
                     "((x+37)^3-19)*((x+37)^2+(x+37)+1)"):
            fs = parse_factors(text)
            for kind in ("first", "second"):
                want = check_intersective(product(fs), kind, 20_000)
                with monkeypatch.context() as mp:
                    mp.setattr(modroots, "_lane_frobenius", refuse_ladder)
                    got = check_intersective(fs, kind, 20_000)
                assert (got.status, got.prime, got.reason) == \
                    (want.status, want.prime, want.reason)
                assert got.ramified_witnesses == want.ramified_witnesses
        assert check_intersective(parse_factors("(x^3-19)*(x^2+x+1)"),
                                  "second", 20_000).certified

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(cubic_lanes().map(lambda case: case[0]),
                              quadratic_lanes().map(lambda case: case[0])),
                    min_size=1, max_size=4),
           prime_sets)
    def test_mixed_families_match_brute_force(self, fs, primes):
        P = product(fs)
        primes = [p for p in primes if P.lead % p]
        assert first_rootless_prime(fs, primes) == \
            brute_first_rootless(P, primes)


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
        ps = np.array(block, dtype=np.int64)
        frobenius, low = _lane_frobenius(P, ps, _lane_residues(P.lead, ps))
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
