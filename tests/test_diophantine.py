import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective import arith, diophantine
from intersective import (
    IntPoly,
    RealPoly,
    WeightSpec,
    exp_sum,
    frac_mul,
    montgomery_witness,
    search_min_frac,
    simultaneous_approx,
    theta_fit,
    weyl_bound_eval,
)
from intersective.diophantine import (MAX_SUM_RANGE, _FIX_ONE, _fixed_sums,
                                      _fracs, prime_blocks)

from helpers import (frac_dist, naive_min_frac_search, trial_division_primes,
                     weight_terms)

X = IntPoly.x()
SQRT2 = math.sqrt(2)


def sieved(N, progression=None) -> list[int]:
    """The primes of prime_blocks, flattened."""
    return [p for ps in prime_blocks(N, progression) for p in ps.tolist()]


def weight_at(w: WeightSpec, n: int) -> float:
    """lambda_{m,b}(n), the weight sum over the one-term range [n, n]."""
    return exp_sum(RealPoly(), w, n, n).real


def weight_sum(w: WeightSpec, N: int) -> float:
    """The oracle's weight sum over n = 1..N."""
    return math.fsum(lam for _, lam in weight_terms(w.m, w.b, 1, N))


class TestFracNorm:
    """||x||, from simultaneous_approx at Q = 1."""

    def test_midpoint(self):
        assert simultaneous_approx([0.5], 1) == (1, [0.5])

    def test_positive(self):
        assert simultaneous_approx([2.3], 1)[1] == [pytest.approx(0.3)]

    def test_negative_symmetry(self):
        errs = simultaneous_approx([-0.1, -2.3, 2.3], 1)[1]
        assert errs[0] == pytest.approx(0.1)
        assert errs[1] == pytest.approx(errs[2])

    def test_exact_multiplication(self):
        # alpha * n mod 1 is exact for dyadic alpha
        assert frac_mul(0.5, 10 ** 40 + 1) == 0.5
        assert frac_mul(0.25, 4) == 0.0
        big = 3 ** 80
        assert frac_mul(SQRT2, big) == float(
            Fraction(SQRT2) * big % 1)


class TestSievePrimes:
    """Primes <= N, optionally in a progression, from prime_blocks."""

    def test_small_counts(self):
        assert len(sieved(100)) == 25
        assert sieved(1) == []
        assert sieved(2) == [2]

    def test_progression(self):
        assert sieved(50, (4, 1)) == [5, 13, 17, 29, 37, 41]

    def test_progression_with_negative_residue(self):
        # r_d style residues are <= 0 and get normalized mod d
        assert sieved(50, (4, -3)) == [5, 13, 17, 29, 37, 41]

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            prime_blocks(100, (4, 2))  # before the first block is asked for

    def test_matches_trial_division(self):
        n = 10 ** 5
        oracle = trial_division_primes(n)
        assert sieved(n) == oracle
        for d in range(1, 31):
            for r in range(d):
                if math.gcd(r, d) != 1:
                    continue
                assert sieved(n, (d, r)) == [p for p in oracle if p % d == r]


class TestWeights:
    """lambda_{m,b}(n) = log(mn + b) at primes mn + b, read off exp_sum of
    the zero polynomial over one n at a time."""

    def test_log_sum_over_primes(self):
        w = WeightSpec(1, 0)
        ws = [weight_at(w, n) for n in range(1, 11)]
        assert [n for n, v in enumerate(ws, 1) if v] == [2, 3, 5, 7]
        want = dict(weight_terms(1, 0, 1, 10))
        assert ws == [pytest.approx(want.get(n, 0.0), rel=1e-15)
                      for n in range(1, 11)]
        assert exp_sum(RealPoly(), w, 1, 10).real == \
            pytest.approx(math.log(210), rel=1e-12)

    def test_progression_weights(self):
        w = WeightSpec(2, 1)
        assert [n for n in range(1, 6) if weight_at(w, n)] == \
            [n for n, _ in weight_terms(2, 1, 1, 5)] == [1, 2, 3, 5]

    def test_empty_window(self):
        w = WeightSpec(25, 1)
        assert [weight_at(w, n) for n in (1, 2, 3)] == [0.0, 0.0, 0.0]
        assert exp_sum(RealPoly(), w, 1, 3) == 0
        # 26, 51, 76 are all composite

    def test_guard_rejects_before_allocating(self, monkeypatch):
        def no_sieve(*args, **kwargs):
            raise AssertionError("weights sieved before the guard")
        monkeypatch.setattr(diophantine, "prime_segments", no_sieve)
        with pytest.raises(ValueError, match="guard"):
            exp_sum(RealPoly(), WeightSpec(1, 0), 1, MAX_SUM_RANGE + 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(4, 2)
        with pytest.raises(ValueError):
            WeightSpec(0, 0)
        WeightSpec(1, 0)

    def test_bounds_check(self):
        # the weight sum over n <= N lies between N / m^2 and N m
        n = 10 ** 4
        totals = {}
        for w in (WeightSpec(1, 0), WeightSpec(3, 1)):
            totals[w.m] = exp_sum(RealPoly(), w, 1, n).real
            assert totals[w.m] == pytest.approx(weight_sum(w, n), rel=1e-12)
        assert abs(totals[1] - n) < 0.1 * n  # Chebyshev-style
        assert n / 3 ** 2 < totals[3] < n * 3
        assert exp_sum(RealPoly(), WeightSpec(1, 0), 1, 2).real == \
            pytest.approx(math.log(2))


class TestExpSum:
    def test_integer_coefficients_give_weight_sum(self):
        w = WeightSpec(1, 0)
        s = exp_sum(RealPoly([0.0, 2.0, 3.0]), w, 1, 100)
        assert s.real == pytest.approx(weight_sum(w, 100), rel=1e-12)
        assert s.imag == 0.0

    def test_zero_phase(self):
        s = exp_sum(RealPoly([]), WeightSpec(1, 0), 1, 10)
        assert s == pytest.approx(math.log(210))

    def test_half_integer_phase(self):
        s = exp_sum(RealPoly([0.0, 0.5]), WeightSpec(1, 0), 1, 10)
        expect = math.log(2) - math.log(3) - math.log(5) - math.log(7)
        assert s.real == pytest.approx(expect, rel=1e-12)
        assert abs(s.imag) < 1e-12

    def test_triangle_inequality(self):
        rng = random.Random(1532)
        for _ in range(100):
            m = rng.randint(1, 6)
            b = rng.choice([t for t in range(m) if math.gcd(t, m) == 1])
            w = WeightSpec(m, b)
            n = rng.randint(10, 2000)
            f = RealPoly([rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))])
            s = exp_sum(f, w, 1, n)
            assert abs(s) <= weight_sum(w, n) + 1e-9

    def test_periodicity_mod_integer_polynomials(self):
        # dyadic coefficients keep c + k exact in double precision, so the
        # shifted sum must agree to well within the 1e-9 contract
        rng = random.Random(77)
        w = WeightSpec(1, 0)
        for _ in range(20):
            f = RealPoly([rng.randint(-2 ** 40, 2 ** 40) / 2 ** 40
                          for _ in range(3)])
            g = RealPoly([c + k for c, k in zip(f.coeffs, (3, -2, 5))])
            s1, s2 = exp_sum(f, w, 1, 500), exp_sum(g, w, 1, 500)
            assert abs(s1 - s2) <= 1e-9 * max(abs(s1), 1.0)

    def test_partial_range(self):
        w = WeightSpec(1, 0)
        full = exp_sum(RealPoly([]), w, 1, 100)
        head = exp_sum(RealPoly([]), w, 1, 50)
        tail = exp_sum(RealPoly([]), w, 51, 100)
        assert full == pytest.approx(head + tail, rel=1e-12)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            exp_sum(RealPoly([]), WeightSpec(1, 0), 1, 10 ** 9 + 1)

    def test_segment_boundaries_give_identical_sum(self, monkeypatch):
        # the sum is exactly rounded, so the sieve segment size cannot move it
        f = RealPoly([0.0, SQRT2, 0.3])
        for w in (WeightSpec(1, 0), WeightSpec(4, 3)):
            one = exp_sum(f, w, 1, 3000)
            ws = exp_sum(RealPoly(), w, 1, 3000)
            monkeypatch.setattr(arith, "SEGMENT", 97)
            assert exp_sum(f, w, 1, 3000) == one
            assert exp_sum(RealPoly(), w, 1, 3000) == ws
            monkeypatch.undo()


EDGE = 64.0 - 2.0 ** -47  # 2^6 - ulp, the largest term exp_sum can meet
terms = st.one_of(
    st.floats(-EDGE, EDGE),
    st.floats(-1e-300, 1e-300),  # subnormals and tiny normals
    st.sampled_from([0.0, -0.0, EDGE, -EDGE, 5e-324, -5e-324, 2.0 ** -1022,
                     1.0, -1.0, 2.0 ** -30, 2.0 ** -31, 1 + 2.0 ** -52]))


def fixed_sum(blocks) -> float:
    return sum(_fixed_sums(np.array([b], dtype=float))[0]
               for b in blocks) / _FIX_ONE


class TestFixedSums:
    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(terms, max_size=60), data=st.data())
    def test_equals_fsum_in_any_block_split(self, xs, data):
        xs = xs + [-x for x in xs[:data.draw(st.integers(0, len(xs)))]]
        xs = data.draw(st.permutations(xs))  # heavy cancellation
        cuts = sorted(data.draw(st.lists(st.integers(0, len(xs)), max_size=5)))
        blocks = [xs[a:b] for a, b in zip([0] + cuts, cuts + [len(xs)])]
        # bit for bit; an exact zero sum is +0.0, as fsum([]) gives
        assert fixed_sum(blocks).hex() == (math.fsum(xs) + 0.0).hex()

    @pytest.mark.parametrize("signs", ["+", "-", "+-"])
    def test_full_block_at_the_term_bound(self, signs):
        # SEGMENT terms of magnitude 2^6 - ulp: each int64 sum stays < 2^54
        xs = np.resize([EDGE if s == "+" else -EDGE for s in signs],
                       arith.SEGMENT)
        xs[::7] = np.nextafter(xs[::7], 0.0)
        assert fixed_sum([xs.tolist()]) == math.fsum(xs.tolist())
        assert fixed_sum([xs.tolist()] * 3) == math.fsum(xs.tolist() * 3)

    @pytest.mark.parametrize("m,b", [(1, 0), (4, 3), (6, 5), (30, 7)])
    @pytest.mark.parametrize("segment", [64, 97])
    def test_exp_sum_is_fsum_of_all_terms(self, monkeypatch, m, b, segment):
        # the terms computed in one piece, with an independent prime test
        rng = random.Random(f"{m}:{b}:{segment}")
        monkeypatch.setattr(arith, "SEGMENT", segment)
        w = WeightSpec(m, b)
        for _ in range(5):
            f = RealPoly([rng.uniform(-2, 2) for _ in range(rng.randint(0, 4))])
            lo, hi = rng.randint(1, 200), rng.randint(200, 2000)
            ns = np.array([n for n in range(lo, hi + 1)
                           if sympy.isprime(m * n + b)], dtype=np.int64)
            powers = [IntPoly.monomial(1, i) for i in range(len(f.coeffs))]
            theta = 2.0 * math.pi * _fracs([f.coeffs], powers, ns)[0]
            lams = np.log(m * ns + b)
            s = exp_sum(f, w, lo, hi)
            assert s.real == math.fsum((lams * np.cos(theta)).tolist())
            assert s.imag == math.fsum((lams * np.sin(theta)).tolist())


doubles = st.floats(allow_nan=False, allow_infinity=False)
edge_doubles = st.sampled_from([
    0.0, -0.0, 3.0, -2.0, 2.0 ** 60, 2.0 ** 1000,             # e = 0
    3 * 2.0 ** -64, (2 ** 53 - 1) * 2.0 ** -64, -(2.0 ** -64),  # e = 64
    2.0 ** -65, 2.0 ** -70, -3e-30, 5e-324, 2.2e-308,           # e > 64
    0.5, SQRT2, -SQRT2, 1 / 3])
big_ints = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                     st.integers(2 ** 64 - 3, 2 ** 64 + 3),
                     st.integers(-2 ** 200, 2 ** 200))


class TestFracKernel:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(doubles, edge_doubles), big_ints)
    def test_matches_frac_mul_on_integers(self, a, n):
        # a constant polynomial evaluates to n at every argument
        got = _fracs([[a]], [IntPoly([n])], np.array([2, 3]))
        assert got.tolist() == [[frac_mul(a, n) % 1.0] * 2]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.one_of(doubles, edge_doubles),
                             min_size=2, max_size=2), min_size=1, max_size=3),
           st.lists(big_ints, min_size=1, max_size=4),
           st.lists(st.integers(-9, 9), min_size=1, max_size=6),
           st.lists(st.integers(1, 10 ** 9), min_size=1, max_size=20))
    def test_matches_term_by_term_loop(self, A, low, cs, xs):
        # h_1 has huge coefficients, h_2 a high degree: both wrap mod 2^64
        hs = [IntPoly(low + [1]), IntPoly(cs + [7]) ** 3]
        got = _fracs(A, hs, np.array(xs))
        for row, sums in zip(A, got.tolist()):
            want = []
            for x in xs:
                acc = 0.0
                for a, h in zip(row, hs):
                    if a:
                        acc += frac_mul(a, h.eval(x))
                want.append(acc % 1.0)
            assert sums == want

    def test_frac_mul_is_correctly_rounded(self):
        # the oracle of the kernel tests against exact rationals
        for a, n in ((SQRT2, 3 ** 80), (2.0 ** -70, 2 ** 71 + 1),
                     ((2 ** 53 - 1) * 2.0 ** -64, 2 ** 64 - 1), (-0.1, -7)):
            assert frac_mul(a, n) == float(Fraction(a) * n % 1)


class TestWeylBound:
    def test_k2_structure(self):
        n = 10 ** 4
        val = weyl_bound_eval(2, n, n, 1, 0.0)
        assert val == pytest.approx(n * (2.0 / n + n ** -0.5) ** 0.25)
        # approaches N^(7/8) for large N
        big = 10 ** 12
        assert weyl_bound_eval(2, big, big, 1, 0.0) == \
            pytest.approx(big ** 0.875, rel=1e-2)

    def test_k1_trivial_regime(self):
        n = 10 ** 3
        val = weyl_bound_eval(1, 1, n, 1, 0.0)
        assert val >= n * math.log(n) ** 4
        assert val == pytest.approx(n * math.log(n) ** 4 * (1 + n ** -0.2 + n ** -0.5))

    def test_k3_substitution(self):
        n = 10 ** 4
        q = n ** 1.5
        val = weyl_bound_eval(3, q, n, 1, 0.0)
        assert val == pytest.approx(n * (2 * n ** -1.5 + n ** -0.5) ** (1.0 / 16))

    @pytest.mark.parametrize("args", [
        (3, math.nan, 10, 1, 0.0), (2, 10, math.inf, 1, 0.0),
        (2, 10, 10, math.nan, 0.0), (2, 10, 10, 1, math.inf),
    ])
    def test_rejects_non_finite_input(self, args):
        with pytest.raises(ValueError, match="finite"):
            weyl_bound_eval(*args)

    @pytest.mark.parametrize("args", [
        (1, 1e300, 1e300, 1, 0.0), (2, 1e300, 1e300, 1, 1e10),
        (1, 10, 1e-300, 1e-300, 0.0),
    ])
    def test_rejects_overflowing_bound(self, args):
        with pytest.raises(ValueError, match="overflows"):
            weyl_bound_eval(*args)


class TestSimultaneousApprox:
    def test_half(self):
        q, errs = simultaneous_approx([0.5], 2)
        assert q == 2 and errs == [0.0]

    def test_integers(self):
        q, errs = simultaneous_approx([3.0, -7.0], 10)
        assert q == 1 and errs == [0.0, 0.0]

    def test_sqrt_pair_brute_force(self):
        alphas = [math.sqrt(2), math.sqrt(3)]
        q, errs = simultaneous_approx(alphas, 100)
        # exhaustive scan is its own oracle
        best = min(range(1, 101),
                   key=lambda t: max(frac_dist(a, t) for a in alphas))
        assert q == best
        assert max(errs) <= 100 ** -0.5  # Dirichlet sanity bound for k = 2

    def test_dirichlet_single(self):
        rng = random.Random(5)
        for _ in range(50):
            alpha = rng.uniform(0, 1)
            big_q = rng.randint(10, 200)
            q, errs = simultaneous_approx([alpha], big_q)
            assert errs[0] <= 1.0 / big_q + 1e-12

    @pytest.mark.parametrize("bad", [-1.0, -0.5, math.inf, math.nan])
    def test_rejects_negative_or_non_finite_weight(self, bad):
        # a negative weight would turn the minimum into the worst q
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simultaneous_approx([0.5, 0.25], 5, [1.0, bad])

    def test_zero_weight_allowed(self):
        assert simultaneous_approx([0.5, 0.25], 5, [0.0, 1.0]) == (4, [0.0, 0.0])
        assert simultaneous_approx([0.5], 5, [0.0]) == (1, [0.5])

    def test_errs_equal_fraction_oracle_bit_for_bit(self):
        # e > 64 (|alpha| < 2^-12), negatives, +-0 and subnormals included
        rng = random.Random(2024)
        fixed = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -64, 2.0 ** -65,
                 -(2.0 ** -65), 1e-30, SQRT2, -SQRT2]
        for trial in range(60):
            alphas = [rng.choice(fixed) if trial % 3 == 0 else
                      rng.uniform(-3, 3) * 2.0 ** -rng.choice([0, 0, 13, 70,
                                                               400, 1060])
                      for _ in range(rng.randint(1, 5))]
            alphas.append(rng.randrange(1, 2 ** 52) * 2.0 ** -1074)
            q, errs = simultaneous_approx(alphas, rng.randint(1, 1500))
            want = [frac_dist(a, q) for a in alphas]
            assert [e.hex() for e in errs] == [e.hex() for e in want]


class TestMontgomeryWitness:
    def test_all_half(self):
        t, mag = montgomery_witness([0.5] * 30, [1.0] * 30, 2)
        assert t == 2 and mag == pytest.approx(30.0)

    def test_all_third(self):
        t, mag = montgomery_witness([1 / 3] * 12, [1.0] * 12, 3)
        assert t == 3 and mag == pytest.approx(12.0)

    def test_hypothesis_violation_reported(self):
        with pytest.raises(ValueError, match=r"indices \[1\]"):
            montgomery_witness([0.5, 0.001, 0.4], [1.0, 1.0, 1.0], 4)

    def test_blocks_match_one_shot_formula(self):
        rng = random.Random(161)
        for n in (1, 2, 3):
            xs = np.array([rng.uniform(0.25, 0.75) for _ in range(n)])
            cs = np.array([rng.uniform(0.0, 2.0) for _ in range(n)])
            m = 2 * arith.SEGMENT // n + 17  # three blocks of t
            mags = np.abs(np.exp(2j * math.pi * np.outer(np.arange(1, m + 1), xs)) @ cs)
            t, mag = montgomery_witness(xs, cs, m)
            assert mag == mags.max()
            assert t == np.flatnonzero(mags == mags.max())[-1] + 1

    def test_tie_goes_to_largest_t_across_blocks(self):
        m = arith.SEGMENT + 5
        assert montgomery_witness([0.5], [1.0], m) == (m, 1.0)

    def test_randomized_lower_bound(self):
        rng = random.Random(160)
        for _ in range(100):
            m = rng.randint(2, 20)
            n = rng.randint(5, 500)
            xs = [rng.uniform(1.0 / m, 1.0 - 1.0 / m) for _ in range(n)]
            cs = [rng.uniform(0.0, 2.0) for _ in range(n)]
            t, mag = montgomery_witness(xs, cs, m)
            assert 1 <= t <= m
            assert mag >= sum(cs) / (6.0 * m)


class TestSearchMinFrac:
    def test_sqrt2_square(self):
        res = search_min_frac([X ** 2], [[SQRT2]], 50)
        assert res.p == 13
        assert res.max_frac == pytest.approx(frac_dist(SQRT2, 169), abs=1e-15)
        assert res.max_frac == pytest.approx(0.0021, abs=3e-4)

    def test_integral_matrix(self):
        res = search_min_frac([X ** 2, X ** 3], [[2.0, 1.0], [0.0, 5.0]], 50)
        assert res.p == 2 and res.max_frac == 0.0

    def test_shifted_powers_match_naive(self):
        hs = [(X - 1) ** 2, (X - 1) ** 3]
        A = [[SQRT2, 0.0], [0.0, SQRT2]]
        res = search_min_frac(hs, A, 1000)
        mf, p, vals = naive_min_frac_search(hs, A, 1000)
        assert res.p == p
        assert res.max_frac == pytest.approx(mf, abs=1e-12)

    def test_random_instances_match_naive(self):
        rng = random.Random(31415)
        for _ in range(20):
            k = rng.randint(1, 2)
            l = rng.randint(1, 2)
            hs = [IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
                          + [rng.randint(1, 5)]) for _ in range(k)]
            A = [[rng.uniform(-3, 3) for _ in range(k)] for _ in range(l)]
            n = rng.randint(10, 800)
            res = search_min_frac(hs, A, n)
            mf, p, vals = naive_min_frac_search(hs, A, n)
            assert res.p == p
            assert res.max_frac == pytest.approx(mf, abs=1e-12)

    def test_progression_restriction(self):
        res = search_min_frac([X], [[0.4]], 100, progression=(4, 1))
        assert res.p % 4 == 1 and res.d == 4 and res.r_d == 1

    def test_no_prime_in_range(self):
        with pytest.raises(ValueError, match="no prime"):
            search_min_frac([X], [[0.3]], 2, progression=(7, 6))

    def test_segment_boundaries_match_single_segment(self, monkeypatch):
        hs = [X ** 2, X - 7]
        A = [[SQRT2, 0.3], [1e-30, SQRT2]]
        Ns = [100, 700, 1500, 2000]
        runs = []
        for segment in (arith.SEGMENT, 64, 101):
            monkeypatch.setattr(arith, "SEGMENT", segment)
            runs.append([search_min_frac(hs, A, 2000),
                         search_min_frac(hs, A, 2000, progression=(6, -1)),
                         theta_fit(hs, A, Ns).points,
                         theta_fit(hs, A, Ns, progression=(10, 3)).points,
                         sieved(2000, (4, 1)),
                         # every prime ties at 1/4: the smallest must win
                         search_min_frac([X ** 2], [[0.25]], 2000, (4, 1)).p])
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][-1] == 5


class TestThetaFit:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
           st.lists(st.floats(-4, 4), min_size=1, max_size=2),
           st.lists(st.integers(2, 3000), min_size=3, max_size=5, unique=True),
           st.sampled_from([None, (4, 1), (6, -1), (10, 7)]))
    def test_points_equal_separate_searches(self, cs, row, Ns, prog):
        hs = [IntPoly(cs), X ** 3][:len(row)]
        Ns = sorted(Ns)
        try:
            searches = [(n, search_min_frac(hs, [row], n, prog).max_frac)
                        for n in Ns]
        except ValueError:  # no prime below the first bound in the class
            with pytest.raises(ValueError, match="no prime"):
                theta_fit(hs, [row], Ns, prog)
            return
        if any(mf == 0.0 for _, mf in searches):
            with pytest.raises(ValueError, match="degenerate"):
                theta_fit(hs, [row], Ns, prog)
            return
        assert list(theta_fit(hs, [row], Ns, prog).points) == searches

    def test_degenerate_zero_minima(self):
        with pytest.raises(ValueError, match="degenerate"):
            theta_fit([X], [[1.0]], [16, 32, 64])

    def test_flat_points_slope_zero(self):
        # ||p^2 / 4|| = 1/4 for every prime p = 1 mod 4
        fit = theta_fit([X ** 2], [[0.25]], [50, 100, 200], progression=(4, 1))
        assert fit.slope == 0.0
        assert all(mf == 0.25 for _, mf in fit.points)

    def test_decay_for_sqrt2(self):
        fit = theta_fit([X ** 2], [[SQRT2]], [2 ** j for j in range(10, 14)])
        assert fit.slope < 0
        assert len(fit.points) == 4

    def test_needs_three_bounds(self):
        with pytest.raises(ValueError):
            theta_fit([X], [[SQRT2]], [100, 200])
