import json
import math
import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intersective import (
    IntPoly,
    check_intersective,
    PadicRoot,
    certify_padic_root,
    lift_roots,
    newton_lift,
    roots_mod_q,
    valuation,
)
from intersective import modroots
from intersective.cli import main
from intersective.modroots import (
    DEFAULT_SCAN_LIMIT,
    _root_classes,
    _roots_cz,
)
from intersective.polys import squarefree_disc

from helpers import random_intpoly, scan_roots

X = IntPoly.x()
P_CUBIC = (X ** 3 - 19) * (X ** 2 + X + 1)
P_QUADS = (X ** 2 - 13) * (X ** 2 - 17) * (X ** 2 - 221)
P_FIRST_ONLY = (X ** 4 - 5 * X ** 2 + X + 4) * (X ** 3 - 10 * X ** 2 + 9 * X - 1)


class TestRootsModP:
    def test_known_roots(self):
        assert lift_roots(X ** 2 + X + 1, 19, 1) == {7, 11}
        assert lift_roots(X ** 2 + 1, 3, 1) == set()
        assert lift_roots(X ** 2 - 13, 17, 1) == {8, 9}

    def test_composite_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            lift_roots(X, 15, 1)

    def test_zero_mod_p_gives_all_residues(self):
        assert lift_roots(5 * X + 5, 5, 1) == {0, 1, 2, 3, 4}

    def test_splitting_path_matches_scan(self):
        # these p are below the scan limit, so lift_roots scans
        rng = random.Random(99)
        for p in (101, 211, 1009):
            for _ in range(20):
                f = random_intpoly(rng, 5, 30)
                assert _roots_cz([c % p for c in f.coeffs], p) == \
                    lift_roots(f, p, 1)

    def test_splitting_result_deterministic(self):
        # 100003 is above the scan limit and 3 mod 4, so x^2 + 1 has no root
        f = (X - 3) * (X - 70) * (X - 1000) * (X ** 2 + 1)
        assert lift_roots(f, 100003, 1) == lift_roots(f, 100003, 1) == \
            {3, 70, 1000}

    def test_splitting_finds_zero_root(self):
        # 1000003 is 3 mod 4; 0 is a root of x^p - x, so the gcd keeps it
        p = 1000003
        assert lift_roots(X ** 3 * (X - 5) * (X ** 2 + 1), p, 1) == {0, 5}
        assert lift_roots(7 * X, p, 1) == {0}
        assert _roots_cz([0, 0, 3], p) == {0}


# primes on both sides of the scan limit, all below MAX_ROOTS
ONE_PATH_PRIMES = [2, 3, 7, 101, 9973, 10007, 100003]


@st.composite
def one_path_cases(draw):
    """(P, p) with P the zero polynomial, a multiple of p, or any
    polynomial, non-monic ones included."""
    p = draw(st.sampled_from(ONE_PATH_PRIMES))
    cs = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6))
    P = IntPoly(cs)
    shape = draw(st.sampled_from(["zero", "multiple", "any"]))
    if shape == "zero":
        P = IntPoly()
    elif shape == "multiple":
        P = p * draw(st.integers(1, 3)) * P
    return P, p


class TestOneRootPath:
    """roots mod p^1 and mod q = p are one root set, that of the scan."""

    @settings(max_examples=200, deadline=None)
    @given(one_path_cases())
    def test_roots_mod_p_lift_and_q_agree(self, case):
        P, p = case
        rs = lift_roots(P, p, 1)
        assert rs == roots_mod_q(P, p)
        assert sorted(rs) == scan_roots(P, p)


class TestLiftRoots:
    def test_19_cubed_solution(self):
        rs = lift_roots(X ** 2 + X + 1, 19, 3)
        assert rs
        for r in rs:
            assert (r * r + r + 1) % 6859 == 0
            assert math.gcd(r, 19) == 1

    def test_17_fifth_power_coprime(self):
        rs = lift_roots(P_QUADS, 17, 5)
        assert rs
        assert all(r % 17 != 0 for r in rs)

    def test_monomial(self):
        assert lift_roots(X, 5, 4) == {0}

    def test_matches_direct_scan(self):
        rng = random.Random(314)
        for _ in range(40):
            f = random_intpoly(rng, 4, 9)
            for p, k in ((2, 6), (3, 4), (5, 3), (7, 2)):
                assert sorted(lift_roots(f, p, k)) == scan_roots(f, p ** k)

    def test_level_coherence(self):
        rng = random.Random(2024)
        for _ in range(30):
            f = random_intpoly(rng, 4, 9)
            for p in (2, 3, 5):
                for k in range(2, 6):
                    lower = lift_roots(f, p, k - 1)
                    for r in lift_roots(f, p, k):
                        assert r % p ** (k - 1) in lower


class TestNewtonLift:
    def test_simple_root_matches_branch_lift(self):
        P = X ** 2 + X + 1
        base = PadicRoot.for_poly(P, 19, 1, 7)
        assert base.slack == (1, 0)
        for k in range(2, 6):
            lifted = newton_lift(P, base, k)
            assert lifted.r in lift_roots(P, 19, k)
            assert lifted.r % 19 == 7
        # unique residue over 7: branch set restricted to the class of 7
        k5 = {r for r in lift_roots(P, 19, 5) if r % 19 == 7}
        assert k5 == {newton_lift(P, base, 5).r}

    def test_identity_at_same_precision(self):
        P = X ** 2 + X + 1
        base = PadicRoot.for_poly(P, 19, 3, 2819)
        assert newton_lift(P, base, 3) is base

    def test_unit_preserved_under_lift(self):
        P = P_QUADS
        base = certify_padic_root(P, 13, "second")
        for k in (base.k + 1, base.k + 5):
            lifted = newton_lift(P, base, k)
            assert lifted.unit
            assert lifted.r % 13 == base.r % 13

    def test_degenerate_rejected(self):
        root = PadicRoot.for_poly(X ** 2, 2, 1, 0)
        assert root.slack is None
        with pytest.raises(ValueError, match="Newton regime"):
            newton_lift(X ** 2, root, 3)

    def test_lower_precision_rejected(self):
        P = X ** 2 + X + 1
        base = PadicRoot.for_poly(P, 19, 2, 7 + 19 * 148)
        with pytest.raises(ValueError):
            newton_lift(P, base, 1)


class TestRootsModQ:
    def test_crt_combination(self):
        rs = roots_mod_q(X ** 2 + X + 1, 57)
        assert rs == {7, 49}
        assert any(r % 3 == 1 and r % 19 in {7, 11} for r in rs)

    def test_modulus_one(self):
        assert roots_mod_q(X ** 5 - 3, 1) == {0}

    def test_first_kind_only_poly_mod_two(self):
        # its only root mod 2 is 0, so it has no unit root there
        assert roots_mod_q(P_FIRST_ONLY, 2) == {0}

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            roots_mod_q(X, 0)

    def test_brute_force_equivalence_sample(self):
        rng = random.Random(8128)
        for _ in range(25):
            f = random_intpoly(rng, 4, 9)
            for q in range(1, 120):
                got = sorted(roots_mod_q(f, q))
                want = scan_roots(f, q) if q > 1 else [0]
                assert got == want, (f, q)

    def test_coprime_filter(self, capsys):
        # roots --coprime keeps the scanned roots prime to the modulus, with
        # --q and with --p, --k alike
        rng = random.Random(60)
        for _ in range(10):
            f = random_intpoly(rng, 4, 9)
            for q, argv in ((12, ["--q", "12"]), (30, ["--q", "30"]),
                            (49, ["--q", "49"]), (90, ["--q", "90"]),
                            (49, ["--p", "7", "--k", "2"]), (5, ["--p", "5"])):
                assert main(["roots", *argv, "--coprime", str(f)]) == 0
                want = [str(r) for r in scan_roots(f, q)
                        if math.gcd(r, q) == 1]
                assert json.loads(capsys.readouterr().out)["roots"] == want


class TestCertify:
    def test_cubic_example_second_kind(self):
        root = certify_padic_root(P_CUBIC, 19, "second")
        assert root is not None and root.unit
        assert P_CUBIC.eval(root.r) % 19 ** root.k == 0

    def test_quads_example_second_kind(self):
        root = certify_padic_root(P_QUADS, 13, "second")
        assert root is not None
        assert root.r % 13 != 0
        assert P_QUADS.eval(root.r) % 13 ** root.k == 0

    def test_no_root_conclusive(self):
        assert certify_padic_root(X ** 2 + 1, 3, "second") is None
        assert certify_padic_root(X ** 2 + 1, 3, "first") is None

    def test_soundness_of_empty_versus_scan(self):
        # returned empty => a full scan at the deciding level finds nothing
        for P, p, kind in ((X ** 2 + 1, 3, "first"),
                           (P_FIRST_ONLY, 2, "second")):
            assert certify_padic_root(P, p, kind) is None
            from intersective import squarefree_part, resultant, valuation
            pstar = squarefree_part(P)
            beta = valuation(abs(resultant(pstar, pstar.derivative())), p) \
                if abs(resultant(pstar, pstar.derivative())) > 1 else 0
            level = 2 * beta + 1
            if p ** level <= 10 ** 7:
                found = scan_roots(pstar, p ** level)
                if kind == "second":
                    found = [r for r in found if r % p != 0]
                assert found == []

    def test_witness_prefers_newton_slack(self):
        root = certify_padic_root(P_CUBIC, 3, "second")
        assert root is not None and root.slack is not None
        v_p, v_dp = root.slack
        assert v_p > 2 * v_dp

    def test_smallest_root_when_simple(self):
        # at an unramified prime the witness is the smallest mod-p root
        root = certify_padic_root(X ** 2 + X + 1, 19, "second")
        assert root.k == 1 and root.r == 7

    def test_first_kind_allows_nonunit(self):
        root = certify_padic_root(X * (X - 5), 5, "first")
        assert root is not None and not root.unit
        assert certify_padic_root(X * (X - 5), 5, "second") is None

    def test_composite_prime_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            certify_padic_root(X, 10)


small_polys = st.builds(lambda low, lead: IntPoly(low + [lead]),
                        st.lists(st.integers(-12, 12), min_size=1, max_size=4),
                        st.integers(-6, 6).filter(bool))
small_primes = st.sampled_from([2, 3, 5, 7, 11])


class TestDecisionLevel:
    """Level 2*beta + 1, with p^beta exactly dividing D = |Res(P*, P*')|,
    decides certification on its own."""

    @settings(max_examples=300, deadline=None)
    @given(small_polys, small_primes)
    def test_every_root_at_decision_level_has_slack(self, P, p):
        pstar, D = squarefree_disc(P)
        level = 2 * valuation(D, p) + 1
        for r in lift_roots(pstar, p, level):
            assert PadicRoot.for_poly(pstar, p, level, r).slack is not None

    @settings(max_examples=300, deadline=None)
    @given(small_polys, small_primes, st.sampled_from(["first", "second"]))
    def test_none_matches_brute_force_scan(self, P, p, kind):
        # P* and D from sympy, roots by evaluating P* at every residue
        x = sympy.symbols("x")
        pstar = sympy.Poly(list(reversed(P.coeffs)), x).sqf_part()
        D = abs(int(sympy.resultant(pstar, pstar.diff(x))))
        modulus = p ** (2 * sympy.multiplicity(p, D) + 1)
        assume(modulus <= 10 ** 6)
        found = scan_roots(IntPoly([int(c) for c in reversed(pstar.all_coeffs())]),
                           modulus)
        if kind == "second":
            found = [r for r in found if r % p]
        assert (certify_padic_root(P, p, kind) is None) == (not found)


class TestDeepLift:
    def test_simple_root_at_level_2000_matches_newton(self):
        P = X ** 2 + X + 1
        base = PadicRoot.for_poly(P, 19, 1, 7)
        rs = lift_roots(P, 19, 2000)
        assert len(rs) == 2
        over_7 = {r for r in rs if r % 19 == 7}
        assert over_7 == {newton_lift(P, base, 2000).r}
        # lower levels come from the same tower and stay coherent
        assert {r % 19 ** 600 for r in rs} == lift_roots(P, 19, 600)

    def test_tower_stops_where_roots_die(self):
        # x^2 + 5 has the root 0 mod 5 and none mod 25
        assert lift_roots(X ** 2 + 5, 5, 1) == {0}
        assert lift_roots(X ** 2 + 5, 5, 10 ** 9) == set()
        assert lift_roots(X ** 2 - 2, 5, 10 ** 9) == set()


@st.composite
def repeated_root_cases(draw):
    """(P, p, k) with P a product of factors (x - a)^m and x - a - p^i b, so
    that roots mod p are repeated and discs both split and close early."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, max(k for k in range(1, 20) if p ** k <= 10 ** 5)))
    P = IntPoly((draw(st.sampled_from([1, -1, p])),))
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(-20, 20))
        if draw(st.booleans()):
            P = P * (X - a) ** draw(st.integers(1, 4))
        else:
            P = P * (X - a - p ** draw(st.integers(1, 4)) * draw(st.integers(1, 4)))
    return P, p, k


class TestRootTree:
    """The class tree behind lift_roots and certify_padic_root, against
    scans of every residue."""

    @settings(max_examples=300, deadline=None)
    @given(repeated_root_cases())
    def test_lift_roots_matches_scan(self, case):
        P, p, k = case
        assert sorted(lift_roots(P, p, k)) == scan_roots(P, p ** k)

    @settings(max_examples=300, deadline=None)
    @given(repeated_root_cases())
    def test_classes_disjoint_and_reduced(self, case):
        P, p, k = case
        seen = set()
        for c, e in _root_classes(P, p, k):
            assert (e == 0) == (P.content() % p ** k == 0)
            assert 0 <= e <= k and 0 <= c < p ** e
            members = {c + t * p ** e for t in range(p ** (k - e))}
            assert not members & seen
            seen |= members
        assert sorted(seen) == scan_roots(P, p ** k)

    @settings(max_examples=300, deadline=None)
    @given(repeated_root_cases(), st.sampled_from(["first", "second"]))
    def test_witness_refines_least_root(self, case, kind):
        P, p, _ = case
        pstar, D = squarefree_disc(P)
        level = 2 * valuation(D, p) + 1
        assume(p ** level <= 10 ** 5)
        found = scan_roots(pstar, p ** level)
        if kind == "second":
            found = [r for r in found if r % p]
        root = certify_padic_root(P, p, kind)
        assert (root is None) == (not found)
        if root is None:
            return
        v = valuation(pstar.derivative().eval(root.r), p)
        assert root.k == level
        assert root.r % p ** (level - v) == min(found) % p ** (level - v)
        assert newton_lift(pstar, root, level + 3).r % p ** level == root.r


@st.composite
def multiple_root_cases(draw):
    """(P, p, k) with P a product of factors (x - a)^m, m <= 8, at levels
    far beyond any residue scan."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    k = draw(st.integers(1, 60))
    P = IntPoly((draw(st.sampled_from([1, -1, p])),))
    for _ in range(draw(st.integers(1, 3))):
        P = P * (X - draw(st.integers(-40, 40))) ** draw(st.integers(1, 8))
    return P, p, k


class TestTaylorShiftTree:
    """Each node of the root tree branches on the roots mod p of its
    Taylor-shifted polynomial, so its size is bounded by deg P."""

    @staticmethod
    def count_root_searches(monkeypatch):
        calls = []
        inner = modroots._nonzero_roots

        def counted(Q, p):
            calls.append(p)
            return inner(Q, p)

        monkeypatch.setattr(modroots, "_nonzero_roots", counted)
        _root_classes.cache_clear()
        return calls

    @settings(max_examples=300, deadline=None)
    @given(multiple_root_cases())
    def test_classes_are_roots_and_few(self, case):
        P, p, k = case
        classes = _root_classes(P, p, k)
        assert len(classes) <= P.degree
        for c, e in classes:
            # the one class (0, 0), every residue, exactly when p^k | P
            assert (e == 0) == (P.content() % p ** k == 0)
            assert 0 <= e <= k and 0 <= c < p ** e
            # P(c + p^e t) vanishes mod p^k for every t
            assert all(a % p ** k == 0 for a in P.compose_linear(p ** e, c).coeffs)

    @settings(max_examples=100, deadline=None)
    @given(multiple_root_cases())
    def test_nodes_at_most_degree_times_level(self, case):
        P, p, k = case
        with pytest.MonkeyPatch.context() as mp:
            calls = self.count_root_searches(mp)
            _root_classes(P, p, k)
            _root_classes.cache_clear()
        assert len(calls) <= P.degree * k

    def test_simple_roots_close_at_once(self, monkeypatch):
        calls = self.count_root_searches(monkeypatch)
        classes = _root_classes((X - 1) * (X - 2) * (X - 3), 7, 2000)
        _root_classes.cache_clear()
        assert sorted(classes) == [(1, 2000), (2, 2000), (3, 2000)]
        assert len(calls) == 1

    def test_high_multiplicity_stays_small(self):
        assert sorted(_root_classes((X - 1) ** 8 * (X + 1) ** 8, 2, 40)) == \
            [(1, 4), (15, 4)]

    @pytest.mark.parametrize("p", [31, 53, 101, 5419])
    def test_cube_root_of_odd_valuation(self, p):
        # v_p(2 p^7) = 7 is not a multiple of 3, so x^3 = 2 p^7 has no p-adic root
        assert certify_padic_root(X ** 3 - 2 * p ** 7, p, "first") is None

    def test_check_with_high_valuation_cube(self):
        v = check_intersective((X ** 3 - 31 ** 7) * (X - 1), "second", 1000)
        assert v.certified


class TestScanLimit:
    def test_above_limit_matches_scan(self):
        rng = random.Random(10007)
        primes = [p for p in range(DEFAULT_SCAN_LIMIT + 1, DEFAULT_SCAN_LIMIT + 200)
                  if sympy.isprime(p)][:6]
        for p in primes:
            for _ in range(5):
                f = random_intpoly(rng, 6, 10 ** 6)
                assert sorted(lift_roots(f, p, 1)) == scan_roots(f, p)
            f = (X - 5) * (X - p + 1) * (X ** 2 - 4)
            assert lift_roots(f, p, 1) == {2, 5, p - 2, p - 1}


class TestMaxRoots:
    """Root sets above MAX_ROOTS are refused from the class count, before
    any member is listed."""

    def test_large_sets_refused(self):
        with pytest.raises(ValueError, match="more than"):
            lift_roots((X - 1) ** 8, 2, 30)  # 2^26 roots
        with pytest.raises(ValueError, match="more than"):
            lift_roots(X ** 2, 2, 400)  # 2^200 roots
        with pytest.raises(ValueError, match="more than"):
            lift_roots(IntPoly(), 1000003, 1)  # every residue
        with pytest.raises(ValueError, match="more than"):
            lift_roots(7 ** 30 * X, 7, 25)  # every residue
        with pytest.raises(ValueError, match="more than"):
            roots_mod_q(X ** 2, 2 ** 40 * 3 ** 40)  # 2^20 * 3^20 roots
        with pytest.raises(ValueError, match="more than"):
            roots_mod_q(X ** 2, 2 ** 38 * 19 ** 4)  # 2^19 * 19^2 roots
        with pytest.raises(ValueError, match="more than"):
            lift_roots(IntPoly((0, 10 ** 9 + 7)), 10 ** 9 + 7, 1)  # all of F_p
        assert lift_roots(5 * X + 5, 5, 1) == {0, 1, 2, 3, 4}

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(modroots, "MAX_ROOTS", 8)
        assert len(lift_roots(X ** 2, 2, 6)) == 8  # x = 0 mod 8
        with pytest.raises(ValueError, match="more than 8"):
            lift_roots(X ** 2, 2, 8)  # x = 0 mod 16: 16 roots
        assert len(roots_mod_q(X ** 2 - 1, 3 * 5 * 7)) == 8
        with pytest.raises(ValueError, match="more than 8"):
            roots_mod_q(X ** 2 - 1, 3 * 5 * 7 * 11)

    def test_empty_part_wins(self):
        # x^2 + 1 has no root mod 3, so the product is empty however large
        # the other part is
        assert roots_mod_q(2 ** 40 * (X ** 2 + 1), 2 ** 30 * 3) == set()
