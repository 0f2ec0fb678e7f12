import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from intersective import (
    NEG_INF,
    IntPoly,
    delta_factored,
    distinct_degree_basis,
    gcd_primitive,
    nice_transform,
    parse_poly,
    resultant,
    squarefree_part,
)
from intersective.polys import squarefree_disc

from helpers import random_intpoly, sylvester_resultant

X = IntPoly.x()


class TestIntPoly:
    def test_canonical_form(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).coeffs == ()
        assert IntPoly((0,)).is_zero

    def test_degree_markers(self):
        assert IntPoly(()).degree == NEG_INF
        assert IntPoly((5,)).degree == 0
        assert (X ** 3).degree == 3

    def test_equality_is_coefficientwise(self):
        assert X + 1 == IntPoly((1, 1))
        assert X != X + 1

    def test_equal_polys_share_hash_and_dict_key(self):
        forms = [IntPoly([3, 0, -2]), IntPoly((3, 0, -2)),
                 IntPoly(c for c in (3, 0, -2)), IntPoly((3, 0, -2, 0, 0)),
                 3 - 2 * X ** 2]
        assert len({hash(f) for f in forms}) == 1
        table = {forms[0]: "P"}
        for f in forms:
            assert f == forms[0] and table[f] == "P"
        assert len(set(forms)) == 1

    def test_copies_keep_equality_and_hash(self):
        import copy
        import pickle
        for p in (X ** 5 - 19 * X ** 2 + 3, IntPoly(()), IntPoly((-4,))):
            hash(p)  # a copy of an object whose hash is already set
            for q in (copy.deepcopy(p), copy.copy(p),
                      pickle.loads(pickle.dumps(p))):
                assert q == p and hash(q) == hash(p) and {p: 1}[q] == 1
                assert q.coeffs == p.coeffs and repr(q) == repr(p)

    def test_no_equality_with_other_types(self):
        assert IntPoly((1,)) != (1,)
        assert IntPoly((1, 2)) != [1, 2]
        assert IntPoly((1,)).__eq__((1,)) is NotImplemented
        assert IntPoly((1,)).__mul__("x") is NotImplemented
        assert {IntPoly((1,)): 1}.get((1,)) is None

    def test_eval(self):
        assert (X ** 2 + X + 1).eval(7) == 57
        p = 3 * X ** 4 - 2 * X + 11
        assert p.eval(0) == 11  # constant term
        septic = (X ** 4 - 5 * X ** 2 + X + 4) * (X ** 3 - 10 * X ** 2 + 9 * X - 1)
        assert septic.eval(1) == -1
        assert septic.eval(1) % 2 == 1

    def test_derivative(self):
        assert (X ** 3 - 19).derivative() == 3 * X ** 2
        assert (X ** 2 + X + 1).derivative() == 2 * X + 1
        assert IntPoly((5,)).derivative().is_zero

    def test_compose_linear(self):
        p = X ** 2 + 1
        assert p.compose_linear(2, 1) == 4 * X ** 2 + 4 * X + 2
        assert p.compose_linear(1, 0) == p

    def test_str_round_trip(self):
        from intersective import parse_poly
        for p in (X ** 5 - 19 * X ** 2 + 3, -X - 1, IntPoly((0,)), 7 * X ** 3,
                  IntPoly((-4,))):
            assert parse_poly(str(p)) == p


class TestResultant:
    def test_known_values(self):
        assert resultant(X ** 2 + X + 1, 2 * X + 1) == 3
        assert resultant(X ** 3 - 19, 3 * X ** 2) == 9747
        assert 9747 == 3 ** 3 * 19 ** 2

    def test_linear_difference(self):
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert resultant(X - a, X - b) == a - b

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            resultant(IntPoly(()), X)
        with pytest.raises(ValueError, match="zero polynomial"):
            resultant(X, IntPoly(()))

    def test_sylvester_oracle(self):
        rng = random.Random(20107)
        for _ in range(200):
            f = random_intpoly(rng, 6, 20)
            g = random_intpoly(rng, 6, 20)
            assert resultant(f, g) == sylvester_resultant(f, g)

    def test_multiplicative(self):
        rng = random.Random(4451)
        for _ in range(100):
            f1 = random_intpoly(rng, 3, 8)
            f2 = random_intpoly(rng, 3, 8)
            g = random_intpoly(rng, 3, 8)
            assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)

    def test_swap_sign(self):
        rng = random.Random(911)
        for _ in range(100):
            f = random_intpoly(rng, 5, 10)
            g = random_intpoly(rng, 5, 10)
            sign = (-1) ** (int(f.degree) * int(g.degree))
            assert resultant(f, g) == sign * resultant(g, f)


class TestDelta:
    def test_example_cubic_times_quadratic(self):
        d = delta_factored([X ** 3 - 19, X ** 2 + X + 1])
        assert abs(d) == 29241 == 3 ** 4 * 19 ** 2

    def test_example_three_quadratics(self):
        d = delta_factored([X ** 2 - 13, X ** 2 - 17, X ** 2 - 221])
        assert abs(d) == 2 ** 6 * 13 ** 2 * 17 ** 2

    def test_single_linear(self):
        assert delta_factored([X - 1]) == 1

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError, match="not a valid irreducible"):
            delta_factored([(X - 1) ** 2])

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError, match="not a valid irreducible"):
            delta_factored([X - 1, (X - 1) * (X + 2)])

    def test_rejects_constant(self):
        with pytest.raises(ValueError, match="not a valid irreducible"):
            delta_factored([IntPoly((3,))])


class TestSquarefreePart:
    def test_repeated_factor_removed(self):
        assert squarefree_part((X - 1) ** 2 * (X + 2)) == (X - 1) * (X + 2)

    def test_squarefree_fixed_point(self):
        p = X ** 3 - 19
        assert squarefree_part(p) == p
        assert squarefree_part(-2 * p) == p  # sign/content normalized away

    def test_biquadratic(self):
        assert squarefree_part(X ** 4 - 2 * X ** 2 + 1) == X ** 2 - 1

    def test_divides_and_is_squarefree(self):
        rng = random.Random(777)
        for _ in range(60):
            p = random_intpoly(rng, 3, 5) * random_intpoly(rng, 2, 5)
            if p.degree < 1:
                continue
            sf = squarefree_part(p)
            # sf divides p: the primitive gcd with p is sf itself
            assert gcd_primitive([p, sf]) == sf
            assert gcd_primitive([sf, sf.derivative()]).degree == 0


def _normal_sympy(poly: sympy.Poly) -> IntPoly:
    """A sympy integer polynomial as an IntPoly, primitive with positive lead."""
    prim = poly.primitive()[1]
    if prim.LC() < 0:
        prim = -prim
    return IntPoly([int(c) for c in reversed(prim.all_coeffs())])


_LEADS = (-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 9)


def _factor(rng: random.Random, max_deg: int) -> IntPoly:
    """A random factor whose lead is often divisible by 2 or 3."""
    deg = rng.randint(0, max_deg)
    return IntPoly([rng.randint(-5, 5) for _ in range(deg)] + [rng.choice(_LEADS)])


def _seeded_products(n: int, seed: int):
    """Seeded products c * A^a * B^b with repeated factors (A^2 B, A^3),
    content c other than 1, negative leads and constants."""
    rng = random.Random(seed)
    shapes = ((1, 1), (2, 1), (3, 0), (2, 2), (1, 0), (0, 0))
    for i in range(n):
        a, b = shapes[i % len(shapes)]
        A, B = _factor(rng, 3 if a < 3 else 2), _factor(rng, 2)
        c = rng.choice((1, -1, 2, -3, 6, -10))
        yield c * A ** a * B ** b


class TestOneSubresultantSequence:
    """P*, D and every gcd come from the subresultant sequence; each is
    checked against an oracle that shares none of its code."""

    def test_squarefree_disc_matches_sympy_and_sylvester(self):
        x = sympy.symbols("x")
        repeated = 0
        for P in _seeded_products(1200, 2718):
            pstar, D = squarefree_disc(P)
            assert squarefree_part(P) == pstar
            if P.degree < 1:
                assert (pstar, D) == (IntPoly((1,)), 1)
                continue
            sym = sympy.Poly(list(reversed(P.coeffs)), x)
            assert pstar == _normal_sympy(sym.sqf_part())
            assert D == abs(sylvester_resultant(pstar, pstar.derivative()))
            repeated += pstar.degree < P.degree
        assert repeated > 300  # the gcd path is exercised, not only D != 0

    def test_gcd_matches_sympy_with_zero_members(self):
        x = sympy.symbols("x")
        rng = random.Random(3141)
        zero = IntPoly()
        for _ in range(400):
            G, A, B = _factor(rng, 2), _factor(rng, 2), _factor(rng, 2)
            family = [G * A, zero, rng.choice((1, -2, 6)) * G * B ** 2, G ** 2]
            rng.shuffle(family)
            family = family[:rng.randint(1, 4)]
            if all(f.is_zero for f in family):
                family.append(G)
            expect = sympy.Poly(0, x)
            for f in family:
                expect = expect.gcd(sympy.Poly(list(reversed(f.coeffs)) or [0], x))
            assert gcd_primitive(family) == _normal_sympy(expect)


class TestGcdPrimitive:
    def test_cubic_family_pair(self):
        p = (X ** 3 - 19) * (X ** 2 + X + 1)
        assert gcd_primitive([p, X * p]) == p

    def test_idempotent(self):
        p = 6 * X ** 2 - 4
        assert gcd_primitive([p, p]) == 3 * X ** 2 - 2

    def test_monomials(self):
        assert gcd_primitive([X ** 2, X ** 3]) == X ** 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_primitive([IntPoly(()), IntPoly(())])


class TestDistinctDegreeBasis:
    def test_merge_equal_degrees(self):
        basis, M = distinct_degree_basis([X ** 2, X ** 2 + X])
        assert basis == [X, X ** 2]
        assert M == ((0, 1), (1, 1))

    def test_already_reduced_is_fixed_point(self):
        for hs in ([X, X ** 2], [2 * X, X ** 2 + X]):
            basis, M = distinct_degree_basis(hs)
            assert basis == hs
            assert M == ((1, 0), (0, 1))

    def test_leading_gcd(self):
        basis, M = distinct_degree_basis([2 * X, 3 * X])
        assert basis == [X]
        assert M == ((2,), (3,))

    def test_reproduces_inputs(self):
        rng = random.Random(5150)
        for _ in range(100):
            hs = [random_intpoly(rng, 5, 9) for _ in range(rng.randint(1, 4))]
            basis, M = distinct_degree_basis(hs)
            degs = [int(b.degree) for b in basis]
            assert degs == sorted(set(degs))
            for i, h in enumerate(hs):
                acc = IntPoly(())
                for j, b in enumerate(basis):
                    acc = acc + b * M[i][j]
                assert acc == h

    def test_hermite_form_spanning_no_more_than_inputs(self):
        """An oracle that reads only (basis, M): degrees rise, leads are
        positive, each basis[j] is reduced into [0, lead) at the degree of
        every basis[i] below it, and the s x s minors of M have gcd 1, so
        the basis spans no more than the inputs do
        (test_reproduces_inputs: no less)."""
        rng = random.Random(2323)
        for _ in range(400):
            bound = rng.choice((12, 12, 2 ** 70))
            hs = [random_intpoly(rng, 6, bound) if rng.random() < 0.9
                  else IntPoly(()) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.choice((0, 0, 1, 2))):  # dependent rows
                hs.append(sum((h * rng.randint(-3, 3) for h in hs), IntPoly(())))
            if all(h.is_zero for h in hs):
                with pytest.raises(ValueError):
                    distinct_degree_basis(hs)
                continue
            basis, M = distinct_degree_basis(hs)
            degs = [b.degree for b in basis]
            assert degs == sorted(set(degs))
            assert all(b.lead > 0 for b in basis)
            for i, b in enumerate(basis):
                assert all(0 <= c.coeff(b.degree) < b.lead for c in basis[i + 1:])
            g = 0
            for rows in itertools.combinations(M, len(basis)):
                g = math.gcd(g, int(sympy.Matrix(rows).det()))
                if g == 1:
                    break
            assert g == 1


def _random_system(rng, k_max=4, deg_max=6):
    k = rng.randint(1, k_max)
    degs = sorted(rng.sample(range(deg_max + 1), k))
    fs = []
    for deg in degs:
        coeffs = [rng.randint(-9, 9) for _ in range(deg)]
        coeffs.append(rng.choice((1, -1)) * rng.randint(1, 9))
        fs.append(IntPoly(coeffs))
    return fs


class TestNiceTransform:
    def test_identity_on_nice_input(self):
        ns = nice_transform([X, X ** 2], 1, 0)
        assert ns.c == 1
        assert ns.T == ((1, 0), (0, 1))
        assert list(ns.g) == [X, X ** 2]

    def test_eliminates_lower_term(self):
        ns = nice_transform([X, X ** 2 + X], 1, 0)
        assert ns.c == 1
        assert ns.T == ((1, 0), (-1, 1))
        assert list(ns.g) == [X, X ** 2]

    def test_lead_after_substitution(self):
        ns = nice_transform([X ** 2], 2, 1)
        assert ns.g[0] == ns.c * (2 * X + 1) ** 2
        assert ns.g[0].lead == ns.c * 2 ** 2 * 1

    def test_degree_collision_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            nice_transform([X, X + 1], 1, 0)

    def test_transform_properties_random(self):
        rng = random.Random(31337)
        for _ in range(200):
            fs = _random_system(rng)
            d = rng.randint(1, 10)
            r = rng.randint(-10, 10)
            ns = nice_transform(fs, d, r)
            k = len(fs)
            # lower triangular, constant diagonal
            assert ns.c != 0
            for i in range(k):
                assert ns.T[i][i] == ns.c
                for j in range(i + 1, k):
                    assert ns.T[i][j] == 0
            # exact identity T * (f_i(dx+r)) = (g_i)
            subs = [f.compose_linear(d, r) for f in fs]
            for i in range(k):
                acc = IntPoly(())
                for j in range(k):
                    acc = acc + subs[j] * ns.T[i][j]
                assert acc == ns.g[i]
            # nice system with the expected leading coefficients
            degs = [int(g.degree) for g in ns.g]
            assert degs == sorted(set(degs))
            for i in range(k):
                assert ns.g[i].lead == ns.c * d ** int(fs[i].degree) * fs[i].lead
                for j in range(k):
                    if j != i:
                        assert ns.g[j].coeff(degs[i]) == 0

    def test_constant_uniform_in_d_and_r(self):
        rng = random.Random(2718)
        for _ in range(40):
            fs = _random_system(rng, k_max=3, deg_max=5)
            c0 = nice_transform(fs, 1, 0).c
            for _ in range(3):
                d = rng.randint(1, 10)
                r = rng.randint(-10, 10)
                assert nice_transform(fs, d, r).c == c0

    def test_least_constant_example(self):
        # row 1 over Q(r) is (-(6r + 1)/2, 1), so c = 2
        ns = nice_transform([2 * X, 3 * X ** 2 + X], 1, 0)
        assert ns.c == 2
        assert ns.T == ((2, 0), (-1, 2))

    def test_least_constant_against_sympy(self):
        rng = random.Random(4242)
        for _ in range(60):
            fs = _random_system(rng, k_max=4, deg_max=5)
            d = rng.randint(1, 12)
            r = rng.randint(-20, 20)
            c, rows = _sympy_unit_transform(fs)
            ns = nice_transform(fs, d, r)
            assert ns.c == c
            for i, row in enumerate(rows):
                for j, e in enumerate(row):
                    assert ns.T[i][j] == c * e.subs(_r, r)


_r, _y = sympy.symbols("r y")


def _sympy_unit_transform(fs):
    """(c, T): T over Q(r) with unit diagonal that makes row i of
    T * (f_j(y + r))_j free of y^(deg f_j) for j < i, from sympy's linear
    solver, and c the lcm of the denominators of its coefficients in r."""
    shifted = [sum(c * (_y + _r) ** e for e, c in enumerate(f.coeffs)) for f in fs]
    rows = []
    for i, f in enumerate(fs):
        ts = sympy.symbols(f"t0:{i}")
        g = sympy.Poly(shifted[i] + sum(t * s for t, s in zip(ts, shifted)), _y)
        eqs = [g.coeff_monomial(_y ** int(fs[j].degree)) for j in range(i)]
        sol = sympy.solve(eqs, ts, dict=True)[0] if i else {}
        rows.append([sympy.cancel(sol[t]) for t in ts] + [sympy.Integer(1)])
    c = math.lcm(*(q.q for row in rows for e in row
                   for q in sympy.Poly(e, _r, domain="QQ").coeffs()))
    return c, rows


_x = sympy.symbols("x")


def to_sympy(P: IntPoly) -> sympy.Poly:
    return sympy.Poly(list(reversed(P.coeffs)), _x, domain="ZZ")


def from_sympy(f: sympy.Poly) -> IntPoly:
    return IntPoly([int(c) for c in reversed(f.all_coeffs())])


coefficients = st.one_of(st.integers(-12, 12), st.integers(-2 ** 70, 2 ** 70))
int_polys = st.builds(IntPoly, st.lists(coefficients, max_size=7))
nonzero_polys = int_polys.filter(lambda P: not P.is_zero)


class TestSympyOracles:
    """resultant decides which primes check treats as ramified, so which
    primes reach the unramified scan; sympy is the independent oracle."""

    @settings(max_examples=200, deadline=None)
    @given(nonzero_polys, nonzero_polys)
    def test_resultant(self, f, g):
        # sympy.resultant can return the wrong sign (it gives -9 for
        # Res(x - 2, x^3 + 1) = 9), so it checks |Res| and the determinant
        # of sympy's Sylvester matrix checks the sign
        F, G = to_sympy(f), to_sympy(g)
        res = resultant(f, g)
        assert abs(res) == abs(int(sympy.resultant(F, G)))
        assert res == int(sylvester(F.as_expr(), G.as_expr(), _x, 1).det())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(nonzero_polys, min_size=1, max_size=3),
           st.lists(st.integers(1, 3), min_size=3, max_size=3))
    def test_squarefree_part(self, factors, powers):
        P = IntPoly((1,))
        for f, e in zip(factors, powers):
            P = P * f ** e
        want = from_sympy(to_sympy(P).sqf_part().primitive()[1])
        assert squarefree_part(P) in (want, -want)

    @settings(max_examples=200, deadline=None)
    @given(int_polys)
    def test_parse_of_str_round_trips(self, P):
        assert parse_poly(str(P)) == P


def trusted(P: IntPoly) -> IntPoly:
    """P, after checking that it is canonical and the same value, with the
    same hash, as the checked constructor builds from its coefficients."""
    assert type(P) is IntPoly
    assert all(type(c) is int for c in P.coeffs)
    assert not P.coeffs or P.coeffs[-1] != 0
    checked = IntPoly(list(P.coeffs))
    assert P == checked and hash(P) == hash(checked)
    return P


class TestTrustedResults:
    """Arithmetic results skip the constructor's per-coefficient type check;
    they must still be canonical and agree with sympy."""

    @settings(max_examples=200, deadline=None)
    @given(int_polys, int_polys, coefficients)
    def test_ring_operations(self, f, g, n):
        F, G = to_sympy(f), to_sympy(g)
        for got, want in [(f + g, F + G), (f + n, F + n), (n + f, F + n),
                          (f - g, F - G), (g - f, G - F), (f - f, F - F),
                          (f - n, F - n),
                          (n - f, n - F), (-f, -F), (f * g, F * G),
                          (f * n, F * n), (n * f, F * n)]:
            assert trusted(got) == from_sympy(want)

    @settings(max_examples=200, deadline=None)
    @given(st.builds(IntPoly, st.lists(st.integers(-12, 12), max_size=4)),
           st.integers(0, 4), st.integers(-9, 9), coefficients)
    def test_power_derivative_compose_primitive(self, f, e, d, r):
        F = to_sympy(f)
        assert trusted(f ** e) == from_sympy(F ** e)
        assert trusted(f.derivative()) == from_sympy(F.diff(_x))
        lin = sympy.Poly(d * _x + r, _x, domain="ZZ")
        assert trusted(f.compose_linear(d, r)) == from_sympy(F.compose(lin))
        assert trusted(f.primitive()) == from_sympy(F.primitive()[1])

    @pytest.mark.parametrize("bad", [1.0, "1", None, np.int64(1)])
    def test_checked_constructor_still_refuses_non_ints(self, bad):
        with pytest.raises(TypeError, match="integer coefficient expected"):
            IntPoly((1, bad))
