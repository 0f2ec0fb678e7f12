"""Every small polynomial's verdict against brute force over residues.

The sweep runs check_intersective on every P with coefficients in [-2, 2],
degree 1 to 4 and a positive lead, in both kinds, at the scan bound B. Each
P that is a product f g of two such polynomials (or of 2 and one) is also
checked as the family [f, g], which the factor scan takes member by
member, and gives the verdict of P. The oracle evaluates P at every residue
mod q:

- a certified P has a root (a unit root for the second kind) mod every
  prime power q <= Q of a prime p <= B;
- a P that fails at p has none mod some p^k, k <= MAX_K; when it fails at an
  unramified prime, k = 1 + v_p(content of P), and P has one mod every
  smaller prime.

The closed forms of the scan (a quadratic by the character of its
discriminant, a cubic marked where its discriminant is a nonresidue) are
checked against the x^p ladder and Euclid alone, by sending every member
through _coprime_lanes, as TestCubicLanes does for the cubics.
"""

import itertools

import numpy as np
import pytest
import sympy

from intersective import IntPoly, check_intersective, modroots

B, Q, MAX_K = 200, 400, 12
KINDS = ("first", "second")
SMALL = [IntPoly(low + (lead,))
         for n in range(1, 5)
         for low in itertools.product(range(-2, 3), repeat=n)
         for lead in (1, 2)]
PRIME_POWERS = [(p, p ** k) for p in sympy.primerange(B + 1)
                for k in range(1, 10) if p ** k <= Q]


def splits() -> dict[IntPoly, list[IntPoly]]:
    """One factorization [f, g] of each P of SMALL that has one with f and g
    nonconstant in SMALL, or f = 2."""
    small = set(SMALL)
    out = {}
    for f, g in itertools.combinations_with_replacement(SMALL, 2):
        if f.degree + g.degree <= 4 and (P := f * g) in small:
            out.setdefault(P, [f, g])
    for g in SMALL:
        if (P := 2 * g) in small:
            out.setdefault(P, [IntPoly((2,)), g])
    return out


SPLITS = splits()


def roots_mask(P: IntPoly, q: int, p: int, kind: str) -> np.ndarray:
    """Whether each residue mod q is a root (a unit root) of P mod q."""
    xs = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in reversed(P.coeffs):
        acc = (acc * xs + c) % q
    ok = acc == 0
    return ok & (xs % p != 0) if kind == "second" else ok


def least_rootless_power(P: IntPoly, p: int, kind: str) -> int | None:
    """The least p^k, k <= MAX_K, mod which P has no (unit) root, or None.
    The roots mod p^(k+1) are the r + t p^k with 0 <= t < p, over the roots
    r mod p^k, at which P vanishes mod p^(k+1)."""
    roots, q = roots_mask(P, p, p, kind).nonzero()[0].tolist(), p
    for _ in range(MAX_K - 1):
        if not roots:
            return q
        q *= p
        lifts = [r + t * q // p for r in roots for t in range(p)]
        roots = [x for x in lifts if P.eval(x) % q == 0]
    return None if roots else q


def verdict(P, kind):
    v = check_intersective(P, kind, B)
    return v.status, v.prime, v.reason


def check_against_oracle(P: IntPoly, kind: str, v) -> None:
    status, prime, reason = v
    if status == "certified_up_to":
        for p, q in PRIME_POWERS:
            assert roots_mask(P, q, p, kind).any(), (P, kind, q)
        return
    assert status == "fails"
    q = least_rootless_power(P, prime, kind)
    assert q is not None, (P, kind, prime)
    if reason.endswith("(unramified prime)"):
        # the scan decides the primitive part P0 = P / c mod p
        assert q == prime * prime ** sympy.multiplicity(prime, P.content())
        for p in sympy.primerange(prime):
            assert roots_mask(P, p, p, kind).any(), (P, kind, p)


@pytest.fixture(scope="module")
def verdicts():
    return {(P, kind): verdict(P, kind) for P in SMALL for kind in KINDS}


def test_sweep_is_whole():
    assert len(SMALL) == 2 * (5 + 25 + 125 + 625) == 1560
    assert len(SPLITS) > 300
    assert all(f * g == P for P, (f, g) in SPLITS.items())


@pytest.mark.parametrize("kind", KINDS)
def test_verdicts_match_brute_force(verdicts, kind):
    counts = {"certified_up_to": 0, "fails": 0}
    for P in SMALL:
        v = verdicts[P, kind]
        check_against_oracle(P, kind, v)
        counts[v[0]] += 1
    assert min(counts.values()) > 100


@pytest.mark.parametrize("kind", KINDS)
def test_factored_form_gives_the_same_verdict(verdicts, kind):
    for P, fs in SPLITS.items():
        assert verdict(fs, kind) == verdicts[P, kind], (fs, kind)


def test_closed_forms_match_the_plain_ladder(verdicts, monkeypatch):
    def plain(P, block):
        ps = np.asarray(block, dtype=np.int64)
        lc = modroots._lane_residues(P.lead, ps)
        assert lc.all()
        if P.degree < 2:
            return np.full(len(ps), P.degree == 0)
        return modroots._coprime_lanes(P, ps, lc)

    monkeypatch.setattr(modroots, "_rootless_lanes", plain)
    for kind in KINDS:
        for P in SMALL:
            assert verdict(P, kind) == verdicts[P, kind], (P, kind)
        for P, fs in SPLITS.items():
            assert verdict(fs, kind) == verdicts[P, kind], (fs, kind)
