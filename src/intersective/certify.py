"""Whole-polynomial intersectivity verdicts and the coherent residues r_d.

A polynomial is intersective (first kind) when it has a root mod q for every
nonzero q, and intersective of the second kind when it has a root mod q
coprime to q for every q. Ramified primes (those dividing the effective
discriminant-resultant D, plus divisors of the low coefficient for the
second kind) get an exact p-adic certificate; the remaining primes are
scanned up to a bound for a mod-p root, which decides them exactly, so a
failure verdict is always conclusive while a certificate is exact at every
checked prime and heuristic beyond the scan bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import dropwhile
from math import gcd, prod

from .arith import crt_pair, factorize, prime_segments, valuation
from .cache import RootCache
from .modroots import (KINDS, SCAN_PRIME_LIMIT, PadicRoot, certify_padic_root,
                       first_rootless_prime, newton_lift)
from .polys import IntPoly, gcd_primitive, squarefree_disc, squarefree_part

DEFAULT_SCAN_BOUND = 10_000


class NoSecondKindRootError(ValueError):
    """A prime of the requested modulus admits no coprime root."""

    def __init__(self, prime: int, message: str):
        super().__init__(message)
        self.prime = prime


@dataclass
class IntersectivityVerdict:
    """Structured certificate for an intersectivity check.

    status is "certified_up_to" (every ramified prime has a witness and every
    unramified prime up to scan_bound has a root) or "fails" (prime/reason
    hold a conclusive counterexample).
    """

    kind: str
    status: str
    scan_bound: int
    prime: int | None = None
    reason: str | None = None
    ramified_witnesses: dict[int, PadicRoot] = field(default_factory=dict)
    content_removed: int = 1
    note: str | None = None

    @property
    def certified(self) -> bool:
        return self.status == "certified_up_to"


def _fails(kind, bound, prime, reason, witnesses, content) -> IntersectivityVerdict:
    return IntersectivityVerdict(kind=kind, status="fails", scan_bound=bound,
                                 prime=prime, reason=reason,
                                 ramified_witnesses=witnesses,
                                 content_removed=content)


def check_intersective(P: IntPoly | list[IntPoly], kind: str = "second",
                       bound: int = DEFAULT_SCAN_BOUND) -> IntersectivityVerdict:
    """Certify P as intersective of the given kind, scanning primes <= bound.

    P is an IntPoly or a sequence of factors whose product is the
    polynomial, such as parse_factors gives. Ramified primes are decided
    exactly by the p-adic criterion; unramified primes are decided exactly
    by a mod-p root of some factor (for the second kind, roots at
    unramified primes are automatically coprime since p cannot divide the
    low coefficient there). Verdicts are conclusive for failure and for
    every prime actually checked; primes beyond the bound are not certified.
    """
    factors = [P] if isinstance(P, IntPoly) else list(P)
    P = prod(factors, start=IntPoly.constant(1))
    if P.degree < 1:
        raise ValueError("polynomial must be nonconstant")
    _check_args(kind, bound)
    content = P.content()
    P0 = P.primitive()
    D = squarefree_disc(P0)[1]
    ramified = set(factorize(D))
    # P0 has a root mod p exactly when the squarefree part of one of its
    # factors does
    family = {squarefree_part(f) for f in factors if f.degree >= 1}
    if kind == "second":
        low = next(c for c in P0.coeffs if c != 0)
        ramified |= set(factorize(abs(low)))
        # strip the x-powers: unit roots of P mod p are the roots of the
        # cofactors, and 0 must not count as evidence at the scan primes
        family = {IntPoly(dropwhile(lambda c: c == 0, f.coeffs)) for f in family}

    witnesses: dict[int, PadicRoot] = {}
    for p in sorted(ramified):
        root = certify_padic_root(P0, p, kind)
        if root is None:
            beta = valuation(D, p)
            need = "unit root" if kind == "second" else "root"
            reason = f"no {need} mod {p}^{2 * beta + 1}"
            if kind == "second" and p == 2:
                reason += f" (P(1) = {P0.eval(1) % 2} mod 2)"
            return _fails(kind, bound, p, reason, witnesses, content)
        witnesses[p] = root

    # a prime dividing the lead of a member divides lc(P*), so D, and one
    # dividing its low coefficient divides that of P0, so every prime left
    # is unramified; one sieve segment at a time keeps memory flat in the
    # bound. When x divides P0, 0 is a root everywhere, and only unit roots
    # fail in the second kind
    need = "unit root" if kind == "second" and not P0.coeffs[0] else "root"
    for segment in prime_segments(2, bound):
        p = first_rootless_prime(
            family, [p for p in segment.tolist() if p not in ramified])
        if p is not None:
            return _fails(kind, bound, p,
                          f"no {need} mod {p} (unramified prime)",
                          witnesses, content)
    return IntersectivityVerdict(kind=kind, status="certified_up_to",
                                 scan_bound=bound,
                                 ramified_witnesses=witnesses,
                                 content_removed=content)


def _check_args(kind: str, bound: int) -> None:
    if kind not in KINDS:
        raise ValueError("kind must be 'first' or 'second'")
    if not 0 <= bound < SCAN_PRIME_LIMIT:
        raise ValueError("scan bound must be at least 0 and below 2^31")


def check_joint(hs, kind: str = "second",
                bound: int = DEFAULT_SCAN_BOUND) -> IntersectivityVerdict:
    """Joint intersectivity of a family, equivalent to that of its gcd."""
    _check_args(kind, bound)
    hs = list(hs)
    if not hs:
        raise ValueError("need at least one polynomial")
    g = gcd_primitive(hs)
    if g.degree < 1:
        return _fails(kind, bound, 2, "gcd is constant", {}, 1)
    return check_intersective(g, kind, bound)


def check_theorem_condition(hs, l: int,
                            bound: int = DEFAULT_SCAN_BOUND) -> IntersectivityVerdict:
    """Check the linear-combination condition behind the prime-variable
    simultaneous approximation bound.

    For l >= 2 the condition (every l integer linear combinations are jointly
    intersective of the second kind) is equivalent to joint second-kind
    intersectivity of the family itself, so the gcd check decides it. For
    l = 1 the gcd check is sufficient but not necessary, and the verdict is
    marked accordingly.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    verdict = check_joint(hs, "second", bound)
    if l == 1:
        verdict.note = ("sufficient only: for l = 1 the condition quantifies "
                        "over all integer combinations and a failed gcd check "
                        "does not refute it")
    else:
        verdict.note = "equivalent to the joint condition for l >= 2"
    return verdict


@dataclass
class RdRecord:
    """Residue r_d in (-d, 0], coprime to d, at which the tracked family
    vanishes mod d; coherent in the sense r_(d*q) = r_d mod d."""

    d: int
    r_d: int
    roots: dict[int, PadicRoot]


@functools.lru_cache(maxsize=64)
def _squarefree_gcd(hs: tuple[IntPoly, ...]) -> IntPoly:
    """Squarefree part of a family's primitive gcd, kept across make_rd calls."""
    return squarefree_part(gcd_primitive(hs))


def make_rd(hs, d: int, cache: RootCache | None = None) -> RdRecord:
    """Construct the canonical residue r_d for a jointly second-kind family.

    The prime factorization of d is certified on demand: each prime gets the
    canonical p-adic root of the squarefree gcd (from the cache when
    available), Newton-lifted to the needed precision. Roots obtained this
    way are truncations of one fixed p-adic root per prime, which gives the
    coherence r_(d*q) = r_d mod d across calls and across restarts.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    gstar = _squarefree_gcd(tuple(hs))
    if cache is None:
        cache = RootCache()

    roots: dict[int, PadicRoot] = {}
    residue, modulus = 0, 1
    for p, e in factorize(d).items():
        if gstar.degree < 1:
            raise NoSecondKindRootError(p, f"no unit root at prime {p}: "
                                           "gcd of the family is constant")
        root = cache.get(gstar, p)
        if root is None:
            root = certify_padic_root(gstar, p, "second")
            if root is None:
                raise NoSecondKindRootError(
                    p, f"family has no second-kind root at prime {p}")
            cache.put(gstar, p, root)
        if root.k < e:
            root = newton_lift(gstar, root, e)
            cache.put(gstar, p, root)
        roots[p] = root
        pe = p ** e
        residue = crt_pair(residue, modulus, root.r % pe, pe)
        modulus *= pe

    r_d = residue - d if residue else 0
    if gcd(r_d, d) != 1:
        raise ArithmeticError("constructed residue not coprime to modulus")
    return RdRecord(d=d, r_d=r_d, roots=roots)
