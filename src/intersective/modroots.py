"""Roots of integer polynomials modulo primes, prime powers, and composites.

Root sets are exact. Every root set mod p^k, k = 1 included, comes from one
tree of p-adic discs that branches on the roots mod p of each disc's
Taylor-shifted polynomial, as classes c mod p^e with 0 <= e <= k (the class
(0, 0) of every residue exactly when p^k divides P). Composite moduli go
through the factorization and Chinese remaindering, and root sets above
MAX_ROOTS members are refused before they are listed. On top of that sits a
certification routine deciding whether a polynomial has a p-adic integer
root (optionally a unit one), with a Newton-liftable witness as the
certificate.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import isqrt, prod

import numpy as np

from .arith import factorize, is_prime, valuation
from .polys import IntPoly, squarefree_disc

DEFAULT_SCAN_LIMIT = 10_000  # below 2^14, as _nonzero_roots needs

KINDS = ("first", "second")  # any root, or a unit root


@dataclass(frozen=True)
class PadicRoot:
    """A residue r mod p^k certified as an approximate p-adic root.

    slack, when present, is the pair (v_P, v_dP) of valuations of P(r) and
    P'(r), both capped at the precision k, and satisfies v_P > 2*v_dP: the
    Newton iteration then refines r to an exact p-adic root.
    """

    p: int
    k: int
    r: int
    unit: bool
    slack: tuple[int, int] | None

    @classmethod
    def for_poly(cls, P: IntPoly, p: int, k: int, r: int) -> "PadicRoot":
        if r < 0 or r.bit_length() > k:  # else r < 2^k <= p^k is reduced
            r %= p ** k
        fr = P.eval(r)
        if fr != 0 and valuation(fr, p) < k:
            raise ValueError(f"{r} is not a root of {P} mod {p}^{k}")
        dfr = P.derivative().eval(r)
        v_dp = k if dfr == 0 else min(valuation(dfr, p), k)
        slack = (k, v_dp) if k > 2 * v_dp else None
        return cls(p=p, k=k, r=r, unit=(r % p != 0), slack=slack)


def _nonzero_roots(Q: IntPoly, p: int) -> set[int]:
    """Roots of Q mod the prime p, where Q mod p is not the zero polynomial.

    p up to DEFAULT_SCAN_LIMIT use a direct scan of all residues; larger p
    use gcd with x^p - x followed by randomized degree-1 splitting.
    """
    cs = _ptrim([c % p for c in Q.coeffs])
    if p <= DEFAULT_SCAN_LIMIT:
        # Horner over all residues at once, reduced (by floor division, far
        # cheaper than numpy's %) every third step but the last: three steps
        # from a residue stay below p^4 < 2^56 (p < 2^14)
        xs = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for i, c in enumerate(reversed(cs), 1):
            acc *= xs
            acc += c
            if i % 3 == 0 and i < len(cs):
                acc -= acc // p * p
        return set((acc == acc // p * p).nonzero()[0].tolist())
    return _roots_cz(cs, p)


# -- dense polynomial arithmetic over F_p (ascending coefficient lists) -----


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p."""
    r = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        f = q[shift] = r[-1] * inv % p
        if f:
            for i, c in enumerate(b):
                r[shift + i] = (r[shift + i] - f * c) % p
        r.pop()
    return _ptrim(q), _ptrim(r)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b over F_p, with any nonzero leading coefficient."""
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _roots_cz(cs: list[int], p: int) -> set[int]:
    """Roots of a nonzero polynomial mod an odd prime by equal-degree splitting."""
    roots: set[int] = set()
    xp_minus_x = _ppowmod([0, 1], p, cs, p)
    xp_minus_x += [0] * (2 - len(xp_minus_x))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _pgcd(cs, _ptrim(xp_minus_x), p)
    if len(g) <= 1:
        return roots
    rng = random.Random(0)
    stack = [g]
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.add(-h[0] * pow(h[1], -1, p) % p)
            continue
        while True:
            a = rng.randrange(p)
            w = _ppowmod([a, 1], (p - 1) // 2, h, p)
            if not w:
                continue
            w[0] = (w[0] - 1) % p
            u = _pgcd(h, _ptrim(w), p)
            if 1 < len(u) < len(h):
                stack.append(u)
                stack.append(_pdivmod(h, u, p)[0])
                break
    return roots


# -- root existence at many primes -------------------------------------------

SCAN_PRIME_LIMIT = 1 << 31  # lanes hold products of two residues in int64
_BLOCK_FIRST, _BLOCK_CAP = 64, 1 << 13


def first_rootless_prime(fs, primes) -> int | None:
    """Smallest prime in primes at which no member of the family fs has a
    root mod p, or None; a polynomial P alone is the family [P].

    The test runs for a block of primes at once, one int64 lane per prime
    and no modular inverse. A member of degree at most 2 is decided in
    closed form, a quadratic by Euler's criterion on its discriminant. A
    cubic has a root at every odd p, prime to lc, at which its discriminant
    is a nonresidue, by Stickelberger's theorem (Swan, Pacific J. Math. 12
    (1962)): a squarefree f of degree n mod p with r irreducible factors
    has (disc/p) = (-1)^(n-r), so r = 2 there. Its other lanes (p = 2,
    p | disc, a residue disc; all of them when disc is a square) and every
    member of degree 4 or more, whose shape that parity leaves open, take
    the gcd: for a member P of degree n >= 3 and p not dividing its leading
    coefficient lc, x -> lc x maps the roots of P mod p onto those of the
    monic g(y) = lc^(n-1) P(y/lc) over Z, so P has a root mod p exactly when
    gcd(g, x^p - x) != 1 over F_p: a square-and-multiply ladder gives x^p
    mod g, and a lane-synchronous Euclid finds the lanes whose gcd is
    constant. Within a block the members run in increasing degree, each
    over only the lanes where no member before it has a root. Blocks grow
    from 64 primes up to a fixed cap, so an early failure stays cheap, and
    memory is linear in the degree. primes is any iterable of ints, such as
    a sorted int64 array from arith.prime_segments, whose blocks are slices
    of it. Every prime must be below 2^31 and must not divide the leading
    coefficient of a member.
    """
    fs = sorted(fs, key=lambda f: f.degree)
    if not isinstance(primes, np.ndarray):
        primes = sorted(primes)
    elif (primes[1:] < primes[:-1]).any():
        primes = np.sort(primes)
    if len(primes) and primes[-1] >= SCAN_PRIME_LIMIT:
        raise ValueError("primes must be below 2^31")
    primes = np.asarray(primes, dtype=np.int64)
    start, size = 0, _BLOCK_FIRST
    while start < len(primes):
        lanes = primes[start:start + size]
        for f in fs:
            if not lanes.size:
                break
            lanes = lanes[_rootless_lanes(f, lanes)]
        if lanes.size:
            return int(lanes[0])
        start += size
        size = min(4 * size, _BLOCK_CAP)
    return None


def _rootless_lanes(P: IntPoly, block) -> np.ndarray:
    """For each prime p of the block, whether P has no root mod p: in closed
    form up to degree 2, a x^2 + b x + c by Euler's criterion on b^2 - 4ac
    at odd p and by parity at p = 2; above, whether gcd(f, x^p - x) = 1
    over F_p for the monic f of _lane_frobenius, which a cubic takes only
    where its discriminant is not a nonresidue mod an odd p."""
    ps = np.asarray(block, dtype=np.int64)
    if not (lc := _lane_residues(P.lead, ps)).all():
        bad = block[int(np.argmin(lc))]
        raise ValueError(f"{bad} divides the leading coefficient of {P}")
    if P.degree < 2:
        return np.full(len(ps), P.degree == 0)  # no root, or one everywhere
    if P.degree == 2:
        c, b, a = P.coeffs
        return np.where(ps == 2, c & (a + b + c) & 1 == 1,
                        _nonresidue_lanes(b * b - 4 * a * c, ps))
    gcd_lanes = np.ones(len(ps), dtype=bool)
    if P.degree == 3:
        # Stickelberger: the cubic is (1)(2) mod p where disc is a
        # nonresidue; a square disc is a residue wherever p does not divide it
        d, c, b, a = P.coeffs
        disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d)
        if disc < 0 or isqrt(disc) ** 2 != disc:
            gcd_lanes = ~_nonresidue_lanes(disc, ps)
    rootless = np.zeros(len(ps), dtype=bool)
    if gcd_lanes.any():
        rootless[gcd_lanes] = _coprime_lanes(P, ps[gcd_lanes], lc[gcd_lanes])
    return rootless


def _nonresidue_lanes(delta: int, ps: np.ndarray) -> np.ndarray:
    """For each lane, whether delta is a quadratic nonresidue mod an odd p,
    by Euler's criterion: delta^((p - 1)/2) = p - 1, from a ladder over the
    bits of (p - 1)/2 with products below p^2. False at p = 2."""
    residue = _lane_residues(delta, ps)
    # row i of the factors is delta where bit i of e = (p - 1)/2, counted
    # from the top, is set, and 1 elsewhere
    e = ps >> 1
    bits = np.arange(int(e.max()).bit_length())[::-1, None]
    acc = np.ones_like(ps)
    for factor in np.where(e >> bits & 1 == 1, residue, 1):
        acc *= acc
        acc %= ps
        acc *= factor
        acc %= ps
    return (acc == ps - 1) & (ps > 2)


def _coprime_lanes(P: IntPoly, ps: np.ndarray, lc: np.ndarray) -> np.ndarray:
    """For each lane, whether gcd(f, x^p - x) = 1 over F_p, for the monic f
    of _lane_frobenius, by a lane-synchronous Euclid without inverses."""
    xp, low = _lane_frobenius(P, ps, lc)
    n = len(low)
    # g[0] = f and g[1] = h = (x^p mod f) - x, top-aligned: row i of g[k]
    # is the coefficient of x^(d[k] - i), and the rows past d[k] are zero
    g = np.zeros((2, n + 1, len(ps)), dtype=np.int64)
    g[0, 0] = 1
    g[0, 1:] = -low[::-1] % ps
    g[1, 1:] = xp[::-1]
    g[1, -2:-1] = (g[1, -2:-1] - 1) % ps  # minus x, with no row when n = 0
    d = np.full((2, len(ps)), n)
    # each step keeps the gcd: a lane shifts out the zero lead of g1, or
    # replaces the one of higher degree by lc(g1) g0 - lc(g0) g1 (leads
    # aligned) and shifts out the cancelled lead; g0 always has a nonzero
    # lead, and the products stay below p^2
    while (live := d[1] >= 0).any():
        a, b = g
        c = (a[0] * b - b[0] * a) % ps  # c[0] = 0, and c = 0 where b = 0
        swap = (b[0] != 0) & (d[1] <= d[0])
        g[0] = np.where(swap, b, a)
        g[1, :-1], g[1, -1] = c[1:], 0
        d = np.where(swap, d[::-1], d)
        d[1] -= live
    return d[0] == 0


def _lane_frobenius(P: IntPoly, ps: np.ndarray,
                    lc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x^p mod f and x^n mod f as lanes, for f = g mod each int64 prime p of
    ps, none dividing lc, the lead's residues: g(y) = lc^(n-1) P(y/lc) has
    coefficient i equal to c_i lc^(n-1-i), n = deg P. Row i of an (n, L)
    lane array holds coefficient i of all L lanes. A ladder step folds its n
    high rows into the low n from the top down: x^j = x^(j-n) times x^n mod
    f, each high row reduced mod p once before it multiplies.
    """
    # a lane adds up to `period` products below p^2 to a residue before
    # reducing, so its values stay below 2^63
    pmax = int(ps.max())
    period = max(1, (1 << 63) // pmax ** 2 - 1)
    n = P.degree
    low = np.empty((n, len(ps)), dtype=np.int64)
    power = np.ones_like(ps)  # lc^(n-1-i) mod p at row i
    for i in reversed(range(n)):
        low[i] = -_lane_residues(P.coeffs[i], ps) * power % ps  # x^n = low
        power = power * lc % ps
    acc = np.zeros((n, len(ps)), dtype=np.int64)
    acc[:1] = 1  # x^0, with no row at all when f = 1
    bits = pmax.bit_length()
    odd = (ps >> np.arange(bits)[:, None]) & 1 == 1  # odd[b]: bit b of p
    for bit in reversed(range(bits)):
        # rows 1.. of s hold the square; row 0 stays 0, so s[:-1] is the
        # square times x
        s = np.zeros((2 * n + 1, len(ps)), dtype=np.int64)
        c = s[1:]
        for i in range(n):
            c[i:i + n] += acc[i] * acc
            if (i + 1) % period == 0:
                c %= ps
        # times x in the lanes whose bit is set; c[2n - 1] is still 0
        c[:] = np.where(odd[bit], s[:-1], c)
        # after the n products of the square, fold j brings a row's count
        # to 3n - j
        for j in range(2 * n - 1, n - 1, -1):
            c[j - n:j] += c[j] % ps * low
            if (3 * n - j) % period == 0:
                c[:j] %= ps
        acc = c[:n] % ps
    return acc, low


def _lane_residues(c: int, ps: np.ndarray) -> np.ndarray:
    """c mod each lane's prime, for any integer c, 31 bits at a time."""
    acc = np.zeros_like(ps)
    for shift in range(abs(c).bit_length() // 31 * 31, -1, -31):
        acc = ((acc << 31) + (abs(c) >> shift & 0x7FFFFFFF)) % ps
    return acc if c >= 0 else -acc % ps


# -- prime-power lifting -----------------------------------------------------


MAX_ROOTS = 10 ** 6


def lift_roots(P: IntPoly, p: int, k: int) -> set[int]:
    """Exact set of roots of P mod p^k, refused above MAX_ROOTS members."""
    if k < 1:
        raise ValueError("precision k must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _roots(P, {p: k}, f"{p}^{k}")


def roots_mod_q(P: IntPoly, q: int) -> set[int]:
    """Roots of P mod q for any q >= 1, via prime powers and remaindering;
    refused above MAX_ROOTS roots."""
    if q < 1:
        raise ValueError("modulus q must be a positive integer")
    return _roots(P, factorize(q), str(q))


def _roots(P: IntPoly, parts: dict[int, int], label: str) -> set[int]:
    """Roots of P mod the product of the p^e in parts {p: e}, counted from
    the classes and refused above MAX_ROOTS before any is listed."""
    cap = MAX_ROOTS.bit_length()  # p^cap > MAX_ROOTS
    classes = [(p, e, _root_classes(P, p, e)) for p, e in parts.items()]
    size = prod(sum(p ** min(e - j, cap) for _, j in cs)
                for p, e, cs in classes)
    if size > MAX_ROOTS:
        raise ValueError(f"more than {MAX_ROOTS} roots mod {label}")
    if not size:
        return set()
    roots, mod = [0], 1
    for p, e, cs in classes:
        pe = p ** e
        rs = [r for c, j in cs for r in range(c, pe, p ** j)]
        inv = pow(mod, -1, pe)  # CRT: r0 mod mod, r mod pe
        roots = rs if mod == 1 else [
            r0 + (r - r0) * inv % pe * mod for r0 in roots for r in rs]
        mod *= pe
    return set(roots)


@functools.lru_cache(maxsize=1 << 16)
def _root_classes(P: IntPoly, p: int, k: int) -> tuple[tuple[int, int], ...]:
    """The roots of P mod p^k as disjoint classes (c, e): x = c mod p^e,
    with 0 <= e <= k and c < p^e, for a prime p. The class (0, 0) of every
    residue comes alone and exactly when p^k divides P.

    Depth-first over the discs c + p^j Z_p, each with the Q for which
    P(c + p^j t) = p^m Q(t) and p does not divide the content of Q. A disc
    with m >= k is one class. Otherwise its roots lie over the roots t of Q
    mod p: a simple t closes by Hensel's lemma to one class mod p^(j+k-m),
    and a multiple t is the child disc c + p^j t + p^(j+1) Z_p, whose Q
    comes from Q(t + p s). A root of multiplicity mu leaves a child of degree
    at most mu mod p, so there are at most deg P classes and deg P * k discs.
    """
    out = []
    stack = [(0, 0, 0, P)]
    while stack:
        c, j, m, Q = stack.pop()
        s = k if Q.is_zero else valuation(Q.content(), p)
        if s:
            m, Q = m + s, IntPoly(a // p ** s for a in Q.coeffs)
        if m >= k:
            out.append((c, j))
            continue
        pj = p ** j
        roots = _nonzero_roots(Q, p)
        if m == k - 1:
            out.extend((c + pj * t, j + 1) for t in roots)
            continue
        dQ = Q.derivative()
        for t in roots:
            if dQ.eval(t) % p:
                out.append((c + pj * _newton_converge(Q, p, t, 0, k - m),
                            j + k - m))
            else:
                stack.append((c + pj * t, j + 1, m, Q.compose_linear(p, t)))
    return tuple(out)


# -- Newton lifting ----------------------------------------------------------


def _newton_converge(P: IntPoly, p: int, r: int, v: int, prec: int) -> int:
    """Run Newton steps from r until P(r) vanishes mod p^(prec + 2v).

    Requires the slack condition v_p(P(r)) > 2v with v = v_p(P'(r)); the
    result, reduced mod p^prec, is the truncation of the unique refined
    p-adic root.
    """
    target = prec + 2 * v
    modulus = p ** target
    dP = P.derivative()
    pv = p ** v
    for _ in range(200):
        fr = P.eval(r)
        if fr == 0 or fr % modulus == 0:
            return r % p ** prec
        u = dP.eval(r)
        t = (fr // pv) * pow((u // pv) % modulus, -1, modulus) % modulus
        r = (r - t) % modulus
    raise ArithmeticError("Newton iteration failed to converge")


def newton_lift(P: IntPoly, root: PadicRoot, k2: int) -> PadicRoot:
    """Lift a slack-bearing root to precision k2 by Newton iteration.

    The result is congruent to the input mod p^(root.k - v_dP) and is the
    truncation of the unique p-adic root refining the input.
    """
    if root.slack is None:
        raise ValueError("root not in Newton regime")
    if k2 < root.k:
        raise ValueError("target precision below current precision")
    if k2 == root.k:
        return root
    # slack[1] < k / 2 is v_p(P'(r)) itself, not a capped value
    res = _newton_converge(P, root.p, root.r, root.slack[1], k2)
    return PadicRoot.for_poly(P, root.p, k2, res)


# -- certification -----------------------------------------------------------


def certify_padic_root(P: IntPoly, p: int,
                       kind: str = "second") -> PadicRoot | None:
    """Decide whether P has a root in the p-adic integers (a unit root for
    kind="second") and return a canonical Newton-liftable witness.

    Let P* be the primitive squarefree part of P and D = |Res(P*, P*')|.
    With beta = v_p(D), a residue mod p^(2*beta + 1) at which P* vanishes
    refines to an exact p-adic root, and every p-adic root truncates to such
    a residue, so searching that single level is a complete decision
    procedure. Returns None when no qualifying residue exists. The witness
    is the smallest qualifying residue, stabilized by a Newton pass so that
    repeated lifting always extends the same p-adic root.
    """
    if kind not in KINDS:
        raise ValueError("kind must be 'first' or 'second'")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if P.is_zero:
        raise ValueError("cannot certify the zero polynomial")
    pstar, D = squarefree_disc(P)
    level = 2 * valuation(D, p) + 1
    cands = [c for c, _ in _root_classes(pstar, p, level)
             if kind == "first" or c % p]
    if not cands:
        return None
    # D = u*P* + v*P*' with u, v in Z[x], so v_p(P*'(r)) <= beta at every
    # root r mod p^(2*beta + 1): each candidate is Newton-liftable
    root = PadicRoot.for_poly(pstar, p, level, min(cands))
    if root.slack is None:
        raise ArithmeticError(f"root {root.r} mod {p}^{level} has no slack")
    if root.slack[1]:
        # the least residue of a class mod p^(level - v): refine it mod p^level
        r = _newton_converge(pstar, p, root.r, root.slack[1], level)
        root = PadicRoot.for_poly(pstar, p, level, r)
    return root
