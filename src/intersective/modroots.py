"""Roots of integer polynomials modulo primes, prime powers, and composites.

Root sets are exact. Prime-power roots are built level by level from the
roots one level down (branch enumeration, with the unique-lift shortcut for
simple roots); composite moduli go through the prime factorization and
Chinese remaindering. On top of that sits a certification routine deciding
whether a polynomial has a p-adic integer root (optionally a unit one), with
a Newton-liftable witness as the certificate.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import crt_pair, factorize, is_prime, valuation
from .polys import IntPoly, resultant, squarefree_part

DEFAULT_SCAN_LIMIT = 100_000


class CertificationInconclusive(RuntimeError):
    """Branch lifting hit its depth limit before reaching a Newton witness."""


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
        pk = p ** k
        r %= pk
        fr = P.eval(r)
        if fr % pk != 0:
            raise ValueError(f"{r} is not a root of {P} mod {p}^{k}")
        v_p_val = k if fr == 0 else min(valuation(fr, p), k)
        dfr = P.derivative().eval(r)
        v_dp = k if dfr == 0 else min(valuation(dfr, p), k)
        slack = (v_p_val, v_dp) if v_p_val > 2 * v_dp else None
        return cls(p=p, k=k, r=r, unit=(r % p != 0), slack=slack)


def roots_mod_p(P: IntPoly, p: int, *, scan_limit: int = DEFAULT_SCAN_LIMIT,
                seed: int = 0) -> set[int]:
    """Exact set of roots of P mod p.

    Small p use a direct scan; larger p use gcd with x^p - x followed by
    randomized degree-1 splitting. The returned set does not depend on the
    seed (it only steers the splitting order).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    cs = [c % p for c in P.coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return set(range(p))
    if len(cs) == 1:
        return set()
    if p <= max(scan_limit, 3):
        if p < 64:
            acc_roots = set()
            for x in range(p):
                acc = 0
                for c in reversed(cs):
                    acc = (acc * x + c) % p
                if acc == 0:
                    acc_roots.add(x)
            return acc_roots
        # modular Horner over all residues at once (p * p fits in int64)
        xs = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for c in reversed(cs):
            acc = (acc * xs + c) % p
        return set(np.flatnonzero(acc == 0).tolist())
    return _roots_cz(cs, p, seed)


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


def _pmod(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        if f:
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _roots_cz(cs: list[int], p: int, seed: int) -> set[int]:
    """Roots of a nonzero polynomial mod an odd prime by equal-degree splitting."""
    roots: set[int] = set()
    f = cs[:]
    while f and f[0] == 0:
        roots.add(0)
        f = f[1:]
    if len(f) <= 1:
        return roots
    xp = _ppowmod([0, 1], p, f, p)
    xp_minus_x = xp[:]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = _pgcd(f, _ptrim(xp_minus_x), p)
    if len(g) <= 1:
        return roots
    rng = random.Random(seed)
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
            w = w[:]
            w[0] = (w[0] - 1) % p
            u = _pgcd(h, _ptrim(w), p)
            if 1 < len(u) < len(h):
                stack.append(u)
                stack.append(_pdiv_exact(h, u, p))
                break
    return roots


def _pdiv_exact(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    out = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        out[len(a) - len(b)] = f
        if f:
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    return _ptrim(out)


# -- root existence at many primes -------------------------------------------

SCAN_PRIME_LIMIT = 1 << 31  # lanes hold products of two residues in int64
_BLOCK_FIRST, _BLOCK_CAP = 64, 1 << 13


def first_rootless_prime(P: IntPoly, primes) -> int | None:
    """Smallest prime in primes at which P has no root mod p, or None.

    P has a root mod p exactly when gcd(P, x^p - x) is nonconstant over F_p.
    x^p mod P is computed for a whole block of primes at once (one int64
    lane per prime, one square-and-multiply ladder for all lanes), then the
    gcd is taken prime by prime in increasing order. Blocks grow from 64
    primes up to a fixed cap, so an early failure stays cheap and memory
    stays bounded. Every prime must be below 2^31 and must not divide the
    leading coefficient of P.
    """
    primes = sorted(primes)
    if primes and primes[-1] >= SCAN_PRIME_LIMIT:
        raise ValueError("primes must be below 2^31")
    start, size = 0, _BLOCK_FIRST
    while start < len(primes):
        block = primes[start:start + size]
        for p, f, xp in zip(block, *_frobenius_block(P, block)):
            h = xp + [0] * (2 - len(xp))
            h[1] = (h[1] - 1) % p
            if len(_pgcd(f, _ptrim(h), p)) == 1:
                return p
        start += size
        size = min(4 * size, _BLOCK_CAP)
    return None


def _frobenius_block(P: IntPoly, block: list[int]) -> tuple[list, list]:
    """For each prime p of the block: the monic reduction f of P mod p and
    x^p mod f, both as ascending coefficient lists."""
    lcs = [P.lead % p for p in block]
    if not all(lcs):
        bad = block[lcs.index(0)]
        raise ValueError(f"{bad} divides the leading coefficient of {P}")
    ps = np.array(block, dtype=np.int64)[:, None]
    inv = np.array([pow(c, -1, p) for c, p in zip(lcs, block)], dtype=np.int64)
    low = np.array([[c % p for c in P.coeffs[:-1]] for p in block],
                   dtype=np.int64).reshape(len(block), len(P.coeffs) - 1)
    low = low * inv[:, None] % ps  # f = x^n + sum_i low[:, i] x^i
    acc = np.zeros_like(low)
    acc[:, :1] = 1
    for bit in reversed(range(int(ps.max()).bit_length())):
        acc = _lane_reduce(_lane_square(acc, ps), low, ps)
        times_x = np.zeros((len(block), low.shape[1] + 1), dtype=np.int64)
        times_x[:, 1:] = acc
        acc = np.where((ps >> bit) & 1 == 1, _lane_reduce(times_x, low, ps), acc)
    f = [row + [1] for row in low.tolist()]
    return f, acc.tolist()


def _lane_square(a: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Square of each lane's polynomial, reduced mod its prime per product."""
    n = a.shape[1]
    out = np.zeros((a.shape[0], max(2 * n - 1, 0)), dtype=np.int64)
    for i in range(n):
        out[:, i:i + n] = (out[:, i:i + n] + a[:, i:i + 1] * a) % ps
    return out


def _lane_reduce(r: np.ndarray, low: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Remainder of each lane's polynomial r mod its monic x^n + low."""
    n = low.shape[1]
    for k in range(r.shape[1] - 1, n - 1, -1):
        r[:, k - n:k] = (r[:, k - n:k] - r[:, k:k + 1] * low) % ps
    return r[:, :n]


# -- prime-power lifting -----------------------------------------------------


def lift_roots(P: IntPoly, p: int, k: int) -> set[int]:
    """Exact set of roots of P mod p^k, lifted level by level from mod p."""
    if k < 1:
        raise ValueError("precision k must be >= 1")
    return set(_lift_cached(P, p, k))


@functools.lru_cache(maxsize=1 << 18)
def _lift_cached(P: IntPoly, p: int, k: int) -> frozenset[int]:
    if k == 1:
        return frozenset(roots_mod_p(P, p))
    prev = _lift_cached(P, p, k - 1)
    if not prev:
        return frozenset()
    pj = p ** (k - 1)
    dP = P.derivative()
    out: list[int] = []
    for r in prev:
        fr = P.eval(r)
        b = dP.eval(r) % p
        if b:
            t = (-(fr // pj) * pow(b, -1, p)) % p
            out.append(r + t * pj)
        elif fr % (pj * p) == 0:
            out.extend(r + t * pj for t in range(p))
    return frozenset(out)


def roots_mod_q(P: IntPoly, q: int, coprime_only: bool = False) -> set[int]:
    """Roots of P mod q for any q >= 1, via prime powers and remaindering."""
    if q < 1:
        raise ValueError("modulus q must be a positive integer")
    if q == 1:
        return {0}
    parts = []
    for p, e in sorted(factorize(q).items()):
        rs = lift_roots(P, p, e)
        if not rs:
            return set()
        parts.append((p ** e, sorted(rs)))
    combined = [(0, 1)]
    for mod, rs in parts:
        combined = [(crt_pair(r0, m0, r, mod), m0 * mod)
                    for (r0, m0) in combined for r in rs]
    out = {r for r, _ in combined}
    if coprime_only:
        out = {r for r in out if gcd(r, q) == 1}
    return out


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
    p = root.p
    fr = P.eval(root.r)
    if fr == 0:
        return PadicRoot.for_poly(P, p, k2, root.r)
    v = valuation(P.derivative().eval(root.r), p)
    res = _newton_converge(P, p, root.r, v, k2)
    return PadicRoot.for_poly(P, p, k2, res)


# -- certification -----------------------------------------------------------


def certify_padic_root(P: IntPoly, p: int, kind: str = "second", *,
                       seed: int = 0,
                       extra_depth: int | None = None) -> PadicRoot | None:
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
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if P.is_zero:
        raise ValueError("cannot certify the zero polynomial")
    pstar = squarefree_part(P)
    if pstar.degree < 1:
        return None
    D = abs(resultant(pstar, pstar.derivative()))
    beta = valuation(D, p) if D else 0
    level = 2 * beta + 1
    limit = extra_depth if extra_depth is not None else 4 * (beta + 1)

    for _ in range(limit + 1):
        cands = sorted(lift_roots(pstar, p, level))
        if kind == "second":
            cands = [r for r in cands if r % p != 0]
        if not cands and level == 2 * beta + 1:
            return None
        for r in cands:  # increasing, so the first slack-bearing root is the least
            root = PadicRoot.for_poly(pstar, p, level, r)
            if root.slack is not None:
                return _stabilize(pstar, root)
        level += 1
    raise CertificationInconclusive(f"certification inconclusive at {p}")


def _stabilize(P: IntPoly, root: PadicRoot) -> PadicRoot:
    """Replace a slack-bearing residue by the truncation of its refined root."""
    fr = P.eval(root.r)
    if fr == 0:
        return root
    v = valuation(P.derivative().eval(root.r), root.p)
    if v == 0:
        return root
    res = _newton_converge(P, root.p, root.r, v, root.k)
    return PadicRoot.for_poly(P, root.p, root.k, res)
