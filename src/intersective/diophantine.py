"""Fractional-part experiments over primes.

Weighted exponential sums with the prime-in-progression weight
lambda_{m,b}(n) = log(mn + b) when mn + b is prime, evaluation of the
Weyl-type bound formulas, brute-force simultaneous rational approximation,
a constructive witness for the exponential-sum lower bound under a
separation hypothesis, and the minimum of max_i ||v_i(p)|| over primes p,
where v = A (h_1(p), ..., h_k(p)) for an integer polynomial family h and a
real matrix A.

Fractional parts of alpha * n for huge integers n are computed exactly: a
double is a dyadic rational num / 2^e, so alpha * n mod 1 is (num n mod 2^e)
/ 2^e, rounded once, correct to the last bit however far the polynomial
values pass 2^53. For e <= 64 that depends only on n mod 2^64, which numpy
uint64 arithmetic gives through wrap-around, so whole blocks of primes from
a streamed segmented sieve are evaluated at once. The terms of exp_sum are
added exactly in fixed point, in int64 lanes summed into Python integers,
and each part of the sum is rounded once.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import SEGMENT, prime_segments
from .polys import IntPoly

MAX_SUM_RANGE = 10 ** 9
_WRAP = 1 << 64


@dataclass(frozen=True, init=False)
class RealPoly:
    """Real polynomial alpha_0 + alpha_1 x + ... + alpha_k x^k."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs=()):
        cs = [float(c) for c in coeffs]
        for c in cs:
            if not math.isfinite(c):
                raise ValueError("coefficients must be finite")
        while cs and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))


@dataclass(frozen=True)
class WeightSpec:
    """Progression parameters (m, b) for the weight log(mn + b) at primes."""

    m: int
    b: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not 0 <= self.b < self.m:
            raise ValueError("b must lie in [0, m)")
        if gcd(self.b, self.m) != 1:
            raise ValueError("b must be coprime to m")


@dataclass(frozen=True)
class SearchResult:
    """Minimizing prime for max_i ||v_i(p)|| together with the value vector."""

    p: int
    values: tuple[float, ...]
    max_frac: float
    N: int
    d: int | None = None
    r_d: int | None = None


def frac_mul(alpha: float, n: int) -> float:
    """Exact fractional part of alpha * n in [0, 1) for float alpha, int n."""
    num, den = alpha.as_integer_ratio()
    return (num * n) % den / den


def _fracs(A, hs, xs: np.ndarray) -> np.ndarray:
    """v_i(x) mod 1 for v = A (h_1(x), ..., h_k(x)), rows i, one column per x
    of xs: the terms frac_mul(A[i][j], h_j(x)) added left to right in double
    precision, zero entries skipped, then reduced mod 1.

    An entry num / 2^e with e <= 64 takes (num h mod 2^e) / 2^e on the uint64
    values h mod 2^64: one rounding, the value frac_mul returns. An entry
    with e > 64 needs more bits of h than that, so it takes frac_mul on the
    exact integer values.
    """
    us = xs.astype(np.uint64)
    wrapped = []  # h(x) mod 2^64 by Horner: uint64 products wrap around
    for h in hs:
        hx = np.zeros(len(xs), dtype=np.uint64)
        for c in reversed(h.coeffs):
            hx = hx * us + np.uint64(c % _WRAP)
        wrapped.append(hx)
    out = np.zeros((len(A), len(xs)))
    for row, acc in zip(A, out):
        for a, h, hx in zip(row, hs, wrapped):
            if not a:
                continue
            num, den = a.as_integer_ratio()
            if den <= _WRAP:
                low = (np.uint64(num % _WRAP) * hx) & np.uint64(den - 1)
                acc += low / float(den)
            else:
                acc += [frac_mul(a, h.eval(x)) for x in xs.tolist()]
    return out % 1.0


def _frac_norms(A, hs, xs: np.ndarray) -> np.ndarray:
    """||v_i(x)||, laid out as in _fracs."""
    f = _fracs(A, hs, xs)
    return np.minimum(f, 1.0 - f)


def prime_blocks(N: int, progression: tuple[int, int] | None = None):
    """Primes <= N, restricted to p = r mod d when a progression (d, r) is
    given, as nonempty sorted int64 arrays, one per sieve segment. The
    arguments are checked here, before anything is sieved."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    d, r = progression if progression is not None else (1, 0)
    if d < 1:
        raise ValueError("progression modulus must be positive")
    if gcd(r % d, d) != 1:
        raise ValueError(f"progression {r % d} mod {d} is not coprime")
    return prime_segments(2, N, d, r)


_FIX_BITS, _FIX_LEVELS = 30, 36
_FIX_ONE = 1 << _FIX_BITS * _FIX_LEVELS
"""Every double is a multiple of 2^-1074, so of 1 / _FIX_ONE = 2^-1080."""


def _fixed_sums(xs: np.ndarray) -> list[int]:
    """The exact sum of each row of xs, times _FIX_ONE, as Python ints.

    Level k takes a = rint(x 2^(30k)) off the remainder x of each term. The
    terms are |x| < 2^6 (a weight is log v < 44 for v < 2^63) and a row holds
    at most SEGMENT <= 2^18 of them, so |a| <= 2^36 and each int64 row sum
    stays below 2^54. x 2^(30k) - a is exact, so each remainder is exact and
    below 2^-(30k+1); at k = 36 every term is an integer times 2^-1080, so
    the loop ends by then even for subnormals.
    """
    out = [0] * len(xs)
    k = 0
    while xs.any():
        k += 1
        a = np.rint(np.ldexp(xs, _FIX_BITS * k))
        xs = xs - np.ldexp(a, -_FIX_BITS * k)
        sums = a.astype(np.int64).sum(axis=1).tolist()
        out = [t + (s << _FIX_BITS * (_FIX_LEVELS - k)) for t, s in zip(out, sums)]
    return out


def exp_sum(f: RealPoly, w: WeightSpec, lo: int, hi: int) -> complex:
    """Sum of lambda_{m,b}(n) e(f(n)) over lo <= n <= hi.

    The phases f(n) mod 1 are exact; the real and imaginary parts are the
    exactly rounded sums of the terms, whatever the sieve segment size. An
    empty range gives 0, and the zero polynomial gives the weight sum.
    """
    if lo < 1:
        raise ValueError("range must start at 1 or later")
    if hi > MAX_SUM_RANGE:
        raise ValueError(f"range end exceeds guard of {MAX_SUM_RANGE}")
    powers = [IntPoly.monomial(1, i) for i in range(len(f.coeffs))]
    re = im = 0
    for vs in prime_segments(w.m * lo + w.b, w.m * hi + w.b, w.m, w.b):
        ns, lams = (vs - w.b) // w.m, np.log(vs)  # the n with mn + b prime
        theta = 2.0 * math.pi * _fracs([f.coeffs], powers, ns)[0]
        dre, dim = _fixed_sums(lams * np.stack([np.cos(theta), np.sin(theta)]))
        re, im = re + dre, im + dim
    return complex(re / _FIX_ONE, im / _FIX_ONE)  # each rounded once


def weyl_bound_eval(k: int, q: float, N: float, m: float, eps: float) -> float:
    """Right-hand side of the Weyl-type exponential sum bound, as written.

    No implied constant: for k > 1 this is
    (N m)^(1+eps) (q^-1 + (N m)^-1/2 + q N^-k)^(4^(1-k)), and for k = 1 it is
    N m (log N)^4 (q^-1/2 + (N m)^-1/5 + N^-1/2 q^1/2).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (all(map(math.isfinite, (q, N, m, eps))) and min(q, N, m) > 0):
        raise ValueError("q, N, m must be positive and finite, eps finite")
    try:
        if k == 1:
            out = N * m * math.log(N) ** 4 * (q ** -0.5 + (N * m) ** -0.2
                                              + N ** -0.5 * q ** 0.5)
        else:
            inner = 1.0 / q + (N * m) ** -0.5 + q * N ** float(-k)
            out = (N * m) ** (1.0 + eps) * inner ** (4.0 ** (1 - k))
    except (OverflowError, ZeroDivisionError):  # where ** would give inf
        out = math.inf
    if not math.isfinite(out):
        raise ValueError("bound overflows a float")
    return out


def simultaneous_approx(alphas, Q: int, weights=None) -> tuple[int, list[float]]:
    """Exhaustive scan q = 1..Q minimizing max_j ||q alpha_j|| * weight_j.

    Returns the minimizing q (smallest on ties) and the unweighted vector
    ||q alpha_j|| at that q.
    """
    alphas = [float(a) for a in alphas]
    if Q < 1:
        raise ValueError("Q must be a positive integer")
    if weights is None:
        weights = [1.0] * len(alphas)
    if len(weights) != len(alphas):
        raise ValueError("weights length must match alphas")
    if not all(0 <= w < math.inf for w in weights):
        raise ValueError("weights must be finite and nonnegative")
    rows = [[a] for a in alphas]
    x = [IntPoly.x()]
    scale = np.array(weights, dtype=float)[:, None]
    best_q, best_err = 1, math.inf
    for lo in range(1, Q + 1, SEGMENT):
        qs = np.arange(lo, min(lo + SEGMENT, Q + 1))
        errs = (_frac_norms(rows, x, qs) * scale).max(axis=0, initial=-math.inf)
        i = int(errs.argmin())
        if errs[i] < best_err:
            best_q, best_err = int(qs[i]), errs[i]
    return best_q, _frac_norms(rows, x, np.array([best_q]))[:, 0].tolist()


def montgomery_witness(xs, cs, M: int) -> tuple[int, float]:
    """Witness t in 1..M with |sum c_n e(t x_n)| >= (sum c_n) / (6M).

    Requires ||x_i|| >= 1/M for every i (violations are reported by index).
    Scans all t and returns the maximizer (largest t on exact ties) with the
    achieved |S_t|; the existence bound is asserted on the way out.
    """
    xs = np.asarray(list(xs), dtype=float)
    cs = np.asarray(list(cs), dtype=float)
    if xs.shape != cs.shape or xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs and cs must be equal-length nonempty vectors")
    if M < 1:
        raise ValueError("M must be a positive integer")
    if np.any(cs < 0):
        raise ValueError("weights must be nonnegative")
    fx = xs % 1.0
    norms = np.minimum(fx, 1.0 - fx)
    bad = np.flatnonzero(norms < 1.0 / M)
    if bad.size:
        raise ValueError(
            f"hypothesis ||x_i|| >= 1/M violated at indices {bad.tolist()}")
    # about SEGMENT terms e(t x_n) at a time, so memory is bounded in M
    best, t, step = -1.0, 0, max(1, SEGMENT // xs.size)
    for lo in range(1, M + 1, step):
        ts = np.arange(lo, min(lo + step, M + 1))
        mags = np.abs(np.exp(2j * math.pi * np.outer(ts, xs)) @ cs)
        if mags.max() >= best:
            best = mags.max()
            t = int(ts[np.flatnonzero(mags == best)[-1]])
    floor = float(cs.sum()) / (6.0 * M)
    if best < floor:
        raise ArithmeticError("separation lower bound violated; "
                              "this should be impossible")
    return t, float(best)


def _sweep(hs, A, N: int, progression):
    """Per block of primes p <= N (p = r mod d when given): the primes, the
    vectors ||v_i(p)|| as columns, and the maximum of each column."""
    hs = list(hs)
    A = [list(map(float, row)) for row in A]
    if not A or any(len(row) != len(hs) for row in A):
        raise ValueError("A must be an l x k matrix with k = len(hs)")
    if N < 2:
        raise ValueError("N must be at least 2")
    for ps in prime_blocks(N, progression):
        vals = _frac_norms(A, hs, ps)
        yield ps, vals, vals.max(axis=0)


def search_min_frac(hs, A, N: int,
                    progression: tuple[int, int] | None = None) -> SearchResult:
    """Minimize max_i ||v_i(p)|| over primes p <= N (optionally p = r mod d).

    Polynomial values are reduced mod 1 exactly before the double-precision
    max; ties go to the smallest prime.
    """
    best = None
    for ps, vals, mf in _sweep(hs, A, N, progression):
        i = int(mf.argmin())
        if best is None or mf[i] < best[0]:
            best = (float(mf[i]), int(ps[i]), vals[:, i].tolist())
    if best is None:
        raise ValueError("no prime in the requested range/progression")
    mf, p, vals = best
    d, r_d = progression if progression is not None else (None, None)
    return SearchResult(p=p, values=tuple(vals), max_frac=mf, N=N, d=d, r_d=r_d)


@dataclass(frozen=True)
class ThetaFit:
    """Log-log regression of the search minima against the bound N."""

    slope: float
    intercept: float
    points: tuple[tuple[int, float], ...]


def theta_fit(hs, A, Ns, progression: tuple[int, int] | None = None) -> ThetaFit:
    """Least-squares slope of log(min max ||v_i(p)||) against log N.

    One sweep over the primes up to max(Ns) gives every point as a prefix
    minimum, equal to search_min_frac at that N. The slope is an empirical
    decay exponent for the searched family only; it estimates nothing beyond
    the sampled range. All-zero minima (an integral matrix A, say) are
    rejected since the log is undefined.
    """
    Ns = [int(n) for n in Ns]
    if len(Ns) < 3:
        raise ValueError("need at least three bounds")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("bounds must be strictly increasing")
    points, best = [], math.inf
    pending = Ns[::-1]
    for ps, _, mf in _sweep(hs, A, Ns[-1], progression):
        # a bound below the block's last prime sees no later block
        while pending and pending[-1] < ps[-1]:
            n = pending.pop()
            cut = int(np.searchsorted(ps, n, side="right"))
            points.append((n, min(best, float(mf[:cut].min(initial=math.inf)))))
        best = min(best, float(mf.min()))
    points += [(n, best) for n in reversed(pending)]
    if points[0][1] == math.inf:
        raise ValueError("no prime in the requested range/progression")
    if any(mf == 0.0 for _, mf in points):
        raise ValueError("degenerate: zero minima")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(mf) for _, mf in points]
    if all(y == ys[0] for y in ys):
        return ThetaFit(slope=0.0, intercept=ys[0], points=tuple(points))
    fit = statistics.linear_regression(xs, ys)
    return ThetaFit(slope=fit.slope, intercept=fit.intercept,
                    points=tuple(points))
