"""Independent oracles used by the test suite.

Everything here recomputes results from definitions (Sylvester determinant,
direct residue scans, naive loops) without touching the production code
paths it is checking.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import sympy

from intersective import IntPoly


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Determinant of the Sylvester matrix, by exact rational elimination."""
    m, n = int(f.degree), int(g.degree)
    size = m + n
    if size == 0:
        return 1
    rows = []
    fc = [f.coeff(m - j) for j in range(m + 1)]  # descending
    gc = [g.coeff(n - j) for j in range(n + 1)]
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc]
                    + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc]
                    + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    assert det.denominator == 1
    return int(det)


def scan_roots(P: IntPoly, modulus: int) -> list[int]:
    """Direct scan of all residues, vectorized; exact for modulus < 2^31."""
    xs = np.arange(modulus, dtype=np.int64)
    acc = np.zeros(modulus, dtype=np.int64)
    for c in reversed(P.coeffs):
        acc = (acc * xs + c % modulus) % modulus
    return np.flatnonzero(acc == 0).tolist()


def scan_values_mod(values: np.ndarray, q: int) -> list[int]:
    """Roots from precomputed exact values: residues n < q with P(n) = 0 mod q."""
    return np.flatnonzero(values[:q] % q == 0).tolist()


def frac_dist(alpha: float, n: int) -> float:
    """||alpha n||: min(f, 1 - f) for f = (alpha n mod 1) rounded once from
    the exact rational."""
    f = float(Fraction(alpha) * n % 1)
    return min(f, 1.0 - f)


def weight_terms(m: int, b: int, lo: int, hi: int) -> list[tuple[int, float]]:
    """(n, log(mn + b)) for lo <= n <= hi with mn + b prime by sympy."""
    return [(n, math.log(m * n + b)) for n in range(lo, hi + 1)
            if sympy.isprime(m * n + b)]


def trial_division_primes(n: int) -> list[int]:
    out = []
    for m in range(2, n + 1):
        d = 2
        is_p = True
        while d * d <= m:
            if m % d == 0:
                is_p = False
                break
            d += 1
        if is_p:
            out.append(m)
    return out


def random_intpoly(rng: random.Random, max_deg: int, coeff_bound: int,
                   nonzero: bool = True) -> IntPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(deg)]
    lead = rng.randint(1, coeff_bound) * rng.choice((1, -1))
    poly = IntPoly(coeffs + [lead])
    if nonzero and poly.is_zero:
        return IntPoly((1,))
    return poly


def naive_min_frac_search(hs, A, N):
    """Reference double loop for the prime search, coded from the definition."""
    from fractions import Fraction as F
    best = None
    for p in trial_division_primes(N):
        worst = 0.0
        vals = []
        for row in A:
            total = 0.0
            for a, h in zip(row, hs):
                total += float(F(a) * h.eval(p) % 1)
            frac = total % 1.0
            vals.append(min(frac, 1.0 - frac))
        worst = max(vals)
        if best is None or worst < best[0]:
            best = (worst, p, vals)
    return best
