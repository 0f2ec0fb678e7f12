"""Seeded inputs and sizes of the benchmark workloads.

Pure Python with no import of intersective: the parent process (for the
oracles) and every repetition (as part of its set-up) derive identical
inputs from (workload, seed, size).
"""

from __future__ import annotations

import random

WORKLOADS = ("check", "rd", "search")

# tiny: the self-test; bench: the measured default; roadmap: the sizes of the
# ROADMAP baselines (check --bound 1e5, rd for d <= 2000, search N = 1e6).
SIZES = {
    "tiny": {"bound": 300, "D": 60, "N": 4096},
    "bench": {"bound": 20_000, "D": 5000, "N": 262_144},
    "roadmap": {"bound": 100_000, "D": 2000, "N": 1_000_000},
}

CUBIC = "(x^3-19)*(x^2+x+1)"
QUADS = "(x^2-13)*(x^2-17)*(x^2-221)"
SEPTIC = "(x^4-5*x^2+x+4)*(x^3-10*x^2+9*x-1)"

PROGRESSION_MODULUS = 6
EXPSUM_WEIGHT = (4, 1)


def shifted(expr: str, s: int) -> str:
    """The expression with x replaced by x + s."""
    return expr.replace("x", f"(x+{s})" if s > 0 else f"(x-{-s})")


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _odd_prime_factors(n: int) -> set[int]:
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out, f = set(), 3
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 2
    if n > 1:
        out.add(n)
    return out


def _is_qr(a: int, p: int) -> bool:
    return a % p != 0 and pow(a, (p - 1) // 2, p) == 1


_SMALL_ODD_PRIMES = [p for p in range(3, 200)
                     if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def control_quadratics(rng: random.Random) -> tuple[list[int], int]:
    """Constants a_i such that prod (x^2 - a_i) fails second-kind
    intersectivity at a known unramified prime, and the failing prime.

    Every ramified prime of the product has a simple unit root (a_1 is 1 mod
    8 for p = 2, some a_i is a nonzero square mod each odd ramified p), so
    the check passes them and fails exactly at the first unramified odd
    prime where no a_i is a square. The discriminant is prod 4 a_i times
    prod (a_i - a_j)^4. The residues of the a_i mod 8 fix its valuation at 2
    to 11, the least possible, and odd valuations are capped at 5: that keeps
    the p-adic certification at the ramified primes, and so the cost of the
    control, about the same for every seed.
    """
    while True:
        a = [rng.randrange(9, 300, 8), rng.randrange(3, 300, 4), rng.randrange(2, 300, 4)]
        diffs = [x - y for i, x in enumerate(a) for y in a[i + 1:]]
        ramified = set().union(*map(_odd_prime_factors, a + diffs))
        if any(sum(_valuation(x, p) for x in a)
               + 4 * sum(_valuation(abs(d), p) for d in diffs) > 5 for p in ramified):
            continue
        if not all(any(_is_qr(x, p) for x in a) for p in ramified):
            continue
        for p in _SMALL_ODD_PRIMES:
            if p not in ramified and not any(_is_qr(x, p) for x in a):
                return a, p


def _check_inputs(rng: random.Random, size: dict) -> dict:
    s = rng.choice((-1, 1)) * rng.randint(1, 99)
    a, fail_prime = control_quadratics(rng)
    control = "*".join(f"(x^2-{x})" for x in a)
    cases = [
        # label, kind, expression, expected exit code, expected failing prime
        ("readme_cubic", "second", CUBIC, 0, None),
        ("readme_quads", "second", QUADS, 0, None),
        ("readme_septic", "second", SEPTIC, 1, 2),
        ("shift_cubic", "first", shifted(CUBIC, s), 0, None),
        ("shift_quads", "first", shifted(QUADS, s), 0, None),
        ("shift_septic", "first", shifted(SEPTIC, s), 0, None),
        ("control", "second", control, 1, fail_prime),
    ]
    calls = [{"label": label, "kind": kind, "expr": expr, "code": code,
              "fail_prime": prime,
              "argv": ["check", "--kind", kind, "--bound", str(size["bound"]),
                       expr]}
             for label, kind, expr, code, prime in cases]
    return {"bound": size["bound"], "shift": s, "control_a": a, "calls": calls,
            "exprs": [c["expr"] for c in calls]}


def _rd_inputs(rng: random.Random, size: dict) -> dict:
    D = size["D"]
    write_order = list(range(1, D + 1))
    rng.shuffle(write_order)
    read_order = list(range(1, D + 1))
    rng.shuffle(read_order)
    return {"D": D, "exprs": [CUBIC, "x*" + CUBIC],
            "write_order": write_order, "read_order": read_order}


def _search_inputs(rng: random.Random, size: dict) -> dict:
    N = size["N"]
    return {"N": N, "Ns": [N // 64, N // 16, N // 4, N],
            "exprs": [CUBIC, "x*" + CUBIC, "x^2*" + CUBIC],
            "A": [[rng.random() for _ in range(3)] for _ in range(2)],
            "f": [0.0, rng.random(), rng.random()],
            "weight": list(EXPSUM_WEIGHT), "d": PROGRESSION_MODULUS}


_MAKERS = {"check": _check_inputs, "rd": _rd_inputs, "search": _search_inputs}


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """All inputs of one workload, a pure function of its arguments."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), SIZES[size])
