"""Independent correctness checks of the workload outputs.

Nothing here uses intersective. Polynomials are read with sympy, values are
computed by Horner's rule on Python integers, fractional parts with
fractions.Fraction, primes with a sieve of this file, and the exponential
sum reference with mpmath. prepare() does the expensive part once per
invocation; problems() checks one repetition and returns (call, message)
pairs, one per failed check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import sympy

X = sympy.Symbol("x")

# |exp_sum - reference| <= EXPSUM_RTOL * (sum of the weights). Each term of
# the library's double-precision sum is off by about 1e-15 times its weight.
EXPSUM_RTOL = 1e-12


def coefficients(expr: str) -> list[int]:
    """Ascending integer coefficients of a polynomial expression in x."""
    poly = sympy.Poly(sympy.sympify(expr.replace("^", "**")), X)
    return [int(c) for c in reversed(poly.all_coeffs())]


def horner(cs: list[int], x: int, m: int | None = None) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
        if m is not None:
            acc %= m
    return acc


def prime_flags(n: int) -> bytearray:
    """flags[i] == 1 exactly when i <= n is prime."""
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return flags


# -- check -------------------------------------------------------------------


def _check_case(call: dict) -> dict:
    P = sympy.Poly(sympy.sympify(call["expr"].replace("^", "**")), X)
    _, P0 = P.primitive()
    sqf = P0.sqf_part().primitive()[1]
    D = abs(int(sympy.resultant(sqf.as_expr(), sqf.diff(X).as_expr(), X)))
    ramified = set(sympy.primefactors(D))
    if call["kind"] == "second":
        low = next(c for c in reversed(P0.all_coeffs()) if c != 0)
        ramified |= set(sympy.primefactors(abs(int(low))))
    return {"cs": coefficients(call["expr"]),
            "sqf": [int(c) for c in reversed(sqf.all_coeffs())],
            "D": D, "ramified": ramified}


def no_root_at(case: dict, p: int, kind: str) -> bool:
    """Brute force: P* has no (unit, for the second kind) root mod p^(2b+1)
    at a ramified prime, b = v_p(D), and no root mod p at any other prime."""
    beta = sympy.multiplicity(p, case["D"]) if p in case["ramified"] else 0
    m = p ** (2 * beta + 1)
    return all(horner(case["sqf"], x, m) != 0
               for x in range(m) if kind == "first" or x % p)


def _check_call(call: dict, case: dict, out: dict, memo: dict) -> list[str]:
    if "error" in out:
        return [out["error"]]
    bad = []
    if out["code"] != call["code"]:
        bad.append(f"exit code {out['code']}, expected {call['code']}")
    try:
        res = json.loads(out["stdout"])
    except ValueError:
        return bad + [f"output is not JSON: {out['stdout'][:80]!r}"]
    status = "certified_up_to" if call["code"] == 0 else "fails"
    if res.get("status") != status:
        bad.append(f"status {res.get('status')}, expected {status}")
    fail = call["fail_prime"]
    if fail is not None:
        if res.get("prime") != fail:
            bad.append(f"failing prime {res.get('prime')}, expected {fail}")
        key = (call["label"], fail)
        if key not in memo:
            memo[key] = no_root_at(case, fail, call["kind"])
        if not memo[key]:
            bad.append(f"brute force finds a root at the failing prime {fail}")
    # ramified primes are certified in increasing order until one fails
    want = {q for q in case["ramified"]
            if fail is None or fail not in case["ramified"] or q < fail}
    got = [w["p"] for w in res.get("witnesses", [])]
    if sorted(got) != sorted(want):
        bad.append(f"witness primes {sorted(got)}, expected {sorted(want)}")
    for w in res.get("witnesses", []):
        p, k, r = w["p"], w["k"], int(w["r"])
        if horner(case["cs"], r, p ** k) != 0:
            bad.append(f"witness {r} is not a root mod {p}^{k}")
        if w["unit"] != (r % p != 0) or (call["kind"] == "second" and not w["unit"]):
            bad.append(f"witness {r} mod {p}^{k} has the wrong unit flag")
    return bad


# -- rd ----------------------------------------------------------------------


def _rd_problems(inp, prep, rep) -> list[tuple]:
    bad = []
    fam = prep["family"]
    write = {}
    for d, r in zip(inp["write_order"], rep["write"]):
        if isinstance(r, dict):
            bad.append((("write", d), r["error"]))
            continue
        write[d] = r
        if not (-d < r <= 0 and math.gcd(r, d) == 1):
            bad.append((("write", d), f"r_{d} = {r} not in (-d, 0] or not coprime"))
        elif any(horner(cs, r, d) for cs in fam):
            bad.append((("write", d), f"a family member does not vanish mod {d} at {r}"))
    for d, r in write.items():
        for q in prep["factors"][d]:
            if d // q in write and (r - write[d // q]) % (d // q):
                bad.append((("write", d), f"r_{d} incoherent with r_{d // q}"))
    for d, r in zip(inp["read_order"], rep["read"]):
        if r != write.get(d):
            bad.append((("read", d), f"read pass r_{d} = {r}, write pass gave {write.get(d)}"))
    if rep["appends_read"]:
        bad.append((("read", "cache"), f"read pass appended {rep['appends_read']} lines"))
    return bad


# -- search ------------------------------------------------------------------


class _Sweep:
    """Naive exact sweep over the primes <= N: per-prime value vectors, the
    overall minimum, its prefix minima at each Ns and per residue mod d."""

    def __init__(self, inp):
        self.cs = [coefficients(e) for e in inp["exprs"]]
        self.A = [[Fraction(a) for a in row] for row in inp["A"]]
        N, Ns, d = inp["N"], inp["Ns"], inp["d"]
        flags = prime_flags(N)
        best, self.prefix, self.by_class = None, {}, {}
        for p in range(2, N + 1):
            if flags[p]:
                key = (max(self.values(p)), p)
                if best is None or key < best:
                    best = key
                c = p % d
                if c not in self.by_class or key < self.by_class[c]:
                    self.by_class[c] = key
            if p in Ns:
                self.prefix[p] = best
        self.best = best

    def values(self, p: int) -> list[float]:
        """||v_i(p)||: each term's fractional part exactly, then the sum in
        double precision, in the library's order."""
        hv = [horner(cs, p) for cs in self.cs]
        out = []
        for row in self.A:
            acc = 0.0
            for a, h in zip(row, hv):
                if a:
                    acc += float(a * h % 1)
            f = acc % 1.0
            out.append(min(f, 1.0 - f))
        return out


def _expsum_reference(inp) -> tuple[complex, float]:
    """mpmath sum of log(v) e(f(n)) over v = m n + b prime, n <= N, with
    f(n) mod 1 exact (each coefficient is num / 2^e), and the weight sum."""
    m, b = inp["weight"]
    N = inp["N"]
    flags = prime_flags(m * N + b)
    ratios = [Fraction(c) for c in inp["f"]]
    L = math.lcm(*(r.denominator for r in ratios))
    nums = [r.numerator * (L // r.denominator) for r in ratios]
    terms, weight = [], 0.0
    with mpmath.workdps(20):
        for n in range(1, N + 1):
            v = m * n + b
            if flags[v]:
                lam = mpmath.log(v)
                weight += float(lam)
                phase = horner(nums, n, L)
                terms.append(lam * mpmath.expjpi(2 * mpmath.mpf(phase) / L))
        total = mpmath.fsum(terms)
        return complex(float(total.real), float(total.imag)), weight


def _search_result_problems(sweep, out, N, prog=None) -> list[str]:
    p, values = out["p"], out["values"]
    bad = []
    if not (sympy.isprime(p) and p <= N):
        bad.append(f"p = {p} is not a prime <= {N}")
        return bad
    if prog is not None and p % prog[0] != prog[1] % prog[0]:
        bad.append(f"p = {p} is not {prog[1]} mod {prog[0]}")
    if values != sweep.values(p):
        bad.append(f"values at p = {p} differ from the exact recomputation")
    if out["max_frac"] != max(values):
        bad.append("max_frac is not the maximum of the values")
    return bad


def _search_problems(inp, prep, rep) -> list[tuple]:
    sweep = prep["sweep"]
    N, d = inp["N"], inp["d"]
    search, prog, fit, expsum = rep["outputs"]
    bad = []

    def add(i, msgs):
        bad.extend((i, msg) for msg in msgs)

    for i, out in enumerate(rep["outputs"]):
        if "error" in out:
            add(i, [out["error"]])
    if "error" not in search:
        add(0, _search_result_problems(sweep, search, N))
        if (search["max_frac"], search["p"]) != sweep.best:
            add(0, [f"minimum {search['max_frac']!r} at {search['p']}, "
                    f"naive sweep {sweep.best}"])
    if "error" not in prog:
        r = prog["r_d"]
        if not (-d < r <= 0 and math.gcd(r, d) == 1) or any(
                horner(cs, r, d) for cs in sweep.cs):
            add(1, [f"r_{d} = {r} is not a coprime common root mod {d}"])
        else:
            add(1, _search_result_problems(sweep, prog, N, (d, r)))
            if (prog["max_frac"], prog["p"]) != sweep.by_class.get(r % d):
                add(1, [f"progression minimum at {prog['p']}, naive sweep "
                        f"{sweep.by_class.get(r % d)}"])
    if "error" not in fit:
        want = [[n, sweep.prefix[n][0]] for n in inp["Ns"]]
        if fit["points"] != want:
            add(2, [f"theta_fit points {fit['points']}, prefix minima {want}"])
    if "error" not in expsum:
        ref, weight = prep["expsum"]
        err = abs(complex(expsum["re"], expsum["im"]) - ref)
        if err > EXPSUM_RTOL * weight:
            add(3, [f"exp_sum off the mpmath reference by {err:.3g}"])
    return bad


# -- entry points --------------------------------------------------------------


def prepare(workload: str, inp: dict) -> dict:
    """Reference data for problems(), computed once per invocation."""
    if workload == "check":
        return {"cases": [_check_case(c) for c in inp["calls"]], "memo": {}}
    if workload == "rd":
        return {"family": [coefficients(e) for e in inp["exprs"]],
                "factors": {d: sympy.primefactors(d) for d in range(1, inp["D"] + 1)}}
    return {"sweep": _Sweep(inp), "expsum": _expsum_reference(inp)}


def problems(workload: str, inp: dict, prep: dict, rep: dict) -> list[tuple]:
    """(call, message) for every failed check of one repetition's outputs."""
    if workload == "check":
        return [(i, msg)
                for i, (call, case, out) in enumerate(zip(inp["calls"], prep["cases"],
                                                          rep["outputs"]))
                for msg in _check_call(call, case, out, prep["memo"])]
    if workload == "rd":
        return _rd_problems(inp, prep, rep)
    return _search_problems(inp, prep, rep)
