"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts. Every tolerance and runtime budget is
asserted, not just reported.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from intersective import (
    IntPoly,
    RootCache,
    WeightSpec,
    RealPoly,
    exp_sum,
    lift_roots,
    make_rd,
    montgomery_witness,
    roots_mod_q,
    search_min_frac,
    theta_fit,
    weyl_bound_eval,
)
from intersective.cli import main

from helpers import naive_min_frac_search, scan_values_mod, weight_terms

X = IntPoly.x()
P_CUBIC = (X ** 3 - 19) * (X ** 2 + X + 1)
P_QUADS = (X ** 2 - 13) * (X ** 2 - 17) * (X ** 2 - 221)
P_FIRST_ONLY = (X ** 4 - 5 * X ** 2 + X + 4) * (X ** 3 - 10 * X ** 2 + 9 * X - 1)


def _cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_delta_reproduction(capsys):
    t0 = time.time()
    code, doc = _cli_json(capsys, "delta", "x^3-19", "x^2+x+1")
    assert code == 0
    assert abs(int(doc["delta"])) == 29241 == 3 ** 4 * 19 ** 2
    code, doc = _cli_json(capsys, "delta", "x^2-13", "x^2-17", "x^2-221")
    assert code == 0
    assert abs(int(doc["delta"])) == 2 ** 6 * 13 ** 2 * 17 ** 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: delta values 3^4*19^2 and 2^6*13^2*17^2 "
          f"reproduced in {elapsed:.3f}s")


def test_criterion_2_second_kind_certification(capsys):
    t0 = time.time()
    code, doc = _cli_json(capsys, "check", "--kind", "second",
                          "--bound", "10000", "(x^3-19)*(x^2+x+1)")
    t1 = time.time() - t0
    assert code == 0 and doc["status"] == "certified_up_to"
    ws = {w["p"]: w for w in doc["witnesses"]}
    assert {3, 19} <= set(ws)
    assert all(w["unit"] for w in ws.values())
    assert t1 < 10.0

    t0 = time.time()
    code, doc = _cli_json(capsys, "check", "--kind", "second",
                          "--bound", "10000",
                          "(x^2-13)*(x^2-17)*(x^2-221)")
    t2 = time.time() - t0
    assert code == 0 and doc["status"] == "certified_up_to"
    ws = {w["p"]: w for w in doc["witnesses"]}
    assert {2, 13, 17} <= set(ws)
    assert all(w["unit"] for w in ws.values())
    assert t2 < 10.0

    t0 = time.time()
    code, doc = _cli_json(capsys, "check", "--kind", "second",
                          "--bound", "10000",
                          "(x^4-5*x^2+x+4)*(x^3-10*x^2+9*x-1)")
    t3 = time.time() - t0
    assert code == 1 and doc["status"] == "fails" and doc["prime"] == 2
    assert doc["witnesses"] == []
    # the witnessless certificate: P(1) = 1 mod 2, so no odd residue works
    assert P_FIRST_ONLY.eval(1) % 2 == 1
    assert "P(1) = 1 mod 2" in doc["reason"]
    assert t3 < 10.0
    print(f"\nACCEPTANCE 2 PASS: second-kind certifications "
          f"({t1:.2f}s, {t2:.2f}s) and conclusive failure at 2 ({t3:.2f}s)")


def test_criterion_3_joint_condition(capsys):
    t0 = time.time()
    code, doc = _cli_json(capsys, "condition", "--l", "2",
                          "(x^3-19)*(x^2+x+1)", "x*(x^3-19)*(x^2+x+1)")
    elapsed = time.time() - t0
    assert code == 0 and doc["status"] == "certified_up_to"
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: joint condition certified for the "
          f"cubic-family pair in {elapsed:.2f}s")


def test_criterion_4_19_cubed_witness():
    rs = lift_roots(X ** 2 + X + 1, 19, 3)
    assert rs
    for r in rs:
        assert (r * r + r + 1) % 6859 == 0
        assert math.gcd(r, 19) == 1
    # exhaustive verification over [0, 19^3)
    full = {r for r in range(6859) if (r * r + r + 1) % 6859 == 0}
    assert rs == full
    print(f"\nACCEPTANCE 4 PASS: x^2+x+1 = 0 mod 19^3 has solutions {sorted(rs)}, "
          f"all coprime to 19, matching the full scan")


def test_criterion_5_modular_root_oracle():
    t0 = time.time()
    rng = random.Random(50031)
    checked = 0
    for _ in range(500):
        deg = rng.randint(1, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)]
        coeffs.append(rng.choice((1, -1)) * rng.randint(1, 9))
        P = IntPoly(coeffs)
        values = np.array([P.eval(n) for n in range(2000)], dtype=np.int64)
        for q in range(1, 2001):
            got = sorted(roots_mod_q(P, q))
            want = [0] if q == 1 else scan_values_mod(values, q)
            assert got == want, (P, q)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: {checked} (poly, q) pairs match the direct "
          f"scan with zero mismatches in {elapsed:.1f}s")


def test_criterion_6_rd_coherence(tmp_path):
    t0 = time.time()
    path = tmp_path / "roots.txt"
    cache = RootCache(path)
    rds = {}
    for d in range(1, 2001):
        rec = make_rd([P_CUBIC], d, cache)
        rds[d] = rec.r_d
        assert -d < rec.r_d <= 0
        assert math.gcd(rec.r_d, d) == 1
        assert P_CUBIC.eval(rec.r_d) % d == 0
    for d in range(1, 2001):
        for dq in range(d, 2001, d):
            assert rds[dq] % d == rds[d] % d
    # deleting the cache reproduces identical residues
    path.unlink()
    cache2 = RootCache(path)
    for d in (2, 3, 19, 57, 361, 1024, 1995, 2000):
        assert make_rd([P_CUBIC], d, cache2).r_d == rds[d]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: r_d invariants and divisor coherence hold for "
          f"all d <= 2000 and survive a cache rebuild ({elapsed:.1f}s)")


def test_criterion_7_nice_system_suite():
    from intersective import nice_transform
    rng = random.Random(70707)
    checked = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        degs = sorted(rng.sample(range(7), k))
        fs = []
        for deg in degs:
            cs = [rng.randint(-9, 9) for _ in range(deg)]
            cs.append(rng.choice((1, -1)) * rng.randint(1, 9))
            fs.append(IntPoly(cs))
        d = rng.randint(1, 10)
        r = rng.randint(-10, 10)
        ns = nice_transform(fs, d, r)
        subs = [f.compose_linear(d, r) for f in fs]
        # (1) exact identity T (f_i(dx+r)) = (g_i)
        for i in range(k):
            acc = IntPoly(())
            for j in range(k):
                acc = acc + subs[j] * ns.T[i][j]
            assert acc == ns.g[i]
        # (2) lower triangular integer T with constant diagonal
        for i in range(k):
            assert ns.T[i][i] == ns.c != 0
            for j in range(i + 1, k):
                assert ns.T[i][j] == 0
        # (3) nice system with lead(g_i) = c d^(deg f_i) lead(f_i)
        gdegs = [int(g.degree) for g in ns.g]
        assert gdegs == sorted(set(gdegs))
        for i in range(k):
            assert ns.g[i].lead == ns.c * d ** int(fs[i].degree) * fs[i].lead
            for j in range(k):
                if j != i:
                    assert ns.g[j].coeff(gdegs[i]) == 0
        checked += 1
    assert checked == 200
    print("\nACCEPTANCE 7 PASS: 200 random systems satisfy the transform "
          "properties (1)-(3) as exact polynomial identities, zero failures")


def test_criterion_8_montgomery_separation_bound():
    rng = random.Random(80808)
    for _ in range(1000):
        m = rng.randint(1, 50)
        n = rng.randint(1, 500)
        lo, hi = 1.0 / m, 1.0 - 1.0 / m
        if lo > hi:
            m = 2
            lo, hi = 0.5, 0.5
        xs = [rng.uniform(lo, hi) for _ in range(n)]
        cs = [rng.uniform(0.0, 3.0) for _ in range(n)]
        t, mag = montgomery_witness(xs, cs, m)
        assert 1 <= t <= m
        assert mag >= sum(cs) / (6.0 * m)
    print("\nACCEPTANCE 8 PASS: 1000 randomized instances all admit a witness "
          "t with |S_t| >= (sum c)/(6M), zero failures")


def test_criterion_9_search_oracle_and_decay():
    t0 = time.time()
    rng = random.Random(90909)
    for _ in range(100):
        k = rng.randint(1, 3)
        l = rng.randint(1, 3)
        hs = [IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                      + [rng.choice((1, -1)) * rng.randint(1, 9)])
              for _ in range(k)]
        A = [[rng.uniform(-4, 4) for _ in range(k)] for _ in range(l)]
        n = rng.randint(10, 10 ** 4)
        res = search_min_frac(hs, A, n)
        mf, p, vals = naive_min_frac_search(hs, A, n)
        assert res.p == p  # bit-identical prime choice
        assert abs(res.max_frac - mf) < 1e-12
    fit = theta_fit([X ** 2], [[math.sqrt(2)]], [2 ** j for j in range(10, 17)])
    assert fit.slope < -0.05
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 9 PASS: 100 searches match the reference loop "
          f"bit-for-bit; decay slope {fit.slope:.3f} < -0.05 ({elapsed:.1f}s)")


def test_criterion_10_exponential_sum_sanity():
    rng = random.Random(101010)
    for _ in range(100):
        m = rng.randint(1, 8)
        b = rng.choice([t for t in range(m) if math.gcd(t, m) == 1])
        w = WeightSpec(m, b)
        n = rng.randint(10, 3000)
        f = RealPoly([rng.uniform(-3, 3) for _ in range(rng.randint(1, 5))])
        s = exp_sum(f, w, 1, n)
        wsum = math.fsum(lam for _, lam in weight_terms(m, b, 1, n))
        assert abs(s) <= wsum + 1e-9
    # integer coefficients: pure real up to 1e-9 relative
    w = WeightSpec(1, 0)
    for coeffs in ([1.0, -2.0, 3.0], [0.0, 7.0], [5.0, 0.0, 0.0, -11.0]):
        n = 5000
        s = exp_sum(RealPoly(coeffs), w, 1, n)
        wsum = math.fsum(lam for _, lam in weight_terms(1, 0, 1, n))
        assert abs(s.imag) < 1e-9 * wsum

    # bound formulas agree with hand-computed evaluations
    big = 10 ** 4
    assert weyl_bound_eval(2, big, big, 1, 0.0) == pytest.approx(
        big * (2.0 / big + big ** -0.5) ** 0.25)
    assert weyl_bound_eval(1, 1, big, 1, 0.0) == pytest.approx(
        big * math.log(big) ** 4 * (1.0 + big ** -0.2 + big ** -0.5))
    assert weyl_bound_eval(3, big ** 1.5, big, 1, 0.0) == pytest.approx(
        big * (2.0 * big ** -1.5 + big ** -0.5) ** (1.0 / 16.0))
    print("\nACCEPTANCE 10 PASS: |exp sum| <= weight sum on 100 instances, "
          "integer phases real to 1e-9, bound formulas match hand values")
