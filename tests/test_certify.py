import json
import math
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective import (
    IntPoly,
    NoSecondKindRootError,
    RootCache,
    check_intersective,
    check_joint,
    check_theorem_condition,
    make_rd,
)
from intersective.cli import main

from helpers import scan_roots

X = IntPoly.x()
P_CUBIC = (X ** 3 - 19) * (X ** 2 + X + 1)
P_QUADS = (X ** 2 - 13) * (X ** 2 - 17) * (X ** 2 - 221)
P_FIRST_ONLY = (X ** 4 - 5 * X ** 2 + X + 4) * (X ** 3 - 10 * X ** 2 + 9 * X - 1)


class TestCheckIntersective:
    def test_cubic_certified_second_kind(self):
        v = check_intersective(P_CUBIC, "second", 10 ** 4)
        assert v.certified and v.scan_bound == 10 ** 4
        assert {3, 19} <= set(v.ramified_witnesses)
        for p, root in v.ramified_witnesses.items():
            assert root.unit

    def test_quads_certified_second_kind(self):
        v = check_intersective(P_QUADS, "second", 10 ** 4)
        assert v.certified
        assert {2, 13, 17} <= set(v.ramified_witnesses)
        assert all(root.unit for root in v.ramified_witnesses.values())

    def test_first_kind_only_poly_fails_at_two(self):
        v = check_intersective(P_FIRST_ONLY, "second", 100)
        assert v.status == "fails" and v.prime == 2
        assert "P(1) = 1 mod 2" in v.reason
        # the witnessless certificate: every odd residue is 1 mod 2 and
        # P(1) is odd, so no unit root exists at any precision
        assert P_FIRST_ONLY.eval(1) % 2 == 1

    def test_first_kind_only_poly_certified_first_kind(self):
        v = check_intersective(P_FIRST_ONLY, "first", 2000)
        assert v.certified

    def test_witness_soundness(self):
        for P in (P_CUBIC, P_QUADS):
            v = check_intersective(P, "second", 1000)
            for p, root in v.ramified_witnesses.items():
                assert P.eval(root.r) % p ** root.k == 0
                assert (root.r % p != 0) == root.unit
                assert root.unit

    def test_failure_soundness_full_scan(self):
        from intersective import resultant, squarefree_part, valuation
        v = check_intersective(P_FIRST_ONLY, "second", 100)
        p = v.prime
        pstar = squarefree_part(P_FIRST_ONLY)
        beta = valuation(abs(resultant(pstar, pstar.derivative())), p)
        level = 2 * beta + 1
        assert p ** level <= 10 ** 7
        roots = scan_roots(pstar, p ** level)
        assert [r for r in roots if r % p != 0] == []

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="nonconstant"):
            check_intersective(IntPoly((3,)))

    def test_content_recorded(self):
        v = check_intersective(6 * (X - 1), "second", 50)
        assert v.certified and v.content_removed == 6

    def test_no_root_unramified_prime_fails(self):
        # (x^2-13)(x^2-17) passes at its ramified primes {2, 13, 17} but has
        # no root mod 5, and 5 does not divide the effective resultant
        P = (X ** 2 - 13) * (X ** 2 - 17)
        v = check_intersective(P, "first", 50)
        assert v.status == "fails" and v.prime == 5
        assert "unramified" in v.reason

    def test_x_factor_does_not_fake_unit_roots(self, capsys):
        # 0 is a root of x*(x^2-13)(x^2-17) mod everything, but the unit
        # roots mod 5 are the roots of the cofactor, and there are none;
        # the reason names unit roots, and keeps "no root" without the x
        Q = (X ** 2 - 13) * (X ** 2 - 17)
        v = check_intersective(X * Q, "second", 50)
        assert v.reason == "no unit root mod 5 (unramified prime)"
        v = check_intersective(Q, "second", 50)
        assert v.reason == "no root mod 5 (unramified prime)"
        # first kind is fine: 0 works at every unramified prime
        assert check_intersective(X * Q, "first", 50).certified
        expr = "x*(x^2+23)*(x^2-3)"
        assert main(["check", "--kind", "second", "--bound", "100", expr]) == 1
        assert json.loads(capsys.readouterr().out)["reason"] == \
            "no unit root mod 5 (unramified prime)"
        assert main(["roots", "--q", "5", expr]) == 0
        assert json.loads(capsys.readouterr().out)["roots"] == ["0"]

    def test_x_times_second_kind_poly_still_certifies(self):
        v = check_intersective(X * P_CUBIC, "second", 1000)
        assert v.certified
        assert all(root.unit for root in v.ramified_witnesses.values())

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="at least 0"):
            check_intersective(X - 1, "second", -5)
        with pytest.raises(ValueError, match="at least 0"):
            check_joint([X, X + 1], "second", -1)
        with pytest.raises(ValueError, match="at least 0"):
            check_theorem_condition([X - 1, X ** 2 - 1], 2, -5)

    def test_bounds_zero_and_one_certify_ramified_primes_only(self):
        # 5 is unramified and neither 33 nor 97 is a square mod 5
        P = (X ** 2 - 33) * (X ** 2 - 97)
        assert check_intersective(P, "first", 5).prime == 5
        for bound in (0, 1):
            v = check_intersective(P, "first", bound)
            assert v.certified and v.scan_bound == bound
            assert set(v.ramified_witnesses) == {2, 3, 11, 97}

    def test_pure_power_of_x_fails_second_kind(self):
        v = check_intersective(X ** 3, "second", 50)
        assert v.status == "fails"
        assert check_intersective(X ** 3, "first", 50).certified


class TestCheckJoint:
    def test_cubic_family(self):
        v = check_joint([P_CUBIC, X * P_CUBIC], "second", 10 ** 4)
        assert v.certified

    def test_gcd_with_root_one(self):
        v = check_joint([X - 1, X ** 2 - 1], "second", 100)
        assert v.certified

    def test_coprime_family_fails(self):
        v = check_joint([X, X + 1], "second", 100)
        assert v.status == "fails"
        assert v.reason == "gcd is constant"

    def test_unknown_kind_rejected_before_gcd(self):
        # the gcd of this family is constant, so no per-polynomial check runs
        with pytest.raises(ValueError, match="kind"):
            check_joint([X ** 2 + 1, X], kind="bogus")

    def test_matches_gcd_check_on_random_multiples(self):
        rng = random.Random(424242)
        base = X - 1  # second-kind intersective
        for _ in range(20):
            mults = [base * IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
                                    + [rng.randint(1, 5)])
                     for _ in range(rng.randint(1, 3))]
            joint = check_joint(mults, "second", 200)
            from intersective import gcd_primitive
            direct = check_intersective(gcd_primitive(mults), "second", 200)
            assert joint.status == direct.status


class TestTheoremCondition:
    def test_cubic_family_pair_l2(self):
        v = check_theorem_condition([P_CUBIC, X * P_CUBIC], 2, 10 ** 4)
        assert v.certified
        assert "equivalent" in v.note

    def test_l1_sufficient_only(self):
        v = check_theorem_condition([X - 1, X ** 2 - 1], 1, 100)
        assert v.certified
        assert "sufficient only" in v.note

    def test_coprime_pair_fails(self):
        v = check_theorem_condition([X, X + 2], 2, 100)
        assert v.status == "fails"

    def test_bad_l(self):
        with pytest.raises(ValueError):
            check_theorem_condition([X], 0)


class TestMakeRd:
    def test_r3_of_cubic_example(self):
        rec = make_rd([P_CUBIC], 3)
        assert rec.r_d == -2
        assert P_CUBIC.eval(-2) % 3 == 0

    def test_root_one_family(self):
        hs = [X - 1, (X - 1) * (X + 4)]
        for d in (2, 5, 12, 100):
            assert make_rd(hs, d).r_d == 1 - d
        assert make_rd(hs, 1).r_d == 0

    def test_divisor_coherence(self):
        cache = RootCache()
        r9 = make_rd([P_CUBIC], 9, cache)
        r3 = make_rd([P_CUBIC], 3, cache)
        assert r9.r_d % 3 == r3.r_d % 3

    def test_contract_small_range(self):
        cache = RootCache()
        rds = {}
        for d in range(1, 201):
            rec = make_rd([P_CUBIC], d, cache)
            rds[d] = rec.r_d
            assert -d < rec.r_d <= 0
            assert math.gcd(rec.r_d, d) == 1
            assert P_CUBIC.eval(rec.r_d) % d == 0
        for d in range(1, 201):
            for dq in range(d, 201, d):
                assert rds[dq] % d == rds[d] % d

    def test_error_names_prime(self):
        with pytest.raises(NoSecondKindRootError) as exc:
            make_rd([X ** 2 + 1], 3)
        assert exc.value.prime == 3
        with pytest.raises(NoSecondKindRootError):
            make_rd([X, X + 1], 6)

    def test_cache_reuse_is_idempotent(self, tmp_path):
        path = tmp_path / "roots.txt"
        first = {d: make_rd([P_CUBIC], d, RootCache(path)).r_d
                 for d in (3, 9, 27, 57, 171)}
        # a fresh cache object over the same file reproduces everything
        cache2 = RootCache(path)
        for d, r in first.items():
            assert make_rd([P_CUBIC], d, cache2).r_d == r


class TestRootCache:
    def test_round_trip(self, tmp_path):
        from intersective import certify_padic_root, squarefree_part
        path = tmp_path / "cache.txt"
        gstar = squarefree_part(P_CUBIC)
        root = certify_padic_root(gstar, 19, "second")
        cache = RootCache(path)
        cache.put(gstar, 19, root)
        reloaded = RootCache(path).get(gstar, 19)
        assert reloaded == root

    def test_extension_only(self, tmp_path):
        from intersective import PadicRoot
        path = tmp_path / "cache.txt"
        cache = RootCache(path)
        P = X ** 2 + X + 1
        low = PadicRoot.for_poly(P, 19, 1, 7)
        cache.put(P, 19, low)
        # same residue class at higher precision extends
        from intersective import newton_lift
        high = newton_lift(P, low, 3)
        cache.put(P, 19, high)
        assert cache.get(P, 19).k == 3
        # putting a lower precision back is a no-op
        cache.put(P, 19, low)
        assert cache.get(P, 19).k == 3
        # a different residue class is refused
        other = PadicRoot.for_poly(P, 19, 1, 11)
        with pytest.raises(ValueError, match="residue class"):
            cache.put(P, 19, PadicRoot.for_poly(P, 19, 4, _lift_to(P, 11, 4)))

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "roots.txt"
        ds = (3, 9, 57, 171, 361)
        want = {d: make_rd([P_CUBIC], d, RootCache(path)).r_d for d in ds}
        valid = path.read_text()
        torn = valid.splitlines()[-1][:-3]
        path.write_text(valid + "deadbeef 19 1\n" + "not a cache line\n"
                        + "abc 19 x 7 1\n" + torn + "\n")
        cache = RootCache(path)
        assert {d: make_rd([P_CUBIC], d, cache).r_d for d in ds} == want

    def test_memory_only_cache(self):
        cache = RootCache()
        rec = make_rd([P_CUBIC], 19, cache)
        assert rec.roots[19].k >= 1

    @staticmethod
    def _written(path, ds=(3, 9, 57, 171, 361)):
        """A cache file holding the roots make_rd writes for P_CUBIC, and
        the polynomial they belong to."""
        from intersective import squarefree_part
        for d in ds:
            make_rd([P_CUBIC], d, RootCache(path))
        return squarefree_part(P_CUBIC)

    def test_entry_checked_once_per_object(self, tmp_path, monkeypatch):
        from intersective.modroots import PadicRoot
        path = tmp_path / "roots.txt"
        gstar = self._written(path)
        calls = []
        for_poly = PadicRoot.for_poly.__func__

        def counted(cls, *args):
            calls.append(args[1])
            return for_poly(cls, *args)

        monkeypatch.setattr(PadicRoot, "for_poly", classmethod(counted))
        cache = RootCache(path)
        first = [cache.get(gstar, p) for p in (3, 19)]
        assert all(cache.get(gstar, p) is r for p, r in zip((3, 19), first))
        assert sorted(calls) == [3, 19]
        assert RootCache(path).get(gstar, 19) == first[1]
        assert sorted(calls) == [3, 19, 19]

    def test_damaged_root_rejected_after_memory_hits(self, tmp_path):
        from intersective.cache import poly_key
        path = tmp_path / "roots.txt"
        gstar = self._written(path)
        r = next(r for r in range(1, 3 ** 3) if gstar.eval(r) % 27)
        with path.open("a") as fh:
            fh.write(f"{poly_key(gstar)} 3 3 {r} 1\n")
        cache = RootCache(path)
        assert cache.get(gstar, 19) is cache.get(gstar, 19)
        with pytest.raises(ValueError, match="not a root"):
            cache.get(gstar, 3)

    def test_flipped_unit_flag_rejected(self, tmp_path):
        path = tmp_path / "roots.txt"
        gstar = self._written(path)
        lines = path.read_text().splitlines()
        last = next(line for line in reversed(lines) if line.split()[1] == "19")
        path.write_text(path.read_text() + last[:-1] + "0\n")
        cache = RootCache(path)
        assert cache.get(gstar, 3) is not None
        with pytest.raises(ValueError, match="inconsistent"):
            cache.get(gstar, 19)

    def test_damaged_entry_cli_exit_2(self, tmp_path, capsys):
        from intersective.cache import poly_key
        from intersective.cli import main
        path = tmp_path / "roots.txt"
        gstar = self._written(path)
        path.write_text(path.read_text() + f"{poly_key(gstar)} 19 1 2 1\n")
        code = main(["rd", "--d", "57", "--cache", str(path),
                     "(x^3-19)*(x^2+x+1)"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not a root" in err
        assert "Traceback" not in err

    def test_hash_collision_never_shares_a_root(self, tmp_path, monkeypatch):
        from intersective import cache as cache_mod
        from intersective import certify_padic_root
        monkeypatch.setattr(cache_mod, "poly_key", lambda P: "0")
        path = tmp_path / "roots.txt"
        P, Q = X ** 2 + X + 1, X ** 2 - 2
        root = certify_padic_root(P, 7, "second")
        assert Q.eval(root.r) % 7
        cache = RootCache(path)
        cache.put(P, 7, root)
        assert cache.get(P, 7) == root
        with pytest.raises(ValueError, match="not a root"):
            cache.get(Q, 7)
        reloaded = RootCache(path)
        assert reloaded.get(P, 7) == root
        with pytest.raises(ValueError, match="not a root"):
            reloaded.get(Q, 7)

    def test_memory_follows_precision(self, tmp_path):
        from intersective import PadicRoot, newton_lift
        path = tmp_path / "roots.txt"
        P = X ** 2 + X + 1
        RootCache(path).put(P, 19, PadicRoot.for_poly(P, 19, 1, 7))
        cache = RootCache(path)
        low = cache.get(P, 19)
        assert low.k == 1
        high = newton_lift(P, low, 4)
        cache.put(P, 19, high)
        assert cache.get(P, 19) == high
        on_disk = path.read_text()
        cache.put(P, 19, newton_lift(P, low, 2))
        assert cache.get(P, 19) == high
        with pytest.raises(ValueError, match="residue class"):
            cache.put(P, 19, PadicRoot.for_poly(P, 19, 5, _lift_to(P, 11, 5)))
        assert cache.get(P, 19) == high
        assert path.read_text() == on_disk
        assert RootCache(path).get(P, 19) == high

    def test_put_creates_missing_directory(self, tmp_path):
        from intersective import PadicRoot
        path = tmp_path / "a" / "b" / "roots.txt"
        P = X ** 2 + X + 1
        root = PadicRoot.for_poly(P, 19, 1, 7)
        RootCache(path).put(P, 19, root)
        assert RootCache(path).get(P, 19) == root

    def test_put_recreates_removed_directory(self, tmp_path):
        from intersective import PadicRoot
        path = tmp_path / "d" / "roots.txt"
        P = X ** 2 + X + 1
        cache = RootCache(path)
        cache.put(P, 19, PadicRoot.for_poly(P, 19, 1, 7))
        assert len(path.read_text().splitlines()) == 1
        shutil.rmtree(path.parent)
        root = PadicRoot.for_poly(P, 7, 1, 2)
        cache.put(P, 7, root)
        assert len(path.read_text().splitlines()) == 1
        cache.put(P, 13, PadicRoot.for_poly(P, 13, 1, 3))
        assert len(path.read_text().splitlines()) == 2
        reloaded = RootCache(path)
        assert reloaded.get(P, 7) == root and reloaded.get(P, 19) is None

    def test_each_put_appends_one_line_that_reads_back(self, tmp_path):
        from intersective import PadicRoot, newton_lift
        from intersective.cache import poly_key
        path = tmp_path / "new" / "roots.txt"
        P = X ** 2 + X + 1
        low = PadicRoot.for_poly(P, 19, 1, 7)
        puts = [(19, low), (7, PadicRoot.for_poly(P, 7, 1, 2)),
                (19, newton_lift(P, low, 3))]
        cache = RootCache(path)
        want = b""
        for p, root in puts:
            cache.put(P, p, root)
            want += f"{poly_key(P)} {p} {root.k} {root.r} {int(root.unit)}\n".encode()
            assert path.read_bytes() == want
            reloaded = RootCache(path)  # a restart sees every line so far
            assert reloaded.get(P, p) == root
        assert RootCache(path).get(P, 19).k == 3
        # created with the permissions open(path, "a") would give it
        reference = tmp_path / "reference"
        reference.open("a").close()
        assert path.stat().st_mode == reference.stat().st_mode

    def test_put_closes_its_descriptor(self, tmp_path, monkeypatch):
        import os
        from intersective import PadicRoot
        from intersective import cache as cache_mod
        opened = []
        real_open = os.open

        def recording_open(*args):
            opened.append(real_open(*args))
            return opened[-1]

        monkeypatch.setattr(cache_mod.os, "open", recording_open)
        P = X ** 2 + X + 1
        cache = RootCache(tmp_path / "roots.txt")
        cache.put(P, 19, PadicRoot.for_poly(P, 19, 1, 7))
        with monkeypatch.context() as m:
            m.setattr(cache_mod.os, "write", lambda fd, data: len(data) - 1)
            with pytest.raises(ValueError, match="cannot write cache .*short"):
                cache.put(P, 7, PadicRoot.for_poly(P, 7, 1, 2))
        assert len(opened) == 2
        for fd in opened:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_write_order_file_bytes(self, tmp_path):
        """The file make_rd writes for a seeded order of d = 1..400 on
        {P, xP}, as the bench's rd write pass does, has fixed bytes."""
        import hashlib
        order = list(range(1, 401))
        random.Random("rd:0").shuffle(order)
        path = tmp_path / "roots.txt"
        cache = RootCache(path)
        for d in order:
            make_rd([P_CUBIC, X * P_CUBIC], d, cache)
        data = path.read_bytes()
        assert (len(data), data.count(b"\n")) == (2360, 85)
        assert hashlib.sha256(data).hexdigest() == (
            "9c8e254ccb71d7164d3defbbe321012b8a0dded10c4e2b48a8c74e0b650f721f")

    def test_poly_key_memo_is_bounded(self):
        from intersective.cache import poly_key
        bound = poly_key.cache_info().maxsize
        assert bound is not None
        for n in range(10_000):
            poly_key(X ** 2 + n)
        assert poly_key.cache_info().currsize == bound


def _lift_to(P, r0, k):
    from intersective import lift_roots
    return next(r for r in lift_roots(P, 19, k) if r % 19 == r0)


D_MAX = 120


@st.composite
def unit_root_families(draw):
    """Families {P, (x - c) P} with P a product of linear factors (x - a)^m
    whose roots a have gcd 1, so that P has a unit root at every prime, and
    a random order of the moduli 1..D_MAX."""
    roots = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=4)
                 .filter(lambda a: math.gcd(*a) == 1))
    P = IntPoly((1,))
    for a in roots:
        P = P * (X - a) ** draw(st.integers(1, 2))
    c = draw(st.integers(-60, 60))
    order = draw(st.permutations(range(1, D_MAX + 1)))
    return [P, (X - c) * P], order


class TestRdCoherence:
    @settings(max_examples=25, deadline=None)
    @given(unit_root_families())
    def test_coherent_coprime_roots_fresh_and_reloaded(self, case):
        hs, order = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "roots.txt"
            cache = RootCache(path)
            fresh = {d: make_rd(hs, d, cache).r_d for d in order}
            reloaded = RootCache(path)
            again = {d: make_rd(hs, d, reloaded).r_d for d in reversed(order)}
        assert again == fresh
        for d, r in fresh.items():
            assert -d < r <= 0 and math.gcd(r, d) == 1
            for P in hs:
                assert r % d in scan_roots(P, d)
            for q in range(2, D_MAX // d + 1):
                assert fresh[d * q] % d == r % d
