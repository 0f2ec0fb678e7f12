import contextlib
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from intersective import IntPoly, ParseError, arith, parse_factors, parse_poly
from intersective.cli import main

from helpers import scan_roots
from test_readme import EXAMPLES

X = IntPoly.x()


class TestParsePoly:
    def test_factored_product(self):
        p = parse_poly("(x^3-19)*(x^2+x+1)")
        assert p == X ** 5 + X ** 4 + X ** 3 - 19 * X ** 2 - 19 * X - 19

    def test_variable(self):
        assert parse_poly("x") == X

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="position"):
            parse_poly("x^-1")

    def test_non_integer_literal_rejected(self):
        with pytest.raises(ParseError, match="non-integer"):
            parse_poly("1.5*x")

    def test_huge_exponent_rejected(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_poly("x^65")
        parse_poly("x^64")

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x + $")
        assert exc.value.position == 5

    def test_unary_minus(self):
        assert parse_poly("-x - 1") == -X - 1
        assert parse_poly("3*(-x+2)") == -3 * X + 6

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("   ")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_poly("(x+1")
        with pytest.raises(ParseError):
            parse_poly("x+1)")

    def test_print_parse_fixed_point(self):
        import random
        rng = random.Random(8)
        for _ in range(100):
            p = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(0, 7))])
            text = str(p)
            again = parse_poly(text)
            assert again == p
            assert str(again) == text

    def test_degree_beyond_cap_rejected(self):
        assert parse_poly("(x^32)^32").degree == 1024
        for text in ("((x+1)^64)^64", "(x^64)^16*x"):
            with pytest.raises(ParseError, match="exceeds 1024"):
                parse_poly(text)

    def test_nesting_cap(self):
        assert parse_poly("(" * 100 + "x" + ")" * 100) == X
        with pytest.raises(ParseError, match="deeper than 100") as exc:
            parse_poly("(" * 300 + "x" + ")" * 300)
        assert exc.value.position == 101


# expressions of the grammar: a leading unary minus on any (sub)expression,
# sums, products, and powers of integers, x and parenthesized expressions
expressions = st.deferred(lambda: st.builds(
    lambda neg, terms, ops: ("-" if neg else "") + terms[0] + "".join(
        op + t for op, t in zip(ops, terms[1:])),
    st.booleans(),
    st.lists(st.lists(factors, min_size=1, max_size=3).map("*".join),
             min_size=1, max_size=3),
    st.lists(st.sampled_from("+-"), min_size=2, max_size=2)))
primaries = st.one_of(st.just("x"), st.integers(0, 30).map(str),
                      expressions.map("({})".format))
factors = st.builds(lambda base, k: base if k is None else f"{base}^{k}",
                    primaries, st.one_of(st.none(), st.integers(0, 3)))
token_soup = st.lists(st.sampled_from(
    ["x", "0", "2", "13", "64", "65", "+", "-", "*", "^", "(", ")", " ",
     "x^64", "(x^32)", "^16", "$", "."]), max_size=12).map("".join)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


class TestParseFactors:
    @settings(max_examples=100, deadline=None)
    @given(expressions)
    def test_product_is_the_expression(self, text):
        fs = parse_factors(text)
        P = parse_poly(text)
        assert math.prod(fs, start=IntPoly((1,))) == P
        # Python's grammar over sympy's dense polynomial arithmetic:
        # sympify expands nested powers symbolically, which took from
        # seconds to minutes on some drawn expressions
        x = sympy.symbols("x")
        want = sympy.Poly(eval(text.replace("^", "**"),
                               {"__builtins__": {}, "x": sympy.Poly(x)}), x)
        assert P == IntPoly([int(c) for c in reversed(want.all_coeffs())])

    @settings(max_examples=500, deadline=None)
    @given(token_soup)
    def test_errors_keep_message_and_position(self, text):
        got = outcome(parse_factors, text)
        if isinstance(got, list):
            got = math.prod(got, start=IntPoly((1,)))
        assert got == outcome(parse_poly, text)

    @pytest.mark.parametrize("text,message", [
        ("x^65", "exponent exceeds 64 at position 3"),
        ("(x^64)^16*x", "degree exceeds 1024 at position 10"),
        ("(x+1", "expected ')' at position 5"),
        ("x+1)", "unexpected trailing input at position 4"),
        ("  ", "empty expression at position 1"),
        ("x^-1", "exponent must be a nonnegative integer at position 2"),
        ("x--1", "expected a term at position 3"),
        ("-x^64^2", "unexpected trailing input at position 6"),
    ])
    def test_error_messages(self, text, message):
        for parse in (parse_factors, parse_poly):
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == message

    def test_top_level_factors(self):
        assert parse_factors("(x^2+1)^3*(x-3)") == [X ** 2 + 1] * 3 + [X - 3]
        assert parse_factors("3*x^2*(x^2-2)") == [IntPoly((3,)), X, X, X ** 2 - 2]
        assert parse_factors("x^2-1") == [X ** 2 - 1]
        assert parse_factors("-(x-1)*x") == [IntPoly((-1,)), X - 1, X]
        assert parse_factors("((x-1)*x)") == [X ** 2 - X]
        assert parse_factors("(x+1)^0") == []
        assert parse_factors("0*(x^64)^16*(x^64)^16")[0] == IntPoly(())


def _bench_check_argvs() -> list[list[str]]:
    """The argv of every check call of the benchmark, seeds 0 to 5."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [call["argv"] for seed in range(6)
            for call in workloads.make_inputs("check", seed, "bench")["calls"]]


FACTORED_CHECKS = _bench_check_argvs() + [
    shlex.split(line)[1:]
    for line, _ in EXAMPLES if line.startswith("intersective check ")] + [
    ["check", "--kind", kind, "--bound", "3000", "--", expr]
    for kind in ("first", "second")
    for expr in ("x^6 - 251*x^4 + 6851*x^2 - 48841",
                 "-(x^2-13)*(x^2-17)*(x^2-221)",
                 "(x^2+1)^3*(x-3)",
                 "3*x^2*(x^2-2)*(x^2-3)*(x^2-6)",
                 "x*(x^2+x+1)*(x^3-19)")]


class TestFactoredCheck:
    """check scans the top-level factors of P; its output must not depend
    on whether P is written as a product."""

    @pytest.mark.parametrize("argv", FACTORED_CHECKS,
                             ids=[f"{i}:{a[-1]}" for i, a in
                                  enumerate(FACTORED_CHECKS)])
    def test_factored_and_expanded_agree(self, capsys, argv):
        expanded = str(parse_poly(argv[-1]))
        flags = argv[:-1] if "--" in argv else [*argv[:-1], "--"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *flags, expanded)

    def test_bench_and_readme_inputs_are_products(self):
        assert len(FACTORED_CHECKS) == 42 + 1 + 10
        for argv in FACTORED_CHECKS[:43]:
            assert len(parse_factors(argv[-1])) >= 2


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_check_certifies_cubic(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--kind", "second",
                               "--bound", "10000", "(x^3-19)*(x^2+x+1)")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "certified_up_to"
        assert doc["scan_bound"] == 10000
        witness_primes = {w["p"] for w in doc["witnesses"]}
        assert {3, 19} <= witness_primes
        assert all(w["unit"] for w in doc["witnesses"])

    def test_check_fails_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--kind", "second",
                               "(x^4-5*x^2+x+4)*(x^3-10*x^2+9*x-1)")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fails" and doc["prime"] == 2

    def test_rd_example(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "rd", "--d", "3", "--cache",
                               str(tmp_path / "c.txt"), "(x^3-19)*(x^2+x+1)")
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 3 and doc["r_d"] == -2

    def test_rd_cache_determinism(self, capsys, tmp_path):
        cache = tmp_path / "roots.txt"
        args = ("rd", "--d", "171", "--cache", str(cache),
                "(x^3-19)*(x^2+x+1)")
        _, out1, _ = run_cli(capsys, *args)
        cache.unlink()
        _, out2, _ = run_cli(capsys, *args)
        assert json.loads(out1) == json.loads(out2)

    def test_search_example(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--N", "50", "--A",
                               "[[1.41421356237]]", "x^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == 13
        assert abs(doc["max_frac"] - 0.0022) < 5e-4

    def test_delta(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "x^3-19", "x^2+x+1")
        assert code == 0
        assert abs(int(json.loads(out)["delta"])) == 29241

    def test_condition(self, capsys):
        code, out, _ = run_cli(capsys, "condition", "--l", "2",
                               "(x^3-19)*(x^2+x+1)", "x*(x^3-19)*(x^2+x+1)")
        assert code == 0
        assert json.loads(out)["status"] == "certified_up_to"

    def test_joint_constant_gcd_fails(self, capsys):
        code, out, _ = run_cli(capsys, "joint", "x", "x+1")
        assert code == 1
        assert json.loads(out)["reason"] == "gcd is constant"

    def test_certify_empty_is_negative(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--p", "3", "x^2+1")
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_certify_found(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--p", "19",
                               "(x^3-19)*(x^2+x+1)")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] and doc["unit"]
        assert int(doc["r"]) % 19 == 7

    def test_roots_modes(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--p", "19", "--k", "3",
                               "x^2+x+1")
        assert code == 0
        doc = json.loads(out)
        assert doc["modulus"] == "6859"
        assert all((int(r) ** 2 + int(r) + 1) % 6859 == 0 for r in doc["roots"])
        code, out, _ = run_cli(capsys, "roots", "--q", "57", "--coprime",
                               "x^2+x+1")
        assert json.loads(out)["roots"] == ["7", "49"]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "roots", "--p", "5", "x^^")
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize("argv", [["check", "x-1"],
                                      ["joint", "x-1", "x^2-1"],
                                      ["condition", "--l", "2", "x-1"]])
    def test_negative_bound_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv[:1], "--bound", "-5", *argv[1:])
        assert code == 2 and out == ""
        assert "at least 0" in err

    def test_usage_error_exit_2(self, capsys):
        assert main(["not-a-command"]) == 2

    def test_primes_csv(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--N", "20", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "prime"
        assert [int(v) for v in lines[1:]] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_csv_constant_columns(self, capsys):
        import csv as csv_mod
        import io
        cases = [
            ("check", "--format", "csv", "x-1"),
            ("search", "--format", "csv", "--N", "30", "--A", "[[0.5]]", "x"),
            ("expsum", "--format", "csv", "--f", "[0.0]", "--N", "10"),
            ("simul", "--format", "csv", "--alphas", "[0.5]", "--Q", "4"),
        ]
        for argv in cases:
            code = main(list(argv))
            out = capsys.readouterr().out
            rows = list(csv_mod.reader(io.StringIO(out)))
            assert code == 0
            assert len({len(r) for r in rows}) == 1  # fixed width per command

    def test_expsum_values(self, capsys):
        import math
        code, out, _ = run_cli(capsys, "expsum", "--f", "[0.0]", "--N", "10")
        doc = json.loads(out)
        assert doc["re"] == pytest.approx(math.log(210))
        assert doc["weight_sum"] == pytest.approx(math.log(210))

    def test_weyl_bound(self, capsys):
        code, out, _ = run_cli(capsys, "weyl-bound", "--k", "2", "--q", "100",
                               "--N", "100", "--m", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(100 * (0.02 + 0.1) ** 0.25)

    def test_simul(self, capsys):
        code, out, _ = run_cli(capsys, "simul", "--alphas", "[0.5]", "--Q", "2")
        doc = json.loads(out)
        assert doc["q"] == 2 and doc["errs"] == [0.0]

    def test_montgomery(self, capsys):
        code, out, _ = run_cli(capsys, "montgomery", "--xs", "[0.5, 0.5]",
                               "--cs", "[1.0, 1.0]", "--M", "2")
        doc = json.loads(out)
        assert doc["t"] == 2 and doc["abs_s"] == pytest.approx(2.0)

    def test_nice_and_basis(self, capsys):
        code, out, _ = run_cli(capsys, "nice", "--d", "1", "--r", "0",
                               "x", "x^2+x")
        doc = json.loads(out)
        assert doc["c"] == "1" and doc["g"] == ["x", "x^2"]
        code, out, _ = run_cli(capsys, "basis", "x^2", "x^2+x")
        doc = json.loads(out)
        assert doc["basis"] == ["x", "x^2"]
        assert doc["M"] == [[0, 1], [1, 1]]

    @pytest.mark.parametrize("argv,out", [
        (["nice", "--d", "2", "--r", "1", "x", "x^2+x"],
         '{"c": "1", "T": [["1", "0"], ["-3", "1"]], "g": ["2*x + 1", '
         '"4*x^2 - 1"], "d": 2, "r": 1}\n'),
        (["nice", "--format", "csv", "--d", "2", "--r", "1", "x", "x^2+x"],
         'c,T,g\r\n1,"[[1, 0], [-3, 1]]",2*x + 1;4*x^2 - 1\r\n'),
        (["basis", "6*x^3+4*x", "4*x^3+2*x^2", "x^2+3"],
         '{"basis": ["8*x + 18", "x^2 + 3", "2*x^3 + 4*x + 6"], '
         '"M": [[-1, 0, 3], [-1, 2, 2], [0, 1, 0]]}\n'),
        (["basis", "--format", "csv", "6*x^3+4*x", "4*x^3+2*x^2", "x^2+3"],
         'basis,M\r\n8*x + 18;x^2 + 3;2*x^3 + 4*x + 6,'
         '"[[-1, 0, 3], [-1, 2, 2], [0, 1, 0]]"\r\n'),
    ])
    def test_nice_and_basis_exact_output(self, capsys, argv, out):
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_theta_fit_cli(self, capsys):
        code, out, _ = run_cli(capsys, "theta-fit", "--A", "[[1.41421356237]]",
                               "--Ns", "64,1024,4096,16384", "x^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["slope"] < 0 and len(doc["points"]) == 4

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "intersective", "delta", "x^2+x+1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta"] == "3"

    def test_env_cache_override(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "envcache.txt"
        monkeypatch.setenv("INTERSECTIVE_CACHE", str(target))
        code, out, _ = run_cli(capsys, "rd", "--d", "19",
                               "(x^3-19)*(x^2+x+1)")
        assert code == 0
        assert target.exists()

    def test_search_matrix_not_rows_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "search", "--N", "50", "--A", "[1]", "x^2")
        assert code == 2 and "--A" in err

    def test_search_matrix_overflow_exit_2(self, capsys):
        for entry in ("1e400", "1" + "0" * 400):
            code, _, err = run_cli(capsys, "search", "--N", "50", "--A",
                                   f"[[{entry}]]", "x^2")
            assert code == 2 and "finite" in err

    def test_simul_alphas_overflow_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "simul", "--alphas", "[1e400]",
                               "--Q", "10")
        assert code == 2 and "--alphas" in err

    def test_simul_negative_weight_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "simul", "--alphas", "[0.5]",
                                 "--Q", "5", "--weights", "[-1]")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "nonnegative" in err

    def test_montgomery_points_overflow_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "montgomery", "--xs", "[1e400]",
                               "--cs", "[1.0]", "--M", "4")
        assert code == 2 and "--xs" in err

    def test_expsum_nested_coefficients_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "expsum", "--N", "10", "--f", "[[1]]")
        assert code == 2 and "--f" in err

    def test_expsum_scalar_coefficients_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "expsum", "--N", "10", "--f", "5")
        assert code == 2 and "--f" in err

    def test_unexpected_exception_exit_3(self, capsys, monkeypatch):
        # exit 1 claims a conclusive negative verdict, so a crash must not
        # produce it
        import intersective.diophantine as dio

        def boom(*args):
            raise TypeError("unexpected")

        monkeypatch.setattr(dio, "weyl_bound_eval", boom)
        code, out, err = run_cli(capsys, "weyl-bound", "--k", "2", "--q", "9",
                                 "--N", "9")
        assert code == 3 and out == ""
        assert err == "internal error: TypeError: unexpected\n"

    def test_roots_precision_below_one_exit_2(self, capsys):
        for k in ("0", "-1"):
            code, out, err = run_cli(capsys, "roots", "--p", "5", "--k", k, "x-3")
            assert code == 2 and out == ""
            assert "k must be >= 1" in err

    def test_seed_option_removed(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--seed", "1", "x")
        assert code == 2 and out == ""

    def test_rd_skips_torn_cache_lines(self, capsys, tmp_path):
        cache = tmp_path / "roots.txt"
        cache.write_text("deadbeef 19 1\n")
        code, out, _ = run_cli(capsys, "rd", "--d", "3", "--cache", str(cache),
                               "(x^3-19)*(x^2+x+1)")
        assert code == 0 and json.loads(out)["r_d"] == -2

    def test_rd_skips_cache_lines_that_are_not_utf8(self, capsys, tmp_path):
        from intersective.cache import poly_key
        cache = tmp_path / "roots.txt"
        key = poly_key(X - 1)
        cache.write_bytes(b"abc\xff 5 1 1 1\n" + f"{key} 5 2 1 1\n".encode()
                          + b"\xfe\n")
        code, out, err = run_cli(capsys, "rd", "--d", "5", "--cache", str(cache),
                                 "x-1")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["r_d"] == -4 and doc["roots"][0]["k"] == 2  # entry served

    def test_rd_cache_entry_that_is_no_root_exit_2(self, capsys, tmp_path):
        from intersective.cache import poly_key
        cache = tmp_path / "roots.txt"
        cache.write_bytes(b"\xff\n" + f"{poly_key(X - 1)} 5 1 2 1\n".encode())
        code, out, err = run_cli(capsys, "rd", "--d", "5", "--cache", str(cache),
                                 "x-1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not a root" in err

    @pytest.mark.parametrize("d", ["19", str(19 ** 6)])
    def test_rd_cache_entry_not_reduced_exit_2(self, capsys, tmp_path, d):
        # 133140 is the root of P mod 19^5; 133140 + 19^5 names the same
        # class but is not reduced, and must not pass the first-get check
        P = "(x^3-19)*(x^2+x+1)"
        cache = tmp_path / "roots.txt"
        code, out, _ = run_cli(capsys, "rd", "--d", "19", "--cache", str(cache), P)
        assert code == 0 and json.loads(out)["roots"][0]["r"] == "133140"
        line = cache.read_text()
        assert line.endswith(" 19 5 133140 1\n")
        cache.write_text(line.replace(" 133140 ", f" {133140 + 19 ** 5} "))
        code, out, err = run_cli(capsys, "rd", "--d", d, "--cache", str(cache), P)
        assert code == 2 and out == ""
        assert err == "error: cache entry inconsistent with polynomial\n"

    @pytest.mark.parametrize("argv", [
        ["rd", "--d", "5", "x-1"],
        ["search", "--N", "100", "--d", "6", "--A", "[[1.41421356237]]", "x^3-19"],
        ["theta-fit", "--Ns", "1024,4096", "--d", "6", "--A", "[[1.41421356237]]",
         "x^3-19"],
    ])
    @pytest.mark.parametrize("where", ["directory", "under_file"])
    def test_unusable_cache_path_exit_2(self, capsys, tmp_path, argv, where):
        (tmp_path / "file").write_text("")
        path = tmp_path / ("file/roots.txt" if where == "under_file" else "")
        code, out, err = run_cli(capsys, *argv[:-1], "--cache", str(path),
                                 argv[-1])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_roots_mod_strong_pseudoprime(self, capsys):
        q = 318665857834031151167461  # 399165290221 * 798330580441
        code, out, _ = run_cli(capsys, "roots", "--q", str(q), "x^2+1")
        assert code == 0
        want = sorted(sympy.sqrt_mod(-1, q, all_roots=True))
        assert json.loads(out)["roots"] == [str(r) for r in want]
        assert len(want) == 4

    def test_certify_at_strong_pseudoprime_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--p",
                                 "3317044064679887385961981", "x")
        assert code == 2 and out == "" and "not prime" in err

    def test_certify_at_least_4_base_pseudoprime_exit_2(self, capsys):
        # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to 2, 3, 5, 7
        code, out, err = run_cli(capsys, "certify", "--p", "3215031751", "x")
        assert code == 2 and out == "" and "not prime" in err
        for p in (3215031749, 3215031767):  # the primes on either side
            code, out, _ = run_cli(capsys, "certify", "--p", str(p), "x-2")
            assert code == 0 and json.loads(out)["p"] == p


class TestRepeatedMain:
    """The parser is built once per process; no call leaves state behind."""

    def test_parser_built_once(self):
        from intersective.cli import build_parser
        assert build_parser() is build_parser()

    def test_roots_precision_resets(self, capsys):
        _, out, _ = run_cli(capsys, "roots", "--p", "5", "--k", "3", "x-3")
        assert json.loads(out)["modulus"] == "125"
        _, out, _ = run_cli(capsys, "roots", "--p", "5", "x-3")
        assert json.loads(out)["modulus"] == "5"

    def test_check_bound_resets(self, capsys):
        from intersective.certify import DEFAULT_SCAN_BOUND
        _, out, _ = run_cli(capsys, "check", "--bound", "50", "x-1")
        assert json.loads(out)["scan_bound"] == 50
        _, out, _ = run_cli(capsys, "check", "x-1")
        assert json.loads(out)["scan_bound"] == DEFAULT_SCAN_BOUND

    def test_valid_call_after_usage_error(self, capsys):
        assert run_cli(capsys, "check", "--bound")[0] == 2
        assert run_cli(capsys, "check", "--bound", "10", "x-1")[0] == 0


class TestDeepPrecisionCli:
    # one lifting step per level: 600 levels once overflowed the stack
    @pytest.mark.parametrize("modulus", [["--p", "5", "--k", "600"],
                                         ["--q", str(5 ** 600)]])
    def test_roots_mod_5_to_600(self, capsys, modulus):
        code, out, _ = run_cli(capsys, "roots", *modulus, "x-3")
        assert code == 0
        assert json.loads(out) == {"modulus": str(5 ** 600), "roots": ["3"]}


class TestOutputLimits:
    @pytest.mark.parametrize("argv,code", [
        (["check", "(x^3-19)*(x^2+x+1)"], 0),
        (["check", "(x^4-5*x^2+x+4)*(x^3-10*x^2+9*x-1)"], 1),
        (["primes", "--N", "2000000"], 0),
        (["primes", "--format", "csv", "--N", "2000000"], 0),
    ])
    def test_closed_stdout_keeps_exit_code(self, argv, code):
        # the read end is closed before the command writes a byte
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "intersective", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stderr == ""

    def test_too_many_roots_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "roots", "--p", "2", "--k", "30",
                                 "(x-1)^8")
        assert code == 2 and out == ""
        assert "more than" in err


class TestArgumentLimits:
    def test_deep_nesting_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "check", "(" * 300 + "x" + ")" * 300)
        assert code == 2 and out == ""
        assert err.startswith("parse error: parentheses nested deeper than 100")

    @pytest.mark.parametrize("k,poly", [("1000000000", "x^2+5"),
                                        ("10000", "x-3")])
    def test_roots_modulus_too_long_to_print_exit_2(self, k, poly):
        # refused before the lift, and before p^k is formed
        proc = subprocess.run(
            [sys.executable, "-m", "intersective", "roots", "--p", "5",
             "--k", k, poly],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"modulus 5^{k} has more than" in proc.stderr

    def test_roots_modulus_digit_limit_is_exact(self, capsys):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # 5^915 has 640 digits and 5^916 has 641
            code, out, _ = run_cli(capsys, "roots", "--p", "5", "--k", "915",
                                   "x-3")
            assert code == 0 and json.loads(out)["modulus"] == str(5 ** 915)
            code, out, err = run_cli(capsys, "roots", "--p", "5", "--k", "916",
                                     "x-3")
            assert code == 2 and "has more than 640 digits" in err
            sys.set_int_max_str_digits(0)  # no limit, no cap
            code, out, _ = run_cli(capsys, "roots", "--p", "5", "--k", "2000",
                                   "x-3")
            assert code == 0 and json.loads(out)["roots"] == ["3"]
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("argv", [["--p", "5", "--q", "7"], []])
    def test_roots_needs_exactly_one_modulus(self, capsys, argv):
        code, out, err = run_cli(capsys, "roots", *argv, "x-3")
        assert code == 2 and out == ""
        assert "--p" in err and "--q" in err

    def test_roots_k_without_p_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "roots", "--q", "57", "--k", "5",
                                 "x^2+x+1")
        assert code == 2 and out == ""
        assert err == "error: --k applies only with --p\n"

    @pytest.mark.parametrize("argv", [
        ["primes", "--N", "30", "--r", "3"],
        ["search", "--N", "50", "--r", "5", "--A", "[[1.41421356237]]", "x^2"],
        ["theta-fit", "--Ns", "64,128,256", "--r", "5", "--A", "[[1.41421356237]]",
         "x^2"],
    ])
    def test_r_without_d_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: --r applies only with --d\n"

    def test_primes_residue_defaults_to_one_with_d(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--N", "30", "--d", "4")
        assert code == 0 and json.loads(out)["primes"] == [5, 13, 17, 29]

    def test_roots_coprime_with_p(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--p", "19", "x")
        assert code == 0 and json.loads(out)["roots"] == ["0"]
        code, out, _ = run_cli(capsys, "roots", "--p", "19", "--coprime", "x")
        assert code == 0 and json.loads(out)["roots"] == []
        code, out, _ = run_cli(capsys, "roots", "--p", "19", "--k", "2",
                               "--coprime", "x^2-x")
        assert code == 0
        assert json.loads(out) == {"modulus": "361", "roots": ["1"]}

    @pytest.mark.parametrize("argv,modulus", [
        (["--q", "57", "x^2+x+1"], 57),
        (["--p", "19", "--k", "2", "x^2+x+1"], 361),
        (["--p", "19", "x"], 19),
        (["--q", "12", "0"], 12),
    ])
    def test_roots_coprime_json_and_csv(self, capsys, argv, modulus):
        # the residue scan, kept where gcd(r, modulus) = 1, in both formats
        P = parse_poly(argv[-1])
        want = [str(r) for r in scan_roots(P, modulus)
                if math.gcd(r, modulus) == 1]
        code, out, _ = run_cli(capsys, "roots", "--coprime", *argv)
        assert code == 0
        assert json.loads(out) == {"modulus": str(modulus), "roots": want}
        code, out, _ = run_cli(capsys, "roots", "--format", "csv",
                               "--coprime", *argv)
        assert code == 0 and out.splitlines() == ["root", *want]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["--k", "3", "--q", "nan", "--N", "10"],
        ["--k", "2", "--q", "10", "--N", "inf"],
        ["--k", "1", "--q", "1e300", "--N", "1e300"],
        ["--k", "2", "--q", "1e300", "--N", "1e300", "--eps", "1e10"],
    ])
    def test_weyl_bound_never_prints_non_finite(self, capsys, fmt, argv):
        code, out, err = run_cli(capsys, "weyl-bound", "--format", fmt, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestPrimesStream:
    @pytest.mark.parametrize("argv,json_out,csv_out", [
        (["--N", "1"], '{"primes": [], "count": 0}\n', "prime\r\n"),
        (["--N", "30", "--d", "4", "--r", "1"],
         '{"primes": [5, 13, 17, 29], "count": 4}\n',
         "prime\r\n5\r\n13\r\n17\r\n29\r\n"),
    ])
    def test_bytes(self, capsys, argv, json_out, csv_out):
        assert run_cli(capsys, "primes", *argv) == (0, json_out, "")
        assert run_cli(capsys, "primes", "--format", "csv", *argv) == \
            (0, csv_out, "")

    def test_segments_joined(self, capsys, monkeypatch):
        monkeypatch.setattr(arith, "SEGMENT", 64)
        code, out, _ = run_cli(capsys, "primes", "--N", "1000")
        assert code == 0
        assert json.loads(out) == {"primes": list(sympy.primerange(1001)),
                                   "count": 168}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_memory_flat_in_N(self, fmt):
        # 216816 primes; listing them before printing peaked near 30 MiB
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["primes", "--N", "3000000", "--format", fmt]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_bad_arguments_print_nothing(self, capsys):
        code, out, err = run_cli(capsys, "primes", "--N", "30", "--d", "4",
                                 "--r", "2")
        assert (code, out) == (2, "")
        assert err == "error: progression 2 mod 4 is not coprime\n"

    @pytest.mark.parametrize("argv", [
        ["primes", "--N", "10000000000000000000"],
        ["primes", "--format", "csv", "--N", str(2 ** 63)],
        ["expsum", "--f", "[0.5]", "--N", "3", "--m", str(2 ** 62), "--b", "1"],
    ])
    def test_bounds_from_2_63_refused(self, capsys, argv):
        # int64 lanes cannot hold such primes; refused before any output
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bound ") and err.endswith("2^63\n")
        assert err.count("\n") == 1
