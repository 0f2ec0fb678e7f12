"""Command-line surface: certification, residues, searches, and sums.

Exit codes: 0 on success, 1 on a conclusive negative verdict (a failed
certification, an empty certificate), 2 on usage or parse errors, 3 when an
unexpected internal error occurs.

JSON is the default output format; --format csv switches every command to a
flat header+rows rendering with a fixed column set per command. Arbitrarily
large integers are serialized as decimal strings in JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import certify as certify_mod
from . import diophantine as dio
from .cache import RootCache
from .modroots import (KINDS, PadicRoot, certify_padic_root, lift_roots,
                       roots_mod_q)
from .parse import ParseError, parse_factors, parse_poly
from .polys import delta_factored, distinct_degree_basis, nice_transform

# ---------------------------------------------------------------------------
# serialization


def _witness_obj(root: PadicRoot) -> dict:
    return {"p": root.p, "k": root.k, "r": str(root.r), "unit": root.unit}


def _verdict_obj(v) -> dict:
    out = {
        "kind": v.kind,
        "status": v.status,
        "scan_bound": v.scan_bound,
        "witnesses": [_witness_obj(v.ramified_witnesses[p])
                      for p in sorted(v.ramified_witnesses)],
        "content_removed": str(v.content_removed),
    }
    if v.prime is not None:
        out["prime"] = v.prime
    if v.reason is not None:
        out["reason"] = v.reason
    if v.note is not None:
        out["note"] = v.note
    return out


@contextlib.contextmanager
def _stdout():
    """sys.stdout, flushed when the block ends."""
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send the rest to devnull so the final flush
        # at exit stays silent, and keep the command's own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, obj: dict, csv_rows: tuple[list[str], list[list]]) -> None:
    with _stdout() as out:
        if args.format == "csv":
            header, rows = csv_rows
            csv.writer(out).writerows([header, *rows])
        else:
            print(json.dumps(obj), file=out)


def _reals(value, what: str) -> list[float]:
    """value, parsed with JSON integers as floats, if it is a list of finite
    reals; float overflow and NaN/Infinity literals are not finite."""
    if not (isinstance(value, list)
            and all(isinstance(v, float) and math.isfinite(v) for v in value)):
        raise ValueError(f"{what} must be a JSON list of finite numbers")
    return value


def _json_reals(text: str, flag: str) -> list[float]:
    return _reals(json.loads(text, parse_int=float), flag)


def _json_matrix(text: str) -> list[list[float]]:
    """--A of search and theta-fit: a JSON list of rows of finite reals."""
    rows = json.loads(text, parse_int=float)
    if not isinstance(rows, list):
        raise ValueError("--A must be a JSON list of rows, such as [[0.5]]")
    return [_reals(row, "each row of --A") for row in rows]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the process exit code)


def _cmd_delta(args) -> int:
    value = delta_factored(args.polys)
    _emit(args, {"delta": str(value), "factors": [str(f) for f in args.polys]},
          (["delta"], [[str(value)]]))
    return 0


def _cmd_primes(args) -> int:
    """Write the primes one sieve segment at a time, so memory stays flat
    in N; the output is that of _emit on the whole list."""
    if args.d is None and args.r is not None:
        raise ValueError("--r applies only with --d")
    prog = None if args.d is None else (args.d, 1 if args.r is None else args.r)
    blocks = dio.prime_blocks(args.N, prog)  # checked before the first byte
    with _stdout() as out:
        if args.format == "csv":
            rows = csv.writer(out)
            rows.writerow(["prime"])
            for ps in blocks:
                rows.writerows([p] for p in ps.tolist())
        else:
            count = 0
            out.write('{"primes": [')
            for ps in blocks:
                text = ", ".join(map(str, ps.tolist()))
                out.write(f", {text}" if count else text)
                count += ps.size
            out.write(f'], "count": {count}}}\n')
    return 0


def _cmd_roots(args) -> int:
    P = parse_poly(args.poly)
    if args.q is not None:
        if args.k is not None:
            raise ValueError("--k applies only with --p")
        rs = roots_mod_q(P, args.q)
        modulus = args.q
    else:
        k = 1 if args.k is None else args.k
        # refuse a modulus too long to print (p^k >= 10^limit) before the
        # lift, deciding by logarithms without forming p^k; 0 is no limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and args.p > 1 and k * math.log10(args.p) >= limit:
            raise ValueError(f"modulus {args.p}^{k} has more than "
                             f"{limit} digits")
        rs = lift_roots(P, args.p, k)
        modulus = args.p ** k
    rs = sorted(r for r in rs if not args.coprime or math.gcd(r, modulus) == 1)
    _emit(args, {"modulus": str(modulus), "roots": [str(r) for r in rs]},
          (["root"], [[str(r)] for r in rs]))
    return 0


def _cmd_certify(args) -> int:
    P = parse_poly(args.poly)
    root = certify_padic_root(P, args.p, args.kind)
    if root is None:
        _emit(args, {"found": False, "p": args.p, "kind": args.kind},
              (["found", "p", "k", "r", "unit"],
               [["false", args.p, "", "", ""]]))
        return 1
    _emit(args, {"found": True, "kind": args.kind, **_witness_obj(root)},
          (["found", "p", "k", "r", "unit"],
           [["true", root.p, root.k, str(root.r), str(root.unit).lower()]]))
    return 0


def _verdict(args, v) -> int:
    """Emit a verdict; exit 0 when certified, 1 on a conclusive failure."""
    header = ["kind", "status", "prime", "reason", "scan_bound", "witness_primes"]
    row = [v.kind, v.status, v.prime if v.prime is not None else "",
           v.reason or "", v.scan_bound,
           ";".join(str(p) for p in sorted(v.ramified_witnesses))]
    _emit(args, _verdict_obj(v), (header, [row]))
    return 0 if v.certified else 1


def _cmd_check(args) -> int:
    factors = parse_factors(args.poly)
    return _verdict(args, certify_mod.check_intersective(factors, args.kind,
                                                         args.bound))


def _cmd_joint(args) -> int:
    return _verdict(args, certify_mod.check_joint(args.polys, args.kind,
                                                  args.bound))


def _cmd_condition(args) -> int:
    return _verdict(args, certify_mod.check_theorem_condition(
        args.polys, args.l, args.bound))


def _cache(args) -> RootCache:
    return RootCache(args.cache or os.environ.get("INTERSECTIVE_CACHE")
                     or Path.home() / ".cache" / "intersective" / "roots.txt")


def _cmd_rd(args) -> int:
    rec = certify_mod.make_rd(args.polys, args.d, _cache(args))
    obj = {"d": rec.d, "r_d": rec.r_d,
           "roots": [_witness_obj(rec.roots[p]) for p in sorted(rec.roots)]}
    _emit(args, obj, (["d", "r_d"], [[rec.d, rec.r_d]]))
    return 0


def _cmd_nice(args) -> int:
    ns = nice_transform(args.polys, args.d, args.r)
    obj = {"c": str(ns.c), "T": [[str(e) for e in row] for row in ns.T],
           "g": [str(g) for g in ns.g], "d": ns.d, "r": ns.r}
    _emit(args, obj, (["c", "T", "g"],
                      [[str(ns.c), json.dumps(ns.T),
                        ";".join(str(g) for g in ns.g)]]))
    return 0


def _cmd_basis(args) -> int:
    basis, M = distinct_degree_basis(args.polys)
    obj = {"basis": [str(b) for b in basis], "M": M}
    _emit(args, obj, (["basis", "M"],
                      [[";".join(str(b) for b in basis), json.dumps(M)]]))
    return 0


def _cmd_expsum(args) -> int:
    f = dio.RealPoly(_json_reals(args.f, "--f"))
    w = dio.WeightSpec(args.m, args.b)
    lo = args.L + 1
    s = dio.exp_sum(f, w, lo, args.N)
    wsum = dio.exp_sum(dio.RealPoly(), w, lo, args.N).real
    obj = {"re": s.real, "im": s.imag, "abs": abs(s), "weight_sum": wsum}
    _emit(args, obj, (["re", "im", "abs", "weight_sum"],
                      [[s.real, s.imag, abs(s), wsum]]))
    return 0


def _cmd_weyl(args) -> int:
    val = dio.weyl_bound_eval(args.k, args.q, args.N, args.m, args.eps)
    _emit(args, {"bound": val}, (["bound"], [[val]]))
    return 0


def _cmd_simul(args) -> int:
    alphas = _json_reals(args.alphas, "--alphas")
    wts = _json_reals(args.weights, "--weights") if args.weights else None
    q, errs = dio.simultaneous_approx(alphas, args.Q, wts)
    _emit(args, {"q": q, "errs": errs},
          (["q", "errs"], [[q, ";".join(repr(e) for e in errs)]]))
    return 0


def _cmd_montgomery(args) -> int:
    xs = _json_reals(args.xs, "--xs")
    cs = _json_reals(args.cs, "--cs")
    t, mag = dio.montgomery_witness(xs, cs, args.M)
    _emit(args, {"t": t, "abs_s": mag}, (["t", "abs_s"], [[t, mag]]))
    return 0


def _search_progression(args):
    if args.d is None:
        if args.r is not None:
            raise ValueError("--r applies only with --d")
        return None
    if args.r is not None:
        return (args.d, args.r)
    return (args.d, certify_mod.make_rd(args.polys, args.d, _cache(args)).r_d)


def _cmd_search(args) -> int:
    A = _json_matrix(args.A)
    prog = _search_progression(args)
    res = dio.search_min_frac(args.polys, A, args.N, prog)
    obj = {"p": res.p, "values": list(res.values), "max_frac": res.max_frac,
           "N": res.N, "d": res.d, "r_d": res.r_d}
    _emit(args, obj,
          (["p", "max_frac", "values", "N", "d", "r_d"],
           [[res.p, res.max_frac, ";".join(repr(v) for v in res.values),
             res.N, res.d if res.d is not None else "",
             res.r_d if res.r_d is not None else ""]]))
    return 0


def _cmd_theta_fit(args) -> int:
    A = _json_matrix(args.A)
    Ns = [int(s) for s in args.Ns.split(",")]
    prog = _search_progression(args)
    fit = dio.theta_fit(args.polys, A, Ns, prog)
    obj = {"slope": fit.slope, "intercept": fit.intercept,
           "points": [[n, mf] for n, mf in fit.points]}
    _emit(args, obj,
          (["slope", "intercept", "points"],
           [[fit.slope, fit.intercept,
             ";".join(f"{n}:{mf!r}" for n, mf in fit.points)]]))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _arg(*flags, **kwargs):
    return flags, kwargs


_POLY, _POLYS = _arg("poly"), _arg("polys", nargs="+")
_KIND = _arg("--kind", choices=KINDS, default="second")
_BOUND = _arg("--bound", type=int, default=certify_mod.DEFAULT_SCAN_BOUND)
_CACHE = _arg("--cache")
_int = functools.partial(_arg, type=int)


# name: (handler, help, arguments after --format); a list of arguments is a
# required mutually exclusive group
COMMANDS = {
    "delta": (_cmd_delta, "product of resultants Res(h, h') over the given "
                          "irreducible factors", [_POLYS]),
    "primes": (_cmd_primes, "list primes, optionally in a progression",
               [_int("--N", required=True), _int("--d"),
                _int("--r", help="residue with --d (default 1)")]),
    "roots": (_cmd_roots, "roots mod p, p^k, or composite q",
              [_POLY, [_int("--p"), _int("--q")],
               _int("--k", help="precision with --p (default 1)"),
               _arg("--coprime", action="store_true")]),
    "certify": (_cmd_certify, "p-adic root certificate at one prime",
                [_POLY, _int("--p", required=True), _KIND]),
    "check": (_cmd_check, "whole-polynomial intersectivity verdict",
              [_POLY, _KIND, _BOUND]),
    "joint": (_cmd_joint, "joint intersectivity of a family",
              [_POLYS, _KIND, _BOUND]),
    "condition": (_cmd_condition,
                  "linear-combination condition for the main bound",
                  [_POLYS, _int("--l", required=True), _BOUND]),
    "rd": (_cmd_rd, "coherent residue r_d of a family",
           [_POLYS, _int("--d", required=True), _CACHE]),
    "nice": (_cmd_nice, "nice-system transform under x -> d*x + r",
             [_POLYS, _int("--d", required=True), _int("--r", default=0)]),
    "basis": (_cmd_basis, "distinct-degree module basis", [_POLYS]),
    "expsum": (_cmd_expsum, "weighted exponential sum over a range",
               [_arg("--f", required=True,
                     help="JSON list of real coefficients"),
                _int("--N", required=True), _int("--L", default=0),
                _int("--m", default=1), _int("--b", default=0)]),
    "weyl-bound": (_cmd_weyl, "evaluate the Weyl-type bound formula",
                   [_int("--k", required=True),
                    _arg("--q", type=float, required=True),
                    _arg("--N", type=float, required=True),
                    _arg("--m", type=float, default=1.0),
                    _arg("--eps", type=float, default=0.0)]),
    "simul": (_cmd_simul, "brute-force simultaneous approximation",
              [_arg("--alphas", required=True, help="JSON list of reals"),
               _int("--Q", required=True),
               _arg("--weights", help="JSON list of scale factors")]),
    "montgomery": (_cmd_montgomery,
                   "witness t with a large weighted exponential sum",
                   [_arg("--xs", required=True, help="JSON list of reals"),
                    _arg("--cs", required=True, help="JSON list of weights"),
                    _int("--M", required=True)]),
    "search": (_cmd_search, "minimize max_i ||v_i(p)|| over primes p <= N",
               [_POLYS,
                _arg("--A", required=True, help="JSON row-major l x k matrix"),
                _int("--N", required=True), _int("--d"), _int("--r"), _CACHE]),
    "theta-fit": (_cmd_theta_fit, "empirical decay slope of search minima",
                  [_POLYS, _arg("--A", required=True),
                   _arg("--Ns", required=True, help="comma-separated bounds"),
                   _int("--d"), _int("--r"), _CACHE]),
}


@functools.lru_cache(maxsize=None)
def build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of cmd alone, or of every subcommand
    when cmd is None. Its usage line names every subcommand either way:
    argparse prints it for an argument left over after cmd's own."""
    parser = argparse.ArgumentParser(
        prog="intersective",
        description="Intersective polynomial certification and prime-variable "
                    "Diophantine approximation experiments.")
    sub = parser.add_subparsers(
        dest="cmd", required=True,
        metavar=None if cmd is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if cmd is None else [cmd]:
        handler, help_, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for arg in arguments:
            if isinstance(arg, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flags, kwargs in arg:
                    group.add_argument(*flags, **kwargs)
            else:
                p.add_argument(*arg[0], **arg[1])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS
                            else None).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if hasattr(args, "polys"):  # the first step of every handler
            args.polys = [parse_poly(s) for s in args.polys]
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except certify_mod.NoSecondKindRootError as exc:
        print(f"conclusive failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 would claim a conclusive negative
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
