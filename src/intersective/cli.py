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


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intersective",
        description="Intersective polynomial certification and prime-variable "
                    "Diophantine approximation experiments.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("delta", _cmd_delta, help="product of resultants Res(h, h') over "
                                      "the given irreducible factors")
    p.add_argument("polys", nargs="+")

    p = add("primes", _cmd_primes, help="list primes, optionally in a progression")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int, help="residue with --d (default 1)")

    p = add("roots", _cmd_roots, help="roots mod p, p^k, or composite q")
    p.add_argument("poly")
    modulus = p.add_mutually_exclusive_group(required=True)
    modulus.add_argument("--p", type=int)
    modulus.add_argument("--q", type=int)
    p.add_argument("--k", type=int, help="precision with --p (default 1)")
    p.add_argument("--coprime", action="store_true")

    p = add("certify", _cmd_certify, help="p-adic root certificate at one prime")
    p.add_argument("poly")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="second")

    p = add("check", _cmd_check, help="whole-polynomial intersectivity verdict")
    p.add_argument("poly")
    p.add_argument("--kind", choices=KINDS, default="second")
    p.add_argument("--bound", type=int, default=certify_mod.DEFAULT_SCAN_BOUND)

    p = add("joint", _cmd_joint, help="joint intersectivity of a family")
    p.add_argument("polys", nargs="+")
    p.add_argument("--kind", choices=KINDS, default="second")
    p.add_argument("--bound", type=int, default=certify_mod.DEFAULT_SCAN_BOUND)

    p = add("condition", _cmd_condition,
            help="linear-combination condition for the main bound")
    p.add_argument("polys", nargs="+")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--bound", type=int, default=certify_mod.DEFAULT_SCAN_BOUND)

    p = add("rd", _cmd_rd, help="coherent residue r_d of a family")
    p.add_argument("polys", nargs="+")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--cache")

    p = add("nice", _cmd_nice, help="nice-system transform under x -> d*x + r")
    p.add_argument("polys", nargs="+")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=0)

    p = add("basis", _cmd_basis, help="distinct-degree module basis")
    p.add_argument("polys", nargs="+")

    p = add("expsum", _cmd_expsum, help="weighted exponential sum over a range")
    p.add_argument("--f", required=True, help="JSON list of real coefficients")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--L", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--b", type=int, default=0)

    p = add("weyl-bound", _cmd_weyl, help="evaluate the Weyl-type bound formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)

    p = add("simul", _cmd_simul, help="brute-force simultaneous approximation")
    p.add_argument("--alphas", required=True, help="JSON list of reals")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--weights", help="JSON list of scale factors")

    p = add("montgomery", _cmd_montgomery,
            help="witness t with a large weighted exponential sum")
    p.add_argument("--xs", required=True, help="JSON list of reals")
    p.add_argument("--cs", required=True, help="JSON list of weights")
    p.add_argument("--M", type=int, required=True)

    p = add("search", _cmd_search,
            help="minimize max_i ||v_i(p)|| over primes p <= N")
    p.add_argument("polys", nargs="+")
    p.add_argument("--A", required=True, help="JSON row-major l x k matrix")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--cache")

    p = add("theta-fit", _cmd_theta_fit,
            help="empirical decay slope of search minima")
    p.add_argument("polys", nargs="+")
    p.add_argument("--A", required=True)
    p.add_argument("--Ns", required=True, help="comma-separated bounds")
    p.add_argument("--d", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--cache")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
