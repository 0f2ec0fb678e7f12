"""Spans at the layer boundaries of intersective, recorded from outside it.

install() replaces each boundary function with a timing wrapper in the
namespace where its caller looks it up (certify.roots_mod_p,
modroots.lift_roots, diophantine.sieve_primes, RootCache.get, ...), so no
file of the library changes. A span is [run id, name, start, end, parent
index, note]: the note is a count taken from the call's result (roots found,
primes sieved, cache hit) so that ratios are measured where the work happens.
Spans stay in memory; rep.py writes them out when the repetition ends.

per_layer() turns the spans of one repetition into the per-layer metrics.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import statistics
from time import perf_counter

LAYERS = ("arith", "polys", "parse", "modroots", "certify", "cache",
          "diophantine", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.unpatched: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def traced(*args, **kwargs):
            span = [run_id, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.unpatched.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, note))


def install(run_id: str) -> Tracer:
    from intersective import cache, certify, cli, diophantine, modroots, parse

    tracer = Tracer(run_id)

    def found(result):
        return int(result is not None)

    boundaries = [
        (cli, "main", "cli.main", None),
        (cli, "parse_poly", "parse.parse_poly", None),
        (parse, "parse_poly", "parse.parse_poly", None),
        (certify, "check_intersective", "certify.check_intersective", None),
        (certify, "make_rd", "certify.make_rd", None),
        (certify, "roots_mod_p", "modroots.roots_mod_p", len),
        (certify, "certify_padic_root", "modroots.certify_padic_root", None),
        (certify, "newton_lift", "modroots.newton_lift", None),
        (certify, "squarefree_part", "polys.squarefree_part", None),
        (certify, "gcd_primitive", "polys.gcd_primitive", None),
        (certify, "resultant", "polys.resultant", None),
        (certify, "factorize", "arith.factorize", None),
        (certify, "primes_upto", "arith.sieve", len),
        (modroots, "lift_roots", "modroots.lift_roots", None),
        (modroots, "squarefree_part", "polys.squarefree_part", None),
        (modroots, "resultant", "polys.resultant", None),
        (cache.RootCache, "get", "cache.get", found),
        (cache.RootCache, "put", "cache.put", None),
        (cache.RootCache, "_load", "cache.load", None),
        (diophantine, "search_min_frac", "diophantine.search_min_frac", None),
        (diophantine, "theta_fit", "diophantine.theta_fit", None),
        (diophantine, "exp_sum", "diophantine.exp_sum", None),
        (diophantine, "sieve_primes", "diophantine.sieve_primes", len),
        (diophantine, "primes_in_range", "arith.sieve", len),
    ]
    for owner, attr, name, note in boundaries:
        tracer.patch(owner, attr, name, note)
    # a classmethod: wrap the function and rebind it as a classmethod
    for_poly = modroots.PadicRoot.__dict__.get("for_poly")
    if isinstance(for_poly, classmethod):
        modroots.PadicRoot.for_poly = classmethod(
            tracer.wrap("modroots.for_poly", for_poly.__func__))
    else:
        tracer.unpatched.append("PadicRoot.for_poly")
    return tracer


# -- aggregation -------------------------------------------------------------


class _Span:
    __slots__ = ("name", "dur", "self_s", "parent", "note", "ancestors")


def _flatten(procs) -> list[_Span]:
    """Spans of all processes of one repetition, with self times and the
    names of their ancestors (parent indices are local to a process)."""
    out = []
    for proc in procs:
        raw = proc["spans"]
        children = [0.0] * len(raw)
        for _, _, start, end, parent, _ in raw:
            if parent >= 0:
                children[parent] += end - start
        local = []
        for i, (_, name, start, end, parent, note) in enumerate(raw):
            s = _Span()
            s.name, s.dur, s.note = name, end - start, note
            s.self_s = s.dur - children[i]
            s.parent = raw[parent][1] if parent >= 0 else None
            s.ancestors = (local[parent].ancestors | {s.parent}
                           if parent >= 0 else frozenset())
            local.append(s)
        out.extend(local)
    return out


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_self_times(procs) -> dict[str, float]:
    """Self time of each layer in the timed phase of the given processes,
    plus the harness's own time there ("bench": wall minus top-level spans)."""
    # top-level parse spans belong to set-up, outside the timed phase
    spans = [s for s in _flatten(procs)
             if not (s.parent is None and s.name == "parse.parse_poly")]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.name.split(".")[0]] += s.self_s
    wall = sum(p["wall_s"] for p in procs)
    out["bench"] = wall - sum(s.dur for s in spans if s.parent is None)
    return out


def per_layer(procs, n_polys: int) -> dict[str, float]:
    """Per-layer metrics of one repetition (all of its processes)."""
    spans = _flatten(procs)

    def named(name, parent=None, ancestor=None):
        return [s for s in spans if s.name == name
                and (parent is None or s.parent == parent)
                and (ancestor is None or ancestor in s.ancestors)]

    def total(lst):
        return sum(s.dur for s in lst)

    def self_total(lst):
        return sum(s.self_s for s in lst)

    m = {}
    roots = named("modroots.roots_mod_p")
    m["modroots.roots_mod_p_calls"] = len(roots)
    m["modroots.roots_mod_p_s"] = total(roots)
    durs = [s.dur for s in roots]
    m["modroots.roots_mod_p_p50_us"] = percentile(durs, 50) * 1e6
    m["modroots.roots_mod_p_p99_us"] = percentile(durs, 99) * 1e6
    m["modroots.roots_per_prime"] = (sum(s.note for s in roots) / len(roots)
                                     if roots else 0.0)
    for fn in ("certify_padic_root", "lift_roots", "newton_lift"):
        lst = named(f"modroots.{fn}")
        m[f"modroots.{fn}_calls"] = len(lst)
        m[f"modroots.{fn}_s"] = total(lst)
    reverify = named("modroots.for_poly", parent="cache.get")
    m["modroots.for_poly_calls"] = len(reverify)
    m["modroots.for_poly_s"] = total(reverify)
    for fn in ("gcd_primitive", "squarefree_part"):
        lst = named(f"polys.{fn}")
        m[f"polys.{fn}_calls"] = len(lst)
        m[f"polys.{fn}_s"] = total(lst)
    m["polys.resultant_s"] = total(named("polys.resultant"))

    m["cache.load_s"] = total(named("cache.load"))
    m["cache.entries_loaded"] = sum(p.get("entries_loaded", 0) for p in procs)
    gets = named("cache.get")
    m["cache.get_calls"] = len(gets)
    m["cache.get_s"] = total(gets)
    m["cache.hit_ratio"] = sum(s.note for s in gets) / len(gets) if gets else 0.0
    puts = named("cache.put")
    m["cache.put_calls"] = len(puts)
    m["cache.put_s"] = total(puts)
    m["cache.appends"] = sum(p.get("appends", 0) for p in procs)
    m["cache.file_bytes"] = max((p.get("file_bytes", 0) for p in procs), default=0)

    fac = named("arith.factorize")
    m["arith.factorize_calls"] = len(fac)
    m["arith.factorize_s"] = total(fac)
    sieve = named("arith.sieve")
    m["arith.sieve_s"] = total(sieve)
    m["arith.sieve_primes"] = sum(s.note for s in sieve)

    m["certify.check_intersective_self_s"] = self_total(named("certify.check_intersective"))
    m["certify.ramified_primes"] = len(named("modroots.certify_padic_root",
                                             parent="certify.check_intersective"))
    m["certify.unramified_primes"] = len(named("modroots.roots_mod_p",
                                               parent="certify.check_intersective"))
    m["certify.make_rd_self_s"] = self_total(named("certify.make_rd"))

    search_self = self_total(named("diophantine.search_min_frac"))
    evaluated = sum(s.note for s in named("diophantine.sieve_primes",
                                          parent="diophantine.search_min_frac"))
    m["diophantine.search_self_s"] = search_self
    m["diophantine.primes_evaluated"] = evaluated
    m["diophantine.prime_evals_per_s"] = (evaluated * n_polys / search_self
                                          if search_self > 0 else 0.0)
    m["diophantine.theta_fit_searches"] = len(named(
        "diophantine.search_min_frac", parent="diophantine.theta_fit"))
    in_fit = [s.note for s in named("diophantine.sieve_primes",
                                    ancestor="diophantine.theta_fit")]
    # the largest search inside theta_fit sieves exactly the primes <= max Ns
    m["diophantine.theta_fit_redundancy"] = (sum(in_fit) / max(in_fit)
                                             if in_fit and max(in_fit) else 0.0)
    m["diophantine.exp_sum_self_s"] = self_total(named("diophantine.exp_sum"))
    m["parse.parse_poly_s"] = total(named("parse.parse_poly"))
    m["cli.main_self_s"] = self_total(named("cli.main"))
    for layer, seconds in layer_self_times(procs).items():
        if layer != "bench":
            m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = len(spans)
    return m

