"""Benchmark of intersective: the check, rd and search workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload check|rd|search [--seed 0] [--seconds N]
                         [--trace 0|1] [--size tiny|bench|roadmap]

--seconds defaults to run_seconds of BENCHMARK.json. Each repetition runs in
a fresh interpreter (bench/rep.py), single-threaded, with its root cache in a
temporary directory under .bench-work/ of the checkout; the library's process
pool, ~/.cache/intersective and INTERSECTIVE_CACHE are never used.
Repetitions are started until the next one would end after --seconds.
Outputs are checked against independent oracles (bench/oracles.py) outside
the timed region, and every repetition must give the same outputs.

Times are reported at a reference host speed: each process times a fixed
pure-Python kernel between its calls (rep.calibration_s), and its times are
multiplied by CAL_REF_S over the mean kernel time of the samples taken
during that call (or that process, for calls shorter than the sampling
interval). The host of a shared machine drifts in speed by tens of percent
within minutes; this takes most of that drift out. The times as measured
are in the report too, and the per-layer metrics are as measured.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 alternates untraced and traced repetitions (spans
from bench/spans.py) and reports the per-layer metrics, medians over the
traced repetitions, plus the tracing overhead: traced minus untraced wall_s.
Standard output is a table of the metrics with their units, then a report
line (run metadata, measured times, the per-call breakdown, sample counts,
fail_ratio and, traced, each layer's share of each pass), then the result
object as the last line. --size roadmap uses the sizes of the ROADMAP
baselines; --size tiny is for bench/selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracles
import spans
import workloads

PROGRAM_START = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench-work"
TIME_LIMIT_S = 170  # the whole invocation, oracles included
CAL_REF_S = 0.004  # rep.calibration_s() at the reference host speed
NEAR = 3  # samples (0.1 s apart) on either side taken as near a short call
# set-up-only processes top the setup_s samples up to this many per
# repetition, up to SETUP_SAMPLES in all (untraced runs only)
SETUP_PER_REP, SETUP_SAMPLES = 3, 24

# single-threaded children that never see a user's root cache
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "INTERSECTIVE_CACHE"}
CHILD_ENV.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


class RepCrashed(RuntimeError):
    pass


def _cache_entries(path: Path) -> tuple[int, int]:
    """(lines, distinct (poly-hash, prime) keys) of a root cache file."""
    lines = path.read_text().split("\n")
    keys = {tuple(line.split()[:2]) for line in lines if line.strip()}
    return sum(1 for line in lines if line.strip()), len(keys)


def _launch(workload, role, seed, size, cache, traced, run_id, out) -> dict:
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
           "--role", role, "--seed", str(seed), "--size", size,
           "--cache", str(cache), "--trace", str(int(traced)),
           "--run-id", run_id, "--out", str(out)]
    timeout = max(1.0, TIME_LIMIT_S - (time.monotonic() - PROGRAM_START))
    t0 = time.monotonic()
    try:
        cp = subprocess.run(cmd + ["--t0", repr(t0)], env=CHILD_ENV, cwd=ROOT,
                            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepCrashed(f"{run_id} {role}: timed out after {timeout:.0f} s") from exc
    if cp.returncode != 0:
        raise RepCrashed(f"{run_id} {role}: exit {cp.returncode}: {cp.stderr[-2000:]}")
    proc = json.loads(out.read_text())
    out.unlink()
    proc["elapsed_s"] = time.monotonic() - t0
    return proc


def run_rep(workload: str, seed: int, size: str, work: Path, index: int,
            traced: bool) -> dict:
    """One repetition: one process, or the write and read passes for rd."""
    run_id = f"{workload}-{seed}-{index}"
    cache = work / f"{run_id}.roots"
    cache.write_text("")
    procs = []
    for role in (("write", "read") if workload == "rd" else ("all",)):
        lines, keys = _cache_entries(cache)
        proc = _launch(workload, role, seed, size, cache, traced, run_id,
                       work / f"{run_id}-{role}.json")
        after, _ = _cache_entries(cache)
        proc.update(appends=after - lines, file_bytes=cache.stat().st_size,
                    entries_loaded=keys if role == "read" else 0)
        procs.append(proc)
    return {"traced": traced, "procs": procs}


def oracle_view(workload: str, rep: dict) -> dict:
    """The outputs of a repetition in the shape oracles.problems() takes."""
    if workload == "rd":
        write, read = rep["procs"]
        return {"write": write["outputs"], "read": read["outputs"],
                "appends_read": read["appends"]}
    return {"outputs": rep["procs"][0]["outputs"]}


def _call_keys(workload: str, inp: dict) -> list:
    if workload == "rd":
        return ([("write", d) for d in inp["write_order"]]
                + [("read", d) for d in inp["read_order"]])
    n = len(inp["calls"]) if workload == "check" else 4
    return list(range(n))


def failed_calls(workload, inp, prep, rep, first) -> dict:
    """{call: message} for the calls of rep that fail an oracle or whose
    output differs from that of the first repetition."""
    bad = {}
    for key, msg in oracles.problems(workload, inp, prep, oracle_view(workload, rep)):
        bad.setdefault(key, msg)
    if first is not None:
        now = [o for p in rep["procs"] for o in p["outputs"]]
        then = [o for p in first["procs"] for o in p["outputs"]]
        for key, a, b in zip(_call_keys(workload, inp), now, then):
            if a != b:
                bad.setdefault(key, f"call {key} differs from the first repetition")
    return bad


def measure(args, inp, prep, work: Path) -> dict:
    """Repetitions for args.seconds, with their failures counted."""
    reps, setups, attempted, failed, messages, rounds = [], [], 0, 0, [], []
    n_calls = len(_call_keys(args.workload, inp))
    deadline = time.monotonic() + args.seconds
    while True:
        start = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 1
        attempted += n_calls
        try:
            rep = run_rep(args.workload, args.seed, args.size, work, len(reps), traced)
        except RepCrashed as exc:
            failed += n_calls
            messages.append(str(exc))
            break
        bad = failed_calls(args.workload, inp, prep, rep, reps[0] if reps else None)
        failed += len(bad)
        messages.extend(list(bad.values())[:5])
        reps.append(rep)
        have = len(setups) + sum(len(r["procs"]) for r in reps)
        want = 0 if args.trace else min(SETUP_PER_REP * len(reps), SETUP_SAMPLES)
        try:
            for i in range(have, want):
                setups.append(_launch(args.workload, "setup", args.seed, args.size,
                                      work / "setup.roots", False, f"setup-{i}",
                                      work / f"setup-{i}.json"))
        except RepCrashed as exc:
            attempted, failed = attempted + 1, failed + 1
            messages.append(str(exc))
            break
        rounds.append(time.monotonic() - start)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and time.monotonic() + statistics.median(rounds) > deadline:
            break
    return {"reps": reps, "setups": setups, "attempted": attempted,
            "failed": failed, "messages": messages[:20]}


# -- metrics -------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def speed_factor(proc: dict, call=None) -> float:
    """Multiplier taking a time to the reference host speed: the reference
    calibration time over the mean of the calibration samples taken during
    the call, or the NEAR samples on either side of a call too short to hold
    one, or (call None) all samples of the process."""
    samples = proc["calibration_s"]
    if call is not None:
        first, end = call[2], call[3]
        samples = samples[first:end] if end > first else samples[max(0, first - NEAR):first + NEAR]
    return CAL_REF_S / statistics.fmean(samples)


def _wall(proc: dict, k) -> float:
    """The timed phase, each call scaled by its own factor and the rest of
    the phase by the process's."""
    in_calls = sum(c[1] for c in proc["calls"])
    return (sum(c[1] * k(proc, c) for c in proc["calls"])
            + (proc["wall_s"] - in_calls) * k(proc))


def _measured(proc: dict, call=None) -> float:
    return 1.0


def _e2e(workload: str, procs: list, setups: list, k) -> tuple[dict, dict]:
    """Gated metrics and per-call breakdown, each time multiplied by
    k(proc) or, for a call, k(proc, call)."""
    def lat(ps, role=None):
        return [c[1] * 1e3 * k(p, c) for p in ps if role in (None, p["role"])
                for c in p["calls"]]

    e2e = {
        "setup_s": _median(p["setup_s"] * k(p) for ps in procs + [setups] for p in ps),
        "wall_s": _median(sum(_wall(p, k) for p in ps) for ps in procs),
        "peak_rss_mb": _median(max(p["peak_rss_mb"] for p in ps) for ps in procs),
        "call_p50_ms": _median(spans.percentile(lat(ps), 50) for ps in procs),
        "call_p99_ms": _median(spans.percentile(lat(ps), 99) for ps in procs),
    }
    detail = {}
    if workload == "rd":
        for i, role in enumerate(("write", "read")):
            detail[f"rd_{role}_s"] = _median(_wall(ps[i], k) for ps in procs)
            for q in (50, 99):
                detail[f"rd_{role}_p{q}_ms"] = _median(
                    spans.percentile(lat(ps, role), q) for ps in procs)
    else:
        names = {"search": "search_s", "search_prog": "search_prog_s",
                 "theta_fit": "theta_fit_s", "expsum": "expsum_s"}
        labels = [c[0] for c in procs[0][0]["calls"]] if procs else []
        for i, label in enumerate(labels):
            detail[names.get(label, f"{label}_s")] = _median(
                ps[0]["calls"][i][1] * k(ps[0], ps[0]["calls"][i]) for ps in procs)
    return e2e, detail


def end_to_end(workload: str, reps: list, setups: list) -> dict:
    """Metrics of the untraced repetitions (and set-up-only processes): at
    reference speed (gated) and as measured, the per-call breakdown and the
    sample counts."""
    procs = [r["procs"] for r in reps if not r["traced"]]
    e2e, detail = _e2e(workload, procs, setups, speed_factor)
    measured, measured_detail = _e2e(workload, procs, setups, _measured)
    calls_per_rep = sum(len(p["calls"]) for p in procs[0]) if procs else 0
    samples = {"repetitions": len(procs),
               "wall_s": [round(sum(p["wall_s"] for p in ps), 4) for ps in procs],
               "speed_factor": [round(speed_factor(p), 4) for ps in procs for p in ps],
               "setup_s": sum(len(ps) for ps in procs) + len(setups),
               "call_percentiles": f"{calls_per_rep} calls per repetition, "
                                   "median over repetitions"}
    if workload == "rd":
        samples["rd_percentiles"] = (f"{len(procs[0][0]['calls']) if procs else 0}"
                                     " calls per pass, median over repetitions")
    return {"end_to_end": e2e, "calls": detail, "measured": measured,
            "measured_calls": measured_detail, "samples": samples}


def layer_report(workload: str, inp: dict, reps: list) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced repetitions) and, per pass,
    each layer's share of the pass's wall time."""
    traced = [r["procs"] for r in reps if r["traced"]]
    plain = [r["procs"] for r in reps if not r["traced"]]
    n_polys = len(inp["exprs"])
    per_rep = [spans.per_layer(ps, n_polys) for ps in traced] or [spans.per_layer([], n_polys)]
    metrics = {k: _median(m[k] for m in per_rep) for k in per_rep[0]}
    # as measured: traced repetitions take no calibration samples, which
    # would land inside spans; the two kinds alternate, so drift is shared
    traced_wall = _median(sum(p["wall_s"] for p in ps) for ps in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - _median(
        sum(p["wall_s"] for p in ps) for ps in plain)
    shares = {}
    for i, proc in enumerate(traced[0] if traced else []):
        walls = [ps[i]["wall_s"] for ps in traced]
        selfs = [spans.layer_self_times([ps[i]]) for ps in traced]
        shares[proc["role"]] = {layer: round(_median(s[layer] for s in selfs)
                                             / _median(walls), 4)
                                for layer in selfs[0]}
    if traced and metrics.get("modroots.roots_mod_p_calls"):
        shares["roots_mod_p_of_wall"] = round(_median(
            spans.per_layer(ps, n_polys)["modroots.roots_mod_p_s"] / sum(p["wall_s"] for p in ps)
            for ps in traced), 4)
    unpatched = sorted({u for ps in traced for p in ps for u in p["unpatched"]})
    if unpatched:
        shares["unpatched"] = unpatched
    return metrics, shares


def _unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else "1"


def metadata(reps: list) -> dict:
    proc = reps[0]["procs"][0] if reps else {}
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "intersective").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": proc.get("python"), "numpy": proc.get("numpy"),
            "machine": platform.machine(), "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    # on SIGTERM, unwind: subprocess.run then kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="bench")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "intersective" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'intersective'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        ap.error("--seconds must be positive")

    inp = workloads.make_inputs(args.workload, args.seed, args.size)
    prep = oracles.prepare(args.workload, inp)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = measure(args, inp, prep, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    reps = run["reps"]
    e2e = end_to_end(args.workload, reps, run["setups"])
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "sizes": workloads.SIZES[args.size], "seconds": args.seconds,
              "trace": args.trace, "metadata": metadata(reps), **e2e,
              "fail_ratio": run["failed"] / run["attempted"],
              "problems": run["messages"]}
    if args.trace:
        values, report["layer_shares"] = layer_report(args.workload, inp, reps)
        wanted = spec["per_layer"]
    else:
        values = e2e["end_to_end"]
        wanted = spec["end_to_end"]
    result = {"correct": run["failed"] == 0 and bool(reps),
              "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if not args.trace:
        rows += [(name, value, _unit(name)) for name, value in report["calls"].items()]
    rows.append(("fail_ratio", report["fail_ratio"], "1"))
    for name, value, unit in rows:
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
