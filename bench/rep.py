"""One repetition (or one rd pass) of a workload, in a fresh interpreter.

With --role setup it only sets up, to give run.py another setup_s sample.

Started by run.py, never imported. The module-level caches of the library
start cold here, as they do for a command-line user. Set-up runs from the
launch time the parent passes in (--t0, a CLOCK_MONOTONIC reading, which is
shared by all processes) until import, input generation and parse_poly are
done. The timed phase follows; its outputs, per-call latencies, peak
resident memory and, when traced, the recorded spans go to --out as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import intersective
    if Path(intersective.__file__).resolve().parent != ROOT / "src" / "intersective":
        raise SystemExit(f"imported intersective from {intersective.__file__}, "
                         f"not from {ROOT / 'src'}")
    import numpy
    from intersective import cache, certify, cli, diophantine, parse
    return SimpleNamespace(numpy=numpy, cache=cache, certify=certify, cli=cli,
                           dio=diophantine, parse=parse)


CALIBRATE_EVERY_S = 0.1
SETUP_ONLY_SAMPLES = 10


def _polymulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    n = len(f) - 1
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k]
        if c:
            for i in range(n + 1):
                out[k - n + i] = (out[k - n + i] - c * f[i]) % p
    return out[:n]


def calibration_s() -> float:
    """Seconds taken by a fixed pure-Python kernel of the same shape as the
    library's hot loops (list polynomial arithmetic mod p, big-integer
    reductions), with the garbage collector paused. run.py divides by it to
    take the host's speed, which drifts on a shared machine, out of the times."""
    gc.disable()
    try:
        t = time.perf_counter()
        f, p = [7, 3, 1, 4, 1, 5, 9, 2, 1], 1_000_003
        base = [0, 1]
        for _ in range(40):
            base = _polymulmod(base, base, f, p)
        acc, m = 0, (1 << 521) - 1
        for x in range(12_500):
            acc = (acc * 1_000_003 + x) % m
        return time.perf_counter() - t
    finally:
        gc.enable()


class Clock:
    """Times the library calls of the timed phase. Inside `with clock:` an
    interval timer also runs the calibration kernel every CALIBRATE_EVERY_S
    seconds, in the middle of whatever call is running, so that the samples
    cover the phase evenly; their time is taken out of the call and phase
    durations."""

    def __init__(self, calibrate: bool):
        self.calls: list[list] = []
        self.calibration: list[float] = []
        self.calibrating_s = 0.0  # spent sampling inside the timed phase
        self._calibrate = calibrate

    def sample(self, *_) -> None:
        t = time.perf_counter()
        self.calibration.append(calibration_s())
        self.calibrating_s += time.perf_counter() - t

    def __enter__(self):
        if self._calibrate:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self._calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)  # drops a late tick

    def timed(self, label: str, fn, *args):
        """fn(*args), with its duration recorded; errors become outputs."""
        t = time.perf_counter()
        before, first = self.calibrating_s, len(self.calibration)
        try:
            out = fn(*args)
        except Exception as exc:  # an oracle failure of the call, not of the rep
            out = {"error": f"{type(exc).__name__}: {exc}"}
        # the samples taken during the call follow it: [label, seconds, first, end]
        self.calls.append([label, time.perf_counter() - t - (self.calibrating_s - before),
                           first, len(self.calibration)])
        return out


def run_check(lib, inp, polys, args, clock):
    def one(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}

    return [clock.timed(c["label"], one, c["argv"]) for c in inp["calls"]]


def run_rd(lib, inp, polys, args, clock):
    order = inp["write_order" if args.role == "write" else "read_order"]
    store = lib.cache.RootCache(args.cache)  # the read pass's cache rebuild, timed
    return [clock.timed("make_rd", lambda d: lib.certify.make_rd(polys, d, store).r_d, d)
            for d in order]


def run_search(lib, inp, polys, args, clock):
    dio = lib.dio
    A, N, d = inp["A"], inp["N"], inp["d"]

    def res_obj(res):
        return {"p": res.p, "values": list(res.values), "max_frac": res.max_frac}

    def search():
        return res_obj(dio.search_min_frac(polys, A, N))

    def search_prog():
        r_d = lib.certify.make_rd(polys, d, lib.cache.RootCache(args.cache)).r_d
        return {"r_d": r_d, **res_obj(dio.search_min_frac(polys, A, N, (d, r_d)))}

    def fit():
        tf = dio.theta_fit(polys, A, inp["Ns"])
        return {"points": [list(pt) for pt in tf.points], "slope": tf.slope}

    def expsum():
        z = dio.exp_sum(dio.RealPoly(inp["f"]), dio.WeightSpec(*inp["weight"]), 1, N)
        return {"re": z.real, "im": z.imag}

    return [clock.timed(label, fn) for label, fn in
            (("search", search), ("search_prog", search_prog),
             ("theta_fit", fit), ("expsum", expsum))]


RUNNERS = {"check": run_check, "rd": run_rd, "search": run_search}


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB. VmHWM covers this
    program only; ru_maxrss, the fallback, also counts the parent's memory
    from before exec on Linux."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--role", default="all", choices=("all", "write", "read", "setup"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    ap.add_argument("--cache", required=True, help="root cache file to use")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    lib = _import_library()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.install(args.run_id)
    inp = workloads.make_inputs(args.workload, args.seed, args.size)
    polys = [lib.parse.parse_poly(e) for e in inp["exprs"]]
    setup_s = time.monotonic() - args.t0

    # traced repetitions take no samples during calls, which would land in
    # spans; set-up-only processes take theirs explicitly
    clock = Clock(calibrate=not args.trace and args.role != "setup")
    t = time.perf_counter()
    with clock:
        if args.role == "setup":  # one more set-up sample, and its host speed
            outputs = []
            for _ in range(SETUP_ONLY_SAMPLES):
                clock.sample()
        else:
            outputs = RUNNERS[args.workload](lib, inp, polys, args, clock)
    wall_s = time.perf_counter() - t - clock.calibrating_s
    clock.sample()

    result = {"role": args.role, "setup_s": setup_s, "wall_s": wall_s,
              "calls": clock.calls, "outputs": outputs,
              "calibration_s": clock.calibration,
              "peak_rss_mb": peak_rss_mb(),
              "numpy": lib.numpy.__version__, "python": sys.version.split()[0],
              "spans": tracer.spans if tracer else [],
              "unpatched": tracer.unpatched if tracer else []}
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
