"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs each workload once at --size tiny through the code of run.py, traced,
and requires every oracle to accept the outputs and the traced metrics to be
exactly the per-layer metrics of BENCHMARK.json. Then it corrupts one output
per workload (a wrong witness residue, an r_d off by one, a max_frac moved
by one ulp) and requires the oracles to reject it. Exits 1 on any failure.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import oracles
import run
import spans
import workloads


def wrong_witness(view: dict) -> None:
    out = next(o for o in view["outputs"] if '"witnesses": [{' in o["stdout"])
    res = json.loads(out["stdout"])
    res["witnesses"][0]["r"] = str(int(res["witnesses"][0]["r"]) + 1)
    out["stdout"] = json.dumps(res)


def rd_off_by_one(view: dict) -> None:
    view["write"][-1] -= 1


def perturbed_max_frac(view: dict) -> None:
    out = view["outputs"][0]
    out["max_frac"] = math.nextafter(out["max_frac"], 1.0)


CORRUPTIONS = {"check": wrong_witness, "rd": rd_off_by_one,
               "search": perturbed_max_frac}


def main() -> int:
    per_layer = {m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    per_layer -= {"trace.wall_s", "trace.overhead_s"}  # need two repetitions
    failures = 0
    run.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK)
    try:
        for w in workloads.WORKLOADS:
            inp = workloads.make_inputs(w, 0, "tiny")
            prep = oracles.prepare(w, inp)
            rep = run.run_rep(w, 0, "tiny", Path(work), 0, traced=True)
            bad = run.failed_calls(w, inp, prep, rep, None)
            names = set(spans.per_layer(rep["procs"], len(inp["exprs"])))
            view = copy.deepcopy(run.oracle_view(w, rep))
            CORRUPTIONS[w](view)
            caught = oracles.problems(w, inp, prep, view)
            checks = [("outputs pass the oracles", not bad),
                      ("traced metrics match BENCHMARK.json", names == per_layer),
                      (f"{CORRUPTIONS[w].__name__} is rejected", bool(caught))]
            for what, ok in checks:
                print(f"{'ok  ' if ok else 'FAIL'} {w}: {what}")
                failures += not ok
            if bad:
                print(f"     {list(bad.values())[:3]}")
            if names != per_layer:
                print(f"     differ: {sorted(names ^ per_layer)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
