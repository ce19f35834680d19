"""Self-test of the benchmark at a tiny size.

Run from the root of a source checkout:

    python3 bench/selftest.py

It checks that every workload runs and passes its gate in both modes, that
each mode reports exactly the metrics BENCHMARK.json lists with their
units, that failures are counted, that the gate fires when an expected
value is wrong, and that traced spans from inside the Harnack thread pool
are parented to the sweep that submitted them. Exits 1 on any failure.
"""

import json
import os
import sys
import threading

import run
import workloads

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    os.environ["SIGMAK_THREADS"] = "2"  # the sweep's pool runs even on one CPU
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the benchmark's workloads")
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            res = run.measure(workload, 1, 0.0, trace, tiny=True)
            results[workload, trace] = res
            what = f"{workload} trace={int(trace)}"
            check(res.correct, f"{what}: gate passes")
            units = {name: unit for name, (_, unit) in res.metrics.items()}
            check(units == wanted[trace], f"{what}: reports exactly the listed metrics")
            printed = {line.split()[0]: line.split()[2] for line in res.lines
                       if not line.startswith("#")}
            check(printed == units, f"{what}: prints every metric with its unit")
            payload = json.loads(json.dumps(res.payload()))
            check(set(payload) == {"correct", "attempted", "failed", "metrics"}
                  and payload["attempted"] >= 1, f"{what}: result line has the four keys")

    radial = results["radial-bvp", False]
    check(radial.failed > 0 and radial.metrics["ok_ratio"][0] < 1.0,
          "radial-bvp: the rmax-100 shooting failure is counted")

    original = workloads.c_constant
    workloads.c_constant = lambda n, k: 1.02 * original(n, k)
    try:
        for workload in ("harnack-sweep", "radial-bvp"):
            res = run.measure(workload, 1, 0.0, False, tiny=True)
            check(not res.correct, f"{workload}: gate fires on a wrong closed form")
    finally:
        workloads.c_constant = original

    spans = results["harnack-sweep", True].tracer.spans
    by_id = {sp.sid: sp for sp in spans}
    main_thread = threading.get_ident()
    pooled = [sp for sp in spans if sp.thread != main_thread]
    roots = [sp for sp in pooled if by_id.get(sp.parent) is None
             or by_id[sp.parent].thread != sp.thread]
    check(bool(pooled) and all(by_id.get(sp.parent) is not None
                               and by_id[sp.parent].name == "bubbles.harnack_sweep"
                               for sp in roots),
          f"harnack-sweep: {len(pooled)} spans from the thread pool, their "
          "outermost ones parented to bubbles.harnack_sweep")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
