"""Smoke self-test of the benchmark, on tiny inputs (a few seconds).

Usage, from the repository root::

    python3 bench/selftest.py

It runs a few ops of every workload through real worker processes and
checks them against the golden files; checks that a wrong golden entry is
reported as a failed op; that latencies scale to reference speed; that the
traced pass reaches the expected layers with counts that repeat exactly;
that generated inputs depend on the seed alone; and that the benchmark's
``enumerate`` rows equal the CLI's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import pace
import workloads as W
from run import ROOT, Worker

TINY = {
    "oracle-sweep": lambda: [op for op in W.generate("oracle-sweep", 0) if op[0]["N"] <= 10],
    "catalog-orders": lambda: [(N, W.load_golden("catalog-orders")[str(N)]) for N in (2, 12, 60, 97)],
    "extremal-cli": lambda: [
        (argv, W.load_golden("extremal-cli")[W.argv_key(argv)])
        for argv in (
            W.extremal_argv("min-genus", 15, "p+"),
            W.extremal_argv("min-genus", 12, "p+-"),
            W.extremal_argv("max-order", 4, "N"),
        )
    ],
}

# per-layer counts each tiny workload must reach
REACHED = {
    "oracle-sweep": ("oracle.check_point.calls", "bsk.surface_of.calls", "signatures.kernel_algebraic_genus.calls"),
    "catalog-orders": ("classify.actions_for_order.calls", "classify.parameter_space.calls", "zmod.divisors.calls"),
    "extremal-cli": ("cli.main.calls", "classify.actions_for_order.calls", "extremal.sweeps_per_query"),
}


def run_pass(workload: str, ops: list, trace: bool = False) -> dict:
    spans = ROOT / "bench" / "results" / "selftest.spans"
    request = {"workload": workload, "ops": ops, "trace": trace, "spans": str(spans)}
    return Worker().run(request, timeout=120)


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    t0 = time.perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_metrics = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("bench.")}
    for workload, make in TINY.items():
        ops = make()
        result = run_pass(workload, ops)
        check(not result["failures"] and len(result["latencies"]) == len(ops),
              f"{workload}: {len(ops)} ops match their goldens", failures)
        check(len(result["samples"]) > len(ops) and len(result["intervals"]) == len(ops),
              f"{workload}: a reference sample before each op and after the last", failures)

        bad = [(ops[0][0], "wrong")] + ops[1:]
        result = run_pass(workload, bad)
        check(len(result["failures"]) == 1, f"{workload}: a wrong golden entry is a failed op", failures)

        first, second = (run_pass(workload, ops, trace=True)["layers"] for _ in range(2))
        check(layer_metrics <= set(first), f"{workload}: traced pass yields every per-layer metric", failures)
        check(all(first[m] > 0 for m in REACHED[workload]), f"{workload}: traced pass reaches its layers", failures)
        counts = [m for m in first if m.endswith((".calls", ".records", ".maps", ".orbits", "_bytes"))]
        check(all(first[m] == second[m] for m in counts), f"{workload}: traced counts repeat exactly", failures)

    for workload in ("catalog-orders", "extremal-cli"):
        a, b = W.generate(workload, 5), W.generate(workload, 6)
        check(a == W.generate(workload, 5) and a != b, f"{workload}: inputs follow the seed", failures)
    check(W.generate("oracle-sweep", 5) == W.generate("oracle-sweep", 6),
          "oracle-sweep: inputs do not depend on the seed", failures)
    # an op on a machine running reference() at half the nominal speed
    # reads as half as long; an op's local speed comes from the samples
    # during and next to it, not from those far away
    half = 2 * pace.REFERENCE_S
    samples = [(t, pace.REFERENCE_S) for t in range(40)] + [(t, half) for t in range(40, 81)]
    scaled = pace.scale([0.004, 0.004, 0.004], [(0.5, 0.6), (79.5, 79.6), (45, 75)], samples)
    check(scaled == [0.004, 0.002, 0.002], "pace: latencies scale to the local reference speed", failures)
    speed = pace.SpeedLog()
    with speed.ticking():
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * pace.TICK_S:
            pass
        end = time.perf_counter()
    check(len(speed.samples) >= 2 and speed.within(start, end) == sum(d for _, d in speed.samples),
          "pace: timer samples are taken and counted inside the interval", failures)

    sys.path.insert(0, str(ROOT / "src"))
    import worker
    from necsurf import cli

    for N in (6, 30):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["enumerate", "--N", str(N), "--format", "json"])
        rows = json.loads(buf.getvalue())["result"]["rows"]
        mine = [worker.enumerate_row(r) for r in worker.catalog.actions_for_order(N)]
        check(W.rows_digest(rows) == W.rows_digest(mine), f"enumerate rows at N={N} match the CLI", failures)

    print(f"selftest: {len(failures)} failure(s) in {time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
