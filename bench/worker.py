"""Benchmark worker: one fresh process runs one pass of one workload.

``run.py`` starts it with ``src`` on ``PYTHONPATH``.  The worker imports
necsurf, prints ``ready`` (where ``run.py`` stops its set-up timer), reads
one JSON request from stdin::

    {"workload": ..., "ops": [[op, golden], ...], "trace": false, "spans": path}

runs every op once, in order, in this single thread, and prints one JSON
result line.  Only the call into necsurf is timed; each output is checked
against its golden entry after the timer stops.  Timed calls of
``pace.reference()`` (one before every op, one after the last, and, in an
untraced pass, one every ``pace.TICK_S`` of wall time) record the
machine's speed, so that ``run.py`` can scale the latencies to reference
speed; the time of those calls is left out of every latency.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import pace
import workloads as W
from necsurf import bsk, cli, oracle
from necsurf.signatures import QuotientType

# the package re-exports the function ``classify`` under the module's name
catalog = importlib.import_module("necsurf.classify")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def oracle_op(point: dict, want: dict) -> tuple[tuple[float, float], bool, int]:
    q = QuotientType(point["kind"], m=point["m"], n=point["n"])
    t0 = time.perf_counter()
    p = oracle.check_point(q, point["N"])
    t1 = time.perf_counter()
    got = {
        "maps": p.map_count,
        "orbits": p.orbit_count,
        "ok": p.ok,
        "oracle": [list(b) for b in p.oracle_buckets],
        "expected": [list(b) for b in p.expected_buckets],
    }
    return (t0, t1), _canonical(got) == _canonical(want), 0


def enumerate_row(record) -> dict:
    """One row of ``necsurf enumerate --format json``, from public fields."""
    q, s, real = record.quotient, record.surface, record.realization
    return {
        "quotient": q.label(),
        "signature": q.signature().render(),
        "N": record.N,
        "surface": s.describe(),
        "orientable": s.orientable,
        "genus": s.genus,
        "boundary_count": s.boundary_count,
        "algebraic_genus": s.algebraic_genus,
        "classes": real.count,
        "reversing": real.reversing,
        "label": real.label,
    }


def catalog_op(N: int, want: str) -> tuple[tuple[float, float], bool, int]:
    t0 = time.perf_counter()
    records = catalog.actions_for_order(N)
    t1 = time.perf_counter()
    rows = [enumerate_row(r) for r in records if r.surface.algebraic_genus <= N]
    return (t0, t1), W.rows_digest(rows) == want, 0


def extremal_op(argv: list[str], want: str) -> tuple[tuple[float, float], bool, int]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    t1 = time.perf_counter()
    text = buf.getvalue()
    ok = code == 0 and W.digest(text) == want and json.loads(text)["result"]["verdict"] == "match"
    return (t0, t1), ok, len(text.encode())


RUNNERS = {"oracle-sweep": oracle_op, "catalog-orders": catalog_op, "extremal-cli": extremal_op}


def enumeration_candidates(q: QuotientType, N: int) -> int:
    """Size of the enumeration's search space: the product, over the free
    generators, of how many residues each may take (elliptic generators
    keep their exact order, reflections are 0 or N/2)."""
    pres = bsk.presentation_of(q)
    reflections = set(pres.reflection_names)
    total = 1
    for g in pres.free:
        if g in pres.elliptic_orders:
            want = pres.elliptic_orders[g]
            total *= sum(1 for v in range(N) if N // math.gcd(v, N) == want)
        elif g in reflections:
            total *= 2 if N % 2 == 0 else 1
        else:
            total *= N
    return total


def run_pass(workload: str, ops: list, tracer=None) -> dict:
    """Run every op once; return latencies, op intervals, reference
    samples, failures and output size.  ``wall_s`` leaves the reference
    calls out."""
    runner = RUNNERS[workload]
    speed = pace.SpeedLog()
    latencies, intervals, failures, output_bytes = [], [], [], 0
    pace.warm_up()
    ticking = contextlib.nullcontext() if tracer else speed.ticking()
    wall0 = time.perf_counter()
    with ticking:
        for op, want in ops:
            speed.take()
            span = tracer.begin(0) if tracer else None
            t0 = time.perf_counter()
            try:
                (t0, t1), ok, nbytes = runner(op, want)
            except Exception as exc:  # a raising op is a failed op, the pass goes on
                t1, ok, nbytes = time.perf_counter(), False, 0
                failures.append({"op": op, "error": f"{type(exc).__name__}: {exc}"})
            else:
                if not ok:
                    failures.append({"op": op, "error": "output differs from golden"})
            finally:
                if tracer:
                    tracer.finish(span)
            latencies.append(t1 - t0 - speed.within(t0, t1))
            intervals.append((t0, t1))
            output_bytes += nbytes
        speed.take()
    return {
        "wall_s": time.perf_counter() - wall0 - speed.within(wall0, time.perf_counter()),
        "latencies": latencies,
        "intervals": intervals,
        "samples": speed.samples,
        "failures": failures,
        "output_bytes": output_bytes,
    }


def main() -> int:
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:  # a set-up probe: only the start time was wanted
        return 0
    request = json.loads(line)
    workload, ops = request["workload"], request["ops"]
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result = run_pass(workload, ops, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.metrics(enumeration_candidates)
        layers["cli.output_bytes"] = result["output_bytes"]
        tracer.write(Path(request["spans"]))
        result["layers"] = layers
    else:
        result = run_pass(workload, ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
