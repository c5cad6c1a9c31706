"""necsurf benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all                 # every workload, end-to-end metrics

One run measures one workload.  Its inputs come from ``--seed`` alone
(see ``workloads.py``).  Each pass of the workload runs in a fresh,
single-threaded worker process with ``src`` on its import path, so no
pass can reuse another's work; passes repeat while another one still fits
in ``--seconds`` (always at least one).

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics, including the tracing overhead.
Every time is scaled to reference speed (see ``pace.py``): op latencies
by the reference samples the worker takes during and around each op,
set-up times by reference calls made here just before and after the
spawn.  The result
file also holds the unscaled wall-clock figures.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the
machine description goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# set-up probes, half before and half after the passes, so that they
# sample two moments of the machine's load
SETUP_PROBES = 16
# a run must end well within three minutes, whatever --seconds says
RUN_BUDGET_S = 150.0


class BenchError(Exception):
    pass


class Worker:
    """One fresh worker process; ``setup_s`` is spawn-to-ready time, and
    ``ref_s`` the reference time measured around it."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        before = [pace.timed_reference() for _ in range(3)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.stop()
            raise BenchError("worker failed to start")
        self.ref_s = statistics.median(before + [pace.timed_reference() for _ in range(3)])

    def run(self, request: dict, timeout: float) -> dict:
        try:
            out, _ = self.proc.communicate(json.dumps(request) + "\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass did not finish within {timeout:.0f} s") from None
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        """End an idle worker by closing its stdin."""
        try:
            self.proc.communicate(timeout=10)
        finally:
            self.stop()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def probe_setup() -> tuple[float, float]:
    """(set-up time, reference time) of one idle worker."""
    worker = Worker()
    worker.close()
    return worker.setup_s, worker.ref_s


def run_pass(
    workload: str, ops: list, deadline: float, trace: bool = False
) -> tuple[dict, tuple[float, float]]:
    worker = Worker()
    request = {
        "workload": workload,
        "ops": ops,
        "trace": trace,
        "spans": str(RESULTS / f"{workload}.spans"),
    }
    return worker.run(request, deadline - time.perf_counter()), (worker.setup_s, worker.ref_s)


def machine_info(seed: int) -> dict:
    def git(*args):
        try:
            res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        except OSError:
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    commit = git("rev-parse", "HEAD") if in_repo else None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "dirty": bool(git("status", "--porcelain")) if commit else None,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes of one workload and derive every metric value."""
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    ops = W.generate(workload, seed)
    setups = [probe_setup() for _ in range(SETUP_PROBES // 2)]
    passes = []
    for traced in (False, True) if trace else (False,):
        result, setup = run_pass(workload, ops, deadline, traced)
        passes.append(result)
        setups.append(setup)
    while not trace:
        elapsed = time.perf_counter() - started
        last = passes[-1]["wall_s"]
        if elapsed + last > seconds or time.perf_counter() + 2 * last > deadline:
            break
        result, setup = run_pass(workload, ops, deadline)
        passes.append(result)
        setups.append(setup)
    setups += [probe_setup() for _ in range(SETUP_PROBES // 2)]

    def timings(latencies: list[float], setup_times: list[float]) -> dict:
        return {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "setup_s": statistics.median(setup_times),
        }

    scaled = [pace.scale(p["latencies"], p["intervals"], p["samples"]) for p in passes]
    latencies = [x for pass_latencies in scaled for x in pass_latencies]
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(latencies)
    values = timings(latencies, [s * pace.REFERENCE_S / ref for s, ref in setups])
    values["ok_frac"] = (attempted - len(failures)) / attempted
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    p90 = values["op_p90_ms"] / 1e3
    if trace:
        # pass times at reference speed: raw pass times differ as much
        # with the machine's drift as with the tracing
        untraced_s, traced_s = (sum(x) for x in scaled)
        values.update(passes[1]["layers"])
        values["bench.untraced_s"] = untraced_s
        values["bench.traced_s"] = traced_s
        values["bench.trace_overhead_s"] = traced_s - untraced_s
    return {
        "workload": workload,
        "trace": trace,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "p90_samples_beyond": sum(x > p90 for x in latencies),
        "setup_samples_s": [s for s, _ in setups],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_reference_ms": [statistics.median(d for _, d in p["samples"]) * 1e3 for p in passes],
        "unscaled": timings([x for p in passes for x in p["latencies"]], [s for s, _ in setups]),
        "run_s": time.perf_counter() - started,
        "values": values,
    }


def report(summary: dict, info: dict, metrics: list[dict]) -> dict:
    """Print one workload's metrics, write its result file, return its result line."""
    values = summary.pop("values")
    summary["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    RESULTS.mkdir(exist_ok=True)
    name = f"{summary['workload']}-seed{info['seed']}-trace{int(summary['trace'])}.json"
    (RESULTS / name).write_text(json.dumps({"machine": info, **summary}, indent=2) + "\n")
    for f in summary["failures"]:
        print(f"FAILED {summary['workload']}: {f['op']}: {f['error']}")
    print(
        f"{summary['workload']}: {summary['attempted']} ops in {summary['passes']} pass(es), "
        f"{summary['failed']} failed, run {summary['run_s']:.1f} s; "
        f"op_p90_ms has {summary['p90_samples_beyond']} samples beyond it"
    )
    for metric, m in summary["metrics"].items():
        print(f"  {metric:44} {m['value']:>14.6g} {m['unit']}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=W.WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=W.TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker (see Worker.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "necsurf" / "__init__.py").is_file():
        print(f"error: no necsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = spec["per_layer" if args.trace else "end_to_end"]
        info = machine_info(args.seed)
        print(f"machine: {json.dumps(info)}")
        results = [
            report(measure(w, args.seed, args.seconds, bool(args.trace)), info, metrics)
            for w in ([args.workload] if args.workload else W.WORKLOADS)
        ]
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
