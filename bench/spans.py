"""Span tracing around the public functions of each necsurf layer.

The tracer replaces each function listed in ``LAYERS`` by a wrapper in
every necsurf module that holds a reference to it (``oracle`` imports
``presentation_of`` from ``bsk``, for instance), so calls are caught
whichever module makes them.  Each call becomes a span (name, start, end,
parent); every op of the workload is a root span named ``bench.op``, so
the spans of one op share that root.  Spans stay in flat arrays in memory
and are written out once, at the end.

Inclusive times (``.s``) are the summed durations of a function's spans;
self times (``.self_s``) subtract the part covered by direct child spans.
None of the wrapped functions is recursive, so no span nests inside
another of the same name.  Hot helpers such as ``order_mod`` are left
unwrapped on purpose: wrapping them would swamp the trace.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = {
    "oracle": ("check_point", "enumerate_smooth", "orbit_count", "moves_for"),
    "bsk": ("presentation_of", "is_smooth", "surface_of", "action_reverses_orientation"),
    "signatures": ("kernel_algebraic_genus",),
    "classify": (
        "actions_for_order", "results_for", "parameter_space", "classify_ann1",
        "classification_buckets",
    ),
    "extremal": ("min_genus_closed", "min_genus_search", "max_order_closed", "max_order_search"),
    "cli": ("main",),
    "zmod": ("units", "divisors"),
}

ROOT = "bench.op"
EXTREMAL_FUNCS = tuple(f"extremal.{f}" for f in LAYERS["extremal"])

def _phi(n: int) -> int:
    return sum(1 for u in range(1, n) if math.gcd(u, n) == 1) if n > 1 else 1


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.enumerations: list[tuple] = []  # (quotient, N, maps found)
        self.orbit_searches: list[tuple] = []  # (maps, moves, N, orbits)
        self.ann1_exists = 0
        self.records = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = self._hooks().get(name)
        sig = inspect.signature(fn) if hook else None
        begin, finish = self.begin, self.finish

        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if hook:
                hook(sig.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        return {
            "oracle.enumerate_smooth": self._on_enumerate,
            "oracle.orbit_count": self._on_orbit_count,
            "classify.classify_ann1": self._on_ann1,
            "classify.actions_for_order": self._on_sweep,
        }

    def _on_enumerate(self, args, result) -> None:
        self.enumerations.append((args["q"], args["N"], len(result)))

    def _on_orbit_count(self, args, result) -> None:
        self.orbit_searches.append((len(args["maps"]), len(args["moves"]), args["N"], result.orbit_count))

    def _on_ann1(self, args, result) -> None:
        self.ann1_exists += bool(result.exists)

    def _on_sweep(self, args, result) -> None:
        self.records += len(result)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "necsurf" or n.startswith("necsurf.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"necsurf.{layer}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reporting -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header, then the four arrays back to back."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    def metrics(self, candidates_of) -> dict[str, float]:
        """Per-layer metrics derived from the spans and the hook counts.

        ``candidates_of(q, N)`` gives the size of the enumeration's search
        space; it is computed after the run, outside every span.
        """
        k = len(self.names)
        calls, incl, covered = [0] * k, [0.0] * k, [0.0] * k
        sweeps_in_extremal = 0
        by = {name: i for i, name in enumerate(self.names)}
        extremal_ids = {by[f] for f in EXTREMAL_FUNCS}
        sweep_id = by["classify.actions_for_order"]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(len(start)):
            n, p, d = name_id[i], parent[i], end[i] - start[i]
            calls[n] += 1
            incl[n] += d
            if p >= 0:
                covered[name_id[p]] += d
                if n == sweep_id and name_id[p] in extremal_ids:
                    sweeps_in_extremal += 1
        self_s = [incl[n] - covered[n] for n in range(k)]

        out: dict[str, float] = {}
        for layer, funcs in LAYERS.items():
            for f in funcs:
                i = by[f"{layer}.{f}"]
                out[f"{layer}.{f}.calls"] = calls[i]
                out[f"{layer}.{f}.s"] = incl[i]
                out[f"{layer}.{f}.self_s"] = self_s[i]
        candidates = sum(candidates_of(q, N) for q, N, _ in self.enumerations)
        maps = sum(found for _, _, found in self.enumerations)
        out["oracle.enumerate_smooth.candidates"] = candidates
        out["oracle.enumerate_smooth.maps"] = maps
        out["oracle.enumerate_smooth.yield"] = maps / candidates if candidates else 0.0
        out["oracle.orbit_count.orbits"] = sum(o for *_, o in self.orbit_searches)
        out["oracle.orbit_count.neighbours"] = sum(
            m * (_phi(N) + moves) for m, moves, N, _ in self.orbit_searches
        )
        out["classify.actions_for_order.records"] = self.records
        ann1 = out["classify.classify_ann1.calls"]
        out["classify.classify_ann1.exist_frac"] = self.ann1_exists / ann1 if ann1 else 0.0
        out["extremal.self_s"] = sum(self_s[by[f]] for f in EXTREMAL_FUNCS)
        queries = out["cli.main.calls"]
        out["extremal.sweeps_per_query"] = sweeps_in_extremal / queries if queries else 0.0
        return out
