"""Record the golden outputs of every benchmark op from the current program.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/make_goldens.py [workload ...]

Each golden file covers its workload's whole input domain, so any seed
can be checked against it:

- ``oracle-sweep.json``: the per-point entries of
  ``necsurf verify --format json --n-max 48`` (map count, orbit count and
  both bucket lists), in sweep order;
- ``catalog-orders.json``: for every order N of the domain, the digest of
  the sorted rows of ``necsurf enumerate --N N --format json``;
- ``extremal-cli.json``: for every min-genus/max-order query, the digest
  of the full JSON stdout of ``--both --format json``.

An existing golden file is never overwritten: a diff against it is a
failure of the program, not of the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads as W
from necsurf import cli, oracle


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"necsurf {' '.join(argv)} exited {code}")
    return buf.getvalue()


def oracle_golden() -> list[dict]:
    points = oracle.check_points(None, W.ORACLE_N_MAX)
    payload = json.loads(_run_cli(["verify", "--n-max", str(W.ORACLE_N_MAX), "--format", "json"]))
    entries = payload["result"]["points"]
    assert len(entries) == len(points)
    out = []
    for (q, N), entry in zip(points, entries):
        assert entry["quotient"] == q.label() and entry["N"] == N
        out.append({
            "point": {"kind": q.kind, "m": q.m, "n": q.n, "N": N, "quotient": q.label()},
            "result": {k: entry[k] for k in ("maps", "orbits", "ok", "oracle", "expected")},
        })
    return out


def catalog_golden() -> dict[str, str]:
    out = {}
    for N in W.catalog_domain():
        payload = json.loads(_run_cli(["enumerate", "--N", str(N), "--format", "json"]))
        out[str(N)] = W.rows_digest(payload["result"]["rows"])
    return out


def extremal_golden() -> dict[str, str]:
    out = {}
    for argv in W.extremal_domain():
        text = _run_cli(argv)
        verdict = json.loads(text)["result"]["verdict"]
        if verdict != "match":
            raise SystemExit(f"necsurf {' '.join(argv)}: verdict {verdict}")
        out[W.argv_key(argv)] = W.digest(text)
    return out


def dump(data) -> str:
    """JSON with one golden entry per line, so a diff names the entries."""
    def compact(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    if isinstance(data, list):
        lines = [compact(entry) for entry in data]
        return "[\n" + ",\n".join(lines) + "\n]\n"
    lines = [f"{json.dumps(key)}:{compact(value)}" for key, value in data.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


GENERATORS = {
    "oracle-sweep": oracle_golden,
    "catalog-orders": catalog_golden,
    "extremal-cli": extremal_golden,
}


def main(argv: list[str]) -> int:
    for workload in argv or W.WORKLOADS:
        path = W.GOLDEN_DIR / f"{workload}.json"
        if path.exists():
            print(f"{path.name} exists; not overwritten", file=sys.stderr)
            continue
        data = GENERATORS[workload]()
        W.GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(dump(data))
        print(f"wrote {path.name}: {len(data)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
