"""Command-line front end: classify, enumerate, min-genus, max-order, verify.

Exit status 0 on success (including "no such action exists"), 1 on a
verification mismatch or internal invariant failure, 2 on usage errors.
JSON output has sorted keys and a schema version, so identical invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from . import extremal, oracle
from .classify import ClassificationResult, actions_for_order, classify
from .signatures import FAMILIES, QuotientType

SCHEMA_VERSION = "1"

KIND_CHOICES = tuple(FAMILIES)


def _realization_dict(q: QuotientType, N: int, real) -> dict:
    s = real.surface
    return {
        "quotient": q.label(),
        "signature": q.signature().render(),
        "N": N,
        "surface": s.describe(),
        "orientable": s.orientable,
        "genus": s.genus,
        "boundary_count": s.boundary_count,
        "algebraic_genus": s.algebraic_genus,
        "classes": real.count,
        "reversing": real.reversing,
        "label": real.label,
    }


def _emit(record: dict, rows: list[dict], fmt: str, headers: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({h: row.get(h, "") for h in headers})
        sys.stdout.write(buf.getvalue())
    else:
        if not rows:
            print("(no realizations)")
            return
        widths = {h: max(len(h), *(len(str(r.get(h, ""))) for r in rows)) for h in headers}
        print("  ".join(h.ljust(widths[h]) for h in headers))
        for row in rows:
            print("  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))


def _record(command: str, parameters: dict, result) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "version": SCHEMA_VERSION,
    }


def _classification_payload(res: ClassificationResult) -> dict:
    return {
        "quotient": res.quotient.label(),
        "signature": res.quotient.signature().render(),
        "N": res.order,
        "exists": res.exists,
        "classes": res.class_count,
        "realizations": [
            _realization_dict(res.quotient, res.order, r) for r in res.realizations
        ],
    }


ROW_HEADERS = [
    "quotient", "N", "surface", "orientable", "genus", "boundary_count",
    "algebraic_genus", "classes", "reversing", "label",
]


def cmd_classify(args) -> int:
    q = QuotientType(args.type, m=args.m, n=args.n)
    res = classify(q, args.N, k=args.k, orientable=args.orientable)
    payload = _classification_payload(res)
    rows = payload["realizations"]
    _emit(_record("classify", _params_dict(args), payload), rows, args.format, ROW_HEADERS)
    if args.format == "table":
        word = "exists" if res.exists else "does not exist"
        print(f"-> action {word}; {res.class_count} conjugacy class(es) at N={res.order}")
    return 0


def _params_dict(args) -> dict:
    out = {"type": args.type}
    for name in ("N", "m", "n", "k"):
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value
    if getattr(args, "orientable", None) is not None:
        out["orientable"] = args.orientable
    return out


def cmd_enumerate(args) -> int:
    if args.max_genus is not None and args.max_genus < 0:
        raise UsageError("--max-genus must be >= 0")
    bound = args.N if args.max_genus is None else min(args.N, args.max_genus)
    records = [
        r for r in actions_for_order(args.N) if r.surface.algebraic_genus <= bound
    ]
    rows = [_realization_dict(r.quotient, r.N, r.realization) for r in records]
    payload = {"N": args.N, "max_genus": bound, "rows": rows}
    _emit(_record("enumerate", {"N": args.N, "max_genus": bound}, payload),
          rows, args.format, ROW_HEADERS)
    if args.format == "table":
        print(f"-> {len(rows)} row(s), {sum(r['classes'] for r in rows)} class(es)")
    return 0


def _answer_payload(ans: extremal.ExtremalAnswer) -> dict:
    return {
        "defined": True,
        "variant": ans.variant,
        "argument": ans.argument,
        "value": ans.value,
        "classes": ans.class_count,
        "realizers": [
            _realization_dict(r.quotient, r.N, r.realization) for r in ans.realizers
        ],
    }


def _run_minmax(args, query: str) -> int:
    if query == "min-genus":
        arg, closed_fn, search_fn = args.N, extremal.min_genus_closed, extremal.min_genus_search
    else:
        arg, closed_fn, search_fn = args.p, extremal.max_order_closed, extremal.max_order_search
    mode = args.mode or "both"
    closed = search = None
    if mode in ("closed", "both"):
        closed = _answer_payload(closed_fn(arg, args.variant))
    if mode in ("search", "both"):
        search = _answer_payload(search_fn(arg, args.variant))
    result = {
        "query": query,
        "variant": args.variant,
        "argument": arg,
        "closed": closed,
        "search": search,
    }
    verdict = None
    if mode == "both":
        same = (
            closed["value"] == search["value"]
            and sorted(closed["realizers"], key=str) == sorted(search["realizers"], key=str)
        )
        verdict = "match" if same else "MISMATCH"
        result["verdict"] = verdict
    shown = closed or search
    _emit(_record(query, {"argument": arg, "variant": args.variant, "mode": mode}, result),
          shown["realizers"], args.format, ROW_HEADERS)
    if args.format == "table":
        print(f"-> {query}[{args.variant}]({arg}) = {shown['value']}" +
              (f" [{verdict}]" if verdict else ""))
    return 0 if verdict in (None, "match") else 1


def cmd_minmax_min(args) -> int:
    return _run_minmax(args, "min-genus")


def cmd_minmax_max(args) -> int:
    return _run_minmax(args, "max-order")


def cmd_verify(args) -> int:
    kinds = None if args.types is None else args.types.split(",")
    report = oracle.cross_check(kinds=kinds, n_max=args.n_max, jobs=args.jobs)
    if args.format == "json":
        payload = {
            "n_max": args.n_max,
            "passed": report.passed,
            "points": [
                {
                    "quotient": p.quotient.label(),
                    "N": p.N,
                    "ok": p.ok,
                    "maps": p.map_count,
                    "orbits": p.orbit_count,
                    "oracle": [list(b) for b in p.oracle_buckets],
                    "expected": [list(b) for b in p.expected_buckets],
                }
                for p in report.points
            ],
        }
        _emit(_record("verify", {"n_max": args.n_max}, payload), [], "json", [])
    else:
        for p in report.points:
            if not p.ok or args.verbose:
                print(p.describe())
        checked = len(report.points)
        if report.passed:
            print(f"verify: all {checked} parameter points agree (N <= {args.n_max})")
        else:
            first = report.failures[0]
            print(f"verify: {len(report.failures)}/{checked} MISMATCHES; first: {first.describe()}")
            print(f"  oracle buckets:   {first.oracle_buckets}")
            print(f"  expected buckets: {first.expected_buckets}")
    return 0 if report.passed else 1


class UsageError(Exception):
    pass


def _add_mode(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed", dest="mode", action="store_const", const="closed")
    group.add_argument("--search", dest="mode", action="store_const", const="search")
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(mode="both")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="necsurf",
        description="Classify, enumerate and verify cyclic actions on bordered surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("table", "json", "csv")):
        p.add_argument("--format", choices=choices, default="table")

    p_cls = sub.add_parser("classify", help="classes for one quotient family")
    p_cls.add_argument("type", choices=KIND_CHOICES)
    p_cls.add_argument("--N", type=int)
    p_cls.add_argument("--m", type=int)
    p_cls.add_argument("--n", type=int)
    p_cls.add_argument("--k", type=int)
    flag = p_cls.add_mutually_exclusive_group()
    flag.add_argument("--orientable", dest="orientable", action="store_true", default=None)
    flag.add_argument("--non-orientable", dest="orientable", action="store_false")
    add_format(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_enum = sub.add_parser("enumerate", help="all actions of a given order")
    p_enum.add_argument("--N", type=int, required=True)
    p_enum.add_argument("--max-genus", type=int, default=None)
    add_format(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_min = sub.add_parser("min-genus", help="least algebraic genus for an order")
    p_min.add_argument("--N", type=int, required=True)
    p_min.add_argument("--variant", choices=extremal.MIN_GENUS_VARIANTS, default="p")
    _add_mode(p_min)
    add_format(p_min)
    p_min.set_defaults(func=cmd_minmax_min)

    p_max = sub.add_parser("max-order", help="largest order for an algebraic genus")
    p_max.add_argument("--p", type=int, required=True)
    p_max.add_argument("--variant", choices=extremal.MAX_ORDER_VARIANTS, default="N")
    _add_mode(p_max)
    add_format(p_max)
    p_max.set_defaults(func=cmd_minmax_max)

    p_ver = sub.add_parser("verify", help="oracle vs closed-form sweep")
    p_ver.add_argument("--n-max", type=int, default=24)
    p_ver.add_argument("--types", type=str, default=None,
                       help="comma-separated quotient kinds (default: all)")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--verbose", action="store_true")
    add_format(p_ver, ("table", "json"))  # a sweep has no rows to write as CSV
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
