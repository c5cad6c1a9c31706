"""Command-line front end: classify, enumerate, min-genus, max-order, verify.

Exit status 0 on success (including "no such action exists"), 1 on a
verification mismatch or internal invariant failure, 2 on usage errors,
141 when the reader closes standard output early.
JSON output has sorted keys and a schema version, so identical invocations
are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import select
import sys
from collections import Counter
from functools import cache
from itertools import repeat
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from . import extremal, oracle
from .classify import ClassificationResult, actions_for_order, classify
from .signatures import FAMILIES, QuotientType
from .zmod import FACTORIZE_BOUND

SCHEMA_VERSION = "1"

ROW_HEADERS = [
    "quotient", "N", "surface", "orientable", "genus", "boundary_count",
    "algebraic_genus", "classes", "reversing", "label",
]


def _names(q: QuotientType, names: dict) -> tuple[str, str]:
    """q's label and rendered signature, rendered once per command into ``names``."""
    found = names.get(q)
    if found is None:
        found = names[q] = q.label(), q.signature().render()
    return found


def _realization_dict(q: QuotientType, N: int, real, names: dict) -> dict:
    s = real.surface
    label, signature = _names(q, names)
    return {
        "quotient": label,
        "signature": signature,
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


_CONTAINERS = (dict, list, tuple)
_raise_not_serializable = JSONEncoder().default


@cache
def _encoder(ind: str):
    """The C encoder of ``json``, with sorted keys, that writes a container of
    scalars one item a line at indent ``ind`` (the text between its brackets)."""
    return c_make_encoder(None, _raise_not_serializable, encode_basestring_ascii, None,
                          ": ", ",\n" + ind, True, False, True)


def _dumps(obj, ind: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for ``obj``
    at indent ``ind``.  ``indent`` turns off the C encoder of ``json``; here the
    containers are walked in Python and each container of scalars alone (a
    row, say), and each scalar, is written by one call to the C encoder."""
    if not isinstance(obj, _CONTAINERS):
        return "".join(_encoder(ind)(obj, 0))
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not obj:
        return opening + closing
    inner = ind + "  "
    enc = _encoder(inner)
    if not any(map(isinstance, obj.values() if is_dict else obj, repeat(_CONTAINERS))):
        body = "".join(enc(obj, 0))[1:-1]
    elif is_dict:
        # a key that is not a str is cut from '{key: null}': coerced, or refused, as by json
        body = (",\n" + inner).join([
            (encode_basestring_ascii(k) if isinstance(k, str) else "".join(enc({k: None}, 0))[1:-7])
            + ": " + (_dumps(v, inner) if isinstance(v, _CONTAINERS) else "".join(enc(v, 0)))
            for k, v in sorted(obj.items())])
    else:
        body = (",\n" + inner).join([_dumps(v, inner) for v in obj])
    return f"{opening}\n{inner}{body}\n{ind}{closing}"


def _emit(record: dict, rows: list[dict], fmt: str, footer: str) -> None:
    """Write a command's output: the JSON record, the CSV rows, or the table
    (or ``(no realizations)``) and its footer line.  Rows are written one by
    one, so a reader that closes stdout early is met by the next write."""
    if fmt == "json":
        print(_dumps(record))
    elif fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=ROW_HEADERS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        if rows:
            widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in ROW_HEADERS}
            print("  ".join(h.ljust(widths[h]) for h in ROW_HEADERS))
            for row in rows:
                print("  ".join(str(row[h]).ljust(widths[h]) for h in ROW_HEADERS))
        else:
            print("(no realizations)")
        print(footer)


def _record(command: str, parameters: dict, result) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "result": result,
        "version": SCHEMA_VERSION,
    }


def _classification_payload(res: ClassificationResult) -> dict:
    names: dict = {}
    label, signature = _names(res.quotient, names)
    return {
        "quotient": label,
        "signature": signature,
        "N": res.order,
        "exists": res.exists,
        "classes": res.class_count,
        "realizations": [
            _realization_dict(res.quotient, res.order, r, names) for r in res.realizations
        ],
    }


def cmd_classify(args) -> int:
    q = QuotientType(args.type, m=args.m, n=args.n)
    res = classify(q, args.N, k=args.k, orientable=args.orientable)
    payload = _classification_payload(res)
    word = "exists" if res.exists else "does not exist"
    _emit(_record("classify", _params_dict(args), payload), payload["realizations"], args.format,
          f"-> action {word}; {res.class_count} conjugacy class(es) at N={res.order}")
    return 0


def _params_dict(args) -> dict:
    names = ("type", "N", "m", "n", "k", "orientable")
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_enumerate(args) -> int:
    if args.max_genus is not None and args.max_genus < 0:
        raise ValueError("--max-genus must be >= 0")
    bound = args.N if args.max_genus is None else min(args.N, args.max_genus)
    records = [
        r for r in actions_for_order(args.N) if r.surface.algebraic_genus <= bound
    ]
    names: dict = {}
    rows = [_realization_dict(r.quotient, r.N, r.realization, names) for r in records]
    payload = {"N": args.N, "max_genus": bound, "rows": rows}
    _emit(_record("enumerate", {"N": args.N, "max_genus": bound}, payload), rows, args.format,
          f"-> {len(rows)} row(s), {sum(r['classes'] for r in rows)} class(es)")
    return 0


def _answer_payload(ans: extremal.ExtremalAnswer | None, names: dict) -> dict | None:
    if ans is None:
        return None
    return {
        "defined": True,
        "variant": ans.variant,
        "argument": ans.argument,
        "value": ans.value,
        "classes": ans.class_count,
        "realizers": [
            _realization_dict(r.quotient, r.N, r.realization, names) for r in ans.realizers
        ],
    }


def cmd_minmax(args) -> int:
    query = args.command
    if query == "min-genus":
        arg, closed_fn, search_fn = args.N, extremal.min_genus_closed, extremal.min_genus_search
    else:
        arg, closed_fn, search_fn = args.p, extremal.max_order_closed, extremal.max_order_search
    mode = args.mode
    closed = closed_fn(arg, args.variant) if mode in ("closed", "both") else None
    search = search_fn(arg, args.variant) if mode in ("search", "both") else None
    names: dict = {}  # closed and search mostly share their realizers' quotients
    result = {
        "query": query,
        "variant": args.variant,
        "argument": arg,
        "closed": _answer_payload(closed, names),
        "search": _answer_payload(search, names),
    }
    verdict = None
    if mode == "both":
        # the realizers as multisets; a row renders its ActionRecord injectively
        same = (closed.value == search.value
                and Counter(closed.realizers) == Counter(search.realizers))
        verdict = "match" if same else "MISMATCH"
        result["verdict"] = verdict
    shown = result["closed"] or result["search"]
    _emit(_record(query, {"argument": arg, "variant": args.variant, "mode": mode}, result),
          shown["realizers"], args.format,
          f"-> {query}[{args.variant}]({arg}) = {shown['value']}" +
          (f" [{verdict}]" if verdict else ""))
    return 0 if verdict in (None, "match") else 1


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
        _emit(_record("verify", {"n_max": args.n_max}, payload), [], "json", "")
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


def _check_bounds(args) -> None:
    """Reject an order N, or a genus p whose orders reach 2(p+1), that ``factorize`` cannot take."""
    N, p = getattr(args, "N", None), getattr(args, "p", None)
    if N is not None and N >= FACTORIZE_BOUND:
        raise ValueError(f"--N must be below {FACTORIZE_BOUND}, the exact factorisation bound")
    if p is not None and 2 * (p + 1) >= FACTORIZE_BOUND:
        raise ValueError(
            f"--p must have 2(p+1) below {FACTORIZE_BOUND}, the exact factorisation bound")


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
    n_help = f"the order, below {FACTORIZE_BOUND} (the exact factorisation bound)"

    def add_format(p, choices=("table", "json", "csv")):
        p.add_argument("--format", choices=choices, default="table")

    p_cls = sub.add_parser("classify", help="classes for one quotient family")
    p_cls.add_argument("type", choices=tuple(FAMILIES))
    p_cls.add_argument("--N", type=int, help=n_help)
    p_cls.add_argument("--m", type=int)
    p_cls.add_argument("--n", type=int)
    p_cls.add_argument("--k", type=int)
    flag = p_cls.add_mutually_exclusive_group()
    flag.add_argument("--orientable", dest="orientable", action="store_true", default=None)
    flag.add_argument("--non-orientable", dest="orientable", action="store_false")
    add_format(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_enum = sub.add_parser("enumerate", help="all actions of a given order")
    p_enum.add_argument("--N", type=int, required=True, help=n_help)
    p_enum.add_argument("--max-genus", type=int, default=None)
    add_format(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_min = sub.add_parser("min-genus", help="least algebraic genus for an order")
    p_min.add_argument("--N", type=int, required=True, help=n_help)
    p_min.add_argument("--variant", choices=extremal.MIN_GENUS_VARIANTS, default="p")
    _add_mode(p_min)
    add_format(p_min)
    p_min.set_defaults(func=cmd_minmax)

    p_max = sub.add_parser("max-order", help="largest order for an algebraic genus")
    p_max.add_argument("--p", type=int, required=True,
                       help=f"algebraic genus, with 2(p+1) < {FACTORIZE_BOUND}")
    p_max.add_argument("--variant", choices=extremal.MAX_ORDER_VARIANTS, default="N")
    _add_mode(p_max)
    add_format(p_max)
    p_max.set_defaults(func=cmd_minmax)

    p_ver = sub.add_parser("verify", help="oracle vs closed-form sweep")
    p_ver.add_argument("--n-max", type=int, default=24)
    p_ver.add_argument("--types", type=str, default=None,
                       help="comma-separated quotient kinds (default: all)")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--verbose", action="store_true")
    add_format(p_ver, ("table", "json"))  # a sweep has no rows to write as CSV
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _stdout_reader_gone() -> bool:
    """Has the reader of standard output closed it?  A pipe then polls as POLLERR."""
    poller = select.poll()
    try:
        poller.register(sys.stdout, select.POLLOUT)
    except (OSError, TypeError, ValueError):  # a captured stdout, as under pytest, has no fd
        return False
    return any(events & select.POLLERR for _, events in poller.poll(0))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_bounds(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise  # another pipe broke (a ``verify --jobs`` worker, say): an internal failure
        # the reader stopped early (``necsurf enumerate ... | head``): as the Python
        # ``signal`` docs advise, point stdout at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a command killed by a closed pipe
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
