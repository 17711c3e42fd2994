"""Command line front end: construct, verify, search, and table.

Exit codes: 0 success, 1 a requested property check failed, 2 input or
validation error (a path that cannot be read or written included), 3 a
resource cap was exceeded, 4 an internal consistency check failed (two
computations of one answer disagreed: a defect in this package).  The
environment variable BITRADE_MAX_ELEMENTS overrides the default
enumeration cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .core import from_group
from .errors import (
    BitradesError,
    ConsistencyError,
    ParseError,
    ResourceCapError,
    ValidationError,
)
from .families import family_from_spec, predicted_table
from .groups import group_from_spec
from .properties import (
    DEFAULT_CHECKS,
    DEFAULT_MINIMAL_CAP,
    DEFAULT_PRIMARY_CAP,
    check_names,
    compute_report,
    report_to_json,
)
from .search import DEFAULT_SEARCH_CAP, search_triples
from .serialize import bitrade_to_json, read_bitrade, render_bitrade


def _enum_cap(args):
    if args.enum_cap is not None:
        return args.enum_cap
    env = os.environ.get("BITRADE_MAX_ELEMENTS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"BITRADE_MAX_ELEMENTS must be an integer, got {env!r}")
    return None  # the groups read groups.DEFAULT_MAX_ELEMENTS when they check


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    cap = _enum_cap(args)
    if bool(args.family) == bool(args.group):
        print("construct needs exactly one of --family or --group", file=sys.stderr)
        return 2
    if args.family:
        bitrade = family_from_spec(args.family, cap).bitrade()
    else:
        group = group_from_spec(args.group, cap)
        missing = [name for name in ("a", "b", "c") if getattr(args, name) is None]
        if missing:
            print(f"construct --group needs --{' --'.join(missing)}", file=sys.stderr)
            return 2
        a = group.parse_element(args.a)
        b = group.parse_element(args.b)
        c = group.parse_element(args.c)
        bitrade = from_group(group, a, b, c)
    text = render_bitrade(bitrade) if args.format == "text" else bitrade_to_json(bitrade)
    _emit(text, args.output)
    # a coset bitrade has |G:A| rows of |A| entries: equal orders, equal alphabets
    rows, cols, syms = map(len, bitrade.alphabets)
    k = bitrade.size // rows if rows == cols == syms else "-"
    print(f"size={bitrade.size} rows={rows} cols={cols} syms={syms} k={k}", file=sys.stderr)
    return 0


def _render_report(report):
    lines = []
    for name, result in report.items():
        line = f"{name}: {result.value} ({result.method})"
        if result.witness is not None:
            line += f" witness={result.witness}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    check_names(checks)
    try:
        bitrade = read_bitrade(args.input)
    except ValidationError as err:
        violations = [{"condition": cond, "witness": witness, "message": message}
                      for cond, witness, message in err.violations]
        doc = {"bitrade": {"value": "no", "method": "direct-scan",
                           "witness": violations}}
        _emit(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n", args.output)
        print(f"invalid bitrade: {err}", file=sys.stderr)
        return 1
    report = compute_report(bitrade, checks,
                            minimal_cap=args.oracle_cap, primary_cap=args.primary_cap)
    if args.format == "text":
        _emit(_render_report(report), args.output)
    else:
        _emit(json.dumps(report_to_json(report), indent=2, sort_keys=True,
                         default=str) + "\n", args.output)
    failed = [name for name, res in report.items() if res.value == "no"]
    unknown = [name for name, res in report.items() if res.value == "unknown"]
    caps = {"minimal": f"--oracle-cap {args.oracle_cap}",
            "primary": f"--primary-cap {args.primary_cap}"}
    for name in unknown:
        print(f"warning: {name} undecided: {bitrade.size} cells above {caps[name]}",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_search(args) -> int:
    group = group_from_spec(args.group, _enum_cap(args))
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    records = search_triples(group, require_g3=args.require_g3, k=args.k,
                             checks=checks, search_cap=args.search_cap,
                             minimal_cap=args.oracle_cap)
    text = "".join(record.to_json_line() + "\n" for record in records)
    _emit(text, args.output)
    print(f"{len(records)} triples found in {group.spec}", file=sys.stderr)
    return 0


_TABLE_HEADERS = ("k", "p3", "pq", "alt", "published", "smallest known")


def render_table(rows, recompute=False) -> str:
    def cell(value, verified):
        text = "N/A" if value is None else str(value)
        if recompute and verified:
            text += " *"
        return text

    lines = [list(_TABLE_HEADERS)]
    for row in rows:
        lines.append([
            str(row.k),
            cell(row.p3, row.verified.get("p3")),
            cell(row.pq, row.verified.get("pq")),
            cell(row.alt_display, row.verified.get("alt")),
            "N/A" if row.published is None else str(row.published),
            "N/A" if row.smallest_known is None else str(row.smallest_known),
        ])
    widths = [max(len(line[i]) for line in lines) for i in range(len(_TABLE_HEADERS))]
    out = "\n".join("  ".join(val.ljust(w) for val, w in zip(line, widths)).rstrip()
                    for line in lines) + "\n"
    if recompute:
        out += "* rebuilt and verified: thin, orthogonal, primary\n"
    return out


def _table_json(rows) -> str:
    return json.dumps({"rows": [dataclasses.asdict(row) for row in rows]},
                      indent=2, sort_keys=True) + "\n"


def cmd_table(args) -> int:
    ks = [int(k) for k in args.k.split(",") if k.strip()]
    if not ks:
        raise ParseError(f"--k {args.k!r} lists no k value")
    for i, k in enumerate(ks):
        if k in ks[:i]:
            raise ParseError(f"--k value {k} repeated in {args.k!r}")
    rows = predicted_table(ks, args.recompute, _enum_cap(args))
    text = (_table_json(rows) if args.format == "json"
            else render_table(rows, args.recompute))
    _emit(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitrade",
        description="Construct latin bitrades from groups or permutations and "
                    "decide their properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=None, enum_cap=True):
        p.add_argument("-o", "--output", help="write output to this path")
        if fmt:
            p.add_argument("--format", choices=("json", "text"), default=fmt)
        if enum_cap:
            p.add_argument("--enum-cap", type=int, default=None,
                           help="cap on materialized group size "
                                "(default 5000000, env BITRADE_MAX_ELEMENTS)")

    p = sub.add_parser("construct", help="build a bitrade from a family or group triple")
    p.add_argument("--family", help="family spec, e.g. p3:p=5 or alt:m=2")
    p.add_argument("--group", help="group spec, e.g. sym:3 or gens:4:(1,2,3,4);(1,3)")
    p.add_argument("--a", help="first element (cycle notation or exponent tuple)")
    p.add_argument("--b", help="second element")
    p.add_argument("--c", help="third element; abc must be the identity")
    common(p, fmt="json")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a bitrade document's properties")
    p.add_argument("input", help="path to a bitrade JSON document")
    p.add_argument("--checks", default=",".join(DEFAULT_CHECKS),
                   help="comma list of checks (default %(default)s)")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_MINIMAL_CAP,
                   help="size cap for the minimality oracle")
    p.add_argument("--primary-cap", type=int, default=DEFAULT_PRIMARY_CAP,
                   help="size cap for the definitional primality search")
    common(p, fmt="json", enum_cap=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="enumerate admissible (a, b, c) triples")
    p.add_argument("--group", required=True)
    p.add_argument("--require-g3", action="store_true",
                   help="keep only triples generating the whole group")
    p.add_argument("--k", type=int, default=None,
                   help="keep only triples whose three orders equal k")
    p.add_argument("--checks", default="thin,orthogonal")
    p.add_argument("--search-cap", type=int, default=DEFAULT_SEARCH_CAP)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_MINIMAL_CAP)
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("table", help="the table of minimal k-homogeneous sizes")
    p.add_argument("--k", default="3,5,7,9,11", help="comma list of odd k values")
    p.add_argument("--recompute", action="store_true",
                   help="rebuild and verify every cell within the cap")
    common(p, fmt="text")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as err:
        print(f"resource cap exceeded: {err}", file=sys.stderr)
        return 3
    except ConsistencyError as err:
        print(f"internal consistency check failed: {err}", file=sys.stderr)
        return 4
    except (BitradesError, OSError, ValueError) as err:  # OSError: an unusable path
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
