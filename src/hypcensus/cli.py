"""Command line front end.

Subcommands: hyp and sd evaluate the closed-form census, table and
symbolic print the conditional-polynomial forms, oracle cross-checks the
group-action engine against the formulas, verify runs the identity
suites.  Exit codes: 0 success or agreement, 1 verification mismatch,
2 invalid input or refused work budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import census, oracle, tables
from .census import is_prime
from .symbolic import (
    ConditionalPolynomial,
    cp_to_json_dict,
    render,
    symbolic_hyp,
    symbolic_sd,
)

FORMATS = ("text", "json", "csv", "markdown")


def _parse_genus_range(s: str) -> list[int]:
    if ".." in s:
        lo, hi = s.split("..", 1)
        out = list(range(int(lo), int(hi) + 1))
        if not out:
            raise ValueError(f"empty genus range {s!r}")
        return out
    return [int(s)]


def _parse_q_list(s: str) -> list[int]:
    """The distinct field sizes of a comma list, ascending."""
    qs = sorted({int(part) for part in s.split(",") if part})
    if not qs:
        raise ValueError(f"no field size in --q {s!r}")
    return qs


def _resolve_qs(args) -> list[int]:
    if args.q is not None:
        if args.p is not None or args.e is not None:
            raise ValueError("give either --q or --p/--e, not both")
        return _parse_q_list(args.q)
    if args.p is not None:
        if not is_prime(args.p):
            raise ValueError(f"--p must be a prime, got {args.p}")
        return [args.p ** (args.e if args.e is not None else 1)]
    raise ValueError("missing --q or --p")


def _print_markdown(headers: list[str], rows: list[list[str]]) -> None:
    print("| " + " | ".join(headers) + " |")
    print("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        print("| " + " | ".join(row) + " |")


def _print_csv(headers: list[str], rows: list[list[str]]) -> None:
    w = csv.writer(sys.stdout)
    w.writerow(headers)
    w.writerows(rows)


def cmd_counts(args, which: str) -> int:
    try:
        gs = _parse_genus_range(args.g)
        qs = _resolve_qs(args)
        reports = [census.census_report(g, q) for g in gs for q in qs]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports.sort(key=lambda r: (r.g, r.q))
    if args.format == "json":
        print(json.dumps({"command": which,
                          "results": [r.to_json_dict() for r in reports]}, indent=2))
        return 0
    rows = [[str(r.g), str(r.q), str(getattr(r, which))] for r in reports]
    headers = ["g", "q", which]
    if args.format == "csv":
        _print_csv(headers, rows)
    elif args.format == "markdown":
        _print_markdown(headers, rows)
    else:
        for g, q, v in rows:
            print(f"g={g} q={q} {which}={v}")
    return 0


def _symbolic_for(which: str, g: int) -> ConditionalPolynomial:
    return symbolic_hyp(g) if which == "hyp" else symbolic_sd(g)


def cmd_table(args) -> int:
    try:
        gs = _parse_genus_range(args.g)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bad = [g for g in gs if g not in tables.TABLE_GENUS_RANGE]
    if bad:
        print(f"error: no reference rows for genus {bad}", file=sys.stderr)
        return 2
    which = args.which
    forms = [(g, _symbolic_for(which, g)) for g in gs]
    if args.format == "json":
        payload = {
            "command": "table",
            "which": which,
            "rows": [{"g": g, "form": cp_to_json_dict(cp)} for g, cp in forms],
        }
        if args.compare_paper:
            payload["discrepancies"] = {
                g: [
                    {"q": q, "row": str(tv), "formula": str(fv)}
                    for q, tv, fv in _compare(which, g)
                ]
                for g in gs
            }
        print(json.dumps(payload, indent=2))
        return 0
    rows = [[str(g), render(cp)] for g, cp in forms]
    if args.format == "csv":
        _print_csv(["g", which], rows)
    elif args.format == "markdown":
        _print_markdown(["g", which], rows)
    else:
        for g, form in rows:
            print(f"g={g}: {form}")
    if args.compare_paper and args.format != "json":
        for g in gs:
            diffs = _compare(which, g)
            if not diffs:
                print(f"# g={g}: reference row matches the formula at all q <= 499")
                continue
            print(f"# g={g}: reference row differs at {len(diffs)} prime powers")
            for q, tv, fv in diffs:
                print(f"#   q={q}: row={tv} formula={fv} (delta {tv - fv})")
    return 0


def _compare(which: str, g: int):
    if which == "hyp":
        return tables.compare_hyp_with_formula(g)
    return tables.compare_sd_with_formula(g)


def cmd_symbolic(args) -> int:
    try:
        gs = _parse_genus_range(args.g)
        forms = [(g, _symbolic_for(args.which, g)) for g in gs]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({
            "command": "symbolic",
            "which": args.which,
            "rows": [{"g": g, "form": cp_to_json_dict(cp)} for g, cp in forms],
        }, indent=2))
        return 0
    rows = [[str(g), render(cp)] for g, cp in forms]
    if args.format == "csv":
        _print_csv(["g", args.which], rows)
    elif args.format == "markdown":
        _print_markdown(["g", args.which], rows)
    else:
        for g, form in rows:
            print(f"{args.which}({g}) = {form}")
    return 0


def cmd_oracle(args) -> int:
    try:
        gs = _parse_genus_range(args.g)
        qs = _resolve_qs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pairs = sorted((g, q) for g in gs for q in qs)
    results = []
    for g, q in pairs:
        try:
            report = census.census_report(g, q)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        want_hyp, want_sd = report.hyp, report.sd
        entry = {"g": g, "q": q, "method": args.method,
                 "census_hyp": want_hyp, "census_sd": want_sd}
        try:
            if args.method in ("orbit", "both"):
                res = oracle.orbit_census(g, q, budget=args.budget)
                entry["orbit_hyp"] = res.hyp
                entry["orbit_sd"] = res.sd
            if args.method in ("burnside", "both"):
                entry["burnside_hyp"] = oracle.burnside_hyp(g, q, budget=args.budget)
        except oracle.BudgetError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
        except census.VerificationError as exc:
            print(f"verification failed: (g={g}, q={q}) {exc}", file=sys.stderr)
            return 1
        agrees = all(
            entry[k] == want_hyp for k in ("orbit_hyp", "burnside_hyp") if k in entry
        ) and entry.get("orbit_sd", want_sd) == want_sd
        entry["agrees"] = agrees
        results.append(entry)
    if args.format == "json":
        out = [{k: (str(v) if isinstance(v, int) and k not in ("g", "q") else v)
                for k, v in e.items()} for e in results]
        print(json.dumps({"command": "oracle", "results": out}, indent=2))
    else:
        for e in results:
            got = [f"{k}={e[k]}" for k in
                   ("orbit_hyp", "orbit_sd", "burnside_hyp") if k in e]
            verdict = "AGREES" if e["agrees"] else "MISMATCH"
            print(f"g={e['g']} q={e['q']} census_hyp={e['census_hyp']} "
                  f"census_sd={e['census_sd']} {' '.join(got)} {verdict}")
    failures = [e for e in results if not e["agrees"]]
    if failures:
        print("counterexamples:", file=sys.stderr)
        for e in failures:
            print(json.dumps(e), file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    if args.triples is not None:
        kwargs["triples"] = args.triples
    try:
        if args.q is not None:
            kwargs["qs"] = tuple(_parse_q_list(args.q))
        result = oracle.verify_suite(args.suite, **kwargs)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failed: suite {args.suite!r}, "
              f"counterexample {exc.args!r}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(result))
    else:
        print(f"suite {result['suite']}: {result['checks']} checks ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypcensus",
        description="census of hyperelliptic curve classes over odd finite fields",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, genus_default=None, with_q=True):
        if genus_default is None:
            p.add_argument("--g", required=True, help="genus, a value or a..b range")
        else:
            p.add_argument("--g", default=genus_default,
                           help="genus, a value or a..b range")
        if with_q:
            p.add_argument("--q", help="field size or comma list of sizes")
            p.add_argument("--p", type=int, help="field characteristic")
            p.add_argument("--e", type=int, help="extension degree over the prime field")
        p.add_argument("--format", choices=FORMATS, default="text")

    for name in ("hyp", "sd"):
        p = sub.add_parser(name, help=f"evaluate {name}(g, q)")
        add_common(p)

    p = sub.add_parser("table", help="reference-table rows and comparisons")
    add_common(p, genus_default="2..10", with_q=False)
    p.add_argument("--which", choices=("hyp", "sd"), default="hyp")
    p.add_argument("--compare-paper", action="store_true",
                   help="check the rows against the bundled reference tables")

    p = sub.add_parser("symbolic", help="conditional polynomial in q")
    add_common(p, genus_default=None, with_q=False)
    p.add_argument("--which", choices=("hyp", "sd"), default="hyp")

    p = sub.add_parser("oracle", help="exhaustive group-action cross-check")
    add_common(p)
    p.add_argument("--method", choices=("burnside", "orbit", "both"), default="both")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET,
                   help="maximum allowed group-action work")

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=sorted(oracle.SUITES))
    p.add_argument("--q", help="comma list of field sizes for the suite")
    p.add_argument("--triples", type=int, help="random triple count (cocycle)")
    p.add_argument("--format", choices=FORMATS, default="text")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("hyp", "sd"):
        return cmd_counts(args, args.command)
    if args.command == "table":
        return cmd_table(args)
    if args.command == "symbolic":
        return cmd_symbolic(args)
    if args.command == "oracle":
        return cmd_oracle(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
