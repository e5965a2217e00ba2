"""Command line front end.

Subcommands: hyp and sd evaluate the closed-form census, table and
symbolic print the conditional-polynomial forms, oracle cross-checks the
group-action engine against the formulas, verify runs the identity
suites.  Only oracle and verify import the group-action engine (and
numpy); the others run on the pure-Python closed forms.  Exit codes: 0
success or agreement, 1 verification mismatch, 2 invalid input or
refused work budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import census, tables
from .census import DEFAULT_BUDGET, SUITE_NAMES, is_prime
from .symbolic import cp_to_json_dict, render, symbolic_hyp, symbolic_sd

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
        e = 1 if args.e is None else args.e
        if e < 1:
            raise ValueError(f"--e must be >= 1, got {e}")
        return [args.p**e]
    raise ValueError("missing --q or --p")


def _emit(fmt: str, payload: dict, headers: list[str], rows: list[list[str]], line) -> None:
    """Print payload as JSON, or rows as csv, as a markdown table or as
    one line(*row) each."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(headers)
        w.writerows(rows)
    elif fmt == "markdown":
        print("| " + " | ".join(headers) + " |")
        print("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    else:
        for row in rows:
            print(line(*row))


def cmd_counts(args, which: str) -> int:
    gs, qs = _parse_genus_range(args.g), _resolve_qs(args)
    reports = [census.census_report(g, q) for g in gs for q in qs]
    reports.sort(key=lambda r: (r.g, r.q))
    _emit(args.format, {"command": which, "results": [r.to_json_dict() for r in reports]},
          ["g", "q", which], [[str(r.g), str(r.q), str(getattr(r, which))] for r in reports],
          lambda g, q, v: f"g={g} q={q} {which}={v}")
    return 0


def _emit_forms(args, gs: list[int], line, **extra) -> None:
    """Print the symbolic forms of args.which at the genera gs; extra goes
    into the JSON payload after the rows."""
    which = args.which
    forms = [(g, symbolic_hyp(g) if which == "hyp" else symbolic_sd(g)) for g in gs]
    payload = {"command": args.command, "which": which,
               "rows": [{"g": g, "form": cp_to_json_dict(cp)} for g, cp in forms], **extra}
    _emit(args.format, payload, ["g", which], [[str(g), render(cp)] for g, cp in forms], line)


def cmd_table(args) -> int:
    gs = _parse_genus_range(args.g)
    bad = [g for g in gs if g not in tables.TABLE_GENUS_RANGE]
    if bad:
        print(f"error: no reference rows for genus {bad}", file=sys.stderr)
        return 2
    extra, diffs = {}, {}
    if args.compare_paper:
        diffs = {g: tables.compare_with_formula(args.which, g) for g in gs}
        extra["discrepancies"] = {
            g: [{"q": q, "row": str(tv), "formula": str(fv)} for q, tv, fv in rows]
            for g, rows in diffs.items()
        }
    _emit_forms(args, gs, lambda g, form: f"g={g}: {form}", **extra)
    if args.format == "json":
        return 0
    for g, rows in diffs.items():
        if not rows:
            print(f"# g={g}: reference row matches the formula at all q <= 499")
            continue
        print(f"# g={g}: reference row differs at {len(rows)} prime powers")
        for q, tv, fv in rows:
            print(f"#   q={q}: row={tv} formula={fv} (delta {tv - fv})")
    return 0


def cmd_symbolic(args) -> int:
    _emit_forms(args, _parse_genus_range(args.g), lambda g, form: f"{args.which}({g}) = {form}")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    gs, qs = _parse_genus_range(args.g), _resolve_qs(args)
    pairs = sorted((g, q) for g in gs for q in qs)
    results = []
    for g, q in pairs:
        report = census.census_report(g, q)
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
    # counts as decimal strings; the verdict stays a JSON boolean
    out = [{k: (str(v) if isinstance(v, int) and not isinstance(v, bool) and k not in ("g", "q")
                else v)
            for k, v in e.items()} for e in results]
    keys = ["g", "q", "census_hyp", "census_sd",
            *(k for k in ("orbit_hyp", "orbit_sd", "burnside_hyp") if k in results[0])]
    rows = [[str(e[k]) for k in keys] + ["AGREES" if e["agrees"] else "MISMATCH"] for e in results]
    _emit(args.format, {"command": "oracle", "results": out}, keys + ["verdict"], rows,
          lambda *row: " ".join(f"{k}={v}" for k, v in zip(keys, row)) + f" {row[-1]}")
    failures = [e for e in results if not e["agrees"]]
    if failures:
        print("counterexamples:", file=sys.stderr)
        for e in failures:
            print(json.dumps(e), file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    from . import oracle

    for flag, value, taken in (("--q", args.q, args.suite != "cocycle"),
                               ("--triples", args.triples, args.suite == "cocycle")):
        if value is not None and not taken:
            print(f"error: suite {args.suite} takes no {flag}", file=sys.stderr)
            return 2
    kwargs = {}
    if args.triples is not None:
        kwargs["triples"] = args.triples
    if args.q is not None:
        kwargs["qs"] = tuple(_parse_q_list(args.q))
    try:
        result = oracle.verify_suite(args.suite, **kwargs)
    except census.VerificationError as exc:
        print(f"verification failed: suite {args.suite!r}, "
              f"counterexample {exc.args!r}", file=sys.stderr)
        return 1
    _emit(args.format, result, ["suite", "checks"], [[result["suite"], str(result["checks"])]],
          lambda suite, checks: f"suite {suite}: {checks} checks ok")
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
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="maximum allowed group-action work")

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITE_NAMES))
    p.add_argument("--q", help="comma list of field sizes for the suite")
    p.add_argument("--triples", type=int, help="random triple count (cocycle)")
    p.add_argument("--format", choices=FORMATS, default="text")
    return top


def main(argv=None) -> int:
    """Run one subcommand; a ValueError from any of them, the one kind of
    bad input, prints "error: ..." and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("hyp", "sd"):
            return cmd_counts(args, args.command)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "symbolic":
            return cmd_symbolic(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        return cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
