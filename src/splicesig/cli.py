"""Command-line front end.

    splice-sig eval <expr> --at 1/8,1/8,1/8
    splice-sig sweep <expr> --order 8 [--csv out.csv] [--include-units]
    splice-sig defect-table --lambda 1,2 --order 12
    splice-sig verify [suite]
    splice-sig torus-sig 2 3 1/2

An <expr> is a path to an expression JSON file, an inline JSON object, a
fixture name, or the shorthands "hopf M N", "fixture NAME", "zero K".
Characters are comma-separated rational angles "a/b" with 0 the unit.

All arithmetic is exact and iteration orders are fixed, so output is
bit-stable across runs.

Exit codes, mapped in main alone: 0 success, 1 failed verification,
3 GuardViolated, 4 BoundaryCharacter, 2 any other SpliceSigError, ValueError
or OSError (unusable input).  With --json every error is a JSON object on stdout.
"""

import argparse
import json
import os
import sys
from itertools import product
from typing import Iterator, List, Optional, Tuple

from .errors import BoundaryCharacter, GuardViolated, SpliceSigError, UsageError
from .expr import parse as parse_expr
from .torus import Angle, Character, defect

# commands import the modules they need when they run, so each compiles only
# those; the verify help lists verify.suite_names() from this copy
SUITES = ("all", "referee-tables", "referee-splice", "hopf-oracle", "hopf-spectrum",
          "defect-lemma", "hirzebruch", "univariate-reduction", "hopf-nullity",
          "guard-discipline")

EXIT_OK, EXIT_VERIFY, EXIT_PARSE, EXIT_GUARD, EXIT_BOUNDARY = 0, 1, 2, 3, 4

# sweep and defect-table refuse larger grids before computing a cell; below it
# rows are built in memory, so a cell that raises leaves no half-written output
MAX_GRID_CELLS = 100_000


def _parse_character(text: str) -> Tuple[Angle, ...]:
    try:
        return tuple(Angle(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad character {text!r}: {err}") from err


def _parse_angle(text: str) -> Angle:
    try:
        return Angle(text)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad angle {text!r}: {err}") from err


def _expr_doc(tokens: List[str]) -> Tuple[dict, Optional[str]]:
    """Turn the positional expression tokens into a document + base dir."""
    head = tokens[0]
    if len(tokens) == 1:
        if head.lstrip().startswith("{"):
            try:
                return json.loads(head), None
            except json.JSONDecodeError as err:
                raise UsageError(f"invalid JSON expression: {err}") from err
        if os.path.exists(head) or head.endswith(".json"):
            try:
                with open(head, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as err:
                raise UsageError(f"cannot read expression file {head!r}: {err}") from err
            except json.JSONDecodeError as err:
                raise UsageError(f"invalid JSON in {head!r}: {err}") from err
            return doc, os.path.dirname(os.path.abspath(head))
        return {"fixture": head}, None
    if head == "hopf" and len(tokens) == 3:
        try:
            return {"hopf": [int(tokens[1]), int(tokens[2])]}, None
        except ValueError as err:
            raise UsageError(f"hopf takes two integers: {err}") from err
    if head == "fixture" and len(tokens) == 2:
        return {"fixture": tokens[1]}, None
    if head == "zero" and len(tokens) == 2:
        try:
            return {"zero": int(tokens[1])}, None
        except ValueError as err:
            raise UsageError(f"zero takes an arity: {err}") from err
    from .fixtures import fixture_names
    raise UsageError(
        f"cannot read expression {' '.join(tokens)!r}; expected a JSON file, "
        f"an inline JSON object, a fixture name ({', '.join(fixture_names())}), "
        f'or "hopf M N" / "fixture NAME" / "zero K"')


def _emit_error(err: Exception, code: int, as_json: bool) -> int:
    if as_json:
        print(json.dumps({"error": {"type": type(err).__name__,
                                    "message": str(err)}}))
    else:
        print(f"error: {err}", file=sys.stderr)
    return code


def _grid(start: int, order: int, arity: int) -> Iterator[Tuple[Tuple[int, ...], Character]]:
    """The cells ks of range(start, order)^arity with their characters ks/order,
    refused above MAX_GRID_CELLS; the angles are built once (none for arity 0)."""
    cells = (order - start) ** arity
    if cells > MAX_GRID_CELLS:
        raise UsageError(f"grid of {cells} cells exceeds the limit of "
                         f"{MAX_GRID_CELLS}; lower --order")
    angles = [Angle.from_ratio(k, order) for k in (range(order) if arity else ())]
    return ((ks, tuple(angles[k] for k in ks))
            for ks in product(range(start, order), repeat=arity))


def _grid_label(ks: Tuple[int, ...], order: int) -> str:
    return ",".join(f"{k}/{order}" for k in ks)


def _write_csv(path: str, arity: int, column: str, rows, order: int) -> None:
    """Grid rows (ks, value) as CSV: omega_0..omega_{arity-1}, then column."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"omega_{i}" for i in range(arity)] + [column]) + "\n")
        for ks, val in rows:
            fh.write(f"{_grid_label(ks, order)},{val}\n")
    print(f"wrote {len(rows)} rows to {path}")


def cmd_eval(args) -> int:
    doc, base_dir = _expr_doc(args.expr)
    f = parse_expr(doc, base_dir)
    omega = _parse_character(args.at)
    if len(omega) != f.arity:
        raise UsageError(f"expression {f.label or '?'} takes {f.arity} angles, "
                         f"got {len(omega)}")
    value = f(omega)
    nullity = f.nullity(omega) if f.nullity is not None else None
    if args.json:
        out = {"signature": value}
        if nullity is not None:
            out["nullity"] = nullity
        print(json.dumps(out))
    else:
        print(value)
        if nullity is not None:
            print(f"nullity {nullity}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc, base_dir = _expr_doc(args.expr)
    f = parse_expr(doc, base_dir)
    order = args.order
    if order < 1:
        raise UsageError("--order must be at least 1")
    start = 0 if args.include_units else 1
    rows = []
    for ks, omega in _grid(start, order, f.arity):
        try:
            rows.append((ks, str(f(omega))))
        except GuardViolated:
            rows.append((ks, "guard"))
        except BoundaryCharacter:
            rows.append((ks, "boundary"))
    if args.csv:
        _write_csv(args.csv, f.arity, "signature", rows, order)
    elif args.json:
        print(json.dumps({"label": f.label, "order": order,
                          "cells": [{"at": [f"{k}/{order}" for k in ks],
                                     "value": val} for ks, val in rows]}))
    else:
        print(f"# {f.label or 'expression'}  order {order}  {len(rows)} cells")
        for ks, val in rows:
            print(f"{_grid_label(ks, order)}\t{val}")
    return EXIT_OK


def cmd_defect_table(args) -> int:
    try:
        lam = tuple(int(tok) for tok in args.lam.split(","))
    except ValueError as err:
        raise UsageError(f"bad --lambda {args.lam!r}: {err}") from err
    order = args.order
    if order < 1 or not lam:
        raise UsageError("--order must be at least 1 and --lambda non-empty")
    cells = [(ks, defect(lam, omega)) for ks, omega in _grid(0, order, len(lam))]
    if args.csv:
        _write_csv(args.csv, len(lam), "defect", cells, order)
    elif args.json:
        print(json.dumps({"lambda": list(lam), "order": order,
                          "cells": [{"at": [f"{k}/{order}" for k in ks],
                                     "defect": val} for ks, val in cells]}))
    elif len(lam) == 2:
        print(f"# defect lambda=({','.join(map(str, lam))})  order {order}")
        print("\t" + "\t".join(f"{b}/{order}" for b in range(order)))
        for a in range(order):  # cells run row by row
            row = cells[a * order:(a + 1) * order]
            print(f"{a}/{order}\t" + "\t".join(str(v) for _, v in row))
    else:
        print(f"# defect lambda=({','.join(map(str, lam))})  order {order}")
        for ks, val in cells:
            print(f"{_grid_label(ks, order)}\t{val}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite
    try:
        results = run_suite(args.suite)
    except KeyError as err:
        raise UsageError(str(err.args[0])) from err
    if args.json:
        print(json.dumps({"passed": all(r.passed for r in results),
                          "results": [{"name": r.name, "passed": r.passed,
                                       "detail": r.detail} for r in results]}))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name:<22} {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        if not args.json:
            print(f"{len(failed)} of {len(results)} criteria failed: "
                  f"{', '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY
    if not args.json:
        print(f"all {len(results)} criteria passed")
    return EXIT_OK


def cmd_torus_sig(args) -> int:
    from .cables import hirzebruch
    zeta = _parse_angle(args.angle)
    value = hirzebruch(args.p, args.q, zeta)
    if args.json:
        print(json.dumps({"signature": value}))
    else:
        print(value)
    return EXIT_OK


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps an unset subcommand-level flag from clobbering a
    # top-level --json when argparse merges the namespaces
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="machine-parsable JSON output, including errors")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="splice-sig",
        description="Exact multivariate link signatures: evaluation, sweeps, "
                    "defect tables, verification.")
    top.add_argument("--json", action="store_true",
                     help="machine-parsable JSON output, including errors")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at one character")
    p.add_argument("expr", nargs="+", help="expression file, inline JSON, "
                                           "fixture name, or shorthand")
    p.add_argument("--at", required=True, metavar="a/b,c/d,...",
                   help="rational angles, 0 for the unit")
    _add_json_flag(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate over a root-of-unity grid")
    p.add_argument("expr", nargs="+")
    p.add_argument("--order", type=int, default=8, metavar="N",
                   help="root-of-unity order (default 8)")
    p.add_argument("--csv", metavar="PATH", help="write CSV instead of a table")
    p.add_argument("--include-units", action="store_true",
                   help="include unit coordinates (default sweeps k=1..N-1)")
    _add_json_flag(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("defect-table", help="tabulate the splice defect")
    p.add_argument("--lambda", dest="lam", required=True, metavar="l1,l2,...",
                   help="integer linking vector")
    p.add_argument("--order", type=int, default=12, metavar="N")
    p.add_argument("--csv", metavar="PATH")
    _add_json_flag(p)
    p.set_defaults(fn=cmd_defect_table)

    p = sub.add_parser("verify", help="run self-verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   help=f"one of: {', '.join(SUITES)}")
    _add_json_flag(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("torus-sig", help="torus-link signature by lattice count")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("angle", metavar="a/b")
    _add_json_flag(p)
    p.set_defaults(fn=cmd_torus_sig)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GuardViolated as err:
        return _emit_error(err, EXIT_GUARD, args.json)
    except BoundaryCharacter as err:
        return _emit_error(err, EXIT_BOUNDARY, args.json)
    except (SpliceSigError, ValueError, OSError) as err:
        return _emit_error(err, EXIT_PARSE, args.json)


if __name__ == "__main__":
    sys.exit(main())
