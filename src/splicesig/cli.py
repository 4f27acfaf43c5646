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

Exit codes: 0 success, 1 failed verification, and from main's one handler
3 GuardViolated, 4 BoundaryCharacter, 2 any other SpliceSigError, ValueError
or OSError (unusable input).  Every result leaves through _emit, with --json as
one JSON object on stdout: errors, failed checks and --csv reports included.
"""

import argparse
import json
import os
import sys
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Tuple

from .errors import BoundaryCharacter, GuardViolated, SpliceSigError, UsageError
from .expr import parse as parse_expr
from .torus import Angle, Character, character, defect, grid

# commands import the modules they need when they run, so each compiles only
# those; the verify help lists verify.suite_names() from this copy
SUITES = ("all", "referee-tables", "referee-splice", "hopf-oracle", "hopf-spectrum",
          "defect-lemma", "hirzebruch", "univariate-reduction", "hopf-nullity",
          "guard-discipline")

EXIT_OK, EXIT_VERIFY, EXIT_PARSE, EXIT_GUARD, EXIT_BOUNDARY = 0, 1, 2, 3, 4

# sweep and defect-table refuse larger grids before computing a cell; below it
# rows are built in memory, so a cell that raises leaves no half-written output
MAX_GRID_CELLS = 100_000


def _parse_character(text: str) -> Character:
    try:
        return character(text)
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
            except (json.JSONDecodeError, RecursionError) as err:
                raise UsageError(f"invalid JSON expression: {err}") from err
        if os.path.exists(head) or head.endswith(".json"):
            try:
                with open(head, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as err:
                raise UsageError(f"cannot read expression file {head!r}: {err}") from err
            except (json.JSONDecodeError, RecursionError) as err:
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


def _emit(args, doc: dict, lines: Iterable[str], code: int = EXIT_OK,
          note: Optional[str] = None) -> int:
    """The one way out of a command: under --json doc is the only line on
    stdout, else the text lines go to stdout and note, if any, to stderr."""
    if args.json:
        print(json.dumps(doc))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        if note:
            print(note, file=sys.stderr)
    return code


def _grid(start: int, order: int, arity: int) -> Iterator[Tuple[Tuple[int, ...], Character]]:
    """torus.grid, refused above MAX_GRID_CELLS.  With 2 or more cells a side,
    more colors than the limit has bits exceed it, and the size is then given
    as a power, which may be too large to compute."""
    side = order - start
    big = side > 1 and arity > MAX_GRID_CELLS.bit_length()
    if big or side ** arity > MAX_GRID_CELLS:
        cells = f"{side}^{arity}" if big else side ** arity
        raise UsageError(f"grid of {cells} cells exceeds the limit of "
                         f"{MAX_GRID_CELLS}; lower --order")
    return grid(start, order, arity)


def _grid_label(ks: Tuple[int, ...], order: int) -> str:
    return ",".join(f"{k}/{order}" for k in ks)


def _cell_lines(rows, order: int) -> Iterator[str]:
    return (f"{_grid_label(ks, order)}\t{val}" for ks, val in rows)


def _write_grid(args, arity: int, order: int, rows, columns: Tuple[str, str],
                head: dict, text: Iterable[str]) -> int:
    """Grid rows (ks, value) in the layout args picks: --csv writes the columns
    omega_0..omega_{arity-1} and columns[0] and reports the file, --json emits
    head, the order and the cells, each value under columns[1], text the lines."""
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join([f"omega_{i}" for i in range(arity)] + [columns[0]]) + "\n")
            for ks, val in rows:
                fh.write(f"{_grid_label(ks, order)},{val}\n")
        return _emit(args, {"wrote": len(rows), "path": args.csv},
                     [f"wrote {len(rows)} rows to {args.csv}"])
    cells = ([{"at": [f"{k}/{order}" for k in ks], columns[1]: val} for ks, val in rows]
             if args.json else None)  # the document is read only under --json
    return _emit(args, {**head, "order": order, "cells": cells}, text)


def cmd_eval(args) -> int:
    doc, base_dir = _expr_doc(args.expr)
    f = parse_expr(doc, base_dir)
    omega = _parse_character(args.at)
    if len(omega) != f.arity:
        raise UsageError(f"expression {f.label or '?'} takes {f.arity} angles, "
                         f"got {len(omega)}")
    value = f(omega)
    nullity = f.nullity(omega)
    if nullity is None:
        return _emit(args, {"signature": value}, [value])
    return _emit(args, {"signature": value, "nullity": nullity}, [value, f"nullity {nullity}"])


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
    title = f"# {f.label or 'expression'}  order {order}  {len(rows)} cells"
    return _write_grid(args, f.arity, order, rows, ("signature", "value"), {"label": f.label},
                       chain([title], _cell_lines(rows, order)))


def cmd_defect_table(args) -> int:
    try:
        lam = tuple(int(tok) for tok in args.lam.split(","))
    except ValueError as err:
        raise UsageError(f"bad --lambda {args.lam!r}: {err}") from err
    order = args.order
    if order < 1 or not lam:
        raise UsageError("--order must be at least 1 and --lambda non-empty")
    rows = [(ks, defect(lam, omega)) for ks, omega in _grid(0, order, len(lam))]
    title = f"# defect lambda=({','.join(map(str, lam))})  order {order}"
    if len(lam) == 2:  # a matrix with a row per first coordinate: the cells run row by row
        cells = iter(rows)
        body = chain(["\t" + "\t".join(f"{b}/{order}" for b in range(order))],
                     (f"{a}/{order}\t" + "\t".join(str(v) for _, v in islice(cells, order))
                      for a in range(order)))
    else:
        body = _cell_lines(rows, order)
    return _write_grid(args, len(lam), order, rows, ("defect", "defect"),
                       {"lambda": list(lam)}, chain([title], body))


def cmd_verify(args) -> int:
    from .verify import run_suite
    try:
        results = run_suite(args.suite)
    except KeyError as err:
        raise UsageError(str(err.args[0])) from err
    failed = [r.name for r in results if not r.passed]
    doc = {"passed": not failed, "results": [{"name": r.name, "passed": r.passed,
                                              "detail": r.detail} for r in results]}
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name:<22} {r.detail}" for r in results]
    if failed:
        return _emit(args, doc, lines, EXIT_VERIFY, f"{len(failed)} of {len(results)} "
                     f"criteria failed: {', '.join(failed)}")
    return _emit(args, doc, lines + [f"all {len(results)} criteria passed"])


def cmd_torus_sig(args) -> int:
    from .cables import hirzebruch
    zeta = _parse_angle(args.angle)
    value = hirzebruch(args.p, args.q, zeta)
    return _emit(args, {"signature": value}, [value])


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
    except (SpliceSigError, ValueError, OSError) as err:
        code = (EXIT_GUARD if isinstance(err, GuardViolated) else
                EXIT_BOUNDARY if isinstance(err, BoundaryCharacter) else EXIT_PARSE)
        return _emit(args, {"error": {"type": type(err).__name__, "message": str(err)}},
                     [], code, f"error: {err}")


if __name__ == "__main__":
    sys.exit(main())
