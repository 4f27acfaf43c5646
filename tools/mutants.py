"""Draw a reproducible sample of AST mutants of one module and run tests on each.

    python tools/mutants.py src/splicesig/splice.py --seed 46 -n 20 \
        -- tests/test_splice.py tests/test_cables.py

A mutant changes one node of the module: a comparison flipped (< and >=,
> and <=, == and !=, is and is not, in and not in), an arithmetic operator
swapped (+ and -, * and //, / and *, % and //, << and >>, & and |), a
boolean operator swapped (and, or), or an integer constant plus 1.  The
sites are listed in ast.walk order and `--seed` draws `-n` of them, so the
same seed, module and source give the same sample.  Each mutant is written
into one copy of the repository (src, tests and bench) in a new temporary
directory, removed at the end, and the pytest arguments after `--` run
there for at most TIMEOUT_S = 300 seconds; a mutant is killed when pytest
fails or times out, so a kill rate is stated with the seed, the sample size,
the selection and that timeout.  The unmutated module, written the same
way, must pass first.  Prints the kill rate and each survivor.  Standard
library only.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
SWAPS = {}
for a, b in ((ast.Lt, ast.GtE), (ast.Gt, ast.LtE), (ast.Eq, ast.NotEq), (ast.Is, ast.IsNot),
             (ast.In, ast.NotIn), (ast.Add, ast.Sub), (ast.Mult, ast.FloorDiv),
             (ast.Div, ast.Mult), (ast.Mod, ast.FloorDiv), (ast.LShift, ast.RShift),
             (ast.BitAnd, ast.BitOr), (ast.And, ast.Or)):
    SWAPS.setdefault(a, b)
    SWAPS.setdefault(b, a)


def sites(tree):
    """(node index in ast.walk order, slot, description) for every mutable node."""
    out = []
    for i, node in enumerate(ast.walk(tree)):
        line = f"{getattr(node, 'lineno', '?')}:{getattr(node, 'col_offset', '?')}"
        if isinstance(node, ast.Compare):
            out += [(i, k, f"line {line}: {type(op).__name__} -> {SWAPS[type(op)].__name__}")
                    for k, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            out.append((i, 0, f"line {line}: {type(node.op).__name__} -> "
                              f"{SWAPS[type(node.op)].__name__}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((i, 0, f"line {line}: {node.value} -> {node.value + 1}"))
    return out


def mutate(source, site):
    """source with the one site changed, unparsed."""
    tree = ast.parse(source)
    index, slot, _ = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree)


def run(copy, pytest_args):
    """True when the tests pass in the copy within TIMEOUT_S seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *pytest_args], cwd=copy, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the repository root")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-n", type=int, default=20, help="mutants to draw")
    parser.add_argument("pytest_args", nargs="+", help="after --: the tests to run")
    args = parser.parse_args(argv)

    source = (ROOT / args.module).read_text(encoding="utf-8")
    every = sites(ast.parse(source))
    sample = sorted(random.Random(args.seed).sample(every, min(args.n, len(every))))
    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        return measure(args, source, len(every), sample, scratch / "repo")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, source, n_sites, sample, copy):
    """Run the selection on the unmutated module, then on each drawn mutant, in copy."""
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
    target = copy / args.module

    target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
    if not run(copy, args.pytest_args):
        print("the unmutated module fails the selection; nothing to measure")
        return 2
    survivors = []
    for site in sample:
        target.write_text(mutate(source, site), encoding="utf-8")
        killed = not run(copy, args.pytest_args)
        print(f"{'killed  ' if killed else 'SURVIVED'} {site[2]}", flush=True)
        if not killed:
            survivors.append(site[2])
    print(f"{args.module}: seed {args.seed}, {len(sample)} of {n_sites} sites drawn, "
          f"{len(sample) - len(survivors)}/{len(sample)} killed")
    for line in survivors:
        print(f"  survivor {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
