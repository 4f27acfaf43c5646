"""The package's public names: the same objects, loaded on first use.

`splicesig` imports `errors`, `torus` and `splice` eagerly and serves every
other public name through a module `__getattr__`.  These tests pin the public
name set and check that each name is the object its defining module binds,
that modules reach each other through public names only, that every function
and class in `src/splicesig` has a caller, and that README's library example
runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splicesig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# module -> public names as the package exported them when every module loaded
# eagerly, less angle, parse_character, serialize_character and
# parse_expression_file (the CLI, Angle and character are the one reader of
# each input), LaurentPoly (a LaurentMatrix holds its integer coefficient
# matrices), NotReal, conjugate_character, delete_color, insert_unit,
# log_sum and tilde_from_multi (no module called them), and NullityUnavailable
# (a family's nullity is sig_fn().nullity, None without a basis), and HopfSpec
# (hopf_signature and hopf_nullity read m and n off their two sides), and
# CableParams, UnivariateReductionInput and weighted_linking (cable_step,
# default_torus_base and univariate_reduction took and checked their inputs
# directly), and cable_step, default_torus_base and MissingBaseEvaluator (the
# cable of a knot is satellite(K, T(p, q), p) with the torus leaf, and any
# other cable a splice with its base link); "alias=attr" names attr of the module
EXPORTS = {
    "errors": "BoundaryCharacter ExpressionError GuardViolated InvalidFamily InvalidParams "
              "LevelMismatch NotHermitian SpliceSigError UsageError",
    "torus": "UNIT Angle char_power character defect defect1 ind is_open",
    "cyclotomic": "CyclotomicNumber HermitianMatrix LaurentMatrix cyclotomic_polynomial",
    "ccomplex": "SeifertFamily",
    "splice": "SigFn cable_parallel lt_splice merge_colors satellite splice splice_knot "
              "to_levine_tristram with_boundary zero_fn",
    "hopf": "hopf_nullity hopf_seifert_family hopf_sig_fn hopf_signature hopf_spectrum "
            "sigma_k unlink_family",
    "cables": "hirzebruch univariate_reduction",
    "fixtures": "PiecewiseTable fixture_matrix fixture_names fixture_sig fixture_table",
    "expr": "parse_expression=parse",
}
ORIGIN = {alias: (module, attr or alias) for module, names in EXPORTS.items()
          for alias, _, attr in (name.partition("=") for name in names.split())}
# `from splicesig import *` also gave the submodules bound on the package
# (`splice` is the function)
STAR = set(ORIGIN) | set(EXPORTS)


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(ORIGIN))
def test_name_is_its_modules_object(name):
    module, attr = ORIGIN[name]
    want = getattr(importlib.import_module(f"splicesig.{module}"), attr)
    assert getattr(splicesig, name) is want


def test_star_import_and_dir_give_the_frozen_names():
    # in a fresh process, where no lazy module has loaded yet
    out = _fresh("import splicesig; print(' '.join(dir(splicesig))); ns = {}; "
                 "exec('from splicesig import *', ns); "
                 "print(' '.join(sorted(set(ns) - {'__builtins__'})))")
    listed, star = out.splitlines()
    assert set(star.split()) == STAR
    assert {name for name in listed.split() if not name.startswith("_")} == STAR


def test_splice_stays_the_function_after_every_submodule_loads():
    out = _fresh("import splicesig.cyclotomic, splicesig.ccomplex, splicesig.hopf, "
                 "splicesig.cables, splicesig.fixtures, splicesig.verify, "
                 "splicesig.splice, splicesig; "
                 "print(type(splicesig.splice).__name__, splicesig.splice.__module__)")
    assert out == "function splicesig.splice\n"


def test_submodule_names_resolve_on_first_use():
    out = _fresh("import sys, splicesig; before = 'splicesig.cyclotomic' in sys.modules; "
                 "m = splicesig.cyclotomic; print(before, m is sys.modules[m.__name__])")
    assert out == "False True\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        splicesig.no_such_name
    assert not hasattr(splicesig, "verify_mod")


def test_every_lazy_entry_resolves():
    # the table in __init__ names attributes by string: a rename shows up here
    lazy = set(splicesig._ORIGIN) | set(splicesig._LAZY)
    assert lazy <= STAR
    for name in lazy:
        assert splicesig.__getattr__(name) is getattr(splicesig, name)


def _package_imports(path):
    """(module, name) for each name path imports from a splicesig module, at any depth;
    `from . import cyclotomic` gives ("cyclotomic", None)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "splicesig"
                                                 or node.module.startswith("splicesig.")):
            module = (node.module or "").removeprefix("splicesig").lstrip(".")
            for alias in node.names:
                yield (module, alias.name) if module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("splicesig."):
                    yield alias.name.removeprefix("splicesig."), None


@pytest.mark.parametrize("path", sorted((SRC / "splicesig").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    private = [f"{module}.{name}" for module, name in _package_imports(path)
               if name is not None and name.startswith("_") and module != path.stem]
    assert private == []


def test_hopf_imports_nothing_from_cyclotomic():
    # its spectrum certificate is an identity in H(t): no cyclotomic field
    assert [m for m, _ in _package_imports(SRC / "splicesig" / "hopf.py") if m == "cyclotomic"] == []


def test_cables_imports_neither_splice_nor_ccomplex():
    # its reduction shares the linking-matrix rule with them through torus
    imported = {m for m, _ in _package_imports(SRC / "splicesig" / "cables.py")}
    assert imported & {"splice", "ccomplex"} == set() and "torus" in imported


def _referenced(tree, strings=False):
    """The names tree refers to: names, attributes and import aliases, and with
    strings its string constants too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(tree):
    """(class, name) for each function and class tree defines, dunders aside;
    class is the ClassDef whose body holds a method directly, else None."""
    owner = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield owner.get(id(node)), node.name


def _class_body_names(cls):
    """The names cls's body reads outside its methods, such as a helper it
    calls while the class is built."""
    return {node.id for stmt in cls.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(stmt) if isinstance(node, ast.Name)}


# the method names two src/ classes define, with those classes: `x.inertia`
# may reach either, so each class's method needs its caller read, not matched
SHARED = {"inertia": {"_Level", "LaurentMatrix"}, "value": {"Angle", "PiecewiseTable"},
          **dict.fromkeys(("at", "color_counts", "peel", "total"), {"Glued", "Links"})}


def test_every_definition_has_a_caller():
    """Each function and class in src/splicesig, dunders aside, has a caller.

    A method or property counts as called through an attribute access
    (`x.name`) in src/, a name its own class body reads outside its methods,
    the package's lazy table, or bench/*.py (names and string constants),
    where the benchmark's wraps bind names it reads only.  A module-level or
    nested function or a class counts as called by its name in any of those
    places.  Matching is by name, so every method name that two classes
    define is listed in SHARED with its classes, and any other is refused.
    """
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((SRC / "splicesig").glob("*.py"))}
    outside = {part for names in splicesig._LAZY.values() for name in names.split()
               for part in name.split("=")}
    outside |= {name for path in sorted((ROOT / "bench").glob("*.py"))
                for name in _referenced(ast.parse(path.read_text()), strings=True)}
    names = outside | {name for tree in trees.values() for name in _referenced(tree)}
    attributes = outside | {node.attr for tree in trees.values() for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)}
    uncalled, classes_of = [], {}
    for module, tree in trees.items():
        for cls, name in _definitions(tree):
            if cls is None:
                if name not in names:
                    uncalled.append(f"{module}.{name}")
                continue
            classes_of.setdefault(name, set()).add(cls.name)
            if name not in attributes | _class_body_names(cls):
                uncalled.append(f"{module}.{cls.name}.{name}")
    shared = {name: classes for name, classes in classes_of.items() if len(classes) > 1}
    unlisted = sorted(name for name in shared.keys() | SHARED.keys()
                      if shared.get(name) != SHARED.get(name))
    assert sorted(uncalled) + unlisted == []


def test_readme_library_example_runs():
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    ns = {}
    exec(blocks[0].split("```", 1)[0], ns)
    assert (ns["sig"], ns["nul"]) == (-1, 1)
    assert ns["f"].linking == (0, 1, 1, 1)
    assert ns["g"].arity == 6


def _bound_imports(tree):
    """(name, line) for each name an import statement binds, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _loaded_names(tree):
    """The names tree reads, those in string annotations included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from (sub.id for sub in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(sub, ast.Name))
            except SyntaxError:
                pass


@pytest.mark.parametrize("path", sorted(p for p in (SRC / "splicesig").glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports to re-export, so it is left out
    tree = ast.parse(path.read_text())
    used = set(_loaded_names(tree))
    assert [f"{name} (line {line})" for name, line in _bound_imports(tree)
            if name not in used] == []
