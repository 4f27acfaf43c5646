"""The package's public names: the same objects, loaded on first use.

`splicesig` imports `errors`, `torus` and `splice` eagerly and serves every
other public name through a module `__getattr__`.  These tests pin the public
name set and check that each name is the object its defining module binds.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splicesig

SRC = Path(__file__).resolve().parents[1] / "src"

# module -> public names as the package exported them when every module loaded
# eagerly; "alias=attr" names attr of the module
EXPORTS = {
    "errors": "BoundaryCharacter ExpressionError GuardViolated InvalidFamily InvalidParams "
              "LevelMismatch MissingBaseEvaluator NotHermitian NotReal NullityUnavailable "
              "SpliceSigError UsageError",
    "torus": "UNIT Angle angle char_power character conjugate_character defect defect1 "
             "delete_color ind insert_unit is_open log_sum parse_character "
             "serialize_character",
    "cyclotomic": "CyclotomicNumber HermitianMatrix LaurentMatrix LaurentPoly "
                  "cyclotomic_polynomial",
    "ccomplex": "SeifertFamily",
    "splice": "SigFn cable_parallel lt_splice merge_colors satellite splice splice_knot "
              "to_levine_tristram with_boundary zero_fn",
    "hopf": "HopfSpec hopf_nullity hopf_seifert_family hopf_sig_fn hopf_signature "
            "hopf_spectrum sigma_k unlink_family",
    "cables": "CableParams UnivariateReductionInput cable_step default_torus_base "
              "hirzebruch tilde_from_multi univariate_reduction weighted_linking",
    "fixtures": "PiecewiseTable fixture_matrix fixture_names fixture_sig fixture_table",
    "expr": "parse_expression=parse parse_expression_file=parse_file",
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
