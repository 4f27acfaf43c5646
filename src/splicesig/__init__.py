"""Multivariate link signatures from Seifert data, with a splice calculus.

`errors`, `torus` and `splice` load with the package; every other public name
loads its module on first use (PEP 562), so a command compiles only what it
runs.  `splice` stays eager: importing the submodule `splicesig.splice` later
would otherwise bind the module, not the function, on the package.
"""

from importlib import import_module as _import_module

from .errors import (BoundaryCharacter, ExpressionError, GuardViolated, InvalidFamily,
                     InvalidParams, LevelMismatch, NotHermitian, SpliceSigError,
                     UsageError)
from .torus import UNIT, Angle, char_power, character, defect, defect1, ind, is_open
from .splice import (SigFn, cable_parallel, lt_splice, merge_colors, satellite, splice,
                     splice_knot, to_levine_tristram, with_boundary, zero_fn)

# module -> the public names it serves lazily; "alias=attr" binds attr as alias
_LAZY = {
    "cyclotomic": "CyclotomicNumber HermitianMatrix LaurentMatrix cyclotomic_polynomial",
    "ccomplex": "SeifertFamily",
    "hopf": "hopf_nullity hopf_seifert_family hopf_sig_fn hopf_signature hopf_spectrum "
            "sigma_k unlink_family",
    "cables": "hirzebruch univariate_reduction",
    "fixtures": "PiecewiseTable fixture_matrix fixture_names fixture_sig fixture_table",
    "expr": "parse_expression=parse",
}
_ORIGIN = {alias: (module, attr or alias) for module, names in _LAZY.items()
           for alias, _, attr in (name.partition("=") for name in names.split())}

__version__ = "0.1.0"
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | set(_ORIGIN))


def __getattr__(name: str):
    if name in _ORIGIN:
        module, attr = _ORIGIN[name]
        value = getattr(_import_module(f".{module}", __name__), attr)
    elif name in _LAZY:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
