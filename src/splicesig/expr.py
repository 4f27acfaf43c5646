"""JSON expression trees describing how to build a signature evaluator.

An expression document is a JSON object with exactly one key:

    {"hopf": [m, n]}                 generalized Hopf link, one color per
                                     component, color 0 distinguished
    {"zero": arity}                  identically-zero evaluator
    {"fixture": "name"}              built-in worked example (see fixtures)
    {"seifert": "family.json"}       Seifert family loaded from a file
    {"torus": [p, q]}                torus knot T(p, q), p and q coprime and
                                     nonzero; a negative p*q is the mirror
    {"splice": [e1, lam1, e2, lam2]} splice along the color-0 components;
                                     lam lists the distinguished component's
                                     linking numbers with the other colors
    {"cable": [e, nu]}               nu parallel copies of the color-0
                                     component, whose linking vector the
                                     operand must know
    {"merge": [e, lk]}               merge the last two colors; lk is their
                                     total linking number
    {"satellite": [eK, ek, q]}       satellite knot with winding number q

A splice vector or merge lk must equal the number the operand derives
(splice.SigFn) wherever it is known, and is taken where it is not (zero, a
family without linking).  No color known to hold several components is a
splice operand's color 0 or a satellite operand.

Combinators nest at most MAX_DEPTH deep, and no node is built with more than
MAX_COLORS colors.  Structural problems (unknown key, wrong operand shape,
unknown fixture, unreadable file, a limit passed) raise ExpressionError.
Evaluation-time conditions such as GuardViolated pass through untouched.
"""

import json
import math
import os
from typing import Optional

from .errors import MAX_DEPTH, ExpressionError, InvalidFamily
from .splice import (SigFn, cable_parallel, distinguish, merge_colors, satellite, splice,
                     with_boundary, zero_fn)

# One command-line argument holds at most 131 072 bytes on Linux, at least two
# an angle ("0,"), so no --at evaluates a link of more colors: refuse to build one.
MAX_COLORS = 65_536

_FORMS = ("hopf", "zero", "fixture", "seifert", "torus", "splice", "cable", "merge",
          "satellite")


def _expect_args(doc_value, count: int, form: str) -> list:
    if not isinstance(doc_value, list) or len(doc_value) != count:
        raise ExpressionError(f'"{form}" takes a list of {count} entries')
    return doc_value


def _expect_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExpressionError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_colors(count: int, form: str) -> None:
    if count > MAX_COLORS:
        raise ExpressionError(f"{form} takes at most {MAX_COLORS} colors, got {count}")


def _expect_linking(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise ExpressionError(f"{what} must be a list of integers")
    return tuple(_expect_int(x, f"{what} entry") for x in value)


def parse(doc, base_dir: Optional[str] = None) -> SigFn:
    """Build a signature evaluator from a decoded expression document.

    Relative paths in "seifert" forms resolve against base_dir when given,
    the working directory otherwise.  A combinator's ValueError (an operand
    of the wrong arity, say) becomes an ExpressionError here, once.
    """
    try:
        return _parse(doc, base_dir, 0)
    except ValueError as err:
        raise ExpressionError(str(err)) from err


def _parse(doc, base_dir: Optional[str], depth: int) -> SigFn:
    """The evaluator of doc, an operand nested under depth combinators."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression nests combinators more than {MAX_DEPTH} deep")
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ExpressionError("an expression is an object with exactly one key")
    form, value = next(iter(doc.items()))
    below = depth + 1  # the depth of a combinator's operands

    if form == "hopf":
        m, n = _expect_args(value, 2, form)
        m, n = _expect_int(m, "hopf m"), _expect_int(n, "hopf n")
        if m < 1 or n < 1:
            raise ExpressionError("hopf needs positive component counts")
        _expect_colors(m + n, form)
        from .hopf import hopf_sig_fn
        return hopf_sig_fn(m, n)

    if form == "zero":
        arity = _expect_int(value, "zero arity")
        if arity < 0:
            raise ExpressionError("zero arity must be non-negative")
        _expect_colors(arity, form)
        return zero_fn(arity)

    if form == "fixture":
        if not isinstance(value, str):
            raise ExpressionError("fixture takes a name")
        from .fixtures import fixture_sig
        try:
            return fixture_sig(value)
        except KeyError as err:
            raise ExpressionError(str(err.args[0])) from err

    if form == "seifert":
        if not isinstance(value, str):
            raise ExpressionError("seifert takes a file path")
        path = value
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        from .ccomplex import SeifertFamily
        try:
            family = SeifertFamily.load(path)
        except OSError as err:
            raise ExpressionError(f"cannot read seifert family {value!r}: {err}") from err
        except (json.JSONDecodeError, ValueError, InvalidFamily, RecursionError) as err:
            raise ExpressionError(f"bad seifert family {value!r}: {err}") from err
        return family.sig_fn()

    if form == "torus":
        p, q = _expect_args(value, 2, form)
        p, q = _expect_int(p, "torus p"), _expect_int(q, "torus q")
        # the leaf is a knot, one color of one component
        if p * q == 0 or math.gcd(p, q) != 1:
            raise ExpressionError(f"torus ({p}, {q}) is not a knot: the leaf needs "
                                  "coprime nonzero p and q; torus-sig counts torus links")
        from .cables import hirzebruch, torus_nullity
        return with_boundary(1, lambda omega: hirzebruch(p, q, omega[0]), counts=(1,),
                             label=f"torus({p},{q})",
                             nullity=lambda omega: torus_nullity(p, q, omega[0]))

    if form == "splice":
        e1, lam1, e2, lam2 = _expect_args(value, 4, form)
        role = '"splice" operand'
        f1 = distinguish(_parse(e1, base_dir, below), _expect_linking(lam1, "splice lam1"), role)
        f2 = _parse(e2, base_dir, below)
        _expect_colors(f1.arity + f2.arity - 2, form)
        return splice(f1, distinguish(f2, _expect_linking(lam2, "splice lam2"), role))

    if form == "cable":
        e, nu = _expect_args(value, 2, form)
        f, nu = _parse(e, base_dir, below), _expect_int(nu, "cable copy count")
        _expect_colors(f.arity - 1 + nu, form)
        return cable_parallel(f, nu)

    if form == "merge":
        e, lk = _expect_args(value, 2, form)
        return merge_colors(_parse(e, base_dir, below), _expect_int(lk, "merge linking number"))

    if form == "satellite":
        e_companion, e_pattern, q = _expect_args(value, 3, form)
        return satellite(_parse(e_companion, base_dir, below), _parse(e_pattern, base_dir, below),
                         _expect_int(q, "winding number"))

    raise ExpressionError(f"unknown expression form {form!r}; supported: {', '.join(_FORMS)}")

