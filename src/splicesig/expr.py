"""JSON expression trees describing how to build a signature evaluator.

An expression document is a JSON object with exactly one key:

    {"hopf": [m, n]}                 generalized Hopf link, one color per
                                     component, color 0 distinguished
    {"zero": arity}                  identically-zero evaluator
    {"fixture": "name"}              built-in worked example (see fixtures)
    {"seifert": "family.json"}       Seifert family loaded from a file
    {"splice": [e1, lam1, e2, lam2]} splice along the color-0 components;
                                     lam lists the distinguished component's
                                     linking numbers with the other colors
                                     and must equal any the operand carries
    {"cable": [e, nu]}               nu parallel copies of the color-0
                                     component (operand must carry linking
                                     metadata: hopf, a distinguished fixture,
                                     or a seifert family with linking data)
    {"merge": [e, lk]}               merge the last two colors; lk is their
                                     total linking number
    {"satellite": [eK, ek, q]}       satellite knot with winding number q

Structural problems (unknown key, wrong operand shape, unknown fixture,
unreadable file) raise ExpressionError.  Evaluation-time conditions such as
GuardViolated pass through untouched.
"""

import json
import os
from typing import Optional

from .errors import ExpressionError, InvalidFamily
from .splice import SigFn, cable_parallel, merge_colors, satellite, splice, zero_fn

_FORMS = ("hopf", "zero", "fixture", "seifert", "splice", "cable", "merge",
          "satellite")


def _expect_args(doc_value, count: int, form: str) -> list:
    if not isinstance(doc_value, list) or len(doc_value) != count:
        raise ExpressionError(f'"{form}" takes a list of {count} entries')
    return doc_value


def _expect_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExpressionError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_linking(value, what: str) -> tuple:
    if not isinstance(value, list):
        raise ExpressionError(f"{what} must be a list of integers")
    return tuple(_expect_int(x, f"{what} entry") for x in value)


def _distinguish(f: SigFn, lam: tuple, form: str) -> SigFn:
    """f with the document's linking vector; one its builder knows must agree."""
    try:
        distinguished = SigFn(f.arity, f.fn, linking=lam, label=f.label,
                              nullity=f.nullity)
    except ValueError as err:
        raise ExpressionError(f'"{form}" operand {f.label or "?"}: {err}') from err
    if f.linking not in (None, distinguished.linking):
        raise ExpressionError(
            f'"{form}" operand {f.label or "?"} has linking vector '
            f'{list(f.linking)}, the document gives {list(lam)}')
    return distinguished


def parse(doc, base_dir: Optional[str] = None) -> SigFn:
    """Build a signature evaluator from a decoded expression document.

    Relative paths in "seifert" forms resolve against base_dir when given,
    the working directory otherwise.
    """
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ExpressionError("an expression is an object with exactly one key")
    form, value = next(iter(doc.items()))

    if form == "hopf":
        m, n = _expect_args(value, 2, form)
        m, n = _expect_int(m, "hopf m"), _expect_int(n, "hopf n")
        if m < 1 or n < 1:
            raise ExpressionError("hopf needs positive component counts")
        from .hopf import hopf_sig_fn
        return hopf_sig_fn(m, n)

    if form == "zero":
        arity = _expect_int(value, "zero arity")
        if arity < 0:
            raise ExpressionError("zero arity must be non-negative")
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
        except (json.JSONDecodeError, ValueError, InvalidFamily) as err:
            raise ExpressionError(f"bad seifert family {value!r}: {err}") from err
        return family.sig_fn()

    if form == "splice":
        e1, lam1, e2, lam2 = _expect_args(value, 4, form)
        f1 = _distinguish(parse(e1, base_dir), _expect_linking(lam1, "splice lam1"), form)
        f2 = _distinguish(parse(e2, base_dir), _expect_linking(lam2, "splice lam2"), form)
        return splice(f1, f2)

    if form == "cable":
        e, nu = _expect_args(value, 2, form)
        f = parse(e, base_dir)
        nu = _expect_int(nu, "cable copy count")
        if f.linking is None:
            raise ExpressionError(
                "cable operand carries no linking metadata for its "
                "distinguished component; use hopf, a distinguished fixture, "
                "or a seifert family with linking data")
        try:
            return cable_parallel(f, nu)
        except ValueError as err:
            raise ExpressionError(str(err)) from err

    if form == "merge":
        e, lk = _expect_args(value, 2, form)
        f = parse(e, base_dir)
        try:
            return merge_colors(f, _expect_int(lk, "merge linking number"))
        except ValueError as err:
            raise ExpressionError(str(err)) from err

    if form == "satellite":
        e_companion, e_pattern, q = _expect_args(value, 3, form)
        fk = parse(e_companion, base_dir)
        fp = parse(e_pattern, base_dir)
        try:
            return satellite(fk, fp, _expect_int(q, "winding number"))
        except ValueError as err:
            raise ExpressionError(str(err)) from err

    raise ExpressionError(f"unknown expression form {form!r}; supported: {', '.join(_FORMS)}")


def parse_text(text: str, base_dir: Optional[str] = None) -> SigFn:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ExpressionError(f"invalid JSON: {err}") from err
    return parse(doc, base_dir)


def parse_file(path: str) -> SigFn:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ExpressionError(f"cannot read expression file {path!r}: {err}") from err
    return parse_text(text, base_dir=os.path.dirname(os.path.abspath(path)))
