"""Expression documents: every form, nesting, and the error taxonomy."""

import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from splicesig.ccomplex import SeifertFamily
from splicesig.cli import main
from splicesig.errors import ExpressionError, GuardViolated
from splicesig.expr import MAX_COLORS, MAX_DEPTH, parse
from splicesig.fixtures import fixture_table
from splicesig.hopf import hopf_seifert_family, hopf_sig_fn
from splicesig.splice import SigFn, distinguish, splice
from splicesig.torus import Angle


def ang(num, den):
    return Angle(Fraction(num, den))


class TestLeafForms:
    def test_hopf(self):
        f = parse({"hopf": [2, 2]})
        assert f.arity == 4
        assert f.linking == (0, 1, 1)
        assert f((ang(1, 3),) * 4) == hopf_sig_fn(2, 2)((ang(1, 3),) * 4) == 1

    def test_hopf_component_bound(self):
        assert parse({"hopf": [MAX_COLORS - 1, 1]}).arity == MAX_COLORS
        with pytest.raises(ExpressionError, match=f"hopf takes at most {MAX_COLORS}"):
            parse({"splice": [{"hopf": [1, MAX_COLORS]}, [1], {"hopf": [1, 1]}, [1]]})

    @pytest.mark.parametrize("form, at_bound, over", [
        ("zero", {"zero": MAX_COLORS}, {"zero": MAX_COLORS + 1}),
        ("cable", {"cable": [{"hopf": [1, 2]}, MAX_COLORS - 2]},
         {"cable": [{"hopf": [1, 2]}, MAX_COLORS - 1]}),
        ("splice", {"splice": [{"hopf": [1, MAX_COLORS - 1]}, [1] * (MAX_COLORS - 1),
                               {"hopf": [1, 1]}, [1]]},
         {"splice": [{"hopf": [1, MAX_COLORS - 1]}, [1] * (MAX_COLORS - 1),
                     {"hopf": [1, 2]}, [1, 1]]}),
    ])
    def test_one_color_bound_for_every_form(self, form, at_bound, over):
        # a node of MAX_COLORS colors is built, one of more is refused first
        assert parse(at_bound).arity == MAX_COLORS
        with pytest.raises(ExpressionError, match=f"{form} takes at most {MAX_COLORS} colors"):
            parse(over)

    def test_zero(self):
        f = parse({"zero": 3})
        assert f.arity == 3 and f((ang(1, 2),) * 3) == 0

    def test_fixture(self):
        f = parse({"fixture": "referee-L"})
        om = (ang(1, 8),) * 3
        assert f(om) == fixture_table("torus(3,6)").value(om) == 4

    def test_seifert_file(self, tmp_path):
        path = tmp_path / "h22.json"
        path.write_text(hopf_seifert_family(2, 2).dumps())
        f = parse({"seifert": str(path)})
        # the family's matrix gives lk; color 0 is two components, no vector
        assert f.lk(0, 1) == 4 and f.linking is None
        assert f((ang(1, 3), ang(1, 3))) == 1

    def test_seifert_relative_path(self, tmp_path, monkeypatch, capsys):
        # the CLI resolves a family path against the expression file's
        # directory, not the working directory
        (tmp_path / "fam.json").write_text(hopf_seifert_family(1, 2).dumps())
        exprfile = tmp_path / "expr.json"
        exprfile.write_text(json.dumps({"seifert": "fam.json"}))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        want = hopf_seifert_family(1, 2).signature((ang(1, 3),) * 2)
        assert main(["eval", str(exprfile), "--at", "1/3,1/3"]) == 0
        assert capsys.readouterr().out == f"{want}\n"
        with pytest.raises(ExpressionError, match="cannot read seifert family 'fam.json'"):
            parse({"seifert": "fam.json"})


@pytest.mark.parametrize("doc, linking", [
    ({"hopf": [1, 2]}, (1, 1)),
    ({"hopf": [3, 2]}, (0, 0, 1, 1)),
    ({"fixture": "torus-2-4"}, (2,)),
    ({"fixture": "cable-4-2"}, (1, 1)),
    ({"fixture": "torus-3-6"}, (2, 2)),
    ({"zero": 2}, None),
    ({"merge": [{"hopf": [1, 3]}, 0]}, (1, 2)),
    ({"merge": [{"fixture": "cable-4-2"}, 2]}, (2,)),
    ({"merge": [{"hopf": [1, 1]}, 1]}, None),
    ({"merge": [{"fixture": "torus-3-6"}, 2]}, (4,)),
    ({"splice": [{"hopf": [1, 2]}, [1, 1], {"hopf": [1, 2]}, [1, 1]]}, (0, 1, 1)),
    ({"cable": [{"hopf": [1, 2]}, 2]}, (0, 1, 1)),
    ({"satellite": [{"zero": 1}, {"zero": 1}, 3]}, ()),
    ({"torus": [2, 3]}, ()),
])
def test_linking_vector_by_form(doc, linking):
    assert parse(doc).linking == linking


class TestOneColorFamily:
    """A one-color family with a basis is a knot exactly when det(theta^+ -
    theta^-) = +-1: the annulus with a full twist, whose boundary is the Hopf
    link, fills no knot slot, and the trefoil's surface does."""

    ANNULUS = SeifertFamily(1, {(1,): [[-1]], (-1,): [[-1]]}, basis=True, label="annulus")
    TREFOIL = SeifertFamily(1, {(1,): [[-1, 1], [0, -1]], (-1,): [[-1, 0], [1, -1]]},
                            basis=True, label="trefoil")

    def write(self, tmp_path):
        for name, fam in (("annulus", self.ANNULUS), ("trefoil", self.TREFOIL)):
            (tmp_path / f"{name}.json").write_text(fam.dumps())

    @pytest.mark.parametrize("slot", [
        lambda x: {"splice": [x, [], {"hopf": [1, 1]}, [1]]},
        lambda x: {"satellite": [x, {"torus": [2, 3]}, 2]},
        lambda x: {"satellite": [{"torus": [2, 3]}, x, 2]},
    ], ids=["splice", "companion", "pattern"])
    def test_only_the_knot_fills_a_knot_slot(self, slot, tmp_path, monkeypatch, capsys):
        self.write(tmp_path)
        monkeypatch.chdir(tmp_path)
        annulus, trefoil = {"seifert": "annulus.json"}, {"seifert": "trefoil.json"}
        with pytest.raises(ExpressionError, match="annulus: color 0 holds 2 components"):
            parse(slot(annulus), str(tmp_path))
        assert isinstance(parse(slot(trefoil), str(tmp_path))((ang(1, 5),)), int)
        assert main(["eval", json.dumps(slot(annulus)), "--at", "1/3"]) == 2
        assert "annulus: color 0 holds 2 components" in capsys.readouterr().err
        assert main(["eval", json.dumps(slot(trefoil)), "--at", "1/3"]) == 0

    def test_trefoil_splices_as_the_torus_knot(self, tmp_path):
        # the family and the torus leaf are one knot: their splices agree
        self.write(tmp_path)
        family, leaf = (parse({"splice": [knot, [], {"fixture": "cable-4-2"}, [1, 1]]},
                              str(tmp_path))
                        for knot in ({"seifert": "trefoil.json"}, {"torus": [2, 3]}))
        for a, b in product(range(7), repeat=2):
            om = (ang(a, 7), ang(b, 7))
            assert family(om) == leaf(om), om


def test_seifert_linking_vector_follows_the_family(tmp_path):
    doc = hopf_seifert_family(2, 3).to_json()
    (tmp_path / "with.json").write_text(json.dumps(doc))
    del doc["linking"]
    (tmp_path / "without.json").write_text(json.dumps(doc))
    # the matrix gives lk, never a linking vector: no family states its counts
    with_, without = (parse({"seifert": name}, str(tmp_path))
                      for name in ("with.json", "without.json"))
    assert (with_.lk(0, 1), without.lk(0, 1)) == (6, None)
    assert with_.linking is without.linking is None
    with pytest.raises(ExpressionError, match="operand hopf_family.2,3. has no linking vector"):
        parse({"cable": [{"seifert": "with.json"}, 2]}, str(tmp_path))
    # a splice that restates the vector is checked against the family's row;
    # spliced into H(1,1), the Hopf link's other component replaces color 0
    def spliced(lam):
        return parse({"splice": [{"hopf": [1, 1]}, [1], {"seifert": "with.json"}, lam]},
                     str(tmp_path))
    assert spliced([6]).linking == (6,)
    with pytest.raises(ExpressionError, match=r"has linking vector \[6\], the document gives \[7\]"):
        spliced([7])


class TestCombinedForms:
    def test_splice_reproduces_fixture(self):
        doc = {"splice": [{"fixture": "torus-2-4"}, [2],
                          {"fixture": "cable-4-2"}, [1, 1]]}
        f = parse(doc)
        g = parse({"fixture": "torus-3-6"})
        assert f.arity == 3
        for a, b, c in product(range(1, 8), repeat=3):
            om = (ang(a, 8), ang(b, 8), ang(c, 8))
            try:
                got = f(om)
            except GuardViolated:
                assert (2 * a) % 8 == 0 and (b + c) % 8 == 0
                continue
            assert got == g(om), (a, b, c)

    def test_cable(self):
        f = parse({"cable": [{"hopf": [1, 2]}, 2]})
        assert f.arity == 4

    def test_merge_collapses_hopf(self):
        f = parse({"merge": [{"hopf": [1, 1]}, 1]})
        assert f.arity == 1
        assert f((ang(1, 3),)) == -1

    def test_satellite(self):
        f = parse({"satellite": [{"zero": 1}, {"zero": 1}, 3]})
        assert f.arity == 1 and f((ang(1, 5),)) == 0

    def test_satellite_with_a_torus_leaf_is_the_cable(self):
        # Litherland: the (2, 5)-cable of the trefoil at w is sigma_{T(2,3)}(w^2)
        # + sigma_{T(2,5)}(w), with no guard where w^2 = 1
        f = parse({"satellite": [{"torus": [2, 3]}, {"torus": [2, 5]}, 2]})
        trefoil, t25 = parse({"torus": [2, 3]}), parse({"torus": [2, 5]})
        for n in range(1, 13):
            for k in range(n):
                w = ang(k, n)
                assert f((w,)) == trefoil((ang(2 * k, n),)) + t25((w,))
        assert f((ang(1, 2),)) == 0 - 4

    def test_deep_nesting(self):
        doc = {"merge": [{"splice": [{"hopf": [1, 2]}, [1, 1],
                                     {"hopf": [1, 2]}, [1, 1]]}, 0]}
        f = parse(doc)
        assert f.arity == 3

    def test_nesting_is_bounded_as_parse_descends(self, capsys):
        # a document far deeper than the interpreter recurses: refused at the
        # first operand past MAX_DEPTH, not by a RecursionError
        doc = {"zero": 1}
        for _ in range(10 * MAX_DEPTH):
            doc = {"satellite": [doc, {"zero": 1}, 1]}
        with pytest.raises(ExpressionError, match=f"more than {MAX_DEPTH} deep"):
            parse(doc)
        # MAX_DEPTH combinators deep through each operand slot, the command
        # line evaluates the document without a RecursionError: per slot, the
        # wrapper of one level, its nesting levels, the innermost operand, the
        # character and the value there
        torus24, trefoil, n = {"fixture": "torus-2-4"}, {"torus": [2, 3]}, MAX_DEPTH
        hopf11 = {"hopf": [1, 1]}
        # the Hopf link is the unit of splicing: a splice with it along one
        # component keeps the other link, and its vector (2) = 2 * 1, so k
        # nested splices with it read torus(2,4)'s -1 at (1/3, 1/3)
        slots = {
            "satellite companion": (lambda d: {"satellite": [d, {"zero": 1}, 1]}, n,
                                    trefoil, "1/5", -2),
            "satellite pattern": (lambda d: {"satellite": [trefoil, d, 1]}, n,
                                  {"zero": 1}, "1/5", -2 * n),
            "splice left": (lambda d: {"splice": [d, [2], hopf11, [1]]}, n,
                            torus24, "1/3,1/3", -1),
            "splice right": (lambda d: {"splice": [hopf11, [1], d, [2]]}, n,
                             torus24, "1/3,1/3", -1),
            # H(1, n + 1)'s opposite copies are unlinked from each other, and
            # n merges join them into one color
            "merge": (lambda d: {"merge": [d, 0]}, n, {"hopf": [1, n + 1]}, "1/5,2/5",
                      hopf_sig_fn(1, n + 1)((ang(1, 5),) + (ang(2, 5),) * (n + 1))),
            # a cable given its vector by the splice above it at every level;
            # the innermost cable is the MAX_DEPTH-th combinator
            "cable under a splice": (
                lambda d: {"splice": [{"cable": [hopf11, 1]}, [1], d, [2]]}, n - 1,
                torus24, "1/3,1/3", -1),
        }
        for slot, (wrap, levels, doc, at, want) in slots.items():
            for _ in range(levels):
                doc = wrap(doc)
            assert main(["eval", json.dumps(doc), "--at", at]) == 0, slot
            assert capsys.readouterr().out == f"{want}\n", slot
        # two splices of torus(2,4) leave two strands that link 2 * 2 times,
        # so a vector (2) restated one level up is refused
        doc = {"splice": [{"splice": [torus24, [2], torus24, [2]]}, [2], torus24, [2]]}
        assert main(["eval", json.dumps(doc), "--at", "1/3,1/3"]) == 2
        assert "has linking vector [4], the document gives [2]" in capsys.readouterr().err


class TestErrors:
    @pytest.mark.parametrize("doc", [
        [],
        {"a": 1, "b": 2},
        {"frob": [1, 2]},
        {"hopf": [2]},
        {"hopf": [2, 2, 2]},
        {"hopf": ["a", 2]},
        {"hopf": [0, 2]},
        {"hopf": [True, 2]},
        {"zero": -1},
        {"zero": "x"},
        {"fixture": 7},
        {"fixture": "nope"},
        {"seifert": 12},
        {"seifert": "/does/not/exist.json"},
        {"splice": [{"hopf": [1, 1]}, [1]]},
        {"splice": [{"hopf": [1, 1]}, [1, 2], {"hopf": [1, 1]}, [1]]},
        {"splice": [{"hopf": [1, 1]}, ["x"], {"hopf": [1, 1]}, [1]]},
        {"cable": [{"zero": 2}, 2]},
        {"cable": [{"hopf": [1, 1]}, 0]},
        {"merge": [{"zero": 1}, 0]},
        {"satellite": [{"zero": 2}, {"zero": 1}, 1]},
        {"torus": [2]},
        {"torus": [2, "3"]},
        {"torus": [2, 4]},
        {"torus": [0, 1]},
        # one color of two components is no knot: no vector to cable along
        {"cable": [{"zero": 1}, 2]},
        {"cable": [{"merge": [{"hopf": [1, 1]}, 1]}, 2]},
        {"splice": [{"hopf": [1, 1]}, 1, {"hopf": [1, 1]}, [1]]},
    ])
    def test_rejected(self, doc):
        with pytest.raises(ExpressionError):
            parse(doc)

    # the CLI alone reads expression text and files
    def test_bad_json_text(self, capsys):
        assert main(["--json", "eval", "{not json", "--at", "1/2"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith("invalid JSON expression: ")

    def test_missing_expr_file(self, capsys):
        assert main(["--json", "eval", "/no/such/expr.json", "--at", "1/2"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "UsageError"
        assert error["message"].startswith("cannot read expression file '/no/such/expr.json'")

    def test_bad_seifert_payload(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text("{\"arity\": 2}")
        with pytest.raises(ExpressionError):
            parse({"seifert": str(path)})

    def test_guard_passes_through_untouched(self):
        f = parse({"splice": [{"merge": [{"hopf": [1, 2]}, 0]}, [2],
                              {"merge": [{"hopf": [1, 2]}, 0]}, [2]]})
        with pytest.raises(GuardViolated):
            f((ang(1, 2), ang(1, 2)))


# one-color documents: collapses hold several components in their color,
# knots one; a satellite of knots is a knot
COLLAPSES = st.sampled_from([
    {"merge": [{"hopf": [1, 1]}, 1]},
    {"merge": [{"fixture": "torus-2-4"}, 2]},
    {"merge": [{"merge": [{"hopf": [1, 2]}, 0]}, 2]},
])
KNOTS = st.recursive(
    st.just({"zero": 1}) | st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
        lambda pq: pq[0] * pq[1] != 0 and math.gcd(*pq) == 1).map(
        lambda pq: {"torus": list(pq)}),
    lambda knots: st.tuples(knots, knots, st.integers(-3, 3)).map(
        lambda ckq: {"satellite": list(ckq)}),
    max_leaves=4)
# a document with one knot slot, filled by its argument
SLOTS = [
    lambda x: {"splice": [x, [], {"hopf": [1, 1]}, [1]]},
    lambda x: {"splice": [{"hopf": [1, 1]}, [1], x, []]},
    lambda x: {"satellite": [x, {"torus": [2, 3]}, 2]},
    lambda x: {"satellite": [{"torus": [2, 3]}, x, 2]},
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SLOTS), COLLAPSES, KNOTS, st.integers(1, 11))
def test_a_collapse_fills_no_knot_slot(slot, collapse, knot, k):
    with pytest.raises(ExpressionError, match="holds .* components, none of them distinguished"):
        parse(slot(collapse))
    assert isinstance(parse(slot(knot))((ang(k, 12),)), int)


class TestSpliceLinkingVector:
    """A splice document's vector must agree with one the operand's builder knows."""

    AT = (ang(1, 3), ang(1, 3), ang(1, 5), ang(1, 5))

    def test_disagreeing_vector_refused(self):
        doc = {"splice": [{"hopf": [1, 2]}, [5, 7], {"hopf": [1, 2]}, [1, 1]]}
        with pytest.raises(ExpressionError, match=r"operand hopf\(1,2\) has linking "
                                                  r"vector \[1, 1\], the document gives \[5, 7\]"):
            parse(doc)

    def test_disagreeing_vector_exits_2(self, capsys):
        doc = {"splice": [{"hopf": [1, 2]}, [5, 7], {"hopf": [1, 2]}, [1, 1]]}
        assert main(["eval", json.dumps(doc), "--at", "1/3,1/3,1/5,1/5"]) == 2
        assert capsys.readouterr().out == ""

    def test_agreeing_vector_evaluates(self, capsys):
        doc = {"splice": [{"hopf": [1, 2]}, [1, 1], {"hopf": [1, 2]}, [1, 1]]}
        assert parse(doc)(self.AT) == 1
        assert main(["eval", json.dumps(doc), "--at", "1/3,1/3,1/5,1/5"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_unknown_vector_taken_from_document(self):
        # a zero operand carries no vector, so the document's one enters the
        # splice through the raised character and the defect term
        z3, h12 = parse({"zero": 3}), hopf_sig_fn(1, 2)
        cells = [tuple(ang(k, 8) for k in ks)
                 for ks in ((1, 1, 1, 1), (1, 2, 3, 1), (3, 1, 2, 5), (1, 3, 5, 7))]
        seen = set()
        for lam in ([0, 0], [1, 2], [2, -1]):
            f = parse({"splice": [{"zero": 3}, lam, {"hopf": [1, 2]}, [1, 1]]})
            want = splice(distinguish(SigFn(3, z3.fn), lam, "operand"), h12)
            values = tuple(f(om) for om in cells)
            assert values == tuple(want(om) for om in cells)
            seen.add(values)
        assert len(seen) == 3

    # torus-3-6's strands link pairwise twice, so its vector is (2, 2) and a
    # document giving another is refused
    T36_SPLICE = {"splice": [{"fixture": "torus-3-6"}, [5, -7], {"fixture": "torus-2-4"}, [2]]}

    def test_fixture_vector_checked(self, capsys):
        assert main(["eval", json.dumps(self.T36_SPLICE), "--at", "1/6,1/6,1/6"]) == 2
        assert "has linking vector [2, 2], the document gives [5, -7]" \
            in capsys.readouterr().err

    def test_fixture_vector_evaluates(self, capsys):
        doc = {"splice": [{"fixture": "torus-3-6"}, [2, 2], {"fixture": "torus-2-4"}, [2]]}
        assert main(["eval", json.dumps(doc), "--at", "1/6,1/6,1/6"]) == 0
        assert capsys.readouterr().out == "2\n"
