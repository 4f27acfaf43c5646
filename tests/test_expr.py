"""Expression documents: every form, nesting, and the error taxonomy."""

import json
from fractions import Fraction
from itertools import product

import pytest

from splicesig.cli import main
from splicesig.errors import ExpressionError, GuardViolated
from splicesig.expr import parse, parse_file, parse_text
from splicesig.fixtures import fixture_sig, fixture_table
from splicesig.hopf import hopf_seifert_family, hopf_sig_fn
from splicesig.splice import SigFn, splice
from splicesig.torus import Angle


def ang(num, den):
    return Angle(Fraction(num, den))


class TestLeafForms:
    def test_hopf(self):
        f = parse({"hopf": [2, 2]})
        assert f.arity == 4
        assert f.linking == (0, 1, 1)
        assert f((ang(1, 3),) * 4) == hopf_sig_fn(2, 2)((ang(1, 3),) * 4) == 1

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
        assert f.linking == (4,)  # family carries linking data
        assert f((ang(1, 3), ang(1, 3))) == 1

    def test_seifert_relative_path(self, tmp_path):
        (tmp_path / "fam.json").write_text(hopf_seifert_family(1, 2).dumps())
        exprfile = tmp_path / "expr.json"
        exprfile.write_text(json.dumps({"seifert": "fam.json"}))
        f = parse_file(str(exprfile))
        assert f.arity == 2


@pytest.mark.parametrize("doc, linking", [
    ({"hopf": [1, 2]}, (1, 1)),
    ({"hopf": [3, 2]}, (0, 0, 1, 1)),
    ({"fixture": "torus-2-4"}, (2,)),
    ({"fixture": "cable-4-2"}, (1, 1)),
    ({"fixture": "torus-3-6"}, None),
    ({"zero": 2}, None),
    ({"merge": [{"hopf": [1, 3]}, 0]}, (1, 2)),
    ({"merge": [{"fixture": "cable-4-2"}, 2]}, (2,)),
    ({"merge": [{"hopf": [1, 1]}, 1]}, None),
    ({"merge": [{"fixture": "torus-3-6"}, 2]}, None),
    ({"splice": [{"hopf": [1, 2]}, [1, 1], {"hopf": [1, 2]}, [1, 1]]}, None),
    ({"cable": [{"hopf": [1, 2]}, 2]}, None),
    ({"satellite": [{"zero": 1}, {"zero": 1}, 3]}, None),
])
def test_linking_vector_by_form(doc, linking):
    assert parse(doc).linking == linking


def test_seifert_linking_vector_follows_the_family(tmp_path):
    doc = hopf_seifert_family(2, 3).to_json()
    (tmp_path / "with.json").write_text(json.dumps(doc))
    del doc["linking"]
    (tmp_path / "without.json").write_text(json.dumps(doc))
    assert parse({"seifert": "with.json"}, str(tmp_path)).linking == (6,)
    assert parse({"seifert": "without.json"}, str(tmp_path)).linking is None


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

    def test_deep_nesting(self):
        doc = {"merge": [{"splice": [{"hopf": [1, 2]}, [1, 1],
                                     {"hopf": [1, 2]}, [1, 1]]}, 0]}
        f = parse(doc)
        assert f.arity == 3


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
    ])
    def test_rejected(self, doc):
        with pytest.raises(ExpressionError):
            parse(doc)

    def test_bad_json_text(self):
        with pytest.raises(ExpressionError):
            parse_text("{not json")

    def test_missing_expr_file(self):
        with pytest.raises(ExpressionError):
            parse_file("/no/such/expr.json")

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
        # torus-3-6 carries no vector, so the document's one enters the defect term
        t36, h12 = fixture_sig("torus-3-6"), hopf_sig_fn(1, 2)
        cells = [tuple(ang(k, 8) for k in ks)
                 for ks in ((1, 1, 1, 1), (1, 2, 3, 1), (3, 1, 2, 5), (1, 3, 5, 7))]
        seen = set()
        for lam in ([0, 0], [1, 2], [2, -1]):
            f = parse({"splice": [{"fixture": "torus-3-6"}, lam, {"hopf": [1, 2]}, [1, 1]]})
            want = splice(SigFn(3, t36.fn, linking=lam), h12)
            values = tuple(f(om) for om in cells)
            assert values == tuple(want(om) for om in cells)
            seen.add(values)
        assert len(seen) == 3
