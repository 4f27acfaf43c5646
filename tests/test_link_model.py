"""A reference model of link structure, and a fuzzer of expression documents.

The model interprets a document without the splice calculus: from the rules
by which each form's linking numbers and component counts arise (a Hopf
link's copies link 0 times on one side and once across, a splice keeps each
operand's colors and links L'_i to L''_j l'_i*l''_j times, a cable's copies
link each other 0 times and L_j l_j times, a merge adds rows and counts) it
gives each node its arity, the component count of each color and the
color-level linking matrix, None where a leaf has no data.  It refuses a
document where a knot or a distinguished component is required and absent,
or where a restated number (a splice vector, a merge lk) differs from a
known one, and every malformed node.  A Seifert family states no component
count: a one-color family with a basis is a knot exactly when
det(theta+ - theta-) = +-1, and a bicolored Hopf family H(m, n) has unknown
counts, its colors linking m*n times where the file gives that matrix.  The
fuzzer draws documents over the nine forms, to depth 5, with true and
perturbed restated numbers, and malformed nodes, and checks the command
line against the model: the exit code, refusal (an ExpressionError) exactly
where the model refuses, the arity, sigma(conj w) = sigma(w), and that a
splice and its swap agree.  Where the model accepts a document, the parsed
evaluator's arity, component counts, linking matrix and linking vector are
the model's.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from splicesig.ccomplex import SeifertFamily
from splicesig.cli import main
from splicesig.expr import parse
from splicesig.hopf import hopf_seifert_family

# the fixtures' linking matrices, from their topology: two strands linking
# twice; a core linking each of two (2,1)-strands once, which link twice;
# three strands linking pairwise twice.  Every color is one component.
FIXTURES = {
    "torus-2-4": ((0, 2), (2, 0)),
    "cable-4-2": ((0, 1, 1), (1, 0, 2), (1, 2, 0)),
    "torus-3-6": ((0, 2, 2), (2, 0, 2), (2, 2, 0)),
}
# one-color families (theta+, theta-) with a basis: the trefoil's Seifert
# matrix, and an annulus with a full twist, which bounds the Hopf link
TREFOIL = [[-1, 1], [0, -1]]
FAMILIES = {
    "trefoil.json": (TREFOIL, [list(r) for r in zip(*TREFOIL)]),
    "hopf1.json": ([[-1]], [[-1]]),
}
# bicolored H(m, n) families, with or without their linking matrix: (m, n, linking)
HOPF_FAMILIES = {"h12.json": (1, 2, True), "h22.json": (2, 2, True),
                 "h22-unlinked.json": (2, 2, False)}
MANY = "many"  # a count known to be two or more, its value unknown
ARGS = {"hopf": 2, "torus": 2, "splice": 4, "cable": 2, "merge": 2, "satellite": 3}


class Node(NamedTuple):
    arity: int
    counts: Tuple  # per color: an int, None (unknown) or MANY
    lk: Tuple      # rows; an entry is None where unknown


class Refused(Exception):
    """The model's refusal of a document."""


def _unknown(arity: int) -> Node:
    return Node(arity, (None,) * arity,
                tuple(tuple(0 if i == j else None for j in range(arity)) for i in range(arity)))


def _add(x, y):
    return None if x is None or y is None else x + y


def _one_component(count) -> bool:
    return count is None or count == 1


def _integer(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise Refused
    return x


def _vector(lam) -> Tuple[int, ...]:
    if not isinstance(lam, list):
        raise Refused
    return tuple(map(_integer, lam))


def _det(rows) -> int:
    return rows[0][0] if len(rows) == 1 else sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]]) for j, x in enumerate(rows[0]))


def _distinguished(node: Node, lam) -> Node:
    """node with color 0 one component linking the others lam times."""
    if len(lam) != node.arity - 1 or not _one_component(node.counts[0]):
        raise Refused
    row = node.lk[0][1:]
    if any(known is not None and known != given for known, given in zip(row, lam)):
        raise Refused
    lk = [list(r) for r in node.lk]
    for j, given in enumerate(lam, 1):
        lk[0][j] = lk[j][0] = given
    return Node(node.arity, (1,) + node.counts[1:], tuple(map(tuple, lk)))


def model(doc) -> Node:
    """The document's node; Refused where the command line must exit 2."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise Refused
    form, value = next(iter(doc.items()))
    if form in ARGS and not (isinstance(value, list) and len(value) == ARGS[form]):
        raise Refused
    if form == "hopf":
        m, n = map(_integer, value)
        if m < 1 or n < 1:
            raise Refused
        return Node(m + n, (1,) * (m + n), tuple(
            tuple(int((i < m) != (j < m)) for j in range(m + n)) for i in range(m + n)))
    if form == "zero":
        if _integer(value) < 0:
            raise Refused
        return _unknown(value)
    if form == "fixture":
        if not isinstance(value, str) or value not in FIXTURES:
            raise Refused
        lk = FIXTURES[value]
        return Node(len(lk), (1,) * len(lk), lk)
    if form == "seifert":
        if isinstance(value, str) and value in HOPF_FAMILIES:
            m, n, linked = HOPF_FAMILIES[value]
            lk = m * n if linked else None
            return Node(2, (None, None), ((0, lk), (lk, 0)))
        if not isinstance(value, str) or value not in FAMILIES:
            raise Refused
        plus, minus = FAMILIES[value]
        det = _det([[a - b for a, b in zip(p, m)] for p, m in zip(plus, minus)])
        return Node(1, (1 if abs(det) == 1 else MANY,), ((0,),))
    if form == "torus":
        p, q = map(_integer, value)
        if p * q == 0 or math.gcd(p, q) != 1:
            raise Refused
        return Node(1, (1,), ((0,),))
    if form == "splice":
        e1, lam1, e2, lam2 = value
        a = _distinguished(model(e1), lam1 := _vector(lam1))
        b = _distinguished(model(e2), lam2 := _vector(lam2))
        mu1, mu2 = a.arity - 1, b.arity - 1
        lk = [[0] * (mu1 + mu2) for _ in range(mu1 + mu2)]
        for i in range(mu1 + mu2):
            for j in range(mu1 + mu2):
                if i == j:
                    continue
                if i < mu1 and j < mu1:
                    lk[i][j] = a.lk[i + 1][j + 1]
                elif i >= mu1 and j >= mu1:
                    lk[i][j] = b.lk[i - mu1 + 1][j - mu1 + 1]
                else:
                    x, y = (i, j - mu1) if i < mu1 else (j, i - mu1)
                    lk[i][j] = lam1[x] * lam2[y]
        return Node(mu1 + mu2, a.counts[1:] + b.counts[1:], tuple(map(tuple, lk)))
    if form == "cable":
        e, nu = value
        node = model(e)
        if _integer(nu) < 1 or not node.arity or node.counts[0] != 1 or None in node.lk[0]:
            raise Refused  # no copy, or no linking vector to read
        lam, mu = node.lk[0][1:], node.arity - 1
        lk = [[0] * (nu + mu) for _ in range(nu + mu)]
        for i in range(nu + mu):
            for j in range(nu + mu):
                if i >= nu and j >= nu:
                    lk[i][j] = node.lk[i - nu + 1][j - nu + 1]
                elif i >= nu or j >= nu:
                    lk[i][j] = lam[max(i, j) - nu]
        return Node(nu + mu, (1,) * nu + node.counts[1:], tuple(map(tuple, lk)))
    if form == "merge":
        e, given = value
        node, given = model(e), _integer(given)
        if node.arity < 2:
            raise Refused
        a, b = node.arity - 2, node.arity - 1
        if node.lk[a][b] is not None and node.lk[a][b] != given:
            raise Refused
        ca, cb = node.counts[a], node.counts[b]
        count = ca + cb if isinstance(ca, int) and isinstance(cb, int) else MANY
        lk = [list(row[:a]) + [_add(row[a], row[b])] for row in node.lk[:a]]
        lk.append([_add(x, y) for x, y in zip(node.lk[a][:a], node.lk[b][:a])] + [0])
        return Node(b, node.counts[:a] + (count,), tuple(map(tuple, lk)))
    if form == "satellite":
        companion, pattern, q = value
        _integer(q)
        for node in (model(companion), model(pattern)):
            if node.arity != 1 or not _one_component(node.counts[0]):
                raise Refused
        return Node(1, (1,), ((0,),))
    raise Refused  # an unknown form


def accepted(doc) -> Optional[Node]:
    """The document's node, or None where the model refuses it."""
    try:
        return model(doc)
    except Refused:
        return None


# -- the fuzzer ----------------------------------------------------------------

LINK = st.integers(-3, 3)


@st.composite
def restated_vector(draw, operand):
    """A splice vector for operand: the true one (an unknown entry drawn at
    random), one perturbed entry, or a random vector."""
    node = accepted(operand)
    if node is None or not node.arity or draw(st.integers(0, 9)) == 0:
        return draw(st.lists(LINK, max_size=3))
    lam = [draw(LINK) if x is None else x for x in node.lk[0][1:]]
    if lam and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(lam) - 1))
        lam[k] += draw(st.sampled_from([-2, -1, 1, 2]))
    return lam


@st.composite
def restated_lk(draw, operand):
    node = accepted(operand)
    if node is None or node.arity < 2 or node.lk[-2][-1] is None:
        return draw(LINK)
    return node.lk[-2][-1] + draw(st.sampled_from([0, 0, 0, -1, 1]))


TORUS = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda pq: pq[0] * pq[1] != 0 and math.gcd(*pq) == 1).map(lambda pq: {"torus": list(pq)})
SEIFERT = st.sampled_from(sorted(FAMILIES) + sorted(HOPF_FAMILIES)).map(
    lambda name: {"seifert": name})
LEAVES = st.one_of(
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda mn: {"hopf": list(mn)}),
    st.integers(0, 3).map(lambda k: {"zero": k}),
    st.sampled_from(sorted(FIXTURES)).map(lambda name: {"fixture": name}),
    TORUS, SEIFERT)


@st.composite
def malformed(draw, below):
    """A node no parse accepts: a wrong list length, a boolean or a string
    where an integer belongs, an unknown key, or no object at all."""
    e = draw(below)
    return draw(st.sampled_from([
        {"hopf": [1]}, {"hopf": [True, 1]}, {"zero": "2"}, {"torus": [2, "3"]},
        {"torus": [2, 3, 5]}, {"fixture": 1}, {"seifert": ["trefoil.json"]},
        {"splice": [e, [], e]}, {"splice": [e, [True], e, []]}, {"splice": [e, "1", e, []]},
        {"cable": [e]}, {"cable": [e, True]}, {"cable": [e, "2"]}, {"merge": [e, 0, 0]},
        {"merge": [e, False]}, {"satellite": [e, e]}, {"satellite": [e, e, "1"]},
        {"knot": [2, 3]}, {"hopf": [1, 1], "zero": 1}, {}, [e], 3, "hopf", None]))


@st.composite
def documents(draw, depth=5):
    form = draw(st.sampled_from(("leaf", "splice", "cable", "merge", "satellite")
                                if depth else ("leaf",)))
    below = documents(depth - 1)
    if draw(st.integers(0, 19)) == 0:
        return draw(malformed(below))
    if form == "leaf":
        return draw(LEAVES)
    if form == "splice":
        e1, e2 = draw(below), draw(below)
        return {"splice": [e1, draw(restated_vector(e1)), e2, draw(restated_vector(e2))]}
    if form == "cable":
        return {"cable": [draw(st.one_of(LEAVES, below)), draw(st.integers(1, 2))]}
    if form == "merge":
        e = draw(below)
        return {"merge": [e, draw(restated_lk(e))]}
    one = st.one_of(below, TORUS, st.just({"zero": 1}))
    return {"satellite": [draw(one), draw(one), draw(st.integers(-3, 3))]}


def _eval(doc, angles):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--json", "eval", json.dumps(doc), "--at", ",".join(angles)])
    return code, out.getvalue()


@pytest.fixture(scope="module", autouse=True)
def _family_files(tmp_path_factory):
    """The families a seifert leaf names, in the working directory."""
    path = tmp_path_factory.mktemp("families")
    for name, (plus, minus) in FAMILIES.items():
        (path / name).write_text(SeifertFamily(1, {(1,): plus, (-1,): minus},
                                               basis=True).dumps())
    for name, (m, n, linked) in HOPF_FAMILIES.items():
        doc = hopf_seifert_family(m, n).to_json()
        if not linked:
            del doc["linking"]
        (path / name).write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(path)
        yield


def _character(draw, node: Optional[Node], n: int):
    """Angles k/n, one for each of node's colors and the unit 0 about half of
    them; none where node is refused, which the parse does before it reads
    the character."""
    mu = node.arity if node else 0
    k = st.one_of(st.just(0), st.integers(0, n - 1))
    return [f"{k}/{n}" for k in draw(st.lists(k, min_size=mu, max_size=mu))]


@settings(max_examples=150, deadline=None)
@given(documents(), st.integers(1, 12), st.data())
def test_the_command_line_refuses_exactly_where_the_model_does(doc, n, data):
    node = accepted(doc)
    angles = _character(data.draw, node, n)
    code, out = _eval(doc, angles)
    assert code in (0, 2, 3, 4), out
    assert (code == 2) == (node is None), (doc, out)
    if node is None:
        assert json.loads(out)["error"]["type"] == "ExpressionError", (doc, out)
    if code == 0:
        conj = [f"{-int(a.split('/')[0]) % n}/{n}" for a in angles]
        assert _eval(doc, conj) == (code, out), doc


@settings(max_examples=150, deadline=None)
@given(documents())
def test_the_parsed_link_data_is_the_models(doc):
    # each combinator derives its result's runs in bulk; a color at a time
    # they must be what the model gives each color
    node = accepted(doc)
    if node is None:
        return
    f = parse(doc)
    assert f.arity == len(f.counts) == node.arity, doc
    assert all(count >= 2 if want == MANY else count == want
               for count, want in zip(f.counts, node.counts)), (doc, f.counts, node.counts)
    assert all(f.lk(i, j) == node.lk[i][j] for i in range(f.arity) for j in range(f.arity)
               if i != j), doc
    known = node.arity and node.counts[0] == 1 and None not in node.lk[0][1:]
    assert f.linking == (tuple(node.lk[0][1:]) if known else None), doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(LEAVES, documents(3)), st.one_of(LEAVES, documents(3)), st.integers(1, 12),
       st.data())
def test_a_splice_and_its_swap_agree(e1, e2, n, data):
    # the splice formula treats its operands alike: swapping them swaps the
    # colors, and a knot in either place is unguarded.  Leaves, knots among
    # them, are drawn more often than documents() draws them.
    l1, l2 = data.draw(restated_vector(e1)), data.draw(restated_vector(e2))
    doc, swapped = {"splice": [e1, l1, e2, l2]}, {"splice": [e2, l2, e1, l1]}
    angles = _character(data.draw, accepted(doc), n)
    code, out = _eval(doc, angles)
    swapped_code, swapped_out = _eval(swapped, angles[len(l1):] + angles[:len(l1)])
    assert swapped_code == code, (doc, angles, out, swapped_out)
    if code == 0:
        assert swapped_out == out, (doc, angles)
