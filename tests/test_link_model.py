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
known one.  The fuzzer draws documents over eight forms with true and
perturbed restated numbers, and checks the command line against the model:
the exit code, refusal exactly where the model refuses, the arity, and
sigma(conj w) = sigma(w).
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple, Optional, Tuple

from hypothesis import given, settings, strategies as st

from splicesig.cli import main

# the fixtures' linking matrices, from their topology: two strands linking
# twice; a core linking each of two (2,1)-strands once, which link twice;
# three strands linking pairwise twice.  Every color is one component.
FIXTURES = {
    "torus-2-4": ((0, 2), (2, 0)),
    "cable-4-2": ((0, 1, 1), (1, 0, 2), (1, 2, 0)),
    "torus-3-6": ((0, 2, 2), (2, 0, 2), (2, 2, 0)),
}
MANY = "many"  # a count known to be two or more, its value unknown


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
    form, value = next(iter(doc.items()))
    if form == "hopf":
        m, n = value
        return Node(m + n, (1,) * (m + n), tuple(
            tuple(int((i < m) != (j < m)) for j in range(m + n)) for i in range(m + n)))
    if form == "zero":
        return _unknown(value)
    if form == "fixture":
        lk = FIXTURES[value]
        return Node(len(lk), (1,) * len(lk), lk)
    if form == "torus":
        return Node(1, (1,), ((0,),))
    if form == "splice":
        e1, lam1, e2, lam2 = value
        a, b = _distinguished(model(e1), lam1), _distinguished(model(e2), lam2)
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
        if not node.arity or node.counts[0] != 1 or None in node.lk[0]:
            raise Refused  # no linking vector to read
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
        node = model(e)
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
        companion, pattern, _ = value
        for node in (model(companion), model(pattern)):
            if node.arity != 1 or not _one_component(node.counts[0]):
                raise Refused
        return Node(1, (1,), ((0,),))
    raise AssertionError(form)


def accepted(doc) -> Optional[Node]:
    """The document's node, or None where the model refuses it."""
    try:
        return model(doc)
    except Refused:
        return None


def arity(doc) -> int:
    """The number of colors the document's evaluator takes, refused or not."""
    form, value = next(iter(doc.items()))
    if form in ("torus", "satellite"):
        return 1
    if form == "hopf":
        return sum(value)
    if form == "zero":
        return value
    if form == "fixture":
        return len(FIXTURES[value])
    if form == "splice":
        return arity(value[0]) + arity(value[2]) - 2
    if form == "cable":
        return value[1] + arity(value[0]) - 1
    return arity(value[0]) - 1


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
LEAVES = st.one_of(
    st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda mn: {"hopf": list(mn)}),
    st.integers(0, 3).map(lambda k: {"zero": k}),
    st.sampled_from(sorted(FIXTURES)).map(lambda name: {"fixture": name}),
    TORUS)


@st.composite
def documents(draw, depth=4):
    form = draw(st.sampled_from(("leaf", "splice", "cable", "merge", "satellite")
                                if depth else ("leaf",)))
    below = documents(depth - 1)
    if form == "leaf":
        return draw(LEAVES)
    if form == "splice":
        e1, e2 = draw(below), draw(below)
        return {"splice": [e1, draw(restated_vector(e1)), e2, draw(restated_vector(e2))]}
    if form == "cable":
        return {"cable": [draw(below), draw(st.integers(1, 2))]}
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


@settings(max_examples=150, deadline=None)
@given(documents(), st.integers(1, 12), st.data())
def test_the_command_line_refuses_exactly_where_the_model_does(doc, n, data):
    node, mu = accepted(doc), max(arity(doc), 0)
    ks = data.draw(st.lists(st.integers(0, n - 1), min_size=mu, max_size=mu))
    code, out = _eval(doc, [f"{k}/{n}" for k in ks])
    assert code in (0, 2, 3, 4), out
    # a character of the model's arity: one of another arity would exit 2
    assert node is None or node.arity == mu
    assert (code == 2) == (node is None), (doc, out)
    if code == 0:
        assert _eval(doc, [f"{-k % n}/{n}" for k in ks]) == (code, out), doc
