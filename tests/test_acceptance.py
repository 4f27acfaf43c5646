"""Acceptance suite: the nine package-level criteria, one test each.

Each test drives the corresponding verification suite and prints a single
PASS/FAIL line with the suite's detail (visible with pytest -s or -rA; the
per-test PASSED/FAILED line of pytest -v mirrors it).  Everything is exact,
the spectrum check included.
"""

from fractions import Fraction
from itertools import permutations, product

import pytest

from splicesig import verify
from splicesig.fixtures import fixture_sig
from splicesig.torus import Angle, defect


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_1_referee_tables():
    _report(verify.referee_tables())


def test_2_splice_identity():
    _report(verify.referee_splice())


def test_2b_excluded_triples_frozen():
    # the sixteen 8th-root triples violating the guard, pinned one by one:
    # on the open torus the identity misses by exactly 1, with a unit
    # coordinate color deletion restores equality
    f1, f2, fl = (fixture_sig(name) for name in ("torus(2,4)", "cable(4,2)+core",
                                                 "torus(3,6)"))
    eighth = lambda k: Angle(Fraction(k % 8, 8))
    seen = []
    for k0, k1, k2 in product(range(8), repeat=3):
        if (2 * k0) % 8 or (k1 + k2) % 8:
            continue
        om1, om2 = (eighth(k0),), (eighth(k1), eighth(k2))
        lhs = fl((eighth(k0), eighth(k1), eighth(k2)))
        rhs = (f1((eighth(k1 + k2), eighth(k0)))
               + f2((eighth(2 * k0), eighth(k1), eighth(k2)))
               + defect((2,), om1) * defect((1, 1), om2))
        seen.append(((k0, k1, k2), lhs - rhs))
    open_torus = [(ks, d) for ks, d in seen if all(ks)]
    assert [ks for ks, _ in open_torus] == [
        (4, 1, 7), (4, 2, 6), (4, 3, 5), (4, 4, 4), (4, 5, 3), (4, 6, 2), (4, 7, 1)]
    assert all(d == -1 for _, d in open_torus)
    assert all(d == 0 for ks, d in seen if not all(ks))
    assert len(seen) == 16
    print("PASS excluded-triples-frozen: 7 open-torus triples off by exactly 1, "
          "9 boundary triples exact")


def test_3_hopf_closed_form_oracle():
    result = verify.hopf_oracle()
    _report(result)
    assert "1936 cases" in result.detail  # >= 1900 cases required


def test_4_spectrum_numeric():
    _report(verify.hopf_spectrum_check())


def test_5_defect_lemma():
    _report(verify.defect_lemma())


def _orbit(ks, d):
    """d at every permutation of the cell ks/24, -d at every permutation of its
    conjugate: a change that keeps antisymmetry and permutation invariance."""
    conj = tuple((-k) % 24 for k in ks)
    return {**dict.fromkeys(permutations(conj), -d), **dict.fromkeys(permutations(ks), d)}


@pytest.mark.parametrize("changes, detail", [
    ({(): 1}, "defect of the empty character is not 0"),
    ({(0, 0): 1}, "defect at the unit character, mu=2"),
    ({(0, 0, 0): -1}, "defect at the unit character, mu=3"),
    ({(12,): 1}, "defect not identically zero for mu=1"),
    (dict.fromkeys(permutations((1, 2, 3)), 1),
     "conjugation antisymmetry fails at (1, 2, 3), mu=3"),
    ({(1, 2): 1, (23, 22): -1}, "permutation invariance fails at (1, 2), mu=2"),
    ({(1, 2, 3): 1, (23, 22, 21): -1}, "permutation invariance fails at (1, 2, 3), mu=3"),
    ({(1, 1, 2): 1, (23, 23, 22): -1}, "permutation invariance fails at (1, 1, 2), mu=3"),
    (_orbit((5, 0), 1), "unit embedding fails at (5,), mu=1"),
    (_orbit((5, 7, 0), 1), "unit embedding fails at (5, 7), mu=2"),
    (_orbit((3, 5, 19), 1), "conjugate-pair embedding fails at (3,5)/24"),
])
def test_5b_defect_lemma_fails_on_a_change_at_one_cell(monkeypatch, changes, detail):
    # each mutant breaks one of the five properties at one cell (and, where the
    # earlier properties demand it, at its permutations and conjugates), so the
    # flat grids must look up exactly the cells the property relates
    real = verify.defect1

    def mutant(omega):
        return real(omega) + changes.get(tuple(a.numerator * 24 // a.denominator
                                               for a in omega), 0)

    monkeypatch.setattr(verify, "defect1", mutant)
    assert verify.defect_lemma() == verify.CriterionResult("defect-lemma", False, detail)


def test_6_hirzebruch_sanity():
    _report(verify.hirzebruch_sanity())


def test_7_univariate_reduction():
    _report(verify.univariate_reduction_check())


def test_8_hopf_nullity():
    _report(verify.hopf_nullity_check())


def test_9_guard_discipline():
    _report(verify.guard_discipline())


def test_fixture_evaluators_built_once_per_run(monkeypatch):
    # both referee suites and guard-discipline read the three fixtures
    # through one evaluator each
    built = []
    real = verify.fixture_sig
    monkeypatch.setattr(verify, "fixture_sig", lambda name: built.append(name) or real(name))
    verify._fixture.cache_clear()
    try:
        _report(verify.referee_tables())
        _report(verify.referee_splice())
        _report(verify.guard_discipline())
    finally:
        verify._fixture.cache_clear()
    assert sorted(built) == ["cable(4,2)+core", "torus(2,4)", "torus(3,6)"]
