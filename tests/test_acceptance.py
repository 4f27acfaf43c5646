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
from splicesig.errors import GuardViolated
from splicesig.fixtures import fixture_sig
from splicesig.splice import SigFn, splice
from splicesig.torus import Angle, char_power, defect, grid


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


# -- every failure branch, each reached by one planted fault --------------------

def _at(n, *ks):
    return tuple(Angle.from_ratio(k, n) for k in ks)


def _changed(real, where, by=1):
    """real, but off by `by` where where(*args) holds."""
    return lambda *args: real(*args) + (by if where(*args) else 0)


def _without(cell):
    """torus.grid without the one cell ks = cell."""
    return lambda *args: ((ks, om) for ks, om in grid(*args) if ks != cell)


def _planted_fixture(monkeypatch, name, omega):
    """verify's fixture `name` off by one at omega."""
    real = verify._fixture
    monkeypatch.setattr(verify, "_fixture", lambda fix: _changed(
        real(fix), lambda om: om == omega) if fix == name else real(fix))


def _planted_splice(monkeypatch, omega, raises):
    """splice, but raising GuardViolated at omega, or evaluating there as 0."""
    def planted(f1, f2):
        real = splice(f1, f2)

        def fn(om):
            if om != omega:
                return real.fn(om)
            if raises:
                raise GuardViolated("planted")
            return 0

        return SigFn(real.arity, fn)

    monkeypatch.setattr(verify, "splice", planted)


def _guard_reading_deleted_colors(f1, f2):
    """splice, but refused wherever both operands have other colors and both
    raised characters are 1, whether or not a unit deletes those colors."""
    real, mu1 = splice(f1, f2), f1.arity - 1

    def fn(om):
        om1, om2 = om[:mu1], om[mu1:]
        if (om1 and om2 and char_power(om1, f1.linking).is_unit()
                and char_power(om2, f2.linking).is_unit()):
            raise GuardViolated("deleted colors read")
        return real.fn(om)

    return SigFn(real.arity, fn)


def test_1b_referee_tables_fails_on_a_change_at_one_cell(monkeypatch):
    _planted_fixture(monkeypatch, "torus(2,4)", _at(8, 3, 5))
    assert verify.referee_tables() == verify.CriterionResult(
        "referee-tables", False, "torus(2,4) at (3, 5)/8: got 0, table says -1")


@pytest.mark.parametrize("omega, detail", [
    (_at(8, 1, 2, 3), "identity off by 1 at (1, 2, 3)/8"),
    (_at(8, 4, 1, 7), "excluded triple (4, 1, 7)/8: discrepancy 0, expected -1"),
])
def test_2c_referee_splice_fails_on_a_change_at_one_cell(monkeypatch, omega, detail):
    _planted_fixture(monkeypatch, "torus(3,6)", omega)
    assert verify.referee_splice() == verify.CriterionResult("referee-splice", False, detail)


def test_2d_referee_splice_counts_its_cells(monkeypatch):
    monkeypatch.setattr(verify, "grid", _without((1, 2, 3)))
    assert verify.referee_splice() == verify.CriterionResult(
        "referee-splice", False, "unexpected triple partition 495+16")


def test_3b_hopf_oracle_fails_on_a_change_at_one_cell(monkeypatch):
    monkeypatch.setattr(verify, "sigma_k", _changed(verify.sigma_k,
                                                    lambda k, a: (k, a) == (1, _at(12, 1)[0])))
    assert verify.hopf_oracle() == verify.CriterionResult(
        "hopf-oracle", False, "H(1,1) at (1/12,1/12): family 0 != closed form 1")


@pytest.mark.parametrize("where, detail", [
    (lambda p, q, z: (p, q, z) == (2, 3, _at(12, 6)[0]),
     "torus(2,3) at 6/12: lattice -1, matrix -2, expected -2"),
    (lambda p, q, z: (p, q, z) == (2, 3, _at(41, 1)[0]), "symmetry fails for (2,3) at 1/41"),
])
def test_6b_hirzebruch_fails_on_a_change_at_one_cell(monkeypatch, where, detail):
    monkeypatch.setattr(verify, "hirzebruch", _changed(verify.hirzebruch, where))
    assert verify.hirzebruch_sanity() == verify.CriterionResult("hirzebruch", False, detail)


@pytest.mark.parametrize("name, where, detail", [
    ("sigma_k", lambda k, a: (k, a) == (1, _at(2, 1)[0]),
     "sigma of the monochrome H(1,1) at 1/2: 0 != -1"),
    ("univariate_reduction", lambda n, ns, lk, closed: (n, ns) == (3, (1, 2)),
     "reduction at n=3, (n1,n2)=(1,2): 1 != direct value 0"),
])
def test_7b_univariate_reduction_fails_on_a_change_at_one_cell(monkeypatch, name, where,
                                                                detail):
    monkeypatch.setattr(verify, name, _changed(getattr(verify, name), where))
    assert verify.univariate_reduction_check() == verify.CriterionResult(
        "univariate-reduction", False, detail)


@pytest.mark.parametrize("sides, detail", [
    ((_at(2, 1), _at(2, 1)), "H(1,1) nullity case: got 1, want 0"),
    ((_at(7, 1), _at(7, 2)), "H(1,1) at (1/7,2/7): nonzero nullity at a generic character"),
    ((_at(6, 1), _at(6, 1)), "H(1,1) at (1/6,1/6): family kernel 1 != closed form 1 + 1"),
])
def test_8b_hopf_nullity_fails_on_a_change_at_one_cell(monkeypatch, sides, detail):
    monkeypatch.setattr(verify, "hopf_nullity",
                        _changed(verify.hopf_nullity, lambda *args: args == sides))
    assert verify.hopf_nullity_check() == verify.CriterionResult("hopf-nullity", False, detail)


@pytest.mark.parametrize("omega, raises, detail", [
    (_at(8, 4, 1, 7), False, "no GuardViolated at excluded (4, 1, 7)/8"),
    (_at(8, 0, 1, 7), True, "spurious GuardViolated at (0, 1, 7)/8"),
    (_at(4, 2, 2), False, "no GuardViolated at (2/4,2/4)"),
    (_at(4, 0, 2), True, "spurious GuardViolated at (0/4,2/4)"),
])
def test_9b_guard_discipline_fails_on_a_change_at_one_cell(monkeypatch, omega, raises, detail):
    _planted_splice(monkeypatch, omega, raises)
    assert verify.guard_discipline() == verify.CriterionResult("guard-discipline", False,
                                                               detail)


def test_9c_guard_discipline_fails_on_a_guard_reading_deleted_colors(monkeypatch):
    # such a guard refuses the first cell, where every color is deleted
    monkeypatch.setattr(verify, "splice", _guard_reading_deleted_colors)
    assert verify.guard_discipline() == verify.CriterionResult(
        "guard-discipline", False, "spurious GuardViolated at (0, 0, 0)/8")


def test_9d_guard_discipline_counts_its_cells(monkeypatch):
    monkeypatch.setattr(verify, "grid", _without((1, 2, 3)))
    assert verify.guard_discipline() == verify.CriterionResult(
        "guard-discipline", False, "unexpected guard partition 504+7")
