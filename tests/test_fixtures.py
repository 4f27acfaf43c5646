"""Built-in worked examples: matrices, signature functions, lookup tables.

The three fixtures form a spliced family: the two-component (2,4)-torus
link, the cored (4,2)-cable over the unknot, and the three-component
(3,6)-torus link obtained by splicing the first two.  Expected values come
from the piecewise tables shipped alongside the matrices; full-grid sweeps
against those tables live in the acceptance suite, module tests here spot
check and exercise the plumbing.
"""

import json
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import inertia
from splicesig import fixtures
from splicesig.ccomplex import SeifertFamily
from splicesig.errors import MAX_GRID_CELLS
from splicesig.fixtures import (FIXTURES, PiecewiseTable, fixture_matrix, fixture_names,
                                fixture_sig, fixture_table)
from splicesig.torus import UNIT, Angle


def ang(num, den):
    return Angle(Fraction(num, den))


def eighth(k):
    return ang(k % 8, 8)


def family(name):
    """The fixture's forms as a SeifertFamily, the directions left out as zero forms."""
    arity, forms = FIXTURES[name].arity, FIXTURES[name].forms
    g = len(next(iter(forms.values())))
    zero = [[0] * g for _ in range(g)]
    return SeifertFamily(arity, {eps: forms.get(eps, zero)
                                 for eps in product((1, -1), repeat=arity)})


class TestSpotValues:
    def test_torus24(self):
        f = fixture_sig("torus(2,4)")
        assert f((eighth(1), eighth(1))) == 1
        assert f((eighth(1), eighth(3))) == 0   # wall s = 1/2
        assert f((eighth(3), eighth(3))) == -1
        assert f((eighth(7), eighth(7))) == 1

    def test_cable42(self):
        f = fixture_sig("cable(4,2)+core")
        assert f((eighth(1), eighth(1), eighth(1))) == 2
        assert f((eighth(4), eighth(2), eighth(2))) == 0   # s = 3/2
        assert f((eighth(7), eighth(7), eighth(7))) == 2   # s = 35/8, past last wall
        assert f((eighth(4), eighth(4), eighth(4))) == -2  # s = 5/2

    def test_torus36(self):
        f = fixture_sig("torus(3,6)")
        assert f((eighth(1), eighth(1), eighth(1))) == 4
        assert f((eighth(2), eighth(1), eighth(1))) == 2   # wall s = 1/2
        assert f((eighth(4), eighth(3), eighth(3))) == -2
        assert f((eighth(7), eighth(7), eighth(7))) == 4

    def test_torus24_full_grid(self):
        f = fixture_sig("torus(2,4)")
        table = fixture_table("torus(2,4)")
        for a, b in product(range(1, 8), repeat=2):
            om = (eighth(a), eighth(b))
            assert f(om) == table.value(om), (a, b)

    def test_bigger_fixtures_sampled_rows(self):
        f2, f3 = fixture_sig("cable(4,2)+core"), fixture_sig("torus(3,6)")
        t2, t3 = fixture_table("cable(4,2)+core"), fixture_table("torus(3,6)")
        for a, b in product(range(1, 8), repeat=2):
            om = (eighth(a), eighth(b), eighth(1))
            assert f2(om) == t2.value(om), (a, b)
            assert f3(om) == t3.value(om), (a, b)


class TestBoundary:
    def test_cable_core_deletion_gives_torus24(self):
        f2, f1 = fixture_sig("cable(4,2)+core"), fixture_sig("torus(2,4)")
        for a, b in product(range(1, 8), repeat=2):
            assert f2((UNIT, eighth(a), eighth(b))) == f1((eighth(a), eighth(b)))

    def test_cable_copy_deletion_gives_hopf(self):
        f2 = fixture_sig("cable(4,2)+core")
        for a, b in product(range(1, 8), repeat=2):
            assert f2((eighth(a), UNIT, eighth(b))) == 0
            assert f2((eighth(a), eighth(b), UNIT)) == 0

    def test_torus36_single_deletion_gives_torus24(self):
        f3, f1 = fixture_sig("torus(3,6)"), fixture_sig("torus(2,4)")
        for a, b in product(range(1, 8), repeat=2):
            om1 = (eighth(a), eighth(b))
            assert f3((UNIT,) + om1) == f1(om1)
            assert f3((eighth(a), UNIT, eighth(b))) == f1(om1)
            assert f3(om1 + (UNIT,)) == f1(om1)

    def test_double_deletion_unknots(self):
        assert fixture_sig("torus(3,6)")((UNIT, UNIT, eighth(3))) == 0
        assert fixture_sig("torus(2,4)")((UNIT, eighth(5))) == 0
        assert fixture_sig("cable(4,2)+core")((eighth(5), UNIT, UNIT)) == 0

    def test_all_units_empty(self):
        assert fixture_sig("torus(2,4)")((UNIT, UNIT)) == 0
        assert fixture_sig("torus(3,6)")((UNIT, UNIT, UNIT)) == 0

    @pytest.mark.parametrize("name", fixture_names())
    def test_every_deletion_gives_its_sublink(self, name):
        # the deleted colors at 1 and the kept ones at open k/8 angles give the
        # named sublink at the kept coordinates, and 0 for the zero-signature
        # links; the tests above pin which link each deletion of the fixtures
        # leaves, this one that every registry entry is wired as it says
        fix, f = FIXTURES[name], fixture_sig(name)
        colors = range(fix.arity)
        assert set(fix.boundary) == {kept for r in range(1, fix.arity)
                                     for kept in combinations(colors, r)}
        for kept, sub in fix.boundary.items():
            g = fixture_sig(sub) if sub in FIXTURES else None
            assert g is not None or sub in ("unknot", "hopf(1,1)")
            for ks in product(range(1, 8), repeat=len(kept)):
                at = dict(zip(kept, map(eighth, ks)))
                om = tuple(at.get(i, UNIT) for i in colors)
                sub_om = tuple(at.values())
                assert f(om) == (g(sub_om) if g else 0), (kept, ks)
                if g:
                    assert g(sub_om) == fixture_table(sub).value(sub_om)

    @pytest.mark.parametrize("name,calls", [("torus(2,4)", 1), ("cable(4,2)+core", 2),
                                            ("torus(3,6)", 2)])
    def test_each_sublink_built_once(self, name, calls, monkeypatch):
        # torus(3,6)'s three pairs share one torus(2,4) evaluator and leaf cache
        made = []
        real = fixtures._matrix_sig
        monkeypatch.setattr(fixtures, "_matrix_sig", lambda m: made.append(m) or real(m))
        fixture_sig(name)
        assert len(made) == calls


class TestRegistry:
    def test_names_listed(self):
        names = fixture_names()
        assert "torus(2,4)" in names
        assert "cable(4,2)+core" in names
        assert "torus(3,6)" in names

    def test_aliases(self):
        assert fixture_sig("torus-2-4").label == "torus(2,4)"
        assert fixture_sig("referee-kl1").label == "torus(2,4)"
        assert fixture_sig("referee-k'l'").label == "torus(2,4)"
        assert fixture_sig("referee-K''L''").label == "cable(4,2)+core"
        assert fixture_sig("referee-L").label == "torus(3,6)"
        assert fixture_sig("TORUS-3-6").label == "torus(3,6)"

    def test_unicode_primes(self):
        assert fixture_sig("referee-K′L′").label == "torus(2,4)"
        assert fixture_sig("referee-K″L″").label == "cable(4,2)+core"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError) as info:
            fixture_sig("torus(9,9)")
        assert "torus(2,4)" in str(info.value)

    def test_tables_share_names(self):
        for name in fixture_names():
            assert fixture_table(name).values


class TestMatrices:
    def test_shapes_and_variables(self):
        m1, m2, m3 = (fixture_matrix(name) for name in ("torus(2,4)", "cable(4,2)+core",
                                                         "torus(3,6)"))
        assert (m1.size, m1.arity) == (1, 2)
        assert (m2.size, m2.arity) == (2, 3)
        assert (m3.size, m3.arity) == (4, 3)

    @pytest.mark.parametrize("name", fixture_names())
    def test_forms_are_a_valid_family(self, name):
        # the forms are a family, so they keep its rules, and compile to the fixture's H(t)
        fam = family(name)
        assert isinstance(fam, SeifertFamily)
        assert fam.laurent.coeffs == fixture_matrix(name).coeffs

    def test_json_round_trip(self):
        # the family document is the one JSON form document
        for name in fixture_names():
            m = fixture_matrix(name)
            again = SeifertFamily.from_json(json.loads(family(name).dumps())).laurent
            assert again.coeffs == m.coeffs
            om = (ang(1, 8),) * m.arity
            a = inertia(m.evaluate(om))
            b = inertia(again.evaluate(om))
            assert a == b

    def test_hermitian_everywhere_sampled(self):
        m = fixture_matrix("cable(4,2)+core")
        for a, b, c in [(1, 1, 1), (3, 5, 7), (2, 6, 4), (7, 1, 3)]:
            h = m.evaluate((eighth(a), eighth(b), eighth(c)))
            pos, neg, n = inertia(h)
            assert pos - neg + n <= 2

    def test_fixture_matrix_lookup_matches(self):
        assert fixture_matrix("referee-L").coeffs == fixture_matrix("torus(3,6)").coeffs

    def test_leaf_cache_is_bounded(self, monkeypatch):
        matrix = fixture_matrix("torus(2,4)")
        # the bound is the grid limit; under a smaller one the leaf evicts
        assert fixtures._matrix_sig(matrix).cache_info().maxsize == MAX_GRID_CELLS
        monkeypatch.setattr(fixtures, "MAX_GRID_CELLS", 1024)
        # a sweep over more open-torus cells than the leaf keeps
        order = 34
        sig = fixtures._matrix_sig(matrix)
        table = fixture_table("torus(2,4)")
        cells = list(product(range(1, order), repeat=2))
        assert len(cells) > fixtures.MAX_GRID_CELLS
        for ks in cells:
            omega = tuple(ang(k, order) for k in ks)
            assert sig(omega) == table.value(omega)
        info = sig.cache_info()
        assert info.maxsize == fixtures.MAX_GRID_CELLS
        assert info.currsize <= fixtures.MAX_GRID_CELLS

    def test_leaf_keeps_a_whole_grid(self):
        # a sweep's leaf evaluates each cell once: the second pass is all hits
        order = 34
        sig = fixtures._matrix_sig(fixture_matrix("torus(2,4)"))
        cells = [tuple(ang(k, order) for k in ks) for ks in product(range(1, order), repeat=2)]
        for _ in range(2):
            for omega in cells:
                sig(omega)
        info = sig.cache_info()
        assert len(cells) == info.currsize == info.misses == info.hits == 1089


class TestPiecewiseTable:
    def test_regions_and_walls(self):
        t = PiecewiseTable(weights=(1,), walls=(Fraction(1, 2),), values=(5, 0, -5))
        assert t.value((ang(1, 4),)) == 5
        assert t.value((ang(1, 2),)) == 0
        assert t.value((ang(3, 4),)) == -5

    def test_weighted_sum(self):
        t = PiecewiseTable(weights=(1, 2), walls=(Fraction(1, 1),), values=(7, 1, -7))
        assert t.value((ang(1, 2), ang(1, 4))) == 1    # s = 1/2 + 1/2 = 1
        assert t.value((ang(1, 4), ang(1, 4))) == 7    # s = 3/4
        assert t.value((ang(3, 4), ang(1, 2))) == -7   # s = 7/4

    def test_shipped_table_walls(self):
        t1 = fixture_table("torus(2,4)")
        assert t1.value((ang(1, 4), ang(1, 4))) == 0   # s = 1/2 wall
        t3 = fixture_table("torus(3,6)")
        assert t3.value((ang(1, 3), ang(1, 3), ang(1, 3))) == -1  # s = 1 wall
