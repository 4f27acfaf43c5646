"""Splice calculus: combinators against the generalized Hopf closed form.

The Hopf links are the one family where everything is known in closed form,
so they arbitrate every sign choice here: the splice of H_{1,m} and H_{1,n}
must reproduce H_{m,n}, and parallel cabling of H_{1,m} must reproduce
H_{nu,m}.  Both comparisons are exhaustive over small root-of-unity grids.
"""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from splicesig.cables import torus_nullity
from splicesig.ccomplex import SeifertFamily
from splicesig.errors import BoundaryCharacter, GuardViolated, InvalidFamily, SpliceSigError
from splicesig.expr import parse
from splicesig.fixtures import FIXTURES, fixture_names, fixture_sig
from splicesig.hopf import hopf_nullity, hopf_seifert_family, hopf_sig_fn
from splicesig.splice import (SigFn, cable_parallel, distinguish, lt_splice, merge_colors,
                              satellite, splice, splice_knot, to_levine_tristram,
                              with_boundary, zero_fn)
from splicesig.torus import UNIT, Angle, char_power, defect, grid, is_open


def ang(num, den):
    return Angle(Fraction(num, den))


def vector(arity, fn, lam, label=None):
    """An evaluator whose color 0 is one component linking the others lam times."""
    return distinguish(SigFn(arity, fn, label=label), lam, "operand")


def unlink(arity):
    """arity unknots, pairwise unlinked: signature identically zero."""
    return SigFn(arity, lambda om: 0, lk=[[0] * arity] * arity, counts=(1,) * arity,
                 label=f"unlink({arity})")


def matrix(f):
    """f's linking matrix as rows, None where unknown."""
    return [[f.lk(i, j) if i != j else 0 for j in range(f.arity)] for i in range(f.arity)]


def h12_merged():
    """H_{1,2} as a (1,1)-colored link: the two parallel copies share a color.

    The copies are unlinked from each other (disk framing), so merging them
    subtracts nothing; the linking vector collapses to (2,).
    """
    return merge_colors(hopf_sig_fn(1, 2), 0)


# ---------------------------------------------------------------------------
# evaluator plumbing
# ---------------------------------------------------------------------------

class TestSigFn:
    def test_arity_checked(self):
        f = zero_fn(2)
        with pytest.raises(ValueError):
            f((UNIT,))
        with pytest.raises(ValueError, match="arity 2 with 1 component counts"):
            SigFn(2, lambda om: 0, counts=(1,))

    @pytest.mark.parametrize("lk, problem", [
        ([[0, 1], [2, 0]], "symmetric"), ([[1, 0], [0, 0]], "zero diagonal"),
        ([[0, 1]], "2x2"), ([[0, None], [1, 0]], "symmetric")])
    def test_linking_matrix_checked_where_it_enters(self, lk, problem):
        with pytest.raises(ValueError, match=f"^bad: linking matrix must .*{problem}"):
            SigFn(2, lambda om: 0, lk=lk, label="bad")

    def test_unknown_linking_entries(self):
        f = SigFn(3, lambda om: 0, lk=[[0, None, 2], [None, 0, None], [2, None, 0]])
        assert (f.lk(0, 1), f.lk(2, 0), f.linking) == (None, 2, None)

    def test_distinguished_linking_length(self):
        with pytest.raises(ValueError, match="linking vector has length 2, expected 1"):
            vector(2, lambda om: 0, (1, 2))

    def test_no_colors_no_distinguished_component(self):
        # an evaluator of arity 0 has no color 0 to splice along or collapse to
        with pytest.raises(ValueError, match="^operand zero has no colors, so no component"):
            distinguish(zero_fn(0), (), "operand")
        with pytest.raises(ValueError, match="^zero has no colors to collapse"):
            to_levine_tristram(zero_fn(0))

    @pytest.mark.parametrize("linking", [[1.9], ["3"], [1.0]])
    def test_inexact_linking_refused(self, linking):
        # a float or a string is not read as an integer linking number
        with pytest.raises(TypeError):
            vector(2, lambda om: 0, linking)

    def test_zero_fn(self):
        assert zero_fn(3)((UNIT, ang(1, 3), ang(2, 5))) == 0

    @pytest.mark.parametrize("call", [
        lambda bare, f: splice(bare, f),
        lambda bare, f: splice(f, bare),
        lambda bare, f: splice_knot(zero_fn(1), bare),
        lambda bare, f: lt_splice(bare, f, ang(1, 3)),
        lambda bare, f: lt_splice(f, bare, ang(1, 3)),
        lambda bare, f: cable_parallel(bare, 2),
    ], ids=["splice-1", "splice-2", "splice_knot", "lt_splice-1", "lt_splice-2",
            "cable_parallel"])
    def test_operand_without_linking_vector_is_refused(self, call):
        bare = SigFn(2, lambda om: 0, label="bare")
        with pytest.raises(ValueError, match="operand.* bare has no linking vector"):
            call(bare, h12_merged())

    @pytest.mark.parametrize("one", [
        zero_fn(1), merge_colors(hopf_sig_fn(1, 1), 1), to_levine_tristram(hopf_sig_fn(1, 1)),
    ], ids=["zero", "merge", "levine-tristram"])
    def test_one_color_is_no_knot_without_a_vector(self, one):
        # one color may hold several components, so only a builder that knows
        # a knot (count 1) gives the vector (); splice and cable refuse the others
        for call in (lambda: splice(one, hopf_sig_fn(1, 1)), lambda: cable_parallel(one, 2)):
            with pytest.raises(ValueError, match="has no linking vector"):
                call()

    @pytest.mark.parametrize("collapse", [
        merge_colors(hopf_sig_fn(1, 1), 1),
        to_levine_tristram(hopf_sig_fn(1, 1)),
        to_levine_tristram(merge_colors(hopf_sig_fn(1, 1), 1)),
        merge_colors(zero_fn(2), 0),
    ], ids=["merge", "levine-tristram", "levine-tristram-of-a-merge", "merge-of-unknowns"])
    def test_a_collapse_is_no_knot(self, collapse):
        # its color holds several components, none of them distinguished; two
        # unknown counts merge to the lower bound 2
        assert collapse.counts == (2,)
        for call in (lambda: splice_knot(collapse, hopf_sig_fn(1, 1)),
                     lambda: satellite(collapse, zero_fn(1), 1),
                     lambda: satellite(zero_fn(1), collapse, 1)):
            with pytest.raises(ValueError, match="color 0 holds 2 components, none of them "
                                                 "distinguished"):
                call()


class TestWithBoundary:
    def setup_method(self):
        self.calls = []

        def core(om):
            self.calls.append(om)
            return 7

        self.f = with_boundary(
            2, core,
            {(0,): zero_fn(1), (1,): SigFn(1, lambda om: 5)},
            label="probe")

    def test_open_character_hits_core(self):
        assert self.f((ang(1, 3), ang(1, 2))) == 7
        assert self.calls == [(ang(1, 3), ang(1, 2))]

    def test_unit_coordinate_deletes_color(self):
        assert self.f((ang(1, 3), UNIT)) == 0
        assert self.f((UNIT, ang(1, 3))) == 5

    def test_all_units_is_empty_link(self):
        assert self.f((UNIT, UNIT)) == 0

    def test_missing_sublink_raises(self):
        g = with_boundary(2, lambda om: 1, {(0,): zero_fn(1)})
        with pytest.raises(BoundaryCharacter):
            g((UNIT, ang(1, 2)))

    def test_sublink_arity_checked_when_built(self):
        # a sublink is called without a second arity check, so one of the
        # wrong arity is refused before any evaluation
        with pytest.raises(ValueError, match=r"probe: wrong sublink arity for kept colors \[\(1,\)\]"):
            with_boundary(2, lambda om: 1, {(0,): zero_fn(1), (1,): zero_fn(2)}, label="probe")


class TestUnitRule:
    # SigFn.nullity gives no nullity off the open torus, whatever the source,
    # and the source's own on it
    SOURCES = ([(hopf_sig_fn(m, n), lambda om, m=m: hopf_nullity(om[:m], om[m:]))
                for m in (1, 2, 3) for n in (1, 2, 3)]
               + [(fam.sig_fn(), lambda om, fam=fam: fam.raw_inertia(om)[2])
                  for fam in (SeifertFamily(1, {(1,): [[-1, 1], [0, -1]],
                                                (-1,): [[-1, 0], [1, -1]]},
                                            basis=True, label="trefoil"),
                              SeifertFamily(2, {(1, 1): [[-1]], (1, -1): [[0]],
                                                (-1, 1): [[0]], (-1, -1): [[-1]]},
                                            basis=True, label="torus(2,4) forms"))]
               + [(parse({"torus": list(pq)}), lambda om, pq=pq: torus_nullity(*pq, om[0]))
                  for pq in ((2, 3), (-2, 3), (3, 4), (2, 5), (1, 2))])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_no_nullity_off_the_open_torus(self, data):
        f, nullity = data.draw(st.sampled_from(self.SOURCES))
        omega = data.draw(characters(f.arity))
        want = nullity(omega) if is_open(omega) else None
        assert f.nullity(omega) == want


# ---------------------------------------------------------------------------
# the splice theorem
# ---------------------------------------------------------------------------

class TestSplice:
    def test_hopf_generators_reproduce_closed_form(self):
        # H_{m,n} is the splice of H_{1,m} and H_{1,n} along the single V
        # components; checked at every grid point where the guard holds.
        for m, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
            f1 = hopf_sig_fn(1, m)
            f2 = hopf_sig_fn(1, n)
            spliced = splice(f1, f2)
            closed = hopf_sig_fn(m, n)
            guarded = checked = 0
            for _, om in grid(0, 4, m + n):
                try:
                    got = spliced(om)
                except GuardViolated:
                    guarded += 1
                    continue
                assert got == closed(om), (m, n, om)
                checked += 1
            assert checked > 0 and guarded > 0

    def test_symmetry(self):
        # swapping the operands swaps the colors, values and refusals alike:
        # a knot is unguarded first or second
        f1 = hopf_sig_fn(1, 2)
        for f2 in (hopf_sig_fn(1, 3), parse({"torus": [2, 3]})):
            a, b = splice(f1, f2), splice(f2, f1)
            for _, om in grid(1, 3, a.arity):
                v, w = om[:2], om[2:]
                try:
                    left = a(v + w)
                except GuardViolated:
                    with pytest.raises(GuardViolated):
                        b(w + v)
                    continue
                assert left == b(w + v)

    def test_guard_raises(self):
        f = h12_merged()
        s = splice(f, f)
        with pytest.raises(GuardViolated):
            s((ang(1, 2), ang(1, 2)))  # both squares are 1
        with pytest.raises(GuardViolated):
            s((UNIT, UNIT))

    def test_defect_square_example(self):
        # splicing two copies of H_{1,2} viewed (1,1)-colored gives, on the
        # diagonal, 0 + 0 + defect_(2)(w)^2, which is the (1,1)-colored
        # signature of H_{2,2}
        f = h12_merged()
        assert f.linking == (2,)
        s = splice(f, f)
        h22 = hopf_sig_fn(2, 2)
        for k in range(1, 8):
            w = ang(k, 8)
            if (2 * w).is_unit():
                continue
            d = defect((2,), (w,))
            assert s((w, w)) == d * d
            assert s((w, w)) == h22((w, w, w, w))  # merged copies, lk 0 inside each color

    def test_splice_knot_matches_splice_where_defined(self):
        # neither the knot-splice form nor a splice with a knot first has a
        # guard, so the two agree everywhere, where w^(1,1) = 1 included
        # (take K' = unknot, so f1 = 0 with no colors)
        knot = zero_fn(1, "unknot")
        f1 = SigFn(1, lambda om: 0, counts=(1,), label="unknot+axis")
        f2 = hopf_sig_fn(1, 2)
        a = splice_knot(knot, f2)
        b = splice(f1, f2)
        for _, om in grid(1, 5, 2):
            assert a(om) == b(om)

    def test_splice_knot_total_without_guard(self):
        knot = SigFn(1, lambda om: -2 if not om[0].is_unit() else 0)
        f2 = hopf_sig_fn(1, 2)
        s = splice_knot(knot, f2)
        # w^(1,1) = 1 here, where a splice of two links is refused
        assert s((ang(1, 3), ang(2, 3))) == 0
        # and a non-boundary point picks up the knot value
        assert s((ang(1, 3), ang(1, 3))) == -2

    def test_splice_knot_zero_linking(self):
        knot = SigFn(1, lambda om: 99 if not om[0].is_unit() else 0)
        f2 = hopf_sig_fn(1, 2)
        s = splice_knot(knot, vector(3, f2.fn, (0, 0)))
        # lambda'' = 0 evaluates the knot at 1, which contributes nothing
        assert s((ang(1, 3), ang(1, 5))) == 0


# ---------------------------------------------------------------------------
# the univariate corollary
# ---------------------------------------------------------------------------

class TestLtSplice:
    def test_example_two_h12(self):
        # two copies of H_{1,2}, lambda' = lambda'' = 2, at angle 3/10:
        # 0 + 0 - 4 + (-1)(-1) = -3
        f = h12_merged()
        assert lt_splice(f, f, ang(3, 10)) == -3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60).flatmap(
        lambda n: st.tuples(st.integers(0, n - 1), st.just(n))))
    def test_example_against_seifert_oracle(self, kn):
        # the splice is H_{2,2}; merge all four components to one color and
        # read the signature from the assembled Seifert family
        xi = ang(*kn)
        assume(not (2 * xi).is_unit())
        f = h12_merged()
        lk_total = 4  # four cross pairs link once, same-side pairs are unlinked
        brute = hopf_seifert_family(2, 2).signature((xi, xi)) - lk_total
        assert lt_splice(f, f, xi) == brute

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5),
           st.integers(-5, 5), st.integers(1, 60).flatmap(
               lambda n: st.tuples(st.integers(0, n - 1), st.just(n))))
    @example(0, 0, 1, 2, (1, 3))  # gcd 0: xi^0 = 1, never defined
    @example(2, 2, 1, 2, (1, 2))  # xi^2 = 1
    @example(2, -3, 1, 2, (0, 1))  # the unit character
    def test_formula_and_guard(self, l1, l2, c1, c2, kn):
        # integer-valued operands with one-entry linking vectors l', l'':
        # refused exactly when xi^gcd(l', l'') = 1, else
        # f1(xi^l'', xi) + f2(xi^l', xi) - l'*l'' + defect_l'(xi) * defect_l''(xi)
        xi = ang(*kn)

        def g(c):
            return lambda om: c * om[0].numerator - om[1].denominator + c * c

        f1 = vector(2, g(c1), (l1,))
        f2 = vector(2, g(c2), (l2,))
        if (math.gcd(l1, l2) * xi).is_unit():
            with pytest.raises(GuardViolated):
                lt_splice(f1, f2, xi)
            return
        want = (f1((l2 * xi, xi)) + f2((l1 * xi, xi)) - l1 * l2
                + defect((l1,), (xi,)) * defect((l2,), (xi,)))
        assert lt_splice(f1, f2, xi) == want

    def test_guard(self):
        f = h12_merged()
        with pytest.raises(GuardViolated):
            lt_splice(f, f, ang(1, 2))  # xi^gcd(2,2) = 1
        # lambda' = lambda'' = 0: gcd 0, xi^0 = 1 always, never defined
        g = vector(2, lambda om: 0, (0,))
        with pytest.raises(GuardViolated):
            lt_splice(g, g, ang(1, 3))

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            lt_splice(hopf_sig_fn(1, 2), h12_merged(), ang(1, 3))


# ---------------------------------------------------------------------------
# parallel cabling, recoloring, satellites
# ---------------------------------------------------------------------------

class TestCableParallel:
    def test_sign_pinned_by_hopf_oracle(self):
        # cabling the V side of H_{1,m} by nu parallel copies yields H_{nu,m};
        # the correction enters with + (a minus sign fails at angles 1/3)
        for nu, m in [(2, 1), (2, 2), (3, 2)]:
            cabled = cable_parallel(hopf_sig_fn(1, m), nu)
            closed = hopf_sig_fn(nu, m)
            for _, om in grid(1, 3, nu + m):
                try:
                    got = cabled(om)
                except GuardViolated:
                    continue
                assert got == closed(om), (nu, m, om)

    def test_minus_sign_would_fail(self):
        cabled = cable_parallel(hopf_sig_fn(1, 2), 2)
        om = (ang(1, 3),) * 4
        correction = defect((1, 1), om[:2]) * defect((1, 1), om[2:])
        assert correction == 1  # nonzero, so the sign is observable
        assert cabled(om) == hopf_sig_fn(2, 2)(om) == 1

    def test_trivial_cable(self):
        f = hopf_sig_fn(1, 2)
        c = cable_parallel(f, 1)
        for _, om in grid(1, 3, 3):
            try:
                got = c(om)
            except GuardViolated:
                continue
            assert got == f(om)

    def test_guard(self):
        f = h12_merged()
        c = cable_parallel(f, 2)
        with pytest.raises(GuardViolated):
            c((ang(1, 3), ang(2, 3), ang(1, 2)))  # pi = 1 and w^2 = 1

    def test_needs_a_copy(self):
        with pytest.raises(ValueError):
            cable_parallel(h12_merged(), 0)

    @pytest.mark.parametrize("nu", [2.0, 1.5])
    def test_inexact_copy_count_refused(self, nu):
        # refused when built, not by a slice or gcd error at the first evaluation
        with pytest.raises(TypeError):
            cable_parallel(h12_merged(), nu)


class TestMergeColors:
    def test_hopf_to_monochrome(self):
        # the positive Hopf link as a knot... as a 1-colored link has
        # Levine-Tristram signature -1 away from 1 (Seifert matrix [-1])
        f = merge_colors(hopf_sig_fn(1, 1), 1)
        for k in range(1, 6):
            assert f((ang(k, 6),)) == -1

    def test_lk_zero_is_diagonal_restriction(self):
        f = hopf_sig_fn(2, 2)
        # merging the two u copies, then them with the second v copy, which
        # links each once: the second merge's lk is 2, and 0 is refused
        g = merge_colors(merge_colors(f, 0), 2)
        with pytest.raises(ValueError, match="links its two colors 2 times, not 0"):
            merge_colors(merge_colors(f, 0), 0)
        h = merge_colors(f, 0)
        om = (ang(1, 3), ang(1, 4), ang(1, 5))
        assert h(om) == f(om + (om[-1],))
        assert g.arity == 2

    def test_lk_of_a_linked_pair_checked(self):
        # hopf(1,1)'s two colors link once; a document saying 0 or 2 is refused
        for lk in (0, 2):
            with pytest.raises(ValueError, match=f"hopf.1,1. links its two colors 1 times, not {lk}"):
                merge_colors(hopf_sig_fn(1, 1), lk)

    def test_merged_family_is_the_collapse(self):
        # the h12 family's colors link twice: merging it by 2 is the independent
        # collapse of the closed form H_{1,2}, whose three components link (1, 1, 0)
        lt = to_levine_tristram(hopf_sig_fn(1, 2))
        merged = merge_colors(hopf_seifert_family(1, 2).sig_fn(), 2)
        assert merged((ang(2, 7),)) == lt((ang(2, 7),)) == -2

    def test_preserves_distinguished_linking(self):
        f = hopf_sig_fn(1, 2)
        g = merge_colors(f, 0)
        assert g.linking == (2,)

    @pytest.mark.parametrize("lk", [0.5, 1.0])
    def test_inexact_linking_refused(self, lk):
        # a non-integer linking number would shift every value by a fraction
        with pytest.raises(TypeError):
            merge_colors(hopf_sig_fn(1, 2), lk)

    def test_unit_merged_color_is_deleted(self):
        # at the unit the merged color is deleted and no linking is left to
        # subtract: the merged Hopf link reads 0 there, like hopf(1,1) at (1, 1)
        assert merge_colors(hopf_sig_fn(1, 1), 1)((UNIT,)) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_unit_merged_color_is_both_colors_deleted(self, data):
        f, lk = data.draw(st.sampled_from(MERGE_OPERANDS))
        omega = data.draw(characters(f.arity - 2)) + (UNIT,)
        assert outcome(merge_colors(f, lk), omega) == outcome(f, omega + (UNIT,))

    def test_iterated_merge_of_hopf_family(self):
        # H_{n1,n2} to one color: (1-n1)(1-n2) - n1*n2 at xi = exp(2pi*i/n)
        for n1, n2, n in [(2, 2, 5), (2, 3, 7), (3, 3, 4)]:
            f = hopf_sig_fn(n1, n2)
            lam = [[0] * (n1 + n2) for _ in range(n1 + n2)]
            for i in range(n1):
                for j in range(n2):
                    lam[i][n1 + j] = lam[n1 + j][i] = 1
            assert matrix(f) == lam
            lt = to_levine_tristram(f)
            xi = ang(1, n)
            assert lt((xi,)) == (1 - n1) * (1 - n2) - n1 * n2


class TestSatellite:
    def trefoil(self):
        from splicesig.cables import hirzebruch
        return SigFn(1, lambda om: 0 if om[0].is_unit() else hirzebruch(2, 3, om[0]),
                     label="trefoil")

    def test_winding_zero_keeps_pattern(self):
        s = satellite(self.trefoil(), zero_fn(1), 0)
        assert s((ang(1, 2),)) == 0

    def test_core_pattern_is_identity(self):
        t = self.trefoil()
        s = satellite(t, zero_fn(1), 1)
        for k in range(1, 12):
            assert s((ang(k, 12),)) == t((ang(k, 12),))

    def test_substitution(self):
        t = self.trefoil()
        s = satellite(t, zero_fn(1), 2)
        assert s((ang(1, 4),)) == t((ang(1, 2),)) == -2

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_inexact_winding_refused(self, q):
        with pytest.raises(TypeError):
            satellite(self.trefoil(), zero_fn(1), q)


class TestToLevineTristram:
    def test_matrix_validated(self):
        # the linking numbers are the operand's own: one it does not know is refused
        for f in (zero_fn(2), SigFn(2, lambda om: 0, counts=(1, 1)),
                  splice(vector(3, lambda om: 0, (1, 2)), hopf_sig_fn(1, 1))):
            with pytest.raises(ValueError, match="has no linking matrix"):
                to_levine_tristram(f)

    def test_hopf_value(self):
        f = to_levine_tristram(hopf_sig_fn(1, 1))
        assert f((ang(1, 3),)) == -1

    def test_unit_is_the_empty_link(self):
        # every color is deleted at the unit, and with it every linking number
        assert to_levine_tristram(hopf_sig_fn(1, 1))((UNIT,)) == 0
        t36 = to_levine_tristram(fixture_sig("torus-3-6"))
        assert t36((UNIT,)) == 0

    def test_unit_still_evaluates_the_operand(self):
        # a guard the operand raises at (1, ..., 1) still fires
        h = h12_merged()
        with pytest.raises(GuardViolated):
            to_levine_tristram(splice(h, h))((UNIT,))

    @pytest.mark.parametrize("lk", [0.5, 1.0])
    def test_inexact_entries_refused(self, lk):
        # a linking number enters the matrix the collapse reads as an integer
        # or not at all: a document's vector, a merge's lk
        with pytest.raises(TypeError):
            to_levine_tristram(vector(2, lambda om: 0, (lk,)))
        with pytest.raises(TypeError):
            to_levine_tristram(merge_colors(zero_fn(3), lk))

    @pytest.mark.parametrize("matrix", [[[5, 1], [1, 0]], [[0, 1], [1, -2]]])
    def test_nonzero_diagonal_refused(self, matrix):
        # a component does not link itself: a family whose matrix says so is
        # refused before the collapse reads it; univariate_reduction refuses
        # the same matrices
        with pytest.raises(InvalidFamily, match="^linking matrix must have zero diagonal$"):
            SeifertFamily(2, hopf_seifert_family(1, 1).forms, linking=matrix)

    def test_torus_3_6_reads_its_registered_matrix(self):
        # its strands link pairwise twice: 6 subtracted, T(3,6)'s value
        assert to_levine_tristram(fixture_sig("torus-3-6"))((ang(1, 5),)) == -6


# ---------------------------------------------------------------------------
# knot splices, satellites and cables are splices with a base link
# ---------------------------------------------------------------------------

# Reference closures: the knot-splice, satellite and parallel-cable formulas
# written out, the cable with its own guard, for the properties below.

def ref_splice_knot(knot, f2):
    lam2 = f2.linking
    return SigFn(len(lam2), lambda om: knot((char_power(om, lam2),)) + f2((UNIT,) + om))


def ref_satellite(companion, pattern, q):
    return SigFn(1, lambda om: companion((q * om[0],)) + pattern(om))


def ref_cable_parallel(f, nu):
    lam = f.linking

    def fn(omega):
        zeta, om = omega[:nu], omega[nu:]
        pi = char_power(zeta, (1,) * nu)
        if char_power(om, lam).is_unit() and pi.is_unit():
            raise GuardViolated("raised character and copy product both equal 1")
        return f((pi,) + om) + defect((1,) * nu, zeta) * defect(lam, om)

    return SigFn(nu + len(lam), fn)


def outcome(f, omega):
    """f's value at omega, or the name of the error it raises there."""
    try:
        return f(omega)
    except SpliceSigError as err:
        return type(err).__name__


# evaluators that carry a linking vector, knots (arity 1) among them
POOL = ([hopf_sig_fn(m, n) if n else unlink(m) for m in (1, 2) for n in (0, 1, 2)]
        + [fixture_sig(name) for name in fixture_names()]
        + [parse({"torus": pq}) for pq in ([2, 3], [-2, 3], [3, 4], [2, 5], [1, 2])])


@st.composite
def evaluators(draw, knot=False):
    """A pooled evaluator, a zero or a random integer-valued one, with a vector."""
    kind = draw(st.sampled_from(("pool", "zero", "random")))
    if kind == "pool":
        return draw(st.sampled_from([f for f in POOL if f.arity == 1 or not knot]))
    arity = 1 if knot else draw(st.integers(1, 3))
    lam = draw(st.lists(st.integers(-3, 3), min_size=arity - 1, max_size=arity - 1))
    if kind == "zero":
        return vector(arity, lambda om: 0, lam, label="zero")
    cs = draw(st.lists(st.integers(-3, 3), min_size=arity, max_size=arity))
    return vector(arity, lambda om: sum(c * a.numerator - a.denominator // 2
                                        for c, a in zip(cs, om)), lam, label="random")


@st.composite
def characters(draw, arity):
    """A character of the given arity whose angles have one denominator <= 12."""
    n = draw(st.integers(1, 12))
    return tuple(ang(k, n) for k in draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                                  max_size=arity)))


# merge operands with the true linking number of their last two colors: a
# Hopf link's last two copies link once only across its two sides
MERGE_OPERANDS = ([(hopf_sig_fn(m, n) if m and n else unlink(m + n), int(m >= 1 and n == 1))
                   for m in range(4) for n in range(4) if m + n >= 2]
                  + [(fixture_sig(name), 2) for name in fixture_names()])


class TestOneSpliceFormula:
    # each combinator equals its written-out formula wherever that returns and
    # raises GuardViolated wherever that does, except that a knot operand is
    # never refused: there splice is the knot splice, in either order
    @settings(max_examples=300, deadline=None)
    @given(evaluators(knot=True), evaluators(), st.data())
    def test_splice_knot(self, knot, f2, data):
        omega = data.draw(characters(f2.arity - 1))
        want = outcome(ref_splice_knot(knot, f2), omega)
        assert outcome(splice_knot(knot, f2), omega) == want
        assert outcome(splice(knot, f2), omega) == want

    @settings(max_examples=300, deadline=None)
    @given(evaluators(knot=True), evaluators(knot=True), st.integers(-4, 4), st.data())
    def test_satellite(self, companion, pattern, q, data):
        omega = data.draw(characters(1))
        assert (outcome(satellite(companion, pattern, q), omega)
                == outcome(ref_satellite(companion, pattern, q), omega))

    @settings(max_examples=300, deadline=None)
    @given(evaluators(), st.integers(1, 3), st.data())
    def test_cable_parallel(self, f, nu, data):
        omega = data.draw(characters(nu + f.arity - 1))
        want = outcome(ref_cable_parallel(f, nu), omega)
        if want == "GuardViolated" and f.arity == 1:
            # a knot's copies: the knot splice with the zero base H(1, nu)
            base = vector(nu + 1, lambda om: 0, (1,) * nu)
            want = outcome(ref_splice_knot(f, base), omega)
        assert outcome(cable_parallel(f, nu), omega) == want


# ---------------------------------------------------------------------------
# the link structure every combinator derives
# ---------------------------------------------------------------------------

class TestDerivedLinkData:
    def test_splice_of_the_fixtures_is_torus_3_6s_registered_matrix(self):
        # torus(2,4) spliced with cable(4,2)+core is torus(3,6): the strands
        # left link 2*1 times across and 2 times within the cable
        s = splice(fixture_sig("torus-2-4"), fixture_sig("cable-4-2"))
        assert matrix(s) == [list(row) for row in FIXTURES["torus(3,6)"].lk]
        assert s.counts == (1, 1, 1) and s.linking == (2, 2)

    @pytest.mark.parametrize("nu, m", list(product(range(1, 4), repeat=2)))
    def test_cable_of_hopf_derives_h_nu_m(self, nu, m):
        cabled, closed = cable_parallel(hopf_sig_fn(1, m), nu), hopf_sig_fn(nu, m)
        assert (matrix(cabled), cabled.counts) == (matrix(closed), closed.counts)

    @pytest.mark.parametrize("f1, f2", [
        (hopf_sig_fn(1, 3), hopf_sig_fn(2, 2)), (hopf_sig_fn(2, 1), hopf_sig_fn(1, 1)),
        (distinguish(SigFn(3, lambda om: 0, counts=(1, 1, 1)), (1, 2), "operand"),
         hopf_sig_fn(1, 2)),  # an lk unknown
        (merge_colors(hopf_sig_fn(1, 2), 0), vector(2, lambda om: 0, (3,))),  # two copies
        (vector(1, lambda om: 0, ()), fixture_sig("torus-3-6"))])
    def test_splice_vector_is_row_0_of_its_matrix(self, f1, f2):
        # derived in bulk, the vector is what lk gives a color at a time
        s = splice(f1, f2)
        row = tuple(matrix(s)[0][1:])
        assert s.linking == (row if s.counts[0] == 1 and None not in row else None)

    def test_cable_of_a_splice_is_the_cable_of_torus_3_6(self):
        # a splice result carries its matrix, so it is cabled without a
        # restated vector, as the fixture it equals
        spliced = {"splice": [{"fixture": "torus-2-4"}, [2], {"fixture": "cable-4-2"}, [1, 1]]}
        cabled = parse({"cable": [spliced, 2]})
        fixture = parse({"cable": [{"fixture": "torus-3-6"}, 2]})
        assert matrix(cabled) == matrix(fixture)
        for _, om in grid(0, 7, 4):
            assert outcome(cabled, om) == outcome(fixture, om), om

    @settings(max_examples=200, deadline=None)
    @given(evaluators().filter(lambda f: f.arity == 2),
           evaluators().filter(lambda f: f.arity == 2), characters(1))
    def test_lt_splice_is_the_collapse_of_the_splice(self, f1, f2, omega):
        collapse = to_levine_tristram(splice(f1, f2))
        assert (outcome(SigFn(1, lambda om: lt_splice(f1, f2, om[0])), omega)
                == outcome(collapse, omega))
