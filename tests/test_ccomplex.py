"""Seifert families: the rules of construction, assembly, signatures, nullity, JSON.

The bicolored assembly formula is pinned entry-by-entry against its expanded
form, and the general shape is cross-checked through the Hopf oracle tests;
here we also exercise the plumbing invariants: exact hermitian-ness, the
conjugation symmetry of the signature, congruence invariance of inertia, and
the boundary delegation of sig_fn.
"""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from splicesig.ccomplex import SeifertFamily
from splicesig.cyclotomic import CyclotomicNumber
from splicesig.expr import MAX_DEPTH
from splicesig.errors import BoundaryCharacter, InvalidFamily
from splicesig.hopf import hopf_seifert_family, hopf_sig_fn, unlink_family
from splicesig.splice import distinguish, splice, to_levine_tristram
from splicesig.torus import UNIT, Angle, character


def ang(num, den):
    return Angle(Fraction(num, den))


def root(a, level):
    """exp(2*pi*i*a) at a level divisible by a's denominator."""
    k = level // a.denominator * a.numerator
    return CyclotomicNumber(level, [int(j == k) for j in range(level)])


def random_family(mu, g, rng, basis=False):
    """A duality-correct random family: draw half the sign vectors freely.  One
    color with a basis is a surface's: V = S + L, S symmetric, where L - L^T is
    standard symplectic blocks and zero rows, so each invariant factor is 1."""
    if mu == 1 and basis:
        blocks = rng.randrange(g // 2 + 1)
        v = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                v[i][j] = v[j][i] = rng.randrange(-3, 4)
        for b in range(blocks):
            v[2 * b][2 * b + 1] += 1
        return SeifertFamily(1, {(1,): v, (-1,): [list(r) for r in zip(*v)]}, basis=True)
    forms = {}
    for eps in product((1, -1), repeat=mu):
        if eps in forms:
            continue
        mat = [[rng.randrange(-3, 4) for _ in range(g)] for _ in range(g)]
        forms[eps] = mat
        neg = tuple(-e for e in eps)
        forms[neg] = [[mat[j][i] for j in range(g)] for i in range(g)]
    return SeifertFamily(mu, forms, basis=basis)


TREFOIL_V = [[-1, 1], [0, -1]]


def nested_family(depth):
    """An arity-1 family document whose boundary key "0", which keeps its one colour,
    nests depth deep."""
    doc = {"arity": 1, "forms": {"+": [[1]], "-": [[1]]}}
    for _ in range(depth):
        doc = {"arity": 1, "forms": {"+": [[1]], "-": [[1]]}, "boundary": {"0": doc}}
    return doc


def descending_family(arity):
    """A family document of the given arity whose boundary keeps every colour but the
    last, down to arity 1: arity - 1 boundary families deep, each key valid."""
    doc = {"arity": 1, "forms": {}}
    for mu in range(2, arity + 1):
        doc = {"arity": mu, "forms": {}, "boundary": {",".join(map(str, range(mu - 1))): doc}}
    return doc


def trefoil_family():
    vt = [[TREFOIL_V[j][i] for j in range(2)] for i in range(2)]
    return SeifertFamily(1, {(1,): TREFOIL_V, (-1,): vt}, basis=True,
                         label="trefoil")


def refusal(*args, **kwargs):
    """The problems, one argument each, of the InvalidFamily that building
    SeifertFamily(*args, **kwargs) raises."""
    with pytest.raises(InvalidFamily) as err:
        SeifertFamily(*args, **kwargs)
    assert str(err.value) == "; ".join(err.value.args)
    return list(err.value.args)


class TestValidate:
    def test_hopf_families_clean(self):
        for m, n in [(1, 1), (2, 2), (3, 2)]:
            assert hopf_seifert_family(m, n).arity == 2  # built, so every rule holds

    def test_empty_family_clean(self):
        assert SeifertFamily(1, {(1,): [], (-1,): []}).generators == 0

    def test_broken_duality_reported(self):
        # once per pair {eps, -eps}, not once for each of eps and -eps
        report = refusal(1, {(1,): [[0, 1], [0, 0]], (-1,): [[0, 1], [0, 0]]})
        assert sum("transpose" in line for line in report) == 1
        # arity 2: only the pair {+-, -+} is broken
        forms = {(1, 1): [[1]], (-1, -1): [[1]], (1, -1): [[2]], (-1, 1): [[3]]}
        assert refusal(2, forms) == [
            "duality broken: -+ is not the transpose of +-, so H(t) is not the "
            "conjugate transpose of itself"]

    def test_missing_sign_vector_reported(self):
        assert refusal(2, {(1, 1): [[0]], (-1, -1): [[0]]}) == [
            "missing shift directions ['+-', '-+']"]

    def test_malformed_sign_vectors_are_unexpected(self):
        # a key of the wrong length, or with an entry other than +-1, is no
        # shift direction: it is reported, and the one it displaces is missing
        forms = {(1, 1): [[0]], (-1, -1): [[0]], (1, -1): [[0]], (-1, 0): [[0]],
                 (1,): [[0]], (1, 1, 1): [[0]]}
        assert refusal(2, forms) == [
            "missing shift directions ['-+']",
            "unexpected shift directions ['+', '+++', '-?']"]

    @pytest.mark.parametrize("arity", [9, 64, 10 ** 9])
    def test_large_arity_counted_not_listed(self, arity):
        # past arity 8 the 2^arity directions are counted, never built
        assert refusal(arity, {}) == [f"missing shift directions: 0 of the 2^{arity} are given"]
        assert refusal(8, {})[0].count("'") == 2 * 2 ** 8

    def test_shape_mismatch_reported(self):
        assert refusal(1, {(1,): [[0, 0]], (-1,): [[0], [0]]}) == [
            "form + is not 1x1", "form - is not 1x1"]

    def test_asymmetric_linking_reported(self):
        assert refusal(1, {(1,): [[0]], (-1,): [[0]]}, linking=[[0, 1], [2, 0]]) == [
            "linking matrix must be 1x1"]

    def test_linking_diagonal_reported(self):
        # a component does not link itself: the document is refused, not read
        src = hopf_seifert_family(1, 2)
        assert refusal(2, src.forms, boundary=src.boundary, linking=[[5, 2], [2, 0]]) == [
            "linking matrix must have zero diagonal"]
        with pytest.raises(InvalidFamily, match="^linking matrix must have zero diagonal$"):
            SeifertFamily.from_json(dict(src.to_json(), linking=[[5, 2], [2, 0]]))

    def test_boundary_key_and_arity_reported(self):
        # a boundary family is valid, as it exists: its key and arity are checked
        src = hopf_seifert_family(1, 2)
        assert refusal(2, src.forms, boundary={(0, 1): src, (1,): src}) == [
            "bad boundary key '0,1'", "boundary family for (1,) has arity 2"]


class TestAssemble:
    def test_mu1_at_minus_one(self):
        # (1-wbar)*(theta^+ - w*theta^-) at w = -1 is 2*(a + a) = [[4a]]
        a = 3
        fam = SeifertFamily(1, {(1,): [[a]], (-1,): [[a]]}, basis=True)
        h = fam.assemble((ang(1, 2),))
        assert h[0, 0] == CyclotomicNumber.from_rational(4 * a, 2)

    def test_mu1_matches_symmetrized_seifert_matrix(self):
        # (1-wbar)V + (1-w)V^T, the classical Levine-Tristram form
        fam = trefoil_family()
        for k in range(1, 12):
            w = ang(k, 12)
            wc = root(w, 12)
            one = CyclotomicNumber.from_rational(1, 12)
            aa, bb = one - wc.conjugate(), one - wc
            direct = [[aa * CyclotomicNumber.from_rational(TREFOIL_V[i][j], 12)
                       + bb * CyclotomicNumber.from_rational(TREFOIL_V[j][i], 12)
                       for j in range(2)] for i in range(2)]
            h = fam.assemble((w,))
            for i in range(2):
                for j in range(2):
                    assert h[i, j] == direct[i][j]

    def test_mu2_matches_expanded_formula(self):
        # (1-hbar)(1-zbar) * [t^{++} - z t^{+-} - h t^{-+} + hz t^{--}]
        rng = random.Random(20260819)
        fam = random_family(2, 2, rng)
        level = 6
        one = CyclotomicNumber.from_rational(1, level)

        def c(x):
            return CyclotomicNumber.from_rational(x, level)

        for a, b in product(range(1, 6), repeat=2):
            eta, zeta = ang(a, 6), ang(b, 6)
            h = fam.assemble((eta, zeta))
            e = root(eta, level)
            z = root(zeta, level)
            pre = (one - e.conjugate()) * (one - z.conjugate())
            for i in range(2):
                for j in range(2):
                    want = pre * (c(fam.forms[1, 1][i][j])
                                  - z * c(fam.forms[1, -1][i][j])
                                  - e * c(fam.forms[-1, 1][i][j])
                                  + e * z * c(fam.forms[-1, -1][i][j]))
                    assert h[i, j] == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2 ** 32),
           st.lists(st.sampled_from([2, 3, 4, 5, 6, 8]), min_size=3, max_size=3),
           st.lists(st.integers(1, 7), min_size=3, max_size=3))
    def test_matches_defining_formula(self, mu, g, seed, dens, nums):
        # prod_i (1 - conj t_i) * sum_eps prod_{i: eps_i=-1} (-t_i) theta^eps
        fam = random_family(mu, g, random.Random(seed))
        omega = tuple(ang(1 + k % (d - 1), d) for k, d in zip(nums[:mu], dens[:mu]))
        level = math.lcm(*(a.denominator for a in omega))
        one = CyclotomicNumber.from_rational(1, level)
        t = [root(a, level) for a in omega]
        pre = one
        for ti in t:
            pre = pre * (one - ti.conjugate())
        weight = {}
        for eps in product((1, -1), repeat=mu):
            w = pre
            for ti, e in zip(t, eps):
                if e < 0:
                    w = w * -ti
            weight[eps] = w
        h = fam.assemble(omega)
        assert h.level == level
        for i in range(g):
            for j in range(g):
                want = sum((weight[eps] * fam.forms[eps][i][j] for eps in weight),
                           CyclotomicNumber.from_rational(0, level))
                assert h[i, j] == want

    def test_boundary_character_rejected(self):
        fam = trefoil_family()
        with pytest.raises(BoundaryCharacter):
            fam.assemble((UNIT,))

    def test_color_count_is_checked_before_the_units(self):
        fam = hopf_seifert_family(1, 1)
        for call in (fam.signature, fam.assemble):
            with pytest.raises(ValueError, match="character has 1 colors, matrix expects 2"):
                call((UNIT,))

    def test_empty_family_signature(self):
        fam = SeifertFamily(2, {eps: [] for eps in product((1, -1), repeat=2)},
                            basis=True)
        assert fam.signature((ang(1, 3), ang(1, 5))) == 0
        assert fam.sig_fn().nullity((ang(1, 3), ang(1, 5))) == 0

    def test_always_hermitian_for_valid_families(self):
        rng = random.Random(7)
        for mu, g in [(1, 3), (2, 2), (3, 2)]:
            fam = random_family(mu, g, rng)
            omega = tuple(ang(rng.randrange(1, 8), 8) for _ in range(mu))
            fam.assemble(omega)  # exact hermitian check inside

    def test_broken_duality_caught_at_assembly(self):
        # refused when built, so there is nothing to assemble
        with pytest.raises(InvalidFamily, match="^duality broken"):
            SeifertFamily(1, {(1,): [[0, 1], [0, 0]], (-1,): [[0, 1], [0, 0]]}).assemble(
                (ang(1, 3),))


class TestInvalidFamiliesRefuse:
    """A family that breaks a rule is refused when built: no numbers from bad data."""

    BAD = {(1,): [[0, 1], [0, 0]], (-1,): [[0, 1], [0, 0]]}  # - is not the transpose of +

    def test_signature_raises(self):
        with pytest.raises(InvalidFamily):
            SeifertFamily(1, self.BAD).signature((ang(1, 3),))

    def test_sig_fn_raises(self):
        with pytest.raises(InvalidFamily):
            SeifertFamily(1, self.BAD).sig_fn()((ang(1, 3),))

    def test_broken_duality_refused_where_the_form_is_hermitian(self):
        # at omega = 1/2, H = 2(theta+ + theta-) = [[2]] is Hermitian; H(t) is not
        with pytest.raises(InvalidFamily, match="^duality broken"):
            SeifertFamily(1, {(1,): [[1]], (-1,): [[0]]}).signature((ang(1, 2),))

    def test_non_integer_entries_refused_at_construction(self):
        with pytest.raises(TypeError):
            SeifertFamily(1, {(1,): [[1.5]], (-1,): [[1.5]]})
        with pytest.raises(TypeError):
            SeifertFamily(2, {eps: [[0]] for eps in product((1, -1), repeat=2)},
                          linking=[[0, 0.7], [0.7, 0]])

    def test_raw_inertia_and_nullity_raise(self):
        with pytest.raises(InvalidFamily):
            SeifertFamily(1, self.BAD, basis=True).raw_inertia((ang(1, 3),))
        with pytest.raises(InvalidFamily):
            SeifertFamily(1, self.BAD, basis=True).sig_fn().nullity((ang(1, 3),))


def _document(mu, forms, **data):
    """The JSON document of a family, whether or not it breaks a rule."""
    return {"arity": mu, "forms": {"".join("+" if e > 0 else "-" for e in eps): mat
                                   for eps, mat in forms.items()}, **data}


class TestOneGate:
    """The constructor is the one validity rule: every family that exists passes it,
    and a document is refused with the report the constructor gives."""

    @pytest.mark.parametrize("args, data, report", [
        ((1, {(1,): [[1, 0]], (-1,): [[1], [0]]}), {},
         "form + is not 1x1; form - is not 1x1"),  # ragged
        ((1, {(1,): [[1]]}), {}, "missing shift directions ['-']"),  # no (-1,) form
        ((2, random_family(2, 2, random.Random(1)).forms), {"linking": [[0, 1], [2, 0]]},
         "linking matrix must be symmetric"),
        ((0, {}), {}, "arity must be at least 1"),
        # with a basis, one color's theta+ - theta- is a surface's intersection
        # form, unimodular modulo its radical: every nonzero invariant factor is 1
        ((1, {(1,): [[1, 2], [0, 1]], (-1,): [[1, 0], [2, 1]]}), {"basis": True},
         "theta+ - theta- is no surface's intersection form: its nonzero "
         "invariant factors multiply to 4, not 1"),
        ((1, {(1,): [[0, 3, 0], [0, 0, 0], [0, 0, 0]], (-1,): [[0, 0, 0], [3, 0, 0], [0, 0, 0]]}),
         {"basis": True}, "theta+ - theta- is no surface's intersection form: its nonzero "
         "invariant factors multiply to 9, not 1"),  # a radical does not excuse it
    ], ids=["ragged", "missing-form", "asymmetric-linking", "arity-0", "no-surface",
            "no-surface-radical"])
    def test_invalid_family_refused_by_every_use(self, args, data, report):
        with pytest.raises(InvalidFamily) as built:
            SeifertFamily(*args, **data)
        with pytest.raises(InvalidFamily) as read:
            SeifertFamily.from_json(_document(*args, **data))
        assert str(built.value) == str(read.value) == report

    def test_refusal_carries_the_validate_report(self):
        # every problem is one argument, and the message joins them
        with pytest.raises(InvalidFamily) as err:
            SeifertFamily(1, {(1,): [[1, 0]], (-1,): [[1], [0]]}).sig_fn()
        assert err.value.args == ("form + is not 1x1", "form - is not 1x1")
        assert str(err.value) == "form + is not 1x1; form - is not 1x1"

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2 ** 32),
           st.sampled_from(["entry", "row", "linking", "diagonal"]))
    def test_injected_defect_refused_at_every_character(self, mu, g, seed, defect):
        # refused when built or read, so no character reaches the forms
        assume(defect != "linking" or mu >= 2)
        rng = random.Random(seed)
        valid = random_family(mu, g, rng)
        forms = {eps: [list(row) for row in mat] for eps, mat in valid.forms.items()}
        linking = [[0 if i == j else 1 for j in range(mu)] for i in range(mu)]
        eps = rng.choice(sorted(forms))
        if defect == "entry":
            forms[eps][rng.randrange(g)][rng.randrange(g)] += rng.choice([-2, -1, 1, 2])
        elif defect == "row":
            del forms[eps][rng.randrange(g)]
        elif defect == "diagonal":
            linking[rng.randrange(mu)][rng.randrange(mu)] += rng.choice([-2, -1, 1, 2])
        else:
            i, j = rng.sample(range(mu), 2)
            linking[i][j] += 1
        basis = rng.random() < 0.5
        report = refusal(mu, forms, basis=basis, linking=linking)
        with pytest.raises(InvalidFamily) as err:
            SeifertFamily.from_json(_document(mu, forms, basis=basis, linking=linking))
        assert list(err.value.args) == report


class TestSignatureNullity:
    def test_trefoil_values(self):
        fam = trefoil_family()
        # angle 1/6 is the Alexander root e^{i*pi/3}: eigenvalues {0, -2}
        expected = {1: (-1, 1), 2: (-2, 0), 3: (-2, 0)}  # angles k/6
        for k, (s, nu) in expected.items():
            assert fam.signature((ang(k, 6),)) == s
            assert fam.sig_fn().nullity((ang(k, 6),)) == nu

    def test_hopf22_value(self):
        fam = hopf_seifert_family(2, 2)
        assert fam.signature((ang(1, 3), ang(1, 3))) == 1

    def test_conjugation_symmetry(self):
        rng = random.Random(11)
        fams = [hopf_seifert_family(2, 2), hopf_seifert_family(3, 2),
                random_family(2, 3, rng)]
        for fam in fams:
            for a, b in product(range(1, 6), repeat=2):
                om = (ang(a, 6), ang(b, 6))
                assert fam.signature(om) == fam.signature(tuple(a * -1 for a in om))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 3), st.integers(0, 2 ** 32), st.booleans(),
           st.integers(2, 24).flatmap(lambda n: st.tuples(
               st.just(n), st.lists(st.integers(1, n - 1), min_size=2, max_size=2))),
           st.integers(0, 1))
    def test_nullity_is_the_kernel_with_a_basis(self, mu, g, seed, basis, point, unit):
        # one nullity path: sig_fn().nullity, the kernel on the open torus with a
        # basis, None without one and wherever a coordinate is 1
        fam = random_family(mu, g, random.Random(seed), basis=basis)
        n, nums = point
        omega = tuple(ang(k, n) for k in nums[:mu])
        f = fam.sig_fn()
        assert f(omega) == fam.signature(omega)
        if basis:
            assert f.nullity(omega) == fam.raw_inertia(omega)[2]
        else:
            assert f.nullity(omega) is None
        i = unit % mu
        assert f.nullity(omega[:i] + (UNIT,) + omega[i + 1:]) is None

    def test_nullity_gated_by_basis_flag(self):
        fam = hopf_seifert_family(2, 2)
        assert fam.sig_fn().nullity((ang(1, 3), ang(1, 3))) is None
        # raw inertia stays available for oracle use
        pos, neg, nul = fam.raw_inertia((ang(1, 3), ang(1, 3)))
        assert pos + neg + nul == 4

    def test_congruence_invariance(self):
        # unimodular change of basis leaves signature and nullity alone
        fam = trefoil_family()
        u = [[1, 1], [0, 1]]

        def congr(mat):
            # u^T mat u
            tmp = [[sum(u[k][i] * mat[k][l] for k in range(2)) for l in range(2)]
                   for i in range(2)]
            return [[sum(tmp[i][k] * u[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)]

        fam2 = SeifertFamily(1, {eps: congr(fam.forms[eps]) for eps in fam.forms},
                             basis=True)
        for k in range(1, 12):
            om = (ang(k, 12),)
            assert fam.raw_inertia(om) == fam2.raw_inertia(om)


class TestSigFn:
    @pytest.mark.parametrize("forms, count", [
        ({(1,): [[-1, 1], [0, -1]], (-1,): [[-1, 0], [1, -1]]}, 1),  # the trefoil, det 1
        ({(1,): [], (-1,): []}, 1),                                   # a disk, the unknot
        ({(1,): [[-1]], (-1,): [[-1]]}, 2),                           # an annulus: Hopf link
        ({(1,): [[0, 0], [0, 0]], (-1,): [[0, 0], [0, 0]]}, 3),       # a pair of pants
    ], ids=["trefoil", "disk", "annulus", "pants"])
    def test_one_color_basis_family_counts_its_boundary(self, forms, count):
        # a connected surface's theta^+ - theta^- has corank components - 1
        f = SeifertFamily(1, forms, basis=True).sig_fn()
        assert f.counts == (count,)
        assert f.linking == (() if count == 1 else None)
        # without a basis the forms say nothing of the components
        assert SeifertFamily(1, forms).sig_fn().counts == (None,)

    def test_open_torus_delegates_to_signature(self):
        fam = hopf_seifert_family(2, 2)
        f = fam.sig_fn()
        om = (ang(1, 3), ang(2, 5))
        assert f(om) == fam.signature(om)

    def test_boundary_uses_sublink_families(self):
        # the Hopf family ships unlink boundary data: unit slots give 0
        f = hopf_seifert_family(2, 3).sig_fn()
        assert f((UNIT, ang(1, 3))) == 0
        assert f((ang(1, 3), UNIT)) == 0
        assert f((UNIT, UNIT)) == 0

    def test_all_units_is_empty_link(self):
        # deleting the only color leaves the empty link: 0 without any table
        f = trefoil_family().sig_fn()
        assert f((UNIT,)) == 0

    def test_boundary_missing_raises(self):
        fam = random_family(2, 2, random.Random(3))
        f = fam.sig_fn()
        with pytest.raises(BoundaryCharacter):
            f((UNIT, ang(1, 3)))

    def test_distinguished_requires_linking(self):
        f = random_family(2, 2, random.Random(5)).sig_fn()  # no linking metadata
        assert f.linking is None
        with pytest.raises(ValueError, match="splice operand 1 .* has no linking vector"):
            splice(f, hopf_sig_fn(1, 1))

    def test_distinguished_from_linking_metadata(self):
        # the matrix holds class totals, which count no components (H(2,3)'s
        # color 0 is two), so only a restated vector, checked against the
        # matrix's row, distinguishes color 0
        for m, n in [(1, 2), (2, 3)]:
            fam = hopf_seifert_family(m, n)
            f = fam.sig_fn()
            assert f.counts == (None, None)
            assert f.linking is None
            assert f.lk(0, 1) == m * n
            with pytest.raises(ValueError, match="has no linking vector"):
                splice(f, hopf_sig_fn(1, 1))
            assert distinguish(f, (m * n,), "operand").linking == (m * n,)
            with pytest.raises(ValueError, match=f"has linking vector \\[{m * n}\\]"):
                distinguish(f, (m * n + 1,), "operand")
            # the Levine-Tristram collapse still reads the matrix
            omega = (ang(1, 3),)
            assert to_levine_tristram(f)(omega) == fam.signature(omega * 2) - m * n


class TestJson:
    def test_round_trip(self):
        fam = hopf_seifert_family(2, 2)
        blob = fam.dumps()
        back = SeifertFamily.from_json(json.loads(blob))
        assert back.arity == fam.arity
        assert back.forms == fam.forms
        assert back.linking == fam.linking
        assert back.basis == fam.basis
        assert back.boundary.keys() == fam.boundary.keys()

    def test_unicode_minus_accepted(self):
        doc = {"arity": 1, "generators": 1,
               "forms": {"+": [[2]], "−": [[2]]}, "basis": True}
        fam = SeifertFamily.from_json(doc)
        assert fam.forms[(-1,)] == ((2,),)

    def test_generator_count_mismatch_rejected(self):
        doc = {"arity": 1, "generators": 3,
               "forms": {"+": [[2]], "-": [[2]]}, "basis": True}
        with pytest.raises(InvalidFamily):
            SeifertFamily.from_json(doc)

    # "0,1" keeps both colours of the family: never read, and so refused too,
    # as is "0" of an arity-1 family, checked before the reader descends: a
    # chain of them 2000 deep is refused at its top, not by a RecursionError
    @pytest.mark.parametrize("key, depth", [("x", 0), ("1.0", 0), ("0,y", 0), ("0,1", 0),
                                            ("0", 2000)],
                             ids=["x", "1.0", "0,y", "0,1", "0-nested-2000"])
    def test_boundary_key_of_non_integers_refused(self, key, depth):
        if depth:
            doc = nested_family(depth)
        else:
            doc = hopf_seifert_family(2, 2).to_json()
            doc["boundary"] = {key: unlink_family(1).to_json()}
        with pytest.raises(InvalidFamily, match=f"^bad boundary key '{key}'"):
            SeifertFamily.from_json(doc)

    def test_boundary_families_nest_at_most_max_depth(self):
        # every key is valid; the top arity needs 2^arity forms, so both are refused
        with pytest.raises(InvalidFamily, match=f"^boundary families nest more than {MAX_DEPTH}"):
            SeifertFamily.from_json(descending_family(MAX_DEPTH + 2))
        with pytest.raises(InvalidFamily, match="^missing shift directions: 0 of the 2"):
            SeifertFamily.from_json(descending_family(MAX_DEPTH + 1))

    def test_boundary_problems_named_under_their_key(self):
        # a boundary family that breaks a rule is named by its key; a malformed
        # boundary document is not, as it is refused while read
        doc = hopf_seifert_family(1, 2).to_json()
        doc["boundary"]["0"] = {"arity": 1, "forms": {"+": [[1]], "-": [[0]]}, "linking": [[1]]}
        with pytest.raises(InvalidFamily) as err:
            SeifertFamily.from_json(doc)
        assert err.value.args == (
            "boundary (0,): duality broken: - is not the transpose of +, so H(t) is not "
            "the conjugate transpose of itself",
            "boundary (0,): linking matrix must have zero diagonal")
        doc["linking"] = [[0, 1], [2, 0]]
        with pytest.raises(InvalidFamily, match=r"^linking matrix must be symmetric; boundary \(0,\)"):
            SeifertFamily.from_json(doc)
        del doc["boundary"]["0"]["forms"]
        with pytest.raises(InvalidFamily, match="^family document missing or malformed: KeyError"):
            SeifertFamily.from_json(doc)

    def test_json_is_valid_json(self):
        blob = unlink_family(3).dumps()
        json.loads(blob)
