"""The torus-link lattice count, the torus knot leaf, and the univariate reduction.

The lattice count is validated against independent oracles: a brute-force
count of the lattice points, and the exact signature and nullity of the
Brieskorn-Pham Seifert matrix of T(p, q), evaluated through the cyclotomic
machinery, for knots and links alike.  Cabling a knot is the satellite with
a torus knot leaf, and the splice form with a fixture or a zero base covers
the cables of link components; the reduction formula is checked by the Hopf
identity.
"""

from fractions import Fraction
from itertools import product

import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import inertia
from splicesig.cables import _lattice, hirzebruch, torus_nullity, univariate_reduction
from splicesig.ccomplex import SeifertFamily
from splicesig.cyclotomic import CyclotomicNumber, HermitianMatrix
from splicesig.errors import ExpressionError, GuardViolated, InvalidFamily, InvalidParams
from splicesig.expr import parse
from splicesig.fixtures import fixture_sig, fixture_table
from splicesig.hopf import hopf_sig_fn, sigma_k
from splicesig.splice import SigFn, cable_parallel, merge_colors, satellite, to_levine_tristram
from splicesig.torus import UNIT, Angle, ind, linking_problem


def ang(num, den):
    return Angle(Fraction(num, den))


def seifert_lt_signature(v_matrix, *, omega, level):
    """Oracle: exact signature of (1-wbar)V + (1-w)V^T at a root of unity."""
    g = len(v_matrix)
    k = level // omega.denominator * omega.numerator
    w = CyclotomicNumber(level, [int(j == k) for j in range(level)])
    one = CyclotomicNumber.from_rational(1, level)
    a, b = one - w.conjugate(), one - w
    rows = [[a * CyclotomicNumber.from_rational(v_matrix[i][j], level)
             + b * CyclotomicNumber.from_rational(v_matrix[j][i], level)
             for j in range(g)] for i in range(g)]
    pos, neg, _ = inertia(HermitianMatrix(rows))
    return pos - neg


def reference_hirzebruch(p, q, zeta):
    """b - a by the plain double loop over all (p-1)(q-1) lattice points."""
    theta = zeta.value
    if theta > Fraction(1, 2):
        theta = 1 - theta
    a = b = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if s == theta or s == theta + 1:
                continue  # tie: neither side
            if theta < s < theta + 1:
                a += 1
            else:
                b += 1
    return b - a


def reference_rows(p, q, zeta):
    """b - a by one interval per lattice row, in exact rational arithmetic."""
    theta = zeta.value
    if theta > Fraction(1, 2):
        theta = 1 - theta
    p, q = min(p, q), max(p, q)
    a = ties = 0
    for i in range(1, p):
        low = q * (theta - Fraction(i, p))
        first, last = max(1, math.floor(low) + 1), min(q - 1, math.ceil(low) + q - 1)
        a += max(0, last - first + 1)
        if low.denominator == 1:
            ties += (1 <= low <= q - 1) + (1 <= low + q <= q - 1)
    return (p - 1) * (q - 1) - 2 * a - ties


def brute_lattice(p, q, zeta):
    """(b - a, ties) by the plain double loop over {1..|p|-1} x {1..|q|-1}, in
    integers and without reflecting zeta; a negative p*q flips the sign."""
    sign = 1 if p * q > 0 else -1
    p, q = abs(p), abs(q)
    u, v = zeta.numerator, zeta.denominator
    lo, hi = u * p * q, (u + v) * p * q  # theta and theta + 1, times v*p*q
    a = b = ties = 0
    for i in range(1, p):
        for j in range(1, q):
            s = (i * q + j * p) * v
            if s in (lo, hi):
                ties += 1
            elif lo < s < hi:
                a += 1
            else:
                b += 1
    return sign * (b - a), ties


def open_angles(max_den):
    """Every reduced angle k/N other than the unit, N <= max_den."""
    return [ang(k, n) for n in range(2, max_den + 1) for k in range(1, n)
            if math.gcd(k, n) == 1]


def brieskorn_pham(p, q):
    """A Seifert family of T(p, q), p, q >= 2, with its generators a basis:
    V = -(V_p (x) V_q), V_n the (n-1)x(n-1) matrix with -1 on the diagonal and
    +1 just above it; the Milnor fiber of x^p + y^q (Sakamoto 1974)."""
    def vn(n):
        return [[-1 if k == i else int(k == i + 1) for k in range(n - 1)] for i in range(n - 1)]

    vp, vq = vn(p), vn(q)
    v = [[-vp[i][k] * vq[j][m] for k in range(p - 1) for m in range(q - 1)]
         for i in range(p - 1) for j in range(q - 1)]
    return SeifertFamily(1, {(1,): v, (-1,): [list(r) for r in zip(*v)]}, basis=True)


class TestHirzebruch:
    def test_hand_counts(self):
        assert hirzebruch(2, 3, ang(1, 2)) == -2
        assert hirzebruch(2, 3, ang(1, 12)) == 0
        assert hirzebruch(1, 9, ang(1, 3)) == 0  # empty lattice
        # a pair that is not coprime is a link, not an error.  T(2,4) at 1/4:
        # the sums 3/4, 1, 5/4 give two points inside (1/4, 5/4) and one tie.
        # T(3,6) at 1/2: the sums (2i + j)/6 hit 1/2 and 3/2 once each and
        # put the other eight points inside (1/2, 3/2)
        assert _lattice(2, 4, ang(1, 4)) == (-2, 1)
        assert _lattice(3, 6, ang(1, 2)) == (-8, 2)

    def test_against_trefoil_oracle(self):
        trefoil_v = [[-1, 1], [0, -1]]
        for k in range(1, 12):
            want = seifert_lt_signature(trefoil_v, omega=ang(k, 12), level=12)
            assert hirzebruch(2, 3, ang(k, 12)) == want, k

    def test_against_cinquefoil_oracle(self):
        # (2,5)-torus knot, Seifert matrix of the standard genus-2 surface
        v = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
        for k in range(1, 10):
            want = seifert_lt_signature(v, omega=ang(k, 10), level=10)
            assert hirzebruch(2, 5, ang(k, 10)) == want, k

    def test_symmetries(self):
        for p, q in [(2, 3), (3, 4), (2, 5), (3, 5), (4, 7), (2, 4), (6, 9)]:
            for num in range(1, 16):
                z = ang(num, 16)
                assert hirzebruch(p, q, z) == hirzebruch(q, p, z)
                assert hirzebruch(p, q, z) == hirzebruch(p, q, z * -1)

    def test_mirror_flips_the_signature_and_keeps_the_ties(self):
        for p, q in product(range(1, 8), repeat=2):
            for z in open_angles(12):
                sig, ties = _lattice(p, q, z)
                assert _lattice(-p, q, z) == _lattice(p, -q, z) == (-sig, ties)
                assert _lattice(-p, -q, z) == (sig, ties)
                assert hirzebruch(-p, q, z) == -hirzebruch(p, q, z)

    def test_tie_angles_counted_neither_side(self):
        # theta = 5/6 hits i/p + j/q = 1/2 + 1/3 exactly on conjugation to 1/6:
        # the pair (1,1) joins the nullity, leaving one lattice point on each side
        assert hirzebruch(2, 3, ang(1, 6)) == -1
        assert torus_nullity(2, 3, ang(1, 6)) == 1

    def test_count_matches_brute_force(self):
        # every pair 1 <= p, q <= 10, links included, at every reduced angle of
        # denominator <= 18 and at every angle k/(pq) and k/(2pq), where the
        # walls theta and theta + 1 pass through lattice sums
        grid = open_angles(18)
        for p, q in product(range(1, 11), repeat=2):
            angles = grid + [ang(k, den) for den in (p * q, 2 * p * q)
                             for k in range(1, den)]
            for z in angles:
                assert _lattice(p, q, z) == brute_lattice(p, q, z), (p, q, z)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 200),
           st.sampled_from([None, "pq", "2pq"]))
    def test_row_count_matches_double_loop(self, p, q, num, den_kind):
        # denominators p*q and 2*p*q put theta and theta + 1 on lattice sums
        den = {None: 97, "pq": p * q, "2pq": 2 * p * q}[den_kind]
        assume(num % den != 0)
        z = ang(num % den, den)
        assert hirzebruch(p, q, z) == reference_hirzebruch(p, q, z)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 199), st.integers(1, 199), st.data())
    def test_floor_sums_match_row_count(self, p, q, data):
        assume(p * q > 1)
        # the denominator divides p*q, so ties occur
        z = ang(data.draw(st.integers(1, p * q - 1)), p * q)
        assert hirzebruch(p, q, z) == reference_rows(p, q, z)

    def test_large_coprime_pair_is_fast(self):
        start = time.perf_counter()
        assert hirzebruch(1000003, 1000005, ang(1, 3)) == -444448222228
        assert time.perf_counter() - start < 1.0

    def test_invalid_params(self):
        for p, q in [(0, 3), (3, 0), (0, 0)]:
            with pytest.raises(InvalidParams, match=rf"need nonzero \(p, q\), got \({p}, {q}\)"):
                hirzebruch(p, q, ang(1, 3))
        with pytest.raises(InvalidParams):
            hirzebruch(2, 3, UNIT)


class TestBrieskornPham:
    # the lattice count against the exact inertia of a Seifert form of T(p, q)
    def test_links_against_the_seifert_form(self):
        for p, q in product(range(2, 6), repeat=2):
            family = brieskorn_pham(p, q)
            for z in open_angles(12):
                pos, neg, zero = family.raw_inertia((z,))
                assert _lattice(p, q, z) == (pos - neg, zero), (p, q, z)

    def test_knot_leaf_against_the_seifert_form(self):
        for p, q in product(range(2, 7), repeat=2):
            if math.gcd(p, q) != 1:
                continue
            family, leaf = brieskorn_pham(p, q).sig_fn(), parse({"torus": [p, q]})
            for z in open_angles(18):
                assert (leaf((z,)), leaf.nullity((z,))) \
                    == (family((z,)), family.nullity((z,))), (p, q, z)

    def test_fixture_collapses_are_the_torus_link_count(self):
        # the Levine-Tristram collapse of the torus(2,4) and torus(3,6)
        # fixtures, whose strands link pairwise twice, is T(2,4) and T(3,6)
        t24 = to_levine_tristram(fixture_sig("torus-2-4"))
        t36 = to_levine_tristram(fixture_sig("torus-3-6"))
        for z in open_angles(39):
            assert t24((z,)) == hirzebruch(2, 4, z), z
            assert t36((z,)) == hirzebruch(3, 6, z), z

    def test_collapse_refuses_a_row_the_fixture_contradicts(self):
        # torus-3-6's strands link pairwise twice; the collapse reads its own
        # matrix, and a merge claiming 5 for colors 1 and 2, which would
        # subtract 9 in all instead of 6, is refused
        own = to_levine_tristram(fixture_sig("torus-3-6"))
        assert own((ang(1, 5),)) == hirzebruch(3, 6, ang(1, 5)) == -6
        with pytest.raises(ValueError, match=r"torus\(3,6\) links its two colors 2 times, not 5"):
            merge_colors(fixture_sig("torus-3-6"), 5)


class TestCableParams:
    # the (p, q) of the torus count and of the torus knot leaf: the pattern
    # of the cable knot satellite(K, T(p, q), p)
    def test_coprimality_enforced(self):
        # a pair that is not coprime, or has a zero, is a link or no cable:
        # the arity-1 leaf has no room for its linking numbers
        for pattern in [(2, 4), (0, 0), (0, 2), (0, 1), (-3, 6)]:
            with pytest.raises(ExpressionError, match="torus-sig counts torus links"):
                parse({"torus": list(pattern)})

    def test_degenerate_ok(self):
        # a (0, +-1)-cable with d copies is the splice with an unlink base of
        # vector (0, ..., 0): the operand with its component deleted
        f = hopf_sig_fn(1, 2)
        g = parse({"splice": [{"hopf": [1, 2]}, [1, 1], {"zero": 4}, [0, 0, 0]]})
        assert g.arity == 2 + 3
        for ks in product(range(1, 5), repeat=5):
            om = tuple(ang(k, 5) for k in ks)
            if (ks[0] + ks[1]) % 5 == 0:  # the guard: the copies' raised character is 1
                with pytest.raises(GuardViolated):
                    g(om)
                continue
            assert g(om) == f((UNIT,) + om[:2])

    @pytest.mark.parametrize("args", [(2.7, 3), (2, 3.0), (2, "3"), (1.5, 3)])
    def test_inexact_parameters_refused(self, args):
        # a float or a string is not truncated to an integer
        with pytest.raises(TypeError):
            hirzebruch(*args, ang(1, 3))
        with pytest.raises(ExpressionError, match="must be an integer"):
            parse({"torus": list(args)})


# documents of operands with a linking vector
CABLED = {
    "hopf(1,1)": {"hopf": [1, 1]},
    "hopf(1,2)": {"hopf": [1, 2]},
    "hopf(1,3)": {"hopf": [1, 3]},
    "hopf(2,1)": {"hopf": [2, 1]},
    "merged hopf(1,2)": {"merge": [{"hopf": [1, 2]}, 0]},
    "torus-2-4": {"fixture": "torus-2-4"},
    "cable-4-2": {"fixture": "cable-4-2"},
    "torus-3-6": {"fixture": "torus-3-6"},
}


def reference_torus_leaf(p, q):
    """The torus knot leaf as a pair of closures, each deleting the unit colour."""
    def sig(omega):
        return 0 if omega[0].is_unit() else hirzebruch(p, q, omega[0])

    def nullity(omega):
        return None if omega[0].is_unit() else torus_nullity(p, q, omega[0])

    return SigFn(1, sig, counts=(1,), label=f"torus({p},{q})", nullity=nullity)


class TestCableStep:
    # a cable of a knot is the satellite with a torus knot leaf, and a cable
    # of a link component is a splice with the base link's evaluator
    def test_trivial_params_reduce_to_operand(self):
        # T(1, q) is the unknot, wound once: the (1, q)-cable of K is K
        knot = parse({"torus": [2, 5]})
        for q in (-3, 1, 4):
            g = satellite(knot, parse({"torus": [1, q]}), 1)
            for n in range(2, 13):
                for k in range(n):
                    assert g((ang(k, n),)) == knot((ang(k, n),))

    def test_guard(self):
        # a splice with a zero base is refused where both raised characters
        # are 1 and each operand keeps a color; where the base's other color
        # is deleted, the base is a knot there and the splice evaluates
        g = parse({"splice": [{"hopf": [1, 2]}, [1, 1], {"zero": 2}, [2]]})
        with pytest.raises(GuardViolated):
            g((ang(1, 3), ang(2, 3), ang(1, 2)))
        g = parse({"splice": [{"hopf": [1, 2]}, [1, 1], {"zero": 2}, [1]]})
        assert g((ang(1, 3), ang(2, 3), UNIT)) == 0

    def test_builtin_d1_base(self):
        leaf = parse({"torus": [2, 3]})
        assert (leaf.arity, leaf.linking, leaf.label) == (1, (), "torus(2,3)")
        assert (leaf((ang(1, 2),)), leaf.nullity((ang(1, 2),))) == (-2, 0)
        assert (leaf((ang(1, 6),)), leaf.nullity((ang(1, 6),))) == (-1, 1)
        assert (leaf((UNIT,)), leaf.nullity((UNIT,))) == (0, None)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 24).flatmap(
        lambda n: st.integers(0, n - 1).map(lambda k: ang(k, n))))
    def test_leaf_is_the_closure_pair(self, p, q, z):
        # the leaf is a with_boundary leaf, and reads what the pair of
        # closures it replaced read: value and nullity, at 0 and off it
        assume(p * q != 0 and math.gcd(p, q) == 1)
        leaf, ref = parse({"torus": [p, q]}), reference_torus_leaf(p, q)
        assert (leaf.arity, leaf.linking, leaf.label) == (ref.arity, ref.linking, ref.label)
        assert (leaf((z,)), leaf.nullity((z,))) == (ref((z,)), ref.nullity((z,)))

    def test_leaf_nullity_checks_the_arity(self):
        # a two-color character is refused, as by the signature, not read at its first angle
        leaf = parse({"torus": [2, 3]})
        for call in (leaf, leaf.nullity):
            with pytest.raises(ValueError, match="character has 2 colors, torus"):
                call((ang(1, 6), ang(1, 3)))

    def test_builtin_d1_base_mirrors(self):
        leaf = parse({"torus": [-2, 3]})
        assert (leaf((ang(1, 2),)), leaf.nullity((ang(1, 2),))) == (2, 0)
        assert (leaf((ang(1, 6),)), leaf.nullity((ang(1, 6),))) == (1, 1)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(CABLED)), st.integers(1, 3), st.integers(1, 24),
           st.data())
    def test_longitude_cable_step_is_parallel_cabling(self, name, nu, n, data):
        # a (1,0)-cable with nu copies replaces the component by nu parallel
        # longitudes: the splice with a zero base of linking vector (1, ..., 1)
        # at (w, z) is cable_parallel at (z, w), value or refusal alike
        f = parse(CABLED[name])
        stepped = parse({"splice": [CABLED[name], list(f.linking),
                                    {"zero": 1 + nu}, [1] * nu]})
        parallel = cable_parallel(f, nu)
        ks = data.draw(st.lists(st.integers(0, n - 1), min_size=stepped.arity,
                                max_size=stepped.arity))
        om = tuple(ang(k, n) for k in ks)
        w, z = om[:f.arity - 1], om[f.arity - 1:]

        def outcome(g, omega):
            try:
                return g(omega)
            except GuardViolated:
                return "guard"

        assert outcome(stepped, w + z) == outcome(parallel, z + w)

    def test_unknot_cable_reproduces_fixture_table(self):
        # the 2-colored (2,4)-torus link is the d=2, (p,q)=(1,2) cable over
        # the unknot: the splice of the unknot with the base link axis+strands,
        # the cored (4,2)-cable fixture read with its core as the axis.  A
        # knot first operand has no guard, so the table holds on the whole
        # open torus, its wall a + b = 8 included
        g = parse({"splice": [{"zero": 1}, [], {"fixture": "cable-4-2"}, [1, 1]]})
        table = fixture_table("torus(2,4)")
        for a, b in product(range(1, 8), repeat=2):
            om = (ang(a, 8), ang(b, 8))
            assert g(om) == table.value(om), (a, b)


HOPF_LINKING = [[0, 1], [1, 0]]


class TestReductionInput:
    def test_validation(self):
        # the refusals and messages of the checked reduction input, in order
        refused = [
            ((0, (), []), "root order must be positive, got 0"),
            ((6, (0, 3), HOPF_LINKING), "exponents must satisfy 0 < n_i < n, got (0, 3)"),
            ((6, (2, 6), HOPF_LINKING), "exponents must satisfy 0 < n_i < n, got (2, 6)"),
            ((6, (2, 3), [[0, 1]]), "linking matrix must be 2x2"),
            ((6, (2, 3), [[0, 1], [1]]), "linking matrix must be 2x2"),
            ((6, (2, 3), [[1, 1], [1, 0]]), "linking matrix must have zero diagonal"),
            ((6, (2, 3), [[0, 2], [1, 0]]), "linking matrix must be symmetric"),
            ((6, (2, 3), [[0, 2], [1, 1]]), "linking matrix must have zero diagonal"),
        ]
        for args, message in refused:
            with pytest.raises(InvalidParams) as err:
                univariate_reduction(*args, 0)
            assert str(err.value) == message
        assert univariate_reduction(6, (2, 3), HOPF_LINKING, 0) == 4

    @pytest.mark.parametrize("args", [
        (5.9, (2, 3), [[0, 1], [1, 0]]),
        (6, (1.5, 3), [[0, 1], [1, 0]]),
        (6, (2, 3), [[0, 1.0], [1.0, 0]]),
    ], ids=["n", "ni", "linking"])
    def test_inexact_input_refused(self, args):
        with pytest.raises(TypeError):
            univariate_reduction(*args, 0)


def reduction_at_zero(n, ni, linking, lw):
    """univariate_reduction's value at sigma_lbar = 0, given the
    weighted linking numbers lw: sum_i (n_i - 1) ind(lw_i, n) + sum_{i<j} lambda_ij."""
    mu = len(ni)
    return (sum((ni[i] - 1) * ind(lw[i], n) for i in range(mu))
            + sum(linking[i][j] for i in range(mu) for j in range(i + 1, mu)))


class TestWeightedLinking:
    # univariate_reduction reads lw_i = sum_j n_j * lambda_ij only through
    # ind(lw_i, n); each lw here is worked out by hand
    def test_zero_matrix(self):
        zero = [[0, 0], [0, 0]]
        assert univariate_reduction(4, (1, 2), zero, 0) \
            == reduction_at_zero(4, (1, 2), zero, (0, 0)) == 0

    def test_hopf_example(self):
        # lw = (3 * 1, 2 * 1): ind(3/6) = ind(2/6) = 1, so 1*1 + 2*1 + lk 1
        got = univariate_reduction(6, (2, 3), HOPF_LINKING, 0)
        assert got == reduction_at_zero(6, (2, 3), HOPF_LINKING, (3, 2)) == 4

    def test_general_row(self):
        lam = [[0, 1, -2], [1, 0, 3], [-2, 3, 0]]
        lw = (3 * 1 + 4 * (-2), 2 * 1 + 4 * 3, 2 * (-2) + 3 * 3)
        for n in range(5, 16):
            got = univariate_reduction(n, (2, 3, 4), lam, 0)
            assert got == reduction_at_zero(n, (2, 3, 4), lam, lw)
        # at n = 9, ind(-5/9) = -1, ind(14/9) = 3, ind(5/9) = 1: 1*(-1) + 2*3 + 3*1 + (1 - 2 + 3)
        assert univariate_reduction(9, (2, 3, 4), lam, 0) == 10


class TestUnivariateReduction:
    def test_hopf_identity_spot(self):
        hopf = hopf_sig_fn(1, 1)
        for n, n1, n2 in [(3, 1, 2), (5, 2, 3), (6, 4, 1)]:
            xi = ang(1, n)
            slbar = sigma_k(n1, xi) * sigma_k(n2, xi) - n1 * n2
            got = univariate_reduction(n, (n1, n2), HOPF_LINKING, slbar)
            assert got == hopf((ang(n1, n), ang(n2, n))) == 0

    def test_mu1_passthrough(self):
        assert univariate_reduction(5, (2,), [[0]], -4) == -4

    def test_inexact_signature_refused(self):
        with pytest.raises(TypeError):
            univariate_reduction(5, (2,), [[0]], 1.9)

    def test_mu2_small_linking_shortcut(self):
        # with |lk| <= 1 the correction is (n1 + n2 - 1) * lk
        for n, n1, n2, lk in [(5, 2, 3, 1), (7, 4, 2, -1), (4, 1, 3, 0)]:
            got = univariate_reduction(n, (n1, n2), [[0, lk], [lk, 0]], 10)
            assert got == 10 + (n1 + n2 - 1) * lk


class TestOneLinkingRule:
    """A family, and so the Levine-Tristram collapse of its evaluator, and the
    reduction read a linking matrix by one rule: the same matrices pass, and a
    refusal names the same problem."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.lists(st.integers(-3, 3), min_size=16, max_size=16),
           st.sampled_from(["none", "diagonal", "asymmetric", "short row", "extra row"]),
           st.integers(0, 3), st.integers(1, 3))
    def test_same_matrices_same_problem(self, mu, draws, defect, k, shift):
        rows = [[draws[4 * min(i, j) + max(i, j)] if i != j else 0 for j in range(mu)]
                for i in range(mu)]
        i, j = k % mu, (k + 1) % mu
        if defect == "diagonal":
            rows[i][i] = shift
        elif defect == "asymmetric" and mu > 1:
            rows[i][j] += shift
        elif defect == "short row":
            del rows[i][-1]
        elif defect == "extra row":
            rows.append([0] * mu)
        problem = linking_problem(rows, mu)
        square = len(rows) == mu and all(len(row) == mu for row in rows)
        assert (problem is None) == (square and all(
            rows[i][j] == rows[j][i] and not rows[i][i] for i in range(mu) for j in range(mu)))
        forms = {eps: [] for eps in product((1, -1), repeat=mu)}
        refusals = []
        for use, error in [(lambda: SeifertFamily(mu, forms, linking=rows), InvalidFamily),
                           (lambda: univariate_reduction(2, (1,) * mu, rows, 0), InvalidParams)]:
            try:
                use()
            except error as err:
                refusals.append(str(err))
        assert refusals == ([problem] * 2 if problem else [])
