import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from splicesig.fixtures import PiecewiseTable, fixture_names, fixture_table
from splicesig.hopf import sigma_k
from splicesig.torus import (
    UNIT,
    Angle,
    char_power,
    character,
    defect,
    defect1,
    grid,
    ind,
    is_open,
    weighted_sum,
)

rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=60)
angles = st.builds(Angle, st.fractions(min_value=0, max_value=Fraction(59, 60), max_denominator=60))


def test_ind_values():
    assert ind(Fraction(0)) == 0
    assert ind(Fraction(1)) == 2
    assert ind(Fraction(-2)) == -4
    assert ind(Fraction(1, 2)) == 1
    assert ind(Fraction(7, 8)) == 1
    assert ind(Fraction(9, 8)) == 3
    assert ind(Fraction(-1, 3)) == -1


@given(rationals)
def test_ind_floor_identity(x):
    # ind(x) = 2*floor(x)+1 off the integers and 2x on them
    if x.denominator == 1:
        assert ind(x) == 2 * x
    else:
        assert ind(x) == 2 * math.floor(x) + 1


@given(rationals)
def test_ind_odd(x):
    assert ind(-x) == -ind(x)


def test_angle_normalization():
    assert Angle(Fraction(9, 8)).value == Fraction(1, 8)
    assert Angle(Fraction(-1, 8)).value == Fraction(7, 8)
    assert Angle(2) == UNIT
    assert Angle("5/8").value == Fraction(5, 8)


@pytest.mark.parametrize("value", [0.1, 0.5, 0.0, True, False])
def test_angle_refuses_floats_and_bools(value):
    # a float is its binary approximation (0.1 would be 3602879701896397/2^55)
    # and a bool is no angle
    with pytest.raises(TypeError):
        Angle(value)
    with pytest.raises(TypeError):
        character([value])


def test_angle_is_immutable():
    a = Angle("1/3")
    with pytest.raises(AttributeError):
        a.value = Fraction(1, 2)


@given(angles, st.integers(min_value=-5, max_value=5))
def test_angle_power(a, k):
    assert (k * a).value == (k * a.value) % 1


def test_character_parsing_roundtrip():
    om = character("1/8,5/8,0")
    assert [str(a) for a in om] == ["1/8", "5/8", "0"]
    assert character(str(a) for a in om) == character(",".join(map(str, om))) == om
    assert character(["1/2"]) == (Angle("1/2"),)
    assert character("") == ()


def test_character_edits():
    om = character("1/8,5/8")
    assert tuple(a * -1 for a in om) == character("7/8,3/8")
    assert is_open(om)
    assert not is_open(character("1/8,0"))
    assert is_open(())  # nothing is pinned to 1 on the empty torus


def test_log_sum_is_plain_sum():
    # tuple logs (unit weights) add up in [0, mu); they are NOT reduced mod 1
    assert weighted_sum((1, 1), character("5/8,5/8")) == (10, 8)
    assert weighted_sum((), ()) == (0, 1)


def test_char_power():
    om = character("1/8,5/8")
    assert char_power(om, (1, 1)) == Angle("3/4")
    assert char_power(om, (2, 0)) == Angle("1/4")
    assert char_power(om, (-1, 1)) == Angle("1/2")
    assert char_power((), ()) == UNIT
    with pytest.raises(ValueError):
        char_power(om, (1,))
    with pytest.raises(ValueError, match="character has 2 colors, weight vector has 1"):
        defect((1,), om)


@pytest.mark.parametrize("name, at", [("torus(3,6)", "1/8"), ("torus(2,4)", "1/8,1/8,1/8")])
def test_weighted_sum_refuses_a_character_of_another_arity(name, at):
    # a table once summed the shorter of weights and angles: 4 and 1 here
    table, om = fixture_table(name), character(at)
    msg = f"character has {len(om)} colors, weight vector has {len(table.weights)}"
    for call in (lambda: weighted_sum(table.weights, om), lambda: table.value(om)):
        with pytest.raises(ValueError, match=msg):
            call()


@given(st.integers(0, 30).flatmap(lambda order: st.tuples(st.integers(0, order), st.just(order))),
       st.integers(0, 3))
@settings(deadline=None)  # up to 27 000 cells an example
def test_grid_walks_the_cells_in_order(start_order, arity):
    start, order = start_order
    assert list(grid(start, order, arity)) == [
        (ks, tuple(Angle.from_ratio(k, order) for k in ks))
        for ks in product(range(start, order), repeat=arity)]


def test_grid_of_no_colors_is_one_cell_at_any_order():
    # no angle is built: the order is never walked
    assert list(grid(1, 10 ** 9, 0)) == [((), ())]


def test_defect_examples():
    assert defect1(character("1/8,5/8")) == -1
    assert defect1(character("5/8,5/8")) == 1
    assert defect((1, 2), character("1/2,1/4")) == -1  # ind(1) - (ind(1/2) + 2*ind(1/4))
    assert defect((2,), character("3/4")) == ind(Fraction(3, 2)) - 2 * ind(Fraction(3, 4))


def test_defect_trivial_cases():
    # no defect on zero or one coordinate
    assert defect1(()) == 0
    for num in range(12):
        assert defect1((Angle(Fraction(num, 12)),)) == 0
    assert defect1(character("0,0,0")) == 0


@pytest.mark.parametrize("mu", [2, 3])
def test_defect_conjugation_flips_sign(mu):
    for _, om in grid(0, 8, mu):
        assert defect1(tuple(a * -1 for a in om)) == -defect1(om)


def test_defect_symmetric():
    import itertools

    for _, om in grid(0, 6, 3):
        for perm in itertools.permutations(range(3)):
            assert defect1(tuple(om[i] for i in perm)) == defect1(om)


def test_defect_unit_coordinate_drops():
    for _, om in grid(0, 8, 2):
        assert defect1(om + (UNIT,)) == defect1(om)


def test_defect_conjugate_pair_drops():
    for _, om in grid(0, 12, 1):
        for num in range(12):
            eta = Angle(Fraction(num, 12))
            assert defect1(om + (eta, eta * -1)) == defect1(om)


@given(st.lists(angles, min_size=0, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=4))
def test_defect_definition(om, lam):
    om = tuple(om)
    lam = tuple(lam[: len(om)]) + (1,) * (len(om) - len(lam))
    expected = ind(sum((l * a.value for l, a in zip(lam, om)), Fraction(0)))
    expected -= sum(l * ind(a.value) for l, a in zip(lam, om))
    assert defect(lam, om) == expected


@given(st.integers(1, 30).flatmap(lambda level: st.lists(
           st.tuples(st.integers(0, level - 1).map(lambda k: Angle.from_ratio(k, level)),
                     st.integers(-3, 3)), min_size=1, max_size=4)),
       st.data())
def test_reversed_orientation_is_a_conjugated_coordinate(cells, data):
    # reversing copy i negates its weight: the same defect as conjugating its
    # coordinate, units included
    om = tuple(a for a, _ in cells)
    lam = tuple(l for _, l in cells)
    i = data.draw(st.integers(0, len(cells) - 1))
    flipped = lam[:i] + (-lam[i],) + lam[i + 1:]
    conj = om[:i] + (om[i] * -1,) + om[i + 1:]
    assert defect(flipped, om) == defect(lam, conj)


# ---------------------------------------------------------------------------
# Angle as an integer pair
# ---------------------------------------------------------------------------

def test_angle_reduces_every_input_form():
    assert Angle(Fraction(9, 8)) == Angle("1/8") == Angle(Fraction(2, 16))
    assert Angle(Fraction(-1, 8)) == Angle("-9/8") == Angle("7/8") == Angle(Fraction(15, 8))
    assert Angle(3) == Angle(-3) == Angle("4/2") == Angle(Fraction(0)) == UNIT
    assert Angle(" 1/3 ") == Angle.from_ratio(-2, 3) == Angle.from_ratio(2, 6)
    assert Angle.from_ratio(0, 7) == Angle.from_ratio(14, 7) == UNIT
    assert UNIT.is_unit() and not Angle("1/3").is_unit()


@given(st.fractions(max_denominator=10 ** 6))
def test_angle_is_a_reduced_pair_with_a_fraction_view(x):
    a = Angle(x)
    assert type(a.numerator) is int and type(a.denominator) is int
    assert 0 <= a.numerator < a.denominator
    assert math.gcd(a.numerator, a.denominator) == 1
    assert isinstance(a.value, Fraction)
    assert a.value == x - math.floor(x)
    assert (a.numerator, a.denominator) == (a.value.numerator, a.value.denominator)
    assert a == Angle(str(x)) == Angle.from_ratio(x.numerator, x.denominator)
    assert str(a) == str(a.value) and repr(a) == f"Angle({a.value})"


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6).filter(bool))
@example(1, -3)
@example(0, -5)
def test_from_ratio_is_the_angle_of_the_fraction_for_either_sign(num, den):
    a = Angle.from_ratio(num, den)
    assert a == Angle(Fraction(num, den))
    assert 0 <= a.numerator < a.denominator


@pytest.mark.parametrize("num", [0, 1, -1])
def test_from_ratio_refuses_a_zero_denominator(num):
    with pytest.raises(ZeroDivisionError):
        Angle.from_ratio(num, 0)


@given(st.fractions(max_denominator=10 ** 6), st.integers(-3, 3))
def test_equal_angles_hash_equal(x, shift):
    a, b = Angle(x), Angle(x + shift)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Angle(str(x))}) == 1
    assert a != a.value and a != (a.numerator, a.denominator)


def test_angle_attributes_cannot_change():
    a = Angle("1/3")
    for name, val in (("numerator", 2), ("denominator", 5), ("value", Fraction(1, 2)),
                      ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(a, name, val)
    for name in ("numerator", "denominator", "value"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.numerator, a.denominator) == (1, 3)


# ---------------------------------------------------------------------------
# the integer formulas against a Fraction reference
# ---------------------------------------------------------------------------

def ref_ind(x: Fraction) -> int:
    return math.floor(x) - math.floor(-x)


def ref_theta(x) -> Fraction:
    x = Fraction(x)
    return x - math.floor(x)


def ref_sum(weights, xs) -> Fraction:
    return sum((w * ref_theta(x) for w, x in zip(weights, xs)), Fraction(0))


def ref_defect(lam, xs) -> int:
    return ref_ind(ref_sum(lam, xs)) - sum(l * ref_ind(ref_theta(x)) for l, x in zip(lam, xs))


def ref_table_value(table, xs) -> int:
    s = ref_sum(table.weights, xs)
    for k, wall in enumerate(table.walls):
        if s == wall:
            return table.values[2 * k + 1]
        if s < wall:
            return table.values[2 * k]
    return table.values[-1]


# coordinates with denominators up to 10^6, negative and unit ones included
coords = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-10 ** 7, 10 ** 7), st.integers(1, 10 ** 6)))
weighted = st.lists(st.tuples(coords, st.integers(-5, 5)), max_size=4)


@given(coords, st.integers(1, 10 ** 6))
def test_ind_matches_floor_reference(x, den):
    x = Fraction(x)
    assert ind(x) == ref_ind(x)
    assert ind(x.numerator, den) == ind(Fraction(x.numerator, den)) == ref_ind(
        Fraction(x.numerator, den))


@given(weighted)
@example([])
@example([(0, 3), (Fraction(1, 2), -2)])
def test_defect_and_char_power_match_fraction_reference(cells):
    xs = [x for x, _ in cells]
    lam = tuple(l for _, l in cells)
    om = tuple(Angle(x) for x in xs)
    assert defect(lam, om) == ref_defect(lam, xs)
    assert defect1(om) == ref_defect((1,) * len(xs), xs)
    power = ref_theta(ref_sum(lam, xs))
    got = char_power(om, lam)
    assert (got.numerator, got.denominator) == (power.numerator, power.denominator)
    assert Fraction(*weighted_sum((1,) * len(xs), om)) == ref_sum((1,) * len(xs), xs)


@given(coords, st.integers(-6, 6))
def test_sigma_k_matches_fraction_reference(x, k):
    assert sigma_k(k, Angle(x)) == ref_ind(k * ref_theta(x)) - k


walls = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=60),
                 unique=True, max_size=4).map(sorted)
tables = st.one_of(
    st.sampled_from([fixture_table(name) for name in fixture_names()]),
    walls.flatmap(lambda ws: st.builds(
        PiecewiseTable, st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple),
        st.just(tuple(ws)),
        st.lists(st.integers(-9, 9), min_size=2 * len(ws) + 1,
                 max_size=2 * len(ws) + 1).map(tuple))))


@given(tables, st.lists(coords, min_size=3, max_size=3), st.integers(1, 60))
def test_table_value_matches_fraction_reference(table, xs, order):
    # one coordinate per weight; on grid points too, where the sum lands on the walls
    xs = xs[:len(table.weights)]
    assert table.value(tuple(Angle(x) for x in xs)) == ref_table_value(table, xs)
    grid_xs = [Fraction(x.numerator % order if isinstance(x, Fraction) else x, order)
               for x in xs]
    assert table.value(tuple(Angle(x) for x in grid_xs)) == ref_table_value(table, grid_xs)
