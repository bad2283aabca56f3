import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.golden import GoldenNumber, surd_decimal

coefficients = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4)


def rendered_value(text: str) -> GoldenNumber:
    return GoldenNumber(Fraction(text))


@settings(max_examples=300, deadline=None)
@given(coefficients, coefficients, st.integers(0, 9))
def test_upward_rendering_brackets_the_value(a, b, places):
    x = GoldenNumber(a, b)
    unit = Fraction(1, 10**places)
    r = rendered_value(x.decimal(places, upward=True))
    assert (r - x).sign() >= 0
    assert (x + unit - r).sign() > 0


@settings(max_examples=300, deadline=None)
@given(coefficients, coefficients, st.integers(0, 9))
def test_nearest_rendering_is_within_half_a_unit(a, b, places):
    x = GoldenNumber(a, b)
    half = Fraction(1, 2 * 10**places)
    r = rendered_value(x.decimal(places))
    assert (r - x + half).sign() >= 0
    assert (x - r + half).sign() >= 0


def test_rounding_examples():
    # ties go to the even neighbour; upward rounding has no ties
    assert GoldenNumber(Fraction(5, 2)).decimal(0) == "2"
    assert GoldenNumber(Fraction(7, 2)).decimal(0) == "4"
    assert GoldenNumber(Fraction(-5, 2)).decimal(0) == "-2"
    assert GoldenNumber(Fraction(1, 8)).decimal(2) == "0.12"
    assert GoldenNumber(Fraction(1, 8)).decimal(2, upward=True) == "0.13"
    assert GoldenNumber(Fraction(-1, 8)).decimal(2, upward=True) == "-0.12"
    # 13/16 + tau/8 = 1.0147542..., the d = 10 colouring bound
    x = GoldenNumber(Fraction(13, 16), Fraction(1, 8))
    assert x.decimal(upward=True) == "1.014755"
    assert (-x).decimal(upward=True) == "-1.014754"
    # a negative value that rounds to zero keeps its sign
    assert GoldenNumber(Fraction(-1, 10**8)).decimal() == "-0.000000"


def fraction_decimal(value: Fraction, places: int) -> str:
    """Round half to even by Python's own exact rounding of a Fraction."""
    units = round(value * 10**places)
    digits = str(abs(units)).rjust(places + 1, "0")
    if places:
        digits = f"{digits[:-places]}.{digits[-places:]}"
    return ("-" if value < 0 else "") + digits


@settings(max_examples=500, deadline=None)
@given(st.fractions(min_value=-10**3, max_value=10**3, max_denominator=2 * 10**6),
       st.integers(0, 8))
def test_fraction_rendering_rounds_half_to_even(value, places):
    assert GoldenNumber(value).decimal(places) == fraction_decimal(value, places)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3), st.integers(0, 30),
       st.integers(1, 10**4), st.integers(0, 8), st.booleans())
def test_surd_rendering_of_perfect_squares(p, q, root, s, places, upward):
    # (p + q*sqrt(root^2)) / s is rational, so ties and exact values occur
    exact = Fraction(p + q * root, s)
    got = surd_decimal(p, q, root * root, s, places, upward=upward)
    if upward:
        units = -math.floor(-exact * 10**places)
        assert Fraction(got) == Fraction(units, 10**places)
    else:
        assert got == fraction_decimal(exact, places)

