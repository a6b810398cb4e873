"""Self-validating high-precision evaluation contract."""

import random
from fractions import Fraction

import mpmath
import pytest

from coulomb_sharp.highprec import (
    MAX_PRECISION,
    HighPrecisionReal,
    fraction_to_mpf,
    sqrt_of_fraction,
    strictly_less,
    validated_eval,
)


def test_pi_to_thirty_digits():
    result = validated_eval(lambda: +mpmath.pi, 30)
    with mpmath.mp.workdps(50):
        reference = +mpmath.pi
        assert abs(result.value - reference) < mpmath.mpf(10) ** -29


def test_sqrt_squares_back():
    result = sqrt_of_fraction(Fraction(2), 40)
    with mpmath.mp.workdps(60):
        assert abs(result.value**2 - 2) < mpmath.mpf(10) ** -38


def test_negative_sqrt_rejected():
    with pytest.raises(ValueError):
        sqrt_of_fraction(Fraction(-1), 20)


def test_zero_is_accepted_exactly():
    result = validated_eval(lambda: mpmath.mpf(0), 20)
    assert result.value == 0


def test_fraction_roundtrip_precision():
    x = Fraction(123456789, 987654321)
    result = validated_eval(lambda: fraction_to_mpf(x), 35)
    with mpmath.mp.workdps(60):
        reference = mpmath.mpf(x.numerator) / x.denominator
        assert abs(result.value - reference) <= abs(reference) * mpmath.mpf(10) ** -34


def test_carries_requested_precision():
    assert sqrt_of_fraction(Fraction(1, 3), 25).precision == 25


def test_repr_contains_digits():
    value = HighPrecisionReal(mpmath.mpf(2), 10)
    assert "2.0" in repr(value)


@pytest.mark.parametrize("precision", [0, MAX_PRECISION + 1])
def test_precision_out_of_range_rejected(precision):
    with pytest.raises(ValueError, match="precision must be an integer from 1 to 1000 digits"):
        validated_eval(lambda: +mpmath.pi, precision)


def test_strictly_less_margin_is_ten_units_in_the_last_digit():
    # At 30 digits the margin around 1 is 10 * 10**-29: a gap of twice that decides,
    # a gap of half of it is a near-tie in either order.
    one = HighPrecisionReal(mpmath.mpf(1), 30)
    with mpmath.mp.workdps(60):
        clear = HighPrecisionReal(1 + 2 * mpmath.mpf(10) ** -28, 30)
        close = HighPrecisionReal(1 + 5 * mpmath.mpf(10) ** -29, 30)
    assert strictly_less(one, clear) is True
    assert strictly_less(clear, one) is False
    assert strictly_less(one, close) is None
    assert strictly_less(close, one) is None
    assert strictly_less(one, one) is None


def test_fraction_to_mpf_rounds_once():
    # mpf(numerator) rounds before the division does; one rounding of p/q
    # leaves at most half a unit in the last place.
    rng = random.Random(20261018)
    with mpmath.mp.workprec(100):
        for _ in range(300):
            x = Fraction(rng.getrandbits(400) | 1, rng.getrandbits(400) | 1)
            _, man, exp, bc = fraction_to_mpf(x)._mpf_
            error = abs(Fraction(man) * Fraction(2) ** exp - x)
            assert error <= Fraction(2) ** (exp + bc - 100 - 1)
