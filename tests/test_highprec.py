"""Self-validating evaluation and the witness digits."""

from fractions import Fraction

import mpmath
import pytest

from coulomb_sharp.highprec import (
    GUARD_DIGITS,
    MAX_PRECISION,
    _display_bits,
    dyadic_real,
    validated_eval,
    witness_digits,
)


def test_pi_to_thirty_digits():
    result = validated_eval(lambda: +mpmath.pi, 30)
    assert isinstance(result, mpmath.mpf)
    with mpmath.mp.workdps(50):
        reference = +mpmath.pi
        assert abs(result - reference) < mpmath.mpf(10) ** -29


def test_zero_is_accepted_exactly():
    result = validated_eval(lambda: mpmath.mpf(0), 20)
    assert result == 0


def test_fraction_roundtrip_precision():
    x = Fraction(123456789, 987654321)
    result = validated_eval(lambda: mpmath.mpf(x.numerator) / x.denominator, 35)
    with mpmath.mp.workdps(60):
        reference = mpmath.mpf(x.numerator) / x.denominator
        assert abs(result - reference) <= abs(reference) * mpmath.mpf(10) ** -34


@pytest.mark.parametrize("precision", [0, MAX_PRECISION + 1])
def test_precision_out_of_range_rejected(precision):
    with pytest.raises(ValueError, match="precision must be an integer from 1 to 1000 digits"):
        validated_eval(lambda: +mpmath.pi, precision)


def nstr_of_dyadic_real(enclosure, precision):
    """The witness string the integer digits must reproduce: mpmath as the oracle."""
    return mpmath.nstr(dyadic_real(enclosure, precision), 25)


def test_display_bits_are_mpmath_dps_to_prec():
    for digits in range(1, MAX_PRECISION + 2 * GUARD_DIGITS + 1):
        assert _display_bits(digits) == mpmath.libmp.dps_to_prec(digits)


@pytest.mark.parametrize("precision", [30, 61, 1000])
@pytest.mark.parametrize("e", [-9, -8, -7, -1, 0, 1, 23, 24, 25])
@pytest.mark.parametrize(
    "digits",
    [
        "9" * 25,  # no rounding
        "9" * 25 + "5",  # carries through every 9 to the next power of ten
        "9" * 25 + "4" + "9" * 10,  # just below the carry
        "9" * 24 + "85",
        "1" + "0" * 40,  # trailing zeros stripped
        "1" + "0" * 24 + "5",
        "4" * 25 + "5",
        "12345678901234567890123455",
        "7",
    ],
)
def test_witness_digits_are_mpmath_nstr(precision, e, digits):
    # The value digits[0].digits[1:] * 10**e, read at 4000 bits and a unit either side.
    x = Fraction(int(digits) * 10 ** max(e - len(digits) + 1, 0), 10 ** max(len(digits) - 1 - e, 0))
    k = 4000
    lo = x.numerator * 2**k // x.denominator
    for enclosure in ((lo - 1, lo, k), (lo, lo, k), (lo + 1, lo + 1, k)):
        assert witness_digits(enclosure, precision) == nstr_of_dyadic_real(enclosure, precision)


@pytest.mark.parametrize("enclosure", [(0, 0, 0), (0, 5, 100), (1, 1, 0), (12345, 12346, 3), (3, 3, -3400)])
def test_witness_digits_of_zero_and_integers(enclosure):
    assert witness_digits(enclosure, 30) == nstr_of_dyadic_real(enclosure, 30)

