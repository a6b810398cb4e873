"""Self-validating evaluation, and the exact reading of an interval as an enclosure."""

from fractions import Fraction

import mpmath
import pytest

from coulomb_sharp.highprec import (
    MAX_PRECISION,
    interval_enclosure,
    validated_eval,
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


@pytest.mark.parametrize("x", [Fraction(-1, 3), Fraction(0), Fraction(10**40, 7)])
def test_interval_enclosure_holds_the_interval_exactly(x):
    saved = mpmath.iv.prec
    lo, hi, k = interval_enclosure(lambda: mpmath.iv.mpf(x.numerator) / x.denominator, 80)
    assert mpmath.iv.prec == saved
    scale = Fraction(2) ** -k
    assert lo * scale <= x <= hi * scale
    assert (hi - lo) * scale <= abs(x) * Fraction(2) ** -76  # a few units of the 80th bit


def test_interval_enclosure_rejects_an_unbounded_interval():
    with pytest.raises(ValueError):
        interval_enclosure(lambda: mpmath.iv.mpf(1) / 0, 80)

