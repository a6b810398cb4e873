"""Phase-space quantities: the semiclassical right-hand sides."""

import math
from fractions import Fraction

import mpmath
import pytest

from coulomb_sharp.phase_space import clr_rhs, lt_rhs


def assert_close(value, exact):
    """value is an mpf within 10**-30 relative of exact; call at 60 digits."""
    assert isinstance(value, mpmath.mpf)
    assert abs(value - exact) <= abs(exact) * mpmath.mpf(10) ** -30


class TestLtRhs:
    def test_order0_d3(self):
        assert lt_rhs(3, Fraction(3), Fraction(0)) == Fraction(9, 8)

    def test_order1_d3_is_eta_cubed_over_12(self):
        for eta in (Fraction(1), Fraction(3), Fraction(111, 10)):
            assert lt_rhs(3, eta, Fraction(1)) == eta**3 / 12

    def test_order1_d4(self):
        assert lt_rhs(4, Fraction(10), Fraction(1)) == Fraction(2500, 48)

    def test_order1_closed_form_all_dimensions(self):
        eta = Fraction(7, 3)
        for d in range(3, 31):
            closed = Fraction(2 ** (2 - d)) * eta**d / (math.factorial(d) * (d - 2))
            assert lt_rhs(d, eta, Fraction(1)) == closed

    def test_order0_equals_clr(self):
        for d in range(3, 20):
            for eta in (Fraction(5, 2), Fraction(111, 10), Fraction(40)):
                assert lt_rhs(d, eta, Fraction(0)) == clr_rhs(d, eta)

    def test_divergence_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            lt_rhs(3, Fraction(5), Fraction(3, 2))
        with pytest.raises(ValueError, match="diverges"):
            lt_rhs(4, Fraction(5), Fraction(2))

    def test_half_integer_gamma_enclosed_for_odd_d(self):
        # Gamma(5/2)Gamma(1)/(Gamma(6)Gamma(5/2)) = 1/120.
        with mpmath.mp.workdps(60):
            assert_close(lt_rhs(5, Fraction(10), Fraction(3, 2)), mpmath.mpf(10) ** 5 / 2**4 / 120)

    def test_half_integer_gamma_keeps_pi_for_even_d(self):
        # Gamma(3/2)Gamma(3/2)/(Gamma(5)Gamma(2)) / 2**3 = pi/768.
        with mpmath.mp.workdps(60):
            assert_close(lt_rhs(4, Fraction(1), Fraction(1, 2)), mpmath.pi / 768)

    def test_generic_gamma_self_consistency(self):
        low = lt_rhs(5, Fraction(7), Fraction(1, 3), precision=20)
        high = lt_rhs(5, Fraction(7), Fraction(1, 3), precision=30)
        with mpmath.mp.workdps(45):
            assert abs(low - high) <= abs(high) * mpmath.mpf(10) ** -19


class TestClrRhs:
    def test_d3_eta2(self):
        assert clr_rhs(3, Fraction(2)) == Fraction(1, 3)

    def test_d6_counterexample_value(self):
        value = clr_rhs(6, Fraction(111, 10))
        assert value == Fraction(111**6, 10**6 * 23040)
        assert abs(float(value) - 81.18) < 0.005

    def test_small_eta_monotone_to_zero(self):
        assert clr_rhs(3, Fraction(1, 10)) == Fraction(1, 24000)
        values = [clr_rhs(3, Fraction(k, 10)) for k in range(1, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

