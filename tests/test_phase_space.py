"""Phase-space quantities: exact gamma values, semiclassical right-hand sides."""

import math
from fractions import Fraction

import mpmath
import pytest

from coulomb_sharp.phase_space import (
    PiScaledRational,
    clr_rhs,
    gamma_at,
    lt_rhs,
)


class TestPiScaledRational:
    def test_zero_normalises_power(self):
        assert PiScaledRational(Fraction(0), 5) == PiScaledRational(Fraction(0), 0)

    def test_mixed_power_comparison_rejected(self):
        a = PiScaledRational(Fraction(1), 0)
        b = PiScaledRational(Fraction(1), 1)
        with pytest.raises(TypeError):
            _ = a < b

    def test_rational_equality(self):
        assert PiScaledRational(Fraction(9, 8), 0) == Fraction(9, 8)


class TestGammaAt:
    def test_gamma_one(self):
        assert gamma_at(Fraction(1)) == PiScaledRational(Fraction(1), 0)

    def test_gamma_half(self):
        assert gamma_at(Fraction(1, 2)) == PiScaledRational(Fraction(1), 1)

    def test_gamma_seven_halves_by_recurrence_oracle(self):
        # Walk Gamma(x+1) = x Gamma(x) up from Gamma(1/2) = sqrt(pi).
        ratio = Fraction(1)
        x = Fraction(1, 2)
        while x < Fraction(7, 2):
            ratio *= x
            x += 1
        assert ratio == Fraction(15, 8)
        assert gamma_at(Fraction(7, 2)) == PiScaledRational(Fraction(15, 8), 1)

    def test_recurrence_exact_on_half_integer_grid(self):
        x = Fraction(1, 2)
        while x <= 50:
            left = gamma_at(x + 1)
            right = gamma_at(x) * x
            assert left == right
            x += Fraction(1, 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gamma_at(Fraction(0))

    def test_generic_argument_rejected(self):
        # Generic Gamma values are evaluated inside lt_rhs, never here.
        with pytest.raises(ValueError, match="2x to be an integer"):
            gamma_at(Fraction(1, 3))


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

    def test_half_integer_gamma_exact_for_odd_d(self):
        value = lt_rhs(5, Fraction(10), Fraction(3, 2))
        assert isinstance(value, Fraction)
        # Gamma(5/2)Gamma(1)/(Gamma(6)Gamma(5/2)) = 1/120.
        assert value == Fraction(10) ** 5 / 2**4 / 120

    def test_half_integer_gamma_keeps_pi_for_even_d(self):
        value = lt_rhs(4, Fraction(1), Fraction(1, 2))
        assert isinstance(value, PiScaledRational)
        assert value.pi_half_power == 2
        assert value.ratio == Fraction(1, 768)

    def test_generic_gamma_self_consistency(self):
        low = lt_rhs(5, Fraction(7), Fraction(1, 3), precision=20)
        high = lt_rhs(5, Fraction(7), Fraction(1, 3), precision=30)
        with mpmath.mp.workdps(45):
            assert abs(low.value - high.value) <= abs(high.value) * mpmath.mpf(10) ** -19


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

