"""Spectrum of the shifted Coulomb Hamiltonian: levels, counts, Riesz means."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from coulomb_sharp.spectrum import (
    counting_function,
    levels,
    multiplicity,
    riesz_mean,
    riesz_means_order1_int,
    top_level,
)


def ell_at(d, eta):
    return top_level(d, eta.numerator, eta.denominator)


# Each takes (d, eta) and refuses a bad pair before any work; riesz_mean at a non-integer order.
ENTRY_POINTS = (levels, counting_function, lambda d, eta: riesz_mean(d, eta, Fraction(7, 3)))


class TestParams:
    def test_rejects_small_dimension(self):
        for entry in ENTRY_POINTS:
            with pytest.raises(ValueError, match="dimension d must be an integer >= 3"):
                entry(2, Fraction(5))

    def test_rejects_non_integer_dimension(self):
        for entry in ENTRY_POINTS:
            with pytest.raises(ValueError, match="dimension d must be an integer >= 3"):
                entry(5.0, Fraction(11))

    def test_rejects_nonpositive_eta(self):
        for entry in ENTRY_POINTS:
            with pytest.raises(ValueError, match="eta must be positive"):
                entry(3, Fraction(0))

    def test_empty_spectrum_marker(self):
        assert ell_at(3, Fraction(2)) == -1
        assert levels(3, Fraction(2)) == []

    def test_ell_jumps_only_above_threshold(self):
        assert ell_at(3, Fraction(201, 100)) == 0
        assert ell_at(6, Fraction(111, 10)) == 3

    def test_zero_energy_level_not_counted(self):
        # At eta = 2j + d - 1 the level j sits exactly at zero energy and is
        # excluded; ell matches the value just below the threshold.
        nudge = Fraction(1, 10**6)
        for d in range(3, 9):
            for j in range(6):
                eta = Fraction(2 * j + d - 1)
                at = ell_at(d, eta)
                below = ell_at(d, eta - nudge)
                assert at == below


class TestMultiplicity:
    def test_ground_state_nondegenerate(self):
        for d in range(3, 12):
            assert multiplicity(d, 0) == 1

    def test_hydrogen_degeneracy(self):
        # d = 3 degeneracy is (j+1)^2.
        for j in range(10):
            assert multiplicity(3, j) == (j + 1) ** 2

    def test_d6_j3_against_bigint_oracle(self):
        assert multiplicity(6, 3) == math.factorial(7) * 11 // (math.factorial(5) * math.factorial(3))
        assert multiplicity(6, 3) == 77

    def test_factorial_equals_binomial_formula(self):
        for d in range(3, 31):
            for j in range(61):
                via_binomials = math.comb(d - 1 + j, d - 1) + math.comb(d - 2 + j, d - 1)
                assert multiplicity(d, j) == via_binomials


class TestCountingFunction:
    def test_empty_at_threshold(self):
        assert counting_function(3, Fraction(2)) == 0

    def test_single_level(self):
        assert counting_function(3, Fraction(3)) == 1

    def test_d6_counterexample_count(self):
        eta = Fraction(111, 10)
        by_terms = sum(multiplicity(6, j) for j in range(ell_at(6, eta) + 1))
        assert by_terms == 112
        assert counting_function(6, eta) == 112

    def test_hockey_stick_cumulative_identity(self):
        for d in range(3, 31):
            running = 0
            for k in range(61):
                running += multiplicity(d, k)
                closed = (d + 2 * k) * math.factorial(d + k - 1) // (
                    math.factorial(d) * math.factorial(k)
                )
                assert running == closed


class TestLevels:
    def test_all_levels_strictly_negative(self):
        for d, eta in [(3, Fraction(7)), (6, Fraction(111, 10)), (4, Fraction(10))]:
            for level in levels(d, eta):
                assert level.lambda_over_Lambda < 0

    def test_d3_eta3_single_level(self):
        rows = levels(3, Fraction(3))
        assert len(rows) == 1
        assert rows[0].multiplicity == 1
        assert rows[0].lambda_over_Lambda == Fraction(-5, 4)


class TestRieszMean:
    def test_empty_spectrum_is_zero(self):
        assert riesz_mean(3, Fraction(2), Fraction(1)) == 0

    def test_d3_eta3_order1(self):
        value = riesz_mean(3, Fraction(3), Fraction(1))
        assert value == Fraction(5, 4)

    def test_d4_eta10_order1_exact_sum(self):
        value = riesz_mean(4, Fraction(10), Fraction(1))
        expected = Fraction(91, 9) + 15 + Fraction(102, 7) + Fraction(190, 27)
        assert value == expected == Fraction(8830, 189)

    def test_order0_equals_counting_function(self):
        rng = random.Random(1234)
        for _ in range(200):
            d = rng.randint(3, 12)
            eta = Fraction(rng.randint(1, 400), rng.randint(1, 10))
            assert riesz_mean(d, eta, Fraction(0)) == counting_function(d, eta)

    def test_noninteger_gamma_matches_direct_summation(self):
        value = riesz_mean(5, Fraction(10), Fraction(1, 2))
        assert isinstance(value, mpmath.mpf)
        with mpmath.mp.workdps(50):
            direct = mpmath.mpf(0)
            for level in levels(5, Fraction(10)):
                x = -level.lambda_over_Lambda
                direct += level.multiplicity * mpmath.sqrt(
                    mpmath.mpf(x.numerator) / x.denominator
                )
            assert abs(value - direct) < mpmath.mpf(10) ** -28

    def test_gamma_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            riesz_mean(3, Fraction(5), Fraction(-1))


def d3_closed_form(eta):
    """The paper's d = 3 order-1 mean: (l+1) eta^2/4 - (l+1)(l+2)(2l+3)/6 with l = ceil(eta/2) - 2."""
    ell = math.ceil(eta / 2) - 2
    return (ell + 1) * eta**2 / 4 - Fraction((ell + 1) * (ell + 2) * (2 * ell + 3), 6)


def order1_d3(eta, k):
    """riesz_means_order1_int(3, .) on the one-point column of eta given as the unreduced pair (k num, k den)."""
    n = eta.numerator * k
    [pair] = riesz_means_order1_int(3, range(n, n + 1), eta.denominator * k)
    return Fraction(*pair)


class TestD3ClosedForm:
    def test_threshold_is_zero(self):
        assert d3_closed_form(Fraction(2)) == 0
        assert order1_d3(Fraction(2), 3) == 0

    def test_known_values(self):
        for eta, value in ((Fraction(3), Fraction(5, 4)), (Fraction(5), Fraction(15, 2))):
            assert d3_closed_form(eta) == value
            assert order1_d3(eta, 7) == value

    def test_matches_general_riesz_mean_on_grid(self):
        for k in range(21, 201):
            eta = Fraction(k, 10)
            general = riesz_mean(3, eta, Fraction(1))
            assert d3_closed_form(eta) == general
            assert order1_d3(eta, k % 5 + 1) == general
