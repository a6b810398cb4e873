"""Named analysis functions: Pochhammer products, Q, R, A, f, g, h_a, G."""

import functools
import math
import random
from fractions import Fraction

import pytest

from coulomb_sharp import excess
from coulomb_sharp.exact import Polynomial, expand_linear_factors, poly_gcd, sturm_count
from coulomb_sharp.phase_space import clr_rhs
from coulomb_sharp.spectrum import counting_function
from coulomb_sharp.verification import check_sandwich


class TestPochhammer:
    def test_zeroth_is_one(self):
        for t in (Fraction(0), Fraction(-7, 2), Fraction(100)):
            assert excess.pochhammer_eval(0, t) == 1

    def test_vanishes_at_minus_one(self):
        for m in range(1, 21):
            assert excess.pochhammer_eval(m, Fraction(-1)) == 0

    def test_small_product(self):
        assert excess.pochhammer_eval(3, Fraction(2)) == 60

    def test_difference_recursion(self):
        rng = random.Random(77)
        for m in range(1, 41):
            for _ in range(3):
                t = Fraction(rng.randint(-300, 300), rng.randint(1, 30))
                lhs = m * excess.pochhammer_eval(m - 1, t)
                rhs = excess.pochhammer_eval(m, t) - excess.pochhammer_eval(m, t - 1)
                assert lhs == rhs

    def test_telescoping_sum(self):
        for m in range(1, 21):
            total = Fraction(0)
            for ell in range(51):
                total += excess.pochhammer_eval(m - 1, ell)
                assert m * total == excess.pochhammer_eval(m, ell)


def product_below(d, t):
    """prod_{j<d}(t+j) as a plain Fraction loop, independent of the closed forms."""
    value = Fraction(1)
    for j in range(1, d):
        value *= t + j
    return value


def q_product_form(d, t):
    """Textbook Q: (t+d/2) prod_{j<d}(t+j) / (t+(d-1)/2)**d."""
    return (t + Fraction(d, 2)) * product_below(d, t) / (t + Fraction(d - 1, 2)) ** d


def a_squared_product_form(d, t):
    """Textbook A**2: prod_{j<d}(t+j)**2 (t+d/2)**(2-d) (t+d/2-1)**(-d)."""
    return (
        product_below(d, t) ** 2
        * (t + Fraction(d, 2)) ** (2 - d)
        * (t + Fraction(d, 2) - 1) ** (-d)
    )


CLOSED_FORM_POINTS = (Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(-1, 2), Fraction(23, 2))


class TestQEval:
    def test_known_values(self):
        assert excess.q_eval(3, 0) == 3
        assert excess.q_eval(4, 0) == Fraction(64, 27)
        assert excess.q_eval(5, 1) == Fraction(420, 243)

    def test_pole_rejected(self):
        for d in range(3, 13):
            with pytest.raises(ValueError, match="pole"):
                excess.q_eval(d, Fraction(1 - d, 2))

    def test_matches_product_form(self):
        for d in range(3, 13):
            for t in CLOSED_FORM_POINTS:
                if t == Fraction(1 - d, 2):
                    continue
                assert excess.q_eval(d, t) == q_product_form(d, t)

    def test_right_limit_identity(self):
        # The count is constant on (eta0, eta0 + 2] with eta0 = 2*tau0 + d - 1.
        for d in range(3, 11):
            for tau0 in range(41):
                eta0 = 2 * tau0 + d - 1
                count = counting_function(d, eta0 + 1)
                assert excess.q_eval(d, tau0) == Fraction(count) / clr_rhs(d, eta0)


class TestREval:
    def test_single_level(self):
        assert excess.r_eval(3, Fraction(3)) == Fraction(8, 9)

    def test_counterexample_value(self):
        value = excess.r_eval(6, Fraction(111, 10))
        assert value == Fraction(112) / Fraction(111**6, 10**6 * 23040)
        assert value > 1

    def test_empty_spectrum(self):
        assert excess.r_eval(3, Fraction(2)) == 0

    def test_bounded_by_q_on_random_grid(self):
        rng = random.Random(5150)
        for _ in range(500):
            d = rng.randint(3, 12)
            eta = Fraction(d - 1) + Fraction(rng.randint(1, 5000), 100)
            tau = (eta + 1 - d) / 2
            assert excess.r_eval(d, eta) <= excess.q_eval(d, tau)


class TestFRatfun:
    def test_d4_top_coefficients(self):
        p = excess.f_as_ratfun(4).numerator
        assert p.coefficient(2) == -2
        assert p.coefficient(1) == -6

    def test_denominator_structure(self):
        # (t + ceil(d/2) - 1/2) prod_{k<d} (t + k)
        for d in range(3, 12):
            half_pole = Fraction(d, 2) if d % 2 else Fraction(d - 1, 2)
            assert excess.f_as_ratfun(d).denominator == expand_linear_factors([half_pole, *range(1, d)])

    def test_degree_bound(self):
        for d in range(3, 61):
            assert excess.f_as_ratfun(d).numerator.degree <= d - 2

    def test_f3_strictly_negative_beyond_minus_one(self):
        p3 = excess.f_as_ratfun(3)
        assert sturm_count(p3.numerator, -1, 10**6) == 0
        t = Fraction(-9, 10)
        while t < 50:
            assert excess.f_eval(3, t) < 0
            t += Fraction(7, 3)

    def test_f6_zero_localisation(self):
        p = excess.f_as_ratfun(6).numerator
        assert sturm_count(p, -5, -1) == 3
        assert sturm_count(p, -1, 10**6) == 1
        assert p.degree == 4

    def test_matches_term_evaluation(self):
        pair = excess.f_as_ratfun(7)
        for t in (Fraction(1, 3), Fraction(11, 2), Fraction(-13, 3)):
            assert pair.eval(t) == excess.f_eval(7, t)


class TestLogDerivative:
    @pytest.mark.parametrize("d", [3, 5, 10])
    def test_q_identity(self, d):
        assert excess.logderiv_check("Q", d)

    @pytest.mark.parametrize("d", [3, 4, 7, 8])
    def test_a_squared_identity(self, d):
        assert excess.logderiv_check("A_squared", d)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            excess.logderiv_check("B", 5)


class TestAEval:
    def test_squared_values(self):
        assert excess.a_eval_squared(3, 0) == Fraction(64, 3)
        assert excess.a_eval_squared(5, 0) == Fraction(147456, 30375)

    def test_even_dimension_exact(self):
        # Even d: A**2 is the square of a rational, so A itself is exact; A(4, 0) = 3.
        assert excess.a_eval_squared(4, 0) == 9
        # Odd d: A**2 is no rational square, so A has no exact value.
        square = excess.a_eval_squared(5, 0)
        assert math.isqrt(square.denominator) ** 2 != square.denominator

    def test_pole_rejected(self):
        for d in range(3, 13):
            for pole in (Fraction(-d, 2), Fraction(2 - d, 2)):
                with pytest.raises(ValueError, match="pole"):
                    excess.a_eval_squared(d, pole)

    def test_matches_product_form(self):
        for d in range(3, 13):
            for t in CLOSED_FORM_POINTS:
                if t in (Fraction(-d, 2), Fraction(2 - d, 2)):
                    continue
                assert excess.a_eval_squared(d, t) == a_squared_product_form(d, t)

    def test_dominates_q_squared_on_grid(self):
        for d in range(3, 13):
            t = Fraction(0)
            while t <= 12:
                assert excess.a_eval_squared(d, t) > excess.q_eval(d, t) ** 2
                t += Fraction(1, 2)


def written_g_shifted_terms(d):
    """The shifted g~(s) = g(s - (d-1)/2) for odd d, its (coefficient, root) pairs written out as in the paper."""
    half = Fraction(1, 2)
    return [(1 - Fraction(d, 2), half), (-Fraction(d, 2), -half)] + [
        (Fraction(1), Fraction(j)) for j in range(-(d - 3) // 2, (d - 1) // 2 + 1)
    ]


def written_h_a_terms(d, a):
    """The squeeze h_a for odd d, written out: g~ with its pole at s = 0 split between s = 1/2 and s = -1/2."""
    half = Fraction(1, 2)
    terms = [(1 - Fraction(d, 2), half), (-Fraction(d, 2), -half), (1 - a, -half), (a, half)]
    return terms + [(Fraction(1), Fraction(k)) for k in range(-(d - 3) // 2, (d - 1) // 2 + 1) if k != 0]


class TestDerivedTermLists:
    """g~ and h_a are derived from g's terms; the written-out lists are the oracle."""

    def test_shifted_g_terms_are_the_written_list(self):
        for d in range(5, 42, 2):
            assert excess.g_shifted_terms(d) == written_g_shifted_terms(d)

    def test_h_a_sum_is_the_written_sum(self):
        for d in range(5, 42, 2):
            for a in (Fraction(0), Fraction(1, 2), excess.squeeze_coefficient(d), Fraction(1)):
                derived = excess.partial_fraction_sum(excess.h_a_terms(d, a))
                assert derived == excess.partial_fraction_sum(written_h_a_terms(d, a))

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_shifted_forms_need_odd_d_from_5(self, d):
        with pytest.raises(ValueError, match="odd d >= 5"):
            excess.g_shifted_terms(d)
        with pytest.raises(ValueError, match="h_a needs odd d >= 5"):
            excess.h_a_terms(d, Fraction(1, 2))


def written_f_terms(d):
    """f = 1/(t + d/2) - d/(t + (d-1)/2) + sum_{k<d} 1/(t + k), its (coefficient, root) pairs written out."""
    return [(Fraction(1), Fraction(d, 2)), (Fraction(-d), Fraction(d - 1, 2))] + [
        (Fraction(1), Fraction(k)) for k in range(1, d)
    ]


def fraction_sum(terms, t):
    return sum((c / (t + r) for c, r in terms), Fraction(0))


class TestIntegerTermImages:
    """f, g~ and h_a evaluate integer images (cn, cd, rn, rd) of their terms; a Fraction sum is the oracle."""

    # (term builder, its arguments, the written-out terms, the package's evaluator of the quantity)
    CASES = (
        [(excess.f_terms, (d,), written_f_terms(d), functools.partial(excess.f_eval, d)) for d in range(3, 13)]
        + [
            (excess.g_shifted_terms, (d,), written_g_shifted_terms(d), functools.partial(excess.g_shifted_eval, d))
            for d in range(5, 16, 2)
        ]
        + [
            (excess.h_a_terms, (d, a), written_h_a_terms(d, a), functools.partial(excess.h_a_eval, d, a))
            for d in range(5, 16, 2)
            for a in (Fraction(0), Fraction(2, 5), Fraction(1, 2), excess.squeeze_coefficient(d), Fraction(1))
        ]
    )

    def test_matches_fraction_sum_at_random_points(self):
        rng = random.Random(4401)
        for build, args, written, evaluate in self.CASES:
            image = excess._int_terms(build, *args)
            poles = {-r for _, r in written}
            for _ in range(25):
                t = Fraction(rng.randint(-3000, 3000), rng.randint(1, 97))
                if t in poles:
                    continue
                expected = fraction_sum(written, t)
                k = rng.randint(1, 40)
                assert Fraction(*excess._eval_terms(image, t.numerator * k, t.denominator * k)) == expected
                assert evaluate(t) == expected

    def test_every_pole_raises(self):
        for build, args, written, evaluate in self.CASES:
            image = excess._int_terms(build, *args)
            for pole in {-r for _, r in written}:
                with pytest.raises(ValueError, match="pole"):
                    excess._eval_terms(image, pole.numerator * 3, pole.denominator * 3)
                with pytest.raises(ValueError, match="pole"):
                    evaluate(pole)

    def test_terms_are_built_once_per_argument(self, monkeypatch):
        built = []
        original = excess.g_shifted_terms

        def counting(d):
            built.append(d)
            return original(d)

        monkeypatch.setattr(excess, "g_shifted_terms", counting)
        excess._int_terms.cache_clear()
        try:
            for n in range(1, 20):
                excess.g_shifted_eval(9, Fraction(6 * n + 1, 6))
                excess.h_a_eval(9, Fraction(1, 2), Fraction(6 * n + 1, 6))
            # one image of g~ at d = 9, and one of h_{1/2} (built once, from g~'s terms)
            assert built == [9, 9]
        finally:
            excess._int_terms.cache_clear()


class TestHa:
    def test_leading_coefficient_d5(self):
        p = excess.h_a_as_ratfun(5, Fraction(1, 2)).numerator
        assert p.coefficient(3) == Fraction(-5, 2)

    def test_second_coefficient_d7(self):
        a = Fraction(3, 4)
        p = excess.h_a_as_ratfun(7, a).numerator
        expected = Fraction(7**3 - 6 * 7**2 + 8 * 7, 12) - Fraction(6, 2) * a
        assert expected == Fraction(13, 2)
        assert p.coefficient(4) == expected

    def test_both_coefficients_d9_at_squeeze_weight(self):
        d = 9
        a = excess.squeeze_coefficient(d)
        assert a == Fraction(7, 12)
        p = excess.h_a_as_ratfun(d, a).numerator
        assert p.degree == d - 2
        assert p.coefficient(d - 2) == -(Fraction(d - 1, 2) + a)
        assert p.coefficient(d - 3) == Fraction(d**3 - 6 * d**2 + 8 * d, 12) - Fraction(d - 1, 2) * a

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            excess.h_a_as_ratfun(6, Fraction(1, 2))

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            excess.h_a_as_ratfun(5, Fraction(3, 2))

    def test_ratfun_matches_direct_evaluation(self):
        d, a = 7, Fraction(2, 5)
        pair = excess.h_a_as_ratfun(d, a)
        for s in (Fraction(5, 2) + 1, Fraction(17, 3), Fraction(40)):
            assert pair.eval(s) == excess.h_a_eval(d, a, s)

    def test_coprime(self):
        pair = excess.h_a_as_ratfun(9, Fraction(1, 2))
        assert poly_gcd(pair.numerator, pair.denominator) == Polynomial.one()


class TestSandwich:
    def test_holds_at_sample_points(self):
        assert check_sandwich(5, 3).verdict == "pass"
        assert check_sandwich(7, 10).verdict == "pass"

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            check_sandwich(5, 1)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_middle_outside_either_bound_fails(self, monkeypatch, side):
        bound = Fraction(check_sandwich(7, 10).witness[side])
        monkeypatch.setattr(excess, "g_shifted_eval", lambda d, s: bound)
        assert check_sandwich(7, 10).verdict == "fail"

    def test_shifted_g_consistency(self):
        rng = random.Random(31337)
        for d in (5, 7, 9, 11):
            for _ in range(5):
                s = Fraction(d - 3, 2) + Fraction(rng.randint(1, 500), 100)
                assert excess.g_shifted_eval(d, s) == excess.g_as_ratfun(d).eval(s - Fraction(d - 1, 2))


class TestBigG:
    def test_exact_value_at_zero(self):
        assert Fraction(*excess.big_g_squared_int(4, 0, 1)) == Fraction(361, 432) ** 2

    def test_limit_approached(self):
        assert abs(Fraction(*excess.big_g_squared_int(4, 10**6, 1)) - 1) < Fraction(2, 10**5)

    def test_odd_dimension_squared_path(self):
        num, den = excess.big_g_squared_int(5, 0, 1)
        assert 0 < num < den

    def test_monotonicity_quadratic_coefficients_nonnegative(self):
        for d in range(4, 61):
            poly = excess.big_g_monotonicity_quadratic(d)
            assert all(c >= 0 for c in poly.coefficients)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            excess.big_g_squared_int(4, -1, 2)


class TestGRatfun:
    def test_even_d_denominator_and_degree(self):
        for d in (6, 8, 10):
            pair = excess.g_as_ratfun(d)
            assert pair.denominator == expand_linear_factors(range(1, d))
            assert pair.numerator.degree <= d - 3
            assert pair.numerator.coefficient(d - 3) == -Fraction(d, 2)

    def test_g4_closed_form(self):
        # g_4 collapses to 1/(t+3) - 1/(t+1).
        pair = excess.g_as_ratfun(4)
        for t in (Fraction(0), Fraction(5, 2), Fraction(-1, 2)):
            assert pair.eval(t) == Fraction(1) / (t + 3) - Fraction(1) / (t + 1)
