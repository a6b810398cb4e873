"""Exact arithmetic core: polynomials, gcd reduction, root counting, bisection.

Differential tests against sympy, with hypothesis-drawn inputs, live in
test_exact_oracles.py.
"""

import random
from fractions import Fraction

import pytest

from coulomb_sharp import excess
from coulomb_sharp.exact import (
    MAX_DECIMAL_EXPONENT,
    CertificationError,
    EndpointRootError,
    Polynomial,
    RootBracket,
    bisect_root,
    expand_linear_factors,
    isolate_unique_root,
    parse_rational,
    poly_gcd,
    ratfun_reduce,
    rational_sign,
    sturm_count,
)


def poly(*coeffs):
    """Low-to-high coefficient shorthand."""
    return Polynomial.from_coefficients(coeffs)


def convolution_expand(roots):
    """Independent oracle: expand prod (t + r) by direct list convolution."""
    out = [Fraction(1)]
    for r in roots:
        nxt = [Fraction(0)] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c * r
            nxt[i + 1] += c
        out = nxt
    return out


class TestParseRational:
    def test_decimal_is_exact(self):
        assert parse_rational("11.1") == Fraction(111, 10)

    def test_fraction_text(self):
        assert parse_rational("111/10") == Fraction(111, 10)

    def test_integer_text(self):
        assert parse_rational("-7") == Fraction(-7)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_rational("eleven")

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse_rational(" 1/0 ")

    def test_decimal_exponent_limit(self):
        limit = MAX_DECIMAL_EXPONENT
        assert parse_rational(f"1e{limit}") == 10**limit
        assert parse_rational(f"-2.5E-{limit}") == Fraction(-5, 2 * 10**limit)
        for text in (f"1e{limit + 1}", f"1e-{limit + 1}", "1e10000000", "1E+1_001"):
            with pytest.raises(ValueError, match="decimal exponent"):
                parse_rational(text)


class TestPolynomial:
    def test_trailing_zeros_stripped(self):
        assert poly(1, 2, 0, 0).degree == 1

    def test_eval_horner(self):
        p = poly(2, 3, 1)  # t^2 + 3t + 2
        assert p.eval(Fraction(1, 2)) == Fraction(15, 4)

    def test_divmod_roundtrip(self):
        a = poly(1, 0, -3, 1, 2)
        b = poly(-1, 1, 1)
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_derivative(self):
        assert poly(5, 1, 4).derivative() == poly(1, 8)

    def test_gcd_known_common_factor(self):
        a = expand_linear_factors([1, 1, 2])
        b = expand_linear_factors([1, 3])
        assert poly_gcd(a, b) == poly(1, 1)

    def test_gcd_coprime(self):
        assert poly_gcd(poly(1, 1), poly(2, 1)) == Polynomial.one()


class TestExpandLinearFactors:
    def test_single_factor(self):
        assert expand_linear_factors([1]) == poly(1, 1)

    def test_two_factors(self):
        assert expand_linear_factors([1, 2]) == poly(2, 3, 1)

    def test_five_factors_against_convolution_oracle(self):
        roots = [1, 2, 3, 4, 5]
        p = expand_linear_factors(roots)
        assert list(p.coefficients) == convolution_expand(roots)
        assert p.leading_coefficient == 1
        assert p.coefficient(0) == 120
        assert p.coefficient(4) == 15

    def test_repeated_roots(self):
        assert expand_linear_factors([1, 1, 1]) == poly(1, 3, 3, 1)
        roots = [Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 3)]
        assert expand_linear_factors(roots) == poly(Fraction(1, 12), Fraction(-1, 12), Fraction(-2, 3), 1)
        assert list(expand_linear_factors(roots).coefficients) == convolution_expand(roots)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expand_linear_factors([])

    def test_vanishes_at_every_root(self):
        rng = random.Random(42)
        for _ in range(25):
            roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
            p = expand_linear_factors(roots)
            for r in roots:
                assert p.eval(-r) == 0


class TestRatfunReduce:
    def test_common_linear_factor(self):
        pair = ratfun_reduce(poly(-1, 0, 1), poly(-1, 1))
        assert pair.numerator == poly(1, 1)
        assert pair.denominator == Polynomial.one()

    def test_scalar_normalisation(self):
        pair = ratfun_reduce(poly(2, 2), poly(2))
        assert pair.numerator == poly(1, 1)
        assert pair.denominator == Polynomial.one()

    def test_f4_partial_fraction_degrees(self):
        pair = excess.f_as_ratfun(4)
        assert pair.numerator.degree == 2
        assert pair.denominator.degree == 4

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ratfun_reduce(poly(1), Polynomial.zero())

    def test_produced_pairs_are_coprime(self):
        for d in range(3, 12):
            pair = excess.f_as_ratfun(d)
            assert poly_gcd(pair.numerator, pair.denominator) == Polynomial.one()
            assert pair.denominator.leading_coefficient == 1

    def test_function_value_unchanged(self):
        num = expand_linear_factors([1, 2, 5])
        den = expand_linear_factors([2, 7]) * 3
        pair = ratfun_reduce(num, den)
        for t in (Fraction(1, 3), Fraction(9, 2), Fraction(-4)):
            assert pair.eval(t) == num.eval(t) / den.eval(t)


def sign_scan_count(p, lo, hi):
    """Independent root-count oracle: sign-change scan refined until stable."""
    n = 10 * max(p.degree, 1)
    counts = []
    while True:
        pts = []
        for i in range(n + 1):
            t = lo + (hi - lo) * Fraction(i, n)
            while p.eval(t) == 0:
                t += (hi - lo) / (1000003 * n)
            pts.append(t)
        signs = [rational_sign(p.eval(t)) for t in pts]
        counts.append(sum(1 for a, b in zip(signs, signs[1:]) if a != b))
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            return counts[-1]
        n *= 2


class TestSturmCount:
    def test_sqrt2(self):
        assert sturm_count(poly(-2, 0, 1), 0, 2) == 1

    def test_no_real_roots(self):
        assert sturm_count(poly(1, 0, 1), -10, 10) == 0

    def test_f6_numerator_unique_positive_zero(self):
        p = excess.f_as_ratfun(6).numerator
        assert sturm_count(p, -1, 10**6) == 1

    def test_endpoint_root_raises(self):
        with pytest.raises(EndpointRootError):
            sturm_count(poly(-4, 0, 1), 2, 5)

    def test_multiple_root_counted_once(self):
        p = expand_linear_factors([-1, -1, -3])  # roots 1 (double), 3
        assert sturm_count(p, 0, 4) == 2

    def test_against_sign_scan_oracle(self):
        rng = random.Random(20240814)
        for _ in range(40):
            n_roots = rng.randint(1, 6)
            roots = []
            while len(roots) < n_roots:
                r = Fraction(rng.randint(-12, 12), rng.choice([1, 2]))
                if r not in roots:
                    roots.append(r)
            p = expand_linear_factors(roots)
            lo, hi = Fraction(-15), Fraction(15)
            while p.eval(lo) == 0:
                lo -= 1
            while p.eval(hi) == 0:
                hi += 1
            assert sturm_count(p, lo, hi) == sign_scan_count(p, lo, hi)


class TestBisectRoot:
    def test_sqrt2_bracket(self):
        p = poly(-2, 0, 1)
        bracket = isolate_unique_root(p, 1, 2)
        narrowed = bisect_root(p.eval, bracket, Fraction(1, 1024))
        assert narrowed.width <= Fraction(1, 1024)
        assert narrowed.lower**2 < 2 < narrowed.upper**2

    def test_f4_numerator_bracket_in_unit_interval(self):
        p = excess.f_as_ratfun(4).numerator
        bracket = isolate_unique_root(p, -1, 10)
        narrowed = bisect_root(p.eval, bracket, Fraction(1, 10**6))
        assert Fraction(-1) < narrowed.lower < narrowed.upper < Fraction(0)

    def test_f6_numerator_bracket_in_stated_window(self):
        p = excess.f_as_ratfun(6).numerator
        bracket = isolate_unique_root(p, Fraction(-2, 3), Fraction(7, 3))
        narrowed = bisect_root(p.eval, bracket, Fraction(1, 10**6))
        assert Fraction(-2, 3) < narrowed.lower < narrowed.upper < Fraction(7, 3)

    def test_preserves_sturm_count(self):
        p = excess.f_as_ratfun(8).numerator
        bracket = isolate_unique_root(p, -1, 10**6)
        narrowed = bisect_root(p.eval, bracket, Fraction(1, 4096))
        assert sturm_count(p, narrowed.lower, narrowed.upper) == 1

    def test_exact_rational_root_midpoint(self):
        p = expand_linear_factors([Fraction(-1, 2)]) * poly(1, 0, 1)
        bracket = isolate_unique_root(p, 0, 1)
        narrowed = bisect_root(p.eval, bracket, Fraction(1, 64))
        assert narrowed.lower < Fraction(1, 2) < narrowed.upper
        assert narrowed.width <= Fraction(1, 64)

    def test_bracket_invariants(self):
        with pytest.raises(ValueError):
            RootBracket(Fraction(1), Fraction(0), 1, -1)
        with pytest.raises(ValueError):
            RootBracket(Fraction(0), Fraction(1), 1, 1)

    def test_isolate_rejects_wrong_count(self):
        with pytest.raises(CertificationError):
            isolate_unique_root(poly(2, -3, 1), 0, 3)  # roots 1 and 2
