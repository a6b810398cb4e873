"""Exact arithmetic core: polynomials, gcd reduction, root counting, bisection.

Differential tests against sympy, with hypothesis-drawn inputs, live in
test_exact_oracles.py; the sign filter is held to integer Horner here.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulomb_sharp import exact, excess
from coulomb_sharp.exact import (
    MAX_DECIMAL_EXPONENT,
    CertificationError,
    EndpointRootError,
    Polynomial,
    RationalFunctionPair,
    RootBracket,
    bisect_root,
    expand_linear_factors,
    isolate_unique_root,
    parse_rational,
    poly_gcd,
    ratfun_reduce,
    rational_sign,
    sign_function,
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


class TestSlottedTypes:
    """Polynomial, RationalFunctionPair and RootBracket: checked when built, compared by value, not tuples."""

    @pytest.mark.parametrize(
        "lower, upper, sign_at_lower, sign_at_upper",
        [(0, 0, 1, -1), (1, 0, -1, 1), (0, 1, 0, -1), (0, 1, -1, 2), (0, 1, -1, -1)],
    )
    def test_root_bracket_rejects_bad_arguments(self, lower, upper, sign_at_lower, sign_at_upper):
        with pytest.raises(ValueError):
            RootBracket(Fraction(lower), Fraction(upper), sign_at_lower, sign_at_upper)

    def test_ratfun_pair_rejects_bad_denominators(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunctionPair(poly(1), Polynomial.zero())
        with pytest.raises(ValueError, match="monic"):
            RationalFunctionPair(poly(1), poly(1, 2))

    def test_one_differing_field_compares_unequal(self):
        p = poly(1, 2)
        assert p != poly(1, 3) and p != -p
        assert p != (p.primitive, p.content)
        pair = ratfun_reduce(poly(1), poly(1, 1))
        assert pair != RationalFunctionPair(poly(2), pair.denominator)
        assert pair != RationalFunctionPair(poly(1), poly(2, 1))
        bracket = RootBracket(Fraction(0), Fraction(1), 1, -1)
        assert bracket != RootBracket(Fraction(0), Fraction(1), -1, 1)
        assert bracket != RootBracket(Fraction(0), Fraction(2), 1, -1)

    def test_scalar_times_polynomial_scales_it(self):
        assert 3 * poly(1, 2) == poly(1, 2) * 3 == poly(3, 6)

    def test_repr_names_each_field(self):
        assert repr(poly(1, 2)) == "Polynomial(primitive=(1, 2), content=Fraction(1, 1))"
        assert repr(RootBracket(Fraction(0), Fraction(1), 1, -1)) == (
            "RootBracket(lower=Fraction(0, 1), upper=Fraction(1, 1), sign_at_lower=1, sign_at_upper=-1)"
        )
        assert repr(ratfun_reduce(poly(2), poly(1))) == (
            "RationalFunctionPair(numerator=Polynomial(primitive=(1,), content=Fraction(2, 1)), "
            "denominator=Polynomial(primitive=(1,), content=Fraction(1, 1)))"
        )

    @pytest.mark.parametrize(
        "rebuild",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=("copy", "deepcopy", "pickle"),
    )
    def test_copies_and_pickles_rebuild_an_equal_value(self, rebuild):
        bracket = RootBracket(Fraction(0), Fraction(1), 1, -1)
        for value in (poly(1, Fraction(1, 2)), ratfun_reduce(poly(1), poly(1, 1)), bracket):
            assert rebuild(value) == value


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


def fraction_bisection(value_at, bracket, width):
    """The bisection in Fractions: halve while the bracket is wider than width; the calls made, and the bracket."""
    calls, lo, hi = [], bracket.lower, bracket.upper
    while hi - lo > width:
        mid = (lo + hi) / 2
        calls.append(mid)
        sign = rational_sign(value_at(mid))
        if sign == 0:
            delta = min(width, hi - mid, mid - lo) / 2
            calls += [mid - delta, mid + delta]
            return calls, (mid - delta, mid + delta)
        if sign == bracket.sign_at_lower:
            lo = mid
        else:
            hi = mid
    return calls, (lo, hi)


class TestIntegerBisection:
    """bisect_root walks integer numerators and must give the brackets and calls of the Fraction bisection."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-50, 50),
        st.integers(1, 64),
        st.integers(1, 40),
        st.integers(1, 64),
        st.fractions(min_value=Fraction(1, 2**70), max_value=Fraction(100)),
        st.integers(0, 3),
    )
    @example(0, 1, 1, 1, Fraction(1, 64), 0)  # the root 1/2 sits on the first midpoint
    def test_matches_fraction_bisection(self, lo_num, lo_den, span, span_den, width, shift):
        lo = Fraction(lo_num, lo_den)
        hi = lo + Fraction(span, span_den)
        # A root on a dyadic point of the bracket for shift > 0, else at its exact middle.
        root = lo + (hi - lo) * Fraction(2 * shift + 1, 2 ** (shift + 1)) if shift else (lo + hi) / 2
        p = poly(-root, 1) * poly(3, 0, 1)
        bracket = RootBracket(lo, hi, -1, 1)
        seen = []
        narrowed = bisect_root(lambda t: seen.append(t) or p.eval(t), bracket, width)
        calls, (ref_lo, ref_hi) = fraction_bisection(p.eval, bracket, width)
        assert seen == calls
        assert (narrowed.lower, narrowed.upper) == (ref_lo, ref_hi)
        assert all(type(t) is Fraction for t in seen)

    def test_width_at_least_the_bracket_makes_no_call(self):
        p = poly(-2, 0, 1)
        bracket = RootBracket(Fraction(1), Fraction(2), -1, 1)
        assert bisect_root(lambda t: pytest.fail("no call expected"), bracket, Fraction(1)) == bracket


def with_rational_roots(coeffs, roots):
    """The polynomial of coeffs times (q t - p) for each root p/q."""
    p = poly(*coeffs)
    for root in roots:
        p = p * poly(-root.numerator, root.denominator)
    return p


def exact_sign(p, t):
    v = exact._eval_int_sign(exact._signed_primitive(p), t.numerator, t.denominator)
    return (v > 0) - (v < 0)


@st.composite
def signed_polynomials(draw):
    """Integer polynomials of degree 0..100 with coefficients up to 2**1100, times up to three factors q t - p."""
    bits = draw(st.sampled_from([4, 30, 60, 200, 1000, 1100]))
    degree = draw(st.integers(0, 100))
    coeffs = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=degree + 1, max_size=degree + 1))
    coeffs[-1] = coeffs[-1] or 1
    roots = draw(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=2**20), max_size=3))
    return with_rational_roots(coeffs, roots), roots


@st.composite
def points(draw, roots):
    """A root, a point within 2**-60 of one, a negative point, a point with |t| < 1, 0, or any rational."""
    kind = draw(st.sampled_from(["root", "near", "negative", "small", "zero", "any"]))
    if roots and kind in ("root", "near"):
        root = draw(st.sampled_from(roots))
        if kind == "root":
            return root
        return root + Fraction(draw(st.integers(-(2**20), 2**20)), 2 ** draw(st.integers(60, 90)))
    if kind == "negative":
        return -draw(st.fractions(min_value=0, max_value=10**6, max_denominator=2**40))
    if kind == "small":
        return draw(st.fractions(min_value=-1, max_value=1, max_denominator=2**70))
    if kind == "zero":
        return Fraction(0)
    return draw(st.fractions(max_denominator=2**64))


class TestSignFilter:
    """sign_function decides in doubles only what its proven bound allows, and integer Horner the rest."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_filtered_sign_is_the_integer_sign(self, data):
        p, roots = data.draw(signed_polynomials())
        sign = sign_function(p)
        for _ in range(4):
            t = data.draw(points(roots))
            assert sign(t) == exact_sign(p, t), t

    def test_every_rational_root_reads_zero(self):
        p = with_rational_roots([7, -3, 0, 1], [Fraction(3, 2), Fraction(-5, 7), Fraction(1000001, 999)])
        sign = sign_function(p)
        for root in (Fraction(3, 2), Fraction(-5, 7), Fraction(1000001, 999)):
            assert sign(root) == 0

    @staticmethod
    def count_integer_signs(monkeypatch):
        calls = []
        horner = exact._eval_int_sign
        monkeypatch.setattr(exact, "_eval_int_sign", lambda *args: calls.append(args) or horner(*args))
        return calls

    def test_doubles_decide_away_from_roots(self, monkeypatch):
        p = with_rational_roots([1, 0, 1], [Fraction(3, 2), Fraction(-5, 7)])
        sign = sign_function(p)
        calls = self.count_integer_signs(monkeypatch)
        assert [sign(Fraction(t)) for t in (-3, -1, 1, 2, 10**6, Fraction(-10**20, 3))] == [1, 1, -1, 1, 1, 1]
        assert calls == []

    @pytest.mark.parametrize(
        "t",
        [Fraction(3, 2) + Fraction(1, 2**60), Fraction(1, 2), Fraction(0), Fraction(-1, 3), Fraction(10**400, 3)],
        ids=("near-root", "below-one", "zero", "negative-below-one", "beyond-double"),
    )
    def test_integers_decide_what_the_doubles_cannot(self, monkeypatch, t):
        p = with_rational_roots([1, 0, 1], [Fraction(3, 2)])
        sign = sign_function(p)
        calls = self.count_integer_signs(monkeypatch)
        assert sign(t) == exact_sign(p, t)
        assert len(calls) == 2  # the sign function's, then the test's own

    def test_overflowing_coefficient_builds_no_filter(self, monkeypatch):
        p = poly(2**1100 + 1, -3, 1)
        sign = sign_function(p)
        calls = self.count_integer_signs(monkeypatch)
        assert sign(Fraction(5)) == 1
        assert len(calls) == 1

    def test_bound_overflow_falls_through(self, monkeypatch):
        # Five coefficients near 2**1022.  At t = 9/8 the leading term stays
        # below 2**1023, inside the reach, but the bound's sum overflows; at t = 7
        # the filter is not tried.
        p = poly(2**1022 + 1, *[2**1022] * 4)
        sign = sign_function(p)
        calls = self.count_integer_signs(monkeypatch)
        assert sign(Fraction(9, 8)) == 1
        assert sign(Fraction(7)) == 1
        assert len(calls) == 2
