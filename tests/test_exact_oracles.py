"""Differential tests of the exact kernel against independent oracles.

sympy (root counts, real roots) and hypothesis (random inputs) are test-only
dependencies, declared in the ``test`` extra; the package never imports
them, and this module is skipped when either is missing.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coulomb_sharp import excess  # noqa: E402
from coulomb_sharp.exact import (  # noqa: E402
    CertificationError,
    EndpointRootError,
    Polynomial,
    _descartes_variations,
    _signed_primitive,
    _sturm_chain,
    bisect_root,
    descartes_count,
    expand_linear_factors,
    isolate_unique_root,
    log_derivative,
    poly_gcd,
    ratfun_reduce,
    rational_sign,
    sturm_count,
)


def poly(*coeffs):
    """Low-to-high coefficient shorthand."""
    return Polynomial.from_coefficients(coeffs)


small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
int_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=9).filter(lambda c: c[-1] != 0)


def sympy_poly(p):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coefficients)], x)


def variations(p, lo, hi=None):
    """The raw Descartes bound, before any subdivision."""
    hi = None if hi is None else Fraction(hi)
    primitive = _signed_primitive(Polynomial.from_coefficients(p.coefficients))
    return _descartes_variations(primitive, Fraction(lo), hi)


def has_multiple_root_in(p, lo, hi=None):
    roots = sympy_poly(p).real_roots()  # each root listed as often as its multiplicity
    inside = [r for r in roots if r > lo and (hi is None or r < hi)]
    return len(inside) != len(set(inside))


class TestDescartes:
    @settings(max_examples=150, deadline=None)
    @given(int_polys, small_rationals, small_rationals)
    def test_count_is_exact_and_certifies_only_single_roots(self, coeffs, a, b):
        assume(a != b)
        lo, hi = min(a, b), max(a, b)
        p = poly(*coeffs)
        assume(p.eval(lo) != 0 and p.eval(hi) != 0)
        if has_multiple_root_in(p, lo, hi):
            with pytest.raises(CertificationError):
                descartes_count(p, lo, hi)
            return
        true_count = sympy_poly(p).count_roots(lo, hi)
        assert descartes_count(p, lo, hi) == sturm_count(p, lo, hi) == true_count
        bound = variations(p, lo, hi)
        assert bound >= true_count and (bound - true_count) % 2 == 0
        if true_count == 1:
            bracket = isolate_unique_root(p, lo, hi)
            assert rational_sign(p.eval(lo)) == bracket.sign_at_lower != bracket.sign_at_upper
        else:
            with pytest.raises(CertificationError):
                isolate_unique_root(p, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(int_polys, small_rationals)
    def test_half_line_count_is_exact(self, coeffs, lo):
        p = poly(*coeffs)
        assume(p.eval(lo) != 0)
        if has_multiple_root_in(p, lo):
            with pytest.raises(CertificationError):
                descartes_count(p, lo)
            return
        true_count = sum(1 for r in sympy_poly(p).real_roots() if r > lo)
        assert descartes_count(p, lo) == true_count

    def test_far_roots_on_half_line(self):
        # Roots 3, 1000 and 2**40 + 1: the split point doubles out to them.
        p = expand_linear_factors([-3, -1000, -(2**40 + 1)])
        assert variations(p, 0) == 3
        assert descartes_count(p, 0) == 3
        assert descartes_count(p, 4) == 2

    def test_complex_pair_beside_root_is_split_off(self):
        # One real root 2/5 in (0, 1) and the pair 2/5 +- i/10 close to it:
        # the bound is 3, and halving separates the real root from the pair.
        p = poly(-2, 5) * poly(17, -80, 100)
        assert variations(p, 0, 1) == 3
        assert descartes_count(p, 0, 1) == sturm_count(p, 0, 1) == 1
        bracket = bisect_root(p.eval, isolate_unique_root(p, 0, 1), Fraction(1, 1024))
        assert bracket.lower < Fraction(2, 5) < bracket.upper

    def test_complex_pair_alone_never_certifies(self):
        # 1/2 +- i/10 and no real root: the bound is 2, the count 0.
        p = poly(26, -100, 100)
        assert variations(p, 0, 1) == 2
        assert descartes_count(p, 0, 1) == 0
        with pytest.raises(CertificationError, match="Descartes count is 0"):
            isolate_unique_root(p, 0, 1)

    def test_three_roots_never_certify(self):
        p = expand_linear_factors([Fraction(-1, 4), Fraction(-1, 3), Fraction(-5, 7)])
        with pytest.raises(CertificationError, match="Descartes count is 3"):
            isolate_unique_root(p, 0, 1)

    def test_multiple_root_raises(self):
        with pytest.raises(CertificationError, match="multiple root at 1/2"):
            descartes_count(poly(1, -4, 4), 0, 1)  # (2x - 1)**2, split at its root
        with pytest.raises(CertificationError, match="not separated"):
            descartes_count(poly(1, -6, 9), 0, 1)  # (3x - 1)**2, never a split point

    def test_endpoint_root_raises(self):
        with pytest.raises(EndpointRootError):
            isolate_unique_root(poly(-4, 0, 1), 2, 5)
        with pytest.raises(EndpointRootError):
            descartes_count(poly(-4, 0, 1), -2)


def multiplied_linear_factors(roots):
    """Reference: prod (t + r) by Polynomial multiplication, one factor at a time."""
    product = Polynomial.one()
    for r in roots:
        product = product * poly(r, 1)
    return product


def pochhammer_loop(m, t):
    """Reference: (t+1)(t+2)...(t+m) as a Fraction loop."""
    value = Fraction(1)
    for k in range(1, m + 1):
        value *= t + k
    return value


roots_with_repeats = st.lists(small_rationals, min_size=1, max_size=4).flatmap(
    lambda base: st.lists(st.sampled_from(base), min_size=1, max_size=8)
)


class TestIntegerProducts:
    @settings(max_examples=200, deadline=None)
    @given(roots_with_repeats)
    def test_linear_factors_match_multiplication(self, roots):
        assert expand_linear_factors(roots) == multiplied_linear_factors(roots)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 40),
        st.one_of(
            st.builds(Fraction, st.integers(-500, 500), st.integers(1, 40)),
            st.integers(-45, 0).map(Fraction),
        ),
    )
    def test_pochhammer_matches_loop(self, m, t):
        assert excess.pochhammer_eval(m, t) == pochhammer_loop(m, t)


def unmerged_partial_fraction_sum(terms):
    """Reference: sum over the product of every listed factor, then gcd-reduce."""
    common = multiplied_linear_factors([r for _, r in terms])
    num = Polynomial.zero()
    for c, r in terms:
        cofactor, rest = common.divmod(poly(r, 1))
        assert rest.is_zero
        num = num + cofactor * c
    return ratfun_reduce(num, common)


class TestPartialFractionSum:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(small_rationals, small_rationals), min_size=1, max_size=7),
        st.lists(st.integers(0, 6), max_size=3),
    )
    def test_matches_gcd_reduction_of_unmerged_sum(self, terms, cancelled):
        # Repeat some roots with the opposite coefficient so merged terms cancel to 0.
        terms = terms + [(-terms[i % len(terms)][0], terms[i % len(terms)][1]) for i in cancelled]
        assert excess.partial_fraction_sum(terms) == unmerged_partial_fraction_sum(terms)

    def test_named_functions_match_gcd_reduction(self):
        for d in range(5, 16, 2):
            for a in (Fraction(1, 2), excess.squeeze_coefficient(d), Fraction(0), Fraction(1)):
                terms = excess.h_a_terms(d, a)
                assert excess.partial_fraction_sum(terms) == unmerged_partial_fraction_sum(terms)
            terms = excess.g_shifted_terms(d)
            assert excess.partial_fraction_sum(terms) == unmerged_partial_fraction_sum(terms)
        for d in range(3, 16):
            for terms in (excess.f_terms(d), excess.g_terms(d)):
                assert excess.partial_fraction_sum(terms) == unmerged_partial_fraction_sum(terms)


def fraction_prem_primitive(a, b):
    """Reference: remainder of a modulo b in Fractions, then the primitive image."""
    rem = [Fraction(c) for c in a]
    while rem and len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for i, bc in enumerate(b):
            rem[shift + i] -= c * bc
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return _signed_primitive(Polynomial.from_coefficients(rem))


def fraction_sturm_chain(p):
    chain = [_signed_primitive(Polynomial.from_coefficients(q.coefficients)) for q in (p, p.derivative())]
    while True:
        rem = fraction_prem_primitive(chain[-2], chain[-1])
        if not rem:
            return tuple(tuple(c) for c in chain)
        chain.append([-v for v in rem])


class TestIntegerPseudoRemainder:
    @settings(max_examples=200, deadline=None)
    @given(int_polys, int_polys)
    def test_matches_fraction_remainder(self, a, b):
        a, b = (a, b) if len(a) >= len(b) else (b, a)
        remainder = poly(*a).divmod(poly(*b))[1]
        assert _signed_primitive(Polynomial.from_coefficients(remainder.coefficients)) == fraction_prem_primitive(a, b)

    def test_sturm_chains_match_fraction_reference(self):
        for d in range(4, 25):
            p = excess.f_as_ratfun(d).numerator
            assert _sturm_chain(p) == fraction_sturm_chain(p)


# -- Polynomial arithmetic against sympy over QQ ---------------------------------

X = sympy.Symbol("x")
wide_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
nonzero_rationals = wide_rationals.filter(bool)
rational_polys = st.lists(st.one_of(small_rationals, wide_rationals), max_size=7).map(Polynomial.from_coefficients)
nonzero_polys = rational_polys.filter(lambda p: not p.is_zero)


def qq(p):
    """p as a sympy Poly over QQ (the zero polynomial included)."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coefficients)] or [0], X, domain=sympy.QQ)


def fractions_of(s):
    """Coefficients of a sympy Poly, lowest degree first, with no trailing zeros."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(s.all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def assert_same(p, s):
    assert list(p.coefficients) == fractions_of(s)


def assert_reduced_pair(pair, num, den):
    """pair is num/den over sympy's gcd, with the denominator made monic."""
    g = sympy.gcd(num, den)
    num, den = num.exquo(g), den.exquo(g)
    lead = den.LC()
    assert_same(pair.numerator, num.quo_ground(lead))
    assert_same(pair.denominator, den.quo_ground(lead))


class TestPolynomialArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(rational_polys, rational_polys, wide_rationals)
    def test_ring_operations_match_sympy(self, a, b, c):
        assert_same(a * b, qq(a) * qq(b))
        assert_same(a + b, qq(a) + qq(b))
        assert_same(a - b, qq(a) - qq(b))
        assert_same(a * c, qq(a) * sympy.Rational(c.numerator, c.denominator))
        assert_same(a.derivative(), qq(a).diff(X))
        if not a.is_zero:
            assert_same(a.monic(), qq(a).monic())
            assert a.leading_coefficient == fractions_of(qq(a))[-1]

    @settings(max_examples=150, deadline=None)
    @given(rational_polys, nonzero_polys)
    def test_divmod_matches_sympy(self, a, b):
        quotient, remainder = a.divmod(b)
        expected_q, expected_r = sympy.div(qq(a), qq(b))
        assert_same(quotient, expected_q)
        assert_same(remainder, expected_r)

    @settings(max_examples=150, deadline=None)
    @given(rational_polys, rational_polys, nonzero_polys)
    def test_gcd_matches_sympy(self, a, b, common):
        # A shared factor makes most drawn pairs have a gcd of positive degree.
        a, b = a * common, b * common
        assume(not (a.is_zero and b.is_zero))
        assert_same(poly_gcd(a, b), sympy.gcd(qq(a), qq(b)).monic())

    @settings(max_examples=150, deadline=None)
    @given(rational_polys, nonzero_polys, nonzero_polys)
    def test_ratfun_reduce_matches_sympy(self, num, den, common):
        num, den = num * common, den * common
        assert_reduced_pair(ratfun_reduce(num, den), qq(num), qq(den))

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_log_derivative_matches_sympy(self, num, den, common):
        pair = ratfun_reduce(num * common, den * common)
        n, d = qq(pair.numerator), qq(pair.denominator)
        assert_reduced_pair(log_derivative(pair), n.diff(X) * d - n * d.diff(X), n * d)

    @settings(max_examples=150, deadline=None)
    @given(rational_polys, nonzero_rationals, nonzero_rationals)
    def test_equality_and_hash_ignore_how_a_polynomial_is_scaled(self, p, c, e):
        scaled = [Polynomial.from_coefficients(x * c for x in p.coefficients) * (1 / c), (p * c) * (1 / c), c * p * (1 / c)]
        for q in scaled + [(p + poly(e)) - poly(e), Polynomial.from_coefficients(list(p.coefficients) + [0, 0])]:
            assert q == p and hash(q) == hash(p)
        assert p + poly(e) != p
