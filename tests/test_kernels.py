"""Differential tests of the integer kernels behind the figures and the verifier.

q_int, r_int, f_int, riesz_mean_order1_int, d3_envelope_terms_int,
big_g_squared_int and lt_rhs_order_int take a point as an integer pair
(numerator, denominator > 0), not necessarily reduced, and return each value
as an unreduced integer pair.  Each is checked here against a Fraction
computation written from the definition, sharing no code with the kernel, on
hypothesis-drawn points: unreduced pairs, integer tau (the thresholds of the
count), odd and even integer eta, and points next to the poles.  The order-1
mean at d = 3 is also checked against the paper's closed form, and the
integer-order right-hand side against sympy's Gamma function.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coulomb_sharp import cli, excess, phase_space, spectrum  # noqa: E402

dimensions = st.integers(3, 10)
multipliers = st.integers(1, 60)
general = st.fractions(min_value=-30, max_value=60, max_denominator=10**6)
positive = st.fractions(min_value=0, max_value=60, max_denominator=10**6).filter(lambda x: x > 0)


def near(points):
    """A point within 1/m of one of the given points, m up to 10**9 (the point itself included)."""
    return st.builds(
        lambda x, m, side: x + Fraction(side, m),
        st.sampled_from(points),
        st.integers(1, 10**9),
        st.sampled_from([-1, 0, 1]),
    )


def unreduced(x, k):
    return x.numerator * k, x.denominator * k


def multiplicity(d, j):
    """Degeneracy of the j-th level: C(j+d-2, d-2) (2j+d-1)/(d-1)."""
    return Fraction(math.comb(j + d - 2, d - 2) * (2 * j + d - 1), d - 1)


def negative_levels(d, eta):
    """Indices j of the negative levels 1 - eta**2/(2j+d-1)**2 < 0."""
    j = 0
    while 2 * j + d - 1 < eta:
        yield j
        j += 1


def q_oracle(d, t):
    value = t + Fraction(d, 2)
    for j in range(1, d):
        value *= t + j
    return value / (t + Fraction(d - 1, 2)) ** d


def f_oracle(d, t):
    return 1 / (t + Fraction(d, 2)) - d / (t + Fraction(d - 1, 2)) + sum(Fraction(1) / (t + k) for k in range(1, d))


def r_oracle(d, eta):
    count = sum(multiplicity(d, j) for j in negative_levels(d, eta))
    return count / (eta**d / (2 ** (d - 1) * math.factorial(d)))


def trace_oracle(d, eta):
    """Order-1 Riesz mean: sum of mu_j (eta^2/(2j+d-1)^2 - 1) over the negative levels."""
    return sum(multiplicity(d, j) * (eta**2 / (2 * j + d - 1) ** 2 - 1) for j in negative_levels(d, eta))


def trace_d3_closed_form(eta):
    """The paper's d = 3 order-1 mean: (l+1) eta^2/4 - (l+1)(l+2)(2l+3)/6, l the top level (-1 if none)."""
    ell = len(list(negative_levels(3, eta))) - 1
    return (ell + 1) * eta**2 / 4 - Fraction((ell + 1) * (ell + 2) * (2 * ell + 3), 6)


@functools.lru_cache(maxsize=None)
def gamma_ratio_sympy(d, g):
    """Gamma(g+1) Gamma(d/2-g) / (Gamma(d+1) Gamma(d/2)), exactly by sympy."""
    sympy = pytest.importorskip("sympy")
    half = sympy.Rational(d, 2)
    return sympy.gamma(g + 1) * sympy.gamma(half - g) / (sympy.gamma(d + 1) * sympy.gamma(half))


def big_g_squared_oracle(d, t):
    """G^2 = P(t)^2 bracket^d ((t + d/2)(t + d - 1))^(2-d), P = (t+1)...(t+d-2)."""
    pochhammer = Fraction(1)
    for k in range(1, d - 1):
        pochhammer *= t + k
    bracket = 1 + (d - 3) / (2 * t + d - 1) + 1 / (2 * (t + d - 2))
    return pochhammer**2 * bracket**d / ((t + Fraction(d, 2)) * (t + d - 1)) ** (d - 2)


def reference_render(x):
    """The renderer as it was before the pair form: a fresh 15-digit context per value."""
    if x == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = cli.DECIMAL_SIGNIFICANT_DIGITS
        return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


@st.composite
def q_points(draw):
    d = draw(dimensions)
    pole = Fraction(1 - d, 2)
    t = draw(st.one_of(general, near([pole, Fraction(-d, 2), Fraction(-1), Fraction(0)])))
    return d, t


@st.composite
def f_points(draw):
    d = draw(dimensions)
    poles = [Fraction(-d, 2), Fraction(1 - d, 2)] + [Fraction(-k) for k in range(1, d)]
    return d, draw(st.one_of(general, near(poles)))


@st.composite
def eta_points(draw, d_values=dimensions):
    """eta > 0: general, integer tau (eta = 2 tau + d - 1), odd and even integers, and their neighbours."""
    d = draw(d_values)
    tau = draw(st.integers(0, 25))
    integer = draw(st.integers(1, 60))
    eta = draw(
        st.one_of(
            positive,
            st.just(Fraction(2 * tau + d - 1)),
            st.just(Fraction(2 * (integer // 2) + 1)),
            st.just(Fraction(2 * (integer // 2) + 2)),
            near([Fraction(2 * tau + d - 1), Fraction(integer)]).filter(lambda x: x > 0),
        )
    )
    return d, eta


class TestQKernel:
    @settings(max_examples=300, deadline=None)
    @given(q_points(), multipliers)
    def test_matches_product_form(self, point, k):
        d, t = point
        if t == Fraction(1 - d, 2):
            with pytest.raises(ValueError, match="pole"):
                excess.q_int(d, *unreduced(t, k))
            return
        expected = q_oracle(d, t)
        assert Fraction(*excess.q_int(d, *unreduced(t, k))) == expected
        assert excess.q_eval(d, t) == expected


class TestRKernel:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(), multipliers)
    def test_matches_count_over_clr_bound(self, point, k):
        d, eta = point
        expected = r_oracle(d, eta)
        assert Fraction(*excess.r_int(d, *unreduced(eta, k))) == expected
        assert excess.r_eval(d, eta) == expected

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_eta_rejected(self, n):
        with pytest.raises(ValueError, match="eta must be positive"):
            excess.r_int(5, n, 7)


class TestFKernel:
    @settings(max_examples=300, deadline=None)
    @given(f_points(), multipliers)
    def test_matches_partial_fractions(self, point, k):
        d, t = point
        poles = {Fraction(-d, 2), Fraction(1 - d, 2)} | {Fraction(-j) for j in range(1, d)}
        if t in poles:
            with pytest.raises(ValueError, match="pole"):
                excess.f_int(d, *unreduced(t, k))
            return
        expected = f_oracle(d, t)
        assert Fraction(*excess.f_int(d, *unreduced(t, k))) == expected
        assert excess.f_eval(d, t) == expected


class TestTraceD3Kernel:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(st.just(3)), multipliers)
    def test_matches_level_sum(self, point, k):
        _, eta = point
        expected = trace_oracle(3, eta)
        assert trace_d3_closed_form(eta) == expected
        assert Fraction(*spectrum.riesz_mean_order1_int(3, *unreduced(eta, k))) == expected


class TestOrder1TraceKernel:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(), multipliers)
    def test_matches_level_sum(self, point, k):
        d, eta = point
        pair = spectrum.riesz_mean_order1_int(d, *unreduced(eta, k))
        assert pair[1] > 0
        expected = trace_oracle(d, eta)
        assert Fraction(*pair) == expected
        assert spectrum.riesz_mean(spectrum.SpectrumParams(d, eta), 1) == expected


class TestBigGSquaredKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(4, 12),
        st.one_of(st.just(Fraction(0)), st.integers(0, 200).map(Fraction), positive),
        multipliers,
    )
    def test_matches_product_form(self, d, t, k):
        expected = big_g_squared_oracle(d, t)
        assert Fraction(*excess.big_g_squared_int(d, *unreduced(t, k))) == expected

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="t >= 0"):
            excess.big_g_squared_int(5, -1, 3)


class TestOrder1RightHandSide:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(st.integers(3, 40)), multipliers)
    def test_cached_gamma_ratio_matches_closed_form(self, point, k):
        d, eta = point
        expected = eta**d / (2 ** (d - 2) * math.factorial(d) * (d - 2))
        assert phase_space.lt_rhs(d, eta, 1) == expected
        assert Fraction(*phase_space.lt_rhs_order_int(d, *unreduced(eta, k), 1)) == expected


class TestIntegerOrderRightHandSide:
    @settings(max_examples=30, deadline=None)
    @given(positive, multipliers)
    def test_matches_sympy_gamma(self, eta, k):
        sympy = pytest.importorskip("sympy")
        for d in range(3, 41):
            power = sympy.Rational(eta.numerator, eta.denominator) ** d / 2 ** (d - 1)
            for g in range((d + 1) // 2):
                pair = phase_space.lt_rhs_order_int(d, *unreduced(eta, k), g)
                assert sympy.Rational(*pair) == power * gamma_ratio_sympy(d, g)
                if g == 0:
                    assert Fraction(*pair) == eta**d / (2 ** (d - 1) * math.factorial(d))

    def test_divergent_order_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            phase_space.lt_rhs_order_int(6, 1, 1, 3)


class TestD3EnvelopeTerms:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(st.just(3)), multipliers)
    def test_matches_definitions_and_encloses_the_trace(self, point, k):
        _, eta = point
        lead, lower, upper = (Fraction(*pair) for pair in spectrum.d3_envelope_terms_int(*unreduced(eta, k)))
        assert lead == eta**3 / 12 - eta**2 / 8
        assert lower == -eta / 12
        assert upper == Fraction(2 * math.ceil(eta / 2) - 1, 24)
        trace = trace_oracle(3, eta)
        assert max(0, lead + lower) <= trace <= max(0, lead + upper)
        if eta.denominator == 1 and eta > 2:
            assert trace == lead + (upper if eta.numerator % 2 else lower)


class TestRenderRatio:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(max_denominator=10**12), st.integers(-10**6, 10**6).filter(bool))
    def test_unreduced_pair_renders_as_its_value(self, x, k):
        # k < 0 gives a negative denominator, as a pole-side kernel pair can.
        assert cli.render_ratio(x.numerator * k, x.denominator * k) == reference_render(x)
        assert cli.render_decimal(x) == reference_render(x)
