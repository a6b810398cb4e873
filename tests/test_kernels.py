"""Differential tests of the integer kernels behind the figures and the verifier.

The column kernels q_ints, r_ints, f_ints, riesz_means_order1_int and
d3_envelope_terms_ints take an increasing range of numerators over one
denominator > 0, not necessarily reduced, and return each value as an
unreduced integer pair; big_g_squared_int and lt_rhs_order_int take one
point as an unreduced (numerator, denominator) pair.  Each is checked here
against a Fraction computation written from the definition, sharing no code
with the kernel, on hypothesis-drawn points, a column kernel on a one-point
column: unreduced pairs, integer tau (the thresholds of the count), odd and
even integer eta, and points next to the poles.  The order-1 mean at d = 3
is also checked against the paper's closed form, and the integer-order
right-hand side against sympy's Gamma function.

The column kernels work out the constants of each threshold run
(spectrum.level_runs) once.  They are also checked against the same oracles
on drawn ranges: empty and single-point ones, ranges that start with an
empty spectrum and cross several thresholds, and steps that do not divide
2 den, so that the runs start and end between thresholds.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
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


def point_column(x, k):
    """The one-point column (range(n, n + 1), den) of the unreduced pair (n, den) = unreduced(x, k)."""
    n, den = unreduced(x, k)
    return range(n, n + 1), den


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
                excess.q_ints(d, *point_column(t, k))
            return
        expected = q_oracle(d, t)
        assert [Fraction(*pair) for pair in excess.q_ints(d, *point_column(t, k))] == [expected]
        assert excess.q_eval(d, t) == expected


class TestRKernel:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(), multipliers)
    def test_matches_count_over_clr_bound(self, point, k):
        d, eta = point
        expected = r_oracle(d, eta)
        assert [Fraction(*pair) for pair in excess.r_ints(d, *point_column(eta, k))] == [expected]
        assert excess.r_eval(d, eta) == expected

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_eta_rejected(self, n):
        with pytest.raises(ValueError, match="eta must be positive"):
            excess.r_ints(5, range(n, n + 1), 7)


class TestFKernel:
    @settings(max_examples=300, deadline=None)
    @given(f_points(), multipliers)
    def test_matches_partial_fractions(self, point, k):
        d, t = point
        poles = {Fraction(-d, 2), Fraction(1 - d, 2)} | {Fraction(-j) for j in range(1, d)}
        if t in poles:
            with pytest.raises(ValueError, match="pole"):
                excess.f_ints(d, *point_column(t, k))
            return
        expected = f_oracle(d, t)
        assert [Fraction(*pair) for pair in excess.f_ints(d, *point_column(t, k))] == [expected]
        assert excess.f_eval(d, t) == expected


class TestTraceD3Kernel:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(st.just(3)), multipliers)
    def test_matches_level_sum(self, point, k):
        _, eta = point
        expected = trace_oracle(3, eta)
        assert trace_d3_closed_form(eta) == expected
        assert [Fraction(*pair) for pair in spectrum.riesz_means_order1_int(3, *point_column(eta, k))] == [expected]


class TestOrder1TraceKernel:
    @settings(max_examples=300, deadline=None)
    @given(eta_points(), multipliers)
    def test_matches_level_sum(self, point, k):
        d, eta = point
        [pair] = spectrum.riesz_means_order1_int(d, *point_column(eta, k))
        assert pair[1] > 0
        expected = trace_oracle(d, eta)
        assert Fraction(*pair) == expected
        assert spectrum.riesz_mean(d, eta, 1) == expected


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
        terms = spectrum.d3_envelope_terms_ints(*point_column(eta, k))
        assert [len(nums) for nums, _ in terms] == [1, 1, 1]
        lead, lower, upper = (Fraction(nums[0], den) for nums, den in terms)
        assert lead == eta**3 / 12 - eta**2 / 8
        assert lower == -eta / 12
        assert upper == Fraction(2 * math.ceil(eta / 2) - 1, 24)
        trace = trace_oracle(3, eta)
        assert max(0, lead + lower) <= trace <= max(0, lead + upper)
        if eta.denominator == 1 and eta > 2:
            assert trace == lead + (upper if eta.numerator % 2 else lower)


@st.composite
def grids(draw, d_values=dimensions, signed=False):
    """(d, ns, den): an increasing range of numerators ns over den, drawn so that the runs of one top level vary.

    The start is often at or below (d - 1) den, an empty spectrum, and the
    level changes every 2 den; steps up to 3 den cross several thresholds per
    range and mostly do not divide 2 den.  signed ranges (for Q and f) start
    from t = -30, among the poles.
    """
    d = draw(d_values)
    den = draw(st.integers(1, 40))
    low = -30 * den if signed else 1
    start = draw(st.one_of(st.integers(max(low, 1), (d - 1) * den), st.integers(low, 20 * den)))
    step = draw(st.integers(1, 3 * den))
    length = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 25)))
    return d, range(start, start + length * step, step), den


def pole_free(ns, den, poles):
    return all(Fraction(n, den) not in poles for n in ns)


class TestColumnKernels:
    @settings(max_examples=200, deadline=None)
    @given(grids())
    @example((3, range(1, 200, 7), 10))  # from an empty spectrum across nine thresholds, 7 not dividing 20
    @example((5, range(9, 9), 2))
    def test_level_runs_cover_the_range_with_maximal_runs(self, grid):
        d, ns, den = grid
        runs = spectrum.level_runs(d, ns, den)
        assert [n for _, run in runs for n in run] == list(ns)
        assert all(run and {spectrum.top_level(d, n, den) for n in run} == {ell} for ell, run in runs)
        assert all(a[0] < b[0] for a, b in zip(runs, runs[1:]))

    @settings(max_examples=200, deadline=None)
    @given(grids())
    @example((3, range(1, 200, 7), 10))
    @example((4, range(37, 38), 12))
    def test_order1_means_match_level_sum(self, grid):
        d, ns, den = grid
        pairs = spectrum.riesz_means_order1_int(d, ns, den)
        assert len(pairs) == len(ns) and all(pair[1] > 0 for pair in pairs)
        assert [Fraction(*pair) for pair in pairs] == [trace_oracle(d, Fraction(n, den)) for n in ns]

    @settings(max_examples=200, deadline=None)
    @given(grids(st.just(3)))
    @example((3, range(1, 200, 7), 10))
    def test_d3_envelope_terms_match_definitions(self, grid):
        _, ns, den = grid
        (leads, lead_den), (lowers, lower_den), (uppers, upper_den) = spectrum.d3_envelope_terms_ints(ns, den)
        etas = [Fraction(n, den) for n in ns]
        assert [Fraction(num, lead_den) for num in leads] == [eta**3 / 12 - eta**2 / 8 for eta in etas]
        assert [Fraction(num, lower_den) for num in lowers] == [-eta / 12 for eta in etas]
        upper_terms = [Fraction(2 * math.ceil(eta / 2) - 1, 24) for eta in etas]
        assert [Fraction(num, upper_den) for num in uppers] == upper_terms

    @settings(max_examples=200, deadline=None)
    @given(grids())
    @example((6, range(1, 400, 13), 20))
    def test_r_column_matches_count_over_clr_bound(self, grid):
        d, ns, den = grid
        assert [Fraction(*pair) for pair in excess.r_ints(d, ns, den)] == [r_oracle(d, Fraction(n, den)) for n in ns]

    @settings(max_examples=200, deadline=None)
    @given(grids(signed=True))
    @example((5, range(-60, 60, 7), 6))
    def test_q_column_matches_product_form(self, grid):
        d, ns, den = grid
        if not pole_free(ns, den, {Fraction(1 - d, 2)}):
            with pytest.raises(ValueError, match="pole"):
                excess.q_ints(d, ns, den)
            return
        assert [Fraction(*pair) for pair in excess.q_ints(d, ns, den)] == [q_oracle(d, Fraction(n, den)) for n in ns]

    @settings(max_examples=200, deadline=None)
    @given(grids(signed=True))
    @example((6, range(-110, 80, 3), 20))
    def test_f_column_matches_partial_fractions(self, grid):
        d, ns, den = grid
        if not pole_free(ns, den, {Fraction(-d, 2), Fraction(1 - d, 2)} | {Fraction(-j) for j in range(1, d)}):
            with pytest.raises(ValueError, match="pole"):
                excess.f_ints(d, ns, den)
            return
        assert [Fraction(*pair) for pair in excess.f_ints(d, ns, den)] == [f_oracle(d, Fraction(n, den)) for n in ns]


def decimal_exponent(v):
    """The e with 10**e <= |v| < 10**(e+1), for a rational v != 0, in integers."""
    v = abs(v)
    e = len(str(v.numerator)) - len(str(v.denominator))
    while Fraction(10) ** e > v:
        e -= 1
    while Fraction(10) ** (e + 1) <= v:
        e += 1
    return e


signs = st.sampled_from([1, -1])
# m * 10**e with 1 <= m <= 10: quotients from 1e-40 to 1e41, far below 1e-6 and at or above 1e15 included
scaled = st.builds(
    lambda m, e, sign: sign * m * Fraction(10) ** e,
    st.fractions(min_value=1, max_value=10, max_denominator=10**12),
    st.integers(-40, 40),
    signs,
)
# short exact quotients: finite decimals of few digits at any scale
exact_short = st.builds(
    lambda n, a, b: Fraction(n, 2**a * 5**b),
    st.integers(-10**4, 10**4).filter(bool),
    st.integers(0, 30),
    st.integers(0, 30),
)
# 16-digit values ending in 5: ties at the 16th digit, a 15-digit run of nines carrying to the next power
ties = st.builds(
    lambda a, e, sign: (sign * (10 * a + 5), e),
    st.one_of(st.just(10**15 - 1), st.just(10**14), st.integers(10**14, 10**15 - 1)),
    st.integers(-30, 30),
    signs,
)


class TestRenderRatio:
    @settings(max_examples=300, deadline=None)
    @given(st.fractions(max_denominator=10**12), st.integers(-10**6, 10**6).filter(bool))
    def test_unreduced_pair_renders_as_its_value(self, x, k):
        # k < 0 gives a negative denominator, as a pole-side kernel pair can.
        assert cli.render_ratio(x.numerator * k, x.denominator * k) == reference_render(x)
        assert cli.render_decimal(x) == reference_render(x)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(scaled, exact_short), st.integers(-10**3, 10**3).filter(bool))
    def test_every_scale_renders_as_its_value(self, x, k):
        text = cli.render_ratio(x.numerator * k, x.denominator * k)
        assert text == reference_render(x)
        assert "E" not in text and "e" not in text

    @settings(max_examples=300, deadline=None)
    @given(ties, st.integers(-50, 50).filter(bool))
    def test_ties_round_half_even(self, tie, k):
        num, e = tie
        x = Fraction(num) * Fraction(10) ** e  # digits a, then a 5 in the 16th place
        a, sign = abs(num) // 10, 1 if num > 0 else -1
        text = cli.render_ratio(x.numerator * k, x.denominator * k)
        assert text == reference_render(x)
        assert Fraction(text) == sign * (a + a % 2) * Fraction(10) ** (e + 1)

    @pytest.mark.parametrize(
        "num, den, text",
        [
            (1, 4, "0.25"),
            (1000, 1, "1000"),
            (-3, -4, "0.75"),
            (3, -4, "-0.75"),
            (1, 10**6, "0.000001"),
            (1, 10**7, "0.0000001"),
            (1, 3 * 10**6, "0.000000333333333333333"),
            (123456789012345, 1, "123456789012345"),
            (10**15, 1, "1000000000000000"),
            (1234567890123456, 1, "1234567890123460"),
            (2 * 10**15 - 1, 2, "1000000000000000"),
            (2 * 10**14 - 1, 2, "99999999999999.5"),
            (20 * 10**14 - 1, 20, "100000000000000"),
            (-(10**20) - 1, 1, "-100000000000000000000"),
        ],
    )
    def test_written_values(self, num, den, text):
        assert cli.render_ratio(num, den) == text

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(scaled, exact_short, ties.map(lambda tie: tie[0] * Fraction(10) ** tie[1])))
    def test_format_fallback_only_outside_the_plain_range(self, x):
        calls = []

        def spy(value, spec):
            calls.append(value)
            return format(value, spec)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "format", spy, raising=False)
            text = cli.render_ratio(x.numerator, x.denominator)
        # The exponent of the rounded 15-digit value, read from the text, not from Decimal.
        assert bool(calls) == (not -6 <= decimal_exponent(Fraction(text)) <= 14)


def reference_grid_cell(n, den):
    """The cell as each point was written alone: its reduced denominator's 2-5 shift, else render_ratio."""
    x = Fraction(n, den)
    rest, e2, e5 = x.denominator, 0, 0
    while rest % 2 == 0:
        rest, e2 = rest // 2, e2 + 1
    while rest % 5 == 0:
        rest, e5 = rest // 5, e5 + 1
    if rest != 1:
        return cli.render_ratio(n, den)
    shift = max(e2, e5)
    scaled = x.numerator * 10**shift // x.denominator
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return ("-" if scaled < 0 else "") + (f"{digits[:-shift]}.{digits[-shift:]}" if shift else digits)


# 2^a 5^b m: the figure grids' denominators, m > 1 among them (steps 1/7, 1/12, 3/40), and any others
grid_denominators = st.one_of(
    st.sampled_from([1, 2, 7, 12, 40, 224, 1000, 10**6, 3 * 10**4]),
    st.builds(lambda a, b, m: 2**a * 5**b * m, st.integers(0, 12), st.integers(0, 12), st.integers(1, 60)),
)


class TestRenderGridColumn:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(-(10**5), 10**5), st.integers(1, 200), st.integers(1, 60), grid_denominators)
    def test_each_cell_is_written_as_its_point_alone(self, start, step, points, den):
        # Starts below zero give negative grids and grids that cross zero.
        numerators = range(start, start + points * step, step)
        assert cli.render_grid_column(numerators, den) == [reference_grid_cell(n, den) for n in numerators]

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=1000),
        st.sampled_from([Fraction(1, 7), Fraction(1, 12), Fraction(3, 40), Fraction(1, 1000), Fraction(5, 2)]),
        st.integers(1, 60),
    )
    def test_figure_steps(self, start, step, points):
        numerators, den = cli.grid_numerators(start, start + (points - 1) * step, step)
        assert cli.render_grid_column(numerators, den) == [reference_grid_cell(n, den) for n in numerators]
