"""Property tests of the integer enclosures behind the order-gamma checks.

exact.iroot is the floor of a q-th root; spectrum.riesz_mean_int (by q-th
roots for q <= 8, by an interval sum above), phase_space.gamma_ratio_int and
phase_space.lt_rhs_int return (lo, hi, k) with the value in [lo, hi] / 2**k.
Each enclosure is checked against an independent mpmath evaluation at twice
the digits its width resolves, and its width against the bound its docstring
promises.
"""

from fractions import Fraction

import mpmath
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coulomb_sharp import phase_space, spectrum  # noqa: E402
from coulomb_sharp.exact import dyadic_less, iroot  # noqa: E402
from coulomb_sharp.highprec import DEFAULT_PRECISION, dyadic_real, enclosure_bits  # noqa: E402

degrees = st.integers(1, 8)
orders = st.builds(Fraction, st.integers(1, 40), st.one_of(degrees, st.integers(9, 10**12)))
bit_counts = st.integers(8, 400)


def _reference(bits: int):
    """An mpmath context at twice the decimal digits that 2**-bits resolves."""
    return mpmath.mp.workdps(2 * (bits * 30103 // 100000 + 10))


def _contains(enclosure, value, bits):
    """lo/2**k <= value <= hi/2**k up to the reference's own rounding, and hi - lo <= 2**-bits value."""
    lo, hi, k = enclosure
    slack = value * mpmath.mpf(2) ** (-2 * bits)
    scale = mpmath.mpf(2) ** -k
    assert lo * scale <= value + slack
    assert value - slack <= hi * scale
    assert (hi - lo) * scale <= value * mpmath.mpf(2) ** -bits


class TestIntegerRoot:
    @pytest.mark.parametrize("q", range(1, 9))
    def test_small_values_and_perfect_powers(self, q):
        for n in (0, 1):
            assert iroot(n, q) == n
        for r in (2, 3, 255, 256, 2**48 - 1, 2**48, 2**48 + 1, 3**90):
            assert iroot(r**q, q) == r
            assert iroot(r**q - 1, q) == r - 1
            assert iroot(r**q + 1, q) == (r + 1 if q == 1 else r)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**3000), degrees)
    def test_floor_of_the_root(self, n, q):
        r = iroot(n, q)
        assert r**q <= n < (r + 1) ** q

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**500), degrees)
    def test_floor_of_the_root_of_an_exact_power(self, r, q):
        n = r**q
        assert iroot(n, q) == r
        if n:
            assert iroot(n - 1, q) == r - 1

    def test_rejects_negative_input_and_degree_zero(self):
        with pytest.raises(ValueError):
            iroot(-1, 3)
        with pytest.raises(ValueError):
            iroot(8, 0)


class TestRieszEnclosure:
    @settings(max_examples=150, deadline=None)
    # x = eta^2/(d-1)^2 - 1 near 10**-300 or 10**-1000 at gamma near d/2: the
    # interval sum's power widens each term by about gamma |log x|.
    @example(400, 399 + Fraction(1, 10**300), Fraction(1999, 10), 70)
    @example(400, 399 + Fraction(1, 10**1000), Fraction(1999, 10), 70)
    # 2,451 levels with a 605-bit eigenvalue count: the interval sum is sized
    # by the number of terms, and its width must still meet the contract.
    @example(100, Fraction(5000), Fraction(4999, 100), enclosure_bits(30))
    @given(
        st.integers(3, 12),
        st.fractions(min_value=Fraction(1, 10), max_value=60, max_denominator=1000),
        orders,
        bit_counts,
    )
    def test_contains_the_mpmath_sum(self, d, eta, gamma, bits):
        enclosure = spectrum.riesz_mean_int(d, eta.numerator, eta.denominator, gamma, bits)
        ell = spectrum.top_level(d, eta.numerator, eta.denominator)
        if ell < 0:
            assert enclosure[:2] == (0, 0)
            return
        with _reference(bits):
            g = mpmath.mpf(gamma.numerator) / gamma.denominator
            total = mpmath.mpf(0)
            for j in range(ell + 1):
                x = eta**2 / (2 * j + d - 1) ** 2 - 1
                total += spectrum.multiplicity(d, j) * mpmath.power(mpmath.mpf(x.numerator) / x.denominator, g)
            _contains(enclosure, total, bits)

    @pytest.mark.parametrize("eta", [Fraction(1, 3), Fraction(2), Fraction(7, 2), Fraction(4)])
    def test_empty_spectrum_is_exactly_zero(self, eta):
        # d = 5: the spectrum is empty for eta <= 4.
        lo, hi, _ = spectrum.riesz_mean_int(5, eta.numerator, eta.denominator, Fraction(7, 3), 100)
        assert (lo, hi) == (0, 0)


class TestGammaRatioEnclosure:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 60), orders, bit_counts)
    def test_contains_the_mpmath_gamma_ratio(self, d, gamma, bits):
        hypothesis.assume(gamma < Fraction(d, 2))
        interval_precision = mpmath.iv.prec
        phase_space.gamma_ratio_int.cache_clear()
        enclosure = phase_space.gamma_ratio_int(d, gamma, bits)
        assert mpmath.iv.prec == interval_precision
        with _reference(bits):
            g = mpmath.mpf(gamma.numerator) / gamma.denominator
            dh = mpmath.mpf(d) / 2
            ratio = mpmath.gamma(g + 1) * mpmath.gamma(dh - g) / (mpmath.gamma(d + 1) * mpmath.gamma(dh))
            _contains(enclosure, ratio, bits + 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(3, 40),
        st.fractions(min_value=Fraction(1, 10), max_value=200, max_denominator=1000),
        orders,
        bit_counts,
    )
    def test_right_hand_side_contains_its_value(self, d, eta, gamma, bits):
        hypothesis.assume(gamma < Fraction(d, 2))
        enclosure = phase_space.lt_rhs_int(d, eta.numerator, eta.denominator, gamma, bits)
        with _reference(bits):
            g = mpmath.mpf(gamma.numerator) / gamma.denominator
            dh = mpmath.mpf(d) / 2
            value = (
                mpmath.mpf(eta.numerator) ** d
                / (mpmath.mpf(eta.denominator) ** d * 2 ** (d - 1))
                * mpmath.gamma(g + 1)
                * mpmath.gamma(dh - g)
                / (mpmath.gamma(d + 1) * mpmath.gamma(dh))
            )
            _contains(enclosure, value, bits)

    def test_divergent_order_rejected(self):
        with pytest.raises(ValueError, match="diverges"):
            phase_space.gamma_ratio_int(4, Fraction(2), 100)


class TestOneEvaluator:
    @pytest.mark.parametrize("gamma", [Fraction(1, 3), Fraction(7, 3), Fraction(17, 8), Fraction(233, 100)])
    def test_public_values_are_the_lower_ends_of_the_enclosures(self, gamma):
        # riesz_mean and lt_rhs read the kernels the order-gamma check compares.
        d, eta, bits = 6, Fraction(111, 10), enclosure_bits(DEFAULT_PRECISION)
        lhs = spectrum.riesz_mean(spectrum.SpectrumParams(d, eta), gamma)
        assert lhs == dyadic_real(spectrum.riesz_mean_int(d, 111, 10, gamma, bits), DEFAULT_PRECISION)
        rhs = phase_space.lt_rhs(d, eta, gamma)
        assert rhs == dyadic_real(phase_space.lt_rhs_int(d, 111, 10, gamma, bits), DEFAULT_PRECISION)


class TestDyadicComparison:
    def test_scales_are_aligned(self):
        one = (2, 2, 1)  # 2/2**1
        assert dyadic_less((3, 3, 2), one) is True  # 3/4 < 1
        assert dyadic_less(one, (3, 3, 2)) is False
        assert dyadic_less(one, (4, 4, 2)) is None  # an exact tie

    def test_overlap_is_undecided(self):
        assert dyadic_less((10, 20, 0), (15, 30, 0)) is None
        assert dyadic_less((10, 20, 0), (20, 30, 0)) is None
        assert dyadic_less((10, 20, 0), (21, 30, 0)) is True

    @pytest.mark.parametrize("precision", [1, 30, 1000])
    def test_enclosure_bits_resolve_twenty_guard_digits(self, precision):
        bits = enclosure_bits(precision)
        assert Fraction(1, 2**bits) < Fraction(1, 10 ** (precision + 20))
