"""Property tests of the integer enclosures behind the order-gamma checks.

exact.iroot is the floor of a q-th root; spectrum.riesz_means_int (by q-th
roots for q <= spectrum.MAX_ROOT_DEGREE, by integer log and exp above),
highprec.gamma_int, phase_space.gamma_ratio_int and phase_space.lt_rhs_int
return (lo, hi, k) with the value in [lo, hi] / 2**k, and highprec.ln2_int,
log_int and exp_int return (lo, hi) at scale 2**w.  Each enclosure is
checked against an independent mpmath evaluation at twice the digits its
width resolves, and its width against the bound its docstring promises; the
root sum is also checked bit for bit against sympy's integer roots, and
spectrum.riesz_means_int's shared root rows against a per-d root loop.  The
witness strings of those enclosures, highprec.witness_digits, are checked
byte for byte against mpmath.nstr of highprec.dyadic_real on random lower ends.
"""

from fractions import Fraction

import mpmath
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coulomb_sharp import phase_space, spectrum  # noqa: E402
from coulomb_sharp.exact import dyadic_less, iroot  # noqa: E402
from coulomb_sharp.highprec import (  # noqa: E402
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MAX_ROOT_DEGREE,
    dyadic_real,
    enclosure_bits,
    exp_int,
    gamma_int,
    gamma_parts,
    ln2_int,
    log_int,
    witness_digits,
)

try:
    import sympy
except ImportError:  # a test-only dependency, like hypothesis
    sympy = None

# Split at the cut, so both Riesz kernels are drawn.
degrees = st.integers(1, spectrum.MAX_ROOT_DEGREE)
orders = st.builds(
    Fraction, st.integers(1, 40), st.one_of(degrees, st.integers(spectrum.MAX_ROOT_DEGREE + 1, 10**12))
)
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
    @pytest.mark.parametrize("q", range(1, spectrum.MAX_ROOT_DEGREE + 1))
    def test_small_values_and_perfect_powers(self, q):
        for n in (0, 1):
            assert iroot(n, q) == n
        # Roots of 45 to 55 bits sit where the float seed alone gives way to
        # Newton steps on the top bits of n.
        edges = (2**44 + 1, 2**45 - 1, 3**30, 2**50 - 1, 2**50, 2**50 + 1, 2**53 - 1, 2**53, 2**53 + 1, 2**55 - 1)
        for r in (2, 3, 255, 256, 2**48 - 1, 2**48, 2**48 + 1, 3**90, *edges):
            assert iroot(r**q, q) == r
            assert iroot(r**q - 1, q) == r - 1
            assert iroot(r**q + 1, q) == (r + 1 if q == 1 else r)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**20000), degrees)
    @example(2**20000, spectrum.MAX_ROOT_DEGREE)
    def test_floor_of_the_root(self, n, q):
        r = iroot(n, q)
        assert r**q <= n < (r + 1) ** q

    @settings(max_examples=200, deadline=None)
    # Half the roots near the float seed's width, where Newton steps take over.
    @given(st.one_of(st.integers(0, 2**600), st.integers(2**44, 2**56)), degrees)
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
    # x = eta^2/(d-1)^2 - 1 near 10**-300 or 10**-1000 at gamma near d/2, by
    # roots and by log and exp: gamma ln x and k ln 2 nearly cancel in the exponent.
    @example(400, 399 + Fraction(1, 10**300), Fraction(1999, 10), 70)
    @example(400, 399 + Fraction(1, 10**1000), Fraction(1999, 10), 70)
    @example(400, 399 + Fraction(1, 10**300), Fraction(10**12 * 199 + 39, 10**12), 70)
    # 2,451 levels with a 605-bit eigenvalue count: log and exp are sized by
    # the bits asked for, and the multiplicity-weighted width must still meet the contract.
    @example(100, Fraction(5000), Fraction(4999, 100), enclosure_bits(30))
    @given(
        st.integers(3, 12),
        st.fractions(min_value=Fraction(1, 10), max_value=60, max_denominator=1000),
        orders,
        bit_counts,
    )
    def test_contains_the_mpmath_sum(self, d, eta, gamma, bits):
        [enclosure] = spectrum.riesz_means_int((d,), eta.numerator, eta.denominator, gamma, bits)
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

    @pytest.mark.skipif(sympy is None, reason="sympy is a test-only dependency")
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(3, 12),
        st.fractions(min_value=Fraction(1, 10), max_value=60, max_denominator=1000),
        st.builds(Fraction, st.integers(1, 40), degrees),
        bit_counts,
    )
    def test_root_sum_is_exact(self, d, eta, gamma, bits):
        # For q <= MAX_ROOT_DEGREE, lo is the sum of mu_j floor(x_j**gamma 2**k)
        # at the k returned, with x_j = a/b the level's ratio and each floor
        # from sympy; hi adds the eigenvalue count.
        n, den = eta.numerator, eta.denominator
        [(lo, hi, k)] = spectrum.riesz_means_int((d,), n, den, gamma, bits)
        ell = spectrum.top_level(d, n, den)
        p, q = gamma.numerator, gamma.denominator
        expected = 0
        for j in range(ell + 1):
            b = den**2 * (2 * j + d - 1) ** 2
            term, _ = sympy.integer_nthroot(((n * n - b) ** p << (q * k)) // b**p, q)
            expected += spectrum.multiplicity(d, j) * int(term)
        assert lo == expected
        assert hi == lo + (spectrum.level_count(d, ell) if ell >= 0 else 0)

    @pytest.mark.parametrize("eta", [Fraction(1, 3), Fraction(2), Fraction(7, 2), Fraction(4)])
    def test_empty_spectrum_is_exactly_zero(self, eta):
        # d = 5: the spectrum is empty for eta <= 4.
        [(lo, hi, _)] = spectrum.riesz_means_int((5,), eta.numerator, eta.denominator, Fraction(7, 3), 100)
        assert (lo, hi) == (0, 0)


def _per_d_roots(d, n, den, gamma, bits):
    """One dimension's root enclosure, each root at its own k: the loop before the rows were shared."""
    ell = spectrum.top_level(d, n, den)
    if ell < 0:
        return 0, 0, bits
    p, q = gamma.numerator, gamma.denominator
    n2, den2 = n * n, den * den
    count = spectrum.level_count(d, ell)
    b0 = den2 * (d - 1) ** 2
    low = p * ((n2 - b0).bit_length() - 1 - b0.bit_length()) // q
    k = max(0, bits + count.bit_length() - low)
    lo = 0
    for j in range(ell + 1):
        m = 2 * j + d - 1
        lo += spectrum.multiplicity(d, j) * iroot(((n2 - den2 * m * m) ** p << (q * k)) // (den2**p * m ** (2 * p)), q)
    return lo, lo + count, k


@st.composite
def _batches(draw):
    """Dimensions 3..40 in any order, repeats allowed, and an order p/q below min(d)/2 with q <= 32."""
    ds = draw(st.lists(st.integers(3, 40), min_size=1, max_size=8))
    q = draw(degrees)
    p = draw(st.integers(1, (q * min(ds) - 1) // 2))
    return ds, Fraction(p, q)


class TestSharedRootRows:
    @settings(max_examples=200, deadline=None)
    # Both parities, unsorted, with eta above d - 1 for some d only (d = 40 has no level at 30).
    @example(([40, 5, 12, 7, 6], Fraction(7, 3)), Fraction(30), enclosure_bits(30))
    @example(([9, 3, 4], Fraction(1)), Fraction(2999, 1000), enclosure_bits(60))
    @given(
        _batches(),
        st.fractions(min_value=Fraction(1, 10), max_value=70, max_denominator=1000),
        st.sampled_from([enclosure_bits(DEFAULT_PRECISION), enclosure_bits(2 * DEFAULT_PRECISION)]),
    )
    def test_batch_is_the_per_d_root_loop(self, batch, eta, bits):
        # Each d reads the shared row at K shifted down to its own k: every
        # enclosure must be the one its own roots at k give.
        ds, gamma = batch
        n, den = eta.numerator, eta.denominator
        expected = [_per_d_roots(d, n, den, gamma, bits) for d in ds]
        assert spectrum.riesz_means_int(ds, n, den, gamma, bits) == expected
        assert [spectrum.riesz_means_int((d,), n, den, gamma, bits)[0] for d in ds] == expected


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


# s in (1, 2) with denominators up to 10**12, as orders draws them: d/2 - p/q has denominator 2q at odd q.
kernel_arguments = st.one_of(st.integers(2, 2 * MAX_ROOT_DEGREE), st.integers(2 * MAX_ROOT_DEGREE + 1, 10**12)).flatmap(
    lambda q: st.integers(q + 1, 2 * q - 1).map(lambda p: Fraction(p, q))
)


class TestGammaKernel:
    @settings(max_examples=200, deadline=None)
    @given(kernel_arguments, bit_counts)
    @example(Fraction(4, 3), 8)
    @example(Fraction(127, 64), 400)
    def test_contains_mpmath_gamma(self, s, bits):
        gamma_int.cache_clear()
        enclosure = gamma_int(s, bits)
        with _reference(bits):
            _contains(enclosure, mpmath.gamma(_mp(s)), bits)

    @pytest.mark.parametrize(
        "s",
        # the last with a large denominator, as orders above MAX_ROOT_DEGREE give
        [*map(Fraction, ("4/3", "5/3", "7/6", "3/2", "63/62")), Fraction(2 * 10**12 - 1, 10**12)],
    )
    def test_contains_mpmath_gamma_at_the_top_precision(self, s):
        bits = enclosure_bits(MAX_PRECISION)
        enclosure = gamma_int(s, bits)
        with _reference(bits):
            _contains(enclosure, mpmath.gamma(_mp(s)), bits)

    def test_gamma_of_one_is_exact(self):
        assert gamma_int(Fraction(1), 100) == (1, 1, 0)

    @pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(2), Fraction(5, 2)])
    def test_argument_outside_one_two_rejected(self, s):
        with pytest.raises(ValueError, match="1 <= s < 2"):
            gamma_int(s, 100)

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=0, max_value=250, max_denominator=2 * MAX_ROOT_DEGREE))
    def test_parts_reduce_to_one_two(self, x):
        hypothesis.assume(x > 0)
        c, s = gamma_parts(x)
        assert 1 <= s < 2 and (x - s).denominator == 1
        with mpmath.mp.workdps(60):
            value = mpmath.gamma(_mp(x))
            assert abs(_mp(c) * mpmath.gamma(_mp(s)) - value) <= value * mpmath.mpf(10) ** -50


class TestLogExpKernels:
    @pytest.mark.parametrize("w", [1, 2, 17, 64, 3400])
    def test_ln2_lies_strictly_inside_w_units(self, w):
        lo, hi = ln2_int(w)
        assert hi - lo == w
        with mpmath.mp.workprec(2 * w + 64):
            assert lo < mpmath.log(2) * mpmath.mpf(2) ** w < hi

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2**600), st.integers(1, 2**600), st.integers(20, 1200))
    @example(1, 1, 20)  # z = 0: ln 1 is 0 exactly
    @example(3, 4, 20)  # y = 3/2, z = 1/5
    @example(2**600, 1, 1200)
    @example(1, 2**600 - 1, 1200)
    def test_log_contains_its_value_within_the_bound(self, a, b, w):
        lo, hi = log_int(a, b, w, ln2_int(w))
        assert hi - lo < (abs(a.bit_length() - b.bit_length()) + 3) * w + 20
        with mpmath.mp.workprec(2 * w + 1300):
            assert lo <= mpmath.log(mpmath.mpf(a) / b) * mpmath.mpf(2) ** w <= hi

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(17, 1200).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(-(300 << w), 300 << w), st.integers(0, 1 << (w // 2)))
        )
    )
    @example((17, 0, 0))  # e**0 = 1 exactly
    @example((17, -(300 << 17), 1 << 8))  # e**-300 at 17 bits: the outward rounding of 2**m, m < 0
    @example((1200, 300 << 1200, 0))
    def test_exp_contains_its_values_within_the_bound(self, args):
        w, y_lo, spread = args
        y_hi = y_lo + spread
        ln2 = ln2_int(w)
        lo, hi = exp_int(y_lo, y_hi, w, ln2)
        # |m| <= |y_lo| / ln2_lo + 1 bounds exp_int's delta from above.
        delta = spread + (abs(y_lo) // ln2[0] + 1) * w
        with mpmath.mp.workprec(2 * w + 1000):
            scale = mpmath.mpf(2) ** w
            low = mpmath.exp(mpmath.mpf(y_lo) / scale)
            assert lo <= low * scale and mpmath.exp(mpmath.mpf(y_hi) / scale) * scale <= hi
            assert hi - lo < low * (6 * delta + 4 * w + 18) + 2


class TestWitnessDigits:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**3000), st.integers(-200, 3200), st.integers(30, MAX_PRECISION))
    def test_match_nstr_on_random_ends(self, lo, k, precision):
        # Values between 2**-3200 and 2**3200.  Beyond 2**3500 either way
        # mpmath first divides by a rounded power of ten, and the digits here
        # stay the exact ones.
        expected = mpmath.nstr(dyadic_real((lo, lo, k), precision), 25)
        assert witness_digits((lo, lo, k), precision) == expected


class TestGammaRatioEnclosure:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 60), orders, bit_counts)
    def test_contains_the_mpmath_gamma_ratio(self, d, gamma, bits):
        hypothesis.assume(gamma < Fraction(d, 2))
        phase_space.gamma_ratio_int.cache_clear()
        enclosure = phase_space.gamma_ratio_int(d, gamma, bits)
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
        lhs = spectrum.riesz_mean(d, eta, gamma)
        assert lhs == dyadic_real(spectrum.riesz_means_int((d,), 111, 10, gamma, bits)[0], DEFAULT_PRECISION)
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
