"""Sharp constants, certified maximizer brackets, counterexample scans."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_sharp import excess, optima
from coulomb_sharp.exact import MathematicalError, sturm_count
from coulomb_sharp.verification import check_a_zero_window


class TestLocateTStar:
    def test_d3_rejected(self):
        with pytest.raises(MathematicalError, match="strictly decreasing"):
            optima.locate_t_star(3)

    def test_d4_bracket_inside_unit_interval(self):
        bracket = optima.locate_t_star(4, Fraction(1, 1000))
        assert Fraction(-1) < bracket.lower < bracket.upper < Fraction(0)

    def test_d6_bracket_inside_stated_window(self):
        bracket = optima.locate_t_star(6, Fraction(1, 1000))
        assert Fraction(-2, 3) < bracket.lower < bracket.upper < Fraction(7, 3)

    def test_d20_bracket_inside_stated_window(self):
        bracket = optima.locate_t_star(20, Fraction(1, 1000))
        lo, hi = optima.t_star_bounds(20)
        assert lo == Fraction(117, 3) and hi == Fraction(168, 3)
        assert lo < bracket.lower < bracket.upper < hi

    def test_width_honoured(self):
        bracket = optima.locate_t_star(8, Fraction(1, 10**6))
        assert bracket.width <= Fraction(1, 10**6)

    def test_bracket_retains_unique_root(self):
        p = excess.f_as_ratfun(9).numerator
        bracket = optima.locate_t_star(9, Fraction(1, 4096))
        assert sturm_count(p, bracket.lower, bracket.upper) == 1

    def test_unique_zero_on_half_line_all_dimensions(self):
        for d in range(4, 61):
            numerator = excess.f_as_ratfun(d).numerator
            assert sturm_count(numerator, -1, 10**10) == 1


class TestQStar:
    def test_d3(self):
        result = optima.q_star(3)
        assert result.value == 3 and result.argmax_ell == 0

    def test_d4_window_collapses(self):
        result = optima.q_star(4)
        assert result.candidate_window == (0, 0)
        assert result.value == Fraction(64, 27)

    def test_d5_beats_next_level(self):
        result = optima.q_star(5)
        assert result.value == Fraction(15, 8)
        assert result.value > excess.q_eval(5, 1) == Fraction(420, 243)
        assert result.argmax_ell == 0

    def test_exceeds_one_exactly(self):
        for d in range(3, 61):
            assert optima.q_star(d).value > 1

    def test_no_ties_observed(self):
        for d in range(3, 61):
            assert optima.q_star(d).tie_ell is None

    def test_window_never_excludes_brute_force_argmax(self):
        # Brute-force oracle over [0, d^2] with incremental products.
        for d in range(4, 61):
            best_ell = 0
            prod = math.prod(range(1, d))  # prod_{j<d} (0 + j)
            best = Fraction(2 ** (d - 1) * d * prod, (d - 1) ** d)
            for ell in range(1, d * d + 1):
                prod = prod * (ell + d - 1) // ell
                value = Fraction(
                    2 ** (d - 1) * (2 * ell + d) * prod, (2 * ell + d - 1) ** d
                )
                if value > best:
                    best, best_ell = value, ell
            result = optima.q_star(d)
            assert result.argmax_ell == best_ell
            assert result.value == best

    def test_value_squared_consistent(self):
        result = optima.q_star(7)
        assert result.value_squared == result.value**2


class TestAStar:
    def test_d3(self):
        result = optima.a_star(3)
        assert result.value_squared == Fraction(64, 3)
        assert result.value is None
        assert result.argmax_ell == 0

    def test_d4(self):
        result = optima.a_star(4)
        assert result.value == 3
        assert result.value_squared == 9

    def test_d5(self):
        result = optima.a_star(5)
        assert result.argmax_ell == 0
        assert result.value_squared == Fraction(147456, 30375)
        assert result.candidate_window == (0, 1)

    def test_dominates_q_star_squared(self):
        for d in range(3, 61):
            assert optima.a_star(d).value_squared > optima.q_star(d).value_squared

    def test_even_d_value_matches_square(self):
        for d in range(4, 61, 2):
            result = optima.a_star(d)
            assert result.value > 0
            assert result.value**2 == result.value_squared

    def test_window_never_excludes_brute_force_argmax(self):
        # Brute-force oracle over [0, d^2], every level reduced by its closed form.
        for d in range(5, 61):
            values = [excess.a_eval_squared(d, ell) for ell in range(d * d + 1)]
            best = max(values)
            result = optima.a_star(d)
            assert result.argmax_ell == values.index(best)
            assert result.value_squared == best

    def test_integer_argmax_flanks_real_maximizer(self):
        for d in range(6, 17):
            bracket = optima.locate_a_maximizer(d, Fraction(1, 100))
            result = optima.a_star(d)
            candidates = {
                max(0, math.floor(bracket.lower)),
                max(0, math.ceil(bracket.upper)),
                max(0, math.floor(bracket.upper)),
            }
            assert result.argmax_ell in candidates


def reference_star(d, window, level_value):
    """Reference argmax: every window level reduced to a Fraction by its closed form, kept in a dict."""
    lo, hi = window(d)
    values = {ell: level_value(d, ell) for ell in range(lo, hi + 1)}
    best_ell, tie = lo, None
    for ell in range(lo + 1, hi + 1):
        if values[ell] > values[best_ell]:
            best_ell, tie = ell, None
        elif values[ell] == values[best_ell] and tie is None:
            tie = ell
    return best_ell, values[best_ell], (lo, hi), tie


def reference_argmax(levels):
    """Reference argmax of (ell, num, den) triples: every level reduced to a Fraction."""
    best_ell, best, tie = levels[0][0], Fraction(levels[0][1], levels[0][2]), None
    for ell, num, den in levels[1:]:
        value = Fraction(num, den)
        if value > best:
            best_ell, best, tie = ell, value, None
        elif value == best and tie is None:
            tie = ell
    return best_ell, tie


@st.composite
def level_lists(draw):
    """Ascending (ell, num, den) levels: fresh values, exact multiples of earlier ones, and +-1 nudges."""
    rng = draw(st.randoms(use_true_random=False))
    bit_sizes = st.sampled_from([1, 3, 8, 63, 64, 65, 130, 5000])
    levels = []
    for ell in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "multiple", "nudge"])) if levels else "fresh"
        if kind == "fresh":
            num = rng.getrandbits(draw(bit_sizes))
            den = rng.getrandbits(draw(bit_sizes)) | 1
        else:
            _, num, den = draw(st.sampled_from(levels))
            if kind == "multiple":
                factor = rng.getrandbits(draw(bit_sizes)) | 1
                num, den = num * factor, den * factor
            else:
                num = max(0, num + draw(st.sampled_from([-1, 1])))
        levels.append((ell, num, den))
    return levels


@st.composite
def peaked_levels(draw):
    """Ascending (ell, num, den) levels from a few small values: plateaus, several peaks, equal separate peaks."""
    rng = draw(st.randoms(use_true_random=False))
    lo = draw(st.integers(0, 50))
    values = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    levels = []
    for ell, value in enumerate(values, lo):
        # The same value written over denominators of different bit lengths.
        scale = rng.getrandbits(draw(st.sampled_from([1, 8, 64, 130]))) | 1
        levels.append((ell, value * scale, 3 * scale))
    return levels


def walk(levels):
    """optima._window_argmax over (ell, num, den) levels in ascending ell, and the levels whose pairs it built.

    The step signs come from the exact values; each built pair beyond the
    first is one exact comparison.
    """
    values = [Fraction(num, den) for _, num, den in levels]
    steps = [(b > a) - (b < a) for a, b in zip(values, values[1:])]
    pairs = {ell: (num, den) for ell, num, den in levels}
    built = []

    def pair(ell):
        built.append(ell)
        return pairs[ell]

    return optima._window_argmax(levels[0][0], levels[-1][0], steps, pair), built


def weak_local_maxima(values):
    """Indices i with values[i-1] <= values[i] >= values[i+1], the missing neighbours at the ends ignored."""
    return [
        i
        for i, value in enumerate(values)
        if (i == 0 or values[i - 1] <= value) and (i == len(values) - 1 or values[i + 1] <= value)
    ]


class TestWindowWalk:
    def test_q_star_matches_dict_reference(self):
        for d in range(3, 151):
            best_ell, best, window, tie = reference_star(d, optima.q_candidate_window, excess.q_eval)
            expected = optima.StarResult(d, best_ell, best * best, best, window, tie)
            assert optima.q_star(d) == expected

    def test_a_star_matches_dict_reference(self):
        for d in range(3, 151):
            best_ell, best_sq, window, tie = reference_star(
                d, optima.a_candidate_window, excess.a_eval_squared
            )
            value = Fraction(math.isqrt(best_sq.numerator), math.isqrt(best_sq.denominator))
            expected = optima.StarResult(d, best_ell, best_sq, value if d % 2 == 0 else None, window, tie)
            assert optima.a_star(d) == expected

    @pytest.mark.parametrize(
        "steps, value, window",
        [
            (optima._q_steps, excess.q_eval, optima.q_candidate_window),
            (optima._a_squared_steps, excess.a_eval_squared, optima.a_candidate_window),
        ],
        ids=("Q", "A_squared"),
    )
    def test_step_signs_are_the_level_differences(self, steps, value, window):
        # From level 0 to three levels past the window, for every d in 3..80.
        for d in range(3, 81):
            hi = window(d)[1] + 3
            values = [value(d, ell) for ell in range(hi + 1)]
            expected = [(b > a) - (b < a) for a, b in zip(values, values[1:])]
            assert list(steps(d, 0, hi)) == expected
            # A walk started inside the range carries its powers from its own first level.
            mid = min(hi, 9)
            assert list(steps(d, 2, mid)) == expected[2:mid]

    def test_equal_levels_keep_the_smallest_and_report_the_next_as_tie(self):
        # Levels 4, 5 and 7 are all 1/3, written with different denominators.
        levels = [(4, 1, 3), (5, 2, 6), (6, 1, 4), (7, 3, 9)]
        assert walk(levels)[0] == (4, 5)

    def test_later_larger_level_clears_the_tie(self):
        levels = [(4, 1, 3), (5, 2, 6), (6, 2, 5), (7, 4, 10)]
        assert walk(levels)[0] == (6, 7)
        assert walk(levels[:3])[0] == (6, None)

    def test_single_level_window(self):
        assert walk([(0, 5, 7)]) == ((0, None), [])

    def test_one_peak_builds_no_pair(self):
        assert walk([(3, 1, 5), (4, 2, 5), (5, 4, 5), (6, 3, 5)]) == ((5, None), [])
        assert walk([(3, 4, 5), (4, 2, 5), (5, 1, 5)]) == ((3, None), [])
        assert walk([(3, 1, 5), (4, 2, 5), (5, 4, 5)]) == ((5, None), [])

    def test_separate_peaks_are_the_only_pairs_built(self):
        levels = [(0, 1, 9), (1, 5, 9), (2, 2, 9), (3, 1, 9), (4, 7, 9), (5, 3, 9), (6, 7, 9)]
        assert walk(levels) == ((4, 6), [1, 4, 6])

    @settings(max_examples=300, deadline=None)
    @given(level_lists())
    def test_argmax_matches_fraction_reference(self, levels):
        assert walk(levels)[0] == reference_argmax(levels)

    @settings(max_examples=300, deadline=None)
    @given(peaked_levels())
    def test_peaks_and_plateaus_match_fraction_reference(self, levels):
        (best, tie), built = walk(levels)
        assert (best, tie) == reference_argmax(levels)
        peaks = weak_local_maxima([Fraction(num, den) for _, num, den in levels])
        assert built == ([] if len(peaks) == 1 else [levels[i][0] for i in peaks])

    @pytest.mark.parametrize(
        "first, second", [((3, 5), (9, 15)), ((9, 15), (3, 5)), ((1, 3), (3**90, 3**91))]
    )
    def test_tie_written_with_other_bit_lengths(self, first, second):
        # Two equal levels are both peaks: one exact comparison decides the tie.
        assert walk([(0, *first), (1, *second)]) == ((0, 1), [0, 1])

    def test_5000_bit_levels_one_apart(self):
        rng = random.Random(5000)
        num, den = rng.getrandbits(4999) | 1 << 4999, rng.getrandbits(4989) | 1 << 4989
        assert walk([(0, num, den), (1, num + 1, den)]) == ((1, None), [])
        assert walk([(0, num + 1, den), (1, num, den)]) == ((0, None), [])
        assert walk([(0, num, den), (1, 1, den), (2, num + 1, den)]) == ((2, None), [0, 2])
        assert walk([(0, num + 1, den), (1, 1, den), (2, num, den)]) == ((0, None), [0, 2])

    def test_larger_level_after_a_tie(self):
        larger = ((3 << 5000) + 1, 5 << 5000)
        assert walk([(0, 3, 5), (1, 9, 15), (2, *larger)])[0] == (2, None)
        assert walk([(0, 3, 5), (1, 9, 15), (2, *larger), (3, 6, 10)])[0] == (2, None)

    def test_window_ties_reach_the_exact_path(self, monkeypatch):
        # A**2 at d = 6 takes its maximum at levels 0 and 1, a genuine tie.
        assert excess.a_eval_squared(6, 0) == excess.a_eval_squared(6, 1)
        calls = []
        exact = excess.a_squared_int

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(excess, "a_squared_int", counted)
        result = optima.a_star(6)
        assert (result.argmax_ell, result.tie_ell) == (0, 1)
        # One pair per peak, so exactly one exact comparison, then the winner's reduction.
        assert calls == [(6, 0, 1), (6, 1, 1), (6, 0, 1)]

    @pytest.mark.parametrize(
        "star, value, window",
        [
            (optima.q_star, excess.q_eval, optima.q_candidate_window),
            (optima.a_star, excess.a_eval_squared, optima.a_candidate_window),
        ],
        ids=("Q", "A_squared"),
    )
    def test_level_products_only_for_peaks(self, monkeypatch, star, value, window):
        # The walk builds no level value: the Pochhammer product runs once per
        # compared peak and once for the winner's reduction.
        d = 200
        lo, hi = window(d)
        peaks = weak_local_maxima([value(d, ell) for ell in range(lo, hi + 1)])
        calls = []
        product = excess._pochhammer_int

        def counted(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(excess, "_pochhammer_int", counted)
        star(d)
        assert len(calls) <= len(peaks) + 1


class TestAMaximizerBracket:
    def test_d5_negative_maximizer(self):
        bracket = optima.locate_a_maximizer(5, Fraction(1, 1000))
        assert Fraction(-1) < bracket.lower < bracket.upper < Fraction(0)

    def test_small_d_has_no_interior_maximizer(self):
        assert optima.locate_a_maximizer(3) is None
        assert optima.locate_a_maximizer(4) is None

    def test_zero_within_candidate_window(self):
        for d in range(5, 22):
            bracket = optima.locate_a_maximizer(d, Fraction(1, 1000))
            lo, hi = optima.a_zero_bounds(d)
            assert max(Fraction(-1), lo) < bracket.lower < bracket.upper < hi


class TestCounterexampleScan:
    def test_d6_reported_point(self):
        hits = optima.counterexample_scan(6, [Fraction(111, 10)])
        assert len(hits) == 1
        eta, ratio = hits[0]
        assert eta == Fraction(111, 10)
        assert ratio > 1
        assert abs(float(ratio) - 1.3796) < 0.001

    def test_d3_at_eta3_is_empty(self):
        assert optima.counterexample_scan(3, [Fraction(3)]) == []

    def test_d3_just_above_threshold_hits(self):
        hits = optima.counterexample_scan(3, [Fraction(201, 100)])
        assert len(hits) == 1
        # One eigenvalue against a tiny semiclassical volume.
        assert hits[0][1] == Fraction(1) / (Fraction(201, 100) ** 3 / 24)

    def test_sorted_by_eta(self):
        grid = [Fraction(5), Fraction(201, 100), Fraction(21, 10)]
        hits = optima.counterexample_scan(3, grid)
        etas = [eta for eta, _ in hits]
        assert etas == sorted(etas)

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            optima.counterexample_scan(3, [Fraction(2)])


class TestAZeroWindow:
    @pytest.mark.parametrize("d", range(5, 22, 2))
    def test_sign_windows_hold(self, d):
        record = check_a_zero_window(d)
        assert (record.verdict, record.witness) == ("pass", {"holds": "true"})

    def test_large_dimension_bracket_unchanged(self):
        # Bracket as a Sturm-certified localization produced it; d = 81 lies
        # past the dimensions the default identities sweep visits.
        assert check_a_zero_window(81).verdict == "pass"
        bracket = optima.locate_a_maximizer(81)
        assert (bracket.lower, bracket.upper) == (Fraction(132742419, 131072), Fraction(99556873, 98304))

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            check_a_zero_window(6)


class TestHaSignBounds:
    """h_a >= 0 left of its zero window and <= 0 right of it, at exact samples."""

    @pytest.mark.parametrize("d", [5, 7, 9, 17, 39])
    def test_bounds_hold_for_both_weights(self, d):
        for a in (Fraction(1, 2), excess.squeeze_coefficient(d)):
            bound = (Fraction(d**3 - 6 * d**2 + 11 * d - 3, 12) - Fraction(d - 2, 2) * a) / (
                Fraction(d - 1, 2) + a
            )
            pole = Fraction(d - 3, 2)
            if bound > pole:
                step = (bound - pole) / 17
                for j in range(1, 17):
                    s = pole + j * step
                    assert excess.h_a_eval(d, a, s) >= 0
                assert excess.h_a_eval(d, a, bound) >= 0
            upper_start = bound + (d - 3)
            for j in range(17):
                s = upper_start + j * Fraction(d, 4)
                assert excess.h_a_eval(d, a, s) <= 0
