"""Sharp constants, certified maximizer brackets, counterexample scans."""

import hashlib
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulomb_sharp import excess, optima, spectrum
from coulomb_sharp.exact import CertificationError, MathematicalError, sturm_count
from coulomb_sharp.verification import check_a_zero_window, check_counterexample_scan


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


def integer_hull(bounds):
    """The integer levels from floor(lo) to ceil(hi) of open bounds (lo, hi), clamped at 0."""
    lo, hi = bounds
    return max(0, math.floor(lo)), max(0, math.ceil(hi))


def q_window(d):
    return integer_hull(optima.t_star_bounds(d))


def a_window(d):
    return integer_hull(optima.a_zero_bounds(d))


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


def level_steps(levels):
    """sign(V(l+1) - V(l)) over (ell, num, den) levels in ascending ell, from the exact values."""
    values = [Fraction(num, den) for _, num, den in levels]
    return [(b > a) - (b < a) for a, b in zip(values, values[1:])]


def walk(levels):
    """optima._window_argmax over (ell, num, den) levels in ascending ell."""
    return optima._window_argmax(levels[0][0], levels[-1][0], level_steps(levels))


def rise_hold_fall(steps):
    """True when the step signs read: rises, at most one hold, then falls."""
    return re.fullmatch(r"\+*0?-*", "".join("-0+"[step + 1] for step in steps)) is not None


def walk_certifies_or_refuses(levels):
    """The walk agrees with the Fraction reference on rise/hold/fall levels and refuses every other pattern."""
    if rise_hold_fall(level_steps(levels)):
        assert walk(levels) == reference_argmax(levels)
    else:
        with pytest.raises(CertificationError, match="is not below level"):
            walk(levels)


STEP_FORMS = [
    (1, 1, excess.q_eval, q_window),
    (2, 2, excess.a_eval_squared, a_window),
]


def exact_step(d, ell, c, k):
    """sign(V(l+1) - V(l)) from ((b+2)(l+d)/(b(l+1)))**k against ((b+c)/(b-c))**d, b = 2l+d, in integers."""
    b = 2 * ell + d
    rise = ((b + 2) * (ell + d)) ** k * (b - c) ** d
    fall = (b * (ell + 1)) ** k * (b + c) ** d
    return (rise > fall) - (rise < fall)


def count_exact_steps(monkeypatch):
    """Record the arguments of every step that optima._steps leaves to its exact branch."""
    calls = []
    exact = optima._exact_step

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(optima, "_exact_step", counted)
    return calls


class TestWindowWalk:
    def test_q_star_matches_dict_reference(self):
        for d in range(3, 151):
            best_ell, best, window, tie = reference_star(d, q_window, excess.q_eval)
            expected = optima.StarResult(d, best_ell, best * best, best, window, tie)
            assert optima.q_star(d) == expected

    def test_a_star_matches_dict_reference(self):
        for d in range(3, 151):
            best_ell, best_sq, window, tie = reference_star(d, a_window, excess.a_eval_squared)
            value = Fraction(math.isqrt(best_sq.numerator), math.isqrt(best_sq.denominator))
            expected = optima.StarResult(d, best_ell, best_sq, value if d % 2 == 0 else None, window, tie)
            assert optima.a_star(d) == expected

    def test_every_dimension_certifies(self):
        # Both walks read rise, hold, fall for every d that --d-range accepts;
        # the only hold is A**2 at d = 6, on levels 0 and 1.
        ties = []
        for d in range(3, spectrum.MAX_DIMENSION + 1):
            for name, result in (("Q", optima.q_star(d)), ("A_squared", optima.a_star(d))):
                lo, hi = result.candidate_window
                assert lo <= result.argmax_ell <= hi
                if result.tie_ell is not None:
                    ties.append((name, d, result.argmax_ell, result.tie_ell))
        assert ties == [("A_squared", 6, 0, 1)]

    @pytest.mark.parametrize("c, k, value, window", STEP_FORMS, ids=("Q", "A_squared"))
    def test_step_signs_are_the_level_differences(self, c, k, value, window):
        # From level 0 to three levels past the window, for every d in 3..80.
        for d in range(3, 81):
            hi = window(d)[1] + 3
            values = [value(d, ell) for ell in range(hi + 1)]
            expected = [(b > a) - (b < a) for a, b in zip(values, values[1:])]
            assert list(optima._steps(d, 0, hi, c, k)) == expected
            # A walk started inside the range gives the same signs from its own first level.
            mid = min(hi, 9)
            assert list(optima._steps(d, 2, mid, c, k)) == expected[2:mid]

    def test_doubles_are_ieee_binary64(self):
        # The filter's error bound counts roundings of u = 2**-53.
        assert (sys.float_info.radix, sys.float_info.mant_dig) == (2, 53)

    @pytest.mark.parametrize("c, k, value, window", STEP_FORMS, ids=("Q", "A_squared"))
    def test_filtered_steps_match_integers_on_every_window(self, c, k, value, window):
        for d in range(3, spectrum.MAX_DIMENSION + 1):
            lo, hi = window(d)
            assert list(optima._steps(d, lo, hi, c, k)) == [exact_step(d, ell, c, k) for ell in range(lo, hi)]

    @pytest.mark.parametrize("c, k", [(1, 1), (2, 2)], ids=("Q", "A_squared"))
    def test_filtered_steps_match_integers_far_past_the_window(self, monkeypatch, c, k):
        # Far out V(l+1)/V(l) is within about 1/l**2 of 1, inside the filter's
        # margin, so most of these steps are left to the exact branch.
        deferred = count_exact_steps(monkeypatch)
        for d in (3, 4, 5, 8, 20, 60, 200):
            for start in (m * 10**e for e in range(5, 13) for m in (1, 2, 5)):
                expected = [exact_step(d, ell, c, k) for ell in range(start, start + 4)]
                assert list(optima._steps(d, start, start + 4, c, k)) == expected, (d, start)
        assert len(deferred) > 100

    def test_exact_branch_runs_once_over_every_window(self, monkeypatch):
        # The doubles decide every step of both walks for d = 3..400 but one:
        # A**2 at d = 6, level 0, a true tie.
        deferred = count_exact_steps(monkeypatch)
        for c, k, _, window in STEP_FORMS:
            for d in range(3, spectrum.MAX_DIMENSION + 1):
                list(optima._steps(d, *window(d), c, k))
        assert deferred == [(6, 0, 2, 2)]

    @pytest.mark.parametrize(
        "steps, expected",
        [
            ([], (5, None)),
            ([1, 1], (7, None)),
            ([-1, -1], (5, None)),
            ([0], (5, 6)),
            ([1, 0], (6, 7)),
            ([1, 1, 0, -1, -1], (7, 8)),
            ([1, -1, -1, -1], (6, None)),
        ],
    )
    def test_rise_hold_fall_certifies(self, steps, expected):
        assert optima._window_argmax(5, 5 + len(steps), steps) == expected

    @pytest.mark.parametrize(
        "steps, message",
        [
            ([0, 0], "to 5, but level 7 is not below level 6"),
            ([1, 0, 1], "to 6, but level 8 is not below level 7"),
            ([1, -1, 1], "to 6, but level 8 is not below level 7"),
            ([-1, 0], "to 5, but level 7 is not below level 6"),
            ([0, -1, -1, 0, -1], "to 5, but level 9 is not below level 8"),
        ],
    )
    def test_other_step_patterns_are_refused(self, steps, message):
        with pytest.raises(CertificationError, match=message):
            optima._window_argmax(5, 5 + len(steps), steps)

    def test_equal_levels_keep_the_smallest_and_report_the_next_as_tie(self):
        # Levels 4 and 5 are both 1/3, written with different denominators.
        levels = [(4, 1, 3), (5, 2, 6), (6, 1, 4), (7, 3, 9)]
        assert walk(levels[:3]) == (4, 5)
        # Level 7 is 1/3 again: a second peak, so the levels do not rise and then fall.
        with pytest.raises(CertificationError, match="to 4, but level 7 is not below level 6"):
            walk(levels)

    def test_later_larger_level_clears_the_tie(self):
        # Levels 4 and 5 tie at 1/3, then level 6 (2/5) rises above them: no tie
        # is reported, because the walk refuses a hold that is followed by a rise.
        levels = [(4, 1, 3), (5, 2, 6), (6, 2, 5), (7, 4, 10)]
        for window in (levels, levels[:3]):
            with pytest.raises(CertificationError, match="to 4, but level 6 is not below level 5"):
                walk(window)

    def test_single_level_window(self):
        assert walk([(0, 5, 7)]) == (0, None)

    def test_one_peak_builds_no_pair(self):
        assert walk([(3, 1, 5), (4, 2, 5), (5, 4, 5), (6, 3, 5)]) == (5, None)
        assert walk([(3, 4, 5), (4, 2, 5), (5, 1, 5)]) == (3, None)
        assert walk([(3, 1, 5), (4, 2, 5), (5, 4, 5)]) == (5, None)

    def test_separate_peaks_are_refused(self):
        # The walk names the first level that does not fall; it never compares the two peaks.
        levels = [(0, 1, 9), (1, 5, 9), (2, 2, 9), (3, 1, 9), (4, 7, 9), (5, 3, 9), (6, 7, 9)]
        with pytest.raises(CertificationError, match="to 1, but level 4 is not below level 3"):
            walk(levels)

    @settings(max_examples=300, deadline=None)
    @given(level_lists())
    def test_argmax_matches_fraction_reference(self, levels):
        walk_certifies_or_refuses(levels)

    @settings(max_examples=300, deadline=None)
    @given(peaked_levels())
    def test_peaks_and_plateaus_match_fraction_reference(self, levels):
        walk_certifies_or_refuses(levels)

    @pytest.mark.parametrize(
        "first, second", [((3, 5), (9, 15)), ((9, 15), (3, 5)), ((1, 3), (3**90, 3**91))]
    )
    def test_tie_written_with_other_bit_lengths(self, first, second):
        # Two equal levels: the 0 step alone reports the tie.
        assert walk([(0, *first), (1, *second)]) == (0, 1)

    def test_5000_bit_levels_one_apart(self):
        rng = random.Random(5000)
        num, den = rng.getrandbits(4999) | 1 << 4999, rng.getrandbits(4989) | 1 << 4989
        assert walk([(0, num, den), (1, num + 1, den)]) == (1, None)
        assert walk([(0, num + 1, den), (1, num, den)]) == (0, None)
        assert walk([(0, num, den), (1, num + 1, den), (2, num + 1, den), (3, num, den)]) == (1, 2)
        for first, last in ((num, num + 1), (num + 1, num)):
            with pytest.raises(CertificationError, match="to 0, but level 2 is not below level 1"):
                walk([(0, first, den), (1, 1, den), (2, last, den)])

    def test_larger_level_after_a_tie(self):
        # A tie followed by a rise, in 5000-bit levels, is refused, not cleared.
        larger = ((3 << 5000) + 1, 5 << 5000)
        with pytest.raises(CertificationError, match="to 0, but level 2 is not below level 1"):
            walk([(0, 3, 5), (1, 9, 15), (2, *larger)])
        with pytest.raises(CertificationError, match="to 0, but level 2 is not below level 1"):
            walk([(0, 3, 5), (1, 9, 15), (2, *larger), (3, 6, 10)])

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
        # The tie is read off a 0 step: the only exact level built is the winner's reduction.
        assert calls == [(6, 0, 1)]

    @pytest.mark.parametrize("star", [optima.q_star, optima.a_star], ids=("Q", "A_squared"))
    def test_level_products_only_for_peaks(self, monkeypatch, star):
        # The walk builds no level value: the Pochhammer product runs once, for the winner's reduction.
        calls = []
        product = excess._pochhammer_int

        def counted(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(excess, "_pochhammer_int", counted)
        star(200)
        assert len(calls) == 1


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

    def test_brackets_pinned(self):
        # Both ends and both signs of every bracket, hashed: A's maximizer for
        # d = 5..100 and t* for d = 4..100, at widths 1/1000 and 1/10**6.
        located = (("a", optima.locate_a_maximizer, range(5, 101)), ("t", optima.locate_t_star, range(4, 101)))
        digest = hashlib.sha256()
        for width in (Fraction(1, 1000), Fraction(1, 10**6)):
            for name, locate, dims in located:
                for d in dims:
                    b = locate(d, width)
                    line = f"{name} {d} {width} {b.lower} {b.upper} {b.sign_at_lower} {b.sign_at_upper}\n"
                    digest.update(line.encode())
        assert digest.hexdigest() == "a18ea3d8a3769d4b049b196ef27c7df79fbbb932b8264f377cfc48e55d563551"


class TestCounterexampleScan:
    def test_d6_reported_point(self):
        record = check_counterexample_scan(6, [Fraction(111, 10)], expect_hits=True)
        assert record.verdict == "pass"
        assert (record.witness["hits"], record.witness["first_eta"]) == ("1", "111/10")
        assert float(record.witness["first_ratio"]) > 1
        assert abs(float(record.witness["first_ratio"]) - 1.3796) < 0.001

    def test_d3_at_eta3_is_empty(self):
        record = check_counterexample_scan(3, [Fraction(3)], expect_hits=False)
        assert (record.verdict, record.witness) == ("pass", {"hits": "0"})
        assert check_counterexample_scan(3, [Fraction(3)], expect_hits=True).verdict == "fail"

    def test_d3_just_above_threshold_hits(self):
        record = check_counterexample_scan(3, [Fraction(201, 100)], expect_hits=True)
        assert record.witness["hits"] == "1"
        # One eigenvalue against a tiny semiclassical volume.
        assert record.witness["first_ratio"] == repr(float(Fraction(1) / (Fraction(201, 100) ** 3 / 24)))

    def test_sorted_by_eta(self):
        # 5 is no hit; the smaller of the two hits is the witness, whatever the grid order.
        grid = [Fraction(21, 10), Fraction(5), Fraction(201, 100)]
        record = check_counterexample_scan(3, grid, expect_hits=True)
        assert (record.witness["hits"], record.witness["first_eta"]) == ("2", "201/100")
        assert record.witness["first_ratio"] == repr(float(excess.r_eval(3, Fraction(201, 100))))

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            check_counterexample_scan(3, [Fraction(2)], expect_hits=False)
        with pytest.raises(ValueError):
            check_counterexample_scan(3, [Fraction(5), Fraction(3, 2)], expect_hits=True)


class TestAZeroWindow:
    @pytest.mark.parametrize("d", range(5, 22, 2))
    def test_sign_windows_hold(self, d):
        record = check_a_zero_window(d)
        assert (record.verdict, record.witness) == ("pass", {"holds": "true"})

    def test_large_dimension_bracket_unchanged(self):
        # Bracket as a Descartes-certified localization produced it; d = 81 lies
        # past the dimensions the default identities sweep visits.
        assert check_a_zero_window(81).verdict == "pass"
        bracket = optima.locate_a_maximizer(81)
        assert (bracket.lower, bracket.upper) == (Fraction(132742419, 131072), Fraction(99556873, 98304))

    @pytest.mark.parametrize("d", [5, 9, 21])
    def test_window_missing_the_zero_fails(self, d, monkeypatch):
        bounds = optima.a_zero_bounds
        monkeypatch.setattr(optima, "a_zero_bounds", lambda d: tuple(end + d for end in bounds(d)))
        record = check_a_zero_window(d)
        assert (record.verdict, record.witness) == ("fail", {"holds": "false"})

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
