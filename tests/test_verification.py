"""Check records: verdicts, witnesses, replayability, suite wiring."""

import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coulomb_sharp import excess, optima, phase_space, spectrum
from coulomb_sharp import verification as V
from coulomb_sharp.exact import Polynomial, RationalFunctionPair, iroot
from coulomb_sharp.highprec import MAX_PRECISION, enclosure_bits


def riesz_mean_enclosure(d, n, den, gamma, bits):
    """``spectrum.riesz_means_int`` at the one d, in the signature of ``phase_space.lt_rhs_int``."""
    return spectrum.riesz_means_int((d,), n, den, gamma, bits)[0]


class TestLtGamma1:
    def test_d4_eta10(self):
        [record] = V.check_lt_gamma1_grid(4, range(10, 11), 1)
        assert record.verdict == "pass"
        assert record.witness["lhs"] == "8830/189"
        assert record.witness["rhs"] == "50"

    def test_trivial_below_threshold(self):
        [record] = V.check_lt_gamma1_grid(4, range(3, 4), 1)
        assert record.verdict == "pass"
        assert record.witness["lhs"] == "0"

    def test_d10_eta15(self):
        [record] = V.check_lt_gamma1_grid(10, range(15, 16), 1)
        assert record.verdict == "pass"

    def test_d3_skipped(self):
        [record] = V.check_lt_gamma1_grid(3, range(10, 11), 1)
        assert record.verdict == "skipped"
        assert record.ok


class TestD3Envelopes:
    def test_odd_integer_upper_equality(self):
        [record] = V.check_d3_envelopes_grid(range(5, 6), 1)
        assert record.verdict == "pass"
        assert "upper equality" in record.note
        assert record.witness["trace"] == record.witness["upper"] == "15/2"

    def test_even_integer_lower_equality(self):
        [record] = V.check_d3_envelopes_grid(range(4, 5), 1)
        assert record.verdict == "pass"
        assert "lower equality" in record.note
        assert record.witness["trace"] == "3"

    def test_threshold_all_zero(self):
        [record] = V.check_d3_envelopes_grid(range(2, 3), 1)
        assert record.verdict == "pass"
        assert record.witness["trace"] == "0"
        assert record.witness["lower"] == "0"

    @pytest.mark.parametrize(
        "eta, side, nudge",
        [(Fraction(5), "upper", -1), (Fraction(4), "lower", 1), (Fraction(77, 10), "upper", 1), (Fraction(77, 10), "lower", -1)],
        ids=("off-upper-equality", "off-lower-equality", "above-upper", "below-lower"),
    )
    def test_trace_moved_off_an_envelope_fails(self, monkeypatch, eta, side, nudge):
        # A trace 10**-9 outside an envelope, or inside but off the envelope it
        # must equal at integer eta, fails.
        column = range(eta.numerator, eta.numerator + 1), eta.denominator
        [record] = V.check_d3_envelopes_grid(*column)
        moved = Fraction(record.witness[side]) + Fraction(nudge, 10**9)
        monkeypatch.setattr(spectrum, "riesz_means_order1_int", lambda d, ns, den: [moved.as_integer_ratio()] * len(ns))
        assert [r.verdict for r in V.check_d3_envelopes_grid(*column)] == ["fail"]


class TestPhiEnvelope:
    def test_upper_equality_at_half(self):
        record = V.check_phi_envelope(1, Fraction(1, 2))
        assert record.verdict == "pass"
        assert record.witness["phi"] == record.witness["upper"] == "1/8"

    def test_lower_equality_at_one(self):
        record = V.check_phi_envelope(1, Fraction(1))
        assert record.verdict == "pass"
        assert record.witness["phi"] == record.witness["lower"] == "-1/3"

    def test_strict_interior(self):
        record = V.check_phi_envelope(3, Fraction(1, 4))
        assert record.verdict == "pass"
        assert record.witness["lower"] != record.witness["phi"] != record.witness["upper"]

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            V.check_phi_envelope(1, Fraction(2))


class TestAbelBound:
    def test_d4_ell0_is_equality(self):
        record = V.check_abel_bound(4, 0)
        assert record.verdict == "pass"
        assert record.witness["lhs"] == "4/3"
        assert record.witness["rhs"] == "4/3"

    @pytest.mark.parametrize("d,ell", [(5, 3), (10, 20)])
    def test_examples_pass(self, d, ell):
        assert V.check_abel_bound(d, ell).verdict == "pass"


class TestBigGBound:
    def test_d4(self):
        record = V.check_big_g_bound(4, 50)
        assert record.verdict == "pass"
        assert record.witness["g_squared_at_0"] == str(Fraction(361, 432) ** 2)

    @pytest.mark.parametrize("d", [5, 12])
    def test_squared_path(self, d):
        assert V.check_big_g_bound(d, 50).verdict == "pass"


class TestAppendixSums:
    @pytest.mark.parametrize("d", [3, 4, 25])
    def test_pass(self, d):
        record = V.check_appendix_sums(d)
        assert record.verdict == "pass"
        if d == 3:
            assert record.witness["sum1"] == "2"


class TestGeneralGamma:
    def test_exact_order_one(self):
        # Order 1 is decided by enclosures like every other order; the exact
        # order-1 kernels are the oracle.  eta = n/6 with n up to 12d + 12
        # meets empty spectra (eta <= d - 1) and points whose pair n/6 is not
        # reduced; the kernels take that pair as it stands.
        for d in range(3, 13):
            for n in range(1, 12 * d + 13, 5):
                record = V.check_lt_general_gamma(d, Fraction(n, 6), Fraction(1))
                [(lhs_num, lhs_den)] = spectrum.riesz_means_order1_int(d, range(n, n + 1), 6)
                rhs_num, rhs_den = phase_space.lt_rhs_order_int(d, n, 6, 1)
                assert record.verdict == "pass"
                assert (record.verdict == "pass") == (lhs_num * rhs_den < rhs_num * lhs_den)
                for side, exact in (("lhs", Fraction(lhs_num, lhs_den)), ("rhs", Fraction(rhs_num, rhs_den))):
                    assert abs(Fraction(record.witness[side]) - exact) <= exact / 10**24, (d, n, side)

    def test_half_odd_gamma_exact_rhs(self):
        record = V.check_lt_general_gamma(5, Fraction(10), Fraction(3, 2))
        assert record.verdict == "pass"
        assert record.note == "exact right-hand side"

    def test_out_of_theorem_range(self):
        with pytest.raises(ValueError, match="gamma >= 1"):
            V.check_lt_general_gamma(6, Fraction(111, 10), Fraction(0))

    def test_divergent_range(self):
        with pytest.raises(ValueError, match="diverges"):
            V.check_lt_general_gamma(4, Fraction(10), Fraction(2))

    def test_generic_gamma_high_precision(self):
        record = V.check_lt_general_gamma(6, Fraction(14), Fraction(4, 3))
        assert record.verdict == "pass"

    @staticmethod
    def _sweep_twice(monkeypatch, gamma):
        # A sweep over d = 7, 8 run twice; returns the calls of the integer
        # Gamma kernel and of mpmath.iv.gamma.  The Gamma ratio of the
        # right-hand side is one compute per (d, gamma, bits), whichever kernel
        # encloses the Riesz mean (roots or log and exp); a repeated sweep computes none.
        kernel, interval = [], []
        gamma_int, interval_gamma = phase_space.gamma_int, mpmath.iv.gamma
        monkeypatch.setattr(phase_space, "gamma_int", lambda s, bits: kernel.append(s) or gamma_int(s, bits))
        monkeypatch.setattr(mpmath.iv, "gamma", lambda x: interval.append(x) or interval_gamma(x))
        phase_space.gamma_ratio_int.cache_clear()
        for _ in range(2):
            for d in (7, 8):
                for n in range(96, 104):
                    record = V.check_lt_general_gamma(d, Fraction(n, 8), gamma)
                    assert record.verdict == "pass" and record.witness["used_precision"] == "30"
        assert phase_space.gamma_ratio_int.cache_info().misses == 2
        return kernel, interval

    def test_generic_gamma_rhs_computed_once(self, monkeypatch):
        # q-th-root kernel for the Riesz mean, integer Gamma kernel for the
        # right-hand side: Gamma(gamma+1), Gamma(d/2-gamma) and Gamma(d/2)
        # reduce to s = 4/3, 7/6, 3/2 at d = 7 and 4/3, 5/3, 1 at d = 8.
        kernel, interval = self._sweep_twice(monkeypatch, Fraction(7, 3))
        assert kernel == [Fraction(s) for s in ("4/3", "7/6", "3/2", "4/3", "5/3", "1")]
        assert interval == []

    def test_validated_path_rhs_computed_once(self, monkeypatch):
        # Log and exp for the Riesz mean (the denominator is above
        # MAX_ROOT_DEGREE) and the same integer Gamma kernel for the right-hand
        # side: s = 133/100, 117/100, 3/2 at d = 7 and 133/100, 167/100, 1 at d = 8.
        kernel, interval = self._sweep_twice(monkeypatch, Fraction(233, 100))
        assert kernel == [Fraction(s) for s in ("133/100", "117/100", "3/2", "133/100", "167/100", "1")]
        assert interval == []

    # Both Riesz kernels are run: q-th roots at 7/3 (and 3/2), log and exp
    # at 233/100; the right-hand side is forced through phase_space.lt_rhs_int.

    @pytest.mark.parametrize(
        "gamma, note",
        [(Fraction(3, 2), "exact right-hand side"), (Fraction(7, 3), ""), (Fraction(233, 100), "")],
        ids=("3/2", "7/3", "233/100"),
    )
    def test_rhs_below_lhs_fails(self, monkeypatch, gamma, note):
        monkeypatch.setattr(phase_space, "lt_rhs_int", lambda *args: (1, 1, 0))
        record = V.check_lt_general_gamma(8, Fraction(12), gamma)
        assert record.verdict == "fail" and not record.ok
        assert record.witness["rhs"] == "1.0"
        assert record.witness["used_precision"] == "30"
        assert record.note == note

    @pytest.mark.parametrize("gamma", [Fraction(7, 3), Fraction(233, 100)], ids=("7/3", "233/100"))
    @pytest.mark.parametrize("sign, verdict", [(1, "pass"), (-1, "fail")], ids=("above", "below"))
    def test_near_tie_escalates_until_the_enclosures_are_disjoint(self, monkeypatch, gamma, sign, verdict):
        # A right-hand side 2**-300 of the value above (below) the left-hand
        # side overlaps it at 30 and 60 digits (167 and 266 bits) and
        # separates at 120 (465 bits); the witnesses are read at 120 digits.
        def shifted(d, n, den, gamma, bits):
            lo, hi, k = riesz_mean_enclosure(d, n, den, gamma, bits)
            return lo + sign * (lo >> 300), hi + sign * (lo >> 300), k

        monkeypatch.setattr(phase_space, "lt_rhs_int", shifted)
        record = V.check_lt_general_gamma(8, Fraction(12), gamma)
        assert record.verdict == verdict
        assert record.witness["used_precision"] == "120"
        assert record.params["precision"] == "30"

    def test_tie_climbs_every_rung_of_the_ladder(self, monkeypatch):
        rungs = []

        def tie(d, n, den, gamma, bits):
            rungs.append(bits)
            return riesz_mean_enclosure(d, n, den, gamma, bits)

        monkeypatch.setattr(phase_space, "lt_rhs_int", tie)
        V.check_lt_general_gamma(8, Fraction(12), Fraction(7, 3))
        assert rungs == [enclosure_bits(p) for p in (30, 60, 120, 240, 480, 960, 1000)]

    @pytest.mark.parametrize("gamma", [Fraction(7, 3), Fraction(233, 100)], ids=("7/3", "233/100"))
    def test_tie_is_inconclusive_at_the_cap(self, monkeypatch, gamma):
        # Both Riesz kernels: q-th roots at 7/3, log and exp at 233/100.
        monkeypatch.setattr(phase_space, "lt_rhs_int", riesz_mean_enclosure)
        record = V.check_lt_general_gamma(8, Fraction(12), gamma)
        assert record.verdict == "inconclusive" and not record.ok
        assert record.witness["lhs"] == record.witness["rhs"]
        assert record.witness["used_precision"] == str(MAX_PRECISION) == "1000"

    @staticmethod
    def _assert_tie_is_inconclusive(monkeypatch, gamma, precision):
        # A ladder of one rung: start and cap both at ``precision``, so the
        # cap test must come before any doubling.
        monkeypatch.setattr(V, "DEFAULT_PRECISION", precision)
        monkeypatch.setattr(V, "MAX_PRECISION", precision)
        monkeypatch.setattr(phase_space, "lt_rhs_int", riesz_mean_enclosure)
        record = V.check_lt_general_gamma(8, Fraction(12), gamma)
        assert record.verdict == "inconclusive" and not record.ok
        assert record.witness["lhs"] == record.witness["rhs"]
        assert record.witness["used_precision"] == str(precision)

    @pytest.mark.parametrize("precision", [20, 30], ids=("20", "30"))
    def test_tie_is_inconclusive_at_the_requested_precision(self, monkeypatch, precision):
        self._assert_tie_is_inconclusive(monkeypatch, Fraction(7, 3), precision)

    @pytest.mark.parametrize("precision", [20, 30], ids=("20", "30"))
    def test_tie_is_inconclusive_on_the_validated_path(self, monkeypatch, precision):
        # Log-and-exp kernel for the Riesz mean (denominator above MAX_ROOT_DEGREE).
        self._assert_tie_is_inconclusive(monkeypatch, Fraction(233, 100), precision)

    @pytest.mark.parametrize("gamma", [Fraction(7, 3), Fraction(233, 100)], ids=("7/3", "233/100"))
    def test_sweep_records_are_the_per_point_records(self, monkeypatch, gamma):
        # Even d: a right-hand side 2**-300 of the value above the left-hand
        # side, which the first rung cannot tell apart and 120 digits can;
        # odd d: one unit above, decided at the first rung.  The sweep's
        # batched first rung must give every point the record the ladder
        # alone gives it.
        def rhs(d, n, den, gamma, bits):
            lo, hi, k = riesz_mean_enclosure(d, n, den, gamma, bits)
            gap = lo >> 300 if d % 2 == 0 else hi - lo + 1
            return lo + gap, hi + gap, k

        monkeypatch.setattr(phase_space, "lt_rhs_int", rhs)
        d_values, etas = [8, 5, 6], [Fraction(12), Fraction(97, 8)]
        records = V.check_lt_sweep(d_values, range(96, 98), 8, gamma)
        assert records == [V.check_lt_general_gamma(d, eta, gamma) for d in d_values for eta in etas]
        assert [r.witness["used_precision"] for r in records] == ["120", "120", "30", "30", "120", "120"]
        assert {r.verdict for r in records} == {"pass"}

    def test_sweep_takes_one_root_per_distinct_level(self, monkeypatch):
        # d = 5, 7, 9 at eta = 20 share m = 4, 6, ..., 18: eight roots, where
        # one row per dimension takes 8 + 7 + 6, as would a first rung taken
        # again per point on top of the batch.
        roots = []

        def counting(n, q):
            roots.append((n, q))
            return iroot(n, q)

        monkeypatch.setattr(spectrum, "iroot", counting)
        records = V.check_lt_sweep([5, 7, 9], range(20, 21), 1, Fraction(7, 3))
        assert len(roots) == len(set(roots)) == len(range(4, 20, 2)) == 8
        assert [(r.verdict, r.witness["used_precision"]) for r in records] == [("pass", "30")] * 3

    def test_enclosures_disjoint_by_less_than_the_margin_decide(self, monkeypatch):
        # A right-hand side one part in 10**45 above the left-hand side passes
        # at 30 digits, where a margin of ten units in the last digit would
        # call it a tie.
        def just_above(d, n, den, gamma, bits):
            lo, hi, k = riesz_mean_enclosure(d, n, den, gamma, bits)
            return hi + (hi >> 150), hi + (hi >> 150), k

        monkeypatch.setattr(phase_space, "lt_rhs_int", just_above)
        record = V.check_lt_general_gamma(8, Fraction(12), Fraction(7, 3))
        assert record.verdict == "pass" and record.witness["used_precision"] == "30"
        assert record.witness["lhs"] == record.witness["rhs"]


class TestCoefficients:
    @pytest.mark.parametrize(
        "change, verdict",
        [
            ("none", "pass"),
            ("denominator", "fail"),
            ("term-above-top", "fail"),
            ("top-term-dropped", "fail"),
            ("second", "fail"),
        ],
    )
    def test_h_form_compared_in_full(self, monkeypatch, change, verdict):
        # Without an explicit degree == top test, a dropped top term must still fail through its zero lead.
        d, a = 7, Fraction(1, 2)
        pair = excess.h_a_as_ratfun(d, a)
        coefficients, den = list(pair.numerator.coefficients), pair.denominator
        if change == "denominator":
            den = den * Polynomial.from_coefficients([1, 1])
        elif change == "term-above-top":
            coefficients.append(Fraction(1))
        elif change == "top-term-dropped":
            coefficients.pop()
        elif change == "second":
            coefficients[-2] += 1
        wrong = RationalFunctionPair(Polynomial.from_coefficients(coefficients), den)
        monkeypatch.setattr(excess, "h_a_as_ratfun", lambda *args: wrong)
        record = V.check_coefficients_h(d, a)
        assert record.verdict == verdict
        assert record.witness["degree"] == str(wrong.numerator.degree)


class TestHockeyStick:
    def test_reads_the_production_count(self, monkeypatch):
        count = spectrum.level_count
        monkeypatch.setattr(spectrum, "level_count", lambda d, ell: count(d, ell) + (ell == 60))
        assert V.check_hockey_stick(5, 59).verdict == "pass"
        assert V.check_hockey_stick(5, 60).verdict == "fail"

    def test_sweep_reads_the_same_count(self, monkeypatch):
        # A sweep's enclosure is [lo, lo + count]: the count it adds is level_count's,
        # the closed form the check above holds to, not a second sum of multiplicities.
        # At eta = 125, d = 5 tops out at level 60 and d = 7 at level 59.
        count, gamma, bits = spectrum.level_count, Fraction(7, 3), enclosure_bits(30)
        before = spectrum.riesz_means_int([5, 7], 125, 1, gamma, bits)
        spectrum._weights.cache_clear()
        monkeypatch.setattr(spectrum, "level_count", lambda d, ell: count(d, ell) + (ell == 60))
        try:
            after = spectrum.riesz_means_int([5, 7], 125, 1, gamma, bits)
        finally:
            spectrum._weights.cache_clear()
        assert after[0][1] - after[0][0] == before[0][1] - before[0][0] + 1
        assert after[1] == before[1]


class TestAsymptotics:
    def test_degenerate_range_trend_vacuous(self):
        record = V.check_asymptotics(10, 10)
        assert record.verdict == "pass"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            V.check_asymptotics(5, 20)
        with pytest.raises(ValueError):
            V.check_asymptotics(50, 500)

    def test_residuals_exact_for_even_d(self):
        residual_q, residual_a = V.asymptotic_residuals(50)
        assert isinstance(residual_q, Fraction)
        assert 0 < abs(residual_a) < float(V.ASYMPTOTIC_RESIDUAL_BOUND)


class TestCounterexampleAdvisory:
    def test_advisory_passes_with_note(self):
        record = V.check_counterexample_advisory()
        assert record.verdict == "pass"
        assert record.witness["count"] == "112"
        assert "121" in record.note
        assert "81.81" in record.note


def star(d, value_squared, value=None, argmax=0):
    """A hand-built window maximum; the clr comparisons read d, the values and the argmax."""
    return optima.StarResult(d, argmax, value_squared, value, (0, 1))


class TestStarComparisons:
    def test_q_star_equal_to_one_fails(self):
        # Q* > 1 is strict: a maximum of exactly the semiclassical constant does not beat it.
        record = V.check_q_star_exceeds_one(star(7, Fraction(1), Fraction(1), argmax=3))
        assert record.verdict == "fail"
        assert record.params == {"d": "7"}
        assert record.witness == {"value": "1.0", "argmax": "3"}

    def test_a_squared_equal_to_q_squared_fails(self):
        q = star(9, Fraction(9, 4), Fraction(3, 2))
        record = V.check_a_exceeds_q(q, star(9, Fraction(9, 4)))
        assert record.verdict == "fail"
        assert record.params == {"d": "9"}
        assert record.witness == {"a_star_squared": "2.25", "q_star_squared": "2.25"}

    @pytest.mark.parametrize("d", [3, 6, 7, 60])
    def test_records_on_built_maxima_match_the_suite(self, d):
        q, a = optima.q_star(d), optima.a_star(d)
        ids = ("q-star-exceeds-one", "a-exceeds-q")
        suite = [r.to_json() for r in V.run_suite("clr", d_range=(d, d)) if r.check_id in ids]
        assert suite == [V.check_q_star_exceeds_one(q).to_json(), V.check_a_exceeds_q(q, a).to_json()]
        assert all('"verdict":"pass"' in line for line in suite)

    def test_clr_builds_each_window_maximum_once_per_d(self, monkeypatch):
        calls = {"q_star": 0, "a_star": 0}
        for name in calls:

            def counted(d, name=name, build=getattr(optima, name)):
                calls[name] += 1
                return build(d)

            monkeypatch.setattr(optima, name, counted)
        V.run_suite("clr", d_range=(3, 60))
        # q-star-value builds Q* at d = 3, 4, 5; each d of 3..60 then builds Q* and A* once for both comparisons.
        assert calls == {"q_star": 61, "a_star": 58}


# Report text that json.dumps must escape: quotes, backslashes, control
# characters, non-ASCII, U+2028/U+2029, astral characters and lone surrogates.
report_text = st.text(
    st.one_of(
        st.sampled_from('"\\/ az09\x7f\u2028\u2029'),
        st.characters(max_codepoint=0x1F),
        st.characters(min_codepoint=0x80, max_codepoint=0xFFFF),
        st.characters(min_codepoint=0x10000),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"]),
    ),
    max_size=12,
)
report_items = st.dictionaries(report_text, report_text, max_size=4)


class TestRecords:
    @settings(max_examples=200, deadline=None)
    @given(report_text, report_items, report_text, report_items, report_text)
    @example("", {}, "", {}, "")
    def test_to_json_matches_json_dumps(self, check_id, params, verdict, witness, note):
        record = V.CheckRecord(check_id, params, verdict, witness, note)
        payload = {
            "check_id": check_id,
            "params": dict(sorted(params.items())),
            "verdict": verdict,
            "witness": dict(sorted(witness.items())),
            "note": note,
        }
        assert record.to_json() == json.dumps(payload, separators=(",", ":"))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**40), 10**40), st.integers(1, 10**40), st.integers(1, 2**200))
    @example(0, 1, 1)
    @example(0, 7, 3**50)
    @example(-6, 4, 1)
    @example(-5, 1, 1)
    @example(5, 1, 2**300)
    @example(-(2**100) * 3, 2**100 * 9, 10**60)
    def test_ratio_text_matches_fraction(self, num, den, factor):
        # Unreduced pairs num * factor / den * factor share the factor at least.
        assert V._ratio_text(num * factor, den * factor) == str(Fraction(num * factor, den * factor))

    def test_json_key_order(self):
        [record] = V.check_lt_gamma1_grid(4, range(10, 11), 1)
        payload = json.loads(record.to_json())
        assert list(payload) == ["check_id", "params", "verdict", "witness", "note"]

    def test_replay_byte_identical(self):
        first = V.check_d3_envelopes_grid(range(77, 78), 10)[0].to_json()
        second = V.check_d3_envelopes_grid(range(77, 78), 10)[0].to_json()
        assert first == second

    def test_jsonl_roundtrip(self):
        records = [V.check_appendix_sums(d) for d in (3, 4, 5)]
        text = V.records_to_jsonl(records)
        lines = text.splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["verdict"] == "pass" for line in lines)

    def test_fail_records_carry_witnesses(self):
        # Manufacture a failing comparison through the generic helper.
        record = V._record("demo", {"x": 1}, False, {"lhs": Fraction(2), "rhs": Fraction(1)})
        assert record.verdict == "fail"
        assert record.witness == {"lhs": "2", "rhs": "1"}
        assert not record.ok


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            V.run_suite("nope")

    def test_clr_suite_green(self):
        records = V.run_suite("clr", d_range=(3, 12))
        assert records and all(r.ok for r in records)

    def test_identities_suite_green_small_range(self):
        records = V.run_suite("identities", d_range=(3, 8))
        assert records and all(r.ok for r in records)

    def test_asymptotics_suite_clips(self):
        records = V.run_suite("asymptotics", d_range=(10, 12))
        assert len(records) == 1 and records[0].ok

    def test_suite_records_are_deterministic(self):
        first = V.records_to_jsonl(V.run_suite("clr", d_range=(3, 6)))
        second = V.records_to_jsonl(V.run_suite("clr", d_range=(3, 6)))
        assert first == second
