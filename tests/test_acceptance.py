"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion with its runtime.  Every comparison below is exact unless the
criterion itself is about high-precision residuals.
"""

import math
import random
import time
from fractions import Fraction

from coulomb_sharp import excess, optima, verification
from coulomb_sharp.cli import figure_f_plot, figure_lt_d3, figure_rd_vs_qd
from coulomb_sharp.exact import sturm_count
from coulomb_sharp.phase_space import clr_rhs
from coulomb_sharp.spectrum import (
    counting_function,
    multiplicity,
    riesz_mean,
    riesz_means_order1_int,
)


class _Stopwatch:
    def __init__(self, limit_seconds: float):
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(n: int, watch: _Stopwatch, text: str) -> None:
    assert watch.elapsed < watch.limit, f"criterion {n} exceeded {watch.limit}s ({watch.elapsed:.1f}s)"
    print(f"PASS criterion {n} ({watch.elapsed:.2f}s): {text}")


def test_criterion_1_clr_counterexample():
    with _Stopwatch(1.0) as watch:
        d, eta = 6, Fraction(111, 10)
        count = counting_function(d, eta)
        assert count == 112
        semiclassical = clr_rhs(d, eta)
        assert semiclassical == Fraction(111**6, 10**6 * 23040)
        assert abs(float(semiclassical) - 81.18) < 0.005
        ratio = Fraction(count) / semiclassical
        assert ratio > 1
        advisory = verification.check_counterexample_advisory()
        assert advisory.verdict == "pass"
        assert "121" in advisory.note and "81.81" in advisory.note
    _report(1, watch, f"count 112 vs semiclassical ~81.18, ratio {float(ratio):.4f} > 1 (advisory noted)")


def test_criterion_2_sharp_constants():
    with _Stopwatch(10.0) as watch:
        assert optima.q_star(3).value == 3
        assert optima.q_star(4).value == Fraction(64, 27)
        assert optima.q_star(5).value == Fraction(15, 8)
        for d in range(3, 61):
            assert optima.q_star(d).value > 1
    _report(2, watch, "q* exact at d=3,4,5 and q* > 1 for all d in [3,60]")


def test_criterion_3_maximizer_localization():
    with _Stopwatch(120.0) as watch:
        for d in range(4, 61):
            lo, hi = optima.t_star_bounds(d)
            bracket = optima.locate_t_star(d, Fraction(1, 1000))
            assert lo < bracket.lower < bracket.upper < hi
            numerator = excess.f_as_ratfun(d).numerator
            assert sturm_count(numerator, bracket.lower, bracket.upper) == 1
    _report(3, watch, "unique zero of f Sturm-certified strictly inside its window, d in [4,60]")


def test_criterion_4_coefficient_identities():
    with _Stopwatch(60.0) as watch:
        for d in range(3, 61):
            assert verification.check_coefficients_f(d).verdict == "pass"
        for d in range(6, 41, 2):
            assert verification.check_coefficients_g_even(d).verdict == "pass"
        for d in range(5, 40, 2):
            for a in (Fraction(1, 2), excess.squeeze_coefficient(d)):
                assert verification.check_coefficients_h(d, a).verdict == "pass"
    _report(4, watch, "top-two coefficients exact for f (d<=60), g (even d<=40), h_a (odd d<=39)")


def test_criterion_5_lt_gamma1_sweep():
    with _Stopwatch(120.0) as watch:
        checked = 0
        for d in range(4, 11):
            for k in range(1, 401):
                eta = Fraction(d - 1) + Fraction(k, 10)
                ns = range(eta.numerator, eta.numerator + 1)
                [record] = verification.check_lt_gamma1_grid(d, ns, eta.denominator)
                assert record.verdict == "pass", record.to_json()
                checked += 1
    _report(5, watch, f"improved order-1 bound exact on {checked} (d, eta) pairs, zero violations")


def _d3_trace(eta: int) -> Fraction:
    """The order-1 mean at d = 3 and integer eta, from the kernel on the unreduced pair (3 eta, 3),
    checked against the paper's closed form (l+1) eta^2/4 - (l+1)(l+2)(2l+3)/6, l = ceil(eta/2) - 2."""
    [pair] = riesz_means_order1_int(3, range(3 * eta, 3 * eta + 1), 3)
    trace = Fraction(*pair)
    ell = math.ceil(eta / 2) - 2
    assert trace == Fraction((ell + 1) * eta**2, 4) - Fraction((ell + 1) * (ell + 2) * (2 * ell + 3), 6)
    return trace


def test_criterion_6_d3_envelopes():
    with _Stopwatch(30.0) as watch:
        for k in range(201, 2001):
            eta = Fraction(k, 100)
            [record] = verification.check_d3_envelopes_grid(range(eta.numerator, eta.numerator + 1), eta.denominator)
            assert record.verdict == "pass", record.to_json()
        for eta in range(3, 20, 2):
            trace = _d3_trace(eta)
            upper = Fraction(eta) ** 3 / 12 - Fraction(eta) ** 2 / 8 + Fraction(
                2 * math.ceil(Fraction(eta, 2)) - 1, 24
            )
            assert trace == upper
        for eta in range(4, 21, 2):
            trace = _d3_trace(eta)
            lower = Fraction(eta) ** 3 / 12 - Fraction(eta) ** 2 / 8 - Fraction(eta, 12)
            assert trace == lower
    _report(6, watch, "containment on the full grid; equality at odd (upper) and even (lower) eta")


def test_criterion_7_g_function():
    with _Stopwatch(60.0) as watch:
        for d in range(4, 13):
            previous = None
            for ell in range(201):
                value = Fraction(*excess.big_g_squared_int(d, ell, 1))
                assert value <= 1
                if previous is not None:
                    assert previous < value
                previous = value
        for d in range(4, 61):
            quadratic = excess.big_g_monotonicity_quadratic(d)
            assert all(c >= 0 for c in quadratic.coefficients)
    _report(7, watch, "G**2 <= 1 and strictly increasing (d in [4,12], l <= 200); certificate coefficients >= 0")


def test_criterion_8_asymptotics():
    with _Stopwatch(300.0) as watch:
        record = verification.check_asymptotics(50, 200)
        assert record.verdict == "pass", record.to_json()
        bound = float(verification.ASYMPTOTIC_RESIDUAL_BOUND)
        assert float(record.witness["max_residual_q"]) <= bound
        assert float(record.witness["max_residual_a"]) <= bound
        assert record.witness["trend_ok"] == "true"
    _report(
        8,
        watch,
        f"d^3 residuals bounded by {bound} with non-increasing trend over d in [50,200]",
    )


def test_criterion_9_identity_suite():
    with _Stopwatch(60.0) as watch:
        rng = random.Random(20240814)
        for m in range(1, 41):
            for _ in range(100):
                t = Fraction(rng.randint(-500, 500), rng.randint(1, 50))
                assert m * excess.pochhammer_eval(m - 1, t) == excess.pochhammer_eval(
                    m, t
                ) - excess.pochhammer_eval(m, t - 1)
        for m in range(1, 21):
            total = Fraction(0)
            for ell in range(51):
                total += excess.pochhammer_eval(m - 1, ell)
                assert m * total == excess.pochhammer_eval(m, ell)
        for d in range(3, 26):
            assert verification.check_appendix_sums(d).verdict == "pass"
        for d in range(3, 31):
            assert verification.check_hockey_stick(d, 60).verdict == "pass"
            assert verification.check_multiplicity_formulas(d, 60).verdict == "pass"
        for d in range(3, 13):
            assert excess.logderiv_check("Q", d)
        for d in range(3, 11):
            assert excess.logderiv_check("A_squared", d)
    _report(9, watch, "recursions, telescoping, appendix sums, cumulative counts, log-derivative identities")


def _columns(rows):
    """Header name -> column of cells, from a figure's header-then-rows list."""
    header, *data = rows
    return dict(zip(header, zip(*data)))


def test_criterion_10_figure_data():
    with _Stopwatch(30.0) as watch:
        lt = _columns(figure_lt_d3(Fraction(1, 100)))
        etas = [Fraction(v) for v in lt["eta[Lambda=1]"]]
        middles = [Fraction(v) for v in lt["trace_excess[Lambda]"]]
        lowers = [Fraction(v) for v in lt["lower_envelope[Lambda]"]]
        uppers = [Fraction(v) for v in lt["upper_envelope[Lambda]"]]
        upper_touches = lower_touches = 0
        for eta, middle, lower, upper in zip(etas, middles, lowers, uppers):
            assert lower <= middle <= upper
            if middle == upper:
                upper_touches += 1
            if middle == lower:
                lower_touches += 1
        assert upper_touches >= 9  # eta = 3, 5, ..., 19
        assert lower_touches >= 9  # eta = 4, 6, ..., 20

        rd = _columns(figure_rd_vs_qd(Fraction(1, 100)))
        for d in (5, 6):
            q_col = [Fraction(v) for v in rd[f"q_d{d}[ratio]"]]
            r_col = [Fraction(v) for v in rd[f"r_d{d}[ratio]"]]
            assert all(r <= q for q, r in zip(q_col, r_col))

        fp = _columns(figure_f_plot(Fraction(1, 100)))
        ts = [Fraction(v) for v in fp["t[Lambda=1]"]]
        values = [Fraction(v) for v in fp["f6[1/t]"]]
        step = Fraction(1, 100)
        flips = 0
        for i in range(1, len(ts)):
            if ts[i] - ts[i - 1] == step and values[i - 1] != 0 and values[i] != 0:
                if (values[i - 1] > 0) != (values[i] > 0):
                    flips += 1
        assert flips == 4
    _report(10, watch, "figure rows: envelopes contained and touched, R <= Q, exactly 4 sign changes")
