"""Machine checks for every inequality and identity of the analysis.

Each check produces a CheckRecord carrying its exact inputs and both-side
witnesses.  Checks over rationals are replayable bit for bit.  The strict
order-gamma inequality is decided by enclosures for every order, gamma = 1
included: both sides are enclosures narrower than 10**-(precision + 20) of
their values, and only disjoint enclosures decide (``exact.dyadic_less``).
The precision starts at DEFAULT_PRECISION digits and doubles while the
enclosures overlap, up to MAX_PRECISION; the witnesses are 25-digit strings
of the lower ends at the deciding precision, and a comparison still
undecided at the cap is 'inconclusive' (the CLI treats it as failure).
A config sweep (``check_lt_sweep``) takes its first rung one eta at a time
for all dimensions, so they share ``spectrum.riesz_means_int``'s root rows
(floor(2**K y) >> s = floor(2**(K-s) y) keeps every enclosure's bytes), and
writes its records d outer; a point left undecided there climbs the same
ladder in ``check_lt_general_gamma``.

Every param and witness value is stored as text.  A report line
(``CheckRecord.to_json``) is written by hand, without ``json.dumps``, in the
bytes ``json.dumps(payload, separators=(",", ":"))`` would give: the keys
check_id, params, verdict, witness and note in that order, ``params`` and
``witness`` sorted by key, no spaces, ASCII only with ``\\uXXXX`` escapes.
Exact witnesses built from integer pairs are written as ``str(Fraction)``
writes them, reduced by one gcd (``_ratio_text``).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Sequence

from . import excess, optima, phase_space, spectrum
from .exact import (
    CertificationError,
    RationalFunctionPair,
    RationalLike,
    as_rational,
    dyadic_less,
    expand_linear_factors,
)
from .highprec import DEFAULT_PRECISION, MAX_PRECISION, enclosure_bits, witness_digits
from .spectrum import MAX_DIMENSION

# Residual bound for the d**-3 tail of the expansions of the sharp constants:
# twice the largest |d^3 * residual| observed on the calibration range
# d in [50, 400] (19.3788 for the Q sequence, 5.2624 for the A sequence,
# both peaking at d = 50).
ASYMPTOTIC_RESIDUAL_BOUND = Fraction("38.7576")

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
INCONCLUSIVE = "inconclusive"


def _fmt(value) -> str:
    """The report text of a check value: ``true``/``false`` for a bool, else ``str`` (``repr`` for a float)."""
    return ("true" if value else "false") if type(value) is bool else str(value)


def _ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, reduced by one gcd without building the Fraction."""
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def _json_object(items: dict[str, str]) -> str:
    """A JSON object of string values, keys sorted, compact and ASCII as ``json.dumps`` writes it."""
    return "{" + ",".join([_quote(k) + ":" + _quote(v) for k, v in sorted(items.items())]) + "}"


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    params: dict[str, str]
    verdict: str
    witness: dict[str, str]
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, SKIPPED)

    def to_json(self) -> str:
        """One report line, in the bytes the module docstring fixes."""
        return (
            f'{{"check_id":{_quote(self.check_id)},"params":{_json_object(self.params)},'
            f'"verdict":{_quote(self.verdict)},"witness":{_json_object(self.witness)},"note":{_quote(self.note)}}}'
        )


def _record(check_id: str, params: dict, ok: bool | str, witness: dict, note: str = "") -> CheckRecord:
    """The one CheckRecord constructor; ``ok`` is a verdict string or a bool (pass/fail)."""
    return CheckRecord(
        check_id,
        {k: _fmt(v) for k, v in params.items()},
        ok if isinstance(ok, str) else PASS if ok else FAIL,
        {k: _fmt(v) for k, v in witness.items()},
        note,
    )


# -- order-1 inequality checks -------------------------------------------------


def check_lt_gamma1(d: int, eta: RationalLike) -> CheckRecord:
    """Improved order-1 bound: trace <= (semiclassical - eta**2/(4(d-1)(d-2)**2))_+."""
    eta = as_rational(eta)
    params = {"d": d, "eta": eta}
    if d == 3:
        return _record(
            "lt-gamma1", params, SKIPPED, {}, "the improved order-1 bound does not hold for d = 3"
        )
    n, den = eta.numerator, eta.denominator
    lhs_num, lhs_den = spectrum.riesz_mean_order1_int(d, n, den)
    # rhs - correction = a/b - n^2 / (c den^2) with a/b the order-1 right-hand
    # side and c = 4(d-1)(d-2)^2, over one positive denominator.
    a, b = phase_space.lt_rhs_order_int(d, n, den, 1)
    c = 4 * (d - 1) * (d - 2) ** 2
    rhs_num = max(0, a * c * den * den - n * n * b)
    rhs_den = b * c * den * den
    return _record(
        "lt-gamma1",
        params,
        lhs_num * rhs_den <= rhs_num * lhs_den,
        {"lhs": _ratio_text(lhs_num, lhs_den), "rhs": _ratio_text(rhs_num, rhs_den)},
    )


def check_d3_envelopes(eta: RationalLike) -> CheckRecord:
    """d=3 envelopes with leading term, second-order correction and oscillation.

    Also asserts the sharpness pattern: equality on the upper side at odd
    integer eta > 2 and on the lower side at even integer eta.
    """
    eta = as_rational(eta)
    n, den = eta.numerator, eta.denominator
    trace = spectrum.riesz_mean_order1_int(3, n, den)
    (lead_num, lead_den), *terms = spectrum.d3_envelope_terms_int(n, den)
    # (lead + term)_+ over the positive denominator lead_den * term_den.
    lower, upper = ((max(0, lead_num * t_den + t_num * lead_den), lead_den * t_den) for t_num, t_den in terms)
    # The signs of trace - lower and upper - trace, all denominators positive.
    above_lower = trace[0] * lower[1] - lower[0] * trace[1]
    below_upper = upper[0] * trace[1] - trace[0] * upper[1]
    ok = above_lower >= 0 and below_upper >= 0
    note = ""
    if den == 1:
        if n % 2 == 1 and n > 2:
            ok = ok and below_upper == 0
            note = "upper equality at odd integer eta"
        elif n % 2 == 0:
            ok = ok and above_lower == 0
            note = "lower equality at even integer eta"
    witness = {"lower": _ratio_text(*lower), "trace": _ratio_text(*trace), "upper": _ratio_text(*upper)}
    return _record("d3-envelope", {"eta": eta}, ok, witness, note)


def check_phi_envelope(m: int, eps: RationalLike) -> CheckRecord:
    """Oscillating third term stays within the d = 3 envelope corrections at eta = 2m+2eps."""
    eps = as_rational(eps)
    if m < 1 or not 0 < eps <= 1:
        raise ValueError("need m >= 1 and eps in (0, 1]")
    eta = 2 * m + 2 * eps
    phi = -Fraction(2, 3) * eps**3 + Fraction(1 - 2 * m, 2) * eps**2 + m * eps - Fraction(m, 6)
    terms = spectrum.d3_envelope_terms_int(eta.numerator, eta.denominator)
    _, lower, upper = (Fraction(*pair) for pair in terms)
    ok = lower <= phi <= upper
    return _record(
        "phi-envelope",
        {"m": m, "eps": eps},
        ok,
        {"lower": lower, "phi": phi, "upper": upper},
    )


def check_abel_bound(d: int, ell: int) -> CheckRecord:
    """Summation-by-parts bound on (d-1)!(d-2) sum mu_j/(2j+d-1)**2."""
    if d < 4 or ell < 0:
        raise ValueError("need d >= 4 and ell >= 0")
    weighted, lcm = spectrum._order1_sums(d, ell)
    lhs = Fraction(math.factorial(d - 1) * (d - 2) * weighted, lcm)
    alpha = (
        Fraction(1, 2)
        + Fraction(d - 3, 2 * (d - 1 + 2 * ell))
        + Fraction(1, 4 * (d - 2 + ell))
    )
    rhs = alpha * excess.pochhammer_eval(d - 2, ell) - Fraction(math.factorial(d - 3), 4)
    return _record("abel-bound", {"d": d, "ell": ell}, lhs <= rhs, {"lhs": lhs, "rhs": rhs})


def check_big_g_bound(d: int, ell_max: int) -> CheckRecord:
    """G(ell)**2 <= 1 and strictly increasing on 0..ell_max, exactly."""
    if d < 4 or ell_max < 0:
        raise ValueError("need d >= 4 and ell_max >= 0")
    pairs = [excess.big_g_squared_int(d, ell, 1) for ell in range(ell_max + 1)]
    bounded = all(num <= den for num, den in pairs)
    increasing = all(num0 * den1 < num1 * den0 for (num0, den0), (num1, den1) in zip(pairs, pairs[1:]))
    ok = bounded and increasing
    witness = {
        "g_squared_at_0": Fraction(*pairs[0]),
        "g_squared_at_max": float(Fraction(*pairs[-1])),
        "bounded": bounded,
        "strictly_increasing": increasing,
    }
    return _record("big-g-bound", {"d": d, "ell_max": ell_max}, ok, witness)


def check_appendix_sums(d: int) -> CheckRecord:
    """Direct summation of sum(2j-d+1) and sum(2j-d+1)**2 against closed forms."""
    if d < 3:
        raise ValueError("d must be >= 3")
    s1 = sum(2 * j - d + 1 for j in range(1, d))
    s2 = sum((2 * j - d + 1) ** 2 for j in range(1, d))
    s1_closed = d - 1
    s2_closed = Fraction(4, 3) * d * (d * d - 1) - (d - 1) * (d * d + 2 * d - 1)
    ok = s1 == s1_closed and s2 == s2_closed
    return _record(
        "appendix-sums",
        {"d": d},
        ok,
        {"sum1": s1, "sum1_closed": s1_closed, "sum2": s2, "sum2_closed": s2_closed},
    )


def check_lt_general_gamma(
    d: int, eta: RationalLike, gamma: RationalLike, first_lhs: tuple[int, int, int] | None = None
) -> CheckRecord:
    """Strict order-gamma inequality for gamma in [1, d/2).

    At every order, integers included, the sides are the enclosures of
    ``spectrum.riesz_mean_int`` and ``phase_space.lt_rhs_int``: 'pass' needs
    lhs.hi < rhs.lo, 'fail' rhs.hi < lhs.lo.  While they overlap the digit
    count doubles from DEFAULT_PRECISION, up to MAX_PRECISION, where overlap
    is 'inconclusive'.  Both witnesses are 25-digit strings of the lower ends
    at ``used_precision``, the digit count that decided.  ``first_lhs`` is the
    left-hand side at DEFAULT_PRECISION when the caller already holds it (a
    sweep's batch); every later rung computes its own.
    """
    eta, gamma = as_rational(eta), as_rational(gamma)
    if gamma >= Fraction(d, 2):
        raise ValueError("phase-space integral diverges for gamma >= d/2")
    if gamma < 1:
        raise ValueError("the strict inequality needs gamma >= 1")
    # bench/workloads.py pins the all-suite sha256, which holds this "precision" param.
    params = {"d": d, "eta": eta, "gamma": gamma, "precision": DEFAULT_PRECISION}
    n, den = eta.numerator, eta.denominator
    precision = DEFAULT_PRECISION
    lhs_int = first_lhs
    while True:
        bits = enclosure_bits(precision)
        if lhs_int is None:
            lhs_int = spectrum.riesz_mean_int(d, n, den, gamma, bits)
        rhs_int = phase_space.lt_rhs_int(d, n, den, gamma, bits)
        less = dyadic_less(lhs_int, rhs_int)
        if less is not None or precision == MAX_PRECISION:
            break
        precision, lhs_int = min(2 * precision, MAX_PRECISION), None
    note = "exact right-hand side" if (2 * gamma).denominator == 1 else ""
    return _record(
        "lt-general-gamma",
        params,
        INCONCLUSIVE if less is None else less,
        {
            "lhs": witness_digits(lhs_int, precision),
            "rhs": witness_digits(rhs_int, precision),
            "used_precision": precision,
        },
        note,
    )


def check_lt_sweep(d_values: Sequence[int], etas: Sequence[Fraction], gamma: Fraction) -> list[CheckRecord]:
    """The order-gamma bound on the rectangle d_values x etas, records d outer in the given orders.

    Order 1 runs ``check_lt_gamma1`` at each point.  Every other order takes
    the first rung's left-hand sides one eta at a time for all of d_values,
    from ``spectrum.riesz_means_int``'s shared root rows, and hands each to
    ``check_lt_general_gamma``, whose ladder climbs from there where the
    first rung leaves a point undecided.
    """
    if gamma == 1:
        return [check_lt_gamma1(d, eta) for d in d_values for eta in etas]
    bits = enclosure_bits(DEFAULT_PRECISION)
    columns = [spectrum.riesz_means_int(d_values, eta.numerator, eta.denominator, gamma, bits) for eta in etas]
    return [
        check_lt_general_gamma(d, eta, gamma, column[i])
        for i, d in enumerate(d_values)
        for eta, column in zip(etas, columns)
    ]


# -- coefficient identities -----------------------------------------------------


def _top_two_record(
    check_id: str,
    params: dict,
    pair: RationalFunctionPair,
    pole_roots: Sequence[RationalLike],
    top: int,
    lead_expected: Fraction,
    second_expected: Fraction,
) -> CheckRecord:
    """Denominator prod_r (t + r), degree and the coefficients of t^top and t^(top-1) of a reduced numerator.

    Every expected lead is nonzero, so degree <= top with a matching lead
    means degree == top.
    """
    p = pair.numerator
    lead, second = p.coefficient(top), p.coefficient(top - 1)
    ok = pair.denominator == expand_linear_factors(pole_roots) and p.degree <= top
    ok = ok and (lead, second) == (lead_expected, second_expected)
    witness = {
        "degree": p.degree,
        "lead": lead,
        "lead_expected": lead_expected,
        "second": second,
        "second_expected": second_expected,
    }
    return _record(check_id, params, ok, witness)


def check_coefficients_f(d: int) -> CheckRecord:
    """Top two coefficients and degree of the reduced numerator of f."""
    lead = -Fraction(d, 2)
    second = lead * (Fraction(d * d, 3) - (d // 2) - Fraction(1, 3))
    # (t + (2 ceil(d/2) - 1)/2) prod_{k<d} (t + k)
    poles = [Fraction(2 * ((d + 1) // 2) - 1, 2), *range(1, d)]
    return _top_two_record("coefficients-f", {"d": d}, excess.f_as_ratfun(d), poles, d - 2, lead, second)


def check_coefficients_g_even(d: int) -> CheckRecord:
    """Top two coefficients and degree of the reduced numerator of g, even d."""
    if d < 6 or d % 2 != 0:
        raise ValueError("this identity is stated for even d >= 6")
    lead = -Fraction(d, 2)
    second = lead * (Fraction(d * d, 3) - d + Fraction(2, 3))
    # poles: prod_{k<d} (t + k)
    return _top_two_record("coefficients-g-even", {"d": d}, excess.g_as_ratfun(d), range(1, d), d - 3, lead, second)


def check_coefficients_h(d: int, a: RationalLike) -> CheckRecord:
    """Top two coefficients and degree of the reduced numerator of h_a, odd d."""
    a = as_rational(a)
    # (s**2 - 1/4)(s + (d-1)/2) prod_{k <= (d-3)/2}(s**2 - k**2)
    half = Fraction(1, 2)
    poles = [-half, half, Fraction(d - 1, 2)] + [sign * k for k in range(1, (d - 3) // 2 + 1) for sign in (-1, 1)]
    lead = -(Fraction(d - 1, 2) + a)
    second = Fraction(d**3 - 6 * d**2 + 8 * d, 12) - Fraction(d - 1, 2) * a
    return _top_two_record("coefficients-h", {"d": d, "a": a}, excess.h_a_as_ratfun(d, a), poles, d - 2, lead, second)


# -- asymptotics -----------------------------------------------------------------


def asymptotic_residuals(d: int) -> tuple[Fraction, float]:
    """d**3-scaled residuals of the sharp constants against their expansions.

    The Q residual is exact; the A - Q gap is exact for even d.  For odd d it
    is d**3 (A**2 - Q**2) / (A + Q): an exact numerator, over a sum whose A is
    floor(sqrt(A**2) 2**128) / 2**128, one integer square root.  No digits
    cancel; A + Q > 2, so the quotient is within a relative 2**-129 of the
    gap before its one rounding to a float.
    """
    q_result = optima.q_star(d)
    a_result = optima.a_star(d)
    expansion = 1 + Fraction(3, 2 * d) + Fraction(45, 8 * d * d)
    residual_q = d**3 * (q_result.value - expansion)
    if a_result.value is not None:
        residual_a = float(d**3 * (a_result.value - q_result.value))
    else:
        a_sq = a_result.value_squared
        a_low = Fraction(math.isqrt((a_sq.numerator << 256) // a_sq.denominator), 1 << 128)
        residual_a = float(d**3 * (a_sq - q_result.value**2) / (a_low + q_result.value))
    return residual_q, residual_a


def check_asymptotics(d_lo: int, d_hi: int) -> CheckRecord:
    """Boundedness and trend of the d**3-scaled expansion residuals."""
    if not (10 <= d_lo <= d_hi <= MAX_DIMENSION):
        raise ValueError(f"the asymptotics check runs on ranges within [10, {MAX_DIMENSION}]")
    residuals_q: list[tuple[int, float]] = []
    residuals_a: list[tuple[int, float]] = []
    for d in range(d_lo, d_hi + 1):
        rq, ra = asymptotic_residuals(d)
        residuals_q.append((d, abs(float(rq))))
        residuals_a.append((d, abs(ra)))
    bound = float(ASYMPTOTIC_RESIDUAL_BOUND)
    max_q = max(v for _, v in residuals_q)
    max_a = max(v for _, v in residuals_a)
    bounded = max_q <= bound and max_a <= bound

    mid = (d_lo + d_hi) // 2

    def trend_ok(values: list[tuple[int, float]]) -> bool:
        lower = [v for d, v in values if d <= mid]
        upper = [v for d, v in values if d > mid]
        if not upper:
            return True
        return max(upper) <= 1.5 * max(lower)

    trend = trend_ok(residuals_q) and trend_ok(residuals_a)
    ok = bounded and trend
    witness = {
        "max_residual_q": max_q,
        "max_residual_a": max_a,
        "bound": bound,
        "trend_ok": trend,
    }
    # bench/workloads.py pins the all-suite sha256, which holds this "precision" param.
    params = {"d_lo": d_lo, "d_hi": d_hi, "precision": DEFAULT_PRECISION}
    return _record("asymptotics", params, ok, witness)


# -- identity batches --------------------------------------------------------------


def check_pochhammer_recursion(m: int, points: Sequence[Fraction]) -> CheckRecord:
    ok = True
    for t in points:
        t = as_rational(t)
        lhs = m * excess.pochhammer_eval(m - 1, t)
        rhs = excess.pochhammer_eval(m, t) - excess.pochhammer_eval(m, t - 1)
        ok = ok and lhs == rhs
    return _record(
        "pochhammer-recursion", {"m": m, "points": len(points)}, ok, {"holds": ok}
    )


def check_pochhammer_telescoping(m: int, ell_max: int) -> CheckRecord:
    """m sum_{j<=ell} (j+1)...(j+m-1) = (ell+1)...(ell+m), summed as one running integer."""
    ok = True
    running = 0
    for ell in range(ell_max + 1):
        running += excess._pochhammer_int(m - 1, ell, 1)
        ok = ok and m * running == excess._pochhammer_int(m, ell, 1)
    return _record(
        "pochhammer-telescoping", {"m": m, "ell_max": ell_max}, ok, {"holds": ok}
    )


def check_hockey_stick(d: int, k_max: int) -> CheckRecord:
    """The closed-form count spectrum.level_count equals term-by-term summation of multiplicities."""
    ok = True
    running = 0
    for k in range(k_max + 1):
        running += spectrum.multiplicity(d, k)
        ok = ok and running == spectrum.level_count(d, k)
    return _record("hockey-stick", {"d": d, "k_max": k_max}, ok, {"holds": ok})


def check_multiplicity_formulas(d: int, j_max: int) -> CheckRecord:
    ok = True
    for j in range(j_max + 1):
        via_binomials = math.comb(d - 1 + j, d - 1) + math.comb(d - 2 + j, d - 1)
        ok = ok and spectrum.multiplicity(d, j) == via_binomials
    return _record("multiplicity-formulas", {"d": d, "j_max": j_max}, ok, {"holds": ok})


def check_logderiv(kind: str, d: int) -> CheckRecord:
    ok = excess.logderiv_check(kind, d)
    return _record("logderiv", {"kind": kind, "d": d}, ok, {"holds": ok})


def check_sandwich(d: int, s: RationalLike) -> CheckRecord:
    """The strict squeeze h_{a_d}(s) < g~(s) < h_{1/2}(s) of the shifted g, odd d >= 5, at a rational s > (d-3)/2."""
    s = as_rational(s)
    if s <= Fraction(d - 3, 2):
        raise ValueError("precondition violated: need s > (d-3)/2")
    lower = excess.h_a_eval(d, excess.squeeze_coefficient(d), s)
    middle = excess.g_shifted_eval(d, s)
    upper = excess.h_a_eval(d, Fraction(1, 2), s)
    return _record(
        "sandwich", {"d": d, "s": s}, lower < middle < upper, {"lower": lower, "middle": middle, "upper": upper}
    )


def check_g_quadratic(d_lo: int, d_hi: int) -> CheckRecord:
    """Nonnegative coefficients of the monotonicity certificate quadratic."""
    ok = True
    for d in range(max(4, d_lo), d_hi + 1):
        poly = excess.big_g_monotonicity_quadratic(d)
        ok = ok and all(c >= 0 for c in poly.coefficients)
    return _record("g-monotonicity-quadratic", {"d_lo": d_lo, "d_hi": d_hi}, ok, {"holds": ok})


def check_a_zero_window(d: int) -> CheckRecord:
    """g has exactly one zero beyond -1, strictly inside optima.a_zero_bounds(d), for odd d.

    The reduced denominator of g is positive on the domain, so the numerator's
    certificate (one simple zero on the half-line, signs (+, -) at the window
    ends) means g > 0 left of the window and g < 0 right of it, on the whole
    half-line.
    """
    if d < 5 or d % 2 == 0:
        raise ValueError("this window check is for odd d >= 5")
    try:
        optima._zero_window(excess.g_as_ratfun(d).numerator, optima.a_zero_bounds(d))
        ok = True
    except CertificationError:
        ok = False
    return _record("a-zero-window", {"d": d}, ok, {"holds": ok})


def check_right_limit(d: int, tau_max: int) -> CheckRecord:
    """Q at each integer tau0 equals the right limit of the excess ratio at eta0 = 2*tau0 + d - 1.

    The count is constant on (eta0, eta0 + 2], so the limit is
    count(eta0 + 1) / clr_rhs(d, eta0).
    """
    ok = True
    for tau0 in range(tau_max + 1):
        eta0 = 2 * tau0 + d - 1
        count = spectrum.counting_function(d, eta0 + 1)
        ok = ok and excess.q_eval(d, tau0) == Fraction(count) / phase_space.clr_rhs(d, eta0)
    return _record("q-right-limit", {"d": d, "tau_max": tau_max}, ok, {"holds": ok})


def check_r_below_q(d: int, eta: RationalLike) -> CheckRecord:
    """Excess ratio never exceeds Q at tau = (eta + 1 - d)/2."""
    eta = as_rational(eta)
    if eta <= d - 1:
        raise ValueError("need eta > d - 1")
    tau = (eta + 1 - d) / 2
    lhs = excess.r_eval(d, eta)
    rhs = excess.q_eval(d, tau)
    return _record("r-below-q", {"d": d, "eta": eta}, lhs <= rhs, {"r": lhs, "q": rhs})


# -- CLR checks -----------------------------------------------------------------


def check_counterexample_advisory() -> CheckRecord:
    """d=6, eta=11.1 beats the semiclassical count; reported values are advisory."""
    d, eta = 6, Fraction(111, 10)
    count = spectrum.counting_function(d, eta)
    rhs = phase_space.clr_rhs(d, eta)
    ratio = Fraction(count) / rhs
    ok = ratio > 1
    note = (
        "computed count 112 and semiclassical value ~81.18 differ from the "
        "previously reported 121 and ~81.81; the qualitative excess (ratio > 1) "
        "is what this check asserts"
    )
    return _record(
        "counterexample-advisory",
        {"d": d, "eta": eta},
        ok,
        {"count": count, "semiclassical": float(rhs), "ratio": float(ratio)},
        note,
    )


def check_q_star_value(d: int, expected: RationalLike) -> CheckRecord:
    result = optima.q_star(d)
    expected = as_rational(expected)
    return _record(
        "q-star-value",
        {"d": d},
        result.value == expected,
        {"value": result.value, "expected": expected, "argmax": result.argmax_ell},
    )


def check_q_star_exceeds_one(q: optima.StarResult) -> CheckRecord:
    return _record(
        "q-star-exceeds-one",
        {"d": q.d},
        q.value > 1,
        {"value": float(q.value), "argmax": q.argmax_ell},
    )


def check_a_exceeds_q(q: optima.StarResult, a: optima.StarResult) -> CheckRecord:
    """A's window maximum strictly dominates Q's, compared through squares."""
    return _record(
        "a-exceeds-q",
        {"d": q.d},
        a.value_squared > q.value_squared,
        {
            "a_star_squared": float(a.value_squared),
            "q_star_squared": float(q.value_squared),
        },
    )


def check_counterexample_scan(d: int, grid: Sequence[Fraction], expect_hits: bool) -> CheckRecord:
    """Whether the count beats the semiclassical bound at some grid point; the least such eta is the witness."""
    etas = sorted(as_rational(eta) for eta in grid)
    if etas and etas[0] <= d - 1:
        raise ValueError(f"eta = {etas[0]} is outside the negative-spectrum regime")
    hits = [(eta, ratio) for eta in etas if (ratio := excess.r_eval(d, eta)) > 1]
    ok = bool(hits) == expect_hits
    witness = {"hits": len(hits)}
    if hits:
        witness["first_eta"] = hits[0][0]
        witness["first_ratio"] = float(hits[0][1])
    return _record(
        "counterexample-scan",
        {"d": d, "grid_size": len(grid), "expect_hits": expect_hits},
        ok,
        witness,
    )


# -- suites ----------------------------------------------------------------------
#
# FAMILIES lists each check family once, in report order: (suite, the family's
# own dimensions or None, builder).  A family with dimensions is built on those
# inside the run's d-range (--d-range, else DEFAULT_D_RANGES); a family with
# None runs on fixed inputs whatever the d-range.
# Families whose records interleave per d share a builder, with one row per
# stretch of d over which the set of checks stays the same.


def _d(lo: int, hi: int = MAX_DIMENSION, step: int = 1) -> range:
    """The dimensions lo, lo + step, ... up to hi, both ends included."""
    return range(lo, hi + 1, step)


def _lt_orders(*gammas: Fraction) -> Callable[[list[int]], list[CheckRecord]]:
    """The strict order-gamma checks at eta = 2d on the row's dimensions, each d with its orders below d/2."""
    return lambda ds: [check_lt_general_gamma(d, 2 * d, g) for d in ds for g in gammas if 2 * g < d]


def _pochhammer_recursions() -> list[CheckRecord]:
    rng = random.Random(20240814)
    draws = [[Fraction(rng.randint(-400, 400), rng.randint(1, 40)) for _ in range(10)] for _ in range(40)]
    return [check_pochhammer_recursion(m, points) for m, points in enumerate(draws, 1)]


def _sandwiches_and_windows(ds: list[int]) -> list[CheckRecord]:
    """Per odd d: the squeeze at s = (d-1)/2, (d+7)/2 and d**2, then g's certified zero window."""
    records = []
    for d in ds:
        records += [check_sandwich(d, Fraction(n, 2)) for n in (d - 1, d + 7, 2 * d * d)]
        records.append(check_a_zero_window(d))
    return records


def _star_comparisons(ds: list[int]) -> list[CheckRecord]:
    """Per d: Q* > 1, then A* > Q*, on one q_star and one a_star build."""
    records = []
    for d in ds:
        q, a = optima.q_star(d), optima.a_star(d)
        records += [check_q_star_exceeds_one(q), check_a_exceeds_q(q, a)]
    return records


def _r_below_q_draws() -> list[CheckRecord]:
    rng = random.Random(911)
    records = []
    for _ in range(100):
        d = rng.randint(3, 12)
        records.append(check_r_below_q(d, Fraction(d - 1) + Fraction(rng.randint(1, 4000), 100)))
    return records


FAMILIES: tuple[tuple[str, range | None, Callable[..., list[CheckRecord]]], ...] = (
    (
        "lt-gamma1",
        _d(4),
        lambda ds: [check_lt_gamma1(d, Fraction(10 * (d - 1) + k, 10)) for d in ds for k in range(1, 401)],
    ),
    ("lt-gamma1", _d(4), _lt_orders(Fraction(3, 2), Fraction(2), Fraction(7, 3))),
    ("d3-envelopes", None, lambda: [check_d3_envelopes(Fraction(k, 100)) for k in range(201, 2001)]),
    ("d3-envelopes", None, lambda: [check_phi_envelope(m, Fraction(j, 8)) for m in range(1, 11) for j in range(1, 9)]),
    ("coefficients", _d(3), lambda ds: [check_coefficients_f(d) for d in ds]),
    ("coefficients", _d(6, 40, 2), lambda ds: [check_coefficients_g_even(d) for d in ds]),
    (
        "coefficients",
        _d(5, 39, 2),
        lambda ds: [check_coefficients_h(d, a) for d in ds for a in (Fraction(1, 2), excess.squeeze_coefficient(d))],
    ),
    ("identities", None, _pochhammer_recursions),
    ("identities", None, lambda: [check_pochhammer_telescoping(m, 50) for m in range(1, 21)]),
    ("identities", _d(3), lambda ds: [check_appendix_sums(d) for d in ds]),
    (
        "identities",
        None,
        lambda: [f(d, 60) for d in range(3, 31) for f in (check_hockey_stick, check_multiplicity_formulas)],
    ),
    ("identities", _d(3, 10), lambda ds: [check_logderiv(kind, d) for d in ds for kind in ("Q", "A_squared")]),
    ("identities", _d(11, 12), lambda ds: [check_logderiv("Q", d) for d in ds]),
    ("identities", None, lambda: [check_abel_bound(d, ell) for d, ell in ((4, 0), (5, 3), (10, 20))]),
    ("identities", _d(4), lambda ds: [check_abel_bound(d, ell) for d in ds for ell in (0, 2, 5, 10, 20)]),
    ("identities", _d(4, 12), lambda ds: [check_big_g_bound(d, 200) for d in ds]),
    ("identities", None, lambda: [check_g_quadratic(4, 60)]),
    ("identities", _d(3, 10), lambda ds: [check_right_limit(d, 40) for d in ds]),
    ("identities", _d(5, step=2), _sandwiches_and_windows),
    ("identities", None, _r_below_q_draws),
    ("asymptotics", _d(10), lambda ds: [check_asymptotics(ds[0], ds[-1])] if ds else []),
    ("clr", None, lambda: [check_counterexample_advisory()]),
    ("clr", None, lambda: [check_q_star_value(d, q) for d, q in ((3, 3), (4, Fraction(64, 27)), (5, Fraction(15, 8)))]),
    ("clr", _d(3, 60), _star_comparisons),
    (
        "clr",
        None,
        lambda: [
            check_counterexample_scan(d, [eta], expect_hits=hits)
            for d, eta, hits in ((6, Fraction(111, 10), True), (3, Fraction(3), False), (3, Fraction(201, 100), True))
        ],
    ),
)

DEFAULT_D_RANGES = {
    "lt-gamma1": (4, 10),
    "coefficients": (3, 60),
    "identities": (3, 12),
    "asymptotics": (50, 200),
    "clr": (3, 60),
}


def last_dimension(name: str) -> int:
    """The largest dimension on which any d-ranged row of suite ``name`` runs, whatever the d-range."""
    return max(dims[-1] for suite, dims, _ in FAMILIES if suite == name and dims is not None)


def _walk(name: str, d_range: tuple[int, int] | None = None) -> list[CheckRecord]:
    """The records of suite ``name``: its FAMILIES rows in order."""
    records = []
    for suite, dims, build in FAMILIES:
        if suite != name:
            continue
        if dims is None:
            records += build()
        else:
            lo, hi = d_range or DEFAULT_D_RANGES[name]
            records += build([d for d in dims if lo <= d <= hi])
    return records


SUITES: dict[str, Callable[..., list[CheckRecord]]] = {
    name: functools.partial(_walk, name) for name in dict.fromkeys(suite for suite, _, _ in FAMILIES)
}


def run_suite(name: str, d_range: tuple[int, int] | None = None) -> list[CheckRecord]:
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    return [record for suite in names for record in SUITES[suite](d_range=d_range)]


def records_to_jsonl(records: Iterable[CheckRecord]) -> str:
    return "".join([record.to_json() + "\n" for record in records])
