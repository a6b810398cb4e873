"""The precision ladder and the integer kernels: ln 2, log, exp, Gamma and the witness digits.

Every non-integer order gamma = p/q is enclosed in integers: the Riesz mean
(``spectrum.riesz_means_int``) by q-th roots up to q = MAX_ROOT_DEGREE and by
``log_int`` and ``exp_int`` above, the order-gamma right-hand side by a Gamma
ratio (``phase_space.gamma_ratio_int``) of ``gamma_int`` values at every q.
Each kernel proves its bound in its docstring.  An enclosure (lo, hi, k)
holds the value in [lo, hi] / 2**k, with a relative width below
2**-``enclosure_bits(precision)`` < 10**-(precision + 20).  The strict check
(``verification.check_lt_general_gamma``) compares two by
``exact.dyadic_less``, from DEFAULT_PRECISION digits doubling while they
overlap, up to MAX_PRECISION, and writes their lower ends by
``witness_digits``, the bytes ``mpmath.nstr(dyadic_real(...), 25)`` writes.

This is the only module that imports mpmath at run time, inside the two
functions that use it: ``dyadic_real`` (the mpf values of
``spectrum.riesz_mean`` and ``phase_space.lt_rhs``) and ``validated_eval``,
which runs a computation twice, doubling the precision until the runs agree,
for the benchmark tracer only.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .exact import MathematicalError

if TYPE_CHECKING:
    import mpmath

# Significant digits of the first enclosures of every real path.
DEFAULT_PRECISION = 30
GUARD_DIGITS = 10
MAX_DOUBLINGS = 6
# Top of the escalation ladder.  The cost of a high-precision check grows faster
# than the digit count: the lt-gamma1 suite on one dimension takes seconds at
# 1000 digits and does not finish in a minute at 10000.
MAX_PRECISION = 1000
# Largest order denominator q whose Riesz mean takes q-th roots, O(M(q*k)) on
# k-bit enclosures; log_int and exp_int cost about the same at every q.  Per point
# at d = 8 and 30 digits: 0.23 ms at q = 9, 0.64 ms at q = 32, 0.9-1.4 ms above.
MAX_ROOT_DEGREE = 32
# Significant digits of a witness string.
WITNESS_DIGITS = 25


class PrecisionError(MathematicalError):
    """Two evaluations kept disagreeing after repeated precision doubling."""


def check_precision(precision: object) -> int:
    """The one precision rule: an integer from 1 to MAX_PRECISION."""
    if type(precision) is not int or not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must be an integer from 1 to {MAX_PRECISION} digits, got {precision!r}")
    return precision


def enclosure_bits(precision: int) -> int:
    """Relative enclosure width, in bits, for ``precision`` digits: 2**-bits < 10**-(precision + 20)."""
    check_precision(precision)
    # 3322/1000 exceeds log2(10).
    return (precision + 2 * GUARD_DIGITS) * 3322 // 1000 + 1


def gamma_parts(x: Fraction) -> tuple[Fraction, Fraction]:
    """(c, s) with Gamma(x) = c Gamma(s), c rational and 1 <= s < 2, for a rational x > 0.

    Gamma(x + 1) = x Gamma(x): below 1, c = 1/x and s = x + 1; from 1 up,
    c = s (s + 1) ... (x - 1), the empty product when x < 2.
    """
    m = x.numerator // x.denominator
    if m == 0:
        return 1 / x, x + 1
    s = x - m + 1
    a, b = s.numerator, s.denominator
    return Fraction(math.prod(a + j * b for j in range(m - 1)), b ** (m - 1)), s


@functools.lru_cache(maxsize=16)
def gamma_int(s: Fraction, bits: int) -> tuple[int, int, int]:
    """Gamma(s) for a rational 1 <= s < 2 as an enclosure (lo, hi, k), hi - lo below 2**-bits of it.

    Gamma(1) is exactly (1, 1, 0).  For s = a/b in (1, 2) split
    Gamma(s) = gamma(s, N) + Gamma(s, N) at an integer N >= 13, with

        gamma(s, N) = e**-y S,   y = N - s ln N,   S = sum_{k>=0} N**k / (s)_(k+1),

    (s)_(k+1) = s (s+1) ... (s+k).  Substituting t = N + u in the upper part,
    (1 + u/N)**(s-1) <= e**((s-1)u/N) and s - 1 < 1 give

        0 < Gamma(s, N) <= N**(s-1) e**-N N/(N - s + 1) <= e**-y / (N - 1),

    so Gamma(s) = e**-y (S + theta/(N - 1)) for some theta in [0, 1].  At
    scale 2**w, S is ``_series`` of its terms, e**y is ``exp_int`` of
    N - s ln N with ln N from ``log_int``, and lo = floor(S e**-y) and
    hi = ceil((S + 1/(N-1)) e**-y) from the outer ends.

    Width: N > 0.7 (bits + L + 6), L = bits.bit_length(), gives e**-N < 2**-(bits+L+6),
    N < 2**(L+1) and bits < 1.43 N, so w < 4 N.  Since S > e**N/(2N**2), the theta
    term, 1/((N-1) S) of the value, is below 4N e**-N < 2**-(bits+3).  Each floor
    or ceiling in ``_series`` costs one unit, which the later ratios scale by
    t_k/t_j: at most 2 t_k while the terms rise (from t_0 >= 1/2 until k ~ N)
    and at most 1 after.  So S's ends differ by less than (4N + 5) S + K**2
    < (4N + 10) S units for its K < 6N terms.  ln N is within
    (N.bit_length() + 2) w + 20 units and m < 1.45 N in ``exp_int``, so 2**w e**y
    is within (9N + 12 N.bit_length() + 40) w e**y.  Both relative widths and
    the last two roundings add to less than 200 N**2 2**-w <= 0.79 * 2**-bits.
    Cached per (s, bits): a sweep's Gamma ratios share a few arguments.
    """
    if s == 1:
        return 1, 1, 0
    a, b = s.numerator, s.denominator
    if not b < a < 2 * b:
        raise ValueError(f"gamma_int needs 1 <= s < 2, got {s}")
    n = 7 * (bits + bits.bit_length() + 6) // 10 + 1
    w = bits + 2 * n.bit_length() + 8
    ln2 = ln2_int(w)
    sum_lo, sum_hi = _series((b << w) // a, -(-(b << w) // a), n * b, a, b, w)
    log_lo, log_hi = log_int(n, 1, w, ln2)
    exp_lo, exp_hi = exp_int((n << w) + (-a * log_hi // b), (n << w) - a * log_lo // b, w, ln2)
    tail = -(-(1 << w) // (n - 1))
    return (sum_lo << w) // exp_hi, -(-((sum_hi + tail) << w) // exp_lo), w


def ln2_int(w: int) -> tuple[int, int]:
    """(lo, hi) with lo < 2**w ln 2 < hi = lo + w, for w >= 1.

    ln 2 = sum_{k>=1} 2**-k / k: floored at scale 2**w, its terms k <= w lose
    less than w - 1 units (k = 1 is exact), and the rest is below 1."""
    lo = sum((1 << (w - k)) // k for k in range(1, w + 1))
    return lo, lo + w


def log_int(a: int, b: int, w: int, ln2: tuple[int, int]) -> tuple[int, int]:
    """(lo, hi) with lo <= 2**w ln(a/b) <= hi for integers a, b >= 1; hi - lo < (|e| + 3) w + 20.

    ``ln2`` is ``ln2_int(w)``.  With e = a.bit_length() - b.bit_length(), a/b = 2**e y
    for some 1/2 < y < 2, and ln y = 2 atanh z, z = (y - 1)/(y + 1), |z| < 1/3, where
    atanh |z| = sum_{i>=0} |z|**(2i+1) / (2i+1).  The powers 2**w |z|**(2i+1) are
    carried floored and ceiled, each from the last by the factor z**2 <= 1/9, so each
    copy stays within 1 + 1/9 + ... = 9/8 units of the power and each term, divided
    by 2i+1 and floored or ceiled, within 2.2.  The sum stops after the first term
    whose upper copy is at most 1, at some i <= w/3 + 1, and adds that copy again for
    the rest, at most z**2/(1 - z**2) <= 1/8 of the term.  So atanh's ends differ by
    less than 4.4 (w/3 + 2) + 1 units, ln y's by less than 3w + 20; e ln 2 adds |e| w.
    """
    e = a.bit_length() - b.bit_length()
    num, den = (a, b << e) if e >= 0 else (a << -e, b)
    u, v = abs(num - den), num + den
    u2, v2 = u * u, v * v
    power_lo, power_hi = (u << w) // v, -(-(u << w) // v)
    sum_lo = sum_hi = 0
    for j in itertools.count(1, 2):
        term = -(-power_hi // j)
        sum_lo, sum_hi = sum_lo + power_lo // j, sum_hi + term
        if term <= 1:
            break
        power_lo, power_hi = power_lo * u2 // v2, -(-power_hi * u2 // v2)
    sum_lo, sum_hi = (sum_lo, sum_hi + term) if num >= den else (-sum_hi - term, -sum_lo)
    ln2_lo, ln2_hi = ln2 if e >= 0 else ln2[::-1]
    return e * ln2_lo + 2 * sum_lo, e * ln2_hi + 2 * sum_hi


def exp_int(y_lo: int, y_hi: int, w: int, ln2: tuple[int, int]) -> tuple[int, int]:
    """lo <= 2**w e**(y/2**w) <= hi for y_lo <= y <= y_hi, and hi - lo < e**(y_lo/2**w) (6 delta + 4w + 18) + 2.

    ``ln2`` is ``ln2_int(w)`` and w >= 17.  e**y = 2**m e**r with m = floor(y_lo / ln 2),
    read off the end of ln 2 that keeps r >= 0: r lies in [r_lo, r_lo + delta] / 2**w,
    0 <= r_lo < 2**w ln 2 + w and delta = y_hi - y_lo + |m| w, which must be at most 2**w.
    e**(r_lo/2**h), h = isqrt(w), is ``_series`` at W = w + 2h bits with ratios below
    2**-h / j: each copy of a term stays within 2 units of it, and the sum stops by
    term W/h + 1, a relative error eps < (2W/h + 10) 2**-W.  Squaring h times, floored
    or ceiled, keeps it below 2**(h+1) (eps + 2**-W), so without the 2h spare bits the
    ends of e**r_lo are less than 4w + 17 units apart; e**r <= e**r_lo (1 + 2 delta / 2**w)
    as e**x <= 1 + 2x on [0, 1].  Scaling by 2**m < e**(y_lo/2**w), exactly for m >= 0
    and rounded outward below, gives the width.
    """
    m, r_lo = divmod(y_lo, ln2[1] if y_lo >= 0 else ln2[0])
    delta = y_hi - y_lo + abs(m) * w
    h = math.isqrt(w)
    lo, hi = _series(1 << (w + 2 * h), 1 << (w + 2 * h), r_lo, 0, 1, w + 2 * h, w + h)
    for _ in range(h):
        lo, hi = lo * lo >> (w + 2 * h), -(-hi * hi >> (w + 2 * h))
    lo, hi = lo >> 2 * h, -(-hi * ((1 << w) + 2 * delta) >> (w + 2 * h))
    return (lo << m, hi << m) if m >= 0 else (lo >> -m, -(-hi >> -m))


def _series(lo: int, hi: int, num: int, den: int, step: int, w: int, shift: int = 0) -> tuple[int, int]:
    """Bounds on 2**w sum_k t_k, t_k = t_0 prod_{j=1..k} num / (2**shift (den + j step)), from lo <= 2**w t_0 <= hi.

    Every term is floored in the lower copy and ceiled in the upper one (by
    the shift first, then by den + j step, which floors or ceils the whole
    quotient).  The sum stops after t_K once the next ratio r is at most 1/2
    and t_K is below 2**-w of the sum so far; the rest, at most
    t_K (r + r**2 + ...) <= t_K, is bounded by adding the last upper term again.
    """
    total_lo, total_hi, d, twice = lo, hi, den, -(-2 * num >> shift)
    while True:
        d += step
        if twice <= d and hi <= total_lo >> w:
            return total_lo, total_hi + hi
        lo = (lo * num >> shift) // d
        hi = -((-hi * num >> shift) // d)
        total_lo += lo
        total_hi += hi


def _display_bits(digits: int) -> int:
    """mpmath's ``libmp.dps_to_prec(digits)``, round((digits + 1) log2(10)), in integers."""
    return ((digits + 1) * 33219280948873626 + 5 * 10**15) // 10**16


def witness_digits(enclosure: tuple[int, int, int], precision: int) -> str:
    """The lower end lo / 2**k >= 0 as ``mpmath.nstr(dyadic_real(enclosure, precision), 25)`` writes it.

    In integers, the same five steps:

    1. round lo / 2**k half-even to ``_display_bits(precision + 2 * GUARD_DIGITS)`` bits;
    2. read its digits toward zero, as mpmath reads 25 + 3 = 28 digits: cut
       the value to int(28 log2(10)) + 10 = 103 significant bits (keeping
       every integer bit of a larger value), then take the decimal digits
       of what is left;
    3. round half up at digit 26, carrying through any run of 9s;
    4. write fixed point for decimal exponents -8 < e < 25, else d.ddd with
       ``e+E`` or ``e-E``;
    5. strip trailing zeros, keeping one digit after the point.

    Beyond 2**3500 and below 2**-3500 mpmath first divides by a rounded
    power of ten; there the digits here are the exact ones.
    """
    lo, _, k = enclosure
    if lo == 0:
        return "0.0"
    man, exp = lo, -k
    extra = man.bit_length() - _display_bits(precision + 2 * GUARD_DIGITS)
    if extra > 0:
        half = 1 << (extra - 1)
        rest = man & (2 * half - 1)
        man, exp = man >> extra, exp + extra
        if rest > half or rest == half and man & 1:
            man += 1
    fraction_bits = max(103 - exp - man.bit_length(), 0)
    shift = exp + fraction_bits
    cut = man << shift if shift >= 0 else man >> -shift
    # About 31 leading digits of cut / 2**fraction_bits: floor(cut 10**scale / 2**fraction_bits).
    scale = 30 - (cut.bit_length() - 1 - fraction_bits) * 30103 // 100000
    if scale >= 0:
        text = str(cut * 10**scale >> fraction_bits)
    else:
        text = str((cut >> fraction_bits) // 10**-scale)
    e = len(text) - 1 - scale
    digits = text[:WITNESS_DIGITS]
    if text[WITNESS_DIGITS] in "56789":
        digits = str(int(digits) + 1)
        if len(digits) > WITNESS_DIGITS:
            digits, e = digits[:WITNESS_DIGITS], e + 1
    if -8 < e < WITNESS_DIGITS:
        body = "0." + "0" * (-e - 1) + digits if e < 0 else digits[: e + 1] + "." + digits[e + 1 :]
        suffix = ""
    else:
        body, suffix = digits[0] + "." + digits[1:], f"e{e:+d}"
    body = body.rstrip("0")
    return body + ("0" if body.endswith(".") else "") + suffix


def dyadic_real(enclosure: tuple[int, int, int], precision: int) -> mpmath.mpf:
    """The lower end lo / 2**k of an enclosure (lo, hi, k), held at precision + 2 * GUARD_DIGITS digits."""
    from mpmath import libmp, mp

    lo, _, k = enclosure
    prec = libmp.dps_to_prec(precision + 2 * GUARD_DIGITS)
    return mp.make_mpf(libmp.from_man_exp(lo, -k, prec, libmp.round_nearest))


# No production caller; bench/tracer.TRACED names it.
def validated_eval(compute: Callable[[], mpmath.mpf], precision: int) -> mpmath.mpf:
    """Run compute() twice with guard digits; double the precision until they agree."""
    import mpmath
    from mpmath import mp

    check_precision(precision)
    work = precision
    for _ in range(MAX_DOUBLINGS + 1):
        with mp.workdps(work + GUARD_DIGITS):
            first = compute()
        with mp.workdps(work + 2 * GUARD_DIGITS):
            second = compute()
            if second == 0:
                agreed = first == 0
            else:
                agreed = abs(first - second) <= abs(second) * mpmath.mpf(10) ** (
                    -(work + GUARD_DIGITS - 1)
                )
            if agreed:
                return +second
        work *= 2
    raise PrecisionError(f"no agreement after {MAX_DOUBLINGS} precision doublings")
