"""The precision ladder, the integer Gamma kernel and the witness digits.

Only a handful of quantities in this project are genuinely irrational
(half-integer powers for odd dimension, gamma values at generic arguments,
Riesz means of non-integer order).

Every non-integer order gamma = p/q is enclosed: the Riesz mean by
``spectrum.riesz_mean_int``, the order-gamma right-hand side by a Gamma
ratio (``phase_space.gamma_ratio_int``).  Up to q = MAX_ROOT_DEGREE both are
integer arithmetic: q-th roots (``exact.iroot``) and ``gamma_int``, the
enclosure of Gamma on (1, 2) from its incomplete parts, with ``gamma_parts``
reducing any rational argument to it.  Above the cut they are mpmath.iv
evaluations read off exactly by ``interval_enclosure``.  An enclosure
(lo, hi, k) holds the value in [lo, hi] / 2**k, with a relative width below
2**-``enclosure_bits(precision)`` < 10**-(precision + 20).  Two enclosures
are compared by ``exact.dyadic_less``; the strict check
(``verification.check_lt_general_gamma``) starts at DEFAULT_PRECISION digits
and doubles them while the enclosures overlap, up to MAX_PRECISION.  Its
witnesses are ``witness_digits`` of the lower ends: integer decimal strings,
the same bytes that ``mpmath.nstr(dyadic_real(...), 25)`` writes.

The other irrational value, A at odd d, is the square root of an exact
rational and is read off one integer square root (``cli.render_sqrt``,
``verification.asymptotic_residuals``).  This module is the only one that
sets an mpmath working precision, and mpmath is imported only inside the
functions that use it: ``interval_enclosure`` (orders above the cut),
``dyadic_real`` (the mpf values of ``spectrum.riesz_mean`` and
``phase_space.lt_rhs``) and ``validated_eval``, which runs a computation
twice and doubles the precision until the runs agree and is kept for the
benchmark tracer only.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .exact import MathematicalError, iroot

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
# Largest order denominator q enclosed in integers (q-th roots for the Riesz
# mean, gamma_int for the Gamma ratio); larger q take mpmath.iv.  A root costs
# O(M(q*k)) on k-bit enclosures, the interval sum about the same at every q.
# Per point at d = 8 and 30 digits, roots take 0.23 ms at q = 9 and 0.64 ms at
# q = 32 (a tie at 60 digits), sums 1.3 ms.
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
    Gamma(s) = gamma(s, N) + Gamma(s, N) at an integer N >= 2, with

        gamma(s, N) = N**s e**-N S,   S = sum_{k>=0} N**k / (s)_(k+1),

    (s)_(k+1) = s (s+1) ... (s+k).  Substituting t = N + u in the upper part,
    (1 + u/N)**(s-1) <= e**((s-1)u/N) and s - 1 < 1 give

        0 < Gamma(s, N) <= N**(s-1) e**-N N/(N - s + 1) <= N**s e**-N / (N - 1),

    so Gamma(s) = N**s e**-N (S + theta/(N - 1)) for some theta in [0, 1].
    Each factor is enclosed at scale 2**w:

    - N**s 2**w lies in [N r, N (r + 1)], r = ``iroot``(N**(a-b) 2**(b w), b).
    - S and e = sum_k 1/k! are sums of positive terms t_k whose ratios
      t_k/t_(k-1) fall as k grows.  ``_series`` carries a floored and a
      ceiled copy of each scaled term, so every partial sum is bounded on
      both sides.  It stops after t_K once the next ratio r is at most 1/2
      and t_K is below 2**-w of the sum so far: then the rest is at most
      t_K (r + r**2 + ...) <= t_K, which the upper sum adds once more.
    - e**N lies between the N-th powers of the ends of e, by binary
      powering at v = w + 2 N.bit_length() + 8 bits with every product
      floored or ceiled, then floored or ceiled to 2**-w.

    Then lo = floor(N**s S e**-N) and hi = ceil(N**s (S + 1/(N-1)) e**-N)
    from the outer ends.  Width: N > 0.7 (bits + L + 6), L = bits.bit_length(),
    gives e**-N < 2**-(bits+L+6) and N < 2**(L+1).  Since S > e**N/(2N**2),
    the theta term, 1/((N-1) S) of the value, is below 4N e**-N < 2**-(bits+3).
    Each floor or ceiling in ``_series`` costs one unit, which the later ratios
    scale by t_k/t_j: at most 2 t_k while the terms rise (S's from t_0 >= 1/2
    until k ~ N) and at most 1 after.  So S's ends differ by less than
    4(N + 1) + 1 units per 2**w of S, plus K**2 units for K terms, and e's
    by less than K**2 units of 2**-v with K < N, which N-th powering turns
    into N**3 2**-v of e**N.  w = bits + N.bit_length() + 8 and
    v = w + 2 N.bit_length() + 8 keep these, N**s's 2**-w and the last two
    roundings below 2**-(bits+3) together.
    Cached per (s, bits): a sweep's Gamma ratios share a few arguments.
    """
    if s == 1:
        return 1, 1, 0
    a, b = s.numerator, s.denominator
    if not b < a < 2 * b:
        raise ValueError(f"gamma_int needs 1 <= s < 2, got {s}")
    n = 7 * (bits + bits.bit_length() + 6) // 10 + 1
    w = bits + n.bit_length() + 8
    root = iroot(n ** (a - b) << (b * w), b)
    power_lo, power_hi = n * root, n * (root + 1)
    first = b << w
    sum_lo, sum_hi = _series(first // a, -(-first // a), n * b, a, b, w)
    v = w + 2 * n.bit_length() + 8
    e_lo, e_hi = _series(1 << v, 1 << v, 1, 0, 1, v)
    exp_lo = exp_hi = 1 << v
    for bit in bin(n)[2:]:
        exp_lo, exp_hi = exp_lo * exp_lo >> v, -(-exp_hi * exp_hi >> v)
        if bit == "1":
            exp_lo, exp_hi = exp_lo * e_lo >> v, -(-exp_hi * e_hi >> v)
    exp_lo, exp_hi = exp_lo >> (v - w), -(-exp_hi >> (v - w))
    tail = -(-(1 << w) // (n - 1))
    return power_lo * sum_lo // exp_hi, -(-power_hi * (sum_hi + tail) // exp_lo), w


def _series(lo: int, hi: int, num: int, den: int, step: int, w: int) -> tuple[int, int]:
    """Bounds on 2**w sum_k t_k, t_k = t_0 prod_{j=1..k} num/(den + j step), from lo <= 2**w t_0 <= hi.

    Every term is floored in the lower copy and ceiled in the upper one; the
    upper sum adds the last upper term again as the bound on the rest (see
    ``gamma_int``).
    """
    total_lo, total_hi, d, twice = lo, hi, den, 2 * num
    while True:
        d += step
        if twice <= d and hi <= total_lo >> w:
            return total_lo, total_hi + hi
        lo = lo * num // d
        hi = -(-hi * num // d)
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


def interval_enclosure(compute: Callable[[], mpmath.ctx_iv.ivmpf], prec: int) -> tuple[int, int, int]:
    """The endpoints of an mpmath.iv evaluation at ``prec`` bits, exactly, as an enclosure (lo, hi, k).

    ``compute()`` runs with ``mpmath.iv.prec`` set to ``prec``, which is
    restored afterwards.  An unbounded interval raises ValueError.
    """
    import mpmath
    from mpmath import libmp

    iv = mpmath.iv
    saved = iv.prec
    iv.prec = prec
    try:
        value = compute()
    finally:
        iv.prec = saved
    lo, hi = value._mpi_
    k = -min(lo[2], hi[2])  # the smaller exponent of the two raw (sign, man, exp, bc) ends
    return libmp.to_int(libmp.mpf_shift(lo, k)), libmp.to_int(libmp.mpf_shift(hi, k)), k


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
