"""The precision ladder and the enclosures of the non-integer orders.

Only a handful of quantities in this project are genuinely irrational
(half-integer powers for odd dimension, gamma values at generic arguments,
Riesz means of non-integer order).

Every non-integer order gamma = p/q is enclosed: the Riesz mean by
``spectrum.riesz_mean_int`` (integer q-th roots for small q, an interval sum
above), the order-gamma right-hand side by an interval Gamma ratio
(``phase_space.lt_rhs_int``).  An enclosure (lo, hi, k) holds the value in
[lo, hi] / 2**k, with a relative width below 2**-``enclosure_bits(precision)``
< 10**-(precision + 20); ``interval_enclosure`` reads one off an mpmath.iv
evaluation.  Two enclosures are compared by ``exact.dyadic_less``; the
strict check (``verification.check_lt_general_gamma``) starts at
DEFAULT_PRECISION digits and doubles them while the enclosures overlap, up
to MAX_PRECISION.  ``dyadic_real`` rounds a lower end to a plain
``mpmath.mpf`` for display.

The other irrational value, A at odd d, is the square root of an exact
rational and is read off one integer square root (``cli.render_sqrt``,
``verification.asymptotic_residuals``).  This module is the only one that
sets an mpmath working precision; ``validated_eval``, which runs a
computation twice and doubles the precision until the runs agree, is kept
for the benchmark tracer only.
"""

from __future__ import annotations

from typing import Callable

import mpmath
from mpmath import libmp, mp

from .exact import MathematicalError

# Significant digits of the first enclosures of every real path.
DEFAULT_PRECISION = 30
GUARD_DIGITS = 10
MAX_DOUBLINGS = 6
# Top of the escalation ladder.  The cost of a high-precision check grows faster
# than the digit count: the lt-gamma1 suite on one dimension takes seconds at
# 1000 digits and does not finish in a minute at 10000.
MAX_PRECISION = 1000


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


def interval_enclosure(compute: Callable[[], mpmath.ctx_iv.ivmpf], prec: int) -> tuple[int, int, int]:
    """The endpoints of an mpmath.iv evaluation at ``prec`` bits, exactly, as an enclosure (lo, hi, k).

    ``compute()`` runs with ``mpmath.iv.prec`` set to ``prec``, which is
    restored afterwards.  An unbounded interval raises ValueError.
    """
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
    lo, _, k = enclosure
    prec = libmp.dps_to_prec(precision + 2 * GUARD_DIGITS)
    return mp.make_mpf(libmp.from_man_exp(lo, -k, prec, libmp.round_nearest))


# No production caller; bench/tracer.TRACED names it.
def validated_eval(compute: Callable[[], mpmath.mpf], precision: int) -> mpmath.mpf:
    """Run compute() twice with guard digits; double the precision until they agree."""
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
