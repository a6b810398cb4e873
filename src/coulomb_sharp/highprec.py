"""High-precision reals: enclosures for the non-integer orders, and their display.

Only a handful of quantities in this project are genuinely irrational
(half-integer powers for odd dimension, gamma values at generic arguments,
Riesz means of non-integer order).

Every non-integer order gamma = p/q is enclosed: the Riesz mean by
``spectrum.riesz_mean_int`` (integer q-th roots for q <= ``MAX_ROOT_DEGREE``,
an interval sum above), the order-gamma right-hand side by an interval Gamma
ratio (``phase_space.lt_rhs_int``).  An enclosure (lo, hi, k) holds the value
in [lo, hi] / 2**k, with a relative width below 2**-``enclosure_bits(precision)``
< 10**-(precision + 20); ``interval_enclosure`` reads one off an mpmath.iv
evaluation.  Two enclosures are compared once (``exact.dyadic_less``);
``dyadic_real`` turns the lower end into a ``HighPrecisionReal`` for display.
Enclosures are sized once and never retried.

The other irrational value, A at odd d, is the square root of an exact
rational and is read off one integer square root (``cli.render_sqrt``,
``verification.asymptotic_residuals``).  This module is the only one that
sets an mpmath working precision; ``validated_eval``, which runs a
computation twice and doubles the precision until the runs agree, is kept
for the benchmark tracer only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import mpmath
from mpmath import libmp, mp

from .exact import MathematicalError

# Significant digits of every real path unless a caller asks for others.
DEFAULT_PRECISION = 30
GUARD_DIGITS = 10
MAX_DOUBLINGS = 6
# Largest requested precision.  The cost of a high-precision check grows faster
# than the digit count: the lt-gamma1 suite on one dimension takes seconds at
# 1000 digits and does not finish in a minute at 10000.
MAX_PRECISION = 1000
# Largest order denominator q enclosed by integer q-th roots; larger q take
# spectrum.riesz_mean_int's interval sum.  A root costs O(M(q*k)) on k-bit
# enclosures: on the lt-sweep-gamma grid at gamma = 7/3 the roots take a
# tenth of the interval sum's time, but they do not finish at q = 10**12.
MAX_ROOT_DEGREE = 8


class PrecisionError(MathematicalError):
    """Two evaluations kept disagreeing after repeated precision doubling."""


@dataclass(frozen=True)
class HighPrecisionReal:
    """A real number carrying its requested significant-digit precision."""

    value: mpmath.mpf
    precision: int

    def __float__(self) -> float:
        return float(self.value)

    def to_decimal(self) -> str:
        return mpmath.nstr(self.value, self.precision, strip_zeros=False, min_fixed=-4, max_fixed=15)

    def __repr__(self) -> str:
        return f"HighPrecisionReal({self.to_decimal()}, precision={self.precision})"


def check_precision(precision: object) -> int:
    """The one precision rule, for every caller and input: an integer from 1 to MAX_PRECISION."""
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


def dyadic_real(enclosure: tuple[int, int, int], precision: int) -> HighPrecisionReal:
    """The lower end lo / 2**k of an enclosure (lo, hi, k), held at precision + 2 * GUARD_DIGITS digits."""
    lo, _, k = enclosure
    prec = libmp.dps_to_prec(precision + 2 * GUARD_DIGITS)
    return HighPrecisionReal(mp.make_mpf(libmp.from_man_exp(lo, -k, prec, libmp.round_nearest)), precision)


# No production caller; bench/tracer.TRACED names it.
def validated_eval(compute: Callable[[], mpmath.mpf], precision: int) -> HighPrecisionReal:
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
                return HighPrecisionReal(+second, precision)
        work *= 2
    raise PrecisionError(f"no agreement after {MAX_DOUBLINGS} precision doublings")
