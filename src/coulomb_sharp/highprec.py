"""High-precision reals: integer enclosures, and self-validating evaluation.

Only a handful of quantities in this project are genuinely irrational
(half-integer powers for odd dimension, gamma values at generic arguments,
Riesz means of non-integer order).  They reach a requested precision in one
of two ways.

Orders gamma = p/q with q <= ``MAX_ROOT_DEGREE`` are enclosed: the Riesz
mean by integer q-th roots (``spectrum.riesz_mean_int``), the order-gamma
right-hand side by an interval Gamma ratio (``phase_space.lt_rhs_int``).
An enclosure (lo, hi, k) holds the value in [lo, hi] / 2**k, with a relative
width below 2**-``enclosure_bits(precision)`` < 10**-(precision + 20).
Two enclosures are compared once (``exact.dyadic_less``); ``dyadic_real``
turns the lower end into a ``HighPrecisionReal`` for display.

Everything else is evaluated with mpmath under a simple contract: compute at
``precision + 10`` guard digits and again with ten more, accept when the two
runs agree through the guarded length, otherwise double the working
precision and retry.  The accepted value is therefore correct to well within
one unit in the requested last digit.  ``validated_eval`` is the only loop
that raises working precision; enclosures are sized once and never retried.
``strictly_less`` compares two validated values at their requested precision
with a margin of ten units in the last kept digit; a near-tie stays undecided
(None), and only a larger requested precision, at most ``MAX_PRECISION``,
resolves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
from mpmath import libmp, mp

from .exact import MathematicalError

# Significant digits of every real path unless a caller asks for others.
DEFAULT_PRECISION = 30
GUARD_DIGITS = 10
MAX_DOUBLINGS = 6
# Largest requested precision.  The cost of a validated evaluation grows faster
# than the digit count: the lt-gamma1 suite on one dimension takes seconds at
# 1000 digits and does not finish in a minute at 10000.
MAX_PRECISION = 1000
# Largest order denominator q enclosed by integer q-th roots.  A root costs
# O(M(q*k)) on k-bit enclosures: per check at d = 8 the enclosures take a
# fifth of validated_eval's time up to q = 8, but longer by q = 50.
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


def fraction_to_mpf(x: Fraction) -> mpmath.mpf:
    """Convert under the ambient working precision (one correctly-rounded division)."""
    return mp.make_mpf(libmp.from_rational(x.numerator, x.denominator, mp.prec, libmp.round_nearest))


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


def dyadic_real(enclosure: tuple[int, int, int], precision: int) -> HighPrecisionReal:
    """The lower end lo / 2**k of an enclosure (lo, hi, k), at validated_eval's final working precision."""
    lo, _, k = enclosure
    prec = libmp.dps_to_prec(precision + 2 * GUARD_DIGITS)
    return HighPrecisionReal(mp.make_mpf(libmp.from_man_exp(lo, -k, prec, libmp.round_nearest)), precision)


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


def strictly_less(lhs: HighPrecisionReal, rhs: HighPrecisionReal) -> bool | None:
    """Decide lhs < rhs with a margin of 10 units in the last kept digit; None within it."""
    precision = min(lhs.precision, rhs.precision)
    with mp.workdps(precision + GUARD_DIGITS):
        scale = max(abs(lhs.value), abs(rhs.value), mpmath.mpf(1))
        margin = 10 * scale * mpmath.mpf(10) ** (1 - precision)
        if rhs.value - lhs.value > margin:
            return True
        if lhs.value - rhs.value > margin:
            return False
    return None


def sqrt_of_fraction(x: Fraction, precision: int) -> HighPrecisionReal:
    if x < 0:
        raise ValueError("square root of a negative rational")
    return validated_eval(lambda: mpmath.sqrt(fraction_to_mpf(x)), precision)
