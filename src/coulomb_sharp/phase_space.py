"""Semiclassical phase-space quantities: the right-hand sides of the inequalities.

The combined semiclassical bound for the shifted Coulomb potential is

    eta**d / 2**(d-1) * Gamma(gamma+1) Gamma(d/2-gamma) / (Gamma(d+1) Gamma(d/2)),

in units Lambda = 1 (finite exactly for 0 <= gamma < d/2).  At an integer
order g it is rational, eta**d g! / (2**(d-1-g) d! prod_{k=1..g} (d-2k)), and
``lt_rhs_order_int`` returns it as an integer pair; g = 0 is the CLR count.
Every other order is enclosed (``lt_rhs_int``): the exact eta**d / 2**(d-1)
times an enclosure of the Gamma ratio, which is computed once per
(d, gamma, bits) and cached: three integer Gamma enclosures
(``highprec.gamma_int``) and exact rationals, for every order denominator.
``lt_rhs`` returns the lower end as a plain mpf.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import RationalLike, as_rational
from .highprec import (
    DEFAULT_PRECISION,
    dyadic_real,
    enclosure_bits,
    gamma_int,
    gamma_parts,
    validated_eval,  # no caller here; bench/test_harness.py checks the tracer rebinds this name
)

if TYPE_CHECKING:
    import mpmath


def lt_rhs(d: int, eta: RationalLike, gamma: RationalLike) -> Fraction | mpmath.mpf:
    """Semiclassical right-hand side of the order-gamma inequality, units Lambda**gamma.

    Exact for integer gamma (``lt_rhs_order_int``); for every other order,
    half-integers included, the lower end of ``lt_rhs_int``'s enclosure, an
    mpf held at DEFAULT_PRECISION plus guard digits (``highprec.dyadic_real``).
    """
    eta, gamma = as_rational(eta), as_rational(gamma)
    _check_order(d, gamma)
    if gamma.denominator == 1:
        return Fraction(*lt_rhs_order_int(d, eta.numerator, eta.denominator, gamma.numerator))
    enclosure = lt_rhs_int(d, eta.numerator, eta.denominator, gamma, enclosure_bits(DEFAULT_PRECISION))
    return dyadic_real(enclosure, DEFAULT_PRECISION)


def _check_order(d: int, gamma: Fraction) -> None:
    if d < 3:
        raise ValueError("d must be >= 3")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma >= Fraction(d, 2):
        raise ValueError("phase-space integral diverges for gamma >= d/2")


@functools.lru_cache(maxsize=64)
def gamma_ratio_int(d: int, gamma: Fraction, bits: int) -> tuple[int, int, int]:
    """Gamma(gamma+1) Gamma(d/2-gamma) / (Gamma(d+1) Gamma(d/2)) as an enclosure (lo, hi, k).

    The ratio lies in [lo, hi] / 2**k with hi - lo below 2**-(bits+2) of it.
    ``highprec.gamma_parts`` writes it as an exact rational c, d! included,
    times Gamma(s1) Gamma(s2) / Gamma(s3), each ``gamma_int`` enclosure within
    2**-(bits+6): the product's ends are within 3.01 * 2**-(bits+6), and each
    is rounded outward once, by at most 2**-(bits+5) of the value.  Cached:
    a sweep needs one entry per dimension.
    """
    _check_order(d, gamma)
    (c1, s1), (c2, s2), (c3, s3) = (gamma_parts(x) for x in (gamma + 1, Fraction(d, 2) - gamma, Fraction(d, 2)))
    c = c1 * c2 / (c3 * math.factorial(d))
    (a_lo, a_hi, ka), (b_lo, b_hi, kb), (g_lo, g_hi, kg) = (gamma_int(s, bits + 6) for s in (s1, s2, s3))
    # ratio = c (a / 2**ka) (b / 2**kb) / (g / 2**kg) = top / bottom
    top_lo, top_hi = (c.numerator * a_lo * b_lo) << kg, (c.numerator * a_hi * b_hi) << kg
    bottom_lo, bottom_hi = (c.denominator * g_lo) << (ka + kb), (c.denominator * g_hi) << (ka + kb)
    low = top_lo.bit_length() - 1 - bottom_hi.bit_length()  # the ratio exceeds 2**low
    k = max(0, bits + 5 - low)
    return (top_lo << k) // bottom_hi, -(-(top_hi << k) // bottom_lo), k


def lt_rhs_int(d: int, n: int, den: int, gamma: Fraction, bits: int) -> tuple[int, int, int]:
    """lt_rhs at eta = n/den (den > 0) as an enclosure (lo, hi, k), hi - lo below 2**-bits of it.

    The exact n**d / (den**d 2**(d-1)) times gamma_ratio_int's enclosure, each
    end rounded outward to 2**-k; k puts one unit below 2**-(bits+3) of the value.
    """
    c_lo, c_hi, kc = gamma_ratio_int(d, gamma, bits)
    num, div = n**d, den**d << (d - 1 + kc)
    low = (num * c_lo).bit_length() - 1 - div.bit_length()  # the value exceeds 2**low
    k = max(0, bits + 3 - low)
    return (num * c_lo << k) // div, -(-(num * c_hi << k) // div), k


@functools.lru_cache(maxsize=64)
def _order_factors(d: int, g: int) -> tuple[int, int]:
    """(g!, 2**(d-1-g) d! prod_{k=1..g} (d-2k)) for an integer order 0 <= g < d/2.

    Gamma(g+1) Gamma(d/2-g) / Gamma(d/2) = g! 2**g / prod_{k=1..g} (d-2k).
    Cached: the suites read it at each point through clr_rhs and lt_rhs.
    """
    _check_order(d, Fraction(g))
    return math.factorial(g), 2 ** (d - 1 - g) * math.factorial(d) * math.prod(d - 2 * k for k in range(1, g + 1))


def lt_rhs_order_int(d: int, n: int, den: int, g: int) -> tuple[int, int]:
    """lt_rhs at eta = n/den (den > 0) and integer order g as an unreduced pair.

    (n**d g!, 2**(d-1-g) d! prod_{k=1..g} (d-2k) den**d); g = 0 is clr_rhs.
    """
    if n <= 0:
        raise ValueError("eta must be positive")
    top, bottom = _order_factors(d, g)
    return n**d * top, bottom * den**d


def clr_rhs(d: int, eta: RationalLike) -> Fraction:
    """Semiclassical bound on the eigenvalue count: eta**d / (2**(d-1) d!)."""
    eta = as_rational(eta)
    return Fraction(*lt_rhs_order_int(d, eta.numerator, eta.denominator, 0))
