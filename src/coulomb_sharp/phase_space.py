"""Semiclassical phase-space quantities: the right-hand sides of the inequalities.

The combined semiclassical bound for the shifted Coulomb potential is

    eta**d / 2**(d-1) * Gamma(gamma+1) Gamma(d/2-gamma) / (Gamma(d+1) Gamma(d/2)),

in units Lambda = 1 (finite exactly for 0 <= gamma < d/2).  Gamma values at
integer and half-integer arguments are assembled symbolically as exact
rationals times a power of sqrt(pi), so that pi powers cancel structurally
before anything is evaluated numerically.  Every other order is enclosed:
the exact eta**d / 2**(d-1) times an interval enclosure of the Gamma ratio,
which is computed once per (d, gamma, bits) and cached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath

from .exact import RationalLike, as_rational
from .highprec import (
    DEFAULT_PRECISION,
    HighPrecisionReal,
    dyadic_real,
    enclosure_bits,
    interval_enclosure,
    validated_eval,  # no caller here; bench/test_harness.py checks the tracer rebinds this name
)


@dataclass(frozen=True)
class PiScaledRational:
    """Exact value ratio * pi**(pi_half_power/2)."""

    ratio: Fraction
    pi_half_power: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", as_rational(self.ratio))
        if self.ratio == 0:
            object.__setattr__(self, "pi_half_power", 0)

    @property
    def is_rational(self) -> bool:
        return self.pi_half_power == 0

    def __mul__(self, other: Union["PiScaledRational", RationalLike]) -> "PiScaledRational":
        if isinstance(other, PiScaledRational):
            return PiScaledRational(self.ratio * other.ratio, self.pi_half_power + other.pi_half_power)
        return PiScaledRational(self.ratio * as_rational(other), self.pi_half_power)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["PiScaledRational", RationalLike]) -> "PiScaledRational":
        if isinstance(other, PiScaledRational):
            if other.ratio == 0:
                raise ZeroDivisionError
            return PiScaledRational(self.ratio / other.ratio, self.pi_half_power - other.pi_half_power)
        return PiScaledRational(self.ratio / as_rational(other), self.pi_half_power)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiScaledRational):
            return self.ratio == other.ratio and self.pi_half_power == other.pi_half_power
        if isinstance(other, (Fraction, int)):
            return self.is_rational and self.ratio == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.ratio)
        return hash((self.ratio, self.pi_half_power))

    def __repr__(self) -> str:
        if self.is_rational:
            return f"{self.ratio}"
        return f"{self.ratio}*pi^({self.pi_half_power}/2)"


def gamma_at(x: RationalLike) -> PiScaledRational:
    """Gamma(x) exactly, for x > 0 with 2x an integer.

    Gamma(n) = (n-1)! and Gamma(n + 1/2) = (2n)! sqrt(pi) / (4**n n!).
    """
    x = as_rational(x)
    if x <= 0:
        raise ValueError("gamma_at requires x > 0 (poles are never needed here)")
    if x.denominator == 1:
        return PiScaledRational(Fraction(math.factorial(x.numerator - 1)), 0)
    if x.denominator == 2:
        n = (x.numerator - 1) // 2
        ratio = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
        return PiScaledRational(ratio, 1)
    raise ValueError("gamma_at needs 2x to be an integer")


def lt_rhs(
    d: int, eta: RationalLike, gamma: RationalLike, precision: int = DEFAULT_PRECISION
) -> Fraction | PiScaledRational | HighPrecisionReal:
    """Semiclassical right-hand side of the order-gamma inequality, units Lambda**gamma.

    Exact whenever 2*gamma is an integer (a plain rational when the pi powers
    cancel, which happens for every odd d with 2*gamma integer and every even
    d with gamma integer); otherwise the lower end of ``lt_rhs_int``'s
    enclosure, a high-precision real at ``precision``.
    """
    eta, gamma = as_rational(eta), as_rational(gamma)
    _check_order(d, gamma)
    if (2 * gamma).denominator == 1:
        value = gamma_ratio_exact(d, gamma) * (eta**d / 2 ** (d - 1))
        return value.ratio if value.is_rational else value
    enclosure = lt_rhs_int(d, eta.numerator, eta.denominator, gamma, enclosure_bits(precision))
    return dyadic_real(enclosure, precision)


def _check_order(d: int, gamma: Fraction) -> None:
    if d < 3:
        raise ValueError("d must be >= 3")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma >= Fraction(d, 2):
        raise ValueError("phase-space integral diverges for gamma >= d/2")


@functools.lru_cache(maxsize=64)
def gamma_ratio_exact(d: int, gamma: Fraction) -> PiScaledRational:
    """Gamma(gamma+1) Gamma(d/2-gamma) / (Gamma(d+1) Gamma(d/2)) exactly, for 2*gamma an integer.

    At gamma = 1 it is the rational 2/(d! (d-2)).  Cached like gamma_ratio_int.
    """
    _check_order(d, gamma)
    half_d = Fraction(d, 2)
    return gamma_at(gamma + 1) * gamma_at(half_d - gamma) / (gamma_at(Fraction(d + 1)) * gamma_at(half_d))


@functools.lru_cache(maxsize=64)
def gamma_ratio_int(d: int, gamma: Fraction, bits: int) -> tuple[int, int, int]:
    """Gamma(gamma+1) Gamma(d/2-gamma) / (Gamma(d+1) Gamma(d/2)) as an enclosure (lo, hi, k).

    The ratio lies in [lo, hi] / 2**k with hi - lo below 2**-(bits+2) of it:
    ``interval_enclosure`` of an mpmath.iv evaluation at bits + 16 bits.
    Cached: a sweep needs one entry per dimension.
    """
    _check_order(d, gamma)

    def ratio() -> mpmath.ctx_iv.ivmpf:
        iv = mpmath.iv
        g = iv.mpf(gamma.numerator) / gamma.denominator
        dh = iv.mpf(d) / 2
        return iv.gamma(g + 1) * iv.gamma(dh - g) / (iv.gamma(iv.mpf(d + 1)) * iv.gamma(dh))

    return interval_enclosure(ratio, bits + 16)


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


def clr_rhs_int(d: int, n: int, den: int) -> tuple[int, int]:
    """clr_rhs at eta = n/den (den > 0) as an integer pair: n**d / (2**(d-1) d! den**d)."""
    if d < 3:
        raise ValueError("d must be >= 3")
    if n <= 0:
        raise ValueError("eta must be positive")
    return n**d, 2 ** (d - 1) * math.factorial(d) * den**d


def clr_rhs(d: int, eta: RationalLike) -> Fraction:
    """Semiclassical bound on the eigenvalue count: eta**d / (2**(d-1) d!)."""
    eta = as_rational(eta)
    return Fraction(*clr_rhs_int(d, eta.numerator, eta.denominator))
