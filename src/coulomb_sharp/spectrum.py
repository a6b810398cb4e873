"""Negative spectrum of the shifted Coulomb Hamiltonian -Delta - kappa/|x| + Lambda.

The whole negative spectrum is controlled by the single dimensionless
coupling ratio eta = kappa/sqrt(Lambda); every quantity here is reported in
units Lambda = 1.  The eigenvalues are the hydrogen-like levels

    lambda_j / Lambda = 1 - eta**2 / (2j + d - 1)**2,   j = 0, ..., ell,

with ell = ceil((eta + 1 - d)/2) - 1; the spectrum is empty when
eta <= d - 1.  Multiplicities, the counting function and Riesz means are all
exact integers or rationals; ell is one integer floor division on the
numerator and denominator of eta, so the discontinuities in eta are bit-exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .exact import RationalLike, as_rational, iroot
from .highprec import (
    DEFAULT_PRECISION,
    MAX_ROOT_DEGREE,
    HighPrecisionReal,
    dyadic_real,
    enclosure_bits,
    interval_enclosure,
    validated_eval,  # no caller here; bench/test_harness.py checks the tracer rebinds this name
)

# Largest dimension any input may name: the top of the asymptotics range and
# above every pinned d.
MAX_DIMENSION = 400


def check_dimension(d: object, name: str = "d") -> int:
    """The one input rule for a dimension: an integer from 3 to MAX_DIMENSION."""
    if type(d) is not int or not 3 <= d <= MAX_DIMENSION:
        raise ValueError(f"{name} must be an integer from 3 to {MAX_DIMENSION}, got {d!r}")
    return d


@dataclass(frozen=True)
class SpectrumParams:
    """A problem instance: dimension d >= 3 and coupling ratio eta > 0."""

    d: int
    eta: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 3:
            raise ValueError("dimension d must be an integer >= 3")
        object.__setattr__(self, "eta", as_rational(self.eta))
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    @property
    def tau(self) -> Fraction:
        return (self.eta + 1 - self.d) / 2

    @property
    def ell(self) -> int | None:
        """Index of the highest negative level, or None for empty spectrum."""
        ell = top_level(self.d, self.eta.numerator, self.eta.denominator)
        return ell if ell >= 0 else None


@dataclass(frozen=True)
class LevelData:
    j: int
    multiplicity: int
    lambda_over_Lambda: Fraction


def multiplicity(d: int, j: int) -> int:
    """Multiplicity of the j-th Coulomb level: (d-2+j)! (d-1+2j) / ((d-1)! j!)."""
    if d < 3 or j < 0:
        raise ValueError("need d >= 3 and j >= 0")
    num = math.factorial(d - 2 + j) * (d - 1 + 2 * j)
    den = math.factorial(d - 1) * math.factorial(j)
    q, r = divmod(num, den)
    assert r == 0
    return q


def levels(params: SpectrumParams) -> list[LevelData]:
    """All negative levels with multiplicities, in increasing energy order."""
    ell = params.ell
    if ell is None:
        return []
    out = []
    for j in range(ell + 1):
        lam = 1 - Fraction(params.eta**2, (2 * j + params.d - 1) ** 2)
        out.append(LevelData(j=j, multiplicity=multiplicity(params.d, j), lambda_over_Lambda=lam))
    return out


def top_level(d: int, n: int, den: int) -> int:
    """Index ell of the highest negative level at eta = n/den (den > 0), -1 if there is none.

    ell = ceil(tau) - 1 with tau = (eta + 1 - d)/2, which is one floor
    division; it is negative exactly when eta <= d - 1.
    """
    if d < 3:
        raise ValueError("dimension d must be an integer >= 3")
    if n <= 0:
        raise ValueError("eta must be positive")
    return (n - (d - 1) * den - 1) // (2 * den)


@functools.lru_cache(maxsize=16)
def level_count(d: int, ell: int) -> int:
    """Total multiplicity of the levels 0..ell: (d+2l)(d+l-1)!/(d! l!).

    Cached: along a grid in eta the count changes only where ell does, so a
    few entries serve a whole grid, while large counts are not kept long.
    """
    num = (d + 2 * ell) * math.factorial(d + ell - 1)
    den = math.factorial(d) * math.factorial(ell)
    q, r = divmod(num, den)
    assert r == 0
    return q


def counting_function(params: SpectrumParams) -> int:
    """Total multiplicity of the negative spectrum."""
    ell = params.ell
    return 0 if ell is None else level_count(params.d, ell)


def riesz_mean(
    params: SpectrumParams, gamma: RationalLike, precision: int = DEFAULT_PRECISION
) -> Fraction | HighPrecisionReal:
    """Sum of |lambda_j/Lambda|**gamma with multiplicities (gamma = 0: the count).

    Exact rational for gamma in {0, 1}; otherwise the lower end of
    ``riesz_mean_int``'s enclosure, a high-precision real at ``precision``.
    Returns 0 for empty spectrum.
    """
    gamma = as_rational(gamma)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    ell = params.ell
    if ell is None:
        return Fraction(0)
    if gamma == 0:
        return Fraction(counting_function(params))
    d, eta = params.d, params.eta
    if gamma == 1:
        terms = (multiplicity(d, j) * (Fraction(eta**2, (2 * j + d - 1) ** 2) - 1) for j in range(ell + 1))
        return sum(terms, Fraction(0))
    enclosure = riesz_mean_int(d, eta.numerator, eta.denominator, gamma, enclosure_bits(precision))
    return dyadic_real(enclosure, precision)


def riesz_mean_int(d: int, n: int, den: int, gamma: Fraction, bits: int) -> tuple[int, int, int]:
    """Order-gamma Riesz mean at eta = n/den (den > 0) as an enclosure (lo, hi, k).

    The mean lies in [lo, hi] / 2**k, and hi - lo is below 2**-bits of it.
    With gamma = p/q, m = 2j+d-1 and x = a/b = (n^2 - den^2 m^2) / (den^2 m^2),
    the mean is the sum of mu_j x**gamma, by one of two kernels:

    - q <= MAX_ROOT_DEGREE: integer q-th roots.  The term x**gamma * 2**k lies
      in [t, t+1) for t = floor((a^p 2^(qk) / b^p)^(1/q)); the multiplicities
      weight both ends, so hi - lo is the eigenvalue count.
    - larger q: an mpmath.iv sum, read off exactly by ``interval_enclosure``,
      at bits + count.bit_length() + 16 bits plus the bits of
      2 gamma log2(n^2), which bound how much the power's log and exp widen
      each term.

    An empty spectrum gives [0, 0].
    """
    ell = top_level(d, n, den)
    if ell < 0:
        return 0, 0, bits
    p, q = gamma.numerator, gamma.denominator
    n2, den2 = n * n, den * den
    mus = [multiplicity(d, j) for j in range(ell + 1)]
    count = sum(mus)
    if q > MAX_ROOT_DEGREE:

        def mean() -> mpmath.ctx_iv.ivmpf:
            iv = mpmath.iv
            g = iv.mpf(p) / q
            total = iv.mpf(0)
            for j, mu in enumerate(mus):
                b = den2 * (2 * j + d - 1) ** 2
                total += mu * (iv.mpf(n2 - b) / b) ** g
            return total

        # |log x| < log2(n^2), since 1/b <= x < n^2.
        spare = (2 * p * n2.bit_length() // q).bit_length()
        return interval_enclosure(mean, bits + count.bit_length() + spare + 16)
    # The j = 0 term is at least 2**low, a lower bound for the mean; k puts
    # the width count / 2**k below 2**(low - bits).
    b0 = den2 * (d - 1) ** 2
    low = p * ((n2 - b0).bit_length() - 1 - b0.bit_length()) // q
    k = max(0, bits + count.bit_length() - low)
    shift = q * k
    lo = 0
    for j, mu in enumerate(mus):
        b = den2 * (2 * j + d - 1) ** 2
        lo += mu * iroot(((n2 - b) ** p << shift) // b**p, q)
    return lo, lo + count, k


def riesz_mean_d3_int(n: int, den: int) -> tuple[int, int]:
    """Order-1 Riesz mean for d = 3 at eta = n/den (den > 0) as an integer pair.

    (l+1)eta^2/4 - (l+1)(l+2)(2l+3)/6 = (l+1)(3n^2 - 2den^2(l+2)(2l+3)) / (12den^2);
    the factor l+1 makes it 0 for eta <= 2, where l = -1.
    """
    ell = top_level(3, n, den)
    return (ell + 1) * (3 * n * n - 2 * den * den * (ell + 2) * (2 * ell + 3)), 12 * den * den


def d3_envelope_terms_int(n: int, den: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The d = 3 envelope terms at eta = n/den (den > 0) as integer pairs.

    The leading part eta^3/12 - eta^2/8, the lower correction -eta/12 and the
    upper correction (2 ceil(eta/2) - 1)/24: the trace lies between the leading
    part plus either correction.
    """
    lead = ((2 * n - 3 * den) * n * n, 24 * den**3)
    return lead, (-n, 12 * den), (2 * -(-n // (2 * den)) - 1, 24)


def riesz_mean_d3_closed_form(eta: RationalLike) -> Fraction:
    """Order-1 Riesz mean for d = 3, exact."""
    eta = as_rational(eta)
    return Fraction(*riesz_mean_d3_int(eta.numerator, eta.denominator))
