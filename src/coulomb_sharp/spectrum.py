"""Negative spectrum of the shifted Coulomb Hamiltonian -Delta - kappa/|x| + Lambda.

The whole negative spectrum is controlled by the single dimensionless
coupling ratio eta = kappa/sqrt(Lambda); every quantity here is reported in
units Lambda = 1.  The eigenvalues are the hydrogen-like levels

    lambda_j / Lambda = 1 - eta**2 / (2j + d - 1)**2,   j = 0, ..., ell,

with ell = ceil((eta + 1 - d)/2) - 1; the spectrum is empty when
eta <= d - 1.  Multiplicities, the counting function and the Riesz means of
orders 0 and 1 are exact integers or rationals; ell is one integer floor
division on the numerator and denominator of eta, so the discontinuities in
eta are bit-exact.  Every other order is an enclosure (``riesz_mean_int``),
and ``riesz_mean`` returns its lower end as a plain mpf.
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
    dyadic_real,
    enclosure_bits,
    interval_enclosure,
    validated_eval,  # no caller here; bench/test_harness.py checks the tracer rebinds this name
)

# Largest dimension any input may name: the top of the asymptotics range and
# above every pinned d.
MAX_DIMENSION = 400
# Largest order denominator q enclosed by integer q-th roots; larger q take
# riesz_mean_int's interval sum.  A root costs O(M(q*k)) on k-bit
# enclosures: on the lt-sweep-gamma grid at gamma = 7/3 the roots take a
# tenth of the interval sum's time, but they do not finish at q = 10**12.
MAX_ROOT_DEGREE = 8


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
    # = C(d-2+j, j) (d-1+2j) / (d-1): one binomial, not three factorials.
    q, r = divmod(math.comb(d - 2 + j, j) * (d - 1 + 2 * j), d - 1)
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


def riesz_mean(params: SpectrumParams, gamma: RationalLike) -> Fraction | mpmath.mpf:
    """Sum of |lambda_j/Lambda|**gamma with multiplicities (gamma = 0: the count).

    Exact rational for gamma in {0, 1} (at 1 from ``riesz_mean_order1_int``);
    otherwise the lower end of ``riesz_mean_int``'s enclosure, an mpf held
    at DEFAULT_PRECISION plus guard digits (``highprec.dyadic_real``).
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
        return Fraction(*riesz_mean_order1_int(d, eta.numerator, eta.denominator))
    enclosure = riesz_mean_int(d, eta.numerator, eta.denominator, gamma, enclosure_bits(DEFAULT_PRECISION))
    return dyadic_real(enclosure, DEFAULT_PRECISION)


def riesz_mean_int(d: int, n: int, den: int, gamma: Fraction, bits: int) -> tuple[int, int, int]:
    """Order-gamma Riesz mean at eta = n/den (den > 0) as an enclosure (lo, hi, k).

    The mean lies in [lo, hi] / 2**k, and hi - lo is below 2**-bits of it.
    With gamma = p/q, m = 2j+d-1 and x = a/b = (n^2 - den^2 m^2) / (den^2 m^2),
    the mean is the sum of mu_j x**gamma, by one of two kernels:

    - q <= MAX_ROOT_DEGREE: integer q-th roots.  The term x**gamma * 2**k lies
      in [t, t+1) for t = floor((a^p 2^(qk) / b^p)^(1/q)); the multiplicities
      weight both ends, so hi - lo is the eigenvalue count.
    - larger q: an mpmath.iv sum, read off exactly by ``interval_enclosure``,
      at bits + (ell + 1).bit_length() + 16 bits plus the bits of
      2 gamma log2(n^2), which bound how much the power's log and exp widen
      each term.  The terms are positive, so each rounding widens the sum by
      a relative 2**-prec at most, and the ell + 1 terms set the rounding.

    An empty spectrum gives [0, 0].
    """
    ell = top_level(d, n, den)
    if ell < 0:
        return 0, 0, bits
    p, q = gamma.numerator, gamma.denominator
    n2, den2 = n * n, den * den
    mus = _multiplicities(d, ell)
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
        return interval_enclosure(mean, bits + (ell + 1).bit_length() + spare + 16)
    # The j = 0 term is at least 2**low, a lower bound for the mean; k puts
    # the width count / 2**k below 2**(low - bits).
    count = sum(mus)
    b0 = den2 * (d - 1) ** 2
    low = p * ((n2 - b0).bit_length() - 1 - b0.bit_length()) // q
    k = max(0, bits + count.bit_length() - low)
    shift = q * k
    lo = 0
    for j, mu in enumerate(mus):
        b = den2 * (2 * j + d - 1) ** 2
        lo += mu * iroot(((n2 - b) ** p << shift) // b**p, q)
    return lo, lo + count, k


@functools.lru_cache(maxsize=16)
def _multiplicities(d: int, ell: int) -> tuple[int, ...]:
    """mu_0..mu_ell; cached like level_count, since a grid in eta keeps ell for many points."""
    return tuple(multiplicity(d, j) for j in range(ell + 1))


@functools.lru_cache(maxsize=16)
def _order1_sums(d: int, ell: int) -> tuple[int, int]:
    """(S, L) for the levels 0..ell: L = lcm of the m_j**2 and S = sum mu_j L/m_j**2, m_j = 2j+d-1.

    Cached like level_count: along a grid in eta they change only where ell does.
    """
    squares = [(2 * j + d - 1) ** 2 for j in range(ell + 1)]
    lcm = math.lcm(*squares)
    return sum(multiplicity(d, j) * (lcm // m2) for j, m2 in enumerate(squares)), lcm


def riesz_mean_order1_int(d: int, n: int, den: int) -> tuple[int, int]:
    """Order-1 Riesz mean at eta = n/den (den > 0) as an unreduced integer pair.

    sum_j mu_j (eta^2/m_j^2 - 1) = (S n^2 - M L den^2) / (L den^2), with M the
    eigenvalue count and (S, L) from ``_order1_sums``; an empty spectrum gives 0.
    """
    ell = top_level(d, n, den)
    if ell < 0:
        return 0, den * den
    weighted, lcm = _order1_sums(d, ell)
    scale = lcm * den * den
    return weighted * n * n - level_count(d, ell) * scale, scale


def d3_envelope_terms_int(n: int, den: int) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The d = 3 envelope terms at eta = n/den (den > 0) as integer pairs.

    The leading part eta^3/12 - eta^2/8, the lower correction -eta/12 and the
    upper correction (2 ceil(eta/2) - 1)/24: the trace lies between the leading
    part plus either correction.
    """
    lead = ((2 * n - 3 * den) * n * n, 24 * den**3)
    return lead, (-n, 12 * den), (2 * -(-n // (2 * den)) - 1, 24)
