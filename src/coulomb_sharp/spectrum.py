"""Negative spectrum of the shifted Coulomb Hamiltonian -Delta - kappa/|x| + Lambda.

The whole negative spectrum is controlled by the dimension d and the single
dimensionless coupling ratio eta = kappa/sqrt(Lambda), so ``levels``,
``counting_function`` and ``riesz_mean`` take that pair and ``top_level``
checks it; every quantity is reported in units Lambda = 1.  The eigenvalues
are the hydrogen-like levels

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
import reprlib
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
# riesz_mean_int's interval sum.  A root costs O(M(q*k)) on k-bit enclosures,
# the sum about the same at every q.  Per point at d = 8 and 30 digits, roots
# take 0.23 ms at q = 9 and 0.64 ms at q = 32 (a tie at 60 digits), sums 1.3 ms.
MAX_ROOT_DEGREE = 32


def check_dimension(d: object, name: str = "d") -> int:
    """The one input rule for a dimension: an integer from 3 to MAX_DIMENSION."""
    if type(d) is not int or not 3 <= d <= MAX_DIMENSION:
        raise ValueError(f"{name} must be an integer from 3 to {MAX_DIMENSION}, got {reprlib.repr(d)}")
    return d


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


def levels(d: int, eta: RationalLike) -> list[LevelData]:
    """All negative levels at (d, eta) with multiplicities, in increasing energy order."""
    eta = as_rational(eta)
    ell = top_level(d, eta.numerator, eta.denominator)
    return [LevelData(j, multiplicity(d, j), 1 - eta**2 / (2 * j + d - 1) ** 2) for j in range(ell + 1)]


def top_level(d: int, n: int, den: int) -> int:
    """Index ell of the highest negative level at eta = n/den (den > 0), -1 if there is none.

    The one (d, eta) input rule: an integer d >= 3 and eta > 0.
    ell = ceil(tau) - 1 with tau = (eta + 1 - d)/2, which is one floor
    division; it is negative exactly when eta <= d - 1.
    """
    if not isinstance(d, int) or d < 3:
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


def counting_function(d: int, eta: RationalLike) -> int:
    """Total multiplicity of the negative spectrum at (d, eta)."""
    eta = as_rational(eta)
    ell = top_level(d, eta.numerator, eta.denominator)
    return level_count(d, ell) if ell >= 0 else 0


def riesz_mean(d: int, eta: RationalLike, gamma: RationalLike) -> Fraction | mpmath.mpf:
    """Sum of |lambda_j/Lambda|**gamma at (d, eta) with multiplicities (gamma = 0: the count).

    Exact rational for gamma in {0, 1} (at 1 from ``riesz_mean_order1_int``);
    otherwise the lower end of ``riesz_mean_int``'s enclosure, an mpf held
    at DEFAULT_PRECISION plus guard digits (``highprec.dyadic_real``).
    Returns 0 for empty spectrum.
    """
    eta, gamma = as_rational(eta), as_rational(gamma)
    n, den = eta.numerator, eta.denominator
    ell = top_level(d, n, den)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if ell < 0:
        return Fraction(0)
    if gamma == 0:
        return Fraction(level_count(d, ell))
    if gamma == 1:
        return Fraction(*riesz_mean_order1_int(d, n, den))
    enclosure = riesz_mean_int(d, n, den, gamma, enclosure_bits(DEFAULT_PRECISION))
    return dyadic_real(enclosure, DEFAULT_PRECISION)


def riesz_mean_int(d: int, n: int, den: int, gamma: Fraction, bits: int) -> tuple[int, int, int]:
    """Order-gamma Riesz mean at eta = n/den (den > 0) as an enclosure (lo, hi, k).

    The mean lies in [lo, hi] / 2**k, and hi - lo is below 2**-bits of it.
    With gamma = p/q, m = 2j+d-1 and x = a/b = (n^2 - den^2 m^2) / (den^2 m^2),
    the mean is the sum of mu_j x**gamma, by one of two kernels:

    - q <= MAX_ROOT_DEGREE: integer q-th roots.  The term x**gamma * 2**k lies
      in [t, t+1) for t = ``iroot``(a^p 2^(qk) // b^p, q), with mu_j, m^2 and
      m^(2p) cached; the multiplicities weight both ends, so hi - lo is the count.
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
    if q > MAX_ROOT_DEGREE:

        def mean() -> mpmath.ctx_iv.ivmpf:
            iv = mpmath.iv
            g = iv.mpf(p) / q
            total = iv.mpf(0)
            for j in range(ell + 1):
                b = den2 * (2 * j + d - 1) ** 2
                total += multiplicity(d, j) * (iv.mpf(n2 - b) / b) ** g
            return total

        # |log x| < log2(n^2), since 1/b <= x < n^2.
        spare = (2 * p * n2.bit_length() // q).bit_length()
        return interval_enclosure(mean, bits + (ell + 1).bit_length() + spare + 16)
    # The j = 0 term is at least 2**low, a lower bound for the mean; k puts
    # the width count / 2**k below 2**(low - bits).
    count = level_count(d, ell)
    b0 = den2 * (d - 1) ** 2
    low = p * ((n2 - b0).bit_length() - 1 - b0.bit_length()) // q
    k = max(0, bits + count.bit_length() - low)
    shift, den2p = q * k, den2**p  # b_j = den2 m_j^2, so b_j^p = den2p m_j^(2p)
    terms = _root_terms(d, ell, p)
    lo = sum(mu * iroot(((n2 - den2 * m2) ** p << shift) // (den2p * m2p), q) for mu, m2, m2p in terms)
    return lo, lo + count, k


@functools.lru_cache(maxsize=4)
def _root_terms(d: int, ell: int, p: int) -> tuple[tuple[int, int, int], ...]:
    """(mu_j, m_j^2, m_j^(2p)) for the levels 0..ell, m_j = 2j+d-1; cached like level_count, whatever den is."""
    return tuple((multiplicity(d, j), m * m, m ** (2 * p)) for j, m in enumerate(range(d - 1, d + 2 * ell, 2)))


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
