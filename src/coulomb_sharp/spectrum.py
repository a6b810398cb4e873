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
eta are bit-exact.  Every other order is an integer enclosure (``riesz_mean_int``):
q-th roots up to the order denominator ``highprec.MAX_ROOT_DEGREE``, ``log_int``
and ``exp_int`` above it.  ``riesz_means_int`` encloses several dimensions at
one eta: a root term floor(x_m**gamma 2**k), x_m = eta**2/m**2 - 1, depends on
d only through k, so the dimensions of one parity share one row of roots at
their largest k, K, and each reads its own as row >> (K - k), exact since
floor(2**K y) >> s = floor(2**(K-s) y) for y >= 0.  ``riesz_mean`` returns the
lower end as a plain mpf.
"""

from __future__ import annotations

import functools
import math
import operator
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exact import RationalLike, as_rational, iroot
from .highprec import (
    DEFAULT_PRECISION,
    MAX_ROOT_DEGREE,
    dyadic_real,
    enclosure_bits,
    exp_int,
    ln2_int,
    log_int,
    validated_eval,  # no caller here; bench/test_harness.py checks the tracer rebinds this name
)

if TYPE_CHECKING:
    import mpmath

# Largest dimension any input may name: the top of the asymptotics range and
# above every pinned d.
MAX_DIMENSION = 400


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
    """Order-gamma Riesz mean at eta = n/den (den > 0) as an enclosure (lo, hi, k): ``riesz_means_int`` at one d."""
    return riesz_means_int((d,), n, den, gamma, bits)[0]


def riesz_means_int(ds: Sequence[int], n: int, den: int, gamma: Fraction, bits: int) -> list[tuple[int, int, int]]:
    """Order-gamma Riesz means at eta = n/den (den > 0) for each d of ``ds``, as enclosures (lo, hi, k).

    Each mean lies in [lo, hi] / 2**k, and hi - lo is below 2**-bits of it.
    With gamma = p/q, m = 2j+d-1 and x = a/b = (n^2 - den^2 m^2) / (den^2 m^2),
    the mean is the sum of mu_j x**gamma.  The j = 0 term exceeds 2**low, so
    k = max(0, bits + count.bit_length() - low) for the eigenvalue count puts
    2**count.bit_length() units of 2**-k below 2**-bits of the mean.
    Each term x**gamma 2**k is enclosed by one of two kernels:

    - q <= MAX_ROOT_DEGREE: integer q-th roots, shared across dimensions.  x
      depends on (eta, m) only, and the levels of d + 2 are those of d less
      m = d - 1, so the dimensions of one parity read one root row
      r_m = ``iroot``(a^p 2^(qK) // b^p, q) = floor(x**gamma 2**K), m from the
      class's least d - 1 up to the top level, K the class's largest k.  Each
      d sums mu_j (r_m >> (K - k)): floor(2**K y) >> s = floor(2**(K-s) y) for
      y >= 0, so every term is floor(x**gamma 2**k), as a root at k alone gives.
      The term lies in [t, t+1); the multiplicities weight both ends, so
      hi - lo is the count.
    - larger q, per d: x**gamma 2**k = e**Y, Y = gamma ln x + k ln 2, from ``log_int`` and
      ``exp_int`` at w bits and one ``ln2_int``; the multiplicities weight both ends
      of 2**w e**Y, and the sums are rounded outward once.  As 1/n^2 < x < n^2 < 2**B,
      B = (n^2).bit_length(), ``log_int``'s |e| < B and ``exp_int``'s |m| <= gamma B + k + 2,
      so its delta < gamma ((B + 3) w + 20) + 2 + (k + |m|) w and 2**w e**Y is within
      6 D w e**Y + 2 for c = ceil(gamma + 1) and D = 3 c (B + 3) + 2k + 4.  w = bits + 2t,
      t = X.bit_length(), X = 72 D bits, gives 72 D w <= X (1 + 2t) <= X 2**t <= 2**(2t).
      With U = 2**-bits mean 2**k, which exceeds 2**count.bit_length() > count, the
      ends then differ by less than (6 D w mean 2**k + 2 count) 2**-w + 2 < U/4 + 2 units
      of 2**-k: below U for U >= 8/3, and as an integer below 3 for 2 < U < 8/3.

    An empty spectrum gives [0, 0].
    """
    p, q = gamma.numerator, gamma.denominator
    n2, den2 = n * n, den * den
    means: dict[int, tuple[int, int, int]] = {}
    rows: dict[int, list[tuple[int, tuple[int, ...], int, int]]] = {}  # parity -> (d, mus, count, k)
    for d in ds:
        ell = top_level(d, n, den)
        if ell < 0:
            means[d] = 0, 0, bits
            continue
        mus, count = _weights(d, ell)
        b0 = den2 * (d - 1) ** 2
        low = p * ((n2 - b0).bit_length() - 1 - b0.bit_length()) // q
        k = max(0, bits + count.bit_length() - low)
        if q <= MAX_ROOT_DEGREE:
            rows.setdefault(d % 2, []).append((d, mus, count, k))
            continue
        spread = 3 * -(-(p + q) // q) * (n2.bit_length() + 3) + 2 * k + 4
        w = bits + 2 * (72 * spread * bits).bit_length()
        ln2, lo, hi = ln2_int(w), 0, 0
        for mu, m in zip(mus, range(d - 1, d + 2 * ell, 2)):
            b = den2 * m * m
            log_lo, log_hi = log_int(n2 - b, b, w, ln2)
            t_lo, t_hi = exp_int(p * log_lo // q + k * ln2[0], -(-p * log_hi // q) + k * ln2[1], w, ln2)
            lo, hi = lo + mu * t_lo, hi + mu * t_hi
        means[d] = lo >> w, -(-hi >> w), k
    den2p = den2**p if rows else 1  # b^p = den2p m^(2p)
    for members in rows.values():
        first = min(d for d, *_ in members) - 1
        top_k = max(k for *_, k in members)
        shift = q * top_k
        d, mus = members[0][:2]
        last = d + 2 * len(mus) - 3  # every member's top level: the largest m < eta of this parity
        row = [
            iroot(((n2 - den2 * m * m) ** p << shift) // (den2p * m ** (2 * p)), q) for m in range(first, last + 1, 2)
        ]
        for d, mus, count, k in members:
            s, start = top_k - k, (d - 1 - first) // 2
            lo = sum(map(operator.mul, mus, row[start:] if s == 0 else [r >> s for r in row[start:]]))
            means[d] = lo, lo + count, k
    return [means[d] for d in ds]


@functools.lru_cache(maxsize=64)
def _weights(d: int, ell: int) -> tuple[tuple[int, ...], int]:
    """(mu_0, ..., mu_ell) at d and their sum, the eigenvalue count.

    Cached per (d, ell): along a sweep ell changes only every 2/step points of
    eta, so whichever loop is outer, a sweep over up to 64 dimensions finds
    one live entry per dimension.
    """
    mus = tuple(multiplicity(d, j) for j in range(ell + 1))
    return mus, sum(mus)


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
