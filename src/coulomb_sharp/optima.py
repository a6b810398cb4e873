"""Sharp constants and certified maximizer localization.

The optimal excess factors are maxima of Q (shifted Coulomb) and A
(conjectured general bound) over small integer windows around d**2/6.  The
windows come from localizing the unique positive zero of the respective
logarithmic derivative.  That zero is certified by Descartes' rule of signs
on the primitive integer image of the numerator: a variation count of 1
for p(x + lo) proves one root on the half-line (lo, +inf), and a count of 1
for the Moebius transform (1+x)**n p((a+b*x)/(1+x)) puts it in the window
(a, b); a larger count is resolved by splitting the interval and recounting
the parts (exact.descartes_count).  The numerator is built without a gcd, and is still co-prime to the
denominator because every distinct pole of the partial fractions carries a
nonzero coefficient, so its roots are exactly the zeros of the log-derivative.
The zero is narrowed by bisection on integer sign evaluations.

The window maxima are walked in integers.  P(l) = prod_{k<d}(l+k) steps
exactly as P(l+1) = P(l)(l+d) // (l+1), and each level becomes an unreduced
pair with positive denominator: ((2l+d) P, (2l+d-1)**d) for Q and
(P**2, (2l+d)**(d-2) (2l+d-2)**d) for A**2, the common power of 2 dropped.
Every level is compared exactly against the running best, so the maximum is
exact over the whole window and nothing assumes the levels rise and then
fall; ties go to the smaller level and are reported.  A pre-screen encloses
each level as num/den in [key, key+1) * 2**-k, key = floor(num * 2**k / den)
with about SCREEN_BITS bits, and decides only when the two enclosures are
disjoint: then the order of the intervals is the order of the values, with
no float and no margin.  Overlapping enclosures, equal values always among
them, fall back to cross-multiplying the full operands.  Only the winner is
reduced, through the closed forms q_value / a_value_squared.
Odd-d irrationality of A is handled by comparing squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from . import excess
from .exact import (
    CertificationError,
    EndpointRootError,
    MathematicalError,
    Polynomial,
    RationalLike,
    RootBracket,
    as_rational,
    bisect_root,
    descartes_count,
    isolate_unique_root,
    sign_function,
    sturm_count,  # no caller here; bench/test_harness.py checks the tracer rebinds this name
)

DEFAULT_BRACKET_WIDTH = Fraction(1, 1000)
# Bits kept in the quotient of each window level's enclosure (_enclosure).
SCREEN_BITS = 64


@dataclass(frozen=True)
class StarResult:
    """Exact integer-window maximum of an excess-factor function."""

    d: int
    argmax_ell: int
    value_squared: Fraction
    value: Fraction | None
    candidate_window: tuple[int, int]
    tie_ell: int | None = None


def t_star_bounds(d: int) -> tuple[Fraction, Fraction]:
    """Open interval (d^2/6 - 3d/2 + 7/3, d^2/6 - d/2 - 2/3) containing t*."""
    return (
        Fraction(d * d, 6) - Fraction(3 * d, 2) + Fraction(7, 3),
        Fraction(d * d, 6) - Fraction(d, 2) - Fraction(2, 3),
    )


def a_zero_bounds(d: int) -> tuple[Fraction, Fraction]:
    """Open interval (d^2/6 - 3d/2 + 5/3, d^2/6 - d/2 - 1) containing g's zero beyond -1."""
    return (
        Fraction(d * d, 6) - Fraction(3 * d, 2) + Fraction(5, 3),
        Fraction(d * d, 6) - Fraction(d, 2) - 1,
    )


def q_candidate_window(d: int) -> tuple[int, int]:
    """Integer hull of t_star_bounds(d), clamped at 0."""
    if d < 4:
        return (0, 0)
    lo, hi = t_star_bounds(d)
    return (max(0, math.floor(lo)), max(0, math.ceil(hi)))


def a_candidate_window(d: int) -> tuple[int, int]:
    """Integer hull of a_zero_bounds(d), clamped at 0."""
    if d < 5:
        return (0, 0)
    lo, hi = a_zero_bounds(d)
    return (max(0, math.floor(lo)), max(0, math.ceil(hi)))


def q_value(d: int, ell: int) -> Fraction:
    """Q at an integer level of the window."""
    return excess.q_eval(d, ell)


def a_value_squared(d: int, ell: int) -> Fraction:
    """A**2 at an integer level of the window."""
    return excess.a_eval_squared(d, ell)


def _enclosure(num: int, den: int) -> tuple[int, int]:
    """(key, k) with key = floor(num * 2**k / den), so num/den lies in [key, key+1) * 2**-k.

    k = bitlen(den) - bitlen(num) + SCREEN_BITS puts the quotient at about
    SCREEN_BITS bits: one shift and one division with a short quotient.
    """
    k = den.bit_length() - num.bit_length() + SCREEN_BITS
    key = (num << k) // den if k >= 0 else num // (den << -k)
    return key, k


def _cross_compare(num: int, den: int, best_num: int, best_den: int) -> int:
    """Sign of num/den - best_num/best_den by cross-multiplying (denominators positive)."""
    lhs, rhs = num * best_den, best_num * den
    return (lhs > rhs) - (lhs < rhs)


def _argmax_of_pairs(levels: Iterable[tuple[int, int, int]]) -> tuple[int, int | None]:
    """Level of the largest num/den over (ell, num, den) triples in ascending ell, den > 0.

    Each level is compared exactly against the running best: disjoint
    enclosures decide, overlapping ones fall back to cross-multiplying.  Ties
    break toward the smaller level; the first later level equal to the
    winner is reported as the tie.
    """
    it = iter(levels)
    best_ell, best_num, best_den = next(it)
    best_key, best_k = _enclosure(best_num, best_den)
    tie: int | None = None
    for ell, num, den in it:
        key, k = _enclosure(num, den)
        # Both enclosures in units of 2**-K.
        K = max(k, best_k)
        lo, hi = key << (K - k), (key + 1) << (K - k)
        best_lo, best_hi = best_key << (K - best_k), (best_key + 1) << (K - best_k)
        if hi <= best_lo:
            continue
        order = 1 if lo >= best_hi else _cross_compare(num, den, best_num, best_den)
        if order > 0:
            best_ell, best_num, best_den, best_key, best_k, tie = ell, num, den, key, k, None
        elif order == 0 and tie is None:
            tie = ell
    return best_ell, tie


def _q_levels(d: int, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """Q(ell) / 2**(d-1) as the pair ((2l+d) P, (2l+d-1)**d), P = prod_{k<d}(l+k), walked in ell."""
    prod = excess._pochhammer_int(d - 1, lo, 1)
    for ell in range(lo, hi + 1):
        yield ell, (2 * ell + d) * prod, (2 * ell + d - 1) ** d
        prod = prod * (ell + d) // (ell + 1)


def _a_squared_levels(d: int, lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """A**2(ell) / 2**(2d-2) as the pair (P**2, (2l+d)**(d-2) (2l+d-2)**d), walked in ell."""
    prod = excess._pochhammer_int(d - 1, lo, 1)
    lower = (2 * lo + d - 2) ** d
    for ell in range(lo, hi + 1):
        base = 2 * ell + d
        upper = base ** (d - 2)
        yield ell, prod * prod, upper * lower
        # 2(ell+1) + d - 2 = base: this level's base**d is the next one's lower factor.
        lower = upper * base * base
        prod = prod * (ell + d) // (ell + 1)


def q_star(d: int) -> StarResult:
    """Exact maximum of Q over its candidate window (Q3 maximizes at 0)."""
    if d < 3:
        raise ValueError("d must be >= 3")
    lo, hi = q_candidate_window(d)
    argmax, tie = _argmax_of_pairs(_q_levels(d, lo, hi))
    best = q_value(d, argmax)
    return StarResult(
        d=d,
        argmax_ell=argmax,
        value_squared=best * best,
        value=best,
        candidate_window=(lo, hi),
        tie_ell=tie,
    )


def a_star(d: int) -> StarResult:
    """Exact maximum of A over its candidate window, compared through squares."""
    if d < 3:
        raise ValueError("d must be >= 3")
    lo, hi = a_candidate_window(d)
    argmax, tie = _argmax_of_pairs(_a_squared_levels(d, lo, hi))
    best_sq = a_value_squared(d, argmax)
    # For even d both powers in A**2's denominator (d-2 and d) are even and its
    # numerator is a square, so the reduced fraction is a square over a square;
    # the levels are >= 0, where A > 0.
    value = Fraction(math.isqrt(best_sq.numerator), math.isqrt(best_sq.denominator)) if d % 2 == 0 else None
    return StarResult(
        d=d,
        argmax_ell=argmax,
        value_squared=best_sq,
        value=value,
        candidate_window=(lo, hi),
        tie_ell=tie,
    )


def _certified_unique_root_bracket(
    poly: Polynomial,
    domain_lo: Fraction,
    window: tuple[Fraction, Fraction],
    width: Fraction,
) -> RootBracket:
    """Certify a unique root of poly in (domain_lo, +inf), inside window, by Descartes' rule.

    The first count covers the whole half-line; the second, inside
    isolate_unique_root, places that root strictly inside the window.  Any
    count other than 1 is a failure.
    """
    win_lo, win_hi = window
    try:
        total = descartes_count(poly, domain_lo)
        if total != 1:
            raise CertificationError(f"expected one zero beyond {domain_lo}, Descartes count is {total}")
        bracket = isolate_unique_root(poly, win_lo, win_hi)
    except EndpointRootError as exc:
        raise CertificationError(f"maximizer sits on a window endpoint: {exc}") from exc
    sign = sign_function(poly)
    bracket = bisect_root(sign, bracket, width)
    # Tighten until strictly inside the open window.
    while bracket.lower <= win_lo or bracket.upper >= win_hi:
        bracket = bisect_root(sign, bracket, bracket.width / 4)
    return bracket


def locate_t_star(d: int, width: RationalLike = DEFAULT_BRACKET_WIDTH) -> RootBracket:
    """Certified bracket for the unique zero of f beyond -1 (d >= 4)."""
    if d == 3:
        raise MathematicalError("t-star is undefined for d = 3: Q_3 is strictly decreasing on (-1, +inf)")
    if d < 3:
        raise ValueError("d must be >= 3")
    poly = excess.f_as_ratfun(d).numerator
    return _certified_unique_root_bracket(poly, Fraction(-1), t_star_bounds(d), as_rational(width))


def locate_a_maximizer(d: int, width: RationalLike = DEFAULT_BRACKET_WIDTH) -> RootBracket | None:
    """Certified bracket for the unique zero of g beyond -1; None for d <= 4.

    The zero is certified strictly inside a_zero_bounds(d), whose lower end is
    clamped to the domain t > -1.  For even d it is isolated on the numerator
    of g directly; for odd d on the numerator of the shifted form in
    s = t + (d-1)/2 (poles at s <= (d-3)/2), and the bracket is shifted back.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    if d <= 4:
        return None
    if d % 2 == 0:
        poly, shift = excess.g_as_ratfun(d).numerator, Fraction(0)
    else:
        poly, shift = excess.g_shifted_as_ratfun(d).numerator, Fraction(d - 1, 2)
    lo, hi = a_zero_bounds(d)
    lo = max(lo, Fraction(-1))
    bracket = _certified_unique_root_bracket(
        poly, Fraction(-1) + shift, (lo + shift, hi + shift), as_rational(width)
    )
    return RootBracket(
        bracket.lower - shift,
        bracket.upper - shift,
        bracket.sign_at_lower,
        bracket.sign_at_upper,
    )


def counterexample_scan(
    d: int, eta_grid: list[Fraction]
) -> list[tuple[Fraction, Fraction]]:
    """Grid points where the eigenvalue count beats the semiclassical bound."""
    grid = [as_rational(eta) for eta in eta_grid]
    for eta in grid:
        if eta <= d - 1:
            raise ValueError(f"eta = {eta} is outside the negative-spectrum regime")
    hits = []
    for eta in sorted(grid):
        ratio = excess.r_eval(d, eta)
        if ratio > 1:
            hits.append((eta, ratio))
    return hits


def a_zero_window_check(d: int) -> bool:
    """Certify that g has exactly one zero beyond -1, strictly inside a_zero_bounds(d).

    g tends to +inf just right of its pole at -1 and the reduced denominator
    is positive on the domain, so a certified unique simple zero in the open
    window with signs (+, -) means g > 0 left of the window and g < 0 right
    of it, on the whole half-line.
    """
    if d < 5 or d % 2 == 0:
        raise ValueError("this window check is for odd d >= 5")
    try:
        bracket = locate_a_maximizer(d)
    except CertificationError:
        return False
    return (bracket.sign_at_lower, bracket.sign_at_upper) == (1, -1)
