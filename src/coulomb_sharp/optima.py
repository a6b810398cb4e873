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

The window maxima are walked in integers, through the sign of each
difference of adjacent levels: both sides of the closed-form ratio
V(l+1)/V(l) are small factors times powers near 2l+d, one new power per
level, so no level value is built.  Only weak local maxima can be maximal;
they are compared exactly by cross-multiplying their unreduced integer
pairs, so nothing assumes the levels rise and then fall.  Ties go to the
smaller level and are reported.  Only the winner is reduced, through the
closed forms q_value / a_value_squared.
Odd-d irrationality of A is handled by comparing squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

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


def _q_steps(d: int, lo: int, hi: int) -> Iterator[int]:
    """Sign of Q(l+1) - Q(l) for l = lo..hi-1, from the ratio of adjacent levels.

    Q(l+1)/Q(l) = (2l+d+2)(l+d) (2l+d-1)**d / ((2l+d)(l+1) (2l+d+1)**d), and
    this level's (2l+d+1)**d is the next one's (2l+d-1)**d.
    """
    upper = (2 * lo + d - 1) ** d
    for ell in range(lo, hi):
        base = 2 * ell + d
        lower, upper = upper, (base + 1) ** d
        lhs, rhs = (base + 2) * (ell + d) * lower, base * (ell + 1) * upper
        yield (lhs > rhs) - (lhs < rhs)


def _a_squared_steps(d: int, lo: int, hi: int) -> Iterator[int]:
    """Sign of A**2(l+1) - A**2(l) for l = lo..hi-1, from the ratio of adjacent levels.

    A**2(l+1)/A**2(l) = (l+d)**2 (2l+d-2)**d / ((l+1)**2 (2l+d)**2 (2l+d+2)**(d-2)).
    y**(d-2) rolls over y = 2l+d-2, 2l+d, 2l+d+2, and y**d = y**(d-2) y**2.
    """
    below, middle = (2 * lo + d - 2) ** (d - 2), (2 * lo + d) ** (d - 2)
    for ell in range(lo, hi):
        base = 2 * ell + d
        above = (base + 2) ** (d - 2)
        lhs, rhs = (ell + d) ** 2 * (base - 2) ** 2 * below, ((ell + 1) * base) ** 2 * above
        yield (lhs > rhs) - (lhs < rhs)
        below, middle = middle, above


def _window_argmax(
    lo: int, hi: int, steps: Iterable[int], pair: Callable[[int], tuple[int, int]]
) -> tuple[int, int | None]:
    """Smallest maximal level of V over lo..hi, and the next level of equal value.

    steps holds sign(V(l+1) - V(l)) for l = lo..hi-1; pair(l) is V(l) as an
    integer pair with positive denominator, built only for the weak local
    maxima (no fall into the level, no rise out of it) when there are several.
    """
    candidates, no_fall_in = [], True
    for ell, step in zip(range(lo, hi), steps):
        if no_fall_in and step <= 0:
            candidates.append(ell)
        no_fall_in = step >= 0
    if no_fall_in:
        candidates.append(hi)
    best, tie = candidates[0], None
    if len(candidates) > 1:
        best_num, best_den = pair(best)
        for ell in candidates[1:]:
            num, den = pair(ell)
            lhs, rhs = num * best_den, best_num * den
            if lhs > rhs:
                best, best_num, best_den, tie = ell, num, den, None
            elif lhs == rhs and tie is None:
                tie = ell
    return best, tie


def q_star(d: int) -> StarResult:
    """Exact maximum of Q over its candidate window (Q3 maximizes at 0)."""
    if d < 3:
        raise ValueError("d must be >= 3")
    lo, hi = q_candidate_window(d)
    argmax, tie = _window_argmax(lo, hi, _q_steps(d, lo, hi), lambda ell: excess.q_int(d, ell, 1))
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
    argmax, tie = _window_argmax(
        lo, hi, _a_squared_steps(d, lo, hi), lambda ell: excess.a_squared_int(d, ell, 1)
    )
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

