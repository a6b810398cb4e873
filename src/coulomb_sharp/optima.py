"""Sharp constants and certified maximizer localization.

The optimal excess factors are maxima of Q (shifted Coulomb) and A
(conjectured general bound) over small integer windows around d**2/6.  The
windows come from localizing the unique zero beyond -1 of the respective
logarithmic derivative: f for Q and g for A, both in the level variable t
and for every d.  The one zero certificate, exact.certify_one_zero with outer
end -1, serves both, on the function's numerator.  The numerator is built
without a gcd, and is still co-prime to the denominator because every
distinct pole of the partial fractions carries a nonzero coefficient, so its
roots are exactly the zeros of the log-derivative.  t* is narrowed by
bisection (exact.bisect_root, on integer numerators over one doubling
denominator).  Each sign is filtered in doubles against a proven Horner error
bound and taken by integer Horner where that bound cannot decide
(exact.sign_function).  At width 10**-6 the doubles decide every step for
d = 7..98; for d = 4..6 the window lies in |t| < 1, and from d = 99 the bound
passes the double range, so there every sign is integer Horner.

One walk (_walk) serves both window maxima, over the integer hull of the
paper's bounds clamped at 0, through the sign of each difference of adjacent
levels.  With b = 2l+d, V(l+1)/V(l) = F/G for F = ((b+2)(l+d)/(b(l+1)))**k and
G = ((b+c)/(b-c))**d, where Q is (c, k) = (1, 1) and A**2 is (2, 2); no level
value is built.  Each step is filtered in doubles: f is one correctly rounded
int / int (squared once for k = 2) and g is the correctly rounded quotient
raised to d by left-to-right squaring, so every operation is one IEEE-754
rounding (1 + delta), |delta| <= u = 2**-53.  In the powering chain a value
standing for R**e carries at most 2e - 1 roundings (true for e = 1, and a
square or a product with the base adds the counts plus one), so f carries at
most 3 roundings and g at most 2d - 1.  A product theta_n of n factors (1 +
delta)**(+-1) lies within gamma_n = n u / (1 - n u) of 1.  A step reads +1
when f > fl(g s) for the exact double s = 1 + 2 n u, n = 2d + 3; then F/G > s
theta_n >= (1 + 2nu)(1 - 2nu) / (1 - nu) >= 1 while 4 n u <= 1, which holds
for d < 2**49.  A step reads -1 when g > fl(f s), by the same count.  All
values lie in [1, 2**1024): F <= (5d/3)**2 and 1 <= G <= ((d+2)/(d-2))**d <
e**12, so nothing overflows or is subnormal.  Neither test holding, the step
takes the exact integer comparison (_exact_step); over every window of d =
3..400 that is only the tie of A**2 at d = 6, level 0.  The signs certify the
maximum: the levels must rise, hold at most once (a tie, reported, which goes
to the smaller level) and then fall; any other pattern is a
CertificationError.  Only the winner is reduced, through q_value /
a_value_squared.  Odd-d irrationality of A is handled by comparing squares.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from . import excess
from .exact import (
    CertificationError,
    MathematicalError,
    RationalLike,
    RootBracket,
    as_rational,
    bisect_root,
    certify_one_zero,
    sign_function,
    sturm_count,  # no caller here; bench/test_harness.py checks the tracer rebinds this name
)


class StarResult(NamedTuple):
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


def q_value(d: int, ell: int) -> Fraction:
    """Q at an integer level of the window."""
    return excess.q_eval(d, ell)


def a_value_squared(d: int, ell: int) -> Fraction:
    """A**2 at an integer level of the window."""
    return excess.a_eval_squared(d, ell)


def _exact_step(d: int, ell: int, c: int, k: int) -> int:
    """sign(V(l+1) - V(l)) in integers: ((b+2)(l+d))**k (b-c)**d against (b(l+1))**k (b+c)**d."""
    base = 2 * ell + d
    lhs = ((base + 2) * (ell + d)) ** k * (base - c) ** d
    rhs = (base * (ell + 1)) ** k * (base + c) ** d
    return (lhs > rhs) - (lhs < rhs)


def _steps(d: int, lo: int, hi: int, c: int, k: int) -> Iterator[int]:
    """Sign of V(l+1) - V(l) for l = lo..hi-1, filtered in doubles (see the module docstring).

    Q is (c, k) = (1, 1) and A**2 is (2, 2): V(l+1)/V(l) = F/G with
    F = ((b+2)(l+d)/(b(l+1)))**k and G = ((b+c)/(b-c))**d, b = 2l+d.
    """
    slack, bits = 1 + (2 * d + 3) * 2.0**-52, [bit == "1" for bit in bin(d)[3:]]
    for ell in range(lo, hi):
        base = 2 * ell + d
        f = (base + 2) * (ell + d) / (base * (ell + 1))
        if k == 2:
            f *= f
        g = ratio = (base + c) / (base - c)
        for bit in bits:
            g *= g
            if bit:
                g *= ratio
        yield 1 if f > g * slack else -1 if g > f * slack else _exact_step(d, ell, c, k)


def _window_argmax(lo: int, hi: int, steps: Iterable[int]) -> tuple[int, int | None]:
    """Certified maximal level of V over lo..hi, and the next level if it ties.

    steps holds sign(V(l+1) - V(l)) for l = lo..hi-1.  The argmax is the first
    level whose step is <= 0, or hi; a 0 step there reports the next level as a
    tie, and every later step must be -1, so V provably rises, holds, then falls.
    """
    argmax, tie = hi, None
    for ell, step in zip(range(lo, hi), steps):
        if ell <= argmax and step <= 0:
            argmax, tie = ell, (ell + 1 if step == 0 else None)
        elif ell > argmax and step != -1:
            raise CertificationError(f"levels rise to {argmax}, but level {ell + 1} is not below level {ell}")
    return argmax, tie


def _walk(d: int, bounds: tuple[Fraction, Fraction], c: int, k: int) -> tuple[int, int | None, tuple[int, int]]:
    """Certified argmax and tie of the (c, k) step form over the integer hull of bounds, clamped at 0, and that hull."""
    if d < 3:
        raise ValueError("d must be >= 3")
    lo, hi = max(0, math.floor(bounds[0])), max(0, math.ceil(bounds[1]))
    return (*_window_argmax(lo, hi, _steps(d, lo, hi, c, k)), (lo, hi))


def q_star(d: int) -> StarResult:
    """Exact maximum of Q over its candidate window (Q3 maximizes at 0)."""
    argmax, tie, window = _walk(d, t_star_bounds(d), 1, 1)
    best = q_value(d, argmax)
    return StarResult(
        d=d,
        argmax_ell=argmax,
        value_squared=best**2,
        value=best,
        candidate_window=window,
        tie_ell=tie,
    )


def a_star(d: int) -> StarResult:
    """Exact maximum of A over its candidate window, compared through squares."""
    argmax, tie, window = _walk(d, a_zero_bounds(d), 2, 2)
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
        candidate_window=window,
        tie_ell=tie,
    )


def locate_t_star(d: int, width: RationalLike) -> RootBracket:
    """Certified bracket, at most width wide, for f's zero beyond -1, strictly inside t_star_bounds (d >= 4)."""
    if d == 3:
        raise MathematicalError("t-star is undefined for d = 3: Q_3 is strictly decreasing on (-1, +inf)")
    if d < 3:
        raise ValueError("d must be >= 3")
    poly = excess.f_as_ratfun(d).numerator
    sign = sign_function(poly)
    window = certify_one_zero(poly, *t_star_bounds(d), -1, sign)
    bracket = bisect_root(sign, window, as_rational(width))
    # Tighten until strictly inside the open window.
    while bracket.lower <= window.lower or bracket.upper >= window.upper:
        bracket = bisect_root(sign, bracket, bracket.width / 4)
    return bracket
