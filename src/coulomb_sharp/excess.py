"""The named functions of the excess-factor analysis, built exactly.

Q is the excess factor of the shifted Coulomb family (count over
semiclassical bound, as a function of the level variable), A its analogue in
the conjectured optimal bound for arbitrary potentials, f and g their
logarithmic derivatives, h_a the pole-splitting squeeze used for odd
dimension, and G the summation bound behind the improved order-1 estimate.

Products are built in integers, once.  Pochhammer values and Q and A**2 at
t = p/q share one integer closed form (pochhammer_int); every product of
linear factors, including those of a partial-fraction sum, goes through the
integer expansion in exact (linear_product), and the polynomials it
returns are exact.Polynomial values: a primitive integer polynomial times
one rational content, with integer arithmetic throughout.

Each plotted quantity has one integer column kernel, which takes increasing
numerators p over one denominator q > 0 (p/q not necessarily reduced) and
returns each value as an unreduced integer pair (numerator, denominator):
q_ints for Q, r_ints for the excess ratio R and f_ints for f.  Each works out
the constants of the column once, and r_ints those of each threshold run
once.  q_eval, r_eval and f_eval are their Fraction forms, the column kernel
on a one-point column, so a figure grid and a single rational point go
through the same formula.

The rational-function forms of f, g and h_a are built from their partial
fractions in integers and need no gcd: after merging terms that share a
root, the roots are distinct and every coefficient is nonzero, so the
numerator is nonzero at every pole and the pair is already co-prime.  The
numerator takes one product per distinct coefficient (f and g have two or
three), not one per term.
Evaluation at rational points is exact; f, g~ and h_a sum their terms from
a cached integer image of each term list (_int_terms), one column at a time
(_eval_terms).  Odd-dimension irrationality is dodged systematically by
squaring: A**2 and G**2 are rational functions, so every order comparison
against a rational threshold is decided exactly on squares.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from . import phase_space, spectrum
from .exact import (
    Polynomial,
    RationalFunctionPair,
    RationalLike,
    as_rational,
    expand_linear_factors,
    linear_product,
    log_derivative,
    ratfun_reduce,
)

PartialFractionTerms = Sequence[tuple[Fraction, Fraction]]


def pochhammer_int(m: int, p: int, q: int) -> int:
    """prod_{k=1..m} (p + k*q), the integer q**m (t+1)...(t+m) at t = p/q."""
    return math.prod(range(p + q, p + (m + 1) * q, q))


def pochhammer_eval(m: int, t: RationalLike) -> Fraction:
    """Shifted Pochhammer product (t+1)(t+2)...(t+m); equals 1 for m = 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    t = as_rational(t)
    return Fraction(pochhammer_int(m, t.numerator, t.denominator), t.denominator**m)


def partial_fraction_sum(terms: PartialFractionTerms) -> RationalFunctionPair:
    """Sum coeff/(t + root) over the given terms, in co-prime form with monic denominator.

    Terms sharing a root are merged and terms whose merged coefficient is 0
    dropped.  The roots sharing a merged coefficient c form a group with
    product P_c = prod (t + r), and their terms sum to c P_c'/P_c, so the
    numerator over prod_c P_c is sum_c c P_c' prod_{c' != c} P_c': one
    product per distinct coefficient, each built in integers.  The roots
    are distinct and every coefficient is nonzero, so the numerator is
    nonzero at every pole: the pair is co-prime without a gcd, and as a
    co-prime pair with monic denominator it is the one ratfun_reduce would
    return.
    """
    if not terms:
        raise ValueError("no terms")
    merged: dict[tuple[int, int], Fraction] = {}
    for c, r in terms:
        root = as_rational(r).as_integer_ratio()
        merged[root] = merged[root] + c if root in merged else as_rational(c)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for root, c in merged.items():
        if c:
            groups.setdefault(c.as_integer_ratio(), []).append(root)
    if not groups:
        return RationalFunctionPair(Polynomial.zero(), Polynomial.one())
    products = [linear_product(roots) for roots in groups.values()]
    num = Polynomial.zero()
    for i, c in enumerate(groups):
        others = (p for j, p in enumerate(products) if j != i)
        num = num + math.prod(others, start=products[i].derivative() * Fraction(*c))
    den = math.prod(products[1:], start=products[0])
    return RationalFunctionPair(num * (1 / den.leading_coefficient), den.monic())


@functools.lru_cache(maxsize=32)
def _int_terms(build, *args) -> tuple[tuple[int, int, int, int], ...]:
    """The terms build(*args) as integer 4-tuples (cn, cd, rn, rd): c = cn/cd, r = rn/rd.

    Cached, one image per (build, args), so a grid or a suite reads the
    Fraction properties of each term list once.
    """
    return tuple((c.numerator, c.denominator, r.numerator, r.denominator) for c, r in build(*args))


def _eval_terms(terms: Sequence[tuple[int, int, int, int]], ps: Sequence[int], q: int) -> list[tuple[int, int]]:
    """Sum of c/(t + r) over integer terms (cn, cd, rn, rd) at each t = p/q of ps (q > 0), as integer pairs.

    Each term is cn*q*rd / (cd*(p*rd + rn*q)); its products by q are taken
    once for the column, and at each point the terms are summed over their
    product denominator, with no gcd.
    """
    scaled = [(cd, rd, rn * q, cn * q * rd) for cn, cd, rn, rd in terms]
    pairs = []
    for p in ps:
        num, den = 0, 1
        for cd, rd, shift, top in scaled:
            linear = p * rd + shift
            if linear == 0:
                raise ValueError(f"pole at {Fraction(p, q)}")
            term_den = cd * linear
            num, den = num * term_den + top * den, den * term_den
        pairs.append((num, den))
    return pairs


def _eval_at(terms: Sequence[tuple[int, int, int, int]], t: RationalLike) -> Fraction:
    t = as_rational(t)
    return Fraction(*_eval_terms(terms, (t.numerator,), t.denominator)[0])


# -- Q, R and the log-derivative f --------------------------------------------


def q_ints(d: int, ps: Sequence[int], q: int) -> list[tuple[int, int]]:
    """Excess factor Q = (t+d/2) prod_{j<d}(t+j) / (t+(d-1)/2)**d at each t = p/q of ps (q > 0).

    The powers of q cancel, leaving the integer pair
    2**(d-1) (2p+dq) P / (2p+(d-1)q)**d with P = prod_{j<d}(p+jq).  Both
    are homogeneous of degree d in (p, q), so p/q need not be reduced.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    power, dq, pole = 2 ** (d - 1), d * q, (d - 1) * q
    pairs = []
    for p in ps:
        base = 2 * p + pole
        if base == 0:
            raise ValueError(f"pole at t = {Fraction(p, q)}")
        pairs.append((power * (2 * p + dq) * pochhammer_int(d - 1, p, q), base**d))
    return pairs


def q_eval(d: int, t: RationalLike) -> Fraction:
    t = as_rational(t)
    return Fraction(*q_ints(d, (t.numerator,), t.denominator)[0])


def q_as_ratfun(d: int) -> RationalFunctionPair:
    if d < 3:
        raise ValueError("d must be >= 3")
    num = expand_linear_factors([Fraction(d, 2)] + list(range(1, d)))
    den = expand_linear_factors([Fraction(d - 1, 2)] * d)
    return ratfun_reduce(num, den)


def r_ints(d: int, ns: range, den: int) -> list[tuple[int, int]]:
    """Excess ratio R = count / phase_space.clr_rhs at eta = n/den (den > 0) for each n of the increasing range ns.

    R is 0 for an empty spectrum.  clr_rhs is n**d over the grid's constant
    2**(d-1) d! den**d, ``lt_rhs_order_int`` at n = 1, and the count is
    spectrum.level_count, taken once per run of ``spectrum.level_runs``.
    """
    runs = spectrum.level_runs(d, ns, den)
    unit, scale = phase_space.lt_rhs_order_int(d, 1, den, 0)
    pairs = []
    for ell, run in runs:
        num = spectrum.level_count(d, ell) * scale if ell >= 0 else 0
        pairs += [(num, unit * n**d) for n in run]
    return pairs


def r_eval(d: int, eta: RationalLike) -> Fraction:
    eta = as_rational(eta)
    return Fraction(*r_ints(d, range(eta.numerator, eta.numerator + 1), eta.denominator)[0])


def f_terms(d: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The (coefficient, root) pairs of f."""
    if d < 3:
        raise ValueError("d must be >= 3")
    return (
        (Fraction(1), Fraction(d, 2)),
        (Fraction(-d), Fraction(d - 1, 2)),
        *((Fraction(1), Fraction(k)) for k in range(1, d)),
    )


def f_ints(d: int, ps: Sequence[int], q: int) -> list[tuple[int, int]]:
    """Logarithmic derivative f of Q at each t = p/q of ps (q > 0) as integer pairs, away from its poles."""
    return _eval_terms(_int_terms(f_terms, d), ps, q)


def f_eval(d: int, t: RationalLike) -> Fraction:
    t = as_rational(t)
    return Fraction(*f_ints(d, (t.numerator,), t.denominator)[0])


def f_as_ratfun(d: int) -> RationalFunctionPair:
    """Co-prime form of f; the denominator is (t + ceil(d/2) - 1/2) prod(t+k)."""
    return partial_fraction_sum(f_terms(d))


# -- A, its log-derivative g, and the odd-d squeeze ---------------------------


def a_squared_int(d: int, p: int, q: int) -> tuple[int, int]:
    """A**2 = (t+d/2)**(2-d) (t+d/2-1)**(-d) prod_{j<d}(t+j)**2 at t = p/q (q > 0).

    The powers of q cancel, leaving the integer pair
    2**(2d-2) P**2 / ((2p+dq)**(d-2) (2p+(d-2)q)**d) with P = prod_{j<d}(p+jq),
    whose denominator is positive for t >= 0.
    """
    if d < 3:
        raise ValueError("d must be >= 3")
    b1 = 2 * p + d * q
    b2 = 2 * p + (d - 2) * q
    if b1 == 0 or b2 == 0:
        raise ValueError(f"pole at t = {Fraction(p, q)}")
    prod = pochhammer_int(d - 1, p, q)
    return 2 ** (2 * d - 2) * prod * prod, b1 ** (d - 2) * b2**d


def a_eval_squared(d: int, t: RationalLike) -> Fraction:
    """A**2 at a rational t, exact for any d."""
    t = as_rational(t)
    return Fraction(*a_squared_int(d, t.numerator, t.denominator))


def a_squared_as_ratfun(d: int) -> RationalFunctionPair:
    if d < 3:
        raise ValueError("d must be >= 3")
    num = expand_linear_factors(list(range(1, d)) * 2)
    den = expand_linear_factors([Fraction(d, 2)] * (d - 2) + [Fraction(d, 2) - 1] * d)
    return ratfun_reduce(num, den)


def g_terms(d: int) -> list[tuple[Fraction, Fraction]]:
    if d < 3:
        raise ValueError("d must be >= 3")
    return (
        [(1 - Fraction(d, 2), Fraction(d, 2)), (-Fraction(d, 2), Fraction(d, 2) - 1)]
        + [(Fraction(1), Fraction(k)) for k in range(1, d)]
    )


def g_as_ratfun(d: int) -> RationalFunctionPair:
    return partial_fraction_sum(g_terms(d))


def g_shifted_terms(d: int) -> list[tuple[Fraction, Fraction]]:
    """g in s = t + (d-1)/2 for odd d >= 5: the roots of g_terms(d), each moved by -(d-1)/2.

    The poles then sit at s = -1/2, 1/2 and at the integers -(d-1)/2..(d-3)/2.
    """
    if d < 5 or d % 2 == 0:
        raise ValueError("the shifted form is used for odd d >= 5")
    shift = Fraction(d - 1, 2)
    return [(c, r - shift) for c, r in g_terms(d)]


def g_shifted_eval(d: int, s: RationalLike) -> Fraction:
    return _eval_at(_int_terms(g_shifted_terms, d), s)


def squeeze_coefficient(d: int) -> Fraction:
    """The lower pole-splitting weight a_d = 1/2 + 1/(2(d-3))."""
    if d < 5 or d % 2 == 0:
        raise ValueError("squeeze coefficient is defined for odd d >= 5")
    return Fraction(1, 2) + Fraction(1, 2 * (d - 3))


def h_a_terms(d: int, a: RationalLike) -> list[tuple[Fraction, Fraction]]:
    """The squeeze h_a in s, odd d >= 5, 0 <= a <= 1: g_shifted_terms(d) without its pole at s = 0.

    That pole's unit weight is split into a at s = -1/2 and 1 - a at s = 1/2.
    """
    if d < 5 or d % 2 == 0:
        raise ValueError("h_a needs odd d >= 5")
    a = as_rational(a)
    if not 0 <= a <= 1:
        raise ValueError("need 0 <= a <= 1")
    half = Fraction(1, 2)
    return [term for term in g_shifted_terms(d) if term[1] != 0] + [(1 - a, -half), (a, half)]


def h_a_eval(d: int, a: RationalLike, s: RationalLike) -> Fraction:
    return _eval_at(_int_terms(h_a_terms, d, as_rational(a)), s)


def h_a_as_ratfun(d: int, a: RationalLike) -> RationalFunctionPair:
    """Co-prime form of h_a in the shifted variable s.

    The reduced denominator is (s**2 - 1/4)(s + (d-1)/2) prod(s**2 - k**2).
    """
    return partial_fraction_sum(h_a_terms(d, a))


# -- the summation bound G ----------------------------------------------------


def big_g_squared_int(d: int, p: int, q: int) -> tuple[int, int]:
    """G**2 at t = p/q >= 0 (q > 0), d >= 4, as an unreduced integer pair.

    G**2 = P(t)**2 bracket**d ((t+d/2)(t+d-1))**(2-d) with P the (d-2)-fold
    Pochhammer product and bracket = 1 + (d-3)/(2t+d-1) + 1/(2(t+d-2)).  With
    u = 2p+(d-1)q, v = p+(d-2)q and w = (2p+dq)(p+(d-1)q) the powers of q
    cancel, leaving P**2 B**d / (4 (uv)**d w**(d-2)) for P = prod_{k<d-1}(p+kq)
    and B = 2uv + 2(d-3)qv + qu.  Both are homogeneous of degree 4d-4 in
    (p, q), so p/q need not be reduced.
    """
    if d < 4:
        raise ValueError("G is defined for d >= 4")
    if p < 0:
        raise ValueError("G is studied for t >= 0")
    u, v = 2 * p + (d - 1) * q, p + (d - 2) * q
    bracket = 2 * u * v + 2 * (d - 3) * q * v + q * u
    outer = (2 * p + d * q) * (p + (d - 1) * q)
    prod = pochhammer_int(d - 2, p, q)
    return prod * prod * bracket**d, 4 * (u * v) ** d * outer ** (d - 2)


def big_g_monotonicity_quadratic(d: int) -> Polynomial:
    """Quadratic whose nonnegative coefficients certify that G increases.

    (1/4)(d-2)(d-4) t**2 + (1/16)(5d-16)(d-1)(d-2) t + (1/32)d(d-1)(d-2)(d-3).
    """
    if d < 4:
        raise ValueError("d must be >= 4")
    return Polynomial.from_coefficients(
        [
            Fraction(d * (d - 1) * (d - 2) * (d - 3), 32),
            Fraction((5 * d - 16) * (d - 1) * (d - 2), 16),
            Fraction((d - 2) * (d - 4), 4),
        ]
    )


# -- symbolic identity checks -------------------------------------------------


def logderiv_check(kind: str, d: int) -> bool:
    """Verify Q'/Q = f (kind 'Q') or (A**2)'/A**2 = 2g (kind 'A_squared') symbolically."""
    if kind == "Q":
        return log_derivative(q_as_ratfun(d)) == f_as_ratfun(d)
    if kind == "A_squared":
        return log_derivative(a_squared_as_ratfun(d)) == g_as_ratfun(d).scale(2)
    raise ValueError(f"unknown kind {kind!r}")
