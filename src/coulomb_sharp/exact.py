"""Exact polynomial arithmetic over the rationals and certified real-root isolation.

Everything in this module is computed with arbitrary-precision integers and
rationals; floating point decides only the signs sign_function's filter
proves, and every sign it leaves open is decided in integers.  The scalar
type is ``fractions.Fraction`` (always in lowest terms, positive denominator).  A
polynomial is held as a primitive integer polynomial times one rational
content, and all its arithmetic runs on the integers; on top of it sit
co-prime rational-function pairs, root counting and bisection with certified
brackets.  A product of linear factors is expanded in one place, in
integers: _linear_product, the product of the primitive factors q*t + p.

The root work reads the stored primitive integer polynomials.  Descartes'
rule of signs counts roots on a half-line (p(x + lo)) or an interval (the
Moebius transform (1+x)**n p((lo+hi*x)/(1+x))), halving any part whose count
exceeds 1; optima._zero_window certifies a zero with one half-line count and
two end signs.  A polynomial's sign at a rational point is first tried in
doubles against a proven Horner error bound (sign_function) and otherwise
taken by integer Horner; bisect_root halves a bracket on integer numerators
over one doubling denominator.  isolate_unique_root and sturm_count (a Sturm
chain on the integer remainders of Polynomial.divmod) have no caller in the
package: they are test oracles that the benchmark tracer still wraps.  Partial-fraction sums
(excess.partial_fraction_sum) reach co-prime form without a gcd: once terms
sharing a root are merged, each distinct pole keeps a nonzero coefficient, so
the numerator cannot vanish there.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

RationalLike = Union[Fraction, int]

# parse_rational refuses larger decimal exponents: Fraction("1e10000000")
# would spend seconds building 10**10000000 before any size limit applies.
MAX_DECIMAL_EXPONENT = 1000


class EndpointRootError(ValueError):
    """An interval endpoint is a root of the polynomial being counted."""


class MathematicalError(ArithmeticError):
    """Valid input for which the mathematics gives no certified answer (CLI exit code 1)."""


class CertificationError(MathematicalError):
    """A claimed root count or bracket could not be certified exactly."""


def as_rational(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse 'P/Q', integer, or decimal text into an exact rational.

    Decimal strings are read as exact scaled integers ('11.1' -> 111/10);
    binary floating point is never involved.  Every malformed input raises
    ValueError: a zero denominator, and a decimal exponent beyond
    +-MAX_DECIMAL_EXPONENT, refused before 10**exponent is built.  A message
    shows the text as reprlib.repr does, so its length is bounded.
    """
    text = text.strip()
    shown = reprlib.repr(text)
    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            power = int(exponent)
        except ValueError:
            power = 0  # not an exponent; Fraction rejects the text below
        if abs(power) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent {reprlib.repr(power)} is beyond +-{MAX_DECIMAL_EXPONENT} in {shown}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {shown}") from None
    except ValueError:
        raise ValueError(f"cannot read {shown} as a rational number") from None


def rational_sign(x: RationalLike) -> int:
    if not isinstance(x, int):
        x = as_rational(x)
    return (x > 0) - (x < 0)


def iroot(n: int, q: int) -> int:
    """floor(n**(1/q)) for integers n >= 0 and q >= 1: r**q <= n < (r+1)**q.

    A Newton step y = ((q-1)x + n // x**(q-1)) // q from any x > 0 lands at
    or above the floor (arithmetic-geometric mean inequality), and from above
    it drops by at least one, so the steps stop exactly at the floor whatever
    the start.  The widths halve from the root's, w -> w // 2 + g with guard
    g = q.bit_length() + 3, to the first at most 53 bits, and a float root seeds
    that one: 27 + g to 53 bits, or the whole root when it is no wider.  Steps
    on ever more of n's top bits double the width back, so one step on n
    usually lands on the floor.
    """
    if n < 0 or q < 1:
        raise ValueError("iroot needs n >= 0 and q >= 1")
    if q == 1 or n < 2:
        return n
    if q == 2:
        return math.isqrt(n)
    top = (n.bit_length() - 1) // q + 1  # n < 2**(q*top)
    widths = [top]  # root bits per Newton step, each about half the last plus guard bits
    while widths[-1] > 53:
        widths.append(widths[-1] // 2 + q.bit_length() + 3)
    width = widths.pop()
    x = int(math.exp(math.log(n >> (q * (top - width))) / q)) + 1
    for wider in reversed(widths[1:]):
        x <<= wider - width
        top_bits = n >> (q * (top - wider))
        x = ((q - 1) * x + top_bits // x ** (q - 1)) // q
        width = wider
    x <<= top - width
    while True:
        x = ((q - 1) * x + n // x ** (q - 1)) // q
        if x**q <= n:
            return x


def dyadic_less(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool | None:
    """Decide a < b for enclosures (lo, hi, k) of reals in [lo, hi] / 2**k.

    True when a.hi < b.lo, False when b.hi < a.lo, None when they overlap.
    """
    (a_lo, a_hi, ka), (b_lo, b_hi, kb) = a, b
    shift_a, shift_b = max(kb - ka, 0), max(ka - kb, 0)
    if a_hi << shift_a < b_lo << shift_b:
        return True
    if b_hi << shift_b < a_lo << shift_a:
        return False
    return None


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial: a primitive integer polynomial times a rational content.

    ``primitive`` holds integer coefficients, lowest degree first, with gcd 1
    and a positive leading coefficient; ``content`` is a nonzero Fraction.
    The pair is unique for each polynomial, so equality and hashing compare
    it directly.  The zero polynomial is ((), 0).  Arithmetic runs on the
    integers: a product of primitive polynomials is primitive (Gauss's
    lemma), so multiplication takes no gcd, sums and derivatives take one,
    and a division one per result.  Rational coefficients are built only
    when read (coefficients, coefficient, leading_coefficient, eval).
    Instances are immutable and safe to share across threads.
    """

    primitive: tuple[int, ...]
    content: Fraction

    @staticmethod
    def from_coefficients(coeffs: Iterable[RationalLike]) -> "Polynomial":
        cs = [as_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return _from_ints([c.numerator * (den // c.denominator) for c in cs], Fraction(1, den))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), Fraction(0))

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,), Fraction(1))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Rational coefficients, lowest degree first, with no trailing zeros."""
        return tuple(self.content * c for c in self.primitive)

    @property
    def is_zero(self) -> bool:
        return not self.primitive

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.primitive) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.primitive:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.content * self.primitive[-1]

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t**k (zero beyond the degree)."""
        if 0 <= k < len(self.primitive):
            return self.content * self.primitive[k]
        return Fraction(0)

    def eval(self, t: RationalLike) -> Fraction:
        if not self.primitive:
            return Fraction(0)
        t = as_rational(t)
        value = _eval_int_sign(self.primitive, t.numerator, t.denominator)  # times den**degree
        return Fraction(self.content.numerator * value, self.content.denominator * t.denominator**self.degree)

    def derivative(self) -> "Polynomial":
        return _from_ints([i * v for i, v in enumerate(self.primitive)][1:], self.content)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.primitive, -self.content)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not other.primitive:
            return self
        if not self.primitive:
            return other
        # a*A + b*B = g/den * (sa*A + sb*B) with integers sa, sb.
        a, b = self.content, other.content
        den = math.lcm(a.denominator, b.denominator)
        sa, sb = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        g = math.gcd(sa, sb)
        sa, sb, long, short = sa // g, sb // g, self.primitive, other.primitive
        if len(long) < len(short):
            sa, sb, long, short = sb, sa, short, long
        out = [sa * v for v in long]
        for i, v in enumerate(short):
            out[i] += sb * v
        return _from_ints(out, Fraction(g, den))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", RationalLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            a, b = self.primitive, other.primitive
            if not a or not b:
                return Polynomial.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return Polynomial(tuple(out), self.content * other.content)
        c = as_rational(other)
        if c == 0 or not self.primitive:
            return Polynomial.zero()
        return Polynomial(self.primitive, self.content * c)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact Euclidean division: self = q*other + r with deg r < deg other.

        Division in integers: the running remainder and quotient are scaled
        by lead/gcd(lead, top) only when lead does not divide the top term,
        so a quotient that is an integer polynomial (by Gauss's lemma, any
        exact division of primitive polynomials) is found with no scaling.
        """
        if not other.primitive:
            raise ZeroDivisionError("polynomial division by zero")
        div, n = other.primitive, other.degree
        qdeg = self.degree - n
        if qdeg < 0:
            return Polynomial.zero(), self
        rem, quot, scale, lead = list(self.primitive), [0] * (qdeg + 1), 1, div[-1]
        for k in range(qdeg, -1, -1):  # invariant: scale*self.primitive = quot*div + rem
            top = rem[k + n]
            if top:
                m = lead // math.gcd(lead, top)
                if m != 1:
                    rem, quot, scale = [m * v for v in rem], [m * v for v in quot], scale * m
                    top *= m
                quot[k] = top // lead
                for i, v in enumerate(div):
                    rem[k + i] -= quot[k] * v
        c = self.content / scale
        return _from_ints(quot, c / other.content), _from_ints(rem[:n], c)

    def monic(self) -> "Polynomial":
        if not self.primitive:
            return self
        return Polynomial(self.primitive, Fraction(1, self.primitive[-1]))


def _from_ints(ints: list[int], content: Fraction) -> Polynomial:
    """content times the integer polynomial ints (trailing zeros allowed), in primitive form."""
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return Polynomial.zero()
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    if g != 1:
        ints = [v // g for v in ints]
    return Polynomial(tuple(ints), content * g)


def expand_linear_factors(roots: Sequence[RationalLike]) -> Polynomial:
    """Expand the product of (t + r) over the given roots, exactly."""
    if not roots:
        raise ValueError("need at least one linear factor")
    return _linear_product([as_rational(r).as_integer_ratio() for r in roots])


def _linear_product(roots: Iterable[tuple[int, int]]) -> Polynomial:
    """prod (t + p/q) over coprime pairs (p, q), q > 0, expanded in integers.

    t + p/q = (q*t + p)/q with q*t + p primitive, so the integer product of
    the q*t + p is the primitive part (Gauss's lemma) and 1/prod(q) the content.
    """
    coeffs, den = [1], 1
    for p, q in roots:
        coeffs = [p * a + q * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        den *= q
    return Polynomial(tuple(coeffs), Fraction(1, den))


# -- signed primitive images and Sturm chains --------------------------------
#
# Remainder sequences run on Polynomial.divmod, whose remainder is a primitive
# integer polynomial times a rational content.  A Sturm chain keeps each
# element's primitive part with the sign of its content: a positive multiple,
# so the sign pattern that Sturm counting relies on is preserved.


def _signed_primitive(p: Polynomial) -> list[int]:
    """p's primitive part times the sign of its content: p over a positive rational."""
    return list(p.primitive) if p.content > 0 else [-v for v in p.primitive]


def _sturm_chain(poly: Polynomial) -> tuple[tuple[int, ...], ...]:
    """Signed primitive images of p, p' and the negated remainders -rem(p_{k-1}, p_k)."""
    chain = [poly, poly.derivative()]
    while not chain[-1].is_zero:
        chain.append(-chain[-2].divmod(chain[-1])[1])
    return tuple(tuple(_signed_primitive(c)) for c in chain[:-1])


def _eval_int_sign(coeffs: Sequence[int], num: int, den: int) -> int:
    # den > 0, so the returned integer has the sign of the polynomial value.
    acc = coeffs[-1]
    power = 1
    for i in range(len(coeffs) - 2, -1, -1):
        power *= den
        acc = acc * num + coeffs[i] * power
    return acc


def _variations(coeffs: Sequence[int]) -> int:
    signs = [v > 0 for v in coeffs if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _sign_variations(chain: Sequence[Sequence[int]], point: Fraction) -> int:
    return _variations([_eval_int_sign(c, point.numerator, point.denominator) for c in chain])


def _count_interval(p: Polynomial, lo: RationalLike, hi: RationalLike | None) -> tuple[Fraction, Fraction | None]:
    """The ends as rationals; ValueError unless lo < hi and p != 0, EndpointRootError on a root at an end."""
    lo, hi = as_rational(lo), None if hi is None else as_rational(hi)
    if hi is not None and not lo < hi:
        raise ValueError("need lo < hi")
    if p.is_zero:
        raise ValueError("root counting of the zero polynomial")
    for end in (lo,) if hi is None else (lo, hi):
        if _eval_int_sign(p.primitive, end.numerator, end.denominator) == 0:
            raise EndpointRootError(f"p({end}) = 0; nudge the endpoint by an exact rational (e.g. 1/2**k) and retry")
    return lo, hi


def sturm_count(p: Polynomial, lo: RationalLike, hi: RationalLike) -> int:
    """Exact number of distinct real roots of p in the open interval (lo, hi).

    Raises EndpointRootError when an endpoint is itself a root; the caller
    should perturb that endpoint by an exact rational nudge (1/2**k for
    growing k) and retry.
    """
    lo, hi = _count_interval(p, lo, hi)
    chain = _sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


@dataclass(frozen=True)
class RootBracket:
    """Interval with opposite endpoint signs certified to contain one root."""

    lower: Fraction
    upper: Fraction
    sign_at_lower: int
    sign_at_upper: int

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError("bracket needs lower < upper")
        if self.sign_at_lower not in (-1, 1) or self.sign_at_upper not in (-1, 1):
            raise ValueError("endpoint signs must be +-1")
        if self.sign_at_lower == self.sign_at_upper:
            raise ValueError("bracket endpoints must have opposite signs")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def _taylor_shift(coeffs: Sequence[int], a: int) -> list[int]:
    """Coefficients of c(x + a), by repeated synthetic division in integers."""
    c = list(coeffs)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _descartes_variations(coeffs: Sequence[int], lo: Fraction, hi: Fraction | None) -> int:
    """Sign variations of (1+x)**n c((lo+hi*x)/(1+x)), or of c(x + lo) when hi is None.

    The positive roots of that integer image are exactly the roots of c in
    the open interval, so the count exceeds their number (with multiplicity)
    by an even number; 0 and 1 are exact.  A root at an endpoint only zeroes
    an end coefficient of the image and does not spoil the bound.
    """
    # z = den*t - den*lo moves lo to 0 with integer coefficients.
    den = lo.denominator if hi is None else math.lcm(lo.denominator, hi.denominator)
    n = len(coeffs) - 1
    image = _taylor_shift([c * den ** (n - k) for k, c in enumerate(coeffs)], int(lo * den))
    if hi is not None:
        # z = width*y maps (lo, hi) to y in (0, 1), and y = 1/(1+x) to x in (0, +inf).
        width = int((hi - lo) * den)
        scaled = [c * width**k for k, c in enumerate(image)]
        image = _taylor_shift(scaled[::-1], 1)
    return _variations(image)


# Halvings after which a piece still showing two or more variations is given
# up on: it holds a multiple root, or roots closer than its width / 2**64.
_SUBDIVISION_DEPTH = 64


def _subdivided_count(coeffs: Sequence[int], lo: Fraction, hi: Fraction | None, depth: int) -> int:
    variations = _descartes_variations(coeffs, lo, hi)
    if variations <= 1:
        return variations
    if depth == 0:
        end = "+inf" if hi is None else hi
        raise CertificationError(
            f"roots in ({lo}, {end}) not separated after {_SUBDIVISION_DEPTH} halvings; a multiple root?"
        )
    # A finite piece is halved; the half-line is split at lo + max(|lo|, 1),
    # which doubles the split point once it is positive.
    mid = (lo + hi) / 2 if hi is not None else lo + max(abs(lo), 1)
    at_mid = 0
    if _eval_int_sign(coeffs, mid.numerator, mid.denominator) == 0:
        if _eval_int_sign([k * c for k, c in enumerate(coeffs)][1:], mid.numerator, mid.denominator) == 0:
            raise CertificationError(f"multiple root at {mid}")
        at_mid = 1
    return (
        _subdivided_count(coeffs, lo, mid, depth - 1)
        + at_mid
        + _subdivided_count(coeffs, mid, hi, depth - 1)
    )


def descartes_count(p: Polynomial, lo: RationalLike, hi: RationalLike | None = None) -> int:
    """Exact number of real roots of p in (lo, hi), or in (lo, +inf) when hi is None.

    Descartes' rule of signs with subdivision (Vincent-Collins-Akritas): an
    interval whose integer image shows two or more sign variations is split
    and each part recounted, until every part shows 0 or 1 (both exact) or
    the split point is itself a simple root.  Every root counted is therefore
    simple.  Raises CertificationError when a part cannot be resolved within
    64 splits (a multiple root), and EndpointRootError when a finite endpoint
    is itself a root.
    """
    lo, hi = _count_interval(p, lo, hi)
    return _subdivided_count(p.primitive, lo, hi, _SUBDIVISION_DEPTH)


def sign_function(p: Polynomial) -> Callable[[Fraction], int]:
    """Exact sign of p at rational points: a filter in doubles, then integer Horner on p's primitive image.

    The filter (Shewchuk, 1997) answers only where a proven bound lets it.
    The signed primitive coefficients c_0..c_n, n = deg p, are converted to
    doubles once, here.  int -> float rounds correctly, so
    fl(c_i) = c_i (1 + delta) with |delta| <= u = 2**-53, and each fl(c_i) is
    0 or at least 1 in magnitude; a coefficient beyond the double range raises
    OverflowError, and then no filter is built.  At t = num/den,
    x = num / den is correctly rounded too, x = t (1 + eps), as t is in the
    normal range when |x| >= 1.  Horner runs v = v x + fl(c_i) from v = 0
    (its first step is exact) alongside b = b |x| + |fl(c_i)|.  Counting
    roundings as Higham does (Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, sec. 5.1), the term of c_i carries at most 2n roundings of
    Horner, one of its conversion and i <= n of x**i.  So
    v = sum c_i t**i (1 + theta_i) and b = sum |c_i| |t|**i (1 + theta'_i)
    with |theta_i|, |theta'_i| <= gamma_m = m u / (1 - m u), m = 3n + 1.
    With B = sum |c_i| |t|**i <= b / (1 - gamma_m) that gives
    |v - p(t)| <= gamma_m B <= m u b / (1 - 2 m u).  The filter returns
    sign(v) when |v| > fl(s b) for the exact double s = 2 m u = (3n + 1) 2**-52.
    Since fl(s b) >= s b (1 - u) >= m u b / (1 - 2 m u) while
    2 (1 - u)(1 - 2 m u) >= 1, which holds for n < 2**48, |v| then exceeds
    the error and p(t) has the sign of v.

    The model fl(a op b) = (a op b)(1 + delta) needs results in the normal
    range.  The filter runs only for |x| >= 1.  Then every value of b is 0 or
    at least 1, and every value of v is 0 or at least 2**-53 in magnitude: a
    product with x does not shrink it, and adding an integer-valued fl(c_i) != 0
    gives at least 1/2 when |v x| < 1/2 and otherwise a multiple of 2**-53.  So
    no product is subnormal, s b >= 2**-52 is normal, and a subnormal sum
    would be exact anyway.  Rounding to nearest is monotone and odd, so |v| <=
    b after every step; an overflowing step of v thus overflows b's step, and
    b's operands are >= 0, so inf stays inf.  A finite b certifies that
    nothing overflowed, and an infinite b fails the test (|v| > inf is false,
    as is a comparison with NaN).  An x that overflows, |x| < 1, |x| beyond
    reach (where the leading term alone passes 2**1023, so b is infinite or
    nearly so) and a failed test all fall through to _eval_int_sign,
    unchanged.  When a coefficient overflows or reach < 1 the returned
    function is that integer path alone, as cheap as it was without the
    filter.
    """
    if p.is_zero:
        raise ValueError("sign of the zero polynomial")
    coeffs = _signed_primitive(p)

    def exact_sign(t: Fraction) -> int:
        v = _eval_int_sign(coeffs, t.numerator, t.denominator)
        return (v > 0) - (v < 0)

    n = len(coeffs) - 1
    reach = 2.0 ** ((1023 - math.log2(abs(coeffs[-1]))) / n) if n else math.inf
    if reach < 1.0:
        return exact_sign
    try:
        image = [(c, abs(c)) for c in map(float, reversed(coeffs))]
    except OverflowError:
        return exact_sign
    slack = (3 * n + 1) * 2.0**-52

    def sign_at(t: Fraction) -> int:
        try:
            x = t.numerator / t.denominator
        except OverflowError:
            return exact_sign(t)
        ax = abs(x)
        if 1.0 <= ax <= reach:
            v = b = 0.0
            for c, a in image:
                v = v * x + c
                b = b * ax + a
            if abs(v) > slack * b:
                return 1 if v > 0 else -1
        return exact_sign(t)

    return sign_at


def isolate_unique_root(p: Polynomial, lo: RationalLike, hi: RationalLike) -> RootBracket:
    """Certify by Descartes' rule that p has exactly one root in (lo, hi).

    The root is simple (descartes_count counts only simple roots), so the
    endpoint signs differ.  Any other count raises CertificationError.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    count = descartes_count(p, lo, hi)
    if count != 1:
        raise CertificationError(f"expected exactly one root in ({lo}, {hi}), Descartes count is {count}")
    sign = sign_function(p)
    return RootBracket(lo, hi, sign(lo), sign(hi))


def bisect_root(
    value_at: Callable[[Fraction], RationalLike],
    bracket: RootBracket,
    width: RationalLike,
) -> RootBracket:
    """Shrink a certified bracket below the requested width by exact bisection.

    value_at must evaluate the bracketed function exactly (any rational
    result; only its sign is used); it is called once per halving, on the
    midpoint as a Fraction.  The bracket is walked in integers: with lo = a/D
    and hi = (a + w)/D the midpoint is (2a + w)/2D, and the next bracket
    starts at 2a or 2a + w over 2D and keeps the width w, so no Fraction is
    added or compared per step.  The number of halvings, the least k with w/(D 2**k)
    <= width, is found once, in integers.  The brackets are the ones halving
    in Fractions gives.
    """
    width = as_rational(width)
    if width <= 0:
        raise ValueError("width must be positive")
    lo, hi = bracket.lower, bracket.upper
    s_lo, s_hi = bracket.sign_at_lower, bracket.sign_at_upper
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - a
    # The least k with 2**k >= ceil(w / (width den)).
    halvings = (-(-w * width.denominator // (width.numerator * den)) - 1).bit_length()
    for _ in range(halvings):
        a, den = 2 * a, 2 * den
        mid = Fraction(a + w, den)
        s_mid = rational_sign(value_at(mid))
        if s_mid == 0:
            # The midpoint is the root itself; return a tight symmetric bracket.
            delta = min(width, Fraction(w, den)) / 2
            lo2, hi2 = mid - delta, mid + delta
            s2_lo = rational_sign(value_at(lo2))
            s2_hi = rational_sign(value_at(hi2))
            if s2_lo != s_lo or s2_hi != s_hi:
                raise CertificationError("sign pattern broke around an exact rational root")
            return RootBracket(lo2, hi2, s_lo, s_hi)
        if s_mid == s_lo:
            a += w
    return RootBracket(Fraction(a, den), Fraction(a + w, den), s_lo, s_hi)


# -- rational functions -------------------------------------------------------


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor, by a primitive remainder sequence."""
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        a, b = b, a.divmod(b)[1].monic()
    return a.monic()


@dataclass(frozen=True)
class RationalFunctionPair:
    """Quotient of co-prime polynomials with a monic denominator.

    Construct through ratfun_reduce, which establishes both invariants.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        if self.denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        if self.denominator.leading_coefficient != 1:
            raise ValueError("denominator must be monic")

    def eval(self, t: RationalLike) -> Fraction:
        t = as_rational(t)
        den = self.denominator.eval(t)
        if den == 0:
            raise ZeroDivisionError(f"pole at t = {t}")
        return self.numerator.eval(t) / den

    def scale(self, c: RationalLike) -> "RationalFunctionPair":
        return RationalFunctionPair(self.numerator * c, self.denominator)


def ratfun_reduce(num: Polynomial, den: Polynomial) -> RationalFunctionPair:
    """Reduce num/den to a co-prime pair with monic denominator."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return RationalFunctionPair(Polynomial.zero(), Polynomial.one())
    g = poly_gcd(num, den)
    if g.degree > 0:
        num_q, num_r = num.divmod(g)
        den_q, den_r = den.divmod(g)
        if not (num_r.is_zero and den_r.is_zero):
            raise CertificationError("gcd does not divide exactly")
        num, den = num_q, den_q
    return RationalFunctionPair(num * (1 / den.leading_coefficient), den.monic())


def log_derivative(pair: RationalFunctionPair) -> RationalFunctionPair:
    """Reduced form of (num/den)' / (num/den) = (num'*den - num*den')/(num*den)."""
    num, den = pair.numerator, pair.denominator
    return ratfun_reduce(num.derivative() * den - num * den.derivative(), num * den)
