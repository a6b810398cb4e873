"""Exact rational polynomial arithmetic and certified real-root isolation.

Everything in this module is computed with arbitrary-precision rational
numbers; floating point never decides a comparison.  The scalar type is
``fractions.Fraction`` (always in lowest terms, positive denominator).
On top of it sit dense univariate polynomials, co-prime rational-function
pairs, root counting and bisection with certified brackets.  A product of
linear factors is expanded in one place, in integers: _int_linear_product,
which expand_linear_factors calls after scaling its rational roots by the
lcm of their denominators.

The root work runs on primitive integer images of the polynomials.  A root
is certified by Descartes' rule of signs: a sign-variation count of exactly
1 for the Moebius-transformed integer polynomial (1+x)**n p((lo+hi*x)/(1+x))
proves one simple root in (lo, hi), and an interval with a larger count is
halved and both halves recounted.  Sturm chains, built from integer
pseudo-remainders, remain as the general exact root counter.  Partial-fraction
sums (excess.partial_fraction_sum) reach co-prime form without a gcd: once
terms sharing a root are merged, each distinct pole keeps a nonzero
coefficient, so the numerator cannot vanish there.
"""

from __future__ import annotations

import math
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
    +-MAX_DECIMAL_EXPONENT, refused before 10**exponent is built.
    """
    text = text.strip()
    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            magnitude = abs(int(exponent))
        except ValueError:
            magnitude = 0  # not an exponent; Fraction rejects the text below
        if magnitude > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent {exponent} is beyond +-{MAX_DECIMAL_EXPONENT} in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def rational_sign(x: RationalLike) -> int:
    x = as_rational(x)
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def iroot(n: int, q: int) -> int:
    """floor(n**(1/q)) for integers n >= 0 and q >= 1: r**q <= n < (r+1)**q.

    A Newton step y = ((q-1)x + n // x**(q-1)) // q from any x > 0 lands at
    or above the floor (arithmetic-geometric mean inequality), and from above
    it drops by at least one, so the steps stop exactly at the floor.  The
    start has more than half of the root's bits right: a float estimate for
    roots of up to 48 bits, else one plus the root of the top bits of n,
    shifted back.  One step then usually lands on the floor or one above it.
    """
    if n < 0 or q < 1:
        raise ValueError("iroot needs n >= 0 and q >= 1")
    if q == 1 or n < 2:
        return n
    if q == 2:
        return math.isqrt(n)
    root_bits = (n.bit_length() - 1) // q + 1  # n < 2**(q*root_bits)
    if root_bits > 48:
        shift = root_bits // 2 - 4
        x = (iroot(n >> (q * shift), q) + 1) << shift
    else:
        x = int(math.exp(math.log(n) / q)) + 1
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
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first with no trailing zeros; the
    zero polynomial has an empty coefficient tuple.  Instances are immutable
    and safe to share across threads.
    """

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def from_coefficients(coeffs: Iterable[RationalLike]) -> "Polynomial":
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((Fraction(1),))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coefficients:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of t**k (zero beyond the degree)."""
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return Fraction(0)

    def eval(self, t: RationalLike) -> Fraction:
        t = as_rational(t)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coefficients(
            c * i for i, c in enumerate(self.coefficients) if i >= 1
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial.from_coefficients(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", RationalLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if a:
                    for j, b in enumerate(other.coefficients):
                        if b:
                            out[i + j] += a * b
            return Polynomial.from_coefficients(out)
        c = as_rational(other)
        if c == 0:
            return Polynomial.zero()
        return Polynomial(tuple(a * c for a in self.coefficients))

    def __rmul__(self, other: RationalLike) -> "Polynomial":
        return self.__mul__(other)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact Euclidean division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        div = other.coefficients
        lead = div[-1]
        qdeg = len(rem) - len(div)
        if qdeg < 0:
            return Polynomial.zero(), self
        quot = [Fraction(0)] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            c = rem[k + len(div) - 1] / lead
            quot[k] = c
            if c:
                for i, b in enumerate(div):
                    rem[k + i] -= c * b
        return Polynomial.from_coefficients(quot), Polynomial.from_coefficients(rem)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self * (1 / self.leading_coefficient)


def _int_linear_product(roots: Sequence[int]) -> list[int]:
    """Coefficients of prod_j (u + R_j) over integer R_j, lowest degree first."""
    coeffs = [1]
    for root in roots:
        coeffs = [root * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def expand_linear_factors(roots: Sequence[RationalLike]) -> Polynomial:
    """Expand the product of (t + r) over the given roots, exactly.

    With L the lcm of the root denominators, the product is expanded in
    integers in u = L*t; coefficient k of the result is c_k / L**(n-k).
    """
    if not roots:
        raise ValueError("need at least one linear factor")
    rs = [as_rational(r) for r in roots]
    scale = math.lcm(*(r.denominator for r in rs))
    coeffs = _int_linear_product([r.numerator * (scale // r.denominator) for r in rs])
    n = len(rs)
    return Polynomial(tuple(Fraction(c, scale ** (n - k)) for k, c in enumerate(coeffs)))


# -- primitive integer images, gcd, and Sturm chains -------------------------
#
# Remainder sequences are normalised to primitive integer coefficient lists
# after every step.  Scaling is always by a positive factor, so the sign
# pattern of the chain (which Sturm counting relies on) is preserved.


def _primitive_int(coeffs: Sequence[Fraction]) -> list[int]:
    if not coeffs:
        return []
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _prem_primitive(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive image of the rational remainder of a modulo b (sign preserved).

    Integer pseudo-division: each step scales the running remainder by
    |lc(b)|/g > 0 before cancelling its leading term, then divides out the
    (positive) content, so the result is the rational remainder times a
    positive rational.
    """
    rem = list(a)
    lead = b[-1]
    abs_lead, lead_sign = abs(lead), (1 if lead > 0 else -1)
    while len(rem) >= len(b):
        top = rem[-1]
        g = math.gcd(abs_lead, top)
        scale, factor = abs_lead // g, lead_sign * (top // g)
        shift = len(rem) - len(b)
        rem = [scale * v for v in rem[:-1]]
        for i, bc in enumerate(b[:-1]):
            rem[shift + i] -= factor * bc
        while rem and rem[-1] == 0:
            rem.pop()
        if rem:
            content = math.gcd(*rem)
            if content != 1:
                rem = [v // content for v in rem]
    return rem


def _sturm_chain(poly: Polynomial) -> tuple[tuple[int, ...], ...]:
    chain: list[list[int]] = [_primitive_int(poly.coefficients)]
    deriv = _primitive_int(poly.derivative().coefficients)
    if deriv:
        chain.append(deriv)
    while len(chain) >= 2:
        rem = _prem_primitive(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-v for v in rem])
    return tuple(tuple(c) for c in chain)


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


def sturm_count(p: Polynomial, lo: RationalLike, hi: RationalLike) -> int:
    """Exact number of distinct real roots of p in the open interval (lo, hi).

    Raises EndpointRootError when an endpoint is itself a root; the caller
    should perturb that endpoint by an exact rational nudge (1/2**k for
    growing k) and retry.
    """
    lo, hi = as_rational(lo), as_rational(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if p.is_zero:
        raise ValueError("root counting of the zero polynomial")
    if p.eval(lo) == 0:
        raise EndpointRootError(
            f"p({lo}) = 0; nudge the endpoint by an exact rational (e.g. 1/2**k) and retry"
        )
    if p.eval(hi) == 0:
        raise EndpointRootError(
            f"p({hi}) = 0; nudge the endpoint by an exact rational (e.g. 1/2**k) and retry"
        )
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
    lo = as_rational(lo)
    ends = [lo]
    if hi is not None:
        hi = as_rational(hi)
        if not lo < hi:
            raise ValueError("need lo < hi")
        ends.append(hi)
    if p.is_zero:
        raise ValueError("root counting of the zero polynomial")
    coeffs = _primitive_int(p.coefficients)
    for end in ends:
        if _eval_int_sign(coeffs, end.numerator, end.denominator) == 0:
            raise EndpointRootError(
                f"p({end}) = 0; nudge the endpoint by an exact rational (e.g. 1/2**k) and retry"
            )
    return _subdivided_count(coeffs, lo, hi, _SUBDIVISION_DEPTH)


def sign_function(p: Polynomial) -> Callable[[Fraction], int]:
    """Exact sign of p at rational points, by integer Horner on p's primitive image."""
    if p.is_zero:
        raise ValueError("sign of the zero polynomial")
    coeffs = _primitive_int(p.coefficients)

    def sign_at(t: Fraction) -> int:
        v = _eval_int_sign(coeffs, t.numerator, t.denominator)
        return (v > 0) - (v < 0)

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
    result; only its sign is used).  Termination is guaranteed by halving.
    """
    width = as_rational(width)
    if width <= 0:
        raise ValueError("width must be positive")
    lo, hi = bracket.lower, bracket.upper
    s_lo, s_hi = bracket.sign_at_lower, bracket.sign_at_upper
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = rational_sign(as_rational(value_at(mid)))
        if s_mid == 0:
            # The midpoint is the root itself; return a tight symmetric bracket.
            delta = min(width, hi - mid, mid - lo) / 2
            lo2, hi2 = mid - delta, mid + delta
            s2_lo = rational_sign(as_rational(value_at(lo2)))
            s2_hi = rational_sign(as_rational(value_at(hi2)))
            if s2_lo != s_lo or s2_hi != s_hi:
                raise CertificationError("sign pattern broke around an exact rational root")
            return RootBracket(lo2, hi2, s_lo, s_hi)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi, s_lo, s_hi)


# -- rational functions -------------------------------------------------------


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor, by a primitive remainder sequence."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    ca = _primitive_int(a.coefficients)
    cb = _primitive_int(b.coefficients)
    if len(ca) < len(cb):
        ca, cb = cb, ca
    while cb:
        rem = _prem_primitive(ca, cb)
        ca, cb = cb, rem
    return Polynomial.from_coefficients(ca).monic()


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
    lead = den.leading_coefficient
    return RationalFunctionPair(num * (1 / lead), den * (1 / lead))


def log_derivative(pair: RationalFunctionPair) -> RationalFunctionPair:
    """Reduced form of (num/den)' / (num/den) = (num'*den - num*den')/(num*den)."""
    num, den = pair.numerator, pair.denominator
    return ratfun_reduce(
        num.derivative() * den - num * den.derivative(),
        num * den,
    )
