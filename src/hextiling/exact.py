"""Exact arithmetic primitives shared by every other module.

Python's unbounded ``int`` and ``fractions.Fraction`` supply the
arbitrary-precision integer and rational scalars.  Everything below is a
pure function of immutable values (thread-safe by construction), and no
floating point appears anywhere: callers that want a float convert at the
very end with ``float()``.

The kernels are integer-first: ``shifted_factorial`` and
``hypergeometric_sum`` carry integer numerators over one common
denominator and build each ``Fraction`` once, at the end, instead of
normalising a ``Fraction`` (one gcd) at every arithmetic step.  A
``Polynomial`` is itself stored that way, as integer numerators over one
denominator in lowest terms, so ``lagrange_interpolate`` builds one, and
evaluation, ``compose_affine``, scalar products and equality work on it,
with no ``Fraction`` per coefficient in between.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class SingularParameterError(ValueError):
    """A lower hypergeometric parameter produced a zero factor mid-sum."""


def shifted_factorial(a, k: int) -> Fraction:
    """Rising product a(a+1)...(a+k-1); the empty product (k == 0) is 1.

    The base may be any rational, so half-integer arguments work exactly.
    """
    if k < 0:
        raise ValueError("shift count must be nonnegative")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction(_rising_product(p, q, k), q**k)


def _rising_product(p: int, q: int, k: int) -> int:
    """Integer product p(p+q)(p+2q)...(p+(k-1)q), i.e. q**k (p/q)_k."""
    out = 1
    for t in range(k):
        out *= p + t * q
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, total in n via the falling product n(n-1)...(n-k+1)/k!.

    Returns 0 for k < 0 and for 0 <= n < k; negative n follows the polynomial
    definition, so Pascal's recurrence holds on the whole integer grid.  For
    n >= 0 the product runs over the shorter of k and n - k.
    """
    if n >= 0 and 2 * k > n:
        k = n - k
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= n - t
    # k consecutive integers are always divisible by k!
    return num // math.factorial(k)


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with the empty-product convention (-1)!! == 1."""
    if n % 2 == 0:
        raise ValueError("double factorial is restricted to odd arguments here")
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators, lowest degree first with the last one
    nonzero, over one positive denominator, in lowest terms: no integer
    above 1 divides the denominator and every numerator.  The zero
    polynomial has no numerators and denominator 1.  Equal polynomials
    thus have equal fields, however they were built.  ``coeffs`` gives the
    coefficients as ``Fraction`` values.  Instances are immutable;
    arithmetic returns new objects.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = (), den: int = 1):
        """The polynomial sum_k coeffs[k] x^k / den, for rational coeffs
        and a nonzero integer den."""
        if den == 0:
            raise ZeroDivisionError("Polynomial denominator is zero")
        nums = list(coeffs)
        if not all(type(c) is int for c in nums):
            nums, common = _over_common_denominator([Fraction(c) for c in nums])
            den *= common
        while nums and nums[-1] == 0:
            nums.pop()
        if not nums:
            den = 1
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def coeffs(self) -> tuple:
        """Coefficients as ``Fraction`` values, lowest degree first."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __call__(self, x) -> Fraction:
        """p(x), exactly (a float x is read as the rational it stores).

        With x = u/w, Horner builds sum_k a_k u^k w^(deg-k) in integers
        from the numerators a_k, divided by den w^deg once, at the end.
        """
        x = Fraction(x)
        if self.is_zero:
            return Fraction(0)
        nums = self.nums
        u, w = x.numerator, x.denominator
        out = nums[-1]
        w_power = 1
        for a in reversed(nums[:-1]):
            w_power *= w
            out = out * u + a * w_power
        return Fraction(out, self.den * w_power)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Polynomial(a, den)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.nums], self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
            return Polynomial(out, self.den * other.den)
        scalar = Fraction(other)
        return Polynomial([c * scalar.numerator for c in self.nums],
                          self.den * scalar.denominator)

    __rmul__ = __mul__

    def compose_affine(self, shift, slope) -> "Polynomial":
        """p(shift + slope*x), by Horner over integer coefficient lists.

        With shift = u/w and slope = v/w over one denominator w, the Horner
        steps build sum_k a_k (u + v x)^k w^(deg-k) in integers from the
        numerators a_k; the result lies over den w^deg.
        """
        if self.is_zero:
            return Polynomial()
        nums = self.nums
        (u, v), w = _over_common_denominator((Fraction(shift), Fraction(slope)))
        out = [nums[-1]]
        w_power = 1
        for a in reversed(nums[:-1]):
            w_power *= w
            out = [u * c + v * b for c, b in zip(out + [0], [0] + out)]
            out[0] += a * w_power
        return Polynomial(out, self.den * w_power)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _over_common_denominator(values: Sequence) -> tuple:
    """Integer numerators of ``values`` (ints or Fractions) over their least
    common denominator, and that denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def lagrange_interpolate(points: Sequence[tuple]) -> Polynomial:
    """Exact interpolating polynomial through (x, y) pairs with distinct x.

    Returns the unique polynomial of degree < len(points) passing through all
    of them; raises ValueError on duplicate abscissae.

    The abscissae are written x = t/d over one denominator d, and the
    polynomial Q(t) = P(t/d) is built in integers: the node polynomial
    prod_j (t - t_j), its synthetic quotient by each (t - t_i) and the
    weights prod_{j != i} (t_i - t_j) are all integral.  The y_i / weight_i
    are put over one common denominator D, and P is returned as the
    numerators q_k d^k over D, with no ``Fraction`` per coefficient.
    """
    ts, d = _over_common_denominator([Fraction(x) for x, _ in points])
    if len(set(ts)) != len(ts):
        raise ValueError("interpolation abscissae must be distinct")
    size = len(ts)
    # node polynomial prod_j (t - t_j), lowest degree first
    node = [1]
    for tj in ts:
        node = [-tj * node[0]] + [
            node[k - 1] - tj * node[k] for k in range(1, len(node))
        ] + [1]
    ys = [Fraction(y) for _, y in points]
    weights = []
    for ti, yi in zip(ts, ys):
        w = yi.denominator
        for tj in ts:
            if tj != ti:
                w *= ti - tj
        weights.append(w)
    den = math.lcm(*weights)
    total = [0] * size
    for ti, yi, w in zip(ts, ys, weights):
        scale = yi.numerator * (den // w)
        # synthetic division: node / (t - t_i), highest degree first
        carry = 0
        for k in range(size, 0, -1):
            carry = node[k] + ti * carry
            total[k - 1] += scale * carry
    return Polynomial([c * d**k for k, c in enumerate(total)], den)


def hypergeometric_sum(
    numerator_params: Sequence,
    denominator_params: Sequence,
    argument,
    term_count: int,
) -> Fraction:
    """Finite hypergeometric sum, evaluated exactly.

    Computes  sum_{e=0}^{term_count-1}  prod_i (a_i)_e / prod_j (b_j)_e * z^e / e!
    over rationals.  Terminating series are obtained by choosing term_count at
    the cutoff forced by a nonpositive-integer numerator parameter; the
    function itself never inspects convergence.

    Raises SingularParameterError as soon as a denominator parameter
    contributes a zero factor within the requested range.
    """
    if term_count < 0:
        raise ValueError("term_count must be nonnegative")
    nums = [Fraction(a) for a in numerator_params]
    dens = [Fraction(b) for b in denominator_params]
    z = Fraction(argument)
    if not term_count:
        return Fraction(0)
    # Term ratio t_e / t_(e-1) = z prod_i (a_i + e-1) / (e prod_j (b_j + e-1)),
    # with each a_i + e-1 = (p + (e-1) q) / q; the parameter denominators are
    # multiplied into one constant ratio top / bottom.
    top, bottom = z.numerator, z.denominator
    for b in dens:
        top *= b.denominator
    for a in nums:
        bottom *= a.denominator
    ratios = []
    for e in range(1, term_count):
        den_step = bottom * e
        for b in dens:
            factor = b.numerator + (e - 1) * b.denominator
            if factor == 0:
                raise SingularParameterError(
                    f"denominator parameter {b} vanishes at step {e}"
                )
            den_step *= factor
        num_step = top
        for a in nums:
            num_step *= a.numerator + (e - 1) * a.denominator
        ratios.append((num_step, den_step))
    # nested Horner: 1 + r_1 (1 + r_2 (1 + ... (1 + r_(T-1))))
    total, den = 1, 1
    for num_step, den_step in reversed(ratios):
        total, den = den * den_step + num_step * total, den * den_step
    return Fraction(total, den)
