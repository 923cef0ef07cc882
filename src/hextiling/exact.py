"""Exact arithmetic primitives shared by every other module.

Python's unbounded ``int`` and ``fractions.Fraction`` supply the
arbitrary-precision integer and rational scalars.  Everything below is a
pure function of immutable values (thread-safe by construction), and no
floating point appears anywhere: callers that want a float convert at the
very end with ``float()``.
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
    definition, so Pascal's recurrence holds on the whole integer grid.
    """
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

    Coefficients are stored lowest degree first with the trailing coefficient
    nonzero (the zero polynomial is the empty tuple).  Instances are
    immutable; arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        scalar = Fraction(other)
        return Polynomial(c * scalar for c in self.coeffs)

    __rmul__ = __mul__

    def compose_affine(self, shift, slope) -> "Polynomial":
        """p(shift + slope*x), evaluated by Horner over polynomials."""
        lin = Polynomial([shift, slope])
        out = Polynomial()
        for c in reversed(self.coeffs):
            out = out * lin + Polynomial([c])
        return out

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def lagrange_interpolate(points: Sequence[tuple]) -> Polynomial:
    """Exact interpolating polynomial through (x, y) pairs with distinct x.

    Returns the unique polynomial of degree < len(points) passing through all
    of them; raises ValueError on duplicate abscissae.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    # node polynomial prod_j (x - x_j), lowest degree first
    node = [Fraction(1)]
    for xj in xs:
        node = [-xj * node[0]] + [
            node[k - 1] - xj * node[k] for k in range(1, len(node))
        ] + [Fraction(1)]
    total = [Fraction(0)] * len(xs)
    for xi, (_, yi) in zip(xs, points):
        # synthetic division: basis = node / (x - x_i), highest degree first
        basis = [Fraction(0)] * len(xs)
        carry = Fraction(0)
        for k in range(len(xs), 0, -1):
            carry = node[k] + xi * carry
            basis[k - 1] = carry
        denom = Fraction(1)
        for xj in xs:
            if xj != xi:
                denom *= xi - xj
        weight = Fraction(yi) / denom
        for k, c in enumerate(basis):
            total[k] += weight * c
    return Polynomial(total)


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
    total = Fraction(0)
    term = Fraction(1)
    for e in range(term_count):
        if e:
            den_step = Fraction(e)
            for b in dens:
                factor = b + e - 1
                if factor == 0:
                    raise SingularParameterError(
                        f"denominator parameter {b} vanishes at step {e}"
                    )
                den_step *= factor
            num_step = z
            for a in nums:
                num_step *= a + e - 1
            term = term * num_step / den_step
        total += term
    return total
