"""Exact arithmetic primitives shared by every other module.

Python's unbounded ``int`` and ``fractions.Fraction`` supply the
arbitrary-precision integer and rational scalars.  Everything below is a
pure function of immutable values (thread-safe by construction), and no
floating point appears anywhere: callers that want a float convert at the
very end with ``float()``.

The kernels are integer-first and say each arithmetic step once, and
leave products and binomials to the standard library:
``_rising_product`` is ``math.prod`` over an arithmetic progression, the
one product behind shifted and double factorials, and ``binomial`` is
``math.comb`` extended to negative n.  ``_ratio`` is the
one way a rational is read, as a numerator and a denominator (straight
from an ``int`` or ``Fraction``, through ``Fraction()`` from anything
else), and ``_over_common_denominator`` is the one step that puts several
rationals over one denominator.  ``shifted_factorial`` carries integer
numerators over one common denominator and builds its ``Fraction`` once,
at the end.  The hypergeometric kernel, ``hypergeometric_partial_sums``,
is one forward loop over integer partial sums: each step carries the
term's numerator, the sum's numerator and their common denominator, three
multiplications, and yields the sum as an integer pair, so a caller that
wants every length of one series runs it once; ``hypergeometric_sum``
makes one ``Fraction`` of its last partial sum.  ``Polynomial`` is the
exception: a plain reference class over a tuple of ``Fraction``
coefficients, which no suite builds and the tests compare against.

Interpolation works on values alone: ``extend_backwards`` reads the degree
of the interpolant through equally spaced integer samples off their
forward differences, and its values at the abscissae before the first
sample off the same difference table, run backwards, with no polynomial
and no division built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Iterator, List, Sequence, Tuple


class SingularParameterError(ValueError):
    """A lower hypergeometric parameter produced a zero factor mid-sum."""


def shifted_factorial(a, k: int) -> Fraction:
    """Rising product a(a+1)...(a+k-1); the empty product (k == 0) is 1.

    The base may be any rational, so half-integer arguments work exactly.
    """
    if k < 0:
        raise ValueError("shift count must be nonnegative")
    p, q = _ratio(a)
    return Fraction(_rising_product(p, q, k), q**k)


def _rising_product(p: int, q: int, k: int) -> int:
    """Integer product p(p+q)(p+2q)...(p+(k-1)q), i.e. q**k (p/q)_k, for a
    step q > 0 (callers pass 1, 2 or a positive denominator); the empty
    product 1 for k <= 0."""
    return math.prod(range(p, p + k * q, q))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, total in n: ``math.comb`` for n >= 0.

    Returns 0 for k < 0 and for 0 <= n < k; negative n follows the polynomial
    definition (-1)^k C(k-n-1, k), so Pascal's recurrence holds on the whole
    integer grid.
    """
    if k < 0:
        return 0
    return math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with the empty-product convention (-1)!! == 1."""
    if n % 2 == 0:
        raise ValueError("double factorial is restricted to odd arguments here")
    if n < -1:
        raise ValueError("double factorial needs n >= -1")
    return _rising_product(1, 2, (n + 1) // 2)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    A plain reference class: no suite builds one; the tests compare against
    it.  ``coeffs`` holds the coefficients as ``Fraction`` values, lowest
    degree first with the last one nonzero, so equal polynomials have equal
    coefficients however they were built, and the zero polynomial has none.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = (), den: int = 1):
        """The polynomial sum_k coeffs[k] x^k / den, for rational coeffs
        (each read by ``Fraction()``, so a float is the rational it stores)
        and a nonzero integer den."""
        if den == 0:
            raise ZeroDivisionError("Polynomial denominator is zero")
        out = [Fraction(c) / den for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        object.__setattr__(self, "coeffs", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        """p(x) by Horner, exactly (a float x is read as the rational it
        stores)."""
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
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return Polynomial([a + b for a, b in pairs])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, scalar) -> "Polynomial":
        """The scalar product; a rational scalar only (a ``Polynomial``
        raises ``TypeError``)."""
        if isinstance(scalar, Polynomial):
            raise TypeError("Polynomial supports only products with a rational scalar")
        scalar = Fraction(scalar)
        return Polynomial([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def compose_affine(self, shift, slope) -> "Polynomial":
        """p(shift + slope*x), by Horner over coefficient lists."""
        shift, slope = Fraction(shift), Fraction(slope)
        out = []
        for a in reversed(self.coeffs):
            # out <- out * (shift + slope*x) + a
            out = [shift * c + slope * b for c, b in zip(out + [0], [0] + out)]
            out[0] += a
        return Polynomial(out)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _over_common_denominator(values: Iterable) -> tuple:
    """Integer numerators of the rationals ``values``, each read by
    :func:`_ratio`, over their least common denominator, and that
    denominator (1 for no values)."""
    ratios = [_ratio(x) for x in values]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _ratio(x) -> tuple:
    """Numerator and denominator of the rational x in lowest terms: read
    directly from an ``int`` or ``Fraction``, through ``Fraction(x)`` from
    anything else it accepts."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def extend_backwards(samples: Sequence[int], count: int) -> Tuple[int, List[int]]:
    """Degree and earlier values of the interpolant through integer samples
    at equally spaced abscissae x_0, x_0 + h, ..., as ``(degree, values)``.

    The leading forward differences D_k of the samples are the Newton
    coefficients of the interpolant, whose degree is below len(samples):
    its degree is the last k with D_k nonzero, -1 when every sample is 0 or
    there are none.  ``values[j]`` is its value at x_0 - (j + 1) h: each
    step moves the leading diagonal of the difference table one place back,
    by D_k <- D_k - D_(k+1) from the top order down (the top one is
    constant), with integer subtractions only.
    """
    diffs = list(samples) or [0]
    # pass k leaves the k-th differences from diffs[k] on, so diffs[k] = D_k
    for k in range(1, len(diffs)):
        for i in range(len(diffs) - 1, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    degree = max((k for k, d in enumerate(diffs) if d), default=-1)
    values = []
    for _ in range(count):
        for k in range(len(diffs) - 2, -1, -1):
            diffs[k] -= diffs[k + 1]
        values.append(diffs[0])
    return degree, values


def hypergeometric_partial_sums(
    numerator_params: Sequence,
    denominator_params: Sequence,
    argument,
    term_count: int,
) -> Iterator[Tuple[int, int]]:
    """Partial sums of a finite hypergeometric series, lazily, each as an
    integer ``(numerator, denominator)`` pair.

    Yields the sums of the first 1, 2, ..., term_count terms of
    sum_e  prod_i (a_i)_e / prod_j (b_j)_e * z^e / e!.  A denominator
    parameter that contributes a zero factor at step e (the ratio of term e
    to term e-1) raises SingularParameterError once the sum of length e
    has been yielded.  The parameters and the argument are read as
    ``hypergeometric_sum`` reads them.
    """
    if term_count < 0:
        raise ValueError("term_count must be nonnegative")
    # each parameter as (p, q), so that a_i + e-1 = (p + (e-1) q) / q
    nums = [_ratio(a) for a in numerator_params]
    dens = [_ratio(b) for b in denominator_params]
    top, bottom = _ratio(argument)
    if not term_count:
        return
    # Term ratio t_e / t_(e-1) = z prod_i (a_i + e-1) / (e prod_j (b_j + e-1));
    # the parameter denominators are multiplied into one constant ratio
    # top / bottom.
    for _, q in dens:
        top *= q
    for _, q in nums:
        bottom *= q
    # the partial sum is total / den and the last term term / den
    total = term = den = 1
    yield total, den
    for e in range(1, term_count):
        den_step = bottom * e
        for p, q in dens:
            factor = p + (e - 1) * q
            if factor == 0:
                raise SingularParameterError(
                    f"denominator parameter {Fraction(p, q)} vanishes at step {e}"
                )
            den_step *= factor
        num_step = top
        for p, q in nums:
            num_step *= p + (e - 1) * q
        term *= num_step
        total, den = total * den_step + term, den * den_step
        yield total, den


def hypergeometric_sum(
    numerator_params: Sequence,
    denominator_params: Sequence,
    argument,
    term_count: int,
) -> Fraction:
    """Finite hypergeometric sum, evaluated exactly.

    Computes  sum_{e=0}^{term_count-1}  prod_i (a_i)_e / prod_j (b_j)_e * z^e / e!
    over rationals: the last of ``hypergeometric_partial_sums``.  Terminating
    series are obtained by choosing term_count at the cutoff forced by a
    nonpositive-integer numerator parameter; the function itself never
    inspects convergence.

    Raises SingularParameterError as soon as a denominator parameter
    contributes a zero factor within the requested range.  The parameters
    and the argument may be anything ``Fraction()`` accepts; ints and
    Fractions are read as they are, with no ``Fraction`` built per parameter.
    """
    total, den = 0, 1
    for total, den in hypergeometric_partial_sums(
            numerator_params, denominator_params, argument, term_count):
        pass
    return Fraction(total, den)
