"""Closed-form counting formulas, all in exact rational arithmetic.

Contents: MacMahon's box-product for the total tiling count of a hexagon,
the fixed-axis-rhombus counts for both side parities, the proportion between
them, product formulas matching the two path-matrix determinants, special
values of the reduced determinant polynomial, the central-position sum with
its closed form and recurrence, hypergeometric re-expressions of the
proportion, and the arcsine limit (the one floating-point function here).

Counts that must be integers are computed over rationals and asserted
integral, so any transcription error in a formula surfaces immediately.
The kernels are integer-first: each builds its value from integer
numerators over one denominator and makes one ``Fraction`` at the end.
That covers Lemma 5's product for the trimmed upper count, Lemma 6's
product for the weighted lower count and the special values of the
reduced determinant (both gather their powers of 2 in one exponent), the
axis sum (nested Horner from its last term), the proportion (the
axis sum's numerator and denominator times the binomial prefactor) and
the prefactors of both hypergeometric forms.

Several forms are also given for every marked position l at once, each
from one build of what does not depend on l: the weighted lower count of
one (n, m), whose only l-dependent factor is the axis sum; the fixed
counts of a hexagon, which share one MacMahon product; the series form of
the proportion (``proportion_series_forms``), whose parameters depend on
(n, m) only, so the form at l is the l-th partial sum of one pass of
``hypergeometric_partial_sums`` times one prefactor; and the special
values of the reduced determinant (``reduced_poly_special_values``), one
factorial product per (n, mu), which l only cuts to zero.  These two
have no single-position spelling: the value at one l is entry l - 1.  The
axis sum keeps a loop of its own, one nested Horner per l, rather than the
hypergeometric kernel, so that the ``hyp-chain`` cross-check compares
independent routes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .exact import (
    _rising_product,
    binomial,
    double_factorial,
    hypergeometric_partial_sums,
    hypergeometric_sum,
)
from .hexagon import HexagonSpec


def _as_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} came out non-integral: {value}")
    return value.numerator


def macmahon_count(a: int, b: int, c: int) -> int:
    """Number of rhombus tilings of the hexagon with sides a, b, c, a, b, c,
    i.e. plane partitions in an a x b x c box (MacMahon's product).

    Sides of length 0 give the empty product, count 1.
    """
    if min(a, b, c) < 0:
        raise ValueError("box dimensions must be nonnegative")
    out = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                out *= Fraction(i + j + k - 1, i + j + k - 2)
    return _as_integer(out, "MacMahon product")


def _check_axis_domain(n: int, m: int, l: int) -> None:
    """Reject (n, m, l) outside 1 <= l <= n, m >= 1, where the proportion
    and its sum forms are defined."""
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= {n}, got l = {l}")
    if m < 1:
        raise ValueError("axis sum undefined for m = 0 (pole at e = 0)")


def axis_sum(n: int, m: int, l: int) -> Fraction:
    """The alternating axis sum of length l.

    sum_{e=0}^{l-1} (-1)^e C(n,e) (n-2e) (1/2)_e / ((m+e)(m+n-e)(1/2-n)_e),
    exact.  m == 0 is rejected: the e = 0 term has a pole there.
    """
    _check_axis_domain(n, m, l)
    # Term e is F_e g_e with g_e = (n-2e) / ((m+e)(m+n-e)), F_0 = 1 and
    # r_(e+1) = F_(e+1) / F_e = -(n-e)(2e+1) / ((e+1)(2e+1-2n)); 2e+1-2n is
    # odd, so the ratio never divides by 0.  The factor n-2e stays out of the
    # ratio because it vanishes at e = n/2.  Nested Horner from the last
    # term, g_0 + r_1 (g_1 + r_2 (g_2 + ...)), over one integer numerator
    # and one integer denominator.
    num, den = n - 2 * l + 2, (m + l - 1) * (m + n - l + 1)
    for e in range(l - 2, -1, -1):
        a, b = n - 2 * e, (m + e) * (m + n - e)
        p, q = -(n - e) * (2 * e + 1), (e + 1) * (2 * e + 1 - 2 * n)
        num, den = a * q * den + b * p * num, b * q * den
    return Fraction(num, den)


def proportion_nm(n: int, m: int, l: int) -> Fraction:
    """Proportion of tilings containing axis rhombus l, from (n, m) directly."""
    # axis_sum first: it rejects a bad (n, m, l) before the prefactor sees it
    s = axis_sum(n, m, l)
    return Fraction(
        s.numerator * m * binomial(m + n, m) * binomial(m + n - 1, m),
        s.denominator * binomial(2 * m + 2 * n - 1, 2 * m),
    )


def proportion(spec: HexagonSpec, l: int) -> Fraction:
    """Proportion of all tilings that contain the l-th axis rhombus.

    Depends only on (n, m), so it is literally the same number for the even
    hexagon (n, 2m) and the odd hexagon (n+1, 2m-1).
    """
    return proportion_nm(spec.n, spec.m, l)


def fixed_counts(spec: HexagonSpec, positions: Iterable[int]) -> list[int]:
    """Tilings of the hexagon with sides (spec.side_a, spec.side_m) that
    contain the l-th axis rhombus, for each l in ``positions``: the
    proportion times MacMahon's total, which is computed once, and not at
    all when there is no position."""
    # the proportions first: they reject a bad l before the product is taken
    proportions = [proportion(spec, l) for l in positions]
    if not proportions:
        return []
    total = macmahon_count(spec.side_a, spec.side_a, spec.side_m)
    return [_as_integer(p * total, "fixed count") for p in proportions]


def fixed_count(spec: HexagonSpec, l: int) -> int:
    """``fixed_counts`` at the single position l."""
    return fixed_counts(spec, [l])[0]


def fixed_count_even(n: int, m: int, l: int) -> int:
    """Tilings of the hexagon with sides (n, 2m) containing axis rhombus l."""
    return fixed_count(HexagonSpec(n, 2 * m), l)


def fixed_count_odd(n: int, m: int, l: int) -> int:
    """Tilings of the hexagon with sides (n+1, 2m-1) containing axis rhombus l."""
    return fixed_count(HexagonSpec(n + 1, 2 * m - 1), l)


def upper_count_closed_form(n: int, m: int) -> int:
    """Product formula for the trimmed-upper-pentagon tiling count.

    prod_{i=1}^{n} (n+m-i+1)! (i-1)! (2m+i+1)_{i-1} / ((m+i-1)! (2n-2i+1)!)
    """
    num, den = 1, 1
    for i in range(1, n + 1):
        num *= (math.factorial(n + m - i + 1) * math.factorial(i - 1)
                * _rising_product(2 * m + i + 1, 1, i - 1))
        den *= math.factorial(m + i - 1) * math.factorial(2 * n - 2 * i + 1)
    return _as_integer(Fraction(num, den), "Lemma 5 product")


def lower_weighted_closed_forms(n: int, m: int) -> list[Fraction]:
    """Closed form for the weighted lower-half count (Lemma 6) at each
    marked position l = 1..n in turn.

    2^C(n-1,2) (m)_{n+1} prod_i (m+i)_{n-2i+1} (m+i+1/2)_{n-2i}
    / (n! prod_i (2i)_{2n-4i+1}) times the axis sum, i from 1 to floor(n/2).
    Only the axis sum depends on l, so the rest is one integer quotient,
    built once for all n positions.
    """
    _check_axis_domain(n, m, 1)
    # (m+i+1/2)_{n-2i} = (2m+2i+1)(2m+2i+3)... / 2^(n-2i); the powers of 2
    # never outweigh 2^C(n-1,2), so they leave a nonnegative exponent
    twos = (n - 1) * (n - 2) // 2
    num, den = _rising_product(m, 1, n + 1), math.factorial(n)
    for i in range(1, n // 2 + 1):
        num *= (_rising_product(m + i, 1, n - 2 * i + 1)
                * _rising_product(2 * m + 2 * i + 1, 2, n - 2 * i))
        den *= _rising_product(2 * i, 1, 2 * n - 4 * i + 1)
        twos -= n - 2 * i
    num *= 2**twos
    out = []
    for l in range(1, n + 1):
        s = axis_sum(n, m, l)
        out.append(Fraction(num * s.numerator, den * s.denominator))
    return out


def reduced_poly_special_values(n: int) -> list[list[Fraction]]:
    """Special values of the reduced determinant polynomial at
    m = -mu, mu = 0..floor(n/2), for every marked position l = 1..n in
    turn: entry [l-1][mu] is the value at m = -mu.

    It is 0 for mu >= min(l, n+1-l) (that is, n+1-lr for the
    reflection-symmetric representative lr = max(l, n+1-l) of l), where the
    relevant block of the evaluated matrix degenerates; otherwise it is the
    factorial product of ``_reduced_poly_product``.  That product depends
    on (n, mu) only, so it is built once per mu and shared by every l; no
    l lifts the cutoff above floor((n+1)/2).
    """
    products = [_reduced_poly_product(mu, n) for mu in range((n + 1) // 2)]
    out = []
    for l in range(1, n + 1):
        cut = min(l, n + 1 - l)
        out.append(products[:cut] + [Fraction(0)] * (n // 2 + 1 - cut))
    return out


def _reduced_poly_product(mu: int, n: int) -> Fraction:
    """The factorial product behind the special value at m = -mu, which
    depends on (n, mu) only."""
    sign = -1 if (mu * n + (mu * mu - mu) // 2) % 2 else 1
    # the powers of 2, from the prefactor and the half-integer bases, are
    # gathered in one exponent
    twos = (mu * mu + mu) // 2 - n + 1
    num = sign * _rising_product(mu, 1, mu)
    for j in range(1, n - mu + 1):
        num *= math.factorial(2 * j - 1)
    for k in range(1, mu + 1):
        num *= math.factorial(k - 1) ** 2 * math.factorial(n + k - 2 * mu - 1)
        # ((mu-k+1)/2)_{k-1} = (mu-k+1)(mu-k+3)... / 2^(k-1)
        num *= _rising_product(mu - k + 1, 2, k - 1) * _rising_product(k - n, 1, n - mu)
        twos -= k - 1
    den = 1
    for i in range(1, mu + 1):
        den *= math.factorial(n - mu - i) * math.factorial(mu - i)
    for i in range(mu + 1, n // 2 + 1):
        den *= _rising_product(i - mu, 1, n - 2 * i + 1)
    for i in range(1, n // 2 + 1):
        # (i-mu+1/2)_{n-2i} = (2i-2mu+1)(2i-2mu+3)... / 2^(n-2i)
        den *= _rising_product(2 * i - 2 * mu + 1, 2, n - 2 * i)
        twos += n - 2 * i
    if twos >= 0:
        return Fraction(num * 2**twos, den)
    return Fraction(num, den * 2**-twos)


def central_axis_sum(n: int) -> Fraction:
    """The axis sum at the central specialization (2n-1, n, n)."""
    return axis_sum(2 * n - 1, n, n)


def central_axis_closed_form(n: int) -> Fraction:
    """Closed form 2^(n-1) n! (n-1)! (6n-3)!! / ((3n)! (4n-3)!!)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(
        2 ** (n - 1) * math.factorial(n) * math.factorial(n - 1)
        * double_factorial(6 * n - 3),
        math.factorial(3 * n) * double_factorial(4 * n - 3),
    )


def central_sum_recurrence_residue(n: int) -> Fraction:
    """Residue of the two-term recurrence satisfied by the central sum:
    2n(2n+1)(6n-1)(6n+1) S(n) - (3n+1)(3n+2)(4n-1)(4n+1) S(n+1); zero when
    the recurrence holds."""
    s_n = central_axis_sum(n)
    s_next = central_axis_sum(n + 1)
    lhs = 2 * n * (2 * n + 1) * (6 * n - 1) * (6 * n + 1) * s_n
    rhs = (3 * n + 1) * (3 * n + 2) * (4 * n - 1) * (4 * n + 1) * s_next
    return lhs - rhs


def proportion_series_forms(n: int, m: int) -> Iterator[Fraction]:
    """The proportion as a five-parameter hypergeometric partial sum of
    length l, for l = 1..n in turn, lazily, from one pass over the series:
    its parameters depend on (n, m) only, so the form at l is the l-th
    partial sum of ``hypergeometric_partial_sums`` times one prefactor.
    Raises SingularParameterError at the first l where a lower parameter
    hits zero (even n, l = n/2 + 2), after yielding every shorter one."""
    _check_axis_domain(n, m, 1)
    pref_num = math.factorial(2 * n - 1) * _rising_product(m + 1, 1, n - 1) ** 2
    pref_den = math.factorial(n - 1) ** 2 * _rising_product(2 * m + 1, 1, 2 * n - 1)
    sums = hypergeometric_partial_sums(
        [-n, Fraction(2 - n, 2), m, -m - n, Fraction(1, 2)],
        [Fraction(-n, 2), 1 - m - n, 1 + m, Fraction(1 - 2 * n, 2)],
        1,
        n,
    )
    return (Fraction(pref_num * num, pref_den * den) for num, den in sums)


def proportion_balanced_form(n: int, m: int, l: int) -> Fraction:
    """The proportion as a balanced terminating 4F3-style sum of length l."""
    _check_axis_domain(n, m, l)
    pref_num = (
        math.factorial(2 * l)
        * math.factorial(2 * m)
        * math.factorial(m + n - 1)
        * math.factorial(m + n)
        * math.factorial(2 * n - 2 * l + 2)
    )
    pref_den = (
        4 * (l + m - 1) * (m + n - l + 1)
        * math.factorial(l - 1)
        * math.factorial(l)
        * math.factorial(m - 1)
        * math.factorial(m)
        * math.factorial(n - l)
        * math.factorial(n - l + 1)
        * math.factorial(2 * m + 2 * n - 1)
    )
    series = hypergeometric_sum(
        [1 - l, 1, 1, Fraction(3 - 2 * l + 2 * n, 2)],
        [Fraction(3, 2), 2 - l - m, 2 - l + m + n],
        1,
        l,
    )
    return Fraction(pref_num * series.numerator, pref_den * series.denominator)


def arcsine_limit(a_ratio: float, b_ratio: float) -> float:
    """Limiting proportion (2/pi) arcsin(sqrt(b(1-b)) / sqrt((a+b)(a-b+1)))
    for m ~ a*n and l ~ b*n as n grows.  The only floating-point computation
    in the library."""
    a = float(a_ratio)
    b = float(b_ratio)
    if not 0.0 < b < 1.0:
        raise ValueError("need 0 < b < 1")
    if not a >= 0.0:  # also rejects NaN
        raise ValueError("need a >= 0")
    ratio = math.sqrt(b * (1.0 - b)) / math.sqrt((a + b) * (a - b + 1.0))
    # a = 0 makes the argument exactly 1; clamp rounding noise only
    return 2.0 / math.pi * math.asin(min(ratio, 1.0))
