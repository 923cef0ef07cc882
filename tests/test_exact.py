import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hextiling.exact import (
    Polynomial,
    SingularParameterError,
    binomial,
    double_factorial,
    extend_backwards,
    hypergeometric_sum,
    shifted_factorial,
)

F = Fraction


def test_shifted_factorial_basics():
    assert shifted_factorial(F(1, 2), 0) == 1
    assert shifted_factorial(F(1, 2), 2) == F(3, 4)
    assert shifted_factorial(-3, 5) == 0
    assert shifted_factorial(2, 3) == 24
    with pytest.raises(ValueError):
        shifted_factorial(1, -1)


def test_shifted_factorial_splits_multiplicatively():
    rng = random.Random(101)
    for _ in range(60):
        a = F(rng.randint(-30, 30), rng.randint(1, 9))
        j = rng.randint(0, 20)
        k = rng.randint(0, 20)
        assert shifted_factorial(a, j + k) == shifted_factorial(a, j) * shifted_factorial(a + j, k)


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 1
    assert binomial(7, 0) == 1
    assert binomial(-3, 2) == 6
    assert binomial(4, -1) == 0


def test_binomial_pascal_grid():
    for n in range(-10, 21):
        for k in range(-2, 23):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_double_factorial():
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(9) == 945  # 9*7*5*3*1
    assert double_factorial(-1) == 1
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_double_factorial_matches_step_two_product():
    for n in range(-1, 302, 2):
        assert double_factorial(n) == math.prod(range(n, 0, -2)), n


def test_fraction_arithmetic_is_exact():
    # algebraic laws on random triples, no rounding anywhere
    rng = random.Random(7)
    for _ in range(200):
        a = F(rng.randint(-99, 99), rng.randint(1, 40))
        b = F(rng.randint(-99, 99), rng.randint(1, 40))
        c = F(rng.randint(-99, 99), rng.randint(1, 40))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert math.gcd(a.numerator, a.denominator) == 1
        assert a.denominator > 0


def test_extend_backwards_examples():
    # the constant 1, x^2 sampled from x = 0 and x^3 from x = 1
    assert extend_backwards([1, 1], 3) == (0, [1, 1, 1])
    assert extend_backwards([0, 1, 4], 3) == (2, [1, 4, 9])
    assert extend_backwards([1, 8, 27, 64], 3) == (3, [0, -1, -8])
    # spare samples: a line through five points
    assert extend_backwards([5, 7, 9, 11, 13], 2) == (1, [3, 1])
    # all-zero samples, and none, give the zero polynomial
    assert extend_backwards([0, 0, 0], 2) == (-1, [0, 0])
    assert extend_backwards([], 2) == (-1, [0, 0])
    assert extend_backwards([4], 0) == (0, [])


def test_extend_backwards_agrees_with_polynomial():
    # integer polynomials sampled at x0, x0 + h, ..., with samples to
    # spare: the degree and the values before x0 against Polynomial's own
    rng = random.Random(2024)
    for _ in range(100):
        deg = rng.randint(-1, 8)
        poly = Polynomial([rng.randint(-50, 50) for _ in range(deg + 1)])
        x0, h = rng.randint(-20, 20), rng.randint(1, 4)
        samples = [int(poly(x0 + i * h)) for i in range(rng.randint(max(deg, 0) + 1, 12))]
        degree, values = extend_backwards(samples, 6)
        assert degree == poly.degree()
        assert values == [poly(x0 - j * h) for j in range(1, 7)]


_coefficient_lists = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12), max_size=7)


@given(_coefficient_lists, st.integers(-10**6, 10**6).filter(bool),
       st.integers(-50, 50).filter(bool))
def test_polynomial_normal_form(coeffs, scale, den):
    p = Polynomial(coeffs)
    # Fraction coefficients, lowest degree first, the last one nonzero
    assert type(p.coeffs) is tuple and all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    # the same polynomial, its coefficients scaled and put over a
    # denominator of either sign, is equal, hashes equal and has the same
    # coefficients
    scaled = Polynomial([c * scale * den for c in coeffs], scale * den)
    assert scaled == p and hash(scaled) == hash(p)
    assert scaled.coeffs == p.coeffs
    # coeffs round-trips
    assert Polynomial(p.coeffs) == p
    assert list(p.coeffs) + [0] * (len(coeffs) - len(p.coeffs)) == coeffs
    # every zero form is empty
    for zero in (Polynomial(), Polynomial([0, F(0)], den), 0 * p, p * F(0), p - p):
        assert zero.is_zero and zero.coeffs == () and zero == Polynomial()


@given(st.lists(st.one_of(st.integers(-10**6, 10**6),
                         st.fractions(max_denominator=10**4),
                         st.floats(allow_nan=False, allow_infinity=False)),
                max_size=7),
       st.integers(-50, 50).filter(bool))
def test_polynomial_reads_mixed_coefficients_exactly(coeffs, den):
    # ints, Fractions and floats (read as the rationals they store) give the
    # same coefficients as the Fractions of the same values
    mixed = Polynomial(coeffs, den)
    exact = Polynomial([Fraction(c) for c in coeffs], den)
    assert mixed.coeffs == exact.coeffs and hash(mixed) == hash(exact)
    assert all(type(c) is Fraction for c in mixed.coeffs)
    assert Polynomial([1, 0.1, F(1, 3)]).coeffs == (1, F(0.1), F(1, 3))
    assert F(0.1) != F(1, 10)


def test_polynomial_negative_denominator_is_normalised():
    p = Polynomial([2, -4, 6], -8)
    assert p.coeffs == (F(-1, 4), F(1, 2), F(-3, 4))
    assert p == Polynomial([F(-1, 4), F(1, 2), F(-3, 4)])
    for coeffs in ([1], []):
        with pytest.raises(ZeroDivisionError):
            Polynomial(coeffs, 0)


def test_polynomial_is_an_immutable_value():
    p = Polynomial([2, -4, 6], -8)
    assert repr(p) == "Polynomial([Fraction(-1, 4), Fraction(1, 2), Fraction(-3, 4)])"
    with pytest.raises(AttributeError):
        p.coeffs = (F(1),)
    with pytest.raises(AttributeError):
        p.extra = 1
    twin = Polynomial([F(-1, 4), F(1, 2), F(-3, 4)])
    assert twin == p and hash(twin) == hash(p) and len({p, twin}) == 1
    assert Polynomial([1]) != p and p != p.coeffs


def test_polynomial_algebra():
    p = Polynomial([1, 2])        # 1 + 2x
    q = Polynomial([0, 0, 3])     # 3x^2
    assert (p + q).coeffs == (1, 2, 3)
    # the product is by scalars only, and the error says so
    with pytest.raises(TypeError, match="only products with a rational scalar"):
        p * q
    assert (p - p).is_zero
    assert p.degree() == 1 and Polynomial().degree() == -1
    # p(1 - x) for p = 1 + 2x is 3 - 2x
    assert p.compose_affine(1, -1) == Polynomial([3, -2])
    assert (2 * p).coeffs == (2, 4)
    assert (0 * p).is_zero
    assert Fraction(-1) * p == Polynomial([-1, -2])


def test_hypergeometric_single_term_is_one():
    assert hypergeometric_sum([F(5, 3), -7], [F(9, 2)], F(1, 3), 1) == 1


def test_hypergeometric_two_term_cancellation():
    assert hypergeometric_sum([-1, 1], [1], 1, 2) == 0


def test_hypergeometric_singular_denominator():
    with pytest.raises(SingularParameterError):
        hypergeometric_sum([1], [-2], 1, 4)


def test_hypergeometric_matches_arcsine_series():
    # 2F1(1, 1; 3/2; z) = arcsin(sqrt z) / sqrt(z (1 - z)) at z = 1/4,
    # float-level check only: the truncation error after 50 terms is tiny.
    z = 0.25
    partial = hypergeometric_sum([1, 1], [F(3, 2)], F(1, 4), 50)
    closed = math.asin(math.sqrt(z)) / math.sqrt(z * (1 - z))
    assert abs(float(partial) - closed) < 1e-12
