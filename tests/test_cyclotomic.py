"""Exact cyclotomic arithmetic against classical identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.cyclotomic import (
    CyclotomicElement,
    automorphism_exponents,
    cyclotomic_polynomial,
    multiplication_matrix,
)
from cmforge.lattice import IntMatrix

Z = CyclotomicElement.zeta


def test_cyclotomic_polynomials_match_the_classical_table():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # smallest level with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 101):
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in theirs)


def test_gaussian_arithmetic():
    i = Z(4)
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert (i**3) == -i
    assert (2 + i).norm() == 5
    assert (2 + i).trace() == 4


def test_zeta5_relations():
    z = Z(5)
    assert z**5 == 1
    assert z**4 + z**3 + z**2 + z + 1 == 0
    assert z.norm() == 1
    assert z.trace() == -1


def test_zeta_power_wraps_past_table():
    z = Z(8)
    assert Z(8, 13) == z**13
    assert Z(8, 4) == -1


def test_degree_one_levels():
    assert Z(1) == 1
    assert Z(2) == -1
    assert Z(2, 5) == -1
    assert CyclotomicElement.from_rational(2, Fraction(3, 7)).norm() == Fraction(3, 7)


def test_inverse_and_division():
    a = 3 + 2 * Z(5) - Z(5, 3)
    assert a * a.inverse() == 1
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicElement.zero(5).inverse()


def test_galois_action_is_a_ring_map_and_permutes_roots():
    z = Z(7)
    a = 1 + z + 3 * z**5
    b = z**2 - 4
    for j in automorphism_exponents(7):
        assert a.galois(j) * b.galois(j) == (a * b).galois(j)
        assert (a + b).galois(j) == a.galois(j) + b.galois(j)
    assert z.galois(3) == z**3
    with pytest.raises(ValueError, match="coprime"):
        z.galois(7)


def test_conjugation_fixes_real_combinations():
    z = Z(5)
    real = z + z.conjugate()
    assert real.conjugate() == real
    assert (z * z.conjugate()) == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_norm_is_multiplicative_on_zeta5(coeffs):
    a = CyclotomicElement(5, coeffs)
    b = 1 + Z(5, 2)
    assert (a * b).norm() == a.norm() * b.norm()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=2))
def test_gaussian_norm_is_sum_of_squares(coeffs):
    a, b = coeffs
    elt = CyclotomicElement(4, [a, b])
    assert elt.norm() == a * a + b * b


def test_multiplication_matrix_determinant_equals_norm():
    a = 2 + 3 * Z(5) + Z(5, 2)
    basis = [Z(5, k) for k in range(4)]
    m = multiplication_matrix(a, basis)
    assert all(x.denominator == 1 for row in m for x in row)
    assert IntMatrix(m).determinant() == a.norm()


def test_multiplication_matrix_rejects_non_invariant_span():
    a = Z(5)
    with pytest.raises(ValueError, match="span"):
        multiplication_matrix(a, [CyclotomicElement.one(5)])


def test_multiplication_matrix_on_a_subfield():
    # Q(sqrt5) inside Q(zeta5): basis {1, z + z^4}; golden-ratio arithmetic.
    z = Z(5)
    s = z + z**4  # equals (sqrt5 - 1)/2
    basis = [CyclotomicElement.one(5), s]
    m = multiplication_matrix(s, basis)
    assert s * s == 1 - s
    assert m == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(-1)]]
    assert IntMatrix(m).determinant() == -1


def test_is_integral_flags_denominators():
    assert (1 + Z(4)).is_integral()
    assert not (CyclotomicElement.from_rational(4, Fraction(1, 2))).is_integral()
