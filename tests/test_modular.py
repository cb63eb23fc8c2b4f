"""q-expansion coefficients and j-invariant values at classical points."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmforge.modular import (
    HalfPlanePoint,
    OracleDomainError,
    PrecisionError,
    _series_tail_bound,
    constant_oracle,
    delta_series,
    divisor_power_sums,
    eisenstein_series,
    eisenstein_value,
    half_plane_point,
    j_oracle,
    mobius_transform,
    reduce_point,
    series_value,
)


# -- Series coefficients --------------------------------------------------------


def test_divisor_power_sums():
    # sigma_1: 1, 3, 4, 7, 6, 12
    assert divisor_power_sums(1, 7) == [0, 1, 3, 4, 7, 6, 12]
    # sigma_3(6) = 1 + 8 + 27 + 216
    assert divisor_power_sums(3, 7)[6] == 252


def test_eisenstein_coefficients():
    e4 = eisenstein_series(4, 4)
    assert e4 == (1, 240, 2160, 6720)
    e6 = eisenstein_series(6, 4)
    assert e6 == (1, -504, -16632, -122976)
    with pytest.raises(ValueError):
        eisenstein_series(8, 4)


def test_delta_coefficients():
    # tau(1..6) = 1, -24, 252, -1472, 4830, -6048
    assert delta_series(7) == (0, 1, -24, 252, -1472, 4830, -6048)


def test_delta_coefficient_bound_holds_in_sample():
    for n, tau in enumerate(delta_series(40)):
        assert abs(tau) <= max(n, 1) ** 7


# -- Tail bounds -----------------------------------------------------------------


def test_tail_bound_exact_for_geometric():
    r = 0.25
    bound = _series_tail_bound(0, r, 10)
    assert bound == pytest.approx(r ** 10 / (1 - r))


def test_tail_bound_dominates_partial_sums():
    r = 0.3
    tail = sum(n ** 2 * r ** n for n in range(8, 300))
    assert tail <= _series_tail_bound(2, r, 8)


def test_tail_bound_rejects_divergence():
    with pytest.raises(PrecisionError):
        _series_tail_bound(3, 1.0, 10)
    with pytest.raises(PrecisionError):
        _series_tail_bound(12, 0.99, 2)


# -- Fundamental domain reduction -------------------------------------------------


rational_coords = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
positive_coords = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(20), max_denominator=12
)


@given(rational_coords, positive_coords)
def test_reduction_lands_in_fundamental_domain(x, y):
    point = half_plane_point(x, y)
    reduced, gamma = reduce_point(point)
    assert gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0] == 1
    assert mobius_transform(gamma, point) == reduced
    assert reduced.norm_square() >= 1
    assert abs(reduced.x) <= Fraction(1, 2)
    assert reduced.y >= point.y


def test_mobius_is_exact_and_composes():
    z = half_plane_point(Fraction(1, 3), Fraction(2, 7))
    a = ((1, 1), (0, 1))
    b = ((0, -1), (1, 0))
    ab = ((1 * 0 + 1 * 1, -1), (1, 0))
    assert mobius_transform(a, mobius_transform(b, z)) == mobius_transform(ab, z)
    with pytest.raises(ValueError):
        mobius_transform(((1, 0), (0, -1)), z)


def test_half_plane_point_rejects_lower_half():
    with pytest.raises(OracleDomainError):
        half_plane_point(0, 0)
    with pytest.raises(OracleDomainError):
        half_plane_point(1, -2)


# -- The j oracle -----------------------------------------------------------------


def test_j_at_i_is_1728():
    oracle = j_oracle(30)
    result = oracle(half_plane_point(0, 1))
    assert abs(result.value - 1728) < 1e-6
    assert abs(result.value - 1728) <= result.error


def test_j_at_2i_is_287496():
    # 287496 = 66 ** 3
    oracle = j_oracle(30)
    result = oracle(half_plane_point(0, 2))
    assert abs(result.value - 66 ** 3) < 1e-5
    assert abs(result.value - 66 ** 3) <= result.error
    # i/2 is equivalent to 2i under inversion
    other = oracle(half_plane_point(0, Fraction(1, 2)))
    assert other.value == result.value


def test_e6_vanishes_at_i():
    result = eisenstein_value(6, half_plane_point(0, 1))
    assert abs(result.value) < 1e-9


def test_e4_value_at_i_matches_j():
    # j = E4^3 / Delta and Delta(i) = E4(i)^3 / 1728 once E6(i) = 0
    e4 = eisenstein_value(4, half_plane_point(0, 1), terms=40)
    oracle = j_oracle(40)
    j_val = oracle(half_plane_point(0, 1)).value
    assert abs(j_val - 1728) < 1e-9
    assert abs(e4.value.imag) < 1e-12
    assert e4.value.real > 1


def test_j_near_zero_at_corner_point():
    oracle = j_oracle(30)
    result = oracle.value_at_float(-0.5, 3 ** 0.5 / 2)
    assert abs(result.value) < 1e-6


def test_j_periodicity_and_inversion_exact():
    oracle = j_oracle(24)
    z = half_plane_point(Fraction(1, 3), Fraction(7, 5))
    shifted = half_plane_point(Fraction(4, 3), Fraction(7, 5))
    inverted = mobius_transform(((0, -1), (1, 0)), z)
    assert oracle(z).value == oracle(shifted).value
    assert oracle(z).value == oracle(inverted).value


def test_j_invariant_under_random_words():
    rng = random.Random(31)
    oracle = j_oracle(26)
    z = half_plane_point(Fraction(2, 7), Fraction(9, 8))
    base = oracle(z).value
    generators = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0))]
    for _ in range(20):
        moved = z
        for _ in range(rng.randrange(1, 6)):
            moved = mobius_transform(rng.choice(generators), moved)
        assert oracle(moved).value == base


def test_float_path_precision_floor():
    oracle = j_oracle(20)
    with pytest.raises(PrecisionError):
        oracle.value_at_float(0.3, 1e-12)


def test_j_oracle_rejects_tiny_series():
    with pytest.raises(ValueError):
        j_oracle(1)


def test_oracle_metadata():
    oracle = j_oracle(20)
    assert oracle.name == "j"
    assert oracle.terms == 20


def test_constant_oracle():
    oracle = constant_oracle(Fraction(3, 2))
    result = oracle(half_plane_point(Fraction(1, 2), 5))
    assert result.value == 1.5
    assert result.error == 0.0
    with pytest.raises(OracleDomainError):
        oracle(HalfPlanePoint(Fraction(0), Fraction(-1)))


def test_series_value_horner():
    assert series_value((1, 2, 3), 2 + 0j) == 1 + 4 + 12


def _random_reduced_point(rng):
    """A rational point of the standard fundamental domain with y <= 4."""
    x = Fraction(rng.randint(-500, 500), 1000)
    y = Fraction(rng.randint(866, 4000), 1000)
    while x * x + y * y < 1:
        y += Fraction(1, 1000)
    return half_plane_point(x, y)


def test_j_oracle_error_bound_encloses_mpmath_kleinj():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(97)
    for terms in range(2, 31):
        oracle = j_oracle(terms)
        for _ in range(6):
            point = _random_reduced_point(rng)
            result = oracle(point)
            with mpmath.workdps(50):
                tau = mpmath.mpc(
                    mpmath.mpf(point.x.numerator) / point.x.denominator,
                    mpmath.mpf(point.y.numerator) / point.y.denominator,
                )
                gap = abs(mpmath.mpc(result.value) - 1728 * mpmath.kleinj(tau))
                assert gap <= result.error, (terms, point, gap, result.error)
