"""Modular function evaluation from exact integer q-expansions.

The j-invariant is computed as E4(q)^3 / Delta(q) where both series have
integer coefficients that we generate exactly.  Points of the upper half
plane are kept as pairs of rationals, so reduction into the fundamental
domain is exact and the only floating point step is the final evaluation
of the truncated series at q = exp(2*pi*i*z).

Truncation errors are controlled by explicit coefficient bounds:

* Eisenstein series of weight k: |a_n| <= c_k * sigma_{k-1}(n) <= c_k * n^k,
  since sigma_{k-1}(n) <= n^{k-1} * d(n) and d(n) <= n.
* Delta: |tau(n)| <= d(n) * n^{11/2} <= n^{13/2} <= n^7 (classical
  Ramanujan-Deligne coefficient bound, weakened to an integer exponent).

For |q| = r < 1 the tail past N is bounded by a geometric majorant,
see :func:`_series_tail_bound`.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple


class PrecisionError(ValueError):
    """Raised when a float evaluation cannot meet its precision floor."""


class OracleDomainError(ValueError):
    """Raised when an oracle is asked for a point outside its domain."""


# -- Exact q-expansions --------------------------------------------------------


def divisor_power_sums(power: int, terms: int) -> list:
    """Return [sigma_power(1), ..., sigma_power(terms - 1)] prefixed by 0.

    Index n of the result holds sigma_power(n); index 0 is unused and set
    to zero so the list lines up with q-expansion indices.
    """
    sums = [0] * terms
    for d in range(1, terms):
        step = d ** power
        for multiple in range(d, terms, d):
            sums[multiple] += step
    return sums


def eisenstein_series(weight: int, terms: int) -> Tuple[int, ...]:
    """Integer q-expansion of the normalized Eisenstein series E_weight."""
    if weight == 4:
        factor = 240
    elif weight == 6:
        factor = -504
    else:
        raise ValueError("only weights 4 and 6 are generated")
    sigma = divisor_power_sums(weight - 1, terms)
    coeffs = [factor * s for s in sigma]
    coeffs[0] = 1
    return tuple(coeffs)


def delta_series(terms: int) -> Tuple[int, ...]:
    """Integer q-expansion of Delta = q * prod_{n>=1} (1 - q^n)^24."""
    series = [0] * terms
    if terms > 1:
        series[1] = 1
    for n in range(1, terms):
        # multiply by (1 - q^n)^24 one factor of (1 - q^n) at a time
        for _ in range(24):
            for k in range(terms - 1, n - 1, -1):
                series[k] -= series[k - n]
    return tuple(series)


def series_value(coeffs: Sequence[int], q: complex) -> complex:
    """Evaluate a truncated q-expansion at a complex point by Horner."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def _series_tail_bound(exponent: int, magnitude: float, start: int) -> float:
    """Bound sum_{n >= start} n^exponent * magnitude^n.

    Uses the geometric majorant: once the term ratio
    r * (1 + 1/n)^exponent drops below 1 the series is dominated by a
    geometric series with that ratio.
    """
    if magnitude >= 1.0:
        raise PrecisionError("series evaluated at |q| >= 1")
    ratio = magnitude * (1.0 + 1.0 / start) ** exponent
    if ratio >= 1.0:
        raise PrecisionError(
            "tail bound needs more terms: ratio %.3f at n = %d" % (ratio, start)
        )
    first = (start ** exponent) * magnitude ** start
    return first / (1.0 - ratio)


# -- Exact upper half plane points ---------------------------------------------


class HalfPlanePoint(NamedTuple):
    """Point x + i*y of the upper half plane with exact rational parts."""

    x: Fraction
    y: Fraction

    def norm_square(self) -> Fraction:
        return self.x * self.x + self.y * self.y


def half_plane_point(x, y) -> HalfPlanePoint:
    px, py = Fraction(x), Fraction(y)
    if py <= 0:
        raise OracleDomainError("point is not in the upper half plane")
    return HalfPlanePoint(px, py)


def mobius_transform(matrix, point: HalfPlanePoint) -> HalfPlanePoint:
    """Apply a rational 2x2 matrix with positive determinant to a point.

    The arithmetic is exact: for z = x + iy and rows ((a, b), (c, d)) the
    image is (az + b) / (cz + d), expanded into real and imaginary parts.
    """
    (a, b), (c, d) = matrix
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    det = a * d - b * c
    if det <= 0:
        raise ValueError("matrix does not preserve the upper half plane")
    nr, ni = a * point.x + b, a * point.y
    dr, di = c * point.x + d, c * point.y
    denom = dr * dr + di * di
    if denom == 0:
        raise ZeroDivisionError("matrix sends the point to infinity")
    return HalfPlanePoint((nr * dr + ni * di) / denom, (ni * dr - nr * di) / denom)


def reduce_point(point: HalfPlanePoint):
    """Translate a point into the standard fundamental domain.

    Returns (reduced, gamma) with gamma an integer matrix of determinant
    one such that gamma * point = reduced, |Re| <= 1/2 and |reduced| >= 1.
    """
    z = point
    gamma = ((1, 0), (0, 1))
    for _ in range(10000):
        shift = (z.x + Fraction(1, 2)).__floor__()
        if shift:
            z = HalfPlanePoint(z.x - shift, z.y)
            gamma = ((gamma[0][0] - shift * gamma[1][0], gamma[0][1] - shift * gamma[1][1]), gamma[1])
        nsq = z.norm_square()
        if nsq >= 1:
            return z, gamma
        z = HalfPlanePoint(-z.x / nsq, z.y / nsq)
        gamma = ((-gamma[1][0], -gamma[1][1]), (gamma[0][0], gamma[0][1]))
    raise RuntimeError("fundamental domain reduction did not terminate")


def _exp_q(point: HalfPlanePoint) -> complex:
    return cmath.exp(2j * cmath.pi * complex(point.x, point.y))


# -- Oracles --------------------------------------------------------------------


class OracleValue(NamedTuple):
    """A complex value together with a bound on its absolute error."""

    value: complex
    error: float


class ModularOracle:
    """Callable wrapper around a modular function evaluator."""

    __slots__ = ("name", "_evaluate", "terms")

    def __init__(self, name: str, evaluate: Callable[[HalfPlanePoint], OracleValue],
                 terms: Optional[int] = None):
        self.name = name
        self._evaluate = evaluate
        self.terms = terms

    def __call__(self, point: HalfPlanePoint) -> OracleValue:
        return self._evaluate(point)

    def value_at_float(self, x: float, y: float) -> OracleValue:
        """Evaluate at a float point, guarding against precision collapse.

        Points with imaginary part below 1e-8 cannot be reduced in float
        arithmetic without catastrophic cancellation, so they are refused.
        """
        if y < 1e-8:
            raise PrecisionError(
                "imaginary part %.3g is below the precision floor 1e-08" % y
            )
        return self(half_plane_point(Fraction(x).limit_denominator(10 ** 12),
                                     Fraction(y).limit_denominator(10 ** 12)))


def _evaluate_form(coeffs: Sequence[int], exponent: int, point: HalfPlanePoint) -> OracleValue:
    q = _exp_q(point)
    tail = _series_tail_bound(exponent, abs(q), len(coeffs))
    return OracleValue(series_value(coeffs, q), tail)


def eisenstein_value(weight: int, point: HalfPlanePoint, terms: int = 40) -> OracleValue:
    """Evaluate E4 or E6 at a reduced copy of the given point."""
    reduced, _ = reduce_point(point)
    coeffs = eisenstein_series(weight, terms)
    # weight-k Eisenstein coefficients are bounded by c_k * n^k
    scale = 240 if weight == 4 else 504
    value = _evaluate_form(coeffs, weight, reduced)
    return OracleValue(value.value, scale * value.error)


def j_oracle(terms: int = 30) -> ModularOracle:
    """Oracle for the j-invariant built from truncated integer series.

    j is invariant under the integral Mobius transformations of
    determinant one, and its values at complex multiplication points are
    algebraic.

    The point is first reduced into the fundamental domain (exactly), so
    |q| <= exp(-pi * sqrt(3)) and thirty terms already give errors far
    below 1e-6.  The reported error bound combines the E4 and Delta tail
    bounds through the quotient rule with a factor two of slack.
    """
    if terms < 2:
        raise ValueError("the j series needs at least two terms")
    e4 = eisenstein_series(4, terms)
    delta = delta_series(terms)

    def evaluate(point: HalfPlanePoint) -> OracleValue:
        reduced, _ = reduce_point(point)
        q = _exp_q(reduced)
        r = abs(q)
        e4_val = series_value(e4, q)
        # |a_n(E4)| <= 240 n^4
        e4_err = 240.0 * _series_tail_bound(4, r, terms)
        d_val = series_value(delta, q)
        # |tau(n)| <= n^7
        d_err = _series_tail_bound(7, r, terms)
        if abs(d_val) <= 2 * d_err:
            raise PrecisionError("Delta is numerically zero at this point")
        value = e4_val ** 3 / d_val
        # first order error propagation for x^3 / y, doubled for safety;
        # the epsilon term accounts for float rounding in the Horner loops
        rounding = (4 * terms + 16) * sys.float_info.epsilon
        rel = 3 * e4_err / max(abs(e4_val), 1e-300) + d_err / abs(d_val)
        return OracleValue(value, 2.0 * abs(value) * (rel + rounding))

    return ModularOracle("j", evaluate, terms)


def constant_oracle(value) -> ModularOracle:
    """Oracle for a constant function, exact at every point.

    It is invariant under all Mobius transformations, and its value is
    rational, so algebraic at complex multiplication points too.
    """
    const = complex(Fraction(value))

    def evaluate(point: HalfPlanePoint) -> OracleValue:
        if point.y <= 0:
            raise OracleDomainError("point is not in the upper half plane")
        return OracleValue(const, 0.0)

    return ModularOracle("constant(%s)" % Fraction(value), evaluate)
