"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are coefficient vectors over the power basis 1, z, ..., z^{d-1} of
Q[x]/(Phi_n(x)) with Fraction entries, so every operation is exact.  The
module stays deliberately small: field operations, the Galois action
z -> z^j, traces and norms, and multiplication matrices over explicitly
given Q-bases.  That is all the rest of the package needs to realize tori
and reflex norms on actual points.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .lattice import frac_solve


def _poly_divmod(num, den):
    """Quotient and remainder of integer-coefficient polynomials.

    Coefficients are listed low to high; ``den`` must be monic.
    """
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError("cyclotomic division must be exact")
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n: int):
    """z^k for k = 0 .. 2(d-1) as vectors over the power basis."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    table = []
    for k in range(2 * d - 1):
        if k < d:
            vec = [Fraction(0)] * d
            vec[k] = Fraction(1)
        else:
            prev = table[k - 1]
            shifted = [Fraction(0)] + list(prev)
            lead = shifted.pop()
            if lead:
                for j in range(d):
                    shifted[j] -= lead * phi[j]
            vec = shifted
        table.append(tuple(vec))
    return tuple(table)


@lru_cache(maxsize=None)
def automorphism_exponents(n: int):
    """Residues j with gcd(j, n) = 1, indexing the automorphisms z -> z^j."""
    if n == 1:
        return (1,)
    return tuple(j for j in range(1, n) if gcd(j, n) == 1)


class CyclotomicElement:
    """Element of Q(zeta_n) as an exact coefficient vector."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        d = len(cyclotomic_polynomial(n)) - 1
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != d:
            raise ValueError(f"need {d} coefficients for n={n}, got {len(coeffs)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("CyclotomicElement is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "CyclotomicElement":
        d = len(cyclotomic_polynomial(n)) - 1
        return CyclotomicElement(n, [0] * d)

    @staticmethod
    def one(n: int) -> "CyclotomicElement":
        return CyclotomicElement.from_rational(n, 1)

    @staticmethod
    def from_rational(n: int, value) -> "CyclotomicElement":
        d = len(cyclotomic_polynomial(n)) - 1
        coeffs = [Fraction(value)] + [Fraction(0)] * (d - 1)
        return CyclotomicElement(n, coeffs)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CyclotomicElement":
        table = _power_table(n)
        d = (len(table) + 1) // 2
        k = power % n
        if d == 1:
            root = -cyclotomic_polynomial(n)[0]  # zeta is rational here
            return CyclotomicElement.from_rational(n, root**k)
        if k < len(table):
            return CyclotomicElement(n, table[k])
        # split the exponent until it lands in the table
        half = CyclotomicElement.zeta(n, k - (d - 1))
        return half * CyclotomicElement(n, table[d - 1])

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, CyclotomicElement):
            return CyclotomicElement.from_rational(self.n, other)
        if other.n != self.n:
            raise ValueError("mixed cyclotomic levels")
        return other

    def __add__(self, other):
        other = self._check(other)
        return CyclotomicElement(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.n, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        d = len(self.coeffs)
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        table = _power_table(self.n)
        out = [Fraction(0)] * d
        for k, c in enumerate(prod):
            if c:
                for j, t in enumerate(table[k]):
                    if t:
                        out[j] += c * t
        return CyclotomicElement(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicElement.one(self.n)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "CyclotomicElement":
        d = len(self.coeffs)
        cols = [ (CyclotomicElement.zeta(self.n, k) * self).coeffs for k in range(d) ]
        matrix = [[cols[j][i] for j in range(d)] for i in range(d)]
        target = [Fraction(1)] + [Fraction(0)] * (d - 1)
        sol = frac_solve(matrix, target)
        if sol is None:
            raise ZeroDivisionError("element is zero")
        return CyclotomicElement(self.n, sol)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    # -- field structure ---------------------------------------------------

    def galois(self, j: int) -> "CyclotomicElement":
        """Image under the automorphism z -> z^j (j coprime to n)."""
        if gcd(j, self.n) != 1:
            raise ValueError(f"{j} is not coprime to {self.n}")
        out = CyclotomicElement.zero(self.n)
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + CyclotomicElement.zeta(self.n, j * k) * c
        return out

    def conjugate(self) -> "CyclotomicElement":
        return self.galois(self.n - 1 if self.n > 2 else 1)

    def trace(self) -> Fraction:
        total = CyclotomicElement.zero(self.n)
        for j in automorphism_exponents(self.n):
            total = total + self.galois(j)
        return total.rational_value()

    def norm(self) -> Fraction:
        total = CyclotomicElement.one(self.n)
        for j in automorphism_exponents(self.n):
            total = total * self.galois(j)
        return total.rational_value()

    def rational_value(self) -> Fraction:
        if any(self.coeffs[1:]):
            raise ValueError(f"not rational: {self}")
        return self.coeffs[0]

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def is_integral(self) -> bool:
        """Membership in Z[zeta_n], the full ring of integers of Q(zeta_n)."""
        return all(c.denominator == 1 for c in self.coeffs)

    # -- misc ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicElement.from_rational(self.n, other)
        return (
            isinstance(other, CyclotomicElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return " + ".join(parts)


def multiplication_matrix(multiplier: CyclotomicElement, basis):
    """Matrix of x -> multiplier*x over a Q-basis of an invariant subspace.

    Entries are Fractions; column j holds the coordinates of
    multiplier*basis[j].  Raises if the products leave the span.
    """
    basis = list(basis)
    d = len(multiplier.coeffs)
    span = [[b.coeffs[i] for b in basis] for i in range(d)]
    cols = []
    for b in basis:
        prod = multiplier * b
        sol = frac_solve(span, list(prod.coeffs))
        if sol is None:
            raise ValueError("product leaves the span of the basis")
        residual = [
            sum(span[i][j] * sol[j] for j in range(len(basis))) - prod.coeffs[i]
            for i in range(d)
        ]
        if any(residual):
            raise ValueError("product leaves the span of the basis")
        cols.append(sol)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]

