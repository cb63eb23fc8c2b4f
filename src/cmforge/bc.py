"""Finite models of arithmetic groupoid systems over class number one fields.

The underlying groupoid has arrows (g, rho, w) where g is a finite idele
shadow (a unit residue together with an exponent vector over the enumerated
primes), rho is a residue of the ring of integers, and w lives in a ray
class quotient.  Functions invariant under the two-sided unit action are
stored on orbit classes.  An orbit is pinned down by exact data:

* the exponent vector of g (units are absorbed by the action),
* one valuation class per relevant prime, either "exactly v" or
  "everything of valuation at least t",
* a coset of ray classes, saturated under the image of the stabilizer of
  the anchored residue.

Ring elements (moduli, prime generators, units and residues) are tuples of
integer coordinates over the power basis 1, zeta, ..., zeta^(d-1) of
Z[zeta_n]; see RingData.  Field arithmetic lives in :mod:`cmforge.cyclotomic`,
and `arith.CMContext` is the one place where the two meet.

Convolution, involution and the time evolution all stay inside this key
format, so associativity can be tested exactly.  The time evolution keeps
its phases symbolic: a coefficient is a Gaussian rational attached to a
formal product of p^{i r} factors with rational exponents r.

Normalization conventions: the ray class of an idele with unit part u and
exponent vector e is [u] * prod [pi]^{e_pi} over primes away from the
modulus; uniformizers at primes dividing the modulus act trivially on the
ray classes, matching the standard computation of the reciprocity map on
cyclotomic components.  The right action of a unit gamma on the class slot
is multiplication by cls(gamma)^{-1}.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cyclotomic import _poly_divmod, _power_table, cyclotomic_polynomial
from .lattice import (
    IntMatrix,
    hermite_normal_form,
    hnf_reduce,
    lattice_shell,
    prime_factors,
    solve_int_rowspan,
    vstack,
)

TOP = "top"
EXACT = "exact"


# -- Number ring data ------------------------------------------------------------


class RingData:
    """Ring of integers of a builtin field in its power basis.

    Elements are tuples of integer coordinates over the power basis 1, zeta,
    ..., zeta^(d-1) of Z[zeta_n], multiplied through coord_rows and
    times_rows.  Immutable: `builtin_ring` hands one instance per field to
    every caller.
    """

    __slots__ = ("name", "cyclo_n", "degree", "unit_generators", "_powers")

    def __init__(self, name, cyclo_n, unit_gen_coords, unit_orders):
        # coordinates of zeta^k for k = 0 .. 2(d-1), the products of two basis vectors
        powers = tuple(tuple(map(int, v)) for v in _power_table(cyclo_n))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cyclo_n", cyclo_n)
        object.__setattr__(self, "degree", (len(powers) + 1) // 2)
        object.__setattr__(self, "_powers", powers)
        gens = tuple(tuple(c) for c in unit_gen_coords)
        if len(gens) != len(unit_orders):
            raise ValueError("each declared unit generator needs one declared order")
        for gen, order in zip(gens, unit_orders):
            self._verify_unit(gen, order)
        minus_one = tuple(-c for c in powers[0])
        object.__setattr__(self, "unit_generators", gens + (minus_one,))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("RingData is immutable")

    def _verify_unit(self, gen, order):
        if len(gen) != self.degree:
            raise ValueError("coordinate length mismatch")
        rows = self.coord_rows(gen)
        if abs(IntMatrix(rows).determinant()) != 1:
            raise ValueError("declared unit generator has norm != 1")
        one = self._powers[0]
        if order is None:
            power = gen
            for _ in range(24):
                if power == one:
                    raise ValueError("declared infinite order unit is torsion")
                power = self.times_rows(power, rows)
        else:
            power = one
            for k in range(1, order):
                power = self.times_rows(power, rows)
                if power == one:
                    raise ValueError("unit generator order is smaller than declared")
            if self.times_rows(power, rows) != one:
                raise ValueError("unit generator order mismatch")

    def torsion_units(self) -> Tuple[Tuple[int, ...], ...]:
        one = self._powers[0]
        gens = [self.coord_rows(tuple(-c for c in one))]
        if self.cyclo_n > 1:
            gens.append(self.coord_rows(self._powers[1]))
        group = {one: None}
        frontier = [one]
        while frontier:
            current = frontier.pop()
            for rows in gens:
                nxt = self.times_rows(current, rows)
                if nxt not in group:
                    group[nxt] = None
                    frontier.append(nxt)
        return tuple(group)

    def coord_rows(self, coords) -> List[List[int]]:
        """Row i holds the coordinates of x * zeta^i, x given by its coordinates."""
        d = self.degree
        powers = self._powers
        return [
            [sum(coords[k] * powers[k + i][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]

    def times_rows(self, coords, rows) -> Tuple[int, ...]:
        """Coordinates of x * y from those of x and the coord_rows of y."""
        return tuple(
            sum(c * row[j] for c, row in zip(coords, rows)) for j in range(self.degree)
        )


# canonical name -> (conductor, declared unit generators, their orders (None
# for infinite order), accepted spellings, matched in lower case)
_BUILTIN_RINGS = {
    "Q": (1, (), (), ("q",)),
    "Q(i)": (4, ((0, 1),), (4,), ("q(i)", "qi")),
    "Q(zeta5)": (5, ((0, 1, 0, 0), (1, 1, 0, 0)), (5, None), ("q(zeta5)", "qzeta5", "zeta5")),
}


@lru_cache(maxsize=None)
def builtin_ring(name: str) -> RingData:
    """The one RingData of a builtin field, built and verified on first use.

    Every accepted spelling resolves to the instance of the canonical name.
    """
    for canonical, (conductor, gen_coords, orders, spellings) in _BUILTIN_RINGS.items():
        if name == canonical:
            return RingData(name, conductor, gen_coords, orders)
        if name.lower() in spellings:
            return builtin_ring(canonical)
    raise ValueError("unknown field %r, builtins are %s" % (name, sorted(_BUILTIN_RINGS)))


# -- Residue rings ----------------------------------------------------------------

# The most residues ResidueRing.enumerate lists; a larger ring raises
# ValueError.  The unit group of ShimuraSet and arith.level_unit_of both
# enumerate, so this bounds the moduli they accept.
ENUMERATION_LIMIT = 20000


class ResidueRing:
    """The quotient O/(modulus) of a ring of integers by a principal ideal.

    The modulus, the residues and `primes`, a generator of every prime
    ideal P dividing the modulus, each once, are coordinate tuples.  Every
    divisibility question about a residue is one reduction against the
    ring's table of Hermite forms of P^k + (modulus), keyed by (prime
    index, k) and built on first use.  x is a unit exactly when no
    listed P contains it: O is Dedekind, so x·O + (modulus) = O unless a
    maximal ideal holds both, and those holding the modulus are the primes.
    """

    __slots__ = ("ring", "modulus", "primes", "lattice", "size", "_one", "_prime_forms")

    def __init__(self, ring: RingData, modulus, primes):
        self.ring = ring
        self.modulus = tuple(modulus)
        h, _ = hermite_normal_form(IntMatrix(ring.coord_rows(self.modulus)))
        if any(h.entries[i][i] <= 0 for i in range(ring.degree)):
            raise ValueError("modulus generates a rank deficient ideal")
        self.lattice = h
        size = 1
        for i in range(h.rows):
            size *= h.entries[i][i]
        self.size = size
        self.primes = tuple(primes)
        self._one = self.reduce((1,) + (0,) * (ring.degree - 1))
        self._prime_forms = {}
        if any(self.in_prime_power(self._one, i, 1) for i in range(len(self.primes))):
            raise ValueError("a listed prime does not divide the modulus")

    def prime_power_form(self, index: int, k: int) -> IntMatrix:
        """Hermite form of P^k + (modulus) for P = primes[index]."""
        form = self._prime_forms.get((index, k))
        if form is None:
            power = self.ring.coord_rows(self.power(self.primes[index], k))
            form, _ = hermite_normal_form(vstack(IntMatrix(power), self.lattice))
            self._prime_forms[(index, k)] = form
        return form

    def in_prime_power(self, coords, index: int, k: int) -> bool:
        """Whether the residue lies in P^k + (modulus), P = primes[index]."""
        return not any(hnf_reduce(self.prime_power_form(index, k), coords)[1])

    def reduce(self, coords) -> Tuple[int, ...]:
        return hnf_reduce(self.lattice, [int(c) for c in coords])[1]

    def one(self) -> Tuple[int, ...]:
        return self._one

    def mul(self, a, b) -> Tuple[int, ...]:
        return self.reduce(self.ring.times_rows(a, self.ring.coord_rows(b)))

    def power(self, coords, k: int) -> Tuple[int, ...]:
        rows = self.ring.coord_rows(coords)
        out = self._one
        for _ in range(k):
            out = self.reduce(self.ring.times_rows(out, rows))
        return out

    def add(self, a, b) -> Tuple[int, ...]:
        return self.reduce([x + y for x, y in zip(a, b)])

    def is_unit(self, coords) -> bool:
        return not any(self.in_prime_power(coords, i, 1) for i in range(len(self.primes)))

    def inverse(self, coords) -> Tuple[int, ...]:
        rows = IntMatrix(self.ring.coord_rows(coords))
        combo = solve_int_rowspan(vstack(rows, self.lattice), self._one)
        if combo is None:
            raise ValueError("residue is not invertible")
        return self.reduce(combo[: self.ring.degree])

    def enumerate(self) -> List[Tuple[int, ...]]:
        if self.size > ENUMERATION_LIMIT:
            raise ValueError(
                "residue ring has %d elements, above the limit %d"
                % (self.size, ENUMERATION_LIMIT)
            )
        h = self.lattice.entries
        ranges = [range(h[i][i]) for i in range(self.lattice.rows)]
        return [self.reduce(v) for v in itertools.product(*ranges)]


# -- Prime enumeration -------------------------------------------------------------


class PrimeData:
    """The coordinates of a chosen generator of a prime ideal, and local bookkeeping."""

    __slots__ = ("coords", "norm", "p", "degree", "m_valuation", "in_window", "class_label")

    def __init__(self, coords, norm, p, degree):
        self.coords = tuple(coords)
        self.norm = norm
        self.p = p
        self.degree = degree
        self.m_valuation = 0
        self.in_window = True
        self.class_label = None


def _rational_primes(bound: int) -> List[int]:
    sieve = [True] * (bound + 1)
    out = []
    for n in range(2, bound + 1):
        if sieve[n]:
            out.append(n)
            for k in range(n * n, bound + 1, n):
                sieve[k] = False
    return out


def _splitting_data(ring: RingData, p: int) -> Tuple[int, int]:
    """Return (residue degree f, number of primes g) for p in the ring.

    A p dividing the conductor n ramifies totally when n is a power of p;
    for any other n the part of n prime to p still splits p, which is not
    handled, so ValueError is raised.
    """
    n = ring.cyclo_n
    if n == 1:
        return 1, 1
    if n % p == 0:
        rest = n
        while rest % p == 0:
            rest //= p
        if rest != 1:
            raise ValueError(
                "no splitting data for p = %d dividing conductor %d, which is not a prime power"
                % (p, n))
        return 1, 1
    f = 1
    power = p % n
    while power != 1:
        power = (power * p) % n
        f += 1
    return f, ring.degree // f


def _ideal_generator_polys(ring: RingData, p: int, f: int) -> List[Tuple[int, ...]]:
    """One polynomial h per prime above p, so that the prime is (p, h(zeta)).

    Each h is a monic irreducible factor of Phi_n mod p, found by trial:
    Phi_n itself when p is inert, x - r for each root r when f = 1 (for a
    ramified p the only root is r = 1), and x^2 - t x + 1 when f = 2 and
    p = -1 mod n, where Frobenius pairs each root with its inverse.
    Polynomials are listed low to high.
    """
    n = ring.cyclo_n
    phi = cyclotomic_polynomial(n)
    if f == ring.degree:
        return [phi]
    if f == 1:
        return [
            (-r, 1) for r in range(p)
            if sum(c * pow(r, k, p) for k, c in enumerate(phi)) % p == 0
        ]
    if f == 2 and (p + 1) % n == 0:
        return [
            (1, -t, 1) for t in range(p)
            if all(c % p == 0 for c in _poly_divmod(phi, (1, -t, 1))[1])
        ]
    raise ValueError("no prime ideal construction for residue degree %d" % f)


@lru_cache(maxsize=None)
def _prime_generators(ring: RingData, p: int, f: int) -> Tuple[Tuple[int, ...], ...]:
    """Coordinates of canonical generators of the primes above p, each of norm p**f.

    Every prime is built as (p, h(zeta)) from an irreducible factor h of
    Phi_n mod p, and its lattice is the HNF of the multiplication rows of p
    and h(zeta).  The walk visits the lattice points by increasing height
    max |coordinate|, and within one height in sorted coordinate order; the
    first point whose integer norm is +-p**f generates the prime.  That
    point is then replaced by its associate under the torsion units with
    the largest coefficient tuple, so 2 is preferred to -2 and 1 + i to
    -1 - i.  The generator is thus a function of the ideal alone: it is
    the first generator of the ideal in (height, coordinates) order,
    normalized, even in Z[zeta5] with its infinitely many units.  Class
    number one makes every ideal principal, so the walk always ends and
    no bound limit remains.  Over Q the generator is p itself.  The
    primes are listed in the order of their first points.

    The result is cached per (ring, p, f).  That is sound because it is a
    function of the ideals above p alone, and so of its arguments: windows
    at every bound and the modulus primes share it, and `builtin_ring`
    hands out one immutable RingData per field.
    """
    if ring.cyclo_n == 1:
        return ((p,),)
    d = ring.degree
    target = p ** f
    phi = cyclotomic_polynomial(ring.cyclo_n)
    firsts = []
    for poly in _ideal_generator_polys(ring, p, f):
        rem = _poly_divmod(poly, phi)[1]
        rows = [[p if i == j else 0 for j in range(d)] for i in range(d)]
        rows += ring.coord_rows(tuple(rem) + (0,) * (d - len(rem)))
        basis = hermite_normal_form(IntMatrix(rows))[0].entries[:d]
        firsts.append(next(
            (height, x)
            for height in itertools.count(1)
            for x in lattice_shell(basis, height)
            if abs(IntMatrix(ring.coord_rows(x)).determinant()) == target
        ))
    torsion = [ring.coord_rows(u) for u in ring.torsion_units()]
    return tuple(max(ring.times_rows(x, rows) for rows in torsion) for _, x in sorted(firsts))


def prime_window(ring: RingData, bound: int) -> List[PrimeData]:
    """All primes of norm at most bound, ordered by (norm, coefficients).

    Each prime above p is built as (p, h(zeta)) for an irreducible factor
    h of Phi_n mod p and carries its canonical generator (see
    _prime_generators): the first lattice point of the ideal, by height
    and then by coordinates, whose norm is +-p**f, moved to its torsion
    associate with the largest coefficient tuple.  The generator depends
    on the ideal alone, so windows at different bounds agree on the
    primes they share.  No height window limits the construction, so
    every bound is reachable.
    """
    out = []
    for p in _rational_primes(bound):
        f, _ = _splitting_data(ring, p)
        if p ** f > bound:
            continue
        for gen in _prime_generators(ring, p, f):
            out.append(PrimeData(gen, p ** f, p, f))
    out.sort(key=lambda q: (q.norm, q.coords))
    return out


# -- Ray class quotient -------------------------------------------------------------


class ShimuraSet:
    """Residue classes modulo m up to the image of the global units.

    Labels are stable strings w0, w1, ... ordered by the smallest residue
    representative, and each class keeps that representative.
    """

    __slots__ = ("residues", "labels", "_class_of", "_mult", "_inverse", "identity",
                 "representatives")

    def __init__(self, ring: RingData, modulus, primes):
        ring_mod = ResidueRing(ring, modulus, primes)
        units = [u for u in ring_mod.enumerate() if ring_mod.is_unit(u)]
        unit_set = set(units)
        gens = [ring_mod.reduce(g) for g in ring.unit_generators]
        image = {ring_mod.one()}
        frontier = [ring_mod.one()]
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = ring_mod.mul(current, g)
                if nxt not in image:
                    image.add(nxt)
                    frontier.append(nxt)
        if not image <= unit_set:
            raise ValueError("unit generators are not invertible modulo m")
        seen = set()
        classes = []
        for u in sorted(units):
            if u in seen:
                continue
            orbit = sorted(ring_mod.mul(u, h) for h in image)
            seen.update(orbit)
            classes.append(tuple(orbit))
        classes.sort(key=lambda orbit: orbit[0])
        self.residues = ring_mod
        self.labels = tuple("w%d" % k for k in range(len(classes)))
        lookup = {}
        for label, orbit in zip(self.labels, classes):
            for member in orbit:
                lookup[member] = label
        self._class_of = lookup
        reps = {label: orbit[0] for label, orbit in zip(self.labels, classes)}
        self.representatives = reps
        self.identity = lookup[ring_mod.one()]
        self._mult = {
            (la, lb): lookup[ring_mod.mul(ra, rb)]
            for la, ra in reps.items() for lb, rb in reps.items()
        }
        # each row of the group table holds the identity exactly once
        self._inverse = {a: b for (a, b), c in self._mult.items() if c == self.identity}

    def __len__(self):
        return len(self.labels)

    def class_of(self, coords) -> str:
        reduced = self.residues.reduce(coords)
        label = self._class_of.get(reduced)
        if label is None:
            raise ValueError("residue %r is not invertible modulo m" % (reduced,))
        return label

    def mult(self, a: str, b: str) -> str:
        return self._mult[(a, b)]

    def inverse(self, a: str) -> str:
        return self._inverse[a]

    def power(self, a: str, k: int) -> str:
        if k < 0:
            return self.power(self.inverse(a), -k)
        out = self.identity
        for _ in range(k):
            out = self.mult(out, a)
        return out


# -- Finite level parameters --------------------------------------------------------


class FiniteLevelParams:
    """Field, modulus, prime window and caps for one finite model.

    The working modulus is m times the product of the window primes raised
    to the cap.  Orbit keys may carry valuations beyond the cap; the cap
    only controls the working residue ring and the samplers, and arrows
    whose divisibility bookkeeping would need more precision than a key
    provides are simply not representable at that key's resolution.

    So an arrow is rejected when, at a place P | m with residue cap c, its
    source residue has exact valuation v with v + v_P(m) > c: divided by
    pi^v it is known only modulo P^(c - v), while its ray class needs it
    modulo P^(v_P(m)).  As c is v_P(m) plus the cap at window primes and
    v_P(m) elsewhere, that takes v_P(m) >= 2 and v above the cap, or v >= 1
    at a place outside the window.

    Two caches fill on first use and hold one entry per key seen, so each
    is bounded by the masks or patterns met so far: `_stab_cache` maps an
    exact mask (one flag per place) to its coset table, and
    `_anchor_cache` maps a valuation pattern (one local class per place)
    to the anchor data of `orbit_key`.
    """

    __slots__ = ("ring", "modulus", "bound", "cap", "primes", "places",
                 "shimura", "residues", "_stab_cache", "_anchor_cache")

    def __init__(self, field: str, modulus_coords, bound: int, cap: int):
        self.ring = ring = builtin_ring(field)
        try:
            modulus_coords = tuple(modulus_coords)
        except TypeError:
            raise ValueError(
                "modulus must be a coordinate tuple of length %d, such as %r, not %r"
                % (ring.degree, (modulus_coords,) + (0,) * (ring.degree - 1), modulus_coords)
            ) from None
        values = [Fraction(c) for c in modulus_coords]
        if len(values) != ring.degree:
            raise ValueError("coordinate length mismatch")
        if not any(values):
            raise ValueError("modulus must be nonzero")
        if any(c.denominator != 1 for c in values):
            raise ValueError("modulus must be integral")
        self.modulus = m = tuple(map(int, values))
        norm = abs(IntMatrix(ring.coord_rows(m)).determinant())
        if norm == 1:
            raise ValueError("modulus must not be a unit")
        if bound < 2:
            raise ValueError("prime bound must be at least 2")
        if cap < 1:
            raise ValueError("valuation cap must be at least 1")
        self.bound = bound
        self.cap = cap
        window = prime_window(ring, bound)
        extra = self._modulus_only_primes(window, m, norm)
        for q in extra:
            q.in_window = False
        self.primes = tuple(window)
        self.places = tuple(window + extra)
        working = m
        for q in window:
            rows = ring.coord_rows(q.coords)
            for _ in range(cap):
                working = ring.times_rows(working, rows)
        for place in self.places:
            # P divides m only if its rational prime divides N(m)
            place.m_valuation = self._valuation_of(m, place.coords) if norm % place.p == 0 else 0
        self.residues = ResidueRing(ring, working, [q.coords for q in self.places])
        self.shimura = ShimuraSet(ring, m, [q.coords for q in self.places if q.m_valuation])
        for place in self.places:
            if place.m_valuation == 0:
                place.class_label = self.shimura.class_of(place.coords)
        self._stab_cache = {}
        self._anchor_cache = {}

    def _modulus_only_primes(self, window: Sequence[PrimeData], m, norm: int) -> List[PrimeData]:
        """The primes dividing m (coordinates m, norm N(m)) outside the window."""
        if norm > 10 ** 6:
            raise ValueError("modulus norm is too large for prime factorization")
        out = []
        for p in prime_factors(norm):
            f, _ = _splitting_data(self.ring, p)
            for gen in _prime_generators(self.ring, p, f):
                if any(gen == q.coords for q in window):
                    continue
                place = PrimeData(gen, p ** f, p, f)
                if self._valuation_of(m, place.coords):
                    out.append(place)
        return out

    def _valuation_of(self, coords, prime) -> int:
        """Exponent of the prime element in the nonzero x, both as coordinates:
        x / pi = q·U when x = q·H against the form U·rows(pi) = H."""
        h, u = hermite_normal_form(IntMatrix(self.ring.coord_rows(prime)))
        v = 0
        while True:
            q, r = hnf_reduce(h, coords)
            if any(r):
                return v
            coords, v = u.act_on_row(q), v + 1

    # -- local valuations of working residues -------------------------------

    def place_exponents(self, exponents) -> Tuple[int, ...]:
        """Exponents over the places: a vector over the window primes gets zeros
        at the modulus-only places, and nonzero exponents there are rejected."""
        exps = tuple(map(int, exponents))
        n = len(self.primes)
        if len(exps) == n:
            return exps + (0,) * (len(self.places) - n)
        if len(exps) != len(self.places):
            raise ValueError("exponent vector length mismatch")
        # the places past the window primes are the modulus-only ones
        if any(exps[n:]):
            raise ValueError("exponents must vanish at primes outside the window")
        return exps

    def residue_cap(self, index: int) -> int:
        place = self.places[index]
        return place.m_valuation + (self.cap if place.in_window else 0)

    def residue_valuation(self, coords, index: int) -> Tuple[str, int]:
        """Valuation class of a working residue at one place.

        Returns (EXACT, v) when v is below the cap at that place, and
        (TOP, cap) when the residue is divisible by the full cap power.
        """
        cap = self.residue_cap(index)
        vec = self.residues.reduce(coords)
        v = 0
        while v < cap and self.residues.in_prime_power(vec, index, v + 1):
            v += 1
        if v >= cap:
            return (TOP, cap)
        return (EXACT, v)

    # -- ray class bookkeeping ----------------------------------------------

    def class_of_exponents(self, exponents: Sequence[int]) -> str:
        label = self.shimura.identity
        for e, place in zip(exponents, self.places):
            if e == 0 or place.class_label is None:
                continue
            label = self.shimura.mult(label, self.shimura.power(place.class_label, e))
        return label

    def class_of_unit(self, coords) -> str:
        return self.shimura.class_of(coords)

    def _coset_table(self, exact_mask) -> Dict[str, Tuple[str, ...]]:
        """Map each ray class label to its coset under the stabilizer image
        of the mask, as a tuple sorted in label order.

        A place with exact valuation pins its local residue up to units
        congruent to 1 modulo the full local component of m; a place in
        the TOP state imposes nothing.  Only places dividing m matter; they
        are the primes of the ring mod m, in order.  u is 1 modulo the
        product of the pinned P^{v_P(m)} exactly when u - 1 lies in
        P^{v_P(m)} + (m) for each: the powers are pairwise coprime, so
        their product is their intersection (CRT).
        """
        exact_mask = tuple(exact_mask)
        table = self._stab_cache.get(exact_mask)
        if table is not None:
            return table
        dividing = [
            (exact, place.m_valuation)
            for exact, place in zip(exact_mask, self.places) if place.m_valuation
        ]
        pinned = tuple((i, v) for i, (exact, v) in enumerate(dividing) if exact)
        ring_mod = self.shimura.residues
        one = ring_mod.one()
        stab = {
            label for u, label in self.shimura._class_of.items()
            if all(ring_mod.in_prime_power([a - b for a, b in zip(u, one)], i, k)
                   for i, k in pinned)
        }
        table = {}
        for w in self.shimura.labels:
            if w not in table:
                coset = tuple(sorted({self.shimura.mult(w, s) for s in stab}))
                for member in coset:
                    table[member] = coset
        self._stab_cache[exact_mask] = table
        return table

    def saturate_coset(self, labels: Iterable[str], exact_mask) -> Tuple[str, ...]:
        """The smallest union of stabilizer cosets holding the labels.

        Each label's coset is looked up in the coset table of the mask; one
        coset is returned as it stands, several are merged and sorted.
        """
        if isinstance(labels, str):
            raise ValueError("expected a sequence of ray class labels, got %r" % labels)
        table = self._coset_table(exact_mask)
        try:
            cosets = {table[w] for w in labels}
        except KeyError as exc:
            raise ValueError("unknown ray class label %r" % (exc.args[0],)) from None
        if len(cosets) == 1:
            return cosets.pop()
        return tuple(sorted(set().union(*cosets)))

    def split_coset(self, labels: Sequence[str], exact_mask) -> List[Tuple[str, ...]]:
        """The stabilizer cosets making up a saturated set of labels.

        The cosets are looked up in the coset table of the mask and listed
        in sorted order, that is by their smallest labels.  The labels are
        saturated exactly when the sizes of their cosets add up to the
        number of labels.
        """
        table = self._coset_table(exact_mask)
        distinct = set(labels)
        pieces = sorted({table[w] for w in distinct})
        if sum(len(piece) for piece in pieces) != len(distinct):
            raise AssertionError("coset is not saturated under the stabilizer")
        return pieces

    def _anchor_form(self, pattern):
        """The data `GroupoidArrow.orbit_key` needs of a valuation pattern.

        Returns (h, u, exact_is_one, e).  U·B = H is the Hermite form of B,
        the multiplication rows of the anchor stacked on the working
        lattice, and u keeps the first d columns of U, so a residue rho =
        y·H gives the anchor coefficient y·u.  exact_is_one says whether
        the exact part E is 1 in O/m, and e is the CRT idempotent (0 mod E,
        1 mod T), or None unless both parts are nontrivial.
        """
        form = self._anchor_cache.get(pattern)
        if form is not None:
            return form
        ring = self.ring
        residues = self.residues
        ring_mod = self.shimura.residues
        anchor = residues.one()
        exact_part = top_part = ring_mod.one()
        for (kind, v), place in zip(pattern, self.places):
            if v:
                anchor = residues.mul(anchor, residues.power(place.coords, v))
            if place.m_valuation:
                local = ring_mod.power(place.coords, place.m_valuation)
                if kind == EXACT:
                    exact_part = ring_mod.mul(exact_part, local)
                else:
                    top_part = ring_mod.mul(top_part, local)
        h, u = hermite_normal_form(vstack(IntMatrix(ring.coord_rows(anchor)), residues.lattice))
        u = IntMatrix([row[: ring.degree] for row in u.entries])
        exact_is_one = exact_part == ring_mod.one()
        e = None
        if not exact_is_one and top_part != ring_mod.one():
            rows = [IntMatrix(ring.coord_rows(x)) for x in (exact_part, top_part)]
            bez = solve_int_rowspan(vstack(*rows, ring_mod.lattice), ring_mod.one())
            if bez is None:
                raise AssertionError("exact and TOP parts are not coprime")
            e = ring_mod.mul(bez[: ring.degree], exact_part)
        form = self._anchor_cache[pattern] = (h, u, exact_is_one, e)
        return form


def build_params(field: str, modulus_coords, bound: int, cap: int = 1) -> FiniteLevelParams:
    return FiniteLevelParams(field, modulus_coords, bound, cap)


# -- Coefficients with symbolic phases ----------------------------------------------


def _phase_mul(a: Tuple, b: Tuple) -> Tuple:
    merged = dict(a)
    for p, r in b:
        merged[p] = merged.get(p, Fraction(0)) + r
    return tuple(sorted((p, r) for p, r in merged.items() if r != 0))


def _phase_conj(a: Tuple) -> Tuple:
    return tuple((p, -r) for p, r in a)


class Coefficient:
    """Gaussian rational combination of symbolic phases prod p^(i r).

    The trivial phase is the empty tuple, so plain Gaussian rationals are
    coefficients with a single part keyed by ().

    Canonical form: ``parts`` is a tuple of (phase, re_num, im_num) sorted
    by phase, with no part whose numerators both vanish, over one positive
    integer ``den`` with gcd(den, every numerator) = 1.  Zero is () over 1.
    So ``den`` is the least common denominator of the values, and two
    coefficients are equal exactly when their (parts, den) are.  Sums work
    over lcm(den1, den2) and products over den1 * den2; the Fraction view
    ``terms`` is built on demand.
    """

    __slots__ = ("parts", "den")

    def __init__(self, terms: Dict[Tuple, Tuple[int, int]], den: int = 1):
        if den <= 0:
            raise ValueError("coefficient denominator must be positive, got %r" % (den,))
        parts = sorted((phase, re, im) for phase, (re, im) in terms.items() if re or im)
        g = den
        for _, re, im in parts:
            g = math.gcd(g, re, im)
        if not parts:
            den = 1
        elif g > 1:
            parts = [(phase, re // g, im // g) for phase, re, im in parts]
            den //= g
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Coefficient is immutable")

    @staticmethod
    def of(re, im=0) -> "Coefficient":
        re, im = Fraction(re), Fraction(im)
        den = math.lcm(re.denominator, im.denominator)
        return Coefficient(
            {(): (re.numerator * (den // re.denominator),
                  im.numerator * (den // im.denominator))},
            den,
        )

    @staticmethod
    def zero() -> "Coefficient":
        return Coefficient({})

    @staticmethod
    def one() -> "Coefficient":
        return Coefficient({(): (1, 0)})

    @property
    def terms(self) -> Tuple[Tuple[Tuple, Tuple[Fraction, Fraction]], ...]:
        """The (phase, (re, im)) pairs with Gaussian rational values."""
        den = self.den
        return tuple(
            (phase, (Fraction(re, den), Fraction(im, den)))
            for phase, re, im in self.parts
        )

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "Coefficient") -> "Coefficient":
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        a, b = d2 // g, d1 // g
        out = {phase: (re * a, im * a) for phase, re, im in self.parts}
        for phase, re, im in other.parts:
            slot = out.get(phase, (0, 0))
            out[phase] = (slot[0] + re * b, slot[1] + im * b)
        return Coefficient(out, d1 * a)

    def __neg__(self) -> "Coefficient":
        return Coefficient({p: (-re, -im) for p, re, im in self.parts}, self.den)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        out: Dict[Tuple, Tuple[int, int]] = {}
        for pa, ra, ia in self.parts:
            for pb, rb, ib in other.parts:
                phase = _phase_mul(pa, pb) if pa and pb else pa or pb
                slot = out.get(phase, (0, 0))
                out[phase] = (slot[0] + ra * rb - ia * ib, slot[1] + ra * ib + ia * rb)
        return Coefficient(out, self.den * other.den)

    def conj(self) -> "Coefficient":
        return Coefficient(
            {_phase_conj(p): (re, -im) for p, re, im in self.parts}, self.den
        )

    def phase_shift(self, phase: Tuple) -> "Coefficient":
        return Coefficient(
            {_phase_mul(p, phase): (re, im) for p, re, im in self.parts}, self.den
        )

    def constant(self) -> Tuple[Fraction, Fraction]:
        """The Gaussian rational value, requiring every phase to be trivial."""
        for phase, _, _ in self.parts:
            if phase:
                raise ValueError("coefficient carries nontrivial phases")
        if not self.parts:
            return (Fraction(0), Fraction(0))
        return self.terms[0][1]

    def __eq__(self, other):
        return (isinstance(other, Coefficient) and self.den == other.den
                and self.parts == other.parts)

    def __hash__(self):
        return hash((self.parts, self.den))

    def __repr__(self):
        if not self.terms:
            return "Coefficient(0)"
        bits = []
        for phase, (re, im) in self.terms:
            tag = "" if not phase else " * " + " ".join(
                "%d^(i*%s)" % (p, r) for p, r in phase
            )
            sign = "+" if im >= 0 else "-"
            bits.append("(%s %s %si)%s" % (re, sign, abs(im), tag))
        return "Coefficient(%s)" % " + ".join(bits)


# -- Orbit keys ---------------------------------------------------------------------


class OrbitKey(Tuple):
    """Immutable key (exponents, locals, wcoset) for one orbit class."""

    __slots__ = ()

    def __new__(cls, exponents, locals_, wcoset):
        return super().__new__(cls, (tuple(exponents), tuple(locals_), tuple(wcoset)))

    @property
    def exponents(self):
        return self[0]

    @property
    def locals(self):
        return self[1]

    @property
    def wcoset(self):
        return self[2]


def _exact_mask(locals_) -> Tuple[bool, ...]:
    return tuple([kind == EXACT for kind, _ in locals_])


def make_key(params: FiniteLevelParams, exponents, locals_, wlabels) -> Optional[OrbitKey]:
    """Validate and saturate orbit data into a canonical key.

    Returns None when the data describes no valid arrow, for instance an
    exact valuation too small for the negative part of the exponents.
    """
    exps = params.place_exponents(exponents)
    norm_locals = []
    for e, (kind, v) in zip(exps, locals_):
        if kind == EXACT:
            if v < 0 or v < -e:
                return None
            norm_locals.append((EXACT, v))
        elif kind == TOP:
            norm_locals.append((TOP, max(v, 0, -e)))
        else:
            raise ValueError("unknown local kind %r" % (kind,))
    mask = _exact_mask(norm_locals)
    coset = params.saturate_coset(wlabels, mask)
    return OrbitKey(exps, tuple(norm_locals), coset)


class AlgebraElement:
    """Finitely supported function on orbit classes with exact coefficients."""

    __slots__ = ("params", "terms")

    def __init__(self, params: FiniteLevelParams, terms: Dict[OrbitKey, Coefficient]):
        cleaned = {k: c for k, c in terms.items() if not c.is_zero()}
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("AlgebraElement is immutable")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Coefficient.zero()) + c
        return AlgebraElement(self.params, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(Coefficient.of(-1))

    def scale(self, coefficient: Coefficient) -> "AlgebraElement":
        return AlgebraElement(
            self.params, {k: c * coefficient for k, c in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def support_size(self) -> int:
        return len(self.terms)

    # -- equality through a common refinement -----------------------------

    def _refined_terms(self, floors: Tuple[int, ...]) -> Dict[OrbitKey, Coefficient]:
        out: Dict[OrbitKey, Coefficient] = {}
        for key, coeff in self.terms.items():
            for piece in _refine_key(self.params, key, floors):
                out[piece] = out.get(piece, Coefficient.zero()) + coeff
        return {k: c for k, c in out.items() if not c.is_zero()}

    def _floors_with(self, other: "AlgebraElement") -> Tuple[int, ...]:
        n = len(self.params.places)
        floors = [0] * n
        for elem in (self, other):
            for key in elem.terms:
                for i, (kind, v) in enumerate(key.locals):
                    level = v + 1 if kind == EXACT else v
                    floors[i] = max(floors[i], level)
        return tuple(floors)

    def equals(self, other: "AlgebraElement") -> bool:
        """Equality of the functions on arrows, through a common refinement.

        Both sides are refined to the floors of the two together.  The
        refinement is additive over keys: each (key, coefficient) pair adds
        its own pieces.  A pair present on both sides adds the same summands
        to both refinements, so it cancels, and only the remaining terms
        are refined and compared at the same floors.
        """
        if self.params is not other.params:
            raise ValueError("elements live over different parameters")
        floors = self._floors_with(other)
        mine = {k: c for k, c in self.terms.items() if other.terms.get(k) != c}
        theirs = {k: c for k, c in other.terms.items() if self.terms.get(k) != c}
        if not mine and not theirs:
            return True
        return (AlgebraElement(self.params, mine)._refined_terms(floors)
                == AlgebraElement(self.params, theirs)._refined_terms(floors))

    def __repr__(self):
        return "AlgebraElement(%d orbit classes)" % len(self.terms)


def _refine_key(params, key: OrbitKey, floors: Tuple[int, ...]) -> List[OrbitKey]:
    """Split TOP classes until each matches the requested floor."""
    pieces = [(list(key.locals), key.wcoset)]
    for i, floor in enumerate(floors):
        next_pieces = []
        for locals_, coset in pieces:
            kind, v = locals_[i]
            if kind == EXACT or v >= floor:
                next_pieces.append((locals_, coset))
                continue
            for new_v in range(v, floor):
                replaced = list(locals_)
                replaced[i] = (EXACT, new_v)
                next_pieces.append((replaced, coset))
            replaced = list(locals_)
            replaced[i] = (TOP, floor)
            next_pieces.append((replaced, coset))
        pieces = next_pieces
    keys = []
    for locals_, coset in pieces:
        mask = _exact_mask(locals_)
        for sub in params.split_coset(params.saturate_coset(coset, mask), mask):
            candidate = make_key(params, key.exponents, locals_, sub)
            if candidate is not None:
                keys.append(candidate)
    return keys


# -- The *-algebra operations --------------------------------------------------------


def delta_units(params: FiniteLevelParams) -> AlgebraElement:
    """Indicator of all unit arrows; the identity of the convolution."""
    n = len(params.places)
    key = make_key(
        params,
        (0,) * n,
        tuple((TOP, 0) for _ in range(n)),
        params.shimura.labels,
    )
    return AlgebraElement(params, {key: Coefficient.one()})


def _intersect_local(loc1, loc2, shift: int):
    """Intersect (loc1 shifted down by shift) with loc2.

    loc1 constrains v + shift and loc2 constrains v directly.  Returns a
    local class for v or None when the intersection is empty.
    """
    kind1, v1 = loc1
    kind2, v2 = loc2
    if kind1 == EXACT:
        target = v1 - shift
        if target < 0:
            return None
        if kind2 == EXACT:
            return (EXACT, target) if target == v2 else None
        return (EXACT, target) if target >= v2 else None
    floor1 = max(v1 - shift, 0)
    if kind2 == EXACT:
        return (EXACT, v2) if v2 >= floor1 else None
    return (TOP, max(floor1, v2))


def _range_meets(local, range_) -> bool:
    """Whether a right-hand term's range class (kind2, t2) at one place meets
    a left-hand local class (kind1, v1); see `convolve`."""
    kind1, v1 = local
    kind2, t2 = range_
    if kind1 == EXACT:
        return t2 == v1 if kind2 == EXACT else t2 <= v1
    return kind2 == TOP or t2 >= v1


def convolve(f1: AlgebraElement, f2: AlgebraElement) -> AlgebraElement:
    """Groupoid convolution by counting composable factorizations.

    A pair of orbit classes composes one coset of middle arrows at a time;
    the contribution lands on the orbit of the composite and equals the
    product of the coefficients.

    The right-hand terms are indexed by their range classes.  At place i a
    right-hand key with exponent s and local class (kind2, v2) has the
    range class (kind2, t2) with t2 = s + v2, and it meets the left-hand
    local class (kind1, v1) exactly when

        ======  ======  ========
        kind1   kind2   rule
        ======  ======  ========
        EXACT   EXACT   t2 == v1
        EXACT   TOP     t2 <= v1
        TOP     EXACT   t2 >= v1
        TOP     TOP     always
        ======  ======  ========

    which is `_intersect_local(...) is not None` because keys keep every
    v >= 0.  The right-hand terms that meet each distinct left-hand
    ``locals`` are listed once, in f2 order, so the output keys are
    inserted in the order of the plain all-pairs loop.  With each of them
    go the composite local classes, which depend only on that ``locals``
    and the right-hand key, and the coset table of their exact mask.

    Composite keys are built directly, because `make_key` would return
    them unchanged when both factors are canonical keys:

    * the exponent sum is zero at the modulus-only places, as both
      summands are, so padding it changes nothing;
    * a TOP class arises only from two TOP classes, and its floor
      max(v1 - e2, 0, v2) is already >= -(e1 + e2), because k1 is
      normalized (v1 >= -e1); an EXACT class keeps v >= -(e1 + e2) by the
      same bound;
    * each coset is taken from the coset table of the composite's own
      mask, so it is already saturated.

    Saturation and validity are still checked inline: the coset sizes
    must add up to the meet, and every composite class must have v >= 0
    and v >= -e.
    """
    if f1.params is not f2.params:
        raise ValueError("elements live over different parameters")
    params = f1.params
    mult = params.shimura.mult
    right = []
    groups: Dict[Tuple, List[int]] = {}
    for j, (k2, c2) in enumerate(f2.terms.items()):
        right.append((k2, c2, params.class_of_exponents(k2.exponents), set(k2.wcoset)))
        ranges = tuple((kind, s + v) for (kind, v), s in zip(k2.locals, k2.exponents))
        groups.setdefault(ranges, []).append(j)
    partners: Dict[Tuple, List[Tuple]] = {}
    out: Dict[OrbitKey, Coefficient] = {}
    for k1, c1 in f1.terms.items():
        hits = partners.get(k1.locals)
        if hits is None:
            hits = []
            for j in sorted(
                j for ranges, members in groups.items()
                if all(map(_range_meets, k1.locals, ranges))
                for j in members
            ):
                k2 = right[j][0]
                locals_out = tuple(map(_intersect_local, k1.locals, k2.locals, k2.exponents))
                floors = tuple(v for _, v in locals_out)
                table = params._coset_table(_exact_mask(locals_out))
                hits.append(right[j] + (locals_out, floors, table))
            partners[k1.locals] = hits
        shifted: Dict[str, set] = {}
        for k2, c2, shift_cls, target, locals_out, floors, table in hits:
            moved = shifted.get(shift_cls)
            if moved is None:
                moved = shifted[shift_cls] = {mult(w, shift_cls) for w in k1.wcoset}
            meet = moved & target
            if not meet:
                continue
            cosets = sorted({table[w] for w in meet})
            if sum(map(len, cosets)) != len(meet):
                raise AssertionError("coset is not saturated under the stabilizer")
            exponents = tuple(map(operator.add, k1.exponents, k2.exponents))
            if min(floors) < 0 or min(map(operator.add, exponents, floors)) < 0:
                raise AssertionError("composite key lost validity")
            product = c1 * c2
            for coset in cosets:
                key = OrbitKey(exponents, locals_out, coset)
                prev = out.get(key)
                out[key] = product if prev is None else prev + product
    return AlgebraElement(params, out)


def involution(f: AlgebraElement) -> AlgebraElement:
    """Adjoint: conjugate values on inverse arrows."""
    params = f.params
    out: Dict[OrbitKey, Coefficient] = {}
    for key, coeff in f.terms.items():
        exponents = tuple(-e for e in key.exponents)
        locals_ = tuple(
            (kind, v + e) for (kind, v), e in zip(key.locals, key.exponents)
        )
        cls = params.class_of_exponents(key.exponents)
        inv_cls = params.shimura.inverse(cls)
        coset = tuple(sorted(params.shimura.mult(w, inv_cls) for w in key.wcoset))
        new_key = make_key(params, exponents, locals_, coset)
        if new_key is None:
            raise AssertionError("involution produced an invalid key")
        out[new_key] = out.get(new_key, Coefficient.zero()) + coeff.conj()
    return AlgebraElement(params, out)


def idele_norm_exponents(params: FiniteLevelParams, exponents) -> Dict[int, int]:
    """Prime factorization of the idele norm of an exponent vector."""
    out: Dict[int, int] = {}
    for e, place in zip(exponents, params.places):
        if e:
            out[place.p] = out.get(place.p, 0) + place.degree * e
    return {p: k for p, k in out.items() if k}


def time_evolution(f: AlgebraElement, t) -> AlgebraElement:
    """Scale each orbit class by its idele norm raised to i*t, symbolically."""
    t = Fraction(t)
    if t == 0:
        return f
    params = f.params
    out = {}
    for key, coeff in f.terms.items():
        norm_exps = idele_norm_exponents(params, key.exponents)
        phase = tuple(sorted((p, k * t) for p, k in norm_exps.items()))
        out[key] = coeff.phase_shift(phase) if phase else coeff
    return AlgebraElement(params, out)


# -- States and symmetries -------------------------------------------------------------


def kms_state_value(f: AlgebraElement, label: str) -> Coefficient:
    """Evaluation at the unit arrow over (1, label); a KMS state at infinite
    inverse temperature."""
    params = f.params
    total = Coefficient.zero()
    for key, coeff in f.terms.items():
        if any(e != 0 for e in key.exponents):
            continue
        hit = True
        for kind, v in key.locals:
            if kind == EXACT and v != 0:
                hit = False
                break
            if kind == TOP and v > 0:
                hit = False
                break
        if hit and label in key.wcoset:
            total = total + coeff
    return total


def kms_state_labels(params: FiniteLevelParams) -> Tuple[str, ...]:
    return params.shimura.labels


def symmetry_action(f: AlgebraElement, unit_coords, exponents) -> AlgebraElement:
    """Push the class slot by the ray class of the idele (unit, exponents)."""
    params = f.params
    cls = symmetry_class(params, unit_coords, exponents)
    out = {}
    for key, coeff in f.terms.items():
        coset = tuple(sorted(params.shimura.mult(w, cls) for w in key.wcoset))
        out[OrbitKey(key.exponents, key.locals, coset)] = coeff
    return AlgebraElement(params, out)


def symmetry_class(params: FiniteLevelParams, unit_coords, exponents) -> str:
    cls = params.class_of_unit(unit_coords)
    return params.shimura.mult(cls, params.class_of_exponents(list(exponents)))


# -- Concrete arrows --------------------------------------------------------------------


class GroupoidArrow:
    """One arrow at the working modulus: unit part, exponents, source point."""

    __slots__ = ("params", "unit", "exponents", "rho", "w")

    def __init__(self, params: FiniteLevelParams, unit, exponents, rho, w: str):
        self.params = params
        self.unit = params.residues.reduce(unit)
        if not params.residues.is_unit(self.unit):
            raise ValueError("unit part is not invertible at the working modulus")
        self.exponents = params.place_exponents(exponents)
        self.rho = params.residues.reduce(rho)
        if w not in params.shimura.labels:
            raise ValueError("unknown ray class label %r" % (w,))
        self.w = w
        if not self.is_valid():
            raise ValueError("arrow divisibility fails at a negative exponent")
        for i, place in enumerate(params.places):
            kind, v = params.residue_valuation(self.rho, i) if place.m_valuation > 1 else (TOP, 0)
            known = params.residue_cap(i) - v
            if kind == EXACT and known < place.m_valuation:
                raise ValueError("rho / pi^%d at the place %r is known only modulo P^%d, coarser "
                                 "than the P^%d in m" % (v, place.coords, known, place.m_valuation))

    def is_valid(self) -> bool:
        for i, e in enumerate(self.exponents):
            if e >= 0:
                continue
            kind, v = self.params.residue_valuation(self.rho, i)
            if kind == EXACT and v < -e:
                return False
        return True

    def idele_norm(self) -> Fraction:
        total = Fraction(1)
        for e, place in zip(self.exponents, self.params.places):
            total *= Fraction(place.norm) ** e
        return total

    def valuation_pattern(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(
            self.params.residue_valuation(self.rho, i)
            for i in range(len(self.params.places))
        )

    def orbit_key(self) -> OrbitKey:
        """Canonical orbit class: transport rho to the anchored residue.

        The anchor is the product of place powers matching the valuation
        pattern, and one solve mod M gives rho = gamma0 * anchor, with gamma0
        a unit at every exact place.  The class reads the transporter only
        mod m, so it is patched to 1 at the TOP places in O/m: with E and T
        the products of P^(v_P(m)) over the exact and the TOP places P | m,
        x E + y T = 1 mod m gives the idempotent e = x E (0 mod E, 1 mod T)
        and gamma = gamma0 + e (1 - gamma0).  As m = E T up to a unit, e is
        unique mod m (CRT), so the key does not depend on the solutions
        picked.

        Everything but rho here depends on the valuation pattern alone, so
        it is cached per pattern on the parameters (see `_anchor_form`):
        the Hermite form the solve reduces against, whether E is 1, and e.
        Each call reduces rho against that form, which finds the same
        solutions as a fresh solve, so the argument above still holds.
        """
        params = self.params
        ring_mod = params.shimura.residues
        pattern = self.valuation_pattern()
        h, u, exact_is_one, e = params._anchor_form(pattern)
        q, r = hnf_reduce(h, self.rho)
        if any(r):
            raise AssertionError("anchored residue solve failed")
        if exact_is_one:
            gamma = ring_mod.one()
        else:
            gamma = ring_mod.reduce(u.act_on_row(q))
            if e is not None:
                one_minus_gamma = [a - b for a, b in zip(ring_mod.one(), gamma)]
                gamma = ring_mod.add(gamma, ring_mod.mul(e, one_minus_gamma))
        if not ring_mod.is_unit(gamma):
            raise AssertionError("anchor transporter is not a unit")
        gamma_cls = params.shimura.class_of(gamma)
        anchored_w = params.shimura.mult(self.w, gamma_cls)
        key = make_key(params, self.exponents, pattern, (anchored_w,))
        if key is None:
            raise AssertionError("concrete arrow produced an invalid key")
        return key

    def translated(self, gamma1, gamma2) -> "GroupoidArrow":
        """Apply the two-sided unit action (g1, g2): g goes to g1^-1 g g2,
        the source residue to g2 rho, and the class slot to w cls(g2)^-1."""
        params = self.params
        g1 = params.residues.reduce(gamma1)
        g2 = params.residues.reduce(gamma2)
        inv1 = params.residues.inverse(g1)
        unit = params.residues.mul(params.residues.mul(inv1, self.unit), g2)
        rho = params.residues.mul(g2, self.rho)
        cls2 = params.shimura.class_of(g2)
        w = params.shimura.mult(self.w, params.shimura.inverse(cls2))
        return GroupoidArrow(params, unit, self.exponents, rho, w)

    def __repr__(self):
        return "GroupoidArrow(unit=%r, exponents=%r, rho=%r, w=%s)" % (
            self.unit, self.exponents, self.rho, self.w,
        )


# -- Samplers -----------------------------------------------------------------------


def sample_unit_residue(params: FiniteLevelParams, rng) -> Tuple[int, ...]:
    h = params.residues.lattice.entries
    for _ in range(1000):
        coords = [rng.randrange(h[i][i]) for i in range(len(h))]
        reduced = params.residues.reduce(coords)
        if params.residues.is_unit(reduced):
            return reduced
    raise RuntimeError("failed to sample a unit residue")


def sample_arrow(params: FiniteLevelParams, rng, exponent_cap: Optional[int] = None) -> GroupoidArrow:
    cap = exponent_cap if exponent_cap is not None else params.cap
    for _ in range(200):
        exponents = []
        for place in params.places:
            if not place.in_window or rng.random() < 0.4:
                exponents.append(0)
            else:
                exponents.append(rng.randint(-cap, cap))
        rho_scale = params.residues.one()
        for i, place in enumerate(params.places):
            upper = params.residue_cap(i)
            v = min(rng.choice((0, 0, 1, upper)), upper)
            if v:
                rho_scale = params.residues.mul(rho_scale, params.residues.power(place.coords, v))
        unit = sample_unit_residue(params, rng)
        rho = params.residues.mul(sample_unit_residue(params, rng), rho_scale)
        w = rng.choice(params.shimura.labels)
        try:
            return GroupoidArrow(params, unit, exponents, rho, w)
        except ValueError:
            continue
    raise RuntimeError("failed to sample a valid arrow")


def sample_algebra_element(
    params: FiniteLevelParams,
    rng,
    terms: int = 3,
    exponent_cap: Optional[int] = None,
) -> AlgebraElement:
    """Random finitely supported element with small Gaussian rational values."""
    out: Dict[OrbitKey, Coefficient] = {}
    attempts = 0
    while len(out) < terms and attempts < 200:
        attempts += 1
        arrow = sample_arrow(params, rng, exponent_cap)
        key = arrow.orbit_key()
        re = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        im = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        if re == 0 and im == 0:
            re = Fraction(1)
        coeff = Coefficient.of(re, im)
        out[key] = out.get(key, Coefficient.zero()) + coeff
    return AlgebraElement(params, out)


# -- Partition function ----------------------------------------------------------------


def _ideal_norms_q(bound: int):
    return range(1, bound + 1)


def _ideal_norms_qi(bound: int):
    """Norms of nonzero ideals of Z[i], one per ideal, via quadrant reps."""
    amax = math.isqrt(bound)
    for a in range(1, amax + 1):
        yield a * a
        top = math.isqrt(bound - a * a)
        for b in range(1, top + 1):
            yield a * a + b * b


def _prime_ideal_norms(ring: RingData, bound: int) -> List[int]:
    out = []
    for p in _rational_primes(bound):
        f, g = _splitting_data(ring, p)
        norm = p ** f
        if norm <= bound:
            out.extend([norm] * g)
    return out


def _ideal_norms_sieve(ring: RingData, bound: int) -> List[int]:
    """Ideal counts by norm from the prime ideals, as a coefficient sieve."""
    counts = [0] * (bound + 1)
    counts[1] = 1
    for q in _prime_ideal_norms(ring, bound):
        for n in range(q, bound + 1, q):
            counts[n] += counts[n // q]
    return counts


@lru_cache(maxsize=None)
def catalan_constant() -> float:
    """Catalan's constant from 200,000 terms of its alternating series."""
    total = 0.0
    for k in reversed(range(200000)):
        term = 1.0 / (2 * k + 1) ** 2
        total += term if k % 2 == 0 else -term
    return total


def partition_reference(params: FiniteLevelParams, beta) -> Optional[float]:
    """Independent closed form values where one is known."""
    beta = Fraction(beta)
    if beta != 2:
        return None
    if params.ring.name == "Q":
        return math.pi ** 2 / 6
    if params.ring.name == "Q(i)":
        return (math.pi ** 2 / 6) * catalan_constant()
    return None


def partition_tail_bound(params: FiniteLevelParams, beta, bound: int) -> Optional[float]:
    """Provable bound on the mass of ideals with norm beyond the cutoff.

    Uses r(n) <= d(n)^(deg - 1) <= (2 sqrt(n))^(deg - 1), so the tail is
    at most 2^(deg-1) * integral of t^((deg-1)/2 - beta) from the cutoff,
    which converges only for beta above 1 + (deg - 1) / 2.
    """
    degree = params.ring.degree
    beta = float(beta)
    s = (degree - 1) / 2.0 - beta
    if s + 1 >= 0:
        return None
    return (2.0 ** (degree - 1)) * bound ** (s + 1) / (-(s + 1))


def partition_function(
    params: FiniteLevelParams,
    beta,
    bound: int,
) -> Dict[str, object]:
    """Truncated Dedekind zeta value by direct enumeration and Euler product.

    Enumeration is per ideal for Q (the integers) and for Q(i) (one
    quadrant representative per Gaussian ideal).  For the quartic field a
    multiplicative sieve over the prime ideal norms gives the count c_n of
    ideals of each norm n, and the float sum adds the term of n c_n times,
    norms in increasing order; there the two methods share the prime list,
    which is recorded in the report.  The float sum adds the terms in
    enumeration order and the Euler product multiplies its factors in
    prime order, so both floats depend on these orders alone.

    The exact rational sum is formed only for integer beta = k and norms
    up to 2000.  Every norm n <= bound divides L = lcm(1, ..., bound), the
    product of the largest powers p^e <= bound, so the sum is one Fraction
    over D = L^k: the numerator is the sum of c_n * (D // n^k) over the
    distinct norms n with c_n ideals each, and Fraction reduces it once.
    """
    beta_f = Fraction(beta)
    if beta_f <= 1:
        raise ValueError("the partition function requires beta > 1")
    if bound < 1:
        raise ValueError("the partition function requires bound >= 1")
    name = params.ring.name
    float_beta = float(beta_f)
    total = 0.0
    if name in ("Q", "Q(i)"):
        norms = list(_ideal_norms_q(bound) if name == "Q" else _ideal_norms_qi(bound))
        for n in norms:
            total += float(n) ** (-float_beta)
        counted = collections.Counter(norms).items()
        independent = True
    else:
        counts = _ideal_norms_sieve(params.ring, bound)
        counted = [(n, c) for n, c in enumerate(counts) if c]
        for n, c in counted:
            term = float(n) ** (-float_beta)
            for _ in range(c):
                total += term
        independent = False
    exact = None
    if bound <= 2000 and beta_f.denominator == 1:
        k = int(beta_f)
        lcm = 1
        for p in _rational_primes(bound):
            power = p
            while power * p <= bound:
                power *= p
            lcm *= power
        den = lcm ** k
        exact = Fraction(sum(c * (den // n ** k) for n, c in counted), den)
    euler = 1.0
    for q in _prime_ideal_norms(params.ring, bound):
        euler *= 1.0 / (1.0 - float(q) ** (-float_beta))
    return {
        "exact": exact,
        "float": total,
        "euler": euler,
        "tail_bound": partition_tail_bound(params, beta_f, bound),
        "reference": partition_reference(params, beta_f),
        "ideal_count": sum(c for _, c in counted),
        "methods_independent": independent,
    }
