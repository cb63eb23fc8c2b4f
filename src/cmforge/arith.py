"""Realization of finite groupoid arrows inside the similitude picture.

This module connects the finite level models of :mod:`cmforge.bc` with the
symplectic machinery of :mod:`cmforge.symplectic`.  A :class:`CMContext`
fixes a CM point whose rational symplectic space carries the standard
alternating form on integer coordinates; arrows of the finite groupoid are
then realized as triples

* an adelic similitude obtained by realizing the unit lift times the
  prime powers of the arrow,
* a multiplication matrix for the monoid coordinate, meaningful modulo
  the ideal lattice of the working modulus,
* a level class together with the point of the upper half plane obtained
  by splitting the realized level idele into a rational part and an
  integral part.

Evaluating a modular oracle at that half plane point yields arithmetic
elements: functions on arrows supported on the unit part of the monoid
whose values at the degenerate states are algebraic numbers.

Precision convention.  A residue modulo the working modulus M only pins
its realization matrix down to the ideal lattice L of M, so every check
that compares realized matrices does it column by column against that
lattice, prime by prime: in integers, a column lies in L at p when it
reduces to zero against the Hermite form of L + p^a·O, p^a the p-part of
[O:L].  Exact equality is reserved for data the finite model stores
exactly (labels, exponents, reduced residues, half plane points).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bc import FiniteLevelParams, GroupoidArrow, sample_arrow
from .cyclotomic import CyclotomicElement
from .galois import FieldHandle, cyclotomic_scenario
from .lattice import IntMatrix, hermite_normal_form, hnf_reduce, int_matmul, vstack
from .modular import (
    HalfPlanePoint,
    ModularOracle,
    OracleValue,
    constant_oracle,
    half_plane_point,
    j_oracle,
    mobius_transform,
    reduce_point,
)
from .symplectic import (
    AdelicGSp,
    GSpElement,
    SymplecticSpace,
    build_cm_point,
    decompose_gsp,
    phi_morphism,
    sample_adelic_gsp,
    standard_j,
)

__all__ = [
    "CMContext",
    "ShimuraArrow",
    "ThetaData",
    "ArithmeticElement",
    "cm_context",
    "omega_map",
    "translate_shimura",
    "shimura_arrows_congruent",
    "level_idele",
    "shimura_base_point",
    "theta_map",
    "adjoint_equivalent",
    "arithmetic_element",
    "support_check",
    "gamma_invariance_check",
    "property_v_vi_report",
    "negative_similitude_witness",
    "criterion_check",
]


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------


# purely imaginary generator, by conductor, whose trace pairing is already the
# standard J on the integral basis, so no rescaling step is needed
_STANDARD_GENERATORS = {
    4: (0, Fraction(1, 2)),  # i/2
}


class CMContext:
    """A CM point together with the finite level data it realizes.

    The symplectic space must carry the standard alternating form on the
    integer coordinate lattice and the summand basis must be the power basis
    zeta^k in which the finite model writes its ring elements, so that
    realization matrices and residue arithmetic speak about the same
    coordinates.  This is the one place where field elements of
    :mod:`cmforge.cyclotomic` meet those coordinates.
    """

    __slots__ = (
        "params",
        "field",
        "point",
        "phi",
        "space",
        "x_cm",
        "prime_support",
        "_conjugations",
        "_realize_cache",
        "_local_forms",
        "_level_cache",
        "_section_cache",
    )

    def __init__(self, params: FiniteLevelParams, field: FieldHandle, point, phi):
        self.params = params
        self.field = field
        self.point = point
        self.phi = phi
        self.space = point.space
        if self.space.genus != 1:
            raise ValueError(
                "half plane realization is only wired for genus one spaces"
            )
        if self.space.gram != standard_j(self.space.genus):
            raise ValueError("the symplectic space does not carry the standard form")
        summand = self.space.summands[0]
        ring = params.ring
        powers = tuple(CyclotomicElement.zeta(ring.cyclo_n, k) for k in range(ring.degree))
        if tuple(summand.basis) != powers:
            raise ValueError(
                "residue ring basis does not match the symplectic coordinates"
            )
        self.x_cm = half_plane_point(0, 1)
        self.prime_support = tuple(sorted({pl.p for pl in params.places}))
        # phi's values pull back to the summand field as the value at the
        # embedding coset holding the identity, so the realized element is
        # prod sigma_j(x)^e, one exponent e per source embedding j, read
        # off that column of phi's character map
        scenario = phi.source.scenario
        order = scenario.elements.index
        column = next(
            k for k, coset in enumerate(summand.field.embeddings)
            if scenario.identity in coset
        )
        conjugations = []
        for i, coset in enumerate(phi.source.basis_labels):
            e = phi.char_map[i, column]
            if e < 0:
                raise ValueError("the reflex norm character has a negative exponent")
            if e:
                j = int(min(coset, key=order))
                rows = tuple(tuple(map(int, b.galois(j).coeffs)) for b in summand.basis)
                conjugations.append((rows, e))
        self._conjugations = tuple(conjugations)
        self._realize_cache: Dict[Tuple[int, ...], GSpElement] = {}
        self._local_forms: Dict[int, IntMatrix] = {}
        self._level_cache: Dict[Tuple[int, ...], Tuple] = {}
        self._section_cache: Dict[str, Tuple[int, ...]] = {}

    def realize(self, coords) -> GSpElement:
        """Similitude of multiplication by the reflex norm of a nonzero x in O.

        The realization is the reflex-norm character read off ``phi``:
        N(x) = prod sigma_j(x)^e over the conjugations and exponents fixed
        at construction, computed in integer O-coordinates, each conjugate
        by its integer matrix and each product through ``times_rows``.  The
        summand basis is the ring basis, so the matrix acting on columns is
        coord_rows(N(x)) transposed.  ``coords`` are the O-coordinates of x:
        a reduced residue is realized through its canonical lift, a place
        through its generator.  Zero raises ValueError from the similitude
        check.
        """
        key = tuple(coords)
        got = self._realize_cache.get(key)
        if got is None:
            ring = self.params.ring
            value = (1,) + (0,) * (ring.degree - 1)
            for rows, e in self._conjugations:
                factor = ring.coord_rows(ring.times_rows(key, rows))
                for _ in range(e):
                    value = ring.times_rows(value, factor)
            got = GSpElement(self.space, tuple(zip(*ring.coord_rows(value))))
            self._realize_cache[key] = got
        return got

    def monoid_matrix(self, rho_coords) -> Tuple[Tuple[int, ...], ...]:
        """Multiplication matrix of the monoid lift, columns reduced mod M.

        The matrix acts on column vectors, so column j is the coordinate
        image of the j-th basis element: the transpose of the lift's
        multiplication rows, as the summand basis is the ring basis.
        Changing the lift by a multiple of the modulus moves every column
        inside the ideal lattice of the working modulus, and reducing the
        columns gives a canonical form.
        """
        residues = self.params.residues
        rows = self.params.ring.coord_rows(residues.reduce(rho_coords))
        return tuple(zip(*(residues.reduce(row) for row in rows)))

    def _local_form(self, p: int) -> IntMatrix:
        """Hermite form of L + p^a·O, L the ideal lattice of M, p^a || [O:L].

        The p-part of O/L has exponent dividing p^a, so p^a·O lies in L at
        p, and p^a is a unit at every other prime: the sum equals L at p
        and O elsewhere.  An integer vector is in L at p exactly when it is
        in this lattice.
        """
        form = self._local_forms.get(p)
        if form is None:
            lattice = self.params.residues.lattice
            index, a = abs(lattice.determinant()), 0
            while index % p == 0:
                index //= p
                a += 1
            h, _ = hermite_normal_form(vstack(lattice, IntMatrix.identity(lattice.cols) * p**a))
            form = IntMatrix([row for row in h.entries if any(row)])
            self._local_forms[p] = form
        return form

    def columns_congruent_at(self, m1, m2, p: int) -> bool:
        """Column lattice congruence of two matrices at one prime.

        Each matrix is a pair (rows, den) of integer rows over a positive
        denominator.  The matrices agree at the stored precision exactly
        when every column of their difference lies in the ideal lattice L
        of the working modulus at p.  A column of the difference is v/den
        with v an integer vector and den = den1·den2; the p-part p^s of den
        must divide v, and v/p^s must reduce to zero against the Hermite
        form of L + p^a·O (`_local_form`), as the rest of den is a unit at p.
        """
        (a, da), (b, db) = m1, m2
        form = self._local_form(p)
        den = da * db
        for j in range(form.cols):
            v = [x[j] * db - y[j] * da for x, y in zip(a, b)]
            s = den
            while s % p == 0:
                if any(x % p for x in v):
                    return False
                v = [x // p for x in v]
                s //= p
            if any(hnf_reduce(form, v)[1]):
                return False
        return True

    def matrices_congruent(self, m1, m2) -> bool:
        """Congruence at every stored prime of the context, on (rows, den) pairs."""
        return all(self.columns_congruent_at(m1, m2, p) for p in self.prime_support)


def cm_context(params: FiniteLevelParams) -> CMContext:
    """Build the realization context for the field of a parameter set.

    The field is Q(zeta_n) in `galois.cyclotomic_scenario(n)`, n the
    conductor of ``params.ring``.  Only fields with a genus one symplectic
    realization in standard form are supported; the generator is taken
    from the table of standard generators by conductor (i/2 for Q(i)).
    """
    n = params.ring.cyclo_n
    if n <= 2:
        raise ValueError("the rational field has no symplectic realization")
    if n not in _STANDARD_GENERATORS:
        raise ValueError("no standard generator is on file for conductor %d" % n)
    field = cyclotomic_scenario(n).named("Q(zeta_%d)" % n)
    generator = CyclotomicElement(n, _STANDARD_GENERATORS[n])
    point = build_cm_point(field, generators=[generator])
    phi = phi_morphism(field, point)
    return CMContext(params, field, point, phi)


# ---------------------------------------------------------------------------
# The groupoid realization
# ---------------------------------------------------------------------------


class ShimuraArrow:
    """Finite level arrow of the realized groupoid.

    Stores the realized unit part and the exponent vector separately so
    that two arrows can be compared at the precision the finite model
    actually carries: the unit realizations modulo the ideal lattice of
    the working modulus and the exponents on the nose.
    """

    __slots__ = ("context", "unit_part", "exponents", "monoid", "rho", "level")

    def __init__(self, context, unit_part, exponents, monoid, rho, level):
        self.context = context
        self.unit_part = unit_part
        self.exponents = tuple(int(e) for e in exponents)
        self.monoid = monoid
        self.rho = tuple(rho)
        self.level = level

    def group_part(self) -> AdelicGSp:
        """Assemble the adelic similitude of the arrow.

        The local component at a rational prime p multiplies the unit
        realization by the realized powers of all stored primes above p;
        the tail is the principal embedding of the unit lift.
        """
        ctx = self.context
        local = {}
        for p in ctx.prime_support:
            g = self.unit_part
            for place, e in zip(ctx.params.places, self.exponents):
                if place.p == p and e:
                    pi = ctx.realize(place.coords)
                    power = pi if e > 0 else pi.inverse()
                    for _ in range(abs(e)):
                        g = g * power
            local[p] = g
        return AdelicGSp(ctx.space, local, tail=self.unit_part)

    def __repr__(self):
        return "ShimuraArrow(exponents=%r, level=%r)" % (self.exponents, self.level)


def omega_map(context: CMContext, arrow: GroupoidArrow) -> ShimuraArrow:
    """Realize a finite groupoid arrow on the symplectic side."""
    if arrow.params is not context.params:
        raise ValueError("arrow belongs to a different parameter set")
    unit = context.realize(arrow.unit)
    monoid = context.monoid_matrix(arrow.rho)
    return ShimuraArrow(context, unit, arrow.exponents, monoid, arrow.rho, arrow.w)


def translate_shimura(sh: ShimuraArrow, gamma1_coords, gamma2_coords) -> ShimuraArrow:
    """Push the two sided unit translation through the realization.

    The unit part picks up realized factors on both sides, the monoid is
    multiplied on the left, and the level class moves by the inverse
    class of the right translate.  Composing with :func:`omega_map` after
    translating the arrow must land in the same congruence class.
    """
    ctx = sh.context
    params = ctx.params
    g1 = ctx.realize(params.residues.reduce(gamma1_coords))
    g2 = ctx.realize(params.residues.reduce(gamma2_coords))
    unit = g1.inverse() * sh.unit_part * g2
    rho = params.residues.mul(gamma2_coords, sh.rho)
    # g2 times the old monoid, columns reduced mod M, is the monoid of g2 rho
    monoid = ctx.monoid_matrix(rho)
    shift = params.class_of_unit(gamma2_coords)
    level = params.shimura.mult(sh.level, params.shimura.inverse(shift))
    return ShimuraArrow(ctx, unit, sh.exponents, monoid, rho, level)


def shimura_arrows_congruent(a: ShimuraArrow, b: ShimuraArrow) -> bool:
    """Equality at stored precision of two realized arrows."""
    if a.context is not b.context:
        return False
    if a.exponents != b.exponents or a.level != b.level:
        return False
    if a.rho != b.rho:
        return False
    ctx = a.context
    ua, ub = a.unit_part, b.unit_part
    if not ctx.matrices_congruent((ua.num, ua.den), (ub.num, ub.den)):
        return False
    return ctx.matrices_congruent((a.monoid, 1), (b.monoid, 1))


# ---------------------------------------------------------------------------
# Level ideles and the half plane point of a class
# ---------------------------------------------------------------------------


def level_unit_of(context: CMContext, label: str):
    """Canonical working modulus unit residue representing a level class.

    The class representative modulo m need not stay invertible modulo
    the working modulus, so the section is chosen as the first unit in
    enumeration order whose class matches; the choice is deterministic
    and cached on the context.  The enumeration runs over the residues of
    O modulo the working modulus M and refuses, with a ValueError, when
    O/M has more than `bc.ENUMERATION_LIMIT` (20,000) of them; M grows
    with the prime window, so this bounds the windows a realization can
    use.
    """
    params = context.params
    section = context._section_cache
    if not section:
        for coords in params.residues.enumerate():
            if not params.residues.is_unit(coords):
                continue
            got = params.class_of_unit(coords)
            if got not in section:
                section[got] = coords
                if len(section) == len(params.shimura.labels):
                    break
    if label not in section:
        raise ValueError("no unit representative found for class %r" % label)
    return section[label]


def level_idele(context: CMContext, unit_coords) -> AdelicGSp:
    """Unit idele realizing a level representative at the modulus primes.

    The representative is a unit residue modulo the working modulus; its
    canonical lift is realized at every rational prime under the modulus
    and the tail stays trivial, which is exactly the support the level
    structure can see.
    """
    params = context.params
    coords = params.residues.reduce(unit_coords)
    if not params.residues.is_unit(coords):
        raise ValueError("level representative is not a unit residue")
    support = sorted(
        {pl.p for pl in params.places if pl.m_valuation > 0}
    )
    local = {p: context.realize(coords) for p in support}
    return AdelicGSp(context.space, local)


def shimura_base_point(context: CMContext, idele: AdelicGSp):
    """Split a level idele and move the CM point by the rational part.

    Returns (alpha, beta, z) where alpha is rational with positive
    multiplier, beta is integral with unit similitude everywhere, the
    product recovers the idele, and z is the image of the CM point under
    the inverse of alpha.
    """
    alpha, beta = decompose_gsp(idele)
    z = mobius_transform(alpha.inverse().matrix, context.x_cm)
    return alpha, beta, z


class ThetaData:
    """Image of an arrow under the realization into the moduli groupoid."""

    __slots__ = ("context", "group", "alpha", "beta", "monoid", "rho", "z", "level")

    def __init__(self, context, group, alpha, beta, monoid, rho, z, level):
        self.context = context
        self.group = group
        self.alpha = alpha
        self.beta = beta
        self.monoid = monoid
        self.rho = tuple(rho)
        self.z = z
        self.level = level

    def monoid_matrix_at(self, p: int):
        """The realized monoid coordinate at one prime, beta times rho.

        Returned as a pair (rows, den) of integer rows over beta's
        denominator at p.
        """
        beta = self.beta.local_at(p)
        return int_matmul(beta.num, self.monoid), beta.den

    def __repr__(self):
        return "ThetaData(z=%s + %s i, level=%r)" % (self.z.x, self.z.y, self.level)


def theta_map(
    context: CMContext,
    arrow: GroupoidArrow,
    *,
    decomposition_twist: Optional[GSpElement] = None,
) -> ThetaData:
    """Carry an arrow to the moduli side through the level decomposition.

    The level idele of the arrow is realized from the canonical unit
    residue of its class (`level_unit_of`) and splits as alpha times
    beta; the group part of the image is the realized arrow times the
    inverse of beta, the monoid part is beta times the multiplication
    matrix, and the base point is the CM point moved by the inverse of
    alpha.  A decomposition twist by an integral element of positive
    multiplier replaces (alpha, beta) with (alpha delta, delta^{-1} beta)
    and leaves the adjoint class unchanged.

    The per-level data, (alpha, beta), beta's inverse at its stored primes
    and at the tail, and the base point z, depend only on the level unit
    and are cached on the context under it.  A twisted call recomputes
    all of it from the twisted pair and never writes to that cache.
    """
    sh = omega_map(context, arrow)
    level_unit = level_unit_of(context, arrow.w)
    data = context._level_cache.get(level_unit)
    if data is None:
        data = _level_data(context, *decompose_gsp(level_idele(context, level_unit)))
        context._level_cache[level_unit] = data
    if decomposition_twist is not None:
        delta = decomposition_twist
        if delta.similitude <= 0:
            raise ValueError("decomposition twist needs a positive multiplier")
        beta = data[1].scale_left(delta.inverse())
        if not beta.is_everywhere_integral():
            raise ValueError("decomposition twist leaves the integral part")
        data = _level_data(context, data[0] * delta, beta)
    alpha, beta, beta_inv, z = data
    group = sh.group_part()
    support = sorted(set(group.support) | set(beta.support))
    local = {p: group.local_at(p) * beta_inv.local_at(p) for p in support}
    moved = AdelicGSp(context.space, local, tail=group.tail * beta_inv.tail)
    return ThetaData(context, moved, alpha, beta, sh.monoid, sh.rho, z, arrow.w)


def _level_data(context: CMContext, alpha: GSpElement, beta: AdelicGSp):
    """(alpha, beta, beta inverse, base point) of one level decomposition."""
    beta_inv = AdelicGSp(
        context.space,
        {p: g.inverse() for p, g in beta.local.items()},
        tail=beta.tail.inverse(),
    )
    z = mobius_transform(alpha.inverse().matrix, context.x_cm)
    return alpha, beta, beta_inv, z


def _half_plane_stabilizer(z: HalfPlanePoint):
    """Integral determinant one stabilizer candidates of a reduced point.

    Rational points of the fundamental domain have trivial stabilizer up
    to sign except the corner i, whose extra symmetry is the quarter
    rotation.  The elliptic points of order three have irrational
    coordinates, so they never arise from rational data.
    """
    mats = [((1, 0), (0, 1)), ((-1, 0), (0, -1))]
    if z == (Fraction(0), Fraction(1)):
        mats += [((0, -1), (1, 0)), ((0, 1), (-1, 0))]
    return mats


def adjoint_equivalent(t1: ThetaData, t2: ThetaData) -> bool:
    """Whether two realized images lie in the same adjoint orbit.

    Searches for a witness pair of integral translations: the right one
    is pinned by transporting the base points inside the fundamental
    domain, the left one is solved from the group parts and checked for
    integrality everywhere.  The monoid coordinates must then agree at
    stored precision under the same right translation.
    """
    if t1.context is not t2.context:
        return False
    ctx = t1.context
    z1, g1 = reduce_point(t1.z)
    z2, g2 = reduce_point(t2.z)
    if z1 != z2:
        return False
    # g2 has determinant one, so its adjugate is its inverse
    (a, b), (c, d) = g2
    g2_inv = ((d, -b), (-c, a))
    for sigma in _half_plane_stabilizer(z1):
        cand = int_matmul(g2_inv, int_matmul(sigma, g1))
        try:
            gamma2 = GSpElement(ctx.space, cand)
        except ValueError:
            continue
        if gamma2.similitude != 1:
            continue
        # monoid: beta2 rho2 must match gamma2 beta1 rho1 mod M
        ok = True
        for p in ctx.prime_support:
            rows, den = t1.monoid_matrix_at(p)
            rhs = int_matmul(gamma2.num, rows), gamma2.den * den
            if not ctx.columns_congruent_at(t2.monoid_matrix_at(p), rhs, p):
                ok = False
                break
        if not ok:
            continue
        # group: gamma1 = A2 gamma2 A1^{-1} must be integral with unit
        # similitude at every prime, tail included
        support = sorted(set(t1.group.support) | set(t2.group.support))
        try:
            local = {
                p: t2.group.local_at(p) * gamma2 * t1.group.local_at(p).inverse()
                for p in support
            }
            tail = t2.group.tail * gamma2 * t1.group.tail.inverse()
            gamma1 = AdelicGSp(ctx.space, local, tail=tail)
        except ValueError:
            continue
        if gamma1.is_everywhere_integral():
            return True
    return False


# ---------------------------------------------------------------------------
# Arithmetic elements
# ---------------------------------------------------------------------------


class ArithmeticElement:
    """Oracle valued function on arrows supported on the unit monoid part.

    On the support the value is the oracle at the base point of the
    arrow's image, optionally after a fixed rational translate of the
    half plane used for calibration.
    """

    __slots__ = ("context", "oracle", "twist")

    def __init__(self, context: CMContext, oracle: ModularOracle, twist=None):
        self.context = context
        self.oracle = oracle
        if twist is not None:
            twist = tuple(tuple(Fraction(x) for x in row) for row in twist)
            det = twist[0][0] * twist[1][1] - twist[0][1] * twist[1][0]
            if det <= 0:
                raise ValueError("calibration twist must have positive determinant")
        self.twist = twist

    def value(self, arrow: GroupoidArrow) -> OracleValue:
        params = self.context.params
        if arrow.params is not params:
            raise ValueError("arrow belongs to a different parameter set")
        # the support is read off rho, which theta_map passes through unchanged
        if not params.residues.is_unit(arrow.rho):
            return OracleValue(0j, 0.0)
        z = theta_map(self.context, arrow).z
        if self.twist is not None:
            z = mobius_transform(self.twist, z)
        try:
            return self.oracle(z)
        except ValueError as exc:
            raise ValueError(
                "oracle %s is undefined at the translate %s + %s i"
                % (self.oracle.name, z.x, z.y)
            ) from exc

    def state_value(self, label: str) -> OracleValue:
        """Value at the degenerate state of one level class."""
        params = self.context.params
        arrow = GroupoidArrow(
            params,
            unit=params.residues.one(),
            exponents=(0,) * len(params.places),
            rho=params.residues.one(),
            w=label,
        )
        return self.value(arrow)


def arithmetic_element(context, oracle) -> ArithmeticElement:
    return ArithmeticElement(context, oracle)


def support_check(element: ArithmeticElement, rng, samples: int = 30) -> dict:
    """Sampled containment of the support in the unit monoid part.

    This check cannot fail at today's inputs: it calls an arrow off the
    support by the same `is_unit` predicate on which
    `ArithmeticElement.value` returns 0, so it holds for every oracle and
    ``off_support`` counts only what the sampler drew.  An independent
    description of the support would make it able to fail (ROADMAP item 15).
    """
    params = element.context.params
    tested = 0
    off_support = 0
    for _ in range(samples):
        arrow = sample_arrow(params, rng)
        value = element.value(arrow)
        unit = params.residues.is_unit(arrow.rho)
        if not unit:
            off_support += 1
            if value.value != 0:
                return {"holds": False, "samples": tested, "witness": repr(arrow)}
        tested += 1
    return {"holds": True, "samples": tested, "off_support": off_support}


def gamma_invariance_check(element: ArithmeticElement, rng, samples: int = 30) -> dict:
    """Exact invariance of values under two sided unit translations."""
    params = element.context.params
    from .bc import sample_unit_residue

    for k in range(samples):
        arrow = sample_arrow(params, rng)
        g1 = sample_unit_residue(params, rng)
        g2 = sample_unit_residue(params, rng)
        moved = arrow.translated(g1, g2)
        v1 = element.value(arrow)
        v2 = element.value(moved)
        if v1.value != v2.value:
            return {
                "holds": False,
                "samples": k,
                "witness": repr((arrow, g1, g2)),
                "values": (v1.value, v2.value),
            }
    return {"holds": True, "samples": samples}


# ---------------------------------------------------------------------------
# The rationality report
# ---------------------------------------------------------------------------


def _nearest_integer(value: complex) -> Optional[int]:
    real = value.real
    rounded = round(real)
    if abs(value.imag) < 1e-6 and abs(real - rounded) < 1e-6:
        return int(rounded)
    return None


def property_v_vi_report(context: CMContext, oracle=None) -> dict:
    """Evaluate an oracle at every degenerate state and test rationality.

    The report lists the value at each state, checks that all the states
    agree, that the symmetry group permutes the states without moving
    the common value, and calibrates the pipeline with a translated
    oracle and a constant one.
    """
    if oracle is None:
        oracle = j_oracle()
    params = context.params
    element = ArithmeticElement(context, oracle)
    labels = params.shimura.labels
    rows: List[dict] = []
    values = {}
    for label in labels:
        got = element.state_value(label)
        values[label] = got
        rows.append(
            {
                "state": label,
                "value": got.value.real,
                "imag": got.value.imag,
                "error": got.error,
                "nearest_integer": _nearest_integer(got.value),
            }
        )
    base = values[labels[0]]
    agree = all(
        abs(values[l].value - base.value) <= values[l].error + base.error
        for l in labels
    )
    integral = all(row["nearest_integer"] is not None for row in rows)
    common = rows[0]["nearest_integer"] if integral and agree else None
    symmetry_rows = []
    symmetries_fix = True
    for label in labels:
        rep = params.shimura.representatives[label]
        moved = {
            l: params.shimura.mult(l, params.shimura.inverse(params.class_of_unit(rep)))
            for l in labels
        }
        fixed = all(values[moved[l]].value == values[l].value for l in labels)
        symmetries_fix = symmetries_fix and fixed
        symmetry_rows.append({"symmetry": label, "fixes_values": fixed})
    calibration = ArithmeticElement(context, oracle, twist=((1, 0), (0, 2)))
    cal = calibration.state_value(labels[0])
    const = ArithmeticElement(context, constant_oracle(1))
    const_vals = [const.state_value(l).value for l in labels]
    return {
        "states": rows,
        "values_agree": agree,
        "algebraic": integral,
        "common_value": common,
        "symmetries": symmetry_rows,
        "symmetries_fix_values": symmetries_fix,
        "calibration": {
            "twist": "diag(1,2)",
            "value": cal.value.real,
            "error": cal.error,
            "nearest_integer": _nearest_integer(cal.value),
        },
        "constant_oracle": {
            "values": [v.real for v in const_vals],
            "all_one": all(v == 1 for v in const_vals),
        },
    }


# ---------------------------------------------------------------------------
# The two part criterion
# ---------------------------------------------------------------------------


def negative_similitude_witness(space: SymplecticSpace) -> GSpElement:
    """Integral element of multiplier minus one for the standard form.

    Negating the second half of a symplectic basis flips the sign of
    every pairing block, so the diagonal sign matrix works whenever the
    gram matrix is the standard one.
    """
    g = space.genus
    diag = [1] * g + [-1] * g
    rows = [
        [diag[i] if i == j else 0 for j in range(space.dim)]
        for i in range(space.dim)
    ]
    witness = GSpElement(space, rows)
    if witness.similitude >= 0:
        raise AssertionError("sign witness came out with a positive multiplier")
    return witness


def criterion_check(
    space: SymplecticSpace,
    *,
    gamma: str = "full",
    rng=None,
) -> dict:
    """Test the two conditions for the realized groupoid to be full.

    With the full integral level group the first condition asks for an
    integral element of negative multiplier and the second for every
    adelic similitude to split as a rational part times an integral one;
    the splitting is sampled 20 times, at the primes 2, 3 and 5 with
    valuations up to 2.  The trivial level group is a negative
    control: splitting would force every sample to be rational on the
    nose, and the first non rational sample is the counterexample.
    """
    if gamma not in ("full", "trivial"):
        raise ValueError("gamma must be 'full' or 'trivial'")
    if rng is None:
        raise ValueError("an explicit random source is required")
    if space.gram != standard_j(space.genus):
        raise ValueError("criterion check expects the standard form")

    if gamma == "full":
        try:
            witness = negative_similitude_witness(space)
            condition_one = {
                "holds": True,
                "witness_multiplier": str(witness.similitude),
                "witness_integral": witness.den == 1,
            }
        except (ValueError, AssertionError) as exc:
            condition_one = {"holds": False, "reason": str(exc)}
    else:
        condition_one = {
            "holds": False,
            "reason": "the trivial group meets the rational points in the identity only",
        }

    samples = 20
    failures = 0
    counterexample = None
    for k in range(samples):
        f = sample_adelic_gsp(space, (2, 3, 5), rng, max_val=2)
        try:
            q, g = decompose_gsp(f)
        except (ValueError, AssertionError) as exc:
            failures += 1
            counterexample = {"sample": k, "reason": str(exc)}
            break
        if gamma == "trivial":
            identity = GSpElement.identity(space)
            off = [p for p in g.support if g.local_at(p) != identity]
            if off or g.tail != identity:
                failures += 1
                counterexample = {
                    "sample": k,
                    "reason": "integral part is not the identity at %s"
                    % (off or ["tail"]),
                }
                break
    condition_two = {
        "holds": failures == 0,
        "samples": samples if failures == 0 else counterexample["sample"] + 1,
        "counterexample": counterexample,
    }
    return {
        "dimension": space.dim,
        "gamma": gamma,
        "condition_one": condition_one,
        "condition_two": condition_two,
        "verdict": condition_one["holds"] and condition_two["holds"],
    }
