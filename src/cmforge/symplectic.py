"""Symplectic realization of CM data and similitude-group arithmetic.

This module turns the character-lattice constructions of :mod:`cmforge.cm`
into concrete matrices.  A CM field realized inside a cyclotomic field gets
a rational symplectic space built from trace forms, the similitude group of
that space receives exact rational elements, and the two morphisms into it
attached to a CM point (the universal-quotient composite and the explicit
norm composite) can be compared entry by entry.  The last block of the file
decomposes finite-adelic similitude elements into a rational part times an
everywhere-integral part, which is what lets quotients by the integral
similitude group be computed by exact lattice arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cm import (
    _embedding_exponents,
    cyclotomic_level,
    enumerate_cm_types,
    induced_serre_morphism,
    is_primitive,
    mu_phi,
    norm_res_composite,
    realize_on_point,
    reflex_field,
    reflex_norm,
    rho_phi,
    serre_group,
)
from .cyclotomic import CyclotomicElement, multiplication_matrix
from .galois import FieldHandle, is_cm, maximal_totally_real_subfield
from .lattice import (
    IntMatrix,
    alternating_frobenius,
    common_denominator,
    frac_inv,
    frac_solve,
    hermite_normal_form,
    int_matmul,
    int_matrix_inverse,
    lattice_intersection,
    lattice_shell,
    prime_factors,
    solution_sublattice,
    vstack,
)
from .tori import (
    TorusMorphism,
    mu_tau,
    norm_morphism,
    torus_of_field,
)

# ---------------------------------------------------------------------------
# Cyclotomic realization plumbing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _galois_matrix(n: int, j: int) -> IntMatrix:
    """Matrix of the automorphism zeta -> zeta^j on power-basis coordinates."""
    d = len(CyclotomicElement.one(n).coeffs)
    cols = [CyclotomicElement.zeta(n, k).galois(j).coeffs for k in range(d)]
    return IntMatrix([[int(cols[j_][i]) for j_ in range(d)] for i in range(d)])


def fixed_integral_basis(field: FieldHandle):
    """Basis of (the field) ∩ Z[zeta_n] over the power-basis coordinates.

    The fixed sublattice of the subgroup action is saturated, so its rows
    are simultaneously a Z-basis of the subfield's integral elements and a
    Q-basis of the subfield itself.
    """
    n = cyclotomic_level(field.scenario)
    d = len(CyclotomicElement.one(n).coeffs)
    conditions = []
    for h in field.subgroup:
        j = int(h)
        if j % n != 1 % n:
            conditions.append(_galois_matrix(n, j) - IntMatrix.identity(d))
    rows = solution_sublattice(conditions, ambient_rank=d)
    if rows.rows != field.degree:
        raise AssertionError("fixed lattice rank does not match the field degree")
    return tuple(CyclotomicElement(n, row) for row in rows.entries)


def _stabilizer_exponents(x: CyclotomicElement, scenario):
    return {g for g in scenario.elements if x.galois(int(g)) == x}


def totally_imaginary_generator(field: FieldHandle):
    """A totally imaginary element generating the CM field over Q.

    Searches the differences zeta^a - zeta^{-a} first and then small
    integer combinations of them, ordered by coefficient height, so the
    result is deterministic.
    """
    ok, _ = is_cm(field)
    if not ok:
        raise ValueError("totally imaginary generators only exist for CM fields")
    n = cyclotomic_level(field.scenario)
    span = [a for a in range(1, n // 2 + (n % 2)) if (2 * a) % n != 0]

    def differences():
        for a in range(1, n):
            if (2 * a) % n:
                yield CyclotomicElement.zeta(n, a) - CyclotomicElement.zeta(n, n - a)
        for height in range(2, 4):
            for combo in lattice_shell(IntMatrix.identity(len(span)).entries, height):
                x = CyclotomicElement.zero(n)
                for c, a in zip(combo, span):
                    if c:
                        d = CyclotomicElement.zeta(n, a) - CyclotomicElement.zeta(n, n - a)
                        x = x + d * c
                yield x

    for xi in differences():
        if xi.is_zero():
            continue
        if _stabilizer_exponents(xi, field.scenario) != set(field.subgroup):
            continue
        if xi.conjugate() != -xi:
            raise AssertionError("generator must be totally imaginary")
        return xi
    raise ValueError("no totally imaginary generator of height below 4 found")


# ---------------------------------------------------------------------------
# Symplectic spaces from trace forms
# ---------------------------------------------------------------------------


class SymplecticSummand:
    """One CM-field factor of the symplectic space with its trace form data."""

    __slots__ = ("field", "xi", "basis")

    def __init__(self, field: FieldHandle, xi: CyclotomicElement, basis):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "basis", tuple(basis))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("SymplecticSummand is immutable")

    @property
    def degree(self):
        return len(self.basis)

    def __repr__(self):
        return f"SymplecticSummand({self.field.name or self.field.subgroup}, xi={self.xi!r})"


class SymplecticSpace:
    """Direct sum of CM fields with the alternating trace pairing.

    Vectors are rational coordinate tuples over the concatenated integral
    bases of the summands; the distinguished lattice is exactly the integer
    coordinate vectors.  The gram matrix G and its inverse are also kept as
    integer matrices over one denominator each, G = gram_num/gram_den and
    G⁻¹ = gram_inv_num/gram_inv_den, for the similitude arithmetic of
    :class:`GSpElement`; a degenerate gram matrix is rejected.
    """

    __slots__ = ("summands", "gram", "dim", "gram_num", "gram_den", "gram_inv_num",
                 "gram_inv_den", "_frame")

    def __init__(self, summands, gram):
        object.__setattr__(self, "summands", tuple(summands))
        object.__setattr__(self, "gram", tuple(tuple(Fraction(x) for x in row) for row in gram))
        object.__setattr__(self, "dim", sum(s.degree for s in self.summands))
        if len(self.gram) != self.dim:
            raise ValueError("gram matrix size does not match the total degree")
        for name, rows in (("gram", self.gram), ("gram_inv", frac_inv(self.gram))):
            den = common_denominator(rows)
            num = tuple(tuple(int(x * den) for x in row) for row in rows)
            object.__setattr__(self, name + "_num", num)
            object.__setattr__(self, name + "_den", den)
        object.__setattr__(self, "_frame", None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("SymplecticSpace is immutable")

    @property
    def genus(self):
        return self.dim // 2

    def offsets(self):
        out = []
        pos = 0
        for s in self.summands:
            out.append(pos)
            pos += s.degree
        return out

    def _check_length(self, coords):
        if len(coords) != self.dim:
            raise ValueError("vector length mismatch")

    def psi(self, x, y) -> Fraction:
        self._check_length(x)
        self._check_length(y)
        acc = Fraction(0)
        for i, row in enumerate(self.gram):
            xi = Fraction(x[i])
            if xi:
                for j, gij in enumerate(row):
                    if gij:
                        acc += xi * gij * Fraction(y[j])
        return acc

    def in_lattice(self, coords) -> bool:
        self._check_length(coords)
        return all(Fraction(c).denominator == 1 for c in coords)

    def multiplication_element(self, elements) -> "GSpElement":
        """The similitude given by componentwise multiplication.

        Every component must multiply its summand into itself with one
        common rational value of x·x^ι; otherwise the block matrix fails
        the similitude identity and the call is rejected.
        """
        if len(elements) != len(self.summands):
            raise ValueError("one multiplier per summand is required")
        nu = None
        for s, x in zip(self.summands, elements):
            norm = x * x.conjugate()
            if not norm.is_rational():
                raise ValueError("multiplier does not have rational x·x^ι")
            value = norm.rational_value()
            if nu is None:
                nu = value
            elif nu != value:
                raise ValueError("summands disagree on the similitude factor")
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for off, s, x in zip(self.offsets(), self.summands, elements):
            block = multiplication_matrix(x, list(s.basis))
            for i in range(s.degree):
                for j in range(s.degree):
                    rows[off + i][off + j] = block[i][j]
        return GSpElement(self, rows)

    def __eq__(self, other):
        if not isinstance(other, SymplecticSpace):
            return NotImplemented
        return (
            tuple((s.field, s.xi) for s in self.summands)
            == tuple((s.field, s.xi) for s in other.summands)
            and self.gram == other.gram
        )

    def __hash__(self):
        return hash((tuple((s.field, s.xi) for s in self.summands), self.gram))

    def __repr__(self):
        names = ", ".join(s.field.name or "?" for s in self.summands)
        return f"SymplecticSpace({names}; dim={self.dim})"


def _field_trace(x: CyclotomicElement, degree: int) -> Fraction:
    """Trace from the subfield of the given degree down to Q."""
    full = x.trace()
    d = len(CyclotomicElement.one(x.n).coeffs)
    return Fraction(full) * degree / d


def build_symplectic_space(fields, generators=None) -> SymplecticSpace:
    """Assemble the direct sum of trace-form symplectic spaces.

    Each summand contributes the pairing (x, y) -> Tr(xi·x·y^ι) on its
    integral basis; the result is checked to be alternating and
    nondegenerate before it is returned.  ``generators``, when given, holds
    one entry per field, None asking for the default generator.
    """
    fields = list(fields)
    if generators is None:
        generators = [None] * len(fields)
    elif len(generators) != len(fields):
        raise ValueError("one generator per field is required")
    summands = []
    for field, xi in zip(fields, generators):
        if xi is None:
            xi = totally_imaginary_generator(field)
        else:
            _validate_imaginary_generator(field, xi)
        summands.append(SymplecticSummand(field, xi, fixed_integral_basis(field)))
    dim = sum(s.degree for s in summands)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    pos = 0
    for s in summands:
        for i in range(s.degree):
            for j in range(s.degree):
                value = _field_trace(s.xi * s.basis[i] * s.basis[j].conjugate(), s.degree)
                rows[pos + i][pos + j] = value
        pos += s.degree
    for i in range(dim):
        for j in range(dim):
            if rows[i][j] != -rows[j][i]:
                raise AssertionError("trace pairing is not alternating")
    scale = common_denominator(rows)
    if IntMatrix([[int(x * scale) for x in row] for row in rows]).determinant() == 0:
        raise AssertionError("trace pairing is degenerate")
    return SymplecticSpace(summands, rows)


def _validate_imaginary_generator(field, xi):
    if xi.conjugate() != -xi:
        raise ValueError("generator is not totally imaginary")
    if _stabilizer_exponents(xi, field.scenario) != set(field.subgroup):
        raise ValueError("element does not generate the field")


# ---------------------------------------------------------------------------
# Similitude group elements
# ---------------------------------------------------------------------------


def _transpose(rows):
    return tuple(zip(*rows))


class GSpElement:
    """Rational symplectic similitude of a fixed space.

    The matrix M is stored as an integer matrix ``num`` over one positive
    integer ``den``, M = num/den, reduced so that den and the entries of
    num have no common factor; equal matrices therefore have equal
    (num, den), and ``den`` is the least common denominator of the
    entries.  ``rows`` may hold any rationals and the optional ``den``
    divides them all.  Construction computes the multiplier from
    Mᵀ·G·M = nu·G in integers and rejects matrices that do not satisfy it
    exactly; products and inverses are built through the same check.
    ``matrix`` is the tuple of Fraction rows, made on first use.
    """

    __slots__ = ("space", "num", "den", "similitude", "_matrix")

    def __init__(self, space: SymplecticSpace, rows, den: int = 1):
        num = tuple(tuple(row) for row in rows)
        if len(num) != space.dim or any(len(r) != space.dim for r in num):
            raise ValueError("matrix size does not match the space")
        if not all(type(x) is int for row in num for x in row):
            scale = common_denominator(num)
            num = tuple(tuple(int(Fraction(x) * scale) for x in row) for row in num)
            den *= scale
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            num, den = tuple(tuple(-x for x in row) for row in num), -den
        common = gcd(den, *(x for row in num for x in row))
        if common > 1:
            num = tuple(tuple(x // common for x in row) for row in num)
            den //= common
        # (num/den)ᵀ·G·(num/den) = nu·G with G = gram_num/gram_den reads
        # numᵀ·gram_num·num = nu·den²·gram_num
        gram = space.gram_num
        product = int_matmul(int_matmul(_transpose(num), gram), num)
        i, j = next((i, j) for i, row in enumerate(gram) for j, x in enumerate(row) if x)
        pivot, ref = product[i][j], gram[i][j]
        if pivot == 0:
            raise ValueError("matrix is singular on the symplectic form")
        for prow, grow in zip(product, gram):
            for x, y in zip(prow, grow):
                if x * ref != pivot * y:
                    raise ValueError("matrix does not scale the symplectic form")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "similitude", Fraction(pivot, ref * den * den))
        object.__setattr__(self, "_matrix", None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("GSpElement is immutable")

    @property
    def matrix(self):
        """The matrix as a tuple of Fraction rows, num/den."""
        if self._matrix is None:
            den = self.den
            rows = tuple(tuple(Fraction(x, den) for x in row) for row in self.num)
            object.__setattr__(self, "_matrix", rows)
        return self._matrix

    @classmethod
    def identity(cls, space) -> "GSpElement":
        n = space.dim
        return cls(space, [[int(i == j) for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        if not isinstance(other, GSpElement):
            return NotImplemented
        return GSpElement(self.space, int_matmul(self.num, other.num), self.den * other.den)

    def inverse(self) -> "GSpElement":
        """M⁻¹ = nu⁻¹·G⁻¹·Mᵀ·G, the symplectic adjoint over the multiplier."""
        space, nu = self.space, self.similitude
        adjoint = int_matmul(
            int_matmul(space.gram_inv_num, _transpose(self.num)), space.gram_num
        )
        scale = nu.denominator
        return GSpElement(
            space,
            [[scale * x for x in row] for row in adjoint],
            nu.numerator * space.gram_inv_den * self.den * space.gram_den,
        )

    def apply(self, coords):
        self.space._check_length(coords)
        return tuple(
            sum(x * Fraction(c) for x, c in zip(row, coords)) / self.den for row in self.num
        )

    def is_integral_at(self, p: int) -> bool:
        return self.den % p != 0

    def has_unit_similitude_at(self, p: int) -> bool:
        return _valuation(self.similitude, p) == 0

    def __eq__(self, other):
        if not isinstance(other, GSpElement):
            return NotImplemented
        return (
            self.space == other.space and self.den == other.den and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"GSpElement(dim={self.space.dim}, nu={self.similitude})"


def _valuation(x: Fraction, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no finite valuation")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------------------
# Integral symplectic bases
# ---------------------------------------------------------------------------


def _greedy_hyperbolic(space: SymplecticSpace):
    """Rational symplectic basis via hyperbolic-pair extraction.

    Deterministic pivoting: take the first remaining vector, pair it with
    the first partner of nonzero pairing, normalize and project the rest
    into the orthogonal complement.
    """
    pool = [
        tuple(Fraction(1 if i == j else 0) for j in range(space.dim))
        for i in range(space.dim)
    ]
    left, right = [], []
    while pool:
        x = pool.pop(0)
        partner = next((k for k, y in enumerate(pool) if space.psi(x, y)), None)
        if partner is None:
            raise AssertionError("degenerate pairing during hyperbolic extraction")
        y = pool.pop(partner)
        s = space.psi(x, y)
        y = tuple(c / s for c in y)
        left.append(x)
        right.append(y)
        projected = []
        for z in pool:
            zy = space.psi(z, y)
            zx = space.psi(z, x)
            projected.append(
                tuple(zc - zy * xc + zx * yc for zc, xc, yc in zip(z, x, y))
            )
        pool = projected
    return left + right


def standard_j(genus: int):
    """Gram matrix of the reference symplectic basis, [[0, I], [-I, 0]]."""
    rows = [[Fraction(0)] * (2 * genus) for _ in range(2 * genus)]
    for k in range(genus):
        rows[k][genus + k] = Fraction(1)
        rows[genus + k][k] = Fraction(-1)
    return tuple(tuple(r) for r in rows)


def integral_symplectic_basis(space: SymplecticSpace):
    """Rescale the pairing so a symplectic basis exists inside the lattice.

    Returns (rescaled space, basis rows).  The generators are divided by
    the square of the common denominator q of the rational symplectic
    basis and the basis vectors are multiplied by q, which keeps all the
    pairings fixed while moving the vectors into integer coordinates.
    """
    basis = _greedy_hyperbolic(space)
    q = common_denominator(basis)
    scaled = [tuple(c * q for c in vec) for vec in basis]
    new_space = _rescaled_space(space, q)
    reference = standard_j(space.genus)
    for vec in scaled:
        if not new_space.in_lattice(vec):
            raise AssertionError("rescaled basis left the integral lattice")
    for i, x in enumerate(scaled):
        for j, y in enumerate(scaled):
            if new_space.psi(x, y) != reference[i][j]:
                raise AssertionError("rescaled basis is not symplectic")
    return new_space, tuple(scaled)


def _rescaled_space(space: SymplecticSpace, q: int) -> SymplecticSpace:
    factor = Fraction(1, q * q)
    summands = [
        SymplecticSummand(s.field, s.xi * factor, s.basis) for s in space.summands
    ]
    gram = [[g * factor for g in row] for row in space.gram]
    return SymplecticSpace(summands, gram)


# ---------------------------------------------------------------------------
# The rational-similitude subtorus
# ---------------------------------------------------------------------------


def _annihilator_rows(E: FieldHandle) -> list:
    """Characters of T^E vanishing on the similitude subtorus."""
    F = maximal_totally_real_subfield(E)
    norm_map = norm_morphism(E, F).char_map
    rows = []
    for k in range(F.degree - 1):
        char = [0] * F.degree
        char[k] = 1
        char[k + 1] = -1
        rows.append(norm_map.apply(char))
    return rows


# ---------------------------------------------------------------------------
# CM points
# ---------------------------------------------------------------------------


class CMPointData:
    """A CM point for the Siegel datum: one CM type, cocharacter, matrix model."""

    __slots__ = (
        "field",
        "cm_type",
        "space",
        "torus",
        "mu",
        "h_pair",
        "reflex_compositum",
        "injection",
        "serre",
        "reflex_serre",
    )

    def __init__(self, **kw):
        for slot in self.__slots__:
            object.__setattr__(self, slot, kw[slot])

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("CMPointData is immutable")

    def __repr__(self):
        type_field = self.cm_type.field.name or "?"
        return f"CMPointData({self.field.name or '?'}; type on {type_field})"


def build_cm_point(E: FieldHandle, *, generators=None) -> CMPointData:
    """Search for the CM type realizing a point for the field.

    Candidates are primitive CM types on CM fields of the scenario whose
    reflex field lands inside E; the first one making the universal
    composite injective wins, and the point is built from that one type.
    A field that no single primitive type serves is refused with
    ValueError: collections of CM types in a product torus are not
    supported.  The search order is deterministic, so the same field
    always produces the same point.  The symplectic ``space`` is built
    only when the scenario has a conductor, that is a cyclotomic
    realization; otherwise it is None.
    """
    ok, _ = is_cm(E)
    if not ok:
        raise ValueError("CM points are built over CM fields")
    s = E.scenario
    sg = serre_group(E)
    candidates = []
    seen = set()
    for sub in s.subgroups_containing(frozenset({s.identity})):
        if sub in seen:
            continue
        seen.add(sub)
        handle = s.field(sub)
        if is_cm(handle)[0]:
            candidates.append(handle)
    candidates.sort(key=lambda f: (-f.degree, sorted(f.subgroup)))
    chosen = None
    for field in candidates:
        for t in enumerate_cm_types(field):
            if not is_primitive(t):
                continue
            estar = reflex_field(t)
            if not E.contains_field(estar):
                continue
            sgr = serre_group(estar)
            inj = rho_phi(t, sgr).compose(induced_serre_morphism(sg, sgr))
            if inj.is_injective():
                chosen = (t, estar, sgr, inj)
                break
        if chosen:
            break
    if chosen is None:
        raise ValueError(
            "no single primitive CM type with reflex inside the field works; "
            "collections of CM types are not supported"
        )
    t, estar, sgr, inj = chosen
    mu = mu_phi(t)
    if mu.stabilizer() != estar.subgroup:
        raise AssertionError("the point cocharacter is not defined over the reflex field")
    space = None
    if s.conductor is not None:
        space = build_symplectic_space([t.field], generators=generators)
    return CMPointData(
        field=E,
        cm_type=t,
        space=space,
        torus=inj.target,
        mu=mu,
        h_pair=(mu, mu.translate(s.iota)),
        reflex_compositum=estar,
        injection=inj,
        serre=sg,
        reflex_serre=sgr,
    )


# ---------------------------------------------------------------------------
# The two morphisms into the similitude torus
# ---------------------------------------------------------------------------


def phi_morphism(K: FieldHandle, point: CMPointData) -> TorusMorphism:
    """Universal-quotient composite from T^K into the point's torus.

    Chains the quotient projection, the norm between universal quotients,
    the norm to the reflex quotient and the type morphism.  The image
    is checked against the annihilator of the similitude subtorus, and the
    archimedean pair of the source is checked to land on the point's pair.
    """
    if not K.contains_field(point.field):
        raise ValueError("the base field must contain the CM field of the point")
    sgk = point.serre if K == point.field else serre_group(K)
    down = induced_serre_morphism(sgk, point.serre)
    t, sgr = point.cm_type, point.reflex_serre
    step = induced_serre_morphism(point.serre, sgr)
    composite = rho_phi(t, sgr).compose(step).compose(down).compose(sgk.projection)
    for row in _annihilator_rows(t.field):
        if any(composite.char_map.apply(row)):
            raise AssertionError("image is not inside the similitude subtorus")
    phi = TorusMorphism(sgk.projection.source, point.torus, composite.char_map, name="phi")
    hodge = mu_tau(K)
    if phi.push_cocharacter(hodge) != point.mu:
        raise AssertionError("the morphism does not carry the Hodge cocharacter")
    if phi.push_cocharacter(hodge.translate(K.scenario.iota)) != point.h_pair[1]:
        raise AssertionError("the morphism does not carry the conjugate cocharacter")
    return phi


def phi_explicit(K: FieldHandle, point: CMPointData) -> TorusMorphism:
    """Closed-form composite: field norm to the reflex field, then the reflex norm."""
    if not K.contains_field(point.field):
        raise ValueError("the base field must contain the CM field of the point")
    t = point.cm_type
    composite = reflex_norm(t).compose(norm_morphism(K, reflex_field(t)))
    tk = torus_of_field(K)
    return TorusMorphism(tk, point.torus, composite.char_map, name="phi-explicit")


def eta_morphism(K: FieldHandle, point: CMPointData) -> TorusMorphism:
    """Norm of the restriction of scalars of the point cocharacter."""
    if not K.contains_field(point.reflex_compositum):
        raise ValueError("the base field must contain the reflex compositum")
    return norm_res_composite(K, point.mu, name="eta")


def character_map_report(K: FieldHandle, point: CMPointData) -> dict:
    """Compare the three constructions of the map into the point's torus."""
    phi = phi_morphism(K, point)
    explicit = phi_explicit(K, point)
    eta = eta_morphism(K, point)
    checks = [
        {"id": "phi-universal-vs-explicit", "pass": phi.char_map == explicit.char_map},
        {"id": "phi-equals-eta", "pass": phi.char_map == eta.char_map},
        {"id": "eta-explicit-agree", "pass": eta.char_map == explicit.char_map},
    ]
    return {
        "field": K.name or "?",
        "cm_field": point.field.name or "?",
        "char_map": [list(phi.char_map.row(i)) for i in range(phi.char_map.rows)],
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Realizing morphisms on rational points
# ---------------------------------------------------------------------------


def element_from_embedding_values(field: FieldHandle, values):
    """Reconstruct a field element from its tuple of embedding images.

    No library path calls it outside the reference `gsp_realization`: it
    is a test oracle, checked against the embeddings of known elements.
    """
    n = cyclotomic_level(field.scenario)
    basis = fixed_integral_basis(field)
    exps = _embedding_exponents(field)
    if len(values) != len(exps):
        raise ValueError("one value per embedding is required")
    d = len(CyclotomicElement.one(n).coeffs)
    rows = []
    rhs = []
    for k, j in enumerate(exps):
        images = [b.galois(j).coeffs for b in basis]
        for c in range(d):
            rows.append(tuple(Fraction(images[t][c]) for t in range(len(basis))))
            rhs.append(Fraction(values[k].coeffs[c]))
    sol = frac_solve(rows, rhs)
    if sol is None:
        raise ValueError("values are not the embedding images of one element")
    x = CyclotomicElement.zero(n)
    for c, b in zip(sol, basis):
        if c:
            x = x + b * c
    for k, j in enumerate(exps):
        if x.galois(j) != values[k]:
            raise AssertionError("element must reproduce its embedding values")
    return x


def gsp_realization(point: CMPointData, morphism: TorusMorphism, x) -> GSpElement:
    """Matrix of a morphism value acting on the symplectic space.

    Evaluates the character map on an exact point of the source field,
    reassembles the element of the type field and returns its multiplication
    matrix together with its similitude factor.  The realization layer
    computes the same matrix in integer coordinates
    (`cmforge.arith.CMContext.realize`); this cyclotomic path is the
    reference its tests compare against.
    """
    if point.space is None:
        raise ValueError("the point has no matrix realization")
    values = realize_on_point(morphism, x)
    element = element_from_embedding_values(point.cm_type.field, values)
    return point.space.multiplication_element([element])


# ---------------------------------------------------------------------------
# Finite-adelic elements and their rational-integral decomposition
# ---------------------------------------------------------------------------


class AdelicGSp:
    """Finite-adelic similitude with finite support and a rational tail.

    The element equals ``local[p]`` at the stored primes and ``tail`` at
    every other prime; the default tail is the identity, which models the
    restricted product directly.
    """

    __slots__ = ("space", "local", "tail")

    def __init__(self, space: SymplecticSpace, local, tail: GSpElement | None = None):
        parts = {}
        for p, g in dict(local).items():
            if prime_factors(p) != [p]:
                raise ValueError(f"support contains the non-prime {p}")
            if g.space != space:
                raise ValueError("local part lives on a different space")
            parts[p] = g
        if tail is None:
            tail = GSpElement.identity(space)
        if tail.space != space:
            raise ValueError("tail lives on a different space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "local", dict(sorted(parts.items())))
        object.__setattr__(self, "tail", tail)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("AdelicGSp is immutable")

    @property
    def support(self):
        return tuple(self.local)

    def local_at(self, p: int) -> GSpElement:
        return self.local.get(p, self.tail)

    def scale_left(self, q: GSpElement) -> "AdelicGSp":
        return AdelicGSp(
            self.space,
            {p: q * g for p, g in self.local.items()},
            tail=q * self.tail,
        )

    def _tail_denominator_primes(self):
        primes = set(prime_factors(self.tail.den))
        nu = self.tail.similitude
        primes.update(prime_factors(nu.numerator))
        primes.update(prime_factors(nu.denominator))
        return primes

    def is_everywhere_integral(self) -> bool:
        """Integral entries and unit similitude at every single prime."""
        for p, g in self.local.items():
            if not (g.is_integral_at(p) and g.has_unit_similitude_at(p)):
                return False
        return self._tail_denominator_primes() <= set(self.local)

    def __eq__(self, other):
        if not isinstance(other, AdelicGSp):
            return NotImplemented
        if self.space != other.space or self.tail != other.tail:
            return False
        keys = set(self.local) | set(other.local)
        return all(self.local_at(p) == other.local_at(p) for p in keys)

    def __repr__(self):
        return f"AdelicGSp(support={self.support}, dim={self.space.dim})"


def decompose_gsp(f: AdelicGSp):
    """Split an adelic similitude as rational times everywhere-integral.

    Returns (q, gamma) with q rational of positive multiplier, gamma equal
    to q^{-1}·f and integral with unit similitude at every prime.  The
    lattice moved by f is glued prime by prime: it is the tail's column
    lattice away from the support and g's column lattice at each stored
    prime p, since g's own columns span g·Z_p^n.  The glue keeps only the
    p-local lattice of its candidate and returns a Hermite form, so the
    glued basis does not depend on which basis of g·Z_p^n is passed.  Its
    pairing is matched against the reference pairing through the
    alternating Frobenius form, and the resulting basis is the rational
    part.  Both factors are exact; the product returns f on the nose.
    Bases are integer rows over one denominator throughout.
    """
    space = f.space
    tail = f.tail
    nu = abs(tail.similitude)
    for p, g in f.local.items():
        nu *= Fraction(p) ** (_valuation(g.similitude, p) - _valuation(tail.similitude, p))
    tail_inv = tail.inverse()
    basis, den = _transpose(tail.num), tail.den
    for p, g in f.local.items():
        # Before p is glued the basis spans the tail's column lattice at p,
        # and p^k carries it and g's into each other there.
        k = max(0, -_entry_valuation(tail_inv * g, p), -_entry_valuation(g.inverse() * tail, p))
        basis, den = _replace_at_prime((basis, den), (_transpose(g.num), g.den), p, k)
    gram_m = int_matmul(int_matmul(basis, space.gram_num), _transpose(basis))
    w_m, inv_m = _scaled_frobenius(gram_m, den * den * space.gram_den)
    _, w_g_inv, inv_g = _frobenius_frame(space)
    if len(inv_m) != len(inv_g) or any(
        a != nu * b for a, b in zip(inv_m, inv_g)
    ):
        raise AssertionError("the moved lattice does not scale the pairing by nu")
    adapted = int_matmul((w_g_inv * w_m).entries, basis)
    q = GSpElement(space, _transpose(adapted), den)
    if q.similitude != nu:
        raise AssertionError("rational part has the wrong multiplier")
    gamma = f.scale_left(q.inverse())
    if not gamma.is_everywhere_integral():
        raise AssertionError("integral part failed the integrality check")
    for p in f.support:
        if q * gamma.local_at(p) != f.local_at(p):
            raise AssertionError("decomposition does not multiply back")
    return q, gamma


def _entry_valuation(g: GSpElement, p: int) -> int:
    """Least p-adic valuation of the entries of a similitude's matrix."""
    if g.den % p == 0:
        return -_valuation(g.den, p)
    return _valuation(gcd(*(x for row in g.num for x in row)), p)


def _lattice_sum(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    h, _ = hermite_normal_form(vstack(A, B))
    return IntMatrix([row for row in h.entries if any(row)])


def _replace_at_prime(current, candidate, p: int, k: int):
    """Lattice equal to ``candidate`` at p and to ``current`` at other primes.

    Both arguments are full-rank rational row bases, each given as integer
    rows over one denominator, and p^k carries each lattice into the
    other p-locally.  The glue is (candidate ∩ p^{-k}·current) +
    p^k·current; localizing at p collapses the formula to candidate, and
    anywhere else to current.  Returns its Hermite form over one
    denominator.
    """
    (c_rows, c_den), (a_rows, a_den) = current, candidate
    widened_den = c_den * p**k
    denom = lcm(a_den, widened_den)
    a_int = IntMatrix(a_rows) * (denom // a_den)
    b_int = IntMatrix(c_rows) * (denom // widened_den)
    meet = lattice_intersection(a_int, b_int)
    return _lattice_sum(meet, b_int * (p ** (2 * k))).entries, denom


def _scaled_frobenius(num, den: int):
    """Frobenius data of the rational alternating matrix num/den.

    Returns (U, invariants) with U integral unimodular and the invariants
    rational, matching U·(num/den)·Uᵀ in adjacent-pair block form.
    """
    common = gcd(den, *(x for row in num for x in row))
    integral = IntMatrix([[x // common for x in row] for row in num])
    u, invariants = alternating_frobenius(integral)
    return u, tuple(Fraction(d, den // common) for d in invariants)


# ---------------------------------------------------------------------------
# Randomized sampling of adelic elements
# ---------------------------------------------------------------------------


def sample_integral_symplectic(space: SymplecticSpace, rng, steps: int = 4) -> GSpElement:
    """Random product of integral symplectic transvections (multiplier one).

    Directions and coefficients are kept tiny on purpose: entry growth is
    multiplicative across the factors, and the decomposition pipeline does
    exact arithmetic on whatever this returns.
    """
    gram = space.gram_num
    n = space.dim
    result = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    made = 0
    while made < steps:
        v = [rng.randint(-1, 1) for _ in range(n)]
        if not any(v):
            continue
        # x -> x + c·psi(v, x)·v with c = ±(common denominator of G), so
        # c·G = ±gram_num and every entry is an integer
        c = rng.choice([-1, 1])
        w = [c * sum(gram[j][i] * v[j] for j in range(n)) for i in range(n)]
        rows = [[int(i == j) + v[i] * w[j] for j in range(n)] for i in range(n)]
        result = int_matmul(result, rows)
        made += 1
    return GSpElement(space, result)


def _frobenius_frame(space: SymplecticSpace):
    """Frobenius data of the space's pairing, computed on first use and
    kept on the space.

    Returns (W, W⁻¹, invariants): W is integral unimodular with W·gram·Wᵀ
    in adjacent-pair block form, and the invariants are those of
    `_scaled_frobenius`.
    """
    if space._frame is None:
        w, invariants = _scaled_frobenius(space.gram_num, space.gram_den)
        object.__setattr__(space, "_frame", (w, int_matrix_inverse(w), invariants))
    return space._frame


def sample_local_similitude(
    space: SymplecticSpace, p: int, rng, max_val: int = 3, steps: int = 2
) -> GSpElement:
    """Random similitude with interesting valuations only at the prime p.

    A diagonal element with blockwise multiplier p^m is written in the
    block normal form of the pairing and conjugated back, so its entries
    are p-power multiples of integers; integral transvections on both
    sides hide the diagonal shape.
    """
    w, w_inv, _ = _frobenius_frame(space)
    m = rng.randint(-2, max_val)
    lo, hi = min(0, m), max(0, m)
    exponents = []
    for _ in range(space.genus):
        a = rng.randint(lo, hi)
        exponents.extend([a, m - a])
    # Wᵀ·diag(p^e)·W⁻ᵀ over the denominator p^shift
    shift = max(0, -min(exponents))
    scaled = [
        [w[k, i] * p ** (exponents[k] + shift) for k in range(space.dim)]
        for i in range(space.dim)
    ]
    conjugated = int_matmul(scaled, _transpose(w_inv.entries))
    left = sample_integral_symplectic(space, rng, steps)
    right = sample_integral_symplectic(space, rng, steps)
    return GSpElement(
        space,
        int_matmul(int_matmul(left.num, conjugated), right.num),
        left.den * p**shift * right.den,
    )


def sample_adelic_gsp(
    space: SymplecticSpace, primes, rng, max_val: int = 3, steps: int = 2
) -> AdelicGSp:
    """Random finite-adelic similitude supported on the given primes."""
    local = {}
    for p in primes:
        if rng.random() < 0.75:
            local[p] = sample_local_similitude(space, p, rng, max_val, steps)
    return AdelicGSp(space, local)
