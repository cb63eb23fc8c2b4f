"""CM types, reflex fields and norms, and the attached universal torus.

Everything runs at the level of character lattices over a finite Galois
scenario.  The would-be group of all automorphisms of an algebraic closure
enters only through its finite quotient acting on the relevant embeddings;
the defining conditions quantify over that quotient, which is exactly what
they factor through.

A realization layer at the bottom of the module evaluates character maps on
actual field elements inside a cyclotomic model, which gives the
determinant oracle for reflex norms an implementation path independent of
the lattice solve.
"""

from __future__ import annotations

from functools import cache

from .cyclotomic import CyclotomicElement
from .galois import (
    FieldHandle,
    is_cm,
    maximal_cm_subfield,
    maximal_totally_real_subfield,
)
from .lattice import (
    IntMatrix,
    RowSpan,
    solution_sublattice,
)
from .tori import (
    Cocharacter,
    Torus,
    TorusMorphism,
    mu_tau,
    norm_morphism,
    quotient_torus,
    torus_of_field,
)


class CMType:
    """A CM field together with a choice of one embedding per conjugate pair."""

    def __init__(self, field: FieldHandle, phi):
        ok, _ = is_cm(field)
        if not ok:
            raise ValueError("CM types need a CM field")
        phi = frozenset(phi)
        if not phi <= set(field.embeddings):
            raise ValueError("phi must consist of embeddings of the field")
        s = field.scenario
        conjugates = frozenset(field.act(s.iota, f) for f in phi)
        if phi & conjugates:
            raise ValueError("phi meets its own conjugate set")
        if phi | conjugates != set(field.embeddings):
            raise ValueError("phi and its conjugates must cover all embeddings")
        self.field = field
        self.phi = phi

    @property
    def g(self) -> int:
        return len(self.phi)

    def indices(self):
        return tuple(sorted(self.field.embedding_index(f) for f in self.phi))

    def translate(self, sigma) -> "CMType":
        return CMType(self.field, {self.field.act(sigma, f) for f in self.phi})

    def conjugate(self) -> "CMType":
        return self.translate(self.field.scenario.iota)

    def __eq__(self, other):
        return (
            isinstance(other, CMType)
            and self.field.scenario is other.field.scenario
            and self.field.subgroup == other.field.subgroup
            and self.phi == other.phi
        )

    def __hash__(self):
        return hash((id(self.field.scenario), self.field.subgroup, self.phi))

    def __repr__(self):
        return f"CMType({self.field.name or 'E'}, {self.indices()})"


def enumerate_cm_types(E: FieldHandle):
    """All 2^g choices of one embedding per conjugation orbit."""
    ok, _ = is_cm(E)
    if not ok:
        raise ValueError("can only enumerate CM types of a CM field")
    s = E.scenario
    orbits = []
    seen = set()
    for f in E.embeddings:
        if f in seen:
            continue
        m = E.act(s.iota, f)
        seen.update({f, m})
        orbits.append((f, m))
    types = []
    for mask in range(1 << len(orbits)):
        pick = {pair[(mask >> i) & 1] for i, pair in enumerate(orbits)}
        types.append(CMType(E, pick))
    return types


def induced_type(t: CMType, L: FieldHandle) -> CMType:
    """Lift a CM type along a CM extension L of its field."""
    if not L.contains_field(t.field):
        raise ValueError("can only induce to an extension")
    lifted = {f for f in L.embeddings if L.restrict_embedding(f, t.field) in t.phi}
    return CMType(L, lifted)


def is_primitive(t: CMType) -> bool:
    """No proper CM subfield carries a type inducing this one."""
    E = t.field
    s = E.scenario
    for bigger in s.subgroups_containing(E.subgroup):
        if bigger == E.subgroup:
            continue
        sub = FieldHandle(s, bigger)
        ok, _ = is_cm(sub)
        if not ok:
            continue
        restricted = {E.restrict_embedding(f, sub) for f in t.phi}
        if 2 * len(restricted) != sub.degree:
            continue
        try:
            candidate = CMType(sub, restricted)
        except ValueError:
            continue
        if induced_type(candidate, E) == t:
            return False
    return True


def reflex_field(t: CMType) -> FieldHandle:
    """Fixed field of the stabilizer of phi under translation."""
    s = t.field.scenario
    stab = frozenset(g for g in s.elements if t.translate(g) == t)
    name = f"{t.field.name}*" if t.field.name else "E*"
    return FieldHandle(s, stab, name=name)


def mu_phi(t: CMType) -> Cocharacter:
    """Cocharacter of T^E with exponent 1 on phi and 0 on the conjugates."""
    torus = torus_of_field(t.field)
    vec = [0] * torus.rank
    for f in t.phi:
        vec[t.field.embedding_index(f)] = 1
    return Cocharacter(torus, vec)


# ---------------------------------------------------------------------------
# The universal torus of a field
# ---------------------------------------------------------------------------


class SerreGroup:
    """Quotient of T^K by the conjugation-symmetry conditions.

    Carries the quotient torus, the projection, the distinguished
    cocharacter mu = pi(mu_tau), the pair (mu, iota mu) that encodes the
    archimedean parameter h, and the symmetry sublattice as a `RowSpan`.
    """

    def __init__(self, field, ambient, torus, projection, mu, h_pair, span):
        self.field = field
        self.ambient = ambient
        self.torus = torus
        self.projection = projection
        self.mu = mu
        self.h_pair = h_pair
        self.span = span
        self.sublattice = span.basis

    @property
    def rank(self) -> int:
        return self.torus.rank

    def __repr__(self):
        return f"SerreGroup({self.field.name or '?'}, rank={self.rank})"


def serre_condition_violations(mu: Cocharacter):
    """Elements sigma violating (iota+1)(sigma-1)mu = 0 = (sigma-1)(iota+1)mu."""
    torus = mu.torus
    s = torus.scenario
    v = mu.vector
    iota = s.iota
    bad = []
    for g in s.elements:
        gv = torus.act_cocharacter(g, v)
        step = tuple(a - b for a, b in zip(gv, v))
        first = tuple(a + b for a, b in zip(step, torus.act_cocharacter(iota, step)))
        w = tuple(a + b for a, b in zip(v, torus.act_cocharacter(iota, v)))
        second = tuple(a - b for a, b in zip(torus.act_cocharacter(g, w), w))
        if any(first) or any(second):
            bad.append(g)
    return bad


def serre_sublattice(K: FieldHandle) -> IntMatrix:
    """Saturated sublattice of X^*(T^K) cut out by the symmetry conditions.

    The basis is in Hermite form, and is solved once per scenario and field.
    """
    return _serre_span(K).basis


def _serre_span(K: FieldHandle) -> RowSpan:
    """`serre_sublattice` with its Hermite form, memoised on the scenario."""
    return K.scenario.memo(
        ("serre-span", K.subgroup), lambda: RowSpan(_solve_serre_sublattice(K))
    )


def _solve_serre_sublattice(K: FieldHandle) -> IntMatrix:
    t = torus_of_field(K)
    s = K.scenario
    eye = IntMatrix.identity(t.rank)
    iota_plus = t.act(s.iota) + eye
    conditions = []
    for g in s.elements:
        step = t.act(g) - eye
        conditions.append(step * iota_plus)
        conditions.append(iota_plus * step)
    return solution_sublattice(conditions, ambient_rank=t.rank)


def serre_group(K: FieldHandle) -> SerreGroup:
    t = torus_of_field(K)
    span = _serre_span(K)
    name = f"S^{K.name}" if K.name else "S"
    quotient, projection = quotient_torus(t, span, name=name)
    mu = projection.push_cocharacter(mu_tau(K))
    h_pair = (mu, mu.translate(K.scenario.iota))
    if span.solve((1,) * t.rank) is None:
        raise AssertionError("norm character must satisfy the symmetry conditions")
    return SerreGroup(K, t, quotient, projection, mu, h_pair, span)


def _cm_base(K: FieldHandle) -> FieldHandle:
    """The maximal CM subfield of K, or Q when K has none."""
    try:
        return maximal_cm_subfield(K)
    except ValueError:
        return K.scenario.rational_field()


def serre_kernel_report(K: FieldHandle) -> dict:
    """Character-level exactness test for the norm-kernel presentation.

    The claim under test: with E the maximal CM subfield of K (or Q) and F
    the maximal totally real subfield of E, the kernel of the projection
    T^K -> S^K is the norm-one subtorus of T^F.  Dually: a character of
    T^K satisfies the symmetry conditions exactly when its pushforward to
    X^*(T^F) is a multiple of the norm character.  The report states
    whether that equality of sublattices actually holds.
    """
    E = _cm_base(K)
    F = maximal_totally_real_subfield(E) if E.degree > 1 else E
    sub = serre_sublattice(K)
    k_emb = K.embeddings
    restrict = [[0] * len(k_emb) for _ in F.embeddings]
    for j, rho in enumerate(k_emb):
        restrict[F.embedding_index(K.restrict_embedding(rho, F))][j] = 1
    # R f = t * (1,...,1) for an integer t exactly when every row of R f
    # equals the first: (R_i - R_0) f = 0
    predicted = solution_sublattice(
        [IntMatrix([[a - b for a, b in zip(row, restrict[0])]]) for row in restrict[1:]],
        ambient_rank=len(k_emb),
    )
    # both bases are Hermite forms, which are unique per lattice
    exact = predicted == sub
    return {
        "field": K.name or "K",
        "max_cm_subfield": E.name or "E",
        "totally_real_base": F.name or "F",
        "rank_ambient": len(k_emb),
        "rank_quotient": sub.rows,
        "kernel_rank_predicted": F.degree - 1,
        "kernel_rank_actual": len(k_emb) - sub.rows,
        "exact": exact,
    }


# ---------------------------------------------------------------------------
# The universal property
# ---------------------------------------------------------------------------


def universal_rho(sg: SerreGroup, target: Torus, mu: Cocharacter) -> TorusMorphism:
    """Unique morphism rho with rho(mu_sg) = mu, solved from the orbit of mu_sg.

    Equivariance gives rho(g·mu_sg) = g·mu for every g, so the character
    map M solves V·M = W, where the rows of V are the g·mu_sg and the rows
    of W are the g·mu.  Row i of M is c·W for the integer c with c·V = e_i.

    The orbit of mu_sg spans X_*(S), which makes M unique and integral:
    mu_sg is the image of e_tau under the projection T^K -> S, the orbit
    of e_tau is the basis {e_sigma} of X_*(T^K), and the projection is onto
    on cocharacters because the symmetry sublattice is saturated.  A unit
    vector outside the orbit lattice therefore trips an assertion.
    """
    if mu.torus != target:
        raise ValueError("cocharacter must live on the target torus")
    if not sg.field.subgroup <= mu.stabilizer():
        raise ValueError("cocharacter is not defined over the base field")
    bad = serre_condition_violations(mu)
    if bad:
        raise ValueError(f"symmetry condition fails at {bad[0]!r}")
    elements = sg.field.scenario.elements
    v = IntMatrix([sg.torus.act_cocharacter(g, sg.mu.vector) for g in elements])
    w = IntMatrix([target.act_cocharacter(g, mu.vector) for g in elements])
    orbit = RowSpan(v)
    rows = []
    for unit in IntMatrix.identity(sg.rank).entries:
        c = orbit.solve(unit)
        if c is None:
            raise AssertionError("the orbit of mu_S must span X_*(S)")
        rows.append(w.act_on_row(c))
    m = IntMatrix(rows)
    if v * m != w:
        raise AssertionError("universal morphism must exist")
    rho = TorusMorphism(sg.torus, target, m, name="rho")
    if rho.push_cocharacter(sg.mu) != mu:
        raise AssertionError("universal morphism must carry mu_S to mu")
    return rho


def rho_phi(t: CMType, sg: SerreGroup | None = None) -> TorusMorphism:
    """The universal morphism attached to a CM type, over its reflex field."""
    estar = reflex_field(t)
    if sg is None:
        sg = serre_group(estar)
    if not sg.field.contains_field(estar):
        raise ValueError("base field must contain the reflex field")
    mu = mu_phi(t)
    rho = universal_rho(sg, mu.torus, mu)
    iota = t.field.scenario.iota
    # archimedean compatibility in pair form: h_phi = rho ∘ h
    if rho.push_cocharacter(sg.h_pair[0]) != mu:
        raise AssertionError("rho must carry h to mu_phi")
    if rho.push_cocharacter(sg.h_pair[1]) != mu.translate(iota):
        raise AssertionError("rho must carry conjugate h to the conjugate of mu_phi")
    return rho


def norm_res_composite(F: FieldHandle, mu: Cocharacter, name="") -> TorusMorphism:
    """The composite norm ∘ restriction-of-scalars of a cocharacter.

    For mu a cocharacter of T defined over F, the composite is the morphism
    T^F -> T whose character map sends c to the vector of pairings
    ⟨rho mu, c⟩ over the embeddings rho of F.
    """
    torus = mu.torus
    if not F.subgroup <= mu.stabilizer():
        raise ValueError("cocharacter is not defined over the field")
    tf = torus_of_field(F)
    order = F.scenario.elements.index
    rows = []
    for coset in F.embeddings:
        rep = min(coset, key=order)
        rows.append(torus.act_cocharacter(rep, mu.vector))
    return TorusMorphism(tf, torus, IntMatrix(rows), name=name or "Nm∘Res")


def reflex_norm(t: CMType) -> TorusMorphism:
    """Reflex norm T^{E*} -> T^E through the universal quotient."""
    estar = reflex_field(t)
    sg = serre_group(estar)
    rho = rho_phi(t, sg)
    return rho.compose(sg.projection)


def reflex_norm_closed_form(t: CMType) -> TorusMorphism:
    """Same morphism out of the norm ∘ restriction composite (cross-check)."""
    return norm_res_composite(reflex_field(t), mu_phi(t), name="N_Phi")


# ---------------------------------------------------------------------------
# Compatibility properties
# ---------------------------------------------------------------------------


def induced_serre_morphism(sg_k: SerreGroup, sg_e: SerreGroup) -> TorusMorphism:
    """Norm-induced morphism between universal quotients.

    Exists because the norm character map carries one symmetry sublattice
    into the other; the projections commute with it by construction.
    """
    n = norm_morphism(sg_k.field, sg_e.field)
    cols = []
    for i in range(sg_e.sublattice.rows):
        image = n.char_map.apply(sg_e.sublattice.row(i))
        coeffs = sg_k.span.solve(image)
        if coeffs is None:
            raise ValueError("norm does not respect the symmetry sublattices")
        cols.append(coeffs)
    m = IntMatrix([[cols[j][i] for j in range(len(cols))] for i in range(sg_k.rank)])
    induced = TorusMorphism(sg_k.torus, sg_e.torus, m, name="N induced")
    if sg_k.projection.char_map * m != n.char_map * sg_e.projection.char_map:
        raise AssertionError("induced norm must commute with the projections")
    return induced


def is_isomorphism(f: TorusMorphism) -> bool:
    """Square character map with trivial elementary divisors (determinant ±1)."""
    return f.char_map.is_unimodular()


def lemmahodge_check(sg: SerreGroup) -> bool:
    """The ambient-level h lifts the quotient-level h through the projection."""
    lift = mu_tau(sg.field)
    iota = sg.field.scenario.iota
    pair = (lift, lift.translate(iota))
    pushed = tuple(sg.projection.push_cocharacter(c) for c in pair)
    return pushed == sg.h_pair


def lemmacomp_check(t: CMType, bigger: FieldHandle) -> bool:
    """Norm ∘ restriction from an extension factors through the reflex field."""
    estar = reflex_field(t)
    if not bigger.contains_field(estar):
        raise ValueError("field must contain the reflex field")
    mu = mu_phi(t)
    direct = norm_res_composite(bigger, mu)
    through = norm_res_composite(estar, mu).compose(norm_morphism(bigger, estar))
    return direct.char_map == through.char_map


def serre_property_suite(K: FieldHandle, cm_type: CMType | None = None) -> dict:
    """Diagram checks for the universal quotient of K, reported per item."""
    checks = []

    def record(check_id, fn):
        try:
            ok, detail = fn()
        except (ValueError, AssertionError) as err:
            ok, detail = False, str(err)
        checks.append({"id": check_id, "pass": bool(ok), "detail": detail})

    sg_k = serre_group(K)
    E = _cm_base(K)
    # a CM field is its own maximal CM subfield: its quotient is S^K again
    sg_e = sg_k if E == K else serre_group(E)

    # Built once for the three checks below; a map that raises is not
    # cached, so each of them records the error.
    @cache
    def induced_map():
        return induced_serre_morphism(sg_k, sg_e)

    def norm_diagram():
        induced_map()
        return True, f"induced map {sg_k.rank}x{sg_e.rank}"

    def h_compat():
        induced = induced_map()
        same_mu = induced.push_cocharacter(sg_k.mu) == sg_e.mu
        same_conj = (
            induced.push_cocharacter(sg_k.h_pair[1]) == sg_e.h_pair[1]
        )
        return same_mu and same_conj, "h-parameters match through the induced map"

    def max_cm_iso():
        return is_isomorphism(induced_map()), "elementary divisors all 1"

    def hodge():
        return lemmahodge_check(sg_k), "projection carries the ambient pair to the quotient pair"

    record("serre-norm-diagram", norm_diagram)
    record("serre-h-compat", h_compat)
    record("serre-max-cm-iso", max_cm_iso)
    record("serre-hodge-lift", hodge)

    kernel = serre_kernel_report(K)
    checks.append(
        {
            "id": "serre-kernel-sequence",
            "pass": kernel["exact"],
            "detail": (
                f"predicted kernel rank {kernel['kernel_rank_predicted']}, "
                f"actual {kernel['kernel_rank_actual']}"
            ),
        }
    )

    if cm_type is not None:
        def rho_norm_compat():
            estar = reflex_field(cm_type)
            if not K.contains_field(estar):
                raise ValueError("base field does not contain the reflex field")
            sg_star = serre_group(estar)
            rho_small = rho_phi(cm_type, sg_star)
            rho_big = rho_phi(cm_type, sg_k)
            induced = induced_serre_morphism(sg_k, sg_star)
            return (
                rho_small.compose(induced).char_map == rho_big.char_map,
                "universal maps agree through the induced norm",
            )

        record("serre-rho-norm-compat", rho_norm_compat)

    return {
        "field": K.name or "K",
        "max_cm_subfield": E.name or "E",
        "rank_ambient": sg_k.ambient.rank,
        "rank_quotient": sg_k.rank,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Point realization over a cyclotomic model
# ---------------------------------------------------------------------------


def cyclotomic_level(scenario) -> int:
    """Modulus n for scenarios realized on the n-th cyclotomic field.

    n is ``scenario.conductor``, which only `galois.cyclotomic_scenario`
    sets (and `galois.load_scenario` through it); the scenario's name is
    not read.
    """
    if scenario.conductor is None:
        raise ValueError("scenario has no cyclotomic realization")
    return scenario.conductor


def _embedding_exponents(field: FieldHandle):
    order = field.scenario.elements.index
    return tuple(int(min(c, key=order)) for c in field.embeddings)


def _check_in_field(a: CyclotomicElement, field: FieldHandle):
    for h in field.subgroup:
        if a.galois(int(h)) != a:
            raise ValueError("point is not fixed by the field's subgroup")


def realize_on_point(f: TorusMorphism, a: CyclotomicElement):
    """Evaluate a torus morphism on an actual point of the source field.

    The source and target tori must come from fields of one cyclotomic
    scenario; the result is the tuple of values of the image under every
    target embedding, each an exact cyclotomic number.  No library path
    calls it outside the reference `symplectic.gsp_realization`: it is a
    test oracle for the integer realization in `cmforge.arith`.
    """
    n = cyclotomic_level(f.source.scenario)
    src = [int(min(c, key=f.source.scenario.elements.index)) for c in f.source.basis_labels]
    if a.n != n:
        raise ValueError("point lives at the wrong cyclotomic level")
    m = f.char_map
    values = []
    conjugates = [a.galois(j) for j in src]
    for k in range(m.cols):
        acc = CyclotomicElement.one(n)
        for i in range(m.rows):
            e = m[i, k]
            if e:
                acc = acc * conjugates[i] ** e
        values.append(acc)
    return tuple(values)


def embed_under_all(field: FieldHandle, x: CyclotomicElement):
    """The tuple (rho(x)) over all embeddings of the field, in the realization."""
    cyclotomic_level(field.scenario)  # refuses scenarios without a cyclotomic model
    _check_in_field(x, field)
    return tuple(x.galois(j) for j in _embedding_exponents(field))


def reflex_determinant_oracle(t: CMType, a: CyclotomicElement) -> CyclotomicElement:
    """Determinant of multiplication by a on the reflex module.

    The module is the direct sum over phi of copies of the realization
    field, with the CM field acting on the phi-component through phi and
    the reflex field acting by plain multiplication.  A vector of the
    phi-component has coordinate phi^{-1}(vector), so in the basis of one
    vector per component the matrix of a is diagonal by construction, with
    entry phi^{-1}(a) on the phi-component, and its determinant is the
    product of those entries.  This uses Galois arithmetic only, never the
    character-lattice solve.  It is a test oracle for the reflex norm: no
    library path calls it.
    """
    E = t.field
    s = E.scenario
    n = cyclotomic_level(s)
    if E.subgroup != frozenset({s.identity}):
        raise ValueError("determinant oracle needs the fully realized field")
    estar = reflex_field(t)
    _check_in_field(a, estar)
    exponents = _embedding_exponents(E)
    det = CyclotomicElement.one(n)
    for f in t.phi:
        det = det * a.galois(pow(exponents[E.embedding_index(f)], -1, n))
    return det
