"""Finite combinatorial models of Galois groups over Q.

A scenario is a finite group G (thought of as Gal(L/Q) for a normal closure
L), a distinguished involution iota playing complex conjugation, and a
catalogue of named subgroups.  A number field K inside L is just a subgroup
H = Gal(L/K); its embeddings into the algebraic numbers are the left cosets
gH, permuted by left multiplication.  Everything downstream (character
lattices, CM types, Serre groups) consumes this data and nothing else, so
the whole Galois layer stays exact and enumerable.

Builtins: cyclotomic scenarios (G = (Z/n)^x, iota = class of -1), a C2xS3
scenario whose degree-6 field has a unique imaginary quadratic subfield, and
a D4 scenario containing a non-Galois CM quartic.
"""

from __future__ import annotations

from math import gcd


class GaloisScenario:
    """Finite group with involution and named subgroups.

    ``table`` maps pairs of element labels to product labels.  Element
    labels are strings; ``named_fields`` maps field names to subgroups
    (frozensets of labels).  The ambient field L corresponds to the trivial
    subgroup and Q to the full group.  ``conductor`` is n on the scenario of
    the n-th cyclotomic field, set by `cyclotomic_scenario` alone, and None
    on every other scenario; the name is only a label.

    Data derived from a field of the scenario alone (the character lattice
    of its torus, its Serre sublattice and the subgroup of its maximal CM
    subfield) is memoised on the scenario through `memo`: each value is
    built once and lives exactly as long as the scenario does.
    """

    def __init__(self, elements, table, iota, named_fields=None, name=""):
        self.elements = tuple(elements)
        self.name = name
        self.conductor = None
        self._memo = {}
        self._index = {g: i for i, g in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate element labels")
        self._table = dict(table)
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self._table:
                    raise ValueError(f"incomplete multiplication table at ({a!r}, {b!r})")
        self.identity = self._find_identity()
        self._inverse = {}
        for g in self.elements:
            for h in self.elements:
                if self._table[g, h] == self.identity:
                    self._inverse[g] = h
                    break
            else:
                raise ValueError(f"no inverse for {g!r}")
        if not self._is_associative_sample():
            raise ValueError("multiplication table is not associative")
        if iota not in self._index:
            raise ValueError("iota is not a group element")
        if self.multiply(iota, iota) != self.identity:
            raise ValueError("iota must square to the identity")
        self.iota = iota
        self.named_fields = {}
        named_fields = named_fields or {}
        for fname, sub in named_fields.items():
            self.named_fields[fname] = self._validated_subgroup(sub)

    # -- construction helpers ----------------------------------------------

    def _find_identity(self):
        for e in self.elements:
            if all(self._table[e, g] == g and self._table[g, e] == g for g in self.elements):
                return e
        raise ValueError("no identity element")

    def _is_associative_sample(self):
        # Full check is cubic; our groups are tiny (order <= 60), so do it.
        t = self._table
        return all(
            t[t[a, b], c] == t[a, t[b, c]]
            for a in self.elements
            for b in self.elements
            for c in self.elements
        )

    def _validated_subgroup(self, sub):
        sub = frozenset(sub)
        unknown = sub - set(self.elements)
        if unknown:
            raise ValueError(f"unknown elements in subgroup: {sorted(unknown)}")
        if self.identity not in sub:
            raise ValueError("subgroup misses the identity")
        for a in sub:
            for b in sub:
                if self._table[a, b] not in sub:
                    raise ValueError("set is not closed under multiplication")
        return sub

    # -- group protocol ------------------------------------------------------

    @property
    def order(self):
        return len(self.elements)

    def multiply(self, a, b):
        return self._table[a, b]

    def inverse(self, a):
        return self._inverse[a]

    def is_abelian(self):
        return all(
            self._table[a, b] == self._table[b, a] for a in self.elements for b in self.elements
        )

    def subgroup_generated(self, gens):
        current = {self.identity, *gens}
        while True:
            new = {self._table[a, b] for a in current for b in current}
            new |= {self._inverse[a] for a in current}
            if new <= current:
                return frozenset(current)
            current |= new

    def subgroups_containing(self, base):
        """All subgroups of G containing ``base``, by closure search."""
        base = self.subgroup_generated(base)
        found = {base}
        frontier = [base]
        while frontier:
            sub = frontier.pop()
            for g in self.elements:
                if g in sub:
                    continue
                bigger = self.subgroup_generated(sub | {g})
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return sorted(found, key=lambda s: (len(s), sorted(self._index[g] for g in s)))

    def memo(self, key, build):
        """The value of ``build()`` memoised on this scenario under ``key``.

        Callers key by the field's subgroup, plus whatever else the value
        depends on.  A value is kept for the lifetime of the scenario.  No
        value may refer back to the scenario (a torus, a field handle): the
        reference cycle would leave each dropped scenario to the cyclic
        garbage collector instead of freeing it with its last reference.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    # -- fields ---------------------------------------------------------------

    def field(self, subgroup, name=None) -> "FieldHandle":
        return FieldHandle(self, self._validated_subgroup(subgroup), name)

    def named(self, name) -> "FieldHandle":
        if name not in self.named_fields:
            raise KeyError(f"no field named {name!r}; have {sorted(self.named_fields)}")
        return FieldHandle(self, self.named_fields[name], name)

    def ambient_field(self) -> "FieldHandle":
        return self.field({self.identity}, name=self.name or "L")

    def rational_field(self) -> "FieldHandle":
        return self.field(set(self.elements), name="Q")

    def coset(self, g, subgroup):
        return frozenset(self._table[g, h] for h in subgroup)

    def coset_key(self, coset):
        return min(self._index[g] for g in coset)


class FieldHandle:
    """A field inside a scenario: the subgroup fixing it.

    ``embeddings`` lists the left cosets gH in a deterministic order (by
    smallest element index), starting with the coset of the identity, which
    plays the role of the distinguished embedding tau unless a caller picks
    another one.
    """

    def __init__(self, scenario: GaloisScenario, subgroup, name=None):
        self.scenario = scenario
        self.subgroup = frozenset(subgroup)
        self.name = name
        seen = {}
        for g in scenario.elements:
            c = scenario.coset(g, self.subgroup)
            key = scenario.coset_key(c)
            if key not in seen:
                seen[key] = c
        self.embeddings = tuple(c for _, c in sorted(seen.items()))
        self._embedding_index = {c: i for i, c in enumerate(self.embeddings)}

    @property
    def degree(self):
        return len(self.embeddings)

    def __eq__(self, other):
        return (
            isinstance(other, FieldHandle)
            and self.scenario is other.scenario
            and self.subgroup == other.subgroup
        )

    def __hash__(self):
        return hash((id(self.scenario), self.subgroup))

    def __repr__(self):
        label = self.name or f"degree-{self.degree} field"
        return f"FieldHandle({label})"

    def embedding_index(self, coset):
        return self._embedding_index[frozenset(coset)]

    def act(self, g, coset):
        """Left Galois action on an embedding coset."""
        s = self.scenario
        return frozenset(s.multiply(g, x) for x in coset)

    def tau(self):
        """The distinguished embedding: the coset of the identity."""
        return self.scenario.coset(self.scenario.identity, self.subgroup)

    def contains_field(self, other: "FieldHandle"):
        """True when ``other`` is a subfield of self (H_self <= H_other)."""
        return self.subgroup <= other.subgroup

    def restrict_embedding(self, coset, subfield: "FieldHandle"):
        """Restriction of an embedding of self to a subfield."""
        if not self.contains_field(subfield):
            raise ValueError("not a subfield")
        g = next(iter(coset))
        return self.scenario.coset(g, subfield.subgroup)

    def compositum(self, other: "FieldHandle") -> "FieldHandle":
        if self.scenario is not other.scenario:
            raise ValueError("handles from different scenarios")
        return FieldHandle(self.scenario, self.subgroup & other.subgroup)

    def field_intersection(self, other: "FieldHandle") -> "FieldHandle":
        if self.scenario is not other.scenario:
            raise ValueError("handles from different scenarios")
        return FieldHandle(
            self.scenario, self.scenario.subgroup_generated(self.subgroup | other.subgroup)
        )


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def real_embeddings(K: FieldHandle):
    """Embeddings fixed by complex conjugation (iota-stable cosets)."""
    s = K.scenario
    return [c for c in K.embeddings if K.act(s.iota, c) == c]


def is_totally_real(K: FieldHandle) -> bool:
    """Every embedding of K lands in the reals.

    Equivalent formulation on subgroups: g^{-1}·iota·g lies in H for every
    g in G.
    """
    s = K.scenario
    return all(
        s.multiply(s.multiply(s.inverse(g), s.iota), g) in K.subgroup for g in s.elements
    )


def is_totally_imaginary(K: FieldHandle) -> bool:
    return not real_embeddings(K)


def is_cm(K: FieldHandle):
    """CM test: totally imaginary with a globally consistent conjugation.

    Returns (True, c) where c is the canonical representative of the coset
    cH with iota·g·H = g·c·H for every g, or (False, None).  The element c
    then induces a well-defined automorphism of K of order 2 commuting with
    every embedding into C.
    """
    s = K.scenario
    if not is_totally_imaginary(K):
        return False, None
    candidates = None
    for g in s.elements:
        # iota·g·H = g·c·H  <=>  c in g^{-1}·iota·g·H
        base = s.multiply(s.multiply(s.inverse(g), s.iota), g)
        coset = {s.multiply(base, h) for h in K.subgroup}
        candidates = coset if candidates is None else candidates & coset
        if not candidates:
            return False, None
    c = min(candidates, key=lambda x: s._index[x])
    return True, c


def maximal_cm_subfield(K: FieldHandle) -> FieldHandle:
    """The largest CM field inside K; error when there is none.

    Subfields of K are subgroups containing H; a larger subgroup means a
    smaller field, so we want the unique minimal CM subgroup over H.  The
    uniqueness claimed by the theory is asserted, not assumed.  The subgroup
    found, or its absence, is memoised on the scenario.
    """
    s = K.scenario
    found = s.memo(("max-cm", K.subgroup), lambda: _minimal_cm_subgroup(K))
    if found is None:
        raise ValueError("no CM subfield")
    name = None
    for fname, sub in s.named_fields.items():
        if sub == found:
            name = fname
    return FieldHandle(s, found, name)


def _minimal_cm_subgroup(K: FieldHandle):
    s = K.scenario
    cm_subgroups = [
        sub for sub in s.subgroups_containing(K.subgroup) if is_cm(FieldHandle(s, sub))[0]
    ]
    if not cm_subgroups:
        return None
    minimal = [
        sub for sub in cm_subgroups if not any(other < sub for other in cm_subgroups)
    ]
    if len(minimal) != 1:
        raise AssertionError(
            f"maximal CM subfield is not unique: {len(minimal)} minimal CM subgroups"
        )
    return minimal[0]


def maximal_totally_real_subfield(E: FieldHandle) -> FieldHandle:
    """For a CM field: the index-2 totally real subfield fixed by conjugation."""
    ok, c = is_cm(E)
    if not ok:
        raise ValueError("maximal_totally_real_subfield needs a CM field")
    s = E.scenario
    sub = s.subgroup_generated(E.subgroup | {c})
    F = FieldHandle(s, sub)
    if not is_totally_real(F):
        raise AssertionError("conjugation-fixed field is not totally real")
    if E.degree != 2 * F.degree:
        raise AssertionError("conjugation-fixed field does not have index 2")
    return F


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------


def cyclotomic_scenario(n: int) -> GaloisScenario:
    """The abelian scenario of the n-th cyclotomic field, n >= 3.

    G = (Z/n)^x acting on roots of unity by exponentiation; iota is the
    class of -1.  Subfield handles are built by the caller from subgroups.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    elements = [str(k) for k in units]
    table = {
        (str(a), str(b)): str(a * b % n) for a in units for b in units
    }
    named = {
        f"Q(zeta_{n})": frozenset({"1"}),
        "Q": frozenset(elements),
    }
    scenario = GaloisScenario(elements, table, str(n - 1), named, name=f"cyclotomic-{n}")
    scenario.conductor = n
    return scenario


def c2_s3_scenario() -> GaloisScenario:
    """Degree-12 scenario for the sextic field generated by i and 2^(1/3).

    The group is C2 x S3: the C2 part acts on i, the S3 part permutes the
    cube roots of 2 (r cycles them, s is the conjugation fixing the real
    root and inverting the cube root of unity).  Complex conjugation is the
    pair (flip i, s).  Element labels: "1", "r", "r2", "s", "rs", "r2s"
    with a "c" prefix for the nontrivial C2 part.
    """

    def encode(eps, k, m):
        word = ("r" * (k == 1)) + ("r2" * (k == 2)) + ("s" * m)
        return ("c" + word) if eps else (word or "1")

    def mul(x, y):
        (e1, k1, m1), (e2, k2, m2) = x, y
        # s r = r^2 s  in S3, so moving r^k2 past s^m1 inverts it when m1 = 1
        k = (k1 + (k2 if m1 == 0 else -k2)) % 3
        return ((e1 + e2) % 2, k, (m1 + m2) % 2)

    triples = [(e, k, m) for e in (0, 1) for k in (0, 1, 2) for m in (0, 1)]
    elements = [encode(*t) for t in triples]
    table = {
        (encode(*x), encode(*y)): encode(*mul(x, y)) for x in triples for y in triples
    }
    named = {
        "L": frozenset({"1"}),
        "Q(i,2^(1/3))": frozenset({"1", "s"}),
        "Q(i)": frozenset({"1", "r", "r2", "s", "rs", "r2s"}),
        "Q(2^(1/3))": frozenset({"1", "s", "c", "cs"}),
        "Q": frozenset(elements),
    }
    return GaloisScenario(elements, table, "cs", named, name="c2xs3")


def d4_scenario() -> GaloisScenario:
    """D4 scenario of the splitting field of x^4 + 6x^2 + 2.

    The quartic generated by a root sqrt(-3 + sqrt(7)) is totally imaginary
    with totally real quadratic subfield Q(sqrt(7)); its Galois closure has
    group D4 = <r, s> with s r s = r^3 and complex conjugation the central
    rotation r^2.  The quartic itself is the fixed field of <s> and is not
    normal, which makes this the minimal scenario exercising non-Galois CM
    behaviour.
    """

    def encode(k, m):
        return ("r" + str(k) if k > 1 else "r" * k) + "s" * m or "1"

    def mul(x, y):
        (k1, m1), (k2, m2) = x, y
        k = (k1 + (k2 if m1 == 0 else -k2)) % 4
        return (k, (m1 + m2) % 2)

    pairs = [(k, m) for k in range(4) for m in range(2)]
    elements = [encode(*p) for p in pairs]
    table = {(encode(*x), encode(*y)): encode(*mul(x, y)) for x in pairs for y in pairs}
    named = {
        "L": frozenset({"1"}),
        "E": frozenset({"1", "s"}),
        "Q(sqrt7)": frozenset({"1", "s", "r2", "r2s"}),
        "Q": frozenset(elements),
    }
    return GaloisScenario(elements, table, "r2", named, name="d4-quartic")


BUILTIN_SCENARIOS = {
    "qi": lambda: cyclotomic_scenario(4),
    "zeta5": lambda: cyclotomic_scenario(5),
    "qzeta5": lambda: cyclotomic_scenario(5),
    "c2xs3": c2_s3_scenario,
    "qi-cbrt2": c2_s3_scenario,
    "d4": d4_scenario,
}


def builtin_scenario(key: str) -> GaloisScenario:
    if key.startswith("cyclotomic-"):
        return cyclotomic_scenario(int(key.split("-", 1)[1]))
    if key not in BUILTIN_SCENARIOS:
        raise KeyError(f"unknown builtin scenario {key!r}")
    return BUILTIN_SCENARIOS[key]()
