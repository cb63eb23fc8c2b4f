"""Algebraic tori of multiplicative type as Galois lattices.

A torus here is nothing but its character lattice: a free Z-module with an
action of the scenario group by unimodular matrices.  Morphisms go the other
way round (a map of tori A -> B is a Galois-equivariant map
X^*(B) -> X^*(A)), products are direct sums, quotients of tori are saturated
sublattices of characters and subtori are quotient lattices.  Points over
rings are deliberately absent; whenever the package needs actual points it
works inside an explicit matrix or cyclotomic realization elsewhere.

Conventions (fixed once, used everywhere):
 - characters are integer coefficient columns over the embedding basis;
 - the Galois action on characters is act(sigma) acting from the left, with
   act(sigma·tau) = act(sigma)·act(tau);
 - cocharacters are integer rows; the pairing is row·column; the Galois
   action on cocharacters is chi ↦ chi·act(sigma^{-1}).
"""

from __future__ import annotations

from .galois import FieldHandle, GaloisScenario
from .lattice import (
    GModuleLattice,
    IntMatrix,
    RowSpan,
    cokernel,
    hermite_normal_form,
)


class Torus:
    """Torus of multiplicative type given by its character lattice."""

    def __init__(self, scenario: GaloisScenario, lattice: GModuleLattice, basis_labels, name=""):
        if set(lattice.elements) != set(scenario.elements):
            raise ValueError("action must be defined for every scenario element")
        if len(basis_labels) != lattice.rank:
            raise ValueError("one label per basis character")
        self.scenario = scenario
        self.lattice = lattice
        self.basis_labels = tuple(basis_labels)
        self.name = name

    @property
    def rank(self):
        return self.lattice.rank

    def act(self, g) -> IntMatrix:
        return self.lattice.act(g)

    def act_cocharacter(self, g, vector):
        return self.act(self.scenario.inverse(g)).act_on_row(vector)

    def __eq__(self, other):
        return (
            isinstance(other, Torus)
            and self.scenario is other.scenario
            and self.basis_labels == other.basis_labels
            and self.lattice.action == other.lattice.action
        )

    def __hash__(self):
        return hash((id(self.scenario), self.basis_labels, self.rank))

    def __repr__(self):
        return f"Torus({self.name or self.rank})"


class TorusMorphism:
    """Morphism of tori recorded contravariantly on characters.

    ``char_map`` sends X^*(target) to X^*(source); its shape is
    (source.rank, target.rank).  Equivariance against both actions is
    checked over the whole (finite) scenario group at construction.
    """

    def __init__(self, source: Torus, target: Torus, char_map: IntMatrix, name=""):
        if source.scenario is not target.scenario:
            raise ValueError("tori live in different scenarios")
        if not isinstance(char_map, IntMatrix):
            char_map = IntMatrix(char_map)
        if char_map.rows != source.rank or char_map.cols != target.rank:
            raise ValueError(
                f"char_map must be {source.rank}x{target.rank}, got {char_map.rows}x{char_map.cols}"
            )
        for g in source.scenario.elements:
            if source.act(g) * char_map != char_map * target.act(g):
                raise ValueError(f"character map is not Galois-equivariant at {g!r}")
        self.source = source
        self.target = target
        self.char_map = char_map
        self.name = name

    def compose(self, other: "TorusMorphism") -> "TorusMorphism":
        """self ∘ other (apply ``other`` first)."""
        if other.target != self.source:
            raise ValueError("morphisms not composable")
        return TorusMorphism(
            other.source,
            self.target,
            other.char_map * self.char_map,
            name=f"{self.name}∘{other.name}" if self.name or other.name else "",
        )

    def pull_character(self, char):
        """Image of a target character in X^*(source)."""
        return self.char_map.apply(char)

    def push_cocharacter(self, chi: "Cocharacter") -> "Cocharacter":
        if chi.torus != self.source:
            raise ValueError("cocharacter lives on a different torus")
        return Cocharacter(self.target, self.char_map.act_on_row(chi.vector))

    def is_injective(self) -> bool:
        """Injectivity of the torus morphism = surjectivity on characters."""
        return cokernel(self.char_map.transpose()).is_trivial()

    def is_surjective(self) -> bool:
        """Surjectivity of the torus map = injectivity on characters."""
        return matrix_rank(self.char_map) == self.char_map.cols

    def __eq__(self, other):
        return (
            isinstance(other, TorusMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.char_map == other.char_map
        )

    def __repr__(self):
        return f"TorusMorphism({self.name or (self.source, self.target)})"


def matrix_rank(m: IntMatrix) -> int:
    """Rank of an integer matrix: the number of nonzero rows of its HNF."""
    h, _ = hermite_normal_form(m)
    return sum(1 for row in h.entries if any(row))


def identity_morphism(t: Torus) -> TorusMorphism:
    return TorusMorphism(t, t, IntMatrix.identity(t.rank), name="id")


class Cocharacter:
    """Integer row in X_*(T) with its field of definition."""

    def __init__(self, torus: Torus, vector):
        vector = tuple(int(x) for x in vector)
        if len(vector) != torus.rank:
            raise ValueError("cocharacter length mismatch")
        self.torus = torus
        self.vector = vector

    def pair(self, char) -> int:
        """The canonical pairing with a character coefficient column."""
        if len(char) != len(self.vector):
            raise ValueError("length mismatch")
        return sum(a * b for a, b in zip(self.vector, char))

    def translate(self, g) -> "Cocharacter":
        return Cocharacter(self.torus, self.torus.act_cocharacter(g, self.vector))

    def stabilizer(self):
        return frozenset(
            g
            for g in self.torus.scenario.elements
            if self.torus.act_cocharacter(g, self.vector) == self.vector
        )

    def field_of_definition(self) -> FieldHandle:
        return FieldHandle(self.torus.scenario, self.stabilizer())

    def __eq__(self, other):
        return (
            isinstance(other, Cocharacter)
            and self.torus == other.torus
            and self.vector == other.vector
        )

    def __repr__(self):
        return f"Cocharacter({self.vector})"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def torus_of_field(K: FieldHandle) -> Torus:
    """The norm-one-free torus with X^* the free module on embeddings of K.

    The Galois action permutes embeddings by left multiplication:
    act(sigma) has a 1 in row i, column j exactly when sigma sends
    embedding j to embedding i.

    The character lattice is memoised on the scenario, keyed by the field's
    subgroup, and lives as long as the scenario does.  Each call wraps it in
    a Torus named after the handle, so handles of one subgroup under two
    names share the lattice and keep their own names.  The memo holds no
    object that refers back to the scenario, so it makes no reference cycle.
    """
    s = K.scenario
    lattice = s.memo(("torus", K.subgroup), lambda: _permutation_lattice(K))
    return Torus(s, lattice, K.embeddings, name=(K.name and f"T^{K.name}") or "")


def _permutation_lattice(K: FieldHandle) -> GModuleLattice:
    n = K.degree
    action = {}
    for g in K.scenario.elements:
        m = [[0] * n for _ in range(n)]
        for j, coset in enumerate(K.embeddings):
            i = K.embedding_index(K.act(g, coset))
            m[i][j] = 1
        action[g] = IntMatrix(m)
    return GModuleLattice(n, action)


def norm_morphism(L: FieldHandle, K: FieldHandle) -> TorusMorphism:
    """Field norm T^L -> T^K for K ⊆ L.

    On characters a K-embedding goes to the sum of its extensions to L.
    """
    if not L.contains_field(K):
        raise ValueError("norm needs nested fields K ⊆ L")
    tl = torus_of_field(L)
    tk = torus_of_field(K)
    m = [[0] * tk.rank for _ in range(tl.rank)]
    for i, rho_l in enumerate(L.embeddings):
        j = tk.basis_labels.index(L.restrict_embedding(rho_l, K))
        m[i][j] = 1
    return TorusMorphism(tl, tk, IntMatrix(m), name=f"N_{L.name or 'L'}/{K.name or 'K'}")


def mu_tau(K: FieldHandle, tau=None) -> Cocharacter:
    """Dual-basis cocharacter at the distinguished embedding.

    Pairing with Σ n_σ [σ] returns n_tau.  The field of definition is K
    itself embedded through tau.
    """
    t = torus_of_field(K)
    if tau is None:
        tau = K.tau()
    idx = K.embedding_index(tau)
    vec = [0] * t.rank
    vec[idx] = 1
    return Cocharacter(t, vec)


def quotient_torus(t: Torus, char_sublattice: IntMatrix | RowSpan, name=""):
    """Quotient of a torus by the subtorus dual to a character sublattice.

    ``char_sublattice`` rows span a saturated Galois-stable sublattice of
    X^*(t); the quotient torus has that sublattice as its character group
    (in the row basis) and the returned morphism is the projection
    t -> quotient, whose character map is the inclusion.  A `RowSpan` of
    the rows may be passed instead, and its Hermite form is reused.
    """
    span = char_sublattice if isinstance(char_sublattice, RowSpan) else RowSpan(char_sublattice)
    b = span.basis
    if b.cols != t.rank:
        raise ValueError("sublattice lives in the wrong lattice")
    if not span.is_saturated():
        raise ValueError("character sublattice is not saturated")
    action = {}
    for g in t.scenario.elements:
        cols = []
        for i in range(b.rows):
            image = t.act(g).apply(b.row(i))  # sigma of the i-th basis row
            coeffs = span.solve(image)
            if coeffs is None:
                raise ValueError(f"sublattice not stable under {g!r}")
            cols.append(coeffs)
        # cols[i] expresses sigma(row_i); as a matrix on columns we need
        # act[.,i] = cols[i].
        action[g] = IntMatrix([[cols[j][i] for j in range(b.rows)] for i in range(b.rows)])
    lattice = GModuleLattice(b.rows, action)
    q = Torus(t.scenario, lattice, tuple(b.entries), name=name)
    proj = TorusMorphism(t, q, b.transpose(), name=f"π→{name}" if name else "π")
    return q, proj


def subtorus_from_char_surjection(t: Torus, surjection: IntMatrix, name="") -> Torus:
    """Subtorus of t whose characters are the given quotient of X^*(t).

    ``surjection`` maps X^*(t) onto Z^k (rows = k); the subtorus has
    character lattice Z^k with the induced action.  The matrix must be
    surjective over Z, otherwise the would-be subtorus is not of
    multiplicative type and the call is rejected.
    """
    k = surjection.rows
    if surjection.cols != t.rank:
        raise ValueError("surjection has wrong source rank")
    if cokernel(surjection.transpose()).invariant_factors != tuple():
        raise ValueError("character map is not surjective over Z")
    span = RowSpan(surjection)
    action = {}
    for g in t.scenario.elements:
        # induced action A_g on Z^k satisfies A_g · S = S · act(sigma).
        rhs = surjection * t.act(g)
        rows = []
        for i in range(k):
            coeffs = span.solve(rhs.row(i))
            if coeffs is None:
                raise ValueError(f"quotient action undefined at {g!r}")
            rows.append(coeffs)
        action[g] = IntMatrix(rows)
    lattice = GModuleLattice(k, action)
    return Torus(t.scenario, lattice, tuple(range(k)), name=name)
