"""Character-lattice tori: norms, duals, products, quotients, subtori."""

import pytest

from cmforge.galois import builtin_scenario
import random

from cmforge.lattice import GModuleLattice, IntMatrix, smith_normal_form
from cmforge.tori import (
    Cocharacter,
    Torus,
    TorusMorphism,
    mu_tau,
    norm_morphism,
    quotient_torus,
    torus_of_field,
)


@pytest.fixture
def qi():
    return builtin_scenario("qi")


@pytest.fixture
def z5():
    return builtin_scenario("zeta5")


@pytest.fixture
def c2s3():
    return builtin_scenario("c2xs3")


def test_rational_torus_is_trivial_gm(qi):
    t = torus_of_field(qi.rational_field())
    assert t.rank == 1
    for g in qi.elements:
        assert t.act(g) == IntMatrix.identity(1)


def test_gaussian_torus_action_swaps_embeddings(qi):
    k = qi.ambient_field()
    t = torus_of_field(k)
    assert t.rank == 2
    iota = t.act(qi.iota)
    assert iota == IntMatrix([[0, 1], [1, 0]])
    assert t.act(qi.identity) == IntMatrix.identity(2)


def test_degree_six_torus_rank(c2s3):
    t = torus_of_field(c2s3.named("Q(i,2^(1/3))"))
    assert t.rank == 6
    for g in c2s3.elements:
        m = t.act(g)
        assert m.is_unimodular()
        assert all(sum(m[i, j] for i in range(6)) == 1 for j in range(6))


def test_norm_to_rationals_sums_all_embeddings(z5):
    k = z5.ambient_field()
    n = norm_morphism(k, z5.rational_field())
    # the unique rational embedding pulls back to the sum of all of K's
    assert n.pull_character((1,)) == (1, 1, 1, 1)


def test_norm_of_field_to_itself_is_identity(z5):
    k = z5.ambient_field()
    n = norm_morphism(k, k)
    assert n.char_map == IntMatrix.identity(4)


def test_norm_fibers_have_constant_size(c2s3):
    k = c2s3.named("Q(i,2^(1/3))")
    e = c2s3.named("Q(i)")
    n = norm_morphism(k, e)
    for j in range(2):
        char = [1 if i == j else 0 for i in range(2)]
        pulled = n.pull_character(char)
        assert sum(pulled) == 3  # [K : Q(i)] extensions of each embedding


def test_norm_tower_functoriality(c2s3):
    k = c2s3.ambient_field()
    e = c2s3.named("Q(i)")
    q = c2s3.rational_field()
    via_e = norm_morphism(e, q).compose(norm_morphism(k, e))
    direct = norm_morphism(k, q)
    assert via_e.char_map == direct.char_map


def test_equivariance_rejected_for_bad_map(qi):
    k = qi.ambient_field()
    t = torus_of_field(k)
    with pytest.raises(ValueError, match="equivariant"):
        TorusMorphism(t, t, IntMatrix([[1, 0], [0, 2]]))


def test_mu_tau_pairing_reads_off_tau_coefficient(z5):
    k = z5.ambient_field()
    mu = mu_tau(k)
    assert mu.pair((7, -3, 2, 5)) == 7
    other = mu_tau(k, k.embeddings[2])
    assert other.pair((7, -3, 2, 5)) == 2


def test_mu_tau_field_of_definition_is_the_field_itself(z5):
    k = z5.ambient_field()
    mu = mu_tau(k)
    assert mu.field_of_definition().subgroup == k.subgroup


def test_mu_tau_field_of_definition_through_a_subfield(c2s3):
    # on T^{Q(i)} the dual cocharacter at tau is defined over Q(i), whose
    # stabilizer inside the degree-12 group is the full subgroup.
    e = c2s3.named("Q(i)")
    mu = mu_tau(e)
    assert mu.field_of_definition().subgroup == e.subgroup


def test_cocharacter_translation_is_a_left_action(z5):
    k = z5.ambient_field()
    mu = mu_tau(k)
    s = z5
    for g in s.elements:
        for h in s.elements:
            lhs = mu.translate(h).translate(g)
            rhs = mu.translate(s.multiply(g, h))
            assert lhs == rhs


def test_cocharacter_translation_permutes_dual_basis(qi):
    k = qi.ambient_field()
    mu = mu_tau(k)
    moved = mu.translate(qi.iota)
    assert moved.vector == (0, 1)


def test_torus_of_field_is_memoised_on_its_scenario():
    d4 = builtin_scenario("d4")
    E = d4.named("E")
    t = torus_of_field(E)
    assert torus_of_field(d4.named("E")).lattice is t.lattice
    fresh = torus_of_field(builtin_scenario("d4").named("E"))
    assert fresh.lattice is not t.lattice
    assert fresh.basis_labels == t.basis_labels
    assert fresh.lattice.action == t.lattice.action
    # one subgroup under two names: one lattice, each torus under its own name
    renamed = torus_of_field(d4.field(E.subgroup, name="E'"))
    assert renamed.lattice is t.lattice
    assert (t.name, renamed.name) == ("T^E", "T^E'")
    assert renamed == t


def test_quotient_by_diagonal_character(qi):
    k = qi.ambient_field()
    t = torus_of_field(k)
    sub = IntMatrix([[1, 1]])  # the norm character, Galois-fixed
    q, proj = quotient_torus(t, sub)
    assert q.rank == 1
    assert proj.pull_character((1,)) == (1, 1)
    for g in qi.elements:
        assert q.act(g) == IntMatrix.identity(1)


def test_quotient_rejects_non_saturated_sublattice(qi):
    t = torus_of_field(qi.ambient_field())
    with pytest.raises(ValueError, match="saturated"):
        quotient_torus(t, IntMatrix([[2, 2]]))


def test_quotient_rejects_unstable_sublattice(z5):
    t = torus_of_field(z5.ambient_field())
    with pytest.raises(ValueError, match="stable"):
        quotient_torus(t, IntMatrix([[1, 0, 0, 0]]))


def smith_factors(char_map):
    """The nonzero Smith diagonal of the transposed character map, whose row
    span is the characters pulled back from the target."""
    _, d, _ = smith_normal_form(char_map.transpose())
    return [x for x in (d[i, i] for i in range(min(d.rows, d.cols))) if x]


def smith_injective(char_map):
    """Reference for `is_injective`: the pulled-back characters fill
    X^*(source) exactly when every invariant factor is 1 and the rank is
    the source rank."""
    factors = smith_factors(char_map)
    return all(x == 1 for x in factors) and len(factors) == char_map.rows


def test_injectivity_matches_smith_diagonal_randomized(qi):
    """Random character maps between tori with the trivial action, so every
    map is equivariant: empty sources and targets, rank-deficient maps built
    through a narrow inner dimension, and full-rank maps of index above 1."""
    rng = random.Random(41)

    def trivial_torus(rank):
        lattice = GModuleLattice(rank, {g: IntMatrix.identity(rank) for g in qi.elements})
        return Torus(qi, lattice, tuple(range(rank)))

    seen = set()
    for trial in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        if trial % 3 == 0 and rows and cols:  # rank deficient through a narrow middle
            inner = rng.randint(1, min(rows, cols)) - 1
            a = IntMatrix([[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)])
            b = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)])
            char_map = a * b if inner else IntMatrix.zero(rows, cols)
        elif rows:
            char_map = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        else:
            char_map = IntMatrix.zero(0, cols)
        phi = TorusMorphism(trivial_torus(rows), trivial_torus(cols), char_map)
        assert phi.is_injective() is smith_injective(char_map), char_map
        factors = smith_factors(char_map)
        if not rows:
            seen.add("empty source")
        elif not cols:
            seen.add("empty target")
        elif len(factors) < rows:
            seen.add("rank deficient")
        elif any(x > 1 for x in factors):
            seen.add("full rank, index above 1")
        else:
            seen.add("injective")
    assert seen == {"empty source", "empty target", "rank deficient",
                    "full rank, index above 1", "injective"}


def test_injectivity_matches_cokernel_triviality(qi, z5):
    k5 = z5.ambient_field()
    n = norm_morphism(k5, z5.rational_field())
    # the norm T^K -> T^Q = Gm is surjective but far from injective
    assert not n.is_injective()
    assert n.is_surjective()
    assert n.is_injective() is smith_injective(n.char_map)
    t = torus_of_field(qi.ambient_field())
    identity = TorusMorphism(t, t, IntMatrix.identity(t.rank))
    assert identity.is_injective()
    assert identity.is_surjective()
    assert smith_injective(identity.char_map)


def test_morphism_composition_identity_laws(z5):
    k = z5.ambient_field()
    n = norm_morphism(k, z5.rational_field())
    assert n.compose(TorusMorphism(n.source, n.source, IntMatrix.identity(n.source.rank))) == n
    assert TorusMorphism(n.target, n.target, IntMatrix.identity(n.target.rank)).compose(n) == n


def test_cocharacter_pushforward_along_norm(c2s3):
    # mu_tau on T^K pushes to mu at the restricted embedding on T^{Q(i)}.
    k = c2s3.named("Q(i,2^(1/3))")
    e = c2s3.named("Q(i)")
    n = norm_morphism(k, e)
    pushed = n.push_cocharacter(mu_tau(k))
    assert pushed == mu_tau(e)
    total = sum(
        n.push_cocharacter(mu_tau(k, emb)).vector[0] for emb in k.embeddings
    )
    assert total == 3  # three K-embeddings restrict to each Q(i)-embedding
