"""Trace pairings, similitude groups, character maps, and adelic factorization."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from cmforge.cyclotomic import CyclotomicElement
from cmforge.galois import builtin_scenario
from cmforge.symplectic import (
    AdelicGSp,
    GSpElement,
    build_cm_point,
    build_symplectic_space,
    character_map_report,
    decompose_gsp,
    element_from_embedding_values,
    eta_morphism,
    fixed_integral_basis,
    gsp_realization,
    integral_symplectic_basis,
    phi_explicit,
    phi_morphism,
    sample_adelic_gsp,
    sample_integral_symplectic,
    sample_local_similitude,
    standard_j,
    totally_imaginary_generator,
)


@pytest.fixture(scope="module")
def qi_field():
    return builtin_scenario("qi").ambient_field()


@pytest.fixture(scope="module")
def z5_field():
    return builtin_scenario("zeta5").ambient_field()


def zi(a, b):
    """The Gaussian number a + b·i as an exact cyclotomic element."""
    return CyclotomicElement.from_rational(4, a) + CyclotomicElement.zeta(4, 1) * b


def frozen(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# -- Imaginary generators and pairing matrices --------------------------------


def test_gaussian_generator_and_gram(qi_field):
    basis = fixed_integral_basis(qi_field)
    assert [b.coeffs for b in basis] == [(1, 0), (0, 1)]
    xi = totally_imaginary_generator(qi_field)
    assert xi.coeffs == (0, 2)  # the search finds zeta - zeta^{-1} = 2i
    space = build_symplectic_space([qi_field])
    assert space.gram == frozen([[0, 4], [-4, 0]])


def test_gaussian_custom_generator_gives_standard_form(qi_field):
    i_half = CyclotomicElement.zeta(4, 1) * Fraction(1, 2)
    space = build_symplectic_space([qi_field], generators=[i_half])
    assert space.gram == standard_j(1)


def test_generator_must_be_totally_imaginary(qi_field):
    with pytest.raises((ValueError, AssertionError)):
        build_symplectic_space([qi_field], generators=[CyclotomicElement.one(4)])


def test_zeta5_generator_and_gram(z5_field):
    xi = totally_imaginary_generator(z5_field)
    assert xi.coeffs == (1, 2, 1, 1)  # zeta - zeta^{-1} in the power basis
    space = build_symplectic_space([z5_field])
    assert space.gram == frozen(
        [
            [0, 5, 0, 0],
            [-5, 0, 5, 0],
            [0, -5, 0, 5],
            [0, 0, -5, 0],
        ]
    )


def test_pairing_is_alternating_and_conjugate_twisted(z5_field):
    space = build_symplectic_space([z5_field])
    rng = random.Random(5)
    for _ in range(20):
        x = [Fraction(rng.randint(-6, 6)) for _ in range(4)]
        y = [Fraction(rng.randint(-6, 6)) for _ in range(4)]
        assert space.psi(x, y) == -space.psi(y, x)
        assert space.psi(x, x) == 0


# -- Integral symplectic bases -------------------------------------------------


def test_gaussian_integral_basis(qi_field):
    xi = CyclotomicElement.zeta(4, 1)
    space = build_symplectic_space([qi_field], generators=[xi])
    rescaled, rows = integral_symplectic_basis(space)
    assert rows == frozen([[2, 0], [0, 1]])  # the vectors 2 and i
    assert rescaled.gram == frozen([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
    assert rescaled.summands[0].xi.coeffs == (0, Fraction(1, 4))
    j = standard_j(1)
    for a, x in enumerate(rows):
        for b, y in enumerate(rows):
            assert rescaled.psi(x, y) == j[a][b]


def test_zeta5_integral_basis(z5_field):
    space = build_symplectic_space([z5_field])
    rescaled, rows = integral_symplectic_basis(space)
    assert rows == frozen(
        [
            [5, 0, 0, 0],
            [5, 0, 5, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    )
    j = standard_j(2)
    for a, x in enumerate(rows):
        assert rescaled.in_lattice(x)
        for b, y in enumerate(rows):
            assert rescaled.psi(x, y) == j[a][b]


def test_vectors_of_the_wrong_length_are_refused(qi_field):
    space = build_symplectic_space([qi_field])
    g = GSpElement.identity(space)
    assert g.apply((1, 0)) == (1, 0)
    assert space.in_lattice((1, 0))
    for bad in ((1,), (1, 0, 5), ()):
        for call in (lambda: g.apply(bad), lambda: space.in_lattice(bad),
                     lambda: space.psi(bad, (0, 1)), lambda: space.psi((0, 1), bad)):
            with pytest.raises(ValueError, match="vector length mismatch"):
                call()
    with pytest.raises(ValueError, match="vector length mismatch"):
        space.psi((1, 0, 5), (0, 1, 7))


# -- Similitude matrices --------------------------------------------------------


def test_multiplication_element_frozen(qi_field):
    space = build_symplectic_space([qi_field])
    g = space.multiplication_element([zi(1, 2)])
    assert g.matrix == frozen([[1, -2], [2, 1]])
    assert g.similitude == 5
    assert g.inverse() * g == GSpElement.identity(space)


def test_similitude_rejects_degenerate(qi_field):
    space = build_symplectic_space([qi_field])
    with pytest.raises(ValueError):
        GSpElement(space, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_similitude_rejects_non_multiplier(z5_field):
    space = build_symplectic_space([z5_field])
    rows = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    rows[0][0] = Fraction(2)  # scales one hyperbolic direction, not the form
    with pytest.raises(ValueError):
        GSpElement(space, rows)


def test_form_scaling_identity(qi_field):
    space = build_symplectic_space([qi_field])
    g = space.multiplication_element([zi(2, 3)])
    rng = random.Random(11)
    for _ in range(20):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
        y = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
        assert space.psi(g.apply(x), g.apply(y)) == g.similitude * space.psi(x, y)


def test_generator_list_must_match_the_fields(qi_field):
    i_half = CyclotomicElement.zeta(4, 1) * Fraction(1, 2)
    with pytest.raises(ValueError, match="one generator per field"):
        build_symplectic_space([qi_field, qi_field], generators=[i_half])
    with pytest.raises(ValueError, match="one generator per field"):
        build_symplectic_space([qi_field], generators=[i_half, i_half])


def test_mixed_summands_must_share_multiplier(qi_field):
    space = build_symplectic_space([qi_field, qi_field])
    with pytest.raises(ValueError):
        space.multiplication_element([zi(1, 2), zi(1, 0)])
    g = space.multiplication_element([zi(1, 2), zi(2, 1)])
    assert g.similitude == 5


# -- Character maps of the CM machinery ------------------------------------------


def test_cm_point_gaussian(qi_field):
    point = build_cm_point(qi_field)
    assert point.cm_type.field == qi_field
    assert point.torus.basis_labels == qi_field.embeddings
    assert point.mu.vector == (1, 0)
    assert point.reflex_compositum == qi_field
    assert point.space is not None
    assert point.injection.is_injective()


@pytest.mark.parametrize(
    "key",
    ["cyclotomic-8", "cyclotomic-12", "cyclotomic-15", "cyclotomic-16", "cyclotomic-20", "d4"],
    ids=lambda key: key.removeprefix("cyclotomic-"),
)
def test_cm_point_refuses_fields_no_single_type_serves(key):
    # no single primitive CM type embeds these fields' Serre groups; a point
    # built from several types would live in a product torus, which is not
    # supported
    with pytest.raises(ValueError, match="no single primitive CM type.*not supported"):
        build_cm_point(builtin_scenario(key).ambient_field())


def test_character_map_agreement_same_field(qi_field, z5_field):
    for field in (qi_field, z5_field):
        point = build_cm_point(field)
        report = character_map_report(field, point)
        assert report["all_pass"], report["checks"]


def test_character_map_agreement_sextic_over_gaussian():
    scen = builtin_scenario("c2xs3")
    big = scen.named("Q(i,2^(1/3))")
    point = build_cm_point(scen.named("Q(i)"))
    report = character_map_report(big, point)
    assert report["all_pass"], report["checks"]
    assert report["char_map"] == [
        [1, 0],
        [1, 0],
        [1, 0],
        [0, 1],
        [0, 1],
        [0, 1],
    ]


def test_phi_routes_agree_as_morphisms(z5_field):
    point = build_cm_point(z5_field)
    phi = phi_morphism(z5_field, point)
    assert phi.char_map == phi_explicit(z5_field, point).char_map
    assert phi.char_map == eta_morphism(z5_field, point).char_map


def test_phi_requires_containment(qi_field, z5_field):
    point = build_cm_point(qi_field)
    with pytest.raises(ValueError):
        phi_morphism(z5_field, point)


# -- Realizing the maps on exact points ------------------------------------------


def test_realization_matches_multiplication(qi_field):
    point = build_cm_point(qi_field)
    phi = phi_morphism(qi_field, point)
    g = gsp_realization(point, phi, zi(3, 2))
    assert g.matrix == frozen([[3, -2], [2, 3]])
    assert g.similitude == 13
    assert g == point.space.multiplication_element([zi(3, 2)])
    assert gsp_realization(point, phi, CyclotomicElement.one(4)) == GSpElement.identity(
        point.space
    )


def test_realization_scales_form(z5_field):
    point = build_cm_point(z5_field)
    phi = phi_morphism(z5_field, point)
    x = CyclotomicElement.zeta(5, 1) + CyclotomicElement.from_rational(5, 2)
    g = gsp_realization(point, phi, x)
    assert g.similitude == x.norm() == 11
    rng = random.Random(3)
    for _ in range(10):
        v = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        w = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        assert point.space.psi(g.apply(v), g.apply(w)) == g.similitude * point.space.psi(
            v, w
        )


def test_element_from_embedding_values_roundtrip(z5_field):
    rng = random.Random(7)
    order = z5_field.scenario.elements.index
    exps = [int(min(c, key=order)) for c in z5_field.embeddings]
    for _ in range(10):
        x = CyclotomicElement(5, tuple(Fraction(rng.randint(-4, 4)) for _ in range(4)))
        values = [x.galois(j) for j in exps]
        assert element_from_embedding_values(z5_field, values) == x


def test_element_from_embedding_values_rejects_inconsistent(qi_field):
    with pytest.raises(ValueError):
        element_from_embedding_values(
            qi_field, [CyclotomicElement.zeta(4, 1), CyclotomicElement.zeta(4, 1)]
        )


# -- Adelic elements and rational-integral factorization --------------------------


def standard_space(qi_field):
    i_half = CyclotomicElement.zeta(4, 1) * Fraction(1, 2)
    return build_symplectic_space([qi_field], generators=[i_half])


def test_decompose_identity(qi_field):
    space = standard_space(qi_field)
    f = AdelicGSp(space, {})
    q, gamma = decompose_gsp(f)
    assert q == GSpElement.identity(space)
    assert gamma == f
    assert gamma.is_everywhere_integral()


def test_decompose_frozen_example(qi_field):
    space = standard_space(qi_field)
    f2 = GSpElement(space, [[Fraction(2), 0], [0, Fraction(1)]])
    f = AdelicGSp(space, {2: f2})
    q, gamma = decompose_gsp(f)
    assert q.matrix == frozen([[2, 0], [0, 1]])
    assert q.similitude == 2
    assert gamma.local_at(2) == GSpElement.identity(space)
    assert gamma.tail.matrix == frozen([[Fraction(1, 2), 0], [0, 1]])
    assert gamma.is_everywhere_integral()


def test_decompose_rational_tail(qi_field):
    space = standard_space(qi_field)
    tail = GSpElement(space, [[Fraction(3, 2), 0], [0, Fraction(1, 2)]])
    f = AdelicGSp(space, {5: GSpElement(space, [[Fraction(5), 0], [0, Fraction(1)]])}, tail=tail)
    q, gamma = decompose_gsp(f)
    assert q.similitude > 0
    assert gamma.is_everywhere_integral()
    assert q * gamma.local_at(5) == f.local_at(5)
    assert q * gamma.local_at(7) == tail  # unsupported primes see the tail


def test_integrality_bookkeeping(qi_field):
    space = standard_space(qi_field)
    half = GSpElement(space, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    two = GSpElement(space, [[Fraction(2), 0], [0, Fraction(2)]])
    assert AdelicGSp(space, {2: two}).is_everywhere_integral() is False  # non-unit nu
    assert AdelicGSp(space, {3: half}, tail=half).is_everywhere_integral() is False
    # The tail only matters away from the stored primes, so denominators at a
    # stored prime are harmless while the same tail at a free prime is not.
    assert AdelicGSp(space, {2: GSpElement.identity(space)}, tail=half).is_everywhere_integral() is True
    assert AdelicGSp(space, {3: GSpElement.identity(space)}, tail=half).is_everywhere_integral() is False
    assert AdelicGSp(space, {}).is_everywhere_integral() is True


def test_decompose_random_roundtrip_dim2(qi_field):
    space = standard_space(qi_field)
    rng = random.Random(23)
    for _ in range(12):
        f = sample_adelic_gsp(space, [2, 3, 5], rng)
        q, gamma = decompose_gsp(f)
        assert q.similitude > 0
        assert gamma.is_everywhere_integral()
        assert f == gamma.scale_left(q)


def test_decompose_random_roundtrip_dim4(z5_field):
    space, _ = integral_symplectic_basis(build_symplectic_space([z5_field]))
    rng = random.Random(29)
    for _ in range(6):
        f = sample_adelic_gsp(space, [2, 3], rng, max_val=2, steps=1)
        q, gamma = decompose_gsp(f)
        assert q.similitude > 0
        assert gamma.is_everywhere_integral()
        assert f == gamma.scale_left(q)


def test_decompose_ambiguity_is_integral_unit(qi_field):
    # Right-translating by an integral multiplier-one element moves f inside
    # its coset, so the two rational parts may differ only by such an element.
    space = standard_space(qi_field)
    rng = random.Random(19)
    for _ in range(8):
        f = sample_adelic_gsp(space, [2, 3, 5], rng)
        q1, _ = decompose_gsp(f)
        g0 = sample_integral_symplectic(space, rng)
        shifted = AdelicGSp(
            space,
            {p: f.local_at(p) * g0 for p in f.support},
            tail=f.tail * g0,
        )
        q2, _ = decompose_gsp(shifted)
        delta = q1.inverse() * q2
        assert delta.similitude == 1
        assert all(x.denominator == 1 for row in delta.matrix for x in row)
        inv = delta.inverse()
        assert all(x.denominator == 1 for row in inv.matrix for x in row)


@pytest.fixture(scope="module")
def decompose_spaces(qi_field, z5_field):
    z7_field = builtin_scenario("cyclotomic-7").ambient_field()
    return {
        2: standard_space(qi_field),
        4: integral_symplectic_basis(build_symplectic_space([z5_field]))[0],
        6: integral_symplectic_basis(build_symplectic_space([z7_field]))[0],
    }


# case -> (dim, draws, seed, whether the tail is a random 7-adic similitude,
#          SHA-256 of the (q, gamma) matrices the Smith-form gluing returned)
DECOMPOSE_GOLDENS = {
    "dim2": (2, 12, 31, False, "6bc3e526731bb7cec191f6cf91b09df841f37eab92e6907181c346a2f89a8203"),
    "dim4": (4, 4, 37, False, "8ffc11ec7d51e14df67c0dbba042b328b48b66eb0e78e680201ec681493d0d79"),
    "dim6": (6, 2, 41, False, "b44086d326c9690fb1be56e8088619f2dcdfdb76938caad751bbf5dc6315414f"),
    "tail2": (2, 6, 43, True, "ab32e3931bb440a911c0a2e08d1b22a875d05e92c2df2a337441016932e26065"),
    "tail4": (4, 2, 47, True, "d748e9ecbbfcb33658a395c667afd7c7940161202985675c0aab21c6e0b2f987"),
}


@pytest.mark.parametrize("case", sorted(DECOMPOSE_GOLDENS))
def test_decompose_outputs_are_unchanged(case, decompose_spaces):
    dim, draws, seed, tailed, golden = DECOMPOSE_GOLDENS[case]
    space = decompose_spaces[dim]
    rng = random.Random(seed)
    parts = []
    for _ in range(draws):
        f = sample_adelic_gsp(space, [2, 3, 5], rng)
        if tailed:
            f = AdelicGSp(space, f.local, tail=sample_local_similitude(space, 7, rng))
        q, gamma = decompose_gsp(f)
        parts.append((q.matrix, gamma.tail.matrix,
                      [(p, g.matrix) for p, g in sorted(gamma.local.items())]))
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == golden


def test_sampler_is_deterministic(qi_field):
    space = standard_space(qi_field)
    a = sample_adelic_gsp(space, [2, 3], random.Random(77))
    b = sample_adelic_gsp(space, [2, 3], random.Random(77))
    assert a == b


# -- The group law on integer matrices over one denominator ------------------------


def _fraction_similitude(g):
    """nu with Mᵀ·G·M = nu·G, recomputed from the Fraction matrix."""
    m, gram = g.matrix, g.space.gram
    n = len(m)
    product = [
        [sum(m[k][i] * gram[k][l] * m[l][j] for k in range(n) for l in range(n))
         for j in range(n)]
        for i in range(n)
    ]
    nus = {product[i][j] / gram[i][j] for i in range(n) for j in range(n) if gram[i][j]}
    assert len(nus) == 1
    nu = nus.pop()
    assert all(product[i][j] == nu * gram[i][j] for i in range(n) for j in range(n))
    return nu


def _fraction_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _assert_canonical(g):
    assert g.den > 0
    assert gcd(g.den, *(x for row in g.num for x in row)) == 1
    assert g.matrix == tuple(tuple(Fraction(x, g.den) for x in row) for row in g.num)
    assert _fraction_similitude(g) == g.similitude


@pytest.mark.parametrize("dim", [2, 4, 6])
@pytest.mark.parametrize("tailed", [False, True], ids=["no-tail", "7-adic-tail"])
def test_group_law_on_integer_form(dim, tailed, decompose_spaces):
    space = decompose_spaces[dim]
    rng = random.Random(1000 * dim + tailed)
    pool = [GSpElement.identity(space), sample_integral_symplectic(space, rng)]
    while len(pool) < 5:
        pool.extend(sample_adelic_gsp(space, [2, 3, 5], rng).local.values())
    if tailed:
        pool.append(sample_local_similitude(space, 7, rng))
    identity = GSpElement.identity(space)
    for a in pool:
        _assert_canonical(a)
        for p in (2, 3, 5, 7):
            assert a.is_integral_at(p) == all(x.denominator % p for row in a.matrix for x in row)
        inv = a.inverse()
        _assert_canonical(inv)
        assert inv.similitude == 1 / a.similitude
        assert a * inv == identity == inv * a
        assert (a * inv).matrix == _fraction_product(a.matrix, inv.matrix)
        scaled = GSpElement(space, [[3 * x for x in row] for row in a.num], 3 * a.den)
        assert scaled == a and hash(scaled) == hash(a)
        rebuilt = GSpElement(space, a.matrix)
        assert (rebuilt.num, rebuilt.den) == (a.num, a.den) and hash(rebuilt) == hash(a)
        for b in pool:
            ab = a * b
            _assert_canonical(ab)
            assert ab.similitude == a.similitude * b.similitude
            assert ab.matrix == _fraction_product(a.matrix, b.matrix)
            assert (a == b) == (a.matrix == b.matrix)
            if a == b:
                assert hash(a) == hash(b)


def test_group_law_rejects_non_similitudes(decompose_spaces):
    space = decompose_spaces[4]
    rows = [[int(i == j) for j in range(4)] for i in range(4)]
    rows[0][0] = 2  # scales one hyperbolic direction, not the form
    with pytest.raises(ValueError):
        GSpElement(space, rows)
    with pytest.raises(ValueError):
        GSpElement(space, rows, 3)
    with pytest.raises(ValueError):
        GSpElement(space, [[1] * 4 for _ in range(4)])  # singular
    with pytest.raises(ValueError):
        GSpElement(space, [[0] * 4 for _ in range(4)], 5)
    with pytest.raises(ValueError):
        GSpElement(space, GSpElement.identity(space).num, 0)


# -- The CM point's outputs, pinned ---------------------------------------------

# case -> (scenario key, CM field name or None for the ambient field, the
#          field the character map is read over or None for the CM field
#          itself, number of seeded gsp_realization draws,
#          SHA-256 of the character-map report, mu and the h pair vectors,
#          the injection's character map, the gram matrix, the sorted reflex
#          subgroup and the drawn realizations as (num, den))
CM_POINT_GOLDENS = {
    "qi": ("qi", None, None, 3,
        "4d072a9c772c0425f41a09353497441e0278eeb248dd1c1aed2fddc273cc249f"),
    "zeta5": ("zeta5", None, None, 3,
        "9765f0f2211a4b02e3fb55b02cd2b7c4c93685ae7cd79da127735197b4c179b6"),
    "zeta7": ("cyclotomic-7", None, None, 0,
        "d25687aee8dcac4ae5a4c186077e4a587c889e7eed6c3c10871680785125fd7c"),
    "d4": ("d4", "E", None, 0,
        "ee96ac7a6b1c4fe0886dd74817f2cd0884f12293f415399f45fe29de14d72511"),
    "c2xs3": ("c2xs3", "Q(i)", "Q(i,2^(1/3))", 0,
        "f523b9c0d1fbd839f57d35eeb2050a3c5eb546ec44f78f19aed4c81c174559be"),
}


@pytest.mark.parametrize("case", sorted(CM_POINT_GOLDENS))
def test_cm_point_outputs_are_unchanged(case):
    key, sub, over, draws, golden = CM_POINT_GOLDENS[case]
    scenario = builtin_scenario(key)
    field = scenario.named(sub) if sub else scenario.ambient_field()
    point = build_cm_point(field)
    parts = [
        character_map_report(scenario.named(over) if over else field, point),
        point.mu.vector,
        [h.vector for h in point.h_pair],
        point.injection.char_map.entries,
        point.space.gram if point.space is not None else None,
        sorted(point.reflex_compositum.subgroup),
    ]
    if draws:
        phi = phi_morphism(field, point)
        n = scenario.conductor
        degree = len(CyclotomicElement.one(n).coeffs)
        rng = random.Random(61)
        for _ in range(draws):
            x = CyclotomicElement(n, [rng.randint(-3, 3) for _ in range(degree - 1)] + [1])
            g = gsp_realization(point, phi, x)
            parts.append((g.num, g.den))
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == golden
