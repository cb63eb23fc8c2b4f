"""Finite groupoid models: exact convolution, states, and the zeta data.

The convolution tests include a brute force oracle that works with exact
integer lifts of the residues and sums over middle arrows directly, with
no orbit bookkeeping, so the orbit key calculus is checked against an
independent computation.
"""

import hashlib
import itertools
import math
import random
import time
import types
from fractions import Fraction

import pytest

from cmforge.bc import (
    EXACT,
    TOP,
    AlgebraElement,
    Coefficient,
    GroupoidArrow,
    OrbitKey,
    ResidueRing,
    RingData,
    _ideal_norms_q,
    _ideal_norms_qi,
    _ideal_norms_sieve,
    _intersect_local,
    _prime_generators,
    _prime_ideal_norms,
    _range_meets,
    _rational_primes,
    _splitting_data,
    build_params,
    builtin_ring,
    convolve,
    delta_units,
    idele_norm_exponents,
    involution,
    kms_state_labels,
    kms_state_value,
    make_key,
    partition_function,
    prime_window,
    sample_algebra_element,
    sample_arrow,
    sample_unit_residue,
    symmetry_action,
    symmetry_class,
    time_evolution,
)
from cmforge.cyclotomic import CyclotomicElement, cyclotomic_polynomial
from cmforge.lattice import IntMatrix, hermite_normal_form, hnf_reduce, solve_int_rowspan, vstack


def _field(ring, coords):
    """The field element with the given power basis coordinates, as an oracle."""
    return CyclotomicElement(ring.cyclo_n, coords)


def _coords(element):
    """The power basis coordinates of an integral field element."""
    assert element.is_integral()
    return tuple(int(c) for c in element.coeffs)


@pytest.fixture(scope="module")
def params_q():
    return build_params("Q", (2,), 3, cap=2)


@pytest.fixture(scope="module")
def params_qi():
    return build_params("Q(i)", (3, 0), 10, cap=1)


@pytest.fixture(scope="module")
def params_q7():
    return build_params("Q", (7,), 5, cap=1)


@pytest.fixture(scope="module")
def params_qi7():
    return build_params("Q(i)", (7, 0), 10, cap=1)


@pytest.fixture(scope="module")
def params_qi6():
    # 6 = -i (1 + i)^2 3: two places divide m, one squared and one (3)
    # outside the window
    return build_params("Q(i)", (6, 0), 5, cap=1)


@pytest.fixture(scope="module")
def params_qi_tiny():
    # the place over 3 carries the modulus but sits outside the window
    return build_params("Q(i)", (3, 0), 2, cap=2)


# -- Rings and primes ----------------------------------------------------------------


def test_builtin_rings_and_aliases():
    assert builtin_ring("Q").degree == 1
    assert builtin_ring("qi").name == "Q(i)"
    assert builtin_ring("qzeta5").degree == 4
    with pytest.raises(ValueError):
        builtin_ring("Q(sqrt2)")


SPELLINGS = {
    "Q": ("Q", "q"),
    "Q(i)": ("Q(i)", "q(i)", "qi"),
    "Q(zeta5)": ("Q(zeta5)", "q(zeta5)", "qzeta5", "zeta5"),
}


@pytest.mark.parametrize("spelling,canonical", [
    (form, canonical)
    for canonical, spellings in SPELLINGS.items()
    for spelling in spellings
    for form in (spelling, spelling.upper())
])
def test_every_spelling_names_one_ring(spelling, canonical):
    assert builtin_ring(spelling) is builtin_ring(canonical)
    assert builtin_ring(spelling).name == canonical


def test_builtin_ring_is_built_once():
    ring = builtin_ring("Q(i)")
    assert builtin_ring("qi") is ring
    assert build_params("Q(i)", (3, 0), 5).ring is ring
    with pytest.raises(AttributeError):
        ring.degree = 3


def test_torsion_unit_counts():
    assert len(builtin_ring("Q").torsion_units()) == 2
    assert len(builtin_ring("Q(i)").torsion_units()) == 4
    assert len(builtin_ring("Q(zeta5)").torsion_units()) == 10


@pytest.mark.parametrize("gens, orders, message", [
    (((1, 1),), (4,), "norm != 1"),
    (((0, 1),), (None,), "infinite order unit is torsion"),
    (((0, 1),), (2,), "order mismatch"),
    (((0, 1),), (8,), "smaller than declared"),
    (((0, 1, 0),), (4,), "coordinate length mismatch"),
    (((1, 1),), (), "one declared order"),
])
def test_unit_declaration_errors(gens, orders, message):
    with pytest.raises(ValueError, match=message):
        RingData("Q(i)", 4, gens, orders)


def test_prime_window_rational():
    window = prime_window(builtin_ring("Q"), 13)
    assert [p.norm for p in window] == [2, 3, 5, 7, 11, 13]


def test_prime_window_gaussian():
    window = prime_window(builtin_ring("Q(i)"), 13)
    coeffs = [p.coords for p in window]
    assert coeffs == [(1, 1), (2, -1), (2, 1), (3, 0), (3, -2), (3, 2)]
    assert [p.norm for p in window] == [2, 5, 5, 9, 13, 13]
    assert [p.degree for p in window] == [1, 1, 1, 2, 1, 1]


def test_prime_window_quintic_cyclotomic():
    window = prime_window(builtin_ring("Q(zeta5)"), 11)
    # 5 ramifies with a single norm 5 prime, 11 splits completely
    assert [p.norm for p in window] == [5, 11, 11, 11, 11]
    ram = _field(builtin_ring("Q(zeta5)"), window[0].coords)
    assert abs(ram.norm()) == 5


def test_prime_generators_generate_distinct_ideals():
    ring = builtin_ring("Q(i)")
    window = prime_window(ring, 13)
    for i, a in enumerate(window):
        for b in window[i + 1:]:
            x, y = _field(ring, a.coords), _field(ring, b.coords)
            assert not (x / y).is_integral() or not (y / x).is_integral()


def _generator_list(window):
    return [(q.norm, q.coords) for q in window]


def _digest(window):
    return hashlib.sha256(repr(_generator_list(window)).encode()).hexdigest()


@pytest.fixture(scope="module")
def windows_1000():
    """Each builtin ring's window at bound 1000, with the seconds it took."""
    out = {}
    for name in ("Q", "Q(i)", "Q(zeta5)"):
        start = time.perf_counter()
        window = prime_window(builtin_ring(name), 1000)
        out[name] = (window, time.perf_counter() - start)
    return out


def test_prime_window_gaussian_generators_to_89():
    # golden values from the coefficient-box search the construction replaced
    assert _generator_list(prime_window(builtin_ring("Q(i)"), 89)) == [
        (2, (1, 1)), (5, (2, -1)), (5, (2, 1)), (9, (3, 0)), (13, (3, -2)),
        (13, (3, 2)), (17, (4, -1)), (17, (4, 1)), (29, (5, -2)), (29, (5, 2)),
        (37, (6, -1)), (37, (6, 1)), (41, (5, -4)), (41, (5, 4)), (49, (7, 0)),
        (53, (7, -2)), (53, (7, 2)), (61, (6, -5)), (61, (6, 5)), (73, (8, -3)),
        (73, (8, 3)), (89, (8, -5)), (89, (8, 5)),
    ]


def test_prime_window_generators_are_unchanged(windows_1000):
    # SHA-256 of the (norm, coefficients) lists the coefficient-box search returned
    assert _generator_list(prime_window(builtin_ring("Q"), 200)) == [
        (p, (p,)) for p in _rational_primes(200)
    ]
    assert _digest(prime_window(builtin_ring("Q(zeta5)"), 200)) == (
        "13003ad0e8b32b5fd8307454aad81484e1e1e1b688626b9514375f3da6b88133")
    assert _digest(windows_1000["Q"][0]) == (
        "dfe7e02b14047b42800709ccd9df04c8a6c2c986577c7911068520ce85cff160")
    assert _digest(windows_1000["Q(zeta5)"][0]) == (
        "5a7c8491cbd4992e3e5fdb56cab1281078ea1f7dddac09f0425dd0d6260b70bd")


def test_gaussian_primes_beyond_height_eight():
    # 97 = (9 - 4i)(9 + 4i) is the first norm whose generators need height 9
    window = prime_window(builtin_ring("Q(i)"), 120)
    above_97 = [coeffs for norm, coeffs in _generator_list(window) if norm == 97]
    assert above_97 == [(9, -4), (9, 4)]
    params = build_params("Q(i)", (3, 0), 120)
    assert len(params.primes) == len(window)


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(zeta5)"])
def test_prime_window_at_bound_1000(windows_1000, name):
    window, seconds = windows_1000[name]
    ring = builtin_ring(name)
    assert [q.norm for q in window] == sorted(_prime_ideal_norms(ring, 1000))
    for q in window:
        assert abs(_field(ring, q.coords).norm()) == q.norm
    assert seconds < 10


def test_modulus_prime_in_window_is_not_repeated():
    # 1 - i and the window generator 1 + i generate the same prime
    params = build_params("Q(i)", (1, -1), 10)
    assert params.places == params.primes
    assert params.primes[0].m_valuation == 1


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(zeta5)"])
def test_prime_generators_are_cached_per_prime(name):
    ring = builtin_ring(name)
    for p in _rational_primes(200):
        f, _ = _splitting_data(ring, p)
        cached = _prime_generators(ring, p, f)
        assert type(cached) is tuple
        assert cached == _prime_generators.__wrapped__(ring, p, f)
        assert _prime_generators(ring, p, f) is cached


def test_rational_primes_match_trial_division():
    for bound in list(range(301)) + [2000]:
        primes = _rational_primes(bound)
        assert type(primes) is tuple
        assert primes == tuple(
            n for n in range(2, bound + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))
        )


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(zeta5)"])
def test_windows_share_generators_in_either_order(name):
    ring = builtin_ring(name)
    _prime_generators.cache_clear()
    small_first = _generator_list(prime_window(ring, 50))
    large = _generator_list(prime_window(ring, 200))
    _prime_generators.cache_clear()
    large_first = _generator_list(prime_window(ring, 200))
    small = _generator_list(prime_window(ring, 50))
    assert large_first == large
    assert small == small_first == [(norm, x) for norm, x in large if norm <= 50]


def test_splitting_data_refuses_composite_conductor():
    # the part of 12 prime to p splits p, which the (1, 1) answer ignores
    ring12 = types.SimpleNamespace(cyclo_n=12, degree=4)
    for p in (2, 3):
        with pytest.raises(ValueError, match="not a prime power"):
            _splitting_data(ring12, p)
    assert _splitting_data(ring12, 5) == (2, 2)
    assert _splitting_data(ring12, 13) == (1, 4)


@pytest.mark.parametrize("name", ["Q", "Q(i)", "Q(zeta5)"])
def test_prime_window_against_sympy(windows_1000, name):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    ring = builtin_ring(name)
    phi = sympy.Poly(list(reversed(cyclotomic_polynomial(ring.cyclo_n))), x)
    by_p = {}
    for q in windows_1000[name][0]:
        g = sympy.Poly(list(reversed(q.coords)), x)
        assert abs(sympy.resultant(phi, g)) == q.norm
        by_p.setdefault(q.p, []).append((q, g))
    for p, primes in by_p.items():
        f, count = _splitting_data(ring, p)
        factors = [h for h, _ in sympy.Poly(phi, modulus=p).factor_list()[1]]
        assert len(factors) == count == len(primes)
        assert all(h.degree() == f for h in factors)
        # each generator lies in (p, h(zeta)) for exactly one factor h
        matched = set()
        for q, g in primes:
            g_mod_p = sympy.Poly(g, modulus=p)
            (h,) = [h for h in factors if g_mod_p.rem(h).is_zero]
            matched.add(h)
        assert len(matched) == count


# -- Parameters and residues -----------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError, match="nonzero"):
        build_params("Q", (0,), 3, cap=1)
    with pytest.raises(ValueError, match="not be a unit"):
        build_params("Q", (1,), 3, cap=1)
    with pytest.raises(ValueError, match="not be a unit"):
        build_params("Q(i)", (0, 1), 3, cap=1)
    with pytest.raises(ValueError, match="prime bound"):
        build_params("Q", (2,), 1, cap=1)
    with pytest.raises(ValueError, match="valuation cap"):
        build_params("Q", (2,), 3, cap=0)
    with pytest.raises(ValueError, match="integral"):
        build_params("Q", (Fraction(1, 2),), 3, cap=1)
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        build_params("Q(i)", (3, 0, 0), 10)


def test_bare_integer_modulus_names_the_tuple():
    with pytest.raises(ValueError, match=r"such as \(3, 0\)"):
        build_params("Q(i)", 3, 10)
    with pytest.raises(ValueError, match=r"such as \(2,\)"):
        build_params("Q", 2, 10)


def test_working_modulus_sizes(params_q, params_qi):
    assert params_q.residues.size == 72
    assert params_qi.residues.size == 4050


def test_unit_count_at_working_modulus(params_qi):
    units = [u for u in params_qi.residues.enumerate() if params_qi.residues.is_unit(u)]
    assert len(units) == 1152


def test_residue_inverse_round_trip(params_qi):
    rng = random.Random(5)
    ring = params_qi.residues
    for _ in range(20):
        coords = [rng.randrange(90) for _ in range(2)]
        reduced = ring.reduce(coords)
        if not ring.is_unit(reduced):
            continue
        inv = ring.inverse(reduced)
        assert ring.mul(reduced, inv) == ring.one()


def _ideal_sum_is_unit(ring_mod, coords):
    """Reference: x is a unit when the HNF of x·O + modulus is the identity."""
    ring = ring_mod.ring
    h, _ = hermite_normal_form(vstack(IntMatrix(ring.coord_rows(coords)), ring_mod.lattice))
    d = ring.degree
    return all(
        h.entries[i][j] == (1 if i == j else 0)
        for i in range(d) for j in range(d)
    )


@pytest.mark.parametrize("level, samples", [
    (("Q", (2,), 3, 2), None),
    (("Q(i)", (3, 0), 10, 1), None),
    # both primes above 5 divide the modulus and lie outside the window
    (("Q(i)", (5, 0), 3, 1), None),
    (("Q(i)", (7, 0), 10, 1), 2000),
    (("Q(zeta5)", (2, 0, 0, 0), 11, 1), 2000),
], ids=["Q-2", "Qi-3", "Qi-5", "Qi-7", "Qzeta5-2"])
def test_is_unit_matches_ideal_sum(level, samples):
    field, modulus, bound, cap = level
    params = build_params(field, modulus, bound, cap=cap)
    assert params.residues.primes == tuple(q.coords for q in params.places)
    assert params.shimura.residues.primes == tuple(
        q.coords for q in params.places if q.m_valuation
    )
    rng = random.Random(83)
    for ring_mod in (params.residues, params.shimura.residues):
        if samples is None:
            residues = ring_mod.enumerate()
        else:
            top = [ring_mod.lattice.entries[i][i] for i in range(ring_mod.ring.degree)]
            residues = [ring_mod.reduce([rng.randrange(t) for t in top])
                        for _ in range(samples)]
        verdicts = [ring_mod.is_unit(x) for x in residues]
        assert verdicts == [_ideal_sum_is_unit(ring_mod, x) for x in residues]
        assert True in verdicts and False in verdicts


def test_residue_ring_rejects_prime_off_the_modulus(params_qi):
    ring = params_qi.shimura.residues
    five = params_qi.primes[1].coords
    assert abs(_field(ring.ring, five).norm()) == 5
    with pytest.raises(ValueError, match="does not divide"):
        ResidueRing(ring.ring, ring.modulus, ring.primes + (five,))


# (field, modulus, bound, cap): the levels whose forms tests/test_lattice.py
# reduces against, and one over Q(zeta5)
FORM_LEVELS = [("Q", (2,), 3, 2), ("Q(i)", (3, 0), 10, 1), ("Q(i)", (7, 0), 10, 1),
               ("Q(zeta5)", (2, 0, 0, 0), 11, 1)]


@pytest.mark.parametrize("level", FORM_LEVELS, ids=lambda level: "%s-%s" % level[:2])
def test_prime_power_forms_match_stacked_forms(level):
    field, modulus, bound, cap = level
    params = build_params(field, modulus, bound, cap=cap)
    ring = params.ring
    index = {q.coords: i for i, q in enumerate(params.places)}
    shared = {}
    for ring_mod in (params.residues, params.shimura.residues):
        for i, prime in enumerate(ring_mod.primes):
            for k in range(1, params.residue_cap(index[prime]) + 2):
                # the Hermite form of the rows of pi^k stacked on the modulus lattice
                power = IntMatrix(ring.coord_rows(ring_mod.power(prime, k)))
                stacked = hermite_normal_form(vstack(power, ring_mod.lattice))[0]
                form = ring_mod.prime_power_form(i, k)
                assert form.entries == tuple(row for row in stacked.entries if any(row))
                # every residue ring of the ring reads one lattice per (prime, power)
                assert shared.setdefault(form.entries, form) is form


def _valuation_by_division(ring, coords, prime):
    """Oracle: divide x by pi until the remainder is nonzero, x / pi = q·U
    when x = q·H against the form U·rows(pi) = H."""
    h, u = hermite_normal_form(IntMatrix(ring.coord_rows(prime)))
    v = 0
    while True:
        q, r = hnf_reduce(h, coords)
        if any(r):
            return v
        coords, v = u.act_on_row(q), v + 1


@pytest.mark.parametrize("level", [
    ("Q", (2,), 7, 2), ("Q", (4,), 7, 2), ("Q(i)", (3, 0), 10, 1), ("Q(i)", (2, 0), 10, 1),
    ("Q(i)", (1, 1), 10, 1), ("Q(zeta5)", (1, -1, 0, 0), 11, 1),
], ids=lambda level: "%s-%s" % level[:2])
def test_m_valuation_matches_division_loop(level):
    field, modulus, bound, cap = level
    params = build_params(field, modulus, bound, cap=cap)
    valuations = [q.m_valuation for q in params.places]
    assert valuations == [
        _valuation_by_division(params.ring, params.modulus, q.coords) for q in params.places
    ]
    assert any(valuations)


def test_ray_class_counts(params_q, params_qi):
    assert len(params_q.shimura) == 1
    assert len(params_qi.shimura) == 2
    assert params_qi.shimura.identity == "w0"


def test_ray_class_group_law(params_qi):
    sh = params_qi.shimura
    for a in sh.labels:
        assert sh.mult(a, sh.inverse(a)) == sh.identity
        for b in sh.labels:
            assert sh.mult(a, b) == sh.mult(b, a)


def test_ray_class_rejects_noninvertible(params_qi):
    with pytest.raises(ValueError):
        params_qi.shimura.class_of((0, 0))
    with pytest.raises(ValueError):
        params_qi.shimura.class_of((3, 0))


def test_modulus_only_place_is_flagged(params_qi_tiny):
    flags = [(q.norm, q.in_window, q.m_valuation) for q in params_qi_tiny.places]
    assert flags == [(2, True, 0), (9, False, 1)]


def test_window_exponents_are_padded_at_modulus_only_places(params_qi_tiny):
    params = params_qi_tiny
    one = params.residues.one()
    arrow = GroupoidArrow(params, one, (1,), one, "w0")
    assert arrow.exponents == (1, 0)
    key = make_key(params, (1,), ((TOP, 0), (TOP, 0)), ("w0",))
    assert key.exponents == (1, 0)
    for exponents in ((1, 1), (1, 0, 0)):
        with pytest.raises(ValueError, match="exponent"):
            GroupoidArrow(params, one, exponents, one, "w0")
        with pytest.raises(ValueError, match="exponent"):
            make_key(params, exponents, ((TOP, 0), (TOP, 0)), ("w0",))


def test_window_prime_classes(params_qi):
    # 1+i, 2-i and 2+i all land in the nontrivial ray class modulo 3
    labels = [q.class_label for q in params_qi.places]
    assert labels == ["w1", "w1", "w1", None]


# -- Orbit keys ------------------------------------------------------------------------


def test_make_key_rejects_impossible_valuation(params_q):
    key = make_key(params_q, (-2, 0), ((EXACT, 1), (TOP, 0)), params_q.shimura.labels)
    assert key is None


def test_make_key_raises_top_floor(params_q):
    key = make_key(params_q, (-2, 0), ((TOP, 0), (TOP, 0)), params_q.shimura.labels)
    assert key.locals[0] == (TOP, 2)


def test_top_at_modulus_place_saturates_to_full_coset(params_qi):
    key = make_key(
        params_qi,
        (0, 0, 0, 0),
        ((TOP, 0), (TOP, 0), (TOP, 0), (TOP, 0)),
        ("w0",),
    )
    assert key.wcoset == ("w0", "w1")


def test_exact_at_modulus_place_keeps_single_class(params_qi):
    key = make_key(
        params_qi,
        (0, 0, 0, 0),
        ((TOP, 0), (TOP, 0), (TOP, 0), (EXACT, 0)),
        ("w1",),
    )
    assert key.wcoset == ("w1",)


def test_make_key_rejects_bad_labels(params_qi):
    tops = ((TOP, 0),) * 4
    with pytest.raises(ValueError, match="unknown ray class label 'w9'"):
        make_key(params_qi, (0, 0, 0, 0), tops, ("w9",))
    with pytest.raises(ValueError, match="unknown ray class label 'w9'"):
        make_key(params_qi, (0, 0, 0, 0), tops, ["w0", "w9"])
    with pytest.raises(ValueError, match="got 'w0'"):
        make_key(params_qi, (0, 0, 0, 0), tops, "w0")
    # valid labels, in any sequence type, give the same keys as before
    for labels in (("w0",), ["w1"], ("w1", "w0")):
        key = make_key(params_qi, (0, 0, 0, 0), tops, labels)
        assert key == ((0, 0, 0, 0), tops, ("w0", "w1"))


# -- Identity, associativity, involution ------------------------------------------------


def test_delta_is_identity(params_q, params_qi):
    rng = random.Random(7)
    for params in (params_q, params_qi):
        delta = delta_units(params)
        for _ in range(4):
            f = sample_algebra_element(params, rng, terms=3)
            assert convolve(delta, f).equals(f)
            assert convolve(f, delta).equals(f)


def test_hand_checked_isometry_products(params_q):
    # mu restricted to valuation zero sources, and its adjoint
    k_mu = make_key(params_q, (1, 0), ((EXACT, 0), (TOP, 0)), params_q.shimura.labels)
    f = AlgebraElement(params_q, {k_mu: Coefficient.one()})
    f_star = involution(f)
    left = convolve(f, f_star)
    right = convolve(f_star, f)
    k_range = make_key(params_q, (0, 0), ((EXACT, 1), (TOP, 0)), params_q.shimura.labels)
    k_source = make_key(params_q, (0, 0), ((EXACT, 0), (TOP, 0)), params_q.shimura.labels)
    assert left.equals(AlgebraElement(params_q, {k_range: Coefficient.one()}))
    assert right.equals(AlgebraElement(params_q, {k_source: Coefficient.one()}))


def test_associativity_exact(params_q, params_qi, params_qi_tiny):
    rng = random.Random(11)
    for params in (params_q, params_qi, params_qi_tiny):
        for _ in range(6):
            a = sample_algebra_element(params, rng, terms=2)
            b = sample_algebra_element(params, rng, terms=2)
            c = sample_algebra_element(params, rng, terms=2)
            lhs = convolve(convolve(a, b), c)
            rhs = convolve(a, convolve(b, c))
            assert lhs.equals(rhs)


def test_involution_laws(params_q, params_qi):
    rng = random.Random(13)
    for params in (params_q, params_qi):
        for _ in range(6):
            a = sample_algebra_element(params, rng, terms=2)
            b = sample_algebra_element(params, rng, terms=2)
            assert involution(involution(a)).equals(a)
            assert involution(convolve(a, b)).equals(
                convolve(involution(b), involution(a))
            )


def test_bilinearity(params_qi):
    rng = random.Random(17)
    a = sample_algebra_element(params_qi, rng, terms=2)
    b = sample_algebra_element(params_qi, rng, terms=2)
    c = sample_algebra_element(params_qi, rng, terms=2)
    lhs = convolve(a + b, c)
    rhs = convolve(a, c) + convolve(b, c)
    assert lhs.equals(rhs)
    scaled = convolve(a.scale(Coefficient.of(Fraction(2, 3))), c)
    assert scaled.equals(convolve(a, c).scale(Coefficient.of(Fraction(2, 3))))


# -- Golden algebra outputs ----------------------------------------------------------------


def _terms_digest(element):
    return hashlib.sha256(repr(list(element.terms.items())).encode()).hexdigest()


# SHA-256 of repr(list(terms.items())) of g = f * f^ and of g * g, and the
# nonzero KMS values of both, for f = 32 sampled terms at exponent cap 1 at
# Q (modulus 7, bound 5) and Q(i) (modulus 7, bound 10), recorded before the
# coset tables and the cancelling comparison went in.
ALGEBRA_GOLDENS = {
    "params_q7": (
        "fba7ecca210498e86d84dbd8765d216010413a429a4f4e454f49b706514757ef",
        "ac6a02f37f08d698555b93873ed7d6be55860803f3bd10e476df179416bc18fc",
        {"w1": Fraction(40, 9)},
        {"w1": Fraction(1600, 81)},
    ),
    "params_qi7": (
        "1bc4da20364a998f8e2c33fb9d1b996f8ca47247ee137d7a4cb2eaf13837eece",
        "bd9551c8d61f2fcad02bb458c68cd4396a9c4b2e3208d6e00d71e682fd9f4186",
        {"w2": Fraction(25, 36), "w6": Fraction(1, 9), "w7": Fraction(5, 4)},
        {"w2": Fraction(625, 1296), "w6": Fraction(11, 81), "w7": Fraction(25, 16)},
    ),
}


@pytest.mark.parametrize("level", sorted(ALGEBRA_GOLDENS))
def test_algebra_outputs_are_unchanged(level, request):
    g_digest, gg_digest, g_kms, gg_kms = ALGEBRA_GOLDENS[level]
    params = request.getfixturevalue(level)
    f = sample_algebra_element(params, random.Random(2024), terms=32, exponent_cap=1)
    g = convolve(f, involution(f))
    gg = convolve(g, g)
    assert _terms_digest(g) == g_digest
    assert _terms_digest(gg) == gg_digest
    labels = kms_state_labels(params)
    for element, values in ((g, g_kms), (gg, gg_kms)):
        assert [kms_state_value(element, w).constant() for w in labels] == [
            (values.get(w, Fraction(0)), Fraction(0)) for w in labels
        ]


# -- Equality, coset tables and HNF membership against their oracles --------------------


def _equal_by_full_refinement(a, b):
    floors = a._floors_with(b)
    return a._refined_terms(floors) == b._refined_terms(floors)


def _assert_equals_agrees(a, b, expected):
    assert _equal_by_full_refinement(a, b) is expected
    assert a.equals(b) is expected
    assert b.equals(a) is expected


@pytest.mark.parametrize("level", ["params_q", "params_qi", "params_q7", "params_qi7"])
def test_equals_matches_full_refinement(level, request):
    params = request.getfixturevalue(level)
    rng = random.Random(61)
    for _ in range(3):
        f = sample_algebra_element(params, rng, terms=6, exponent_cap=1)
        h = sample_algebra_element(params, rng, terms=3, exponent_cap=1)
        raised = tuple(x + 1 for x in f._floors_with(h))
        # equal, and no key is shared: every TOP class gets split
        topped = AlgebraElement(params, {
            k: c for k, c in f.terms.items() if any(kind == TOP for kind, _ in k.locals)
        })
        refined = AlgebraElement(params, topped._refined_terms(raised))
        assert not set(topped.terms) & set(refined.terms)
        _assert_equals_agrees(topped, refined, True)
        _assert_equals_agrees(f, AlgebraElement(params, f._refined_terms(raised)), True)
        # one extra term (sampled exponents stay within 1), and a scaled copy
        n = len(params.places)
        extra = make_key(params, (2,) + (0,) * (n - 1), ((TOP, 0),) * n, params.shimura.labels)
        _assert_equals_agrees(f, f + AlgebraElement(params, {extra: Coefficient.one()}), False)
        _assert_equals_agrees(f, f.scale(Coefficient.of(2)), False)
        # partial overlaps: shared terms plus remainders that are equal or not
        refined_h = AlgebraElement(params, h._refined_terms(raised))
        _assert_equals_agrees(f + h, f + refined_h, True)
        _assert_equals_agrees(f + h, f + refined_h.scale(Coefficient.of(-1)), False)
        _assert_equals_agrees(f + h, f, False)
        _assert_equals_agrees(f, f, True)


def _brute_split(params, labels, mask):
    stab = params.saturate_coset((params.shimura.identity,), mask)
    remaining = set(labels)
    pieces = []
    while remaining:
        orbit = tuple(sorted(params.shimura.mult(min(remaining), s) for s in stab))
        if not set(orbit) <= remaining:
            return None
        remaining -= set(orbit)
        pieces.append(orbit)
    return pieces


@pytest.mark.parametrize("level", ["params_q", "params_qi", "params_q7", "params_qi7",
                                   "params_qi6"])
def test_coset_tables_match_brute_force(level, request):
    params = request.getfixturevalue(level)
    sh = params.shimura
    rng = random.Random(67)
    one = sh.residues.one()
    unsaturated = 0
    for mask in itertools.product((False, True), repeat=len(params.places)):
        # the stabilizer image, with membership by a solve in the lattice
        conductor = CyclotomicElement.one(params.ring.cyclo_n)
        for exact, place in zip(mask, params.places):
            if exact and place.m_valuation:
                conductor = conductor * _field(params.ring, place.coords) ** place.m_valuation
        rows = IntMatrix(params.ring.coord_rows(_coords(conductor)))
        h, _ = hermite_normal_form(vstack(rows, sh.residues.lattice))
        stab = {
            label for u, label in sh._class_of.items()
            if solve_int_rowspan(h, [a - b for a, b in zip(u, one)]) is not None
        }
        assert set(params.saturate_coset((sh.identity,), mask)) == stab
        subsets = [(w,) for w in sh.labels] + [sh.labels]
        subsets += [tuple(rng.sample(sh.labels, rng.randint(1, len(sh))))
                    for _ in range(8)]
        for labels in subsets:
            saturated = tuple(sorted({sh.mult(w, s) for w in labels for s in stab}))
            assert params.saturate_coset(labels, mask) == saturated
            assert params.split_coset(saturated, mask) == _brute_split(params, saturated, mask)
            if _brute_split(params, labels, mask) is None:
                unsaturated += 1
                with pytest.raises(AssertionError, match="not saturated"):
                    params.split_coset(labels, mask)
            else:
                assert params.split_coset(labels, mask) == _brute_split(params, labels, mask)
    if len(sh) > 1:
        assert unsaturated


# -- The convolution index against all pairs ---------------------------------------------


def test_range_class_rule_matches_intersect_local():
    kinds = (EXACT, TOP)
    outcomes = set()
    for kind1, v1, kind2, v2, s in itertools.product(kinds, range(5), kinds, range(5),
                                                     range(-3, 4)):
        if v2 < -s:
            continue  # make_key keeps v >= -e at every place
        meets = _range_meets((kind1, v1), (kind2, s + v2))
        assert meets == (_intersect_local((kind1, v1), (kind2, v2), s) is not None)
        outcomes.add((kind1, kind2, meets))
    assert outcomes == set(itertools.product(kinds, kinds, (True, False))) - {
        (TOP, TOP, False)
    }


def _all_pairs_convolve(f1, f2):
    """Convolution testing every pair of terms; also counts the pairs whose
    local classes do not meet."""
    params = f1.params
    sh = params.shimura
    out = {}
    disjoint = 0
    for k1, c1 in f1.terms.items():
        for k2, c2 in f2.terms.items():
            locals_out = [_intersect_local(a, b, s)
                          for a, b, s in zip(k1.locals, k2.locals, k2.exponents)]
            if None in locals_out:
                disjoint += 1
                continue
            shift = params.class_of_exponents(k2.exponents)
            meet = {sh.mult(w, shift) for w in k1.wcoset} & set(k2.wcoset)
            if not meet:
                continue
            exponents = tuple(a + b for a, b in zip(k1.exponents, k2.exponents))
            mask = tuple(kind == EXACT for kind, _ in locals_out)
            for coset in params.split_coset(tuple(sorted(meet)), mask):
                key = make_key(params, exponents, locals_out, coset)
                out[key] = out.get(key, Coefficient.zero()) + c1 * c2
    return AlgebraElement(params, out), disjoint


@pytest.mark.parametrize("level", ["params_q", "params_qi", "params_q7", "params_qi7",
                                   "params_qi6"])
def test_convolve_matches_all_pairs_reference(level, request):
    params = request.getfixturevalue(level)
    rng = random.Random(79)
    disjoint = 0
    for _ in range(3):
        f = sample_algebra_element(params, rng, terms=16, exponent_cap=1)
        h = sample_algebra_element(params, rng, terms=8, exponent_cap=2)
        fs = involution(f)
        g = convolve(f, fs)
        for a, b in ((f, h), (h, f), (f, fs), (g, g), (g, h)):
            expected, skipped = _all_pairs_convolve(a, b)
            disjoint += skipped
            # same keys, coefficients and insertion order
            assert list(convolve(a, b).terms.items()) == list(expected.terms.items())
    assert disjoint


@pytest.mark.parametrize("level", ["params_q", "params_qi", "params_q7", "params_qi7",
                                   "params_qi6"])
def test_convolve_keys_are_make_key_fixed_points(level, request):
    # convolve builds composite keys without make_key, so each must already
    # be canonical
    params = request.getfixturevalue(level)
    rng = random.Random(83)
    checked = 0
    for cap_a, cap_b in ((1, 1), (1, 2), (2, 2)):
        a = sample_algebra_element(params, rng, terms=12, exponent_cap=cap_a)
        b = sample_algebra_element(params, rng, terms=8, exponent_cap=cap_b)
        for x, y in ((a, b), (b, a), (a, involution(a)), (involution(b), b)):
            for k in convolve(x, y).terms:
                assert make_key(params, k.exponents, k.locals, k.wcoset) == k
                checked += 1
    assert checked


def test_convolve_checks_fire_on_noncanonical_keys(params_qi):
    n = len(params_qi.places)
    labels = params_qi.shimura.labels
    delta = delta_units(params_qi)
    assert len(labels) > 1
    # with every place TOP the stabilizer image is all of the ray classes
    unsaturated = OrbitKey((0,) * n, ((TOP, 0),) * n, labels[:1])
    with pytest.raises(AssertionError, match="not saturated"):
        convolve(AlgebraElement(params_qi, {unsaturated: Coefficient.one()}), delta)
    # exact valuation 0 cannot absorb the exponent -1; make_key rejects it
    assert make_key(params_qi, (-1,) + (0,) * (n - 1),
                    ((EXACT, 0),) + ((TOP, 0),) * (n - 1), labels) is None
    invalid = OrbitKey((-1,) + (0,) * (n - 1), ((EXACT, 0),) + ((TOP, 0),) * (n - 1), labels)
    with pytest.raises(AssertionError, match="lost validity"):
        convolve(AlgebraElement(params_qi, {invalid: Coefficient.one()}), delta)


@pytest.mark.parametrize("level", ["params_q", "params_qi", "params_q7", "params_qi7",
                                   "params_qi6"])
def test_orbit_key_same_on_cold_and_warm_anchor_cache(level, request):
    params = request.getfixturevalue(level)
    rng = random.Random(89)
    arrows = []
    for _ in range(50):
        arrow = sample_arrow(params, rng)
        g1 = sample_unit_residue(params, rng)
        g2 = sample_unit_residue(params, rng)
        arrows += [arrow, arrow.translated(g1, g2)]
    keys = [arrow.orbit_key() for arrow in arrows]
    # every pattern is cached now
    assert [arrow.orbit_key() for arrow in arrows] == keys
    args = (params.ring.name, params.modulus, params.bound, params.cap)
    for arrow, key in zip(arrows, keys):
        cold = build_params(*args)
        copy = GroupoidArrow(cold, arrow.unit, arrow.exponents, arrow.rho, arrow.w)
        assert copy.orbit_key() == key


# -- Integer coefficients against Fraction arithmetic -----------------------------------


def _oracle_phase_mul(a, b):
    merged = dict(a)
    for p, r in b:
        merged[p] = merged.get(p, 0) + r
    return tuple(sorted((p, r) for p, r in merged.items() if r))


def _oracle_add(x, y, sign=1):
    out = dict(x)
    for phase, (re, im) in y.items():
        r0, i0 = out.get(phase, (Fraction(0), Fraction(0)))
        out[phase] = (r0 + sign * re, i0 + sign * im)
    return out


def _oracle_mul(x, y):
    out = {}
    for pa, (ra, ia) in x.items():
        for pb, (rb, ib) in y.items():
            phase = _oracle_phase_mul(pa, pb)
            r0, i0 = out.get(phase, (Fraction(0), Fraction(0)))
            out[phase] = (r0 + ra * rb - ia * ib, i0 + ra * ib + ia * rb)
    return out


def _oracle_terms(values):
    return tuple(sorted((p, (re, im)) for p, (re, im) in values.items() if re or im))


def _oracle_repr(values):
    """The repr of a coefficient held as Fraction pairs, as it always read."""
    terms = _oracle_terms(values)
    if not terms:
        return "Coefficient(0)"
    bits = []
    for phase, (re, im) in terms:
        tag = "" if not phase else " * " + " ".join("%d^(i*%s)" % (p, r) for p, r in phase)
        bits.append("(%s %s %si)%s" % (re, "+" if im >= 0 else "-", abs(im), tag))
    return "Coefficient(%s)" % " + ".join(bits)


def _assert_matches_oracle(coeff, values, rng):
    terms = _oracle_terms(values)
    assert coeff.terms == terms
    assert repr(coeff) == _oracle_repr(values)
    assert coeff.is_zero() == (not terms)
    # canonical form: sorted nonzero parts over the least common denominator
    phases = [phase for phase, _, _ in coeff.parts]
    assert phases == sorted(set(phases))
    assert all(re or im for _, re, im in coeff.parts)
    assert coeff.den > 0
    assert math.gcd(coeff.den, *(n for _, re, im in coeff.parts for n in (re, im))) == 1
    if not coeff.parts:
        assert coeff.den == 1
    if all(not phase for phase, _ in terms):
        assert coeff.constant() == (terms[0][1] if terms else (Fraction(0), Fraction(0)))
    else:
        with pytest.raises(ValueError, match="nontrivial phases"):
            coeff.constant()
    # a rescaled input lands on the same coefficient
    k = rng.randint(2, 9)
    rescaled = Coefficient({p: (k * re, k * im) for p, re, im in coeff.parts}, k * coeff.den)
    assert (rescaled.parts, rescaled.den) == (coeff.parts, coeff.den)
    assert rescaled == coeff and hash(rescaled) == hash(coeff)


def test_coefficients_match_fraction_oracle(params_q, params_qi):
    rng = random.Random(83)
    pool = [(Coefficient.zero(), {}), (Coefficient.one(), {(): (Fraction(1), Fraction(0))})]
    phases = []
    for params in (params_q, params_qi):
        keys = list(sample_algebra_element(params, rng, terms=6, exponent_cap=2).terms)
        values = {key: (Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 12))) for key in keys}
        f = AlgebraElement(params, {k: Coefficient.of(*v) for k, v in values.items()})
        for t in (Fraction(1, 2), Fraction(-2, 3), Fraction(5)):
            for key, coeff in time_evolution(f, t).terms.items():
                norms = idele_norm_exponents(params, key.exponents)
                phase = tuple(sorted((p, k * t) for p, k in norms.items()))
                expected = {phase: values[key]}
                _assert_matches_oracle(coeff, expected, rng)
                pool.append((coeff, expected))
                phases.append(phase)
    assert any(phases)
    for _ in range(400):
        (a, x), (b, y) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("+", "-", "*", "conj", "shift"))
        if op == "+":
            c, z = a + b, _oracle_add(x, y)
        elif op == "-":
            c, z = a - b, _oracle_add(x, y, -1)
        elif op == "*":
            c, z = a * b, _oracle_mul(x, y)
        elif op == "conj":
            c = a.conj()
            z = {tuple((p, -r) for p, r in phase): (re, -im) for phase, (re, im) in x.items()}
        else:
            shift = rng.choice(phases)
            c = a.phase_shift(shift)
            z = {_oracle_phase_mul(phase, shift): v for phase, v in x.items()}
        _assert_matches_oracle(c, z, rng)
        if len(c.parts) <= 4:
            pool.append((c, z))
    assert any(len(c.parts) > 1 for c, _ in pool)


def test_coefficient_canonical_form_and_repr():
    assert repr(Coefficient.of(Fraction(1, 2), Fraction(-2, 3))) == "Coefficient((1/2 - 2/3i))"
    assert repr(Coefficient.zero()) == "Coefficient(0)"
    half = ((2, Fraction(1, 2)), (3, Fraction(1, 2)))
    mixed = Coefficient({half: (4, 0), (): (-3, 20)}, 4)
    assert (mixed.parts, mixed.den) == ((((), -3, 20), (half, 4, 0)), 4)
    assert repr(mixed) == "Coefficient((-3/4 + 5i) + (1 + 0i) * 2^(i*1/2) 3^(i*1/2))"
    assert Coefficient({(): (2, 4)}, 6) == Coefficient.of(Fraction(1, 3), Fraction(2, 3))
    assert hash(Coefficient({(): (2, 4)}, 6)) == hash(Coefficient({(): (1, 2)}, 3))
    assert Coefficient({(): (2, 4)}, 6) != Coefficient({(): (2, 4)}, 5)
    zero = Coefficient({(): (0, 0), half: (0, 0)}, 7)
    assert (zero.parts, zero.den) == ((), 1) and zero == Coefficient.zero()
    for den in (0, -1, -6):
        with pytest.raises(ValueError, match="denominator"):
            Coefficient({(): (1, 0)}, den)


# -- Brute force oracle ------------------------------------------------------------------


def _element_valuation(element, prime):
    if element.is_zero():
        return None
    v = 0
    value = element
    while True:
        quotient = value / prime
        if not quotient.is_integral():
            return v
        value = quotient
        v += 1


def _pattern_matches(params, key, rho_elem):
    for (kind, v), place in zip(key.locals, params.places):
        val = _element_valuation(rho_elem, _field(params.ring, place.coords))
        if kind == EXACT:
            if val is None or val != v:
                return False
        else:
            if val is not None and val < v:
                return False
    return True


def _coset_matches(params, key, rho_elem, w):
    ring = params.ring
    one = CyclotomicElement.one(ring.cyclo_n)
    anchor = one
    exact_m = one
    for (kind, v), place in zip(key.locals, params.places):
        prime = _field(ring, place.coords)
        anchor = anchor * prime ** v
        if kind == EXACT and place.m_valuation:
            exact_m = exact_m * prime ** place.m_valuation
    if exact_m == one:
        return w in key.wcoset
    gamma = rho_elem / anchor
    sh = params.shimura
    lattice_rows = IntMatrix(ring.coord_rows(_coords(exact_m)))
    h, _ = hermite_normal_form(vstack(lattice_rows, sh.residues.lattice))
    for u in sh._class_of:
        if solve_int_rowspan(h, _coords(_field(ring, u) - gamma)) is not None:
            return sh.mult(w, sh._class_of[u]) in key.wcoset
    raise AssertionError("no unit matches the transporter at the exact part")


def brute_value(f, exponents, rho_elem, w):
    total = Coefficient.zero()
    for key, coeff in f.terms.items():
        if key.exponents != tuple(exponents):
            continue
        if not _pattern_matches(f.params, key, rho_elem):
            continue
        if not _coset_matches(f.params, key, rho_elem, w):
            continue
        total = total + coeff
    return total


def brute_convolve_value(f1, f2, exponents, rho_elem, w):
    params = f1.params
    sh = params.shimura
    total = Coefficient.zero()
    for e_h in {key.exponents for key in f2.terms}:
        shift = CyclotomicElement.one(params.ring.cyclo_n)
        for e, place in zip(e_h, params.places):
            shift = shift * _field(params.ring, place.coords) ** e
        target = rho_elem * shift
        if not target.is_integral():
            continue
        w_target = sh.mult(w, sh.inverse(params.class_of_exponents(e_h)))
        e1 = tuple(a - b for a, b in zip(exponents, e_h))
        v1 = brute_value(f1, e1, target, w_target)
        if v1.is_zero():
            continue
        v2 = brute_value(f2, e_h, rho_elem, w)
        total = total + v1 * v2
    return total


def _sample_concrete_point(params, rng, extra=1):
    ring = params.ring
    unit = CyclotomicElement.one(ring.cyclo_n)
    while True:
        coords = tuple(rng.randint(-4, 4) for _ in range(ring.degree))
        candidate = _field(ring, coords)
        if candidate.is_zero():
            continue
        if all(
            _element_valuation(candidate, _field(ring, place.coords)) == 0
            for place in params.places
        ):
            unit = candidate
            break
    rho = unit
    for i, place in enumerate(params.places):
        top = params.residue_cap(i) + extra
        v = rng.choice((0, 0, 1, top))
        if v:
            rho = rho * _field(ring, place.coords) ** min(v, top)
    w = rng.choice(params.shimura.labels)
    return rho, w


def test_convolution_matches_brute_force(params_q, params_qi):
    rng = random.Random(23)
    for params in (params_q, params_qi):
        for _ in range(4):
            f1 = sample_algebra_element(params, rng, terms=2, exponent_cap=1)
            f2 = sample_algebra_element(params, rng, terms=2, exponent_cap=1)
            product = convolve(f1, f2)
            exp_pool = [
                tuple(a + b for a, b in zip(k1.exponents, k2.exponents))
                for k1 in f1.terms
                for k2 in f2.terms
            ]
            for _ in range(8):
                exponents = rng.choice(exp_pool)
                rho, w = _sample_concrete_point(params, rng)
                direct = brute_value(product, exponents, rho, w)
                oracle = brute_convolve_value(f1, f2, exponents, rho, w)
                assert direct == oracle


def test_involution_matches_brute_force(params_qi):
    rng = random.Random(29)
    params = params_qi
    sh = params.shimura
    for _ in range(4):
        f = sample_algebra_element(params, rng, terms=3, exponent_cap=1)
        f_star = involution(f)
        for _ in range(8):
            key = rng.choice(list(f_star.terms))
            exponents = key.exponents
            rho, w = _sample_concrete_point(params, rng)
            shift = CyclotomicElement.one(params.ring.cyclo_n)
            for e, place in zip(exponents, params.places):
                shift = shift * _field(params.ring, place.coords) ** e
            target = rho * shift
            if not target.is_integral():
                continue
            inv_exponents = tuple(-e for e in exponents)
            w_target = sh.mult(w, sh.inverse(params.class_of_exponents(exponents)))
            expected = brute_value(f, inv_exponents, target, w_target).conj()
            assert brute_value(f_star, exponents, rho, w) == expected


# -- Time evolution ------------------------------------------------------------------------


def test_time_evolution_group_law(params_qi):
    rng = random.Random(31)
    f = sample_algebra_element(params_qi, rng, terms=4)
    s, t = Fraction(1, 3), Fraction(5, 7)
    assert time_evolution(time_evolution(f, s), t).equals(time_evolution(f, s + t))
    assert time_evolution(f, 0).equals(f)
    assert time_evolution(time_evolution(f, s), -s).equals(f)


def test_time_evolution_fixes_unit_supported(params_qi):
    delta = delta_units(params_qi)
    assert time_evolution(delta, Fraction(9, 2)).equals(delta)


def test_time_evolution_phase_records_idele_norm(params_q):
    key = make_key(params_q, (1, 1), ((EXACT, 0), (EXACT, 0)), params_q.shimura.labels)
    f = AlgebraElement(params_q, {key: Coefficient.one()})
    evolved = time_evolution(f, Fraction(1, 2))
    (out_key, coeff), = evolved.terms.items()
    assert out_key == key
    assert coeff.terms == (
        (((2, Fraction(1, 2)), (3, Fraction(1, 2))), (Fraction(1), Fraction(0))),
    )
    assert idele_norm_exponents(params_q, (1, 1)) == {2: 1, 3: 1}


def test_time_evolution_commutes_with_involution(params_qi):
    rng = random.Random(37)
    f = sample_algebra_element(params_qi, rng, terms=3)
    t = Fraction(2, 5)
    assert involution(time_evolution(f, t)).equals(
        time_evolution(involution(f), t)
    )


def test_time_evolution_is_multiplicative(params_qi):
    rng = random.Random(41)
    t = Fraction(3, 4)
    for _ in range(4):
        a = sample_algebra_element(params_qi, rng, terms=2)
        b = sample_algebra_element(params_qi, rng, terms=2)
        lhs = time_evolution(convolve(a, b), t)
        rhs = convolve(time_evolution(a, t), time_evolution(b, t))
        assert lhs.equals(rhs)


# -- States and symmetries -------------------------------------------------------------------


def test_state_labels_and_normalization(params_qi):
    labels = kms_state_labels(params_qi)
    assert labels == ("w0", "w1")
    delta = delta_units(params_qi)
    for w in labels:
        assert kms_state_value(delta, w) == Coefficient.one()


def test_states_kill_nonunit_classes(params_qi):
    key = make_key(
        params_qi,
        (1, 0, 0, 0),
        ((EXACT, 0), (TOP, 0), (TOP, 0), (TOP, 0)),
        params_qi.shimura.labels,
    )
    f = AlgebraElement(params_qi, {key: Coefficient.one()})
    for w in kms_state_labels(params_qi):
        assert kms_state_value(f, w) == Coefficient.zero()


def test_states_separate_ray_classes(params_qi):
    key = make_key(
        params_qi,
        (0, 0, 0, 0),
        ((EXACT, 0), (EXACT, 0), (EXACT, 0), (EXACT, 0)),
        ("w1",),
    )
    f = AlgebraElement(params_qi, {key: Coefficient.one()})
    assert kms_state_value(f, "w1") == Coefficient.one()
    assert kms_state_value(f, "w0") == Coefficient.zero()


def test_state_positivity_on_samples(params_qi):
    rng = random.Random(43)
    for _ in range(6):
        f = sample_algebra_element(params_qi, rng, terms=2)
        value = kms_state_value(convolve(involution(f), f), "w0")
        re, im = value.constant()
        assert im == 0
        assert re >= 0


def test_state_values_on_concrete_arrows(params_qi):
    arrow = GroupoidArrow(
        params_qi, (1, 0), (0, 0, 0, 0), (1, 0), "w1"
    )
    f = AlgebraElement(params_qi, {arrow.orbit_key(): Coefficient.one()})
    assert kms_state_value(f, "w1") == Coefficient.one()
    assert kms_state_value(f, "w0") == Coefficient.zero()


def test_symmetries_are_automorphisms(params_qi):
    rng = random.Random(47)
    nu = ((1, 1), (0, 0, 0, 0))
    for _ in range(4):
        a = sample_algebra_element(params_qi, rng, terms=2)
        b = sample_algebra_element(params_qi, rng, terms=2)
        lhs = symmetry_action(convolve(a, b), *nu)
        rhs = convolve(symmetry_action(a, *nu), symmetry_action(b, *nu))
        assert lhs.equals(rhs)
        assert symmetry_action(involution(a), *nu).equals(
            involution(symmetry_action(a, *nu))
        )


def test_symmetry_states_compose(params_qi):
    rng = random.Random(53)
    nu = ((1, 1), (0, 0, 1, 0))
    cls = symmetry_class(params_qi, *nu)
    sh = params_qi.shimura
    for _ in range(4):
        f = sample_algebra_element(params_qi, rng, terms=3)
        for w in kms_state_labels(params_qi):
            assert kms_state_value(symmetry_action(f, *nu), w) == kms_state_value(
                f, sh.mult(w, sh.inverse(cls))
            )


def test_symmetry_action_simply_transitive(params_qi):
    # exhaustively: the induced maps on states form a regular orbit
    sh = params_qi.shimura
    reachable = {
        symmetry_class(params_qi, u, e)
        for u in ((1, 0), (1, 1), (0, 1), (2, 1))
        for e in ((0, 0, 0, 0), (1, 0, 0, 0))
    }
    assert reachable == set(sh.labels)
    for start in sh.labels:
        images = {sh.mult(start, cls) for cls in reachable}
        assert images == set(sh.labels)
    # and distinct classes induce distinct maps on any one state
    for a in sh.labels:
        for b in sh.labels:
            if a != b:
                assert sh.mult("w0", a) != sh.mult("w0", b)


# -- Concrete arrows ----------------------------------------------------------------------


def test_arrow_validation(params_qi):
    with pytest.raises(ValueError):
        GroupoidArrow(params_qi, (3, 0), (0, 0, 0, 0), (1, 0), "w0")
    with pytest.raises(ValueError):
        GroupoidArrow(params_qi, (1, 0), (0, 0, 0, 0), (1, 0), "w9")
    with pytest.raises(ValueError):
        # dividing by 1+i needs positive valuation at that place
        GroupoidArrow(params_qi, (1, 0), (-1, 0, 0, 0), (1, 0), "w0")


def test_orbit_key_invariant_under_unit_translation(params_q, params_qi):
    rng = random.Random(59)

    # 9 = 3^2 with (3) inert: its place has norm 9, outside the bound-5
    # window, so its residue cap is only v_3(9) = 2
    params_qi9 = build_params("Q(i)", (9, 0), 5)
    for params in (params_q, params_qi, params_qi9):
        for _ in range(25):
            arrow = sample_arrow(params, rng)
            key = arrow.orbit_key()
            g1 = sample_unit_residue(params, rng)
            g2 = sample_unit_residue(params, rng)
            moved = arrow.translated(g1, g2)
            assert moved.orbit_key() == key
    # rho = 3 has exact valuation 1 there: rho / 3 is known only mod 3, not
    # mod the 9 the ray class needs, so its key would depend on the lift
    n = len(params_qi9.places)
    with pytest.raises(ValueError, match="coarser than"):
        GroupoidArrow(params_qi9, (1, 0), (0,) * n, (3, 0), "w0")


# SHA-256 of repr([(arrow, arrow.orbit_key()), ...]) over 40 sample_arrow
# draws from random.Random(71) per exponent cap, at default valuation cap 1,
# recorded before the transporter was patched modulo m.  Cap 1 is drawn only
# at the small windows, where the sampler cannot run out of valid arrows.
ORBIT_KEY_GOLDENS = {
    ("Q", (2,), 200, (0,)):
        "22eb5de1704982be46a6203061ac67fdd61739dc31d3e1bc90177e927f8977b3",
    ("Q(i)", (3, 0), 89, (0,)):
        "cd1cdea86a7d28126e41eb474e4e2cbff9f64b9004bbcbfbd1e49a78580fc13e",
    ("Q(zeta5)", (2, 0, 0, 0), 50, (0,)):
        "42236456ef6fc3dab49b9766c1141625b3f03ea538f459b1a726390ef8101da9",
    ("Q(i)", (7, 0), 10, (0, 1)):
        "971bc62208f269c2caf3a6f6d48c4c5b84b79455afcff02c4f6796d4e5ae622c",
    ("Q(i)", (6, 0), 5, (0, 1)):
        "ee6db276e8b848f36ac4acbed5db0c6540c9e7bb48ddf4385189d6b12ca7ad6a",
}


@pytest.fixture(scope="module")
def orbit_key_levels():
    return {level: build_params(*level[:3]) for level in ORBIT_KEY_GOLDENS}


@pytest.mark.parametrize("level", sorted(ORBIT_KEY_GOLDENS))
def test_orbit_keys_are_unchanged(level, orbit_key_levels):
    params = orbit_key_levels[level]
    rng = random.Random(71)
    pairs = []
    for cap in level[3]:
        for _ in range(40):
            arrow = sample_arrow(params, rng, exponent_cap=cap)
            pairs.append((arrow, arrow.orbit_key()))
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == ORBIT_KEY_GOLDENS[level]


@pytest.mark.parametrize("level", sorted(ORBIT_KEY_GOLDENS))
def test_residue_arithmetic_matches_field_arithmetic(level, orbit_key_levels):
    params = orbit_key_levels[level]
    ring = params.ring
    rng = random.Random(73)
    for ring_mod in (params.residues, params.shimura.residues):
        def reference(x):
            return ring_mod.reduce(_coords(x))

        top = [ring_mod.lattice.entries[i][i] for i in range(ring.degree)]
        assert ring_mod.one() == reference(CyclotomicElement.one(ring.cyclo_n))
        for _ in range(30):
            a, b = (ring_mod.reduce([rng.randrange(t) for t in top]) for _ in range(2))
            assert ring_mod.mul(a, b) == reference(_field(ring, a) * _field(ring, b))
            if ring_mod.is_unit(a):
                inv = ring_mod.inverse(a)
                assert reference(_field(ring, a) * _field(ring, inv)) == ring_mod.one()


def test_arrow_idele_norm(params_qi):
    arrow = GroupoidArrow(params_qi, (1, 0), (2, 1, 0, 0), (1, 0), "w0")
    assert arrow.idele_norm() == Fraction(4 * 5)


# -- Partition function ---------------------------------------------------------------------


def test_partition_rational_frozen(params_q):
    report = partition_function(params_q, 2, 10)
    assert report["exact"] == Fraction(1968329, 1270080)


def test_partition_gaussian_frozen(params_qi):
    report = partition_function(params_qi, 2, 10)
    assert report["exact"] == Fraction(186685, 129600)
    # 1 + 1/4 + 1/16 + 2/25 + 1/64 + 1/81 + 2/100, one term per ideal
    direct = (
        Fraction(1)
        + Fraction(1, 4)
        + Fraction(1, 16)
        + Fraction(2, 25)
        + Fraction(1, 64)
        + Fraction(1, 81)
        + Fraction(2, 100)
    )
    assert report["exact"] == direct
    assert report["ideal_count"] == 9


def test_partition_euler_within_tail(params_qi):
    for bound in (10, 100, 1000):
        report = partition_function(params_qi, 2, bound)
        assert abs(report["float"] - report["euler"]) <= report["tail_bound"]


def test_partition_tail_shrinks(params_qi):
    near = partition_function(params_qi, 2, 100)
    far = partition_function(params_qi, 2, 10000)
    assert far["tail_bound"] < near["tail_bound"]
    assert abs(far["float"] - far["reference"]) < near["tail_bound"]


def test_partition_reference_rational_field(params_q):
    report = partition_function(params_q, 2, 2000)
    assert abs(report["float"] - report["reference"]) < 1e-3


def test_partition_rejects_small_beta(params_q):
    with pytest.raises(ValueError):
        partition_function(params_q, 1, 10)
    with pytest.raises(ValueError):
        partition_function(params_q, Fraction(1, 2), 10)


def test_partition_rejects_bound_below_one(params_q, params_qi):
    for params in (params_q, params_qi):
        for bound in (0, -5):
            with pytest.raises(ValueError, match="bound >= 1"):
                partition_function(params, 2, bound)
    assert partition_function(params_q, 2, 1)["ideal_count"] == 1


def test_partition_rejects_non_integer_bound_and_infinite_beta(params_q, params_qi):
    for params in (params_q, params_qi):
        for bound in (2.5, 2.0, "10"):
            with pytest.raises(ValueError, match="integer bound"):
                partition_function(params, 2, bound)
        for beta in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite beta"):
                partition_function(params, beta, 10)


def test_partition_quintic_tail_domain():
    params = build_params("Q(zeta5)", (2, 0, 0, 0), 11, cap=1)
    low = partition_function(params, 2, 50)
    assert low["tail_bound"] is None
    assert low["methods_independent"] is False
    high = partition_function(params, 4, 200)
    assert high["tail_bound"] is not None
    assert abs(high["float"] - high["euler"]) <= high["tail_bound"]


# SHA-256 of repr(sorted(report.items())) for each (beta, bound) in
# PARTITION_CASES, recorded while the exact sum added one Fraction per ideal.
PARTITION_CASES = ((2, 10), (2, 2000), (3, 200), (Fraction(5, 2), 200))
PARTITION_GOLDENS = {
    "Q": "a171bb494ac5329f71775dcd9bdb7cf99302e82127a4ca39e356a63e6845de1d",
    "Q(i)": "ae666e09611b5cd2d5b3960dd166e10749b1927dfb7cd165d60d22e5c58131c8",
    "Q(zeta5)": "086e5f6e3bb2e08cc839da861c4a203695079f5329dfd0e4ffac1a3bdc40f432",
}
PARTITION_MODULI = {"Q": (2,), "Q(i)": (3, 0), "Q(zeta5)": (2, 0, 0, 0)}


@pytest.fixture(scope="module")
def partition_levels():
    return {name: build_params(name, m, 11, cap=1) for name, m in PARTITION_MODULI.items()}


@pytest.mark.parametrize("name", sorted(PARTITION_GOLDENS))
def test_partition_outputs_are_unchanged(name, partition_levels):
    params = partition_levels[name]
    reports = [
        repr(sorted(partition_function(params, beta, bound).items()))
        for beta, bound in PARTITION_CASES
    ]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == PARTITION_GOLDENS[name]


def _exact_sum_by_ideal(ring, k, bound):
    """Oracle: sum 1/N(I)^k by one normalizing Fraction addition per ideal."""
    if ring.name == "Q":
        norms = _ideal_norms_q(bound)
    elif ring.name == "Q(i)":
        norms = _ideal_norms_qi(bound)
    else:
        counts = _ideal_norms_sieve(ring, bound)
        norms = [n for n in range(1, bound + 1) for _ in range(counts[n])]
    exact = Fraction(0)
    for n in norms:
        exact += Fraction(1, n ** k)
    return exact


@pytest.mark.parametrize("name", sorted(PARTITION_MODULI))
def test_partition_exact_sum_matches_per_ideal_sum(name, partition_levels):
    params = partition_levels[name]
    # bound 1 has no prime, 3 only primes with p^2 > bound, and 4 one of each kind
    for k in (2, 3, 4, 5):
        for bound in (1, 2, 3, 4, 10, 97, 2000):
            exact = partition_function(params, k, bound)["exact"]
            assert type(exact) is Fraction
            assert exact == _exact_sum_by_ideal(params.ring, k, bound)
