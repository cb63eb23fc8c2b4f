"""CM types, reflex machinery, and the universal quotient torus."""

import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest

from cmforge.cm import (
    CMType,
    cyclotomic_level,
    embed_under_all,
    enumerate_cm_types,
    induced_serre_morphism,
    induced_type,
    is_isomorphism,
    is_primitive,
    lemmacomp_check,
    lemmahodge_check,
    mu_phi,
    realize_on_point,
    reflex_determinant_oracle,
    reflex_field,
    reflex_norm,
    reflex_norm_closed_form,
    rho_phi,
    serre_group,
    serre_kernel_report,
    serre_property_suite,
    serre_sublattice,
    universal_rho,
)
from cmforge.cyclotomic import CyclotomicElement
from cmforge.galois import builtin_scenario, cyclotomic_scenario, is_cm
from cmforge.lattice import IntMatrix, hermite_normal_form
from cmforge.tori import Cocharacter, mu_tau, torus_of_field


@pytest.fixture
def qi():
    return builtin_scenario("qi")


@pytest.fixture
def z5():
    return builtin_scenario("zeta5")


@pytest.fixture
def c2s3():
    return builtin_scenario("c2xs3")


def type_with_indices(field, indices):
    return next(
        t for t in enumerate_cm_types(field) if t.indices() == tuple(indices)
    )


# Scenarios whose CM subfields carry the 88 primitive CM types below.
TYPE_SCENARIOS = (
    "cyclotomic-5", "cyclotomic-7", "cyclotomic-8", "cyclotomic-12", "cyclotomic-15",
    "cyclotomic-16", "cyclotomic-20", "d4", "c2xs3",
)


def primitive_types(key):
    """Every primitive CM type on every CM subfield of a builtin scenario."""
    s = builtin_scenario(key)
    for sub in sorted(s.subgroups_containing(frozenset({s.identity})), key=sorted):
        F = s.field(sub)
        if is_cm(F)[0]:
            yield from (t for t in enumerate_cm_types(F) if is_primitive(t))


# -- CM types ---------------------------------------------------------------


def test_enumeration_counts(qi, z5):
    assert len(enumerate_cm_types(qi.ambient_field())) == 2
    assert len(enumerate_cm_types(z5.ambient_field())) == 4
    d4 = builtin_scenario("d4")
    assert len(enumerate_cm_types(d4.named("E"))) == 4


def test_enumeration_rejects_non_cm(c2s3):
    with pytest.raises(ValueError, match="CM"):
        enumerate_cm_types(c2s3.named("Q(2^(1/3))"))


def test_type_invariants_enforced(z5):
    E = z5.ambient_field()
    with pytest.raises(ValueError, match="conjugate"):
        CMType(E, {E.embeddings[0], E.embeddings[3]})  # sigma1 and sigma4 are conjugate
    with pytest.raises(ValueError, match="cover"):
        CMType(E, {E.embeddings[0]})


def test_all_small_types_are_primitive(qi, z5):
    for t in enumerate_cm_types(qi.ambient_field()):
        assert is_primitive(t)
    for t in enumerate_cm_types(z5.ambient_field()):
        assert is_primitive(t)
    d4 = builtin_scenario("d4")
    for t in enumerate_cm_types(d4.named("E")):
        assert is_primitive(t)
        rf = reflex_field(t)
        assert rf.degree == 4 and is_cm(rf)[0]


def test_induction_from_gaussian_to_zeta12():
    s12 = cyclotomic_scenario(12)
    qi12 = s12.field(frozenset({"1", "5"}), name="Q(i)")
    base = CMType(qi12, {qi12.embeddings[0]})
    lifted = induced_type(base, s12.ambient_field())
    assert lifted.indices() == (0, 1)  # the two embeddings over the identity
    assert not is_primitive(lifted)
    assert is_primitive(base)
    # reflex field survives induction
    assert reflex_field(lifted).subgroup == reflex_field(base).subgroup == frozenset({"1", "5"})


def test_induction_to_the_field_itself_is_identity(z5):
    t = type_with_indices(z5.ambient_field(), (0, 1))
    assert induced_type(t, t.field) == t


def test_reflex_fields_of_builtin_types(qi, z5):
    t = type_with_indices(qi.ambient_field(), (0,))
    assert reflex_field(t).subgroup == frozenset({qi.identity})
    t5 = type_with_indices(z5.ambient_field(), (0, 1))
    assert reflex_field(t5).subgroup == frozenset({z5.identity})


def test_mu_phi_vector_and_field_of_definition(qi, z5):
    t = type_with_indices(qi.ambient_field(), (0,))
    assert mu_phi(t).vector == (1, 0)
    t5 = type_with_indices(z5.ambient_field(), (0, 1))
    mu = mu_phi(t5)
    assert mu.vector == (1, 1, 0, 0)
    assert mu.field_of_definition().subgroup == reflex_field(t5).subgroup


# -- the universal quotient --------------------------------------------------


def test_quotient_ranks_for_the_three_fields(qi, z5, c2s3):
    assert serre_group(qi.ambient_field()).rank == 2
    assert serre_group(z5.ambient_field()).rank == 3
    assert serre_group(c2s3.named("Q(i,2^(1/3))")).rank == 2


def test_gaussian_quotient_is_the_whole_torus(qi):
    sg = serre_group(qi.ambient_field())
    assert sg.sublattice == IntMatrix.identity(2)
    assert sg.mu.vector == (1, 0)


def test_zeta5_sublattice_is_the_balanced_condition(z5):
    sg = serre_group(z5.ambient_field())
    # a_1 + a_4 = a_2 + a_3 in coordinates over the four embeddings
    expected = IntMatrix([[1, 0, 0, -1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert hermite_normal_form(sg.sublattice)[0] == hermite_normal_form(expected)[0]
    for row in sg.sublattice.entries:
        assert row[0] + row[3] == row[1] + row[2]


def test_sextic_quotient_characters_are_fiberwise_constant(c2s3):
    sg = serre_group(c2s3.named("Q(i,2^(1/3))"))
    assert hermite_normal_form(sg.sublattice)[0] == IntMatrix(
        [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    )


def test_kernel_sequence_reports(qi, z5, c2s3):
    assert serre_kernel_report(qi.ambient_field())["exact"]
    assert serre_kernel_report(z5.ambient_field())["exact"]
    r5 = serre_kernel_report(z5.ambient_field())
    assert r5["kernel_rank_predicted"] == r5["kernel_rank_actual"] == 1
    sextic = serre_kernel_report(c2s3.named("Q(i,2^(1/3))"))
    assert not sextic["exact"]
    assert sextic["kernel_rank_predicted"] == 0
    assert sextic["kernel_rank_actual"] == 4


def test_universal_map_for_gaussian_type_is_identity(qi):
    t = type_with_indices(qi.ambient_field(), (0,))
    sg = serre_group(reflex_field(t))
    rho = universal_rho(sg, mu_phi(t).torus, mu_phi(t))
    assert rho.char_map == IntMatrix.identity(2)


def test_universal_map_for_trivial_cocharacter_is_zero(qi):
    sg = serre_group(qi.ambient_field())
    target = torus_of_field(qi.ambient_field())
    rho = universal_rho(sg, target, Cocharacter(target, (0, 0)))
    assert rho.char_map.is_zero()


def test_universal_map_rejects_condition_violations(z5):
    sg = serre_group(z5.ambient_field())
    target = torus_of_field(z5.ambient_field())
    with pytest.raises(ValueError, match="symmetry condition"):
        universal_rho(sg, target, Cocharacter(target, (1, 0, 0, 0)))


def test_zeta5_universal_map_matches_frozen_solve(z5):
    t = type_with_indices(z5.ambient_field(), (0, 1))
    rho = rho_phi(t)
    assert rho.char_map == IntMatrix([[1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]])


def test_hodge_lift_pair(qi, z5, c2s3):
    for field in (
        qi.ambient_field(),
        z5.ambient_field(),
        c2s3.named("Q(i,2^(1/3))"),
    ):
        assert lemmahodge_check(serre_group(field))


# -- reflex norms -------------------------------------------------------------


def test_gaussian_reflex_norm_is_the_identity(qi):
    t = type_with_indices(qi.ambient_field(), (0,))
    assert reflex_norm(t).char_map == IntMatrix.identity(2)


def test_zeta5_reflex_norm_frozen_matrix(z5):
    t = type_with_indices(z5.ambient_field(), (0, 1))
    expected = IntMatrix([[1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1]])
    assert reflex_norm(t).char_map == expected


def test_reflex_norm_agrees_with_closed_form():
    """The closed form is norm ∘ restriction and solves nothing."""
    types = [t for key in TYPE_SCENARIOS for t in primitive_types(key)]
    assert len(types) == 88
    for t in types:
        assert reflex_norm(t).char_map == reflex_norm_closed_form(t).char_map, t


# SHA-256 of the universal morphism's and the reflex norm's character maps
# for every type of TYPE_SCENARIOS, from the Fraction-system solve.
UNIVERSAL_MAPS_SHA = "0c11d0f18a027f6143d5ff89be85467a755721ba37e8ed4e6303d43336cdf17f"


def test_universal_maps_are_unchanged():
    maps = [
        (key, t.indices(), sorted(t.field.subgroup),
         rho_phi(t).char_map.entries, reflex_norm(t).char_map.entries)
        for key in TYPE_SCENARIOS
        for t in primitive_types(key)
    ]
    assert len(maps) == 88
    assert _sha256(maps) == UNIVERSAL_MAPS_SHA


def test_reflex_norm_against_determinant_oracle(z5, qi):
    rng = random.Random(20240817)
    for scenario, idx in ((qi, (0,)), (z5, (0, 1)), (z5, (2, 3))):
        E = scenario.ambient_field()
        n = cyclotomic_level(scenario)
        t = type_with_indices(E, idx)
        morphism = reflex_norm(t)
        for _ in range(8):
            coeffs = [rng.randint(-4, 4) for _ in range(len(E.embeddings))]
            if not any(coeffs):
                coeffs[0] = 1
            a = CyclotomicElement(n, coeffs)
            det = reflex_determinant_oracle(t, a)
            assert realize_on_point(morphism, a) == embed_under_all(E, det)


def test_determinant_oracle_is_multiplicative(z5):
    t = type_with_indices(z5.ambient_field(), (0, 1))
    a = CyclotomicElement(5, [1, 2, 0, -1])
    b = CyclotomicElement(5, [3, 0, 1, 1])
    na = reflex_determinant_oracle(t, a)
    nb = reflex_determinant_oracle(t, b)
    assert reflex_determinant_oracle(t, a * b) == na * nb
    one = CyclotomicElement.one(5)
    assert reflex_determinant_oracle(t, one) == one


def test_determinant_oracle_on_rational_points_is_a_power(z5):
    t = type_with_indices(z5.ambient_field(), (0, 1))
    a = CyclotomicElement.from_rational(5, 3)
    assert reflex_determinant_oracle(t, a) == CyclotomicElement.from_rational(5, 9)


# -- compatibility suite ------------------------------------------------------


def test_property_suite_on_the_sextic(c2s3):
    K = c2s3.named("Q(i,2^(1/3))")
    report = serre_property_suite(K)
    by_id = {c["id"]: c["pass"] for c in report["checks"]}
    assert by_id["serre-norm-diagram"]
    assert by_id["serre-h-compat"]
    assert by_id["serre-max-cm-iso"]
    assert by_id["serre-hodge-lift"]
    assert not by_id["serre-kernel-sequence"]  # the norm-kernel presentation fails here
    assert report["rank_quotient"] == 2


def test_property_suite_on_gaussian_field(qi):
    report = serre_property_suite(qi.ambient_field())
    assert report["all_pass"]


def test_property_suite_builds_the_induced_map_once(z5, monkeypatch):
    import cmforge.cm as cm

    calls = []

    def counted(sg_k, sg_e):
        calls.append(1)
        return induced_serre_morphism(sg_k, sg_e)

    monkeypatch.setattr(cm, "induced_serre_morphism", counted)
    assert serre_property_suite(z5.ambient_field())["all_pass"]
    assert len(calls) == 1

    def refuses(sg_k, sg_e):
        raise ValueError("norm does not respect the symmetry sublattices")

    monkeypatch.setattr(cm, "induced_serre_morphism", refuses)
    report = serre_property_suite(z5.ambient_field())
    by_id = {c["id"]: c for c in report["checks"]}
    for check_id in ("serre-norm-diagram", "serre-h-compat", "serre-max-cm-iso"):
        assert by_id[check_id]["pass"] is False
        assert by_id[check_id]["detail"] == "norm does not respect the symmetry sublattices"
    assert by_id["serre-hodge-lift"]["pass"]
    assert by_id["serre-kernel-sequence"]["pass"]


def test_suite_forms_one_hermite_form_per_solved_basis(monkeypatch):
    """Every basis the d4 suite solves against has its Hermite form
    computed once, however many vectors are solved against it."""
    import cmforge.lattice as lattice
    import cmforge.tori as tori

    formed = Counter()
    hermite = lattice.hermite_normal_form

    def counted(m):
        formed[m] += 1
        return hermite(m)

    for module in (lattice, tori):
        monkeypatch.setattr(module, "hermite_normal_form", counted)
    solves = Counter()
    solve = lattice.RowSpan.solve

    def recorded(span, vector):
        solves[span.basis] += 1
        return solve(span, vector)

    monkeypatch.setattr(lattice.RowSpan, "solve", recorded)
    assert serre_property_suite(builtin_scenario("d4").named("E"))["all_pass"]
    assert sum(solves.values()) > len(solves)  # some basis is solved against repeatedly
    assert {formed[basis] for basis in solves} == {1}


def test_serre_memo_leaves_the_scenario_to_reference_counting():
    """The memo holds nothing that refers back to the scenario, so a
    scenario is freed with its last reference, without the cyclic GC."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for key, sub in (("d4", "E"), ("c2xs3", "Q(i,2^(1/3))"), ("zeta5", None)):
            s = builtin_scenario(key)
            K = s.named(sub) if sub else s.ambient_field()
            serre_property_suite(K)
            assert s._memo
            ref = weakref.ref(s)
            del s, K
            assert ref() is None, key
    finally:
        if enabled:
            gc.enable()


def test_norm_induced_map_is_isomorphism_to_max_cm(c2s3, z5):
    K = c2s3.named("Q(i,2^(1/3))")
    E = c2s3.named("Q(i)")
    induced = induced_serre_morphism(serre_group(K), serre_group(E))
    assert is_isomorphism(induced)
    sg5 = serre_group(z5.ambient_field())
    assert is_isomorphism(induced_serre_morphism(sg5, sg5))


# Golden outputs taken from the Smith-form kernel implementation: SHA-256 of
# repr(serre_sublattice(K).entries) and of the suite's (id, pass, detail)
# triples, for the builtin fields and the cyclotomic fields up to degree 12.
SERRE_GOLDEN = {
    "qi": ("qi", None,
           "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
           "2708df8a528d3bf26c0e2a5814d04bcd5b3b42671de3fb944fbec4d32d932ef7"),
    "zeta5": ("zeta5", None,
              "2bef40df94885c71b631439be93a15ae8a8d409ac9fbc29b1b6c9eed6004c70e",
              "ab02629a0f7bf911279f59f2ac075f5e662a93f1082be78f8b2b2594abcd8a15"),
    "d4": ("d4", "E",
           "e2ba4aaa2e1da266f7ff41a42168d1cfb7be97e3442d40269304e3465dca192a",
           "ab02629a0f7bf911279f59f2ac075f5e662a93f1082be78f8b2b2594abcd8a15"),
    "c2xs3": ("c2xs3", "Q(i,2^(1/3))",
              "0ee5869c5fa067332c2a100683c48cad0a93a9719fe042a82ecaa4beb94b0080",
              "017181b499b6c11f159c9072830c7f918fcbe90b9a0fed876a01f8ccbcd62207"),
}
for _n in (15, 16, 20, 24):
    SERRE_GOLDEN[f"cyclotomic-{_n}"] = (
        f"cyclotomic-{_n}", None,
        "f40a6454997d53e20222629208f1fb517f1d6a72bacf6cb384ac69f5932cc6e6",
        "d30d514cef2816d9e3f37f604e88560fe327cca099a6e5238fc7d07c4fbdd3cd")
for _n in (21, 28):
    SERRE_GOLDEN[f"cyclotomic-{_n}"] = (
        f"cyclotomic-{_n}", None,
        "e3eb45ca180aa907b389d91305ecfc934ddea1f9397a83efddc11e8eeba14b73",
        "d5f3ffe0d02782e675e070b150722436538167f59b13b98fc4d7080d80fb751d")


def _sha256(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(SERRE_GOLDEN))
def test_serre_outputs_match_golden(label):
    key, sub, sublattice_sha, checks_sha = SERRE_GOLDEN[label]
    scenario = builtin_scenario(key)
    K = scenario.named(sub) if sub else scenario.ambient_field()
    assert _sha256(serre_sublattice(K).entries) == sublattice_sha
    report = serre_property_suite(K)
    assert _sha256([(c["id"], c["pass"], c["detail"]) for c in report["checks"]]) == checks_sha


# SHA-256 of repr(serre_property_suite(K)), the whole report with ranks,
# names and every check's detail string, for the fields above and for the
# cyclotomic-12 field with a CM type from Q(i).
SERRE_REPORT_SHA = {
    "qi": "ad1324c21d0e3f9611cc48e0f3b46d8549178aecd88ade4f0066f7744af1d7c0",
    "zeta5": "c4a29e51bda13912c7d5a2af041e65cc959a33ba01e9d9c0bf72a4c91cb779e2",
    "d4": "bd4322c3e42efb5fec4959b7575a58cf44d7daae3f18f388ed18a7a2df083e80",
    "c2xs3": "d2f94ad19ed27aef9a1c1b28f0fc7a4f4e3d70128dd365af3cde8c15853f0a94",
    "cyclotomic-15": "3b81410490b3ae07f4c5ec009537d1af244e55201ffe1dfa64d81eb8bd39ea19",
    "cyclotomic-16": "850393b080a7f3b23d489de0cb2a8ecb84d8d2abc04997eac8e7959146721764",
    "cyclotomic-20": "0cab116dd937f3bdf8b833fe311a7c32755f7953f0c80fcc1b446360cce823d1",
    "cyclotomic-24": "a9deb704e7592c50e33697b1bdf4fd48b7e035d538914c8814f835d5b2842343",
    "cyclotomic-21": "b13cae8ad990181ab0430f27fba323f85d9ea1f12f91af60ce7109301e25f920",
    "cyclotomic-28": "178f0019cee40ee726ca0185bc030b85cd6f2659e6f71d6326c2d34abb611b6a",
    "cm_type": "753efd87bc2af7a793176a36d747ebf4fb6756710b5f806eea1eaf0042e1cf9a",
}


@pytest.mark.parametrize("label", sorted(SERRE_REPORT_SHA))
def test_serre_reports_are_unchanged(label):
    if label == "cm_type":
        s12 = cyclotomic_scenario(12)
        qi12 = s12.field(frozenset({"1", "5"}), name="Q(i)")
        report = serre_property_suite(
            s12.ambient_field(), cm_type=CMType(qi12, {qi12.embeddings[0]})
        )
    else:
        key, sub = SERRE_GOLDEN[label][:2]
        scenario = builtin_scenario(key)
        report = serre_property_suite(scenario.named(sub) if sub else scenario.ambient_field())
    assert _sha256(report) == SERRE_REPORT_SHA[label]


def test_rho_compatibility_through_tower():
    s12 = cyclotomic_scenario(12)
    qi12 = s12.field(frozenset({"1", "5"}), name="Q(i)")
    t = CMType(qi12, {qi12.embeddings[0]})
    report = serre_property_suite(s12.ambient_field(), cm_type=t)
    by_id = {c["id"]: c["pass"] for c in report["checks"]}
    assert by_id["serre-rho-norm-compat"]


def test_composite_factors_through_reflex():
    s12 = cyclotomic_scenario(12)
    qi12 = s12.field(frozenset({"1", "5"}), name="Q(i)")
    t = CMType(qi12, {qi12.embeddings[0]})
    assert lemmacomp_check(t, s12.ambient_field())
    assert lemmacomp_check(t, qi12)
