"""Scenario predicates: totally real / CM classification on the builtins."""

import json

import pytest

from cmforge.galois import (
    BUILTIN_SCENARIOS,
    FieldHandle,
    builtin_scenario,
    c2_s3_scenario,
    cyclotomic_scenario,
    d4_scenario,
    is_cm,
    is_cm_or_totally_real,
    is_totally_imaginary,
    is_totally_real,
    load_scenario,
    maximal_cm_subfield,
    maximal_totally_real_subfield,
    real_embeddings,
)


def test_cyclotomic_group_structure():
    s = cyclotomic_scenario(5)
    assert set(s.elements) == {"1", "2", "3", "4"}
    assert s.iota == "4"
    assert s.multiply("2", "3") == "1"
    assert s.inverse("2") == "3"
    assert s.is_abelian()
    with pytest.raises(ValueError):
        cyclotomic_scenario(2)


def test_cyclotomic_field_handles():
    s = cyclotomic_scenario(8)
    sqrt2 = s.field({"1", "7"})  # fixed by complex conjugation: Q(sqrt 2)
    assert sqrt2.degree == 2
    assert is_totally_real(sqrt2)
    qi = cyclotomic_scenario(4).ambient_field()
    assert not is_totally_real(qi)
    ok, c = is_cm(qi)
    assert ok and c == "3"
    assert is_totally_real(s.rational_field())


def test_q_zeta5_is_cm():
    s = cyclotomic_scenario(5)
    ok, c = is_cm(s.ambient_field())
    assert ok and c == "4"
    f = maximal_totally_real_subfield(s.ambient_field())
    assert f.subgroup == {"1", "4"}  # Q(sqrt 5)
    assert f.degree == 2


def test_abelian_fields_are_real_or_cm_exhaustively():
    # In an abelian scenario conjugation is central, so every subfield is
    # either totally real or CM; sweep all subgroups for moderate n.
    for n in range(3, 25):
        s = cyclotomic_scenario(n)
        for sub in s.subgroups_containing({s.identity}):
            K = s.field(sub)
            assert is_cm_or_totally_real(K), (n, sorted(sub))
            assert not (is_totally_real(K) and is_cm(K)[0] and K.degree > 1)


def test_c2s3_scenario_classification():
    s = c2_s3_scenario()
    assert s.order == 12
    assert not s.is_abelian()
    K = s.named("Q(i,2^(1/3))")
    assert K.degree == 6
    assert is_totally_imaginary(K)
    ok, _ = is_cm(K)
    assert not ok  # conjugation depends on the embedding: not CM
    qi = s.named("Q(i)")
    assert qi.degree == 2
    ok, _ = is_cm(qi)
    assert ok
    cbrt = s.named("Q(2^(1/3))")
    assert cbrt.degree == 3
    assert not is_totally_real(cbrt)  # one real, two complex embeddings
    assert not is_totally_imaginary(cbrt)
    assert len(real_embeddings(cbrt)) == 1


def test_c2s3_maximal_cm_subfield():
    s = c2_s3_scenario()
    K = s.named("Q(i,2^(1/3))")
    E = maximal_cm_subfield(K)
    assert E.subgroup == s.named_fields["Q(i)"]
    # Exhaustive cross-check: every CM subfield sits inside E.
    for sub in s.subgroups_containing(K.subgroup):
        if is_cm(FieldHandle(s, sub))[0]:
            assert sub >= E.subgroup


def test_no_cm_subfield_error():
    s = cyclotomic_scenario(8)
    sqrt2 = s.field({"1", "7"})
    with pytest.raises(ValueError, match="no CM subfield"):
        maximal_cm_subfield(sqrt2)


def test_d4_scenario_cm_quartic():
    s = d4_scenario()
    assert s.order == 8
    E = s.named("E")
    assert E.degree == 4
    ok, c = is_cm(E)
    assert ok and c == "r2"
    F = maximal_totally_real_subfield(E)
    assert F.subgroup == s.named_fields["Q(sqrt7)"]
    # E is not normal: its subgroup is not stable under conjugation.
    conls = {
        frozenset(s.multiply(s.multiply(g, h), s.inverse(g)) for h in E.subgroup)
        for g in s.elements
    }
    assert len(conls) > 1
    assert maximal_cm_subfield(E).subgroup == E.subgroup


def test_compositum_and_intersection():
    s = c2_s3_scenario()
    qi = s.named("Q(i)")
    cbrt = s.named("Q(2^(1/3))")
    K = qi.compositum(cbrt)
    assert K.subgroup == s.named_fields["Q(i,2^(1/3))"]
    assert K.degree == 6
    meet = qi.field_intersection(cbrt)
    assert meet.degree == 1  # Q
    # Degree multiplicativity for this pair: 6 = 2 * 3 over a trivial meet.
    assert K.degree == qi.degree * cbrt.degree


def test_restriction_of_embeddings():
    s = c2_s3_scenario()
    K = s.named("Q(i,2^(1/3))")
    qi = s.named("Q(i)")
    assert K.contains_field(qi)
    for coset in K.embeddings:
        r = K.restrict_embedding(coset, qi)
        assert r in qi.embeddings


def test_iota_validation():
    with pytest.raises(ValueError, match="square"):
        GaloisScenarioBad()


def GaloisScenarioBad():
    s = cyclotomic_scenario(5)
    from cmforge.galois import GaloisScenario

    table = {(a, b): s.multiply(a, b) for a in s.elements for b in s.elements}
    return GaloisScenario(s.elements, table, "2")  # 2 has order 4 mod 5


def test_load_scenario_roundtrip(tmp_path):
    s = c2_s3_scenario()
    data = {
        "group_table": {f"{a},{b}": s.multiply(a, b) for a in s.elements for b in s.elements},
        "iota": s.iota,
        "fields": {"K": sorted(s.named_fields["Q(i,2^(1/3))"])},
        "name": "roundtrip",
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(data))
    loaded = load_scenario(str(p))
    assert loaded.order == 12
    assert is_cm(loaded.named("K"))[0] is False
    assert load_scenario({"cyclotomic_n": 4}).iota == "3"


def test_builtin_registry():
    assert builtin_scenario("qi").order == 2
    assert builtin_scenario("cyclotomic-12").order == 4
    with pytest.raises(KeyError):
        builtin_scenario("nope")


BUILTIN_ORDERS = {
    "qi": 2, "zeta5": 4, "qzeta5": 4, "c2xs3": 12, "qi-cbrt2": 12, "d4": 8, "cyclotomic-7": 6,
}


def test_builtin_orders_cover_every_key():
    assert set(BUILTIN_ORDERS) == set(BUILTIN_SCENARIOS) | {"cyclotomic-7"}


@pytest.mark.parametrize("key", sorted(BUILTIN_ORDERS))
def test_every_builtin_key_builds_its_group(key):
    assert builtin_scenario(key).order == BUILTIN_ORDERS[key]
