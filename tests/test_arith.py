"""The realization layer on the Gaussian CM point: golden j-values.

The states of the finite model at Q(i), modulus 3, bound 10 all sit over
the CM point i, so the j-oracle must read j(i) = 1728 at every state, and
the calibration twist diag(1, 2) moves the point to 2i, where
j(2i) = 66^3 = 287496.  The sampled checks draw arrows whose validity
and orbit keys go through residue valuations, so they guard that code.
The realization maps are checked on sampled arrows: omega intertwines
the two-sided unit translations, and theta's adjoint class survives a
decomposition twist.
"""

import random

import pytest

from cmforge.arith import (
    adjoint_equivalent,
    arithmetic_element,
    cm_context,
    criterion_check,
    gamma_invariance_check,
    level_idele,
    level_unit_of,
    omega_map,
    property_v_vi_report,
    shimura_arrows_congruent,
    shimura_base_point,
    support_check,
    theta_map,
    translate_shimura,
)
from cmforge.bc import build_params, sample_arrow, sample_unit_residue
from cmforge.modular import j_oracle
from cmforge.symplectic import sample_integral_symplectic


@pytest.fixture(scope="module")
def context():
    return cm_context(build_params("Q(i)", (3, 0), 10))


def test_property_v_vi_goldens_at_gaussian_point(context):
    report = property_v_vi_report(context)
    assert report["common_value"] == 1728
    assert report["calibration"]["nearest_integer"] == 287496
    assert report["values_agree"]
    assert report["symmetries_fix_values"]
    assert [row["nearest_integer"] for row in report["states"]] == [1728, 1728]
    assert report["constant_oracle"]["all_one"]


def test_sampled_checks_hold(context):
    element = arithmetic_element(context, j_oracle())
    support = support_check(element, random.Random(5), samples=30)
    # 29 of the 30 arrows drawn with this seed have a non-unit source
    assert support == {"holds": True, "samples": 30, "off_support": 29}
    assert gamma_invariance_check(element, random.Random(6), samples=30) == {
        "holds": True, "samples": 30,
    }


def test_criterion_full_group_holds(context):
    report = criterion_check(context.space, gamma="full", rng=random.Random(7))
    assert report["verdict"] is True
    assert report["condition_one"] == {
        "holds": True, "witness_multiplier": "-1", "witness_integral": True,
    }
    assert report["condition_two"] == {"holds": True, "samples": 20, "counterexample": None}


def test_criterion_trivial_group_fails_at_first_sample(context):
    report = criterion_check(context.space, gamma="trivial", rng=random.Random(7))
    assert report["verdict"] is False
    assert report["condition_one"]["holds"] is False
    two = report["condition_two"]
    assert two["holds"] is False
    assert two["samples"] == 1
    assert two["counterexample"]["sample"] == 0


def test_criterion_rejects_bad_arguments(context):
    with pytest.raises(ValueError, match="gamma"):
        criterion_check(context.space, gamma="half", rng=random.Random(7))
    with pytest.raises(ValueError, match="random source"):
        criterion_check(context.space, gamma="full", rng=None)


def test_omega_map_intertwines_unit_translations(context):
    params = context.params
    rng = random.Random(5)
    for _ in range(30):
        arrow = sample_arrow(params, rng)
        g1 = sample_unit_residue(params, rng)
        g2 = sample_unit_residue(params, rng)
        assert shimura_arrows_congruent(
            translate_shimura(omega_map(context, arrow), g1, g2),
            omega_map(context, arrow.translated(g1, g2)),
        )


def test_theta_map_adjoint_class_and_base_point(context):
    params = context.params
    rng = random.Random(11)
    for _ in range(8):
        arrow = sample_arrow(params, rng)
        theta = theta_map(context, arrow)
        assert adjoint_equivalent(theta, theta)
        delta = sample_integral_symplectic(context.space, rng)
        twisted = theta_map(context, arrow, decomposition_twist=delta)
        assert adjoint_equivalent(theta, twisted)
        idele = level_idele(context, level_unit_of(context, arrow.w))
        alpha, _, z = shimura_base_point(context, idele)
        assert alpha == theta.alpha
        assert z == theta.z
