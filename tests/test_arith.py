"""The realization layer on the Gaussian CM point: golden j-values.

The states of the finite model at Q(i), modulus 3, bound 10 all sit over
the CM point i, so the j-oracle must read j(i) = 1728 at every state, and
the calibration twist diag(1, 2) moves the point to 2i, where
j(2i) = 66^3 = 287496.  The sampled checks draw arrows whose validity
and orbit keys go through residue valuations, so they guard that code.
"""

import random

import pytest

from cmforge.arith import (
    arithmetic_element,
    cm_context,
    criterion_check,
    gamma_invariance_check,
    property_v_vi_report,
    support_check,
)
from cmforge.bc import build_params
from cmforge.modular import j_oracle


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
