"""The realization layer on the Gaussian CM point: golden j-values.

The states of the finite model at Q(i), modulus 3, bound 10 all sit over
the CM point i, so the j-oracle must read j(i) = 1728 at every state, and
the calibration twist diag(1, 2) moves the point to 2i, where
j(2i) = 66^3 = 287496.  The sampled checks draw arrows whose validity
and orbit keys go through residue valuations, so they guard that code.
The realization maps are checked on sampled arrows: omega intertwines
the two-sided unit translations, and theta's adjoint class survives a
decomposition twist.  The integer realization and congruence tests are
checked against the rational-arithmetic rules they replaced.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from cmforge import arith
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
from cmforge.cm import cyclotomic_level
from cmforge.cyclotomic import CyclotomicElement
from cmforge.galois import c2_s3_scenario, cyclotomic_scenario, d4_scenario, load_scenario
from cmforge.lattice import common_denominator, frac_inv
from cmforge.modular import j_oracle
from cmforge.symplectic import gsp_realization, sample_integral_symplectic


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


def test_value_refuses_off_support_arrows_before_theta_map(context, monkeypatch):
    def no_theta_map(*args, **kwargs):
        raise AssertionError("theta_map ran")

    monkeypatch.setattr(arith, "theta_map", no_theta_map)
    element = arithmetic_element(context, j_oracle())
    rng = random.Random(5)
    arrows = [sample_arrow(context.params, rng) for _ in range(10)]
    off_support = [a for a in arrows if not context.params.residues.is_unit(a.rho)]
    assert off_support
    for arrow in off_support:
        assert element.value(arrow) == (0j, 0.0)
    foreign = sample_arrow(build_params("Q(i)", (3, 0), 10), random.Random(5))
    with pytest.raises(ValueError, match="different parameter set"):
        element.value(foreign)


def test_cm_context_refusals():
    with pytest.raises(ValueError, match="rational field"):
        cm_context(build_params("Q", (2,), 5))
    with pytest.raises(ValueError, match="conductor 5"):
        cm_context(build_params("Q(zeta5)", (2, 0, 0, 0), 11))
    # a Q(i) point over the Q(zeta5) ring: the summand basis is not that ring's
    ctx = cm_context(build_params("Q(i)", (3, 0), 5))
    with pytest.raises(ValueError, match="basis does not match"):
        arith.CMContext(build_params("Q(zeta5)", (2, 0, 0, 0), 11), ctx.field, ctx.point, ctx.phi)


def test_cyclotomic_level_reads_the_conductor():
    for scenario in (c2_s3_scenario(), d4_scenario()):
        with pytest.raises(ValueError, match="no cyclotomic realization"):
            cyclotomic_level(scenario)
    assert load_scenario({"cyclotomic_n": 7}).conductor == 7
    assert cyclotomic_level(load_scenario({"cyclotomic_n": 7})) == 7
    # a hand-written table is not cyclotomic, whatever its name says
    z5 = cyclotomic_scenario(5)
    table = {f"{a},{b}": z5.multiply(a, b) for a in z5.elements for b in z5.elements}
    copy = load_scenario({"group_table": table, "iota": "4", "name": "cyclotomic-5"})
    assert copy.conductor is None
    with pytest.raises(ValueError, match="no cyclotomic realization"):
        cyclotomic_level(copy)


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


def _theta_parts(theta):
    beta, group = theta.beta, theta.group
    return (theta.alpha.matrix, [(p, beta.local_at(p).matrix) for p in beta.support],
            beta.tail.matrix, theta.z,
            [(p, group.local_at(p).matrix) for p in group.support], group.tail.matrix)


# modulus -> SHA-256 of the omega_map unit parts and theta_map outputs
# (alpha, beta locals and tail, z, group locals and tail) on seeded arrows
REALIZATION_GOLDENS = {
    3: "e2f64f8fe8849e63ab95338c33c05848cd4e32c134fb26a28c235be8fd1aaad0",
    5: "4bcca4810b400eaaa4c26f6d568bc8b95c3727b1017c939e3d84aeaf821e4a3a",
}


@pytest.mark.parametrize("modulus", sorted(REALIZATION_GOLDENS))
def test_realization_outputs_are_unchanged(modulus):
    # a fresh context, twisted calls first: a twist that wrote to the
    # per-level cache would move the untwisted outputs that follow
    ctx = cm_context(build_params("Q(i)", (modulus, 0), 10))
    rng = random.Random(100 + modulus)
    arrows = [sample_arrow(ctx.params, rng) for _ in range(8)]
    parts = []
    for arrow in arrows[:4]:
        delta = sample_integral_symplectic(ctx.space, rng)
        parts.append(_theta_parts(theta_map(ctx, arrow, decomposition_twist=delta)))
    for arrow in arrows:
        parts.append(omega_map(ctx, arrow).unit_part.matrix)
        parts.append(_theta_parts(theta_map(ctx, arrow)))
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == REALIZATION_GOLDENS[modulus]


@pytest.mark.parametrize("modulus", [3, 5])
def test_realize_matches_gsp_realization(modulus):
    """The integer reflex-norm realization against the cyclotomic one.

    Seeded Q(i) samples: unit residues mod M, every place generator and
    random nonzero coordinates, each realized on a fresh context (so the
    cache is cold) and by `gsp_realization` from its field element.  The
    realization is multiplicative, and zero is refused on both paths.
    Q(zeta5) is not reachable yet: `CMContext` refuses genus other than
    one, so that case waits for genus two (ROADMAP item 6).
    """
    ctx = cm_context(build_params("Q(i)", (modulus, 0), 10))
    params, ring = ctx.params, ctx.params.ring

    def field(coords):
        return CyclotomicElement(ring.cyclo_n, coords)

    rng = random.Random(modulus)
    samples = [sample_unit_residue(params, rng) for _ in range(12)]
    samples += [place.coords for place in params.places]
    while len(samples) < 40:
        coords = tuple(rng.randint(-20, 20) for _ in range(ring.degree))
        if any(coords):
            samples.append(coords)
    for x in samples:
        assert ctx.realize(x) == gsp_realization(ctx.point, ctx.phi, field(x))
    for x, y in zip(samples, reversed(samples)):
        xy = ring.times_rows(x, ring.coord_rows(y))
        assert ctx.realize(x) * ctx.realize(y) == ctx.realize(xy)
    zero = (0,) * ring.degree
    with pytest.raises(ValueError):
        ctx.realize(zero)
    with pytest.raises(ValueError):
        gsp_realization(ctx.point, ctx.phi, field(zero))


def _congruent_by_fractions(ctx, m1, m2, p):
    """The rational rule: difference columns in the ideal lattice basis of M
    have p-integral coefficients."""
    lattice = [[Fraction(x) for x in row] for row in ctx.params.residues.lattice.entries]
    inverse = frac_inv(lattice)
    d = len(inverse)
    for j in range(d):
        diff = [m1[i][j] - m2[i][j] for i in range(d)]
        for col in range(d):
            coeff = sum(diff[k] * inverse[k][col] for k in range(d))
            if coeff and coeff.denominator % p == 0:
                return False
    return True


def _over_one_denominator(rows):
    den = common_denominator(rows)
    return tuple(tuple(int(x * den) for x in row) for row in rows), den


@pytest.mark.parametrize("modulus", [3, 4, 5])
def test_columns_congruent_at_matches_fraction_rule(modulus):
    # m2 = m1 - D, D's columns lattice vectors over a denominator that may
    # hold p, and sometimes a unit of noise: both outcomes must occur
    ctx = cm_context(build_params("Q(i)", (modulus, 0), 10))
    lattice = ctx.params.residues.lattice.entries
    d = len(lattice)
    rng = random.Random(40 + modulus)
    outcomes = set()
    for p in ctx.prime_support:
        for _ in range(60):
            den1 = rng.choice([1, 2, 3, 5, 7, p, p * p])
            m1 = [[Fraction(rng.randint(-30, 30), den1) for _ in range(d)] for _ in range(d)]
            u = rng.choice([1, 3, 7, p, p * p])
            columns = []
            for _ in range(d):
                c = [rng.randint(-4, 4) for _ in range(d)]
                columns.append([Fraction(sum(c[k] * lattice[k][i] for k in range(d)), u)
                                for i in range(d)])
            m2 = [[m1[i][j] - columns[j][i] for j in range(d)] for i in range(d)]
            if rng.random() < 0.3:
                m2[rng.randrange(d)][rng.randrange(d)] += Fraction(1, rng.choice([1, p]))
            expected = _congruent_by_fractions(ctx, m1, m2, p)
            got = ctx.columns_congruent_at(
                _over_one_denominator(m1), _over_one_denominator(m2), p)
            assert got is expected
            outcomes.add((p, expected))
    assert outcomes == {(p, b) for p in ctx.prime_support for b in (True, False)}
