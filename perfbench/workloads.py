"""The benchmark's workloads: inputs, the op each input drives, and its checks.

Each workload is a list of inputs for one round, a set-up, an op and a
check.  The run shuffles a round's inputs with a generator seeded from
the workload seed and the round index, and every op gets its own
`random.Random` seeded from (seed, round, position), so a round can be
replayed exactly.  Checks compare an op's output with golden values or
with algebraic identities and return the mismatches as
(check, expected, actual) triples.

The library is driven only through its public functions.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, List


@dataclass(frozen=True)
class Workload:
    name: str
    # seconds one round takes at the commit that introduced the benchmark on
    # a 2-vCPU Xeon; `rounds` turns a run length into a fixed number of rounds
    round_s: float
    inputs: Callable[[bool], list]
    setup: Callable[[], dict]
    op: Callable[[dict, tuple, random.Random], object]
    check: Callable[[dict, tuple, object], list]

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def round_inputs(self, tiny: bool, seed: int, index: int) -> List[tuple]:
        items = list(self.inputs(tiny))
        random.Random("%d:%s:%d" % (seed, self.name, index)).shuffle(items)
        return items


def op_rng(seed: int, round_index: int, position: int) -> random.Random:
    return random.Random("%d:%d:%d" % (seed, round_index, position))


def _expect(out, check, expected, actual):
    if expected != actual:
        out.append((check, expected, actual))


# -- serre -------------------------------------------------------------------
#
# serre_property_suite on the builtin fields and on the ambient fields of
# the cyclotomic scenarios.  Lattice code (HNF, SNF, kernels) does the work.
# The weights put the median inside the d4 ops (test size) and the tail
# percentile, ten samples from the top, inside the degree-8 fields
# (stretch size), away from the edge between two fields' costs; the two
# degree-12 fields (4 s an op) lie beyond the tail.

SERRE_CHECKS = ("serre-norm-diagram", "serre-h-compat", "serre-max-cm-iso",
                "serre-hodge-lift", "serre-kernel-sequence")

# label -> (scenario key, named subfield or None for the ambient field,
#           rank_ambient, rank_quotient, checks expected to fail)
SERRE_FIELDS = {
    "qi": ("qi", None, 2, 2, ()),
    "zeta5": ("zeta5", None, 4, 3, ()),
    "d4": ("d4", "E", 4, 3, ()),
    "c2xs3": ("c2xs3", "Q(i,2^(1/3))", 6, 2, ("serre-kernel-sequence",)),
    "cyclotomic-15": ("cyclotomic-15", None, 8, 5, ()),
    "cyclotomic-16": ("cyclotomic-16", None, 8, 5, ()),
    "cyclotomic-20": ("cyclotomic-20", None, 8, 5, ()),
    "cyclotomic-24": ("cyclotomic-24", None, 8, 5, ()),
    "cyclotomic-21": ("cyclotomic-21", None, 12, 7, ()),
    "cyclotomic-28": ("cyclotomic-28", None, 12, 7, ()),
}

SERRE_WEIGHTS = {"qi": 16, "zeta5": 16, "d4": 32, "c2xs3": 8, "cyclotomic-15": 4,
                 "cyclotomic-16": 4, "cyclotomic-20": 4, "cyclotomic-24": 4}


def _serre_inputs(tiny):
    if tiny:
        return [("qi",), ("zeta5",)]
    return [(label,) for label in SERRE_FIELDS for _ in range(SERRE_WEIGHTS.get(label, 1))]


def _serre_setup():
    from cmforge import cm, galois
    state = {"cm": cm, "galois": galois}
    _serre_op(state, ("qi",), None)
    return state


def _serre_op(state, item, rng):
    key, sub = SERRE_FIELDS[item[0]][:2]
    scenario = state["galois"].builtin_scenario(key)
    field = scenario.named(sub) if sub else scenario.ambient_field()
    return state["cm"].serre_property_suite(field)


def _serre_check(state, item, report):
    _, _, rank_ambient, rank_quotient, failing = SERRE_FIELDS[item[0]]
    out = []
    _expect(out, "rank_ambient", rank_ambient, report["rank_ambient"])
    _expect(out, "rank_quotient", rank_quotient, report["rank_quotient"])
    expected = {c: c not in failing for c in SERRE_CHECKS}
    _expect(out, "checks", expected, {c["id"]: c["pass"] for c in report["checks"]})
    return out


# -- bc-primes -----------------------------------------------------------------
#
# One finite-BC pipeline run at one prime window: build_params, three arrow
# draws each followed by its orbit key, and the partition function at
# beta = 2 to norm 2000.  The prime-generator search in build_params and
# the residue unit test do the work.  Q(i) stops at 89 because from 97 on
# the prime-generator search raises.  The draws take exponent cap 0: at
# cap 1 a draw is rejected unless every negative exponent meets rho's
# valuation, so it needs about 0.9^-places tries, which made the op time
# depend on the seed more than the bounds allow and can exhaust the
# sampler at Q, bound 200.  The bc-primes-defects workload, not part of
# BENCHMARK.json because its ops fail, keeps cap 1 and the failing inputs.

BC_MODULI = {"Q": (2,), "Q(i)": (3, 0), "Q(zeta5)": (2, 0, 0, 0)}
BC_CONDUCTOR = {"Q": 1, "Q(i)": 4, "Q(zeta5)": 5}
# (ring, bound) -> ops per round.  The weights put the median inside the
# group of ops near 0.27 s and the tail percentile inside the group near
# 0.45 s; the four largest windows lie beyond the tail.
BC_PRIME_INPUTS = {
    ("Q", 50): 3, ("Q", 75): 3, ("Q", 100): 3, ("Q(i)", 30): 3, ("Q(i)", 40): 3,
    ("Q(i)", 50): 3, ("Q(i)", 60): 3, ("Q(i)", 70): 3, ("Q(i)", 80): 3,
    ("Q", 125): 4, ("Q", 150): 4, ("Q", 175): 4, ("Q(i)", 89): 4,
    ("Q", 200): 1, ("Q(zeta5)", 50): 2, ("Q(zeta5)", 200): 1,
}
# Q(i) at these bounds raises in the prime-generator search; Q at 200 can
# exhaust the arrow sampler's 200 tries at cap 1, depending on the seed.
BC_DEFECT_INPUTS = [("Q(i)", 89), ("Q(i)", 97), ("Q(i)", 120), ("Q", 200)]
PARTITION_BOUND = 2000
ARROW_DRAWS = 3


def _primes_upto(bound):
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for n in range(2, math.isqrt(bound) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytearray(len(range(n * n, bound + 1, n)))
    return [n for n in range(bound + 1) if sieve[n]]


def prime_ideal_norms(conductor, bound):
    """Norms of the prime ideals of Z[zeta_n] up to bound, by the splitting
    law: p | n ramifies totally (n is 1, 4 or 5 here), otherwise p splits
    into phi(n)/f primes of norm p^f with f the order of p mod n."""
    phi = {1: 1, 4: 2, 5: 4}[conductor]
    norms = []
    for p in _primes_upto(bound):
        if conductor % p == 0:
            f, g = 1, 1
        else:
            f, power = 1, p % conductor
            while conductor > 1 and power != 1:
                power, f = power * p % conductor, f + 1
            g = phi // f
        if p ** f <= bound:
            norms += [p ** f] * g
    return sorted(norms)


@functools.lru_cache(maxsize=None)
def ideal_count(conductor, bound):
    """Number of ideals of norm at most bound, from the prime ideal norms."""
    counts = [0] * (bound + 1)
    counts[1] = 1
    for q in prime_ideal_norms(conductor, bound):
        for n in range(q, bound + 1, q):
            counts[n] += counts[n // q]
    return sum(counts)


def _bc_prime_inputs(tiny):
    if tiny:
        return [("Q", 20), ("Q(i)", 13)]
    return [item for item, count in BC_PRIME_INPUTS.items() for _ in range(count)]


def _bc_defect_inputs(tiny):
    return [("Q(i)", 13), ("Q(i)", 97)] if tiny else list(BC_DEFECT_INPUTS)


def _bc_primes_setup(exponent_cap=0):
    from cmforge import bc
    state = {"bc": bc, "exponent_cap": exponent_cap}
    _bc_primes_op(state, ("Q(i)", 10), random.Random(0))
    return state


def _bc_defects_setup():
    return _bc_primes_setup(exponent_cap=None)


def _bc_primes_op(state, item, rng):
    bc = state["bc"]
    ring, bound = item
    params = bc.build_params(ring, BC_MODULI[ring], bound, cap=1)
    draws = []
    for _ in range(ARROW_DRAWS):
        arrow = bc.sample_arrow(params, rng, exponent_cap=state["exponent_cap"])
        draws.append((arrow, arrow.orbit_key()))
    return params, draws, bc.partition_function(params, 2, PARTITION_BOUND)


def _bc_primes_check(state, item, out):
    ring, bound = item
    params, draws, report = out
    conductor = BC_CONDUCTOR[ring]
    bad = []
    _expect(bad, "prime_window norms", prime_ideal_norms(conductor, bound),
            sorted(q.norm for q in params.primes))
    for arrow, key in draws:
        _expect(bad, "orbit key exponents", arrow.exponents, key.exponents)
    _expect(bad, "ideal_count", ideal_count(conductor, PARTITION_BOUND), report["ideal_count"])
    gap = abs(report["float"] - report["euler"])
    if report["tail_bound"] is not None and gap > report["tail_bound"]:
        bad.append(("|direct - euler| <= tail_bound", report["tail_bound"], gap))
    if report["exact"] is not None and abs(float(report["exact"]) - report["float"]) > 1e-9:
        bad.append(("exact sum matches float sum", float(report["exact"]), report["float"]))
    return bad


# -- bc-algebra ----------------------------------------------------------------
#
# The *-algebra at two fixed levels: sample, involution, convolutions, KMS
# values and an associativity test.  The orbit-key calculus (make_key,
# saturate_coset, key refinement) does the work; the output support grows
# roughly quadratically in the number of terms.

ALGEBRA_PARAMS = {"Q": ((7,), 5), "Q(i)": ((7, 0), 10)}
# Every op samples 32 terms, and a round holds many ops: the cost and the
# memory of an op vary by up to a half with the sampled element, so a run
# needs many ops for its figures to repeat across seeds.  Larger elements
# (64 or 96 terms, 1 to 4 s an op) left too few ops in a run.  Ops at Q(i)
# cost more and vary more; keeping them under ten a run puts the median
# and the tail percentile inside the Q ops.
ALGEBRA_TERMS = 32
ALGEBRA_OPS = {"Q": 16, "Q(i)": 2}


def _bc_algebra_inputs(tiny):
    if tiny:
        return [(ring, 6) for ring in ALGEBRA_PARAMS]
    return [(ring, ALGEBRA_TERMS) for ring, count in ALGEBRA_OPS.items()
            for _ in range(count)]


def _bc_algebra_setup():
    from cmforge import bc
    params = {
        ring: bc.build_params(ring, modulus, bound, cap=1)
        for ring, (modulus, bound) in ALGEBRA_PARAMS.items()
    }
    state = {"bc": bc, "params": params}
    for ring in params:
        _bc_algebra_op(state, (ring, 4), random.Random(0))
    return state


def _bc_algebra_op(state, item, rng):
    bc = state["bc"]
    ring, terms = item
    params = state["params"][ring]
    f = bc.sample_algebra_element(params, rng, terms=terms, exponent_cap=1)
    fs = bc.involution(f)
    g = bc.convolve(f, fs)
    labels = bc.kms_state_labels(params)
    gg = bc.convolve(g, g)
    kms_gg = [bc.kms_state_value(gg, label) for label in labels]
    del gg
    kms = [bc.kms_state_value(g, label) for label in labels]
    assoc = bc.convolve(g, f).equals(bc.convolve(f, bc.convolve(fs, f)))
    return g, kms, kms_gg, assoc


def _bc_algebra_check(state, item, out):
    bc = state["bc"]
    g, kms, kms_gg, assoc = out
    bad = []
    _expect(bad, "(f*f^)*f == f*(f^*f)", True, assoc)
    _expect(bad, "involution(g) == g", True, bc.involution(g).equals(g))
    labels = bc.kms_state_labels(g.params)
    for name, values in (("g", kms), ("g*g", kms_gg)):
        for label, value in zip(labels, values):
            re, im = value.constant()
            if im != 0 or re < 0:
                bad.append(("kms(%s, %s) real and >= 0" % (name, label), ">= 0", str(value)))
    return bad


# -- realization -----------------------------------------------------------------
#
# The CM realization layer: the j-oracle rationality report, sampled support
# and invariance checks, the criterion with its negative control, and
# adelic GSp splitting in dimensions 4 and 6.  Symplectic similitudes,
# rational matrix algebra, theta maps and the oracle do the work.

J_COMMON = 1728        # j(i)
J_CALIBRATION = 287496  # j(2i)
GSP_PRIMES = (2, 3, 5)
# op -> count per round.  The weights put the median inside the dimension-6
# splittings and the tail percentile inside the invariance checks.
REALIZATION_MIX = {"v_vi": 1, "support": 1, "gamma": 2, "criterion-full": 1,
                   "criterion-trivial": 1, "decompose-4": 3, "decompose-6": 6}


def _realization_inputs(tiny):
    return [(kind,) for kind, count in REALIZATION_MIX.items()
            for _ in range(1 if tiny else count)]


def _realization_setup():
    from cmforge import arith, bc, galois, modular, symplectic
    params = bc.build_params("Q(i)", (3, 0), 10)
    context = arith.cm_context(params)
    spaces = {}
    for n in (5, 7):
        field = galois.cyclotomic_scenario(n).ambient_field()
        space, _ = symplectic.integral_symplectic_basis(symplectic.build_symplectic_space([field]))
        spaces[space.dim] = space
    state = {
        "arith": arith, "symplectic": symplectic, "context": context, "spaces": spaces,
        "element": arith.arithmetic_element(context, modular.j_oracle()),
    }
    for kind in ("v_vi", "decompose-4", "decompose-6"):
        _realization_op(state, (kind,), random.Random(0))
    return state


def _realization_op(state, item, rng):
    arith, symplectic = state["arith"], state["symplectic"]
    kind = item[0]
    if kind == "v_vi":
        return arith.property_v_vi_report(state["context"])
    if kind == "support":
        return arith.support_check(state["element"], rng, samples=30)
    if kind == "gamma":
        return arith.gamma_invariance_check(state["element"], rng, samples=30)
    if kind.startswith("criterion-"):
        return arith.criterion_check(state["context"].space, gamma=kind.split("-")[1], rng=rng)
    f = symplectic.sample_adelic_gsp(state["spaces"][int(kind.split("-")[1])], GSP_PRIMES, rng)
    return f, symplectic.decompose_gsp(f)


def _realization_check(state, item, out):
    kind = item[0]
    bad = []
    if kind == "v_vi":
        _expect(bad, "common_value", J_COMMON, out["common_value"])
        _expect(bad, "calibration", J_CALIBRATION, out["calibration"]["nearest_integer"])
        _expect(bad, "values_agree", True, out["values_agree"])
        _expect(bad, "symmetries_fix_values", True, out["symmetries_fix_values"])
        _expect(bad, "constant oracle all one", True, out["constant_oracle"]["all_one"])
    elif kind in ("support", "gamma"):
        _expect(bad, "holds", True, out["holds"])
        _expect(bad, "samples", 30, out["samples"])
    elif kind.startswith("criterion-"):
        _expect(bad, "verdict", kind == "criterion-full", out["verdict"])
    else:
        f, (q, gamma) = out
        _expect(bad, "f == q * gamma", True, f == gamma.scale_left(q))
        _expect(bad, "gamma everywhere integral", True, gamma.is_everywhere_integral())
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serre", 17.5, _serre_inputs, _serre_setup, _serre_op, _serre_check),
        Workload("bc-primes", 17.5, _bc_prime_inputs, _bc_primes_setup, _bc_primes_op,
                 _bc_primes_check),
        Workload("bc-algebra", 4.0, _bc_algebra_inputs, _bc_algebra_setup, _bc_algebra_op,
                 _bc_algebra_check),
        Workload("realization", 1.6, _realization_inputs, _realization_setup,
                 _realization_op, _realization_check),
        Workload("bc-primes-defects", 10.0, _bc_defect_inputs, _bc_defects_setup,
                 _bc_primes_op, _bc_primes_check),
    )
}
