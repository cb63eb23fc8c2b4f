"""Normal forms and lattice computations against brute-force oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmforge.bc import build_params
from cmforge.galois import builtin_scenario
from cmforge.lattice import (
    FGAbelianGroup,
    GModuleLattice,
    IntMatrix,
    RowSpan,
    alternating_frobenius,
    cokernel,
    frac_inv,
    frac_matmul,
    frac_matrix,
    frac_nullspace,
    frac_solve,
    hermite_normal_form,
    hnf_reduce,
    int_matrix_inverse,
    kernel_lattice,
    lattice_contains,
    lattice_intersection,
    lattice_shell,
    prime_factors,
    right_kernel,
    smith_normal_form,
    solution_sublattice,
    solve_int_rowspan,
    vstack,
)
from cmforge.tori import matrix_rank, torus_of_field

small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(IntMatrix)
        )
    )


def unimodular_2x2_small(bound=3):
    """All 2x2 unimodular matrices with entries in [-bound, bound]."""
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if a * d - b * c in (1, -1):
            yield IntMatrix([[a, b], [c, d]])


def random_unimodular(n, rng, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return IntMatrix([[rng.choice((1, -1))]])
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += q * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return IntMatrix(m)


# -- Smith normal form -------------------------------------------------------


def test_snf_frozen_example_against_brute_force():
    m = IntMatrix([[2, 4], [6, 8]])
    # Oracle: search small unimodular U, V until U*M*V is diagonal with a
    # divisibility chain; the diagonal found this way is the invariant one.
    oracle = None
    for u in unimodular_2x2_small():
        for v in unimodular_2x2_small(2):
            d = u * m * v
            if d[0, 1] == 0 and d[1, 0] == 0:
                a, b = abs(d[0, 0]), abs(d[1, 1])
                if a and b % a == 0:
                    oracle = sorted((a, b))
                    break
        if oracle:
            break
    assert oracle == [2, 4]
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert [d[0, 0], d[1, 1]] == [2, 4]
    assert abs(u.determinant()) == 1 and abs(v.determinant()) == 1


def test_snf_identity_and_zero():
    for n in (1, 2, 3):
        _, d, _ = smith_normal_form(IntMatrix.identity(n))
        assert d == IntMatrix.identity(n)
    _, d, _ = smith_normal_form(IntMatrix.zero(2, 3))
    assert d == IntMatrix.zero(2, 3)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_snf_reconstruction_and_chain(m):
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    assert abs(u.determinant()) == 1
    assert abs(v.determinant()) == 1
    diag = [d[i, i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d[i, j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


# -- Hermite normal form -----------------------------------------------------


def test_hnf_frozen_example_against_exhaustive_oracle():
    m = IntMatrix([[2, 0], [1, 1]])
    # Oracle: among all small unimodular U, collect those U*M in echelon
    # shape with positive pivots and reduced entries; the form is unique.
    candidates = set()
    for u in unimodular_2x2_small():
        h = u * m
        if h[1, 0] == 0 and h[0, 0] > 0 and h[1, 1] > 0 and 0 <= h[0, 1] < h[1, 1]:
            candidates.add(h.entries)
    assert candidates == {((1, 1), (0, 2))}
    h, u = hermite_normal_form(m)
    assert u * m == h
    assert h == IntMatrix([[1, 1], [0, 2]])


def test_hnf_trivial_cases():
    h, _ = hermite_normal_form(IntMatrix.identity(3))
    assert h == IntMatrix.identity(3)
    h, _ = hermite_normal_form(IntMatrix([[0, 0]]))
    assert h == IntMatrix([[0, 0]])


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_hnf_shape_properties(m):
    h, u = hermite_normal_form(m)
    assert u * m == h
    assert abs(u.determinant()) == 1
    pivots = []
    last = -1
    for i in range(h.rows):
        row = h.entries[i]
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            assert all(not any(r) for r in h.entries[i:])
            break
        assert nz > last, "pivots must move right"
        last = nz
        assert row[nz] > 0
        for k in range(i):
            assert 0 <= h[k, nz] < row[nz]
        pivots.append(nz)


# -- kernels -----------------------------------------------------------------


def test_kernel_frozen_example_against_enumeration():
    m = IntMatrix([[2, 4], [1, 2]])
    # Oracle: all vectors with entries in [-3, 3] killed by M from the left.
    sols = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-6, 7)
        if x * 2 + y * 1 == 0 and x * 4 + y * 2 == 0
    ]
    primitive = {v for v in sols if v != (0, 0)}
    assert primitive == {(1, -2), (-1, 2), (2, -4), (-2, 4), (3, -6), (-3, 6)}
    k = kernel_lattice(m)
    assert k == IntMatrix([[1, -2]])


def test_kernel_of_column_pair():
    assert kernel_lattice(IntMatrix([[1], [1]])) == IntMatrix([[1, -1]])
    assert kernel_lattice(IntMatrix.identity(3)).rows == 0


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel_saturated(m):
    k = kernel_lattice(m)
    for row in k.entries:
        prod = [sum(row[i] * m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)]
        assert all(x == 0 for x in prod)
    if k.rows:
        # Saturation: Z^rows / rowspan(kernel) must be torsion-free.
        assert cokernel(k).torsion_factors == ()


def random_low_rank(rng, max_rows=8, max_cols=10):
    """Integer matrix of random shape built as a product A·B through a
    random inner dimension, so rank deficiency and nonzero kernels are
    common."""
    rows, cols = rng.randint(1, max_rows), rng.randint(1, max_cols)
    inner = rng.randint(1, min(rows, cols))
    a = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
    return IntMatrix(a) * IntMatrix(b)


def test_kernel_rank_and_smith_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith

    rng = random.Random(5)
    for _ in range(80):
        m = random_low_rank(rng)
        rank = sympy.Matrix(m.entries).rank()
        assert matrix_rank(m) == rank
        k = kernel_lattice(m)
        assert k.rows == m.rows - rank
        if k.rows:
            assert (k * m).is_zero()
            _, d, _ = smith_normal_form(k)
            assert [d[i, i] for i in range(k.rows)] == [1] * k.rows  # saturated
        n = min(m.rows, m.cols)
        theirs = sympy_smith(sympy.Matrix(m.entries), domain=sympy.ZZ)
        _, d, _ = smith_normal_form(m)
        assert [d[i, i] for i in range(n)] == [abs(int(theirs[i, i])) for i in range(n)]


def stacked_serre_conditions(K):
    """The operators serre_sublattice solves, stacked: (sigma - 1)(iota + 1)
    and (iota + 1)(sigma - 1) for every sigma of the scenario."""
    t = torus_of_field(K)
    eye = IntMatrix.identity(t.rank)
    iota_plus = t.act(K.scenario.iota) + eye
    conditions = []
    for g in K.scenario.elements:
        step = t.act(g) - eye
        conditions += [step * iota_plus, iota_plus * step]
    return vstack(*conditions)


# Golden Smith diagonals of the stacked Serre conditions that
# serre_sublattice solves for these two fields.
@pytest.mark.parametrize(
    "key, sub, shape, diagonal",
    [
        ("c2xs3", "Q(i,2^(1/3))", (144, 6), (1, 1, 1, 1, 0, 0)),
        ("d4", None, (128, 8), (1, 1, 1, 0, 0, 0, 0, 0)),
    ],
)
def test_snf_of_stacked_serre_conditions(key, sub, shape, diagonal):
    scenario = builtin_scenario(key)
    m = stacked_serre_conditions(scenario.named(sub) if sub else scenario.ambient_field())
    assert (m.rows, m.cols) == shape
    _, d, _ = smith_normal_form(m)
    assert tuple(d[i, i] for i in range(m.cols)) == diagonal
    assert right_kernel(m).rows == diagonal.count(0)


# -- cokernels ---------------------------------------------------------------


def test_cokernel_examples():
    assert cokernel(IntMatrix([[2, 0], [0, 4]])) == FGAbelianGroup([2, 4])
    assert cokernel(IntMatrix.identity(3)).is_trivial()
    assert cokernel(IntMatrix([[2, 4], [6, 8]])) == FGAbelianGroup([2, 4])
    assert cokernel(IntMatrix([[2, 4], [1, 2]])) == FGAbelianGroup([0])  # rank 1 image


def test_cokernel_unimodular_invariance_randomized():
    rng = random.Random(7)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        left = random_unimodular(r, rng)
        right = random_unimodular(c, rng)
        assert cokernel(left * m * right) == cokernel(m)


def test_fg_abelian_group_validation():
    assert FGAbelianGroup([1, 1, 2, 4]).invariant_factors == (2, 4)
    assert FGAbelianGroup([2, 4, 0]).free_rank == 1
    assert FGAbelianGroup([2, 4]).order() == 8
    assert FGAbelianGroup([0]).order() is None
    with pytest.raises(ValueError):
        FGAbelianGroup([2, 3])
    with pytest.raises(ValueError):
        FGAbelianGroup([-2])


# -- intersections and membership -------------------------------------------


def test_intersection_examples():
    two = IntMatrix([[2, 0], [0, 2]])
    three = IntMatrix([[3, 0], [0, 3]])
    assert lattice_intersection(two, three) == IntMatrix([[6, 0], [0, 6]])
    a = IntMatrix([[1, 2], [0, 5]])
    inter = lattice_intersection(a, a)
    h, _ = hermite_normal_form(a)
    assert inter == h
    assert lattice_intersection(IntMatrix([[1, 1]]), IntMatrix([[1, -1]])).rows == 0
    with pytest.raises(ValueError):
        lattice_intersection(IntMatrix([[1, 0]]), IntMatrix([[1, 0, 0]]))


def test_intersection_derived_oracle():
    # span{(2,2)} and span{(3,-3)} meet where 2x = 3y and 2x = -3y: only 0.
    assert lattice_intersection(IntMatrix([[2, 2]]), IntMatrix([[3, -3]])).rows == 0
    # span{(1,1)} and span{(2,2)}: the smaller lattice.
    got = lattice_intersection(IntMatrix([[1, 1]]), IntMatrix([[2, 2]]))
    assert got == IntMatrix([[2, 2]])


def test_intersection_contains_both_ways_randomized():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 3)
        a = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))])
        b = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))])
        inter = lattice_intersection(a, b)
        for row in inter.entries:
            assert lattice_contains(a, row)
            assert lattice_contains(b, row)


def test_solve_int_rowspan():
    basis = IntMatrix([[2, 0], [0, 3]])
    assert solve_int_rowspan(basis, (4, 9)) == (2, 3)
    assert solve_int_rowspan(basis, (1, 0)) is None
    assert lattice_contains(basis, (4, 9))
    assert not lattice_contains(basis, (4, 10))


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_row_span_agrees_with_per_call_solve(m, data):
    """One RowSpan solves every vector as a fresh solve_int_rowspan would,
    on bases with a dependent row and on vectors off the lattice."""
    combo = data.draw(st.lists(small_entries, min_size=m.rows, max_size=m.rows))
    basis = vstack(m, IntMatrix([m.act_on_row(combo)]))  # the last row depends on the rest
    span = RowSpan(basis)
    assert span.is_saturated() is (cokernel(basis).torsion_factors == ())
    entries = st.integers(min_value=-30, max_value=30)
    on = basis.act_on_row(data.draw(st.lists(small_entries, min_size=basis.rows,
                                             max_size=basis.rows)))
    free = tuple(data.draw(st.lists(entries, min_size=basis.cols, max_size=basis.cols)))
    for vec in (on, free):
        got = span.solve(vec)
        assert got == solve_int_rowspan(basis, vec)
        assert lattice_contains(basis, vec) is (got is not None)
        if got is not None:
            assert basis.act_on_row(got) == tuple(vec)
    assert span.solve(on) is not None
    # Twice the lattice holds only vectors with even entries.
    doubled = RowSpan(basis * 2)
    odd = tuple(2 * x + (j == 0) for j, x in enumerate(on))
    even = tuple(2 * x for x in on)
    assert doubled.solve(odd) is None
    assert solve_int_rowspan(basis * 2, odd) is None
    assert doubled.solve(even) == solve_int_rowspan(basis * 2, even)
    assert doubled.solve(even) is not None


def _snf_solve(basis, vector):
    """Reference row-span solve through the Smith form: with U·basis·V = D,
    x·basis = vector for x = y·U exactly when y·D = vector·V."""
    u, d, v = smith_normal_form(basis)
    t = tuple(vector)
    if len(t) != basis.cols:
        raise ValueError("vector length mismatch")
    w = v.act_on_row(t)
    y = []
    n = min(basis.rows, basis.cols)
    for i in range(basis.rows):
        di = d.entries[i][i] if i < n else 0
        wi = w[i] if i < len(w) else 0
        if di == 0:
            if i < len(w) and wi != 0:
                return None
            y.append(0)
        else:
            if wi % di != 0:
                return None
            y.append(wi // di)
    for i in range(basis.rows, len(w)):
        if w[i] != 0:
            return None
    return u.act_on_row(y) if basis.rows else tuple()


def test_empty_basis_solves_only_zero():
    empty = IntMatrix.zero(0, 3)
    h, u = hermite_normal_form(empty)
    assert (h.rows, h.cols) == (0, 3)
    assert hnf_reduce(h, (1, 0, 2)) == ((), (1, 0, 2))
    assert solve_int_rowspan(empty, (0, 0, 0)) == ()
    assert solve_int_rowspan(empty, (0, 1, 0)) is None
    assert lattice_contains(empty, (0, 0, 0))
    assert not lattice_contains(empty, (0, 0, -4))
    with pytest.raises(ValueError, match="length"):
        solve_int_rowspan(empty, (0, 0))


def _valuation_lattices():
    out = []
    for ring, modulus, bound, cap in (("Q", (2,), 3, 2), ("Q(i)", (3, 0), 10, 1),
                                      ("Q(i)", (7, 0), 10, 1)):
        params = build_params(ring, modulus, bound, cap=cap)
        for i in range(len(params.places)):
            for k in range(1, params.residue_cap(i) + 1):
                out.append(params.residues.prime_power_form(i, k))
    return out


def test_solve_matches_smith_solve():
    rng = random.Random(71)
    bases = [IntMatrix.zero(0, c) for c in (1, 2, 4)] + _valuation_lattices()
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        kind = rng.random()
        if kind < 0.3:  # a dependent row
            entries.append([2 * x - y for x, y in zip(entries[0], entries[-1])])
        elif kind < 0.5:  # rank deficient: every row a multiple of one
            entries = [[k * x for x in entries[0]] for k in range(-2, rows)]
        bases.append(IntMatrix(entries))
    outcomes = set()
    for basis in bases:
        for _ in range(12):
            if rng.random() < 0.5 or not basis.rows:
                vec = [rng.randint(-40, 40) for _ in range(basis.cols)]
            else:
                combo = [rng.randint(-3, 3) for _ in range(basis.rows)]
                vec = basis.act_on_row(combo)
            expected = _snf_solve(basis, vec)
            got = solve_int_rowspan(basis, vec)
            outcomes.add(got is not None)
            assert (got is None) == (expected is None)
            assert lattice_contains(basis, vec) is (got is not None)
            if got is not None:
                assert len(got) == basis.rows
                assert basis.act_on_row(got) == tuple(vec)
    assert outcomes == {True, False}


def test_hnf_reduce_quotient_and_remainder():
    rng = random.Random(73)
    forms = _valuation_lattices()
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        forms.append(hermite_normal_form(IntMatrix(entries))[0])
    for h in forms:
        pivots = [(i, next(j for j, x in enumerate(row) if x))
                  for i, row in enumerate(h.entries) if any(row)]
        for _ in range(12):
            vec = tuple(rng.randint(-60, 60) for _ in range(h.cols))
            q, r = hnf_reduce(h, vec)
            assert len(q) == h.rows
            assert tuple(a + b for a, b in zip(h.act_on_row(q), r)) == vec
            for i, p in pivots:
                assert 0 <= r[p] < h.entries[i][p]
            # the remainder is canonical: shifting by a lattice vector keeps it
            shift = h.act_on_row([rng.randint(-3, 3) for _ in range(h.rows)])
            assert hnf_reduce(h, [a + b for a, b in zip(vec, shift)])[1] == r


@settings(max_examples=150, deadline=None)
@given(matrices(max_dim=5), st.lists(st.integers(-60, 60), min_size=5, max_size=5))
def test_hnf_and_reduce_against_sympy(m, entries):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
    h, _ = hermite_normal_form(m)
    rows = [row for row in h.entries if any(row)]
    # sympy's form is column-style with pivots at the bottom right: the
    # transpose of m with its columns reversed, read back reversed, is ours
    flipped = sympy.Matrix([row[::-1] for row in m.entries]).T
    theirs = sympy_hnf(flipped) if flipped.rank() else sympy.zeros(m.cols, 0)
    assert rows == [tuple(int(x) for x in theirs[::-1, j]) for j in reversed(range(theirs.cols))]
    vec = tuple(entries[:m.cols])
    q, r = hnf_reduce(h, vec)
    assert tuple(a + b for a, b in zip(h.act_on_row(q), r)) == vec
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        assert 0 <= r[p] < row[p]


# -- condition solver --------------------------------------------------------


def test_solution_sublattice_trivial_cases():
    assert solution_sublattice([], ambient_rank=3) == IntMatrix.identity(3)
    assert solution_sublattice([IntMatrix.identity(3)]).rows == 0
    assert solution_sublattice([IntMatrix.zero(3, 3)]) == IntMatrix.identity(3)


def test_solution_sublattice_rank4_single_condition():
    # Single condition a1 + a4 - a2 - a3 = 0 on Z^4.
    cond = IntMatrix([[1, -1, -1, 1]])
    sol = solution_sublattice([cond])
    assert sol.rows == 3
    # Oracle: enumerate vectors with entries in [-2, 2]; every solution must
    # lie in the computed lattice and every basis row must satisfy it.
    for row in sol.entries:
        assert row[0] - row[1] - row[2] + row[3] == 0
    count_in = 0
    for vec in itertools.product(range(-2, 3), repeat=4):
        if vec[0] - vec[1] - vec[2] + vec[3] == 0:
            assert lattice_contains(sol, vec)
            count_in += 1
    assert count_in > 1


# -- rational helpers --------------------------------------------------------


def test_frac_solve_and_nullspace():
    a = frac_matrix([[1, 2], [2, 4]])
    assert frac_solve(a, (3, 6)) is not None
    assert frac_solve(a, (3, 7)) is None
    ns = frac_nullspace(a)
    assert len(ns) == 1
    x = ns[0]
    assert x[0] * 1 + x[1] * 2 == 0


def test_frac_inv_roundtrip():
    a = frac_matrix([[1, 2], [3, 5]])
    inv = frac_inv(a)
    assert frac_matmul(a, inv) == frac_matrix([[1, 0], [0, 1]])


def test_int_matrix_inverse():
    rng = random.Random(3)
    m = random_unimodular(3, rng)
    assert m * int_matrix_inverse(m) == IntMatrix.identity(3)


def test_int_matrix_inverse_round_trips_against_rational_inverse():
    """Products of random unimodular matrices in dimensions 1–6, inverted
    through the Hermite transform and through Gauss–Jordan over Q."""
    rng = random.Random(37)
    for trial in range(200):
        n = 1 + trial % 6
        m = random_unimodular(n, rng) * random_unimodular(n, rng)
        inv = int_matrix_inverse(m)
        assert inv * m == m * inv == IntMatrix.identity(n)
        assert frac_matrix(inv.entries) == frac_inv(frac_matrix(m.entries))


@pytest.mark.parametrize("rows", [
    [[2]], [[0]], [[1, 0], [0, 2]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0]],
], ids=["2", "0", "index-2", "singular", "non-square"])
def test_int_matrix_inverse_refuses_non_unimodular(rows):
    with pytest.raises(ValueError, match="not unimodular"):
        int_matrix_inverse(IntMatrix(rows))


@pytest.mark.parametrize("rows", [
    [[1]], [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[2, 1], [0, 3]], [[1, 2, 0], [0, 2, 1], [0, 0, 3]],
], ids=["Z", "Z2", "Z3", "Z4", "2x2", "3x3"])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_lattice_shell_against_brute_force(rows, height):
    """The shell walk lists the lattice points of max |coordinate| equal to
    the height, each once, in lexicographic order."""
    basis = IntMatrix(rows)
    cube = itertools.product(range(-height, height + 1), repeat=len(rows))
    expected = [
        x for x in cube
        if max(map(abs, x)) == height and lattice_contains(basis, x)
    ]
    assert list(lattice_shell(rows, height)) == expected


def test_prime_factors_match_brute_force():
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, p))]
    for n in range(1, 2001):
        expected = [p for p in primes if n % p == 0]
        assert prime_factors(n) == expected
        assert prime_factors(-n) == expected
    assert prime_factors(0) == []


# -- G-module lattice ---------------------------------------------------------


def test_gmodule_axioms():
    swap = IntMatrix([[0, 1], [1, 0]])
    mod = GModuleLattice(2, {"e": IntMatrix.identity(2), "s": swap})
    mod.check_homomorphism(
        multiply=lambda a, b: "e" if a == b else "s",
        identity="e",
    )
    assert mod.group_order == 2
    assert mod.act("s") == swap


def test_gmodule_rejects_bad_action():
    with pytest.raises(ValueError):
        GModuleLattice(2, {"e": IntMatrix([[2, 0], [0, 1]])})


def test_vstack_and_shapes():
    a = IntMatrix([[1, 2]])
    b = IntMatrix([[3, 4], [5, 6]])
    assert vstack(a, b) == IntMatrix([[1, 2], [3, 4], [5, 6]])
    assert right_kernel(IntMatrix([[1, 1]])) == IntMatrix([[1, -1]])


def test_empty_matrices_keep_their_width():
    assert (IntMatrix.zero(0, 3).rows, IntMatrix.zero(0, 3).cols) == (0, 3)
    assert IntMatrix.zero(2, 3).cols == 3
    empty = kernel_lattice(IntMatrix.identity(3))
    assert (empty.rows, empty.cols) == (0, 3)
    product = empty * IntMatrix.identity(3)
    assert (product.rows, product.cols) == (0, 3)
    # an inner dimension of zero gives the zero matrix of the outer shape
    assert IntMatrix.zero(2, 0) * IntMatrix.zero(0, 4) == IntMatrix.zero(2, 4)
    assert (IntMatrix.zero(2, 4) * IntMatrix.zero(4, 0)).rows == 2
    assert vstack(empty, IntMatrix([[1, 2, 3]])) == IntMatrix([[1, 2, 3]])
    assert right_kernel(IntMatrix.identity(2)).cols == 2


def test_transpose_keeps_empty_shapes():
    shapes = (IntMatrix([[], []]), IntMatrix.zero(2, 0), IntMatrix.zero(0, 3), IntMatrix.zero(0, 0))
    for m in shapes:
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        back = t.transpose()
        assert (back.rows, back.cols) == (m.rows, m.cols)
    t = IntMatrix([[1, 2, 3], [4, 5, 6]]).transpose()
    assert t == IntMatrix([[1, 4], [2, 5], [3, 6]]) and (t.rows, t.cols) == (3, 2)


def test_intmatrix_refuses_non_integral_entries():
    with pytest.raises(ValueError, match="non-integral entry 2.5"):
        IntMatrix([[1, 2.5]])
    with pytest.raises(ValueError, match="non-integral"):
        IntMatrix([[0], [Fraction(1, 3)]])
    # integral values of other types are taken as the integers they are
    m = IntMatrix([[Fraction(4, 2), 3.0]])
    assert m == IntMatrix([[2, 3]])
    assert all(type(x) is int for x in m.row(0))
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])


# -- Alternating congruence normal form ---------------------------------------


def blockdiag_pattern(d, n, invariants):
    for i in range(n):
        for j in range(n):
            k, r = divmod(i, 2)
            expected = 0
            if k < len(invariants) and j == i + 1 and r == 0:
                expected = invariants[k]
            elif k < len(invariants) and j == i - 1 and r == 1:
                expected = -invariants[k]
            if d[i][j] != expected:
                return False
    return True


def test_frobenius_standard_and_scaled():
    j2 = IntMatrix([[0, 1], [-1, 0]])
    u, inv = alternating_frobenius(j2)
    assert inv == (1,)
    assert u * j2 * u.transpose() == j2

    scaled = IntMatrix(
        [
            [0, 5, 0, 0],
            [-5, 0, 5, 0],
            [0, -5, 0, 5],
            [0, 0, -5, 0],
        ]
    )
    u, inv = alternating_frobenius(scaled)
    assert inv == (5, 5)
    d = u * scaled * u.transpose()
    assert blockdiag_pattern(d.entries, 4, inv)


def test_frobenius_rejects_symmetric():
    with pytest.raises(ValueError):
        alternating_frobenius(IntMatrix([[0, 1], [1, 0]]))


def test_frobenius_degenerate_block():
    m = IntMatrix(
        [
            [0, 2, 0],
            [-2, 0, 0],
            [0, 0, 0],
        ]
    )
    u, inv = alternating_frobenius(m)
    assert inv == (2,)
    d = u * m * u.transpose()
    assert d.entries[2] == (0, 0, 0)
    assert all(row[2] == 0 for row in d.entries)


def test_frobenius_randomized_congruence():
    rng = random.Random(271)
    for n in (2, 4):
        for _ in range(25):
            raw = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[i][j] = rng.randint(-8, 8)
                    raw[j][i] = -raw[i][j]
            m = IntMatrix(raw)
            u, inv = alternating_frobenius(m)
            assert abs(u.determinant()) == 1
            d = u * m * u.transpose()
            assert blockdiag_pattern(d.entries, n, inv)
            for a, b in zip(inv, inv[1:]):
                assert b % a == 0
            # Congruence preserves the invariants, so a unimodular twist
            # of m must report the same chain.
            w = random_unimodular(n, rng)
            _, inv2 = alternating_frobenius(w * m * w.transpose())
            assert inv2 == inv


def test_snf_survives_large_entries():
    # Entries of this size used to trigger catastrophic growth in the
    # elimination; the Hermite-alternation keeps them near the minors.
    rng = random.Random(8)
    for _ in range(5):
        m = IntMatrix(
            [[rng.randint(-(10**12), 10**12) for _ in range(4)] for _ in range(4)]
        )
        u, d, v = smith_normal_form(m)
        assert u * m * v == d
        diag = [d[i, i] for i in range(4)]
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
