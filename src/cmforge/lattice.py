"""Exact integer and rational linear algebra.

Everything downstream (character lattices, Serre-condition solving, symplectic
frames, residue rings) reduces to a handful of normal-form computations over
the integers plus exact Gaussian elimination over the rationals.  This module
keeps all of that in one place, with deterministic pivot rules so that
results are reproducible byte for byte.

No floating point is used anywhere here.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul


class IntMatrix:
    """Immutable integer matrix with row-major entries.

    Supports the small amount of arithmetic the rest of the package needs:
    multiplication, addition, transpose, determinant (Bareiss), and
    construction helpers.  Instances are hashable and usable as dict keys.
    Entries must be integral: an integral Fraction or float is stored as
    its int, and any other value is refused.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = []
        for row in entries:
            row = tuple(row)
            ints = tuple(map(int, row))
            if ints != row:
                bad = next(x for x, i in zip(row, ints) if i != x)
                raise ValueError(f"non-integral entry {bad!r}")
            rows.append(ints)
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", tuple(rows))
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def _of_rows(rows, cols: int) -> "IntMatrix":
        """Wrap a tuple of rows, each a tuple of ``cols`` Python ints, unchecked.

        For results built here from integer matrices, which hold ints by
        construction; a matrix from outside goes through the checking
        constructor.  ``cols`` is given because no row may be there to
        read it off.
        """
        m = object.__new__(IntMatrix)
        object.__setattr__(m, "entries", rows)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        return m

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._of_rows(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._of_rows(((0,) * cols,) * rows, cols)

    # -- basic protocol ----------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
            if not (self.rows and other.rows):
                return IntMatrix.zero(self.rows, other.cols)
            return IntMatrix._of_rows(int_matmul(self.entries, other.entries), other.cols)
        if isinstance(other, int):
            return IntMatrix._of_rows(
                tuple(tuple(x * other for x in row) for row in self.entries), self.cols
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._of_rows(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + (other * -1)

    def __neg__(self):
        return self * -1

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix._of_rows(((),) * self.cols, 0)
        return IntMatrix._of_rows(tuple(zip(*self.entries)), self.rows)

    def apply(self, vector):
        """Matrix times column vector, returned as a tuple."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.entries)

    def act_on_row(self, vector):
        """Row vector times matrix, returned as a tuple."""
        if len(vector) != self.rows:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(vector[i] * self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)
        )

    def determinant(self) -> int:
        """Exact determinant by Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.determinant()) == 1

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def int_matmul(A, B):
    """Product of two integer matrices given as tuples of rows."""
    bt = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in A)


def vstack(*matrices: IntMatrix) -> IntMatrix:
    mats = [m for m in matrices if m.rows > 0]
    if not mats:
        return IntMatrix.zero(0, matrices[0].cols if matrices else 0)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    rows = []
    for m in mats:
        rows.extend(m.entries)
    return IntMatrix._of_rows(tuple(rows), cols)


class FGAbelianGroup:
    """Finitely generated abelian group given by its invariant factors.

    ``invariant_factors`` is the chain d_1 | d_2 | ... with trivial factors
    (= 1) removed and free factors encoded as 0, listed last.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, factors):
        factors = [int(d) for d in factors]
        if any(d < 0 for d in factors):
            raise ValueError("invariant factors must be non-negative")
        torsion = [d for d in factors if d > 1]
        free = [d for d in factors if d == 0]
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        object.__setattr__(self, "invariant_factors", tuple(torsion + free))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("FGAbelianGroup is immutable")

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d == 0)

    @property
    def torsion_factors(self):
        return tuple(d for d in self.invariant_factors if d > 0)

    def order(self):
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion_factors:
            n *= d
        return n

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __eq__(self, other):
        return (
            isinstance(other, FGAbelianGroup)
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        return f"FGAbelianGroup({list(self.invariant_factors)})"


class GModuleLattice:
    """A lattice Z^rank with a finite group acting by unimodular matrices.

    The action is stored in the homomorphism convention
    ``action(g*h) = action(g) * action(h)`` (matrices act on column
    vectors from the left).  Character coefficient vectors live in this
    lattice; pairing a character against a cocharacter row is the plain
    dot product.  This convention is fixed here once and relied on
    throughout the package.
    """

    __slots__ = ("rank", "elements", "action")

    def __init__(self, rank, action):
        action = dict(action)
        for g, m in action.items():
            if not isinstance(m, IntMatrix):
                m = IntMatrix(m)
                action[g] = m
            if m.rows != rank or m.cols != rank:
                raise ValueError(f"action matrix for {g!r} has wrong shape")
            if not m.is_unimodular():
                raise ValueError(f"action matrix for {g!r} is not unimodular")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "elements", tuple(action.keys()))
        object.__setattr__(self, "action", action)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("GModuleLattice is immutable")

    @property
    def group_order(self) -> int:
        return len(self.elements)

    def act(self, g) -> IntMatrix:
        return self.action[g]

    def check_homomorphism(self, multiply, identity) -> None:
        """Assert action(g·h) = action(g)·action(h) over the whole group."""
        if self.action[identity] != IntMatrix.identity(self.rank):
            raise AssertionError("action at the identity is not the identity matrix")
        for g in self.elements:
            for h in self.elements:
                if self.action[multiply(g, h)] != self.action[g] * self.action[h]:
                    raise AssertionError(f"action is not a homomorphism at ({g!r}, {h!r})")


# ---------------------------------------------------------------------------
# Integer normal forms
# ---------------------------------------------------------------------------


def smith_normal_form(M: IntMatrix):
    """Return (U, D, V) with U·M·V = D, U, V unimodular, D diagonal.

    The diagonal entries are non-negative and form a divisibility chain
    d_1 | d_2 | ...  Computed by alternating row and column Hermite
    reductions (Kannan-Bachem); each pass reduces entries modulo its
    pivots, so intermediate values stay bounded by minors of M instead of
    exploding the way a naive pivot dance can.  Both passes are
    deterministic, hence so is the output.
    """
    rows, cols = M.rows, M.cols
    a = M
    u = IntMatrix.identity(rows)
    v = IntMatrix.identity(cols)

    def off_diagonal(m):
        return any(
            m.entries[i][j] != 0
            for i in range(m.rows)
            for j in range(m.cols)
            if i != j
        )

    for _ in range(10_000):
        h, u1 = hermite_normal_form(a)
        a, u = h, u1 * u
        if off_diagonal(a):
            h2, v1 = hermite_normal_form(a.transpose())
            a, v = h2.transpose(), v * v1.transpose()
        if off_diagonal(a):
            continue
        n = min(rows, cols)
        diag = [a.entries[i][i] for i in range(n)]
        offender = next(
            (
                i
                for i in range(n - 1)
                if diag[i + 1] and (diag[i] == 0 or diag[i + 1] % diag[i])
            ),
            None,
        )
        if offender is None:
            if u * M * v != a:
                raise AssertionError("Smith form must satisfy U * M * V == D")
            return u, a, v
        # Fold the next column into this one.  The coming row pass then
        # puts gcd(d_i, d_{i+1}) at position i; a row fold would be undone
        # by the row pass without ever shrinking the chain defect.
        folded = [list(r) for r in a.entries]
        for r in folded:
            r[offender] += r[offender + 1]
        a = IntMatrix(folded)
        v_rows = [list(r) for r in v.entries]
        for r in v_rows:
            r[offender] += r[offender + 1]
        v = IntMatrix(v_rows)
    raise AssertionError("normal form alternation failed to converge")


def hermite_normal_form(M: IntMatrix):
    """Return (H, U) with U·M = H in row Hermite normal form.

    H is in row-echelon shape with positive pivots, and every entry above a
    pivot is reduced into [0, pivot).  U is unimodular.
    """
    rows, cols = M.rows, M.cols
    a = [list(r) for r in M.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    r = 0
    for j in range(cols):
        # Euclid in column j among rows >= r.
        while True:
            live = [i for i in range(r, rows) if a[i][j]]
            if not live:
                pivot_row = None
                break
            i0 = min(live, key=lambda i: (abs(a[i][j]), i))
            for i in live:
                if i != i0:
                    row_op(i, i0, a[i][j] // a[i0][j])
            if all(a[i][j] == 0 for i in range(r, rows) if i != i0):
                pivot_row = i0
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            u[r], u[pivot_row] = u[pivot_row], u[r]
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):  # reduce entries above the pivot
            q = a[i][j] // a[r][j]
            if q:
                row_op(i, r, q)
        r += 1
        if r == rows:
            break
    return (
        IntMatrix._of_rows(tuple(map(tuple, a)), cols),
        IntMatrix._of_rows(tuple(map(tuple, u)), rows),
    )


def hnf_reduce(h: IntMatrix, vector):
    """Reduce an integer row vector against a Hermite form: (q, r).

    vector = q·h + r, and r[p] lies in [0, h[i][p]) at the pivot column p
    of each nonzero row i.  Rows are taken in order, and a row is zero left
    of its pivot, so no step undoes an earlier one.  The vector lies in the
    row span of h exactly when r is zero: the first nonzero entry of a
    nonzero combination of the rows sits at a pivot column and is a
    multiple of that pivot, which no nonzero r can match.
    """
    r = list(vector)
    n = len(r)
    if n != h.cols:
        raise ValueError("vector length mismatch")
    q = [0] * h.rows
    p = 0
    for i, row in enumerate(h.entries):
        while p < n and not row[p]:
            p += 1
        if p == n:
            break
        c = r[p] // row[p]
        if c:
            q[i] = c
            for j in range(p, n):
                r[j] -= c * row[j]
        p += 1
    return tuple(q), tuple(r)


def kernel_lattice(M: IntMatrix) -> IntMatrix:
    """Saturated basis (as rows) of the left kernel {x : x·M = 0}, in HNF.

    One Hermite form gives it: with U·M = H, x·M = 0 iff (x·U^{-1})·H = 0,
    and the nonzero rows of H are independent, so the kernel is spanned by
    the U-rows sitting over the zero rows of H.  U is unimodular, so those
    rows extend to a basis of Z^rows and the kernel they span is saturated
    (a direct summand).  The basis returned is the Hermite form of theirs,
    which is unique for the lattice.
    """
    h, u = hermite_normal_form(M)
    basis = [u_row for h_row, u_row in zip(h.entries, u.entries) if not any(h_row)]
    if not basis:
        return IntMatrix.zero(0, M.rows)
    h, _ = hermite_normal_form(IntMatrix(basis))
    return IntMatrix([row for row in h.entries if any(row)])


def right_kernel(M: IntMatrix) -> IntMatrix:
    """Basis (as rows) of {x : M·x = 0}, x read as a column vector."""
    return kernel_lattice(M.transpose())


def cokernel(M: IntMatrix) -> FGAbelianGroup:
    """Invariant factors of Z^cols modulo the row span of M."""
    _, d, _ = smith_normal_form(M)
    n = min(M.rows, M.cols)
    diag = [d.entries[i][i] for i in range(n)]
    rank = sum(1 for x in diag if x)
    return FGAbelianGroup([x for x in diag if x] + [0] * (M.cols - rank))


def lattice_intersection(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Basis of the intersection of the row lattices of A and B.

    Rows of A and B must live in the same ambient Z^n.  The result is the
    Hermite basis of {x : x in rowspan(A) and x in rowspan(B)}.
    """
    if A.cols != B.cols:
        raise ValueError("ambient rank mismatch")
    if A.rows == 0 or B.rows == 0:
        return IntMatrix.zero(0, A.cols)
    stacked = vstack(A, B)
    ker = kernel_lattice(stacked)  # rows (u | v) with u·A + v·B = 0
    rows = []
    for row in ker.entries:
        u = row[: A.rows]
        vec = [sum(u[i] * A.entries[i][j] for i in range(A.rows)) for j in range(A.cols)]
        if any(vec):
            rows.append(vec)
    if not rows:
        return IntMatrix.zero(0, A.cols)
    h, _ = hermite_normal_form(IntMatrix(rows))
    return IntMatrix([row for row in h.entries if any(row)])


def solution_sublattice(conditions, ambient_rank=None) -> IntMatrix:
    """Saturated basis, in Hermite form, of the common kernel of operators.

    Each condition is an IntMatrix acting on column vectors of a common
    lattice Z^n; the result rows span {f : C·f = 0 for every C}.  With an
    empty condition list the full lattice comes back (ambient_rank must be
    given in that case).
    """
    conditions = [c if isinstance(c, IntMatrix) else IntMatrix(c) for c in conditions]
    if not conditions:
        if ambient_rank is None:
            raise ValueError("empty condition list needs an explicit ambient_rank")
        return IntMatrix.identity(ambient_rank)
    n = conditions[0].cols
    if ambient_rank is not None and ambient_rank != n:
        raise ValueError("ambient_rank disagrees with operator shape")
    if any(c.cols != n for c in conditions):
        raise ValueError("operators act on different lattices")
    stacked = vstack(*conditions)
    if stacked.is_zero():
        return IntMatrix.identity(n)
    return right_kernel(stacked)


class RowSpan:
    """The row lattice of ``basis``, with its Hermite form computed once.

    ``hermite`` and ``transform`` are (H, U) of `hermite_normal_form`, so
    U·basis = H; every solve against the basis reduces against that one H.
    """

    __slots__ = ("basis", "hermite", "transform")

    def __init__(self, basis: IntMatrix):
        self.basis = basis
        self.hermite, self.transform = hermite_normal_form(basis)

    def solve(self, vector):
        """Integer coefficients expressing ``vector`` in the rows of the basis.

        Returns a tuple c with c·basis = vector, or None when no integer
        solution exists.  Reduce the vector against H: vector = y·H + r.  A
        remainder r means the vector is off the lattice; otherwise
        vector = y·H = (y·U)·basis, so c = y·U.  When the rows of the basis
        are dependent the solution is one of many.
        """
        y, r = hnf_reduce(self.hermite, vector)
        if any(r):
            return None
        return self.transform.act_on_row(y)

    def is_saturated(self) -> bool:
        """Whether Z^cols modulo the lattice is torsion-free.

        The nonzero rows H* of H are independent, so unimodular column
        operations take H* to (T | 0) with T square and nonsingular, and the
        torsion has order |det T|.  The row Hermite form of H*ᵀ is one such
        reduction, with Tᵀ upper triangular in its top rows, so the torsion
        is trivial exactly when all of its pivots are 1.  When the pivots of
        H* itself are all 1 its pivot minor is 1, and so is |det T|.
        """
        nonzero = [row for row in self.hermite.entries if any(row)]
        pivots = [next(x for x in row if x) for row in nonzero]
        if all(p == 1 for p in pivots):
            return True
        star = IntMatrix._of_rows(tuple(nonzero), self.hermite.cols)
        h, _ = hermite_normal_form(star.transpose())
        return all(row[i] == 1 for i, row in enumerate(h.entries[: len(nonzero)]))


def lattice_contains(basis: IntMatrix, vector) -> bool:
    """Whether the integer row vector lies in the row span of ``basis``."""
    return solve_int_rowspan(basis, vector) is not None


def solve_int_rowspan(basis: IntMatrix, vector):
    """`RowSpan.solve` for one vector; build a RowSpan to solve many."""
    return RowSpan(basis).solve(vector)


def lattice_shell(h, height: int):
    """Points of the lattice spanned by the rows of the upper triangular h
    with max |coordinate| == height, in increasing coordinate order.

    Each coordinate x_j runs over x_j = prefix_j + c * h[j][j] in [-height,
    height], back-substituted row by row, so the walk is lexicographic.
    """
    d = len(h)

    def walk(j, x, on_shell):
        row = h[j]
        piv = row[j]
        if j == d - 1:
            ends = range(-height, height + 1) if on_shell else (-height, height)
            for v in ends:
                if (v - x[j]) % piv == 0:
                    yield tuple(x[:j]) + (v,)
            return
        for c in range(-((height + x[j]) // piv), (height - x[j]) // piv + 1):
            y = x[:j] + [x[k] + c * row[k] for k in range(j, d)]
            yield from walk(j + 1, y, on_shell or abs(y[j]) == height)

    return walk(0, [0] * d, False)


def prime_factors(n: int) -> list:
    """The distinct primes dividing n, in increasing order, by trial division."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def int_matrix_inverse(M: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix, exact.

    The row Hermite form of a unimodular M is the identity, so its
    transform U satisfies U·M = I.
    """
    h, u = hermite_normal_form(M)
    if M.rows != M.cols or h != IntMatrix.identity(M.rows):
        raise ValueError("matrix is not unimodular")
    return u


# ---------------------------------------------------------------------------
# Exact rational linear algebra (tuple-of-tuples of Fraction)
# ---------------------------------------------------------------------------


def frac_matrix(entries):
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


def frac_identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def frac_matmul(A, B):
    if A and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    bt = tuple(zip(*B)) if B else ()
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in A)


def _gauss_jordan(a, ncols):
    """Reduce the list-of-lists ``a`` in place over its first ``ncols`` columns.

    Gauss-Jordan over the field of the entries: the pivot of a column is its
    first nonzero entry at or below the current row, the pivot row is scaled
    to 1 and the column is cleared in every other row; later columns (an
    augmented block) are carried along.  Returns the pivot columns; pivot
    row i holds the i-th of them.
    """
    m = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def frac_inv(A):
    n = len(A)
    a = [list(r) + list(e) for r, e in zip(A, frac_identity(n))]
    if len(_gauss_jordan(a, n)) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in a)


def frac_solve(A, b):
    """One exact solution x of A·x = b, or None when inconsistent.

    A is m×n (tuples of Fractions), b a length-m vector.  Free variables
    are set to zero.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    a = [list(row) + [Fraction(b[i])] for i, row in enumerate(A)]
    pivots = _gauss_jordan(a, n)
    for i in range(len(pivots), m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return tuple(x)


def frac_nullspace(A):
    """Basis (rows) of {x : A·x = 0} over the rationals."""
    n = len(A[0]) if A else 0
    a = [list(row) for row in A]
    pivots = _gauss_jordan(a, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(tuple(vec))
    return tuple(basis)


def common_denominator(rows) -> int:
    """Least common multiple of the denominators of a rational matrix."""
    denom = 1
    for row in rows:
        for x in row:
            denom = lcm(denom, Fraction(x).denominator)
    return denom


def alternating_frobenius(M: IntMatrix):
    """Congruence normal form of an alternating integer matrix.

    Returns (U, invariants) with U unimodular and U·M·Uᵀ block diagonal,
    the k-th 2×2 block being [[0, d_k], [-d_k, 0]] with d_k > 0 and
    d_1 | d_2 | ...  A zero block may trail when M is degenerate.  Pivot
    selection mirrors smith_normal_form: smallest absolute nonzero entry
    of the remaining block, row-major tie-breaking, so the basis change
    is deterministic.
    """
    n = M.rows
    if M.cols != n or M.transpose() != -M:
        raise ValueError("matrix is not alternating")
    a = [list(r) for r in M.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def basis_add(i, j, c):  # e_i += c·e_j, applied on both sides
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r in a:
            r[i] += c * r[j]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def basis_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in a:
            r[i], r[j] = r[j], r[i]
        u[i], u[j] = u[j], u[i]

    def pivot(b):  # smallest entry of the trailing block to (b, b+1), positive
        best = None
        for i in range(b, n):
            for j in range(b, n):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            return False
        _, pi, pj = best
        if pi != b:
            basis_swap(pi, b)
            pj = pi if pj == b else pj
        if pj != b + 1:
            basis_swap(pj, b + 1)
        if a[b][b + 1] < 0:
            basis_swap(b, b + 1)
        return True

    invariants = []
    b = 0
    while b + 1 < n and pivot(b):
        while True:
            d = a[b][b + 1]
            dirty = False
            for k in range(b + 2, n):
                if a[b][k]:
                    basis_add(k, b + 1, -(a[b][k] // d))
                    dirty = dirty or a[b][k] != 0
                if a[b + 1][k]:
                    basis_add(k, b, a[b + 1][k] // d)
                    dirty = dirty or a[b + 1][k] != 0
            if dirty:
                # A remainder smaller than the pivot appeared; re-pivot the
                # whole trailing block on it.
                pivot(b)
                continue
            offender = None
            for i in range(b + 2, n):
                for j in range(b + 2, n):
                    if a[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            basis_add(b, offender, 1)
        invariants.append(a[b][b + 1])
        b += 2
    for i in range(b, n):
        for j in range(b, n):
            if a[i][j]:
                raise AssertionError("nonzero tail after an odd-rank sweep")
    return IntMatrix(u), tuple(invariants)
