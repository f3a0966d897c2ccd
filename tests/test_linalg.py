import copy
import pickle
import random
from fractions import Fraction

import pytest

from dense import from_columns, identity, intersect, mul, reference_rref
from gnla import catalog, prolong_layer, prolongation
from gnla import Polynomial, change_basis, classify, parse_algebra
from gnla.linalg import (
    Matrix,
    Subspace,
    _densified,
    _integer_kernel,
    _integer_row,
    _inverse,
    _kernel,
    _kernel_rows,
    _reduced,
    _rref_rows,
    frac,
    independent_rows,
    kernel_basis,
    solve,
    unit_vector,
    vector,
    zero_vector,
)


def random_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return Matrix([[Fraction(rng.randint(lo, hi)) for _ in range(ncols)]
                   for _ in range(nrows)])


def det_naive(m):
    """Laplace expansion along the first row, for cross-checking."""
    n = m.nrows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = Matrix([[m[i, k] for k in range(n) if k != j]
                        for i in range(1, n)])
        sign = -1 if j % 2 else 1
        total += sign * m[0, j] * det_naive(minor)
    return total


def random_rational_rows(rng, nrows, ncols, max_den, density):
    """Sparse rational rows; some repeat or combine earlier rows."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and pick < 0.3:
            u, v = rng.sample(rows, 2)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
            rows.append([x + a * y for x, y in zip(u, v)])
        else:
            rows.append([Fraction(rng.randint(-max_den, max_den),
                                  rng.randint(1, max_den))
                         if rng.random() < density else Fraction(0)
                         for _ in range(ncols)])
    return rows


def dense_rref(rows):
    """_rref_rows densified as (nonzero rows, pivot columns), the
    reference's form."""
    ncols = len(rows[0]) if rows else 0
    sparse = _rref_rows(rows)
    return ([list(_densified(r, ncols)) for r in sparse],
            [r[0][0] for r in sparse])


def test_rref_core_matches_reference_gauss_jordan():
    rng = random.Random(29)
    assert dense_rref([]) == reference_rref([]) == ([], [])
    assert dense_rref([[Fraction(0)] * 4] * 3) == ([], [])
    for nrows, ncols in [(1, 1), (1, 6), (6, 1), (3, 9), (9, 3), (12, 12),
                         (25, 8), (8, 25), (30, 30)]:
        for max_den in (1, 7, 10 ** 6):
            for density in (0.1, 0.4, 1.0):
                rows = random_rational_rows(rng, nrows, ncols, max_den,
                                            density)
                assert dense_rref(rows) == reference_rref(rows)


def reference_independent_rows(rows):
    """Grow a Subspace one row at a time and keep the rows that raise
    its dimension; the loop the basis completions ran before
    independent_rows.  An oracle only."""
    keep = []
    acc = Subspace(len(rows[0]) if rows else 0, [])
    for i, row in enumerate(rows):
        grown = Subspace(acc.ambient_dim, list(acc.basis) + [row])
        if grown.dim > acc.dim:
            keep.append(i)
            acc = grown
    return keep


def test_independent_rows_matches_growing_a_subspace():
    rng = random.Random(31)
    assert independent_rows([]) == []
    assert independent_rows([[Fraction(0)] * 3] * 2) == []
    for nrows, ncols in [(1, 1), (1, 5), (5, 1), (4, 9), (9, 4), (12, 12),
                         (20, 6)]:
        for max_den in (1, 7, 10 ** 6):
            for density in (0.1, 0.4, 1.0):
                rows = random_rational_rows(rng, nrows, ncols, max_den,
                                            density)
                if rng.random() < 0.3:
                    rows.insert(rng.randrange(len(rows) + 1),
                                [Fraction(0)] * ncols)
                assert (independent_rows(rows)
                        == reference_independent_rows(rows))


def test_rref_of_a_prolongation_system_matches_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    systems = []
    kernel = prolongation._kernel_rows

    def capture(rows, ncols):
        # the kernel owns its rows: keep them as they came
        systems.append(([dict(r) for r in rows], ncols))
        return kernel(rows, ncols)

    monkeypatch.setattr(prolongation, "_kernel_rows", capture)
    a = catalog("heisenberg", dim=5)
    g0 = prolong_layer(a, 0, [])
    systems.clear()
    prolong_layer(a, 1, [g0])
    ((rows, ncols),) = systems
    # unknown j sits at key ncols - 1 - j
    m = Matrix([[row.get(ncols - 1 - j, 0) for j in range(ncols)]
                for row in rows])
    assert (m.nrows, m.ncols) == (28, 48)
    reduced, pivots = dense_rref(m.rows)
    oracle, oracle_pivots = sympy.Matrix(
        [[sympy.Rational(e.numerator, e.denominator) for e in row]
         for row in m.rows]).rref()
    assert tuple(pivots) == oracle_pivots
    want = [[Fraction(int(e.p), int(e.q)) for e in oracle.row(i)]
            for i in range(m.nrows)]
    assert want[:len(pivots)] == reduced
    assert not any(e for r in want[len(pivots):] for e in r)


def test_frac_accepts_common_inputs():
    assert frac(3) == Fraction(3)
    assert frac("2/7") == Fraction(2, 7)
    assert frac(Fraction(-1, 4)) == Fraction(-1, 4)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)


def test_vector_helpers():
    assert vector(["1/2", 0, -1]) == (Fraction(1, 2), Fraction(0), Fraction(-1))
    assert zero_vector(3) == (Fraction(0),) * 3
    assert unit_vector(4, 2) == (0, 0, 1, 0)


def test_matrix_shape_and_indexing():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == 6
    assert m.rows == ((1, 2, 3), (4, 5, 6))
    assert all(type(e) is Fraction for e in m.flatten())
    assert m.flatten() == (1, 2, 3, 4, 5, 6)
    assert (Matrix([]).nrows, Matrix([]).ncols) == (0, 0)
    with pytest.raises(ValueError, match="^ragged rows$"):
        Matrix([[1, 2], [3]])


def test_matrix_from_columns_round_trip():
    """The test-side column builder transposes: built from the rows of m,
    it gives the transpose, and twice, m again."""
    m = Matrix([[1, 2], [3, 4], [5, 6]])
    assert from_columns(m.rows).rows == ((1, 3, 5), (2, 4, 6))
    assert from_columns(from_columns(m.rows).rows) == m
    assert from_columns([]) == Matrix([])


def test_matrix_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert (a + b).rows == ((1, 3), (4, 4))
    assert (a + b.scale(-1)).rows == ((1, 1), (2, 4))
    assert a.scale(Fraction(-1, 2)).rows == ((Fraction(-1, 2), -1),
                                              (Fraction(-3, 2), -2))
    assert a.scale(2) == a + a
    assert mul(a, b).rows == ((2, 1), (4, 3))
    assert a.apply((1, 0)) == (1, 3)
    with pytest.raises(TypeError):
        a.scale(0.5)


def test_matrix_mul_shape_check():
    with pytest.raises(ValueError, match="^shape mismatch$"):
        Matrix([[1, 2]]) + Matrix([[1], [2]])
    with pytest.raises(ValueError, match="^shape mismatch$"):
        Matrix([[1, 2]]).apply((1, 2, 3))
    with pytest.raises(ValueError):
        mul(Matrix([[1, 2]]), Matrix([[1, 2]]))


def test_identity_and_zero():
    i3 = identity(3)
    z = Matrix.zero(2, 3)
    assert mul(i3, i3) == i3
    assert z.rows == ((0, 0, 0),) * 2
    assert z.is_zero()
    assert not i3.is_zero()


def test_is_skew():
    assert Matrix([[0, 2], [-2, 0]]).is_skew()
    assert not Matrix([[0, 2], [2, 0]]).is_skew()
    assert not Matrix([[1, 0], [0, 0]]).is_skew()


def test_is_skew_matches_the_definition():
    """m[i][j] == -m[j][i] for every cell, diagonal included, on seeded
    random skew matrices with cells changed on one side only, on the
    diagonal, or turned into their mirror."""
    rng = random.Random(2718)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = Fraction(rng.choice([0, 0, 1, -2, 3]), rng.randint(1, 3))
                rows[i][j], rows[j][i] = c, -c
        i, j = rng.randrange(n), rng.randrange(n)
        change = rng.choice(["none", "one side", "diagonal", "mirror"])
        if change == "one side":
            rows[i][j] += rng.choice([-1, 1])
        elif change == "diagonal":
            rows[i][i] = Fraction(rng.choice([-1, 1]), 2)
        elif change == "mirror":
            rows[i][j] = rows[j][i]
        m = Matrix(rows)
        expected = all(m[i, j] == -m[j, i]
                       for i in range(n) for j in range(n))
        assert m.is_skew() == expected
        seen[expected] += 1
    assert min(seen.values()) > 50
    assert not Matrix([[0, 1, 0], [-1, 0, 0]]).is_skew()


def test_rref_is_idempotent_and_pivots_are_unit_columns():
    """_rref_rows of its own rows, sparse or densified, is the same; each
    row is led by a 1 in increasing columns, lists no zero entry, and its
    pivot column is zero in every other row."""
    rng = random.Random(7)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        got = _rref_rows(m.rows)
        assert _rref_rows([dict(r) for r in got]) == got
        reduced, pivots = dense_rref(m.rows)
        assert _rref_rows(reduced) == got
        assert pivots == sorted(set(pivots))
        for r in got:
            assert r[0][1] == 1 and all(e for _, e in r)
            assert [j for j, _ in r] == sorted(j for j, _ in r)
        for k, c in enumerate(pivots):
            col = [row[c] for row in reduced]
            assert col[k] == 1
            assert all(col[i] == 0 for i in range(len(col)) if i != k)


def test_rank_matches_transpose_rank():
    rng = random.Random(11)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() == from_columns(m.rows).rank()


def test_det_against_laplace():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert m.det() == det_naive(m)


def test_det_against_sympy_and_laplace():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    for n in (0, 1, 2, 3, 5, 6, 9):
        for max_den in (1, 1000):
            rows = random_rational_rows(rng, n, n, max_den, 0.6)
            m = Matrix(rows)
            want = sympy.Matrix(n, n, [sympy.Rational(e.numerator,
                                                      e.denominator)
                                       for row in rows for e in row]).det()
            assert m.det() == Fraction(int(want.p), int(want.q))
            if 1 <= n <= 6:
                assert m.det() == det_naive(m)


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert mul(a, b).det() == a.det() * b.det()


def test_det_rejects_rectangular():
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


def rational_inverse(rows):
    """The inverse of square Fraction rows from linalg._inverse, read
    back as change_basis reads it: A^-1 = U^-1 S for the integer rows
    U = S A, S the row scales."""
    n = len(rows)
    scaled = [_integer_row(r) for r in rows]
    inv = _inverse([r for r, _ in scaled], n)
    return Matrix([[Fraction(r.get(k, 0) * scaled[k][1], lead)
                    for k in range(n)] for r, lead in inv])


def test_inverse():
    """_inverse of seeded integer matrices equals sympy's inverse, each
    row over its integer lead, and a singular matrix raises."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    found = singular = 0
    while found < 15:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        want = sympy.Matrix(rows)
        sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
        if want.det() == 0:
            singular += 1
            with pytest.raises(ValueError, match="^matrix is singular$"):
                _inverse(sparse, n)
            continue
        found += 1
        got = _inverse(sparse, n)
        assert all(type(lead) is int and lead for _, lead in got)
        assert [[Fraction(r.get(k, 0), lead) for k in range(n)]
                for r, lead in got] == [
            [Fraction(int(e.p), int(e.q)) for e in want.inv().row(i)]
            for i in range(n)]
        assert mul(Matrix(rows), rational_inverse(rows)) == identity(n)
    assert singular > 0


def test_inverse_singular_raises():
    """A singular matrix raises, whether its rank falls short in the
    first column, in a later one or at a zero row."""
    for rows in ([{0: 1, 1: 2}, {0: 2, 1: 4}], [{1: 1}, {1: 3}],
                 [{0: 1}, {}]):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            _inverse(rows, 2)


def test_inverse_matches_reference_gauss_jordan():
    """Random sparse rational matrices, singular ones included, and the
    empty one: the inverse read back from _inverse is the right half of
    the reference RREF of [A | I], and a singular matrix keeps its
    message."""
    rng = random.Random(331)
    singular = 0
    for trial in range(150):
        n = rng.randint(0, 8)
        a = random_rational_rows(rng, n, n, rng.choice((1, 3, 7)),
                                 rng.choice((0.4, 0.7, 1.0)))
        aug = [row + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(a)]
        reduced, pivots = reference_rref(aug)
        if pivots != list(range(n)):
            singular += 1
            with pytest.raises(ValueError, match="^matrix is singular$"):
                rational_inverse(a)
            continue
        got = rational_inverse(a)
        assert got.rows == tuple(tuple(r[n:]) for r in reduced)
        assert mul(got, Matrix(a)) == identity(n)
    assert 20 <= singular <= 130


def test_kernel_vectors_are_killed():
    rng = random.Random(17)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = kernel_basis(m)
        # rank-nullity
        assert ker.dim == m.ncols - m.rank()
        for v in ker.basis:
            assert all(x == 0 for x in m.apply(v))


def reference_kernel_basis(m):
    """Dense kernel vectors read off the integer RREF, then coerced and
    reduced again by Subspace(...): the kernel path before the sparse
    kernel routine.  An oracle only."""
    _, reduced = _reduced([_integer_row(r)[0] for r in m.rows])
    n = m.ncols
    zero, one = Fraction(0), Fraction(1)
    free = {j: [zero] * n for j in range(n) if j not in reduced}
    for j, v in free.items():
        v[j] = one
    for c, r in reduced.items():
        lead = r[c]
        for j, w in r.items():
            if j != c:
                free[j][c] = Fraction(-w, lead)
    return Subspace(n, list(free.values()))


def kernel_cases(rng):
    """Seeded rational matrices: zero matrices (every column free), zero
    rows among others, full column rank, wide and tall shapes, and
    denominators up to 10**6."""
    cases = [Matrix([[0] * 5] * 3), Matrix([[0]]), identity(4)]
    for nrows, ncols in [(1, 1), (1, 6), (6, 1), (3, 9), (9, 3), (8, 8),
                         (12, 20), (20, 12)]:
        for max_den in (1, 7, 10 ** 6):
            for density in (0.15, 0.5, 1.0):
                rows = random_rational_rows(rng, nrows, ncols, max_den,
                                            density)
                for _ in range(rng.randint(0, 2)):
                    rows.insert(rng.randrange(len(rows) + 1),
                                [Fraction(0)] * ncols)
                cases.append(Matrix(rows))
        # full column rank: the unit rows in a shuffled order, mixed with
        # random ones
        rows = [list(unit_vector(ncols, j)) for j in range(ncols)]
        rows += random_rational_rows(rng, nrows, ncols, 10 ** 6, 0.5)
        rng.shuffle(rows)
        cases.append(Matrix(rows))
    return cases


def test_kernel_basis_matches_sympy_nullspace_and_the_dense_path():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    dims = set()
    for m in kernel_cases(rng):
        got = kernel_basis(m)
        assert got == reference_kernel_basis(m)
        assert all(type(e) is Fraction for v in got.basis for e in v)
        null = sympy.Matrix(m.nrows, m.ncols, [
            sympy.Rational(e.numerator, e.denominator)
            for row in m.rows for e in row]).nullspace()
        want = []
        if null:
            span, _ = sympy.Matrix.hstack(*null).T.rref()
            want = [tuple(Fraction(int(e.p), int(e.q)) for e in span.row(i))
                    for i in range(len(null))]
        assert got.basis == tuple(want)
        dims.add(got.dim == 0 or got.dim == m.ncols)
    assert dims == {True, False}


def test_kernel_takes_dict_rows_like_dense_rows():
    rng = random.Random(47)
    for m in kernel_cases(rng):
        sparse = [{j: e for j, e in enumerate(row) if e} for row in m.rows]
        if sparse:
            # an explicit zero entry is no entry
            sparse[0][m.ncols - 1] = sparse[0].get(m.ncols - 1, Fraction(0))
        assert _kernel(sparse, m.ncols) == _kernel(m.rows, m.ncols)
        assert _kernel(sparse, m.ncols) == kernel_basis(m)
    assert (_kernel([], 4) == _kernel([{}, {}], 4)
            == Subspace(4, identity(4).rows))


def test_kernel_eliminates_once(monkeypatch):
    """One _reduced call per kernel: _kernel on the kernel cases, which it
    leaves unchanged, and _integer_kernel on the heisenberg5 integer
    Leibniz systems of degrees 0-2, which it owns and so is handed a
    copy of, with the same basis as the oracle, and the sparse rows the
    subspace keeps equal its basis."""
    from gnla import linalg

    systems = []
    kernel = prolongation._kernel_rows

    def capture(rows, ncols):
        systems.append(([dict(r) for r in rows], ncols))
        return kernel(rows, ncols)

    monkeypatch.setattr(prolongation, "_kernel_rows", capture)
    a = catalog("heisenberg", dim=5)
    layers = []
    for k in range(3):
        layers.append(prolong_layer(a, k, layers))
    monkeypatch.undo()
    assert len(systems) == 3
    assert all(type(v) is int and v for rows, _ in systems
               for row in rows for v in row.values())
    cases = [(_kernel, m.rows, m.ncols)
             for m in kernel_cases(random.Random(53))]
    cases += [(_integer_kernel, rows, ncols) for rows, ncols in systems]
    calls = []
    reduced = linalg._reduced

    def counted(rows, bound=None):
        calls.append(1)
        return reduced(rows, bound)

    monkeypatch.setattr(linalg, "_reduced", counted)
    for entry, rows, ncols in cases:
        calls.clear()
        before = repr(rows)
        got = entry(rows if entry is _kernel else [dict(r) for r in rows],
                    ncols)
        assert len(calls) == 1
        assert repr(rows) == before
        # the integer rows key unknown j at ncols - 1 - j
        m = Matrix([[row.get(ncols - 1 - j, 0) for j in range(ncols)]
                    if isinstance(row, dict) else row for row in rows])
        if m.nrows:
            assert got == reference_kernel_basis(m)
        rebuilt = []
        for entries in got._rows:
            assert [j for j, _ in entries] == sorted(j for j, _ in entries)
            v = [Fraction(0)] * ncols
            for j, e in entries:
                assert e and type(e) is Fraction
                v[j] = e
            rebuilt.append(tuple(v))
        assert tuple(rebuilt) == got.basis


def reversed_integer_rows(m):
    """The rows of m scaled to integers by _integer_row, unknown j keyed
    at ncols - 1 - j as the integer kernel takes them."""
    last = m.ncols - 1
    return [{last - j: v for j, v in _integer_row(r)[0].items()}
            for r in m.rows]


def test_integer_kernel_matches_kernel_in_any_row_order():
    """_integer_kernel of the rows _kernel scales to integers gives the
    same subspace, and so does either entry on the rows shuffled: the
    sparsest-first sort changes only the work."""
    rng = random.Random(59)
    for m in kernel_cases(rng):
        want = _kernel(m.rows, m.ncols)
        assert _integer_kernel(reversed_integer_rows(m), m.ncols) == want
        order = list(range(m.nrows))
        rng.shuffle(order)
        assert _kernel([m.rows[i] for i in order], m.ncols) == want
        ints = reversed_integer_rows(m)
        assert _integer_kernel([ints[i] for i in order], m.ncols) == want


def test_kernel_rows_are_the_rref_over_least_denominators():
    """Each integer kernel row is the oracle's RREF basis vector times
    its least positive denominator, entries in increasing unknown with
    no zero, and _integer_kernel is its Fraction view."""
    from math import gcd

    rng = random.Random(61)
    for m in kernel_cases(rng):
        got = _kernel_rows(reversed_integer_rows(m), m.ncols)
        want = reference_kernel_basis(m)
        assert len(got) == want.dim
        for (entries, den), v in zip(got, want.basis):
            assert type(den) is int and den > 0
            assert all(type(x) is int and x for _, x in entries)
            assert [j for j, _ in entries] == sorted(j for j, _ in entries)
            assert gcd(den, *(x for _, x in entries)) == 1
            assert _integer_row(v) == (dict(entries), den)
        assert _integer_kernel(reversed_integer_rows(m), m.ncols) == want


def test_solve_consistent_and_inconsistent():
    rng = random.Random(19)
    checked_none = 0
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(m.nrows))
        x = solve(m, b)
        if x is None:
            # confirmed by rank comparison with the augmented matrix
            aug = Matrix([list(r) + [b[i]] for i, r in enumerate(m.rows)])
            assert aug.rank() == m.rank() + 1
            checked_none += 1
        else:
            assert m.apply(x) == b
    assert checked_none > 0


def test_solve_known_system():
    m = Matrix([[1, 1], [1, -1]])
    assert solve(m, (3, 1)) == (2, 1)


def test_subspace_basis_is_canonical():
    s1 = Subspace(3, [(1, 1, 0), (0, 0, 1)])
    s2 = Subspace(3, [(1, 1, 1), (0, 0, 2), (1, 1, 3)])
    assert s1 == s2
    assert s1.dim == 2


def test_subspace_contains_and_coordinates():
    s = Subspace(3, [(1, 0, 2), (0, 1, -1)])
    v = (3, 2, 4)
    assert s.contains(v)
    coords = s.coordinates(v)
    rebuilt = [sum(c * b[i] for c, b in zip(coords, s.basis))
               for i in range(3)]
    assert tuple(rebuilt) == vector(v)
    assert s.coordinates((0, 0, 1)) is None
    assert not s.contains((0, 0, 1))


def test_subspace_sum_and_intersection_dims():
    """dim(A + B) + dim(A meet B) = dim A + dim B on random spans."""
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = Subspace(n, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                         for _ in range(rng.randint(0, n))])
        b = Subspace(n, [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                         for _ in range(rng.randint(0, n))])
        both = intersect(a, b)
        assert Subspace(n, a.basis + b.basis).dim + both.dim == a.dim + b.dim
        for v in both.basis:
            assert a.contains(v) and b.contains(v)
        assert both == intersect(b, a)


def reference_intersect(a, b):
    """The intersection through the dense stacked matrix [A^t | -B^t],
    each kernel vector combined over a's basis densely and the span
    reduced again; an oracle only."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient_dim)
    n = a.ambient_dim
    cols = [list(v) for v in a.basis] + [[-e for e in v] for v in b.basis]
    stacked = Matrix([[cols[j][i] for j in range(len(cols))] for i in range(n)])
    pairs = kernel_basis(stacked)
    vectors = []
    for coeffs in pairs.basis:
        v = [Fraction(0)] * n
        for c, row in zip(coeffs[:a.dim], a.basis):
            if c != 0:
                v = [x + c * y for x, y in zip(v, row)]
        vectors.append(v)
    return Subspace(n, vectors)


def test_intersect_matches_reference():
    """Same RREF basis as the dense route on seeded random pairs,
    sparse and dense, among them zero, full and equal pairs; the basis
    read off the kernel is already reduced."""
    rng = random.Random(5150)
    nonzero = 0
    for t in range(200):
        n = rng.randint(1, 7)

        def span():
            k = rng.randint(0, n)
            return Subspace(n, [[Fraction(rng.choice([0, 0, 0, 1, -1, 2]),
                                          rng.randint(1, 2))
                                 for _ in range(n)] for _ in range(k)])
        pick = t % 5
        a = Subspace(n) if pick == 1 else span()
        b = (Subspace(n, identity(n).rows) if pick == 2
             else a if pick == 3 else span())
        got = intersect(a, b)
        assert got.basis == reference_intersect(a, b).basis
        assert got.basis == Subspace(n, got.basis).basis
        assert got == intersect(b, a)
        nonzero += got.dim > 0
    assert nonzero > 50
    with pytest.raises(ValueError):
        intersect(Subspace(2), Subspace(3))


def test_subspace_zero_and_full():
    z = Subspace(4)
    f = Subspace(4, identity(4).rows)
    assert z.dim == 0 and f.dim == 4
    assert z.basis == () and f.basis == identity(4).rows
    assert f.contains((1, 2, 3, 4)) and not z.contains((0, 0, 1, 0))
    assert z.coordinates((0, 0, 0, 0)) == ()
    assert f.coordinates((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert intersect(z, f) == z
    assert Subspace(4, z.basis + f.basis) == f


def round_trips(obj):
    return [copy.copy(obj), copy.deepcopy(obj),
            pickle.loads(pickle.dumps(obj))]


def test_matrix_and_subspace_copy_and_pickle():
    """Copies, deep copies and pickle round trips are equal, still
    immutable, and keep a subspace's RREF rows whether or not its dense
    basis was read."""
    for m in (Matrix([[1, Fraction(2, 3)], [0, -5]]), identity(2),
              Matrix([])):
        for twin in round_trips(m):
            assert twin == m and twin.rows == m.rows
            assert (twin.nrows, twin.ncols) == (m.nrows, m.ncols)
            with pytest.raises(AttributeError):
                twin.nrows = 3
    for read in (False, True):
        for s in (Subspace(4, [(1, 2, 0, Fraction(1, 3)), (0, 0, 1, -1)]),
                  Subspace(3, identity(3).rows), Subspace(2)):
            if read:
                s.basis
            for twin in round_trips(s):
                assert twin == s and twin._rows == s._rows
                assert twin.basis == s.basis
                with pytest.raises(AttributeError):
                    twin.ambient_dim = 5
    # algebras and polynomials share the immutable base: a catalog
    # algebra, a parsed one and a basis change classify alike after a round
    # trip, and a polynomial's caches travel whether or not they were read
    parsed = parse_algebra("algebra parsed\nbasis X:-1 Y:-1 W:-2\n"
                           "bracket [X,Y] = 3/2 W\n")
    moved = change_basis(catalog("goursat", n=4), [
        (1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, Fraction(1, 3))],
        ["A", "B", "C", "D"])
    for a in (catalog("nontrivial6"), parsed, moved):
        verdict = classify(a)
        for twin in round_trips(a):
            assert twin == a and twin.name == a.name
            assert twin.brackets == a.brackets and twin._terms == a._terms
            assert twin.layer_dims() == a.layer_dims()
            assert classify(twin) == verdict
            with pytest.raises(AttributeError, match="GNLA is immutable"):
                twin.name = "renamed"
    for read in (False, True):
        p = Polynomial(("x", "y"), {(2, 0): Fraction(1, 2), (1, 1): -3,
                                    (0, 0): Fraction(2, 7)})
        if read:
            p.terms, p._lexp()
        for twin in round_trips(p):
            assert (twin._lead is None, twin._terms is None) == (not read,) * 2
            assert twin == p and hash(twin) == hash(p)
            assert twin.terms == p.terms and twin.leading() == p.leading()
            assert str(twin) == str(p)
            with pytest.raises(AttributeError,
                               match="Polynomial is immutable"):
                twin._scale = 1
