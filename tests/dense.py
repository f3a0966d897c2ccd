"""Dense references the tests check the sparse core against.

gnla's Matrix keeps only what the package reads; the products, the
column builder, the identity, the inverse and the subspace intersection
that the oracles still use live here.  The inverse is the right half of
a dense Fraction Gauss-Jordan reduction of [A | I], independent of the
package's integer core; intersect is the sparse intersection the package
carried before its callers went, kept as it was.
"""

from fractions import Fraction

from gnla import Matrix, Subspace
from gnla.linalg import _combined, _kernel


def identity(n):
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def from_columns(cols):
    """The matrix with the given columns; from_columns(m.rows) is the
    transpose of m."""
    cols = [tuple(c) for c in cols]
    if not cols:
        return Matrix([])
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("ragged columns")
    return Matrix(list(zip(*cols)))


def mul(a, b):
    """The product a b of two matrices."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    cols = list(zip(*b.rows))
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in cols]
                   for row in a.rows])


def reference_rref(rows):
    """Dense Fraction Gauss-Jordan: leftmost pivot, rows top down.  The
    elimination gnla used before its integer core; an oracle only."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        if inv != 1:
            rows[r] = [e / inv for e in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def inverse(m):
    """A^-1 as the right half of the reference RREF of [A | I]; raises
    ValueError("matrix is singular") when A is."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m.rows)]
    reduced, pivots = reference_rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([r[n:] for r in reduced])


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    A vector lies in both spans iff it can be written over both bases:
    the kernel of the rows {k: a_k[i]} + {dim a + l: -b_l[i]} holds the
    matching coefficient pairs, each led in its a-part (b is independent).
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    rows = [{} for _ in range(n)]
    for k, r in enumerate(a._rows):
        for i, e in r:
            rows[i][k] = e
    for k, r in enumerate(b._rows, a.dim):
        for i, e in r:
            rows[i][k] = -e
    return _combined(_kernel(rows, a.dim + b.dim), a._rows, n)
