"""Dense references the tests check the sparse core against.

gnla's Matrix keeps only what the package reads; the products, the
column builder, the identity, the inverse and the subspace intersection
that the oracles still use live here.  The inverse is the right half of
a dense Fraction Gauss-Jordan reduction of [A | I], independent of the
package's integer core; intersect is the sparse intersection the package
carried before its callers went, kept as it was, with the sum of
coefficient rows over an RREF basis that it reads (combined).

The references that stand in for public names the package dropped
because only tests read them are kept here too: reference_evaluate (a
polynomial's value at a point), reference_pencil_block (one canonical
skew pencil block) and h0_closed_form (dim h0 and a rank 1 element of
h0 for a single M or F block).

The univariate helpers as gnla wrote them over Fractions, before a
polynomial in t became an integer list, are kept here too:
reference_interpolated (one Vandermonde solve), reference_trimmed,
reference_poly_divmod (division over Q),
reference_poly_gcd (Euclid over Q), reference_poly_value and
reference_rational_roots (Sturm isolation on Fraction points).

The decomposition round trip as gnla built it before its structure
constants became an integer table is kept here too: bracket sums dense
Fraction vectors over the Fraction view of the table, change_basis maps
dense brackets back by the reference inverse, and
decompose_special_extension, split and special_extension are the
package's former Fraction builders on top of them.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from gnla import GNLA, Matrix, Subspace, solve
from gnla.algebra import _jacobi_failures
from gnla.certifier import DecompositionResult, WitnessInvalid, _moved_transversal
from gnla.constructions import (
    Cochain2,
    JacobiViolation,
    _cocycle_slot_vector,
    _module_covector,
    _slots,
)
from gnla.linalg import (
    _kernel,
    frac,
    independent_rows,
    unit_vector,
    vector,
    zero_vector,
)


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
    return combined(_kernel(rows, a.dim + b.dim), a._rows, n)


def combined(coeffs: Subspace, basis, n: int) -> Subspace:
    """The span of the sums sum_k c_k basis[k] over the basis vectors c of
    coeffs, for basis the sparse rows of an RREF of n-vectors and each c
    led within it.  A sum reads c_k at the pivot of basis[k], so the sums
    are RREF rows.  Entries of c past the basis are ignored."""
    sums = []
    for c in coeffs._rows:
        v = {}
        for k, ck in c:
            if k >= len(basis):
                break
            for j, e in basis[k]:
                v[j] = v.get(j, 0) + ck * e
        sums.append(tuple((j, v[j]) for j in sorted(v) if v[j]))
    return Subspace._trusted(n, tuple(sums))


def bracket(a, x, y):
    """[x, y] with both dense vectors scanned in full, read off the
    Fraction view of the structure constants."""
    x = tuple(Fraction(c) for c in x)
    y = tuple(Fraction(c) for c in y)
    out = [Fraction(0)] * a.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            for k, c in a.bracket_terms(i, j):
                out[k] += xi * yj * c
    return tuple(out)


def change_basis(a, vectors, labels, name=None):
    """The algebra in a new homogeneous basis: dense brackets of the new
    vectors, each mapped back by a dense P^-1 product."""
    n = a.dim
    vecs = [tuple(Fraction(c) for c in v) for v in vectors]
    if len(vecs) != n or len(labels) != n:
        raise ValueError("need exactly dim basis vectors and labels")
    degrees = []
    for v in vecs:
        degs = {a.degrees[p] for p, c in enumerate(v) if c != 0}
        if len(degs) != 1:
            raise ValueError("new basis vectors must be homogeneous")
        degrees.append(degs.pop())
    p_inv = inverse(from_columns(vecs))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket(a, vecs[i], vecs[j])
            if any(w):
                brackets[(i, j)] = [(k, c) for k, c in
                                    enumerate(p_inv.apply(w)) if c != 0]
    return GNLA(name or a.name, list(zip(labels, degrees)), brackets)


def split(adapted, kept, labels, name):
    """The algebra cut to the kept positions, and the components of each
    of its brackets that escape, read off the Fraction view."""
    index = {p: i for i, p in enumerate(kept)}
    rest = [p for p in range(adapted.dim) if p not in index]
    brackets, escaped = {}, {}
    for (p, q), terms in adapted.brackets.items():
        if p in index and q in index:
            terms = dict(terms)
            pair = (index[p], index[q])
            brackets[pair] = [(index[k], c) for k, c in terms.items()
                              if k in index]
            escaped[pair] = [terms.get(k, 0) for k in rest]
    basis = [(lbl, adapted.degrees[p]) for lbl, p in zip(labels, kept)]
    return GNLA(name, basis, brackets), escaped


def decompose_special_extension(a, y):
    """The decomposition on dense Fraction vectors: the chain by bracket,
    the ideal, commutativity and centraliser checks on dense brackets,
    the kernel of the dense ad y and a second kernel for its degree -1
    part, and the adapted algebra by the reference change_basis."""
    y = vector(y)
    _, x_pos = _moved_transversal(a, y)
    n = a.dim
    x_vec = a.basis_vector(x_pos)
    units = [a.basis_vector(j) for j in range(n)]
    ad_rows = list(zip(*[bracket(a, y, e) for e in units]))

    chain = [y]
    while True:
        nxt = bracket(a, x_vec, chain[-1])
        if not any(nxt):
            break
        if len(chain) == n:
            raise WitnessInvalid("chain vectors are dependent")
        chain.append(nxt)
    s = len(chain)
    if len(independent_rows(chain)) != s:
        raise WitnessInvalid("chain vectors are dependent")
    if len(independent_rows(chain + [bracket(a, e, yi) for e in units
                                     for yi in chain])) != s:
        raise WitnessInvalid("chain span is not an ideal")
    for yi in chain:
        for yj in chain:
            if any(bracket(a, yi, yj)):
                raise WitnessInvalid("chain span is not commutative")
    for w in _kernel(ad_rows, n).basis:
        for yi in chain:
            if any(bracket(a, w, yi)):
                raise WitnessInvalid(
                    "kernel of ad y does not centralize the chain")

    pos1 = a.layer_positions(1)
    w_deg1 = _kernel(ad_rows + [units[q] for q in range(n) if q not in pos1],
                     n)
    rows = [x_vec] + chain + list(w_deg1.basis)
    rows += [a.basis_vector(p) for i in range(2, a.depth + 1)
             for p in a.layer_positions(i)]
    adapted_vectors = [rows[i] for i in independent_rows(rows)]
    if len(adapted_vectors) != n:
        raise WitnessInvalid("adapted basis does not span")
    labels = (["X"] + ["Y%d" % (i + 1) for i in range(s)]
              + ["Z%d" % (i + 1) for i in range(n - 1 - s)])
    adapted = change_basis(a, adapted_vectors, labels,
                           name=a.name + "_adapted")
    reps = [0] + list(range(1 + s, n))
    base, escaped = split(adapted, reps, [labels[p] for p in reps],
                          a.name + "_base")
    return DecompositionResult(
        quotient=base, ideal_basis=tuple(chain),
        cocycle=Cochain2.from_dict(s, escaped), adapted=adapted,
        witness=y, transversal=x_vec)


def special_extension(data):
    """The extension written as a Fraction algebra in the base
    coordinates followed by Y_1..Y_s, then moved to the adapted basis by
    the reference change_basis on dense vectors."""
    base, w, s = data.base, data.covector_kernel, data.s
    n = base.dim
    deg = base.degrees
    c2 = _slots(base, s, 2)
    slots = _cocycle_slot_vector(base, s, data.cocycle, c2)
    basis = [("e%d" % p, d) for p, d in enumerate(deg)]
    basis += [("e%d" % (n + i), -(i + 1)) for i in range(s)]
    brackets = {pq: list(terms) for pq, terms in base.brackets.items()}
    for (p, q), c in zip(c2, slots):
        if c != 0:
            brackets.setdefault((p, q), []).append(
                (n - deg[p] - deg[q] - 1, c))
    alpha = _module_covector(base, w, data.transversal)
    for p in range(n):
        if alpha[p] != 0:
            for i in range(n, n + s - 1):
                brackets[(p, i)] = [(i + 1, alpha[p])]
    pad = zero_vector(s)
    vectors = [data.transversal + pad]
    vectors += [unit_vector(n + s, n + i) for i in range(s)]
    vectors += [v + pad for v in w.basis]
    vectors += [base.basis_vector(p) + pad for i in range(2, base.depth + 1)
                for p in base.layer_positions(i)]
    labels = (["X"] + ["Y%d" % i for i in range(1, s + 1)]
              + ["Z%d" % j for j in range(1, n)])
    out = change_basis(GNLA(base.name + "_ext", basis, brackets), vectors,
                       labels)
    broken = _jacobi_failures(out)
    if broken:
        raise JacobiViolation(broken[0])
    return out


def reference_evaluate(p, point):
    """The value of a Polynomial at a point, term by term in Fractions."""
    total = Fraction(0)
    for exp, c in p.terms.items():
        v = c
        for x, e in zip(point, exp):
            v *= Fraction(x) ** e
        total += v
    return total


def _reference_skew_embed(q_rows, p, q):
    side = p + q
    rows = [[Fraction(0)] * side for _ in range(side)]
    for i in range(p):
        for j in range(q):
            c = q_rows[i][j]
            if c != 0:
                rows[i][p + j] = c
                rows[p + j][i] = -c
    return Matrix._trusted(tuple(map(tuple, rows)))


def reference_pencil_block(kind, param):
    """One canonical skew pencil block as a matrix pair (B1, B2), B1 the
    mu- and B2 the lambda-coefficients of its template, each kind's
    template written out by hand: "M" takes m >= 0 and gives side 2m+1,
    "E" takes (e, a) with e >= 1 and "F" takes f >= 1, of side 2e and
    2f."""
    if kind == "M":
        m = int(param)
        if m < 0:
            raise ValueError("M block needs m >= 0")
        p, q = m + 1, m
        mu = [[Fraction(1) if i + j == m else Fraction(0)
               for j in range(q)] for i in range(p)]
        lam = [[Fraction(1) if i + j == m - 1 else Fraction(0)
                for j in range(q)] for i in range(p)]
        return _reference_skew_embed(mu, p, q), _reference_skew_embed(lam, p, q)
    if kind == "E":
        try:
            e, a = param
        except TypeError:
            raise ValueError("E block needs a pair (e, a)") from None
        e = int(e)
        a = frac(a)
        if e < 1:
            raise ValueError("E block needs e >= 1")
        mu = [[Fraction(1) if i + j == e - 1 else Fraction(0)
               for j in range(e)] for i in range(e)]
        lam = [[a if i + j == e - 1 else
                (Fraction(1) if i + j == e else Fraction(0))
                for j in range(e)] for i in range(e)]
        return _reference_skew_embed(mu, e, e), _reference_skew_embed(lam, e, e)
    if kind == "F":
        f = int(param)
        if f < 1:
            raise ValueError("F block needs f >= 1")
        mu = [[Fraction(1) if i + j == f else Fraction(0)
               for j in range(f)] for i in range(f)]
        lam = [[Fraction(1) if i + j == f - 1 else Fraction(0)
                for j in range(f)] for i in range(f)]
        return _reference_skew_embed(mu, f, f), _reference_skew_embed(lam, f, f)
    raise ValueError("unknown pencil block kind %r" % kind)


def h0_closed_form(kind, param):
    """dim h0 and a rank 1 element of h0 for the pencil algebra of one
    block kind:param, kind M or F, from the closed forms.  For M:m (side
    2m+1) h0 is x on the first m+1 diagonal entries and -x on the last m,
    plus a full (m+1) x m Toeplitz corner: dimension 2m+1.  For F:r (side
    2r) it is three r x r upper triangular Toeplitz blocks: dimension 3r.
    In both the top-right matrix unit is a rank 1 nilpotent element,
    which is what makes these algebras infinite type."""
    side, dim = {"M": (2 * param + 1, 2 * param + 1),
                 "F": (2 * param, 3 * param)}[kind]
    unit = Matrix([[int((i, j) == (0, side - 1)) for j in range(side)]
                   for i in range(side)])
    return dim, unit


def reference_interpolated(values):
    """The interpolation coefficients by one Vandermonde solve, as gnla
    computed them before Newton's differences.  An oracle only."""
    m = len(values)
    vrows = [[Fraction(t) ** k for k in range(m)] for t in range(m)]
    return tuple(solve(Matrix(vrows), values))


def reference_trimmed(poly):
    """A coefficient list without its trailing zeros, as Fractions."""
    poly = [Fraction(c) for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def reference_poly_divmod(f, g):
    """Quotient and remainder over Q of coefficient lists, constant term
    first; g has a nonzero last entry and the remainder no trailing
    zeros."""
    f = [Fraction(c) for c in f]
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        q[shift] = c
        for k, x in enumerate(g):
            f[shift + k] -= c * x
        while f and f[-1] == 0:
            f.pop()
    return q, f


def reference_poly_gcd(f, g):
    """A gcd over Q, f nonzero: the last nonzero Euclidean remainder."""
    while g:
        f, g = g, reference_poly_divmod(f, g)[1]
    return f


def reference_poly_value(f, x):
    out = Fraction(0)
    for c in reversed(f):
        out = out * x + c
    return out


def _reference_sign_changes(seq, x):
    signs = [v > 0 for v in (reference_poly_value(f, x) for f in seq) if v]
    return sum(1 for u, w in zip(signs, signs[1:]) if u != w)


def reference_rational_roots(coeffs):
    """The distinct rational roots, increasing, of a nonzero polynomial
    with rational coefficients: a root 0 off the low coefficients, the
    squarefree part by Euclid over Q, scaled to a primitive integer
    polynomial, isqrt up to degree 2, and past it Sturm isolation with
    Fraction points and limit_denominator(|lc|) of each narrow
    interval's midpoint."""
    f = list(reference_trimmed(coeffs))
    if not f:
        raise ValueError("the zero polynomial vanishes everywhere")
    low = next(k for k, c in enumerate(f) if c)
    roots = [Fraction(0)] if low else []
    f = f[low:]
    if len(f) > 3:
        derivative = [k * c for k, c in enumerate(f)][1:]
        f = reference_poly_divmod(f, reference_poly_gcd(f, derivative))[0]
    den = lcm(*(c.denominator for c in f))
    f = [c.numerator * (den // c.denominator) for c in f]
    content = gcd(*f)
    f = [c // content for c in f]
    if len(f) == 2:
        roots.append(Fraction(-f[0], f[1]))
    elif len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            roots += {Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)}
    elif len(f) > 3:
        seq = [f, [k * c for k, c in enumerate(f)][1:]]
        while True:
            r = reference_poly_divmod(seq[-2], seq[-1])[1]
            if not r:
                break
            seq.append([-c for c in r])
        lc = abs(f[-1])
        bound = Fraction(2 + max(abs(c) for c in f[:-1]) // lc)
        width = Fraction(1, 2 * lc * lc)
        todo = [(-bound, bound, _reference_sign_changes(seq, -bound),
                 _reference_sign_changes(seq, bound))]
        while todo:
            lo, hi, vlo, vhi = todo.pop()
            if vlo == vhi:
                continue
            mid = (lo + hi) / 2
            if vlo - vhi == 1 and hi - lo < width:
                x = mid.limit_denominator(lc)
                if reference_poly_value(f, x) == 0:
                    roots.append(x)
                continue
            vmid = _reference_sign_changes(seq, mid)
            todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(set(roots))
