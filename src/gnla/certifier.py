"""Finite versus infinite type certificates.

The decision pipeline follows the criterion of Doubrov-Radko (after
Tanaka): a nondegenerate algebra has an infinite prolongation exactly
when some nonzero x in the complexified degree -1 layer has rank ad x
= 1.  The routes run in this order: a degenerate algebra is infinite
outright (a central degree -1 witness is attached); a rational element
y with rank ad y = 1 certifies infinite type constructively; the
quadratic ideal of 2x2 minors of the generic adjoint matrix decides the
existence of a rank 1 point over the algebraic closure; and only when
that ideal says finite (or hit its degree cap) does the prolongation
iteration run, whose vanishing layer certifies finite type and gives
the layer dimensions.

The rational search is exact.  On the paper's metabelian class, a
nondegenerate algebra of depth 2 whose degree -2 layer is 2-dimensional,
rank ad y = 1 iff y is in the kernel of a member sB_1 + tB_2 of the
pencil of bracket forms, so the search takes the kernels at the rational
zeros of the pfaffian form and is complete.  A miss leaves Pf(B_1 +
tB_2) with no rational zero, and classify certifies the paper's theorem
there at any budget: a column g(t) of the pfaffian adjugate and a
factor f of the pfaffian form, checked exactly to give (B_1 + tB_2) g
= 0 mod f with gcd(f, g) = 1, make g a nonzero kernel vector at every
root of f; f, g and their gcd are integer polynomials, in the form of
constructions, up to the verdict.  Elsewhere the search tries the basis
matrices of the span, then the rational points of the line through each
pair, read off the first 2x2 minor of the line that is not identically
zero (a binary quadratic).  Roots of integer polynomials come from the
one helper constructions._rational_roots.

Both questions about a span of matrices, a rational rank 1 element and
a rank 1 point over the closure, read the one integer form (den, ints)
of _integer_span, built for the degree -1 ad span straight from the
integer bracket table.  classify and spencer_subspace_check ask them in
one order: _span_point (or the pencil stage on its two rows), then
_minors.

The paper's decomposition of an infinite type algebra, a special
extension by a commutative ideal, is built from a rational witness by
decompose_special_extension on the same integer table: its chain and
checks are sparse integer rows, one kernel of ad y serves both the
centraliser check and the hyperplane W, and the adapted basis goes to
the core of change_basis as integer columns.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    GNLA,
    _ad_rows,
    _bracket_support,
    _central_rows,
    _change_basis,
    _split,
    validate,
)
from .constructions import (
    Cochain2,
    _interpolated,
    _pfaffian,
    _poly_divmod,
    _poly_gcd,
    _rational_roots,
    _trim,
)
from .groebner import (
    CapExceeded,
    Polynomial,
    PolynomialIdeal,
    grevlex_key,
    only_trivial_zero,
)
from .linalg import (
    Frozen,
    Matrix,
    MatrixSubspace,
    Vector,
    _densified,
    _echelon,
    _integer_row,
    _kernel_rows,
    _rank,
    _reversed_rows,
    vector,
)
from .prolongation import (
    GradedMap,
    classify_by_iteration,
    h0_as_graded_map,
    leibniz_failures,
)

__all__ = [
    "DecompositionResult", "TypeVerdict", "WitnessInvalid", "classify",
    "decompose_special_extension", "minor_ideal",
    "rank1_derivation_from_witness", "rank1_witness",
    "spencer_subspace_check",
]


class WitnessInvalid(Exception):
    """The supplied element does not have a rank 1 adjoint."""


# a polynomial in t, constant term first: the Fraction view of a verdict,
# and the integer form the pencil stages compute in (see constructions)
Poly = Tuple[Fraction, ...]


class TypeVerdict(Frozen):
    """Outcome of the classification pipeline.

    kind is one of finite, infinite, degenerate_infinite, inconclusive.
    For an infinite verdict, certificate says whether the witness is a
    rational vector (stored in witness, full coordinates) or an
    existence statement over the algebraic closure.  A closure verdict on
    the paper's metabelian class carries algebraic_witness = (f, g):
    coefficient tuples over t, constant term first, of f and of each
    full coordinate of g, such that g(alpha) is a witness at every root
    alpha of f, a factor of the pfaffian form (see _closure_certificate);
    elsewhere it is None and the minor ideal's nontrivial zero is the
    certificate.
    """
    kind: str
    total_dim: Optional[int] = None
    layer_dims: Optional[Tuple[int, ...]] = None
    witness: Optional[Vector] = None
    certificate: Optional[str] = None
    note: Optional[str] = None
    cap_exceeded: bool = False
    algebraic_witness: Optional[Tuple[Poly, Tuple[Poly, ...]]] = None


Ints = List[List[List[int]]]


def _integer_span(t: int, entries, den: int) -> Tuple[int, Ints]:
    """(den, ints) for t matrices with nonzero entries {(k, r, c): x / den},
    x an integer: ints[k] is den times matrix k, cut to the rows and
    columns that some matrix uses, in order."""
    rows = {r: i for i, r in enumerate(sorted({r for _, r, _ in entries}))}
    cols = {c: i for i, c in enumerate(sorted({c for _, _, c in entries}))}
    ints = [[[0] * len(cols) for _ in rows] for _ in range(t)]
    for (k, r, c), x in entries.items():
        ints[k][rows[r]][cols[c]] = x
    return den, ints


def _matrix_span(mats: Sequence[Matrix]) -> Tuple[int, Ints]:
    """The integer span of a list of matrices, over the lcm of the
    denominators of their entries."""
    entries = {(k, r, c): x for k, m in enumerate(mats)
               for r, row in enumerate(m.rows) for c, x in enumerate(row) if x}
    den = lcm(*{x.denominator for x in entries.values()})
    return _integer_span(len(mats), {
        key: x.numerator * (den // x.denominator)
        for key, x in entries.items()}, den)


def _degree1_span(a: GNLA) -> Tuple[int, Ints]:
    """The integer span of ad e_p over the degree -1 basis, declaration
    order: entry (k, j) of ad e_p is the e_k coefficient of [e_p, e_j].
    Its entries are the table's, and their least denominator is the
    table's den over one gcd with them."""
    table = a._table
    entries = {(i, k, j): v for i, p in enumerate(a.layer_positions(1))
               for j, terms in table.get(p, {}).items() for k, v in terms}
    den = a._den
    g = gcd(den, *entries.values())
    if g != 1:
        den //= g
        entries = {key: v // g for key, v in entries.items()}
    return _integer_span(a.layer_dim(1), entries, den)


def _minors(span: Tuple[int, Ints], prefix: str) -> List[Polynomial]:
    """The distinct nonzero 2x2 minors of sum v_k M_k in the variables
    v1.., span = (den, ints) the integer span of the M_k, each with a
    positive leading coefficient, in the order of their row pairs, then
    column pairs, and divided by den^2.  If every minor vanishes it is
    the zero polynomial alone: that keeps the variables visible, and the
    zero ideal in n >= 1 variables has a nontrivial zero."""
    den, ints = span
    t = len(ints)
    variables = tuple("%s%d" % (prefix, k + 1) for k in range(t))
    nrows = len(ints[0]) if ints else 0
    ncols = len(ints[0][0]) if nrows else 0

    # entry (r, c) of the generic matrix as its linear terms (k, den m_k[r, c]);
    # the product of v_k and v_l has exponent monos[k][l]
    entries = {(r, c): [(k, m[r][c]) for k, m in enumerate(ints) if m[r][c]]
               for r in range(nrows) for c in range(ncols)}
    monos = [[tuple(int(i == k) + int(i == l) for i in range(t))
              for l in range(t)] for k in range(t)]
    seen = set()
    gens: List[Polynomial] = []
    for r1, r2 in itertools.combinations(range(nrows), 2):
        for c1, c2 in itertools.combinations(range(ncols), 2):
            terms = {}
            for left, right, sign in (
                    (entries[r1, c1], entries[r2, c2], 1),
                    (entries[r1, c2], entries[r2, c1], -1)):
                for k, x in left:
                    for l, y in right:
                        e = monos[k][l]
                        terms[e] = terms.get(e, 0) + sign * x * y
            terms = {e: c for e, c in terms.items() if c}
            if not terms:
                continue
            lead = max(terms, key=grevlex_key)
            if terms[lead] < 0:
                terms = {e: -c for e, c in terms.items()}
            key = tuple(sorted(terms.items()))
            if key not in seen:
                seen.add(key)
                gens.append(Polynomial._from_integers(
                    variables, den * den, terms, lead))
    return gens or [Polynomial.zero(variables)]


def minor_ideal(a: GNLA) -> PolynomialIdeal:
    """The ideal of 2x2 minors of ad(sum y_i e_i), e_i the degree -1 basis.

    Its nontrivial zeros over the closure are exactly the rank 1
    directions, so for a nondegenerate algebra the zero set decides the
    type.  All generators are homogeneous quadratics in y_1..y_n, built
    by the same minor builder as spencer_subspace_check.
    """
    return PolynomialIdeal(_minors(_degree1_span(a), "y"))


def rank1_witness(a: GNLA) -> Optional[Vector]:
    """Search for a rational y in the degree -1 layer with rank ad y = 1.

    The degree -1 basis vectors come first, last declared first (which
    matches the catalog conventions).  On the paper's metabelian class,
    a valid nondegenerate algebra of depth 2 with dim g_-2 = 2, the
    pencil stage of _pencil_witness follows; it is complete there, so
    None proves that no rational witness exists.  Elsewhere it is
    _span_witness, so a None answer is not a proof of absence.
    """
    ints = _degree1_span(a)[1]
    if a.depth == 2 and a.layer_dim(2) == 2:
        rep = validate(a)
        if rep.structural_ok and rep.checks["nondegenerate"]:
            return _pencil_witness(a, ints)[0]
    return _span_witness(a, ints)


def _span_witness(a: GNLA, ints: Ints) -> Optional[Vector]:
    """_span_point over the integer degree -1 ad matrices, last declared
    first, as a vector of the algebra."""
    coeffs = _span_point(ints[::-1])
    return None if coeffs is None else a.embed_layer(1, coeffs[::-1])


def _pencil_witness(a: GNLA, ints: Ints) -> Tuple[Optional[Vector], List[int]]:
    """The rational rank 1 witness of a valid nondegenerate algebra of
    depth 2 with dim g_-2 = 2, or None when it has none, and the integer
    pfaffian form Pf(P + tQ) when it was interpolated (even n_1 and no
    basis vector a witness), else [].

    The integer ad matrices are cut to the 2 rows of g_-2 and the n_1
    columns of g_-1, so their rows give P = den B_1 and Q = den B_2, the
    integer bracket forms on g_-1.  The rows of ad y are P^t y and Q^t y,
    so rank ad y = 1 iff y lies in the kernel of sP + tQ for some (s:t),
    and that (s:t) is rational when y is.  The basis vectors come first,
    last declared first: e_i is a witness iff rows i of P and Q are
    dependent.  Then the pencil: sP + tQ is singular at (1:0) for odd
    n_1; for even n_1 the pfaffian form Pf(P + tQ) (by _pfaffian_form;
    P and Q are skew by construction) is identically zero (take (1:0))
    or has its rational roots, plus (0:1) when its degree drops.
    Nondegeneracy makes every nonzero kernel vector a witness, so the
    first RREF kernel vector of the integer rows at the first candidate
    is one, read off as integers over one denominator; each is still
    checked to give rank 1.  On a miss the form is nonzero, of degree
    n_1/2, with no rational root.
    """
    pos1 = a.layer_positions(1)
    n = len(pos1)
    assert len(ints) == n and all(len(m) == 2 and len(m[0]) == n
                                  for m in ints), "not a 2 x n_1 pencil span"
    big_p, big_q = _pencil_forms(ints)
    for i in reversed(range(n)):
        if _rank_one([big_p[i], big_q[i]]):
            return a.basis_vector(pos1[i]), []

    candidates = [(1, 0)]
    pf: List[int] = []
    if n % 2 == 0:
        pf = _pfaffian_form([_member(big_p, big_q, 1, t)
                             for t in range(n // 2 + 1)])
        if pf:
            candidates = [(t.denominator, t.numerator)
                          for t in _rational_roots(pf)]
            if len(pf) <= n // 2:
                candidates.append((0, 1))
    for s, t in candidates:
        coords, den = _kernel_rows(
            _reversed_rows(_member(big_p, big_q, s, t), n), n)[0]
        if _rank_one([sum(v * m[i][j] for i, v in coords)
                      for j in range(n)] for m in (big_p, big_q)):
            return a.embed_layer(1, _densified(
                [(j, Fraction(v, den)) for j, v in coords], n)), pf
    return None, pf


def _pencil_forms(ints: Ints) -> Tuple[List[List[int]], List[List[int]]]:
    """The integer bracket forms P and Q on g_-1 of a pencil span: rows
    0 and 1 of the ad matrices of the degree -1 basis."""
    return [m[0] for m in ints], [m[1] for m in ints]


def _member(big_p, big_q, s: int, t: int) -> List[List[int]]:
    """The integer rows of sP + tQ."""
    return [[s * x + t * z for x, z in zip(rp, rq)]
            for rp, rq in zip(big_p, big_q)]


def _pfaffian_form(members) -> List[int]:
    """Pf(M(t)) of integer skew rows M(t) affine in t, from its pfaffians
    at t = 0, 1, .. (one more than its degree).  Its coefficients are
    integers, so _interpolated's denominator divides them exactly."""
    poly, den = _interpolated([_pfaffian(m) for m in members])
    return [c // den for c in poly]


def _closure_certificate(a: GNLA, ints: Ints,
                         pf: List[int]) -> Tuple[Poly, Tuple[Poly, ...]]:
    """The algebraic witness (f, g) of a pencil algebra with no rational
    witness, g in full coordinates, given the integer pfaffian form pf =
    Pf(P + tQ) that _pencil_witness interpolated (no rational root).

    (pf, g) for the first column g of the pfaffian adjugate that
    _closure_certified accepts.  A column fails when h = gcd(pf, g) is
    not constant, as where the rank of P + tQ drops by 4; then, first
    rejected column first, (pf/h, g/h) for h made monic, certified unless
    pf/h is constant, since (P + tQ) g = pf e_i.  Some column is not: if
    pf divided the adjugate, of determinant pf^(n_1 - 2), pf were a unit.
    With h primitive, pf/h and g/h are exact integer quotients, and the
    division by h made monic is one final scaling of them by lc(h).
    """
    big_p, big_q = _pencil_forms(ints)
    n = len(big_p)
    members = [_member(big_p, big_q, 1, t) for t in range(n // 2)]

    def candidates():
        columns = []
        for i in range(n):
            columns.append(_adjugate_column(members, i))
            yield 1, pf, columns[-1]
        for g in columns:
            h = functools.reduce(_poly_gcd, g, pf)
            yield (h[-1], _poly_divmod(pf, h)[0],
                   [_poly_divmod(gj, h)[0] for gj in g])

    scale, f, g = next(c for c in candidates()
                       if _closure_certified(big_p, big_q, *c[1:]))
    full: List[Poly] = [()] * a.dim
    for p, gj in zip(a.layer_positions(1), g):
        full[p] = tuple(Fraction(scale * c) for c in gj)
    return tuple(Fraction(scale * c) for c in f), tuple(full)


def _adjugate_column(members: Ints, i: int) -> List[List[int]]:
    """Column i of the pfaffian adjugate of P + tQ, side n_1 = 2m, from
    its integer rows at t = 0..m-1.

    The expansion of a pfaffian along row i gives (P + tQ) g = Pf e_i
    for g_j = (-1)^(i+j+1+[j<i]) Pf(P + tQ without rows and columns i,
    j), 0-based, and g_i = 0: row k != i expands a pfaffian with two
    equal rows.  Each g_j has degree below m, so _pfaffian_form reads it
    off the m points as an integer polynomial.
    """
    n = len(members[0])
    g: List[List[int]] = []
    for j in range(n):
        keep = [k for k in range(n) if k != i and k != j]
        sign = (-1) ** (i + j + 1 + (j < i))
        g.append([] if j == i else [sign * c for c in _pfaffian_form(
            [[m[r][c] for c in keep] for r in keep] for m in members)])
    return g


def _closure_certified(big_p, big_q, f: Sequence,
                       g: Sequence[Sequence]) -> bool:
    """Whether (f, g), integer or rational coefficient lists over t with
    constant term first and g on the g_-1 coordinates, certifies a rank
    1 point of the nondegenerate pencil P + tQ over the closure.

    It does when deg f >= 1, every row of (P + tQ) g is 0 mod f, and
    gcd(f, g_1, .., g_n) = 1: at any root alpha of f, g(alpha) is then a
    nonzero kernel vector of P + alpha Q, and nondegeneracy over Q (so
    over C) makes its adjoint rank 1.  With f and g scaled to integers
    by one lcm, a row is 0 mod f iff its pseudo-remainder is 0: from its
    top degree down to deg f, the row is scaled by lc(f) and its top
    term cancelled with a multiple of f, integers only.  A row of degree
    at most deg f, as every row of an adjugate column's certificate,
    takes one such step.  The gcd is the integer one of _poly_gcd.
    """
    d = lcm(*(c.denominator for poly in (f, *g) for c in poly))
    f_ints, *g_ints = [_trim([c.numerator * (d // c.denominator)
                              for c in poly]) for poly in (f, *g)]
    if len(f_ints) < 2 or not any(g_ints):
        return False
    deg, lead = len(f_ints) - 1, f_ints[-1]
    width = max(deg, *map(len, g_ints)) + 1
    for rp, rq in zip(big_p, big_q):
        row = [0] * width
        for x, z, gj in zip(rp, rq, g_ints):
            for d, c in enumerate(gj):
                row[d] += x * c
                row[d + 1] += z * c
        for top in range(width - 1, deg - 1, -1):
            if row[top]:
                c, row = row[top], [lead * r for r in row]
                for k, x in enumerate(f_ints, top - deg):
                    row[k] -= c * x
        if any(row):
            return False
    return len(functools.reduce(_poly_gcd, g_ints, f_ints)) == 1


def _rank_one(rows) -> bool:
    """Whether integer rows, produced one at a time, form a rank 1
    matrix: some row is nonzero and every row is proportional to the
    first nonzero one.  Stops at the first row that is not."""
    first = None
    for row in rows:
        if first is None:
            for p, lead in enumerate(row):
                if lead:
                    first = row
                    break
        elif any(x * lead != row[p] * f for x, f in zip(row, first)):
            return False
    return first is not None


def _line_point(a: List[List[int]], b: List[List[int]]) -> Optional[Fraction]:
    """The first nonzero rational q with rank (A + qB) = 1, for integer
    matrices A and B of which neither has rank 1, or None.

    Every 2x2 minor of dA + nB is a binary quadratic in (d:n) and must
    vanish where the rank is at most 1, so the first minor that is not
    identically zero leaves at most two candidates q = n/d.  They are
    tried by denominator, then |numerator|, positive first, the order in
    which a search by height meets them.  If every minor vanishes on the
    line, A and B have rank at most 1, so both are zero and so is the
    line.
    """
    support = [[c for c, (x, y) in enumerate(zip(ra, rb)) if x or y]
                for ra, rb in zip(a, b)]
    for r1, r2 in itertools.combinations(range(len(a)), 2):
        a1, a2, b1, b2 = a[r1], a[r2], b[r1], b[r2]
        for c1 in support[r1]:
            for c2 in support[r2]:
                quadratic = (
                    a1[c1] * a2[c2] - a1[c2] * a2[c1],
                    a1[c1] * b2[c2] + b1[c1] * a2[c2]
                    - a1[c2] * b2[c1] - b1[c2] * a2[c1],
                    b1[c1] * b2[c2] - b1[c2] * b2[c1])
                if not any(quadratic):
                    continue
                roots = sorted((q for q in _rational_roots(quadratic) if q),
                               key=lambda q: (q.denominator, abs(q.numerator),
                                              q < 0))
                for q in roots:
                    d, n = q.denominator, q.numerator
                    if _rank_one([d * x + n * y for x, y in zip(ra, rb)]
                                 for ra, rb in zip(a, b)):
                        return q
                return None
    return None


def _span_point(ints: Ints) -> Optional[Vector]:
    """The coefficients of a rank 1 element of the span of integer
    matrices A_k, or None: a single matrix, then the first rational
    point A_i + q A_j of the line through each pair (by _line_point)."""
    t = len(ints)
    for i, m in enumerate(ints):
        if _rank_one(m):
            return tuple(Fraction(int(k == i)) for k in range(t))
    for i, j in itertools.combinations(range(t), 2):
        q = _line_point(ints[i], ints[j])
        if q is not None:
            return tuple(Fraction(1) if k == i else q if k == j
                         else Fraction(0) for k in range(t))
    return None


def spencer_subspace_check(a_space: MatrixSubspace) -> bool:
    """Whether the span contains a rank 1 matrix over the closure.

    The stages of classify on the integer span of the basis: a rational
    point of _span_point settles it, else the answer is the negation of
    only_trivial_zero on the minors of a generic combination (the basis
    is independent, so a nonzero combination is not the zero matrix).
    """
    if a_space.dim == 0:
        return False
    span = _matrix_span(a_space.basis)
    if _span_point(span[1]) is not None:
        return True
    return not only_trivial_zero(PolynomialIdeal(_minors(span, "c")))


def _moved_transversal(a: GNLA, y: Vector) -> Tuple[List[dict], int]:
    """The nonzero rows of ad y, sparse integer multiples of them, and the
    first degree -1 basis position that y moves.

    Raises WitnessInvalid unless rank ad y = 1 on a nondegenerate
    algebra.  The rank check stops at rank 2; a failure is reported with
    the full rank.
    """
    rows = list(_ad_rows(a, y)[0].values())
    if _rank(rows, 2) != 1:
        raise WitnessInvalid("rank ad y is %d, not 1" % _rank(rows))
    pos1 = a.layer_positions(1)
    if _rank(_central_rows(a, pos1), len(pos1)) < len(pos1):
        raise WitnessInvalid("the algebra is degenerate")
    moved = set().union(*rows)
    for p in pos1:
        if p in moved:
            return rows, p
    raise WitnessInvalid("no degree -1 basis vector moves the witness")


def rank1_derivation_from_witness(a: GNLA, y: Sequence) -> GradedMap:
    """The explicit rank 1 degree 0 derivation attached to a witness.

    With W = ker ad y and x a degree -1 basis vector moved by y, the map
    sends x to y, kills W and kills every deeper layer.  Raises
    WitnessInvalid unless rank ad y = 1.  Every row of ad y is then a
    multiple of the first, so the covector xi with kernel W and xi(x) = 1
    is that row on the degree -1 layer over its entry at x.  The package
    does not call it yet; the planned h0 route to finite type and the
    prolongations of pairs (m, g0) build on it.
    """
    y = vector(y)
    ad_rows, x_pos = _moved_transversal(a, y)
    row = ad_rows[0]
    xi = [Fraction(row.get(p, 0), row[x_pos]) for p in a.layer_positions(1)]
    y1 = a.layer_coordinates(1, y)
    block1 = Matrix([[y_r * xi_c for xi_c in xi] for y_r in y1])
    d = h0_as_graded_map(a, block1)
    if block1.rank() != 1:
        raise WitnessInvalid("constructed map does not have rank 1")
    bad = leibniz_failures(a, [], d)
    if bad:
        raise WitnessInvalid("constructed map fails Leibniz on %r" % (bad[:3],))
    return d


class DecompositionResult(Frozen):
    """Output of decompose_special_extension.

    quotient is the base algebra on the surviving generators; the ideal
    basis spans the commutative graded ideal with one-dimensional
    layers; the cocycle captures the brackets that escape the base, so
    that the extension construction rebuilds the adapted algebra.
    """
    quotient: GNLA
    ideal_basis: Tuple[Vector, ...]
    cocycle: Cochain2
    adapted: GNLA
    witness: Vector
    transversal: Vector


def decompose_special_extension(a: GNLA, y: Sequence) -> DecompositionResult:
    """Split the algebra along a rank 1 witness.

    Starting from y with rank ad y = 1, pick the first degree -1 basis
    vector x moved past y and iterate y_{i+1} = [x, y_i] until zero; a
    chain longer than the dimension raises WitnessInvalid.  The span V
    of the chain is checked to be a commutative ideal killed by ker ad
    y.  The algebra is then rewritten in the adapted basis X, Y_1..Y_s
    (the chain), Z_1.. (the degree -1 part of ker ad y, then the deeper
    basis vectors, each kept when independent of those before it).  A
    bracket of two base elements X, Z_j splits there in two (_split, as in
    quotient): its X/Z components are the quotient bracket and its Y
    components the degree 0 cocycle value.

    The work is on the integer table.  The chain is a list of sparse
    integer columns (u_i, d_i), y_i = u_i / d_i, and the checks run on
    sparse integer rows.  One kernel of ad y serves the centraliser
    check and W: ad y is graded, so the rows of its RREF are homogeneous
    and W is the rows supported on the degree -1 layer.  The adapted
    basis goes to _change_basis as integer columns.
    """
    y = vector(y)
    ad_rows, x_pos = _moved_transversal(a, y)
    n = a.dim

    # the grading ends the chain within dim steps; without it, a chain
    # longer than the dimension is dependent
    chain = [_integer_row(y)]
    while True:
        u, d = chain[-1]
        nxt = {k: v for k, v in _bracket_support(
            a, [(x_pos, 1)], u.items()).items() if v}
        if not nxt:
            break
        if len(chain) == n:
            raise WitnessInvalid("chain vectors are dependent")
        g = gcd(d * a._den, *nxt.values())
        chain.append(({k: v // g for k, v in nxt.items()}, d * a._den // g))
    s = len(chain)
    if _rank([u for u, _ in chain]) != s:
        raise WitnessInvalid("chain vectors are dependent")
    # the span V of the chain is an ideal when no [y_i, e_j] raises its
    # rank: one row per j with [e_q, e_j] != 0 for some q that y_i holds
    images = []
    for u, _ in chain:
        by_j: Dict[int, Dict[int, int]] = {}
        for q, c in u.items():
            for j, terms in a._table.get(q, {}).items():
                row = by_j.setdefault(j, {})
                for k, v in terms:
                    row[k] = row.get(k, 0) + c * v
        images += by_j.values()
    if _rank([u for u, _ in chain] + images, s + 1) > s:
        raise WitnessInvalid("chain span is not an ideal")
    for u, _ in chain:
        for w, _ in chain:
            if any(_bracket_support(a, u.items(), w.items()).values()):
                raise WitnessInvalid("chain span is not commutative")
    kernel = _kernel_rows(_reversed_rows(ad_rows, n), n)
    for entries, _ in kernel:
        for u, _ in chain:
            if any(_bracket_support(a, entries, u.items()).values()):
                raise WitnessInvalid("kernel of ad y does not centralize the chain")

    columns = [({x_pos: 1}, 1)] + chain
    columns += [(dict(entries), d) for entries, d in kernel
                if all(a.degrees[p] == -1 for p, _ in entries)]
    columns += [({p: 1}, 1) for i in range(2, a.depth + 1)
                for p in a.layer_positions(i)]
    # each kept when independent of those before it
    _, trail = _echelon([dict(u) for u, _ in columns])
    picked = [col for col, (c, _, _) in zip(columns, trail) if c is not None]
    if len(picked) != n:
        raise WitnessInvalid("adapted basis does not span")
    labels = (["X"] + ["Y%d" % (i + 1) for i in range(s)]
              + ["Z%d" % (i + 1) for i in range(n - 1 - s)])
    adapted = _change_basis(a, picked, labels, a.name + "_adapted")

    reps = [0] + list(range(1 + s, n))
    base, escaped = _split(adapted, reps, [labels[p] for p in reps],
                           a.name + "_base")

    return DecompositionResult(
        quotient=base,
        ideal_basis=tuple(_densified([(k, Fraction(v, d))
                                      for k, v in u.items()], n)
                          for u, d in chain),
        cocycle=Cochain2.from_dict(s, escaped),
        adapted=adapted,
        witness=y,
        transversal=a.basis_vector(x_pos))


def classify(a: GNLA, max_degree: int = 10, *,
             degree_cap: int = 12) -> TypeVerdict:
    """Decide finite or infinite type, or report an honest inconclusive.

    Pipeline, in the order of the criterion that decides the type:
    degenerate short-circuit, then rational rank 1 witness search.  On
    the paper's metabelian class (depth 2, dim g_-2 = 2) the pencil
    stage is complete, and a miss is certified at any budget by
    _closure_certificate: closure with algebraic_witness (f, g).
    Elsewhere a miss goes to the minor ideal over the closure, whose
    nontrivial zero means infinite type (layer_dims stays None).  Only
    when the ideal has the trivial zero alone, or hit its Groebner
    degree cap, does the prolongation iteration run: to size the finite
    prolongation, or as the fallback that a vanishing layer still
    settles.  A cap abort that the iteration does not settle is
    inconclusive with the reason noted.
    """
    rep = validate(a)
    if not rep.structural_ok:
        raise ValueError("algebra does not validate: %r" % (rep.failures[:3],))

    if not rep.checks["nondegenerate"]:
        # validate records a central degree -1 vector with the failure
        return TypeVerdict(kind="degenerate_infinite",
                           witness=dict(rep.failures)["nondegenerate"][0],
                           certificate="central_witness")

    # the witness search and the minor ideal read one integer span
    span = _degree1_span(a)
    if a.depth == 2 and a.layer_dim(2) == 2:
        w, pf = _pencil_witness(a, span[1])
        if w is None:
            return TypeVerdict(kind="infinite", certificate="closure",
                               algebraic_witness=_closure_certificate(
                                   a, span[1], pf))
    else:
        w = _span_witness(a, span[1])
    if w is not None:
        return TypeVerdict(kind="infinite", witness=w,
                           certificate="rational_witness")

    ideal = PolynomialIdeal(_minors(span, "y"), degree_cap=degree_cap)
    cap = None
    try:
        if not only_trivial_zero(ideal):
            return TypeVerdict(kind="infinite", certificate="closure")
    except CapExceeded as exc:
        cap = exc.degree

    it = classify_by_iteration(a, max_degree=max_degree)
    if it.kind == "finite":
        return TypeVerdict(kind="finite", total_dim=it.total_dim,
                           layer_dims=it.layer_dims)
    if cap is not None:
        return TypeVerdict(kind="inconclusive", layer_dims=it.layer_dims,
                           note="groebner degree cap exceeded at degree %d"
                                % cap,
                           cap_exceeded=True)
    return TypeVerdict(
        kind="inconclusive", layer_dims=it.layer_dims,
        note="minor ideal certifies finite type over the closure, but no "
             "prolongation layer vanished within the iteration budget")
