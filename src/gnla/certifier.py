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

Both questions about a span of matrices, a rational rank 1 element and
a rank 1 point over the closure, have one implementation each:
rank1_in_span and _minors.  The degree -1 ad span (rank1_witness,
minor_ideal) and an h0 span (spencer_subspace_check) share them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    GNLA,
    AdMatrix,
    _bracket_support,
    _central_part,
    _kernel_within,
    _support,
    ad_matrix,
    bracket,
    change_basis,
    validate,
)
from .constructions import Cochain2, _module_covector
from .groebner import CapExceeded, Polynomial, PolynomialIdeal, only_trivial_zero
from .linalg import (
    Matrix,
    Vector,
    independent_rows,
    is_zero_vector,
    kernel_basis,
    vector,
)
from .prolongation import (
    GradedMap,
    MatrixSubspace,
    classify_by_iteration,
    h0_as_graded_map,
    leibniz_failures,
)


class WitnessInvalid(Exception):
    """The supplied element does not have a rank 1 adjoint."""


@dataclass(frozen=True)
class TypeVerdict:
    """Outcome of the classification pipeline.

    kind is one of finite, infinite, degenerate_infinite, inconclusive.
    For an infinite verdict, certificate says whether the witness is a
    rational vector (stored in witness, full coordinates) or an
    existence statement over the algebraic closure.
    """
    kind: str
    total_dim: Optional[int] = None
    layer_dims: Optional[Tuple[int, ...]] = None
    witness: Optional[Vector] = None
    certificate: Optional[str] = None
    note: Optional[str] = None
    cap_exceeded: bool = False


def _minors(mats: Sequence[Matrix],
            prefix: str) -> Tuple[Tuple[str, ...], List[Polynomial]]:
    """The variables v1.. and the distinct nonzero 2x2 minors of
    sum v_k mats[k], each with a positive leading coefficient.

    Rows and columns that are zero in every matrix are skipped; the
    minors come in the order of their row pairs, then column pairs.
    """
    t = len(mats)
    variables = tuple("%s%d" % (prefix, k + 1) for k in range(t))
    rows = sorted({r for m in mats for r, row in enumerate(m.rows) if any(row)})
    cols = sorted({c for m in mats for row in m.rows
                   for c, e in enumerate(row) if e})

    # entry (r, c) of the generic matrix as its linear terms (k, m_k[r, c]);
    # the product of v_k and v_l has exponent monos[k][l]
    entries = {(r, c): [(k, m.rows[r][c]) for k, m in enumerate(mats)
                        if m.rows[r][c]]
               for r in rows for c in cols}
    monos = [[tuple(int(i == k) + int(i == l) for i in range(t))
              for l in range(t)] for k in range(t)]
    seen = set()
    gens: List[Polynomial] = []
    for r1, r2 in itertools.combinations(rows, 2):
        for c1, c2 in itertools.combinations(cols, 2):
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
            m = Polynomial._trusted(variables, terms)
            if m.leading()[1] < 0:
                m = -m
            key = m.key()
            if key not in seen:
                seen.add(key)
                gens.append(m)
    return variables, gens


def _degree1_ads(a: GNLA) -> List[Matrix]:
    """The ad matrices of the degree -1 basis vectors, declaration order."""
    return [ad_matrix(a, a.basis_vector(p)).matrix
            for p in a.layer_positions(1)]


def _minor_generators(ads: Sequence[Matrix]) -> List[Polynomial]:
    """The generators of the minor ideal of the degree -1 ad matrices."""
    variables, gens = _minors(ads, "y")
    if not gens:
        # keep the ambient variables visible: the zero ideal in n >= 1
        # variables vanishes everywhere, so only_trivial_zero says False
        gens = [Polynomial.zero(variables)]
    return gens


def minor_ideal(a: GNLA) -> PolynomialIdeal:
    """The ideal of 2x2 minors of ad(sum y_i e_i), e_i the degree -1 basis.

    Its nontrivial zeros over the closure are exactly the rank 1
    directions, so for a nondegenerate algebra the zero set decides the
    type.  All generators are homogeneous quadratics in y_1..y_n, built
    by the same minor builder as spencer_subspace_check.
    """
    return PolynomialIdeal(_minor_generators(_degree1_ads(a)))


def _rational_ladder(height: int) -> List[Fraction]:
    out = []
    for d in range(1, height + 1):
        for n in range(1, height + 1):
            if _gcd(n, d) == 1:
                out.append(Fraction(n, d))
                out.append(Fraction(-n, d))
    return out


def rank1_witness(a: GNLA, height_bound: int = 3) -> Optional[Vector]:
    """Search for a rational y in the degree -1 layer with rank ad y = 1.

    ad is linear, so this is rank1_in_span over the ad matrices of the
    degree -1 basis, last declared first (which matches the catalog
    conventions): the basis vectors, then e_p + q e_q over basis pairs
    with the rational q of bounded height.  The enumeration is
    deterministic; a None answer is not a proof of absence.
    """
    return _rank1_witness(a, _degree1_ads(a), height_bound)


def _rank1_witness(a: GNLA, ads: Sequence[Matrix],
                   height_bound: int) -> Optional[Vector]:
    """rank1_witness over the given degree -1 ad matrices."""
    coeffs = rank1_in_span(ads[::-1], height_bound=height_bound,
                           combo_budget=0)
    if coeffs is None:
        return None
    y = [Fraction(0)] * a.dim
    for p, c in zip(reversed(a.layer_positions(1)), coeffs):
        y[p] = c
    return tuple(y)


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


def rank1_in_span(mats: Sequence[Matrix],
                  height_bound: int = 2,
                  combo_budget: int = 30000) -> Optional[Vector]:
    """Search the span of the given matrices for a rank 1 element.

    Tries single basis matrices, then pairs with small rational weights,
    then all {-1,0,1} combinations while the budget allows.  Returns the
    coefficient vector or None (not a proof of absence).  The matrices
    are scaled to integers by one common denominator and cut to the rows
    and columns some matrix uses, so mats[i] + (n/d) mats[j] is tested
    as the proportional d A_i + n A_j, one row at a time.
    """
    t = len(mats)
    den = lcm(*(x.denominator for m in mats for row in m.rows for x in row))
    rows = sorted({r for m in mats for r, row in enumerate(m.rows) if any(row)})
    cols = sorted({c for m in mats for row in m.rows
                   for c, x in enumerate(row) if x})
    ints = [[[m.rows[r][c].numerator * (den // m.rows[r][c].denominator)
              for c in cols] for r in rows] for m in mats]
    for i, m in enumerate(ints):
        if _rank_one(m):
            coeffs = [Fraction(0)] * t
            coeffs[i] = Fraction(1)
            return tuple(coeffs)
    ladder = _rational_ladder(height_bound)
    for i in range(t):
        for j in range(i + 1, t):
            for q in ladder:
                d, n = q.denominator, q.numerator
                if _rank_one([d * x + n * y for x, y in zip(ri, rj)]
                             for ri, rj in zip(ints[i], ints[j])):
                    coeffs = [Fraction(0)] * t
                    coeffs[i] = Fraction(1)
                    coeffs[j] = q
                    return tuple(coeffs)
    if t and 3 ** t <= combo_budget:
        for signs in itertools.product((-1, 0, 1), repeat=t):
            if all(s == 0 for s in signs) or next(
                    s for s in signs if s != 0) < 0:
                continue
            used = [(s, m) for s, m in zip(signs, ints) if s]
            if _rank_one([sum(s * m[r][c] for s, m in used)
                          for c in range(len(cols))]
                         for r in range(len(rows))):
                return tuple(Fraction(s) for s in signs)
    return None


def spencer_subspace_check(a_space: MatrixSubspace) -> bool:
    """Whether the span contains a rank 1 matrix over the closure.

    A rational rank 1 combination found by direct search settles the
    question immediately; otherwise the 2x2 minors of a generic
    combination are formed and the answer is the negation of their
    only_trivial_zero test (the basis is independent, so a nonzero
    coefficient vector cannot give the zero matrix).
    """
    if a_space.dim == 0:
        return False
    if rank1_in_span(a_space.basis) is not None:
        return True
    _, gens = _minors(a_space.basis, "c")
    if not gens:
        # every 2x2 minor of the generic combination vanishes, so any
        # nonzero combination already has rank at most 1
        return True
    return not only_trivial_zero(PolynomialIdeal(gens))


def _moved_transversal(a: GNLA, y: Vector) -> Tuple[AdMatrix, int]:
    """ad y and the first degree -1 basis position that y moves.

    Raises WitnessInvalid unless rank ad y = 1 on a nondegenerate
    algebra.
    """
    ad_y = ad_matrix(a, y)
    if ad_y.rank != 1:
        raise WitnessInvalid("rank ad y is %d, not 1" % ad_y.rank)
    if _central_part(a, a.layer_positions(1)).dim:
        raise WitnessInvalid("the algebra is degenerate")
    for p in a.layer_positions(1):
        if not is_zero_vector(ad_y.matrix.column(p)):
            return ad_y, p
    raise WitnessInvalid("no degree -1 basis vector moves the witness")


def rank1_derivation_from_witness(a: GNLA, y: Sequence) -> GradedMap:
    """The explicit rank 1 degree 0 derivation attached to a witness.

    With W = ker ad y and x a degree -1 basis vector moved by y, the map
    sends x to y, kills W and kills every deeper layer.  Raises
    WitnessInvalid unless rank ad y = 1.
    """
    y = vector(y)
    ad_y, x_pos = _moved_transversal(a, y)
    w_deg1 = _kernel_within(ad_y.matrix.rows, a.dim, a.layer_positions(1))
    xi = a.layer_coordinates(
        1, _module_covector(a, w_deg1, a.basis_vector(x_pos)))
    y1 = a.layer_coordinates(1, y)
    block1 = Matrix([[y_r * xi_c for xi_c in xi] for y_r in y1])
    d = h0_as_graded_map(a, block1)
    if block1.rank() != 1:
        raise WitnessInvalid("constructed map does not have rank 1")
    bad = leibniz_failures(a, [], d)
    if bad:
        raise WitnessInvalid("constructed map fails Leibniz on %r" % (bad[:3],))
    return d


@dataclass(frozen=True)
class DecompositionResult:
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
    vector x moved past y and iterate y_{i+1} = [x, y_i] until zero.
    The span V of the chain is checked to be a commutative ideal killed
    by ker ad y.  The algebra is then rewritten in the adapted basis X,
    Y_1..Y_s (the chain), Z_1.. (the degree -1 part of ker ad y, then the
    deeper basis vectors, each kept when independent of those before
    it).  A bracket of two base elements X, Z_j splits there in two: its
    X/Z components are the quotient bracket and its Y components the
    degree 0 cocycle value.
    """
    y = vector(y)
    ad_y, x_pos = _moved_transversal(a, y)
    n = a.dim
    x_vec = a.basis_vector(x_pos)

    chain: List[Vector] = [y]
    while True:
        nxt = bracket(a, x_vec, chain[-1])
        if is_zero_vector(nxt):
            break
        chain.append(nxt)
    s = len(chain)
    if len(independent_rows(chain)) != s:
        raise WitnessInvalid("chain vectors are dependent")
    # the span V of the chain is an ideal when no [e_j, y_i] raises its rank
    supports = [_support(yi) for yi in chain]
    if len(independent_rows(chain + [_bracket_support(a, [(j, 1)], ys)
                                     for j in range(n)
                                     for ys in supports])) != s:
        raise WitnessInvalid("chain span is not an ideal")
    for xs in supports:
        for ys in supports:
            if any(_bracket_support(a, xs, ys).values()):
                raise WitnessInvalid("chain span is not commutative")
    w_full = kernel_basis(ad_y.matrix)
    for w in w_full.basis:
        ws = _support(w)
        for ys in supports:
            if any(_bracket_support(a, ws, ys).values()):
                raise WitnessInvalid("kernel of ad y does not centralize the chain")

    w_deg1 = _kernel_within(ad_y.matrix.rows, n, a.layer_positions(1))
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
    index = {p: i for i, p in enumerate(reps)}
    brackets = {}
    values = {}
    for (p, q), terms in adapted.brackets.items():
        if p in index and q in index:
            terms = dict(terms)
            pair = (index[p], index[q])
            brackets[pair] = [(index[k], c) for k, c in terms.items()
                              if k in index]
            values[pair] = [terms.get(k, 0) for k in range(1, s + 1)]
    base = GNLA(a.name + "_base",
                [(labels[p], adapted.degrees[p]) for p in reps], brackets)
    cocycle = Cochain2.from_dict(s, values)

    return DecompositionResult(
        quotient=base,
        ideal_basis=tuple(chain),
        cocycle=cocycle,
        adapted=adapted,
        witness=y,
        transversal=x_vec)


def classify(a: GNLA, max_degree: int = 10, height_bound: int = 3,
             degree_cap: int = 12) -> TypeVerdict:
    """Decide finite or infinite type, or report an honest inconclusive.

    Pipeline, in the order of the criterion that decides the type:
    degenerate short-circuit, rational rank 1 witness search, then the
    minor ideal over the closure, whose nontrivial zero means infinite
    type (layer_dims stays None).  Only when the ideal has the trivial
    zero alone, or hit its Groebner degree cap, does the prolongation
    iteration run: to size the finite prolongation, or as the fallback
    that a vanishing layer still settles.  A cap abort that the
    iteration does not settle is inconclusive with the reason noted.
    """
    rep = validate(a)
    if not rep.structural_ok:
        raise ValueError("algebra does not validate: %r" % (rep.failures[:3],))

    if not rep.checks["nondegenerate"]:
        # validate records a central degree -1 vector with the failure
        return TypeVerdict(kind="degenerate_infinite",
                           witness=dict(rep.failures)["nondegenerate"][0],
                           certificate="central_witness")

    # the witness search and the minor ideal read the same ad matrices
    ads = _degree1_ads(a)
    w = _rank1_witness(a, ads, height_bound)
    if w is not None:
        return TypeVerdict(kind="infinite", witness=w,
                           certificate="rational_witness")

    ideal = PolynomialIdeal(_minor_generators(ads), degree_cap=degree_cap)
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
