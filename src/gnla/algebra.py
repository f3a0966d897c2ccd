"""Graded nilpotent Lie algebras presented by structure constants.

An algebra is stored as an ordered basis of (label, degree) pairs with
negative degrees, together with the nonzero brackets [e_i, e_j] for
i < j.  Antisymmetry is implied by that storage convention, and it lives
in one place: GNLA builds once a signed table of [e_i, e_j] for both
orders, and every reader of the structure constants asks it through
GNLA.bracket_terms.  Basis order is the declaration order of the input;
every matrix, witness vector and report downstream is expressed in it.

Vectors stay dense tuples of Fractions at the API, but the structure
constants are read sparsely: bracket, ad_matrix, change_basis and the
checks of validate visit only the nonzero coordinates of their inputs
and ask bracket_terms for those pairs alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    Frozen,
    Matrix,
    Subspace,
    Vector,
    _densified,
    _integer_row,
    _inverse,
    _kernel,
    _rank,
    frac,
    unit_vector,
    vector,
)

__all__ = [
    "GNLA", "AdMatrix", "ValidationReport", "ad_matrix", "bracket",
    "center", "change_basis", "layer", "quotient", "validate",
]


class GNLA(Frozen):
    """A graded nilpotent Lie algebra given by structure constants.

    brackets maps a pair (i, j) with i < j to a tuple of (k, coefficient)
    entries meaning [e_i, e_j] = sum_k c e_k; bracket_terms reads it for
    either order.  Instances are immutable; validation is a separate,
    side-effect-free pass (see validate).
    """

    __slots__ = ("name", "labels", "degrees", "brackets", "_terms",
                 "_layer_positions", "_depth")

    def __init__(self, name: str, basis: Sequence[Tuple[str, int]],
                 brackets: Dict[Tuple[int, int], Sequence[Tuple[int, object]]]):
        labels = tuple(lbl for lbl, _ in basis)
        degrees = tuple(int(d) for _, d in basis)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        if any(d >= 0 for d in degrees):
            raise ValueError("basis degrees must be negative")
        n = len(labels)
        normalized: Dict[Tuple[int, int], Tuple[Tuple[int, Fraction], ...]] = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < j < n):
                raise ValueError("bracket indices out of range or not i < j")
            acc: Dict[int, Fraction] = {}
            for k, c in terms:
                if not 0 <= k < n:
                    raise ValueError("bracket target out of range")
                c = frac(c)
                if c:
                    acc[k] = acc[k] + c if k in acc else c
            entries = tuple(sorted((k, c) for k, c in acc.items() if c != 0))
            if entries:
                normalized[(i, j)] = entries
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "brackets", normalized)
        terms = dict(normalized)
        for (i, j), entries in normalized.items():
            terms[j, i] = tuple((k, -c) for k, c in entries)
        object.__setattr__(self, "_terms", terms)
        by_layer: Dict[int, List[int]] = {}
        for pos, d in enumerate(degrees):
            by_layer.setdefault(-d, []).append(pos)
        object.__setattr__(self, "_layer_positions",
                           {i: tuple(ps) for i, ps in by_layer.items()})
        object.__setattr__(self, "_depth",
                           max((-d for d in degrees), default=0))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def depth(self) -> int:
        return self._depth

    def layer_positions(self, i: int) -> Tuple[int, ...]:
        """Positions of the degree -i basis elements, declaration order."""
        return self._layer_positions.get(i, ())

    def layer_dim(self, i: int) -> int:
        return len(self.layer_positions(i))

    def layer_dims(self) -> Tuple[int, ...]:
        return tuple(self.layer_dim(i) for i in range(1, self.depth + 1))

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError("unknown basis label %r" % label) from None

    def basis_vector(self, pos: int) -> Vector:
        return unit_vector(self.dim, pos)

    def bracket_terms(self, i: int, j: int) -> Tuple[Tuple[int, Fraction], ...]:
        """The nonzero (k, c) terms of [e_i, e_j] = sum c e_k, any i, j."""
        return self._terms.get((i, j), ())

    def pair_bracket(self, i: int, j: int) -> Vector:
        """[e_i, e_j] as a full coordinate vector, any i, j."""
        return _densified(self.bracket_terms(i, j), self.dim)

    def layer_coordinates(self, i: int, v: Sequence) -> Vector:
        """Restrict a full vector to the degree -i coordinate block."""
        v = vector(v)
        return tuple(v[p] for p in self.layer_positions(i))

    def embed_layer(self, i: int, coords: Sequence) -> Vector:
        out = [Fraction(0)] * self.dim
        for p, c in zip(self.layer_positions(i), coords):
            out[p] = frac(c)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, GNLA)
                and self.labels == other.labels
                and self.degrees == other.degrees
                and self.brackets == other.brackets)

    def __hash__(self):
        return hash((self.labels, self.degrees,
                     tuple(sorted(self.brackets.items()))))

    def __repr__(self):
        return "GNLA(%r, dim=%d, depth=%d)" % (self.name, self.dim, self.depth)


def _support(v: Vector) -> List[Tuple[int, Fraction]]:
    """The nonzero (position, coordinate) pairs of a vector."""
    return [(i, c) for i, c in enumerate(v) if c]


def _bracket_support(a: GNLA, xs, ys) -> Dict[int, Fraction]:
    """[x, y] as {k: coefficient} from the supports of x and y; entries
    that cancel stay in the dict as zeros."""
    out: Dict[int, Fraction] = {}
    for i, xi in xs:
        for j, yj in ys:
            s = xi * yj
            for k, c in a.bracket_terms(i, j):
                out[k] = out.get(k, 0) + s * c
    return out


def bracket(a: GNLA, x: Sequence, y: Sequence) -> Vector:
    """Bilinear extension of the structure constants to coordinate vectors."""
    x = vector(x)
    y = vector(y)
    n = a.dim
    if len(x) != n or len(y) != n:
        raise ValueError("coordinate vectors must have the full dimension")
    return _densified(_bracket_support(a, _support(x), _support(y)).items(), n)


class AdMatrix(Frozen):
    """The matrix of ad y = [y, .] on the whole algebra, fixed basis."""
    element: Vector
    matrix: Matrix

    @property
    def rank(self) -> int:
        return self.matrix.rank()


def ad_matrix(a: GNLA, y: Sequence) -> AdMatrix:
    y = vector(y)
    n = a.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, row in _ad_rows(a, y).items():
        for j, c in row.items():
            rows[k][j] = c
    return AdMatrix(element=y,
                    matrix=Matrix._trusted(tuple(map(tuple, rows))))


def _ad_rows(a: GNLA, y: Vector) -> Dict[int, Dict[int, Fraction]]:
    """The nonzero rows of ad y for y supported on the degree -1 layer, as
    {k: {j: c}}, c the e_k coefficient of [y, e_j], read off the bracket
    table at the support of y."""
    if len(y) != a.dim:
        raise ValueError("coordinate vector must have the full dimension")
    deg1 = set(a.layer_positions(1))
    if any(c != 0 and p not in deg1 for p, c in enumerate(y)):
        raise ValueError("element is not supported on the degree -1 layer")
    rows: Dict[int, Dict[int, Fraction]] = {}
    for i, yi in _support(y):
        for j in range(a.dim):
            for k, c in a.bracket_terms(i, j):
                row = rows.setdefault(k, {})
                row[j] = row.get(j, 0) + yi * c
    rows = {k: {j: c for j, c in row.items() if c} for k, row in rows.items()}
    return {k: row for k, row in rows.items() if row}


def _kernel_within(rows, n: int, positions: Sequence[int]) -> Subspace:
    """The solutions in n unknowns, rows dense or {col: value}, that
    vanish off the given positions: one more row {q: 1} per q outside."""
    return _kernel(list(rows) + [{q: 1} for q in range(n)
                                 if q not in positions], n)


def _central_rows(a: GNLA, positions: Sequence[int]) -> List[Dict[int, Fraction]]:
    """The conditions [x, e_j] = 0 for every j on x in span(e_p : p in
    positions): one sparse row {p: c} per (j, k), c the e_k coefficient
    of [e_p, e_j]."""
    rows = []
    for j in range(a.dim):
        by_target: Dict[int, Dict[int, Fraction]] = {}
        for p in positions:
            for k, c in a.bracket_terms(p, j):
                by_target.setdefault(k, {})[p] = c
        rows.extend(by_target.values())
    return rows


def center(a: GNLA) -> Subspace:
    """{x : [x, e_j] = 0 for every j}."""
    return _kernel(_central_rows(a, range(a.dim)), a.dim)


def layer(a: GNLA, i: int) -> Subspace:
    """The coordinate subspace spanned by the degree -i basis elements."""
    if i <= 0:
        raise ValueError("layer index must be positive")
    # unit vectors in increasing position order are already an RREF
    one = Fraction(1)
    return Subspace._trusted(
        a.dim, tuple(((p, one),) for p in a.layer_positions(i)))


class ValidationReport(Frozen):
    checks: Dict[str, bool]
    failures: Tuple[Tuple[str, tuple], ...]
    layer_dims: Tuple[int, ...]
    depth: int

    @property
    def structural_ok(self) -> bool:
        """Grading, Jacobi and generation; degeneracy is a separate axis."""
        return (self.checks["grading"] and self.checks["jacobi"]
                and self.checks["generated"])

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def _jacobi_failures(a: GNLA) -> List[Tuple[str, str, str]]:
    """The label triples of the basis triples i < j < k on which the
    Jacobi sum over the cyclic (p, q, r) of (i, j, k) is nonzero, in
    increasing (i, j, k) order.

    Only nonzero compositions are visited: each term c e_m of [e_p, e_q]
    and d e_l of [e_m, e_r], for distinct p, q, r in cyclic order, adds
    c * d to the e_l coefficient of the sum of the sorted triple.
    """
    right: Dict[int, List] = {}
    for (m, r), terms in a._terms.items():
        right.setdefault(m, []).append((r, terms))
    sums: Dict[Tuple[int, int, int], Dict[int, Fraction]] = {}
    for (p, q), terms in a._terms.items():
        for m, c in terms:
            for r, outer in right.get(m, ()):
                if p < q < r or q < r < p or r < p < q:
                    total = sums.setdefault(tuple(sorted((p, q, r))), {})
                    for l, d in outer:
                        total[l] = total.get(l, 0) + c * d
    return [tuple(a.labels[x] for x in triple) for triple in sorted(sums)
            if any(sums[triple].values())]


def validate(a: GNLA) -> ValidationReport:
    """Run the four structural checks and collect explicit witnesses.

    grading:       every stored coefficient respects deg [x,y] = deg x + deg y
    jacobi:        [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on all basis triples
    generated:     each layer m_{-i-1} is spanned by [m_{-1}, m_{-i}]
    nondegenerate: no nonzero central element of degree -1
    """
    failures: List[Tuple[str, tuple]] = []
    n = a.dim

    grading_ok = True
    for (i, j), terms in sorted(a.brackets.items()):
        want = a.degrees[i] + a.degrees[j]
        if any(a.degrees[k] != want for k, _ in terms):
            grading_ok = False
            failures.append(("grading", (a.labels[i], a.labels[j])))

    broken = _jacobi_failures(a)
    jacobi_ok = not broken
    failures.extend(("jacobi", triple) for triple in broken)

    # [m_{-1}, m_{-i}] spans the coordinate space m_{-i-1} exactly when
    # every bracket lies in it and their rank is its dimension
    generated_ok = True
    for i in range(1, a.depth):
        target = a.layer_positions(i + 1)
        spanned = [dict(a.bracket_terms(p, q))
                   for p in a.layer_positions(1)
                   for q in a.layer_positions(i)]
        if (any(k not in target for r in spanned for k in r)
                or _rank(spanned, len(target)) != len(target)):
            generated_ok = False
            failures.append(("generated", (i + 1,)))

    # the central degree -1 vectors are wanted only as a witness
    pos1 = a.layer_positions(1)
    rows = _central_rows(a, pos1)
    nondegenerate_ok = _rank(rows, len(pos1)) == len(pos1)
    if not nondegenerate_ok:
        failures.append(("nondegenerate",
                         (_kernel_within(rows, n, pos1).basis[0],)))

    return ValidationReport(
        checks={"grading": grading_ok, "jacobi": jacobi_ok,
                "generated": generated_ok, "nondegenerate": nondegenerate_ok},
        failures=tuple(failures),
        layer_dims=a.layer_dims(),
        depth=a.depth)


def change_basis(a: GNLA, vectors: Sequence[Sequence], labels: Sequence[str],
                 name: Optional[str] = None) -> GNLA:
    """Rewrite the algebra in a new basis given in old coordinates.

    Every new basis vector must be homogeneous; the new degrees are read
    off from the supports.  The work is on integers: each v_j is scaled
    to its integer column u_j = d_j v_j, so P^-1 = D U^-1 comes from one
    elimination of [U | I], and the structure constants are scaled over
    one common denominator.  Each new bracket coefficient is one integer
    sum over the supports, made a Fraction once.
    """
    n = a.dim
    vecs = [vector(v) for v in vectors]
    if len(vecs) != n or len(labels) != n:
        raise ValueError("need exactly dim basis vectors and labels")
    if any(len(v) != n for v in vecs):
        raise ValueError("new basis vectors must have the full dimension")
    columns = [_integer_row(v) for v in vecs]
    degrees = []
    for u, _ in columns:
        degs = {a.degrees[p] for p in u}
        if len(degs) != 1:
            raise ValueError("new basis vectors must be homogeneous")
        degrees.append(degs.pop())
    rows: List[Dict[int, int]] = [{} for _ in range(n)]
    for j, (u, _) in enumerate(columns):
        for i, x in u.items():
            rows[i][j] = x
    # P^-1 = D U^-1: the new coordinates of the old e_k are d_r U^-1[r][k],
    # over the lead of inverse row r
    inv_cols: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    leads = []
    for r, (row, lead) in enumerate(_inverse(rows, n)):
        for k, v in row.items():
            inv_cols[k].append((r, columns[r][1] * v))
        leads.append(lead)
    # the structure constants as integers over their common denominator e
    e = lcm(*(c.denominator for terms in a.brackets.values()
              for _, c in terms))
    table = {pair: [(k, c.numerator * (e // c.denominator)) for k, c in terms]
             for pair, terms in a._terms.items()}
    # GNLA sorts the terms
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w: Dict[int, int] = {}
            for p, x in columns[i][0].items():
                for q, y in columns[j][0].items():
                    s = x * y
                    for k, c in table.get((p, q), ()):
                        w[k] = w.get(k, 0) + s * c
            new: Dict[int, int] = {}
            for k, wk in w.items():
                if wk:
                    for r, v in inv_cols[k]:
                        new[r] = new.get(r, 0) + wk * v
            den = columns[i][1] * columns[j][1] * e
            terms = [(r, Fraction(v, den * leads[r]))
                     for r, v in new.items() if v]
            if terms:
                brackets[(i, j)] = terms
    return GNLA(name or a.name,
                list(zip(labels, degrees)), brackets)


def _split(adapted: GNLA, kept: Sequence[int], labels: Sequence[str],
           name: str) -> Tuple[GNLA, Dict[Tuple[int, int], list]]:
    """Adapted cut to the basis positions kept, increasing, labelled
    labels: the algebra with each bracket cut to its kept components, and
    for each of its pairs the list of the components that escape, at the
    other positions in increasing order."""
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


def quotient(a: GNLA, ideal: Subspace, representatives: Sequence[Sequence],
             labels: Sequence[str], name: Optional[str] = None) -> GNLA:
    """The quotient by a graded ideal over chosen representatives: the
    algebra in the basis of the representatives, then the ideal's RREF
    basis (homogeneous exactly when the ideal is graded), _split to the
    representatives.  The subspace is an ideal when no [e_j, b], for a
    basis vector e_j and an ideal basis vector b, raises the rank of the
    ideal's basis: one rank, bounded one past the ideal's dimension."""
    n = a.dim
    reps = [vector(v) for v in representatives]
    if len(labels) != len(reps):
        raise ValueError("need one label per representative")
    if ideal.ambient_dim != n or any(len(v) != n for v in reps):
        raise ValueError("representatives and ideal must have the full "
                         "dimension")
    if any(len({a.degrees[p] for p, _ in r}) != 1 for r in ideal._rows):
        raise ValueError("ideal is not graded")
    if any(len({a.degrees[p] for p, _ in _support(v)}) != 1 for v in reps):
        raise ValueError("representatives must be homogeneous")
    spanned = [dict(r) for r in ideal._rows]
    spanned += [_bracket_support(a, [(j, 1)], r)
                for j in range(n) for r in ideal._rows]
    if _rank(spanned, ideal.dim + 1) > ideal.dim:
        raise ValueError("subspace is not an ideal")
    try:
        # on checked vectors it fails only when they are not a basis
        adapted = change_basis(a, reps + list(ideal.basis), range(n))
    except ValueError:
        raise ValueError("representatives do not complement the ideal") \
            from None
    return _split(adapted, range(len(reps)), labels,
                  name or (a.name + "_quotient"))[0]
