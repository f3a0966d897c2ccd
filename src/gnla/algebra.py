"""Graded nilpotent Lie algebras presented by structure constants.

An algebra is stored as an ordered basis of (label, degree) pairs with
negative degrees and one integer table of its structure constants: for
each basis pair (i, j), i != j, the nonzero terms (k, v) of [e_i, e_j]
= sum_k (v / den) e_k, signed for both orders, over den, the least
positive integer that makes every constant integral.  Antisymmetry
lives in that table, and equality and hash read it.  The public
constructor (and so parse_algebra) normalises its input to it once;
change_basis, _split and special_extension write it through the trusted
GNLA._from_integers.  Basis order is the declaration order of the
input; every matrix, witness vector and report downstream is expressed
in it.

Vectors stay dense tuples of Fractions at the API, but every reader in
the package reads the integer table at the nonzero coordinates of its
inputs: bracket, the rows of ad y and of the central conditions, the
checks of validate (whose rank rows go to the elimination core as they
are) and change_basis, whose core takes integer columns.  brackets and
bracket_terms are the Fraction view of the table, built on first read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    Frozen,
    Matrix,
    Subspace,
    Vector,
    _densified,
    _echelon,
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

    The stored form is _table, {i: {j: terms}} with terms the nonzero
    (k, v) integer entries of [e_i, e_j] = sum_k (v / _den) e_k in
    increasing k, for both orders, and _den, their least positive
    denominator.  brackets maps a pair (i, j) with i < j to the Fraction
    terms of [e_i, e_j], built from the table on first read in the lazy
    slot _brackets, and bracket_terms reads them for either order.
    Instances are immutable; validation is a separate, side-effect-free
    pass (see validate).
    """

    __slots__ = ("name", "labels", "degrees", "_table", "_den",
                 "_layer_positions", "_depth", "_brackets")

    def __init__(self, name: str, basis: Sequence[Tuple[str, int]],
                 brackets: Dict[Tuple[int, int], Sequence[Tuple[int, object]]]):
        labels = tuple(lbl for lbl, _ in basis)
        degrees = tuple(int(d) for _, d in basis)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        if any(d >= 0 for d in degrees):
            raise ValueError("basis degrees must be negative")
        n = len(labels)
        normalized: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
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
            entries = [(k, acc[k]) for k in sorted(acc) if acc[k]]
            if entries:
                normalized[i, j] = entries
        den = lcm(*[c.denominator for terms in normalized.values()
                    for _, c in terms])
        self._fill(name, labels, degrees, {
            pair: tuple((k, c.numerator * (den // c.denominator))
                        for k, c in terms)
            for pair, terms in normalized.items()}, den)

    @classmethod
    def _from_integers(cls, name: str, labels: Tuple, degrees: Tuple[int, ...],
                       upper: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]],
                       den: int = 1) -> "GNLA":
        """The algebra on the given labels and degrees whose [e_i, e_j],
        i < j, has the nonzero integer terms upper[i, j], in increasing
        k, over the positive den, all taken as is; one gcd makes den the
        least.  Distinct labels are the one thing it checks."""
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        if den != 1:
            g = gcd(den, *[v for terms in upper.values() for _, v in terms])
            if g != 1:
                den //= g
                upper = {pair: tuple((k, v // g) for k, v in terms)
                         for pair, terms in upper.items()}
        obj = object.__new__(cls)
        obj._fill(name, labels, degrees, upper, den)
        return obj

    def _fill(self, name, labels, degrees, upper, den) -> None:
        """Set the slots from the i < j terms over their least den; the
        table gets both orders."""
        table: Dict[int, Dict[int, tuple]] = {}
        for (i, j), terms in upper.items():
            table.setdefault(i, {})[j] = terms
            table.setdefault(j, {})[i] = tuple((k, -v) for k, v in terms)
        by_layer: Dict[int, List[int]] = {}
        for pos, d in enumerate(degrees):
            by_layer.setdefault(-d, []).append(pos)
        for put, value in zip(self._setters, (
                name, labels, degrees, table, den,
                {i: tuple(ps) for i, ps in by_layer.items()},
                max((-d for d in degrees), default=0))):
            put(self, value)

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

    @property
    def brackets(self) -> Dict[Tuple[int, int], Tuple[Tuple[int, Fraction], ...]]:
        """{(i, j): Fraction terms of [e_i, e_j]} for i < j, in increasing
        pair order: the Fraction view of the table, built on first read."""
        try:
            return self._brackets
        except AttributeError:
            pass
        den = self._den
        view = {(i, j): tuple((k, Fraction(v, den)) for k, v in terms)
                for i, j, terms in self._upper()}
        object.__setattr__(self, "_brackets", view)
        return view

    def bracket_terms(self, i: int, j: int) -> Tuple[Tuple[int, Fraction], ...]:
        """The nonzero (k, c) terms of [e_i, e_j] = sum c e_k, any i, j,
        read off the Fraction view."""
        if i > j:
            return tuple((k, -c) for k, c in self.brackets.get((j, i), ()))
        return self.brackets.get((i, j), ())

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

    def _upper(self) -> Tuple:
        """The table's (i, j, terms) for i < j, in increasing pair order."""
        return tuple(sorted((i, j, t) for i, row in self._table.items()
                            for j, t in row.items() if i < j))

    def __eq__(self, other):
        return (isinstance(other, GNLA)
                and self.labels == other.labels
                and self.degrees == other.degrees
                and self._den == other._den
                and self._table == other._table)

    def __hash__(self):
        return hash((self.labels, self.degrees, self._den, self._upper()))

    def __repr__(self):
        return "GNLA(%r, dim=%d, depth=%d)" % (self.name, self.dim, self.depth)


def _bracket_support(a: GNLA, xs, ys) -> Dict[int, object]:
    """den [x, y] as {k: value}, den the table's, from the (position,
    value) pairs of x and y, read off the table rows at the support of
    x; entries that cancel stay in the dict as zeros."""
    table = a._table
    out: Dict[int, object] = {}
    for i, xi in xs:
        row = table.get(i)
        if row:
            for j, yj in ys:
                terms = row.get(j)
                if terms:
                    s = xi * yj
                    for k, v in terms:
                        out[k] = out.get(k, 0) + s * v
    return out


def bracket(a: GNLA, x: Sequence, y: Sequence) -> Vector:
    """Bilinear extension of the structure constants to coordinate
    vectors: one integer sum over the supports of x and y, scaled to
    integers, each nonzero coordinate made a Fraction once."""
    x = vector(x)
    y = vector(y)
    n = a.dim
    if len(x) != n or len(y) != n:
        raise ValueError("coordinate vectors must have the full dimension")
    (u, s), (w, t) = _integer_row(x), _integer_row(y)
    den = a._den * s * t
    return _densified([(k, Fraction(v, den)) for k, v in _bracket_support(
        a, u.items(), w.items()).items() if v], n)


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
    ints, den = _ad_rows(a, y)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k, row in ints.items():
        for j, v in row.items():
            rows[k][j] = Fraction(v, den)
    return AdMatrix(element=y,
                    matrix=Matrix._trusted(tuple(map(tuple, rows))))


def _ad_rows(a: GNLA, y: Vector) -> Tuple[Dict[int, Dict[int, int]], int]:
    """The nonzero rows of ad y for y supported on the degree -1 layer,
    as integers over one positive denominator: ({k: {j: v}}, den), v / den
    the e_k coefficient of [y, e_j], read off the table rows at the
    support of y scaled to integers."""
    if len(y) != a.dim:
        raise ValueError("coordinate vector must have the full dimension")
    u, s = _integer_row(y)
    if any(a.degrees[p] != -1 for p in u):
        raise ValueError("element is not supported on the degree -1 layer")
    table = a._table
    rows: Dict[int, Dict[int, int]] = {}
    for i, yi in u.items():
        for j, terms in table.get(i, {}).items():
            for k, v in terms:
                row = rows.setdefault(k, {})
                row[j] = row.get(j, 0) + yi * v
    rows = {k: {j: v for j, v in row.items() if v} for k, row in rows.items()}
    return {k: row for k, row in rows.items() if row}, s * a._den


def _central_rows(a: GNLA, positions: Sequence[int]) -> List[Dict[int, int]]:
    """The conditions [x, e_j] = 0 for every j on x in span(e_p : p in
    positions), in increasing j: one sparse integer row {p: v} per
    (j, k), v the table's e_k entry of [e_p, e_j]."""
    table = a._table
    by_j: Dict[int, Dict[int, Dict[int, int]]] = {}
    for p in positions:
        for j, terms in table.get(p, {}).items():
            by_target = by_j.setdefault(j, {})
            for k, v in terms:
                by_target.setdefault(k, {})[p] = v
    return [row for j in sorted(by_j) for row in by_j[j].values()]


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
    """The four checks of validate.  checks[name] says whether check
    name passed, which failures already records, so equality and hash
    leave checks out."""
    checks: Dict[str, bool]
    failures: Tuple[Tuple[str, tuple], ...]
    layer_dims: Tuple[int, ...]
    depth: int
    _uncompared = ("checks",)

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

    Only nonzero compositions of the integer table are visited: each
    term c e_m of [e_p, e_q] and d e_l of [e_m, e_r], for distinct p, q,
    r in cyclic order, adds c * d to the e_l entry of the sum of the
    sorted triple, den^2 times its coefficient.
    """
    table = a._table
    sums: Dict[Tuple[int, int, int], Dict[int, int]] = {}
    for p, row in table.items():
        for q, terms in row.items():
            for m, c in terms:
                for r, outer in table.get(m, {}).items():
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

    Every check reads the integer table; the rank rows of the last two
    are its rows, which go to the elimination as they are.
    """
    failures: List[Tuple[str, tuple]] = []
    table = a._table
    degrees = a.degrees

    grading_ok = True
    for i, j, terms in a._upper():
        want = degrees[i] + degrees[j]
        if any(degrees[k] != want for k, _ in terms):
            grading_ok = False
            failures.append(("grading", (a.labels[i], a.labels[j])))

    broken = _jacobi_failures(a)
    jacobi_ok = not broken
    failures.extend(("jacobi", triple) for triple in broken)

    # [m_{-1}, m_{-i}] spans the coordinate space m_{-i-1} exactly when
    # every bracket lies in it and their rank is its dimension
    generated_ok = True
    pos1 = a.layer_positions(1)
    for i in range(1, a.depth):
        target = a.layer_positions(i + 1)
        spanned = [dict(terms) for p in pos1
                   for q, terms in table.get(p, {}).items()
                   if degrees[q] == -i]
        if (any(k not in target for r in spanned for k in r)
                or len(_echelon(spanned, len(target))[0]) != len(target)):
            generated_ok = False
            failures.append(("generated", (i + 1,)))

    # the central degree -1 vectors are wanted only as a witness
    nondegenerate_ok = (len(_echelon(_central_rows(a, pos1), len(pos1))[0])
                        == len(pos1))
    if not nondegenerate_ok:
        index = {p: i for i, p in enumerate(pos1)}
        central = _kernel([{index[p]: v for p, v in r.items()}
                           for r in _central_rows(a, pos1)], len(pos1))
        failures.append(("nondegenerate",
                         (a.embed_layer(1, central.basis[0]),)))

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
    off from the supports.  Each v_j is scaled to its integer column by
    _integer_row, and _change_basis does the rest on integers.
    """
    n = a.dim
    vecs = [vector(v) for v in vectors]
    if len(vecs) != n or len(labels) != n:
        raise ValueError("need exactly dim basis vectors and labels")
    if any(len(v) != n for v in vecs):
        raise ValueError("new basis vectors must have the full dimension")
    return _change_basis(a, [_integer_row(v) for v in vecs], labels,
                         name or a.name)


def _change_basis(a: GNLA, columns: Sequence[Tuple[Dict[int, int], int]],
                  labels: Sequence, name: str) -> GNLA:
    """The algebra in the basis v_j = u_j / d_j, for the integer columns
    (u_j, d_j): u_j a {position: int} dict without zeros, d_j > 0.

    P^-1 = D U^-1 comes from one elimination of [U | I] (_inverse), over
    one lead L, the lcm of the leads of its rows.  [v_i, v_j] is one
    integer sum w over the supports of u_i and u_j through the table,
    over d_i d_j den, carried to the new basis by P^-1; every new
    constant is then an integer over M = c^2 den L, c the lcm of the d_j,
    which _from_integers reduces once.  The sums visit only the nonzero
    table entries at the support of each u_i, each paired with the
    columns whose support holds its second index.
    """
    n = a.dim
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
    # the columns whose support holds each position, before _inverse
    # takes the rows
    holders = [list(row.items()) for row in rows]
    # the new coordinates of the old e_k: d_r U^-1[r][k] = inv_cols[k][r] / L
    inverse = _inverse(rows, n)
    lead = lcm(*[row_lead for _, row_lead in inverse])
    inv_cols: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for r, (row, row_lead) in enumerate(inverse):
        f = columns[r][1] * (lead // row_lead)
        for k, v in row.items():
            inv_cols[k].append((r, f * v))
    c = lcm(*[d for _, d in columns])
    scales = [c // d for _, d in columns]
    table = a._table
    upper = {}
    for i, (ui, _) in enumerate(columns):
        # w[j] = d_i d_j den [v_i, v_j] in the old basis, for j > i
        w: Dict[int, Dict[int, int]] = {}
        for p, x in ui.items():
            for q, terms in table.get(p, {}).items():
                for j, y in holders[q]:
                    if j > i:
                        wj = w.setdefault(j, {})
                        s = x * y
                        for k, v in terms:
                            wj[k] = wj.get(k, 0) + s * v
        for j, wj in w.items():
            new: Dict[int, int] = {}
            for k, wk in wj.items():
                if wk:
                    for r, v in inv_cols[k]:
                        new[r] = new.get(r, 0) + wk * v
            f = scales[i] * scales[j]
            terms = tuple((r, v * f) for r, v in sorted(new.items()) if v)
            if terms:
                upper[i, j] = terms
    return GNLA._from_integers(name, tuple(labels), tuple(degrees), upper,
                               c * c * a._den * lead)


def _split(adapted: GNLA, kept: Sequence[int], labels: Sequence[str],
           name: str) -> Tuple[GNLA, Dict[Tuple[int, int], list]]:
    """Adapted cut to the basis positions kept, increasing, labelled
    labels: the algebra with each bracket cut to its kept components, on
    the integer table, and for each of its pairs the list of the
    components that escape, at the other positions in increasing order."""
    index = {p: i for i, p in enumerate(kept)}
    rest = [p for p in range(adapted.dim) if p not in index]
    den = adapted._den
    upper, escaped = {}, {}
    for p, row in adapted._table.items():
        if p not in index:
            continue
        for q, terms in row.items():
            if p < q and q in index:
                pair = (index[p], index[q])
                cut = tuple((index[k], v) for k, v in terms if k in index)
                if cut:
                    upper[pair] = cut
                values = dict(terms)
                escaped[pair] = [Fraction(values[k], den) if k in values
                                 else 0 for k in rest]
    return GNLA._from_integers(
        name, tuple(labels), tuple(adapted.degrees[p] for p in kept),
        upper, den), escaped


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
    columns = [_integer_row(v) for v in reps]
    if any(len({a.degrees[p] for p in u}) != 1 for u, _ in columns):
        raise ValueError("representatives must be homogeneous")
    ideal_columns = [_integer_row(dict(r)) for r in ideal._rows]
    spanned = [u for u, _ in ideal_columns]
    spanned += [_bracket_support(a, [(j, 1)], u.items())
                for j in range(n) for u, _ in ideal_columns]
    if _rank(spanned, ideal.dim + 1) > ideal.dim:
        raise ValueError("subspace is not an ideal")
    complement = ValueError("representatives do not complement the ideal")
    if len(reps) + ideal.dim != n:
        raise complement
    try:
        # on checked vectors it fails only when they are not a basis
        adapted = _change_basis(a, columns + ideal_columns, range(n), a.name)
    except ValueError:
        raise complement from None
    return _split(adapted, range(len(reps)), labels,
                  name or (a.name + "_quotient"))[0]
