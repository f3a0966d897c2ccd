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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _kernel,
    frac,
    independent_rows,
    solve,
    unit_vector,
    vector,
)


class GNLA:
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
                if c != 0:
                    acc[k] = acc.get(k, Fraction(0)) + c
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

    def __setattr__(self, name, value):
        raise AttributeError("GNLA is immutable")

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
        return _dense(self.dim, self.bracket_terms(i, j))

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


def _dense(n: int, terms) -> Vector:
    """The length n vector with the given (position, coordinate) terms."""
    out = [Fraction(0)] * n
    for k, c in terms:
        out[k] = c
    return tuple(out)


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
    return _dense(n, _bracket_support(a, _support(x), _support(y)).items())


@dataclass(frozen=True)
class AdMatrix:
    """The matrix of ad y = [y, .] on the whole algebra, fixed basis."""
    element: Vector
    matrix: Matrix

    @property
    def rank(self) -> int:
        return self.matrix.rank()


def ad_matrix(a: GNLA, y: Sequence) -> AdMatrix:
    y = vector(y)
    if len(y) != a.dim:
        raise ValueError("coordinate vector must have the full dimension")
    deg1 = set(a.layer_positions(1))
    if any(c != 0 and p not in deg1 for p, c in enumerate(y)):
        raise ValueError("element is not supported on the degree -1 layer")
    n = a.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, yi in _support(y):
        for j in range(n):
            for k, c in a.bracket_terms(i, j):
                rows[k][j] += yi * c
    return AdMatrix(element=y,
                    matrix=Matrix._trusted(tuple(map(tuple, rows))))


def _kernel_within(rows, n: int, positions: Sequence[int]) -> Subspace:
    """The solutions in n unknowns, rows dense or {col: value}, that
    vanish off the given positions: one more row {q: 1} per q outside."""
    return _kernel(list(rows) + [{q: 1} for q in range(n)
                                 if q not in positions], n)


def _central_part(a: GNLA, positions: Sequence[int]) -> Subspace:
    """{x in span(e_p : p in positions) : [x, e_j] = 0 for every j}: one
    sparse row {p: c} per (j, k), c the e_k coefficient of [e_p, e_j]."""
    n = a.dim
    rows = []
    for j in range(n):
        by_target: Dict[int, Dict[int, Fraction]] = {}
        for p in positions:
            for k, c in a.bracket_terms(p, j):
                by_target.setdefault(k, {})[p] = c
        rows.extend(by_target.values())
    return _kernel_within(rows, n, positions)


def center(a: GNLA) -> Subspace:
    """{x : [x, e_j] = 0 for every j}."""
    return _central_part(a, range(a.dim))


def layer(a: GNLA, i: int) -> Subspace:
    """The coordinate subspace spanned by the degree -i basis elements."""
    if i <= 0:
        raise ValueError("layer index must be positive")
    # unit vectors in increasing position order are already an RREF
    return Subspace._trusted(
        a.dim, [a.basis_vector(p) for p in a.layer_positions(i)])


@dataclass(frozen=True)
class ValidationReport:
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

    # a triple sums c * d over [e_p, e_q] = sum c e_m and
    # [e_m, e_r] = sum d e_l
    jacobi_ok = True
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total: Dict[int, Fraction] = {}
                for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c in a.bracket_terms(p, q):
                        for l, d in a.bracket_terms(m, r):
                            total[l] = total.get(l, 0) + c * d
                if any(total.values()):
                    jacobi_ok = False
                    failures.append(
                        ("jacobi", (a.labels[i], a.labels[j], a.labels[k])))

    # [m_{-1}, m_{-i}] spans the coordinate space m_{-i-1} exactly when
    # every bracket lies in it and their rank is its dimension
    generated_ok = True
    for i in range(1, a.depth):
        target = a.layer_positions(i + 1)
        spanned = [dict(a.bracket_terms(p, q))
                   for p in a.layer_positions(1)
                   for q in a.layer_positions(i)]
        if (any(k not in target for r in spanned for k in r)
                or len(independent_rows(spanned)) != len(target)):
            generated_ok = False
            failures.append(("generated", (i + 1,)))

    central_line = _central_part(a, a.layer_positions(1))
    nondegenerate_ok = central_line.dim == 0
    if not nondegenerate_ok:
        failures.append(("nondegenerate", (central_line.basis[0],)))

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
    off from the supports.
    """
    n = a.dim
    vecs = [vector(v) for v in vectors]
    if len(vecs) != n or len(labels) != n:
        raise ValueError("need exactly dim basis vectors and labels")
    supports = [_support(v) for v in vecs]
    degrees = []
    for sup in supports:
        degs = {a.degrees[p] for p, _ in sup}
        if len(degs) != 1:
            raise ValueError("new basis vectors must be homogeneous")
        degrees.append(degs.pop())
    p_inv = Matrix.from_columns(vecs).inverse()
    # column k of P^-1 holds the new coordinates of the old e_k
    inv_cols = [[] for _ in range(n)]
    for r, row in enumerate(p_inv.rows):
        for k, c in enumerate(row):
            if c:
                inv_cols[k].append((r, c))
    # GNLA sorts the terms and drops the ones that cancel
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            new: Dict[int, Fraction] = {}
            for k, w in _bracket_support(a, supports[i], supports[j]).items():
                for r, c in inv_cols[k]:
                    new[r] = new.get(r, 0) + w * c
            if new:
                brackets[(i, j)] = new.items()
    return GNLA(name or a.name,
                list(zip(labels, degrees)), brackets)


def quotient(a: GNLA, ideal: Subspace, representatives: Sequence[Sequence],
             labels: Sequence[str], name: Optional[str] = None) -> GNLA:
    """The quotient algebra by a graded ideal, over chosen representatives.

    representatives together with the ideal must span the whole algebra;
    brackets of representatives are reduced modulo the ideal and read off
    in representative coordinates.
    """
    n = a.dim
    reps = [vector(v) for v in representatives]
    r = len(reps)
    if r + ideal.dim != n:
        raise ValueError("representatives do not complement the ideal")
    decomp = Matrix.from_columns(reps + [list(b) for b in ideal.basis])
    if decomp.rank() != n:
        raise ValueError("representatives do not complement the ideal")
    degrees = []
    for v in reps:
        degs = {a.degrees[p] for p, c in enumerate(v) if c != 0}
        if len(degs) != 1:
            raise ValueError("representatives must be homogeneous")
        degrees.append(degs.pop())
    brackets = {}
    for i in range(r):
        for j in range(i + 1, r):
            w = solve(decomp, bracket(a, reps[i], reps[j]))
            if w is None:
                raise ValueError("bracket escapes the span; not an ideal?")
            entries = [(k, c) for k, c in enumerate(w[:r]) if c != 0]
            if entries:
                brackets[(i, j)] = entries
    return GNLA(name or (a.name + "_quotient"),
                list(zip(labels, degrees)), brackets)
