"""Exact rational linear algebra on one integer elimination core.

The public scalars are fractions.Fraction.  Ranks, kernels and echelon
forms feed classification verdicts downstream, so every elimination step
must be exact; floats are rejected at the door.  Every rank, RREF,
kernel, solve, inverse and determinant runs on one core, which works on
integers only: sparse {column: int} rows, reduced fraction-free with row
content reduction (Bareiss 1968), forward and back.  Fraction rows are
scaled to integers once, where they enter the core; a caller that
builds its rows as integers (the Leibniz systems, the Groebner row
reduction) hands them over as they are.  The inverse is one reduction
of [U | I] for the integer rows U (_inverse), which change_basis reads
with its scales.  The core's output is the unique RREF, kept sparse as
the rows' nonzero (column, value) entries (_rref_rows): subspaces are
stored by it, so equal ones compare equal, and solve and Subspace.basis
densify it only at the API boundary.  A kernel takes one elimination, with its
unknowns keyed in reverse: so reduced, each pivot row reaches only free
columns below its pivot, and the vectors read off the free columns
already are the RREF.  The read-off stays integer (_kernel_rows), each
vector its integer entries over its least positive denominator; a caller
that numbers its unknowns in reverse (the Leibniz systems) hands its
rows over as built, and _integer_kernel is the Fraction view of the
read-off.  Every other caller's rows, dense or {col: value}, reach it
through _reversed_rows, the one other place that writes the numbering.
A kernel's pass stops once the pivots cover the unknowns, as a rank's
stops at its bound.  Frozen is the one base of the package's immutable
slotted values (Matrix, Subspace, GNLA, GradedMap and Polynomial) and of
its records, such as TypeVerdict: it refuses assignment, builds trusted
instances and restores copied or pickled slots, and it gives a record
its constructor, equality, hash and repr from the fields its class body
declares.  MatrixSubspace, a space of square matrices stored as the
Subspace of their flattened entries, is h0's type and the checkers'
input; it lives here so that the checkers need not import the
prolongation solver.  This module imports no other module of the
package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Matrix", "MatrixSubspace", "Subspace", "frac", "kernel_basis",
    "solve", "vector",
]

Scalar = Fraction

Vector = Tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce an int, a string like '3/2' or a Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point input rejected; pass a Fraction")
    return Fraction(x)


def vector(entries) -> Vector:
    return tuple(frac(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vector(n: int, i: int) -> Vector:
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return tuple(v)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


def _integer_row(row):
    """A row, dense or {col: value}, as ({col: int} without zeros, s): the
    dict is s times the row, s the lcm of its denominators."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    entries = [(j, e) for j, e in items if e]
    if not entries:
        return {}, 1
    s = lcm(*[e.denominator for _, e in entries])
    return {j: e.numerator * (s // e.denominator) for j, e in entries}, s


def _eliminate(p, c, r):
    """r <- (b/g) r - (a/g) p for a = r[c], b = p[c], g = gcd(a, b), then
    divided by the gcd of its entries; returns (r, b/g, that gcd)."""
    a, b = r[c], p[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        r = {j: b * v for j, v in r.items()}
    for j, v in p.items():
        w = r.get(j, 0) - a * v
        if w:
            r[j] = w
        else:
            del r[j]
    content = gcd(*r.values()) if r else 1
    if content != 1:
        r = {j: v // content for j, v in r.items()}
    return r, b, content


def _echelon(rows, bound=None):
    """Fraction-free forward elimination (Bareiss 1968, with row content
    reduction) on sparse {col: int} rows without zero entries, which it
    owns: a row may be changed in place or kept as a pivot row.

    Each input row is reduced by the pivot rows of the rows before it
    until its leading column is new or it vanishes.
    Returns ({pivot column: integer row}, trail), where trail holds one
    (pivot column or None, num, den) per input row: its final row is
    num/den times the input row plus a combination of the rows before it.
    Given a bound no rank can exceed, the pass stops once the pivots reach
    it, and the trail ends at the row that did.
    """
    pivots = {}
    trail = []
    for row in rows:
        if len(pivots) == bound:
            break
        r = row
        num = den = 1
        c = None
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r, b, content = _eliminate(p, c, r)
            if b != 1:
                num *= b
            if content != 1:
                den *= content
        trail.append((c if r else None, num, den))
    return pivots, trail


def independent_rows(rows) -> List[int]:
    """Positions of the rows that are not in the span of the rows before
    them, read off the trail of one forward pass."""
    _, trail = _echelon([_integer_row(r)[0] for r in rows])
    return [i for i, (c, _, _) in enumerate(trail) if c is not None]


def _rank(rows, bound: Optional[int] = None) -> int:
    """The rank of rows, dense or {col: value}, or the bound once the rank
    reaches it: one forward pass that scales each row to integers only
    when it gets there."""
    return len(_echelon((_integer_row(r)[0] for r in rows), bound)[0])


def _reduced(rows, bound=None):
    """The integer RREF of sparse {col: int} rows, which it owns: (pivot
    columns in increasing order, {pivot column: integer row}).

    This is the package's one elimination: the forward pass of _echelon,
    then back-substitution the same way from the highest pivot down.
    Divided by its pivot entry, each row is a row of the unique RREF.
    Given a bound no rank can exceed, such as the number of columns, the
    forward pass stops once the pivots reach it: the rows it leaves are
    in the span of the pivot rows.
    """
    pivots, _ = _echelon(rows, bound)
    cols = sorted(pivots)
    for c in reversed(cols):
        r = pivots[c]
        for c2 in [j for j in r if j != c and j in pivots]:
            r, _, _ = _eliminate(pivots[c2], c2, r)
        pivots[c] = r
    return cols, pivots


def _inverse(rows, n: int):
    """The inverse of the n x n integer matrix with sparse {col: int} rows
    without zeros, which it owns, from one reduction of [U | I]: for each
    row c of U^-1, ({k: int}, lead) with U^-1[c][k] = row[k] / lead.
    Raises ValueError when U is singular.  Its one caller is change_basis."""
    for i, r in enumerate(rows):
        r[n + i] = 1
    cols, reduced = _reduced(rows)
    if cols != list(range(n)):
        raise ValueError("matrix is singular")
    return [({k - n: v for k, v in reduced[c].items() if k >= n},
             reduced[c][c]) for c in cols]


def _det(rows) -> Fraction:
    """The determinant of square rows, Fraction or int entries, from the
    forward pass: the sign of the row order times the product of the
    pivots, over the scales that made the rows integers and the row
    scales the pass applied."""
    scaled = [_integer_row(r) for r in rows]
    pivots, trail = _echelon([r for r, _ in scaled])
    if len(pivots) < len(rows):
        return Fraction(0)
    order = [c for c, _, _ in trail]
    inversions = sum(1 for i in range(len(order)) for j in range(i)
                     if order[j] > order[i])
    num = prod(r[c] for c, r in pivots.items())
    num *= prod(d for _, _, d in trail)
    den = prod(n for _, n, _ in trail) * prod(s for _, s in scaled)
    return Fraction(-num if inversions % 2 else num, den)


def _rref_rows(rows):
    """The unique RREF of the row space of a list of rows, dense or
    {col: value}, as a tuple of its rows, each the tuple of its nonzero
    (col, value) entries in increasing column order."""
    cols, reduced = _reduced([_integer_row(r)[0] for r in rows])
    out = []
    for c in cols:
        r = reduced[c]
        lead = r[c]
        out.append(tuple((j, Fraction(r[j], lead)) for j in sorted(r)))
    return tuple(out)


def _densified(entries, n: int) -> Vector:
    """The n-vector with the given nonzero (col, value) entries."""
    v = [Fraction(0)] * n
    for j, e in entries:
        v[j] = e
    return tuple(v)


class _Declared(type):
    """The metaclass of Frozen: it turns the names a class body annotates
    into its fields, before the class is made, while slots can still be
    given."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = {f: namespace.pop(f) for f in fields if f in namespace}
        slots = namespace["__slots__"] = (
            fields + tuple(namespace.get("__slots__", ())))
        cls = super().__new__(mcs, name, bases, namespace)
        cls._fields, cls._defaults = fields, defaults
        cls._compared = tuple(f for f in fields
                              if f not in namespace.get("_uncompared", ()))
        cls._setters = tuple(vars(cls)[s].__set__ for s in slots)
        cls._puts = tuple(zip(fields, cls._setters))
        return cls


class Frozen(metaclass=_Declared):
    """Base of the package's immutable slotted values.

    A record declares its fields once, by annotating names in its class
    body in order, each followed by its default if it has one.  They
    become its first slots; a __slots__ in the body lists its other
    slots, which follow.  The constructor takes the fields positionally
    or by keyword, with the defaults, as a function with the fields as
    its parameters would, and raises a TypeError naming the argument at
    fault for a call that does not fit; then it runs __post_init__, the
    record's checks.  repr is "Name(field=value, ...)" over the fields.
    Equality and hash read the tuple of the fields, all of them but those
    the body names in _uncompared; a value of another class is never
    equal.
    Nothing is generated or compiled when a class is made: these methods
    read the field names and defaults that _Declared stores on it.  The
    values that build their own slots (Matrix, Subspace, GNLA, GradedMap
    and Polynomial) declare no fields and define their own constructor,
    equality and hash.

    Assignment raises "<class name> is immutable".  _trusted fills the
    slots in order on a new instance.  A lazy cache is a slot that is
    not a field, left unset (or None) until its first read writes it
    with object.__setattr__; it takes no part in equality, hash or repr.
    Copy, deepcopy and pickle take the default slot state, every slot
    that is set, and write it back through __setstate__, so a built
    cache travels too.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        values = {**cls._defaults, **kwargs}
        if args:
            if len(args) > len(fields) or not kwargs.keys().isdisjoint(
                    fields[:len(args)]):
                raise cls._call_error(args, kwargs)
            values.update(zip(fields, args))
        try:
            for name, put in cls._puts:
                put(self, values[name])
        except KeyError:
            raise cls._call_error(args, kwargs) from None
        if len(values) != len(fields):
            raise cls._call_error(args, kwargs)
        self.__post_init__()

    @classmethod
    def _call_error(cls, args, kwargs) -> TypeError:
        """The TypeError of a constructor call that does not fit the
        fields: it names the first unknown or repeated keyword, else the
        surplus of positional arguments, else the first missing field."""
        call, fields = "%s()" % cls.__qualname__, cls._fields
        for key in kwargs:
            if key not in fields:
                return TypeError("%s got an unexpected keyword argument %r"
                                 % (call, key))
            if fields.index(key) < len(args):
                return TypeError("%s got multiple values for argument %r"
                                 % (call, key))
        if len(args) > len(fields):
            return TypeError("%s takes at most %d arguments, %d were given"
                             % (call, len(fields), len(args)))
        return TypeError("%s missing required argument %r" % (call, next(
            f for f in fields[len(args):]
            if f not in kwargs and f not in cls._defaults)))

    def __post_init__(self):
        """A record's checks, run once its fields are set: none here."""

    def _values(self) -> tuple:
        """The values of the compared fields, in order."""
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """A new instance with its first slots set to values, taken as is."""
        obj = object.__new__(cls)
        for put, value in zip(cls._setters, values):
            put(obj, value)
        return obj


class Matrix(Frozen):
    """Immutable dense matrix over Fraction.  The package reads none of
    scale, + and det; they stay because the bench harness checks
    det_pencil and pfaffian against them and times Matrix.det."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(frac(e) for e in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", len(rows[0]) if rows else 0)

    @classmethod
    def _trusted(cls, rows: Tuple[Vector, ...]) -> "Matrix":
        """A matrix from equal-length tuples of Fractions, taken as is."""
        return super()._trusted(rows, len(rows), len(rows[0]) if rows else 0)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        v = vector(v)
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)

    def is_skew(self) -> bool:
        rows = self.rows
        return self.nrows == self.ncols and all(
            rows[j][i] == -x if x else not rows[j][i]
            for i, r in enumerate(rows) for j, x in enumerate(r[i:], i))

    def flatten(self) -> Vector:
        return tuple(a for r in self.rows for a in r)

    def rank(self) -> int:
        return _rank(self.rows)

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)


class Subspace(Frozen):
    """A linear subspace stored by its unique RREF basis.

    The stored form is _rows, for each basis row the tuple of its nonzero
    (col, value) entries in increasing column order; dimension, equality
    and hashing read it, and _trusted(ambient_dim, rows) takes a tuple of
    such rows as is.  The dense basis is built on first read."""

    __slots__ = ("ambient_dim", "_rows", "_basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("ambient dimension mismatch")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_rows", _rref_rows(vecs))

    @property
    def basis(self) -> Tuple[Vector, ...]:
        """The RREF basis as dense vectors, built from _rows on first read."""
        try:
            return self._basis
        except AttributeError:
            basis = tuple(_densified(r, self.ambient_dim) for r in self._rows)
            object.__setattr__(self, "_basis", basis)
            return basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """Coefficients of v over the RREF basis, or None if v is outside:
        the support of v reduced by the rows led in it, sparsely."""
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        residual = {j: e for j, e in enumerate(v) if e}
        coeffs = []
        zero = Fraction(0)
        for row in self._rows:
            c = residual.get(row[0][0], zero)
            coeffs.append(c)
            if c:
                for j, e in row:
                    r = residual.get(j, 0) - c * e
                    if r:
                        residual[j] = r
                    else:
                        del residual[j]
        if residual:
            return None
        return tuple(coeffs)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ambient_dim, self._rows))

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)


def _kernel_rows(rows, ncols: int):
    """The RREF basis of the solution space of sparse {key: int} rows
    without zero entries, which it owns, in ncols unknowns keyed in
    reverse, unknown j at key ncols - 1 - j, read off as integers: for
    each basis vector in increasing lead, (entries, den), entries its
    nonzero (unknown, int) pairs in increasing unknown and den the least
    positive integer that makes den times the vector integral, so equal
    vectors give equal pairs.

    One elimination, sparsest row first (the RREF is unique, so the row
    order changes only the work), which stops once the pivots cover the
    unknowns.  Reduced that way, each row r_c led at unknown c is nonzero
    past its pivot only at free unknowns j < c.  Free unknown j then
    gives e_j - sum_c (r_c[j] / lead) e_c over pivots c > j: led at j and
    zero at every other free unknown, so the RREF row itself, its entries
    already in increasing order.  In lowest terms -w / lead has the
    denominator lead / gcd(w, lead), and den is their lcm.
    """
    last = ncols - 1
    cols, reduced = _reduced(sorted(rows, key=len), ncols)
    free = {j: [] for j in range(ncols) if last - j not in reduced}
    for c in reversed(cols):
        r = reduced[c]
        lead = r[c]
        at = last - c
        for j, w in r.items():
            if j != c:
                free[last - j].append((at, w, lead))
    out = []
    for j, terms in free.items():
        den = lcm(*[lead // gcd(w, lead) for _, w, lead in terms])
        out.append((((j, den),) + tuple((c, -w * den // lead)
                                        for c, w, lead in terms), den))
    return tuple(out)


def _integer_kernel(rows, ncols: int) -> Subspace:
    """The solution space of the rows of _kernel_rows, keyed in reverse
    and owned by it, with its RREF basis: the Fraction view of that
    read-off."""
    return Subspace._trusted(ncols, tuple(
        tuple((j, Fraction(v, den)) for j, v in entries)
        for entries, den in _kernel_rows(rows, ncols)))


def _reversed_rows(rows, ncols: int):
    """Rows in ncols unknowns, dense or {col: value}, as the rows
    _kernel_rows takes: each scaled to integers once by _integer_row and
    keyed in reverse, unknown j at key ncols - 1 - j."""
    last = ncols - 1
    return [{last - j: v for j, v in _integer_row(r)[0].items()}
            for r in rows]


def _kernel(rows, ncols: int) -> Subspace:
    """The solution space of a system in ncols unknowns, rows dense or
    {col: value}, with its RREF basis."""
    return _integer_kernel(_reversed_rows(rows, ncols), ncols)


def kernel_basis(m: Matrix) -> Subspace:
    """The solution space {v : Mv = 0} with its RREF basis.  The package
    calls _kernel; this stays because the bench harness times it."""
    return _kernel(m.rows, m.ncols)


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    """A particular solution of Mx = b, free variables zero, read off the
    RREF rows of [M | b]; None when the b column is a pivot.  The package
    does not call it; it stays because the bench harness times it."""
    b = vector(b)
    if len(b) != m.nrows:
        raise ValueError("shape mismatch")
    n = m.ncols
    x = [Fraction(0)] * n
    for r in _rref_rows([row + (b[i],) for i, row in enumerate(m.rows)]):
        if r[0][0] == n:
            return None
        if r[-1][0] == n:
            x[r[0][0]] = r[-1][1]
    return tuple(x)


class MatrixSubspace(Frozen):
    """A subspace of square matrices with an RREF basis over flat entries."""
    side: int
    basis: Tuple[Matrix, ...]
    span: Subspace

    @classmethod
    def from_matrices(cls, side: int, mats: Sequence[Matrix]) -> "MatrixSubspace":
        for m in mats:
            if (m.nrows, m.ncols) != (side, side):
                raise ValueError("matrix side mismatch")
        return cls._from_span(
            side, Subspace(side * side, [m.flatten() for m in mats]))

    @classmethod
    def _from_span(cls, side: int, span: Subspace) -> "MatrixSubspace":
        """The subspace of the matrices flattened into the rows of span."""
        basis = tuple(_unflattened(row, side, side) for row in span.basis)
        return cls(side=side, basis=basis, span=span)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: Matrix) -> bool:
        return self.span.contains(m.flatten())


def _unflattened(seg: Sequence, nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols matrix whose rows concatenate to seg."""
    return Matrix._trusted(tuple(tuple(seg[r * ncols:(r + 1) * ncols])
                                 for r in range(nrows)))
