"""Constructions: special extensions, degree 0 cohomology, skew pencils.

A special extension glues a commutative graded ideal V with
one-dimensional layers onto a base algebra n; the brackets escaping the
base are a degree 0 two-cocycle, and inequivalent extensions are
classified by the degree 0 part of H^2(n, V).  special_extension writes
the extension's integer bracket table directly and moves it to the
adapted basis through the core of change_basis, on integer columns.
One slot rule, _slots, lists the cochain slots of every degree, and one
Chevalley-Eilenberg formula, _differential, writes both d1 and d2 off
the integer table.  Skew matrix pencils give the metabelian (2-step)
examples, assembled from canonical blocks (the minimal indices M and
elementary divisors E and F): one table, _BLOCKS, shapes each kind's
template, and one writer, _pencil_pair, skew-embeds templates
block-diagonally.  The module ends with a catalog of named
algebras used throughout the tests and the CLI.  It imports only
algebra and linalg, so its checkers (special_extension, _pfaffian,
_interpolated, _poly_divmod, _poly_gcd and _rational_roots) run without the
prolongation solver or the Groebner code.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import GNLA, _change_basis, _jacobi_failures, validate
from .linalg import (
    Frozen,
    Matrix,
    Subspace,
    Vector,
    _det,
    _integer_row,
    _kernel,
    _kernel_rows,
    _reversed_rows,
    frac,
    independent_rows,
    is_zero_vector,
    vector,
    zero_vector,
)

__all__ = [
    "CATALOG_NAMES", "Cochain2", "DegreeViolation", "ExtensionData",
    "JacobiViolation", "NotGenerated", "NotSkew", "PencilForm",
    "PencilSpec", "algebra_from_pencil_spec", "assemble_pencil",
    "catalog", "det_pencil", "h2_0", "metabelian_from_pencil",
    "pfaffian", "special_extension",
]

# the most basis vectors a catalog, pencil, parsed or extension algebra
# may have; larger inputs are rejected before anything is built
_MAX_DIM = 256

# a rational numeral of the document grammars: an integer or a fraction
_NUMERAL = r"-?\d+(?:/\d+)?"
_NUMERAL_RE = re.compile(_NUMERAL)


def _check_extension_size(base: GNLA, s: int) -> None:
    """Refuse s < 2 or an extension of more than _MAX_DIM basis vectors."""
    if s < 2:
        raise ValueError("module length s must be at least 2")
    if base.dim + s > _MAX_DIM:
        raise ValueError("extension of %s by s = %d has more than %d basis "
                         "vectors" % (base.name, s, _MAX_DIM))


class JacobiViolation(Exception):
    """The requested brackets do not satisfy the Jacobi identity."""

    def __init__(self, triple: Tuple[str, str, str]):
        super().__init__("Jacobi identity fails on (%s, %s, %s)" % triple)
        self.triple = triple


class DegreeViolation(Exception):
    """A cocycle value sits in the wrong graded component."""


class NotSkew(Exception):
    """A pencil matrix is not skew-symmetric."""


class NotGenerated(Exception):
    """The degree -2 layer is not spanned by brackets of generators."""


class Cochain2(Frozen):
    """An alternating 2-cochain with values in the graded module V.

    values maps a basis pair (i, j) with i < j of the base algebra to a
    length-s coefficient tuple over the module basis Y_1..Y_s; missing
    pairs are zero, and a pair out of order or listed twice is refused.
    Only storage and sign bookkeeping live here.
    """
    s: int
    values: Tuple[Tuple[Tuple[int, int], Vector], ...]

    def __post_init__(self):
        pairs = [pair for pair, _ in self.values]
        if any(i >= j for i, j in pairs):
            raise ValueError("cochain keys must satisfy i < j")
        if len(set(pairs)) != len(pairs):
            raise ValueError("cochain keys must be distinct")

    @classmethod
    def from_dict(cls, s: int, mapping) -> "Cochain2":
        items = []
        for (i, j), val in sorted(mapping.items()):
            if i >= j:
                raise ValueError("cochain keys must satisfy i < j")
            val = vector(val)
            if len(val) != s:
                raise ValueError("cochain value length must equal s")
            if not is_zero_vector(val):
                items.append(((i, j), val))
        return cls(s=s, values=tuple(items))

    @classmethod
    def zero(cls, s: int) -> "Cochain2":
        return cls(s=s, values=())

    def as_dict(self) -> Dict[Tuple[int, int], Vector]:
        return {pair: val for pair, val in self.values}

    def value(self, i: int, j: int) -> Vector:
        if i == j:
            return zero_vector(self.s)
        sign = 1
        if i > j:
            i, j = j, i
            sign = -1
        for pair, val in self.values:
            if pair == (i, j):
                return tuple(sign * c for c in val)
        return zero_vector(self.s)

    def is_zero(self) -> bool:
        return not self.values


def _module_covector(base: GNLA, w: Subspace, x_vec: Vector) -> Vector:
    """The functional with kernel W plus all deeper layers and value 1
    on the transversal, as a full coordinate vector, W a hyperplane of
    the degree -1 layer: the one kernel vector k of W's rows in degree
    -1 coordinates, read off as integers, divided by k(x)."""
    pos1 = base.layer_positions(1)
    n = len(pos1)
    index = {p: i for i, p in enumerate(pos1)}
    ((k, _),) = _kernel_rows(_reversed_rows(
        [{index[p]: e for p, e in r} for r in w._rows], n), n)
    value = sum(v * x_vec[pos1[i]] for i, v in k)
    if not value:
        raise ValueError("transversal lies in the hyperplane")
    alpha = [Fraction(0)] * base.dim
    for i, v in k:
        alpha[pos1[i]] = Fraction(v) / value
    return tuple(alpha)


def _check_hyperplane(base: GNLA, w: Subspace) -> None:
    """Refuse a W that is not a hyperplane of the degree -1 layer, read
    off the supports of its RREF rows."""
    if w.ambient_dim != base.dim:
        raise ValueError("hyperplane must live in the base coordinates")
    if any(base.degrees[p] != -1 for r in w._rows for p, _ in r):
        raise ValueError("hyperplane must sit inside the degree -1 layer")
    if w.dim != base.layer_dim(1) - 1:
        raise ValueError("hyperplane must have codimension 1 in degree -1")


def _adapted_base(base: GNLA) -> Tuple[int, Subspace]:
    """The adapted-base convention of from_adapted_base and of the
    CLI's cocycle documents: the transversal X is the first degree -1
    basis vector and W is the span of the others.  X's position and W."""
    pos1 = base.layer_positions(1)
    if not pos1:
        raise ValueError("base has no degree -1 layer")
    # unit vectors in increasing position order are already an RREF
    one = Fraction(1)
    return pos1[0], Subspace._trusted(
        base.dim, tuple(((p, one),) for p in pos1[1:]))


def _default_transversal(base: GNLA, w: Subspace) -> Vector:
    for p in base.layer_positions(1):
        cand = base.basis_vector(p)
        if not w.contains(cand):
            return cand
    raise ValueError("no basis vector is transversal to the hyperplane")


def _slots(base: GNLA, s: int, q: int) -> List[Tuple[int, ...]]:
    """The degree 0 q-cochain slots: increasing q-tuples of basis
    positions of total degree -k with k <= s."""
    deg = base.degrees.__getitem__
    return [t for t in combinations(range(base.dim), q)
            if -sum(map(deg, t)) <= s]


def _differential(base: GNLA, alpha: Vector, s: int, q: int):
    """d_q of the degree 0 complex as (q-slots, (q+1)-slots, rows): one
    sparse {q-slot index: value} row per (q+1)-slot t, from the
    Chevalley-Eilenberg formula

        (d f)(e_t0, .., e_tq) = sum_i (-1)^i alpha(e_ti) f(t - t_i)
            + sum_{i<j} (-1)^(i+j) f([e_ti, e_tj], t - {t_i, t_j}),

    e_ti acting on the module by alpha(e_ti) times the shift.  A slot out
    of order is read with the sign of its sorting; a repeated slot, or
    one deeper than s, reads as zero.  The brackets are the base's
    integer table, so each row is den times that of d_q, den the table's.
    """
    cols, slots = _slots(base, s, q), _slots(base, s, q + 1)
    index = {t: i for i, t in enumerate(cols)}
    table, den = base._table, base._den
    # den alpha(e_p) with its sign at an even and at an odd place of t
    acting = {p: (a * den, -a * den) for p, a in enumerate(alpha) if a}
    pairs = [(i, j, (i + j) % 2) for j in range(q + 1) for i in range(j)]
    rows = []
    for t in slots:
        row: Dict[int, Fraction] = {}
        # the alpha terms land on distinct slots of the empty row
        for i, p in enumerate(t):
            col = index.get(t[:i] + t[i + 1:]) if p in acting else None
            if col is not None:
                row[col] = acting[p][i % 2]
        for i, j, odd in pairs:
            terms = table.get(t[i], {}).get(t[j])
            if not terms:
                continue
            rest = t[:i] + t[i + 1:j] + t[j + 1:]
            for u, c in terms:
                if u in rest:
                    continue
                # sorting (u, rest) moves u past m slots
                m = bisect_left(rest, u)
                col = index.get(rest[:m] + (u,) + rest[m:])
                if col is not None:
                    v = -c if (odd + m) % 2 else c
                    row[col] = row[col] + v if col in row else v
        rows.append(row)
    return cols, slots, rows


def _degree0_complex(base: GNLA, w: Subspace, s: int):
    """The module action and d1 of the degree 0 cochain complex.

    The module V has basis Y_1..Y_s with Y_j in degree -j; the degree -1
    part of the base acts through the covector alpha by the shift
    Y_j -> Y_{j+1} (zero past s), everything else acts by zero.  A
    degree 0 q-cochain assigns to a basis tuple of total degree -k a
    multiple of Y_k, so each slot carries one rational coefficient.

    Returns (alpha, c1, c2, image): the covector, the 1- and 2-cochain
    slots, and image[i] the coboundary of the unit 1-cochain on slot
    c1[i] as a sparse {c2 slot: value} row, d1 transposed, times the
    base's den (see _differential).
    """
    _check_hyperplane(base, w)
    alpha = _module_covector(base, w, _default_transversal(base, w))
    c1, c2, d1 = _differential(base, alpha, s, 1)
    image: List[Dict[int, Fraction]] = [{} for _ in c1]
    for idx, row in enumerate(d1):
        for i, v in row.items():
            image[i][idx] = v
    return alpha, c1, c2, image


def _cochain_from_slots(base: GNLA, s: int, c2: Sequence[Tuple[int, int]],
                        coeffs: Sequence) -> Cochain2:
    values = {}
    for (p, q), c in zip(c2, coeffs):
        if c == 0:
            continue
        k = -(base.degrees[p] + base.degrees[q])
        val = [Fraction(0)] * s
        val[k - 1] = frac(c)
        values[(p, q)] = tuple(val)
    return Cochain2.from_dict(s, values)


def _cocycle_slot_vector(base: GNLA, s: int, cocycle: Cochain2,
                         c2: Sequence[Tuple[int, int]]) -> List[Fraction]:
    """Flatten a degree 0 cocycle to one coefficient per C^2 slot,
    rejecting any value outside its graded component."""
    index = {pq: i for i, pq in enumerate(c2)}
    vec = [Fraction(0)] * len(c2)
    for (p, q), val in cocycle.values:
        if p < 0 or q >= base.dim:
            raise ValueError("cocycle pair (%d, %d) outside the base" % (p, q))
        k = -(base.degrees[p] + base.degrees[q])
        for idx, c in enumerate(val):
            if c != 0 and idx != k - 1:
                raise DegreeViolation(
                    "value at (%s, %s) must lie in the component of degree %d"
                    % (base.labels[p], base.labels[q], -k))
        if (p, q) not in index:
            if any(c != 0 for c in val):
                raise DegreeViolation(
                    "pair (%s, %s) has total degree below -%d"
                    % (base.labels[p], base.labels[q], s))
            continue
        vec[index[(p, q)]] = val[k - 1]
    return vec


class ExtensionData(Frozen):
    """Input of a special extension.

    covector_kernel is the hyperplane W inside the degree -1 layer of
    the base, transversal an element with alpha(transversal) = 1, s the
    length of the attached module, and cocycle the extra bracket data
    over base basis pairs.
    """
    base: GNLA
    covector_kernel: Subspace
    transversal: Vector
    s: int
    cocycle: Cochain2

    def __post_init__(self):
        _check_extension_size(self.base, self.s)
        rep = validate(self.base)
        if not rep.structural_ok:
            raise ValueError("base algebra does not validate: %r"
                             % (rep.failures[:3],))
        _check_hyperplane(self.base, self.covector_kernel)
        x = vector(self.transversal)
        if len(x) != self.base.dim:
            raise ValueError("transversal has the wrong length")
        if any(c and d != -1 for c, d in zip(x, self.base.degrees)):
            raise ValueError("transversal must have degree -1")
        if self.covector_kernel.contains(x):
            raise ValueError("transversal lies in the hyperplane")
        object.__setattr__(self, "transversal", x)
        if self.cocycle.s != self.s:
            raise ValueError("cocycle length does not match s")

    @classmethod
    def from_adapted_base(cls, base: GNLA, s: int,
                          cocycle: Optional[Cochain2] = None) -> "ExtensionData":
        """The extension data of the adapted base (_adapted_base), used
        by the CLI and the decomposition round trip."""
        xpos, w = _adapted_base(base)
        return cls(base=base, covector_kernel=w,
                   transversal=base.basis_vector(xpos), s=s,
                   cocycle=cocycle if cocycle is not None else Cochain2.zero(s))


def special_extension(data: ExtensionData) -> GNLA:
    """Build the extension algebra on the basis X, Y_1..Y_s, Z_1..Z_r.

    X is the transversal, the Y_i span the attached commutative ideal
    with deg Y_i = -i, and the Z_j run through the remaining base basis
    (the RREF basis of the hyperplane, then the deeper layers).  The
    extension's integer table is first written in the base coordinates
    followed by Y_1..Y_s, over one denominator: a base bracket of
    degree -k picks up the cocycle's value on Y_k, and e_p acts on the
    module by alpha(e_p) times the shift Y_i -> Y_{i+1}, alpha the
    covector with kernel W and alpha(X) = 1.  The core of change_basis
    then moves it to the adapted basis, given as integer columns, so
    [X, Y_i] = Y_{i+1} and the Y_i commute with each other and with
    every Z_j.
    The cocycle is checked in the base as given, so a DegreeViolation
    names the caller's labels.  The Jacobi identity of the result is
    checked exhaustively.

    Note the constraint tying the hyperplane part of the cocycle to the
    module length: a component on a pair (Z_i, Z_j) with value in Y_k
    feeds the triple (X, Z_i, Z_j) the term [X, Y_k] = Y_{k+1}, which
    nothing cancels, so it survives the Jacobi check only when the
    module truncates at s = k.  Over the 3-dim base with [X, Z_1] = Z_2
    the (Z_1, Z_2) component sits in Y_3 and builds only for s = 3; the
    same data with s = 4 raises JacobiViolation on (X, Z_1, Z_2).  The
    coefficient with this behaviour is the hyperplane pair one, not the
    transversal components, which a basis change absorbs; verified by
    the exhaustive Jacobi computation this function always runs.
    """
    base, w, s = data.base, data.covector_kernel, data.s
    n = base.dim
    deg = base.degrees
    c2 = _slots(base, s, 2)
    slots = _cocycle_slot_vector(base, s, data.cocycle, c2)
    alpha = _module_covector(base, w, data.transversal)

    # the integer table on the base positions, then Y_1..Y_s at
    # n..n+s-1, over one denominator e; labels need only differ
    e = lcm(base._den, *[c.denominator for c in slots + list(alpha) if c])
    f = e // base._den
    upper = {(p, q): [(k, v * f) for k, v in terms]
             for p, row in base._table.items()
             for q, terms in row.items() if p < q}
    for (p, q), c in zip(c2, slots):
        if c:
            upper.setdefault((p, q), []).append(
                (n - deg[p] - deg[q] - 1, c.numerator * (e // c.denominator)))
    for p, a in enumerate(alpha):
        if a:
            v = a.numerator * (e // a.denominator)
            for i in range(n, n + s - 1):
                upper[p, i] = [(i + 1, v)]
    ext = GNLA._from_integers(
        base.name + "_ext", tuple("e%d" % p for p in range(n + s)),
        deg + tuple(-(i + 1) for i in range(s)),
        {pair: tuple(terms) for pair, terms in upper.items()}, e)

    columns = [_integer_row(data.transversal)]
    columns += [({n + i: 1}, 1) for i in range(s)]
    columns += [_integer_row(dict(r)) for r in w._rows]
    columns += [({p: 1}, 1) for i in range(2, base.depth + 1)
                for p in base.layer_positions(i)]
    labels = (["X"] + ["Y%d" % i for i in range(1, s + 1)]
              + ["Z%d" % j for j in range(1, n)])
    out = _change_basis(ext, columns, labels, ext.name)
    broken = _jacobi_failures(out)
    if broken:
        raise JacobiViolation(broken[0])
    return out


def h2_0(base: GNLA, w: Subspace, s: int) -> Tuple[int, List[Cochain2]]:
    """Degree 0 second cohomology of the base with values in the shift
    module of length s.

    Returns its dimension together with representative cocycles spanning
    a complement of the coboundaries inside the cocycles: the kernel
    basis vectors of d2 outside the span of the coboundaries and of the
    kernel vectors before them, read off one forward elimination.  d2 is
    built here, its one reader.  The dimension counts the essentially
    different special extensions for this (W, s); s is bounded as for an
    extension.
    """
    _check_extension_size(base, s)
    alpha, _, c2, image = _degree0_complex(base, w, s)
    kernel = _kernel(_differential(base, alpha, s, 2)[2], len(c2))
    picked = independent_rows(image + list(kernel.basis))
    if len(picked) != kernel.dim:
        raise AssertionError("d2 d1 != 0: coboundaries and cocycles span "
                             "%d > %d dimensions" % (len(picked), kernel.dim))
    reps = [_cochain_from_slots(base, s, c2, kernel.basis[i - len(image)])
            for i in picked if i >= len(image)]
    return len(reps), reps


# ---------------------------------------------------------------------------
# Skew pencils


# per canonical block kind: the name of its size n, the least n, and the
# offsets from n of (p, q, d_mu, d_lam), its p x q template carrying 1
# on the anti-diagonals i + j = d_mu of mu and i + j = d_lam of lambda
_BLOCKS = {
    "M": ("m", 0, (1, 0, 0, -1)),
    "E": ("e", 1, (0, 0, -1, 0)),
    "F": ("f", 1, (0, 0, 0, -1)),
}


def _template(kind: str, param) -> Tuple[list, list]:
    """The p x q mu and lambda templates of one canonical block, as
    explicit rows; the E block's lambda adds a times its mu."""
    if kind not in _BLOCKS:
        raise ValueError("unknown pencil block kind %r" % kind)
    size_name, least, offsets = _BLOCKS[kind]
    if kind == "E":
        try:
            n, a = param
        except TypeError:
            raise ValueError("E block needs a pair (e, a)") from None
        n, a = int(n), frac(a)
    else:
        n, a = int(param), 0
    if n < least:
        raise ValueError("%s block needs %s >= %d" % (kind, size_name, least))
    p, q, d_mu, d_lam = (n + k for k in offsets)
    mu = [[Fraction(int(i + j == d_mu)) for j in range(q)] for i in range(p)]
    lam = [[Fraction(int(i + j == d_lam)) + a * c for j, c in enumerate(row)]
           for i, row in enumerate(mu)]
    return mu, lam


def _pencil_pair(templates) -> Tuple[Matrix, Matrix]:
    """The block-diagonal pair (B1, B2) whose blocks are the skew
    embeddings [[0, T], [-T^t, 0]] of the (mu, lambda) templates, in
    order; only nonzero template entries are written."""
    side = sum(len(mu) + len(mu[0]) for mu, _ in templates)
    pair = [[[Fraction(0)] * side for _ in range(side)] for _ in range(2)]
    off = 0
    for block in templates:
        p = len(block[0])
        for rows, template in zip(pair, block):
            for i, row in enumerate(template, off):
                for j, c in enumerate(row, off + p):
                    if c != 0:
                        rows[i][j] = c
                        rows[j][i] = -c
        off += p + len(block[0][0])
    return tuple(Matrix._trusted(tuple(map(tuple, rows))) for rows in pair)


def metabelian_from_pencil(mats: Sequence[Matrix],
                           x_labels: Optional[Sequence[str]] = None,
                           name: str = "metabelian") -> GNLA:
    """The 2-step algebra whose brackets are read off a list of skew
    forms: [u, v] = (B_1(u,v), ..., B_t(u,v)) in the degree -2 layer.

    The forms must be linearly independent, otherwise the stated degree
    -2 dimension is wrong and NotGenerated is raised.  A common kernel
    vector makes the algebra degenerate; that is allowed but warned
    about, since every downstream classification will short-circuit.
    """
    if not mats:
        raise ValueError("need at least one pencil matrix")
    side = mats[0].nrows
    for m in mats:
        if m.nrows != side or m.ncols != side:
            raise ValueError("pencil matrices must share one side")
        if not m.is_skew():
            raise NotSkew("pencil matrices must be skew-symmetric")
    if side < 2:
        raise ValueError("pencil side must be at least 2")
    t = len(mats)
    if len(independent_rows([m.flatten() for m in mats])) != t:
        raise NotGenerated("pencil matrices are linearly dependent")
    # the common kernel is the kernel of the stacked matrices
    if _kernel([row for m in mats for row in m.rows], side).dim > 0:
        warnings.warn("pencil has a common kernel vector; "
                      "the algebra is degenerate", stacklevel=2)

    if x_labels is None:
        x_labels = ["X%d" % (i + 1) for i in range(side)]
    if len(x_labels) != side or len(set(x_labels)) != side:
        raise ValueError("need one distinct label per generator")
    basis = [(lbl, -1) for lbl in x_labels]
    basis += [("W%d" % (k + 1), -2) for k in range(t)]
    brackets = {}
    for i in range(side):
        for j in range(i + 1, side):
            terms = [(side + k, mats[k][i, j]) for k in range(t)
                     if mats[k][i, j] != 0]
            if terms:
                brackets[(i, j)] = terms
    return GNLA(name, basis, brackets)


class PencilSpec(Frozen):
    """A skew pencil described by canonical blocks in listed order.

    Each entry is ("M", m), ("E", (e, a)) or ("F", f).  The minimal
    indices are the M parameters; (a, e) pairs are the finite elementary
    divisors and the F parameters the infinite ones.
    """
    blocks: Tuple[Tuple[str, object], ...]

    def __post_init__(self):
        # the algebra has the side plus at most two basis vectors; a
        # negative size, which the builder rejects, and an unknown kind,
        # which it names, count as zero
        try:
            side = sum(max(2 * int(p[0] if k == "E" else p)
                           + sum(_BLOCKS[k][2][:2]), 0)
                       for k, p in self.blocks if k in _BLOCKS)
        except (TypeError, ValueError):
            raise ValueError("bad pencil block list") from None
        if side + 2 > _MAX_DIM:
            raise ValueError("pencil too large: its algebra may have more "
                             "than %d basis vectors" % _MAX_DIM)

    @property
    def minimal_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(p for k, p in self.blocks if k == "M"))

    @property
    def finite_divisors(self) -> Tuple[Tuple[Fraction, int], ...]:
        return tuple((a, e) for k, (e, a) in
                     ((k, p) for k, p in self.blocks if k == "E"))

    @property
    def infinite_divisors(self) -> Tuple[int, ...]:
        return tuple(p for k, p in self.blocks if k == "F")

    @classmethod
    def parse(cls, text: str) -> "PencilSpec":
        """Parse a compact block list like "M:1,F:2,E:1:a=0"."""
        blocks = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            parts = token.split(":")
            kind = parts[0].strip().upper()
            if kind not in ("M", "E", "F") or len(parts) < 2:
                raise ValueError("bad pencil block %r" % token)
            try:
                size = int(parts[1])
            except ValueError:
                raise ValueError("bad block size in %r" % token) from None
            if kind == "E":
                a = Fraction(0)
                if len(parts) == 3:
                    tail = parts[2].strip()
                    # the .alg numeral only: Fraction also takes 1e999999999
                    if not (tail.startswith("a=")
                            and _NUMERAL_RE.fullmatch(tail[2:])):
                        raise ValueError("bad E parameter in %r" % token)
                    try:
                        a = Fraction(tail[2:])
                    except (ValueError, ZeroDivisionError):
                        raise ValueError(
                            "bad E parameter in %r" % token) from None
                elif len(parts) > 3:
                    raise ValueError("bad pencil block %r" % token)
                blocks.append(("E", (size, a)))
            else:
                if len(parts) != 2:
                    raise ValueError("bad pencil block %r" % token)
                blocks.append((kind, size))
        if not blocks:
            raise ValueError("empty pencil specification")
        return cls(blocks=tuple(blocks))

    def block_tag(self, index: int) -> str:
        kind, param = self.blocks[index]
        if kind == "E":
            e, a = param
            tag = "E%d" % e
            if a != 0:
                tag += "a" + str(a).replace("/", "_").replace("-", "m")
            return tag
        return "%s%d" % (kind, param)


def assemble_pencil(spec: PencilSpec) -> Tuple[Tuple[Matrix, Matrix], List[str]]:
    """Block-diagonal (B1, B2) for a block list, plus generator labels
    tagged with the block each coordinate comes from."""
    templates = []
    tags: List[str] = []
    for idx, (kind, param) in enumerate(spec.blocks):
        mu, lam = _template(kind, param)
        templates.append((mu, lam))
        tags += [spec.block_tag(idx)] * (len(mu) + len(mu[0]))
    if spec.minimal_indices and spec.minimal_indices[0] == 0:
        warnings.warn("minimal index 0 present; the pencil is degenerate",
                      stacklevel=2)
    labels = ["X%d_%s" % (i + 1, tag) for i, tag in enumerate(tags)]
    return _pencil_pair(templates), labels


def algebra_from_pencil_spec(spec: Union[PencilSpec, str],
                             name: Optional[str] = None) -> GNLA:
    """Assemble the blocks and build the metabelian algebra.

    A dependent or zero matrix in the assembled pair (an all-F or all-E
    pencil makes one of them degenerate) is dropped before building, so
    the degree -2 dimension always matches the actual span.
    """
    if isinstance(spec, str):
        spec = PencilSpec.parse(spec)
    elif not isinstance(spec, PencilSpec):
        raise ValueError('pencil blocks must be a PencilSpec or a block '
                         'list like "M:1,F:2", not %r' % (spec,))
    (b1, b2), labels = assemble_pencil(spec)
    mats = [(b1, b2)[i]
            for i in independent_rows([b1.flatten(), b2.flatten()])]
    if not mats:
        raise ValueError("pencil spans the zero space")
    if name is None:
        name = "pencil_" + "_".join(spec.block_tag(i)
                                    for i in range(len(spec.blocks)))
    return metabelian_from_pencil(mats, x_labels=labels, name=name)


def pfaffian(b: Matrix) -> Fraction:
    """Pfaffian of a skew matrix; zero for odd side, Pf^2 = det.

    The matrix is scaled once to integers over the lcm d of its
    denominators, and Pf(dB) = d^(side/2) Pf(B) is read off _pfaffian.
    """
    if b.nrows != b.ncols or not b.is_skew():
        raise NotSkew("pfaffian needs a skew-symmetric matrix")
    d = lcm(*(x.denominator for row in b.rows for x in row))
    rows = [[x.numerator * (d // x.denominator) for x in row]
            for row in b.rows]
    return Fraction(_pfaffian(rows), d ** (b.nrows // 2))


def _pfaffian(rows: List[List[int]]) -> int:
    """Pfaffian of a skew matrix given as dense integer rows, which it
    owns; zero for odd side.

    Fraction-free skew elimination on 2x2 blocks, O(side^3), the skew
    analogue of Bareiss: with p = A[0][1] != 0 and q the pivot of the
    step before (1 at the first), the trailing block becomes
    (p C + b1^t b0 - b0^t b1) / q, b0 and b1 rows 0 and 1 beyond column
    1.  Each new entry is the sub-pfaffian of the original rows on the
    pivot indices so far and its own two, so the division is exact and
    the last pivot is the pfaffian.  A swap of the indices 1 and j, rows
    and columns alike, changes the sign; a zero row 0 makes it zero.
    """
    a = rows
    if len(a) % 2:
        return 0
    sign, prev = 1, 1
    while a:
        r0 = a[0]
        j = next((j for j in range(1, len(a)) if r0[j]), None)
        if j is None:
            return 0
        if j != 1:
            for r in a:
                r[1], r[j] = r[j], r[1]
            a[1], a[j] = a[j], a[1]
            sign = -sign
        p = r0[1]
        if len(a) == 2:
            return sign * p
        b0, b1 = r0[2:], a[1][2:]
        trailing = []
        for r, x0, x1 in zip(a[2:], b0, b1):
            if x0 or x1:
                row = [p * c + x1 * y0 - x0 * y1
                       for c, y0, y1 in zip(r[2:], b0, b1)]
            else:
                row = [p * c for c in r[2:]]
            if prev != 1:
                row = [v // prev for v in row]
            trailing.append(row)
        a, prev = trailing, p
    return sign


class PencilForm(Frozen):
    """det(l1 B1 + l2 B2) as a homogeneous binary form.

    coefficients[k] multiplies l1^(side-k) l2^k.  rational_roots lists
    the projective zeros found over the rationals, each normalized to
    (1, t) or (0, 1); the list is not exhaustive when the form has only
    irrational factors.
    """
    side: int
    coefficients: Tuple[Fraction, ...]
    identically_zero: bool
    rational_roots: Tuple[Tuple[Fraction, Fraction], ...]


def _interpolated(values: Sequence) -> Tuple[Fraction, ...]:
    """The coefficients, constant term first, of the polynomial of degree
    below len(values) that takes values[t] at t = 0, 1, ...

    Newton's forward differences on integers: over the lcm d of the
    values' denominators the differences D_k of d values are integers,
    and with L = (m - 1)!, L d p(t) = sum_k D_k (L / k!) t (t - 1) ...
    (t - k + 1) expands, Horner-style from the top, to integer monomial
    coefficients, each made a Fraction over L d once.
    """
    m = len(values)
    if not m:
        return ()
    values = [frac(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    diffs = [v.numerator * (d // v.denominator) for v in values]
    newton = []
    for k in range(m):
        newton.append(diffs[0])
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    big_l = factorial(m - 1)
    # q_k = D_k L / k! + (t - k) q_{k+1}, from k = m - 1 down to 0
    poly: List[int] = []
    for k in reversed(range(m)):
        shifted = [0] + poly
        for i, c in enumerate(poly):
            shifted[i] -= k * c
        shifted[0] += newton[k] * (big_l // factorial(k))
        poly = shifted
    den = big_l * d
    return tuple(Fraction(c, den) for c in poly)


def _poly_divmod(f: Sequence, g: Sequence):
    """Quotient and remainder of coefficient lists, constant term first,
    as Fractions; g has a nonzero last entry and the remainder no
    trailing zeros."""
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


def _poly_gcd(f: Sequence, g: Sequence) -> Sequence:
    """A greatest common divisor of coefficient lists, constant term
    first and without trailing zeros, f nonzero: the last nonzero
    Euclidean remainder."""
    while g:
        f, g = g, _poly_divmod(f, g)[1]
    return f


def _poly_value(f: Sequence, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(f):
        out = out * x + c
    return out


def _sign_changes(seq: Sequence[Sequence], x: Fraction) -> int:
    signs = [v > 0 for v in (_poly_value(f, x) for f in seq) if v]
    return sum(1 for u, w in zip(signs, signs[1:]) if u != w)


def _rational_roots(coeffs: Sequence) -> List[Fraction]:
    """The distinct rational roots, increasing, of the nonzero polynomial
    sum coeffs[k] t^k with rational coefficients, found without
    factoring an integer.

    A root 0 is read off the low coefficients, and the rest is scaled to
    a primitive integer polynomial.  Up to degree 2 the roots come from
    math.isqrt of the discriminant.  Past it, the real roots of the
    squarefree part f are isolated exactly by a Sturm sequence, and each
    isolating interval is bisected below width 1/(2 lc^2), lc the
    leading coefficient of f.  A rational root p/q of f has q | lc, and
    two fractions with denominators at most |lc| lie 1/lc^2 apart or
    more, so limit_denominator(|lc|) of the midpoint is the only
    candidate and one exact evaluation decides it.
    """
    f = [Fraction(c) for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        raise ValueError("the zero polynomial vanishes everywhere")
    low = next(k for k, c in enumerate(f) if c)
    roots = [Fraction(0)] if low else []
    f = f[low:]
    if len(f) > 3:
        # divide out gcd(f, f')
        derivative = [k * c for k, c in enumerate(f)][1:]
        f = _poly_divmod(f, _poly_gcd(f, derivative))[0]
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
        roots += _isolated_rational_roots(f)
    return sorted(set(roots))


def _isolated_rational_roots(f: List[int]) -> List[Fraction]:
    """The rational roots of a squarefree integer polynomial of degree 3
    or more, by Sturm isolation and bisection (see _rational_roots)."""
    seq = [f, [k * c for k, c in enumerate(f)][1:]]
    while True:
        r = _poly_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append([-c for c in r])
    lc = abs(f[-1])
    # Cauchy: every root lies strictly inside (-bound, bound)
    bound = Fraction(2 + max(abs(c) for c in f[:-1]) // lc)
    width = Fraction(1, 2 * lc * lc)
    roots = []
    # (lo, hi, changes at lo, changes at hi): the interval (lo, hi] holds
    # exactly changes(lo) - changes(hi) distinct roots
    todo = [(-bound, bound, _sign_changes(seq, -bound),
             _sign_changes(seq, bound))]
    while todo:
        lo, hi, vlo, vhi = todo.pop()
        if vlo == vhi:
            continue
        mid = (lo + hi) / 2
        if vlo - vhi == 1 and hi - lo < width:
            x = mid.limit_denominator(lc)
            if _poly_value(f, x) == 0:
                roots.append(x)
            continue
        vmid = _sign_changes(seq, mid)
        todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return roots


def det_pencil(b1: Matrix, b2: Matrix) -> PencilForm:
    """Exact coefficients of det(l1 B1 + l2 B2) plus its rational roots.

    The form is recovered by interpolation at l1 = 1, l2 = 0..n, from
    integer determinants and integer differences; roots come from
    _rational_roots of the dehomogenized polynomial, with (0, 1)
    appended when l1 divides the form.
    """
    n = b1.nrows
    if (b1.nrows, b1.ncols) != (b2.nrows, b2.ncols) or b1.nrows != b1.ncols:
        raise ValueError("pencil matrices must be square of one side")
    # over one common denominator den, det(B1 + t B2) is
    # det(P + t Q) / den^n for the integer matrices P = den B1, Q = den B2
    den = lcm(*(x.denominator for m in (b1, b2) for row in m.rows
                for x in row))
    int1, int2 = ([[x.numerator * (den // x.denominator) for x in row]
                   for row in m.rows] for m in (b1, b2))
    dets = [_det([[x + t * y for x, y in zip(r1, r2)]
                  for r1, r2 in zip(int1, int2)]) / den ** n
            for t in range(n + 1)]
    coeffs = _interpolated(dets)
    if all(c == 0 for c in coeffs):
        return PencilForm(side=n, coefficients=coeffs,
                          identically_zero=True, rational_roots=())
    roots = [(Fraction(1), t) for t in _rational_roots(coeffs)]
    if coeffs[-1] == 0:
        roots.append((Fraction(0), Fraction(1)))
    return PencilForm(side=n, coefficients=coeffs,
                      identically_zero=False, rational_roots=tuple(roots))


# ---------------------------------------------------------------------------
# Catalog


def _goursat(n: int) -> GNLA:
    if n < 2:
        raise ValueError("goursat needs n >= 2")
    basis = [("X", -1), ("Z1", -1)]
    basis += [("Z%d" % i, -i) for i in range(2, n)]
    brackets = {(0, i): [(i + 1, 1)] for i in range(1, n - 1)}
    return GNLA("goursat%d" % n, basis, brackets)


def _heisenberg(dim: int) -> GNLA:
    if dim < 3 or dim % 2 == 0:
        raise ValueError("heisenberg needs an odd dimension >= 3")
    n = (dim - 1) // 2
    if n == 1:
        return GNLA("heisenberg3",
                    [("X", -1), ("Y", -1), ("Z", -2)],
                    {(0, 1): [(2, 1)]})
    basis = [("X%d" % (i + 1), -1) for i in range(n)]
    basis += [("Y%d" % (i + 1), -1) for i in range(n)]
    basis += [("Z", -2)]
    brackets = {(i, n + i): [(2 * n, 1)] for i in range(n)}
    return GNLA("heisenberg%d" % dim, basis, brackets)


def _mixedjet(k: int) -> GNLA:
    if k < 2:
        raise ValueError("mixedjet needs k >= 2")
    basis = [("X", -1), ("Z1", -1), ("Z2", -2)]
    basis += [("Y%d" % i, -i) for i in range(1, k + 1)]
    brackets = {(0, 1): [(2, 1)]}
    for i in range(1, k):
        brackets[(0, 2 + i)] = [(3 + i, 1)]
    return GNLA("mixedjet%d" % k, basis, brackets)


def _nontrivial6() -> GNLA:
    basis = [("X", -1), ("Z1", -1), ("Y1", -1),
             ("Z2", -2), ("Y2", -2), ("Y3", -3)]
    brackets = {
        (0, 2): [(4, 1)],   # [X, Y1] = Y2
        (0, 4): [(5, 1)],   # [X, Y2] = Y3
        (0, 1): [(3, 1)],   # [X, Z1] = Z2
        (1, 3): [(5, 1)],   # [Z1, Z2] = Y3
    }
    return GNLA("nontrivial6", basis, brackets)


def _free2step3() -> GNLA:
    basis = [("X1", -1), ("X2", -1), ("X3", -1),
             ("X12", -2), ("X13", -2), ("X23", -2)]
    brackets = {(0, 1): [(3, 1)], (0, 2): [(4, 1)], (1, 2): [(5, 1)]}
    return GNLA("free2step3", basis, brackets)


def _kgen(k: int) -> GNLA:
    if k < 3:
        raise ValueError("kgen needs k >= 3")
    basis = [("X%d" % (i + 1), -1) for i in range(k)]
    basis += [("Y1", -2), ("Y2", -2), ("Y3", -2)]
    brackets = {}
    for i in range(k):
        for j in range(i + 1, k):
            tot = (i + 1) + (j + 1)
            if tot == k + 1:
                brackets[(i, j)] = [(k, 1)]
            elif tot == k:
                brackets[(i, j)] = [(k + 1, 1)]
            elif tot == k + 2:
                brackets[(i, j)] = [(k + 2, 1)]
    return GNLA("kgen%d" % k, basis, brackets)


# family: (builder, its parameter or None, and for an integer parameter
# the basis size minus it; None where the builder bounds its own size)
_FAMILIES = {
    "goursat": (_goursat, "n", 0),
    "heisenberg": (_heisenberg, "dim", 0),
    "mixedjet": (_mixedjet, "k", 3),
    "nontrivial6": (_nontrivial6, None, None),
    "free2step3": (_free2step3, None, None),
    "kgen": (_kgen, "k", 3),
    "from_pencil": (algebra_from_pencil_spec, "blocks", None),
}

CATALOG_NAMES = tuple(_FAMILIES)


def catalog(name: str, **params) -> GNLA:
    """Named example algebras.

    goursat (n >= 2), heisenberg (odd dim >= 3), mixedjet (k >= 2),
    nontrivial6, free2step3, kgen (k >= 3), and from_pencil with a
    blocks specification (a PencilSpec or a string like "M:1,F:2").
    _FAMILIES types each value, so text is enough, as the CLI passes
    it: a sized family reads its size with int(), and a value that is no
    integer is a ValueError naming the family and the parameter.
    """
    if name not in _FAMILIES:
        raise ValueError("unknown catalog name %r" % name)
    build, key, extra = _FAMILIES[name]
    unexpected = set(params) - {key}
    if unexpected:
        raise ValueError("unexpected parameters %s for %s"
                         % (sorted(unexpected), name))
    if key is None:
        return build()
    if key not in params:
        raise ValueError("missing parameter %r for %s" % (key, name))
    value = params[key]
    if extra is not None:
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise ValueError("%s: %s must be an integer"
                             % (name, key)) from None
        if value + extra > _MAX_DIM:
            raise ValueError("%s: %s too large, more than %d basis vectors"
                             % (name, key, _MAX_DIM))
    return build(value)
