"""Constructions: special extensions, degree 0 cohomology, skew pencils.

A special extension glues a commutative graded ideal V with
one-dimensional layers onto a base algebra n; the brackets escaping the
base are a degree 0 two-cocycle, and inequivalent extensions are
classified by the degree 0 part of H^2(n, V).  Skew matrix pencils give
the metabelian (2-step) examples; the canonical blocks below assemble
any such pencil from minimal indices and elementary divisors.  The
module ends with a catalog of named algebras used throughout the tests
and the CLI.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import GNLA, change_basis, layer, validate
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _kernel,
    _rref,
    frac,
    independent_rows,
    is_zero_vector,
    kernel_basis,
    solve,
    unit_vector,
    vector,
    zero_vector,
)
from .prolongation import MatrixSubspace


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


@dataclass(frozen=True)
class Cochain2:
    """An alternating 2-cochain with values in the graded module V.

    values maps a basis pair (i, j) with i < j of the base algebra to a
    length-s coefficient tuple over the module basis Y_1..Y_s; missing
    pairs are zero.  Only storage and sign bookkeeping live here.
    """
    s: int
    degree: int
    values: Tuple[Tuple[Tuple[int, int], Vector], ...]

    @classmethod
    def from_dict(cls, s: int, mapping, degree: int = 0) -> "Cochain2":
        items = []
        for (i, j), val in sorted(mapping.items()):
            if i >= j:
                raise ValueError("cochain keys must satisfy i < j")
            val = vector(val)
            if len(val) != s:
                raise ValueError("cochain value length must equal s")
            if not is_zero_vector(val):
                items.append(((i, j), val))
        return cls(s=s, degree=degree, values=tuple(items))

    @classmethod
    def zero(cls, s: int) -> "Cochain2":
        return cls(s=s, degree=0, values=())

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
    on the transversal, as a full coordinate vector."""
    pos1 = base.layer_positions(1)
    rows = [base.layer_coordinates(1, b) for b in w.basis]
    rows.append(base.layer_coordinates(1, x_vec))
    rhs = [Fraction(0)] * w.dim + [Fraction(1)]
    xi = solve(Matrix(rows), rhs)
    if xi is None:
        raise ValueError("transversal lies in the hyperplane")
    alpha = [Fraction(0)] * base.dim
    for idx, p in enumerate(pos1):
        alpha[p] = xi[idx]
    return tuple(alpha)


def _check_hyperplane(base: GNLA, w: Subspace) -> None:
    n1 = base.layer_dim(1)
    deg1 = layer(base, 1)
    if w.ambient_dim != base.dim:
        raise ValueError("hyperplane must live in the base coordinates")
    if any(not deg1.contains(b) for b in w.basis):
        raise ValueError("hyperplane must sit inside the degree -1 layer")
    if w.dim != n1 - 1:
        raise ValueError("hyperplane must have codimension 1 in degree -1")


def _default_transversal(base: GNLA, w: Subspace) -> Vector:
    for p in base.layer_positions(1):
        cand = base.basis_vector(p)
        if not w.contains(cand):
            return cand
    raise ValueError("no basis vector is transversal to the hyperplane")


def _degree0_complex(base: GNLA, w: Subspace, s: int,
                     x_vec: Optional[Vector] = None):
    """Slots and differentials of the degree 0 cochain complex.

    The module V has basis Y_1..Y_s with Y_j in degree -j; the degree -1
    part of the base acts through the covector alpha by the shift
    Y_j -> Y_{j+1} (zero past s), everything else acts by zero.  A
    degree 0 q-cochain assigns to a basis tuple of total degree -k a
    multiple of Y_k, so each slot carries one rational coefficient.

    Returns (c1, c2, image, d2): the 1- and 2-cochain slots, image[i]
    the coboundary of the unit 1-cochain on slot c1[i] as a sparse
    {c2 slot: value} row, and d2 as the nonzero sparse rows of its
    matrix over the c2 slots.
    """
    _check_hyperplane(base, w)
    if x_vec is None:
        x_vec = _default_transversal(base, w)
    alpha = _module_covector(base, w, x_vec)
    n = base.dim
    deg = base.degrees

    c1 = [p for p in range(n) if -deg[p] <= s]
    c2 = [(p, q) for p in range(n) for q in range(p + 1, n)
          if -(deg[p] + deg[q]) <= s]
    c1_index = {p: i for i, p in enumerate(c1)}
    c2_index = {pq: i for i, pq in enumerate(c2)}

    # (d1 f)(e_p, e_q) = alpha(e_p) f(e_q) - alpha(e_q) f(e_p)
    # - f([e_p, e_q])
    image: List[Dict[int, Fraction]] = [{} for _ in c1]
    for idx, (p, q) in enumerate(c2):
        if alpha[p] != 0:
            image[c1_index[q]][idx] = alpha[p]
        if alpha[q] != 0:
            image[c1_index[p]][idx] = -alpha[q]
        for t, c in base.bracket_terms(p, q):
            if t in c1_index:
                row = image[c1_index[t]]
                row[idx] = row.get(idx, 0) - c

    def add_pair(row: Dict[int, Fraction], u: int, v: int, coeff: Fraction):
        if coeff == 0 or u == v:
            return
        if u > v:
            u, v = v, u
            coeff = -coeff
        idx = c2_index.get((u, v))
        if idx is not None:
            row[idx] = row.get(idx, 0) + coeff

    d2: List[Dict[int, Fraction]] = []
    for p in range(n):
        for q in range(p + 1, n):
            for r in range(q + 1, n):
                if -(deg[p] + deg[q] + deg[r]) > s:
                    continue
                row: Dict[int, Fraction] = {}
                add_pair(row, q, r, alpha[p])
                add_pair(row, p, r, -alpha[q])
                add_pair(row, p, q, alpha[r])
                for t, c in base.bracket_terms(p, q):
                    add_pair(row, t, r, -c)
                for t, c in base.bracket_terms(p, r):
                    add_pair(row, t, q, c)
                for t, c in base.bracket_terms(q, r):
                    add_pair(row, t, p, -c)
                if any(row.values()):
                    d2.append(row)

    return c1, c2, image, d2


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
        if p >= base.dim or q >= base.dim:
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


def coboundary(base: GNLA, w: Subspace, s: int, f: Dict[int, object],
               x_vec: Optional[Vector] = None) -> Cochain2:
    """The 2-cocycle d1 f of a degree 0 1-cochain.

    f maps a basis position p to the coefficient of f(e_p) over the
    module vector in degree deg(e_p); positions too deep for the module
    are rejected.  Useful for building extensions that are guaranteed
    trivial up to the recorded basis change.
    """
    c1, c2, image, _ = _degree0_complex(base, w, s, x_vec)
    c1_index = {p: i for i, p in enumerate(c1)}
    coeffs = [Fraction(0)] * len(c2)
    for p, c in f.items():
        if p not in c1_index:
            raise ValueError("position %d is too deep for the module" % p)
        c = frac(c)
        for idx, v in image[c1_index[p]].items():
            coeffs[idx] += c * v
    return _cochain_from_slots(base, s, c2, coeffs)


@dataclass(frozen=True)
class ExtensionData:
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
        rep = validate(self.base)
        if not rep.structural_ok:
            raise ValueError("base algebra does not validate: %r"
                             % (rep.failures[:3],))
        _check_hyperplane(self.base, self.covector_kernel)
        x = vector(self.transversal)
        if len(x) != self.base.dim:
            raise ValueError("transversal has the wrong length")
        if not layer(self.base, 1).contains(x):
            raise ValueError("transversal must have degree -1")
        if self.covector_kernel.contains(x):
            raise ValueError("transversal lies in the hyperplane")
        object.__setattr__(self, "transversal", x)
        if self.s < 2:
            raise ValueError("module length s must be at least 2")
        if self.cocycle.s != self.s:
            raise ValueError("cocycle length does not match s")

    @classmethod
    def from_adapted_base(cls, base: GNLA, s: int,
                          cocycle: Optional[Cochain2] = None) -> "ExtensionData":
        """Convention used by the CLI and the decomposition round trip:
        the transversal is the first degree -1 basis vector and W is the
        span of the remaining ones."""
        pos1 = base.layer_positions(1)
        if not pos1:
            raise ValueError("base has no degree -1 layer")
        x = base.basis_vector(pos1[0])
        w = Subspace(base.dim, [base.basis_vector(p) for p in pos1[1:]])
        return cls(base=base, covector_kernel=w, transversal=x, s=s,
                   cocycle=cocycle if cocycle is not None else Cochain2.zero(s))

    def canonicalized(self) -> "ExtensionData":
        """Reduce the cocycle modulo coboundaries.

        The result builds an isomorphic extension: subtracting d1 f
        amounts to moving each base lift u to u + f(u).  The reduction
        eliminates the coefficients on the pivot slots of the coboundary
        space, which absorbs every removable constant.
        """
        _, c2, image, _ = _degree0_complex(
            self.base, self.covector_kernel, self.s, self.transversal)
        vec = _cocycle_slot_vector(self.base, self.s, self.cocycle, c2)
        basis, pivots = _rref(image, len(c2))
        for b, pivot in zip(basis, pivots):
            factor = vec[pivot]
            if factor != 0:
                vec = [v - factor * c for v, c in zip(vec, b)]
        # only the cocycle changes, at the same s: a copy, not re-checked
        out = copy.copy(self)
        object.__setattr__(out, "cocycle",
                           _cochain_from_slots(self.base, self.s, c2, vec))
        return out


def special_extension(data: ExtensionData) -> GNLA:
    """Build the extension algebra on the basis X, Y_1..Y_s, Z_1..Z_r.

    X is the transversal, the Y_i span the attached commutative ideal
    with deg Y_i = -i, and the Z_j run through the remaining base basis
    (the RREF basis of the hyperplane, then the deeper layers).  The
    extension is first written in the base coordinates followed by
    Y_1..Y_s: a base bracket of degree -k picks up the cocycle's value
    on Y_k, and e_p acts on the module by alpha(e_p) times the shift
    Y_i -> Y_{i+1}, alpha the covector with kernel W and alpha(X) = 1.
    change_basis then moves it to the adapted basis, so [X, Y_i] =
    Y_{i+1} and the Y_i commute with each other and with every Z_j.
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
    c2 = [(p, q) for p in range(n) for q in range(p + 1, n)
          if -(deg[p] + deg[q]) <= s]
    slots = _cocycle_slot_vector(base, s, data.cocycle, c2)

    # base positions, then Y_1..Y_s at n..n+s-1; labels need only differ
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
    rep = validate(out)
    if not rep.checks["jacobi"]:
        triple = next(wit for kind, wit in rep.failures if kind == "jacobi")
        raise JacobiViolation(triple)
    return out


def h2_0(base: GNLA, w: Subspace, s: int) -> Tuple[int, List[Cochain2]]:
    """Degree 0 second cohomology of the base with values in the shift
    module of length s.

    Returns its dimension together with representative cocycles spanning
    a complement of the coboundaries inside the cocycles: the kernel
    basis vectors of d2 outside the span of the coboundaries and of the
    kernel vectors before them, read off one forward elimination.  The
    dimension counts the essentially different special extensions for
    this (W, s).
    """
    if s < 2:
        raise ValueError("module length s must be at least 2")
    _, c2, image, d2 = _degree0_complex(base, w, s)
    if not c2:
        return 0, []
    kernel = _kernel(d2, len(c2))
    picked = independent_rows(image + list(kernel.basis))
    if len(picked) != kernel.dim:
        raise AssertionError("d2 d1 != 0: coboundaries and cocycles span "
                             "%d > %d dimensions" % (len(picked), kernel.dim))
    reps = [_cochain_from_slots(base, s, c2, kernel.basis[i - len(image)])
            for i in picked if i >= len(image)]
    return len(reps), reps


# ---------------------------------------------------------------------------
# Skew pencils


def _skew_embed(q_rows: List[List[Fraction]], p: int, q: int) -> Matrix:
    side = p + q
    rows = [[Fraction(0)] * side for _ in range(side)]
    for i in range(p):
        for j in range(q):
            c = q_rows[i][j]
            if c != 0:
                rows[i][p + j] = c
                rows[p + j][i] = -c
    return Matrix(rows)


def pencil_block(kind: str, param) -> Tuple[Matrix, Matrix]:
    """One canonical skew pencil block as a matrix pair (B1, B2).

    B1 collects the mu-coefficients and B2 the lambda-coefficients of
    the rectangular template: kind "M" takes an integer m >= 0 and gives
    a (2m+1)-sided pair, "E" takes (e, a) with e >= 1, "F" takes an
    integer f >= 1; E and F have side 2e and 2f.
    """
    if kind == "M":
        m = int(param)
        if m < 0:
            raise ValueError("M block needs m >= 0")
        p, q = m + 1, m
        mu = [[Fraction(1) if i + j == m else Fraction(0)
               for j in range(q)] for i in range(p)]
        lam = [[Fraction(1) if i + j == m - 1 else Fraction(0)
                for j in range(q)] for i in range(p)]
        return _skew_embed(mu, p, q), _skew_embed(lam, p, q)
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
        return _skew_embed(mu, e, e), _skew_embed(lam, e, e)
    if kind == "F":
        f = int(param)
        if f < 1:
            raise ValueError("F block needs f >= 1")
        mu = [[Fraction(1) if i + j == f else Fraction(0)
               for j in range(f)] for i in range(f)]
        lam = [[Fraction(1) if i + j == f - 1 else Fraction(0)
                for j in range(f)] for i in range(f)]
        return _skew_embed(mu, f, f), _skew_embed(lam, f, f)
    raise ValueError("unknown pencil block kind %r" % kind)


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
    flat = Subspace(side * side, [m.flatten() for m in mats])
    if flat.dim != t:
        raise NotGenerated("pencil matrices are linearly dependent")

    common = Subspace.full(side)
    for m in mats:
        common = common.intersect(kernel_basis(m))
    if common.dim > 0:
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


@dataclass(frozen=True)
class PencilSpec:
    """A skew pencil described by canonical blocks in listed order.

    Each entry is ("M", m), ("E", (e, a)) or ("F", f).  The minimal
    indices are the M parameters; (a, e) pairs are the finite elementary
    divisors and the F parameters the infinite ones.
    """
    blocks: Tuple[Tuple[str, object], ...]

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
                    if not tail.startswith("a="):
                        raise ValueError("bad E parameter in %r" % token)
                    a = Fraction(tail[2:])
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


def _block_diag(blocks: Sequence[Matrix]) -> Matrix:
    side = sum(b.nrows for b in blocks)
    rows = [[Fraction(0)] * side for _ in range(side)]
    off = 0
    for b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[off + i][off + j] = b[i, j]
        off += b.nrows
    return Matrix(rows)


def assemble_pencil(spec: PencilSpec) -> Tuple[Tuple[Matrix, Matrix], List[str]]:
    """Block-diagonal (B1, B2) for a block list, plus generator labels
    tagged with the block each coordinate comes from."""
    firsts = []
    seconds = []
    labels: List[str] = []
    counter = 0
    for idx, (kind, param) in enumerate(spec.blocks):
        b1, b2 = pencil_block(kind, param)
        firsts.append(b1)
        seconds.append(b2)
        tag = spec.block_tag(idx)
        for _ in range(b1.nrows):
            counter += 1
            labels.append("X%d_%s" % (counter, tag))
    if spec.minimal_indices and spec.minimal_indices[0] == 0:
        warnings.warn("minimal index 0 present; the pencil is degenerate",
                      stacklevel=2)
    return (_block_diag(firsts), _block_diag(seconds)), labels


def algebra_from_pencil_spec(spec: Union[PencilSpec, str],
                             name: Optional[str] = None) -> GNLA:
    """Assemble the blocks and build the metabelian algebra.

    A dependent or zero matrix in the assembled pair (an all-F or all-E
    pencil makes one of them degenerate) is dropped before building, so
    the degree -2 dimension always matches the actual span.
    """
    if isinstance(spec, str):
        spec = PencilSpec.parse(spec)
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

    Skew elimination on 2x2 blocks, O(side^3): with p = A[0][1] != 0,
    Pf(A) = p Pf(C + (b1^t b0 - b0^t b1) / p), where b0, b1 are rows 0
    and 1 beyond column 1 and C is the trailing block.  A swap of the
    indices 1 and j, rows and columns alike, changes the sign.
    """
    if b.nrows != b.ncols or not b.is_skew():
        raise NotSkew("pfaffian needs a skew-symmetric matrix")
    if b.nrows % 2 == 1:
        return Fraction(0)
    a = [list(r) for r in b.rows]
    pf = Fraction(1)
    while a:
        j = next((j for j in range(1, len(a)) if a[0][j] != 0), None)
        if j is None:
            return Fraction(0)
        if j != 1:
            for r in a:
                r[1], r[j] = r[j], r[1]
            a[1], a[j] = a[j], a[1]
            pf = -pf
        p = a[0][1]
        pf *= p
        b0, b1 = a[0][2:], a[1][2:]
        a = [[c + (b1[i] * b0[k] - b0[i] * b1[k]) / p
              for k, c in enumerate(r[2:])]
             for i, r in enumerate(a[2:])]
    return pf


@dataclass(frozen=True)
class PencilForm:
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


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def det_pencil(b1: Matrix, b2: Matrix) -> PencilForm:
    """Exact coefficients of det(l1 B1 + l2 B2) plus its rational roots.

    The form is recovered by interpolation at l1 = 1, l2 = 0..n, which
    stays in rational arithmetic throughout; roots come from the
    rational root theorem on the dehomogenized polynomial, with (0, 1)
    appended when l1 divides the form.
    """
    n = b1.nrows
    if (b1.nrows, b1.ncols) != (b2.nrows, b2.ncols) or b1.nrows != b1.ncols:
        raise ValueError("pencil matrices must be square of one side")
    dets = [(b1 + b2.scale(Fraction(t))).det() for t in range(n + 1)]
    vrows = [[Fraction(t) ** k for k in range(n + 1)] for t in range(n + 1)]
    coeffs = solve(Matrix(vrows), dets)
    if coeffs is None:
        raise AssertionError("interpolation system must be solvable")
    coeffs = tuple(coeffs)

    if all(c == 0 for c in coeffs):
        return PencilForm(side=n, coefficients=coeffs,
                          identically_zero=True, rational_roots=())

    v = min(k for k, c in enumerate(coeffs) if c != 0)
    w = max(k for k, c in enumerate(coeffs) if c != 0)
    finite: List[Fraction] = []
    if v > 0:
        finite.append(Fraction(0))
    if w > v:
        denom_lcm = 1
        for k in range(v, w + 1):
            d = coeffs[k].denominator
            denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
        ints = [int(coeffs[k] * denom_lcm) for k in range(v, w + 1)]
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                if gcd(p, q) != 1:
                    continue
                for t in (Fraction(p, q), Fraction(-p, q)):
                    if sum(c * t ** j for j, c in enumerate(ints)) == 0:
                        if t not in finite:
                            finite.append(t)
    roots = [(Fraction(1), t) for t in sorted(finite)]
    if w < n:
        roots.append((Fraction(0), Fraction(1)))
    return PencilForm(side=n, coefficients=coeffs,
                      identically_zero=False, rational_roots=tuple(roots))


def p_y_subspace(p_space: MatrixSubspace, y: Sequence) -> Tuple[MatrixSubspace, int]:
    """The subspace of pencil forms annihilated by a vector, with its
    codimension: { B in P : i_y B = 0 } and dim P - dim P_y.

    The codimension equals the rank of ad y in the metabelian algebra
    built from any basis of P.
    """
    y = vector(y)
    side = p_space.side
    if len(y) != side:
        raise ValueError("vector length must equal the pencil side")
    if p_space.dim == 0:
        return p_space, 0
    cols = [m.apply(y) for m in p_space.basis]
    rows = [[cols[k][r] for k in range(p_space.dim)] for r in range(side)]
    coeff_kernel = kernel_basis(Matrix(rows))
    mats = []
    for c in coeff_kernel.basis:
        m = Matrix.zero(side, side)
        for ck, bk in zip(c, p_space.basis):
            if ck != 0:
                m = m + bk.scale(ck)
        mats.append(m)
    sub = MatrixSubspace.from_matrices(side, mats)
    return sub, p_space.dim - sub.dim


@dataclass(frozen=True)
class ElementaryH0:
    """Closed form data for h0 of an elementary pencil block."""
    kind: str
    param: int
    side: int
    dim: int
    description: str
    rank1_element: Matrix


def h0_elementary(kind: str, param: int) -> ElementaryH0:
    """Closed-form h0 dimension for an elementary block, with an
    explicit rank 1 element inside it.

    For "M" with parameter m the space is x on the first m+1 diagonal
    entries, -x on the last m, plus a full (m+1) x m Toeplitz corner:
    dimension 2m+1.  For "F" with parameter r it is three r x r upper
    triangular Toeplitz blocks: dimension 3r.  E blocks reduce to F by a
    linear change of the pencil parameters and are rejected here.  In
    both cases the top-right matrix unit is a rank 1 nilpotent element,
    which is what makes these algebras infinite type.
    """
    param = int(param)
    if kind == "M":
        if param < 1:
            raise ValueError("M closed form needs m >= 1")
        m = param
        side = 2 * m + 1
        e = Matrix([[Fraction(1) if (i, j) == (0, side - 1) else Fraction(0)
                     for j in range(side)] for i in range(side)])
        return ElementaryH0(
            kind="M", param=m, side=side, dim=2 * m + 1,
            description="scalar x on the diagonal blocks (x, -x) plus a "
                        "(m+1) x m Toeplitz corner",
            rank1_element=e)
    if kind == "F":
        if param < 1:
            raise ValueError("F closed form needs r >= 1")
        r = param
        side = 2 * r
        e = Matrix([[Fraction(1) if (i, j) == (0, side - 1) else Fraction(0)
                     for j in range(side)] for i in range(side)])
        return ElementaryH0(
            kind="F", param=r, side=side, dim=3 * r,
            description="three r x r upper triangular Toeplitz blocks",
            rank1_element=e)
    raise ValueError("closed forms cover kinds M and F only")


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


def catalog(name: str, **params) -> GNLA:
    """Named example algebras.

    goursat (n >= 2), heisenberg (odd dim >= 3), mixedjet (k >= 2),
    nontrivial6, free2step3, kgen (k >= 3), and from_pencil with a
    blocks specification (a PencilSpec or a string like "M:1,F:2").
    """
    def want(*keys):
        extra = set(params) - set(keys)
        if extra:
            raise ValueError("unexpected parameters %s for %s"
                             % (sorted(extra), name))
        missing = [k for k in keys if k not in params]
        if missing:
            raise ValueError("missing parameter %r for %s"
                             % (missing[0], name))

    if name == "goursat":
        want("n")
        return _goursat(int(params["n"]))
    if name == "heisenberg":
        want("dim")
        return _heisenberg(int(params["dim"]))
    if name == "mixedjet":
        want("k")
        return _mixedjet(int(params["k"]))
    if name == "nontrivial6":
        want()
        return _nontrivial6()
    if name == "free2step3":
        want()
        return _free2step3()
    if name == "kgen":
        want("k")
        return _kgen(int(params["k"]))
    if name == "from_pencil":
        want("blocks")
        return algebra_from_pencil_spec(params["blocks"])
    raise ValueError("unknown catalog name %r" % name)


CATALOG_NAMES = ("goursat", "heisenberg", "mixedjet", "nontrivial6",
                 "free2step3", "kgen", "from_pencil")
