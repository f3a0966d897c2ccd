"""Tanaka prolongation layers by exact linear solves.

A degree k >= 0 layer element is a graded map phi sending the degree -i
part of the algebra into the layer of degree k - i (a negative target
degree lands back in the algebra itself, a non-negative one in a
previously computed layer).  The defining constraint is the Leibniz
identity phi([x,y]) = [phi(x), y] + [x, phi(y)] over all basis pairs,
where a bracket whose left slot sits in a non-negative layer is map
application.  Each layer is the kernel of one global linear system over
the flattened block entries, normalized to RREF so that dimensions and
bases are reproducible.  The system stays sparse from assembly to the
layer basis: its rows are {unknown: value} dicts, built from action
columns cached once per (degree, basis vector), and go straight into the
elimination core of linalg, which hands back the kernel's RREF rows as
their nonzero (unknown, value) entries.  Those rows are the stored form
of the layer's maps; a map's dense blocks are built only when read.  The
next degree's system reads only the layer's column view, for each
(block, source column) the flat list of its nonzero (map, row, value)
entries, derived from the same sparse rows.
h0 is the degree 0 system cut to the columns of its m_{-1} block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import GNLA, bracket
from .linalg import Matrix, Subspace, Vector, _kernel


class GradedMap:
    """A degree k graded map given by one matrix block per source layer.

    blocks[i] maps degree -i layer coordinates to coordinates of the
    target of degree k - i: layer coordinates of m for k - i < 0, basis
    coefficients of the already computed layer g_{k-i} otherwise.

    The stored form is the block shapes, (i, rows, columns) in increasing
    i, and the nonzero entries of the blocks flattened in that order,
    each block row-major, as (flat index, value) in increasing index;
    equality and hashing read it.  The blocks dict is built on first
    read.
    """

    __slots__ = ("degree", "_shapes", "_entries", "_blocks")

    def __init__(self, degree: int, blocks: Dict[int, Matrix]):
        ordered = sorted(blocks.items())
        flat = (e for _, b in ordered for row in b.rows for e in row)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_shapes", tuple(
            (i, b.nrows, b.ncols) for i, b in ordered))
        object.__setattr__(self, "_entries",
                           tuple((u, e) for u, e in enumerate(flat) if e))

    def __setattr__(self, name, value):
        raise AttributeError("GradedMap is immutable")

    def __reduce__(self):
        return GradedMap._trusted, (self.degree, self._shapes, self._entries)

    @classmethod
    def _trusted(cls, degree: int, shapes, entries) -> "GradedMap":
        """A map from its block shapes and nonzero flat entries, taken as
        is."""
        g = object.__new__(cls)
        object.__setattr__(g, "degree", degree)
        object.__setattr__(g, "_shapes", shapes)
        object.__setattr__(g, "_entries", entries)
        return g

    @property
    def blocks(self) -> Dict[int, Matrix]:
        """The dense blocks, built from the entries on first read."""
        try:
            return self._blocks
        except AttributeError:
            pass
        flat = [Fraction(0)] * sum(t * s for _, t, s in self._shapes)
        for u, e in self._entries:
            flat[u] = e
        blocks = {}
        off = 0
        for i, tgt, src in self._shapes:
            blocks[i] = _unflattened(flat[off:off + tgt * src], tgt, src)
            off += tgt * src
        object.__setattr__(self, "_blocks", blocks)
        return blocks

    def block(self, i: int) -> Optional[Matrix]:
        return self.blocks.get(i)

    def apply_to_layer(self, i: int, coords: Sequence) -> Vector:
        b = self.blocks.get(i)
        if b is None or b.nrows == 0:
            return ()
        return b.apply(coords)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and (self.degree, self._shapes, self._entries)
                == (other.degree, other._shapes, other._entries))

    def __hash__(self):
        return hash((self.degree, self._shapes, self._entries))

    def __repr__(self):
        return "GradedMap(degree=%r, blocks=%r)" % (self.degree, self.blocks)


@dataclass(frozen=True)
class ProlongationLayer:
    degree: int
    maps: Tuple[GradedMap, ...]

    @property
    def dim(self) -> int:
        return len(self.maps)

    @cached_property
    def _columns(self) -> Dict[Tuple[int, int], List]:
        """The column view: for each (block i, source column x), the
        nonzero entries of that column over all maps, as one flat list
        m, r, value, m, r, value, ... in (map, row) order, read off the
        maps' sparse entries on first read.  Not a field: equality, hash
        and repr read the maps alone."""
        cols: Dict[Tuple[int, int], List] = {}
        places = {}
        for m, psi in enumerate(self.maps):
            place = places.get(psi._shapes)
            if place is None:
                place = places[psi._shapes] = [
                    (i, r, x) for i, tgt, src in psi._shapes
                    for r in range(tgt) for x in range(src)]
            for u, v in psi._entries:
                i, r, x = place[u]
                cols.setdefault((i, x), []).extend((m, r, v))
        return cols


@dataclass(frozen=True)
class MatrixSubspace:
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


def _target_dim(a: GNLA, lower: Sequence[ProlongationLayer], degree: int) -> int:
    """Dimension of the graded piece of the prolongation at this degree."""
    if degree < 0:
        return a.layer_dim(-degree)
    if degree < len(lower):
        return lower[degree].dim
    raise ValueError("layer %d has not been computed yet" % degree)


def _block_shapes(a: GNLA, lower: Sequence[ProlongationLayer],
                  k: int) -> Tuple[Tuple[int, int, int], ...]:
    """(source layer i, target dim, source dim) with both dims positive."""
    shapes = []
    for i in range(1, a.depth + 1):
        src = a.layer_dim(i)
        tgt = _target_dim(a, lower, k - i)
        if src > 0 and tgt > 0:
            shapes.append((i, tgt, src))
    return tuple(shapes)


def apply_layer_element(a: GNLA, lower: Sequence[ProlongationLayer],
                        degree: int, coeffs: Sequence,
                        src_layer: int, src_coords: Sequence) -> Vector:
    """Evaluate an element of g_degree (coefficients over the layer basis)
    on an element of the degree -src_layer part of the algebra.

    Returns coordinates in the target of degree degree - src_layer.
    """
    tgt = _target_dim(a, lower, degree - src_layer)
    out = [Fraction(0)] * tgt
    layer_obj = lower[degree]
    for c, psi in zip(coeffs, layer_obj.maps):
        if c == 0:
            continue
        val = psi.apply_to_layer(src_layer, src_coords)
        for r, v in enumerate(val):
            out[r] += c * v
    return tuple(out)


def _leibniz_system(a: GNLA, k: int, lower: Sequence[ProlongationLayer]):
    """The degree k Leibniz system as (rows, block shapes, total).

    The total unknowns are the entries of all blocks of a candidate map,
    flattened block after block in the order of the shapes, each block
    row-major; each basis pair (e_p, e_q)
    contributes the rows of
    phi([e_p,e_q]) - [phi(e_p), e_q] - [e_p, phi(e_q)] = 0
    expressed in the target of degree k - deg_p - deg_q.  Each row is a
    sparse {unknown: value} dict; the three terms never write the same
    unknown of a row, since they read different blocks or columns.
    """
    n = a.dim
    mu = a.depth
    shapes = _block_shapes(a, lower, k)
    offsets = {}
    srcs = {}
    total = 0
    for i, tgt, src in shapes:
        offsets[i] = total
        srcs[i] = src
        total += tgt * src
    # the coordinate of each basis position within its layer
    index = {p: x for i in range(1, mu + 1)
             for x, p in enumerate(a.layer_positions(i))}

    def bracket_terms(p: int, q: int, t: int) -> List[Tuple[int, Fraction]]:
        """[e_p, e_q] as nonzero (coordinate, value) pairs in layer t."""
        return [(index[r], c) for r, c in a.bracket_terms(p, q)
                if a.degrees[r] == -t]

    # For [phi(e_p), e_q] with phi(e_p) in the graded piece of degree d,
    # the action on e_q is linear in the coordinates of phi(e_p).
    actions: Dict[Tuple[int, int], List] = {}

    def action(d: int, q: int) -> List:
        """The image of e_q under each coordinate direction m of the
        degree d piece, in the degree d - deg(e_q) target, as one flat
        list m, r, value, ... of its nonzero entries: bracket terms for
        d < 0, the column view of the layer g_d otherwise."""
        flat = actions.get((d, q))
        if flat is None:
            j = -a.degrees[q]
            if d < 0:
                flat = []
                for m, p in enumerate(a.layer_positions(-d)):
                    for r, c in bracket_terms(p, q, j - d):
                        flat += (m, r, c)
            else:
                flat = lower[d]._columns.get((j, index[q]), [])
            actions[d, q] = flat
        return flat

    rows: List[Dict[int, Fraction]] = []
    for p in range(n):
        i = -a.degrees[p]
        for q in range(p + 1, n):
            j = -a.degrees[q]
            tdeg = k - i - j
            if tdeg < 0 and -tdeg > mu:
                continue
            tdim = _target_dim(a, lower, tdeg)
            if tdim == 0:
                continue
            block: List[Dict[int, Fraction]] = [{} for _ in range(tdim)]

            # phi([e_p, e_q]) term
            if i + j in offsets:
                off, src = offsets[i + j], srcs[i + j]
                for c, w in bracket_terms(p, q, i + j):
                    for r in range(tdim):
                        block[r][off + r * src + c] = w

            # -[phi(e_p), e_q] term: phi(e_p) is the p-column of block i
            if i in offsets:
                off, src = offsets[i] + index[p], srcs[i]
                it = iter(action(k - i, q))
                for m, r, v in zip(it, it, it):
                    block[r][off + m * src] = -v

            # -[e_p, phi(e_q)] = +[phi(e_q), e_p] term
            if j in offsets:
                off, src = offsets[j] + index[q], srcs[j]
                it = iter(action(k - j, p))
                for m, r, v in zip(it, it, it):
                    block[r][off + m * src] = v

            if any(block):
                rows.extend(block)
    return rows, shapes, total


def prolong_layer(a: GNLA, k: int,
                  lower: Sequence[ProlongationLayer]) -> ProlongationLayer:
    """The degree k layer from the layers 0 .. k-1: its system's kernel.

    Each sparse kernel row is the stored form of one map, shared with
    the kernel; neither its blocks nor the kernel's dense basis is built
    here."""
    if k < 0:
        raise ValueError("prolongation layers start at degree 0")
    if len(lower) != k:
        raise ValueError("need exactly the layers 0 .. k-1")
    rows, shapes, total = _leibniz_system(a, k, lower)
    return ProlongationLayer(degree=k, maps=tuple(
        GradedMap._trusted(k, shapes, entries)
        for entries in _kernel(rows, total)._rows))


def leibniz_failures(a: GNLA, lower: Sequence[ProlongationLayer],
                     phi: GradedMap) -> List[Tuple[str, str]]:
    """Re-check the Leibniz identity of a computed map pair by pair.

    Evaluates both sides on concrete basis vectors, independently of the
    assembled solver system.  Returns the offending label pairs.
    """
    k = phi.degree
    bad = []
    mu = a.depth

    def phi_value(pos: int) -> Tuple[int, Vector]:
        i = -a.degrees[pos]
        idx = a.layer_positions(i).index(pos)
        b = phi.block(i)
        if b is None or b.nrows == 0:
            return k - i, ()
        return k - i, b.column(idx)

    def act(d: int, val: Vector, pos: int) -> Tuple[int, Vector]:
        """[value in degree d piece, e_pos]; returns (degree, coords)."""
        j = -a.degrees[pos]
        if d < 0:
            full = a.embed_layer(-d, val)
            out = bracket(a, full, a.basis_vector(pos))
            return d - j, a.layer_coordinates(j - d, out)
        return d - j, apply_layer_element(a, lower, d, val, j,
                                          a.layer_coordinates(
                                              j, a.basis_vector(pos)))

    for p in range(a.dim):
        i = -a.degrees[p]
        for q in range(p + 1, a.dim):
            j = -a.degrees[q]
            tdeg = k - i - j
            if tdeg < 0 and -tdeg > mu:
                continue
            tdim = _target_dim(a, lower, tdeg)
            lhs = [Fraction(0)] * tdim
            if i + j <= mu:
                w = a.layer_coordinates(i + j, a.pair_bracket(p, q))
                b = phi.block(i + j)
                if b is not None and b.nrows > 0 and any(c != 0 for c in w):
                    for r, v in enumerate(b.apply(w)):
                        lhs[r] = v
            rhs = [Fraction(0)] * tdim
            d1, val1 = phi_value(p)
            if val1:
                _, out1 = act(d1, val1, q)
                for r, v in enumerate(out1):
                    rhs[r] += v
            d2, val2 = phi_value(q)
            if val2:
                _, out2 = act(d2, val2, p)
                for r, v in enumerate(out2):
                    rhs[r] -= v
            if any(x != y for x, y in zip(lhs, rhs)):
                bad.append((a.labels[p], a.labels[q]))
    return bad


def der0(a: GNLA) -> List[GradedMap]:
    """Basis of the degree-preserving derivations of the algebra."""
    return list(prolong_layer(a, 0, []).maps)


def h0(a: GNLA) -> MatrixSubspace:
    """Degree 0 derivations vanishing on every layer below the first,
    identified with a matrix subspace of End(m_{-1}).

    This is the degree 0 Leibniz system cut to m_{-1}.  Block 1 holds
    the first n1^2 unknowns, row-major as Matrix.flatten stores them, so
    deleting every later column sets the deeper blocks to zero; the
    kernel over the n1^2 columns left is the space in its RREF basis.
    """
    n1 = a.layer_dim(1)
    rows, _, _ = _leibniz_system(a, 0, [])
    cut = [{j: v for j, v in r.items() if j < n1 * n1} for r in rows]
    return MatrixSubspace._from_span(n1, _kernel(cut, n1 * n1))


def h0_as_graded_map(a: GNLA, m: Matrix) -> GradedMap:
    """Embed an element of h0 as a degree 0 map killing deeper layers."""
    blocks = {1: m}
    for i in range(2, a.depth + 1):
        ni = a.layer_dim(i)
        blocks[i] = Matrix.zero(ni, ni)
    return GradedMap(degree=0, blocks=blocks)


@dataclass(frozen=True)
class IterationVerdict:
    kind: str                       # "finite" or "inconclusive"
    layer_dims: Tuple[int, ...]
    total_dim: Optional[int]
    layers: Tuple[ProlongationLayer, ...]


def classify_by_iteration(a: GNLA, max_degree: int = 10) -> IterationVerdict:
    """Iterate prolongation layers until one vanishes or the budget ends.

    A zero layer certifies finite type: once some g_k = 0 every later
    layer vanishes as well, because the algebra is generated in degree -1
    and a nonzero higher map would have a nonzero partial application.
    """
    layers: List[ProlongationLayer] = []
    dims: List[int] = []
    for k in range(max_degree + 1):
        lay = prolong_layer(a, k, layers)
        layers.append(lay)
        dims.append(lay.dim)
        if lay.dim == 0:
            return IterationVerdict(
                kind="finite",
                layer_dims=tuple(dims),
                total_dim=a.dim + sum(dims),
                layers=tuple(layers))
    return IterationVerdict(
        kind="inconclusive",
        layer_dims=tuple(dims),
        total_dim=None,
        layers=tuple(layers))
