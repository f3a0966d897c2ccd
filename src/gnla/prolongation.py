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
elimination core of linalg, which hands back the kernel's RREF rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import GNLA, bracket
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _kernel,
    kernel_basis,
)


@dataclass(frozen=True)
class GradedMap:
    """A degree k graded map given by one matrix block per source layer.

    blocks[i] maps degree -i layer coordinates to coordinates of the
    target of degree k - i: layer coordinates of m for k - i < 0, basis
    coefficients of the already computed layer g_{k-i} otherwise.
    """
    degree: int
    blocks: Dict[int, Matrix]

    def block(self, i: int) -> Optional[Matrix]:
        return self.blocks.get(i)

    def apply_to_layer(self, i: int, coords: Sequence) -> Vector:
        b = self.blocks.get(i)
        if b is None or b.nrows == 0:
            return ()
        return b.apply(coords)

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks.values())


@dataclass(frozen=True)
class ProlongationLayer:
    degree: int
    maps: Tuple[GradedMap, ...]

    @property
    def dim(self) -> int:
        return len(self.maps)


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
        span = Subspace(side * side, [m.flatten() for m in mats])
        basis = tuple(
            Matrix([row[i * side:(i + 1) * side] for i in range(side)])
            for row in span.basis)
        return cls(side=side, basis=basis, span=span)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: Matrix) -> bool:
        return self.span.contains(m.flatten())


def _target_dim(a: GNLA, lower: Sequence[ProlongationLayer], degree: int) -> int:
    """Dimension of the graded piece of the prolongation at this degree."""
    if degree < 0:
        return a.layer_dim(-degree)
    if degree < len(lower):
        return lower[degree].dim
    raise ValueError("layer %d has not been computed yet" % degree)


def _block_shapes(a: GNLA, lower: Sequence[ProlongationLayer],
                  k: int) -> List[Tuple[int, int, int]]:
    """(source layer i, target dim, source dim) with both dims positive."""
    shapes = []
    for i in range(1, a.depth + 1):
        src = a.layer_dim(i)
        tgt = _target_dim(a, lower, k - i)
        if src > 0 and tgt > 0:
            shapes.append((i, tgt, src))
    return shapes


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


def prolong_layer(a: GNLA, k: int,
                  lower: Sequence[ProlongationLayer]) -> ProlongationLayer:
    """Compute the degree k layer from the layers 0 .. k-1.

    The unknowns are the entries of all blocks of a candidate map; each
    basis pair (e_p, e_q) contributes the rows of
    phi([e_p,e_q]) - [phi(e_p), e_q] - [e_p, phi(e_q)] = 0
    expressed in the target of degree k - deg_p - deg_q.  Each row is a
    sparse {unknown: value} dict; the three terms never write the same
    unknown of a row, since they read different blocks or columns.
    """
    if k < 0:
        raise ValueError("prolongation layers start at degree 0")
    if len(lower) != k:
        raise ValueError("need exactly the layers 0 .. k-1")
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
    if total == 0:
        return ProlongationLayer(degree=k, maps=())
    # the coordinate of each basis position within its layer
    index = {p: x for i in range(1, mu + 1)
             for x, p in enumerate(a.layer_positions(i))}

    def bracket_terms(p: int, q: int, t: int) -> List[Tuple[int, Fraction]]:
        """[e_p, e_q] as nonzero (coordinate, value) pairs in layer t."""
        return [(index[r], c) for r, c in a.bracket_terms(p, q)
                if a.degrees[r] == -t]

    # For [phi(e_p), e_q] with phi(e_p) in the graded piece of degree d,
    # the action on e_q is linear in the coordinates of phi(e_p).
    actions: Dict[Tuple[int, int], List[List[Tuple[int, Fraction]]]] = {}

    def action(d: int, q: int) -> List[List[Tuple[int, Fraction]]]:
        """One column per coordinate direction of the degree d piece: the
        image of e_q, as nonzero (row, value) pairs in the degree
        d - deg(e_q) target."""
        cols = actions.get((d, q))
        if cols is None:
            j = -a.degrees[q]
            if d < 0:
                cols = [bracket_terms(p, q, j - d)
                        for p in a.layer_positions(-d)]
            else:
                cols = []
                x = index[q]
                for psi in lower[d].maps:
                    b = psi.block(j)
                    cols.append([] if b is None else [
                        (r, row[x]) for r, row in enumerate(b.rows) if row[x]])
            actions[d, q] = cols
        return cols

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
                for r_src, col in enumerate(action(k - i, q)):
                    for r, v in col:
                        block[r][off + r_src * src] = -v

            # -[e_p, phi(e_q)] = +[phi(e_q), e_p] term
            if j in offsets:
                off, src = offsets[j] + index[q], srcs[j]
                for r_src, col in enumerate(action(k - j, p)):
                    for r, v in col:
                        block[r][off + r_src * src] = v

            if any(block):
                rows.extend(block)

    sol = _kernel(rows, total)
    maps = []
    for flat in sol.basis:
        blocks = {}
        for i, tgt, src in shapes:
            off = offsets[i]
            blocks[i] = Matrix._trusted(tuple(
                flat[off + r * src: off + (r + 1) * src] for r in range(tgt)))
        maps.append(GradedMap(degree=k, blocks=blocks))
    return ProlongationLayer(degree=k, maps=tuple(maps))


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

    These are the combinations of der0 whose blocks on the deeper
    layers cancel: the kernel of the matrix with one column of
    flattened deeper blocks per derivation.  The first blocks of those
    combinations span the space, returned in its RREF basis.
    """
    n1 = a.layer_dim(1)
    maps = der0(a)
    deeper = [tuple(e for i in range(2, a.depth + 1) if i in g.blocks
                    for e in g.blocks[i].flatten()) for g in maps]
    if maps and deeper[0]:
        combos = kernel_basis(Matrix.from_columns(deeper)).basis
    else:
        combos = Subspace.full(len(maps)).basis
    firsts = [[(e, v) for e, v in enumerate(g.blocks[1].flatten()) if v]
              for g in maps if 1 in g.blocks]
    mats = []
    for c in combos:
        flat = [Fraction(0)] * (n1 * n1)
        for ck, f in zip(c, firsts):
            if ck:
                for e, v in f:
                    flat[e] += ck * v
        mats.append(Matrix._trusted(
            tuple(tuple(flat[r * n1:(r + 1) * n1]) for r in range(n1))))
    return MatrixSubspace.from_matrices(n1, mats)


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
