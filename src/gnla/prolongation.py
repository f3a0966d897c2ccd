"""Tanaka prolongation layers by exact linear solves.

A degree k >= 0 layer element is a graded map phi sending the degree -i
part of the algebra into the layer of degree k - i (a negative target
degree lands back in the algebra itself, a non-negative one in a
previously computed layer).  The defining constraint is the Leibniz
identity phi([x,y]) = [phi(x), y] + [x, phi(y)] over all basis pairs,
where a bracket whose left slot sits in a non-negative layer is map
application.  Each layer is the kernel of one global linear system over
the flattened block entries, normalized to RREF so that dimensions and
bases are reproducible.  A layer stays sparse and integer from the
Leibniz rows to the next degree's system, and no Fraction is made on
the way.  Each row is a {key: int} dict with its unknowns numbered in
reverse, the order the elimination works in, the identity's row scaled
by the lcm of its denominators, built from action groups cached once per
(degree, basis vector).  On a graded Lie algebra that m_{-1} generates,
the basis pairs whose rows the other rows imply build none (see
_leibniz_system).  The rows go as built into the integer kernel of
linalg, which reads each RREF row off as integers over its least
positive denominator.  Those integer rows are the stored form of the
layer's maps; a map's Fraction entries and dense blocks are built only
when read.  The next degree's system reads only the layer's column view,
for each (block, source column) its nonzero entries grouped by target
row as integers over one denominator in lowest terms, derived from the
same integer rows.  h0 is the degree 0 system cut to the columns of its
m_{-1} block, returned as a linalg.MatrixSubspace.  The module imports
only algebra and linalg.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import GNLA, _structural_failures
from .linalg import (Frozen, Matrix, MatrixSubspace, _echelon,
                     _integer_kernel, _integer_row, _kernel_rows,
                     _unflattened)

__all__ = [
    "GradedMap", "IterationVerdict", "ProlongationLayer",
    "classify_by_iteration", "der0", "h0", "h0_as_graded_map",
    "leibniz_failures", "prolong_layer",
]


class GradedMap(Frozen):
    """A degree k graded map given by one matrix block per source layer.

    blocks[i] maps degree -i layer coordinates to coordinates of the
    target of degree k - i: layer coordinates of m for k - i < 0, basis
    coefficients of the already computed layer g_{k-i} otherwise.

    The stored form is the block shapes, (i, rows, columns) in increasing
    i, and the nonzero entries of the blocks flattened in that order,
    each block row-major, as integers over one denominator: _ints holds
    (flat index, int) in increasing index and _den is the least positive
    integer that makes den times every entry an integer, so equal maps
    store equal forms.  Equality and hashing read it, and
    _trusted(degree, shapes, ints, den) takes it as is.  The Fraction
    entries are built on each read, the blocks dict on the first.
    """

    __slots__ = ("degree", "_shapes", "_ints", "_den", "_blocks")

    def __init__(self, degree: int, blocks: Dict[int, Matrix]):
        ordered = sorted(blocks.items())
        ints, den = _integer_row(
            [e for _, b in ordered for row in b.rows for e in row])
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "_shapes", tuple(
            (i, b.nrows, b.ncols) for i, b in ordered))
        object.__setattr__(self, "_ints", tuple(ints.items()))
        object.__setattr__(self, "_den", den)

    @property
    def _entries(self) -> Tuple[Tuple[int, Fraction], ...]:
        """The nonzero entries as (flat index, Fraction) in increasing
        index."""
        den = self._den
        return tuple((u, Fraction(v, den)) for u, v in self._ints)

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

    def is_zero(self) -> bool:
        return not self._ints

    def __eq__(self, other):
        return (isinstance(other, GradedMap)
                and (self.degree, self._shapes, self._den, self._ints)
                == (other.degree, other._shapes, other._den, other._ints))

    def __hash__(self):
        return hash((self.degree, self._shapes, self._den, self._ints))

    def __repr__(self):
        return "GradedMap(degree=%r, blocks=%r)" % (self.degree, self.blocks)


class ProlongationLayer(Frozen):
    __slots__ = ("_column_view",)
    degree: int
    maps: Tuple[GradedMap, ...]

    @property
    def dim(self) -> int:
        return len(self.maps)

    @property
    def _columns(self) -> Dict[Tuple[int, int], List]:
        """The column view: for each (block i, source column x), the
        nonzero entries of that column over all maps as the groups of
        _grouped, one per target row r, read off the maps' integer
        entries on first read and kept in the lazy slot _column_view.
        Not a field: equality, hash and repr read the maps alone."""
        try:
            return self._column_view
        except AttributeError:
            pass
        by_row: Dict[Tuple[int, int], Dict[int, List]] = {}
        places = {}
        for m, psi in enumerate(self.maps):
            place = places.get(psi._shapes)
            if place is None:
                place = places[psi._shapes] = [
                    (i, r, x) for i, tgt, src in psi._shapes
                    for r in range(tgt) for x in range(src)]
            den = psi._den
            for u, v in psi._ints:
                i, r, x = place[u]
                by_row.setdefault((i, x), {}).setdefault(r, []).append(
                    (m, v, den))
        view = {col: _grouped(rows) for col, rows in by_row.items()}
        object.__setattr__(self, "_column_view", view)
        return view


def _grouped(by_row: Dict[int, List]) -> List:
    """{r: [(m, num, den), ...]}, the value at m the nonzero num / den
    for a positive den, as groups (r, den, [m, num, m, num, ...]) in
    increasing r, each in lowest terms: den is the least positive integer
    that makes den times every value of the row an integer, and num / den
    the value at m.  Over the lcm L of the row's dens, the gcd of L and
    the numerators is L over that least one."""
    groups = []
    for r in sorted(by_row):
        entries = by_row[r]
        den = lcm(*[d for _, _, d in entries])
        flat = []
        for m, v, d in entries:
            flat += (m, v * (den // d))
        if den != 1:
            g = gcd(den, *flat[1::2])
            if g != 1:
                den //= g
                flat[1::2] = [v // g for v in flat[1::2]]
        groups.append((r, den, flat))
    return groups


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


def _cyclic_onto(a: GNLA) -> bool:
    """Whether the cyclic map R: L^3 m_{-1} -> m_{-2} (x) m_{-1},
    x^y^w -> [x,y] (x) w - [x,w] (x) y + [y,w] (x) x, is onto, for an
    algebra that passes the grading check.  Never when C(n1, 3) < n1 n2;
    else one rank of its images of the basis triples, made as the rank
    asks for them, which stops once it reaches n1 n2.  The image of a
    triple writes each of its three terms at a different second factor,
    so its entries are the table's integers as they are."""
    pos1 = a.layer_positions(1)
    n1 = len(pos1)
    full = n1 * a.layer_dim(2)
    if comb(n1, 3) < full:
        return False
    index = {p: x for x, p in enumerate(a.layer_positions(2))}
    brackets = [a._table.get(p, {}) for p in pos1]

    def images():
        for x, y, w in combinations(range(n1), 3):
            image = {}
            for u, v, o, sign in ((x, y, w, 1), (x, w, y, -1), (y, w, x, 1)):
                for r, c in brackets[u].get(pos1[v], ()):
                    image[index[r] * n1 + o] = sign * c
            yield image

    return len(_echelon(images(), full)[0]) == full


def _leibniz_system(a: GNLA, k: int, lower: Sequence[ProlongationLayer]):
    """The degree k Leibniz system as (rows, block shapes, total).

    The total unknowns are the entries of all blocks of a candidate map,
    flattened block after block in the order of the shapes, each block
    row-major; a basis pair (e_p, e_q) contributes the rows of
    D(e_p, e_q) = phi([e_p,e_q]) - [phi(e_p), e_q] - [e_p, phi(e_q)] = 0
    expressed in the target of degree k - deg_p - deg_q, all but those
    with no nonzero entry.  Each row is a sparse {key: int} dict with
    unknown u at key total - 1 - u, the reversed numbering _kernel_rows
    takes, written once: the identity's row times its scale, the lcm of
    its denominators.  The three terms never write the same unknown of a
    row, since they read different blocks or columns, so the scale is
    the lcm of at most three denominators: that of the constants of
    [e_p, e_q], and that of the row's group in each action.

    When the algebra passes the grading, Jacobi and generated checks
    (_structural_failures), two kinds of pairs add no rows, because the
    rows of the others imply theirs; every other table gets the rows of
    every pair.  On such an algebra m acts on V = m + g_0 + ... + g_{k-1}
    by the bracket as a module: Jacobi gives the module identity on m,
    and the Leibniz identity of each lower map gives it on that map.  phi
    is a 1-cochain of m in V with d phi = -D, so that dD = 0:
    D([x,y],w) - D([x,w],y) + D([y,w],x)
        = [x, D(y,w)] - [y, D(x,w)] + [w, D(x,y)].
    - Pairs of two degrees <= -2.  If D(x, .) = 0 for every x of degree
      -1, the set {a : D(a, .) = 0} contains m_{-1} and, by dD = 0 at
      (a, b, c), it is closed under brackets; m is generated by m_{-1},
      so it is all of m.  The rows of the pairs with a degree -1 vector
      thus imply D = 0.
    - On depth 2, the pairs of m_{-1} with m_{-2}, when the cyclic map R
      of _cyclic_onto is onto.  If D vanishes on m_{-1} x m_{-1}, dD = 0
      at x, y, w in m_{-1} gives D([x,y],w) - D([x,w],y) + D([y,w],x)
      = 0: D read on m_{-2} (x) m_{-1} vanishes on the image of R, all of
      it.  Those pairs have a target only from k = 1 on, and the check
      runs only where they do.
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
    # the source layer of each basis position, and its coordinate there
    layer = [-d for d in a.degrees]
    index = {p: x for i in range(1, mu + 1)
             for x, p in enumerate(a.layer_positions(i))}
    table, tden = a._table, a._den

    # partners[i][j]: the target dimension of the rows of a pair of
    # source layers i and j, for the pairs whose rows are built
    partners: Dict[int, Dict[int, int]] = {i: {} for i in range(1, mu + 1)}
    for i in partners:
        for j in range(1, mu + 1):
            if k - i - j >= -mu:
                tdim = _target_dim(a, lower, k - i - j)
                if tdim:
                    partners[i][j] = tdim
    deep = [(i, j) for i in partners for j in partners[i] if min(i, j) > 1]
    mixed = [(i, j) for i in partners for j in partners[i]
             if mu == 2 and {i, j} == {1, 2}]
    if (deep or mixed) and next(_structural_failures(a), None) is None:
        if mixed and _cyclic_onto(a):
            deep += mixed
        for i, j in deep:
            del partners[i][j]

    def bracket_terms(terms, t: int) -> List[Tuple[int, int]]:
        """The table's terms of one bracket in layer t, as nonzero
        (coordinate, int) pairs over tden."""
        return [(index[r], v) for r, v in terms if layer[r] == t]

    # For [phi(e_p), e_q] with phi(e_p) in the graded piece of degree d,
    # the action on e_q is linear in the coordinates of phi(e_p).
    actions: Dict[Tuple[int, int], List] = {}

    def action(d: int, q: int) -> List:
        """The image of e_q under each coordinate direction m of the
        degree d piece, in the degree d - deg(e_q) target, as the groups
        (r, den, [m, num, ...]) of _grouped: from the structure constants
        for d < 0, the column view of the layer g_d otherwise."""
        groups = actions.get((d, q))
        if groups is None:
            j = layer[q]
            if d < 0:
                by_row: Dict[int, List] = {}
                for m, p in enumerate(a.layer_positions(-d)):
                    for r, v in bracket_terms(table.get(p, {}).get(q, ()),
                                              j - d):
                        by_row.setdefault(r, []).append((m, v, tden))
                groups = _grouped(by_row)
            else:
                groups = lower[d]._columns.get((j, index[q]), [])
            actions[d, q] = groups
        return groups

    last = total - 1
    rows: List[Dict[int, int]] = []
    for p in range(n):
        i = layer[p]
        targets = partners[i]
        if not targets:
            continue
        brackets = table.get(p, {})
        # phi(e_p) is the p-column of block i: the key of its first unknown
        pkey = last - offsets[i] - index[p] if i in offsets else None
        for q in range(p + 1, n):
            j = layer[q]
            tdim = targets.get(j)
            if tdim is None:
                continue
            # phi([e_p, e_q]) term, in every row: the constants of
            # [e_p, e_q] in layer i + j as integers over their least bden
            constants = (bracket_terms(brackets.get(q, ()), i + j)
                         if i + j in offsets else [])
            scale: Dict[int, int] = {}
            if constants:
                g = gcd(tden, *[v for _, v in constants])
                bden = tden // g
                constants = [(x, v // g) for x, v in constants]
                scale = dict.fromkeys(range(tdim), bden)
            # -[phi(e_p), e_q] term; -[e_p, phi(e_q)] = +[phi(e_q), e_p]
            # term likewise, each with the key of its column's first unknown
            terms = []
            if pkey is not None:
                terms.append((action(k - i, q), pkey, srcs[i], -1))
            if j in offsets:
                terms.append((action(k - j, p), last - offsets[j] - index[q],
                              srcs[j], 1))
            for groups, _, _, _ in terms:
                for r, den, _ in groups:
                    old = scale.get(r)
                    scale[r] = den if old is None else lcm(old, den)
            if not scale:
                continue

            block = {r: {} for r in sorted(scale)}
            if constants:
                off, src = offsets[i + j], srcs[i + j]
                for r, row in block.items():
                    f = scale[r] // bden
                    base = last - off - r * src
                    for x, w in constants:
                        row[base - x] = w * f
            for groups, key, src, sign in terms:
                for r, den, flat in groups:
                    row = block[r]
                    f = sign * (scale[r] // den)
                    it = iter(flat)
                    for m, v in zip(it, it):
                        row[key - m * src] = v * f
            rows.extend(block.values())
    return rows, shapes, total


def prolong_layer(a: GNLA, k: int,
                  lower: Sequence[ProlongationLayer]) -> ProlongationLayer:
    """The degree k layer from the layers 0 .. k-1: its system's kernel.

    Each integer kernel row of _kernel_rows, with its denominator, is the
    stored form of one map; neither its Fraction entries nor its blocks
    are built here."""
    if k < 0:
        raise ValueError("prolongation layers start at degree 0")
    if len(lower) != k:
        raise ValueError("need exactly the layers 0 .. k-1")
    rows, shapes, total = _leibniz_system(a, k, lower)
    return ProlongationLayer(degree=k, maps=tuple(
        GradedMap._trusted(k, shapes, ints, den)
        for ints, den in _kernel_rows(rows, total)))


def _sparse_columns(
        g: GradedMap) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
    """{(block i, source column x): {row r: value}}: the nonzero entries
    of a map's blocks, read off its flat entries."""
    cols: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    ends = []
    off = 0
    for i, tgt, src in g._shapes:
        ends.append((off + tgt * src, off, i, src))
        off += tgt * src
    b = 0
    for u, v in g._entries:
        while u >= ends[b][0]:
            b += 1
        _, off, i, src = ends[b]
        r, x = divmod(u - off, src)
        cols.setdefault((i, x), {})[r] = v
    return cols


def leibniz_failures(a: GNLA, lower: Sequence[ProlongationLayer],
                     phi: GradedMap) -> List[Tuple[str, str]]:
    """Re-check the Leibniz identity of a computed map pair by pair.

    Evaluates both sides on concrete basis vectors, independently of the
    assembled solver system: phi and the lower maps are read column by
    column off their sparse entries, and no dense block is built.  The
    structure constants are the integer table, so each side is summed
    den times over, den the table's.  Returns the offending label pairs.
    """
    k = phi.degree
    mu = a.depth
    table, den = a._table, a._den
    index = {p: x for i in range(1, mu + 1)
             for x, p in enumerate(a.layer_positions(i))}
    phi_cols = _sparse_columns(phi)
    lower_cols: Dict[Tuple[int, int], Dict] = {}

    def add_action(d: int, val: Dict[int, Fraction], pos: int, sign: int,
                   out: Dict[int, Fraction]) -> None:
        """out += den sign [v, e_pos] for v in the degree d piece with
        coordinates val, in the degree d - deg(e_pos) target."""
        j = -a.degrees[pos]
        if d < 0:
            positions = a.layer_positions(-d)
            for m, c in val.items():
                for t, w in table.get(positions[m], {}).get(pos, ()):
                    if a.degrees[t] == d - j:
                        out[index[t]] = out.get(index[t], 0) + sign * c * w
            return
        sign *= den
        for m, c in val.items():
            cols = lower_cols.get((d, m))
            if cols is None:
                cols = lower_cols[d, m] = _sparse_columns(lower[d].maps[m])
            for r, v in cols.get((j, index[pos]), {}).items():
                out[r] = out.get(r, 0) + sign * c * v

    bad = []
    for p in range(a.dim):
        i = -a.degrees[p]
        for q in range(p + 1, a.dim):
            j = -a.degrees[q]
            tdeg = k - i - j
            if tdeg < 0 and -tdeg > mu:
                continue
            # phi([e_p, e_q]) - [phi(e_p), e_q] + [phi(e_q), e_p]
            diff: Dict[int, Fraction] = {}
            for t, w in table.get(p, {}).get(q, ()):
                if a.degrees[t] == -(i + j):
                    for r, v in phi_cols.get((i + j, index[t]), {}).items():
                        diff[r] = diff.get(r, 0) + w * v
            add_action(k - i, phi_cols.get((i, index[p]), {}), q, -1, diff)
            add_action(k - j, phi_cols.get((j, index[q]), {}), p, 1, diff)
            if any(diff.values()):
                bad.append((a.labels[p], a.labels[q]))
    return bad


def der0(a: GNLA) -> List[GradedMap]:
    """Basis of the degree-preserving derivations of the algebra.  The
    package does not call it yet; it is the g0 = der0 of the planned
    prolongations of pairs (m, g0)."""
    return list(prolong_layer(a, 0, []).maps)


def h0(a: GNLA) -> MatrixSubspace:
    """Degree 0 derivations vanishing on every layer below the first,
    identified with a matrix subspace of End(m_{-1}).

    This is the degree 0 Leibniz system cut to m_{-1}.  Block 1 holds
    the first n1^2 unknowns, row-major as Matrix.flatten stores them, so
    deleting every later column sets the deeper blocks to zero; the
    kernel over the n1^2 columns left is the space in its RREF basis.
    In the system's reversed numbering those unknowns hold the last n1^2
    keys, which shifted down by the rest are already the reversed keys of
    the cut system.  The pairs of two degrees <= -2 that the system may
    leave out would give empty rows here: all their unknowns sit in the
    deeper blocks.
    """
    n1 = a.layer_dim(1)
    rows, _, total = _leibniz_system(a, 0, [])
    off = total - n1 * n1
    cut = [{j - off: v for j, v in r.items() if j >= off} for r in rows]
    return MatrixSubspace._from_span(n1, _integer_kernel(cut, n1 * n1))


def h0_as_graded_map(a: GNLA, m: Matrix) -> GradedMap:
    """Embed an element of h0 as a degree 0 map killing deeper layers."""
    blocks = {1: m}
    for i in range(2, a.depth + 1):
        ni = a.layer_dim(i)
        blocks[i] = Matrix.zero(ni, ni)
    return GradedMap(degree=0, blocks=blocks)


class IterationVerdict(Frozen):
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
