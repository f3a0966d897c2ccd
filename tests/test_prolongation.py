import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from cases import (
    catalog_algebras,
    closure_example,
    fraction_constructions,
    full_block_change,
    random_two_step,
    signed_permutation,
    table_cases,
)
from dense import from_columns, identity
from gnla import (
    GNLA,
    ExtensionData,
    Matrix,
    MatrixSubspace,
    Subspace,
    bracket,
    catalog,
    change_basis,
    classify,
    classify_by_iteration,
    decompose_special_extension,
    der0,
    h0,
    h0_as_graded_map,
    kernel_basis,
    leibniz_failures,
    minor_ideal,
    prolong_layer,
    prolongation,
    special_extension,
)
from gnla.linalg import _integer_row, unit_vector, zero_vector
from gnla.prolongation import (
    GradedMap,
    ProlongationLayer,
    _block_shapes,
    _leibniz_system,
    _target_dim,
)


def contact_layer_oracle(k, dim=3):
    """dim g_k of the contact algebra of dimension 2n + 1: the number of
    monomials of weighted degree k + 2 in 2n weight-1 variables and one
    weight-2 variable, counted by the power c of the latter."""
    n = (dim - 1) // 2
    return sum(math.comb(k + 2 - 2 * c + 2 * n - 1, 2 * n - 1)
               for c in range((k + 2) // 2 + 1))


def reference_h0(a):
    """h0 from its own Leibniz system on End(m_{-1}): [Ax, y] + [x, Ay] = 0
    for x, y of degree -1 and [Ax, w] = 0 for deeper w.  The route gnla
    took before h0 was read off der0; an oracle only."""
    n1 = a.layer_dim(1)
    pos1 = a.layer_positions(1)
    total = n1 * n1
    rows = []

    def image_rows(p_idx, other_pos, sign, out_rows, tgt_layer):
        # [A e_p, e_other] with A e_p = sum_r A[r][p_idx] e_{pos1[r]}
        for r in range(n1):
            val = a.layer_coordinates(
                tgt_layer, a.pair_bracket(pos1[r], other_pos))
            for t, v in enumerate(val):
                if v != 0:
                    out_rows[t][r * n1 + p_idx] += sign * v

    for x_idx in range(n1):
        for y_idx in range(x_idx + 1, n1):
            tdim = a.layer_dim(2)
            if tdim == 0:
                continue
            block = [[Fraction(0)] * total for _ in range(tdim)]
            image_rows(x_idx, pos1[y_idx], 1, block, 2)
            image_rows(y_idx, pos1[x_idx], -1, block, 2)
            rows.extend(r for r in block if any(c != 0 for c in r))
        for i in range(2, a.depth + 1):
            for w in a.layer_positions(i):
                tdim = a.layer_dim(i + 1)
                if tdim == 0:
                    continue
                block = [[Fraction(0)] * total for _ in range(tdim)]
                image_rows(x_idx, w, 1, block, i + 1)
                rows.extend(r for r in block if any(c != 0 for c in r))

    sol = (kernel_basis(Matrix(rows)) if rows
           else Subspace(total, identity(total).rows))
    mats = [Matrix([row[i * n1:(i + 1) * n1] for i in range(n1)])
            for row in sol.basis]
    return MatrixSubspace.from_matrices(n1, mats)


def reference_prolong_layer(a, k, lower):
    """The dense Leibniz system builder gnla used before its rows were
    sparse dicts, verbatim except that it also returns its dense Fraction
    system rows and drops annotations.  An oracle only.

    Compute the degree k layer from the layers 0 .. k-1.

    The unknowns are the entries of all blocks of a candidate map; each
    basis pair (e_p, e_q) contributes the rows of
    phi([e_p,e_q]) - [phi(e_p), e_q] - [e_p, phi(e_q)] = 0
    expressed in the target of degree k - deg_p - deg_q.
    """
    if k < 0:
        raise ValueError("prolongation layers start at degree 0")
    if len(lower) != k:
        raise ValueError("need exactly the layers 0 .. k-1")
    n = a.dim
    mu = a.depth
    shapes = _block_shapes(a, lower, k)
    offsets = {}
    total = 0
    for i, tgt, src in shapes:
        offsets[i] = total
        total += tgt * src
    shape_by_layer = {i: (tgt, src) for i, tgt, src in shapes}

    def unknown_index(i, r, c):
        tgt, src = shape_by_layer[i]
        return offsets[i] + r * src + c

    # For [phi(e_p), e_q] with phi(e_p) in the graded piece of degree d,
    # the action on e_q is linear in the coordinates of phi(e_p); its
    # matrix has one column per coordinate of that piece.
    def action_matrix(d, q_pos):
        """Columns: image of e_q under the r-th coordinate direction of
        the degree d piece, written in the degree d - deg(e_q) target."""
        j = -a.degrees[q_pos]
        tgt = _target_dim(a, lower, d - j)
        cols = []
        if d < 0:
            src_layer = -d
            for p in a.layer_positions(src_layer):
                val = a.pair_bracket(p, q_pos)
                cols.append(a.layer_coordinates(j - d, val)
                            if tgt else ())
        else:
            q_idx = a.layer_positions(j).index(q_pos)
            for psi in lower[d].maps:
                b = psi.block(j)
                if b is None or b.nrows == 0:
                    cols.append(zero_vector(tgt))
                else:
                    cols.append(tuple(r[q_idx] for r in b.rows))
        return cols

    rows = []
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
            block_rows = [[Fraction(0)] * total for _ in range(tdim)]
            touched = False

            # phi([e_p, e_q]) term
            if i + j <= mu and (i + j) in shape_by_layer:
                w = a.layer_coordinates(i + j, a.pair_bracket(p, q))
                for c_idx, wc in enumerate(w):
                    if wc == 0:
                        continue
                    touched = True
                    for r in range(tdim):
                        block_rows[r][unknown_index(i + j, r, c_idx)] += wc

            # -[phi(e_p), e_q] term: phi(e_p) is the p-column of block i
            if i in shape_by_layer:
                d = k - i
                cols = action_matrix(d, q)
                p_idx = a.layer_positions(i).index(p)
                for r_src, col in enumerate(cols):
                    for r, v in enumerate(col):
                        if v != 0:
                            touched = True
                            block_rows[r][unknown_index(i, r_src, p_idx)] -= v

            # -[e_p, phi(e_q)] = +[phi(e_q), e_p] term
            if j in shape_by_layer:
                d = k - j
                cols = action_matrix(d, p)
                q_idx = a.layer_positions(j).index(q)
                for r_src, col in enumerate(cols):
                    for r, v in enumerate(col):
                        if v != 0:
                            touched = True
                            block_rows[r][unknown_index(j, r_src, q_idx)] += v

            if touched:
                rows.extend(block_rows)

    if total == 0:
        return ProlongationLayer(degree=k, maps=()), []
    if rows:
        sol = kernel_basis(Matrix(rows))
    else:
        sol = Subspace(total, identity(total).rows)

    maps = []
    for flat in sol.basis:
        blocks = {}
        for i, tgt, src in shapes:
            off = offsets[i]
            blocks[i] = Matrix([flat[off + r * src: off + (r + 1) * src]
                                for r in range(tgt)])
        maps.append(GradedMap(degree=k, blocks=blocks))
    return ProlongationLayer(degree=k, maps=tuple(maps)), rows


def test_prolong_layer_matches_the_dense_builder(monkeypatch):
    """Equal maps, block by block, and as many system rows as the dense
    builder has nonzero rows, at degrees 0-2 on every catalog algebra,
    every pencil and seeded random 2-step algebras, and on a signed
    permutation of each; each chain is fed its own lower layers."""
    rows_seen = []
    kernel = prolongation._kernel_rows

    def count_rows(rows, ncols):
        rows_seen.append(len(rows))
        return kernel(rows, ncols)

    monkeypatch.setattr(prolongation, "_kernel_rows", count_rows)
    rng = random.Random(4247)
    algebras = catalog_algebras()
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5) * 2]
    algebras += [signed_permutation(rng, a) for a in algebras]
    # a bracket that leaves the grading is read in its target layer only
    algebras.append(GNLA("ungraded", [("X1", -1), ("X2", -1), ("X3", -1),
                                      ("Y", -2)],
                         {(0, 1): [(3, 1), (2, 1)], (0, 2): [(3, 2)]}))
    for a in algebras:
        layers, ref_layers = [], []
        for k in range(3):
            rows_seen.clear()
            lay = prolong_layer(a, k, layers)
            ref, ref_rows = reference_prolong_layer(a, k, ref_layers)
            assert [g.blocks for g in lay.maps] == [
                g.blocks for g in ref.maps], (a.name, k)
            assert sum(rows_seen) == sum(1 for r in ref_rows if any(r)), (
                a.name, k)
            layers.append(lay)
            ref_layers.append(ref)


def dense_column_view(layer):
    """{(block i, source column x): [(r, den, [m, num, ...]), ...]}: the
    nonzero entries of each block column over the layer's maps, read off
    the dense blocks, one group per row r in increasing r, each value
    num / den for den the lcm of the row's denominators, m increasing.
    An oracle only."""
    entries = {}
    for m, g in enumerate(layer.maps):
        for i, b in g.blocks.items():
            for r, row in enumerate(b.rows):
                for x, v in enumerate(row):
                    if v:
                        entries.setdefault((i, x), {}).setdefault(
                            r, []).append((m, v))
    view = {}
    for col, by_row in entries.items():
        view[col] = []
        for r in sorted(by_row):
            den = math.lcm(*(v.denominator for _, v in by_row[r]))
            view[col].append((r, den, [e for m, v in by_row[r]
                                       for e in (m, int(v * den))]))
    return view


def test_column_view_matches_the_dense_blocks():
    """On every catalog algebra, the pencils and a signed permutation of
    each, through degree 2: the column view prolong_layer's maps give
    equals the one read off the dense blocks; the layer rebuilt from its
    own blocks with the public constructors equals it both ways, with the
    same hash, repr and column view, and equals a copy whose blocks were
    never read; a chain fed such rebuilt layers builds equal next layers;
    and equal layers go in one set."""
    rng = random.Random(4251)
    algebras = catalog_algebras()
    algebras += [signed_permutation(rng, a) for a in algebras]
    for a in algebras:
        layers, copies = [], []
        for k in range(3):
            lay = prolong_layer(a, k, layers)
            copy = prolong_layer(a, k, copies)
            rebuilt = ProlongationLayer(degree=k, maps=tuple(
                GradedMap(degree=g.degree, blocks=g.blocks)
                for g in lay.maps))
            assert copy == rebuilt and rebuilt == copy, (a.name, k)
            assert hash(copy) == hash(rebuilt), (a.name, k)
            assert not any(hasattr(g, "_blocks") for g in copy.maps)
            assert copy == lay, (a.name, k)
            assert lay._columns == dense_column_view(lay), (a.name, k)
            assert rebuilt == lay and lay == rebuilt, (a.name, k)
            assert hash(rebuilt) == hash(lay), (a.name, k)
            assert repr(rebuilt) == repr(lay) == repr(copy), (a.name, k)
            assert rebuilt._columns == lay._columns, (a.name, k)
            assert len({lay, copy, rebuilt}) == 1, (a.name, k)
            layers.append(lay)
            copies.append(rebuilt)


def test_chains_build_no_dense_blocks_or_bases(monkeypatch):
    """A classify_by_iteration chain and a prolong_layer chain leave every
    map's blocks unbuilt, each map storing its integer kernel row as read
    off; a read builds and caches the blocks, and the Fraction entries
    give the map back."""
    kernels = []
    kernel = prolongation._kernel_rows

    def capture(rows, ncols):
        kernels.append(kernel(rows, ncols))
        return kernels[-1]

    monkeypatch.setattr(prolongation, "_kernel_rows", capture)
    verdict = classify_by_iteration(catalog("kgen", k=4))
    a = catalog("mixedjet", k=4)
    layers = []
    for k in range(5):
        layers.append(prolong_layer(a, k, layers))
    maps = [g for lay in verdict.layers + tuple(layers) for g in lay.maps]
    assert len(kernels) == 9 and len(maps) == 77
    assert not any(hasattr(g, "_blocks") for g in maps)
    assert all(g._ints is ints and g._den == den for g, (ints, den) in zip(
        maps, (row for rows in kernels for row in rows)))
    assert maps[-1].blocks is maps[-1].blocks
    g = maps[-1]
    assert map_of_entries(g.degree, g._shapes, dict(g._entries)) == g


def map_of_entries(k, shapes, entries):
    """The degree k map of the given shapes with the Fraction entries
    {flat index: value}, zeros dropped, in its stored integer form."""
    ints, den = _integer_row(dict(sorted(entries.items())))
    return GradedMap._trusted(k, shapes, tuple(ints.items()), den)


def reference_apply_layer_element(a, lower, degree, coeffs, src_layer,
                                  src_coords):
    """The dense evaluation gnla exported as apply_layer_element, with
    GradedMap.apply_to_layer inlined as psi.block(i).apply(coords), which
    builds the dense blocks.  An oracle only.

    Evaluate an element of g_degree (coefficients over the layer basis)
    on an element of the degree -src_layer part of the algebra.

    Returns coordinates in the target of degree degree - src_layer.
    """
    out = [Fraction(0)] * _target_dim(a, lower, degree - src_layer)
    for c, psi in zip(coeffs, lower[degree].maps):
        if c == 0:
            continue
        b = psi.block(src_layer)
        if b is None or b.nrows == 0:
            continue
        for r, v in enumerate(b.apply(src_coords)):
            out[r] += c * v
    return tuple(out)


def reference_leibniz_failures(a, lower, phi):
    """The dense Leibniz check gnla used before it read maps sparsely:
    phi's dense block columns, and the lower layers through
    reference_apply_layer_element, which builds their dense blocks.  An
    oracle only.

    Re-check the Leibniz identity of a computed map pair by pair.
    """
    k = phi.degree
    bad = []
    mu = a.depth

    def phi_value(pos):
        i = -a.degrees[pos]
        idx = a.layer_positions(i).index(pos)
        b = phi.block(i)
        if b is None or b.nrows == 0:
            return k - i, ()
        return k - i, tuple(r[idx] for r in b.rows)

    def act(d, val, pos):
        """[value in degree d piece, e_pos]; returns (degree, coords)."""
        j = -a.degrees[pos]
        if d < 0:
            full = a.embed_layer(-d, val)
            out = bracket(a, full, a.basis_vector(pos))
            return d - j, a.layer_coordinates(j - d, out)
        return d - j, reference_apply_layer_element(
            a, lower, d, val, j, a.layer_coordinates(j, a.basis_vector(pos)))

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


def test_leibniz_failures_matches_the_dense_check_and_builds_no_blocks():
    """On every catalog chain through g2, every map passes the check,
    which builds no dense block of phi or of any lower map; the first and
    the last map of each layer and a random combination of up to five of
    its maps pass the dense check too."""
    rng = random.Random(4253)
    for a in catalog_algebras():
        layers = []
        for k in range(3):
            layers.append(prolong_layer(a, k, layers))
        for k, lay in enumerate(layers):
            for phi in lay.maps:
                assert leibniz_failures(a, layers[:k], phi) == [], (a.name, k)
        assert not any(hasattr(g, "_blocks") for lay in layers
                       for g in lay.maps), a.name
        for k, lay in enumerate(layers):
            lower = layers[:k]
            if lay.maps:
                for phi in (lay.maps[0], lay.maps[-1]):
                    assert reference_leibniz_failures(a, lower, phi) == []
                combo = {}
                for g in rng.sample(lay.maps, min(5, lay.dim)):
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for u, v in g._entries:
                        combo[u] = combo.get(u, 0) + c * v
                phi = map_of_entries(k, lay.maps[0]._shapes, combo)
                assert leibniz_failures(a, lower, phi) == []
                assert reference_leibniz_failures(a, lower, phi) == []


def test_leibniz_failures_reports_perturbed_maps():
    """One entry of a g0 map and one of a g1 map moved by 1 at seeded
    positions: the pairs reported equal the dense check's, and they are
    non-empty exactly when the unit map at that entry lies outside the
    layer, as it does at least once per layer here."""
    rng = random.Random(4257)
    for a in (catalog("heisenberg", dim=3), catalog("heisenberg", dim=5),
              catalog("goursat", n=4), catalog("free2step3"),
              catalog("kgen", k=4), catalog("mixedjet", k=3),
              catalog("from_pencil", blocks="M:1,F:2")):
        layers = []
        for k in range(2):
            lay = prolong_layer(a, k, layers)
            phi = lay.maps[rng.randrange(lay.dim)]
            total = sum(t * s for _, t, s in phi._shapes)
            span = Subspace(total, [
                [dict(g._entries).get(u, 0) for u in range(total)]
                for g in lay.maps])
            reported = 0
            for u in rng.sample(range(total), min(total, 8)):
                entries = dict(phi._entries)
                entries[u] = entries.get(u, 0) + 1
                moved = map_of_entries(k, phi._shapes, entries)
                got = leibniz_failures(a, layers, moved)
                assert got == reference_leibniz_failures(a, layers, moved)
                assert bool(got) != span.contains(unit_vector(total, u)), (
                    a.name, k, u)
                reported += bool(got)
            assert reported, (a.name, k)
            layers.append(lay)


def rescaled(a, scales):
    """a in the basis scales[p] e_p, the scales cycled, so that its
    structure constants c become c s_p s_q / s_r: non-integer."""
    vectors = []
    for p in range(a.dim):
        v = [Fraction(0)] * a.dim
        v[p] = scales[p % len(scales)]
        vectors.append(v)
    return change_basis(a, vectors, a.labels, name=a.name + "_rescaled")


def test_non_integer_constants_reach_the_integer_rows():
    """Algebras rescaled by 1/2, 3/5, ... and a dense basis change have
    non-integer structure constants, in some bracket with distinct
    denominators.  Through g2, every Leibniz row has int values and equals
    _integer_row of the dense builder's nonzero row in the same place,
    keyed in reverse, the layers equal the dense builder's, the column
    view equals the one read off the dense blocks, and every map passes
    the Leibniz check."""
    scales = [Fraction(1, 2), Fraction(3, 5), Fraction(-2), Fraction(7, 3),
              Fraction(-5, 4), Fraction(1), Fraction(2, 9)]
    algebras = [rescaled(a, scales[s:] + scales[:s]) for s, a in enumerate([
        catalog("heisenberg", dim=3), catalog("heisenberg", dim=5),
        catalog("goursat", n=4), catalog("free2step3"), catalog("kgen", k=4),
        catalog("mixedjet", k=3), catalog("from_pencil", blocks="M:1,F:2"),
        closure_example()])]
    algebras.append(full_block_change(random.Random(4261),
                                      catalog("mixedjet", k=3)))
    # a bracket whose constants have distinct denominators
    assert any(len({c.denominator for _, c in terms}) > 1
               for a in algebras for terms in a.brackets.values())
    scaled_rows = 0
    for a in algebras:
        assert any(c.denominator > 1 for terms in a.brackets.values()
                   for _, c in terms), a.name
        layers, ref_layers = [], []
        for k in range(3):
            rows, _, total = _leibniz_system(a, k, layers)
            ref, ref_rows = reference_prolong_layer(a, k, ref_layers)
            ref_rows = [r for r in ref_rows if any(r)]
            assert all(type(v) is int and v for r in rows
                       for v in r.values()), (a.name, k)
            assert rows == [
                {total - 1 - u: v for u, v in _integer_row(r)[0].items()}
                for r in ref_rows], (a.name, k)
            scaled_rows += sum(_integer_row(r)[1] > 1 for r in ref_rows)
            lay = prolong_layer(a, k, layers)
            assert [g.blocks for g in lay.maps] == [
                g.blocks for g in ref.maps], (a.name, k)
            assert lay._columns == dense_column_view(lay), (a.name, k)
            for phi in lay.maps:
                assert leibniz_failures(a, layers, phi) == [], (a.name, k)
            layers.append(lay)
            ref_layers.append(ref)
    assert scaled_rows > 100


def test_chains_construct_no_fraction():
    """The chains heisenberg5 g0-g3, mixedjet4 g0-g4 and kgen4 to its zero
    layer construct no Fraction; every map equals the one its own blocks
    give, with the same hash."""
    for a, top in ((catalog("heisenberg", dim=5), 3),
                   (catalog("mixedjet", k=4), 4),
                   (catalog("kgen", k=4), None)):
        layers = []
        with fraction_constructions() as made:
            for k in range(9):
                layers.append(prolong_layer(a, k, layers))
                if k == top or layers[-1].dim == 0:
                    break
        assert made == [0], a.name
        if top is None:
            assert layers[-1].dim == 0, a.name
        else:
            assert len(layers) == top + 1, a.name
        for k, lay in enumerate(layers):
            for g in lay.maps:
                rebuilt = GradedMap(k, g.blocks)
                assert rebuilt == g and g == rebuilt, (a.name, k)
                assert hash(rebuilt) == hash(g), (a.name, k)


def test_zero_layers_stop_at_full_column_rank(monkeypatch):
    """The kernel pass of free2step3 g3, kgen4 g3 and kgen6 g1 stops once
    its pivots cover the unknowns, before the last row, and each of those
    layers is zero."""
    from gnla import linalg

    seen = []
    echelon = linalg._echelon

    def spy(rows, bound=None):
        rows = list(rows)
        pivots, trail = echelon(rows, bound)
        seen.append((len(rows), len(trail), len(pivots), bound))
        return pivots, trail

    for a, top in ((catalog("free2step3"), 3), (catalog("kgen", k=4), 3),
                   (catalog("kgen", k=6), 1)):
        layers = []
        for k in range(top):
            layers.append(prolong_layer(a, k, layers))
        monkeypatch.setattr(linalg, "_echelon", spy)
        seen.clear()
        lay = prolong_layer(a, top, layers)
        monkeypatch.undo()
        ((rows, passed, rank, unknowns),) = seen
        assert lay.dim == 0 and rank == unknowns, (a.name, seen)
        assert passed < rows, (a.name, seen)


def test_h0_and_iteration_verdicts_copy_and_pickle():
    """h0's MatrixSubspace, an IterationVerdict and a prolongation layer
    survive copy, deepcopy and a pickle round trip, equal to the
    original; the layer's maps keep their integer entries and their
    denominators, some of them past 1."""
    space = h0(catalog("heisenberg", dim=5))
    verdict = classify_by_iteration(catalog("kgen", k=4))
    verdict.layers[1]._columns
    a = catalog("heisenberg", dim=5)
    lay = prolong_layer(a, 1, [prolong_layer(a, 0, [])])
    assert any(g._den > 1 for g in lay.maps)
    for obj in (space, verdict, lay):
        for twin in (copy.copy(obj), copy.deepcopy(obj),
                     pickle.loads(pickle.dumps(obj))):
            assert twin == obj
    for twin in (copy.deepcopy(lay), pickle.loads(pickle.dumps(lay))):
        assert [(g._ints, g._den) for g in twin.maps] == [
            (g._ints, g._den) for g in lay.maps]
        assert twin._columns == lay._columns
    twin = pickle.loads(pickle.dumps(space))
    assert twin.basis == space.basis and twin.span._rows == space.span._rows
    assert twin.contains(space.basis[-1])
    # the values that hold algebras and polynomials: a decomposition, the
    # extension data it rebuilds from, and minor ideals with and without
    # their Groebner basis read
    a = catalog("nontrivial6")
    d = decompose_special_extension(a, classify(a).witness)
    data = ExtensionData.from_adapted_base(d.quotient, len(d.ideal_basis),
                                           d.cocycle)
    read, unread = (minor_ideal(closure_example()) for _ in range(2))
    basis = read.groebner()
    for obj in (d, data, read, unread):
        for twin in (copy.copy(obj), copy.deepcopy(obj),
                     pickle.loads(pickle.dumps(obj))):
            assert twin == obj
            if obj is d:
                assert special_extension(ExtensionData.from_adapted_base(
                    twin.quotient, len(twin.ideal_basis),
                    twin.cocycle)) == d.adapted
                with pytest.raises(AttributeError,
                                   match="DecompositionResult is immutable"):
                    twin.quotient = a
                with pytest.raises(AttributeError, match="GNLA is immutable"):
                    twin.adapted.name = "renamed"
            elif obj is data:
                assert special_extension(twin) == special_extension(data)
                with pytest.raises(AttributeError, match="GNLA is immutable"):
                    twin.base.name = "renamed"
            else:
                assert hasattr(twin, "_groebner") == (obj is read)
                assert twin.groebner() == basis
                with pytest.raises(AttributeError,
                                   match="Polynomial is immutable"):
                    twin.generators[0]._scale = 1


def test_prolong_layer_argument_checks():
    a = catalog("heisenberg", dim=3)
    with pytest.raises(ValueError):
        prolong_layer(a, -1, [])
    with pytest.raises(ValueError):
        prolong_layer(a, 1, [])


def test_heisenberg3_layer_dims_match_monomial_count():
    a = catalog("heisenberg", dim=3)
    layers = []
    for k in range(5):
        lay = prolong_layer(a, k, layers)
        layers.append(lay)
        assert lay.dim == contact_layer_oracle(k)


def test_heisenberg7_chain_through_g4_matches_monomial_count():
    """The deepest chain of the suite: sparse layers keep it fast."""
    a = catalog("heisenberg", dim=7)
    layers = []
    for k in range(5):
        layers.append(prolong_layer(a, k, layers))
    dims = tuple(lay.dim for lay in layers)
    assert dims == (22, 62, 148, 314, 610)
    assert dims == tuple(contact_layer_oracle(k, 7) for k in range(5))
    for phi in (layers[4].maps[0], layers[4].maps[-1]):
        assert not leibniz_failures(a, layers[:4], phi)


def test_der0_heisenberg3_is_csp2():
    # sp(2) plus the grading direction
    a = catalog("heisenberg", dim=3)
    assert len(der0(a)) == 4


def test_der0_free_two_step_is_gl3():
    a = catalog("free2step3")
    assert len(der0(a)) == 9


def test_der0_satisfies_leibniz():
    for name, params in [("heisenberg", {"dim": 3}), ("goursat", {"n": 4}),
                         ("free2step3", {}), ("nontrivial6", {}),
                         ("kgen", {"k": 5})]:
        a = catalog(name, **params)
        for g in der0(a):
            assert leibniz_failures(a, [], g) == [], (name, g)


def test_higher_layers_satisfy_leibniz():
    a = catalog("goursat", n=3)
    layers = []
    for k in range(3):
        lay = prolong_layer(a, k, layers)
        for g in lay.maps:
            assert leibniz_failures(a, layers, g) == []
        layers.append(lay)


def test_random_combinations_satisfy_leibniz():
    """Leibniz is linear, so random combinations of layer maps pass too."""
    rng = random.Random(41)
    a = catalog("heisenberg", dim=3)
    layers = [prolong_layer(a, 0, [])]
    layers.append(prolong_layer(a, 1, layers))
    for lay in layers:
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in lay.maps]
            blocks = {}
            for i in lay.maps[0].blocks:
                acc = None
                for c, g in zip(coeffs, lay.maps):
                    term = g.blocks[i].scale(c)
                    acc = term if acc is None else acc + term
                blocks[i] = acc
            combo = type(lay.maps[0])(degree=lay.degree, blocks=blocks)
            assert leibniz_failures(a, layers[:lay.degree], combo) == []


def test_h0_heisenberg_is_symplectic():
    """Maps killing the center form sp(n1) inside End of the first layer."""
    a3 = catalog("heisenberg", dim=3)
    a5 = catalog("heisenberg", dim=5)
    assert h0(a3).dim == 3
    assert h0(a5).dim == 10


def test_h0_free_two_step_is_zero():
    # no nonzero A has A x wedge y + x wedge A y = 0 for all pairs
    assert h0(catalog("free2step3")).dim == 0


def test_h0_elements_are_derivations():
    for name, params in [("heisenberg", {"dim": 3}), ("goursat", {"n": 5}),
                         ("mixedjet", {"k": 2})]:
        a = catalog(name, **params)
        for b in h0(a).basis:
            gm = h0_as_graded_map(a, b)
            assert leibniz_failures(a, [], gm) == []


def test_h0_lies_inside_der0_first_blocks():
    a = catalog("goursat", n=4)
    first_blocks = MatrixSubspace.from_matrices(
        a.layer_dim(1), [g.block(1) for g in der0(a)])
    for b in h0(a).basis:
        assert first_blocks.contains(b)


def test_h0_matches_reference_system():
    """Same RREF basis as the hand-built system on every catalog algebra,
    every pencil and seeded random 2-step algebras."""
    rng = random.Random(4243)
    algebras = catalog_algebras()
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 3]
    for a in algebras:
        assert h0(a).basis == reference_h0(a).basis, a.name


def reference_h0_combination(a):
    """h0 with the dense combination of first blocks it used before the
    sparse one: every entry summed over every combination coefficient."""
    n1 = a.layer_dim(1)
    maps = der0(a)
    deeper = [tuple(e for i in range(2, a.depth + 1) if i in g.blocks
                    for e in g.blocks[i].flatten()) for g in maps]
    if maps and deeper[0]:
        combos = kernel_basis(from_columns(deeper)).basis
    else:
        combos = identity(len(maps)).rows
    firsts = [g.blocks[1].flatten() for g in maps if 1 in g.blocks]
    mats = []
    for c in combos:
        flat = [sum(ck * f[e] for ck, f in zip(c, firsts) if ck)
                for e in range(n1 * n1)]
        mats.append(Matrix([flat[r * n1:(r + 1) * n1] for r in range(n1)]))
    return MatrixSubspace.from_matrices(n1, mats)


def test_h0_matches_dense_combination():
    """The sparse combination of first blocks gives the same basis on the
    catalog, the pencils, random 2-step algebras, their signed
    permutations and dense copies, and Jacobi-broken and degenerate
    algebras."""
    nonzero = 0
    for a in table_cases(9106):
        got = h0(a)
        assert got.basis == reference_h0_combination(a).basis, a.name
        assert got.span == reference_h0_combination(a).span
        nonzero += got.dim > 0
    assert nonzero >= 20


def test_h0_is_one_kernel_of_the_cut_system(monkeypatch):
    """h0 solves the degree 0 system cut to m_{-1} in one elimination:
    one _integer_kernel call, and no call to _kernel, der0, prolong_layer
    or kernel_basis."""
    from gnla import linalg

    calls = {"_integer_kernel": 0, "_kernel": 0, "der0": 0,
             "prolong_layer": 0, "kernel_basis": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "_kernel",
                        counted("_kernel", linalg._kernel))
    monkeypatch.setattr(prolongation, "_integer_kernel", counted(
        "_integer_kernel", prolongation._integer_kernel))
    for mod in (linalg, prolongation):
        if hasattr(mod, "kernel_basis"):
            monkeypatch.setattr(mod, "kernel_basis",
                                counted("kernel_basis", mod.kernel_basis))
    for name in ("der0", "prolong_layer"):
        monkeypatch.setattr(prolongation, name,
                            counted(name, getattr(prolongation, name)))
    for a in (catalog("heisenberg", dim=5), catalog("goursat", n=5),
              catalog("mixedjet", k=3), catalog("from_pencil", blocks="M:2"),
              catalog("free2step3")):
        for name in calls:
            calls[name] = 0
        space = h0(a)
        assert calls == {"_integer_kernel": 1, "_kernel": 0, "der0": 0,
                         "prolong_layer": 0, "kernel_basis": 0}, a.name
        assert space.basis == reference_h0(a).basis


def test_matrix_subspace_basics():
    m1 = Matrix([[1, 0], [0, 0]])
    m2 = Matrix([[0, 1], [0, 0]])
    s = MatrixSubspace.from_matrices(2, [m1, m2, m1 + m2])
    assert s.dim == 2
    assert s.contains(Matrix([[2, -3], [0, 0]]))
    assert not s.contains(Matrix([[0, 0], [1, 0]]))
    with pytest.raises(ValueError):
        MatrixSubspace.from_matrices(3, [m1])


def test_iteration_finite_free_two_step():
    v = classify_by_iteration(catalog("free2step3"), max_degree=5)
    assert v.kind == "finite"
    assert v.layer_dims == (9, 3, 3, 0)
    assert v.total_dim == 21


def test_iteration_finite_kgen5():
    v = classify_by_iteration(catalog("kgen", k=5), max_degree=4)
    assert v.kind == "finite"
    assert v.layer_dims == (4, 0)
    assert v.total_dim == 12


def test_iteration_inconclusive_on_chain():
    # rank one witness models never terminate; budget runs out honestly
    v = classify_by_iteration(catalog("goursat", n=4), max_degree=3)
    assert v.kind == "inconclusive"
    assert v.total_dim is None
    assert v.layer_dims == (3, 4, 5, 7)
    assert len(v.layers) == 4


def test_zero_layer_stops_iteration():
    v = classify_by_iteration(catalog("free2step3"), max_degree=10)
    assert v.layer_dims[-1] == 0
    assert len(v.layer_dims) == 4
