import random
from fractions import Fraction

import pytest

from cases import (
    catalog_algebras,
    random_two_step,
    signed_permutation,
    table_cases,
)
from gnla import (
    GNLA,
    Matrix,
    MatrixSubspace,
    Subspace,
    catalog,
    classify_by_iteration,
    der0,
    h0,
    h0_as_graded_map,
    kernel_basis,
    leibniz_failures,
    prolong_layer,
    prolongation,
)
from gnla.linalg import zero_vector
from gnla.prolongation import (
    GradedMap,
    ProlongationLayer,
    _block_shapes,
    _target_dim,
)


def contact_layer_oracle(k):
    """Monomial count #{(a,b,c) >= 0 : a + b + 2c = k + 2}."""
    return sum(1 for a in range(k + 3) for b in range(k + 3)
               for c in range(k + 3) if a + b + 2 * c == k + 2)


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

    sol = kernel_basis(Matrix(rows)) if rows else Subspace.full(total)
    mats = [Matrix([row[i * n1:(i + 1) * n1] for i in range(n1)])
            for row in sol.basis]
    return MatrixSubspace.from_matrices(n1, mats)


def reference_prolong_layer(a, k, lower):
    """The dense Leibniz system builder gnla used before its rows were
    sparse dicts, verbatim except that it also returns the number of
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
                    cols.append(b.column(q_idx))
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
        return ProlongationLayer(degree=k, maps=()), 0
    if rows:
        sol = kernel_basis(Matrix(rows))
    else:
        sol = Subspace.full(total)

    maps = []
    for flat in sol.basis:
        blocks = {}
        for i, tgt, src in shapes:
            off = offsets[i]
            blocks[i] = Matrix([flat[off + r * src: off + (r + 1) * src]
                                for r in range(tgt)])
        maps.append(GradedMap(degree=k, blocks=blocks))
    return ProlongationLayer(degree=k, maps=tuple(maps)), len(rows)


def test_prolong_layer_matches_the_dense_builder(monkeypatch):
    """Equal maps, block by block, and the same number of system rows as
    the dense builder, at degrees 0-2 on every catalog algebra, every
    pencil and seeded random 2-step algebras, and on a signed permutation
    of each; each chain is fed its own lower layers."""
    rows_seen = []
    kernel = prolongation._kernel

    def count_rows(rows, ncols):
        rows_seen.append(len(rows))
        return kernel(rows, ncols)

    monkeypatch.setattr(prolongation, "_kernel", count_rows)
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
            assert sum(rows_seen) == ref_rows, (a.name, k)
            layers.append(lay)
            ref_layers.append(ref)


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
        combos = kernel_basis(Matrix.from_columns(deeper)).basis
    else:
        combos = Subspace.full(len(maps)).basis
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
