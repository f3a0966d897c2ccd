import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from cases import (
    PENCIL_BLOCKS,
    catalog_algebras,
    full_block_change,
    random_two_step,
    signed_permutation,
    witness_cases,
)
from gnla import (
    GNLA,
    Cochain2,
    ExtensionData,
    Matrix,
    MatrixSubspace,
    Polynomial,
    Subspace,
    WitnessInvalid,
    ad_matrix,
    bracket,
    catalog,
    change_basis,
    classify,
    decompose_special_extension,
    h0,
    kernel_basis,
    layer,
    leibniz_failures,
    minor_ideal,
    only_trivial_zero,
    quotient,
    rank1_derivation_from_witness,
    rank1_in_span,
    rank1_witness,
    solve,
    special_extension,
    spencer_subspace_check,
    validate,
)
from gnla.certifier import _minors


def closure_example():
    """Two-step algebra whose infinite type is only visible over the
    closure: no rational rank one element at the default height, but the
    minor ideal has a nontrivial zero."""
    basis = [("X1", -1), ("X2", -1), ("X3", -1), ("X4", -1),
             ("W1", -2), ("W2", -2)]
    brackets = {
        (0, 1): [(4, 3), (5, 3)],
        (0, 2): [(4, -3), (5, -3)],
        (0, 3): [(4, -3), (5, -1)],
        (1, 2): [(4, 3), (5, -2)],
        (1, 3): [(4, 2), (5, 3)],
        (2, 3): [(4, 2), (5, 3)],
    }
    return GNLA("closure_example", basis, brackets)


def degenerate_example():
    # X3 is central of degree -1
    return GNLA("degen", [("X1", -1), ("X2", -1), ("X3", -1), ("W", -2)],
                {(0, 1): [(3, 1)]})


def reference_rank1_witness(a, height_bound=3):
    """The degree -1 basis vectors, last declared first, then e_p + t e_q
    over basis pairs with t on the rational ladder, each tested by
    building ad y.  The loop rank1_witness ran before it went through
    rank1_in_span; an oracle only."""
    pos1 = list(reversed(a.layer_positions(1)))
    for p in pos1:
        y = a.basis_vector(p)
        if ad_matrix(a, y).rank == 1:
            return y
    ladder = []
    for d in range(1, height_bound + 1):
        for n in range(1, height_bound + 1):
            if gcd(n, d) == 1:
                ladder += [Fraction(n, d), Fraction(-n, d)]
    for i, p in enumerate(pos1):
        for q in pos1[i + 1:]:
            base = a.basis_vector(p)
            other = a.basis_vector(q)
            for t in ladder:
                y = tuple(x + t * z for x, z in zip(base, other))
                if ad_matrix(a, y).rank == 1:
                    return y
    return None


def test_rank1_witness_matches_reference_loop():
    """The same witness as the direct loop on every catalog algebra,
    every pencil and seeded random 2-step algebras, at two heights."""
    rng = random.Random(4247)
    algebras = catalog_algebras() + [closure_example()]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 3]
    for a in algebras:
        for height in (1, 3):
            assert (rank1_witness(a, height_bound=height)
                    == reference_rank1_witness(a, height)), (a.name, height)


def reference_rank1_in_span(mats, height_bound=2, combo_budget=30000):
    """Every candidate summed as a Fraction Matrix and tested by rank():
    the loop rank1_in_span ran before its integer row test; an oracle
    only."""
    t = len(mats)
    ladder = []
    for d in range(1, height_bound + 1):
        for n in range(1, height_bound + 1):
            if gcd(n, d) == 1:
                ladder += [Fraction(n, d), Fraction(-n, d)]
    candidates = [(m, {i: 1}) for i, m in enumerate(mats)]
    candidates += [(mats[i] + mats[j].scale(q), {i: 1, j: q})
                   for i in range(t) for j in range(i + 1, t) for q in ladder]
    for m, coeffs in candidates:
        if m.rank() == 1:
            return tuple(Fraction(coeffs.get(k, 0)) for k in range(t))
    if t and 3 ** t <= combo_budget:
        for signs in itertools.product((-1, 0, 1), repeat=t):
            if any(signs) and next(s for s in signs if s) > 0:
                m = Matrix.zero(mats[0].nrows, mats[0].ncols)
                for s, mat in zip(signs, mats):
                    m = m + mat.scale(s)
                if m.rank() == 1:
                    return tuple(Fraction(s) for s in signs)
    return None


def test_rank1_in_span_matches_reference_loop():
    """Seeded spans of rational matrices with a rank 1 element planted
    as a single matrix, as a pair with a rational weight, as a signed
    sum of three, or not at all."""
    rng = random.Random(6143)
    values = [Fraction(0)] * 4 + [Fraction(n, d) for n in (-3, -1, 1, 2)
                                  for d in (1, 2, 5)]
    found = set()
    for trial in range(160):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)

        def rand():
            return Matrix([[rng.choice(values) for _ in range(ncols)]
                           for _ in range(nrows)])
        u = [rng.choice(values) for _ in range(nrows)]
        v = [rng.choice(values) for _ in range(ncols)]
        r = Matrix([[x * y for y in v] for x in u])
        b, c = rand(), rand()
        q = Fraction(rng.choice((1, -1, 2, -2)), rng.choice((1, 2)))
        mats = [[rand(), rand()], [rand(), r, rand()], [r - b.scale(q), b],
                [b, c, r - b - c], [b, c, rand(), r + b - c]][trial % 5]
        budget = rng.choice((0, 30000))
        got = rank1_in_span(mats, height_bound=2, combo_budget=budget)
        assert got == reference_rank1_in_span(mats, 2, budget), trial
        found.add(None if got is None else sum(1 for x in got if x))
    assert found >= {None, 1, 2, 3}


def test_spencer_check_of_ad_span_agrees_with_minor_ideal():
    """Both rank 1 questions share one minor builder: for a nondegenerate
    algebra the span of ad e_p over the degree -1 basis has a rank 1
    point over the closure exactly when the minor ideal has a nontrivial
    zero."""
    checked = 0
    for a in catalog_algebras():
        if a.layer_dim(1) > 5 or not validate(a).checks["nondegenerate"]:
            continue
        span = MatrixSubspace.from_matrices(
            a.dim, [ad_matrix(a, a.basis_vector(p)).matrix
                    for p in a.layer_positions(1)])
        assert span.dim == a.layer_dim(1), a.name
        assert (spencer_subspace_check(span)
                == (not only_trivial_zero(minor_ideal(a)))), a.name
        checked += 1
    assert checked >= 20


def test_rank1_witness_pinned_values():
    assert rank1_witness(catalog("heisenberg", dim=3)) == (0, 1, 0)
    g4 = catalog("goursat", n=4)
    w = rank1_witness(g4)
    assert w == g4.basis_vector(g4.label_index("Z1"))
    assert rank1_witness(catalog("free2step3")) is None
    assert rank1_witness(catalog("kgen", k=5)) is None


def test_rank1_witness_has_rank_one():
    for name, params in [("heisenberg", {"dim": 5}), ("goursat", {"n": 3}),
                         ("mixedjet", {"k": 2}), ("nontrivial6", {})]:
        a = catalog(name, **params)
        w = rank1_witness(a)
        assert w is not None, name
        assert ad_matrix(a, w).rank == 1


def test_minor_ideal_vanishes_on_witness_coordinates():
    """Every generator is a 2x2 minor of the generic ad matrix, so it
    evaluates to zero at the coordinates of any rank one element."""
    for name, params in [("heisenberg", {"dim": 3}), ("goursat", {"n": 5}),
                         ("nontrivial6", {})]:
        a = catalog(name, **params)
        w = rank1_witness(a)
        ideal = minor_ideal(a)
        point = a.layer_coordinates(1, w)
        for g in ideal.generators:
            assert g.evaluate(point) == 0


def test_minor_ideal_heisenberg_is_zero_ideal():
    # a single nonzero ad row never produces a 2x2 minor
    ideal = minor_ideal(catalog("heisenberg", dim=3))
    assert all(g.is_zero() for g in ideal.generators)
    assert not only_trivial_zero(ideal)


def test_minor_ideal_free_two_step_only_trivial():
    assert only_trivial_zero(minor_ideal(catalog("free2step3")))


def test_closure_example_splits_the_certificates():
    a = closure_example()
    assert validate(a).all_passed
    assert rank1_witness(a) is None
    assert not only_trivial_zero(minor_ideal(a))
    v = classify(a, max_degree=1)
    assert v.kind == "infinite"
    assert v.certificate == "closure"


def test_rank1_in_span():
    e11 = Matrix([[1, 0], [0, 0]])
    e22 = Matrix([[0, 0], [0, 1]])
    coeffs = rank1_in_span([e11, e22])
    assert coeffs == (1, 0)
    # combination needed: e11+e22 and e11-e22 sum to 2 e11
    got = rank1_in_span([e11 + e22, e11 - e22])
    assert got is not None
    combo = (e11 + e22).scale(got[0]) + (e11 - e22).scale(got[1])
    assert combo.rank() == 1
    # rotation matrices have determinant a^2 + b^2, never rank 1
    assert rank1_in_span([Matrix.identity(2),
                          Matrix([[0, -1], [1, 0]])]) is None


def test_spencer_subspace_check():
    ident = MatrixSubspace.from_matrices(2, [Matrix.identity(2)])
    assert not spencer_subspace_check(ident)
    diag = MatrixSubspace.from_matrices(
        2, [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]])])
    assert spencer_subspace_check(diag)
    # no rational rank one element, but over the closure (1, i) works
    rot = MatrixSubspace.from_matrices(
        2, [Matrix.identity(2), Matrix([[0, -1], [1, 0]])])
    assert rank1_in_span(rot.basis) is None
    assert spencer_subspace_check(rot)
    zero = MatrixSubspace.from_matrices(2, [])
    assert not spencer_subspace_check(zero)


def test_rank1_derivation_is_a_derivation():
    for name, params in [("heisenberg", {"dim": 3}), ("goursat", {"n": 4}),
                         ("mixedjet", {"k": 3})]:
        a = catalog(name, **params)
        w = rank1_witness(a)
        d = rank1_derivation_from_witness(a, w)
        assert d.degree == 0
        assert d.block(1).rank() == 1
        assert leibniz_failures(a, [], d) == []


def test_rank1_derivation_rejects_bad_witness():
    a = catalog("free2step3")
    with pytest.raises(WitnessInvalid):
        rank1_derivation_from_witness(a, a.basis_vector(0))


def test_decompose_heisenberg_along_y():
    a = catalog("heisenberg", dim=3)
    d = decompose_special_extension(a, (0, 1, 0))
    assert d.quotient.dim == 1
    assert d.cocycle.s == 2
    assert d.cocycle.is_zero()
    assert len(d.ideal_basis) == 2
    assert d.witness == (0, 1, 0)
    assert d.adapted.labels == ("X", "Y1", "Y2")
    assert validate(d.adapted).structural_ok


def test_decompose_ideal_is_commutative_and_stable():
    for name, params in [("goursat", {"n": 5}), ("nontrivial6", {}),
                         ("mixedjet", {"k": 2})]:
        a = catalog(name, **params)
        w = rank1_witness(a)
        d = decompose_special_extension(a, w)
        from gnla import Subspace
        v = Subspace(a.dim, list(d.ideal_basis))
        # commutative
        for u1 in d.ideal_basis:
            for u2 in d.ideal_basis:
                assert all(c == 0 for c in bracket(a, u1, u2))
        # ideal: brackets with the whole algebra stay inside
        for i in range(a.dim):
            for u in d.ideal_basis:
                assert v.contains(bracket(a, a.basis_vector(i), u))
        # one-dimensional layers starting from the witness
        assert v.contains(w)
        assert len(d.ideal_basis) == d.cocycle.s


def test_decompose_adapted_is_isomorphic():
    """The adapted algebra is the same algebra in a new basis, so the
    layer dimensions and validity carry over."""
    a = catalog("goursat", n=4)
    d = decompose_special_extension(a, rank1_witness(a))
    assert d.adapted.layer_dims() == a.layer_dims()
    assert validate(d.adapted).all_passed
    # transversal is moved onto the first adapted basis vector
    assert d.adapted.labels[0] == "X"
    assert ad_matrix(a, d.witness).matrix.apply(d.transversal) != (
        (0,) * a.dim)


def reference_decomposition(a, d):
    """The adapted algebra, quotient and cocycle of a decomposition as
    decompose_special_extension read them before it split the adapted
    brackets: the chain is completed by growing a Subspace one candidate
    at a time, the quotient comes from quotient() and the cocycle from
    one solve per pair of representatives.  An oracle only."""
    n = a.dim
    x_vec, chain = d.transversal, list(d.ideal_basis)
    s = len(chain)
    w_full = kernel_basis(ad_matrix(a, d.witness).matrix)
    z_vectors = []
    acc = Subspace(n, [x_vec] + chain)
    candidates = list(w_full.intersect(layer(a, 1)).basis)
    for i in range(2, a.depth + 1):
        candidates += [a.basis_vector(p) for p in a.layer_positions(i)]
    for cand in candidates:
        grown = Subspace(n, list(acc.basis) + list(z_vectors) + [cand])
        if grown.dim > acc.dim + len(z_vectors):
            z_vectors.append(cand)
    labels = (["X"] + ["Y%d" % (i + 1) for i in range(s)]
              + ["Z%d" % (i + 1) for i in range(len(z_vectors))])
    adapted = change_basis(a, [x_vec] + chain + z_vectors, labels)

    reps = [x_vec] + z_vectors
    rep_labels = ["X"] + ["Z%d" % (i + 1) for i in range(len(z_vectors))]
    base = quotient(a, Subspace(n, chain), reps, rep_labels)
    decomp = Matrix.from_columns(reps + chain)
    values = {}
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            w = solve(decomp, bracket(a, reps[i], reps[j]))
            val = tuple(w[len(reps):])
            if any(c != 0 for c in val):
                values[(i, j)] = val
    return adapted, base, Cochain2.from_dict(s, values)


def test_decomposition_matches_reference_tail():
    """Every catalog algebra with a rational witness, a signed permutation
    of each and seeded random 2-step algebras split into the reference
    adapted algebra, quotient and cocycle."""
    cases = witness_cases(9002)
    assert len(cases) >= 50
    for a, w in cases:
        d = decompose_special_extension(a, w)
        adapted, base, cocycle = reference_decomposition(a, d)
        assert d.adapted == adapted, a.name
        assert d.quotient == base, a.name
        assert d.cocycle == cocycle, a.name
        assert d.quotient.name == a.name + "_base"


def test_witness_on_a_degenerate_algebra_is_rejected():
    """X1 has rank ad X1 = 1, but X3 is central of degree -1."""
    a = degenerate_example()
    y = a.basis_vector(0)
    assert ad_matrix(a, y).rank == 1
    for split in (decompose_special_extension, rank1_derivation_from_witness):
        with pytest.raises(WitnessInvalid) as exc:
            split(a, y)
        assert str(exc.value) == "the algebra is degenerate"


def test_decompose_names_the_failed_ideal_condition():
    """Algebras that break Jacobi, where rank ad Y = 1 but the chain Y,
    [X, Y], ... is not an ideal, not commutative, or not centralized by
    ker ad Y."""
    basis = [("X", -1), ("Y", -1), ("A", -1), ("Z", -2), ("T", -3)]
    for name, a in [
            ("chain span is not an ideal", GNLA("a", basis, {
                (0, 1): [(3, 1)], (1, 2): [(3, -1)], (2, 3): [(4, 1)]})),
            ("chain span is not commutative", GNLA("c", [
                ("X", -1), ("Y", -1), ("Z", -2), ("T", -3), ("U", -4),
                ("V", -5)], {(0, 1): [(2, 1)], (0, 2): [(3, 1)],
                             (0, 3): [(4, 1)], (0, 4): [(5, 1)],
                             (2, 3): [(5, 1)]})),
            ("kernel of ad y does not centralize the chain", GNLA("z", basis, {
                (0, 1): [(3, 1)], (0, 3): [(4, 1)], (2, 3): [(4, 1)]}))]:
        y = a.basis_vector(1)
        assert ad_matrix(a, y).rank == 1
        with pytest.raises(WitnessInvalid) as exc:
            decompose_special_extension(a, y)
        assert str(exc.value) == name


def test_decompose_rejects_rank_two():
    a = catalog("free2step3")
    with pytest.raises(WitnessInvalid):
        decompose_special_extension(a, a.basis_vector(0))


def test_classify_infinite_rational():
    v = classify(catalog("heisenberg", dim=3))
    assert v.kind == "infinite"
    assert v.certificate == "rational_witness"
    assert v.witness == (0, 1, 0)


def test_classify_finite():
    v = classify(catalog("free2step3"))
    assert v.kind == "finite"
    assert v.total_dim == 21
    assert v.layer_dims == (9, 3, 3, 0)
    assert v.witness is None


def test_classify_degenerate():
    a = degenerate_example()
    v = classify(a)
    assert v.kind == "degenerate_infinite"
    assert v.certificate == "central_witness"
    assert v.witness == (0, 0, 1, 0)


def test_classify_rejects_invalid():
    bad = GNLA("bad", [("A", -1), ("B", -1), ("C", -2), ("D", -3)],
               {(0, 1): [(3, 1)]})
    with pytest.raises(ValueError):
        classify(bad)


def test_classify_cap_exceeded_is_inconclusive():
    # iteration budget 0 forces the ideal route; cap 1 aborts it
    v = classify(catalog("free2step3"), max_degree=0, degree_cap=1)
    assert v.kind == "inconclusive"
    assert v.cap_exceeded
    assert "degree cap" in v.note


def test_classify_inconclusive_when_budget_too_small():
    """Finite type algebra, iteration stopped before the zero layer, but
    the minor ideal still certifies the closure side."""
    v = classify(catalog("free2step3"), max_degree=0)
    assert v.kind == "inconclusive"
    assert not v.cap_exceeded
    assert "closure" in v.note


def test_classify_is_stable_under_basis_change():
    rng = random.Random(59)
    a = catalog("heisenberg", dim=3)
    for _ in range(5):
        while True:
            block = [[Fraction(rng.randint(-2, 2)) for _ in range(2)]
                     for _ in range(2)]
            if Matrix(block).det() != 0:
                break
        vecs = [a.embed_layer(1, row) for row in block]
        vecs.append(a.basis_vector(2))
        b = change_basis(a, vecs, ["U", "V", "W"])
        v = classify(b)
        assert v.kind == "infinite"
        assert ad_matrix(b, v.witness).rank == 1


def random_block_change(rng, a, w):
    """a in a random homogeneous basis: one random invertible block per
    layer, entries in [-2, 2].  One row of the degree -1 block, at a
    random place, is the witness w, because rank1_witness only searches
    supports of size two or less and a dense block hides every rank 1
    direction of most pencils from it."""
    vecs = []
    for i in range(1, a.depth + 1):
        k = a.layer_dim(i)
        while True:
            block = [[Fraction(rng.randint(-2, 2)) for _ in range(k)]
                     for _ in range(k)]
            if i == 1:
                block[rng.randrange(k)] = list(a.layer_coordinates(1, w))
            if Matrix(block).det() != 0:
                break
        vecs += [a.embed_layer(i, row) for row in block]
    return change_basis(a, vecs, ["U%d" % p for p in range(a.dim)])


def test_classify_is_stable_under_basis_change_on_the_catalog():
    """Every catalog algebra with a rational witness and dim <= 12 keeps
    its layer dims, its verdict kind, a rank 1 witness and the
    decompose -> extend round trip under random block basis changes."""
    rng = random.Random(61)
    checked = 0
    for a in catalog_algebras():
        if a.dim > 12:
            continue
        v = classify(a)
        if v.certificate != "rational_witness":
            continue
        for _ in range(2):
            b = random_block_change(rng, a, v.witness)
            assert b.layer_dims() == a.layer_dims(), a.name
            vb = classify(b)
            assert (vb.kind, vb.certificate) == (v.kind, v.certificate), a.name
            assert ad_matrix(b, vb.witness).rank == 1, a.name
            d = decompose_special_extension(b, vb.witness)
            rebuilt = special_extension(ExtensionData.from_adapted_base(
                d.quotient, len(d.ideal_basis), d.cocycle))
            assert rebuilt == d.adapted, a.name
            assert d.adapted.layer_dims() == a.layer_dims(), a.name
        checked += 1
    assert checked >= 25


def reference_minors(mats, prefix):
    """The minor builder before the direct one: each 2x2 minor as a
    product of linear Polynomials."""
    t = len(mats)
    variables = tuple("%s%d" % (prefix, k + 1) for k in range(t))
    rows = sorted({r for m in mats for r, row in enumerate(m.rows) if any(row)})
    cols = sorted({c for m in mats for row in m.rows
                   for c, e in enumerate(row) if e})

    def entry(r, c):
        terms = {}
        for k, m in enumerate(mats):
            if m[r, c] != 0:
                exp = [0] * t
                exp[k] = 1
                terms[tuple(exp)] = m[r, c]
        return Polynomial(variables, terms)

    entries = {(r, c): entry(r, c) for r in rows for c in cols}
    seen = set()
    gens = []
    for r1, r2 in itertools.combinations(rows, 2):
        for c1, c2 in itertools.combinations(cols, 2):
            m = (entries[r1, c1] * entries[r2, c2]
                 - entries[r1, c2] * entries[r2, c1])
            if m.is_zero():
                continue
            if m.leading()[1] < 0:
                m = -m
            if m.key() not in seen:
                seen.add(m.key())
                gens.append(m)
    return variables, gens


def test_minors_match_reference_builder():
    """Same variables, same generators in the same order, on the degree
    -1 ad spans of the catalog, the pencils, their signed permutations
    and seeded random 2-step algebras, and on a few h0 spans."""
    rng = random.Random(89)
    algebras = catalog_algebras()
    algebras += [signed_permutation(rng, a) for a in algebras]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 4]
    spans = [[ad_matrix(a, a.basis_vector(p)).matrix
              for p in a.layer_positions(1)] for a in algebras]
    spans += [h0(catalog(name, **params)).basis for name, params in (
        ("heisenberg", {"dim": 3}), ("goursat", {"n": 4}),
        ("free2step3", {}), ("from_pencil", {"blocks": "F:2"}))]
    for mats in spans:
        want_vars, want = reference_minors(mats, "y")
        got_vars, got = _minors(mats, "y")
        assert got_vars == want_vars
        assert [g.terms for g in got] == [g.terms for g in want]
        assert [str(g) for g in got] == [str(g) for g in want]


def test_classify_closure_example_at_default_budgets():
    """The minor ideal settles the closure verdict before any layer is
    built, so no layer dims come with it."""
    v = classify(closure_example())
    assert (v.kind, v.certificate) == ("infinite", "closure")
    assert v.layer_dims is None
    assert v.total_dim is None and v.witness is None


def test_pencils_stay_infinite_under_full_block_changes():
    """Every catalog pencil with dim <= 12 is infinite (the paper's
    metabelian theorem), whatever rank 1 directions a dense basis hides
    from the rational search; a rational witness has rank 1."""
    rng = random.Random(97)
    closure = 0
    for blocks in PENCIL_BLOCKS:
        a = catalog("from_pencil", blocks=blocks)
        if a.dim > 12:
            continue
        b = full_block_change(rng, a)
        v = classify(b)
        assert v.kind == "infinite", blocks
        if v.certificate == "rational_witness":
            assert ad_matrix(b, v.witness).rank == 1, blocks
        else:
            assert v.certificate == "closure", blocks
            assert v.layer_dims is None, blocks
            closure += 1
    assert closure >= 6
