import random
from fractions import Fraction

import pytest

from cases import (
    catalog_algebras,
    full_block_change,
    perturbed,
    random_two_step,
    signed_permutation,
    table_cases,
    witness_cases,
)
from dense import bracket as reference_bracket
from dense import change_basis as reference_change_basis
from dense import from_columns, identity, intersect
from gnla import (
    GNLA,
    AdMatrix,
    ExtensionData,
    Matrix,
    Subspace,
    ad_matrix,
    bracket,
    catalog,
    center,
    change_basis,
    classify,
    decompose_special_extension,
    kernel_basis,
    layer,
    parse_algebra,
    quotient,
    rank1_witness,
    serialize_algebra,
    solve,
    special_extension,
    validate,
    vector,
)
from gnla.algebra import _split
from gnla.linalg import independent_rows


def heis3():
    return GNLA("heis3", [("X", -1), ("Y", -1), ("Z", -2)],
                {(0, 1): [(2, 1)]})


def goursat_chain(n):
    """X, Z1 in degree -1 and [X, Z_i] = Z_{i+1}; the rank one model."""
    return GNLA("chain%d" % n,
                [("X", -1)] + [("Z%d" % i, -i) for i in range(1, n)],
                {(0, i): [(i + 1, 1)] for i in range(1, n - 1)})


def test_basic_attributes():
    a = heis3()
    assert a.dim == 3
    assert a.depth == 2
    assert a.layer_dims() == (2, 1)
    assert a.layer_positions(1) == (0, 1)
    assert a.layer_positions(2) == (2,)
    assert a.label_index("Z") == 2
    with pytest.raises(KeyError):
        a.label_index("W")
    assert a.basis_vector(1) == (0, 1, 0)


def test_constructor_normalizes_coefficients():
    a = GNLA("t", [("A", -1), ("B", -1), ("C", -2)],
             {(0, 1): [(2, "1/2"), (2, "1/2")]})
    assert a.brackets[(0, 1)] == ((2, Fraction(1)),)
    b = GNLA("t", [("A", -1), ("B", -1), ("C", -2)],
             {(0, 1): [(2, 1), (2, -1)]})
    assert (0, 1) not in b.brackets


def test_constructor_rejections():
    with pytest.raises(ValueError):
        GNLA("t", [("A", -1), ("A", -1)], {})
    with pytest.raises(ValueError):
        GNLA("t", [("A", 0)], {})
    with pytest.raises(ValueError):
        GNLA("t", [("A", -1), ("B", -1)], {(1, 0): [(0, 1)]})
    with pytest.raises(ValueError):
        GNLA("t", [("A", -1), ("B", -1)], {(0, 1): [(5, 1)]})


def test_immutability():
    a = heis3()
    with pytest.raises(AttributeError):
        a.name = "other"


def test_equality_ignores_name():
    assert heis3() == GNLA("renamed", [("X", -1), ("Y", -1), ("Z", -2)],
                           {(0, 1): [(2, 1)]})


def test_pair_bracket_antisymmetry():
    a = catalog("free2step3")
    for i in range(a.dim):
        assert a.pair_bracket(i, i) == (0,) * a.dim
        for j in range(a.dim):
            plus = a.pair_bracket(i, j)
            minus = a.pair_bracket(j, i)
            assert tuple(-c for c in plus) == minus


def test_bracket_bilinear_and_antisymmetric():
    rng = random.Random(31)
    a = catalog("free2step3")
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.dim))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.dim))
        z = tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.dim))
        xy = bracket(a, x, y)
        assert bracket(a, y, x) == tuple(-c for c in xy)
        lhs = bracket(a, tuple(2 * xi + zi for xi, zi in zip(x, z)), y)
        rhs = tuple(2 * p + q for p, q in
                    zip(xy, bracket(a, z, y)))
        assert lhs == rhs


def test_layer_coordinates_round_trip():
    a = catalog("mixedjet", k=3)
    v = a.embed_layer(2, (5, 7))
    assert a.layer_coordinates(2, v) == (5, 7)
    assert sum(1 for c in v if c != 0) == 2


def test_ad_matrix_rank_one_on_chain():
    a = goursat_chain(4)
    ad = ad_matrix(a, a.basis_vector(1))
    assert ad.rank == 1
    assert ad.matrix.apply(a.basis_vector(0)) == bracket(
        a, a.basis_vector(1), a.basis_vector(0))


def test_ad_matrix_requires_degree_minus_one_support():
    a = heis3()
    with pytest.raises(ValueError):
        ad_matrix(a, (0, 0, 1))


def test_center_of_heisenberg():
    a = heis3()
    z = center(a)
    assert z.dim == 1
    assert z.contains((0, 0, 1))


def test_layer_subspace():
    a = catalog("nontrivial6")
    l1 = layer(a, 1)
    assert l1.dim == a.layer_dim(1)
    with pytest.raises(ValueError):
        layer(a, 0)


def test_validate_catalog_entries_are_clean():
    for a in [catalog("heisenberg", dim=3), catalog("goursat", n=4),
              catalog("free2step3"), catalog("nontrivial6"),
              catalog("mixedjet", k=2), catalog("kgen", k=5)]:
        rep = validate(a)
        assert rep.all_passed, (a.name, rep.failures)
        assert rep.layer_dims == a.layer_dims()


def test_validate_flags_grading():
    a = GNLA("bad", [("A", -1), ("B", -1), ("C", -2), ("D", -3)],
             {(0, 1): [(3, 1)]})
    rep = validate(a)
    assert not rep.checks["grading"]
    assert ("grading", ("A", "B")) in rep.failures
    assert not rep.structural_ok


def test_validate_flags_jacobi():
    # chain with an extra [Z1,Z2] = Z3 term; the triple (X,Z1,Z2) breaks
    a = GNLA("bad", [("X", -1), ("Z1", -1), ("Z2", -2),
                     ("Z3", -3), ("Z4", -4)],
             {(0, 1): [(2, 1)], (0, 2): [(3, 1)], (0, 3): [(4, 1)],
              (1, 2): [(3, 1)]})
    rep = validate(a)
    assert not rep.checks["jacobi"]
    assert ("jacobi", ("X", "Z1", "Z2")) in rep.failures


def test_validate_flags_not_generated():
    a = GNLA("bad", [("A", -1), ("B", -1), ("C", -2)], {})
    rep = validate(a)
    assert not rep.checks["generated"]
    assert ("generated", (2,)) in rep.failures


def test_validate_flags_degenerate():
    a = GNLA("bad", [("A", -1), ("B", -1), ("C", -1), ("D", -2)],
             {(0, 1): [(3, 1)]})
    rep = validate(a)
    assert rep.structural_ok
    assert not rep.checks["nondegenerate"]
    assert not rep.all_passed
    kinds = [k for k, _ in rep.failures]
    assert kinds == ["nondegenerate"]
    assert rep.failures[0][1][0] == (0, 0, 1, 0)


def test_change_basis_preserves_structure():
    a = heis3()
    b = change_basis(a, [(1, 1, 0), (0, 1, 0), (0, 0, 2)],
                     ["U", "V", "W"])
    # [U, V] = [X + Y, Y] = Z = W/2
    assert b.brackets[(0, 1)] == ((2, Fraction(1, 2)),)
    assert validate(b).all_passed
    back = change_basis(b, [(1, -1, 0), (0, 1, 0), (0, 0, "1/2")],
                        ["X", "Y", "Z"])
    assert back == a


def test_change_basis_random_invertible():
    """Conjugating by a random graded transform keeps validity and dims."""
    rng = random.Random(37)
    a = catalog("kgen", k=4)
    for _ in range(10):
        vecs = []
        for i in range(1, a.depth + 1):
            pos = a.layer_positions(i)
            k = len(pos)
            while True:
                block = [[Fraction(rng.randint(-2, 2)) for _ in range(k)]
                         for _ in range(k)]
                from gnla import Matrix
                if Matrix(block).det() != 0:
                    break
            for row in block:
                vecs.append(a.embed_layer(i, row))
        b = change_basis(a, vecs, ["g%d" % i for i in range(a.dim)])
        assert validate(b).all_passed
        assert b.layer_dims() == a.layer_dims()


def test_change_basis_rejects_inhomogeneous():
    a = heis3()
    with pytest.raises(ValueError):
        change_basis(a, [(1, 0, 1), (0, 1, 0), (0, 0, 1)], ["U", "V", "W"])


def test_quotient_of_chain():
    a = goursat_chain(5)
    ideal = Subspace(a.dim, [a.basis_vector(a.dim - 1)])
    reps = [a.basis_vector(i) for i in range(a.dim - 1)]
    q = quotient(a, ideal, reps, ["X", "Z1", "Z2", "Z3"])
    assert q == goursat_chain(4)


def test_quotient_by_non_ideal_fails_validation():
    a = goursat_chain(4)
    # the line through X is not an ideal: [X, Z1] = Z2 escapes, so the
    # quotient refuses it rather than return an algebra that fails
    # generation and nondegeneracy
    bad = Subspace(a.dim, [a.basis_vector(0)])
    reps = [a.basis_vector(i) for i in range(1, a.dim)]
    with pytest.raises(ValueError, match="subspace is not an ideal"):
        quotient(a, bad, reps, ["Z1", "Z2", "Z3"])


def test_quotient_needs_complement():
    a = heis3()
    ideal = Subspace(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        quotient(a, ideal, [(1, 0, 0)], ["X"])


def test_quotient_names_the_malformed_input():
    """A label count off by one, a vector of the wrong length, an ungraded
    subspace, an inhomogeneous or dependent representative: each raises a
    ValueError that says which input is at fault, where a quotient used
    to drop labels or come out ill-graded."""
    a = catalog("goursat", n=4)
    x, z1, z2, z3 = (a.basis_vector(p) for p in range(4))
    line = Subspace(4, [z3])
    labels = ["X", "Z1", "Z2"]
    cases = [
        (line, [x, z1, z2], labels + ["W"],
         "need one label per representative"),
        (line, [x, z1, z2], labels[:2], "need one label per representative"),
        (line, [x, z1, z2[:3]], labels,
         "representatives and ideal must have the full dimension"),
        (Subspace(3, [(0, 0, 1)]), [x, z1, z2], labels,
         "representatives and ideal must have the full dimension"),
        # [X, Z2] = -Z2 in the old quotient: it failed validate's grading
        (Subspace(4, [[0, 0, 1, 1]]), [x, z1, z2], labels,
         "ideal is not graded"),
        (line, [x, z1, [0, 1, 1, 0]], labels,
         "representatives must be homogeneous"),
        (line, [x, z1, [0, 0, 0, 0]], labels,
         "representatives must be homogeneous"),
        (line, [x, z1, [1, 1, 0, 0]], labels,
         "representatives do not complement the ideal"),
        (line, [x, z1], labels[:2],
         "representatives do not complement the ideal"),
    ]
    for ideal, reps, names, message in cases:
        with pytest.raises(ValueError, match="^%s$" % message):
            quotient(a, ideal, reps, names)
    assert quotient(a, line, [x, z1, z2], labels) == catalog("goursat", n=3)


def reference_quotient(a, ideal, representatives, labels, name=None):
    """The quotient as gnla computed it before it went through
    change_basis: a dense matrix with the representatives and the ideal
    basis as columns, its rank, and one dense solve of each bracket of
    two representatives, read off in representative coordinates.  An
    oracle only."""
    n = a.dim
    reps = [vector(v) for v in representatives]
    r = len(reps)
    if r + ideal.dim != n:
        raise ValueError("representatives do not complement the ideal")
    decomp = from_columns(reps + [list(b) for b in ideal.basis])
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


def test_quotient_matches_reference():
    """Every catalog algebra modulo its deepest layer, a central ideal,
    and every witness algebra modulo the chain of its decomposition,
    over the transversal and the first basis vectors that complete it:
    the same document bytes as the dense reference."""
    quotients = []
    for a in catalog_algebras():
        deep = a.layer_positions(a.depth)
        assert intersect(center(a), layer(a, a.depth)) == layer(a, a.depth)
        reps = [a.basis_vector(p) for p in range(a.dim) if p not in deep]
        quotients.append((a, layer(a, a.depth), reps))
    for a, w in witness_cases(9006):
        d = decompose_special_extension(a, w)
        chain = list(d.ideal_basis)
        rows = chain + [d.transversal] + [a.basis_vector(p)
                                          for p in range(a.dim)]
        reps = [rows[i] for i in independent_rows(rows) if i >= len(chain)]
        quotients.append((a, Subspace(a.dim, chain), reps))
    assert len(quotients) >= 80
    for a, ideal, reps in quotients:
        labels = ["R%d" % i for i in range(len(reps))]
        got = quotient(a, ideal, reps, labels)
        want = reference_quotient(a, ideal, reps, labels)
        assert serialize_algebra(got) == serialize_algebra(want), a.name


def reference_jacobi_failures(a):
    """The dense Jacobi loop of validate before the sparse one: three
    bracket calls over full vectors per basis triple."""
    n = a.dim
    out = []
    for i in range(n):
        ei = a.basis_vector(i)
        for j in range(i + 1, n):
            ej = a.basis_vector(j)
            for k in range(j + 1, n):
                ek = a.basis_vector(k)
                total = bracket(a, a.pair_bracket(i, j), ek)
                total = tuple(x + y for x, y in zip(
                    total, bracket(a, a.pair_bracket(j, k), ei)))
                total = tuple(x + y for x, y in zip(
                    total, bracket(a, a.pair_bracket(k, i), ej)))
                if any(total):
                    out.append(
                        ("jacobi", (a.labels[i], a.labels[j], a.labels[k])))
    return out


def test_sparse_jacobi_matches_reference_loop():
    rng = random.Random(83)
    algebras = catalog_algebras()
    algebras += [signed_permutation(rng, a) for a in algebras[:20]]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 4]
    # in a dense basis every cyclic term of a deep algebra is nonzero
    deep = [full_block_change(rng, a) for a in algebras[:23]
            if a.depth >= 3 and a.dim <= 12]
    algebras += deep + [perturbed(rng, a) for a in deep]
    algebras.append(GNLA("bad", [("X", -1), ("Z1", -1), ("Z2", -2),
                                 ("Z3", -3), ("Z4", -4)],
                         {(0, 1): [(2, 1)], (0, 2): [(3, 1)],
                          (0, 3): [(4, 1)], (1, 2): [(3, 1)]}))
    broken = 0
    for a in algebras:
        rep = validate(a)
        want = reference_jacobi_failures(a)
        assert [f for f in rep.failures if f[0] == "jacobi"] == want, a.name
        assert rep.checks["jacobi"] == (not want), a.name
        broken += bool(want)
    assert broken >= len(deep) // 2


def reference_center(a):
    """The center as center computed it before the signed table: dense
    pair_bracket columns stacked into a Fraction matrix; an oracle only."""
    n = a.dim
    rows = []
    for j in range(n):
        cols = [a.pair_bracket(i, j) for i in range(n)]
        for k in range(n):
            row = [cols[i][k] for i in range(n)]
            if any(c != 0 for c in row):
                rows.append(row)
    if not rows:
        return Subspace(n, identity(n).rows)
    return kernel_basis(Matrix(rows))


def test_bracket_terms_is_the_signed_table():
    """bracket_terms(j, i) is bracket_terms(i, j) negated, empty on the
    diagonal, and the stored terms for i < j, on every algebra, including
    ones that break Jacobi or the grading."""
    for a in table_cases(8101):
        for i in range(a.dim):
            assert a.bracket_terms(i, i) == ()
            for j in range(i + 1, a.dim):
                terms = a.bracket_terms(i, j)
                assert terms == a.brackets.get((i, j), ())
                assert a.bracket_terms(j, i) == tuple(
                    (k, -c) for k, c in terms)
                assert all(c != 0 for _, c in terms)


def test_center_matches_reference():
    """The sparse center equals the dense reference, basis for basis."""
    for a in table_cases(8102):
        got = center(a)
        assert got.basis == reference_center(a).basis, a.name
        for z in got.basis:
            assert all(not any(bracket(a, z, a.basis_vector(j)))
                       for j in range(a.dim))


def reference_ad_matrix(a, y):
    """ad y from n dense reference_bracket columns."""
    y = tuple(Fraction(c) for c in y)
    cols = [reference_bracket(a, y, a.basis_vector(j)) for j in range(a.dim)]
    return AdMatrix(element=y, matrix=from_columns(cols))


def reference_layer(a, i):
    return Subspace(a.dim, [a.basis_vector(p) for p in a.layer_positions(i)])


def reference_validate(a):
    """validate before the sparse reads: the generated check compares
    dense Subspaces of pair_bracket vectors, and the central line is the
    dense center intersected with the dense degree -1 layer."""
    failures = []
    grading_ok = True
    for (i, j), terms in sorted(a.brackets.items()):
        want = a.degrees[i] + a.degrees[j]
        if any(a.degrees[k] != want for k, _ in terms):
            grading_ok = False
            failures.append(("grading", (a.labels[i], a.labels[j])))
    jacobi = reference_jacobi_failures(a)
    failures += jacobi
    generated_ok = True
    for i in range(1, a.depth):
        spanned = Subspace(a.dim, [
            a.pair_bracket(p, q)
            for p in a.layer_positions(1)
            for q in a.layer_positions(i)])
        if spanned != reference_layer(a, i + 1):
            generated_ok = False
            failures.append(("generated", (i + 1,)))
    central_line = intersect(reference_center(a), reference_layer(a, 1))
    if central_line.dim:
        failures.append(("nondegenerate", (central_line.basis[0],)))
    checks = {"grading": grading_ok, "jacobi": not jacobi,
              "generated": generated_ok,
              "nondegenerate": central_line.dim == 0}
    return checks, tuple(failures)


def random_vector(rng, n, density):
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 if rng.random() < density else Fraction(0)
                 for _ in range(n))


def random_homogeneous_basis(rng, a, dens=(1,)):
    """One random invertible block per layer, entries in [-2, 2] over the
    given denominators, the layers shuffled so that new degrees
    interleave."""
    vecs = []
    for i in range(1, a.depth + 1):
        k = a.layer_dim(i)
        while True:
            block = [[Fraction(rng.randint(-2, 2), rng.choice(dens))
                      for _ in range(k)] for _ in range(k)]
            if Matrix(block).det() != 0:
                break
        vecs += [a.embed_layer(i, row) for row in block]
    rng.shuffle(vecs)
    return vecs


def test_bracket_matches_reference():
    """Random dense and sparse vectors, and every basis pair, on the
    catalog, the pencils, random 2-step algebras, their signed
    permutations and dense copies, Jacobi-broken and degenerate ones."""
    rng = random.Random(9101)
    for a in table_cases(9101):
        n = a.dim
        for density in (1.0, 0.5, 0.2):
            x = random_vector(rng, n, density)
            y = random_vector(rng, n, density)
            assert bracket(a, x, y) == reference_bracket(a, x, y), a.name
        for i in range(n):
            for j in range(n):
                ei, ej = a.basis_vector(i), a.basis_vector(j)
                assert bracket(a, ei, ej) == reference_bracket(a, ei, ej)
    with pytest.raises(ValueError):
        bracket(heis3(), (1, 0), (0, 1, 0))


def test_ad_matrix_matches_reference():
    rng = random.Random(9102)
    for a in table_cases(9102):
        ys = [a.basis_vector(p) for p in a.layer_positions(1)]
        ys.append(a.embed_layer(1, random_vector(rng, a.layer_dim(1), 0.7)))
        for y in ys:
            got = ad_matrix(a, y)
            assert got == reference_ad_matrix(a, y), a.name
            assert got.matrix.rows == reference_ad_matrix(a, y).matrix.rows


def rescaled(rng, a):
    """a in the basis c_p e_p, each c_p a fraction like 1/2 or 3/5, so
    that its structure constants are no longer integers."""
    vecs = [tuple(Fraction(rng.choice((1, 2, 3, 5)), rng.choice((2, 3, 5, 7)))
                  if q == p else Fraction(0) for q in range(a.dim))
            for p in range(a.dim)]
    return change_basis(a, vecs, list(a.labels), a.name + "_rescaled")


def rational_cases(seed):
    """The table algebras rescaled to non-integer structure constants;
    those that do not validate are left out."""
    rng = random.Random(seed)
    return [rescaled(rng, a) for a in table_cases(seed)
            if validate(a).structural_ok]


def test_change_basis_matches_reference():
    """Equal algebras, names and stored terms in random homogeneous
    bases, integer and rational, of the table algebras and of their
    rescalings with non-integer constants, and the same errors on an
    inhomogeneous or singular basis."""
    rng = random.Random(9103)
    rational = rational_cases(9103)
    assert sum(any(c.denominator != 1 for terms in a.brackets.values()
                   for _, c in terms) for a in rational) >= 40

    def outcome(*args):
        try:
            b = change_basis(*args)
        except ValueError as exc:
            return str(exc)
        return b.name, b.labels, b.degrees, sorted(b.brackets.items())

    def reference_outcome(*args):
        try:
            b = reference_change_basis(*args)
        except ValueError as exc:
            return str(exc)
        return b.name, b.labels, b.degrees, sorted(b.brackets.items())

    errors = set()
    for a in table_cases(9103) + rational:
        n = a.dim
        labels = ["U%d" % p for p in range(n)]
        cases = [random_homogeneous_basis(rng, a, (1, 2, 3, 5, 7))]
        if not a.name.endswith("_rescaled"):
            cases += [random_homogeneous_basis(rng, a) for _ in range(2)]
        inhomogeneous = [a.basis_vector(p) for p in range(n)]
        inhomogeneous[0] = tuple(Fraction(1) for _ in range(n))
        cases.append(inhomogeneous)
        pos1 = a.layer_positions(1)
        if len(pos1) >= 2:
            singular = [a.basis_vector(p) for p in range(n)]
            singular[pos1[1]] = singular[pos1[0]]
            cases.append(singular)
        for vecs in cases:
            got = outcome(a, vecs, labels, "moved")
            assert got == reference_outcome(a, vecs, labels, "moved"), a.name
            if isinstance(got, str):
                errors.add(got)
    assert errors == {"new basis vectors must be homogeneous",
                      "matrix is singular"}


def test_rational_constants_round_trip_through_the_decomposition():
    """On the rescaled algebras with a rational witness, the special
    extension rebuilt from the decomposition is the adapted algebra."""
    done = 0
    for a in rational_cases(9103):
        if not validate(a).checks["nondegenerate"]:
            continue
        y = rank1_witness(a)
        if y is None:
            continue
        d = decompose_special_extension(a, y)
        rebuilt = special_extension(ExtensionData.from_adapted_base(
            d.quotient, len(d.ideal_basis), d.cocycle))
        assert rebuilt == d.adapted, a.name
        done += 1
    assert done >= 30


def test_layer_is_the_coordinate_subspace():
    for a in table_cases(9104):
        for i in range(1, a.depth + 2):
            got = layer(a, i)
            assert got == reference_layer(a, i), (a.name, i)
            assert got.basis == reference_layer(a, i).basis
        with pytest.raises(ValueError):
            layer(a, 0)


def test_validate_matches_reference():
    """Same checks and the same failures, the central vector included,
    on clean, Jacobi-broken, ungraded, degenerate and non-generated
    algebras."""
    kinds = set()
    for a in table_cases(9105):
        rep = validate(a)
        checks, failures = reference_validate(a)
        assert rep.checks == checks, a.name
        assert rep.failures == failures, a.name
        kinds.update(kind for kind, _ in failures)
    assert kinds == {"grading", "jacobi", "generated", "nondegenerate"}


def test_validate_rank_checks_stop_at_their_exact_bound(monkeypatch):
    """The generated and nondegenerate passes, which hand the table's rows
    to the elimination as they are, stop once their rank reaches
    len(target) and len(pos1), bounds no rank can pass; the reports equal
    those of passes that read every row, on the catalog, the pencils,
    random 2-step, non-generated and degenerate algebras."""
    from gnla import algebra, linalg

    pivots, trail = linalg._echelon([{0: 1}, {1: 1}, {0: 1, 1: 1}], 2)
    assert len(pivots) == len(trail) == 2
    cases = table_cases(9107)
    bounded = [validate(a) for a in cases]
    bounds = []

    def full_echelon(rows, bound=None):
        bounds.append(bound)
        return linalg._echelon(rows)

    monkeypatch.setattr(algebra, "_echelon", full_echelon)
    kinds = set()
    for a, rep in zip(cases, bounded):
        assert validate(a) == rep, a.name
        kinds.update(kind for kind, _ in rep.failures)
    assert {"generated", "nondegenerate"} <= kinds
    assert bounds and None not in bounds


def mixed():
    """A 2-step algebra whose constants have the denominators 2, 3 and
    6: [X, Y] = 3/2 Z + 1/3 W, [X, U] = -5/6 Z, [Y, U] = 2 W."""
    return GNLA("mixed", [("X", -1), ("Y", -1), ("U", -1), ("Z", -2),
                          ("W", -2)],
                {(0, 1): [(3, Fraction(3, 2)), (4, Fraction(1, 3))],
                 (0, 2): [(3, Fraction(-5, 6))], (1, 2): [(4, 2)]})


def stored(a):
    return a.labels, a.degrees, a._den, a._table


def test_every_builder_gives_the_one_stored_form():
    """The public constructor however the constants are written,
    parse_algebra, change_basis, quotient and _split all give the same
    integer table over the least denominator, 6 here: equal algebras
    with equal hashes."""
    a = mixed()
    assert a._den == 6
    assert a._table[0][1] == ((3, 9), (4, 2)) and a._table[1][0] == (
        (3, -9), (4, -2))
    basis = list(zip(a.labels, a.degrees))
    written = GNLA("written", basis, {
        (0, 1): [(4, "1/3"), (3, 1), (3, Fraction(1, 2)), (2, 0)],
        (0, 2): [(3, "-10/12")], (1, 2): [(4, 4), (4, -2)], (2, 3): []})
    parsed = parse_algebra(serialize_algebra(a))
    text = parse_algebra("algebra text\nbasis X:-1 Y:-1 U:-1 Z:-2 W:-2\n"
                         "bracket [Y,X] = -6/4 Z + -2/6 W\n"
                         "bracket [X,U] = -5/6 Z\nbracket [U,Y] = -2 W\n")
    units = [a.basis_vector(p) for p in range(a.dim)]
    same = change_basis(a, units, a.labels)
    scales = (2, Fraction(1, 3), 5, Fraction(7, 2), 1)
    scaled = change_basis(a, [[c * x for x in v] for c, v in
                              zip(scales, units)], a.labels)
    assert scaled._den != a._den
    back = change_basis(scaled, [[x / c for x in v] for c, v in
                                 zip(scales, units)], a.labels)
    # a with a central degree -2 vector C the brackets also reach, over
    # the denominators 2, 3, 5 and 6
    big = GNLA("big", basis + [("C", -2)], {
        (0, 1): [(3, Fraction(3, 2)), (4, Fraction(1, 3)),
                 (5, Fraction(7, 5))],
        (0, 2): [(3, Fraction(-5, 6))], (1, 2): [(4, 2), (5, -1)]})
    assert big._den == 30
    ideal = Subspace(big.dim, [big.basis_vector(5)])
    quot = quotient(big, ideal, [big.basis_vector(p) for p in range(5)],
                    a.labels)
    cut, escaped = _split(big, range(5), a.labels, "cut")
    assert escaped[0, 1] == [Fraction(7, 5)] and escaped[1, 2] == [-1]
    for b in (written, parsed, text, same, back, quot, cut):
        assert stored(b) == stored(a), b.name
        assert b == a and hash(b) == hash(a), b.name
        assert b.brackets == a.brackets, b.name


def test_brackets_is_the_fraction_view_of_the_input():
    """brackets holds the input's Fractions, mixed denominators and the
    3/2 constant included, and bracket_terms their signs in both orders;
    both are built from the integer table on first read."""
    a = mixed()
    assert not hasattr(a, "_brackets")
    assert a.brackets == {
        (0, 1): ((3, Fraction(3, 2)), (4, Fraction(1, 3))),
        (0, 2): ((3, Fraction(-5, 6)),), (1, 2): ((4, Fraction(2)),)}
    assert all(type(c) is Fraction for terms in a.brackets.values()
               for _, c in terms)
    assert a.bracket_terms(1, 0) == ((3, Fraction(-3, 2)),
                                     (4, Fraction(-1, 3)))
    assert a.bracket_terms(3, 4) == () and a.bracket_terms(0, 0) == ()
    assert hasattr(a, "_brackets")
    assert a == mixed() and hash(a) == hash(mixed())


def test_classify_and_the_round_trip_read_only_the_integer_table():
    """validate, classify, the decomposition and the rebuilt extension of
    a witness algebra with rational constants build no Fraction view."""
    rng = random.Random(9108)
    for a in [catalog("nontrivial6"), rescaled(rng, catalog("heisenberg",
                                                           dim=5))]:
        assert validate(a).all_passed
        verdict = classify(a)
        d = decompose_special_extension(a, verdict.witness)
        rebuilt = special_extension(ExtensionData.from_adapted_base(
            d.quotient, len(d.ideal_basis), d.cocycle))
        assert rebuilt == d.adapted
        for b in (a, d.quotient, d.adapted, rebuilt):
            assert not hasattr(b, "_brackets")


def test_validation_reports_hash_and_compare_by_their_failures():
    """A report is hashable; checks, which the failures decide, stays
    readable by name and out of equality and hash."""
    reports = {}
    for a in table_cases(9109):
        rep = validate(a)
        assert rep == validate(a) and hash(rep) == hash(validate(a))
        kinds = {kind for kind, _ in rep.failures}
        assert rep.checks == {name: name not in kinds for name in (
            "grading", "jacobi", "generated", "nondegenerate")}, a.name
        reports.setdefault(rep, []).append(a.name)
    assert len(reports) > 1
    assert validate(heis3()) in reports
