import random
from fractions import Fraction

import pytest

from cases import (
    catalog_algebras,
    full_block_change,
    random_two_step,
    signed_permutation,
)
from gnla import (
    GNLA,
    Matrix,
    Subspace,
    ad_matrix,
    bracket,
    catalog,
    center,
    change_basis,
    kernel_basis,
    layer,
    quotient,
    validate,
)


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
    # the line through X is not an ideal: [X, Z1] = Z2 escapes, and the
    # projected brackets no longer generate the deeper layers
    bad = Subspace(a.dim, [a.basis_vector(0)])
    reps = [a.basis_vector(i) for i in range(1, a.dim)]
    q = quotient(a, bad, reps, ["Z1", "Z2", "Z3"])
    assert not validate(q).structural_ok


def test_quotient_needs_complement():
    a = heis3()
    ideal = Subspace(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        quotient(a, ideal, [(1, 0, 0)], ["X"])


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


def perturbed(rng, a):
    """a with one stored coefficient moved by 1: same grading, and in a
    dense basis of a deep algebra Jacobi breaks on many triples."""
    brackets = dict(a.brackets)
    (i, j), terms = rng.choice(sorted(brackets.items()))
    brackets[i, j] = [(k, c + (n == 0)) for n, (k, c) in enumerate(terms)]
    return GNLA(a.name + "_perturbed", list(zip(a.labels, a.degrees)),
                brackets)


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
        return Subspace.full(n)
    return kernel_basis(Matrix(rows))


def table_cases(seed):
    """The catalog, the pencils, seeded random 2-step algebras, a signed
    permutation of each, dense basis changes of the deep ones, and
    algebras that break Jacobi, the grading or nondegeneracy."""
    rng = random.Random(seed)
    algebras = catalog_algebras()
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 2]
    algebras += [signed_permutation(rng, a) for a in algebras]
    deep = [full_block_change(rng, a) for a in algebras[:23]
            if a.depth >= 3 and a.dim <= 12]
    algebras += deep + [perturbed(rng, a) for a in deep]
    algebras += [
        GNLA("bad", [("X", -1), ("Z1", -1), ("Z2", -2), ("Z3", -3),
                     ("Z4", -4)],
             {(0, 1): [(2, 1)], (0, 2): [(3, 1)], (0, 3): [(4, 1)],
              (1, 2): [(3, 1)]}),
        GNLA("ungraded", [("A", -1), ("B", -1), ("C", -2)],
             {(0, 1): [(0, 2), (2, -1)], (0, 2): [(1, 3)]}),
        GNLA("abelian", [("A", -1), ("B", -1)], {}),
        GNLA("central", [("A", -1), ("B", -1), ("C", -1), ("D", -2)],
             {(0, 1): [(3, 1)]}),
    ]
    return algebras


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
