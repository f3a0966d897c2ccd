import functools
import itertools
import random
import signal
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
import sympy

from cases import (
    PENCIL_BLOCKS,
    catalog_algebras,
    closure_example,
    full_block_change,
    random_two_step,
    signed_permutation,
    table_cases,
    witness_cases,
)
from dense import decompose_special_extension as dense_decompose_special_extension
from dense import special_extension as dense_special_extension
from dense import from_columns, identity, intersect, reference_evaluate
from dense import (
    reference_interpolated,
    reference_poly_divmod,
    reference_poly_gcd,
    reference_trimmed,
)
from gnla import (
    GNLA,
    Cochain2,
    ExtensionData,
    Matrix,
    MatrixSubspace,
    Polynomial,
    Report,
    Subspace,
    TypeVerdict,
    WitnessInvalid,
    ad_matrix,
    bracket,
    catalog,
    change_basis,
    classify,
    decompose_special_extension,
    emit_report,
    h0,
    kernel_basis,
    leibniz_failures,
    metabelian_from_pencil,
    minor_ideal,
    only_trivial_zero,
    parse_algebra,
    rank1_derivation_from_witness,
    rank1_witness,
    run,
    serialize_algebra,
    solve,
    special_extension,
    spencer_subspace_check,
    validate,
)
import gnla.algebra
import gnla.certifier
from gnla.certifier import (
    _adjugate_column,
    _closure_certificate,
    _closure_certified,
    _degree1_span,
    _matrix_span,
    _member,
    _minors,
    _pencil_forms,
    _pencil_witness,
    _span_point,
)
from gnla.constructions import _module_covector, _pfaffian, _poly_gcd
from test_algebra import (
    random_homogeneous_basis,
    reference_layer,
    reference_quotient,
)


def degenerate_example():
    # X3 is central of degree -1
    return GNLA("degen", [("X1", -1), ("X2", -1), ("X3", -1), ("W", -2)],
                {(0, 1): [(3, 1)]})


def reference_rank1_witness(a, height_bound=3):
    """The degree -1 basis vectors, last declared first, then e_p + t e_q
    over basis pairs with t on the rational ladder, each tested by
    building ad y.  The loop rank1_witness ran before it went through
    _span_point; an oracle only."""
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


def ladder_key(q):
    """The order of the old height ladder: denominator, then |numerator|,
    positive first."""
    return (q.denominator, abs(q.numerator), q < 0)


def sympy_rank(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in m.rows]).rank()


def sympy_line_points(m1, m2):
    """The nonzero rational q with rank(m1 + q m2) = 1, in ladder order:
    sympy's rational roots of the gcd of the 2x2 minors of m1 + q m2,
    each confirmed by a sympy rank.  On a line where every minor
    vanishes, the ladder values of height 3 are the candidates."""
    q = sympy.Symbol("q")
    rows = [r for r in range(m1.nrows) if any(m1.rows[r]) or any(m2.rows[r])]
    cols = [c for c in range(m1.ncols)
            if any(m1[r, c] or m2[r, c] for r in range(m1.nrows))]

    def entry(r, c):
        x, y = m1[r, c], m2[r, c]
        return sympy.Poly(sympy.Rational(x.numerator, x.denominator)
                          + q * sympy.Rational(y.numerator, y.denominator),
                          q, domain="QQ")
    g = sympy.Poly(0, q, domain="QQ")
    for r1, r2 in itertools.combinations(rows, 2):
        for c1, c2 in itertools.combinations(cols, 2):
            g = g.gcd(entry(r1, c1) * entry(r2, c2)
                      - entry(r1, c2) * entry(r2, c1))
            if not g.is_zero and g.degree() == 0:
                return []
    if g.is_zero:
        candidates = [Fraction(n, d) * s for d in (1, 2, 3) for n in (1, 2, 3)
                      if gcd(n, d) == 1 for s in (1, -1)]
    else:
        candidates = [Fraction(int(r.p), int(r.q)) for r in g.ground_roots()
                      if r != 0]
    return sorted((c for c in candidates
                   if sympy_rank(m1 + m2.scale(c)) == 1), key=ladder_key)


def sympy_span_point(mats):
    """_span_point's single and pair stages by sympy: a single rank 1
    matrix, else the first pair whose line has a rational rank 1 point,
    at its first point in ladder order, else None."""
    t = len(mats)
    for i, m in enumerate(mats):
        if sympy_rank(m) == 1:
            return tuple(Fraction(int(k == i)) for k in range(t))
    for i in range(t):
        for j in range(i + 1, t):
            points = sympy_line_points(mats[i], mats[j])
            if points:
                return tuple(Fraction(1) if k == i else points[0] if k == j
                             else Fraction(0) for k in range(t))
    return None


def earlier_pairs_have_no_point(mats, coeffs):
    """Whether no pair before the one coeffs uses has a rational rank 1
    point on its line, by sympy."""
    i, j = [k for k, c in enumerate(coeffs) if c]
    return not any(sympy_line_points(mats[k], mats[l])
                   for k in range(len(mats)) for l in range(k + 1, len(mats))
                   if (k, l) < (i, j))


def in_pencil_class(a):
    rep = validate(a)
    return (rep.structural_ok and rep.checks["nondegenerate"]
            and a.depth == 2 and a.layer_dim(2) == 2)


def sympy_certificate_holds(a, certificate):
    """Whether an algebraic witness (f, g) holds by sympy over QQ[t],
    with the bracket forms B_1, B_2 on g_-1: g is zero off g_-1, deg f >=
    1, f divides Pf(B_1 + t B_2) (f^2 divides the determinant, which is
    the pfaffian squared, and QQ[t] is a UFD), every row of
    (B_1 + t B_2) g is 0 mod f, and gcd(f, g) = 1."""
    t = sympy.Symbol("t")

    def poly(coeffs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(coeffs)] or [0], t,
                          domain="QQ")
    f, g = certificate
    pos1 = a.layer_positions(1)
    n = len(pos1)
    if any(g[p] for p in range(a.dim) if p not in pos1):
        return False
    forms = [sympy.Matrix([[sympy.Rational(a.pair_bracket(p, q)[w])
                            for q in pos1] for p in pos1])
             for w in a.layer_positions(2)]
    det = sympy.Poly(sympy.interpolate(
        [(k, (forms[0] + k * forms[1]).det()) for k in range(n + 1)], t),
        t, domain="QQ")
    fp, gs = poly(f), [poly(g[p]) for p in pos1]
    rows = [sum((sympy.Poly(forms[0][r, c] + t * forms[1][r, c], t,
                            domain="QQ") * gs[c] for c in range(n)),
                sympy.Poly(0, t, domain="QQ")) for r in range(n)]
    return (fp.degree() >= 1 and det.rem(fp ** 2).is_zero
            and all(row.rem(fp).is_zero for row in rows)
            and functools.reduce(sympy.Poly.gcd, gs, fp).degree() == 0)


def sympy_pencil_has_rational_point(a):
    """Whether det(s B_1 + t B_2) has a rational zero (s:t) != 0, by
    sympy: the form, interpolated from sympy determinants, is
    identically zero, has a rational root in t, or vanishes at (0:1)."""
    t = sympy.Symbol("t")
    pos1 = a.layer_positions(1)
    forms = [sympy.Matrix([[sympy.Rational(a.pair_bracket(p, q)[w])
                            for q in pos1] for p in pos1])
             for w in a.layer_positions(2)]
    det = sympy.Poly(sympy.interpolate(
        [(k, (forms[0] + k * forms[1]).det()) for k in range(len(pos1) + 1)],
        t), t)
    return det.is_zero or bool(det.ground_roots()) or forms[1].det() == 0


def test_rank1_witness_matches_reference_loop():
    """Against the ladder loop of the old search, on every catalog
    algebra, every pencil and seeded random 2-step algebras, at two
    heights: every ladder hit is still a hit, a basis vector hit is the
    same vector, and every witness has rank 1.  On the pencil class a
    witness exists exactly when sympy finds a rational zero of the
    pencil's determinant form; elsewhere the witness is the first
    rational point of the first pair line with one, as sympy finds it,
    and the ladder's vector wherever no earlier pair has such a point."""
    rng = random.Random(4247)
    algebras = catalog_algebras() + [closure_example()]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 3]
    new_hits = 0
    for a in algebras:
        got = rank1_witness(a)
        assert rank1_witness(a) == got, a.name
        for height in (1, 3):
            ref = reference_rank1_witness(a, height)
            if ref is not None:
                assert got is not None, (a.name, height)
                if sum(1 for x in ref if x) == 1:
                    assert got == ref, (a.name, height)
            elif got is not None:
                new_hits += 1
        if got is not None:
            assert ad_matrix(a, got).matrix.rank() == 1, a.name
        if in_pencil_class(a):
            assert (got is not None) == sympy_pencil_has_rational_point(a)
            continue
        pos1 = list(reversed(a.layer_positions(1)))
        ads = [ad_matrix(a, a.basis_vector(p)).matrix for p in pos1]
        want = sympy_span_point(ads)
        assert got == (None if want is None else tuple(
            sum(c * a.basis_vector(p)[k] for c, p in zip(want, pos1))
            for k in range(a.dim))), a.name
    assert new_hits > 0


def reference_rank1_in_span(mats, height_bound=2):
    """Every single and ladder pair candidate summed as a Fraction Matrix
    and tested by rank(): the loop of the span search before its integer
    row test; an oracle only."""
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
    return None


def span_point(mats):
    """_span_point on the integer span of a list of matrices."""
    return _span_point(_matrix_span(mats)[1])


def test_rank1_in_span_matches_reference_loop():
    """Seeded spans of rational matrices with a rank 1 element planted
    as a single matrix, as a pair with a rational weight, as a signed
    sum of three, or not at all.  Against the ladder loop of the old
    search: every ladder hit is still a hit, the same vector wherever no
    earlier pair has a rational rank 1 point, and every answer has rank
    1.  The answer is sympy's first point of the single and pair stages
    exactly."""
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
        mats = [[rand(), rand()], [rand(), r, rand()], [r + b.scale(-q), b],
                [b, c, r + b.scale(-1) + c.scale(-1)],
                [b, c, rand(), r + b + c.scale(-1)]][trial % 5]
        got = span_point(mats)
        ref = reference_rank1_in_span(mats)
        if ref is not None:
            assert got is not None, trial
            support = sum(1 for x in ref if x)
            if support == 1 or (support == 2 and earlier_pairs_have_no_point(
                    mats, ref)):
                assert got == ref, trial
        if got is not None:
            combo = Matrix.zero(nrows, ncols)
            for x, m in zip(got, mats):
                combo = combo + m.scale(x)
            assert combo.rank() == 1, trial
        assert got == sympy_span_point(mats), trial
        found.add(None if got is None else sum(1 for x in got if x))
    assert found == {None, 1, 2}


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
            assert reference_evaluate(g, point) == 0


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


def test_pencil_stage_is_complete_on_random_two_step_algebras():
    """Seeded random 2-step algebras with dim g_-2 = 2: for odd n_1 every
    one classifies rational_witness with rank 1.  Where the pencil stage
    misses (even n_1), sympy finds no rational zero of the pencil's
    determinant form, the square of the pfaffian form, the minor ideal
    still has a nontrivial zero, and sympy re-checks the algebraic
    witness of the closure verdict."""
    rng = random.Random(7211)
    missed = 0
    for n1 in (3, 4, 5, 6, 7) * 4:
        a = random_two_step(rng, n1)
        v = classify(a, max_degree=1)
        assert v.kind == "infinite", n1
        if n1 % 2:
            assert v.certificate == "rational_witness", n1
        if v.certificate == "rational_witness":
            assert ad_matrix(a, v.witness).matrix.rank() == 1, n1
        else:
            assert v.certificate == "closure", n1
            assert not sympy_pencil_has_rational_point(a), n1
            assert not only_trivial_zero(minor_ideal(a)), n1
            assert sympy_certificate_holds(a, v.algebraic_witness), n1
            missed += 1
    assert missed > 0


def test_pencil_stage_takes_the_zero_at_infinity():
    """B_1 = J_2 + J_4 and B_2 = 0 + [[0, C], [-C^t, 0]], C the companion
    of x^2 + 1: Pf(B_1 + t B_2) = -(1 + t^2) has degree 2 < 3 and no
    rational root, so (0:1) is the one rational zero of the pencil.  In
    a dense degree -1 basis no basis vector is a witness; the pencil
    stage finds one in the kernel of B_2."""
    z = Fraction(0)
    b1 = [[z] * 6 for _ in range(6)]
    b2 = [[z] * 6 for _ in range(6)]
    for i, j in ((0, 1), (2, 4), (3, 5)):
        b1[i][j], b1[j][i] = Fraction(1), Fraction(-1)
    for i, j, c in ((2, 5, -1), (3, 4, 1)):
        b2[i][j], b2[j][i] = Fraction(c), Fraction(-c)
    a = metabelian_from_pencil([Matrix(b1), Matrix(b2)])
    # a dense degree -1 basis; a change of the degree -2 basis would move
    # the zero at infinity to a finite root
    rng = random.Random(7237)
    while True:
        block = [[Fraction(rng.randint(-2, 2)) for _ in range(6)]
                 for _ in range(6)]
        if Matrix(block).det() != 0:
            break
    b = change_basis(a, [a.embed_layer(1, row) for row in block]
                     + [a.basis_vector(p) for p in a.layer_positions(2)],
                     ["U%d" % p for p in range(a.dim)])
    assert all(ad_matrix(b, b.basis_vector(p)).rank == 2
               for p in b.layer_positions(1))
    t = sympy.Symbol("t")
    det = (sympy.Matrix(b1) + t * sympy.Matrix(b2)).det()
    assert sympy.expand(det - (t ** 2 + 1) ** 2) == 0
    v = classify(b)
    assert (v.kind, v.certificate) == ("infinite", "rational_witness")
    assert ad_matrix(b, v.witness).rank == 1


def test_closure_example_stays_closure_at_default_budgets():
    # det(B1 + t B2) = (20t^2 + 33t + 3)^2 has irrational roots only
    a = closure_example()
    v = classify(a)
    assert (v.kind, v.certificate, v.witness) == ("infinite", "closure", None)
    f, g = v.algebraic_witness
    assert f == (3, 33, 20)
    assert sympy_certificate_holds(a, (f, g))
    # no Groebner basis is built, so its degree cap no longer applies
    assert classify(a, degree_cap=1) == v


def test_closure_certificate_check_rejects_a_perturbed_g_or_f():
    """The in-package check accepts the certificate classify returns and
    refuses it after any one coefficient of g moves, with a non-dividing
    f of the same degree or of higher degree, with a constant f, and
    with g = 0: on closure_example and seeded pencils with n_1 = 6, 8."""
    rng = random.Random(2617)
    algebras = [closure_example()]
    while len(algebras) < 5:
        a = random_two_step(rng, 6 + 2 * (len(algebras) % 2))
        if classify(a).certificate == "closure":
            algebras.append(a)
    for a in algebras:
        f, g = classify(a).algebraic_witness
        big_p, big_q = _pencil_forms(_degree1_span(a)[1])
        g1 = [g[p] for p in a.layer_positions(1)]
        assert _closure_certified(big_p, big_q, f, g1), a.name
        # every column of the adjugate qualifies on these pencils
        n = len(g1)
        members = [_member(big_p, big_q, 1, t) for t in range(n // 2)]
        for i in range(n):
            assert _closure_certified(big_p, big_q, f,
                                      _adjugate_column(members, i)), i
        for j, gj in enumerate(g1):
            for d in range(len(gj)):
                bad = list(g1)
                bad[j] = gj[:d] + (gj[d] + 1,) + gj[d + 1:]
                assert not _closure_certified(big_p, big_q, f, bad)
        times_t_plus_1 = tuple(x + y for x, y in zip((0,) + f, f + (0,)))
        for bad_f in ((f[0] + 1,) + f[1:], times_t_plus_1, f[:1], (1, 1)):
            assert not _closure_certified(big_p, big_q, bad_f, g1), bad_f
        assert not _closure_certified(big_p, big_q, f, [()] * len(g1))


# B: P_0 = e_12 + e_34, Q_0 = e_13 - e_24, with Pf(P_0 + tQ_0) = 1 + t^2
SQUARE_BLOCK = (((0, 1, 1), (2, 3, 1)), ((0, 2, 1), (1, 3, -1)))


def companion_block(c1, c0):
    """The 4x4 pencil block ([[0, I], [-I, 0]], [[0, C], [-C^t, 0]]) as
    (i, j, c) entries, C the companion matrix of t^2 + c1 t + c0; its
    pfaffian form is +-det(I + tC) = +-(1 - c1 t + c0 t^2)."""
    return (((0, 2, 1), (1, 3, 1)),
            ((0, 3, -c0), (1, 2, 1), (1, 3, -c1)))


def block_pencil(blocks, rng=None):
    """The metabelian algebra of the block sum of 4x4 pencil blocks, in
    a seeded dense degree -1 basis when rng is given."""
    n = 4 * len(blocks)
    forms = [[[Fraction(0)] * n for _ in range(n)] for _ in range(2)]
    for off, block in zip(range(0, n, 4), blocks):
        for form, entries in zip(forms, block):
            for i, j, c in entries:
                form[off + i][off + j] = Fraction(c)
                form[off + j][off + i] = Fraction(-c)
    a = metabelian_from_pencil([Matrix(m) for m in forms])
    if rng is None:
        return a
    while True:
        change = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                  for _ in range(n)]
        if Matrix(change).det() != 0:
            break
    return change_basis(a, [a.embed_layer(1, row) for row in change]
                        + [a.basis_vector(p) for p in a.layer_positions(2)],
                        ["U%d" % p for p in range(a.dim)])


def block_sum_pencils():
    """Block sums with no rational witness: diag(B, B) and diag(B, B, B),
    each plain and in a seeded dense degree -1 basis, then seeded sums
    of 2 or 3 companion blocks of irreducible quadratics, most with a
    block repeated, plain or in a dense basis.  Where a block repeats,
    the rank of the pencil drops by 4 at the roots of its factor, and in
    a plain sum each column of the adjugate vanishes at the roots of
    another block's factor: there no column passes undivided."""
    rng = random.Random(2909)
    out = []
    for k in (2, 3):
        out += [block_pencil([SQUARE_BLOCK] * k),
                block_pencil([SQUARE_BLOCK] * k, rng)]
    # t^2 + c1 t + c0 is irreducible when its discriminant is no square
    quadratics = [(c1, c0) for c1 in range(-3, 4) for c0 in range(-3, 4)
                  if c1 * c1 - 4 * c0 < 0
                  or isqrt(c1 * c1 - 4 * c0) ** 2 != c1 * c1 - 4 * c0]
    for k in range(8):
        blocks = [companion_block(*rng.choice(quadratics))
                  for _ in range(2 + k % 2)]
        if k % 4:
            blocks[-1] = blocks[0]
        out.append(block_pencil(blocks, rng if k % 2 else None))
    return out


def test_pfaffian_square_is_certified_by_the_divided_adjugate_column():
    """diag(B, B): the pfaffian form is (1 + t^2)^2 and the rank drops by
    4 at t = +-i, so every sub-pfaffian of side 6 vanishes there and no
    column of the adjugate passes undivided.  The first column divided
    by its common factor certifies f = 1 + t^2.  On every pencil of
    block_sum_pencils the certificate is a divided column, and the
    verdict is infinite with a certificate that sympy accepts, also at
    degree_cap=0, with integer coefficients."""
    a = block_pencil([SQUARE_BLOCK] * 2)
    assert in_pencil_class(a)
    t = sympy.Symbol("t")
    big_b1, big_b2 = [sympy.Matrix([[sympy.Rational(
        a.pair_bracket(p, q)[w]) for q in a.layer_positions(1)]
        for p in a.layer_positions(1)]) for w in a.layer_positions(2)]
    assert sympy.expand((big_b1 + t * big_b2).det() - (1 + t ** 2) ** 4) == 0
    span = _degree1_span(a)
    w, pf = _pencil_witness(a, span[1])
    assert w is None and tuple(pf) in ((1, 0, 2, 0, 1), (-1, 0, -2, 0, -1))
    big_p, big_q = _pencil_forms(span[1])
    members = [_member(big_p, big_q, 1, k) for k in range(4)]
    assert not any(_closure_certified(big_p, big_q, pf,
                                      _adjugate_column(members, i))
                   for i in range(8))
    f = _closure_certificate(a, span[1], pf)[0]
    assert f in ((1, 0, 1), (-1, 0, -1))
    assert not sympy_pencil_has_rational_point(a)
    for b in block_sum_pencils():
        v = classify(b, degree_cap=0)
        assert (v.kind, v.certificate, v.witness) == (
            "infinite", "closure", None), b.name
        # each takes the division: f is a proper factor of the pfaffian form
        f, g = v.algebraic_witness
        assert 3 <= len(f) <= b.layer_dim(1) // 2, b.name
        # the pfaffians are integer polynomials, and so are their
        # quotients by the monic gcd
        assert all(c.denominator == 1 for poly in (f,) + g for c in poly)
        assert sympy_certificate_holds(b, v.algebraic_witness), b.name
        assert classify(b) == v, b.name


def test_an_undivided_column_wins_over_an_earlier_divided_one():
    """diag of the companion blocks of t^2 + 1 and t^2 + t + 1, in the
    degree -1 basis e_1 - e_5, e_5, e_3, e_4, e_2, e_6, e_7, e_8: the new
    first coordinate vanishes on the kernel at the roots of the second
    block's factor, so column 0 of the adjugate shares that factor with
    the pfaffian form, while the second coordinate is nonzero on every
    kernel and column 1 passes undivided.  The certificate is column 1
    with the whole pfaffian form, not column 0 divided: a column that
    passes undivided is taken first.  The pfaffian form and the columns
    are integer polynomials, read here through their Fraction view."""
    a = block_pencil([companion_block(0, 1), companion_block(1, 1)])
    vecs = [tuple(Fraction(int(k == 0) - int(k == 4)) for k in range(a.dim))]
    vecs += [a.basis_vector(p) for p in (4, 2, 3, 1, 5, 6, 7, 8, 9)]
    b = change_basis(a, vecs, ["U%d" % p for p in range(a.dim)])
    span = _degree1_span(b)
    w, pf = _pencil_witness(b, span[1])
    assert w is None and len(pf) == 5
    big_p, big_q = _pencil_forms(span[1])
    members = [_member(big_p, big_q, 1, k) for k in range(4)]
    col0, col1 = (_adjugate_column(members, i) for i in (0, 1))
    assert len(functools.reduce(_poly_gcd, col0, pf)) == 3
    assert not _closure_certified(big_p, big_q, pf, col0)
    assert _closure_certified(big_p, big_q, pf, col1)
    v = classify(b)
    pos1 = b.layer_positions(1)
    assert v.algebraic_witness[0] == tuple(map(Fraction, pf))
    assert ([v.algebraic_witness[1][p] for p in pos1]
            == [tuple(map(Fraction, gj)) for gj in col1])
    assert sympy_certificate_holds(b, v.algebraic_witness)


def test_closure_certificate_check_scales_g_over_one_denominator():
    """The check reads g over the lcm of all its denominators: on
    closure_example it rejects g_j / k_j for k = (1, 2, 3, 5), which
    sympy refuses too, and accepts g / 3.  It accepts the divided
    certificate of every pencil of block_sum_pencils, and that certificate
    over 2 and over 3, where the entries of g come to have different
    denominators."""
    a = closure_example()
    f, g = classify(a).algebraic_witness
    big_p, big_q = _pencil_forms(_degree1_span(a)[1])
    g1 = [g[p] for p in a.layer_positions(1)]
    bad = [tuple(c / k for c in gj) for gj, k in zip(g1, (1, 2, 3, 5))]
    assert not _closure_certified(big_p, big_q, f, bad)
    full = list(g)
    for p, gj in zip(a.layer_positions(1), bad):
        full[p] = gj
    assert not sympy_certificate_holds(a, (f, tuple(full)))
    assert _closure_certified(big_p, big_q, f,
                              [tuple(c / 3 for c in gj) for gj in g1])
    mixed = 0
    for b in block_sum_pencils():
        f, g = classify(b).algebraic_witness
        big_p, big_q = _pencil_forms(_degree1_span(b)[1])
        g1 = [g[p] for p in b.layer_positions(1)]
        assert _closure_certified(big_p, big_q, f, g1), b.name
        for k in (2, 3):
            scaled = [tuple(c / k for c in gj) for gj in g1]
            assert _closure_certified(big_p, big_q, f, scaled), b.name
            mixed += len({lcm(*(c.denominator for c in gj))
                          for gj in scaled}) > 1
    assert mixed > 0


# the CI step "Metabelian closure without Groebner": diag(B, B), whose
# pfaffian form is (1 + t^2)^2
SQUARE_PENCIL = """algebra square_pencil
basis X1:-1 X2:-1 X3:-1 X4:-1 X5:-1 X6:-1 X7:-1 X8:-1 W1:-2 W2:-2
bracket [X1,X2] = 1 W1
bracket [X1,X3] = 1 W2
bracket [X2,X4] = -1 W2
bracket [X3,X4] = 1 W1
bracket [X5,X6] = 1 W1
bracket [X5,X7] = 1 W2
bracket [X6,X8] = -1 W2
bracket [X7,X8] = 1 W1
"""


def reference_closure_certificate(a):
    """The certificate as gnla chose it over Fractions: the pfaffian form
    and every adjugate column interpolated by the Vandermonde reference
    from integer pfaffians; candidates each column with the whole form,
    then each column and the form divided by their monic Euclidean gcd
    over Q; the first that _closure_certified accepts."""
    big_p, big_q = _pencil_forms(_degree1_span(a)[1])
    n = len(big_p)

    def form(mats):
        return list(reference_trimmed(reference_interpolated(
            [_pfaffian(m) for m in mats])))

    pf = form([_member(big_p, big_q, 1, t) for t in range(n // 2 + 1)])
    members = [_member(big_p, big_q, 1, t) for t in range(n // 2)]
    columns = []
    for i in range(n):
        g = []
        for j in range(n):
            keep = [k for k in range(n) if k not in (i, j)]
            sign = (-1) ** (i + j + 1 + (j < i))
            g.append([] if j == i else [sign * c for c in form(
                [[m[r][c] for c in keep] for r in keep] for m in members)])
        columns.append(g)
    candidates = [(pf, g) for g in columns]
    for g in columns:
        h = functools.reduce(reference_poly_gcd, g, pf)
        h = [c / h[-1] for c in h]
        candidates.append((reference_poly_divmod(pf, h)[0],
                           [reference_poly_divmod(gj, h)[0] for gj in g]))
    f, g = next(c for c in candidates if _closure_certified(big_p, big_q, *c))
    full = [()] * a.dim
    for p, gj in zip(a.layer_positions(1), g):
        full[p] = reference_trimmed(gj)
    return reference_trimmed(f), tuple(full)


def test_closure_certificate_values_are_pinned():
    """The values of the certificate, not only its validity:
    closure_example's (f, g) and the square pencil's, as literals, both
    as Fraction tuples; and on closure_example, the square pencil, every
    pencil of block_sum_pencils and seeded pencils with n_1 = 4, 6, 8,
    the certificate equals, in value and repr, the one the Fraction
    references choose, which sympy accepts."""
    def fr(*cs):
        return tuple(Fraction(c) for c in cs)

    a = closure_example()
    assert classify(a).algebraic_witness == (
        fr(3, 33, 20), ((), fr(2, 3), fr(-2, -3), fr(3, -2), (), ()))
    square = parse_algebra(SQUARE_PENCIL)
    assert classify(square, degree_cap=0).algebraic_witness == (
        fr(1, 0, 1), ((), fr(1), fr(0, 1)) + ((),) * 7)
    rng = random.Random(3319)
    seeded = []
    while len(seeded) < 8:
        b = random_two_step(rng, (4, 6, 8)[len(seeded) % 3])
        if classify(b).certificate == "closure":
            seeded.append(b)
    for b in [a, square] + block_sum_pencils() + seeded:
        got = classify(b, degree_cap=0).algebraic_witness
        want = reference_closure_certificate(b)
        assert got == want and repr(got) == repr(want), b.name
        assert sympy_certificate_holds(b, got), b.name


def test_closure_certificate_check_reduces_rows_above_deg_f():
    """A row of (P + tQ) g of degree above deg f is reduced mod f, not
    refused.  On closure_example, f put in the zero entry of classify's
    g, and t^2 f added to every entry, give certificates that sympy
    accepts, and so does the check.  That g with 1 added to the new
    entry, and with f replaced by f + t, which does not divide the
    rows, is refused by both."""
    a = closure_example()
    f, g = classify(a).algebraic_witness
    big_p, big_q = _pencil_forms(_degree1_span(a)[1])
    pos1 = a.layer_positions(1)

    def plus(u, v):
        n = max(len(u), len(v))
        return tuple(Fraction(0) + (u[k] if k < len(u) else 0)
                     + (v[k] if k < len(v) else 0) for k in range(n))

    zero = [p for p in pos1 if not g[p]]
    assert zero
    with_f = tuple(plus(gj, f) if p == zero[0] else gj
                   for p, gj in enumerate(g))
    shifted = tuple(plus(gj, (0, 0) + tuple(f)) if p in pos1 else gj
                    for p, gj in enumerate(g))
    perturbed = tuple(plus(gj, (1,)) if p == zero[0] else gj
                      for p, gj in enumerate(with_f))
    other_f = plus(f, (0, 1))
    for cert, holds in (((f, with_f), True), ((f, shifted), True),
                        ((f, perturbed), False), ((other_f, with_f), False)):
        assert sympy_certificate_holds(a, cert) == holds, cert
        assert _closure_certified(big_p, big_q, cert[0],
                                  [cert[1][p] for p in pos1]) == holds, cert


def test_metabelian_closure_verdicts_run_no_groebner(monkeypatch):
    """On seeded pencil algebras with n_1 in {4, 6, 8, 10}, and on the
    block_sum_pencils at degree_cap=0, every
    verdict is infinite, each closure verdict carries an algebraic
    witness, and neither _minors, only_trivial_zero nor the
    prolongation iteration runs once."""
    calls = []
    for name in ("_minors", "only_trivial_zero", "classify_by_iteration"):
        original = getattr(gnla.certifier, name)
        monkeypatch.setattr(gnla.certifier, name,
                            lambda *args, name=name, original=original,
                            **kwargs: calls.append(name)
                            or original(*args, **kwargs))
    rng = random.Random(2606)
    closures = set()
    for n1 in (4, 6, 8, 10) * 3:
        v = classify(random_two_step(rng, n1))
        assert v.kind == "infinite", n1
        if v.certificate == "closure":
            assert v.algebraic_witness is not None, n1
            closures.add(n1)
    assert closures == {4, 6, 8, 10}
    for b in block_sum_pencils():
        v = classify(b, max_degree=0, degree_cap=0)
        assert (v.kind, v.certificate) == ("infinite", "closure"), b.name
        assert v.algebraic_witness is not None, b.name
    assert calls == []


def test_catalog_verdicts_and_cli_bytes_are_the_ladder_witnesses(
        tmp_path, capsys):
    """On every catalog algebra and pencil, and a signed permutation of
    each, a witness of the old ladder loop is a basis vector, and
    classify returns exactly it; `gnla classify --json` prints the
    report of that verdict byte for byte.  Where the loop found none,
    the search still finds none."""
    rng = random.Random(7229)
    algebras = catalog_algebras()
    algebras += [signed_permutation(rng, a) for a in algebras]
    witnessed = 0
    for a in algebras:
        if not validate(a).checks["nondegenerate"]:
            continue
        ref = reference_rank1_witness(a)
        if ref is None:
            assert rank1_witness(a) is None, a.name
            continue
        assert sum(1 for x in ref if x) == 1, a.name
        assert classify(a) == TypeVerdict(
            kind="infinite", witness=ref, certificate="rational_witness")
        path = tmp_path / "a.alg"
        path.write_text(serialize_algebra(a), encoding="utf-8")
        assert run(["classify", str(path), "--json"]) == 0
        want = emit_report(Report(algebra=a.name, dims=a.layer_dims(),
                                  depth=a.depth, kind="infinite",
                                  witness=ref), "json").decode("utf-8")
        assert capsys.readouterr().out == want, a.name
        witnessed += 1
    assert witnessed >= 50


def test_classify_is_prompt_on_pencils_with_huge_eigenvalues():
    """Eigenvalues of 20 to 40 digits: classify of the pencil algebra,
    in its catalog basis and in a dense one where no basis vector is a
    witness and the pencil stage finds the roots, returns at once."""
    def timeout(signum, frame):
        raise TimeoutError("pencil with a huge eigenvalue did not return")

    rng = random.Random(7247)

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for blocks in ("E:1:a=%d,F:1" % (10 ** 20 + 39),
                       "E:1:a=%d,E:1:a=-1/%d,M:1" % (10 ** 40 + 1, 10 ** 21),
                       "E:2:a=%d,F:2" % (10 ** 25 + 13)):
            a = catalog("from_pencil", blocks=blocks)
            for b in (a, full_block_change(rng, a)):
                v = classify(b)
                assert (v.kind, v.certificate) == ("infinite",
                                                   "rational_witness")
                assert ad_matrix(b, v.witness).rank == 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_rank1_in_span():
    e11 = Matrix([[1, 0], [0, 0]])
    e22 = Matrix([[0, 0], [0, 1]])
    coeffs = span_point([e11, e22])
    assert coeffs == (1, 0)
    # a pair line: e11+e22 and e11-e22 sum to 2 e11
    got = span_point([e11 + e22, e11 + e22.scale(-1)])
    assert got is not None
    combo = (e11 + e22).scale(got[0]) + (e11 + e22.scale(-1)).scale(got[1])
    assert combo.rank() == 1
    # rotation matrices have determinant a^2 + b^2, never rank 1
    assert span_point([identity(2), Matrix([[0, -1], [1, 0]])]) is None


def test_spencer_subspace_check():
    ident = MatrixSubspace.from_matrices(2, [identity(2)])
    assert not spencer_subspace_check(ident)
    diag = MatrixSubspace.from_matrices(
        2, [Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]])])
    assert spencer_subspace_check(diag)
    # no rational rank one element, but over the closure (1, i) works
    rot = MatrixSubspace.from_matrices(
        2, [identity(2), Matrix([[0, -1], [1, 0]])])
    assert span_point(rot.basis) is None
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


def reference_rank1_block(a, y):
    """The degree -1 block of the rank 1 derivation as it was built
    before it read xi off one row of ad y: W the degree -1 kernel of the
    dense ad y, x the first degree -1 basis vector moved by y, and xi the
    covector with kernel W and xi(x) = 1; an oracle only."""
    ad = ad_matrix(a, y).matrix
    pos1 = a.layer_positions(1)
    w = Subspace(a.dim, [a.embed_layer(1, v) for v in kernel_basis(
        Matrix([[row[p] for p in pos1] for row in ad.rows])).basis])
    x = next(p for p in pos1 if any(row[p] for row in ad.rows))
    xi = a.layer_coordinates(
        1, _module_covector(a, w, a.basis_vector(x)))
    return Matrix([[y_r * xi_c for xi_c in xi]
                   for y_r in a.layer_coordinates(1, y)])


def test_rank1_derivation_matches_reference_block():
    """xi read off the first row of ad y gives the reference block on
    every algebra with a rational witness."""
    cases = witness_cases(9011)
    assert len(cases) >= 50
    for a, y in cases:
        d = rank1_derivation_from_witness(a, y)
        assert d.block(1) == reference_rank1_block(a, y), a.name


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


def round_trip_cases():
    """(algebra, rational witness) for every valid nondegenerate algebra
    of table_cases(1234), which holds the catalog sweep, and of seeded
    random 2-step algebras, each also in a seeded basis with rational
    entries where the witness search finds one, and each witness also
    times a seeded rational."""
    rng = random.Random(9311)
    algebras = table_cases(1234)
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6, 7, 8) * 2]
    cases = []
    for a in algebras:
        rep = validate(a)
        if not (rep.structural_ok and rep.checks["nondegenerate"]):
            continue
        moved = change_basis(a, random_homogeneous_basis(rng, a, (1, 2, 3)),
                             ["U%d" % p for p in range(a.dim)])
        for b in (a, moved):
            w = rank1_witness(b)
            if w is not None:
                c = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
                cases += [(b, w), (b, tuple(c * x for x in w))]
    return cases


def assert_same_algebra(got, want):
    """Equal as documents and as stored forms, with equal hashes."""
    assert serialize_algebra(got) == serialize_algebra(want)
    assert got == want and hash(got) == hash(want)


def test_decomposition_round_trip_matches_the_dense_oracle():
    """The integer decomposition and extension give what the dense
    Fraction builders of tests/dense.py give: the same
    DecompositionResult, repr included, and the same rebuilt algebra,
    which is the adapted one."""
    cases = round_trip_cases()
    assert len(cases) >= 300
    assert sum(b.labels[0] == "U0" for b, _ in cases) >= 150
    assert sum(b._den > 1 for b, _ in cases) >= 100
    for a, w in cases:
        got = decompose_special_extension(a, w)
        want = dense_decompose_special_extension(a, w)
        assert got == want and repr(got) == repr(want), a.name
        assert_same_algebra(got.quotient, want.quotient)
        assert_same_algebra(got.adapted, want.adapted)
        data = ExtensionData.from_adapted_base(
            got.quotient, len(got.ideal_basis), got.cocycle)
        rebuilt = special_extension(data)
        assert_same_algebra(rebuilt, dense_special_extension(data))
        assert rebuilt == got.adapted, a.name


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
    at a time, the quotient comes from the dense reference_quotient and
    the cocycle from one solve per pair of representatives, so nothing is
    shared with the split of the adapted brackets.  An oracle only."""
    n = a.dim
    x_vec, chain = d.transversal, list(d.ideal_basis)
    s = len(chain)
    w_full = kernel_basis(ad_matrix(a, d.witness).matrix)
    z_vectors = []
    acc = Subspace(n, [x_vec] + chain)
    candidates = list(intersect(w_full, reference_layer(a, 1)).basis)
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
    base = reference_quotient(a, Subspace(n, chain), reps, rep_labels)
    decomp = from_columns(reps + chain)
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


def test_decompose_rejects_an_ungraded_chain_promptly():
    """[A, B] = 2A - C and [A, C] = 3B break the grading: y = B has rank
    ad y = 1 and no central degree -1 vector, but the chain B, 2A - C,
    -3B, ... never reaches zero.  It is cut at the dimension, so the
    call returns at once."""
    a = GNLA("ungraded", [("A", -1), ("B", -1), ("C", -2)],
             {(0, 1): [(0, 2), (2, -1)], (0, 2): [(1, 3)]})
    y = a.basis_vector(1)
    assert ad_matrix(a, y).rank == 1

    def timeout(signum, frame):
        raise TimeoutError("decompose_special_extension did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        with pytest.raises(WitnessInvalid) as exc:
            decompose_special_extension(a, y)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert str(exc.value) == "chain vectors are dependent"


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
    -1 ad spans of the catalog, the pencils, their signed permutations,
    seeded random 2-step algebras and the pencils in a dense rational
    basis, on a few h0 spans, and on spans scaled by unequal rational
    weights, so that the common denominator of the integer builder is
    not 1 on several of them.  The builder reads the integer span of the
    matrices and keeps the zero polynomial where every minor vanishes."""
    rng = random.Random(89)
    algebras = catalog_algebras()
    algebras += [signed_permutation(rng, a) for a in algebras]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 4]
    algebras += [full_block_change(rng, catalog("from_pencil", blocks=b))
                 for b in ("M:1", "F:2", "E:2:a=1", "M:1,M:2")]
    spans = [[ad_matrix(a, a.basis_vector(p)).matrix
              for p in a.layer_positions(1)] for a in algebras]
    spans += [h0(catalog(name, **params)).basis for name, params in (
        ("heisenberg", {"dim": 3}), ("goursat", {"n": 4}),
        ("free2step3", {}), ("from_pencil", {"blocks": "F:2"}))]
    spans += [[m.scale(Fraction(k + 1, 2 * k + 3)) for k, m in
               enumerate(mats)] for mats in spans[:40:4]]
    rational = 0
    for mats in spans:
        want_vars, want = reference_minors(mats, "y")
        want = want or [Polynomial.zero(want_vars)]
        got = _minors(_matrix_span(mats), "y")
        assert all(g.variables == want_vars for g in got)
        assert [g.terms for g in got] == [g.terms for g in want]
        assert [str(g) for g in got] == [str(g) for g in want]
        rational += any(c.denominator != 1 for g in got
                        for c in g.terms.values())
    assert rational >= 10


def test_classify_closure_example_at_default_budgets():
    """The closure certificate settles the verdict before any layer is
    built, so no layer dims come with it."""
    v = classify(closure_example())
    assert (v.kind, v.certificate) == ("infinite", "closure")
    assert v.layer_dims is None
    assert v.total_dim is None and v.witness is None


def test_pencils_stay_infinite_under_full_block_changes():
    """Every catalog pencil with dim <= 12 is infinite (the paper's
    metabelian theorem) in a dense basis too.  Each has a rational
    witness in its catalog basis, and the pencil stage finds one in any
    basis, of rank 1; the minor ideal agrees that a rank 1 point
    exists."""
    rng = random.Random(97)
    checked = 0
    for blocks in PENCIL_BLOCKS:
        a = catalog("from_pencil", blocks=blocks)
        if a.dim > 12:
            continue
        b = full_block_change(rng, a)
        v = classify(b)
        assert (v.kind, v.certificate) == ("infinite", "rational_witness")
        assert ad_matrix(b, v.witness).rank == 1, blocks
        assert not only_trivial_zero(minor_ideal(b)), blocks
        checked += 1
    assert checked >= 10


def test_degree1_span_matches_the_dense_ad_matrices():
    """The integer span read off the bracket table equals the integer
    span of the dense ad matrices of the degree -1 basis, on the
    catalog, the pencils, their signed permutations, seeded random
    2-step algebras and the pencils in dense rational bases, where the
    common denominator is not 1."""
    rng = random.Random(4259)
    algebras = catalog_algebras()
    algebras += [signed_permutation(rng, a) for a in algebras]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 3]
    algebras += [full_block_change(rng, catalog("from_pencil", blocks=b))
                 for b in PENCIL_BLOCKS * 2
                 if catalog("from_pencil", blocks=b).dim <= 12]
    rational = 0
    for a in algebras:
        want = _matrix_span([ad_matrix(a, a.basis_vector(p)).matrix
                             for p in a.layer_positions(1)])
        assert _degree1_span(a) == want, a.name
        rational += want[0] != 1
    assert rational >= 5


def test_classify_builds_no_ad_matrix(monkeypatch):
    """classify reads the degree -1 span from the bracket table, so it
    builds no dense ad matrix, on the pencil class and where the line
    search finds the witness alike."""
    calls = []
    dense = gnla.algebra.ad_matrix

    def counted(a, y):
        calls.append(a.name)
        return dense(a, y)
    assert rebind_in_gnla(monkeypatch, dense, counted) >= 2
    rng = random.Random(4261)
    algebras = catalog_algebras()
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5)]
    algebras += [full_block_change(rng, a) for a in algebras
                 if a.dim <= 8 and not in_pencil_class(a)]
    stages = set()
    for a in algebras:
        if not validate(a).checks["nondegenerate"]:
            continue
        v = classify(a)
        if v.certificate == "rational_witness":
            stages.add((in_pencil_class(a), sum(1 for x in v.witness if x)))
    assert calls == []
    assert {(True, 1), (False, 1), (False, 2)} <= stages


def rebind_in_gnla(monkeypatch, original, replacement):
    """Rebind every global of a gnla module that is original, so calls
    between modules see the replacement; returns how many were bound."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "gnla" or name.startswith("gnla."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
                    bound += 1
    return bound


def test_decomposition_round_trip_and_pencil_stage_take_no_dense_detour(
        monkeypatch):
    """The decomposition reads ad y as sparse rows, change_basis inverts
    on integers, the module covector is a kernel vector and the pencil
    stage takes integer pfaffians: none of them, nor the special
    extension rebuilt from a decomposition, nor classify on the pencil
    class calls ad_matrix or solve."""
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call
    assert rebind_in_gnla(monkeypatch, gnla.algebra.ad_matrix,
                          counted("ad_matrix", gnla.algebra.ad_matrix)) >= 2
    assert rebind_in_gnla(monkeypatch, gnla.linalg.solve,
                          counted("solve", gnla.linalg.solve)) >= 2
    monkeypatch.setattr(gnla.certifier, "_pfaffian",
                        counted("_pfaffian", gnla.certifier._pfaffian))
    for a, w in witness_cases(4263):
        d = decompose_special_extension(a, w)
        rebuilt = special_extension(ExtensionData.from_adapted_base(
            d.quotient, len(d.ideal_basis), d.cocycle))
        assert rebuilt == d.adapted, a.name
    rng = random.Random(4263)
    pencils = [random_two_step(rng, n1) for n1 in (3, 4, 5, 6) * 3]
    pencils += [catalog("from_pencil", blocks=b) for b in PENCIL_BLOCKS]
    pencils.append(closure_example())
    kinds = set()
    for a in pencils:
        if in_pencil_class(a):
            kinds.add(classify(a).certificate)
    pfaffians = calls.count("_pfaffian")
    assert set(calls) == {"_pfaffian"} and pfaffians >= 20
    assert kinds == {"rational_witness", "closure"}


def test_rank_check_reports_the_full_rank():
    """The rank 1 check stops at rank 2, yet a failure names the rank of
    ad y, here the sum of the degree -1 basis."""
    for name, params, rank in (("mixedjet", {"k": 4}, 4),
                               ("goursat", {"n": 5}, 3)):
        a = catalog(name, **params)
        y = a.embed_layer(1, [1] * a.layer_dim(1))
        assert ad_matrix(a, y).rank == rank
        for split in (decompose_special_extension,
                      rank1_derivation_from_witness):
            with pytest.raises(WitnessInvalid) as exc:
                split(a, y)
            assert str(exc.value) == "rank ad y is %d, not 1" % rank
