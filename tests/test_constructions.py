import random
import warnings
from fractions import Fraction

import pytest

from gnla import (
    CATALOG_NAMES,
    Cochain2,
    DegreeViolation,
    ExtensionData,
    GNLA,
    JacobiViolation,
    Matrix,
    MatrixSubspace,
    NotGenerated,
    NotSkew,
    PencilSpec,
    Subspace,
    ad_matrix,
    algebra_from_pencil_spec,
    assemble_pencil,
    bracket,
    catalog,
    change_basis,
    coboundary,
    decompose_special_extension,
    det_pencil,
    h0,
    h0_elementary,
    h2_0,
    metabelian_from_pencil,
    p_y_subspace,
    pencil_block,
    pfaffian,
    rank1_witness,
    special_extension,
    spencer_subspace_check,
    validate,
)


def heis3():
    return catalog("heisenberg", dim=3)


def point():
    """The one-dimensional base; extensions of it are the chain models."""
    return GNLA("pt", [("X", -1)], {})


def random_skew(rng, n, lo=-4, hi=4):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(lo, hi))
            rows[i][j] = c
            rows[j][i] = -c
    return Matrix(rows)


# --- cochains ---------------------------------------------------------------

def test_cochain_from_dict_and_value():
    c = Cochain2.from_dict(3, {(1, 2): (0, 0, 1), (1, 3): (0, 2, 0)})
    assert c.value(1, 2) == (0, 0, 1)
    assert c.value(2, 1) == (0, 0, -1)
    assert c.value(3, 1) == (0, -2, 0)
    assert c.value(0, 4) == (0, 0, 0)
    assert c.value(2, 2) == (0, 0, 0)
    assert not c.is_zero()
    assert Cochain2.zero(3).is_zero()
    with pytest.raises(ValueError):
        Cochain2.from_dict(2, {(2, 1): (1, 0)})
    with pytest.raises(ValueError):
        Cochain2.from_dict(2, {(0, 1): (1, 0, 0)})


def test_cochain_as_dict_drops_zero_values():
    c = Cochain2.from_dict(2, {(0, 1): (0, 0), (1, 2): (1, 0)})
    assert c.as_dict() == {(1, 2): (1, 0)}


# --- extension data and the extension builder -------------------------------

def test_extension_data_validation():
    a = heis3()
    w = Subspace(3, [(0, 1, 0)])
    x = (1, 0, 0)
    good = ExtensionData(base=a, covector_kernel=w, transversal=x,
                         s=2, cocycle=Cochain2.zero(2))
    assert good.s == 2
    with pytest.raises(ValueError):
        ExtensionData(base=a, covector_kernel=w, transversal=x,
                      s=1, cocycle=Cochain2.zero(1))
    with pytest.raises(ValueError):
        # transversal inside the hyperplane
        ExtensionData(base=a, covector_kernel=w, transversal=(0, 1, 0),
                      s=2, cocycle=Cochain2.zero(2))
    with pytest.raises(ValueError):
        # transversal of the wrong degree
        ExtensionData(base=a, covector_kernel=w, transversal=(0, 0, 1),
                      s=2, cocycle=Cochain2.zero(2))
    with pytest.raises(ValueError):
        ExtensionData(base=a, covector_kernel=w, transversal=x,
                      s=3, cocycle=Cochain2.zero(2))
    with pytest.raises(ValueError):
        # the center of the base is not a hyperplane of the first layer
        ExtensionData(base=a, covector_kernel=Subspace(3, [(0, 0, 1)]),
                      transversal=x, s=2, cocycle=Cochain2.zero(2))


def test_from_adapted_base_convention():
    a = heis3()
    data = ExtensionData.from_adapted_base(a, 2)
    assert data.transversal == (1, 0, 0)
    assert data.covector_kernel == Subspace(3, [(0, 1, 0)])
    assert data.cocycle.is_zero()


def test_extension_of_point_is_the_chain():
    built = special_extension(ExtensionData.from_adapted_base(point(), 4))
    chain = catalog("goursat", n=5)
    assert built.labels == ("X", "Y1", "Y2", "Y3", "Y4")
    assert built.degrees == chain.degrees
    assert built.brackets == chain.brackets
    assert validate(built).all_passed


def test_extension_with_cocycle_rebuilds_nontrivial6():
    coc = Cochain2.from_dict(3, {(1, 2): (0, 0, 1)})
    built = special_extension(ExtensionData.from_adapted_base(heis3(), 3, coc))
    nt = catalog("nontrivial6")
    d = decompose_special_extension(nt, rank1_witness(nt))
    assert built == d.adapted
    assert validate(built).all_passed


def test_extension_jacobi_violation_when_module_too_long():
    """The same hyperplane-pair cocycle component that builds at s = 3
    leaves an uncancelled term at s = 4."""
    coc = Cochain2.from_dict(4, {(1, 2): (0, 0, 1, 0)})
    with pytest.raises(JacobiViolation) as exc:
        special_extension(ExtensionData.from_adapted_base(heis3(), 4, coc))
    assert exc.value.triple == ("X", "Z1", "Z2")


def test_extension_degree_violation():
    coc = Cochain2.from_dict(3, {(0, 1): (1, 0, 0)})
    with pytest.raises(DegreeViolation):
        special_extension(ExtensionData.from_adapted_base(heis3(), 3, coc))


def test_extension_internal_adaptation():
    """A transversal that is not a basis vector forces a basis change of
    the base before attaching the module; the result still validates."""
    a = heis3()
    w = Subspace(3, [(1, 1, 0)])
    data = ExtensionData(base=a, covector_kernel=w, transversal=(1, 0, 0),
                         s=2, cocycle=Cochain2.zero(2))
    built = special_extension(data)
    assert built.labels[0] == "X"
    assert validate(built).structural_ok
    assert built.layer_dims() == (3, 2)


def test_canonicalized_removes_coboundary_part():
    coc = Cochain2.from_dict(3, {(0, 1): (0, 5, 0), (0, 2): (0, 0, 7),
                                 (1, 2): (0, 0, 2)})
    data = ExtensionData.from_adapted_base(heis3(), 3, coc)
    red = data.canonicalized()
    assert red.cocycle.as_dict() == {(1, 2): (0, 0, 2)}
    # reduction is a projection
    assert red.canonicalized().cocycle == red.cocycle
    assert validate(special_extension(red)).all_passed


def test_coboundary_cocycles_build_trivial_extensions():
    """beta = d1 f: shifting each lift u by -f(u) undoes the cocycle."""
    base = heis3()
    w = Subspace(3, [(0, 1, 0)])
    f = {1: 3, 2: -2}
    beta = coboundary(base, w, 3, f)
    assert beta.as_dict() == {(0, 1): (0, 5, 0), (0, 2): (0, 0, -2)}
    m_beta = special_extension(ExtensionData.from_adapted_base(base, 3, beta))
    m_zero = special_extension(ExtensionData.from_adapted_base(base, 3))

    def vec(**kw):
        v = [Fraction(0)] * m_beta.dim
        for lbl, c in kw.items():
            v[m_beta.labels.index(lbl)] = Fraction(c)
        return tuple(v)

    vectors = [vec(X=1), vec(Y1=1), vec(Y2=1), vec(Y3=1),
               vec(Z1=1, Y1=-3), vec(Z2=1, Y2=2)]
    assert change_basis(m_beta, vectors, list(m_beta.labels)) == m_zero
    # and canonicalization kills it outright
    red = ExtensionData.from_adapted_base(base, 3, beta).canonicalized()
    assert red.cocycle.is_zero()


def test_coboundary_rejects_deep_positions():
    base = catalog("goursat", n=4)
    w = Subspace(4, [(0, 1, 0, 0)])
    with pytest.raises(ValueError):
        coboundary(base, w, 2, {3: 1})  # degree -3 exceeds the module


# --- degree zero cohomology --------------------------------------------------

def test_h2_0_heisenberg_pinned_dims():
    base = heis3()
    w = Subspace(3, [(0, 1, 0)])
    assert h2_0(base, w, 2)[0] == 0
    dim3, reps3 = h2_0(base, w, 3)
    assert dim3 == 1
    assert len(reps3) == 1
    assert reps3[0].as_dict() == {(1, 2): (0, 0, 1)}
    assert h2_0(base, w, 4)[0] == 0


def test_h2_0_representatives_build():
    base = heis3()
    w = Subspace(3, [(0, 1, 0)])
    _, reps = h2_0(base, w, 3)
    for r in reps:
        data = ExtensionData(base=base, covector_kernel=w,
                             transversal=(1, 0, 0), s=3, cocycle=r)
        assert validate(special_extension(data)).structural_ok


def test_h2_0_point_base_is_rigid():
    base = point()
    w = Subspace.zero(1)
    for s in (2, 3, 4):
        dim, reps = h2_0(base, w, s)
        assert dim == 0
        assert reps == []


# --- pencils -----------------------------------------------------------------

def test_pencil_block_m1():
    b1, b2 = pencil_block("M", 1)
    assert b1 == Matrix([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert b2 == Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])


def test_pencil_block_f1():
    b1, b2 = pencil_block("F", 1)
    assert b1 == Matrix.zero(2, 2)
    assert b2 == Matrix([[0, 1], [-1, 0]])


def test_pencil_block_e1():
    b1, b2 = pencil_block("E", (1, 0))
    assert b1 == Matrix([[0, 1], [-1, 0]])
    assert b2 == Matrix.zero(2, 2)


def test_pencil_blocks_are_skew():
    for kind, param in [("M", 1), ("M", 3), ("F", 2), ("E", (2, 1))]:
        b1, b2 = pencil_block(kind, param)
        assert b1.is_skew() and b2.is_skew()
        assert b1.nrows == b1.ncols == b2.nrows


def test_metabelian_from_pencil_errors():
    J = Matrix([[0, 1], [-1, 0]])
    with pytest.raises(NotSkew):
        metabelian_from_pencil([Matrix([[1, 0], [0, 0]])], ["A", "B"], "x")
    with pytest.raises(NotGenerated):
        metabelian_from_pencil([J, J.scale(2)], ["A", "B"], "x")
    with pytest.raises(ValueError):
        metabelian_from_pencil([Matrix([[0]])], ["A"], "x")


def test_metabelian_common_kernel_warns_degenerate():
    j_padded = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        a = metabelian_from_pencil([j_padded], ["A", "B", "C"], "degen")
    assert any("degenerate" in str(w.message) for w in rec)
    rep = validate(a)
    assert rep.structural_ok
    assert not rep.checks["nondegenerate"]


def test_metabelian_structure():
    b1, b2 = pencil_block("M", 1)
    a = metabelian_from_pencil([b1, b2], ["A", "B", "C"], "m1")
    assert a.layer_dims() == (3, 2)
    # brackets read off the forms: [u, v] = (B1(u,v), B2(u,v))
    assert bracket(a, a.basis_vector(1), a.basis_vector(2))[3] == 1
    assert bracket(a, a.basis_vector(0), a.basis_vector(2))[4] == 1
    assert validate(a).all_passed


def test_pencil_spec_parse_and_properties():
    spec = PencilSpec.parse("M:1,F:2,E:1:a=0")
    assert spec.blocks == (("M", 1), ("F", 2), ("E", (1, Fraction(0))))
    assert spec.minimal_indices == (1,)
    assert spec.finite_divisors == ((Fraction(0), 1),)
    assert spec.infinite_divisors == (2,)
    assert [spec.block_tag(i) for i in range(3)] == ["M1", "F2", "E1"]
    # E defaults to a = 0
    assert PencilSpec.parse("E:2").blocks == (("E", (2, Fraction(0))),)


def test_pencil_spec_parse_errors():
    for bad in ["", "Q:1", "M:x", "M:1:a=2", "E:1:b=2"]:
        with pytest.raises(ValueError):
            PencilSpec.parse(bad)


def test_assemble_pencil():
    spec = PencilSpec.parse("M:1,F:2,E:1:a=0")
    (b1, b2), labels = assemble_pencil(spec)
    assert b1.nrows == 9
    assert labels == ["X1_M1", "X2_M1", "X3_M1", "X4_F2", "X5_F2",
                      "X6_F2", "X7_F2", "X8_E1", "X9_E1"]
    assert b1.is_skew() and b2.is_skew()
    # block diagonal: nothing couples the M1 corner to the rest
    for i in range(3):
        for j in range(3, 9):
            assert b1[i, j] == 0 and b2[i, j] == 0


def test_assemble_pencil_m0_warns():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assemble_pencil(PencilSpec.parse("M:0,F:1"))
    assert rec


def test_algebra_from_pencil_spec_dims():
    expected = {"M:1": (3, 2), "M:2": (5, 2), "M:3": (7, 2),
                "F:1": (2, 1), "F:2": (4, 2), "F:3": (6, 2)}
    for text, dims in expected.items():
        a = algebra_from_pencil_spec(text)
        assert a.layer_dims() == dims, text
        assert validate(a).all_passed, text


def test_algebra_from_pencil_drops_dependent_matrices():
    # F:1 has a zero first form, so only one bracket form survives
    a = algebra_from_pencil_spec("F:1")
    assert a.dim == 3
    assert a.layer_dims() == (2, 1)


# --- pfaffian and determinant forms -------------------------------------------

def test_pfaffian_pinned_values():
    assert pfaffian(Matrix([[0, 5], [-5, 0]])) == 5
    b = Matrix([[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6],
                [-3, -5, -6, 0]])
    # pf = af - be + cd with rows (a,b,c),(d,e),(f)
    assert pfaffian(b) == 1 * 6 - 2 * 5 + 3 * 4


def test_pfaffian_odd_side_is_zero():
    assert pfaffian(Matrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])) == 0


def test_pfaffian_rejects_non_skew():
    with pytest.raises(NotSkew):
        pfaffian(Matrix([[1, 2], [-2, 0]]))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.choice((2, 4, 6))
        b = random_skew(rng, n)
        assert pfaffian(b) ** 2 == b.det()
    # (side - 1)!! terms: a term-by-term expansion would not finish here
    for n in (20, 24):
        b = random_skew(rng, n)
        assert pfaffian(b) ** 2 == b.det() != 0


def test_det_pencil_m_block_is_identically_zero():
    b1, b2 = pencil_block("M", 1)
    form = det_pencil(b1, b2)
    assert form.identically_zero
    assert all(c == 0 for c in form.coefficients)
    assert form.rational_roots == ()


def test_det_pencil_split_roots():
    j = Matrix([[0, 1], [-1, 0]])
    z = Matrix.zero(2, 2)
    rows1 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    rows2 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    form = det_pencil(Matrix(rows1), Matrix(rows2))
    assert not form.identically_zero
    assert form.coefficients == (0, 0, 1, 0, 0)
    assert form.rational_roots == ((1, 0), (0, 1))
    # second form zero: det is a pure power, root at infinity only
    pure = det_pencil(j, z)
    assert pure.coefficients == (1, 0, 0)
    assert pure.rational_roots == ((0, 1),)


def test_det_pencil_matches_direct_determinant():
    rng = random.Random(67)
    for _ in range(10):
        n = rng.choice((2, 4))
        b1 = random_skew(rng, n, -2, 2)
        b2 = random_skew(rng, n, -2, 2)
        form = det_pencil(b1, b2)
        for t in (0, 1, -1, 2, Fraction(1, 2)):
            direct = (b1.scale(t) + b2).det()
            total = sum(c * t ** (n - k) for k, c in
                        enumerate(form.coefficients))
            assert total == direct


def test_p_y_subspace():
    a = heis3()
    space = h0(a)
    sub, codim = p_y_subspace(space, (0, 1))
    assert (space.dim, sub.dim, codim) == (3, 1, 2)
    for m in sub.basis:
        assert all(c == 0 for c in m.apply((0, 1)))


def test_p_y_codim_equals_ad_rank_on_pencils():
    """For the bracket forms of a 2-step algebra, cutting by y has the
    same codimension as the rank of ad y."""
    rng = random.Random(71)
    for text in ("M:1", "M:2", "F:2", "M:1,F:1"):
        a = algebra_from_pencil_spec(text)
        n1 = a.layer_dim(1)
        n2 = a.layer_dim(2)
        forms = []
        for k in range(n2):
            rows = [[a.pair_bracket(i, j)[a.layer_positions(2)[k]]
                     for j in range(n1)] for i in range(n1)]
            forms.append(Matrix(rows))
        space = MatrixSubspace.from_matrices(n1, forms)
        for _ in range(5):
            y1 = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n1))
            if all(c == 0 for c in y1):
                continue
            _, codim = p_y_subspace(space, y1)
            assert codim == ad_matrix(a, a.embed_layer(1, y1)).rank


def test_h0_elementary_matches_direct_computation():
    for kind, param in [("M", 1), ("M", 2), ("M", 3),
                        ("F", 1), ("F", 2), ("F", 3)]:
        e = h0_elementary(kind, param)
        a = algebra_from_pencil_spec("%s:%d" % (kind, param))
        space = h0(a)
        assert space.side == e.side
        assert space.dim == e.dim
        assert e.dim == (2 * param + 1 if kind == "M" else 3 * param)
        assert e.rank1_element.rank() == 1
        assert space.contains(e.rank1_element)
        assert spencer_subspace_check(space)


def test_h0_elementary_rejections():
    with pytest.raises(ValueError):
        h0_elementary("E", 1)
    with pytest.raises(ValueError):
        h0_elementary("M", 0)


# --- catalog ------------------------------------------------------------------

def test_catalog_names_cover_the_families():
    assert set(CATALOG_NAMES) == {"goursat", "heisenberg", "mixedjet",
                                  "nontrivial6", "free2step3", "kgen",
                                  "from_pencil"}


def test_catalog_entries_validate():
    entries = [("goursat", {"n": 3}), ("goursat", {"n": 6}),
               ("heisenberg", {"dim": 3}), ("heisenberg", {"dim": 7}),
               ("mixedjet", {"k": 2}), ("mixedjet", {"k": 4}),
               ("nontrivial6", {}), ("free2step3", {}),
               ("kgen", {"k": 3}), ("kgen", {"k": 7}),
               ("from_pencil", {"blocks": "M:1,F:2"})]
    for name, params in entries:
        a = catalog(name, **params)
        assert validate(a).all_passed, (name, params)


def test_catalog_goursat2_is_the_abelian_plane():
    # the n = 2 member is commutative, hence degenerate but structural
    a = catalog("goursat", n=2)
    rep = validate(a)
    assert rep.structural_ok
    assert not rep.checks["nondegenerate"]
    assert a.layer_dims() == (2,)


def test_catalog_pinned_shapes():
    assert catalog("goursat", n=4).layer_dims() == (2, 1, 1)
    assert catalog("heisenberg", dim=5).layer_dims() == (4, 1)
    assert catalog("mixedjet", k=3).layer_dims() == (3, 2, 1)
    assert catalog("nontrivial6").layer_dims() == (3, 2, 1)
    assert catalog("free2step3").layer_dims() == (3, 3)
    assert catalog("kgen", k=6).layer_dims() == (6, 3)


def test_catalog_parameter_validation():
    with pytest.raises(ValueError):
        catalog("nosuch")
    with pytest.raises(ValueError):
        catalog("goursat")
    with pytest.raises(ValueError):
        catalog("goursat", n=1)
    with pytest.raises(ValueError):
        catalog("goursat", n=3, extra=1)
    with pytest.raises(ValueError):
        catalog("heisenberg", dim=4)
    with pytest.raises(ValueError):
        catalog("kgen", k=2)
    with pytest.raises(ValueError):
        catalog("mixedjet", k=1)
    with pytest.raises(ValueError):
        catalog("from_pencil")


def test_catalog_from_pencil_accepts_spec_objects():
    spec = PencilSpec.parse("M:1")
    assert catalog("from_pencil", blocks=spec) == catalog(
        "from_pencil", blocks="M:1")
