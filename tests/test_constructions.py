import random
import signal
import warnings
from fractions import Fraction
from math import lcm

import pytest
import sympy

from cases import (
    PENCIL_BLOCKS,
    catalog_algebras,
    random_two_step,
    signed_permutation,
    witness_cases,
)
from dense import special_extension as dense_special_extension
from dense import h0_closed_form, identity, reference_pencil_block
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
    decompose_special_extension,
    det_pencil,
    h0,
    h2_0,
    kernel_basis,
    metabelian_from_pencil,
    pfaffian,
    rank1_witness,
    serialize_algebra,
    solve,
    special_extension,
    spencer_subspace_check,
    validate,
)
from gnla.constructions import (
    _check_hyperplane,
    _interpolated,
    _pfaffian,
    _cochain_from_slots,
    _cocycle_slot_vector,
    _default_transversal,
    _differential,
    _module_covector,
    _pencil_pair,
    _slots,
    _template,
)
from gnla import constructions
from gnla.linalg import independent_rows, vector


def heis3():
    return catalog("heisenberg", dim=3)


def reference_special_extension(data):
    """special_extension as it was built before it went through
    change_basis: the base is moved to the adapted basis X, Z_1.. first
    (skipped when that basis is the identity), the cocycle is pulled
    back pair by pair, and the brackets are written out directly.  An
    oracle only."""
    base, w, s = data.base, data.covector_kernel, data.s
    x = data.transversal
    n = base.dim

    adapted_vectors = [x] + list(w.basis)
    for i in range(2, base.depth + 1):
        adapted_vectors.extend(base.basis_vector(p)
                               for p in base.layer_positions(i))
    identity = all(v == base.basis_vector(i)
                   for i, v in enumerate(adapted_vectors))
    if identity:
        inner = base
        cocycle = data.cocycle
    else:
        labels = ["X"] + ["Z%d" % i for i in range(1, n)]
        inner = change_basis(base, adapted_vectors, labels)
        pulled = {}
        for p in range(n):
            vp = adapted_vectors[p]
            for q in range(p + 1, n):
                vq = adapted_vectors[q]
                acc = [Fraction(0)] * s
                for i in range(n):
                    if vp[i] == 0 and vq[i] == 0:
                        continue
                    for j in range(i + 1, n):
                        m = vp[i] * vq[j] - vp[j] * vq[i]
                        if m == 0:
                            continue
                        val = data.cocycle.value(i, j)
                        for t, c in enumerate(val):
                            acc[t] += m * c
                if any(c != 0 for c in acc):
                    pulled[(p, q)] = tuple(acc)
        cocycle = Cochain2.from_dict(s, pulled)

    deg = inner.degrees
    c2 = [(p, q) for p in range(n) for q in range(p + 1, n)
          if -(deg[p] + deg[q]) <= s]
    slot = dict(zip(c2, _cocycle_slot_vector(inner, s, cocycle, c2)))

    basis = [("X", -1)] + [("Y%d" % i, -i) for i in range(1, s + 1)]
    basis += [("Z%d" % j, deg[j]) for j in range(1, n)]
    brackets = {(0, i): [(i + 1, Fraction(1))] for i in range(1, s)}

    def base_terms(p, q):
        out = []
        for t, c in enumerate(inner.pair_bracket(p, q)):
            if c != 0:
                if t == 0:
                    raise ValueError("base bracket has a transversal component")
                out.append((s + t, c))
        k = -(deg[p] + deg[q])
        cval = slot.get((p, q), Fraction(0))
        if cval != 0 and k <= s:
            out.append((k, cval))
        return sorted(out)

    for p in range(n):
        for q in range(p + 1, n):
            terms = base_terms(p, q)
            if terms:
                brackets[(s + p if p else 0, s + q)] = terms

    out = GNLA(base.name + "_ext", basis, brackets)
    rep = validate(out)
    if not rep.checks["jacobi"]:
        triple = next(wit for kind, wit in rep.failures if kind == "jacobi")
        raise JacobiViolation(triple)
    return out


def extension_outcome(build, data):
    """The built algebra, or the exception type and Jacobi triple."""
    try:
        return build(data)
    except JacobiViolation as exc:
        return ("JacobiViolation", exc.triple)
    except (DegreeViolation, ValueError) as exc:
        return (type(exc).__name__,)


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


def test_cochain_refuses_pairs_out_of_order_or_repeated():
    """A Cochain2 built directly holds each pair i < j at most once, as
    from_dict does: the pair (Z, Y) of heisenberg dim 3 written as
    (2, 1), or (1, 1), is refused where it is built, not later by
    special_extension as a pair of total degree below -s."""
    a = heis3()
    for pair in ((2, 1), (1, 1)):
        with pytest.raises(ValueError, match="i < j"):
            Cochain2(s=3, values=((pair, (0, 0, 1)),))
    with pytest.raises(ValueError, match="distinct"):
        Cochain2(s=3, values=(((1, 2), (0, 0, 1)), ((1, 2), (0, 0, 2))))
    cocycle = Cochain2(s=3, values=(((1, 2), (0, 0, 1)),))
    assert cocycle == Cochain2.from_dict(3, {(1, 2): (0, 0, 1)})
    ext = special_extension(ExtensionData.from_adapted_base(a, 3, cocycle))
    assert validate(ext).all_passed


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


def test_degree_violation_names_the_callers_labels():
    """The slots are checked on the base as given, so a moved adapted
    basis does not leak its internal labels into the message."""
    a = heis3()
    data = ExtensionData(base=a, covector_kernel=Subspace(3, [(1, 1, 0)]),
                         transversal=(1, 0, 0), s=3,
                         cocycle=Cochain2.from_dict(3, {(0, 1): (1, 0, 0)}))
    with pytest.raises(DegreeViolation) as exc:
        special_extension(data)
    assert str(exc.value) == (
        "value at (X, Y) must lie in the component of degree -2")


def test_cocycle_pair_outside_the_base_is_rejected_on_a_moved_basis():
    data = ExtensionData(base=heis3(),
                         covector_kernel=Subspace(3, [(1, 1, 0)]),
                         transversal=(1, 0, 0), s=3,
                         cocycle=Cochain2.from_dict(3, {(1, 5): (0, 0, 1)}))
    with pytest.raises(ValueError, match="outside the base"):
        special_extension(data)


def test_negative_positions_are_outside_the_base():
    """A negative position does not wrap to the end of the basis: a
    cocycle pair with one is outside the base in special_extension."""
    a = heis3()
    for pair in ((-1, 0), (-3, -2), (1, 3)):
        data = ExtensionData.from_adapted_base(
            a, 3, Cochain2.from_dict(3, {pair: (0, 1, 0)}))
        with pytest.raises(ValueError) as exc:
            special_extension(data)
        assert str(exc.value) == (
            "cocycle pair (%d, %d) outside the base" % pair)


def test_module_length_is_checked_before_the_base():
    """s < 2 is refused first, before the base is validated; h2_0 bounds
    s like an extension."""
    broken = GNLA("broken", [("X", -1), ("Y", -1), ("Z", -2)],
                  {(0, 1): [(2, 1)], (0, 2): [(1, 1)]})
    w = Subspace(3, [broken.basis_vector(1)])
    for s in (1, 0, -4):
        with pytest.raises(ValueError, match="module length s must be at "
                                             "least 2"):
            ExtensionData(base=broken, covector_kernel=w,
                          transversal=(1, 0, 0), s=s,
                          cocycle=Cochain2.zero(s))
        with pytest.raises(ValueError, match="at least 2"):
            h2_0(heis3(), w, s)
    with pytest.raises(ValueError, match="base algebra does not validate"):
        ExtensionData(base=broken, covector_kernel=w, transversal=(1, 0, 0),
                      s=2, cocycle=Cochain2.zero(2))
    with pytest.raises(ValueError, match="s = 254 has more than 256"):
        h2_0(heis3(), w, 254)
    assert h2_0(heis3(), w, 253) == (0, [])


def test_special_extension_matches_reference_on_decompositions():
    """Rebuilding every decomposition of a catalog algebra, a signed
    permutation of it or a random 2-step algebra gives the reference
    extension, which is the adapted algebra."""
    for a, w in witness_cases(9001):
        d = decompose_special_extension(a, w)
        data = ExtensionData.from_adapted_base(
            d.quotient, len(d.ideal_basis), d.cocycle)
        built = special_extension(data)
        assert built == reference_special_extension(data) == d.adapted, a.name


def random_hyperplane(rng, base):
    """A random hyperplane W of the degree -1 layer and a transversal x
    outside it, entries in [-2, 2]."""
    n1 = base.layer_dim(1)
    while True:
        alpha = [rng.randint(-2, 2) for _ in range(n1)]
        x = [rng.randint(-2, 2) for _ in range(n1)]
        if any(alpha) and sum(u * v for u, v in zip(alpha, x)) != 0:
            break
    w = Subspace(base.dim, [base.embed_layer(1, v) for v in
                            kernel_basis(Matrix([alpha])).basis])
    return w, base.embed_layer(1, x)


def random_moved_extension_data(rng, base):
    """ExtensionData on a random hyperplane and transversal whose adapted
    basis is not the identity.  The cocycle is an h2_0 combination plus
    a coboundary, or random values that now and then sit in the wrong
    component or below the module."""
    w, x = random_hyperplane(rng, base)
    s = rng.choice((2, 3, 4))
    deg = base.degrees
    values = {}
    if rng.random() < 0.5:
        for rep in h2_0(base, w, s)[1]:
            c = rng.randint(-2, 2)
            for pq, val in rep.values:
                old = values.get(pq, (0,) * s)
                values[pq] = tuple(u + c * v for u, v in zip(old, val))
        f = {p: rng.randint(-3, 3) for p in range(base.dim)
             if -deg[p] <= s and rng.random() < 0.5}
        for pq, val in reference_coboundary(base, w, s, f, x).values:
            old = values.get(pq, (0,) * s)
            values[pq] = tuple(u + v for u, v in zip(old, val))
    else:
        for p in range(base.dim):
            for q in range(p + 1, base.dim):
                if rng.random() < 0.3:
                    k = -(deg[p] + deg[q])
                    if rng.random() < 0.1:
                        k = rng.randint(1, s)
                    if k <= s or rng.random() < 0.1:
                        val = [0] * s
                        val[min(k, s) - 1] = Fraction(rng.randint(-3, 3),
                                                      rng.randint(1, 2))
                        values[(p, q)] = val
    return ExtensionData(base=base, covector_kernel=w, transversal=x, s=s,
                         cocycle=Cochain2.from_dict(s, values))


def test_special_extension_matches_reference_on_moved_bases():
    """On random hyperplanes and transversals, built or rejected alike:
    the same algebra, or the same exception and Jacobi triple; and the
    degree 0 complex of each case matches its dense reference."""
    rng = random.Random(6007)
    bases = [heis3(), catalog("heisenberg", dim=5), catalog("goursat", n=4),
             catalog("mixedjet", k=2), catalog("nontrivial6"),
             catalog("free2step3"), catalog("kgen", k=3),
             catalog("from_pencil", blocks="M:1")]
    kinds = {}
    moved = 0
    while moved < 120:
        base = rng.choice(bases)
        data = random_moved_extension_data(rng, base)
        adapted = [data.transversal] + list(data.covector_kernel.basis)
        if adapted == [base.basis_vector(p)
                       for p in base.layer_positions(1)]:
            continue
        moved += 1
        got = extension_outcome(special_extension, data)
        assert got == extension_outcome(reference_special_extension, data)
        assert got == extension_outcome(dense_special_extension, data)
        assert h2_0(base, data.covector_kernel, data.s) == reference_h2_0(
            base, data.covector_kernel, data.s)
        kind = got[0] if isinstance(got, tuple) else "built"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds.get("built", 0) >= 20, kinds
    assert kinds.get("JacobiViolation", 0) >= 20, kinds
    assert kinds.get("DegreeViolation", 0) >= 5, kinds


def test_special_extension_matches_the_dense_oracle_on_a_rational_hyperplane():
    """heisenberg5 rescaled to the constants 3/2, 6 and 1/3, a hyperplane
    whose RREF rows are not unit vectors, a Fraction transversal and
    cocycles with rational values, s = 2 and 3: the integer build gives
    the document and stored form of the dense build of tests/dense.py,
    as does its canonical form, and the result validates."""
    base = change_basis(catalog("heisenberg", dim=5), [
        (2, 0, 0, 0, 0), (0, Fraction(3, 4), 0, 0, 0), (0, 0, 1, 0, 0),
        (0, 0, 0, Fraction(2, 3), 0), (0, 0, 0, 0, Fraction(4, 3))],
        ["A", "B", "C", "D", "E"], "rescaled")
    assert base.brackets == {(0, 2): ((4, Fraction(3, 2)),),
                             (1, 3): ((4, Fraction(3, 8)),)}
    w = Subspace(5, [(1, 0, 0, Fraction(1, 2), 0),
                     (0, 1, 0, Fraction(-2, 3), 0), (0, 0, 1, 3, 0)])
    assert all(len(r) == 2 for r in w._rows)
    x = (Fraction(1, 2), 0, 0, Fraction(-5, 3), 0)
    built = 0
    for s in (2, 3):
        # a rational combination of the cocycles for this transversal
        c2, _, d2 = _differential(base, _module_covector(base, w, x), s, 2)
        cocycles = kernel_basis(Matrix([[row.get(i, 0) for i in range(
            len(c2))] for row in d2] or [[0] * len(c2)])).basis
        assert len(cocycles) >= 2
        coeffs = [sum(c * v[i] for c, v in zip(
            (Fraction(3, 2), Fraction(-2, 7), 5), cocycles))
            for i in range(len(c2))]
        cocycle = _cochain_from_slots(base, s, c2, coeffs)
        assert any(c.denominator > 1 for _, val in cocycle.values
                   for c in val)
        data = ExtensionData(base=base, covector_kernel=w, transversal=x,
                             s=s, cocycle=cocycle)
        canonical = ExtensionData(base=base, covector_kernel=w,
                                  transversal=x, s=s,
                                  cocycle=reference_canonicalized(data))
        for d in (data, canonical):
            got, want = special_extension(d), dense_special_extension(d)
            assert serialize_algebra(got) == serialize_algebra(want)
            assert got == want and hash(got) == hash(want)
            assert validate(got).all_passed
            built += 1
    assert built == 4


def test_canonicalized_removes_coboundary_part():
    """The reference reduction modulo coboundaries keeps the one class
    coefficient, is a projection, and the reduced cocycle builds."""
    coc = Cochain2.from_dict(3, {(0, 1): (0, 5, 0), (0, 2): (0, 0, 7),
                                 (1, 2): (0, 0, 2)})
    red = reference_canonicalized(
        ExtensionData.from_adapted_base(heis3(), 3, coc))
    assert red.as_dict() == {(1, 2): (0, 0, 2)}
    data = ExtensionData.from_adapted_base(heis3(), 3, red)
    assert reference_canonicalized(data) == red
    assert validate(special_extension(data)).all_passed


def test_coboundary_cocycles_build_trivial_extensions():
    """beta = d1 f: shifting each lift u by -f(u) undoes the cocycle."""
    base = heis3()
    w = Subspace(3, [(0, 1, 0)])
    f = {1: 3, 2: -2}
    beta = reference_coboundary(base, w, 3, f)
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
    assert reference_canonicalized(
        ExtensionData.from_adapted_base(base, 3, beta)).is_zero()


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
    w = Subspace(1)
    for s in (2, 3, 4):
        dim, reps = h2_0(base, w, s)
        assert dim == 0
        assert reps == []


# --- pencils -----------------------------------------------------------------

def _reference_block_diag(blocks):
    side = sum(b.nrows for b in blocks)
    zero = (Fraction(0),)
    rows = []
    for b in blocks:
        off = len(rows)
        rows += [zero * off + r + zero * (side - off - b.ncols) for r in b.rows]
    return Matrix._trusted(tuple(rows))


def reference_assemble_pencil(spec):
    """assemble_pencil built from whole blocks: each pair from
    reference_pencil_block, then the copies concatenated diagonally."""
    firsts = []
    seconds = []
    labels = []
    counter = 0
    for idx, (kind, param) in enumerate(spec.blocks):
        b1, b2 = reference_pencil_block(kind, param)
        firsts.append(b1)
        seconds.append(b2)
        tag = spec.block_tag(idx)
        for _ in range(b1.nrows):
            counter += 1
            labels.append("X%d_%s" % (counter, tag))
    if spec.minimal_indices and spec.minimal_indices[0] == 0:
        warnings.warn("minimal index 0 present; the pencil is degenerate",
                      stacklevel=2)
    return ((_reference_block_diag(firsts), _reference_block_diag(seconds)),
            labels)


def one_block(kind, param):
    """The pencil pair of one block, written by the builder of block
    lists."""
    return _pencil_pair([_template(kind, param)])


def built(fn, *args):
    """The repr of fn(*args) or the type and message of what it raised,
    with the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(fn(*args))
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def test_pencil_builders_match_the_reference_builders():
    """Every kind at sizes 0-6 with rational a, invalid parameters and
    seeded multi-block lists give the reference's matrices, labels,
    warnings and error messages."""
    rng = random.Random(2417)
    rationals = [Fraction(0), Fraction(1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
    blocks = []
    for n in range(7):
        blocks += [("M", n), ("F", n)] + [("E", (n, a)) for a in rationals]
    bad = [("M", -1), ("F", -2), ("E", (-1, 1)), ("E", (2, "x")), ("Q", 1)]
    for kind, param in blocks + bad + [
            ("E", 3), ("E", (1, 2.5)), ("M", "x"), ("F", None), ("m", 1)]:
        assert (built(one_block, kind, param)
                == built(reference_pencil_block, kind, param)), (kind, param)
    errors = 0
    for _ in range(60):
        spec = PencilSpec(blocks=tuple(rng.choice(blocks + bad)
                                       for _ in range(rng.randint(1, 4))))
        got = built(assemble_pencil, spec)
        assert got == built(reference_assemble_pencil, spec), spec
        errors += type(got[0]) is tuple
    assert 10 < errors < 50


def test_pencil_block_m1():
    b1, b2 = one_block("M", 1)
    assert b1 == Matrix([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert b2 == Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])


def test_pencil_block_f1():
    b1, b2 = one_block("F", 1)
    assert b1 == Matrix.zero(2, 2)
    assert b2 == Matrix([[0, 1], [-1, 0]])


def test_pencil_block_e1():
    b1, b2 = one_block("E", (1, 0))
    assert b1 == Matrix([[0, 1], [-1, 0]])
    assert b2 == Matrix.zero(2, 2)


def test_pencil_blocks_are_skew():
    for kind, param in [("M", 1), ("M", 3), ("F", 2), ("E", (2, 1))]:
        b1, b2 = one_block(kind, param)
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
    b1, b2 = reference_pencil_block("M", 1)
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


def test_pencil_matrices_are_tuples_of_fractions():
    """Blocks and block-diagonal pencils are built from Fraction rows
    taken as they are: each equals its own coerced copy."""
    for text in PENCIL_BLOCKS:
        (b1, b2), _ = assemble_pencil(PencilSpec.parse(text))
        for m in (b1, b2):
            assert m == Matrix(m.rows) and m.is_skew()
            assert all(type(r) is tuple for r in m.rows)
            assert all(type(e) is Fraction for r in m.rows for e in r)


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
    # side 40 has 39!! ~ 3e23 terms, far past a term-by-term expansion;
    # the fraction-free elimination takes side^3/6 integer steps
    for n in (20, 24, 40):
        b = random_skew(rng, n)
        assert pfaffian(b) ** 2 == b.det() != 0


def reference_pfaffian(b):
    """The pfaffian by skew elimination on 2x2 blocks in Fractions, as
    gnla computed it before its integer elimination: with p = A[0][1],
    Pf(A) = p Pf(C + (b1^t b0 - b0^t b1) / p).  An oracle only."""
    if b.nrows % 2 == 1:
        return Fraction(0)
    a = [list(r) for r in b.rows]
    pf = Fraction(1)
    while a:
        j = next((j for j in range(1, len(a)) if a[0][j] != 0), None)
        if j is None:
            return Fraction(0)
        if j != 1:
            for r in a:
                r[1], r[j] = r[j], r[1]
            a[1], a[j] = a[j], a[1]
            pf = -pf
        p = a[0][1]
        pf *= p
        b0, b1 = a[0][2:], a[1][2:]
        a = [[c + (b1[i] * b0[k] - b0[i] * b1[k]) / p
              for k, c in enumerate(r[2:])]
             for i, r in enumerate(a[2:])]
    return pf


def sparse_skew(rng, n, density, dens=(1,)):
    """A skew matrix whose upper entries are nonzero with the given
    probability, over the given denominators."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.choice(dens))
                rows[i][j], rows[j][i] = c, -c
    return Matrix(rows)


def test_pfaffian_matches_reference_elimination():
    """Rational entries with unequal denominators, sparse matrices that
    force column swaps and all-zero first rows, the empty side and odd
    sides: pfaffian equals the Fraction elimination, and so does
    _pfaffian on the integer rows of d B over d^(side/2)."""
    rng = random.Random(613)
    swaps = zero_rows = 0
    for trial in range(600):
        n = rng.choice((0, 1, 2, 3, 4, 5, 6, 8, 10))
        b = sparse_skew(rng, n, rng.choice((0.15, 0.4, 1.0)),
                        rng.choice(((1,), (1, 2, 3, 5), (7, 9, 10))))
        want = reference_pfaffian(b)
        assert pfaffian(b) == want, b
        d = lcm(*(x.denominator for row in b.rows for x in row))
        rows = [[int(x * d) for x in row] for row in b.rows]
        assert Fraction(_pfaffian(rows), d ** (n // 2)) == want
        if n and n % 2 == 0:
            swaps += b[0, 1] == 0 and any(b.rows[0])
            zero_rows += not any(b.rows[0])
    assert swaps >= 20 and zero_rows >= 20
    assert pfaffian(Matrix([])) == reference_pfaffian(Matrix([])) == 1
    assert _pfaffian([]) == 1


def test_integer_pfaffian_makes_no_fraction(monkeypatch):
    """_pfaffian works on its integer rows alone: with Fraction removed
    from the module it still returns the reference value, as an int."""
    rng = random.Random(617)
    cases = [sparse_skew(rng, n, density) for n in (2, 4, 6, 8, 12)
             for density in (0.2, 0.6, 1.0)]
    wants = [reference_pfaffian(b) for b in cases]

    def no_fraction(*args):
        raise AssertionError("Fraction made inside _pfaffian")
    monkeypatch.setattr(constructions, "Fraction", no_fraction)
    for b, want in zip(cases, wants):
        got = _pfaffian([[int(x) for x in row] for row in b.rows])
        assert type(got) is int and got == want


def test_det_pencil_m_block_is_identically_zero():
    b1, b2 = reference_pencil_block("M", 1)
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


def reference_det_pencil(b1, b2):
    """The coefficients of det(l1 B1 + l2 B2) as det_pencil composed them
    before it worked on integer rows: one Matrix B1 + t B2 per sample
    point, each cell coerced by scale and by +, then interpolated."""
    n = b1.nrows
    dets = [(b1 + b2.scale(Fraction(t))).det() for t in range(n + 1)]
    vrows = [[Fraction(t) ** k for k in range(n + 1)] for t in range(n + 1)]
    return tuple(solve(Matrix(vrows), dets))


def reference_interpolated(values):
    """The interpolation coefficients by one Vandermonde solve, as gnla
    computed them before Newton's differences.  An oracle only."""
    m = len(values)
    vrows = [[Fraction(t) ** k for k in range(m)] for t in range(m)]
    return tuple(solve(Matrix(vrows), values))


def test_interpolated_matches_vandermonde_solve():
    """Fraction values with distinct denominators, all-zero values, int
    values, every length from 1 to 12, and the pfaffian values
    Pf(B1 + t B2), t = 0..side/2, of every catalog pencil."""
    rng = random.Random(619)
    cases = [[Fraction(0)] * m for m in range(1, 13)]
    for m in range(1, 13):
        for _ in range(6):
            cases.append([Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                          for _ in range(m)])
            cases.append([rng.randint(-10 ** 12, 10 ** 12)
                          for _ in range(m)])
    for blocks in PENCIL_BLOCKS:
        (b1, b2), _ = assemble_pencil(PencilSpec.parse(blocks))
        cases.append([pfaffian(b1 + b2.scale(t))
                      for t in range(b1.nrows // 2 + 1)])
    for values in cases:
        got = _interpolated(values)
        assert got == reference_interpolated(values), values
        assert all(type(c) is Fraction for c in got)
    assert _interpolated([]) == reference_interpolated([]) == ()


def test_det_pencil_matches_reference_composition():
    """Every catalog pencil, and random skew pairs with rational entries
    of unequal denominators, including the empty side."""
    rng = random.Random(71)
    pairs = [assemble_pencil(PencilSpec.parse(b))[0] for b in PENCIL_BLOCKS]
    for _ in range(12):
        n = rng.choice((2, 3, 4, 6))
        b1, b2 = random_skew(rng, n), random_skew(rng, n, -2, 2)
        pairs.append((b1.scale(Fraction(rng.randint(1, 5), rng.randint(1, 7))),
                      b2.scale(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))))
    pairs.append((Matrix([]), Matrix([])))
    for b1, b2 in pairs:
        assert det_pencil(b1, b2).coefficients == reference_det_pencil(b1, b2)


def sympy_rational_roots(coeffs):
    """The distinct rational roots, increasing, of sum coeffs[k] t^k by
    sympy's ground_roots."""
    t = sympy.Symbol("t")
    poly = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * t ** k
                          for k, c in enumerate(map(Fraction, coeffs))), t)
    return sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())


def test_det_pencil_roots_match_sympy_on_the_reference_form():
    """Every catalog pencil and random skew pairs: the rational roots are
    sympy's roots of the reference form, as (1, t), then (0, 1) when the
    top coefficient vanishes."""
    rng = random.Random(73)
    pairs = [assemble_pencil(PencilSpec.parse(b))[0] for b in PENCIL_BLOCKS]
    pairs += [assemble_pencil(PencilSpec.parse(b))[0] for b in (
        "E:1:a=3/2,E:2:a=-5,F:1", "E:1:a=1/3,E:1:a=1/3,E:1:a=-7/2",
        "E:3:a=2,M:1")]
    for _ in range(12):
        n = rng.choice((2, 4, 6))
        pairs.append((random_skew(rng, n), random_skew(rng, n, -2, 2)))
    rooted = 0
    for b1, b2 in pairs:
        want = reference_det_pencil(b1, b2)
        form = det_pencil(b1, b2)
        assert form.coefficients == want
        if not any(want):
            assert form.identically_zero and form.rational_roots == ()
            continue
        roots = [(1, t) for t in sympy_rational_roots(want)]
        if want[-1] == 0:
            roots.append((0, 1))
        assert form.rational_roots == tuple(roots)
        rooted += bool(roots)
    assert rooted >= 8


def test_rational_roots_match_sympy():
    """Seeded integer polynomials of degree 1 to 6 built from linear
    factors, squared linear factors, irreducible quadratics with real or
    complex roots, and leading coefficients up to 10^30."""
    rng = random.Random(79)
    for trial in range(120):
        coeffs = [rng.choice((1, -1, 3, 10 ** 30 + 7,
                              rng.randint(1, 10 ** 30)))]
        while len(coeffs) < rng.randint(2, 7):
            kind = rng.choice(("linear", "linear", "double", "real",
                               "complex"))
            if kind == "linear":
                factor = [-rng.randint(-9, 9), rng.randint(1, 9)]
            elif kind == "double":
                r, d = rng.randint(-4, 4), rng.randint(1, 4)
                factor = [r * r, -2 * r * d, d * d]
            elif kind == "real":
                factor = [-rng.choice((2, 3, 5, 7)), 0, 1]
            else:
                factor = [rng.randint(1, 5), rng.randint(-1, 1), 1]
            if len(coeffs) + len(factor) - 1 > 7:
                break
            coeffs = [sum(coeffs[i] * factor[k - i]
                          for i in range(len(coeffs))
                          if 0 <= k - i < len(factor))
                      for k in range(len(coeffs) + len(factor) - 1)]
        if len(coeffs) < 2:
            continue
        assert (constructions._rational_roots(coeffs)
                == sympy_rational_roots(coeffs)), coeffs
    assert constructions._rational_roots([5]) == []
    with pytest.raises(ValueError):
        constructions._rational_roots([0, 0])


def test_det_pencil_is_prompt_on_huge_eigenvalues():
    """det_pencil of E:1:a=P,F:1 for P of 8 to 40 digits returns at once,
    with the root (1, -1/P) and the double root (1, 0)."""
    def timeout(signum, frame):
        raise TimeoutError("det_pencil did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        for p in (10000019, 1000000000039, 10 ** 20 + 39, 10 ** 40 + 1):
            (b1, b2), _ = assemble_pencil(PencilSpec.parse("E:1:a=%d,F:1" % p))
            form = det_pencil(b1, b2)
            assert form.rational_roots == ((1, Fraction(-1, p)), (1, 0))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_p_y_subspace():
    a = heis3()
    space = h0(a)
    sub, codim = reference_p_y_subspace(space, (0, 1))
    assert (space.dim, sub.dim, codim) == (3, 1, 2)
    for m in sub.basis:
        assert all(c == 0 for c in m.apply((0, 1)))


def test_p_y_codim_equals_ad_rank_on_pencils():
    """For the bracket forms of a 2-step algebra, cutting by y has the
    same codimension as the rank of ad y, P_y from the reference."""
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
            _, codim = reference_p_y_subspace(space, y1)
            assert codim == ad_matrix(a, a.embed_layer(1, y1)).rank


def reference_p_y_subspace(p_space, y):
    """P_y through the dense coefficient matrix, each kernel vector summed
    as scaled matrices and the span reduced again; an oracle only."""
    y = vector(y)
    side = p_space.side
    if len(y) != side:
        raise ValueError("vector length must equal the pencil side")
    if p_space.dim == 0:
        return p_space, 0
    cols = [m.apply(y) for m in p_space.basis]
    rows = [[cols[k][r] for k in range(p_space.dim)] for r in range(side)]
    coeff_kernel = kernel_basis(Matrix(rows))
    mats = []
    for c in coeff_kernel.basis:
        m = Matrix.zero(side, side)
        for ck, bk in zip(c, p_space.basis):
            if ck != 0:
                m = m + bk.scale(ck)
        mats.append(m)
    sub = MatrixSubspace.from_matrices(side, mats)
    return sub, p_space.dim - sub.dim


def test_h0_elementary_matches_direct_computation():
    """h0 of the single M and F blocks has the closed-form dimension and
    holds the closed forms' rank 1 element."""
    for kind, param in [("M", 1), ("M", 2), ("M", 3),
                        ("F", 1), ("F", 2), ("F", 3)]:
        dim, unit = h0_closed_form(kind, param)
        space = h0(algebra_from_pencil_spec("%s:%d" % (kind, param)))
        assert (space.side, space.dim) == (unit.nrows, dim)
        assert unit.rank() == 1
        assert space.contains(unit)
        assert spencer_subspace_check(space)


# --- catalog ------------------------------------------------------------------

def test_catalog_names_cover_the_families():
    assert CATALOG_NAMES == ("goursat", "heisenberg", "mixedjet",
                             "nontrivial6", "free2step3", "kgen",
                             "from_pencil")


def test_catalog_errors_name_the_first_failed_check():
    """An unknown name, then unexpected, then missing parameters, then
    the integer conversion and the size bound, then the builder."""
    for name, params, message in [
            ("nosuch", {"n": 3}, "unknown catalog name 'nosuch'"),
            ("goursat", {"extra": 1},
             "unexpected parameters ['extra'] for goursat"),
            ("goursat", {}, "missing parameter 'n' for goursat"),
            ("goursat", {"n": "x"}, "goursat: n must be an integer"),
            ("goursat", {"n": 257},
             "goursat: n too large, more than 256 basis vectors"),
            ("mixedjet", {"k": 254},
             "mixedjet: k too large, more than 256 basis vectors"),
            ("kgen", {"k": 2}, "kgen needs k >= 3"),
            ("heisenberg", {"dim": 4},
             "heisenberg needs an odd dimension >= 3"),
            ("nontrivial6", {"k": 1},
             "unexpected parameters ['k'] for nontrivial6"),
            ("free2step3", {"a": 1, "b": 2},
             "unexpected parameters ['a', 'b'] for free2step3"),
            ("from_pencil", {}, "missing parameter 'blocks' for from_pencil"),
            ("from_pencil", {"blocks": "M:1", "n": 2},
             "unexpected parameters ['n'] for from_pencil")]:
        with pytest.raises(ValueError) as exc:
            catalog(name, **params)
        assert str(exc.value) == message
    assert catalog("goursat", n="4") == catalog("goursat", n=4)


def test_pencil_blocks_that_are_no_block_list_are_a_value_error():
    """from_pencil's blocks are a PencilSpec or a block list: an integer
    raises a ValueError naming the expected form, not AttributeError.
    The other families read their sizes from text as from integers."""
    for call in (lambda: catalog("from_pencil", blocks=3),
                 lambda: algebra_from_pencil_spec(3),
                 lambda: algebra_from_pencil_spec(None)):
        with pytest.raises(ValueError, match='block list like "M:1,F:2"'):
            call()
    assert catalog("from_pencil", blocks="M:1,F:2") == (
        algebra_from_pencil_spec(PencilSpec.parse("M:1,F:2")))
    for name, key, size in [("goursat", "n", 3), ("heisenberg", "dim", 5),
                            ("mixedjet", "k", 2), ("kgen", "k", 4)]:
        assert (catalog(name, **{key: str(size)})
                == catalog(name, **{key: size})), name


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


# --- the degree 0 complex against its dense reference ---------------------

def reference_degree0_complex(base, w, s, x_vec=None):
    """The degree 0 complex as it was built before the signed table:
    dense Fraction rows of d1 (one per C^2 slot, columns over C^1) and
    of d2, from dense pair_bracket vectors; an oracle only."""
    _check_hyperplane(base, w)
    if x_vec is None:
        x_vec = _default_transversal(base, w)
    alpha = _module_covector(base, w, x_vec)
    n = base.dim
    deg = base.degrees
    c1 = [p for p in range(n) if -deg[p] <= s]
    c2 = [(p, q) for p in range(n) for q in range(p + 1, n)
          if -(deg[p] + deg[q]) <= s]
    c3 = [(p, q, r) for p in range(n) for q in range(p + 1, n)
          for r in range(q + 1, n) if -(deg[p] + deg[q] + deg[r]) <= s]
    c1_index = {p: i for i, p in enumerate(c1)}
    c2_index = {pq: i for i, pq in enumerate(c2)}
    d1_rows = []
    for (p, q) in c2:
        row = [Fraction(0)] * len(c1)
        if alpha[p] != 0 and q in c1_index:
            row[c1_index[q]] += alpha[p]
        if alpha[q] != 0 and p in c1_index:
            row[c1_index[p]] -= alpha[q]
        for t, c in enumerate(base.pair_bracket(p, q)):
            if c != 0 and t in c1_index:
                row[c1_index[t]] -= c
        d1_rows.append(row)

    def add_pair(row, u, v, coeff):
        if coeff == 0 or u == v:
            return
        if u > v:
            u, v = v, u
            coeff = -coeff
        idx = c2_index.get((u, v))
        if idx is not None:
            row[idx] += coeff

    d2_rows = []
    for (p, q, r) in c3:
        row = [Fraction(0)] * len(c2)
        add_pair(row, q, r, alpha[p])
        add_pair(row, p, r, -alpha[q])
        add_pair(row, p, q, alpha[r])
        for t, c in enumerate(base.pair_bracket(p, q)):
            add_pair(row, t, r, -c)
        for t, c in enumerate(base.pair_bracket(p, r)):
            add_pair(row, t, q, c)
        for t, c in enumerate(base.pair_bracket(q, r)):
            add_pair(row, t, p, -c)
        if any(c != 0 for c in row):
            d2_rows.append(row)
    return c1, c2, d1_rows, d2_rows


def reference_h2_0(base, w, s):
    _, c2, d1_rows, d2_rows = reference_degree0_complex(base, w, s)
    n2 = len(c2)
    if n2 == 0:
        return 0, []
    rank_d1 = Matrix(d1_rows).rank() if d1_rows else 0
    kernel = (kernel_basis(Matrix(d2_rows)) if d2_rows
              else Subspace(n2, identity(n2).rows))
    dim = kernel.dim - rank_d1
    cols = list(zip(*d1_rows))
    rows = cols + list(kernel.basis)
    reps = [_cochain_from_slots(base, s, c2, rows[i])
            for i in independent_rows(rows) if i >= len(cols)]
    assert len(reps) == dim
    return dim, reps


def reference_coboundary(base, w, s, f, x_vec=None):
    c1, c2, d1_rows, _ = reference_degree0_complex(base, w, s, x_vec)
    c1_index = {p: i for i, p in enumerate(c1)}
    fv = [Fraction(0)] * len(c1)
    for p, c in f.items():
        if p not in c1_index:
            raise ValueError("position %d is too deep for the module" % p)
        fv[c1_index[p]] = Fraction(c)
    coeffs = [sum((row[i] * fv[i] for i in range(len(fv))), Fraction(0))
              for row in d1_rows]
    return _cochain_from_slots(base, s, c2, coeffs)


def reference_canonicalized(data):
    """The reduced cocycle, reduced against the RREF of the transposed
    dense d1."""
    _, c2, d1_rows, _ = reference_degree0_complex(
        data.base, data.covector_kernel, data.s, data.transversal)
    vec = _cocycle_slot_vector(data.base, data.s, data.cocycle, c2)
    cols = []
    if d1_rows and d1_rows[0]:
        for j in range(len(d1_rows[0])):
            cols.append(tuple(row[j] for row in d1_rows))
    for b in Subspace(len(c2), cols).basis:
        pivot = next(i for i, c in enumerate(b) if c != 0)
        factor = vec[pivot]
        if factor != 0:
            vec = [v - factor * c for v, c in zip(vec, b)]
    return _cochain_from_slots(data.base, data.s, c2, vec)


def test_degree0_complex_matches_reference():
    """h2_0 equals its dense reference on every valid graded base of the
    reference tests for s = 2..4, on the adapted hyperplane and on one
    random moved hyperplane."""
    positive = 0
    for a, w, _, s in complex_cases(7019, (2, 3, 4)):
        got = h2_0(a, w, s)
        assert got == reference_h2_0(a, w, s), a.name
        positive += got[0] > 0
    assert positive >= 10


def complex_cases(seed, depths):
    """(base, W, x, s) for every valid graded base of the reference tests
    (the catalog, the 12 pencils, seeded random 2-step algebras and a
    signed permutation of each) and each s in depths, on the adapted
    hyperplane and on one random moved hyperplane."""
    rng = random.Random(seed)
    algebras = catalog_algebras()
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5) * 2]
    algebras += [signed_permutation(rng, a) for a in algebras]
    for a in algebras:
        pos1 = a.layer_positions(1)
        adapted = (Subspace(a.dim, [a.basis_vector(p) for p in pos1[1:]]),
                   a.basis_vector(pos1[0]))
        for w, x in (adapted, random_hyperplane(rng, a)):
            for s in depths:
                yield a, w, x, s


def dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def test_differential_matches_reference():
    """d1 and d2 from the one formula are the hand-written dense d1 and
    d2 of the reference, slot for slot."""
    for a, w, x, s in complex_cases(7031, (2, 3, 4)):
        c1, c2, ref_d1, ref_d2 = reference_degree0_complex(a, w, s, x)
        alpha = _module_covector(a, w, x)
        cols, slots, d1 = _differential(a, alpha, s, 1)
        assert cols == _slots(a, s, 1) == [(p,) for p in c1]
        assert slots == _slots(a, s, 2) == c2
        _, slots, d2 = _differential(a, alpha, s, 2)
        assert slots == _slots(a, s, 3) and len(d2) == len(slots)
        assert dense(d1, len(c1)) == ref_d1, a.name
        assert [r for r in dense(d2, len(c2)) if any(r)] == ref_d2, a.name


def test_d2_after_d1_is_zero():
    """d2 d1 = 0 on every valid graded base for s = 2..5: each entry of
    the product, summed over the C^2 slots, vanishes."""
    nonzero = 0
    for a, w, x, s in complex_cases(7037, (2, 3, 4, 5)):
        alpha = _module_covector(a, w, x)
        d1 = _differential(a, alpha, s, 1)[2]
        for row in _differential(a, alpha, s, 2)[2]:
            product = {}
            for k, v in row.items():
                for j, c in d1[k].items():
                    product[j] = product.get(j, 0) + v * c
            assert not any(product.values()), (a.name, s)
            nonzero += bool(product)
    assert nonzero > 100


def test_degree0_complex_matches_reference_off_the_grading():
    """A bracket with a term on one of its own slots makes d1 write one
    C^2 slot twice; ExtensionData refuses such a base, h2_0 does not, and
    both sides of h2_0 see d2 d1 != 0 alike."""
    a = GNLA("ungraded", [("A", -1), ("B", -1), ("C", -2)],
             {(0, 1): [(0, 2), (1, 1), (2, -1)]})
    w = Subspace(3, [a.basis_vector(1)])

    def h2_0_outcome(h2, s):
        try:
            return h2(a, w, s)
        except AssertionError:
            return "d2 d1 != 0"

    for s in (2, 3, 4):
        assert h2_0_outcome(h2_0, s) == h2_0_outcome(reference_h2_0, s)
