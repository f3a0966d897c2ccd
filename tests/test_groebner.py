import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy

import gnla.groebner
from cases import catalog_algebras, closure_example, random_two_step
from gnla import (
    CapExceeded,
    Polynomial,
    PolynomialIdeal,
    buchberger,
    catalog,
    classify,
    grevlex_key,
    minor_ideal,
    normal_form,
    only_trivial_zero,
    validate,
)
from gnla.groebner import _primitive

VARS = ("x", "y", "z", "w")


def poly(terms, variables=VARS):
    """terms: {exponent tuple: coefficient} over the given variables."""
    return Polynomial(variables, {e: Fraction(c) for e, c in terms.items()})


def random_quadratic(rng, nvars):
    variables = VARS[:nvars]
    terms = {}
    for e in combinations_with_repetition(nvars):
        if rng.random() < 0.4:
            c = rng.randint(-3, 3)
            if c:
                terms[e] = Fraction(c)
    if not terms:
        e = (2,) + (0,) * (nvars - 1)
        terms[e] = Fraction(1)
    return Polynomial(variables, terms)


def combinations_with_repetition(nvars):
    """All quadratic exponent tuples in nvars variables."""
    out = []
    for i in range(nvars):
        for j in range(i, nvars):
            e = [0] * nvars
            e[i] += 1
            e[j] += 1
            out.append(tuple(e))
    return out


def rational_points(nvars, height):
    """All rational tuples with numerators and denominators up to height."""
    from fractions import Fraction as F
    values = {F(0)}
    for d in range(1, height + 1):
        for n in range(-height, height + 1):
            values.add(F(n, d))
    values = sorted(values)

    def rec(k):
        if k == 0:
            yield ()
            return
        for rest in rec(k - 1):
            for v in values:
                yield rest + (v,)
    return rec(nvars)


def test_polynomial_basics():
    x = Polynomial.variable(VARS, 0)
    y = Polynomial.variable(VARS, 1)
    p = x * x + 2 * y
    assert p.evaluate((3, 5, 0, 0)) == 19
    assert p.total_degree() == 2
    assert not p.is_homogeneous()
    assert (x * y).is_homogeneous()
    assert Polynomial.zero(VARS).is_zero()
    assert Polynomial.constant(VARS, 7).is_constant()
    assert (p - p).is_zero()
    assert (-p + p).is_zero()


def test_polynomial_ring_axioms_random():
    rng = random.Random(43)
    for _ in range(15):
        f = random_quadratic(rng, 3)
        g = random_quadratic(rng, 3)
        h = random_quadratic(rng, 3)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        pt = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_grevlex_order_on_two_variables():
    """Within one total degree the order refines by the last exponents."""
    x2 = (2, 0)
    xy = (1, 1)
    y2 = (0, 2)
    x = (1, 0)
    keys = [grevlex_key(e) for e in (x2, xy, y2, x)]
    assert keys[0] > keys[1] > keys[2] > keys[3]


def test_leading_term():
    p = poly({(1, 1, 0, 0): 5, (0, 0, 2, 0): 1, (1, 0, 0, 0): -2})
    exp, coeff = p.leading()
    assert exp == (1, 1, 0, 0)
    assert coeff == 5


def test_normal_form_properties():
    x = Polynomial.variable(("x", "y"), 0)
    y = Polynomial.variable(("x", "y"), 1)
    basis = [x * x - y, y * y]
    f = x * x * x * x
    r = normal_form(f, basis)
    # x^4 = (x^2)^2 -> y^2 -> 0
    assert r.is_zero()
    g = x * x * y
    assert normal_form(g, basis) == normal_form(normal_form(g, basis), basis)


def test_buchberger_known_basis():
    x = Polynomial.variable(("x", "y"), 0)
    y = Polynomial.variable(("x", "y"), 1)
    gb = buchberger([x * x + y * y, x * x - y * y])
    # forces x^2 and y^2 individually
    leadings = sorted(g.leading()[0] for g in gb)
    assert leadings == [(0, 2), (2, 0)]


def test_buchberger_rejects_mixed_variables():
    with pytest.raises(ValueError):
        buchberger([Polynomial.variable(("x",), 0),
                    Polynomial.variable(("x", "y"), 0)])


def test_buchberger_membership_properties():
    """Generators and S-polynomials all reduce to zero, random ideals."""
    rng = random.Random(47)
    for _ in range(20):
        nvars = rng.randint(1, 4)
        gens = [random_quadratic(rng, nvars)
                for _ in range(rng.randint(1, 3))]
        gb = buchberger(gens, degree_cap=14)
        for g in gens:
            assert normal_form(g, gb).is_zero()
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                fe = gb[i].leading()[0]
                ge = gb[j].leading()[0]
                lcm = tuple(max(a, b) for a, b in zip(fe, ge))
                m1 = poly({tuple(l - a for l, a in zip(lcm, fe)): 1},
                          gb[i].variables) * gb[i]
                m2 = poly({tuple(l - b for l, b in zip(lcm, ge)): 1},
                          gb[j].variables) * gb[j]
                s = m1.leading()[1] ** -1 * m1 - m2.leading()[1] ** -1 * m2
                assert normal_form(s, gb).is_zero()
        # reduced: no leading term divides another
        for i in range(len(gb)):
            for j in range(len(gb)):
                if i == j:
                    continue
                fe = gb[i].leading()[0]
                ge = gb[j].leading()[0]
                assert not all(a <= b for a, b in zip(fe, ge))


def test_cap_exceeded():
    x = Polynomial.variable(("x", "y"), 0)
    y = Polynomial.variable(("x", "y"), 1)
    with pytest.raises(CapExceeded) as exc:
        buchberger([x * x * x - x * y * y, x * y * y * y], degree_cap=4)
    assert exc.value.degree > 4


def test_ideal_contains():
    x = Polynomial.variable(("x", "y"), 0)
    y = Polynomial.variable(("x", "y"), 1)
    ideal = PolynomialIdeal([x * x - y * y, x * y])
    assert ideal.contains(x * x * x)
    assert not ideal.contains(x)
    assert ideal.variables == ("x", "y")


def test_only_trivial_zero_known_cases():
    variables = ("x", "y", "z")
    xs = [Polynomial.variable(variables, i) for i in range(3)]
    assert only_trivial_zero(PolynomialIdeal(xs))
    # zero ideal in at least one variable vanishes everywhere
    assert not only_trivial_zero(
        PolynomialIdeal([Polynomial.zero(variables)]))
    # a sum of two squares factors over the closure
    x, y = [Polynomial.variable(("x", "y"), i) for i in range(2)]
    assert not only_trivial_zero(PolynomialIdeal([x * x + y * y]))
    assert only_trivial_zero(PolynomialIdeal([x * x + y * y, x * x - y * y]))


def test_only_trivial_zero_requires_homogeneous():
    x = Polynomial.variable(("x",), 0)
    one = Polynomial.constant(("x",), 1)
    with pytest.raises(ValueError):
        only_trivial_zero(PolynomialIdeal([x + one]))


def test_only_trivial_zero_against_point_search():
    """Whenever a small rational zero exists the verdict must be False."""
    rng = random.Random(53)
    checked = 0
    for _ in range(25):
        nvars = rng.randint(1, 3)
        variables = VARS[:nvars]
        gens = []
        for _ in range(rng.randint(1, 2)):
            terms = {}
            for e in combinations_with_repetition(nvars):
                c = rng.randint(-2, 2)
                if c:
                    terms[e] = Fraction(c)
            if terms:
                gens.append(Polynomial(variables, terms))
        if not gens:
            continue
        try:
            otz = only_trivial_zero(PolynomialIdeal(gens, degree_cap=16))
        except CapExceeded:
            continue
        found = None
        for pt in rational_points(nvars, 2):
            if any(c != 0 for c in pt) and all(
                    g.evaluate(pt) == 0 for g in gens):
                found = pt
                break
        if found is not None:
            checked += 1
            assert not otz, (gens, found)
    assert checked > 0


def reference_only_trivial_zero(ideal):
    """The verdict read off the full Buchberger basis alone, with no
    shortcut on the row-reduced generators; an oracle only."""
    gens = [g for g in ideal.generators if not g.is_zero()]
    nvars = len(ideal.variables)
    if not gens:
        return nvars == 0
    gb = ideal.groebner()
    if any(g.is_constant() for g in gb):
        return True
    covered = set()
    for g in gb:
        exp, _ = g.leading()
        support = [i for i, e in enumerate(exp) if e > 0]
        if len(support) == 1:
            covered.add(support[0])
    return len(covered) == nvars


def test_only_trivial_zero_matches_the_full_basis_on_minor_ideals(
        monkeypatch):
    """The same answer as the full Buchberger basis on every catalog,
    pencil and seeded random 2-step minor ideal where that basis does not
    raise; the finite catalog verdicts take the shortcut and never enter
    the S-pair loop."""
    rng = random.Random(5011)
    algebras = catalog_algebras()
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5) * 4]
    runs = []
    engine = gnla.groebner._completed

    def counted(*args, **kwargs):
        runs.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(gnla.groebner, "_completed", counted)
    shortcut = set()
    for a in algebras:
        gens = minor_ideal(a).generators
        try:
            want = reference_only_trivial_zero(PolynomialIdeal(gens))
        except CapExceeded:
            continue
        runs.clear()
        assert only_trivial_zero(PolynomialIdeal(gens)) == want, a.name
        if not runs:
            shortcut.add(a.name)
    assert {"free2step3", "kgen3", "kgen4", "kgen5", "kgen6",
            "kgen7"} <= shortcut


def test_only_trivial_zero_row_reduces_once(monkeypatch):
    """One row reduction per call, whether the shortcut answers or the
    S-pair loop runs; the loop's basis decides without being cached, and
    a call on an ideal whose reduced basis is cached reduces nothing."""
    rng = random.Random(5023)
    calls = []
    runs = []
    engine = gnla.groebner._row_reduced
    loop = gnla.groebner._completed

    def counted(gens):
        calls.append(len(gens))
        return engine(gens)

    def counted_loop(*args):
        runs.append(1)
        return loop(*args)

    monkeypatch.setattr(gnla.groebner, "_row_reduced", counted)
    monkeypatch.setattr(gnla.groebner, "_completed", counted_loop)
    looped = 0
    for a in [catalog("free2step3"), catalog("kgen", k=4)] + [
            random_two_step(rng, n1) for n1 in (3, 4, 4, 5)]:
        gens = minor_ideal(a).generators
        ideal = PolynomialIdeal(gens)
        calls.clear()
        runs.clear()
        answer = only_trivial_zero(ideal)
        assert len(calls) == 1, a.name
        assert ideal._groebner is None, a.name
        if runs:
            looped += 1
            ideal.groebner()
            calls.clear()
            assert only_trivial_zero(ideal) == answer
            assert calls == []
    assert looped >= 3


def test_only_trivial_zero_leaves_the_reduced_basis_to_groebner():
    """The pair loop's basis is not interreduced, so only_trivial_zero
    does not cache it: groebner() afterwards is buchberger's reduced
    basis, and the answer agrees with the one read from that basis."""
    rng = random.Random(5039)
    algebras = [catalog("free2step3"), catalog("kgen", k=4)]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 4, 5, 5)]
    for a in algebras:
        gens = minor_ideal(a).generators
        ideal = PolynomialIdeal(gens)
        answer = only_trivial_zero(ideal)
        assert ideal._groebner is None, a.name
        assert list(ideal.groebner()) == buchberger(gens), a.name
        assert answer == reference_only_trivial_zero(PolynomialIdeal(gens))
        assert only_trivial_zero(ideal) == answer, a.name


def test_row_reduction_stops_once_the_minors_span_every_monomial(
        monkeypatch):
    """On kgen5 and kgen7 the minors outnumber the quadrics they use and
    span them all: the row reduction's pass stops before the last
    generator, and its basis equals the one of a pass over every row."""
    from gnla import linalg

    seen = []
    echelon = linalg._echelon

    def spy(rows, bound=None):
        rows = list(rows)
        pivots, trail = echelon(rows, bound)
        seen.append((len(rows), len(trail), len(pivots)))
        return pivots, trail

    for k in (5, 7):
        gens = minor_ideal(catalog("kgen", k=k)).generators
        monos = {e for g in gens for e in g._ints}
        monkeypatch.setattr(linalg, "_echelon", spy)
        seen.clear()
        got = gnla.groebner._row_reduced(gens)
        monkeypatch.undo()
        ((rows, passed, rank),) = seen
        assert rank == len(monos) < rows and passed < rows, (k, seen)
        monkeypatch.setattr(gnla.groebner, "_reduced",
                            lambda rows, bound=None: linalg._reduced(rows))
        assert got == gnla.groebner._row_reduced(gens), k
        monkeypatch.undo()


def test_only_trivial_zero_shortcut_stays_within_the_degree_cap():
    """Quadric generators within the cap answer from their leading terms
    even where the pair loop would pass the cap; past the cap the pair
    loop runs and raises."""
    gens = minor_ideal(catalog("free2step3")).generators
    with pytest.raises(CapExceeded):
        buchberger(gens, degree_cap=2)
    assert only_trivial_zero(PolynomialIdeal(gens, degree_cap=2))
    with pytest.raises(CapExceeded):
        only_trivial_zero(PolynomialIdeal(gens, degree_cap=1))


def reference_normal_form(f, basis):
    """Division remainder that finds the largest term left by a max()
    over all of them at each step; an oracle only."""
    leads = [g.leading() + (g,) for g in basis if not g.is_zero()]
    work = dict(f.terms)
    remainder = {}
    while work:
        exp = max(work, key=grevlex_key)
        coeff = work.pop(exp)
        hit = next((h for h in leads
                    if all(a <= b for a, b in zip(h[0], exp))), None)
        if hit is None:
            remainder[exp] = coeff
            continue
        lexp, lc, g = hit
        shift = tuple(a - b for a, b in zip(exp, lexp))
        for e, c in g.terms.items():
            if e != lexp:
                te = tuple(a + b for a, b in zip(e, shift))
                work[te] = work.get(te, Fraction(0)) - coeff / lc * c
                if work[te] == 0:
                    del work[te]
    return Polynomial(f.variables, remainder)


def reference_buchberger(generators, degree_cap=12):
    """The engine buchberger ran before its pair heap and the
    Gebauer-Moeller criteria: every step scans all queued pairs for the
    smallest lcm, skips a coprime pair, raises CapExceeded on any other
    pair past the cap, and the interreduction repeats until nothing
    changes.  An oracle only."""
    basis = [_primitive(g) for g in generators if not g.is_zero()]

    def lcm_of(i, j):
        return tuple(max(a, b) for a, b in
                     zip(basis[i].leading()[0], basis[j].leading()[0]))

    def monomial(exp, c):
        return Polynomial(basis[0].variables, {exp: c})

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lambda ij: (grevlex_key(lcm_of(*ij)),) + ij)
        pairs.discard((i, j))
        (fe, fc), (ge, gc) = basis[i].leading(), basis[j].leading()
        lcm = lcm_of(i, j)
        if sum(lcm) == sum(fe) + sum(ge):
            continue
        if sum(lcm) > degree_cap:
            raise CapExceeded(sum(lcm))
        s = (monomial(tuple(a - b for a, b in zip(lcm, fe)), 1 / fc)
             * basis[i]
             - monomial(tuple(a - b for a, b in zip(lcm, ge)), 1 / gc)
             * basis[j])
        rem = reference_normal_form(s, basis)
        if not rem.is_zero():
            basis.append(_primitive(rem))
            pairs.update((t, len(basis) - 1) for t in range(len(basis) - 1))
    keep = [g for k, g in enumerate(basis) if not any(
        all(a <= b for a, b in zip(h.leading()[0], g.leading()[0]))
        and (h.leading()[0] != g.leading()[0] or m < k)
        for m, h in enumerate(basis) if m != k)]
    changed = True
    while changed:
        changed = False
        for k, g in enumerate(keep):
            red = _primitive(reference_normal_form(g, keep[:k] + keep[k + 1:]))
            if red != g:
                keep[k] = red
                changed = True
                break
    return sorted((g * (1 / g.leading()[1]) for g in keep),
                  key=lambda g: grevlex_key(g.leading()[0]))


def sympy_basis(gens):
    """The reduced grevlex basis by sympy, each element divided by its
    grevlex leading coefficient, as a set of term tuples."""
    symbols = sympy.symbols(gens[0].variables)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(v ** e for v, e in zip(symbols, exp)))
                 for exp, c in g.terms.items()) for g in gens]
    out = set()
    for p in sympy.groebner(exprs, *symbols, order="grevlex",
                            domain="QQ").polys:
        lc = p.LC(order="grevlex")
        out.add(tuple(sorted(
            (exp, Fraction(int((c / lc).p), int((c / lc).q)))
            for exp, c in p.terms(order="grevlex"))))
    return out


def assert_matches_sympy(gens, label, degree_cap=12):
    gb = buchberger(gens, degree_cap=degree_cap)
    assert {tuple(sorted(g.terms.items())) for g in gb} == sympy_basis(
        gens), label
    assert all(g.leading()[1] == 1 for g in gb), label


def criterion9_ideals():
    """The 20 random quadratic ideals of acceptance criterion 9: the
    same seed and the same draws."""
    rng = random.Random(97)
    ideals = []
    for _ in range(20):
        nvars = rng.randint(1, 4)
        variables = VARS[:nvars]
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for e in combinations_with_repetition(nvars):
                c = rng.randint(-3, 3)
                if c and rng.random() < 0.6:
                    terms[e] = Fraction(c)
            if terms:
                gens.append(Polynomial(variables, terms))
        if not gens:
            x = Polynomial.variable(variables, 0)
            gens = [x * x]
        ideals.append(gens)
    return ideals


def test_buchberger_matches_sympy_on_random_ideals():
    for t, gens in enumerate(criterion9_ideals()):
        assert_matches_sympy(gens, t, degree_cap=20)


def test_buchberger_matches_sympy_on_catalog_minor_ideals():
    """Every nondegenerate catalog algebra and pencil with n1 <= 5."""
    checked = 0
    for a in catalog_algebras():
        if a.layer_dim(1) > 5 or not validate(a).checks["nondegenerate"]:
            continue
        gens = [g for g in minor_ideal(a).generators if not g.is_zero()]
        if gens:
            assert_matches_sympy(gens, a.name)
            checked += 1
    assert checked >= 19


def test_buchberger_matches_sympy_and_reference_on_random_two_step():
    """Seeded random 2-step minor ideals: sympy's basis at the default
    cap, and the old engine's basis or its CapExceeded at every cap."""
    rng = random.Random(5003)
    for k, n1 in enumerate((3, 4, 5) * 4):
        gens = list(minor_ideal(random_two_step(rng, n1)).generators)
        assert_matches_sympy(gens, k)
        for cap in (2, 3, 4, 12):
            try:
                expected = reference_buchberger(gens, degree_cap=cap)
            except CapExceeded as exc:
                with pytest.raises(CapExceeded) as got:
                    buchberger(gens, degree_cap=cap)
                assert got.value.degree == exc.degree, (k, cap)
            else:
                assert buchberger(gens, degree_cap=cap) == expected, (k, cap)


def test_buchberger_reduces_through_the_module_normal_form(monkeypatch):
    """bench/tracer.py counts reductions by rebinding
    gnla.groebner.normal_form; the pair loop and the interreduction
    (one call per basis element) must both look that name up."""
    calls = []

    def counting(f, basis):
        calls.append(len(basis))
        return reference_normal_form(f, basis)

    gens = criterion9_ideals()[3]
    expected = buchberger(gens, degree_cap=20)
    monkeypatch.setattr(gnla.groebner, "normal_form", counting)
    assert buchberger(gens, degree_cap=20) == expected
    assert len(calls) > len(expected)


def test_leading_term_of_results_built_from_a_cached_polynomial():
    x, y, z = (Polynomial.variable(VARS[:3], i) for i in range(3))
    p = Fraction(1, 2) * x * y - 3 * z * z + y
    q = -Fraction(1, 2) * x * y + x * x
    assert p.leading() == ((1, 1, 0), Fraction(1, 2))
    assert (-p).leading() == ((1, 1, 0), Fraction(-1, 2))
    assert (p * 4).leading() == ((1, 1, 0), Fraction(2))
    assert (p + q).leading() == ((2, 0, 0), Fraction(1))
    assert _primitive(p).leading() == ((1, 1, 0), Fraction(1))
    assert _primitive(-p).leading() == ((1, 1, 0), Fraction(1))
    assert p == Polynomial(p.variables, dict(p.terms))
    assert hash(p) == hash(Polynomial(p.variables, dict(p.terms)))


def reference_evaluate(p, point):
    """Term by term in Fractions; an oracle only."""
    total = Fraction(0)
    for exp, c in p.terms.items():
        v = c
        for x, e in zip(point, exp):
            v *= Fraction(x) ** e
        total += v
    return total


def test_evaluate_matches_fraction_loop():
    rng = random.Random(61)
    for nvars in (1, 2, 3, 4):
        variables = VARS[:nvars]
        polys = [Polynomial.zero(variables),
                 Polynomial.constant(variables, Fraction(-7, 3))]
        for _ in range(6):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                e = tuple(rng.randint(0, 3) for _ in range(nvars))
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            polys.append(Polynomial(variables, terms))
        for p in polys:
            for _ in range(8):
                pt = tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                    rng.choice((1, 2, 7, rng.randint(1, 10 ** 6))))
                           for _ in range(nvars))
                assert p.evaluate(pt) == reference_evaluate(p, pt), (p, pt)
            assert p.evaluate((0,) * nvars) == reference_evaluate(
                p, (0,) * nvars)
            assert p.evaluate(("1/2",) * nvars) == reference_evaluate(
                p, (Fraction(1, 2),) * nvars)


def random_rational(rng, nvars, degree, nterms):
    """A polynomial of at most nterms terms of degree <= degree whose
    coefficients have unequal denominators, neither monic nor primitive."""
    terms = {}
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.choice((-6, -4, -3, 2, 3, 9, 10)),
                                   rng.choice((1, 2, 3, 4, 9)))
    return Polynomial(VARS[:nvars], terms)


def test_normal_form_is_the_exact_remainder_of_the_reference_division():
    """Rational, non-monic, non-primitive f and bases, some with negative
    leading coefficients: the integer division returns the remainder of
    the Fraction division exactly, not a multiple of it."""
    rng = random.Random(113)
    negative = nonzero = 0
    for _ in range(400):
        nvars = rng.randint(1, 4)
        basis = [random_rational(rng, nvars, 3, rng.randint(1, 5))
                 for _ in range(rng.randint(1, 4))]
        basis = [g for g in basis if not g.is_zero()]
        f = random_rational(rng, nvars, 4, rng.randint(1, 8))
        got = normal_form(f, basis)
        assert got == reference_normal_form(f, basis), (f, basis)
        negative += any(g.leading()[1] < 0 for g in basis)
        nonzero += not got.is_zero()
    assert negative > 100 and nonzero > 100
    gb = buchberger([random_rational(rng, 3, 2, 4) for _ in range(3)])
    for _ in range(50):
        f = random_rational(rng, 3, 4, 6)
        assert normal_form(f, gb) == reference_normal_form(f, gb)


def test_primitive_is_the_content_free_integer_multiple():
    """Integer coefficients with gcd 1, a positive leading one, and a
    rational multiple of the input, whatever its denominators and sign."""
    rng = random.Random(137)
    assert _primitive(poly({(2, 0, 0, 0): 6, (1, 1, 0, 0): -4,
                            (0, 2, 0, 0): Fraction(2, 3)})) == poly(
        {(2, 0, 0, 0): 9, (1, 1, 0, 0): -6, (0, 2, 0, 0): 1})
    for _ in range(100):
        p = random_rational(rng, rng.randint(1, 4), 3, rng.randint(1, 6))
        q = _primitive(p)
        assert all(c.denominator == 1 for c in q.terms.values())
        assert gcd(*(c.numerator for c in q.terms.values())) == 1
        assert q.leading()[1] > 0
        assert len({q.terms[e] / c for e, c in p.terms.items()}) == 1


def test_spoly_is_a_multiple_of_the_textbook_s_polynomial():
    """The cofactors l_g/d and l_f/d give a nonzero rational multiple of
    x^(m - lm f) f / lc f - x^(m - lm g) g / lc g, m the lcm of the
    leading monomials, whatever the signs of the leading coefficients."""
    rng = random.Random(127)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        f, g = (random_rational(rng, nvars, 3, rng.randint(1, 5))
                for _ in range(2))
        (fe, fc), (ge, gc) = f.leading(), g.leading()
        m = tuple(max(a, b) for a, b in zip(fe, ge))

        def shifted(p, lexp, c):
            return Polynomial(p.variables, {tuple(
                a - b for a, b in zip(m, lexp)): c}) * p

        want = shifted(f, fe, 1 / fc) - shifted(g, ge, 1 / gc)
        got = gnla.groebner._spoly(f, g)
        assert set(got.terms) == set(want.terms)
        assert len({got.terms[e] / c for e, c in want.terms.items()}) <= 1


def assert_stored_form(p):
    """Integers over a positive scale with no common factor, a cached
    leading exponent that is the grevlex largest, and the form that the
    public constructor stores for the same Fraction terms."""
    assert isinstance(p.variables, tuple)
    assert type(p._scale) is int and p._scale > 0
    for e, v in p._ints.items():
        assert type(v) is int and v != 0
        assert type(e) is tuple and len(e) == len(p.variables)
        assert all(type(k) is int and k >= 0 for k in e)
    assert gcd(p._scale, *p._ints.values()) == 1
    if p._lead is not None:
        assert p._lead == max(p._ints, key=grevlex_key)
    assert all(type(c) is Fraction for c in p.terms.values())
    q = Polynomial(p.variables, p.terms)
    assert (q._scale, q._ints) == (p._scale, p._ints)
    assert p == q and hash(p) == hash(q)


def record_from_integers(monkeypatch):
    """A list that collects every polynomial _from_integers makes."""
    made = []
    from_integers = Polynomial._from_integers.__func__

    def recording(cls, variables, scale, ints, lead=None):
        p = from_integers(cls, variables, scale, ints, lead)
        made.append(p)
        return p

    monkeypatch.setattr(Polynomial, "_from_integers", classmethod(recording))
    return made


def test_engine_builds_only_clean_terms(monkeypatch):
    """Every polynomial the engine and the minor builder make (sums,
    products, S-polynomials, remainders, primitive forms, row reduction,
    minors), and public sums, differences, products, negations and scalar
    multiples of integer polynomials, store the canonical integer form."""
    made = record_from_integers(monkeypatch)
    rng = random.Random(101)
    public = []
    for gens in criterion9_ideals():
        buchberger(gens, degree_cap=20)
        public += gens
    for n1 in (3, 4, 5):
        buchberger(minor_ideal(random_two_step(rng, n1)).generators)
    for _ in range(10):
        f, g = random_quadratic(rng, 3), random_quadratic(rng, 3)
        public += [f, g, f * g, f + g, f - g, f - f, -f, f * 0, 0 * f, 2 * f]
    assert len(made) > 400, len(made)
    assert sum(p._lead is not None for p in made) > 100
    for p in made + public:
        assert_stored_form(p)
    zero = Polynomial.zero(VARS[:3])
    assert (zero._scale, zero._ints) == (1, {})
    assert (f * 0) == (f - f) == zero


def test_integral_cache_agrees_with_terms(monkeypatch):
    """On rational polynomials with unequal denominators: what
    normal_form and _primitive make, and public sums, differences,
    products, negations and multiples by 0, 2 and negative Fractions,
    also after normal_form, _primitive or evaluate ran on them, store
    integers over a scale other than 1 that agree with their terms."""
    made = record_from_integers(monkeypatch)
    rng = random.Random(131)
    public = []
    for _ in range(40):
        basis = [random_rational(rng, 3, 3, 4) for _ in range(3)]
        f = random_rational(rng, 3, 4, 6)
        normal_form(f, basis)
        _primitive(f)
        f.evaluate((Fraction(1, 2), 3, Fraction(-2, 7)))
        public += basis + [f, -f, f * Fraction(-3, 2), f + basis[0],
                           f - basis[1], f * basis[2], f - f, f * 0,
                           0 * f, 2 * f, Fraction(-1, 6) * f + 1]
    assert len(made) > 100, len(made)
    assert sum(p._scale != 1 for p in public) > 100
    assert any(p._scale != 1 for p in made)
    for p in made + public:
        assert_stored_form(p)
        assert p.terms == {e: Fraction(v, p._scale)
                           for e, v in p._ints.items()}
    zero = Polynomial.zero(VARS[:3])
    assert (f * 0) == (f - f) == zero


def test_exponents_must_be_nonnegative_integers():
    """A fractional exponent is refused like a negative one, not
    truncated; an integral float names the same monomial."""
    for exp in ((1.5, 0), (Fraction(1, 2), 1), (-1, 0), (1, 0, 0)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Polynomial(["x", "y"], {exp: 1})
    assert Polynomial(["x", "y"], {(2.0, 0): 1}) == Polynomial(
        ["x", "y"], {(2, 0): 1})


def test_classify_and_buchberger_never_read_fraction_terms(monkeypatch):
    """The engine and the minor builder work on the stored integers
    alone: classify on seeded random 2-step algebras and the catalog
    algebras that reach the minor ideal, and buchberger on their minor
    ideals, read Polynomial.terms zero times."""
    reads = []
    view = Polynomial.__dict__["terms"]

    def read(p):
        reads.append(p)
        return view.__get__(p, Polynomial)

    rng = random.Random(7)
    algebras = [random_two_step(rng, n1) for n1 in (3, 4, 4, 4, 5, 5)]
    algebras += [closure_example(), catalog("kgen", k=3),
                 catalog("free2step3")]
    # with the setter, the count also runs on a Polynomial that stores terms
    monkeypatch.setattr(Polynomial, "terms", property(read, view.__set__))
    ideals = 0
    for a in algebras:
        v = classify(a)
        ideals += v.certificate == "closure"
        basis = buchberger(minor_ideal(a).generators)
        assert basis and not basis[0].is_zero(), a.name
    assert ideals >= 1
    assert reads == []
