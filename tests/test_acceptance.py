"""End to end acceptance checks, one criterion per test.

Each test prints a single `criterion N: PASS/FAIL` line (run pytest with
-s to see them all) and then asserts, so a red suite still shows which
criteria survived.
"""

import math
import random
from fractions import Fraction

from dense import h0_closed_form, reference_evaluate
from gnla import (
    GNLA,
    Polynomial,
    PolynomialIdeal,
    ad_matrix,
    algebra_from_pencil_spec,
    catalog,
    classify,
    classify_by_iteration,
    decompose_special_extension,
    ExtensionData,
    h0,
    h2_0,
    minor_ideal,
    normal_form,
    only_trivial_zero,
    pfaffian,
    rank1_witness,
    spencer_subspace_check,
    special_extension,
    validate,
    CapExceeded,
    Matrix,
    Subspace,
)


def _report(num, ok, detail=""):
    suffix = "" if not detail else " (%s)" % detail
    print("criterion %d: %s%s" % (num, "PASS" if ok else "FAIL", suffix))
    assert ok, detail


def test_criterion_1_free_two_step_total_dimension():
    v = classify_by_iteration(catalog("free2step3"), max_degree=5)
    ok = (v.kind == "finite" and v.total_dim == 21
          and v.layer_dims[3] == 0 and len(v.layer_dims) == 4)
    _report(1, ok, "layers %s total %s" % (v.layer_dims, v.total_dim))


def test_criterion_2_kgen_family():
    results = {}
    for k in (4, 5, 6, 7):
        results[k] = classify_by_iteration(catalog("kgen", k=k), max_degree=4)
    ok = (results[4].kind == "finite" and results[4].total_dim == 21
          and results[5].layer_dims[:2] == (4, 0)
          and results[5].total_dim == 12
          and results[6].layer_dims[0] == 5
          and results[7].layer_dims[0] == 2)
    _report(2, ok, "totals %s" % {k: v.total_dim for k, v in results.items()})


def test_criterion_3_heisenberg_witness_and_layer_oracle():
    a = catalog("heisenberg", dim=3)
    v = classify(a)
    ok = (v.kind == "infinite" and v.certificate == "rational_witness"
          and v.witness is not None and ad_matrix(a, v.witness).rank == 1)

    def monomial_count(k):
        # independent oracle: monomials x^p y^q z^c with p + q + 2c = k + 2
        return sum(1 for p in range(k + 3) for q in range(k + 3)
                   for c in range(k + 3) if p + q + 2 * c == k + 2)

    it = classify_by_iteration(a, max_degree=6)
    expected = tuple(monomial_count(k) for k in range(7))
    ok = ok and it.layer_dims == expected == (4, 6, 9, 12, 16, 20, 25)
    _report(3, ok, "layers %s" % (it.layer_dims,))


def test_criterion_4_random_two_step_never_finite():
    rng = random.Random(20260816)

    def sample():
        n1 = rng.choice((4, 5, 6))
        while True:
            basis = [("X%d" % (i + 1), -1) for i in range(n1)]
            basis += [("W1", -2), ("W2", -2)]
            brackets = {}
            for i in range(n1):
                for j in range(i + 1, n1):
                    terms = [(n1, Fraction(rng.randint(-3, 3))),
                             (n1 + 1, Fraction(rng.randint(-3, 3)))]
                    terms = [(k, c) for k, c in terms if c != 0]
                    if terms:
                        brackets[(i, j)] = terms
            a = GNLA("rand2step", basis, brackets)
            if validate(a).all_passed:
                return a

    bad = []
    certificates = set()
    for t in range(50):
        a = sample()
        v = classify(a, max_degree=1)
        if v.kind == "infinite":
            certificates.add(v.certificate)
        else:
            bad.append((t, v.kind))
    ok = not bad and certificates <= {"rational_witness", "closure"}
    _report(4, ok, "certificates seen %s, failures %s"
            % (sorted(certificates), bad))


def test_criterion_5_witness_ideal_iteration_consistency():
    # (name, params, iteration budget): finite candidates get a budget
    # that reaches their zero layer, known infinite ones keep it minimal
    cases = [
        ("goursat", {"n": 2}, 1), ("goursat", {"n": 3}, 1),
        ("goursat", {"n": 4}, 1), ("goursat", {"n": 5}, 1),
        ("goursat", {"n": 6}, 1),
        ("heisenberg", {"dim": 3}, 1), ("heisenberg", {"dim": 5}, 1),
        ("heisenberg", {"dim": 7}, 1),
        ("mixedjet", {"k": 2}, 1), ("mixedjet", {"k": 3}, 1),
        ("mixedjet", {"k": 4}, 1), ("mixedjet", {"k": 5}, 1),
        ("nontrivial6", {}, 1),
        ("free2step3", {}, 4),
        ("kgen", {"k": 3}, 4), ("kgen", {"k": 4}, 4),
        ("kgen", {"k": 5}, 4), ("kgen", {"k": 6}, 4),
        ("kgen", {"k": 7}, 4),
        ("from_pencil", {"blocks": "M:1"}, 1),
        ("from_pencil", {"blocks": "M:2"}, 1),
        ("from_pencil", {"blocks": "M:3"}, 1),
        ("from_pencil", {"blocks": "F:1"}, 1),
        ("from_pencil", {"blocks": "F:2"}, 1),
        ("from_pencil", {"blocks": "F:3"}, 1),
        ("from_pencil", {"blocks": "E:1:a=0"}, 1),
        ("from_pencil", {"blocks": "E:2:a=1"}, 1),
        ("from_pencil", {"blocks": "M:1,F:2"}, 1),
    ]
    violations = []
    for name, params, budget in cases:
        a = catalog(name, **params)
        tag = "%s %s" % (name, params)
        w = rank1_witness(a)
        trivial = only_trivial_zero(minor_ideal(a))
        if w is not None and trivial:
            violations.append(tag + ": witness but trivial ideal zero set")
        it = classify_by_iteration(a, max_degree=budget)
        if it.kind == "finite" and not trivial:
            violations.append(tag + ": finite but nontrivial ideal zero")
        if it.kind == "finite" and w is not None:
            violations.append(tag + ": finite with a rank one witness")
    _report(5, not violations, "; ".join(violations))


def test_criterion_6_h0_closed_forms():
    failures = []
    for kind, param in [("M", 1), ("M", 2), ("M", 3),
                        ("F", 1), ("F", 2), ("F", 3)]:
        a = algebra_from_pencil_spec("%s:%d" % (kind, param))
        space = h0(a)
        expected, unit = h0_closed_form(kind, param)
        if space.dim != expected:
            failures.append("%s%d dim %d != %d" % (kind, param, space.dim,
                                                   expected))
        if not space.contains(unit):
            failures.append("%s%d misses the rank 1 unit" % (kind, param))
        if not spencer_subspace_check(space):
            failures.append("%s%d spencer check failed" % (kind, param))
    _report(6, not failures, "; ".join(failures))


def test_criterion_7_extension_round_trip():
    cases = [("goursat", {"n": n}) for n in range(3, 9)]
    cases += [("nontrivial6", {})]
    cases += [("mixedjet", {"k": k}) for k in range(2, 6)]
    failures = []
    for name, params in cases:
        a = catalog(name, **params)
        w = rank1_witness(a)
        if w is None:
            failures.append("%s %s: no witness" % (name, params))
            continue
        d = decompose_special_extension(a, w)
        data = ExtensionData.from_adapted_base(
            d.quotient, len(d.ideal_basis), d.cocycle)
        rebuilt = special_extension(data)
        if rebuilt != d.adapted:
            failures.append("%s %s: rebuild differs" % (name, params))
    _report(7, not failures, "; ".join(failures))


def test_criterion_8_heisenberg_cohomology_dims():
    base = catalog("heisenberg", dim=3)
    w = Subspace(3, [(0, 1, 0)])
    dims = {s: h2_0(base, w, s)[0] for s in (2, 3, 4)}
    ok = dims == {2: 0, 3: 1, 4: 0}
    _report(8, ok, "dims %s" % dims)


def test_criterion_9_groebner_membership_and_point_search():
    rng = random.Random(97)
    names = ("x", "y", "z", "w")

    def quadratic_exponents(nvars):
        out = []
        for i in range(nvars):
            for j in range(i, nvars):
                e = [0] * nvars
                e[i] += 1
                e[j] += 1
                out.append(tuple(e))
        return out

    def height_values(h):
        vals = {Fraction(0)}
        for den in range(1, h + 1):
            for num in range(-h, h + 1):
                q = Fraction(num, den)
                if abs(q.numerator) <= h and q.denominator <= h:
                    vals.add(q)
        return sorted(vals)

    vals = height_values(5)
    # every value is a numerator over q, the lcm of the denominators
    q = math.lcm(*[v.denominator for v in vals])
    numerators = [int(v * q) for v in vals]

    def projective_points(nvars):
        # last nonzero coordinate 1, every lower stratum included; each
        # point as the integer numerators of its coordinates over q
        for lead in range(nvars - 1, -1, -1):
            def rec(k):
                if k == 0:
                    yield ()
                    return
                for rest in rec(k - 1):
                    for v in numerators:
                        yield rest + (v,)
            for head in rec(lead):
                yield head + (q,) + (0,) * (nvars - lead - 1)

    def scaled_value(quadratic, point):
        # q^2 g(p / q) for the homogeneous quadratic g with the integer
        # terms (c, i, j) of c x_i x_j, at the numerators p
        return sum(c * point[i] * point[j] for c, i, j in quadratic)

    def integer_terms(g):
        out = []
        for e, c in g.terms.items():
            assert sum(e) == 2 and c.denominator == 1
            i, j = [v for v, n in enumerate(e) for _ in range(n)]
            out.append((c.numerator, i, j))
        return out

    failures = []
    searched = 0
    for t in range(20):
        nvars = rng.randint(1, 4)
        variables = names[:nvars]
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for e in quadratic_exponents(nvars):
                c = rng.randint(-3, 3)
                if c and rng.random() < 0.6:
                    terms[e] = Fraction(c)
            if terms:
                gens.append(Polynomial(variables, terms))
        if not gens:
            gens = [Polynomial.variable(variables, 0)
                    * Polynomial.variable(variables, 0)]
        ideal = PolynomialIdeal(gens, degree_cap=20)
        try:
            gb = ideal.groebner()
        except CapExceeded:
            failures.append("ideal %d: cap exceeded" % t)
            continue
        for g in gens:
            if not normal_form(g, gb).is_zero():
                failures.append("ideal %d: generator does not reduce" % t)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                fe, fc = gb[i].leading()
                ge, gc = gb[j].leading()
                lcm = tuple(max(a, b) for a, b in zip(fe, ge))
                mono_f = Polynomial(variables, {tuple(
                    l - a for l, a in zip(lcm, fe)): 1 / fc})
                mono_g = Polynomial(variables, {tuple(
                    l - b for l, b in zip(lcm, ge)): 1 / gc})
                spoly = mono_f * gb[i] - mono_g * gb[j]
                if not normal_form(spoly, gb).is_zero():
                    failures.append("ideal %d: s-poly (%d,%d) survives"
                                    % (t, i, j))
        trivial = only_trivial_zero(ideal)
        quadratics = [integer_terms(g) for g in gens]
        zero = None
        for n, pt in enumerate(projective_points(nvars)):
            if n < 50:
                # the integer value agrees with the Fraction one
                at = tuple(Fraction(v, q) for v in pt)
                for g, quadratic in zip(gens, quadratics):
                    if scaled_value(quadratic, pt) != q * q * (
                            reference_evaluate(g, at)):
                        failures.append("ideal %d: value at %s" % (t, at))
            if all(scaled_value(quadratic, pt) == 0
                   for quadratic in quadratics):
                zero = tuple(Fraction(v, q) for v in pt)
                break
        if zero is not None:
            searched += 1
            if trivial:
                failures.append("ideal %d: zero %s missed" % (t, zero))
    ok = not failures and searched > 0
    _report(9, ok, "; ".join(failures) or "%d ideals had small zeros"
            % searched)


def test_criterion_10_pfaffian_squares_to_determinant():
    rng = random.Random(101)
    failures = 0
    for t in range(100):
        n = (2, 4, 6)[t % 3]
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = Fraction(rng.randint(-6, 6))
                rows[i][j] = c
                rows[j][i] = -c
        b = Matrix(rows)
        if pfaffian(b) ** 2 != b.det():
            failures += 1
    _report(10, failures == 0, "%d of 100 disagreed" % failures)
