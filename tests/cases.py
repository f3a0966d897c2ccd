"""Algebras shared by the reference-oracle tests.

Every catalog family at growing parameters, the skew pencils with
pinned h0 dimensions, a seeded generator of random nondegenerate 2-step
algebras, seeded signed permutations of a basis, the algebras of all
three kinds that carry a rational rank 1 witness, and seeded random
block basis changes.
"""

import random
from fractions import Fraction

from gnla import GNLA, Matrix, catalog, change_basis, rank1_witness, validate

CATALOG_CASES = (
    [("goursat", {"n": n}) for n in range(2, 9)]
    + [("heisenberg", {"dim": d}) for d in (3, 5, 7, 9)]
    + [("mixedjet", {"k": k}) for k in range(2, 7)]
    + [("nontrivial6", {}), ("free2step3", {})]
    + [("kgen", {"k": k}) for k in range(3, 8)]
)

PENCIL_BLOCKS = (
    "M:1", "M:2", "M:3", "F:1", "F:2", "F:3", "E:1:a=0", "E:2:a=1",
    "M:1,F:2", "M:2,F:2", "M:1,M:2", "E:1:a=0,E:1:a=1,F:1",
)


def catalog_algebras():
    return ([catalog(name, **params) for name, params in CATALOG_CASES]
            + [catalog("from_pencil", blocks=b) for b in PENCIL_BLOCKS])


def random_two_step(rng, n1):
    """A random nondegenerate 2-step algebra with n1 generators and a
    two-dimensional degree -2 layer, coefficients in [-3, 3]."""
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


def signed_permutation(rng, a):
    """The same algebra in a shuffled basis, each vector negated with
    probability 1/2; the layers interleave."""
    order = list(range(a.dim))
    rng.shuffle(order)
    vectors = []
    for p in order:
        v = [Fraction(0)] * a.dim
        v[p] = Fraction(rng.choice((1, -1)))
        vectors.append(v)
    return change_basis(a, vectors, [a.labels[p] for p in order],
                        name=a.name + "_signed")


def witness_cases(seed):
    """(algebra, rational rank 1 witness) for every catalog algebra that
    has one, a signed permutation of each, and seeded random 2-step
    algebras."""
    rng = random.Random(seed)
    algebras = catalog_algebras()
    algebras += [signed_permutation(rng, a) for a in algebras]
    algebras += [random_two_step(rng, n1) for n1 in (3, 4, 5) * 4]
    cases = []
    for a in algebras:
        if validate(a).checks["nondegenerate"]:
            w = rank1_witness(a)
            if w is not None:
                cases.append((a, w))
    return cases


def full_block_change(rng, a):
    """a in a random homogeneous basis: one random invertible block per
    layer, entries in [-2, 2], with no row forced to be a witness."""
    vecs = []
    for i in range(1, a.depth + 1):
        k = a.layer_dim(i)
        while True:
            block = [[Fraction(rng.randint(-2, 2)) for _ in range(k)]
                     for _ in range(k)]
            if Matrix(block).det() != 0:
                break
        vecs += [a.embed_layer(i, row) for row in block]
    return change_basis(a, vecs, ["U%d" % p for p in range(a.dim)])
