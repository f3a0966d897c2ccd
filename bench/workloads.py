"""The three benchmark workloads: seeded inputs, items and output checks.

A workload is a list of passes; a pass is a list of items.  An item is
one call a user of gnla would make (a classify, a prolongation chain, a
pfaffian) together with a check of its output against an independent
oracle or a pinned value.  build() takes the imported gnla package and
the seed; every input is made here, so the program receives only the
generated inputs.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

NAMES = ("rand2step", "prolong", "catalog")

# Degree -1 dimension of each random algebra in one rand2step pass.  Two
# small sizes keep a pass near one second, so a run holds enough passes
# for a median; n1 = 6 items take 3-4 s each and would leave too few.
RAND2STEP_SIZES = (4, 5)
# Distinct passes made per rand2step run; later passes cycle through them.
RAND2STEP_POOL = 32

# Per-item time ceiling in reference seconds (see run.py).  Every item
# finishes far below the default; the one known unbounded call, classify
# of the closure example at default budgets, gets a short ceiling so that
# it costs the ceiling and nothing more.
DEFAULT_CEILING = 60.0
CLOSURE_CEILING = 0.5


class CheckFailed(Exception):
    """An item's output disagrees with its oracle or pinned value."""


class Item:
    """One timed call and the check of its result."""

    __slots__ = ("label", "call", "check", "ceiling", "ceiling_expected")

    def __init__(self, label, call, check, ceiling=DEFAULT_CEILING,
                 ceiling_expected=False):
        self.label = label
        self.call = call
        self.check = check
        self.ceiling = ceiling
        # True only where running into the ceiling is the known outcome
        self.ceiling_expected = ceiling_expected


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def signed_permutation(g, a, rng):
    """The same algebra in a shuffled, re-signed homogeneous basis.

    Layer dimensions, verdict kinds, certificates and the existence of a
    rational witness are invariant, so pinned values still apply, while
    every elimination sees its columns in a seed-dependent order.
    """
    order = []
    for i in range(1, a.depth + 1):
        layer = list(a.layer_positions(i))
        rng.shuffle(layer)
        order += layer
    sign = [rng.choice((1, -1)) for _ in range(a.dim)]
    new = {p: k for k, p in enumerate(order)}
    brackets = {}
    for (i, j), terms in a.brackets.items():
        s = sign[i] * sign[j]
        mapped = [(new[k], c * s * sign[k]) for k, c in terms]
        ni, nj = new[i], new[j]
        if ni > nj:
            ni, nj, mapped = nj, ni, [(k, -c) for k, c in mapped]
        brackets[(ni, nj)] = mapped
    return g.GNLA(a.name, [(a.labels[p], a.degrees[p]) for p in order],
                  brackets)


# ---------------------------------------------------------------------------
# rand2step


def random_two_step(g, rng, n1):
    """Acceptance criterion 4's generator: a random nondegenerate 2-step
    algebra with n1 generators and a two-dimensional degree -2 layer."""
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
        a = g.GNLA("rand2step", basis, brackets)
        if g.validate(a).all_passed:
            return a


def _check_infinite(g, a):
    def check(v):
        # Doubrov-Radko: a nondegenerate 2-step algebra with a rank 1
        # point over the closure is infinite; these always have one
        _require(v.kind == "infinite"
                 and v.certificate in ("rational_witness", "closure"),
                 "verdict %s/%s" % (v.kind, v.certificate))
        if v.certificate == "rational_witness":
            _require(g.ad_matrix(a, v.witness).rank == 1,
                     "witness does not have rank 1")
    return check


def rand2step_inputs(g, seed):
    """The algebras of every rand2step pass."""
    rng = _rng("rand2step", seed)
    return [[random_two_step(g, rng, n1) for n1 in RAND2STEP_SIZES]
            for _ in range(RAND2STEP_POOL)]


def _rand2step(g, seed):
    passes = []
    for p, algebras in enumerate(rand2step_inputs(g, seed)):
        items = []
        for a in algebras:
            items.append(Item("rand2step[%d] n1=%d" % (p, a.layer_dim(1)),
                              lambda a=a: g.classify(a, max_degree=1),
                              _check_infinite(g, a)))
        passes.append(items)
    return passes


# ---------------------------------------------------------------------------
# prolong

# (catalog name, parameters, top degree; None runs to the zero layer)
PROLONG_CHAINS = (
    ("heisenberg", {"dim": 3}, 6),
    ("heisenberg", {"dim": 5}, 3),
    ("heisenberg", {"dim": 7}, 2),
    ("from_pencil", {"blocks": "M:2,F:2"}, 1),
    ("mixedjet", {"k": 4}, 4),
    ("free2step3", {}, None),
    ("kgen", {"k": 4}, None),
    ("kgen", {"k": 6}, None),
)

# Layer dimensions where no closed form exists: free2step3 and kgen4 are
# acceptance criteria 1 and 2, the rest are regression pins from gnla 0.1.0.
PINNED_LAYERS = {
    "pencil_M2_F2": (18, 26),
    "mixedjet4": (6, 7, 12, 15, 23),
    "free2step3": (9, 3, 3, 0),
    "kgen4": (7, 4, 3, 0),
    "kgen6": (5, 0),
}

# Highest degree tried by a chain that runs to its zero layer.
ZERO_LAYER_SEARCH = 8


def heisenberg_layer_dim(dim, k):
    """Monomial-count oracle for g_k of the contact algebra of dimension
    2n+1: monomials of weighted degree k+2 in 2n weight-1 variables and
    one weight-2 variable."""
    n = (dim - 1) // 2
    return sum(math.comb(k + 2 - 2 * c + 2 * n - 1, 2 * n - 1)
               for c in range((k + 2) // 2 + 1))


def prolong_chain(g, a, top):
    layers = []
    for k in range(ZERO_LAYER_SEARCH + 1):
        layers.append(g.prolong_layer(a, k, layers))
        if k == top or (top is None and layers[-1].dim == 0):
            break
    return tuple(layers)


def _check_layers(g, a, expected):
    def check(layers):
        dims = tuple(lay.dim for lay in layers)
        _require(dims == expected, "layer dims %s, expected %s"
                 % (dims, expected))
        for k, lay in enumerate(layers):
            for phi in lay.maps:
                bad = g.leibniz_failures(a, layers[:k], phi)
                _require(not bad, "g%d map fails Leibniz on %s"
                         % (k, bad[:2]))
    return check


def _prolong(g, seed):
    rng = _rng("prolong", seed)
    items = []
    for name, params, top in PROLONG_CHAINS:
        a = signed_permutation(g, g.catalog(name, **params), rng)
        if name == "heisenberg":
            expected = tuple(heisenberg_layer_dim(params["dim"], k)
                             for k in range(top + 1))
        else:
            expected = PINNED_LAYERS[a.name]
        items.append(Item("prolong %s" % a.name,
                          lambda a=a, top=top: prolong_chain(g, a, top),
                          _check_layers(g, a, expected)))
    return [items]


# ---------------------------------------------------------------------------
# catalog

_INF = ("infinite", "rational_witness", None, None)

# Every catalog family at growing parameters, with its pinned verdict
# (kind, certificate, total_dim, layer dims) at default budgets.
CATALOG_SWEEP = (
    [("goursat", {"n": 2}, ("degenerate_infinite", "central_witness",
                            None, None))]
    + [("goursat", {"n": n}, _INF) for n in range(3, 9)]
    + [("heisenberg", {"dim": d}, _INF) for d in (3, 5, 7, 9)]
    + [("mixedjet", {"k": k}, _INF) for k in range(2, 7)]
    + [("nontrivial6", {}, _INF),
       ("free2step3", {}, ("finite", None, 21, (9, 3, 3, 0))),
       ("kgen", {"k": 3}, ("finite", None, 21, (9, 3, 3, 0))),
       ("kgen", {"k": 4}, ("finite", None, 21, (7, 4, 3, 0))),
       ("kgen", {"k": 5}, ("finite", None, 12, (4, 0))),
       ("kgen", {"k": 6}, ("finite", None, 14, (5, 0))),
       ("kgen", {"k": 7}, ("finite", None, 12, (2, 0)))]
)

# Pencil block lists with their pinned h0 dimension; single M/F blocks
# follow the closed forms 2m+1 and 3r (acceptance criterion 6).
PENCILS = (
    ("M:1", 3), ("M:2", 5), ("M:3", 7), ("F:1", 3), ("F:2", 6), ("F:3", 9),
    ("E:1:a=0", 3), ("E:2:a=1", 6), ("M:1,F:2", 13), ("M:2,F:2", 15),
    ("M:1,M:2", 13), ("E:1:a=0,E:1:a=1,F:1", 9),
)

# (catalog name, parameters, {s: pinned dim H^2_0}); heisenberg3 is
# acceptance criterion 8, the rest are regression pins from gnla 0.1.0.
H2_BASES = (
    ("heisenberg", {"dim": 3}, {2: 0, 3: 1, 4: 0}),
    ("goursat", {"n": 3}, {2: 0, 3: 1}),
    ("goursat", {"n": 4}, {2: 0, 3: 1}),
    ("heisenberg", {"dim": 5}, {2: 2, 3: 2}),
    ("nontrivial6", {}, {2: 1, 3: 3}),
)

# Entries are nonzero, so the recursive pfaffian's cost does not depend on
# the seed.  Side 14 would take over half of the pass by itself and hide
# the small eliminations this workload is for.
SKEW_SIDES = (8, 10, 12)
SKEW_ENTRIES = (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)


def closure_example(g):
    """The two-step algebra of the certifier tests whose infinite type is
    visible only over the closure."""
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
    return g.GNLA("closure_example", basis, brackets)


def cli_round(g, a, blocks=None):
    """What `gnla classify --json` does on a document, plus the follow-up
    calls a user makes on the verdict."""
    b = g.parse_algebra(g.serialize_algebra(a))
    v = g.classify(b)
    report = g.Report(algebra=b.name, dims=b.layer_dims(), depth=b.depth,
                      kind=v.kind, witness=v.witness, total_dim=v.total_dim,
                      layers=v.layer_dims, note=v.note)
    out = {"algebra": b, "verdict": v, "report": report,
           "json": g.emit_report(report, "json")}
    if v.certificate == "rational_witness":
        d = g.decompose_special_extension(b, v.witness)
        out["adapted"] = d.adapted
        out["rebuilt"] = g.special_extension(g.ExtensionData.from_adapted_base(
            d.quotient, len(d.ideal_basis), d.cocycle))
    if blocks is not None:
        space = g.h0(b)
        out["h0"] = space.dim
        out["spencer"] = g.spencer_subspace_check(space)
        (b1, b2), _ = g.assemble_pencil(g.PencilSpec.parse(blocks))
        out["pencil"] = (b1, b2, g.det_pencil(b1, b2))
    return out


def _check_cli(g, a, pinned, h0_dim):
    kind, certificate = pinned[:2]

    def check(out):
        b, v = out["algebra"], out["verdict"]
        _require(b == a, "parse(serialize(a)) differs from a")
        _require((v.kind, v.certificate, v.total_dim, v.layer_dims)
                 == pinned, "verdict %s/%s %s %s" % (
                     v.kind, v.certificate, v.total_dim, v.layer_dims))
        back = g.Report.from_dict(json.loads(out["json"]))
        _require(back == out["report"]
                 and (back.kind, back.witness, back.total_dim, back.layers)
                 == (v.kind, v.witness, v.total_dim, v.layer_dims),
                 "emitted JSON does not match the verdict")
        if kind == "degenerate_infinite":
            _require(g.ad_matrix(b, v.witness).rank == 0,
                     "central witness is not central")
        if certificate == "rational_witness":
            _require(g.ad_matrix(b, v.witness).rank == 1,
                     "witness does not have rank 1")
            _require(out["rebuilt"] == out["adapted"],
                     "extension round trip differs")
        if h0_dim is not None:
            _require(out["h0"] == h0_dim and out["spencer"],
                     "h0 dim %d, spencer %s" % (out["h0"], out["spencer"]))
            b1, b2, form = out["pencil"]
            t = Fraction(b1.nrows + 1)
            value = sum(c * t ** k for k, c in enumerate(form.coefficients))
            _require(value == (b1 + b2.scale(t)).det(),
                     "det_pencil disagrees with det at l2/l1 = %s" % t)
    return check


def _check_h2(pinned):
    def check(dims):
        _require(dims == pinned, "dims %s, expected %s" % (dims, pinned))
    return check


def _h2_dims(g, b, w, ss):
    return {s: g.h2_0(b, w, s)[0] for s in ss}


def _check_pfaffian(pair):
    pf, det = pair
    _require(pf * pf == det, "Pf^2 = %s but det = %s" % (pf * pf, det))


def _check_closure(v):
    _require(v.kind == "infinite" and v.certificate == "closure",
             "verdict %s/%s" % (v.kind, v.certificate))


def _catalog(g, seed):
    rng = _rng("catalog", seed)
    items = []
    sweep = [(name, params, pinned, None) for name, params, pinned
             in CATALOG_SWEEP]
    sweep += [("from_pencil", {"blocks": blocks}, _INF, h0_dim)
              for blocks, h0_dim in PENCILS]
    for name, params, pinned, h0_dim in sweep:
        a = signed_permutation(g, g.catalog(name, **params), rng)
        blocks = params.get("blocks")
        items.append(Item("catalog %s" % a.name,
                          lambda a=a, blocks=blocks: cli_round(g, a, blocks),
                          _check_cli(g, a, pinned, h0_dim)))
    for name, params, pinned in H2_BASES:
        b = g.catalog(name, **params)
        pos1 = b.layer_positions(1)
        w = g.Subspace(b.dim, [b.basis_vector(p) for p in pos1[1:]])
        items.append(Item("h2_0 %s" % b.name,
                          lambda b=b, w=w, ss=tuple(pinned): _h2_dims(
                              g, b, w, ss),
                          _check_h2(pinned)))
    for side in SKEW_SIDES:
        rows = [[Fraction(0)] * side for _ in range(side)]
        for i in range(side):
            for j in range(i + 1, side):
                c = Fraction(rng.choice(SKEW_ENTRIES))
                rows[i][j], rows[j][i] = c, -c
        m = g.Matrix(rows)
        items.append(Item("pfaffian side %d" % side,
                          lambda m=m: (g.pfaffian(m), m.det()),
                          _check_pfaffian))
    a = closure_example(g)
    items.append(Item("closure_example at default budgets",
                      lambda: g.classify(a), _check_closure,
                      ceiling=CLOSURE_CEILING, ceiling_expected=True))
    return [items]


def _rng(name, seed):
    return random.Random("%s:%d" % (name, seed))


def build(name, g, seed):
    """The passes of one workload, made from the seed alone."""
    return {"rand2step": _rand2step, "prolong": _prolong,
            "catalog": _catalog}[name](g, seed)
