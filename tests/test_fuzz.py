"""Property and mutation fuzzing of the two document parsers and of run().

Generated algebras and cochains must survive serialize then parse
unchanged, and line-level mutations of valid `.alg` and `.coc` documents
must either parse or raise a located DocumentError.  `gnla classify` and
`gnla pencil` on hostile input end with a documented exit code, under a
time bound.  Runs are derandomized and bounded, so the suite stays
deterministic.
"""

import re
import signal
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cases import CATALOG_CASES
from gnla import (
    GNLA,
    Cochain2,
    DocumentError,
    ExtensionData,
    catalog,
    h2_0,
    parse_algebra,
    parse_cocycle,
    run,
    serialize_algebra,
    serialize_cocycle,
)

FUZZ = settings(derandomize=True, database=None, max_examples=60,
                deadline=None, suppress_health_check=[HealthCheck.too_slow])

LABELS = ["A", "B", "C", "X1", "Y_2", "_z", "Zz9", "e10", "u", "V", "w3_",
          "T"]
COEFFS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def algebras(draw):
    """A graded algebra with up to four layers of up to three vectors,
    declared in a shuffled order, with random brackets that respect the
    grading; Jacobi and generation are not enforced."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    degrees = [-(i + 1) for i, k in enumerate(dims) for _ in range(k)]
    degrees = draw(st.permutations(degrees))
    labels = draw(st.permutations(LABELS))[:len(degrees)]
    n = len(degrees)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            targets = [k for k in range(n)
                       if degrees[k] == degrees[i] + degrees[j]]
            if targets and draw(st.booleans()):
                brackets[(i, j)] = [(k, draw(COEFFS)) for k in targets]
    name = draw(st.sampled_from(["a", "heis-3", "m.2", "_9"]))
    return GNLA(name, list(zip(labels, degrees)), brackets)


BASES = [catalog(name, **params) for name, params in CATALOG_CASES
         if name in ("heisenberg", "goursat", "nontrivial6", "kgen")
         and sum(params.values()) <= 7]


@st.composite
def cochains(draw):
    """(base, s, cochain): a degree-correct random cochain over a catalog
    base, each value in the component its pair's degree forces."""
    base = draw(st.sampled_from(BASES))
    s = draw(st.integers(2, 4))
    values = {}
    for p in range(base.dim):
        for q in range(p + 1, base.dim):
            k = -(base.degrees[p] + base.degrees[q])
            if k <= s and draw(st.booleans()):
                val = [Fraction(0)] * s
                val[k - 1] = draw(COEFFS)
                values[(p, q)] = val
    return base, s, Cochain2.from_dict(s, values)


# Hostile numerals: zero denominators, a numeral past Python's 4300-digit
# int conversion limit, and non-ASCII digits.
NUMERALS = st.sampled_from(["0", "-0", "1/0", "0/0", "/", "-", "9" * 4301,
                            "1/" + "9" * 4301, "٣", "1e3", "2.5"])
# Replacement tokens: grammar words, punctuation and hostile numerals.
TOKENS = st.one_of(
    NUMERALS,
    st.sampled_from(["algebra", "basis", "bracket", "a", "b", "=", "+",
                     "[", "]", ",", ":", "#", "A:-1", "B:0", "[A,B]", "X",
                     "X1", "Y1", "Z"]),
    st.text(max_size=6),
)


def with_hostile_numeral(draw, document):
    """document with one run of digits replaced by a hostile numeral."""
    runs = list(re.finditer(r"\d+", document))
    run = runs[draw(st.integers(0, len(runs) - 1))]
    return document[:run.start()] + draw(NUMERALS) + document[run.end():]


@st.composite
def mutated(draw, document):
    """document with a few line-level mutations: a line dropped,
    duplicated or truncated, a token or a numeral replaced, or a random
    line inserted."""
    lines = document.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "dup", "cut", "token", "numeral",
                                   "insert"]))
        if not lines:
            op = "insert"
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "drop":
            del lines[at]
        elif op == "dup":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif op == "cut":
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
        elif op == "token":
            words = lines[at].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(TOKENS)
            lines[at] = " ".join(words)
        elif op == "numeral" and re.search(r"\d", lines[at]):
            lines[at] = with_hostile_numeral(draw, lines[at])
        else:
            lines.insert(at, " ".join(draw(st.lists(TOKENS, max_size=6))))
    return "\n".join(lines) + "\n"


@FUZZ
@given(algebras())
def test_algebra_round_trip(a):
    back = parse_algebra(serialize_algebra(a))
    assert back == a
    assert back.name == a.name


@FUZZ
@given(st.data())
def test_mutated_algebra_documents_parse_or_raise_located(data):
    doc = data.draw(mutated(serialize_algebra(data.draw(algebras()))))
    try:
        parse_algebra(doc)
    except DocumentError as exc:
        assert exc.line >= 1


@FUZZ
@given(st.data())
def test_hostile_numerals_in_algebra_documents_raise_located(data):
    doc = with_hostile_numeral(data.draw, serialize_algebra(
        data.draw(algebras())))
    try:
        parse_algebra(doc)
    except DocumentError as exc:
        assert exc.line >= 1


@FUZZ
@given(cochains())
def test_cocycle_round_trip_on_random_cochains(case):
    base, s, c = case
    assert parse_cocycle(serialize_cocycle(c, base), base, s) == c


def test_cocycle_round_trip_on_h2_0_representatives():
    count = 0
    for base in BASES:
        for s in (2, 3, 4):
            w = ExtensionData.from_adapted_base(base, s).covector_kernel
            for rep in h2_0(base, w, s)[1]:
                text = serialize_cocycle(rep, base)
                assert parse_cocycle(text, base, s) == rep
                count += 1
    assert count > 0


@FUZZ
@given(st.data())
def test_mutated_cocycle_documents_parse_or_raise_located(data):
    base, s, c = data.draw(cochains())
    doc = data.draw(mutated(serialize_cocycle(c, base)))
    try:
        parse_cocycle(doc, base, s)
    except DocumentError as exc:
        assert exc.line >= 1


# Eigenvalues and coefficients with 40-digit parts, and in one draw of
# four a hostile numeral of the parsers: an exponent form that Fraction
# would expand, zero denominators, a decimal, a numeral past the digit
# limit.
BIG = 10 ** 40 + 1
BIG_NUMERALS = [str(BIG), "-%d" % BIG, "%d/%d" % (BIG, BIG + 2),
                "1/%d" % (BIG - 2)]
CLI_NUMERALS = st.sampled_from(
    ["-3", "-2", "-1", "0", "1", "1", "2", "3", "3/2", "-5/7"] * 2
    + BIG_NUMERALS * 2
    + ["1e999999999", "1/0", "0/0", "2.5", "-", "9" * 4301])


@st.composite
def pencil_specs(draw):
    """A block list of one to three small M, F and E blocks, half the
    eigenvalues of 40 digits and the rest drawn from CLI_NUMERALS."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from("MFEE"))
        size = draw(st.integers(1, 2))
        if kind == "E":
            blocks.append("E:%d:a=%s" % (size, draw(st.one_of(
                st.sampled_from(BIG_NUMERALS), CLI_NUMERALS))))
        else:
            blocks.append("%s:%d" % (kind, size))
    return ",".join(blocks)


@st.composite
def two_step_documents(draw):
    """A 2-step `.alg` document with two to five generators and a degree
    -2 layer of dimension 1 to 3, its coefficients drawn from
    CLI_NUMERALS; one pair bracket in five is left out."""
    n1 = draw(st.integers(2, 5))
    n2 = draw(st.integers(1, 3))
    gens = ["X%d" % (i + 1) for i in range(n1)]
    tops = ["W%d" % (k + 1) for k in range(n2)]
    lines = ["algebra hostile",
             "basis " + " ".join(["%s:-1" % x for x in gens]
                                 + ["%s:-2" % w for w in tops])]
    for i in range(n1):
        for j in range(i + 1, n1):
            if draw(st.integers(0, 4)):
                terms = " + ".join("%s %s" % (draw(CLI_NUMERALS), w)
                                   for w in tops)
                lines.append("bracket [%s,%s] = %s" % (gens[i], gens[j],
                                                        terms))
    return "\n".join(lines) + "\n"


def bounded_run(argv, seconds=10):
    """run(argv) under a SIGALRM bound; its exit code."""
    def timeout(signum, frame):
        raise TimeoutError("gnla %s did not return" % " ".join(argv)[:80])

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


CLI_FUZZ = settings(FUZZ, max_examples=40, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


@CLI_FUZZ
@given(pencil_specs())
def test_run_pencil_then_classify_ends_with_an_exit_code(tmp_path, capsys,
                                                         spec):
    """`gnla pencil` on a hostile block list exits 0 to 3; a document it
    writes classifies infinite, as every pencil of M, F and rational E
    blocks has a rational rank 1 witness."""
    code = bounded_run(["pencil", "--blocks", spec])
    out = capsys.readouterr().out
    assert code in (0, 1, 2, 3), spec
    if code != 0:
        return
    path = tmp_path / "pencil.alg"
    path.write_text(out, encoding="utf-8")
    assert bounded_run(["classify", str(path), "--json"]) == 0, spec
    assert '"kind": "infinite"' in capsys.readouterr().out, spec


@CLI_FUZZ
@given(two_step_documents())
def test_run_classify_on_hostile_two_step_documents(tmp_path, capsys, doc):
    """`gnla classify` on 2-step documents with 40-digit and hostile
    coefficients exits 0 to 3 within the bound."""
    path = tmp_path / "doc.alg"
    path.write_text(doc, encoding="utf-8")
    code = bounded_run(["classify", str(path), "--max-degree", "2"])
    capsys.readouterr()
    assert code in (0, 1, 2, 3), doc
