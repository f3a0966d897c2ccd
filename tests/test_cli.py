import errno
import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gnla
import gnla.cli
from gnla import (
    Cochain2,
    DocumentError,
    DuplicateBracket,
    ExtensionData,
    GNLA,
    GradingViolation,
    PencilSpec,
    Report,
    Subspace,
    UnknownLabel,
    catalog,
    decompose_special_extension,
    emit_report,
    parse_algebra,
    parse_cocycle,
    rank1_witness,
    run,
    serialize_algebra,
    serialize_cocycle,
    validate,
)
from gnla.cli import DocumentSyntaxError as DocSyntaxError
from gnla.constructions import _adapted_base

HEIS3_DOC = """\
algebra heis3
basis X:-1 Y:-1 Z:-2
bracket [X,Y] = 1 Z
"""

JACOBI_BAD_DOC = """\
algebra bad
basis X:-1 Z1:-1 Z2:-2 Z3:-3 Z4:-4
bracket [X,Z1] = 1 Z2
bracket [X,Z2] = 1 Z3
bracket [X,Z3] = 1 Z4
bracket [Z1,Z2] = 1 Z3
"""

# the chain of JACOBI_BAD_DOC twice, so Jacobi fails on two triples
JACOBI_TWICE_DOC = """\
algebra bad_twice
basis X:-1 Z1:-1 U:-1 V1:-1 Z2:-2 V2:-2 Z3:-3 V3:-3 Z4:-4 V4:-4
bracket [X,Z1] = 1 Z2
bracket [X,Z2] = 1 Z3
bracket [X,Z3] = 1 Z4
bracket [Z1,Z2] = 1 Z3
bracket [U,V1] = 1 V2
bracket [U,V2] = 1 V3
bracket [U,V3] = 1 V4
bracket [V1,V2] = 1 V3
"""


# --- document grammar ---------------------------------------------------------

def test_parse_simple_document():
    a = parse_algebra(HEIS3_DOC)
    assert a.name == "heis3"
    assert a.labels == ("X", "Y", "Z")
    assert a.degrees == (-1, -1, -2)
    assert a.brackets == {(0, 1): ((2, Fraction(1)),)}


def test_parse_ignores_comments_and_blank_lines():
    doc = "# header\n\nalgebra a # trailing\nbasis X:-1 Y:-1 Z:-2\n" \
          "  bracket [X,Y] = 1 Z  # note\n"
    a = parse_algebra(doc)
    assert a.dim == 3


def test_parse_normalizes_orientation():
    doc = "algebra a\nbasis X:-1 Y:-1 Z:-2\nbracket [Y,X] = 1 Z\n"
    a = parse_algebra(doc)
    assert a.brackets == {(0, 1): ((2, Fraction(-1)),)}


def test_parse_accepts_fractions_and_sums():
    doc = ("algebra a\nbasis X:-1 Y:-1 W1:-2 W2:-2\n"
           "bracket [X,Y] = 1/2 W1 + -3 W2\n")
    a = parse_algebra(doc)
    assert a.brackets[(0, 1)] == ((2, Fraction(1, 2)), (3, Fraction(-3)))


def test_parse_requires_explicit_coefficients():
    doc = "algebra a\nbasis X:-1 Y:-1 Z:-2\nbracket [X,Y] = Z\n"
    with pytest.raises(DocSyntaxError) as exc:
        parse_algebra(doc)
    assert exc.value.line == 3


def test_parse_error_line_numbers():
    with pytest.raises(DocSyntaxError) as exc:
        parse_algebra("algebra a\nbasis X:1\n")
    assert exc.value.line == 2
    with pytest.raises(UnknownLabel) as exc2:
        parse_algebra("algebra a\nbasis X:-1 Y:-1 Z:-2\n"
                      "bracket [X,Q] = 1 Z\n")
    assert exc2.value.line == 3
    with pytest.raises(DuplicateBracket) as exc3:
        parse_algebra("algebra a\nbasis X:-1 Y:-1 Z:-2\n"
                      "bracket [X,Y] = 1 Z\nbracket [Y,X] = 1 Z\n")
    assert exc3.value.line == 4
    with pytest.raises(GradingViolation) as exc4:
        parse_algebra("algebra a\nbasis X:-1 Y:-1 Z:-2\n"
                      "bracket [X,Y] = 1 X\n")
    assert exc4.value.line == 3
    with pytest.raises(DocSyntaxError) as exc5:
        parse_algebra("algebra a\nnonsense here\n")
    assert exc5.value.line == 2


def test_parse_structural_requirements():
    with pytest.raises(DocSyntaxError):
        parse_algebra("basis X:-1\n")  # basis before algebra line
    with pytest.raises(DocSyntaxError):
        parse_algebra("algebra a\n")  # no basis at all
    with pytest.raises(DocSyntaxError):
        parse_algebra("algebra a\nbasis X:-1\nbasis Y:-1\n")
    with pytest.raises(DocSyntaxError):
        parse_algebra("algebra a\nbasis X:-1 X:-2\n")


def test_document_errors_are_document_errors():
    for doc in ["algebra a\nbasis X:0\n",
                "algebra a\nbasis X:-1 Y:-1 Z:-2\nbracket [X,Q] = 1 Z\n"]:
        with pytest.raises(DocumentError):
            parse_algebra(doc)


def test_serialize_parse_round_trip_on_catalog():
    entries = [("goursat", {"n": 4}), ("heisenberg", {"dim": 5}),
               ("mixedjet", {"k": 3}), ("nontrivial6", {}),
               ("free2step3", {}), ("kgen", {"k": 4}),
               ("from_pencil", {"blocks": "M:1,F:2"})]
    for name, params in entries:
        a = catalog(name, **params)
        b = parse_algebra(serialize_algebra(a))
        assert b == a, (name, params)
        assert b.name == a.name


# --- cocycle grammar -----------------------------------------------------------

def test_parse_cocycle_lines():
    base = catalog("heisenberg", dim=3)
    c = parse_cocycle("# comment\nb Y Z 3 = 1\na Y 2 = 1/2\n", base, 3)
    assert c.value(1, 2) == (0, 0, 1)
    assert c.value(0, 1) == (0, Fraction(1, 2), 0)


def test_parse_cocycle_errors():
    """Every message, its line and its class, for both line kinds, and
    the order of the checks: label, transversal, self pair, number,
    module index, repeated component."""
    base = catalog("heisenberg", dim=5)
    cases = [
        ("a Q 1 = 1", UnknownLabel, "unknown label 'Q'"),
        ("b Q X1 1 = 1/0", UnknownLabel, "unknown label 'Q'"),
        ("b Y1 Q 1 = 1", UnknownLabel, "unknown label 'Q'"),
        ("a X1 9 = 1/0", DocSyntaxError, "transversal paired with itself"),
        ("b X1 Y1 1 = 1", DocSyntaxError,
         "use an `a` line for pairs with the transversal"),
        ("b Y1 X1 x = 1", DocSyntaxError,
         "use an `a` line for pairs with the transversal"),
        ("b Y1 Y1 9 = x", DocSyntaxError, "pair of 'Y1' with itself"),
        ("a Y1 x = 1", DocSyntaxError, "bad number in 'a Y1 x = 1'"),
        ("a Y1 9 = 1/0", DocSyntaxError, "bad number in 'a Y1 9 = 1/0'"),
        ("b Y1 Y2 1 = 1/0", DocSyntaxError,
         "bad number in 'b Y1 Y2 1 = 1/0'"),
        ("a Y1 5 = 1", DocSyntaxError, "module index 5 outside 1..2"),
        ("b Y1 Y2 0 = 1", DocSyntaxError, "module index 0 outside 1..2"),
        ("q lines", DocSyntaxError, "expected `a L j = c` or `b L1 L2 k = c`"),
        ("a Y1 1 1 = 1", DocSyntaxError,
         "expected `a L j = c` or `b L1 L2 k = c`"),
        ("b Y1 Y2 1 1", DocSyntaxError,
         "expected `a L j = c` or `b L1 L2 k = c`"),
    ]
    lead = "# comment\n\na X2 1 = 1\n"
    for line, cls, message in cases:
        with pytest.raises(cls) as err:
            parse_cocycle(lead + line + "  # tail\n", base, 2)
        assert type(err.value) is cls, line
        assert err.value.line == 4, line
        assert str(err.value) == "line 4: " + message, line
    for text, first in [("a Y1 1 = 1\na Y1 1 = 2\n", 1),
                        ("b Y1 Y2 2 = 1\n\nb Y2 Y1 2 = 3\n", 1),
                        ("a Y1 1 = 1\na Y1 2 = 1\na Y1 1 = 1\n", 1)]:
        with pytest.raises(DuplicateBracket) as err:
            parse_cocycle(text, base, 2)
        last = len(text.splitlines())
        assert err.value.line == last
        assert str(err.value) == ("line %d: component already declared on "
                                  "line %d" % (last, first))
    with pytest.raises(ValueError, match="base has no degree -1 layer"):
        parse_cocycle("", GNLA("deep", [("A", -2)], {}), 2)


def test_adapted_base_is_one_rule_for_extensions_and_cocycles():
    """The transversal X is the first degree -1 basis vector and W the
    span of the others, for the extension data and both cocycle
    grammars; each refuses a base without a degree -1 layer."""
    base = catalog("heisenberg", dim=5)  # X1 X2 Y1 Y2 Z
    xpos, w = _adapted_base(base)
    data = ExtensionData.from_adapted_base(base, 2)
    assert xpos == 0 and data.transversal == base.basis_vector(0)
    assert w == data.covector_kernel == Subspace(
        5, [base.basis_vector(p) for p in (1, 2, 3)])
    c = parse_cocycle("a Y1 2 = 3\nb X2 Y2 2 = 1\n", base, 2)
    assert c.as_dict() == {(0, 2): (0, 3), (1, 3): (0, 1)}
    assert serialize_cocycle(c, base) == "a Y1 2 = 3\nb X2 Y2 2 = 1\n"
    deep = GNLA("deep", [("A", -2)], {})
    for call in (lambda: _adapted_base(deep),
                 lambda: ExtensionData.from_adapted_base(deep, 2),
                 lambda: parse_cocycle("", deep, 2),
                 lambda: serialize_cocycle(Cochain2.zero(2), deep)):
        with pytest.raises(ValueError, match="base has no degree -1 layer"):
            call()


def test_cocycle_round_trip():
    base = catalog("heisenberg", dim=3)
    text = "a Y 1 = -2\nb Y Z 3 = 5\n"
    c = parse_cocycle(text, base, 3)
    again = parse_cocycle(serialize_cocycle(c, base), base, 3)
    assert again == c
    assert serialize_cocycle(parse_cocycle("", base, 3), base) == ""


# --- reports --------------------------------------------------------------------

def make_report(**over):
    base = dict(algebra="a", dims=(2, 1), depth=2, kind="infinite",
                witness=(Fraction(0), Fraction(1), Fraction(0)))
    base.update(over)
    return Report(**base)


def test_report_round_trip():
    r = make_report(total_dim=None, layers=(3, 4), note="x")
    assert Report.from_dict(r.to_dict()) == r


def test_report_json_is_deterministic():
    r = make_report()
    assert emit_report(r) == emit_report(make_report())
    d = json.loads(emit_report(r).decode())
    assert list(d) == ["algebra", "dims", "depth", "verdict", "version"]
    assert list(d["verdict"]) == ["kind", "witness", "total_dim", "layers"]
    assert d["verdict"]["witness"] == ["0", "1", "0"]


def test_report_note_key_only_when_present():
    with_note = json.loads(emit_report(make_report(note="n")).decode())
    assert list(with_note["verdict"])[-1] == "note"


def test_report_elapsed_only_in_text():
    r = make_report(elapsed=0.25)
    assert b"elapsed" not in emit_report(r, "json")
    text = emit_report(r, "text").decode()
    assert "elapsed: 0.250s" in text
    assert "witness: [0, 1, 0]" in text
    with pytest.raises(ValueError):
        emit_report(r, "yaml")


def test_report_fractions_survive_the_round_trip():
    r = make_report(witness=(Fraction(1, 3), Fraction(-2), Fraction(0)))
    d = r.to_dict()
    assert d["verdict"]["witness"] == ["1/3", "-2", "0"]
    assert Report.from_dict(d).witness == r.witness


# --- end to end -----------------------------------------------------------------

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_check_ok(tmp_path, capsys):
    f = write(tmp_path, "h.alg", HEIS3_DOC)
    assert run(["check", f]) == 0
    out = capsys.readouterr().out
    assert "jacobi: ok" in out
    assert "result: ok" in out
    assert "degenerate: no" in out


def test_run_check_jacobi_failure(tmp_path, capsys):
    f = write(tmp_path, "bad.alg", JACOBI_BAD_DOC)
    assert run(["check", f]) == 1
    out = capsys.readouterr().out
    assert "jacobi: FAIL at (X, Z1, Z2)" in out
    assert "result: invalid" in out


def test_check_and_refusals_word_a_failed_check_alike(tmp_path, capsys):
    """`gnla check` and a command that refuses an invalid algebra print a
    failed structural check in one wording, the refusal with `gnla: `
    in front on stderr, and each at the check's first witness only."""
    bad = write(tmp_path, "bad.alg", JACOBI_BAD_DOC)
    twice = write(tmp_path, "twice.alg", JACOBI_TWICE_DOC)
    flat = write(tmp_path, "z.alg", "algebra z\nbasis Z:-2\n")
    for f, command in ((bad, ["classify"]), (twice, ["classify"]),
                       (flat, ["cohomology", "--s", "2"])):
        assert run(["check", f]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if ": FAIL at " in line]
        assert run([command[0], f] + command[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["gnla: " + line
                                             for line in failed]
        if f == twice:
            assert failed == ["jacobi: FAIL at (X, Z1, Z2)"]
    assert failed == ["generated: FAIL at layer -2"]


def test_run_check_degenerate_is_reported_not_fatal(tmp_path, capsys):
    doc = "algebra d\nbasis X:-1 Y:-1 Q:-1 W:-2\nbracket [X,Y] = 1 W\n"
    f = write(tmp_path, "d.alg", doc)
    assert run(["check", f]) == 0
    out = capsys.readouterr().out
    assert "degenerate: yes" in out
    assert "central witness: [0, 0, 1, 0]" in out


def test_run_prolong_json(tmp_path, capsys):
    f = write(tmp_path, "free.alg", serialize_algebra(catalog("free2step3")))
    assert run(["prolong", f, "--max-degree", "5", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"]["kind"] == "finite"
    assert d["verdict"]["total_dim"] == 21
    assert d["verdict"]["layers"] == [9, 3, 3, 0]
    assert d["dims"] == [3, 3]


def test_run_classify_infinite_json(tmp_path, capsys):
    f = write(tmp_path, "h.alg", HEIS3_DOC)
    assert run(["classify", f, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"]["kind"] == "infinite"
    assert d["verdict"]["witness"] == ["0", "1", "0"]


def test_run_classify_cap_exceeded_exit_code(tmp_path, capsys):
    f = write(tmp_path, "free.alg", serialize_algebra(catalog("free2step3")))
    code = run(["classify", f, "--max-degree", "0", "--degree-cap", "1",
                "--json"])
    assert code == 3
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"]["kind"] == "inconclusive"
    assert "degree cap" in d["verdict"]["note"]


def test_run_classify_rejects_invalid_document(tmp_path, capsys):
    f = write(tmp_path, "bad.alg", JACOBI_BAD_DOC)
    assert run(["classify", f]) == 1
    assert "jacobi" in capsys.readouterr().err


def test_run_catalog_and_reparse(tmp_path, capsys):
    out = str(tmp_path / "g4.alg")
    assert run(["catalog", "goursat", "--param", "n=4", "-o", out]) == 0
    a = parse_algebra(Path(out).read_text())
    assert a == catalog("goursat", n=4)


def test_run_catalog_unknown_name(tmp_path, capsys):
    assert run(["catalog", "nosuch"]) == 2
    assert "unknown catalog name" in capsys.readouterr().err


def test_non_integer_catalog_size_names_the_family_and_parameter(capsys):
    """A size that int() refuses, a 5000-digit one among them, is one
    gnla: line naming the family and the parameter, without the value,
    and exit 2."""
    huge = "9" * 5000
    for family, key, value in (("heisenberg", "dim", "abc"),
                               ("goursat", "n", "1.5"), ("kgen", "k", huge),
                               ("mixedjet", "k", "")):
        argv = ["catalog", family, "--param", "%s=%s" % (key, value)]
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "gnla: %s: %s must be an integer\n" % (
            family, key), argv
    with pytest.raises(ValueError, match="^goursat: n must be an integer$"):
        catalog("goursat", n=None)


def test_huge_catalog_and_pencil_sizes_are_prompt_located_errors(capsys):
    """A catalog family or a pencil whose algebra would have more than
    256 basis vectors is refused before anything is built, so the run
    exits 2 at once and names the input; the largest sizes still build."""
    def timeout(signum, frame):
        raise TimeoutError("a huge size was not refused promptly")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for argv, named in (
                (["pencil", "--blocks", "M:1000000"], "pencil"),
                (["pencil", "--blocks", "M:1000000,M:-1000000"], "pencil"),
                (["pencil", "--blocks", "F:128"], "pencil"),
                (["catalog", "goursat", "--param", "n=100000000"], "goursat"),
                (["catalog", "heisenberg", "--param", "dim=257"],
                 "heisenberg"),
                (["catalog", "mixedjet", "--param", "k=254"], "mixedjet"),
                (["catalog", "kgen", "--param", "k=254"], "kgen")):
            assert run(argv) == 2, argv
            err = capsys.readouterr().err
            assert named in err and "256 basis vectors" in err, argv
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert catalog("goursat", n=256).dim == 256
    assert catalog("kgen", k=253).dim == 256
    assert catalog("from_pencil", blocks="F:127").dim == 256
    for blocks in ((("E", 5),), (("M", "x"),)):
        with pytest.raises(ValueError):
            PencilSpec(blocks=blocks)


def test_huge_basis_line_and_extension_length_are_prompt_errors(
        tmp_path, capsys):
    """A basis line of more than 256 entries or a degree below -256 is a
    syntax error at its line (exit 1), and an extension of more than 256
    basis vectors is refused (exit 2) before the cocycle is read into
    memory; the largest accepted sizes still run.  No generated algebra
    on at most 256 basis vectors is deeper than -256, and the checks
    would otherwise loop over every degree down to it."""
    def timeout(signum, frame):
        raise TimeoutError("a huge size was not refused promptly")

    labels = " ".join("X%d:-1" % i for i in range(10 ** 5))
    wide = write(tmp_path, "wide.alg", "algebra wide\nbasis %s\n" % labels)
    deep = write(tmp_path, "deep.alg",
                 "algebra deep\nbasis X:-1 Y:-1 Z:-100000000\n")
    base = write(tmp_path, "h.alg", HEIS3_DOC)
    coc = write(tmp_path, "c.coc", "b Y Z 3 = 1\n")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        assert run(["check", wide]) == 1
        assert "line 2: basis line of more than 256 entries" in \
            capsys.readouterr().err
        for command in ("check", "classify"):
            assert run([command, deep]) == 1
            assert capsys.readouterr().err.strip() == \
                "gnla: line 2: degree of 'Z' is below -256"
        for s in ("100000000", "254"):
            assert run(["extend", base, "--s", s, "--cocycle", coc]) == 2
            err = capsys.readouterr().err
            assert "s = %s has more than 256 basis vectors" % s in err
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    largest = "algebra w\nbasis %s\n" % " ".join(
        "X%d:-1" % i for i in range(256))
    assert parse_algebra(largest).dim == 256
    with pytest.raises(DocSyntaxError, match="line 2: degree of 'Z'"):
        parse_algebra("algebra a\nbasis X:-1 Y:-1 Z:-257\n")
    assert parse_algebra("algebra a\nbasis X:-1 Y:-1 Z:-256\n").depth == 256
    with pytest.raises(ValueError, match="256 basis vectors"):
        ExtensionData.from_adapted_base(catalog("heisenberg", dim=3), 254)
    assert ExtensionData.from_adapted_base(
        catalog("heisenberg", dim=3), 253).s == 253


def test_module_length_is_one_check_for_extend_and_cohomology(
        tmp_path, capsys):
    """s < 2 is refused with one message and exit 2 whatever the cocycle
    file holds, and cohomology bounds s like extend: more than 256
    basis vectors is refused promptly, the largest accepted s runs."""
    base = write(tmp_path, "h.alg", HEIS3_DOC)
    cocycles = [write(tmp_path, "a.coc", "a Y 1 = 1\n"),
                write(tmp_path, "e.coc", "")]
    for s in ("0", "1", "-3"):
        for coc in cocycles:
            assert run(["extend", base, "--s", s, "--cocycle", coc]) == 2
            assert capsys.readouterr().err == (
                "gnla: module length s must be at least 2\n")
        assert run(["cohomology", base, "--s", s]) == 2
        assert capsys.readouterr().err == (
            "gnla: module length s must be at least 2\n")
    for s in ("1000000", "254"):
        started = time.perf_counter()
        assert run(["cohomology", base, "--s", s, "--json"]) == 2
        assert time.perf_counter() - started < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("gnla: extension of heis3 by s = %s has "
                                "more than 256 basis vectors\n" % s)
    assert run(["cohomology", base, "--s", "253", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 0


def test_run_extend_rebuilds_nontrivial6(tmp_path, capsys):
    base = write(tmp_path, "h.alg", HEIS3_DOC)
    coc = write(tmp_path, "c.coc", "b Y Z 3 = 1\n")
    out = str(tmp_path / "ext.alg")
    assert run(["extend", base, "--s", "3", "--cocycle", coc,
                "-o", out]) == 0
    built = parse_algebra(Path(out).read_text())
    nt = catalog("nontrivial6")
    d = decompose_special_extension(nt, rank1_witness(nt))
    assert built == d.adapted


def test_run_extend_jacobi_violation(tmp_path, capsys):
    base = write(tmp_path, "h.alg", HEIS3_DOC)
    coc = write(tmp_path, "c.coc", "b Y Z 3 = 1\n")
    assert run(["extend", base, "--s", "4", "--cocycle", coc]) == 1
    assert "X, Z1, Z2" in capsys.readouterr().err


def test_run_cohomology(tmp_path, capsys):
    base = write(tmp_path, "h.alg", HEIS3_DOC)
    assert run(["cohomology", base, "--s", "3"]) == 0
    out = capsys.readouterr().out
    assert "dim: 1" in out
    assert "b Y Z 3 = 1" in out
    assert run(["cohomology", base, "--s", "2", "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["dim"] == 0
    assert d["representatives"] == []
    # a base without a degree -1 layer is not generated by it
    flat = write(tmp_path, "z.alg", "algebra z\nbasis Z:-2\n")
    assert run(["cohomology", flat, "--s", "2"]) == 1
    assert "gnla: generated: FAIL at layer -2\n" == capsys.readouterr().err


def test_run_cohomology_output_feeds_extend(tmp_path, capsys):
    """The representative printed by cohomology is valid extend input."""
    base = write(tmp_path, "h.alg", HEIS3_DOC)
    run(["cohomology", base, "--s", "3", "--json"])
    d = json.loads(capsys.readouterr().out)
    coc_text = "\n".join(d["representatives"][0]) + "\n"
    coc = write(tmp_path, "rep.coc", coc_text)
    assert run(["extend", base, "--s", "3", "--cocycle", coc]) == 0


def test_run_pencil(tmp_path, capsys):
    out = str(tmp_path / "m1.alg")
    assert run(["pencil", "--blocks", "M:1", "-o", out]) == 0
    a = parse_algebra(Path(out).read_text())
    assert a.layer_dims() == (3, 2)
    assert validate(a).all_passed
    assert run(["pencil", "--blocks", "Q:9"]) == 2


def test_run_missing_file(capsys):
    assert run(["check", "/nonexistent/path.alg"]) == 2


def test_run_directory_paths_are_usage_errors(tmp_path, capsys):
    """A directory where a file is read or written is a located error
    with the usage exit code, not a traceback."""
    base = write(tmp_path, "h.alg", HEIS3_DOC)
    d = str(tmp_path)
    for argv in (["check", d],
                 ["extend", base, "--s", "3", "--cocycle", d],
                 ["catalog", "heisenberg", "--param", "dim=3", "-o", d]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "gnla: [Errno %d] Is a directory: %r\n" % (
            errno.EISDIR, d), argv


def test_run_document_error_exit(tmp_path, capsys):
    f = write(tmp_path, "e.alg", "algebra a\nbasis X:1\n")
    assert run(["check", f]) == 1
    assert "line" in capsys.readouterr().err or True


def test_zero_denominator_in_bracket_is_a_located_error(tmp_path, capsys):
    doc = "algebra a\nbasis X:-1 Y:-1 Z:-2\nbracket [X,Y] = 1/0 Z\n"
    with pytest.raises(DocSyntaxError) as exc:
        parse_algebra(doc)
    assert exc.value.line == 3
    f = write(tmp_path, "z.alg", doc)
    assert run(["classify", f]) == 1
    assert "gnla: line 3: zero denominator" in capsys.readouterr().err


def test_numerals_past_the_int_digit_limit_are_located_errors(tmp_path,
                                                              capsys):
    """Python refuses int conversion past 4300 digits; a degree or a
    coefficient that long is a located error, not a traceback (found by
    the hostile-numeral fuzz test)."""
    huge = "9" * 4301
    for doc, message in [
            ("algebra a\nbasis X:-%s\n" % huge,
             "line 2: degree of 'X' has too many digits"),
            ("algebra a\nbasis X:-1 Y:-1 Z:-2\nbracket [X,Y] = %s Z\n" % huge,
             "line 3: coefficient of Z has too many digits"),
            ("algebra a\nbasis X:-1 Y:-1 Z:-2\nbracket [X,Y] = 1/%s Z\n"
             % huge, "line 3: coefficient of Z has too many digits")]:
        with pytest.raises(DocSyntaxError) as exc:
            parse_algebra(doc)
        assert str(exc.value) == message
        f = write(tmp_path, "h.alg", doc)
        assert run(["check", f]) == 1
        assert "gnla: " + message in capsys.readouterr().err
    base = catalog("heisenberg", dim=3)
    with pytest.raises(DocSyntaxError, match="line 1: bad number"):
        parse_cocycle("a Y 1 = %s\n" % huge, base, 3)


def test_cocycle_values_take_only_the_alg_numeral(tmp_path, capsys):
    """Fraction alone would also read decimal and exponent forms, and
    expand 1e999999999 without bound; such values are located errors
    that return at once."""
    base = catalog("heisenberg", dim=3)
    for value in ("1e1000000", "1e999999999", "2.5", "1E3", "+1", "1_0",
                  "1/2/3"):
        text = "a Y 1 = 1\nb Y Z 3 = %s\n" % value
        start = time.perf_counter()
        with pytest.raises(DocSyntaxError) as exc:
            parse_cocycle(text, base, 3)
        assert time.perf_counter() - start < 0.5, value
        assert exc.value.line == 2
        assert str(exc.value).startswith("line 2: bad number"), value
    c = parse_cocycle("a Y 1 = -3/4\nb Y Z 3 = 12\n", base, 3)
    assert c == parse_cocycle(serialize_cocycle(c, base), base, 3)
    f = write(tmp_path, "h.alg", HEIS3_DOC)
    coc = write(tmp_path, "e.coc", "a Y 2 = 1e999999999\n")
    assert run(["extend", f, "--s", "3", "--cocycle", coc]) == 1
    assert "gnla: line 1: bad number" in capsys.readouterr().err


def test_zero_denominator_in_cocycle_is_a_located_error(tmp_path, capsys):
    base = catalog("heisenberg", dim=3)
    for text in ("a Y 1 = 1/0\n", "a Y 1 = 1\nb Y Z 3 = -2/0\n"):
        with pytest.raises(DocSyntaxError) as exc:
            parse_cocycle(text, base, 3)
        assert exc.value.line == text.count("\n")
    f = write(tmp_path, "h.alg", HEIS3_DOC)
    coc = write(tmp_path, "z.coc", "b Y Z 3 = 1\na Y 2 = 1/0\n")
    assert run(["extend", f, "--s", "3", "--cocycle", coc]) == 1
    assert "gnla: line 2: bad number" in capsys.readouterr().err


def test_run_usage_errors(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_run_version(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out == "gnla %s\n" % gnla.__version__
    assert gnla.__version__ == gnla.cli.VERSION


def pyproject_version():
    """[project] version of pyproject.toml, read without tomllib, which
    Python 3.10 lacks."""
    text = (Path(__file__).resolve().parent.parent
            / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    return re.search(r'^version\s*=\s*"([^"]*)"', project, re.M).group(1)


def test_version_is_the_pyproject_version():
    assert gnla.__version__ == pyproject_version()


def python_in(cwd, *argv, paths=()):
    """Run `python -W error ARGV` with this package's source, then paths,
    first on the path."""
    src = str(Path(gnla.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, *paths, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=60)


def module_entry(cwd, *argv, paths=()):
    """Run `python -W error -m gnla ARGV` with this package's source on
    the path."""
    return python_in(cwd, "-m", "gnla", *argv, paths=paths)


def test_version_ignores_an_installed_distribution(tmp_path):
    """The running code names its version, whatever gnla distribution the
    path holds: a gnla-9.9.9.dist-info leaves --version and the JSON
    report at the pyproject version."""
    site = tmp_path / "site"
    (site / "gnla-9.9.9.dist-info").mkdir(parents=True)
    (site / "gnla-9.9.9.dist-info" / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: gnla\nVersion: 9.9.9\n",
        encoding="utf-8")
    f = write(tmp_path, "heis3.alg", HEIS3_DOC)
    version = pyproject_version()
    done = module_entry(tmp_path, "--version", paths=[str(site)])
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "gnla %s\n" % version, "")
    done = module_entry(tmp_path, "classify", f, "--json",
                        paths=[str(site)])
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["version"] == version


def test_import_reads_no_distribution_metadata(tmp_path):
    """A fresh `import gnla` adds no importlib.metadata module; the set
    before the import is the baseline, as a site .pth file may load it."""
    done = python_in(tmp_path, "-c", (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gnla\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.startswith('importlib.metadata')))\n"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_module_entry_runs_the_cli_without_warnings(tmp_path, capsys):
    """`python -m gnla` is the command line, warning-free under -W error."""
    done = module_entry(tmp_path, "--version")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "gnla %s\n" % gnla.__version__, "")
    argv = ["catalog", "heisenberg", "--param", "dim=3"]
    done = module_entry(tmp_path, *argv)
    assert (done.returncode, done.stderr) == (0, "")
    assert run(argv) == 0
    assert done.stdout == capsys.readouterr().out


def test_library_warnings_are_cli_messages(tmp_path, capsys):
    """A degenerate pencil warns twice; the command prints each warning
    as one `gnla: warning:` line, also under -W error, and keeps its
    output and exit code."""
    argv = ["pencil", "--blocks", "M:0,F:1"]
    done = module_entry(tmp_path, *argv)
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert (done.returncode, done.stdout) == (0, out)
    assert done.stderr == err == (
        "gnla: warning: minimal index 0 present; the pencil is degenerate\n"
        "gnla: warning: pencil has a common kernel vector; the algebra is "
        "degenerate\n")
    assert "bracket [X2_F1,X3_F1] = 1 W1" in out


def test_negative_budgets_are_usage_errors(tmp_path, capsys):
    """--max-degree and --degree-cap take ints that are not negative: a
    negative one exits 2 naming the option and computes nothing, and a
    non-integer keeps argparse's int message."""
    f = write(tmp_path, "free.alg", serialize_algebra(catalog("free2step3")))
    for argv in (["prolong", f, "--max-degree", "-1"],
                 ["classify", f, "--max-degree", "-1"],
                 ["classify", f, "--degree-cap", "-1", "--json"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert ("argument %s: invalid non-negative int value: '-1'"
                % argv[2]) in err
    assert run(["prolong", f, "--max-degree", "x"]) == 2
    assert ("argument --max-degree: invalid int value: 'x'"
            in capsys.readouterr().err)
    assert run(["prolong", f, "--max-degree", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["layers"] == [9]


CLOSURE_DOC = """\
algebra closure_example
basis X1:-1 X2:-1 X3:-1 X4:-1 W1:-2 W2:-2
bracket [X1,X2] = 3 W1 + 3 W2
bracket [X1,X3] = -3 W1 + -3 W2
bracket [X1,X4] = -3 W1 + -1 W2
bracket [X2,X3] = 3 W1 + -2 W2
bracket [X2,X4] = 2 W1 + 3 W2
bracket [X3,X4] = 2 W1 + 3 W2
"""


def test_run_classify_closure_verdict_has_no_layers(tmp_path, capsys):
    f = write(tmp_path, "closure.alg", CLOSURE_DOC)
    assert run(["classify", f]) == 0
    out = capsys.readouterr().out
    assert "verdict: infinite" in out
    assert "layers:" not in out
    assert run(["classify", f, "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"]["kind"] == "infinite"
    assert d["verdict"]["witness"] is None
    assert d["verdict"]["layers"] is None
