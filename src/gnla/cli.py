"""Algebra text format, JSON reports, and the command line driver.

The grammar is line based: `algebra NAME`, one `basis L1:-1 L2:-2 ...`
line, then `bracket [A,B] = c1 C + c2 D` lines with rational
coefficients; `#` starts a comment.  Unlisted brackets are zero.  The
JSON report schema is {"algebra", "dims", "depth", "verdict": {"kind",
"witness", "total_dim", "layers"}, "version"} with rationals as strings,
so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import GNLA, validate
from .certifier import TypeVerdict, classify
from .constructions import (
    Cochain2,
    DegreeViolation,
    ExtensionData,
    JacobiViolation,
    NotGenerated,
    NotSkew,
    _MAX_DIM,
    _NUMERAL,
    _NUMERAL_RE,
    _adapted_base,
    _check_extension_size,
    algebra_from_pencil_spec,
    catalog,
    h2_0,
    special_extension,
)
from .groebner import CapExceeded
from .prolongation import classify_by_iteration

__all__ = [
    "DocumentError", "DuplicateBracket", "GradingViolation", "Report",
    "UnknownLabel", "emit_report", "parse_algebra", "parse_cocycle", "run",
    "serialize_algebra", "serialize_cocycle",
]

# the one version string; tests/test_cli.py holds it to pyproject.toml
VERSION = "0.1.0"


class DocumentError(Exception):
    """Problem in an input document, located by line number."""

    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class DocumentSyntaxError(DocumentError):
    """Malformed line."""


class UnknownLabel(DocumentError):
    """A bracket references a label the basis never declared."""


class DuplicateBracket(DocumentError):
    """The same unordered pair is declared twice."""


class GradingViolation(DocumentError):
    """A bracket target does not live in the degree the grading forces."""


_LABEL = r"[A-Za-z_][A-Za-z0-9_]*"
_BASIS_RE = re.compile(r"^(%s):(-?\d+)$" % _LABEL)
_BRACKET_RE = re.compile(
    r"^bracket\s+\[\s*(%s)\s*,\s*(%s)\s*\]\s*=\s*(.+)$" % (_LABEL, _LABEL))
_TERM_RE = re.compile(r"^(%s)\s+(%s)$" % (_NUMERAL, _LABEL))


def parse_algebra(text: str) -> GNLA:
    """Parse an algebra document; grading is rejected at load time."""
    name: Optional[str] = None
    basis: Optional[List[Tuple[str, int]]] = None
    index: Dict[str, int] = {}
    brackets: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
    seen: Dict[Tuple[int, int], int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "algebra":
            if name is not None:
                raise DocumentSyntaxError("repeated algebra line", lineno)
            parts = line.split()
            if len(parts) != 2:
                raise DocumentSyntaxError("expected: algebra NAME", lineno)
            name = parts[1]
        elif head == "basis":
            if name is None:
                raise DocumentSyntaxError("basis line before the algebra line", lineno)
            if basis is not None:
                raise DocumentSyntaxError("repeated basis line", lineno)
            tokens = line.split()[1:]
            if not tokens:
                raise DocumentSyntaxError("empty basis line", lineno)
            if len(tokens) > _MAX_DIM:
                raise DocumentSyntaxError("basis line of more than %d entries"
                                          % _MAX_DIM, lineno)
            basis = []
            for tok in tokens:
                m = _BASIS_RE.match(tok)
                if not m:
                    raise DocumentSyntaxError("bad basis entry %r" % tok, lineno)
                lbl = m.group(1)
                try:
                    d = int(m.group(2))
                except ValueError:  # past the int conversion digit limit
                    raise DocumentSyntaxError(
                        "degree of %r has too many digits" % lbl,
                        lineno) from None
                if d >= 0:
                    raise DocumentSyntaxError("degree of %r must be negative" % lbl,
                                      lineno)
                # a generated algebra of at most _MAX_DIM vectors is no deeper
                if d < -_MAX_DIM:
                    raise DocumentSyntaxError("degree of %r is below -%d"
                                              % (lbl, _MAX_DIM), lineno)
                if lbl in index:
                    raise DocumentSyntaxError("duplicate label %r" % lbl, lineno)
                index[lbl] = len(basis)
                basis.append((lbl, d))
        elif head == "bracket":
            if basis is None:
                raise DocumentSyntaxError("bracket line before the basis line", lineno)
            m = _BRACKET_RE.match(line)
            if not m:
                raise DocumentSyntaxError(
                    "expected: bracket [A,B] = c1 C + c2 D", lineno)
            la, lb, rhs = m.groups()
            for lbl in (la, lb):
                if lbl not in index:
                    raise UnknownLabel("unknown label %r" % lbl, lineno)
            i, j = index[la], index[lb]
            if i == j:
                raise DocumentSyntaxError("bracket of %r with itself" % la, lineno)
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            if (i, j) in seen:
                raise DuplicateBracket(
                    "pair [%s,%s] already declared on line %d"
                    % (la, lb, seen[(i, j)]), lineno)
            seen[(i, j)] = lineno
            want = basis[i][1] + basis[j][1]
            terms: List[Tuple[int, Fraction]] = []
            for piece in rhs.split("+"):
                piece = piece.strip()
                tm = _TERM_RE.match(piece)
                if not tm:
                    raise DocumentSyntaxError("bad term %r" % piece, lineno)
                coeff, lbl = tm.groups()
                if lbl not in index:
                    raise UnknownLabel("unknown label %r" % lbl, lineno)
                k = index[lbl]
                if basis[k][1] != want:
                    raise GradingViolation(
                        "%s has degree %d but [%s,%s] must land in degree %d"
                        % (lbl, basis[k][1], la, lb, want), lineno)
                try:
                    c = Fraction(coeff)
                except ZeroDivisionError:
                    raise DocumentSyntaxError("zero denominator in %r" % piece,
                                      lineno) from None
                except ValueError:  # past the int conversion digit limit
                    raise DocumentSyntaxError(
                        "coefficient of %s has too many digits" % lbl,
                        lineno) from None
                terms.append((k, sign * c))
            brackets[(i, j)] = terms
        else:
            raise DocumentSyntaxError("unknown directive %r" % head, lineno)

    if name is None:
        raise DocumentSyntaxError("missing algebra line", 1)
    if basis is None:
        raise DocumentSyntaxError("missing basis line", 1)
    return GNLA(name, basis, brackets)


def serialize_algebra(a: GNLA) -> str:
    lines = ["algebra %s" % a.name,
             "basis " + " ".join("%s:%d" % (lbl, d)
                                 for lbl, d in zip(a.labels, a.degrees))]
    for (i, j) in sorted(a.brackets):
        rhs = " + ".join("%s %s" % (c, a.labels[k])
                         for k, c in a.brackets[(i, j)])
        lines.append("bracket [%s,%s] = %s" % (a.labels[i], a.labels[j], rhs))
    return "\n".join(lines) + "\n"


def parse_cocycle(text: str, base: GNLA, s: int) -> Cochain2:
    """Parse cocycle lines `a L j = c` and `b L1 L2 k = c`.

    An `a` line gives the component on (X, L) where X is the
    transversal of the adapted base (constructions._adapted_base); `b`
    lines cover pairs away from it.  j and k index the module basis
    Y_1..Y_s.
    """
    _check_extension_size(base, s)
    xpos, _ = _adapted_base(base)
    index = {lbl: i for i, lbl in enumerate(base.labels)}
    values: Dict[Tuple[int, int], List[Fraction]] = {}
    taken: Dict[Tuple[int, int, int], int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "a" and len(parts) == 5 and parts[3] == "=":
            labels, with_x = parts[1:2], "transversal paired with itself"
        elif parts[0] == "b" and len(parts) == 6 and parts[4] == "=":
            labels = parts[1:3]
            with_x = "use an `a` line for pairs with the transversal"
        else:
            raise DocumentSyntaxError(
                "expected `a L j = c` or `b L1 L2 k = c`", lineno)
        for lbl in labels:
            if lbl not in index:
                raise UnknownLabel("unknown label %r" % lbl, lineno)
            if index[lbl] == xpos:
                raise DocumentSyntaxError(with_x, lineno)
        if len(labels) == 2 and labels[0] == labels[1]:
            raise DocumentSyntaxError("pair of %r with itself" % labels[0],
                                      lineno)
        bad_number = DocumentSyntaxError("bad number in %r" % line, lineno)
        # the .alg numeral only: Fraction also takes 1e999999999
        if not _NUMERAL_RE.fullmatch(parts[-1]):
            raise bad_number
        try:
            t = int(parts[-3]) - 1
            c = Fraction(parts[-1])
        except (ValueError, ZeroDivisionError):
            raise bad_number from None
        if not 0 <= t < s:
            raise DocumentSyntaxError("module index %d outside 1..%d"
                                      % (t + 1, s), lineno)
        pair = [index[lbl] for lbl in labels]
        i, j = pair if len(pair) == 2 else [xpos] + pair
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        if (i, j, t) in taken:
            raise DuplicateBracket(
                "component already declared on line %d" % taken[(i, j, t)],
                lineno)
        taken[(i, j, t)] = lineno
        values.setdefault((i, j), [Fraction(0)] * s)[t] = sign * c

    return Cochain2.from_dict(s, {k: tuple(v) for k, v in values.items()})


def serialize_cocycle(c: Cochain2, base: GNLA) -> str:
    xpos, _ = _adapted_base(base)
    lines = []
    for (i, j), val in c.values:
        for t, coeff in enumerate(val):
            if coeff == 0:
                continue
            if i == xpos:
                lines.append("a %s %d = %s" % (base.labels[j], t + 1, coeff))
            elif j == xpos:
                lines.append("a %s %d = %s" % (base.labels[i], t + 1, -coeff))
            else:
                lines.append("b %s %s %d = %s"
                             % (base.labels[i], base.labels[j], t + 1, coeff))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Reports


def _fmt_vec(v) -> str:
    return "[" + ", ".join(str(Fraction(c)) for c in v) + "]"


@dataclass
class Report:
    """One classification or prolongation result, serializable both ways."""
    algebra: str
    dims: Tuple[int, ...]
    depth: int
    kind: str
    witness: Optional[Tuple[Fraction, ...]] = None
    total_dim: Optional[int] = None
    layers: Optional[Tuple[int, ...]] = None
    note: Optional[str] = None
    version: str = VERSION
    elapsed: Optional[float] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        verdict = {
            "kind": self.kind,
            "witness": None if self.witness is None
                       else [str(Fraction(c)) for c in self.witness],
            "total_dim": self.total_dim,
            "layers": None if self.layers is None else list(self.layers),
        }
        if self.note is not None:
            verdict["note"] = self.note
        return {
            "algebra": self.algebra,
            "dims": list(self.dims),
            "depth": self.depth,
            "verdict": verdict,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        v = d["verdict"]
        witness = v.get("witness")
        return cls(
            algebra=d["algebra"],
            dims=tuple(d["dims"]),
            depth=d["depth"],
            kind=v["kind"],
            witness=None if witness is None
                    else tuple(Fraction(c) for c in witness),
            total_dim=v.get("total_dim"),
            layers=None if v.get("layers") is None else tuple(v["layers"]),
            note=v.get("note"),
            version=d["version"],
        )


def emit_report(r: Report, format: str = "json") -> bytes:
    if format == "json":
        return (json.dumps(r.to_dict(), indent=2) + "\n").encode("utf-8")
    if format == "text":
        lines = ["algebra: %s" % r.algebra,
                 "dims: %s" % list(r.dims),
                 "depth: %d" % r.depth,
                 "verdict: %s" % r.kind]
        if r.witness is not None:
            lines.append("witness: %s" % _fmt_vec(r.witness))
        if r.total_dim is not None:
            lines.append("total dim: %d" % r.total_dim)
        if r.layers is not None:
            lines.append("layers: %s" % list(r.layers))
        if r.note is not None:
            lines.append("note: %s" % r.note)
        lines.append("version: %s" % r.version)
        if r.elapsed is not None:
            lines.append("elapsed: %.3fs" % r.elapsed)
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError("format must be json or text")


def _report_from_verdict(a: GNLA, v: TypeVerdict,
                         elapsed: Optional[float] = None) -> Report:
    return Report(
        algebra=a.name,
        dims=a.layer_dims(),
        depth=a.depth,
        kind=v.kind,
        witness=v.witness,
        total_dim=v.total_dim,
        layers=v.layer_dims,
        note=v.note,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# Commands


def _emit(args, report: Report) -> None:
    fmt = "json" if getattr(args, "json", False) else "text"
    sys.stdout.write(emit_report(report, fmt).decode("utf-8"))


def _load(path: str) -> GNLA:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


class _Refused(Exception):
    """The command has said why on stderr; run() returns 1."""


_FAILED_AT = {"grading": "[%s,%s]", "jacobi": "(%s, %s, %s)",
              "generated": "layer -%d"}


def _failed_check(kind: str, wit: tuple) -> str:
    """The one wording of a failed structural check at its witness."""
    return "%s: FAIL at %s" % (kind, _FAILED_AT[kind] % wit)


def _load_valid(path: str) -> GNLA:
    """_load, refusing an algebra that fails a structural check with one
    `gnla:` line per failure."""
    a = _load(path)
    rep = validate(a)
    if not rep.structural_ok:
        for kind, wit in rep.failures:
            if kind != "nondegenerate":
                print("gnla: " + _failed_check(kind, wit), file=sys.stderr)
        raise _Refused
    return a


def _write_doc(args, doc: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def cmd_check(args) -> int:
    a = _load(args.file)
    rep = validate(a)
    print("algebra: %s" % a.name)
    print("dims: %s" % list(a.layer_dims()))
    print("depth: %d" % a.depth)
    witnesses = {}
    for kind, wit in rep.failures:
        witnesses.setdefault(kind, wit)
    for kind in ("grading", "jacobi", "generated"):
        print("%s: ok" % kind if rep.checks[kind]
              else _failed_check(kind, witnesses[kind]))
    if rep.checks["nondegenerate"]:
        print("degenerate: no")
    else:
        print("degenerate: yes (central witness: %s)"
              % _fmt_vec(witnesses["nondegenerate"][0]))
    ok = rep.structural_ok
    print("result: %s" % ("ok" if ok else "invalid"))
    return 0 if ok else 1


def cmd_prolong(args) -> int:
    a = _load_valid(args.file)
    start = time.monotonic()
    it = classify_by_iteration(a, max_degree=args.max_degree)
    report = Report(
        algebra=a.name,
        dims=a.layer_dims(),
        depth=a.depth,
        kind=it.kind,
        total_dim=it.total_dim,
        layers=it.layer_dims,
        elapsed=time.monotonic() - start,
    )
    _emit(args, report)
    return 0


def cmd_classify(args) -> int:
    a = _load_valid(args.file)
    start = time.monotonic()
    v = classify(a, max_degree=args.max_degree, degree_cap=args.degree_cap)
    report = _report_from_verdict(a, v, elapsed=time.monotonic() - start)
    _emit(args, report)
    return 3 if v.cap_exceeded else 0


def cmd_catalog(args) -> int:
    items = args.param or ()
    for item in items:
        if "=" not in item:
            print("gnla: --param needs k=v, got %r" % item, file=sys.stderr)
            return 2
    # each value stays text: catalog's family table types it
    a = catalog(args.name, **dict(item.split("=", 1) for item in items))
    _write_doc(args, serialize_algebra(a))
    return 0


def cmd_extend(args) -> int:
    base = _load_valid(args.file)
    with open(args.cocycle, "r", encoding="utf-8") as fh:
        cocycle = parse_cocycle(fh.read(), base, args.s)
    data = ExtensionData.from_adapted_base(base, args.s, cocycle)
    out = special_extension(data)
    _write_doc(args, serialize_algebra(out))
    return 0


def cmd_cohomology(args) -> int:
    base = _load_valid(args.file)
    dim, reps = h2_0(base, _adapted_base(base)[1], args.s)
    rep_lines = [serialize_cocycle(c, base).splitlines() for c in reps]
    if args.json:
        payload = {
            "algebra": base.name,
            "s": args.s,
            "dim": dim,
            "representatives": rep_lines,
            "version": VERSION,
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        print("algebra: %s" % base.name)
        print("s: %d" % args.s)
        print("dim: %d" % dim)
        for idx, lines in enumerate(rep_lines, start=1):
            print("representative %d:" % idx)
            for line in lines:
                print("  " + line)
    return 0


def cmd_pencil(args) -> int:
    a = algebra_from_pencil_spec(args.blocks)
    _write_doc(args, serialize_algebra(a))
    return 0


def _budget(text: str) -> int:
    """The argparse type of --max-degree and --degree-cap: an int that is
    not negative, so a negative budget is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            "invalid non-negative int value: %r" % text)
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gnla",
        description="Finite or infinite type of graded nilpotent Lie "
                    "algebras: prolongation, certificates, extensions, "
                    "and skew pencil constructions.",
        epilog="Witness vectors are reported in declaration-order "
               "coordinates of the algebra's basis line.")
    p.add_argument("--version", action="version",
                   version="gnla %s" % VERSION)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the structural checks on a file")
    c.add_argument("file")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("prolong", help="iterate prolongation layers")
    c.add_argument("file")
    c.add_argument("--max-degree", type=_budget, required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_prolong)

    c = sub.add_parser(
        "classify",
        help="decide finite or infinite type",
        description="Witness vectors are reported in declaration-order "
                    "coordinates of the algebra's basis line.")
    c.add_argument("file")
    c.add_argument("--max-degree", type=_budget, default=10)
    c.add_argument("--degree-cap", type=_budget, default=12,
                   help="Groebner degree cap before giving up")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("catalog", help="emit a named example algebra")
    c.add_argument("name")
    c.add_argument("--param", action="append", metavar="K=V")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_catalog)

    c = sub.add_parser("extend", help="build a special extension")
    c.add_argument("file")
    c.add_argument("--s", type=int, required=True,
                   help="length of the attached module")
    c.add_argument("--cocycle", required=True,
                   help="cocycle file (`a L j = c` / `b L1 L2 k = c` lines)")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_extend)

    c = sub.add_parser("cohomology",
                       help="degree 0 second cohomology of a base")
    c.add_argument("file")
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cohomology)

    c = sub.add_parser("pencil", help="metabelian algebra of a skew pencil")
    c.add_argument("--blocks", required=True,
                   help='block list like "M:1,F:2,E:1:a=0"')
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_pencil)

    return p


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        # a library warning is a message of the command, also under -W error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return args.func(args)
            finally:
                for w in caught:
                    print("gnla: warning: %s" % w.message, file=sys.stderr)
    except DocumentError as exc:
        print("gnla: %s" % exc, file=sys.stderr)
        return 1
    except _Refused:
        return 1
    except OSError as exc:
        print("gnla: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("gnla: degree cap exceeded at %d" % exc.degree, file=sys.stderr)
        return 3
    except (JacobiViolation, DegreeViolation, NotSkew, NotGenerated) as exc:
        print("gnla: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print("gnla: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
