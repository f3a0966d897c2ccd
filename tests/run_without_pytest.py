"""Run the test suite on an interpreter that has no pytest.

    python -W error tests/run_without_pytest.py [-k TEXT] [FILE ...]

Each top-level test_* function of the test modules (all of tests/, or
the files named) is called once, in file and source order, with the
fixtures it names: tmp_path, a fresh directory removed afterwards;
capsys, which captures sys.stdout and sys.stderr for readouterr(); and
monkeypatch, whose setattr calls are undone after the test.  A small
pytest module stands in for pytest.raises and pytest.importorskip.
sympy and hypothesis, test-only oracles, may be missing: each then
loads as a placeholder that lets the test modules import, and a test
that uses one, or that hypothesis' given decorates, is skipped.  -k
keeps the tests whose name contains TEXT.  Prints one line per failure
with its traceback, then the counts; exits 1 if a test failed.
"""

import contextlib
import importlib
import io
import re
import shutil
import sys
import tempfile
import traceback
import types
from collections import namedtuple
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


class Skipped(Exception):
    """The test needs a package this interpreter lacks."""


class Missing:
    """Every name of a package that is not installed.  While the test
    modules load, reading or calling it gives it back, so module-level
    decorators and settings go through, and a test function it
    decorates becomes one that skips; inside a test, any use skips."""

    loading = True

    def __init__(self, package):
        self._package = package

    def _skip(self):
        return Skipped("%s is not installed" % self._package)

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        if not Missing.loading:
            raise self._skip()
        return self

    def __call__(self, *args, **kwargs):
        if not Missing.loading:
            raise self._skip()
        test = args[0] if len(args) == 1 and not kwargs else None
        if getattr(test, "__name__", "").startswith("test_"):
            def skipped(**_):
                raise self._skip()
            skipped.__name__ = test.__name__
            return skipped
        return self


class RaisesContext:
    """pytest.raises as a context manager: the exception it caught, if
    it is of the expected type and its text matches, is in .value."""

    def __init__(self, expected, match=None):
        self.expected = expected
        self.match = match
        self.value = self.type = None

    def __enter__(self):
        return self

    def __exit__(self, kind, value, tb):
        if kind is None:
            raise AssertionError("DID NOT RAISE %r" % (self.expected,))
        if not issubclass(kind, self.expected):
            return False
        if self.match is not None and not re.search(self.match, str(value)):
            raise AssertionError("pattern %r does not match %r"
                                 % (self.match, str(value)))
        self.type, self.value = kind, value
        return True


def importorskip(name):
    module = sys.modules.get(name)
    if isinstance(module, Missing):
        raise Skipped("%s is not installed" % name)
    return importlib.import_module(name)


CaptureResult = namedtuple("CaptureResult", "out err")


class Capsys:
    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        result = CaptureResult(self.out.getvalue(), self.err.getvalue())
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return result


class MonkeyPatch:
    def __init__(self):
        self.saved = []

    def setattr(self, target, name, value):
        self.saved.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def undo(self):
        while self.saved:
            target, name, value = self.saved.pop()
            setattr(target, name, value)


def install_stand_ins():
    """Put the pytest stand-in, and a placeholder for each missing
    oracle package, into sys.modules."""
    stub = types.ModuleType("pytest")
    stub.raises = RaisesContext
    stub.importorskip = importorskip
    sys.modules["pytest"] = stub
    for name in ("sympy", "hypothesis"):
        try:
            importlib.import_module(name)
        except ImportError:
            sys.modules[name] = Missing(name)


def call(test):
    """Run one test with its fixtures; ('passed' | 'skipped', None) or
    ('failed', traceback text)."""
    names = test.__code__.co_varnames[:test.__code__.co_argcount]
    fixtures = {}
    with contextlib.ExitStack() as stack:
        if "tmp_path" in names:
            tmp = fixtures["tmp_path"] = Path(tempfile.mkdtemp())
            stack.callback(shutil.rmtree, tmp, True)
        if "capsys" in names:
            capsys = fixtures["capsys"] = Capsys()
            stack.enter_context(contextlib.redirect_stdout(capsys.out))
            stack.enter_context(contextlib.redirect_stderr(capsys.err))
        if "monkeypatch" in names:
            patch = fixtures["monkeypatch"] = MonkeyPatch()
            stack.callback(patch.undo)
        unknown = set(names) - set(fixtures)
        if unknown:
            return "failed", "unknown fixtures %s\n" % sorted(unknown)
        try:
            test(**fixtures)
        except Skipped:
            return "skipped", None
        except Exception:
            return "failed", traceback.format_exc()
    return "passed", None


def main(argv):
    keep = ""
    if argv[:1] == ["-k"]:
        keep, argv = argv[1], argv[2:]
    files = [Path(f).resolve() for f in argv] or sorted(
        TESTS.glob("test_*.py"))
    sys.path[:0] = [str(SRC), str(TESTS)]
    install_stand_ins()
    modules = [importlib.import_module(f.stem) for f in files]
    Missing.loading = False
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    for module in modules:
        tests = [v for k, v in vars(module).items()
                 if k.startswith("test_") and callable(v) and keep in k]
        for test in tests:
            status, text = call(test)
            counts[status] += 1
            if status == "failed":
                print("FAILED %s::%s\n%s" % (module.__name__, test.__name__,
                                             text))
    print("%(passed)d passed, %(failed)d failed, %(skipped)d skipped"
          % counts)
    return 1 if counts["failed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
