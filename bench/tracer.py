"""Spans and counters around the calls into gnla's public functions.

install() wraps each traced function and rebinds the wrapper in every
gnla module namespace that holds the function (methods are rebound on
their class), so calls between gnla modules pass through the wrappers
too.  Spans (name, start, end, parent) stay in memory; self time is a
span's duration minus the part its child spans cover.  Counters are
computed from call arguments and results only, so they repeat exactly.
"""

from __future__ import annotations

import json
import sys
import time


def _count_kernel(t, parent, args, result):
    m = args[0]
    t.add("linalg.kernel_basis.cells", m.nrows * m.ncols)
    t.add("linalg.kernel_basis.nonzeros",
          sum(1 for row in m.rows for e in row if e))
    if parent == "prolongation.prolong_layer":
        t.add("prolongation.prolong_layer.rows", m.nrows)


def _count_prolong(t, parent, args, result):
    a, k, lower = args
    unknowns = 0
    for i in range(1, a.depth + 1):
        d = k - i
        unknowns += a.layer_dim(i) * (a.layer_dim(-d) if d < 0
                                      else lower[d].dim)
    t.add("prolongation.prolong_layer.unknowns", unknowns)
    t.add("prolongation.prolong_layer.dim_sum", result.dim)


def _count_buchberger(t, parent, args, result):
    t.add("groebner.buchberger.generators", len(args[0]))
    t.add("groebner.buchberger.basis_size", len(result))


def _count_normal_form(t, parent, args, result):
    t.add("groebner.normal_form.zeros", int(result.is_zero()))


def _count_witness(t, parent, args, result):
    t.add("certifier.rank1_witness.hits", int(result is not None))


def _count_minor(t, parent, args, result):
    t.add("certifier.minor_ideal.generators", len(result.generators))


# (span name, module, attribute or Class.method, counter or None)
TARGETS = (
    ("linalg.kernel_basis", "gnla.linalg", "kernel_basis", _count_kernel),
    ("linalg.rank", "gnla.linalg", "Matrix.rank", None),
    ("linalg.subspace", "gnla.linalg", "Subspace.__init__", None),
    ("linalg.solve", "gnla.linalg", "solve", None),
    ("linalg.det", "gnla.linalg", "Matrix.det", None),
    ("algebra.validate", "gnla.algebra", "validate", None),
    ("algebra.ad_matrix", "gnla.algebra", "ad_matrix", None),
    ("prolongation.prolong_layer", "gnla.prolongation", "prolong_layer",
     _count_prolong),
    ("prolongation.h0", "gnla.prolongation", "h0", None),
    ("groebner.buchberger", "gnla.groebner", "buchberger", _count_buchberger),
    ("groebner.normal_form", "gnla.groebner", "normal_form",
     _count_normal_form),
    ("certifier.classify", "gnla.certifier", "classify", None),
    ("certifier.rank1_witness", "gnla.certifier", "rank1_witness",
     _count_witness),
    ("certifier.minor_ideal", "gnla.certifier", "minor_ideal", _count_minor),
    ("certifier.decompose_special_extension", "gnla.certifier",
     "decompose_special_extension", None),
    ("certifier.spencer_subspace_check", "gnla.certifier",
     "spencer_subspace_check", None),
    ("constructions.pfaffian", "gnla.constructions", "pfaffian", None),
    ("constructions.special_extension", "gnla.constructions",
     "special_extension", None),
    ("constructions.h2_0", "gnla.constructions", "h2_0", None),
    ("constructions.det_pencil", "gnla.constructions", "det_pencil", None),
    ("cli.parse_algebra", "gnla.cli", "parse_algebra", None),
    ("cli.serialize_algebra", "gnla.cli", "serialize_algebra", None),
    ("cli.emit_report", "gnla.cli", "emit_report", None),
)

# The per-layer metrics a traced run reports: (name, unit, better).
# Keep in step with "per_layer" in BENCHMARK.json; selfcheck.py compares.
METRICS = (
    [("linalg.kernel_basis.calls", "count", "lower"),
     ("linalg.kernel_basis.self_s", "s", "lower"),
     ("linalg.kernel_basis.cells", "count", "lower"),
     ("linalg.kernel_basis.nonzero_frac", "ratio", "lower")]
    + [("%s.%s" % (span, m), unit, "lower")
       for span in ("linalg.rank", "linalg.subspace", "linalg.solve",
                    "linalg.det", "algebra.validate", "algebra.ad_matrix")
       for m, unit in (("calls", "count"), ("self_s", "s"))]
    + [("prolongation.prolong_layer.calls", "count", "lower"),
       ("prolongation.prolong_layer.self_s", "s", "lower"),
       ("prolongation.prolong_layer.unknowns", "count", "lower"),
       ("prolongation.prolong_layer.rows", "count", "lower"),
       ("prolongation.prolong_layer.dim_sum", "count", "lower"),
       ("prolongation.h0.self_s", "s", "lower"),
       ("groebner.buchberger.calls", "count", "lower"),
       ("groebner.buchberger.self_s", "s", "lower"),
       ("groebner.buchberger.generators", "count", "lower"),
       ("groebner.buchberger.basis_size", "count", "lower"),
       ("groebner.normal_form.calls", "count", "lower"),
       ("groebner.normal_form.self_s", "s", "lower"),
       ("groebner.normal_form.zero_frac", "ratio", "lower"),
       ("certifier.classify.calls", "count", "lower"),
       ("certifier.classify.self_s", "s", "lower"),
       ("certifier.rank1_witness.calls", "count", "lower"),
       ("certifier.rank1_witness.self_s", "s", "lower"),
       ("certifier.rank1_witness.hit_frac", "ratio", "higher"),
       ("certifier.minor_ideal.self_s", "s", "lower"),
       ("certifier.minor_ideal.generators", "count", "lower"),
       ("certifier.decompose_special_extension.self_s", "s", "lower"),
       ("certifier.spencer_subspace_check.self_s", "s", "lower")]
    + [("constructions.%s.%s" % (fn, m), unit, "lower")
       for fn in ("pfaffian", "special_extension", "h2_0", "det_pencil")
       for m, unit in (("calls", "count"), ("self_s", "s"))]
    + [("cli.%s.self_s" % fn, "s", "lower")
       for fn in ("parse_algebra", "serialize_algebra", "emit_report")]
    + [("trace.overhead_frac", "ratio", "lower")]
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans = []     # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[self.stack.pop()][2] = self.clock()
            self.add(name + ".calls")
            if counter is not None:
                counter(self, self.spans[parent][0] if parent >= 0 else None,
                        args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def settle(self, first):
        """After a call cut by its ceiling: end the spans from index first
        on that it left open, and empty the stack.  The cut can land
        between any two bytecodes of a wrapper."""
        end = self.clock()
        for span in self.spans[first:]:
            if span[2] is None:
                span[2] = end
        self.stack.clear()

    def install(self):
        """Rebind a wrapper wherever gnla holds a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "gnla" or n.startswith("gnla.")]
        for name, module, attr, counter in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth),
                                             counter))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    def self_times(self, first):
        """Self seconds per span name over the spans from index first on."""
        out = {}
        spans = self.spans
        for name, start, end, parent in spans[first:]:
            dur = end - start
            out[name] = out.get(name, 0.0) + dur
            if parent >= first:
                pname = spans[parent][0]
                out[pname] = out.get(pname, 0.0) - dur
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def layer_metrics(counts, self_s, overhead):
    """The per-layer metric values from one traced pass's counters, the
    median self seconds and the tracing overhead."""
    def ratio(num, den):
        return counts.get(num, 0) / den if den else 0.0

    values = dict(counts)
    values["linalg.kernel_basis.nonzero_frac"] = ratio(
        "linalg.kernel_basis.nonzeros",
        counts.get("linalg.kernel_basis.cells", 0))
    values["groebner.normal_form.zero_frac"] = ratio(
        "groebner.normal_form.zeros",
        counts.get("groebner.normal_form.calls", 0))
    values["certifier.rank1_witness.hit_frac"] = ratio(
        "certifier.rank1_witness.hits",
        counts.get("certifier.rank1_witness.calls", 0))
    for name, seconds in self_s.items():
        values[name + ".self_s"] = seconds
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in METRICS}
