"""Run one gnla benchmark workload and print its metrics.

    python3 bench/run.py --workload rand2step --seed 1 --seconds 35 --trace 0

Inputs come from --seed alone.  With --trace 0 the run repeats passes
over the workload's items for --seconds and reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes over a
fixed set of items and reports the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  One process, no threads;
the only files written are under bench/.

Times are in reference seconds: a fixed Fraction-arithmetic routine runs
before, after and every CHUNK_S during each pass and each set-up, and
each stretch of work is divided by how much slower than REFERENCE_S the
routine ran around it.  On a host whose speed drifts this keeps the
numbers comparable from run to run; README.md has the measurements.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# Seconds the reference routine takes at the speed all times are scaled to.
REFERENCE_S = 0.025
# Timer period; each tick enforces the running item's ceiling.
TICK_S = 0.01
# Work time between two reference samples.
CHUNK_S = 0.25
# Passes whose items one traced pass covers (only rand2step has several).
TRACE_PASSES = 4


def reference_work():
    """Exact Gauss-Jordan elimination of a fixed 20x20 rational matrix:
    the kind of work gnla spends its time on, written here so that no
    change to gnla changes it."""
    n = 20
    rows = [[Fraction((7 * i + 3 * j * j) % 13 - 6, 1 + (i * j) % 5)
             for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = rows[c][c]
        rows[c] = [e / inv for e in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]


class Ceiling(Exception):
    """An item ran past its time ceiling."""


class Sampler:
    """Work clock, host-speed samples and item ceilings on one SIGALRM timer.

    While a window is open, every CHUNK_S of work the timer handler runs
    reference_work() and records how long it took.  The handler's own
    time is taken off the work clock (now()), which is also the clock of
    the trace spans, so neither pass times nor self times include it.
    A window's scaled time integrates the work clock piecewise, each
    piece divided by the mean of the two samples around it, relative to
    REFERENCE_S.
    """

    def __init__(self):
        self.paused = 0.0
        self.samples = []       # (work clock, reference seconds)
        self.deadline = None    # work clock at which the running item is cut
        self.open = False

    def now(self):
        return time.perf_counter() - self.paused

    def sample(self):
        was_open, self.open = self.open, False     # no ticks inside
        start = time.perf_counter()
        reference_work()
        took = time.perf_counter() - start
        self.samples.append((start - self.paused, took))
        self.paused += time.perf_counter() - start
        self.open = was_open

    def slowness(self):
        return self.samples[-1][1] / REFERENCE_S

    def tick(self, signum, frame):
        if not self.open:
            return
        if self.now() - self.samples[-1][0] >= CHUNK_S:
            self.sample()
        if self.deadline is not None and self.now() > self.deadline:
            self.deadline = None
            raise Ceiling()

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, body):
        """Run body(); return (its result, scaled seconds, raw seconds)."""
        self.samples = []
        self.sample()
        begin = self.now()
        self.open = True
        try:
            result = body()
        finally:
            self.open = False
        end = self.now()
        self.sample()
        times = [begin] + [t for t, _ in self.samples[1:-1]] + [end]
        refs = [r for _, r in self.samples]
        scaled = sum((t1 - t0) * 2 * REFERENCE_S / (r0 + r1) for t0, t1, r0, r1
                     in zip(times, times[1:], refs, refs[1:]))
        return result, scaled, end - begin


def run_item(sampler, item):
    """Call one item under its ceiling; return (status, value)."""
    try:
        try:
            sampler.deadline = (sampler.now()
                                + item.ceiling * sampler.slowness())
            value = item.call()
        finally:
            sampler.deadline = None
    except Ceiling:
        return "ceiling", None
    except Exception as exc:  # an item that raises is a counted failure
        return "raised", exc
    return "ok", value


class Tally:
    """Outcomes of every item attempted, checked outside the timed passes."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.notes = []
        self.first = {}     # item -> first checked result

    def record(self, items, outcomes):
        for item, (status, value) in zip(items, outcomes):
            self.attempted += 1
            if status == "ceiling" and item.ceiling_expected:
                continue    # known unbounded call: not ok, not failed
            problem = self.problem(item, status, value)
            if problem is None:
                self.ok += 1
                continue
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append("%s: %s" % (item.label, problem))

    def problem(self, item, status, value):
        if status == "ceiling":
            return "hit the time ceiling"
        if status == "raised":
            return "raised %r" % (value,)
        if item in self.first:
            if value != self.first[item]:
                return "result differs from the first pass"
            return None
        try:
            item.check(value)
        except Exception as exc:  # a check that fails or breaks fails the item
            return str(exc) or repr(exc)
        self.first[item] = value
        return None


def timed_pass(sampler, items, tracer=None):
    """One pass: (reference seconds, raw seconds, outcomes)."""
    def body():
        outcomes = []
        for item in items:
            if tracer is not None:
                snapshot, first = dict(tracer.counts), len(tracer.spans)
            outcomes.append(run_item(sampler, item))
            if tracer is not None and outcomes[-1][0] == "ceiling":
                tracer.settle(first)
                # how far a cut call got depends on speed; keep counters exact
                tracer.counts = snapshot
        return outcomes
    outcomes, scaled, raw = sampler.window(body)
    return scaled, raw, outcomes


def set_up(sampler, workloads, name, seed):
    """Import gnla afresh and build the inputs; return (passes, seconds)."""
    def body():
        for mod in [m for m in sys.modules
                    if m == "gnla" or m.startswith("gnla.")]:
            del sys.modules[mod]
        return workloads.build(name, importlib.import_module("gnla"), seed)
    passes, scaled, _ = sampler.window(body)
    return passes, scaled


def tail(samples):
    """The highest percentile with at least ten samples above it, as
    (percent, value), or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    idx = len(ordered) - 11
    return 100.0 * idx / (len(ordered) - 1), ordered[idx]


def measure(sampler, passes, tally, seconds):
    """Repeat passes, cycling through the workload's, until another as
    long as the last would end past the deadline; return the scaled and
    the raw pass times."""
    deadline = time.perf_counter() + seconds
    samples, raws = [], []
    while True:
        t0 = time.perf_counter()
        items = passes[len(samples) % len(passes)]
        sample, raw, outcomes = timed_pass(sampler, items)
        samples.append(sample)
        raws.append(raw)
        tally.record(items, outcomes)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return samples, raws


def measure_traced(sampler, passes, tally, seconds, tracer):
    """Alternate untraced and traced passes over the items of the first
    TRACE_PASSES passes."""
    items = [item for p in passes[:TRACE_PASSES] for item in p]
    deadline = time.perf_counter() + seconds
    plain, traced, self_s, counts = [], [], [], []
    while True:
        t0 = time.perf_counter()
        sample, raw, outcomes = timed_pass(sampler, items)
        plain.append(sample)
        tally.record(items, outcomes)
        tracer.counts = {}
        first = len(tracer.spans)
        tracer.active = True
        sample, raw, outcomes = timed_pass(sampler, items, tracer)
        tracer.active = False
        traced.append(sample)
        counts.append(tracer.counts)
        # self times in the pass's average reference scale
        self_s.append({k: v * sample / raw
                       for k, v in tracer.self_times(first).items()})
        tally.record(items, outcomes)
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    if any(c != counts[0] for c in counts):
        tally.failed += 1
        tally.notes.append("counters differ between traced passes")
    names = set().union(*self_s)
    median_self = {n: statistics.median(s.get(n, 0.0) for s in self_s)
                   for n in names}
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    return counts[0], median_self, overhead, len(traced)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gnla", "__init__.py")):
        print("bench: no gnla sources under %s" % SRC, file=sys.stderr)
        return 2
    # bytecode goes under bench/, not next to the sources
    sys.pycache_prefix = os.path.join(HERE, ".pycache")
    sys.path.insert(0, SRC)
    import workloads
    import tracer as tracing
    if args.workload not in workloads.NAMES:
        print("bench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.NAMES)), file=sys.stderr)
        return 2
    sampler = Sampler()
    sampler.start()
    try:
        return report(args, sampler, workloads, tracing)
    finally:
        sampler.stop()


def report(args, sampler, workloads, tracing):
    """Set up, measure and print the result lines; return the exit code."""
    setups = []
    for _ in range(SETUP_REPEATS):
        passes, seconds = set_up(sampler, workloads, args.workload, args.seed)
        setups.append(seconds)
    tally = Tally()
    head = "%s seed %d" % (args.workload, args.seed)

    if args.trace:
        tracer = tracing.Tracer(sampler.now)
        tracer.install()
        counts, self_s, overhead, n = measure_traced(
            sampler, passes, tally, args.seconds, tracer)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "spans-%s.jsonl" % args.workload))
        metrics = tracing.layer_metrics(counts, self_s, overhead)
        print("%s: %d traced passes, tracing overhead %.1f%%"
              % (head, n, 100 * overhead))
    else:
        samples, raws = measure(sampler, passes, tally, args.seconds)
        wall = statistics.median(samples)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "ok_frac": {"value": tally.ok / tally.attempted,
                        "unit": "ratio"},
        }
        high = tail(samples)
        print("%s: %d passes of %d items; wall_s median %.4f s, %s; "
              "raw median %.4f s" % (
                  head, len(samples), tally.attempted // len(samples), wall,
                  "p%.0f %.4f s" % high if high else
                  "no tail percentile below 11 passes",
                  statistics.median(raws)))
    for name, m in metrics.items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for note in tally.notes:
        print("bench: FAILED %s" % note, file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
