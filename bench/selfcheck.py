"""Check the benchmark itself.

    python3 bench/selfcheck.py

- Two traced runs of one seed report identical counters for every
  workload (all per-layer metrics except self times and the tracing
  overhead).
- The seed reaches the generators: a different seed gives different
  rand2step inputs, the same seed the same inputs.
- The metrics the runs report are exactly those BENCHMARK.json lists.

Runs take about a minute in all; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], capture_output=True, text=True, timeout=170,
        cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rand2step_inputs(seed):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gnla
    import workloads
    return [gnla.serialize_algebra(a)
            for algebras in workloads.rand2step_inputs(gnla, seed)
            for a in algebras]


def main():
    sys.pycache_prefix = os.path.join(HERE, ".pycache")    # as run.py does
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        first, second = run(workload, 1, 1), run(workload, 1, 1)
        expect(first["correct"] and second["correct"],
               "%s: traced runs correct" % workload)
        expect(set(first["metrics"]) == {m["name"] for m in spec["per_layer"]},
               "%s: traced run reports exactly the per_layer metrics"
               % workload)
        counters = [name for name in first["metrics"]
                    if not name.endswith(".self_s")
                    and name != "trace.overhead_frac"]
        differ = [name for name in counters if first["metrics"][name]
                  != second["metrics"][name]]
        expect(not differ, "%s: counters identical across two traced runs%s"
               % (workload, " (differ: %s)" % differ if differ else ""))

    plain = run(spec["workloads"][0]["name"], 1, 0)
    expect(set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]},
           "untraced run reports exactly the end_to_end metrics")

    sys.path.insert(0, HERE)
    one, again, two = (rand2step_inputs(s) for s in (1, 1, 2))
    expect(one == again, "rand2step: the same seed gives the same inputs")
    expect(one != two, "rand2step: another seed gives other inputs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
