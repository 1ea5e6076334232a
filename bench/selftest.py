"""Self-test of the benchmark.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all by default), at seed 0:
  * BENCHMARK.json lists exactly the metrics defined in metrics.py;
  * an untraced run emits every end-to-end metric with its unit, and
    failed_frac is 0;
  * two traced runs emit every per-layer metric with its unit, and the counts
    in metrics.EXACT_COUNTS repeat exactly between them.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys

from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER
from workloads import BENCH, ROOT, WORKLOADS


def run(workload: str, trace: int) -> dict:
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                        "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, check=False)
    if p.returncode != 0:
        raise SystemExit("run.py %s --trace %d exited %d:\n%s"
                         % (workload, trace, p.returncode, p.stderr))
    return json.loads(p.stdout.strip().splitlines()[-1])


def emitted(doc: dict, defs) -> list:
    """Problems with the metric set of one result line."""
    problems = []
    want = {d[0]: d[1] for d in defs}
    if set(doc["metrics"]) != set(want):
        problems.append("metric names differ: %s" % sorted(set(doc["metrics"]) ^ set(want)))
    for name, m in doc["metrics"].items():
        if m.get("unit") != want.get(name):
            problems.append("%s has unit %r" % (name, m.get("unit")))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
    if not doc["correct"] or doc["failed"] != 0:
        problems.append("failed_frac is %d/%d" % (doc["failed"], doc["attempted"]))
    return problems


def check_benchmark_json() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = [[m["name"], m["unit"], m["better"], m["bound"]] for m in spec["end_to_end"]]
    if e2e != [list(d) for d in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    layer = [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
    if layer != [list(d[:3]) for d in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.py lacks")
    return problems


def main(workloads) -> int:
    problems = ["BENCHMARK.json: " + p for p in check_benchmark_json()]
    for w in workloads:
        problems += ["%s untraced: %s" % (w, p) for p in emitted(run(w, 0), END_TO_END)]
        first, second = run(w, 1), run(w, 1)
        for doc in (first, second):
            problems += ["%s traced: %s" % (w, p) for p in emitted(doc, PER_LAYER)]
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            print("%-14s %-36s %10s %10s" % (w, name, a, b))
            if a != b:
                problems.append("%s: %s differs between traced runs (%s, %s)" % (w, name, a, b))
    for p in problems:
        print("SELFTEST FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
