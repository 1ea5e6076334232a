"""tropcong benchmark: one workload per run, correctness checked on every job.

    python3 bench/run.py --workload {cli_fixtures,supports,flags} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it works on the checkout that holds this file and builds
nothing (tropcong is pure Python and is imported from src/).  Load is a closed
loop with one client: one job at a time.  Every pass of an in-process
workload runs in a fresh interpreter, because counts repeat exactly only in a
fresh process; every CLI job is a fresh `python -m tropcong.cli` process.

Passes repeat until --seconds have gone by (at least one).  With --trace 0
the result line holds the end-to-end metrics (medians over passes and setup
samples, in seconds at the reference machine speed: see speed.py); with
--trace 1 one untraced and one traced pass run, and the result
line holds the per-layer metrics of the traced pass.  The last line of stdout
is the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, merge, per_layer_values
from speed import probe, slowdown
from workloads import CLI_JOBS, ROOT, WORKLOADS, check_cli, cli_argv, cli_goldens

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_run"
DEADLINE_S = 175  # a run that is not done by then fails without a result
SETUP_SAMPLES = {"cli_fixtures": 7, "supports": 7, "flags": 3}
TAIL_MIN_JOBS = 20
TAIL_BEYOND = 10


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Proc:
    __slots__ = ("code", "wall", "rss_kb", "stdout", "stderr")

    def __init__(self, code, wall, rss_kb, stdout, stderr):
        self.code, self.wall, self.rss_kb = code, wall, rss_kb
        self.stdout, self.stderr = stdout, stderr


class Runner:
    """Spawns children one at a time and waits for each, with its rusage."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.n = 0
        self.current = None
        self.probes = []  # speed probes taken between jobs (speed.py)

    def tmp(self, suffix: str) -> Path:
        """A scratch file name no other run in this checkout uses."""
        self.n += 1
        return WORK / ("%d-%d%s" % (os.getpid(), self.n, suffix))

    def spawn(self, argv: list, make_argv=None) -> Proc:
        """Run argv (or make_argv(spawn_t)) from the checkout root."""
        out_path, err_path = self.tmp(".out"), self.tmp(".err")
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = now()
            if make_argv is not None:
                argv = make_argv(t0)
            self.current = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                            stdout=fo, stderr=fe)
            _, status, usage = os.wait4(self.current.pid, 0)
            wall = now() - t0
            self.current.returncode = code = os.waitstatus_to_exitcode(status)
            self.current = None
        proc = Proc(code, wall, usage.ru_maxrss, out_path.read_text(), err_path.read_text())
        out_path.unlink()
        err_path.unlink()
        return proc

    def stop(self):
        if self.current is not None:
            self.current.kill()
            self.current.wait()


def trace_dir(workload: str) -> Path:
    """Where a traced run leaves its span logs; the next traced run overwrites them."""
    path = WORK / ("trace-" + workload)
    path.mkdir(exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# cli_fixtures

def cli_pass(runner: Runner, seed: int, goldens: dict, trace: bool):
    """All CLI jobs once; returns (job times, the slowdown around each job,
    failures, rss_kb, traces).  A probe runs before every job and after the
    last."""
    procs, probes = [], [probe()]
    for job in CLI_JOBS:
        argv = cli_argv(job, seed)
        if trace:
            out = str(trace_dir("cli_fixtures") / (job[0] + ".json"))
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", out] + argv
        else:
            cmd = [sys.executable, "-m", "tropcong.cli"] + argv
        procs.append(runner.spawn(cmd))
        probes.append(probe())
    runner.probes += probes
    # job i ran between probes i and i + 1; one more on each side halves the
    # noise of a single probe and still follows the machine from job to job
    slows = [slowdown(probes[max(i - 1, 0):i + 3]) for i in range(len(procs))]
    failures = {}
    for job, p in zip(CLI_JOBS, procs):
        reason = check_cli(job, seed, p.code, p.stdout, goldens)
        if reason is None and "Traceback" in p.stderr:
            reason = "traceback on stderr"
        if reason is not None:
            failures[job[0]] = reason
    traces = [json.loads((trace_dir("cli_fixtures") / (job[0] + ".json")).read_text())
              for job in CLI_JOBS] if trace else []
    return [p.wall for p in procs], slows, failures, max(p.rss_kb for p in procs), traces


def cli_setup_sample(runner: Runner):
    """Time of a fresh `import tropcong.cli` process, and the slowdown around it."""
    probes = [probe()]
    p = runner.spawn([sys.executable, "-c", "import tropcong.cli"])
    if p.code != 0:
        raise RuntimeError("import tropcong.cli failed:\n" + p.stderr)
    probes.append(probe())
    runner.probes += probes
    return p.wall, slowdown(probes)


# ---------------------------------------------------------------------------
# in-process workloads

def inproc_pass(runner: Runner, workload: str, seed: int, trace: bool, setup_only=False):
    out = trace_dir(workload) / "pass.json" if trace else runner.tmp(".json")
    p = runner.spawn(None, lambda t0: [
        sys.executable, str(BENCH / "child.py"), "pass", workload, str(seed),
        "1" if trace else "0", repr(t0), str(out)] + (["setup-only"] if setup_only else []))
    if p.code != 0:
        raise RuntimeError("%s child exited %d:\n%s" % (workload, p.code, p.stderr))
    doc = json.loads(out.read_text())
    if not trace:
        out.unlink()
    doc["rss_kb"] = p.rss_kb
    runner.probes += doc["probes"]
    return doc


# ---------------------------------------------------------------------------
# measurement

def tail(times: list):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it, or None."""
    n = len(times)
    if n < TAIL_MIN_JOBS:
        return None
    k = n - TAIL_BEYOND  # 1-based rank of the tail value
    return sorted(times)[k - 1], 100.0 * k / n


class Result:
    """Jobs attempted, jobs failed, and workload-level oracle failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.problems = []

    def add(self, jobs: int, failures: dict):
        self.attempted += jobs
        self.failed += len(failures)
        for name, reason in failures.items():
            self.failures.setdefault(name, reason)

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def measure(runner, workload, seed, seconds, res: Result):
    """Untraced passes; returns the end-to-end metric values and extras.

    Times are divided by the slowdown (speed.py) measured around them: in
    the pass or set-up process for in-process workloads, and by the probes
    on either side of each CLI process for cli_fixtures, whose pass is the
    sum of its jobs.  The extras hold the slowdown over the whole run and
    the medians as measured."""
    raw = {"wall_s": [], "job_s": [], "setup_s": []}
    norm = {"wall_s": [], "job_s": [], "setup_s": []}
    rss = 0
    runner.probes = []
    start = now()

    def add(key, values, slows):
        raw[key] += values
        norm[key] += [v / s for v, s in zip(values, slows)]

    if workload == "cli_fixtures":
        goldens = cli_goldens()
        while len(raw["setup_s"]) < SETUP_SAMPLES[workload]:
            wall, slow = cli_setup_sample(runner)
            add("setup_s", [wall], [slow])
        while not raw["wall_s"] or now() - start < seconds:
            times, slows, failures, kb, _ = cli_pass(runner, seed, goldens, False)
            add("job_s", times, slows)
            raw["wall_s"].append(sum(times))
            norm["wall_s"].append(sum(t / s for t, s in zip(times, slows)))
            rss = max(rss, kb)
            res.add(len(times), failures)
    else:
        while not raw["wall_s"] or now() - start < seconds:
            doc = inproc_pass(runner, workload, seed, False)
            slow = [slowdown(doc["probes"])]
            add("wall_s", [doc["wall_s"]], slow)
            add("job_s", doc["job_s"], slow * len(doc["job_s"]))
            add("setup_s", [doc["setup_s"]], slow)
            rss = max(rss, doc["rss_kb"])
            res.add(len(doc["job_s"]), doc["failures"])
            if doc["final_check"] is not None:
                res.problems.append(doc["final_check"])
        while len(raw["setup_s"]) < SETUP_SAMPLES[workload]:
            doc = inproc_pass(runner, workload, seed, False, setup_only=True)
            add("setup_s", [doc["setup_s"]], [slowdown(doc["probes"])])
    names = {"wall_s": "wall_s", "job_s": "job_p50_s", "setup_s": "setup_s"}
    values = {names[k]: statistics.median(v) for k, v in norm.items()}
    values["peak_rss_mb"] = rss / 1024.0
    extras = {"passes": len(raw["wall_s"]), "jobs": len(raw["job_s"]),
              "measured": {names[k]: statistics.median(v) for k, v in raw.items()},
              "slowdown": slowdown(runner.probes), "probes": len(runner.probes),
              "tail": tail(norm["job_s"])}
    return values, extras


def measure_traced(runner, workload, seed, res: Result):
    """One untraced and one traced pass; per-layer values of the traced one."""
    if workload == "cli_fixtures":
        goldens = cli_goldens()
        times, _, failures, _, _ = cli_pass(runner, seed, goldens, False)
        res.add(len(times), failures)
        plain_wall = sum(times)
        times, _, failures, _, traces = cli_pass(runner, seed, goldens, True)
        res.add(len(times), failures)
        wall = sum(times)
        agg = merge(t["trace"] for t in traces)
        imports = [t["import_s"] for t in traces]
    else:
        docs = [inproc_pass(runner, workload, seed, trace) for trace in (False, True)]
        for doc in docs:
            res.add(len(doc["job_s"]), doc["failures"])
            if doc["final_check"] is not None:
                res.problems.append(doc["final_check"])
        plain_wall, wall = docs[0]["wall_s"], docs[1]["wall_s"]
        agg = merge([docs[1]["trace"]])
        imports = []
    return per_layer_values(agg, imports, wall - plain_wall)


# ---------------------------------------------------------------------------

def _preflight() -> str:
    for path in (ROOT / "src" / "tropcong" / "cli.py", ROOT / "fixtures" / "quartic_bend"):
        if not path.exists():
            return "missing %s: run the benchmark from a full tropcong checkout" % path
    return ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = _preflight()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))  # the oracles use the library
    # this process and every child on one core, so that a speed probe taken
    # here times the core a CLI job then runs on (see speed.py)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner()

    def on_signal(signum, frame):
        raise TimeoutError("stopped by %s (deadline %d s)"
                           % (signal.Signals(signum).name, DEADLINE_S))

    # on the deadline or a termination request, stop the running child too
    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.alarm(DEADLINE_S)
    res = Result()
    try:
        # compile the bytecode caches first: a one-time cost users do not pay per run
        cli_setup_sample(runner)
        if args.trace:
            values = measure_traced(runner, args.workload, args.seed, res)
            defs = PER_LAYER
        else:
            values, extras = measure(runner, args.workload, args.seed, args.seconds, res)
            defs = END_TO_END
    except (RuntimeError, TimeoutError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        runner.stop()

    metrics = {d[0]: {"value": values[d[0]], "unit": d[1]} for d in defs}
    for name, m in metrics.items():
        print("%-14s %-44s %14.6g %s" % (args.workload, name, m["value"], m["unit"]))
    if not args.trace:
        print("%-14s %-44s %14d jobs in %d pass(es)"
              % (args.workload, "jobs", extras["jobs"], extras["passes"]))
        if extras["tail"] is None:
            print("%-14s %-44s %14s (fewer than %d jobs)"
                  % (args.workload, "job_tail_s", "n/a", TAIL_MIN_JOBS))
        else:
            print("%-14s %-44s %14.6g s (p%.1f)" % ((args.workload, "job_tail_s") + extras["tail"]))
        print("%-14s %-44s %14.6g x reference (%d probes)"
              % (args.workload, "slowdown", extras["slowdown"], extras["probes"]))
        for name, v in extras["measured"].items():
            print("%-14s %-44s %14.6g s as measured" % (args.workload, name + ".measured", v))
    print("%-14s %-44s %14.6g (%d of %d jobs)" % (
        args.workload, "failed_frac", res.failed / max(res.attempted, 1),
        res.failed, res.attempted))
    for name, reason in sorted(res.failures.items()):
        print("FAILED %s: %s" % (name, reason.strip().splitlines()[-1]))
    for reason in res.problems:
        print("FAILED %s: %s" % (args.workload, reason))
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
