"""One fresh interpreter of the benchmark.

    python3 bench/child.py pass WORKLOAD SEED TRACE SPAWN_T OUT [setup-only]
        Set up an in-process workload, run its jobs once, check them, and
        write timings (CLOCK_MONOTONIC, so SPAWN_T from the parent compares),
        the speed probes taken between jobs (see speed.py) and, with
        TRACE=1, the tracer state to the JSON file OUT.
    python3 bench/child.py cli OUT ARGV...
        A traced CLI job: import tropcong.cli, install the wrappers, then
        run tropcong.cli.main(ARGV); the trace goes to OUT.

The parent puts the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# speed probes: PROBES_AROUND after set-up and after the jobs, and one before
# every PROBE_EVERY-th job
PROBES_AROUND = 3
PROBE_EVERY = 20


def run_pass(workload: str, seed: int, trace: bool, spawn_t: float, out: str,
             setup_only: bool) -> int:
    import tropcong  # noqa: F401  (imports every layer but jsonio and cli)
    from speed import probe
    from workloads import SETUPS
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    jobs, final_check = SETUPS[workload](seed)
    ready = now()
    probes = [probe() for _ in range(PROBES_AROUND)]
    doc = {"setup_s": ready - spawn_t, "probes": probes}
    if setup_only:
        _write(out, doc)
        return 0
    times, results, errors = [], [], {}
    for i, job in enumerate(jobs):
        if i % PROBE_EVERY == 0:
            probes.append(probe())
        s = now()
        try:
            results.append(job.run())
        except Exception:
            results.append(None)
            errors[i] = traceback.format_exc(limit=-3)
        times.append(now() - s)
    doc["wall_s"] = sum(times)
    doc["job_s"] = times
    probes += [probe() for _ in range(PROBES_AROUND)]
    if tracer is not None:
        doc["trace"] = tracer.dump()
    failures = {}
    for i, (job, res) in enumerate(zip(jobs, results)):
        if i in errors:
            failures[job.name] = "exception: " + errors[i]
            continue
        try:
            reason = job.check(res)
        except Exception:
            reason = "oracle raised: " + traceback.format_exc(limit=-3)
        if reason is not None:
            failures[job.name] = reason
    doc["failures"] = failures
    doc["final_check"] = final_check()
    _write(out, doc)
    return 0


def run_cli_job(out: str, argv: list) -> int:
    t0 = now()
    import tropcong.cli
    import_s = now() - t0
    from tracer import Tracer, install
    tracer = Tracer()
    install(tracer)
    try:
        code = tropcong.cli.main(argv)
    finally:
        sys.stdout.flush()
        _write(out, {"import_s": import_s, "trace": tracer.dump()})
    return code


def main(argv: list) -> int:
    if argv[0] == "pass":
        workload, seed, trace, spawn_t, out = argv[1:6]
        return run_pass(workload, int(seed), trace == "1", float(spawn_t), out,
                        setup_only=argv[6:] == ["setup-only"])
    if argv[0] == "cli":
        return run_cli_job(argv[1], argv[2:])
    raise SystemExit("unknown mode %r" % argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
