"""Record the oracles' pinned values from the current library.

    python3 bench/record.py

Writes bench/goldens/cli_fixtures.json (stdout and exit code of every CLI
job at seed 0, each run as a fresh process) and bench/goldens/flags.json
(forward and converse hit counts of the flags workload for every seed modulo
FLAG_SEEDS).  Run it only on a commit whose outputs are known to be right:
the benchmark treats any later difference as a failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import (CLI_JOBS, FLAG_SEEDS, GOLDENS, ROOT, cli_argv,
                       flags_setup)


def record_cli() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    out = {}
    for job in CLI_JOBS:
        p = subprocess.run([sys.executable, "-m", "tropcong.cli"] + cli_argv(job, 0),
                           cwd=ROOT, env=env, capture_output=True, text=True, check=False)
        if "Traceback" in p.stderr:
            raise SystemExit("%s raised:\n%s" % (job[0], p.stderr))
        out[job[0]] = {"exit": p.returncode, "stdout": p.stdout}
    return out


def record_flags() -> dict:
    out = {}
    for k in range(FLAG_SEEDS):
        jobs, _ = flags_setup(k)
        hits = {}
        for job in jobs:
            in_variety, contains, _ = job.run()
            tally = hits.setdefault(job.name.rsplit("-", 1)[0], [0, 0])
            tally[0] += in_variety
            tally[1] += contains
        out[str(k)] = hits
        print("flags seed %d: %r" % (k, hits), flush=True)
    return out


def _write(name: str, doc: dict) -> None:
    GOLDENS.mkdir(exist_ok=True)
    (GOLDENS / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    _write("cli_fixtures.json", record_cli())
    _write("flags.json", record_flags())
