"""Run the `run:` steps of the test workflow locally, in order.

    python tools/ci_local.py

Each step of `.github/workflows/tests.yml` runs from the root of the
repository under `bash --noprofile --norc -eo pipefail`, as a GitHub-hosted
runner runs it, with `RUNNER_TEMP` set to one fresh temporary directory for
the whole run, which the steps share as they share it on a runner.  The
interpreter is the `python` on PATH: the checkout and `setup-python` steps
have no `run:` and are not run.  A step that runs `pip install` needs the
network and is skipped, with a line that says so.  One line per step reports
pass, FAIL or skip with the step's wall time, and a failing step's output
follows its line.  Every step runs, even after a failure; the exit status is
1 when a step failed, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def main() -> int:
    with open(WORKFLOW) as fh:
        jobs = yaml.safe_load(fh)["jobs"]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ci-local-") as temp:
        env = {**os.environ, "RUNNER_TEMP": temp}
        for job_name, job in jobs.items():
            for step in job["steps"]:
                if "run" not in step:
                    continue
                line = f"{job_name}: {step.get('name', step['run'].splitlines()[0])}"
                if "pip install" in step["run"]:
                    print(f"skip  {line} (pip install needs the network)", flush=True)
                    continue
                start = time.perf_counter()
                done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail",
                                       "-c", step["run"]], cwd=ROOT, env=env,
                                      stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                      text=True)
                verdict = "FAIL" if done.returncode else "pass"
                print(f"{verdict}  {line} ({time.perf_counter() - start:.1f} s)", flush=True)
                if done.returncode:
                    failed += 1
                    print(done.stdout, end="", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
