#!/usr/bin/env python3
"""cesaro-lab benchmark: one run of one workload.

    python3 perfbench/run.py --workload verify-norms --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``
and nothing is installed.  The workload runs in a process of its own
(``workload.py``).  Set-up time is measured from process start until the
package is imported and the inputs are generated, in six fresh processes
around and including the workload process; the median is reported.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics of a traced pass.  Every line
before it is report text: per-operation timings and failures, and the
run's provenance.

Only ``CESARO_LAB_THREADS`` is set, to the workload's stated value; BLAS
threading and every other setting are left as found and recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up is timed in fresh processes: two before the workload process, the
#: workload process itself, and three after it, so the median weighs the
#: machine's state at both ends of the run equally.
PROBES_BEFORE, PROBES_AFTER = 2, 3

#: A run that has not finished by then is killed and reports no result.
RUN_TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def src_files():
    return sorted((ROOT / "src").rglob("*.py"))


def source_provenance() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in src_files():
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


class Child:
    """A workload process; ``ready_s`` is the time from its start until it
    announced that set-up was done."""

    def __init__(self, argv, env, deadline: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py")] + argv,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            cwd=ROOT,
        )
        self.killer = threading.Timer(max(deadline - self.start, 0.0), self.proc.kill)
        self.killer.start()
        self.ready_s = None
        self.result = None

    def communicate(self) -> int:
        try:
            for line in self.proc.stdout:
                if line.startswith("@perfbench "):
                    message = json.loads(line[len("@perfbench ") :])
                    if "ready" in message:
                        self.ready_s = time.perf_counter() - self.start
                    else:
                        self.result = message.get("result")
                else:
                    sys.stdout.write(line)
            return self.proc.wait()
        finally:
            self.killer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    needed_files = (
        "src/cesaro_lab/__init__.py",
        "scripts/run_ergodic_demo.py",
        "scripts/run_spectral_sweep.py",
    )
    for needed in needed_files:
        if not (ROOT / needed).is_file():
            return fail(f"{needed} is missing: run from the root of a cesaro-lab checkout")

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env = dict(os.environ, CESARO_LAB_THREADS=WORKLOADS[args.workload].threads)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setup_times = []
    result = None
    try:
        for i in range(PROBES_BEFORE + 1 + PROBES_AFTER):
            main_process = i == PROBES_BEFORE
            workdir = SCRATCH / f"{args.workload}-{os.getpid()}-{i}"
            argv = common + ["--trace", str(args.trace), "--workdir", str(workdir)]
            child = Child(argv if main_process else argv + ["--setup-only"], env, deadline)
            code = child.communicate()
            if code != 0 or child.ready_s is None:
                return fail(f"workload process exited with code {code}")
            setup_times.append(child.ready_s)
            if main_process:
                result = child.result
    finally:
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when empty: each workload process removes its own directory
    if result is None:
        return fail("workload process reported no result")

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = [statistics.median(setup_times), "s"]
    prov = dict(source_provenance(), **result["provenance"])
    prov.update(
        workload=args.workload,
        seed=args.seed,
        passes=result["passes"],
        budget_overruns=result["budget_overruns"],
        setup_samples_s=setup_times,
        CESARO_LAB_THREADS_found=os.environ.get("CESARO_LAB_THREADS"),
    )
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
