#!/usr/bin/env python3
"""Record the reference outputs of the readme-cli workload.

    python3 perfbench/record_reference.py

Runs the README commands and scripts once on this checkout and writes
``perfbench/reference.json``.  The committed file was recorded at the seed
commit; later commits are compared against it, so re-record only when a
change of output is intended and say so.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

import workload
from run import source_provenance
from workload import ROOT

SCRATCH = ROOT / ".perfbench_tmp" / "record-reference"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        workload.write_input(SCRATCH / "coeffs.csv", seed=0)
        ops = workload.readme_ops(SCRATCH)
        failed = [f"{op.label}: {op.problems}" for op in ops if op.failed]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 1
        outputs = {
            name: workload.read_output(SCRATCH / name) for name in workload.all_readme_outputs()
        }
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()
    # the numbers of averaged.csv depend on the seed; they are checked against
    # running means of the input instead
    outputs["averaged.csv"] = {
        k: v for k, v in outputs["averaged.csv"].items() if k not in ("n", "re", "im")
    }
    source = source_provenance()
    recorded_at = {"commit": source["commit"], "numpy": np.__version__, "python": source["python"]}
    payload = {"recorded_at": recorded_at, "outputs": outputs}
    with open(workload.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {workload.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
