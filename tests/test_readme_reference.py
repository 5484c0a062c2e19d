"""The README's nine commands and two scripts against the recorded reference
outputs, through the benchmark's own operations and comparisons, so an
output the benchmark would judge incorrect fails here first.

The modules under ``perfbench/`` are imported, never written; every file
goes to a temporary directory.
"""

import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_readme_outputs_match_the_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    coeffs = workload.write_input(tmp_path / "coeffs.csv", seed=1)
    ops = workload.readme_ops(tmp_path)
    reference = json.loads(workload.REFERENCE.read_text(encoding="utf-8"))["outputs"]
    workload.check_outputs(ops, tmp_path, reference, coeffs)
    assert len(ops) == len(workload.README_COMMANDS) + len(workload.README_SCRIPTS)
    assert {op.label: op.problems for op in ops if op.problems} == {}
    digits = workload.resolvent_digits(tmp_path)
    assert all(value > 0 for value in digits.values()), digits
