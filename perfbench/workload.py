#!/usr/bin/env python3
"""One benchmark workload, run in a process of its own by ``run.py``.

The process imports the package from ``src/`` of the checkout, generates
its inputs, announces that set-up is done, then runs timed passes of the
workload through the entry points users call: ``cesaro_lab.verify.run_suite``,
``cesaro_lab.cli.main(argv)`` and the two scripts under ``scripts/``.  After
each pass, untimed, it checks every operation's outputs.  With ``--trace 1``
it runs one pass untraced and one pass with :class:`spans.Tracer` installed,
and reports per-layer metrics instead of end-to-end ones.

Lines of the form ``@perfbench <json>`` are messages to ``run.py``; every
other line on standard output is report text.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import runpy
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import outputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

#: Stop starting passes once another one would end past this many seconds
#: of measuring, so a run stays inside its time limit.
PASS_DEADLINE_S = 110.0

#: Tolerances of the resolvent-routes check, reused for accuracy_digits.
INTEGRAL_TOL = 1e-8
SEMIGROUP_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    kind: str  # "verify" or "readme"
    threads: str  # CESARO_LAB_THREADS for the workload process
    suite: str | None = None
    degree: int = 512


WORKLOADS = {
    "verify-norms": Workload("verify", "1", "norm-inequalities", 512),
    "verify-routes": Workload("verify", "1", "resolvent-routes"),
    "readme-cli": Workload("readme", "1"),
    "verify-norms-2t": Workload("verify", "2", "norm-inequalities", 512),
}

#: The nine "Command-line usage" examples of README.md at the seed commit,
#: by label.  They run with the working directory set to the run's scratch
#: directory, so the relative file names are the README's own.
README_COMMANDS = [
    ("apply-cesaro", "apply --op cesaro --input coeffs.csv --output averaged.csv"),
    (
        "apply-generalized",
        "apply --op generalized --t 0.5 --f const1 --degree 512 --output ct.csv",
    ),
    (
        "apply-composition",
        "apply --op composition --t 1.0 --f log-inv --degree 256 --output st.csv",
    ),
    (
        "resolvent-recurrence",
        "resolvent --route recurrence --lambda-re -1 --f const1 --degree 128 --output f.csv",
    ),
    (
        "resolvent-integral",
        "resolvent --route integral --lambda-re 0 --lambda-im 1 --f const1 --degree 128 "
        "--output vals.csv",
    ),
    (
        "resolvent-semigroup",
        "resolvent --route semigroup --lambda-re -1 --f log-inv --degree 128 --output g.csv",
    ),
    ("ergodic", "ergodic --t 0.5 --n-max 256 --f const1 --degree 512 --output trace.json"),
    ("classify", "classify --f log-inv --degrees 128,512,2048 --output growth.json"),
    ("spectrum", "spectrum --degree 512 --output spectrum.json"),
]

#: The README's two script runs: label, script, arguments, files written
#: (the captured standard output is ``<label>.stdout``).
README_SCRIPTS = [
    ("ergodic-demo", "run_ergodic_demo.py", "--degree 512 --n-max 256", []),
    ("spectral-sweep", "run_spectral_sweep.py", "--degree 1024", ["spectral_sweep.json"]),
]

#: Degree of the seed-generated ``coeffs.csv`` input of ``apply --input``.
INPUT_DEGREE = 512


@dataclass
class Operation:
    """One check call or one command, and its verdict."""

    label: str
    seconds: float = 0.0
    outputs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    budget_overrun: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def emit(kind: str, payload) -> None:
    print("@perfbench " + json.dumps({kind: payload}), flush=True)


# ---------------------------------------------------------------- inputs


def write_input(path: Path, seed: int) -> list[complex]:
    """Seed-generated coefficients, uniform in the unit disc, as a CLI CSV."""
    import numpy as np

    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(INPUT_DEGREE + 1))
    angle = 2.0 * np.pi * rng.random(INPUT_DEGREE + 1)
    coeffs = [complex(c) for c in radius * np.exp(1j * angle)]
    lines = ["n,re,im"] + [f"{n},{c.real!r},{c.imag!r}" for n, c in enumerate(coeffs)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return coeffs


# ---------------------------------------------------------------- verify


def judge_check(result) -> Operation:
    """Correctness of a check from its reported measurements and stated
    tolerances, apart from its runtime budget."""
    op = Operation(label=result.name, seconds=result.runtime_s)
    detail = result.detail
    if result.name == "norm-inequalities":
        found = re.search(r"(\d+) violations", detail)
        correct = found is not None and int(found.group(1)) == 0
    elif result.name == "resolvent-routes":
        found = re.search(
            r"integral vs oracle ([0-9.eE+-]+); semigroup vs oracle ([0-9.eE+-]+)", detail
        )
        correct = (
            found is not None
            and float(found.group(1)) <= INTEGRAL_TOL
            and float(found.group(2)) <= SEMIGROUP_TOL
        )
    else:
        correct = result.passed
    if not correct:
        op.problems.append(f"passed={result.passed}: {detail}")
    elif not result.passed:
        op.budget_overrun = True
    return op


def verify_pass(work: Workload) -> list[Operation]:
    from cesaro_lab import verify

    try:
        results = verify.run_suite(work.suite, work.degree)
    except Exception as exc:  # a raising check is a failed operation
        return [Operation(label=work.suite, problems=[f"raised {exc!r}"])]
    return [judge_check(r) for r in results]


# ---------------------------------------------------------------- README


def output_of(argv: str) -> str:
    args = argv.split()
    return args[args.index("--output") + 1]


def run_command(label: str, argv: str) -> Operation:
    from cesaro_lab import cli

    args = argv.split()
    op = Operation(label=label, outputs=[output_of(argv)])
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        op.problems.append(f"raised {exc!r}")
        return op
    if code != 0:
        op.problems.append(f"exit code {code}")
    return op


def run_script(label: str, script: str, argv: str, written: list, workdir: Path) -> Operation:
    op = Operation(label=label, outputs=[f"{label}.stdout"] + written)
    path = ROOT / "scripts" / script
    captured = io.StringIO()
    saved_argv = sys.argv
    sys.argv = [str(path)] + argv.split()
    try:
        with contextlib.redirect_stdout(captured):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            op.problems.append(f"exit code {exc.code}")
    except Exception as exc:
        op.problems.append(f"raised {exc!r}")
    finally:
        sys.argv = saved_argv
    (workdir / f"{label}.stdout").write_text(captured.getvalue(), encoding="utf-8")
    return op


def readme_ops(workdir: Path, commands=README_COMMANDS, scripts=README_SCRIPTS):
    """Run README commands and scripts in ``workdir``, timing each."""
    ops = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for label, argv in commands:
            start = time.perf_counter()
            op = run_command(label, argv)
            op.seconds = time.perf_counter() - start
            ops.append(op)
        for label, script, argv, written in scripts:
            start = time.perf_counter()
            op = run_script(label, script, argv, written, workdir)
            op.seconds = time.perf_counter() - start
            ops.append(op)
    finally:
        os.chdir(cwd)
    return ops


def read_output(path: Path) -> dict:
    if path.suffix == ".csv":
        return outputs.read_csv(str(path))
    if path.suffix == ".json":
        return outputs.read_json(str(path))
    return outputs.read_text(path.read_text(encoding="utf-8"))


def check_averaged(fields: dict, coeffs: list) -> list[str]:
    """``apply --op cesaro`` on the seed input against running means."""
    problems = []
    total = 0j
    worst = 0.0
    n_rows = len(fields.get("re", []))
    if n_rows != len(coeffs):
        return [f"averaged.csv has {n_rows} rows, input {len(coeffs)}"]
    for n, c in enumerate(coeffs):
        total += c
        got = complex(fields["re"][n], fields["im"][n])
        worst = max(worst, abs(got - total / (n + 1)))
    if not worst <= 1e-12:
        problems.append(f"averaged.csv off the running means by {worst:.3e}")
    return problems


def check_outputs(ops, workdir: Path, reference: dict, coeffs) -> None:
    """Compare each operation's output files with the references."""
    for op in ops:
        if op.failed:
            continue
        for name in op.outputs:
            path = workdir / name
            if not path.is_file():
                op.problems.append(f"{name} was not written")
                continue
            try:
                fields = read_output(path)
            except (ValueError, IndexError, KeyError) as exc:
                op.problems.append(f"{name} unreadable: {exc!r}")
                continue
            ref = reference[name]
            if name == "averaged.csv":
                # its numbers depend on the seed: the reference keeps only the rest
                op.problems += check_averaged(fields, coeffs)
            op.problems += outputs.compare(name, fields, ref)


def clear_outputs(ops_outputs, workdir: Path) -> None:
    for name in ops_outputs:
        with contextlib.suppress(FileNotFoundError):
            (workdir / name).unlink()


def all_readme_outputs():
    names = [output_of(argv) for _, argv in README_COMMANDS]
    for label, _, _, written in README_SCRIPTS:
        names += [f"{label}.stdout"] + written
    return names


def resolvent_digits(workdir: Path) -> dict:
    """log10(tolerance / max error) of the integral and semigroup outputs,
    the error taken against the recurrence solved at four times the degree."""
    import numpy as np
    from cesaro_lab import horner_eval, log_one_minus_inv, monomial, resolvent_recurrence, truncate

    vals = outputs.read_csv(str(workdir / "vals.csv"))
    zs = np.array(vals["z_re"]) + 1j * np.array(vals["z_im"])
    values = np.array(vals["re"]) + 1j * np.array(vals["im"])
    oracle = horner_eval(resolvent_recurrence(1j, truncate(monomial(0), 4 * 128)), zs)
    err_integral = float(np.max(np.abs(values - oracle)))

    g = outputs.read_csv(str(workdir / "g.csv"))
    coeffs = np.array(g["re"]) + 1j * np.array(g["im"])
    oracle = resolvent_recurrence(-1.0, log_one_minus_inv(4 * 128)).coeffs[: coeffs.size]
    err_semigroup = float(np.max(np.abs(coeffs - oracle)))

    tiny = np.finfo(float).tiny
    return {
        "resolvent-integral": math.log10(INTEGRAL_TOL / max(err_integral, tiny)),
        "resolvent-semigroup": math.log10(SEMIGROUP_TOL / max(err_semigroup, tiny)),
    }


# ---------------------------------------------------------------- runs


class Runner:
    """Runs the passes of one workload and judges their operations."""

    def __init__(self, name: str, workdir: Path, seed: int):
        self.work = WORKLOADS[name]
        self.workdir = workdir
        self.coeffs = None
        self.reference = None
        if self.work.kind == "readme":
            self.coeffs = write_input(workdir / "coeffs.csv", seed)
        self.ops: list[Operation] = []

    def load_reference(self):
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)["outputs"]

    def one_pass(self, tracer: spans.Tracer | None = None):
        """Wall and CPU seconds of one pass, traced when a tracer is given;
        its operations are judged after the clock stops."""
        readme = self.work.kind == "readme"
        if readme:
            clear_outputs(all_readme_outputs(), self.workdir)
        with tracer if tracer is not None else contextlib.nullcontext():
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if readme:
                ops = readme_ops(self.workdir)
            else:
                ops = verify_pass(self.work)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if readme:
            check_outputs(ops, self.workdir, self.reference, self.coeffs)
        self.ops += ops
        return wall, cpu

    def accuracy(self) -> float:
        """accuracy_digits: the smaller of the two routes' digits.  On
        ``readme-cli`` it is read from the last pass's own outputs; the
        verify workloads run the same two README commands once, untimed.
        Fewer than 0 digits is an error beyond tolerance: the command failed."""
        if self.work.kind != "readme":
            wanted = ("resolvent-integral", "resolvent-semigroup")
            ops = readme_ops(self.workdir, [c for c in README_COMMANDS if c[0] in wanted], [])
            check_outputs(ops, self.workdir, self.reference, None)
            self.ops += ops
        latest = {op.label: op for op in self.ops}
        try:
            digits = resolvent_digits(self.workdir)
        except (OSError, ValueError, KeyError) as exc:
            for label in ("resolvent-integral", "resolvent-semigroup"):
                latest[label].problems.append(f"accuracy not computable: {exc!r}")
            return 0.0
        for label, value in digits.items():
            if value < 0:
                latest[label].problems.append(f"error beyond tolerance ({value:.3f} digits)")
        return min(digits.values())


def report_ops(ops) -> None:
    by_label: dict[str, list[Operation]] = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(op)
    for label, group in by_label.items():
        secs = statistics.median(op.seconds for op in group)
        failed = sum(op.failed for op in group)
        overruns = sum(op.budget_overrun for op in group)
        print(
            f"op {label}: n={len(group)} median {secs:.3f} s failed={failed} "
            f"budget_overruns={overruns}"
        )
        for op in group:
            for problem in op.problems[:3]:
                print(f"  FAIL {label}: {problem}")


def report_spans(tracer: spans.Tracer, pass_s: float) -> None:
    totals: dict[str, list] = {}
    for span in tracer.spans:
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += spans.self_time(span)
    # self times of pool threads add up, so shares can pass 100 % with 2 threads
    print(f"traced pass {pass_s:.3f} s; self time by function (share of the traced pass):")
    for name, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1])[:15]:
        print(f"  {name:48s} calls={calls:6d} self={self_s:8.3f} s {100 * self_s / pass_s:5.1f} %")
    for warning in sorted(tracer.warnings):
        print(f"  warning: {warning}")


def provenance() -> dict:
    import numpy as np

    info = {
        "numpy": np.__version__,
        "CESARO_LAB_THREADS": os.environ.get("CESARO_LAB_THREADS"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = blas_threads()
    return info


def blas_threads():
    """Thread count of the loaded OpenBLAS, read without changing it."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import cesaro_lab
    import cesaro_lab.cli  # noqa: F401  (imported with the package, as users do)

    if Path(cesaro_lab.__file__).resolve().parent != ROOT / "src" / "cesaro_lab":
        print(f"cesaro_lab imported from {cesaro_lab.__file__}, not this checkout", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args.workload, workdir, args.seed)
        emit("ready", True)
        if args.setup_only:
            return 0
        runner.load_reference()
        if args.trace:
            result = traced_run(runner)
        else:
            result = timed_run(runner, args.seconds)
        report_ops(runner.ops)
        result.update(
            attempted=len(runner.ops),
            failed=sum(op.failed for op in runner.ops),
            budget_overruns=sum(op.budget_overrun for op in runner.ops),
            provenance=provenance(),
        )
        emit("result", result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(runner: Runner, seconds: float) -> dict:
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = runner.one_pass()
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + max(walls) > PASS_DEADLINE_S:
            break
    print(f"passes={len(walls)} pass_s={walls} pass_cpu_s={cpus}")
    metrics = {
        "pass_s": (statistics.median(walls), "s"),
        "pass_cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy_digits": (runner.accuracy(), "digits"),
    }
    return {"metrics": metrics, "passes": len(walls)}


def traced_run(runner: Runner) -> dict:
    untraced, _ = runner.one_pass()
    tracer = spans.Tracer()
    traced, _ = runner.one_pass(tracer)
    metrics = spans.layer_metrics(tracer.spans, str(runner.workdir))
    metrics["trace.pass_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    report_spans(tracer, traced)
    return {"metrics": metrics, "passes": 2}


if __name__ == "__main__":
    sys.exit(main())
