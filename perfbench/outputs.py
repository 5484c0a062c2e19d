"""Reading the README workload's output files into comparable fields, and
comparing them against the references recorded at the seed commit.

Every output becomes a flat {field: value} map.  Numeric fields are lists of
floats; everything else (config strings and flags, headers, classifications,
the text of printed summaries with their numbers taken out) is compared
exactly.  Every reference field must be present; fields an output adds are
not compared.

Tolerances, elementwise on numeric fields, |actual - ref| <= atol + rtol*|ref|:

* default: rtol 1e-9, atol 1e-12;
* integral-route sample values (``vals.csv``): atol 1e-8, and semigroup-route
  coefficients (``g.csv``): atol 1e-6, the tolerances of the
  ``resolvent-routes`` check, since their quadrature may be re-tuned;
* numbers parsed from printed text: atol of one unit in the last printed
  digit of the reference token.
"""

from __future__ import annotations

import json
import math
import re

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
ROUTE_ATOL = {"vals.csv": 1e-8, "g.csv": 1e-6}
CONFIG_PREFIX = "# config: "

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def read_csv(path: str) -> dict:
    """A CSV written by the CLI: optional ``# config: {json}`` line, header,
    rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    fields = {}
    if lines and lines[0].startswith(CONFIG_PREFIX):
        fields = flatten_json({"config": json.loads(lines.pop(0)[len(CONFIG_PREFIX) :])})
    header = lines[0].split(",")
    fields["header"] = lines[0]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    for j, name in enumerate(header):
        fields[name] = [row[j] for row in rows]
    return fields


def flatten_json(obj, prefix="", out=None) -> dict:
    """Leaves grouped by path, list indices collapsed to ``[]``: numbers form
    a float list per path, other values a list per path ``:exact``."""
    if out is None:
        out = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            flatten_json(obj[key], f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(obj, list):
        for item in obj:
            flatten_json(item, prefix + "[]", out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.setdefault(prefix, []).append(float(obj))
    else:
        out.setdefault(prefix + ":exact", []).append(obj)
    return out


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return flatten_json(json.load(fh))


def _last_digit_unit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def read_text(text: str) -> dict:
    """Printed summary: the text with numbers replaced by ``#``, the numbers
    and, per number, one unit of its last printed digit."""
    tokens = _NUMBER.findall(text)
    return {
        "text": _NUMBER.sub("#", text),
        "numbers": [float(t) for t in tokens],
        "number_units": [_last_digit_unit(t) for t in tokens],
    }


def _within(actual: float, ref: float, atol: float) -> bool:
    if not math.isfinite(ref):
        return actual == ref or (math.isnan(actual) and math.isnan(ref))
    return abs(actual - ref) <= atol + DEFAULT_RTOL * abs(ref)


def compare(name: str, actual: dict, reference: dict) -> list[str]:
    """Mismatches of one output against its reference, as messages.  Fields
    the reference lacks are not compared."""
    missing = sorted(set(reference) - set(actual))
    if missing:
        return [f"{name}: fields missing: {missing}"]
    problems = []
    for key, ref in reference.items():
        got = actual[key]
        if key == "number_units":
            continue
        if not isinstance(ref, list) or key.endswith(":exact"):
            if got != ref:
                problems.append(f"{name}:{key} differs from the reference")
        elif len(got) != len(ref):
            problems.append(f"{name}:{key} has {len(got)} values, reference {len(ref)}")
        else:
            if key == "numbers":
                atols = reference["number_units"]
            else:
                atols = [ROUTE_ATOL.get(name, DEFAULT_ATOL)] * len(ref)
            bad = [abs(a - r) for a, r, tol in zip(got, ref, atols) if not _within(a, r, tol)]
            if bad:
                problems.append(f"{name}:{key}: {len(bad)} values off, worst by {max(bad):.3e}")
    return problems
