"""Call spans around the package's layer functions, recorded from outside
the package.

:class:`Tracer` replaces every public function of each layer module with a
timing wrapper.  The package imports with ``from .x import name``, so a
function is bound in several namespaces (``s_t_apply`` lives in
``operators``, ``resolvent``, ``verify``, ``cli`` and the package itself);
``install`` rebinds it in every ``cesaro_lab`` module that holds it, and
``uninstall`` puts the originals back.

Spans are kept in memory.  Each records its thread id and its parent: the
innermost open span on the same thread or, for a call on a thread with no
open span (a worker of the ``verify`` thread pool), the innermost open span
of the thread that installed the tracer, so pool calls nest under their
check.  A span's self time is its duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

PACKAGE = "cesaro_lab"

#: The layers, one per package module.
LAYERS = ("series", "weights", "operators", "resolvent", "ergodic", "verify", "cli")


@dataclass(eq=False)
class Span:
    name: str
    tid: int
    start: float
    end: float = math.nan
    info: object = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span) -> float:
    """Duration minus the part of the span's interval that children cover;
    children on other threads may overlap each other."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in span.children]
    return span.duration - covered_length(clipped)


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _degree(x) -> int:
    degree = getattr(x, "degree", None)
    if degree is None:
        degree = len(x) - 1
    return int(degree)


def _s_t_key(a, _):
    t = a["t"]
    return (repr(t.tolist() if hasattr(t, "tolist") else t), _degree(a["p"]))


def _circle_samples(a, _):
    return len(a["radii"]) * int(a["samples"])


def _coeffs(a, _):
    return _degree(a["h"]) + 1


def _node_points(a, modules):
    quad = a["quad"] or modules["resolvent"].QuadratureSpec()
    zs = a["zs"]
    points = len(zs) if hasattr(zs, "__len__") else 1
    return quad.nodes * quad.panels * points


def _output_path(a, _):
    argv = list(a["argv"] or sys.argv[1:])
    return argv[argv.index("--output") + 1] if "--output" in argv else None


#: Per-call facts read from the arguments, keyed by span name.
EXTRACTORS = {
    "operators.s_t_apply": _s_t_key,
    "weights.max_modulus_profile": _circle_samples,
    "resolvent.resolvent_recurrence": _coeffs,
    "resolvent.resolvent_integral_profile": _node_points,
    "cli.main": _output_path,
}


class Tracer:
    """Records a span for every call into a layer function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.warnings: set[str] = set()
        self._stacks: dict[int, list[Span]] = {}
        self._root_tid: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._modules: dict[str, object] = {}

    def _parent(self, tid: int):
        stack = self._stacks.get(tid)
        if stack:
            return stack[-1]
        root = self._stacks.get(self._root_tid)
        return root[-1] if root else None

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records a span named ``name``."""
        extract = EXTRACTORS.get(name)
        signature = inspect.signature(fn) if extract is not None else None

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            info = None
            if extract is not None:
                try:
                    info = extract(_arguments(signature, args, kwargs), self._modules)
                except (TypeError, KeyError, AttributeError, ValueError) as exc:
                    self.warnings.add(f"{name}: cannot read arguments ({exc!r})")
            parent = self._parent(tid)
            stack = self._stacks.setdefault(tid, [])
            span = Span(name=name, tid=tid, start=time.perf_counter(), info=info)
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every public function of every layer module, in every
        ``cesaro_lab`` namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._root_tid = threading.get_ident()
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            self._modules[layer] = module
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans, workdir: str | None = None) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    out = {}
    selfs = {id(s): self_time(s) for s in spans}

    def total_self(match):
        return sum(selfs[id(s)] for s in spans if match(s.name))

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (float(total_self(lambda n: n.split(".")[0] == layer)), "s")

    def per_function(name, calls=True, self_s=True):
        found = [s for s in spans if s.name == name]
        if calls:
            out[f"{name}.calls"] = (len(found), "count")
        if self_s:
            out[f"{name}.self_s"] = (float(sum(selfs[id(s)] for s in found)), "s")
        return found

    per_function("series.compose")
    per_function("series.cauchy_product", calls=False)
    per_function("series.horner_eval")

    s_t = per_function("operators.s_t_apply")
    seen, repeats = set(), 0
    for span in sorted(s_t, key=lambda s: s.start):
        if span.info is None:
            continue
        repeats += span.info in seen
        seen.add(span.info)
    out["operators.s_t_apply.repeat_share"] = (repeats / len(s_t) if s_t else 0.0, "ratio")
    per_function("operators.generalized_cesaro_apply")
    per_function("operators.cesaro_apply", calls=False)
    per_function("operators.build_corpus", calls=False)

    mmp = per_function("weights.max_modulus_profile")
    out["weights.max_modulus_profile.circle_samples"] = (
        sum(s.info or 0 for s in mmp),
        "count",
    )
    per_function("weights.weighted_sup_norm")

    rec = per_function("resolvent.resolvent_recurrence")
    out["resolvent.resolvent_recurrence.coeffs"] = (sum(s.info or 0 for s in rec), "count")
    integ = per_function("resolvent.resolvent_integral_profile")
    out["resolvent.resolvent_integral_profile.node_points"] = (
        sum(s.info or 0 for s in integ),
        "count",
    )
    semi = per_function("resolvent.resolvent_semigroup")
    applies = sum(_count_descendants(s, "operators.s_t_apply") for s in semi)
    out["resolvent.resolvent_semigroup.time_nodes"] = (
        applies / len(semi) if semi else 0.0,
        "count",
    )

    per_function("ergodic.iterate_trace")
    per_function("ergodic.spectral_dichotomy_report")

    checks = [s for s in spans if s.name.startswith("verify.check_")]
    out["verify.check.self_s"] = (float(sum(selfs[id(s)] for s in checks)), "s")
    check_wall = sum(s.duration for s in checks)
    kernel = sum(c.duration for s in checks for c in s.children)
    out["verify.pool.parallelism"] = (kernel / check_wall if check_wall else 0.0, "ratio")

    mains = per_function("cli.main")
    written = 0
    for span in mains:
        if span.info and span.info != "-":
            path = os.path.join(workdir or "", span.info)
            if os.path.exists(path):
                written += os.path.getsize(path)
    out["cli.main.bytes_written"] = (written, "bytes")
    out["trace.spans"] = (len(spans), "count")
    return out


def _count_descendants(span: Span, name: str) -> int:
    count = 0
    todo = list(span.children)
    while todo:
        child = todo.pop()
        count += child.name == name
        todo.extend(child.children)
    return count
