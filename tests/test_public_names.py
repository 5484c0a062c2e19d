"""Every public top-level name of a package module is used by the program,
and every parameter default of a package function is overridden somewhere
and taken somewhere.

A public function, class or constant that only the tests call is code the
program carries for nothing.  This guard walks the syntax trees of the
package and the scripts with the standard library and lists the public
names that nothing in them reads; a name's own definition and its re-export
in ``__init__.py`` do not count as uses, and a name kept only for the
benchmark in ``perfbench/`` is listed with its reason.  Likewise a
defaulted parameter that no call in the package, the scripts or the tests
sets is a choice nothing makes: the second guard lists those, and the third
those that only the tests set, a knob the program never turns, bar an
allow-list.  The fourth lists, with no allow-list, each default that every
call in the package and the scripts sets: a choice the program always makes
at the call, so the default only lets a test omit it.  The fifth keeps the
one Poly-or-stack rule in ``series``: no other module asks whether a value
is a ``Poly``.  The sixth keeps the one stack-product rule there: no other
function multiplies matrices, bar an allow-list.  The seventh keeps the one
count refusal there: no function but ``series.require_count`` refuses a
degree, size or sample count, bar an allow-list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cesaro_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def public_names(source: str) -> set[str]:
    """Functions, classes and assigned constants at the top level of a
    module whose names do not start with an underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def read_names(source: str) -> set[str]:
    """Names an expression reads, bare or as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unused_public_names(modules: dict, users: list) -> list[str]:
    """``module.name`` for each public name of ``modules`` (name -> source)
    that no source in ``modules`` or ``users`` reads."""
    used = set()
    for source in list(modules.values()) + users:
        used |= read_names(source)
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for name in public_names(source) - used
    )


def test_guard_finds_unused_names():
    modules = {
        "core": "LIMIT = 3\ndef kept(x):\n    return min(x, LIMIT)\ndef dead():\n    pass\n"
        "class Spare:\n    pass\ndef _private():\n    pass\n",
        "front": "from .core import kept\nTABLE = {'k': kept}\nprint(TABLE)\n",
    }
    script = "import core\ncore.Spare\n"
    assert unused_public_names(modules, []) == ["core.Spare", "core.dead"]
    assert unused_public_names(modules, [script]) == ["core.dead"]


#: Public names that the package and scripts do not read, with the reason
#: each stays.
BENCHMARK_ONLY_NAMES = {
    "series.horner_eval": "a plain Horner loop, kept because perfbench's resolvent_digits "
    "imports it to evaluate its oracle (ROADMAP item 1)",
}


def test_every_public_name_is_used():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    scripts = [p.read_text(encoding="utf-8") for p in SCRIPTS]
    assert unused_public_names(modules, scripts) == sorted(BENCHMARK_ONLY_NAMES)


def defaulted_parameters(source: str):
    """(function, parameter, position) for each parameter with a default of
    each function defined anywhere in a module; the position a call passes
    it at, after a method's self or cls, and None for a keyword-only one."""
    tree = ast.parse(source)
    methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        shift = 1 if node in methods else 0
        for i, arg in enumerate(positional[first:], start=first):
            yield node.name, arg.arg, i - shift
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def call_arguments(sources: list) -> dict:
    """Per called name, one entry per call: the positions and keywords it
    passes, or None if it unpacks ``*`` or ``**`` arguments."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            given = set(range(len(node.args))) | {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(None if unpacked else given)
    return calls


def parameter_settings(modules: dict, users: list):
    """``module.function(parameter)`` for each defaulted parameter of a
    function in ``modules`` (name -> source), with one entry per call of
    that function in ``modules`` or ``users``: whether the call sets the
    parameter, by position or by keyword, or None if it unpacks arguments."""
    calls = call_arguments(list(modules.values()) + users)
    for module, source in modules.items():
        for function, parameter, position in defaulted_parameters(source):
            settings = [
                None if given is None else bool({parameter, position} & given)
                for given in calls.get(function, [])
            ]
            yield f"{module}.{function}({parameter})", settings


def unset_parameters(modules: dict, users: list) -> list[str]:
    """Each defaulted parameter of a function in ``modules`` that no call in
    ``modules`` or ``users`` sets."""
    found = parameter_settings(modules, users)
    return sorted(name for name, settings in found if set(settings) <= {False})


def overridden_parameters(modules: dict, users: list) -> list[str]:
    """Each defaulted parameter of a function in ``modules`` that some call
    in ``modules`` or ``users`` makes and every such call sets: a default
    that nothing takes."""
    found = parameter_settings(modules, users)
    return sorted(name for name, settings in found if settings and set(settings) == {True})


def test_guard_finds_unset_parameters():
    modules = {
        "core": "def scale(x, factor=2.0, offset=0.0, *, clip=None):\n    return x\n"
        "def spread(*xs, width=1):\n    return xs\n"
        "class Box:\n    def grow(self, by=1, to=None):\n        return by\n",
        "front": "from .core import scale, spread, Box\nscale(1.0, 3.0)\nspread(1, 2)\n"
        "Box().grow(2)\n",
    }
    tests = "from core import scale\nscale(1.0, clip=4)\nargs = {}\nspread(**args)\n"
    assert unset_parameters(modules, []) == [
        "core.grow(to)",
        "core.scale(clip)",
        "core.scale(offset)",
        "core.spread(width)",
    ]
    assert unset_parameters(modules, [tests]) == ["core.grow(to)", "core.scale(offset)"]


def test_every_default_is_set_somewhere():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    users = [p.read_text(encoding="utf-8") for p in SCRIPTS]
    users += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))]
    assert unset_parameters(modules, users) == []


#: Defaulted parameters that the tests set and the package and scripts do
#: not, with the reason each stays.
TEST_ONLY_DEFAULTS = {
    "cli.main(argv)": "the entry point: the console script reads sys.argv, tests pass argv",
    "weights.max_modulus_profile(samples)": "shares _Sweep.maxima with "
    "weighted_sup_norm(samples), which ergodic --samples sets",
    "weights.sup_norm_exceeds(samples)": "shares _Sweep.maxima with "
    "weighted_sup_norm(samples), which ergodic --samples sets",
}


def test_no_default_is_set_only_by_tests():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    scripts = [p.read_text(encoding="utf-8") for p in SCRIPTS]
    assert unset_parameters(modules, scripts) == sorted(TEST_ONLY_DEFAULTS)


def test_guard_finds_overridden_parameters():
    modules = {
        "core": "def scale(x, factor=2.0, offset=0.0, *, clip=None):\n    return x\n"
        "def spread(*xs, width=1):\n    return xs\n"
        "def unused(x, by=1):\n    return x\n"
        "class Box:\n    def grow(self, by=1, to=None):\n        return by\n",
        "front": "from .core import scale, spread, Box\nscale(1.0, 3.0, clip=1)\n"
        "scale(2.0, factor=4.0)\nspread(1, width=2)\nBox().grow(2)\n",
    }
    script = "from core import scale, spread\nscale(1.0)\nargs = {}\nspread(**args)\n"
    assert overridden_parameters(modules, []) == [
        "core.grow(by)",
        "core.scale(factor)",
        "core.spread(width)",
    ]
    assert overridden_parameters(modules, [script]) == ["core.grow(by)"]


def test_no_default_is_overridden_by_every_program_call():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    scripts = [p.read_text(encoding="utf-8") for p in SCRIPTS]
    assert overridden_parameters(modules, scripts) == []


def poly_type_tests(source: str) -> list[int]:
    """Line numbers of the ``isinstance`` calls in a module that test for
    ``Poly``, alone or in a tuple of types, by bare or dotted name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            types = node.args[1:]
            if types and isinstance(types[0], ast.Tuple):
                types = types[0].elts
            names = {getattr(t, "id", None) or getattr(t, "attr", None) for t in types}
            if "Poly" in names:
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_finds_poly_type_tests():
    toy = (
        "from . import series\n"
        "from .series import Poly\n"
        "def kernel(h):\n"
        "    if isinstance(h, Poly):\n"
        "        return h\n"
        "    ok = isinstance(h, (list, series.Poly))\n"
        "    return isinstance(h, list) or Poly(h)\n"
    )
    assert poly_type_tests(toy) == [4, 6]


def test_only_series_asks_for_a_poly():
    found = {
        p.name: poly_type_tests(p.read_text(encoding="utf-8"))
        for p in PACKAGE.glob("*.py")
        if p.name != "series.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def matrix_products(source: str) -> list[str]:
    """The function (``Class.method`` for a method, ``<module>`` outside any)
    of each ``@``, ``@=`` and ``matmul`` or ``dot`` call, bare or dotted,
    in a module, once per occurrence, sorted."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if name == "<module>" else f"{name}.{child.name}")
                continue
            func = child.func if isinstance(child, ast.Call) else None
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(getattr(child, "op", None), ast.MatMult) or called in ("matmul", "dot"):
                found.append(name)
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_guard_finds_matrix_products():
    toy = (
        "import numpy as np\n"
        "from numpy import matmul\n"
        "TABLE = np.eye(2) @ np.eye(2)\n"
        "def scaled(a, b):\n"
        "    return a * b + np.sum(a)\n"
        "def product(a, b):\n"
        "    return a @ b\n"
        "class Box:\n"
        "    def apply(self, a, b):\n"
        "        a @= b\n"
        "        return np.dot(a, b), a.dot(b), matmul(a, b)\n"
    )
    assert matrix_products(toy) == ["<module>"] + ["Box.apply"] * 4 + ["product"]


#: Matrix products outside ``series.stack_product``, with the reason each stays.
PRODUCT_EXCEPTIONS = {}


def test_only_stack_product_multiplies_matrices():
    found = {
        f"{p.stem}.{name}"
        for p in PACKAGE.glob("*.py")
        for name in matrix_products(p.read_text(encoding="utf-8"))
    }
    assert found - {"series.stack_product"} == set(PRODUCT_EXCEPTIONS)


#: The phrases of a count refusal: an integer in low..cap, or refused.
COUNT_PHRASES = (
    "must be an integer",
    "needs an integer",
    "must be at least",
    "must be nonnegative",
    "exceeds the cap",
)


def count_refusals(source: str) -> list[str]:
    """The function (``Class.method`` for a method, ``<module>`` outside any)
    of each ``raise`` in a module whose string literals, or the literal
    pieces of its f-strings, hold a phrase of ``COUNT_PHRASES``, once per
    occurrence, sorted."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if name == "<module>" else f"{name}.{child.name}")
                continue
            if isinstance(child, ast.Raise):
                text = "".join(
                    n.value
                    for n in ast.walk(child)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
                if any(phrase in text for phrase in COUNT_PHRASES):
                    found.append(name)
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_guard_finds_count_refusals():
    toy = (
        "def size(n):\n"
        "    if n < 0:\n"
        "        raise ValueError('n must be nonnegative')\n"
        "    if n > 9:\n"
        "        raise ValueError(f'n {n} exceeds the cap 9')\n"
        "    return n\n"
        "class Box:\n"
        "    def fill(self, k):\n"
        "        if k != int(k):\n"
        "            raise ValueError(f'k must be an integer, got {k}')\n"
        "        raise ValueError('k must be at least 1' if k < 1 else 'k is odd')\n"
        "def other(x):\n"
        "    raise ValueError('x must be finite')\n"
        "def order(k):\n"
        "    raise ValueError('a log weight needs an integer order')\n"
        "raise SystemExit('need at least one')\n"
    )
    assert count_refusals(toy) == ["Box.fill", "Box.fill", "order", "size", "size"]


#: Count refusals outside ``series.require_count``, with the reason each stays.
COUNT_REFUSAL_EXCEPTIONS = {
    "cli.read_coeffs_csv": "a coefficient file past its cap is refused at the first row "
    "past it, while it is read, before the rest is read",
}


def test_only_require_count_refuses_a_count():
    found = {
        f"{p.stem}.{name}"
        for p in PACKAGE.glob("*.py")
        for name in count_refusals(p.read_text(encoding="utf-8"))
    }
    assert found - {"series.require_count"} == set(COUNT_REFUSAL_EXCEPTIONS)
