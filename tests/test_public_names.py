"""Every public top-level name of a package module is used by the program.

A public function, class or constant that only the tests call is code the
program carries for nothing.  This guard walks the syntax trees of the
package and the scripts with the standard library and lists the public
names that nothing in them reads; a name's own definition and its re-export
in ``__init__.py`` do not count as uses.
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


def test_every_public_name_is_used():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    scripts = [p.read_text(encoding="utf-8") for p in SCRIPTS]
    assert unused_public_names(modules, scripts) == []

