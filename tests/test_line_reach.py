"""Every executable line of the package has a reader: it runs on a program
path, or it is a refusal that a test names, or it is listed below with its
reason.

The public-name guards in ``test_public_names.py`` find names that only the
tests use; this guard does the same for lines.  The program paths are the
README's nine commands and two scripts, run through the benchmark's
``readme_ops`` (imported from ``perfbench/``, never written), and
``verify --suite all --degree 512``.  They run under a ``sys.settrace`` hook
that traces only frames of ``src/cesaro_lab``.  A line of a function that
none of them runs must be one of:

* part of a refusal whose message a test names.  The refusal is a
  ``raise`` statement, with the statements before it in the body of an
  ``if`` or a ``for`` that it ends; its key is the longest literal piece of
  its message.  A test names it when a string literal of a
  ``tests/test_*.py`` module other than this one, a regex's escapes
  removed, holds the whole key, or is a part of 8 characters or more of
  that key and of no other;
* covered by an entry of ``NOT_ON_PROGRAM_PATHS``, with its reason.

Module and class bodies run on import, before any trace can start, so only
the lines of functions count.
"""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

from cesaro_lab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cesaro_lab"
PERFBENCH = ROOT / "perfbench"
TEST_FILES = sorted(
    p for p in Path(__file__).resolve().parent.glob("test_*.py") if p.name != Path(__file__).name
)

#: ``module.function`` (every line of it) or ``module.function: line`` (one
#: line, stripped), with the reason no program path runs it.  An entry that
#: covers no unread line is stale and fails the guard too.
NOT_ON_PROGRAM_PATHS = {
    "series.horner_eval": "perfbench's resolvent_digits evaluates its oracle with it "
    "(ROADMAP item 1); no command or check calls it",
    "weights.default_radius_grid: outer = np.array([0.5])": "degree 20 or less, where the "
    "reliability gap reaches 0.5: the README's degrees are 128 and up",
    "cli.<lambda>": "the builtins log-neg, geom, binom-half, binom-2, e2, e3 and e4, "
    "which no README command names: one series call each",
    "cli._write_text: sys.stdout.write(text)": "a command without --output writes to "
    "stdout; every README command names its output file",
    "cli._cmd_apply: out = cesaro_inverse_apply(p)": "apply --op inverse, a documented "
    "operator the README does not run",
    "cli._cmd_apply: out = generalized_cesaro_apply(0.0, p)": "apply --op hardy, a "
    "documented operator the README does not run",
    "ergodic.spectral_dichotomy_report: degrees = tuple(int(d) for d in degrees)": "spectrum "
    "--degrees, a documented option the README does not use",
    "cli._cmd_verify: rows = [dataclasses.asdict(r) for r in results]": "verify --output, "
    "a documented option the README does not use",
    "cli._cmd_verify: config = _config(\"verify\", suite=args.suite, degree=args.degree)":
    "verify --output, a documented option the README does not use",
    "cli._cmd_verify: write_json(args.output, {\"config\": config, \"results\": rows})":
    "verify --output, a documented option the README does not use",
    "cli.main": "the exit-2 handlers (a refused input, a floating-point error) and the "
    "exit-3 handler (a failed write), which no README command meets",
    "cli.entry": "the console script's entry point; the program paths call main in process",
    "resolvent._named": "names the refused lam of an array in a refusal message; only "
    "refusals call it",
    "verify.check_eigen_ct: detail += \"; failed clauses: \" + \", \".join(failed)":
    "a failing check's detail, which the check's bite tests reach",
    "verify.check_norm_inequalities: detail += \": \" + \", \".join(violations[:8])":
    "a failing check's detail, which the check's bite tests reach",
}


def function_lines(source: str) -> dict[int, str]:
    """Each line of a function's or a lambda's body in a module, mapped to
    its dotted name (``Class.method`` for a method, ``<lambda>`` for a
    lambda, the innermost function for a nested one)."""
    lines = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                body = child.body if isinstance(child.body, list) else [child.body]
                for stmt in body:
                    for line in range(stmt.lineno, stmt.end_lineno + 1):
                        lines[line] = name
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return lines


def code_lines(code) -> set[int]:
    """The lines that carry instructions in the functions (not the module or
    class bodies) compiled in ``code``, at any depth."""
    lines = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                lines |= {line for _, _, line in const.co_lines() if line is not None}
            lines |= code_lines(const)
    return lines


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines of a module's functions that carry instructions, bar the
    ``def`` lines themselves, which run when the module is imported."""
    defs = {
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    in_body = function_lines(source)
    return {line for line in code_lines(compile(source, filename, "exec")) if line in in_body} - defs


def refusal_keys(source: str) -> dict[int, str]:
    """Each line of a refusal, mapped to its key: the longest string literal
    or literal piece of an f-string in it, stripped of spaces and of the
    punctuation around it.  A refusal is a ``raise`` statement and, when it
    ends the body of an ``if`` or a ``for``, the statements before it there,
    which only build its message."""
    keys = {}
    for node in ast.walk(ast.parse(source)):
        for body in (getattr(node, "body", None), getattr(node, "orelse", None)):
            if not isinstance(body, list) or not body or not isinstance(body[-1], ast.Raise):
                continue
            block = body if isinstance(node, (ast.If, ast.For)) else body[-1:]
            pieces = [
                n.value
                for stmt in block
                for n in ast.walk(stmt)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            ]
            key = max(pieces, key=len, default="").strip(" :;,.")
            if not key:
                continue
            for line in range(block[0].lineno, block[-1].end_lineno + 1):
                keys[line] = key
    return keys


def named_keys(keys: set, literals: list) -> set:
    """The keys that the ``literals`` name: a key that is part of a literal,
    or the one key of which a literal of at least 8 characters, its regex
    anchors stripped, is a part."""
    named = set()
    for literal in literals:
        named |= {key for key in keys if key in literal}
        part = literal.strip("^$")
        found = {key for key in keys if part in key}
        if len(part) >= 8 and len(found) == 1:
            named |= found
    return named


def string_literals(source: str) -> list[str]:
    """Every string literal of a module, and every literal piece of an
    f-string, with a regex's escapes of punctuation removed."""
    return [
        re.sub(r"\\(\W)", r"\1", n.value)
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


def unread_lines(modules: dict, reached: dict, literals: list) -> list[str]:
    """``module.function: line`` for each executable function line of
    ``modules`` (name -> source) that ``reached`` (name -> set of line
    numbers) does not hold and that is not part of a refusal whose key the
    ``literals`` name."""
    unread = []
    for module, source in modules.items():
        text = source.splitlines()
        owner = function_lines(source)
        keys = refusal_keys(source)
        named = named_keys(set(keys.values()), literals)
        for line in sorted(executable_lines(source, module) - reached.get(module, set())):
            if keys.get(line) not in named:
                unread.append(f"{module}.{owner[line]}: {text[line - 1].strip()}")
    return unread


def covers(entry: str, unread: str) -> bool:
    """Whether an allow-list entry, a function or one of its lines, covers
    an unread line."""
    return unread == entry or unread.startswith(entry + ": ")


def traced_lines(run) -> dict[str, set[int]]:
    """Per module of the package, the line numbers that ran in its frames
    while ``run()`` ran."""
    prefix = str(PACKAGE) + "/"
    reached = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def dispatch(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached.setdefault(frame.f_code.co_filename, set())
        return local

    previous = sys.gettrace()
    sys.settrace(dispatch)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {Path(name).stem: lines for name, lines in reached.items()}


def test_guard_finds_unread_lines():
    toy = (
        "def kept(x):\n"
        "    if x < 0:\n"
        "        shown = abs(x)\n"
        "        raise ValueError(f'x must be nonnegative, got {shown}')\n"
        "    if x > 9:\n"
        "        raise ValueError('x is too large')\n"
        "    if x == 5:\n"
        "        raise ValueError('x is five, too large')\n"
        "    return x\n"
        "def spare():\n"
        "    return 1\n"
        "def listed():\n"
        "    return 2\n"
    )
    reached = {"toy": {2, 5, 7, 9}}
    assert unread_lines({"toy": toy}, reached, []) == [
        "toy.kept: shown = abs(x)",
        "toy.kept: raise ValueError(f'x must be nonnegative, got {shown}')",
        "toy.kept: raise ValueError('x is too large')",
        "toy.kept: raise ValueError('x is five, too large')",
        "toy.spare: return 1",
        "toy.listed: return 2",
    ]
    # a literal names a whole key, or a part of 8 characters or more that
    # belongs to one key only: "too large" is in two keys, "five" is short
    tests = "match = r'^x must be nonnegative$'\nassert 'too large' in err\nassert 'five' in err\n"
    unread = unread_lines({"toy": toy}, reached, string_literals(tests))
    assert unread == [
        "toy.kept: raise ValueError('x is too large')",
        "toy.kept: raise ValueError('x is five, too large')",
        "toy.spare: return 1",
        "toy.listed: return 2",
    ]
    tests += "assert str(exc) == 'error: x is too large'\n"
    assert unread_lines({"toy": toy}, reached, string_literals(tests)) == [
        "toy.kept: raise ValueError('x is five, too large')",
        "toy.spare: return 1",
        "toy.listed: return 2",
    ]
    # a function entry covers its lines, a line entry that line only
    assert [e for e in unread if covers("toy.listed", e)] == ["toy.listed: return 2"]
    assert not covers("toy.spare: return", "toy.spare: return 1")
    assert not covers("toy.kept", "toy.keptx: return 3")


def test_every_line_has_a_reader(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    workload.write_input(tmp_path / "coeffs.csv", seed=1)
    codes = []

    def program_paths():
        ops = workload.readme_ops(tmp_path)
        codes.append({op.label: op.problems for op in ops if op.problems})
        codes.append(cli.main(["verify", "--suite", "all", "--degree", "512"]))

    reached = traced_lines(program_paths)
    capsys.readouterr()
    assert codes == [{}, 0]
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    literals = [s for p in TEST_FILES for s in string_literals(p.read_text(encoding="utf-8"))]
    unread = unread_lines(modules, reached, literals)
    assert [e for e in unread if not any(covers(k, e) for k in NOT_ON_PROGRAM_PATHS)] == []
    assert [k for k in NOT_ON_PROGRAM_PATHS if not any(covers(k, e) for e in unread)] == []
