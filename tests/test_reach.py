"""Reach guard: every function under ``src/repro`` is named by code outside the tests.

A function that only its own tests call runs in no workload: it is code to
read, document and keep passing for nothing.  So every non-dunder function or
method defined under ``src/repro`` must be named somewhere in ``src/``,
``perfbench/``, ``tools/``, ``examples/`` or ``benchmarks/``: as a name or an
attribute (``f(...)``, ``obj.method``), or inside a perfbench span string
(``"repro.module:Class.method"``).  An import or an ``__all__`` entry is not
a use, since it names the function without calling it.  Names match by
their last component, so a method counts as used wherever any function of
that name is.

:data:`ALLOWED` lists the few functions kept without such a caller, each
with its reason.  The list may only shrink: an entry goes once its function
gains a caller or is deleted.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "perfbench", "tools", "examples", "benchmarks")
#: A perfbench span string: ``"<module>:<qualified name>"``.
SPAN = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)$")

#: Functions no code outside the tests names, each with the reason it stays.
ALLOWED = {
    "EventLog.read_jsonl": "the `recpipe inspect` renderer (ROADMAP item 6) will call it",
    "EventLog.write_jsonl": "the `recpipe inspect` renderer (ROADMAP item 6) will call it",
    "ExperimentResult.filtered": "the claims that read it move into src/ (ROADMAP item 1)",
    "read_csv_rows": "test helper: reads a written CSV artifact back",
    "strip_timing": "test helper: blanks a manifest's wall-clock fields before comparing",
    "FrontendSchedule.query_state": "per-query oracle view the frontend suites check against",
    "FrontendSchedule.query_path": "per-query oracle view the frontend suites check against",
    "ServiceTimeSampler.sample_ids": "per-query oracle view the service-time suites check against",
}


def defined_functions(paths) -> dict[str, str]:
    """``{qualified name: last component}`` for every non-dunder function in ``paths``."""
    found = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found[f"{prefix}{name}"] = name
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def used_names(paths) -> set[str]:
    """Every name ``paths`` use: names, attributes and the components of span strings."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                span = SPAN.match(node.value)
                if span:
                    names.update(span.group(1).split("."))
    return names


def unreached(defining, calling) -> list[str]:
    """The qualified names of the functions in ``defining`` that ``calling`` never names."""
    used = used_names(calling)
    functions = defined_functions(defining).items()
    return sorted(qualified for qualified, name in functions if name not in used)


def python_files(*tops: Path) -> list[Path]:
    return sorted(path for top in tops for path in top.rglob("*.py"))


def repository_unreached() -> list[str]:
    return unreached(
        python_files(ROOT / "src" / "repro"), python_files(*(ROOT / top for top in CALLER_DIRS))
    )


def test_every_function_is_named_outside_the_tests():
    extra = sorted(set(repository_unreached()) - set(ALLOWED))
    assert extra == [], "delete each, or give it a caller in src/, perfbench/, tools/, ..."


def test_the_allowlist_only_shrinks():
    stale = sorted(set(ALLOWED) - set(repository_unreached()))
    assert stale == [], "each of these has a caller now or is gone: drop its entry"
    assert len(ALLOWED) <= 8


def test_the_scan_catches_an_orphan_and_not_an_import_or_export(tmp_path):
    library = tmp_path / "library.py"
    library.write_text(
        "__all__ = ['exported', 'called', 'Box']\n"
        "def exported():\n"
        "    return 0\n"
        "def called():\n"
        "    return 1\n"
        "def outer():\n"
        "    def inner():\n"
        "        return 2\n"
        "    return inner()\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 3\n"
        "    def method(self):\n"
        "        return self.size\n"
        "    def spanned(self):\n"
        "        return 4\n"
        "    def orphan(self):\n"
        "        return 5\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import library\n"
        "from library import Box, called, exported\n"
        "called()\n"
        "library.outer()\n"
        "Box().method()\n"
        "SPANS = ('library:Box.spanned',)\n"
    )
    assert unreached([library], [library, caller]) == ["Box.orphan", "exported"]
