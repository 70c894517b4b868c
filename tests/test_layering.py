"""Layering guard: packages import downward only.

The serving layer sits below the core layer (core builds plans that serving
simulates), and the scenario runner sits below the experiment registry (the
registry wraps scenario cells as specs).  A runtime import against either
direction would need a lazy-import workaround to avoid a cycle, so none may
exist; imports under ``if TYPE_CHECKING:`` are annotation-only and allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def runtime_imports(path: Path) -> set[str]:
    """Every absolute module a file imports at runtime (module top or lazily)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    type_only = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            type_only.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
    modules = set()
    for node in ast.walk(tree):
        if id(node) in type_only:
            continue
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def offending(package: str, forbidden: str) -> dict[str, list[str]]:
    """Files under ``src/repro/<package>`` importing ``forbidden`` (or a submodule)."""
    found = {}
    for path in sorted((SRC / package).rglob("*.py")):
        hits = sorted(
            name
            for name in runtime_imports(path)
            if name == forbidden or name.startswith(f"{forbidden}.")
        )
        if hits:
            found[str(path.relative_to(SRC))] = hits
    return found


@pytest.mark.parametrize(
    "package, forbidden",
    [("serving", "repro.core"), ("scenarios", "repro.experiments.registry")],
)
def test_no_runtime_upward_import(package, forbidden):
    assert offending(package, forbidden) == {}


def test_event_log_imports_nothing_from_the_package():
    assert not [name for name in runtime_imports(SRC / "events.py") if name.startswith("repro")]


def test_the_scan_sees_lazy_and_type_only_imports(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.pipeline import PipelineConfig\n"
        "def lazy():\n"
        "    from repro import core\n"
    )
    assert "repro.core" in runtime_imports(module)
    assert "repro.core.pipeline" not in runtime_imports(module)
