#!/usr/bin/env python3
"""Docs checks run by CI (and ``tests/test_docs.py``).

Three checks, all offline:

1. **Link check** — every relative markdown link in ``README.md`` and
   ``docs/*.md`` must resolve to an existing file (external ``http(s)``/
   ``mailto`` links and pure anchors are skipped; anchors on relative links
   are stripped before resolution).
2. **Registry table check** — the experiments table embedded in
   ``docs/experiments.md`` between the ``experiments-table`` markers must
   match ``recpipe list --format markdown`` exactly, so a registry entry
   cannot land without regenerating the docs.
3. **Knob table check** — the flag tables of ``sweep``/``route``/``capacity``
   in ``docs/cli.md`` and the scenario-key table in ``docs/experiments.md``,
   each between ``knob-table:<name>`` markers, must match the generators in
   :mod:`repro.scenarios.knobs`; a stale block prints the table to paste.

Exit status 0 when all pass; 1 with one finding per stale or broken item
otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE_BEGIN = "<!-- experiments-table:begin -->"
TABLE_END = "<!-- experiments-table:end -->"

#: Inline markdown links: [text](target) — images share the same syntax.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_files() -> list[Path]:
    """README plus every markdown page under docs/."""
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def check_links() -> list[str]:
    """Every relative link in the docs set resolves to an existing file."""
    errors = []
    for path in doc_files():
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for target in LINK_PATTERN.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                relative = target.split("#", 1)[0]
                if not relative:
                    continue
                resolved = (path.parent / relative).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: broken link {target!r}"
                    )
    return errors


def generated_table() -> str:
    """The registry table as ``recpipe list --format markdown`` prints it."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import format_markdown_listing
    from repro.experiments.registry import default_registry

    return format_markdown_listing(default_registry().select())


def committed_table() -> str | None:
    """The table committed between the markers in docs/experiments.md."""
    text = (REPO_ROOT / "docs" / "experiments.md").read_text()
    begin = text.find(TABLE_BEGIN)
    end = text.find(TABLE_END)
    if begin == -1 or end == -1 or end < begin:
        return None
    return text[begin + len(TABLE_BEGIN) : end].strip()


def check_experiments_table() -> list[str]:
    """docs/experiments.md embeds exactly the current registry table."""
    committed = committed_table()
    if committed is None:
        return [
            f"docs/experiments.md: missing {TABLE_BEGIN!r}/{TABLE_END!r} markers"
        ]
    if committed != generated_table():
        return [
            "docs/experiments.md: experiments table is stale — regenerate with "
            "`PYTHONPATH=src python -m repro list --format markdown` and paste "
            "it between the experiments-table markers"
        ]
    return []


#: Generated knob tables: (docs page, marker name).
KNOB_TABLES = (
    ("cli.md", "sweep"),
    ("cli.md", "route"),
    ("cli.md", "capacity"),
    ("experiments.md", "keys"),
)


def generated_knob_table(name: str) -> str:
    """A knob table as :mod:`repro.scenarios.knobs` generates it."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.scenarios import knobs

    return knobs.key_table() if name == "keys" else knobs.flag_table(name)


def committed_block(page: str, name: str) -> str | None:
    """The text between a page's ``knob-table:<name>`` markers (None: no markers)."""
    text = (REPO_ROOT / "docs" / page).read_text()
    begin, end = f"<!-- knob-table:{name}:begin -->", f"<!-- knob-table:{name}:end -->"
    start, stop = text.find(begin), text.find(end)
    if start == -1 or stop < start:
        return None
    return text[start + len(begin) : stop].strip()


def check_knob_tables() -> list[str]:
    """Every generated knob table in the docs matches the knob table."""
    errors = []
    for page, name in KNOB_TABLES:
        committed = committed_block(page, name)
        if committed is None:
            errors.append(f"docs/{page}: missing knob-table:{name} markers")
            continue
        expected = generated_knob_table(name)
        if committed != expected:
            errors.append(
                f"docs/{page}: the knob-table:{name} block is stale; paste this "
                f"between its markers:\n{expected}"
            )
    return errors


def main() -> int:
    errors = check_links() + check_experiments_table() + check_knob_tables()
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print(f"docs ok: {len(doc_files())} files, links resolve, registry and knob tables current")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
