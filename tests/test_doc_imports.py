"""Every ``repro`` import the documentation shows still imports.

The prose documents name the code; a name deleted from ``src/`` must
leave them too.  This executes each ``from repro… import …`` and
``import repro…`` statement found in README.md, DESIGN.md,
EXPERIMENTS.md and docs/*.md (continuation lines included).  A
statement's test id is its file and its text, each run of whitespace
an ``_`` (an id to paste into a shell), the file marked ``#2``,
``#3``, ... for a statement it shows again — so editing a document
moves no id but that of a statement edited.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)
START = re.compile(r"^\s*(from repro[\w.]* import |import repro\b)")


def _statements(path: Path):
    lines = path.read_text().splitlines()
    seen: Counter = Counter()
    i = 0
    while i < len(lines):
        if not START.match(lines[i]):
            i += 1
            continue
        statement = lines[i].strip()
        while statement.endswith("\\") or (
            statement.count("(") > statement.count(")")
        ):
            i += 1
            statement = statement.rstrip("\\") + " " + lines[i].strip()
        text = "_".join(statement.split())
        seen[text] += 1
        ordinal = f"#{seen[text]}" if seen[text] > 1 else ""
        yield f"{path.relative_to(ROOT)}{ordinal}:{text}", statement
        i += 1


STATEMENTS = [item for path in DOCUMENTS for item in _statements(path)]


def test_the_documents_show_imports():
    assert len(STATEMENTS) >= 10


@pytest.mark.parametrize(
    "statement", [s for _, s in STATEMENTS], ids=[w for w, _ in STATEMENTS]
)
def test_documented_import_resolves(statement):
    exec(statement, {})
