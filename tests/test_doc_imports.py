"""Lint: every ``from repro… import …`` in a Python code block of README.md
or ``docs/*.md`` names something that exists.

A doc example that imports a deleted name fails for every reader who
copies it, so each imported name must resolve: as an attribute of the
module, or as one of its submodules.  Parenthesized imports that span
several lines are read whole.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))

#: A fenced code block labelled as Python, and its body.
CODE_BLOCK = re.compile(
    r"^```(?:python|py|pycon)[ \t]*\n(.*?)^```", re.MULTILINE | re.DOTALL
)
#: One ``from repro… import …`` statement: its module and its name list,
#: either parenthesized (possibly over several lines) or to the line end.
FROM_IMPORT = re.compile(
    r"^[ \t]*(?:>>> |\.\.\. )?from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+"
    r"(\([^)]*\)|[^\n]*)",
    re.MULTILINE,
)


def doc_imports(text):
    """``(module, name)`` for each name a ``from repro… import`` line of a
    Python code block in ``text`` imports."""
    found = []
    for block in CODE_BLOCK.findall(text):
        for module, names in FROM_IMPORT.findall(block):
            names = re.sub(r"#[^\n]*", "", names).strip("()")
            for name in names.split(","):
                name = name.split(" as ")[0].strip()
                if name:
                    found.append((module, name))
    return found


def unresolved(imports):
    """The ``module.name`` of every import that does not resolve."""
    missing = []
    for module_name, name in imports:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append("%s.%s" % (module_name, name))
            continue
        if name == "*" or hasattr(module, name):
            continue
        try:
            importlib.import_module("%s.%s" % (module_name, name))
        except ImportError:
            missing.append("%s.%s" % (module_name, name))
    return missing


@pytest.mark.parametrize("path", DOCS, ids=lambda path: path.name)
def test_doc_imports_resolve(path):
    missing = unresolved(doc_imports(path.read_text()))
    assert missing == [], "%s imports names that do not exist: %s" % (
        path.name, missing
    )


def test_the_docs_have_imports_to_check():
    assert len(doc_imports((ROOT / "docs" / "TUTORIAL.md").read_text())) > 5


SAMPLE = '''
Text, and a shell block the lint skips:

```bash
from repro.nowhere import nothing
```

```python
from repro.telemetry import render_metrics, to_json_lines
from repro.overload import (
    AdmissionPolicy,   # a comment
    BoundedQueue as Queue,
)
from repro import telemetry
```
'''


def test_parenthesized_and_aliased_imports_are_read_whole():
    assert doc_imports(SAMPLE) == [
        ("repro.telemetry", "render_metrics"),
        ("repro.telemetry", "to_json_lines"),
        ("repro.overload", "AdmissionPolicy"),
        ("repro.overload", "BoundedQueue"),
        ("repro", "telemetry"),
    ]


def test_a_missing_name_is_reported():
    assert unresolved(doc_imports(SAMPLE)) == ["repro.telemetry.to_json_lines"]
