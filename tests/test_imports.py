"""Every name that a module of ``src/pappuslab`` imports is used in it.

No linter is part of the test run, and deleting code tends to leave its
imports behind; this is the one lint rule the suite enforces.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pappuslab"
# (module, name) pairs imported for re-export, not for use
RE_EXPORTS = {("__init__.py", "errors")}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name for name in imported_names(tree) if name not in used and (path.name, name) not in RE_EXPORTS
    ]
    assert not unused, "%s imports %s and never uses it" % (path.name, ", ".join(unused))
