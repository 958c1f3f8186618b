"""Every name that a module of ``src/pappuslab`` imports is used in it,
every private module-level name it defines is read in the package, and
no module of the package or the tests imports a third-party package that
``pyproject.toml`` does not declare.

No linter is part of the test run, and deleting code tends to leave its
imports and helpers behind; these are the lint rules the suite enforces.
A private helper that only the tests still read is dead code too.
"""

import ast
import re
import sys
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


def defined_names(tree):
    """Names bound by the module's top-level statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def read_names(tree):
    """Names the module reads, bare or as an attribute (``sc._wrap``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in read_names(tree)}
    unread = [
        "%s: %s" % (module, name)
        for module, tree in trees.items()
        for name in defined_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert not unread, "private names that no module of the package reads: " + ", ".join(unread)


ROOT = SRC.parent.parent
TESTS = ROOT / "tests"


def declared_distributions():
    """Names of the requirements in pyproject.toml's ``dependencies`` and
    ``[project.optional-dependencies]`` arrays (read as text: tomllib is
    not in Python 3.10), lowercased with ``-`` as ``_``."""
    names, in_optional, in_array = set(), False, False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            in_optional, in_array = line == "[project.optional-dependencies]", False
            continue
        if line.startswith("dependencies") or (in_optional and "=" in line):
            in_array = True
        if in_array:
            for requirement in re.findall(r'"([^"]+)"', line):
                names.add(re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_"))
            if "]" in line:
                in_array = False
    return names


def test_pyproject_declares_the_known_requirements():
    # the parse above finds what the file declares today
    assert declared_distributions() == {"mpmath", "pytest", "hypothesis", "numpy"}


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: "%s/%s" % (p.parent.name, p.name)
)
def test_no_undeclared_third_party_imports(path):
    # sympy and scipy may be installed where the suite runs; nothing may
    # rely on them, or on any package pyproject.toml does not declare
    first_party = {"pappuslab"} | {p.stem for p in TESTS.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | first_party | declared_distributions()
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots <= allowed, "%s imports undeclared %s" % (path.name, ", ".join(sorted(roots - allowed)))
