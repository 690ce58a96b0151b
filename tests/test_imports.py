"""Every name a ``dx`` module, a test or a demo imports is used in that
file, and every private module-level function or class of ``dx`` is used
somewhere in it.

A stdlib stand-in for an unused-import and dead-code lint: each module of
``src/dx`` except the package ``__init__`` (which imports to re-export),
each ``tests/*.py`` and each ``demos/*.py`` is parsed with ``ast``, and
every imported name must occur as a name in the file's code, quoted
annotations included.  A private definition (a name with one leading
underscore) must occur as a name in the code of some module of the package.
"""

import ast
from pathlib import Path

import pytest

import dx

PACKAGE = sorted(Path(dx.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = Path(__file__).resolve().parent
SCRIPTS = sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "demos").glob("*.py"))


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def referenced_names(tree: ast.Module):
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names |= referenced_names(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda p: p.name if p in MODULES else f"{p.parent.name}/{p.name}",
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from .errors import NotGround, DxError\n"
        "def f(x: 'Instance') -> None:\n"
        "    raise DxError(x)\n"
    )
    used = referenced_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["NotGround"]


def private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno


def test_every_private_definition_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    used = set().union(*map(referenced_names, trees.values()))
    unused = [
        f"{name} ({module}, line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in used
    ]
    assert not unused, f"private definitions nothing in dx uses: {', '.join(unused)}"


def test_scan_flags_an_unreferenced_private_definition():
    tree = ast.parse(
        "def _rank(x):\n"
        "    return x\n"
        "def _renamed(x):\n"
        "    return x\n"
        "class _Used:\n"
        "    pass\n"
        "def public():\n"
        "    return _Used().attr, obj._renamed\n"
    )
    used = referenced_names(tree)
    # an attribute of the same name is not a use of the module-level one
    assert [n for n, _ in private_definitions(tree) if n not in used] == ["_rank", "_renamed"]
