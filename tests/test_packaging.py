"""The declared runtime dependencies are exactly the packages the source
imports, the ``test`` extra exactly the third-party packages the tests
import, every module-level import of the package and the tests is used,
and every module-level definition is referenced elsewhere in the package."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nilentropy").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported_names(path):
    """Top-level names of every absolute import in ``path``, nested ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def _declared(extra=None):
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    deps = project["dependencies"] if extra is None else project["optional-dependencies"][extra]
    return {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0] for dep in deps}


def test_declared_dependencies_are_the_imported_ones():
    assert SOURCES
    declared = _declared()
    imported = set()
    for path in SOURCES:
        names = _imported_names(path)
        undeclared = names - set(sys.stdlib_module_names) - declared - {"nilentropy"}
        assert not undeclared, f"{path.name} imports undeclared {sorted(undeclared)}"
        imported |= names
    assert declared <= imported, f"declared but never imported: {sorted(declared - imported)}"


def test_test_extra_declares_what_the_tests_import():
    assert TESTS
    declared = _declared("test")
    local = {"nilentropy"} | {path.stem for path in TESTS}
    imported = set()
    for path in TESTS:
        names = _imported_names(path) - set(sys.stdlib_module_names) - local
        assert names <= declared, f"{path.name} imports undeclared {sorted(names - declared)}"
        imported |= names
    assert declared <= imported, f"declared but never imported: {sorted(declared - imported)}"


def _unused_imports(path):
    """Names bound by module-level imports of ``path`` that nothing else in
    the module mentions."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_module_imports():
    # the package's __init__ imports only to re-export
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    modules += TESTS
    assert modules
    for path in modules:
        unused = _unused_imports(path)
        assert not unused, f"{path.name} never uses {unused}"


# kept unreferenced on purpose: the independent oracle the tests compare against
UNREFERENCED_OK = {("assoc", "magnus_normal_form")}


def _mentioned(node):
    """Names a statement reads: loaded names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_module_level_definition_is_referenced():
    statements = [(path.stem, node) for path in SOURCES
                  for node in ast.parse(path.read_text(), str(path)).body]
    mentions = [(node, _mentioned(node)) for _, node in statements]
    unreferenced = {
        (module, node.name) for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        # referenced by any top-level statement of the package but its own
        and not any(node.name in names for other, names in mentions if other is not node)
    }
    assert unreferenced == UNREFERENCED_OK
