"""The package's module boundaries, read from its source.

rotsurf.text is the one module that knows how files are read and written:
no other module opens a file, and text imports no module of the package.
No module holds a '.17g' format: every float is written as orjson's text.
Only text imports orjson, inside its functions.
"""

import ast
from pathlib import Path

import pytest

import rotsurf

SOURCES = sorted(Path(rotsurf.__file__).parent.glob("*.py"))


def docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, owners) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def format_texts(tree):
    """The string and bytes constants outside docstrings that hold '.17g'."""
    skip = {id(node) for node in docstrings(tree)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and id(node) not in skip
                and isinstance(node.value, (str, bytes))):
            text = node.value.decode("latin-1") if isinstance(node.value, bytes) else node.value
            if ".17g" in text:
                yield node.lineno


def open_calls(tree):
    """The lines that call open, as a name or as an attribute (io.open, Path.open)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                yield node.lineno


def package_imports(tree):
    """The lines of relative imports and imports of rotsurf."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "rotsurf":
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "rotsurf" for alias in node.names):
                yield node.lineno


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    names = {path.name for path in SOURCES}
    assert {"text.py", "profile.py", "surface.py", "cli.py"} <= names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "text.py"],
                         ids=lambda p: p.name)
def test_only_text_reads_and_writes_files(path):
    tree = parse(path)
    assert list(open_calls(tree)) == [], f"{path.name} calls open"
    assert list(format_texts(tree)) == [], f"{path.name} holds a .17g format"


def test_text_imports_no_package_module():
    tree = parse(next(p for p in SOURCES if p.name == "text.py"))
    assert list(package_imports(tree)) == []
    assert list(format_texts(tree)) == [], "text.py holds a .17g format"
    assert list(open_calls(tree))  # the check sees what it looks for


def test_format_check_sees_a_17g_format():
    # no module holds one now, so the check is tried on source that does
    tree = ast.parse('"""A docstring: .17g."""\na = f"{v:.17g}"\nb = b"%.17g" % v\n')
    assert sorted(format_texts(tree)) == [2, 3]


def orjson_imports(tree):
    """(line, inside a function) of each import of orjson."""
    in_function = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)}
    for node in ast.walk(tree):
        names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [])
        if any(name.split(".")[0] == "orjson" for name in names):
            yield node.lineno, id(node) in in_function


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_text_imports_orjson_and_on_first_use(path):
    # orjson takes milliseconds to import, so text imports it inside the
    # functions that write or read numbers: a process that only integrates,
    # such as the library's shooting path, never loads it
    found = list(orjson_imports(parse(path)))
    if path.name == "text.py":
        assert found and all(inside for _, inside in found)
    else:
        assert found == [], f"{path.name} imports orjson"
