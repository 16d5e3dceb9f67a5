"""Package hygiene: the public names resolve, and no module keeps an import
it never uses."""

import ast
from pathlib import Path

import greenrefl

SRC = Path(greenrefl.__file__).resolve().parent


def test_public_names_resolve_once():
    names = greenrefl.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(greenrefl, name)]
    assert missing == []


def unused_imports(source):
    """The names bound by module-level imports of ``source`` that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_are_found():
    source = "from math import gcd, lcm\nimport os\n\nx = gcd(4, 6)\n"
    assert unused_imports(source) == [(1, "lcm"), (2, "os")]


def test_no_module_keeps_an_unused_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {}
    for path in modules:
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}
