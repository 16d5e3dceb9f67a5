"""Package hygiene: the public names resolve, no module keeps an import it
never uses, and no module-level function or class goes unused."""

import ast
from collections import Counter
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


PERFBENCH = SRC.parents[1] / "perfbench"


def read_names(tree):
    """Every name an expression of ``tree`` reads, as a variable or as an
    attribute, with one entry per reading."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced_definitions(sources, readers, public):
    """(module, name) of every module-level function and class of
    ``sources`` (module name -> source text) that is not in ``public``, is
    read nowhere in ``sources`` outside its own definition, and is not read
    by ``readers`` (source texts, which may also name it in a dotted
    string, as ``perfbench/tracer.py`` does)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = Counter(name for tree in trees.values() for name in read_names(tree))
    outside = set()
    for text in readers:
        tree = ast.parse(text)
        outside.update(read_names(tree))
        outside.update(part for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       for part in node.value.split("."))
    found = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = Counter(read_names(node))[node.name]
            if node.name not in public and read[node.name] == own and node.name not in outside:
                found.append((module, node.name))
    return found


def test_unreferenced_definitions_are_found():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    return dead()\n\nclass Traced:\n    pass\n",
        "b": "from a import used\n\ndef public():\n    return used()\n",
    }
    reader = "WRAPS = [('a', 'Traced.method')]\n"
    assert unreferenced_definitions(sources, [reader], {"public"}) == [("a", "dead")]
    assert unreferenced_definitions(sources, [], {"public"}) == [("a", "dead"), ("a", "Traced")]


def test_every_definition_is_public_used_or_read_by_perfbench():
    # the package's module __getattr__ (PEP 562), which loads the oracle's
    # names on first use, is called by the import system, never by name
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert readers
    public = set(greenrefl.__all__) | {"__getattr__"}
    assert unreferenced_definitions(sources, readers, public) == []


def test_the_oracle_is_loaded_only_on_use():
    # importing the command line loads no brute-force oracle; the package
    # hands its names out on first use
    import os
    import subprocess
    import sys

    code = ("import sys, greenrefl.cli; assert 'greenrefl.oracle' not in sys.modules; "
            "from greenrefl import BruteForceGroup; assert 'greenrefl.oracle' in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_a_call_loads_no_dataclasses_and_fills_only_its_sub_parser():
    # start-up cost: in a bare interpreter, importing the command line and
    # parsing one call loads none of these modules, and of the sub-parsers
    # only the one of the command that runs holds more than its -h
    import os
    import subprocess
    import sys

    code = (
        "import argparse, sys, greenrefl.cli as cli\n"
        "argv = ['green', '--e', '3', '--p', '3', '--n', '3']\n"
        "parser = cli.build_parser(argv)\n"
        "parser.parse_args(argv)\n"
        "action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))\n"
        "print([m for m in ('dataclasses', 'inspect', 'tempfile', 'greenrefl.oracle')\n"
        "       if m in sys.modules])\n"
        "print([name for name, sub in action.choices.items() if len(sub._actions) > 1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "['green']"]
