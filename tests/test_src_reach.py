"""src holds only the program: each name it defines is reached by the program.

Code that only tests call belongs in ``tests/`` (as ``reference.py`` holds the
scalar oracles), and code that nothing calls is deleted.  A module-level
function or class, or a non-dunder method, counts as reached when the code
of a src module other than ``__init__.py`` names it (a variable, attribute
or import, not a comment or string) or when it occurs as a word in
``perfbench/*.py``, whose tracer wraps functions by name.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            methods = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
            yield from (m for m in methods if not (m.startswith("__") and m.endswith("__")))


def named_in_code(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def test_every_src_name_is_reached_by_the_program():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "sparsekern").glob("*.py"))
    }
    named = {
        name for file, tree in trees.items() if file != "__init__.py" for name in named_in_code(tree)
    }
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unreached = [
        f"{file}: {name}"
        for file, tree in trees.items()
        for name in defined_names(tree)
        if name not in named and not re.search(rf"\b{name}\b", bench)
    ]
    assert not unreached, "reached by tests or by nothing: " + ", ".join(unreached)
