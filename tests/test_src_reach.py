"""src holds only the program: each name it defines is reached by the program.

Code that only tests call belongs in ``tests/`` (as ``reference.py`` holds the
scalar oracles), and code that nothing calls is deleted.  The check walks
the program transitively from its entry points: the console script that
``pyproject.toml`` names, ``experiments.run_experiment``, the code each src
module runs at import, and every src name that occurs as a word in
``perfbench/*.py``, whose tracer wraps functions by name.

A reached definition reaches each name its code names (a variable,
attribute or import, not a comment or string), and a name reaches every
definition of it in src: module-level functions, classes and assignments,
and methods.  Names are matched without types, so a method is reached when
any reached code names an attribute of its name.  A reached class also
reaches its bases, decorators, class-level statements and dunder methods,
which Python calls for it.  Every module-level function, class and
assignment and every method, dunders aside, must be reached.
"""

import ast
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def named_in_code(nodes):
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield from sub.name.split(".")


def definitions(tree):
    """(name, the code that reaching it runs, whether the check covers it) per definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, [node], True
        elif isinstance(node, ast.ClassDef):
            implicit = [*node.bases, *node.keywords, *node.decorator_list]
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if method and not _dunder(item.name):
                    yield item.name, [item], True
                else:
                    implicit.append(item)
            yield node.name, implicit, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, [node.value] if node.value else [], not _dunder(sub.id)


def import_time_code(tree):
    """Module-level statements that are neither definitions nor imports: they run at import."""
    skip = (
        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign,
        ast.AugAssign, ast.Import, ast.ImportFrom,
    )
    return [node for node in tree.body if not isinstance(node, skip)]


def test_every_src_name_is_reached_by_the_program():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "sparsekern").glob("*.py"))
    }
    code = defaultdict(list)  # name -> the code of its definitions
    checked = []
    for file, tree in trees.items():
        for name, nodes, covered in definitions(tree):
            code[name].extend(nodes)
            if covered:
                checked.append((file, name))

    script = re.search(r'=\s*"sparsekern\.cli:(\w+)"', (ROOT / "pyproject.toml").read_text())
    assert script, "pyproject.toml names no sparsekern.cli console script"
    bench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    todo = [script.group(1), "run_experiment"]
    todo += [name for name in code if re.search(rf"\b{name}\b", bench)]
    todo += list(named_in_code(node for tree in trees.values() for node in import_time_code(tree)))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(named_in_code(code.get(name, [])))

    unreached = [f"{file}: {name}" for file, name in checked if name not in reached]
    assert not unreached, "reached by tests or by nothing: " + ", ".join(unreached)
