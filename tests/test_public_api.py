"""Every public function has a caller that is not its own unit test.

A function named in a module's ``__all__`` must be referred to by name in
another module of the package, in its own module outside its ``def``, in
the acceptance checks, or in the benchmark. The benchmark's tracer names
its layers by string, so there string constants count as well; elsewhere
only code counts, never a docstring or an ``__all__`` entry.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "affinegames"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node, skip=None, strings=False):
    """Names used in code under node: identifiers, attributes and imported
    names, and string constants if asked; the subtree skip is left out."""
    found = set()
    walk = [node]
    while walk:
        n = walk.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rpartition(".")[2])
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
        walk.extend(ast.iter_child_nodes(n))
    return found


def _public_functions(module):
    """The functions a module's literal __all__ names, each with its def (the
    package's computed __all__ defines none)."""
    exported = set()
    for stmt in module.body:
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.List)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        ):
            exported = set(ast.literal_eval(stmt.value))
    return {
        stmt.name: stmt
        for stmt in module.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in exported
    }


def test_every_public_function_has_a_caller():
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = _names(_parse(ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        outside |= _names(_parse(path), strings=True)
    uncalled = []
    for name, module in modules.items():
        elsewhere = set(outside)
        for other, tree in modules.items():
            if other != name:
                elsewhere |= _names(tree)
        for fn, node in _public_functions(module).items():
            if fn not in elsewhere and fn not in _names(module, skip=node):
                uncalled.append(f"{name}.{fn}")
    assert uncalled == []
