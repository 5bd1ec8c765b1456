"""Every function, class and method the library defines is used somewhere in
the system: the library itself or the benchmark.  A name that only tests
reach is dead code; wire it in or delete it.

A use is a `Name` or `Attribute` node or an import of the name; strings and
comments do not count, and neither does the definition itself.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "otkd").glob("*.py"))
SYSTEM = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def _definitions():
    """(module:qualified name, bare name) of every top-level function and
    class and every non-dunder method."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield f"{path.stem}:{node.name}.{item.name}", item.name


def _uses():
    names = set()
    for path in SYSTEM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_reached():
    used = _uses()
    unreached = [label for label, name in _definitions() if name not in used]
    assert unreached == []
