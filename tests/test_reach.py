"""Everything the library defines is used somewhere in the system: the library
itself or the benchmark.  A name that only tests reach is dead code; wire it
in or delete it.

Four checks:

* every top-level function and class and every non-dunder method is used:
  a `Name` or `Attribute` node or an import of the name;
* every dataclass field is read: an `Attribute` load of its name that is not
  a method call, or a call of `fields`, `astuple` or `asdict` (as
  `dataclasses.fields(...)` or a bare `fields(...)`) on the class's name,
  which reads all of its fields at once.  Constructor keywords, stores and
  the class body do not count;
* every parameter with a default, of a top-level function or a method, is
  passed by some call of a callee of that bare name: by keyword, by
  position, or through `*` or `**`.  `cli.main(argv=)` is exempt: it is
  the console-script entry point, which the tests call with arguments;
* every parameter default is relied on: some call of a callee of that bare
  name leaves the parameter out.  A default that only tests leave out is a
  value the system always passes; make it required.

Strings and comments do not count, and neither does the definition itself.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "otkd").glob("*.py"))
SYSTEM = LIBRARY + sorted((ROOT / "bench").glob("*.py"))
_WHOLE_READS = {"fields", "astuple", "asdict"}


_ENTRY_POINT = {"cli:main(argv=)"}


def _definitions():
    """(module:qualified name, node, whether a method) of every top-level
    function and class and every non-dunder method."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}:{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield f"{path.stem}:{node.name}.{item.name}", item, True


def _bare_name(node):
    """`f` for a `Name` f or an `Attribute` x.f."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_bare_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
               for dec in node.decorator_list)


def _fields():
    """(module:class.field, class name, field name) of every dataclass field."""
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                        yield f"{path.stem}:{node.name}.{name}", node.name, name


def _defaulted_parameters():
    """(module:qualified name(parameter=), bare name, parameter, position
    among the caller's positional arguments or None) of every parameter with
    a default; a method's positions start after `self`."""
    for label, node, is_method in _definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = (args.posonlyargs + args.args)[is_method:]
        defaulted = [(arg, i) for i, arg in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(arg, None) for arg, default
                      in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        for arg, position in defaulted:
            yield f"{label}({arg.arg}=)", node.name, arg.arg, position


def _passes():
    """Bare callee name -> list of (keyword names, with None for `**`,
    positional argument count, whether a `*` argument is passed)."""
    passes = {}
    for path in SYSTEM:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                passes.setdefault(_bare_name(node.func), []).append(
                    ({kw.arg for kw in node.keywords}, len(node.args), starred))
    return passes


def _is_passed(calls, parameter, position) -> bool:
    return any(parameter in keywords or None in keywords
               or (position is not None and (count > position or starred))
               for keywords, count, starred in calls)


def _omits(calls, parameter, position) -> bool:
    return any(parameter not in keywords and None not in keywords
               and (position is None or (count <= position and not starred))
               for keywords, count, starred in calls)


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


def _reads():
    """(attribute names read other than as a method call, names of the
    classes whose fields are read all at once)."""
    attrs, whole = set(), set()
    for path in SYSTEM:
        tree = ast.parse(path.read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        methods = {id(call.func) for call in calls}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in methods):
                attrs.add(node.attr)
        for call in calls:
            if _bare_name(call.func) in _WHOLE_READS:
                whole.update(arg.id for arg in call.args if isinstance(arg, ast.Name))
    return attrs, whole


def test_every_definition_is_reached():
    used = _uses()
    unreached = [label for label, node, _ in _definitions() if node.name not in used]
    assert unreached == []


def test_every_dataclass_field_is_read():
    attrs, whole = _reads()
    unread = [label for label, cls, name in _fields()
              if name not in attrs and cls not in whole]
    assert unread == []


def test_every_defaulted_parameter_is_passed():
    passes = _passes()
    unpassed = [label for label, name, parameter, position in _defaulted_parameters()
                if label not in _ENTRY_POINT
                and not _is_passed(passes.get(name, []), parameter, position)]
    assert unpassed == []


def test_every_default_is_relied_on():
    passes = _passes()
    always_passed = [label for label, name, parameter, position
                     in _defaulted_parameters()
                     if not _omits(passes.get(name, []), parameter, position)]
    assert always_passed == []
