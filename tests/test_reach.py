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
  passed by some call of that callee: by keyword, by position, or through
  `*` or `**`.  `cli.main(argv=)` is exempt: it is the console-script entry
  point, which the tests call with arguments;
* every parameter default is relied on: some call of that callee leaves the
  parameter out.  A default that only tests leave out is a value the system
  always passes; make it required.

A call `f(...)` or `x.f(...)` is a call of the top-level function `f`.  A
method call is keyed by the class of its receiver where that is known:
`self.f(...)` or `super().f(...)` inside a class, `C.f(x, ...)` (whose first
argument is the instance) and `x.f(...)` where `x` is bound from a
constructor call `x = C(...)` in the same function.  The callee is then the
`f` that `C`'s bases give it.  Any other `x.f(...)` counts for no method, so
a call of `Conv2d.backward` does not make `ToyRegressor.backward`'s defaults
look passed or relied on.

Strings and comments do not count, and neither does the definition itself.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "otkd").glob("*.py"))
SYSTEM = LIBRARY + sorted((ROOT / "bench").glob("*.py"))
_WHOLE_READS = {"fields", "astuple", "asdict"}


_ENTRY_POINT = {"cli:main(argv=)"}


def _parse(planted=None):
    """Path -> module tree of every system file; `planted` maps a path to
    source text that stands in for the file's."""
    planted = planted or {}
    return {path: ast.parse(planted.get(path) or path.read_text())
            for path in SYSTEM}


def _definitions(trees):
    """(module:qualified name, node, class name or None) of every top-level
    function and class and every non-dunder method of the library."""
    for path in LIBRARY:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}:{node.name}", node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield f"{path.stem}:{node.name}.{item.name}", item, node.name


def _bare_name(node):
    """`f` for a `Name` f or an `Attribute` x.f."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_bare_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
               for dec in node.decorator_list)


def _fields(trees):
    """(module:class.field, class name, field name) of every dataclass field."""
    for path in LIBRARY:
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                        yield f"{path.stem}:{node.name}.{name}", node.name, name


def _defaulted_parameters(trees):
    """(module:qualified name(parameter=), callee key, parameter, position
    among the caller's positional arguments or None) of every parameter with
    a default; a method's positions start after `self`.  The key is (class
    name or None, bare name), as `_passes` keys calls."""
    for label, node, cls in _definitions(trees):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = (args.posonlyargs + args.args)[cls is not None:]
        defaulted = [(arg, i) for i, arg in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(arg, None) for arg, default
                      in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        for arg, position in defaulted:
            yield f"{label}({arg.arg}=)", (cls, node.name), arg.arg, position


def _classes(trees):
    """Class name -> (base names, method names) of every system class."""
    out = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                out[node.name] = ([_bare_name(b) for b in node.bases],
                                  {item.name for item in node.body
                                   if isinstance(item, ast.FunctionDef)})
    return out


def _owner(classes, names, method):
    """The first system class that defines `method`, searching each of
    `names` and then its bases in order, or None."""
    for cls in names:
        if cls in classes:
            bases, methods = classes[cls]
            owner = cls if method in methods else _owner(classes, bases, method)
            if owner:
                return owner
    return None


def _constructed(nodes, classes):
    """Name -> class of the names that `nodes` bind only from constructor
    calls of one system class."""
    kinds = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            value = node.value
            cls = _bare_name(value.func) if isinstance(value, ast.Call) else None
            for target in node.targets:
                if isinstance(target, ast.Name):
                    kinds.setdefault(target.id, set()).add(
                        cls if cls in classes else None)
    return {name: kind.pop() for name, kind in kinds.items()
            if len(kind) == 1 and None not in kind}


def _callee(call, classes, cls, bound):
    """(callee key or None, positional arguments the instance takes up)."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return (None, _bare_name(func)), 0
    receiver, name = func.value, func.attr
    if isinstance(receiver, ast.Name) and receiver.id == "self" and cls:
        owner, shift = _owner(classes, [cls], name), 0
    elif (isinstance(receiver, ast.Call) and _bare_name(receiver.func) == "super"
          and cls):
        owner, shift = _owner(classes, classes[cls][0], name), 0
    elif isinstance(receiver, ast.Name) and receiver.id in classes:
        owner, shift = _owner(classes, [receiver.id], name), 1
    elif isinstance(receiver, ast.Name) and receiver.id in bound:
        owner, shift = _owner(classes, [bound[receiver.id]], name), 0
    else:
        return (None, name), 0
    return ((owner, name) if owner else None), shift


def _passes(trees):
    """Callee key -> list of (keyword names, with None for `**`, positional
    argument count, whether a `*` argument is passed)."""
    classes = _classes(trees)
    passes = {}

    def visit(node, cls, bound):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, bound)
                continue
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                visit(child, cls, {**bound, **_constructed(ast.walk(child), classes)})
                continue
            if isinstance(child, ast.Call):
                key, shift = _callee(child, classes, cls, bound)
                if key is not None:
                    starred = any(isinstance(a, ast.Starred) for a in child.args)
                    passes.setdefault(key, []).append(
                        ({kw.arg for kw in child.keywords},
                         max(len(child.args) - shift, 0), starred))
            visit(child, cls, bound)

    for tree in trees.values():
        visit(tree, None, _constructed(tree.body, classes))
    return passes


def _is_passed(calls, parameter, position) -> bool:
    return any(parameter in keywords or None in keywords
               or (position is not None and (count > position or starred))
               for keywords, count, starred in calls)


def _omits(calls, parameter, position) -> bool:
    return any(parameter not in keywords and None not in keywords
               and (position is None or (count <= position and not starred))
               for keywords, count, starred in calls)


def _uses(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def _reads(trees):
    """(attribute names read other than as a method call, names of the
    classes whose fields are read all at once)."""
    attrs, whole = set(), set()
    for tree in trees.values():
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


def _unpassed(trees):
    passes = _passes(trees)
    return [label for label, key, parameter, position in _defaulted_parameters(trees)
            if label not in _ENTRY_POINT
            and not _is_passed(passes.get(key, []), parameter, position)]


def _always_passed(trees):
    passes = _passes(trees)
    return [label for label, key, parameter, position in _defaulted_parameters(trees)
            if not _omits(passes.get(key, []), parameter, position)]


def test_every_definition_is_reached():
    trees = _parse()
    used = _uses(trees)
    unreached = [label for label, node, _ in _definitions(trees)
                 if node.name not in used]
    assert unreached == []


def test_every_dataclass_field_is_read():
    trees = _parse()
    attrs, whole = _reads(trees)
    unread = [label for label, cls, name in _fields(trees)
              if name not in attrs and cls not in whole]
    assert unread == []


def test_every_defaulted_parameter_is_passed():
    assert _unpassed(_parse()) == []


def test_every_default_is_relied_on():
    assert _always_passed(_parse()) == []


def test_method_calls_count_for_their_class_only():
    # a planted default that only tests would leave out: the system's
    # one-argument `backward` calls are `Conv2d`'s, on receivers whose class
    # is not known here, and `harness.total_loss` passes `dfeats`
    path = ROOT / "src" / "otkd" / "regressor.py"
    source = path.read_text()
    planted = source.replace("dfeats: np.ndarray | None) -> None:",
                             "dfeats: np.ndarray | None = None) -> None:")
    assert planted != source
    label = "regressor:ToyRegressor.backward(dfeats=)"
    assert label in _always_passed(_parse({path: planted}))
