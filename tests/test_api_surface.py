"""The package holds only code that the package itself runs."""

import ast
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import mgtlab

MODULES = sorted(Path(mgtlab.__file__).parent.glob("*.py"))
TREES = {path: ast.parse(path.read_text()) for path in MODULES
         if path.name != "__init__.py"}
CLASSES = {node.name for tree in TREES.values() for node in tree.body
           if isinstance(node, ast.ClassDef)}


def names(node) -> Counter:
    """How often each identifier is named (an AST Name or Attribute) below node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def imported_modules(tree) -> set:
    """Names that `import x` or `import x as y` binds in a module."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}


def uses(node, modules: set) -> Counter:
    """Uses below node: "x" for a Name, ".attr" for an attribute, and
    "C.attr" for an attribute of a package class C; an attribute of an
    imported module is no use."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            owner = sub.value.id if isinstance(sub.value, ast.Name) else ""
            if owner not in modules:
                found[f"{owner if owner in CLASSES else ''}.{sub.attr}"] += 1
    return found


def definitions(tree):
    """(qualified name, node) of each module-level function and class and of
    each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_definitions() -> list:
    """Definitions that src/ uses only inside themselves.

    A function or class counts as used by its name or as an attribute; a
    method only as an attribute of its own class or of anything but a
    class or an imported module, so neither `dataclasses.field` nor
    `OtherClass.zero` keeps a method of that name alive.
    """
    used = sum((uses(tree, imported_modules(tree)) for tree in TREES.values()), Counter())
    found = []
    for path, tree in TREES.items():
        modules = imported_modules(tree)
        for qualname, node in definitions(tree):
            own = uses(node, modules)
            keys = ({node.name, "." + node.name} if qualname == node.name
                    else {qualname, "." + node.name})
            if all(used[k] == own[k] for k in keys):
                found.append(f"{path.stem}.{qualname}")
    return found


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def scope_nodes(node):
    """The nodes below node that belong to its own scope: nested functions,
    lambdas and classes are yielded but not entered."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, SCOPES):
            yield from scope_nodes(child)


def annotated_class(annotation, classes: set) -> str | None:
    """The package class that an annotation names (C, "C" or C | None)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        sides = (annotation.left, annotation.right)
        found = {annotated_class(side, classes) for side in sides} - {None}
        none = any(isinstance(side, ast.Constant) and side.value is None for side in sides)
        return found.pop() if len(found) == 1 and none else None
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    return None


def local_classes(func, owner: str | None, classes: set) -> dict:
    """{name: package class} of the names that func binds, each only where
    every binding gives that class: self in a method of owner, a parameter
    or variable annotated with a package class, or a name assigned from a
    package constructor.  Every other local name maps to None (untyped)."""
    bound = {}
    args = func.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    method = owner is not None and not isinstance(func, ast.Lambda) and not any(
        isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
        for d in func.decorator_list)
    for i, arg in enumerate(params + [a for a in (args.vararg, args.kwarg) if a]):
        is_self = method and i == 0
        bound.setdefault(arg.arg, set()).add(
            owner if is_self else annotated_class(getattr(arg, "annotation", None), classes))
    typed = set()  # the target nodes of the assignments read here
    for node in scope_nodes(func):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            typed.add(node.target)
            bound.setdefault(node.target.id, set()).add(
                annotated_class(node.annotation, classes))
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            call = node.value
            made = (call.func.id if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id in classes else None)
            typed.add(node.targets[0])
            bound.setdefault(node.targets[0].id, set()).add(made)
        elif (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
              and node not in typed):
            bound.setdefault(node.id, set()).add(None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.setdefault(node.name, set()).add(None)
    return {name: kinds.pop() if len(kinds) == 1 else None for name, kinds in bound.items()}


def field_reads(trees) -> set:
    """(class, attribute) of each attribute load in trees; the class is the
    receiver's where it is known (local_classes, also in nested scopes) and
    None where it is not."""
    classes = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    reads = set()

    def visit(scope, env, owner):
        for node in scope_nodes(scope):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                receiver = env.get(node.value.id) if isinstance(node.value, ast.Name) else None
                reads.add((receiver, node.attr))
            elif isinstance(node, ast.ClassDef):
                visit(node, {}, node.name)
            elif isinstance(node, SCOPES):
                visit(node, {**env, **local_classes(node, owner, classes)}, None)

    for tree in trees:
        visit(tree, {}, None)
    return reads


def lineage(trees) -> dict:
    """Each package class with the package classes it derives from, itself
    first."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}

    def line(name):
        return {name}.union(*(line(b) for b in bases[name] if b in bases))

    return {name: line(name) for name in bases}


def unread_fields(trees: dict = TREES) -> list:
    """Annotated class fields that no attribute load in trees reads.

    A load on a receiver of known class (field_reads) reads the field of
    that class and of the package classes it derives from; a load on any
    other receiver reads the field of that name on every class.
    """
    reads = field_reads(trees.values())
    lines = lineage(trees.values())
    readers = {}
    for receiver, attr in reads:
        readers.setdefault(attr, set()).update(lines.get(receiver, {None}))
    return [f"{path.stem}.{node.name}.{item.target.id}"
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and not readers.get(item.target.id, set()) & {None, node.name}]


def test_every_export_is_used_inside_the_package():
    # an exported name no module but __init__ mentions is API for the tests only
    used = set()
    for tree in TREES.values():
        used.update(names(tree))
    exported = {name for name in mgtlab.__all__
                if not isinstance(getattr(mgtlab, name), types.ModuleType)}
    assert sorted(exported - used) == []


def test_every_definition_is_named_outside_itself():
    # a function, class or public method that src/ uses only inside its own
    # body (or in __init__'s re-exports) is code the package never runs
    assert unused_definitions() == []


SYNTHETIC = """
class A:
    x: int
class B:
    x: int
    y: int
class C(B):
    def total(self):
        return self.y
class D:
    z: int
class E:
    z: int
def read(a: A, maybe: "A | None"):
    d = D()
    return a.x + maybe.x + d.z
"""


def test_field_reads_count_against_a_known_receiver_class():
    # a.x on an annotated A reads no B.x; self.y in subclass C reads B.y
    trees = {Path("m.py"): ast.parse(SYNTHETIC)}
    assert unread_fields(trees) == ["m.B.x", "m.E.z"]
    # an untyped receiver, or a name bound to two classes, reads every class
    for source in ("def any_x(obj):\n    return obj.x + obj.z\n",
                   "def two():\n    v = B()\n    v = E()\n    return v.x + v.z\n"):
        trees = {Path("m.py"): ast.parse(SYNTHETIC + source)}
        assert unread_fields(trees) == []


def test_every_field_is_read():
    # a record field that nothing in src/ reads is state the package never uses
    assert unread_fields() == []


def test_import_loads_no_scipy():
    # the package runs on numpy alone: scipy.signal was most of the time
    # and resident memory of `import mgtlab`
    code = ("import sys, mgtlab, mgtlab.cli, mgtlab.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(mgtlab.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[]"
