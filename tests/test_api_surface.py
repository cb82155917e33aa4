"""The package holds only code that the package itself runs."""

import ast
import types
from collections import Counter
from pathlib import Path

import mgtlab

# reference implementations that the production routes are tested against;
# each is named only in the tests, by the test cited at its entry
REFERENCE = {
    "solve_direct",  # test_volterra.py::test_direct_vs_picard_cross_method
    "solve_picard",  # test_volterra.py::test_direct_vs_picard_cross_method
    # test_modal_oracle.py::test_solve_by_modes_matches_scalar_integrate_mode
    "integrate_mode",
    "sobolev_norm",  # test_spectral.py::test_sobolev_norm_grid_agrees_with_spectral
    "lopatinskii_ratio",  # test_symbols.py::test_sweep_rows_match_pointwise_ratio
    "system_symbol",  # test_symbols.py::test_determinant_identity_random_points
    # test_modal_oracle.py::test_integrate_matches_exponential_sum
    "exact_exponential_solution",
    "FrequencyPoint.normalized",  # test_symbols.py::test_homogeneity_degree_one
}

# fields of those references that only their tests read
REFERENCE_FIELDS = {
    "SystemSymbol.G",  # test_symbols.py::test_symbol_matrix_entries
    "SystemSymbol.Ad",  # test_symbols.py::test_symbol_matrix_entries
    "PicardResult.terms_used",  # test_volterra.py::test_zero_kernel_returns_rhs
    "PicardResult.last_term_sup",  # test_volterra.py::test_picard_nonconvergence_flag
}

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
    """Definitions that src/ uses only inside themselves, REFERENCE excepted.

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
            if all(used[k] == own[k] for k in keys) and qualname not in REFERENCE:
                found.append(f"{path.stem}.{qualname}")
    return found


def unread_fields() -> list:
    """Annotated class fields that no attribute load in src/ reads,
    REFERENCE_FIELDS excepted."""
    read = {sub.attr for tree in TREES.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return [f"{path.stem}.{node.name}.{item.target.id}"
            for path, tree in TREES.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in read
            and f"{node.name}.{item.target.id}" not in REFERENCE_FIELDS]


def test_every_export_is_used_inside_the_package():
    # an exported name no module but __init__ mentions is API for the tests only
    used = set()
    for tree in TREES.values():
        used.update(names(tree))
    exported = {name for name in mgtlab.__all__
                if not isinstance(getattr(mgtlab, name), types.ModuleType)}
    assert sorted(exported - used - REFERENCE) == []


def test_every_definition_is_named_outside_itself():
    # a function, class or public method that src/ uses only inside its own
    # body (or in __init__'s re-exports) is code the package never runs
    assert unused_definitions() == []
    # and no reference entry outlives its definition
    defined = {qualname for tree in TREES.values() for qualname, _ in definitions(tree)}
    assert REFERENCE <= defined


def test_every_field_is_read():
    # a record field that nothing in src/ reads is state the package never uses
    assert unread_fields() == []
    fields = {f"{node.name}.{item.target.id}" for tree in TREES.values()
              for node in tree.body if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, ast.AnnAssign)}
    assert REFERENCE_FIELDS <= fields
