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

MODULES = sorted(Path(mgtlab.__file__).parent.glob("*.py"))


def names(node) -> Counter:
    """How often each identifier is named (an AST Name or Attribute) below node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
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


def test_every_export_is_used_inside_the_package():
    # an exported name no module but __init__ mentions is API for the tests only
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            used.update(names(ast.parse(path.read_text())))
    exported = {name for name in mgtlab.__all__
                if not isinstance(getattr(mgtlab, name), types.ModuleType)}
    assert sorted(exported - used - REFERENCE) == []


def test_every_definition_is_named_outside_itself():
    # a function, class or public method that src/ names only inside its own
    # body (or in __init__'s re-exports) is code the package never runs
    trees = {path: ast.parse(path.read_text()) for path in MODULES
             if path.name != "__init__.py"}
    used = sum((names(tree) for tree in trees.values()), Counter())
    defined = [(f"{path.stem}.{qualname}", qualname, node)
               for path, tree in trees.items() for qualname, node in definitions(tree)]
    unused = [where for where, qualname, node in defined
              if used[node.name] == names(node)[node.name] and qualname not in REFERENCE]
    assert unused == []
    # and no reference entry outlives its definition
    assert REFERENCE <= {qualname for _, qualname, _ in defined}
