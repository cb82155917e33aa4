"""The public API holds only what the package itself uses."""

import ast
import types
from pathlib import Path

import mgtlab

# reference implementations that the production routes are tested against
REFERENCE = {"solve_direct", "solve_picard", "integrate_mode", "sobolev_norm"}


def test_every_export_is_used_inside_the_package():
    # an exported name no module but __init__ mentions is API for the tests only
    used = set()
    for path in Path(mgtlab.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {name for name in mgtlab.__all__
                if not isinstance(getattr(mgtlab, name), types.ModuleType)}
    assert sorted(exported - used - REFERENCE) == []
