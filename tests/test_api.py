"""Every exported name is used by the package or documented in README."""

import ast
import glob
import inspect
import os
import re

import greenmodes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "greenmodes")


def _referenced_names():
    """Names loaded or looked up as attributes anywhere in the package
    source, except the re-exports in __init__.py; definitions and
    imports are not references."""
    names = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_or_documented():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    used = _referenced_names()
    unused = [
        name for name in greenmodes.__all__
        if not inspect.ismodule(getattr(greenmodes, name))
        and name not in used
        and not re.search(r"\b%s\b" % re.escape(name), readme)
    ]
    assert unused == []
