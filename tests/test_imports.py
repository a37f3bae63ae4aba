"""Every module of the package uses every name it imports.

A deletion that leaves an import behind shows up here.  `__init__` is left
out: its imports are the public API it re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lenalg"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """{bound name: line} for every import outside `from __future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_modules_found():
    assert "decide.py" in MODULES and "linalg.py" in MODULES


def test_identities_imports_nothing_from_the_decider():
    # the line sweep and the first-violation scan that `identities` shares
    # with the oracle live in `length`
    tree = ast.parse((PACKAGE / "identities.py").read_text(), filename="identities.py")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "decide" not in imported


def test_cli_writes_no_report():
    # every report, text and JSON, is written in `documents`; `cli` runs the
    # decider and the oracle and reads no witness object
    tree = ast.parse((PACKAGE / "cli.py").read_text(), filename="cli.py")
    from_decide = set()
    imported = set(_imported_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "decide":
            from_decide.update(alias.name for alias in node.names)
    assert from_decide == {"decide_length_one", "oracle_length_one"}
    assert not imported & {"LengthReport", "SpecialBasisWitness", "CharTwoWitness",
                           "ViolationWitness", "StepFail", "document_dict"}
    renders = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "render"]
    assert not renders, f"cli.py renders scalars at lines {renders}"
