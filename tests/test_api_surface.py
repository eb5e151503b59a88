"""Every function, method and class defined in `src/cutbiot` has a reader in the program.

A name counts as read when it appears as a `Name` or an `Attribute` in the
package (less `__init__.py`, whose re-exports read everything) or in the
benchmark harness `bench/*.py`.  Names that only tests call belong in the
tests; the few kept in the package as references are listed with the reason
they stay.  Matching is by bare name, so a method is read when any attribute
of that name is.  Likewise every attribute a class in the package assigns
on `self`, and every field a class body declares (dataclass and NamedTuple
fields), is loaded somewhere in those readers.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cutbiot"

REFERENCES = {
    "ghost_seminorm": "the ghost penalty evaluated from facet jumps directly; tests compare "
                      "it with the assembled quadratic form",
    "strong_residuals": "the manufactured cases' calculus checked pointwise against their "
                        "hand-written sources",
    "infsup_constant": "the discrete inf-sup constant of the paper's stability analysis",
    "interpolate": "the nodal interpolant that tests feed smooth and polynomial fields through",
}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _readers():
    return _trees([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
                  + sorted(ROOT.glob("bench/*.py")))


def test_every_defined_name_has_a_caller_in_the_program():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    defined = {node.name for tree in package for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in _readers() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(defined - used) == sorted(REFERENCES)


def _loaded_attributes():
    return {node.attr for tree in _readers() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_attribute_set_on_self_is_read_in_the_program():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    assigned = {node.attr for tree in package for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert sorted(assigned - _loaded_attributes()) == []


def test_every_field_declared_in_a_class_body_is_read_in_the_program():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    declared = {stmt.target.id for tree in package for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    assert declared and sorted(declared - _loaded_attributes()) == []
