"""The exact identities a certificate rests on are checked by code that
runs under ``python -O``: explicit ConsistencyError raises, no assert."""

import ast
from pathlib import Path

import pytest

from classinv import certify, groups
from classinv.exact import ConsistencyError
from classinv.groups import orthogonal
from classinv.poly import SpaceSignature

SRC = Path(certify.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exports the public API
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_only_groups_names_the_sampler():
    # every decision uses the fixed element list; the seeded sampler is
    # a cross-check for the tests and must not creep back into the library
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("groups.py", "__init__.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "sample_element"
        in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]
    assert found == []


def test_a_cut_that_grows_the_kernel_is_an_error(monkeypatch):
    def growing_cut(ctx, elem, vectors):
        return vectors + [dict(vectors[0])] if vectors else vectors

    monkeypatch.setattr(certify, "_generic_cut", growing_cut)
    with pytest.raises(ConsistencyError, match="grew the kernel"):
        certify.invariant_subspace_basis(orthogonal(2), SpaceSignature(2, 0, 1), 2)


def test_a_built_in_element_outside_the_group_is_an_error(monkeypatch):
    monkeypatch.setattr(groups, "contains", lambda spec, g: False)
    with pytest.raises(ConsistencyError, match="not in the o group"):
        groups.small_integer_elements(orthogonal(2))
