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
