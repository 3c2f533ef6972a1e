"""The exact identities a certificate rests on are checked by code that
runs under ``python -O``: explicit ConsistencyError raises, no assert."""

import ast
import gc
from pathlib import Path

import pytest

from classinv import certify, groups
from classinv.action import ActionContext, act
from classinv.exact import ConsistencyError
from classinv.groups import general_linear, orthogonal, small_integer_elements, symplectic
from classinv.poly import Polynomial, SpaceSignature

from points import monomial_basis

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


# definitions nothing in the package refers to, and why each stays
UNREFERENCED_ON_PURPOSE = {
    "generator_products_basis": "wrapped by name in perfbench/tracing.py",
    "nullspace_basis": "wrapped by name in perfbench/tracing.py",
    "sample_element": "wrapped by name in perfbench/tracing.py",
    "general_linear": "a group constructor, the entry point of every session",
    "orthogonal": "a group constructor, the entry point of every session",
    "symplectic": "a group constructor, the entry point of every session",
    "GeneratorCombination.expand": "turns a decomposition back into its polynomial",
}


def test_every_definition_is_referenced_in_the_package():
    # what only the tests call belongs with the tests (see tests/points.py)
    defined = []
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [
                    f"{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
        if path.name != "__init__.py":  # a re-export is not a use
            referenced |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
    unreferenced = [
        name
        for name in defined
        if name.rsplit(".", 1)[-1] not in referenced and name not in UNREFERENCED_ON_PURPOSE
    ]
    assert unreferenced == []


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
    def growing_cut(rows, vectors):
        return vectors + [dict(vectors[0])] if vectors else vectors

    monkeypatch.setattr(certify, "_generic_cut", growing_cut)
    with pytest.raises(ConsistencyError, match="grew the kernel"):
        certify.invariant_subspace_basis(orthogonal(2), SpaceSignature(2, 0, 1), 2)


def test_a_built_in_element_outside_the_group_is_an_error(monkeypatch):
    # a classical list is checked once per (family, n) and then cached
    groups._classical_elements.cache_clear()
    monkeypatch.setattr(groups, "contains", lambda spec, g: False)
    with pytest.raises(ConsistencyError, match="not in the o group"):
        groups.small_integer_elements(orthogonal(2))


def test_kernels_and_act_leave_no_reference_cycles():
    # memoized images held in a self-referencing closure would live on
    # until the next collection; every kernel and act must free at once
    sig = SpaceSignature(n=2, k=0, m=2)
    ctx = ActionContext(orthogonal(2), sig)
    f = Polynomial(sig, {m: i + 1 for i, m in enumerate(monomial_basis(sig, 4))})
    elem = small_integer_elements(ctx.spec)[-1]
    gc.collect()
    gc.disable()
    try:
        certify.invariant_subspace_basis(symplectic(4), SpaceSignature(n=4, k=0, m=2), 4)
        certify.invariant_subspace_basis(orthogonal(3), SpaceSignature(n=3, k=0, m=2), 4)
        certify.invariant_subspace_basis(general_linear(2), SpaceSignature(n=2, k=1, m=1), 4)
        assert act(ctx, elem, f) != f
        assert gc.collect() == 0
    finally:
        gc.enable()
