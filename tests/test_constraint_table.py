"""The compiled constraint table: each listed element's kind, the cache
it is kept in, and that importing the package builds none of it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from classinv import action, certify
from classinv.exact import ConsistencyError, Matrix
from classinv.groups import (
    GroupElement,
    finite_group,
    general_linear,
    orthogonal,
    small_integer_elements,
    symplectic,
)
from classinv.poly import SpaceSignature

SRC = Path(certify.__file__).resolve().parents[1]

# the kinds of small_integer_elements, in list order: the Weyl generators
# and gl's diag(2, 1, ...) are scaled permutations, the shears and the sp
# transvection derivations, and the o rotation an act cut
EXPECTED_KINDS = {
    "o": lambda n: ["orbit"] * n + ["act"] * (n >= 2),  # diag(-1, 1, ...), swaps, rotation
    "gl": lambda n: ["orbit"] * n + ["derive"] * (n >= 2),  # swaps, diag(2, 1, ...), shear
    # kappa, shear, pair swaps, transvection
    "sp": lambda n: ["orbit", "derive"] + ["orbit"] * (n // 2 - 1) + ["derive"] * (n >= 4),
}
FAMILIES = {"o": orthogonal, "gl": general_linear, "sp": symplectic}
CASES = [(f, n) for f in ("o", "gl") for n in range(1, 7)] + [("sp", n) for n in (2, 4, 6)]


@pytest.mark.parametrize("family,n", CASES, ids=[f"{f}{n}" for f, n in CASES])
def test_each_listed_element_compiles_to_its_kind(family, n):
    elems = tuple(small_integer_elements(FAMILIES[family](n)))
    for k, m in ((0, 1), (0, 3), (2, 1)):
        if family != "gl" and k:
            continue
        table = action._constraint_table(SpaceSignature(n, k, m), elems)
        assert [kind for kind, _ in table] == EXPECTED_KINDS[family](n)
        for elem, (kind, payload) in zip(elems, table):
            if kind == "act":
                assert payload is elem


def test_a_scaled_permutation_whose_substitution_mixes_variables_is_refused():
    # the kind is read off g and the moves off the substitution (g^-1 on
    # vector copies); an inverse that is no scaled permutation contradicts g
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    shear = Matrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ConsistencyError, match="mixes variables"):
        action._constraint_table(SpaceSignature(2, 0, 1), (GroupElement(swap, shear),))


def _counting(monkeypatch):
    calls = []
    compile_table = action._constraint_table

    def counted(sig, elems):
        calls.append(elems)
        return compile_table(sig, elems)

    monkeypatch.setattr(action, "_constraint_table", counted)
    return calls


def test_classical_tables_are_cached_on_the_element_list(monkeypatch):
    spec, sig = symplectic(4), SpaceSignature(4, 0, 3)
    monkeypatch.setattr(action, "_TABLES", {})
    calls = _counting(monkeypatch)
    dims = [certify.invariant_subspace_basis(spec, sig, d).dim for d in (2, 4, 4)]
    assert dims == [3, 6, 6]
    assert len(calls) == 1 and len(action._TABLES) == 1
    # another element list, as a patched small_integer_elements returns,
    # misses the cache: imposing nothing keeps every weight-zero monomial
    monkeypatch.setattr(action, "small_integer_elements", lambda spec: [])
    assert certify.invariant_subspace_basis(spec, sig, 4).dim == 153
    assert len(calls) == 2 and len(action._TABLES) == 2


def test_finite_tables_are_compiled_per_call(monkeypatch):
    spec = finite_group([Matrix.from_rows([[0, -1], [1, -1]])])
    monkeypatch.setattr(action, "_TABLES", {})
    calls = _counting(monkeypatch)
    for _ in range(2):
        certify.invariant_subspace_basis(spec, SpaceSignature(2, 0, 1), 3)
    assert len(calls) == 2 and action._TABLES == {}


def test_importing_builds_no_table():
    probe = (
        "import classinv; from classinv import action, certify; "
        "print(len(action._TABLES), certify._copy_exponents.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == ["0", "0"]
