"""The generating lists of `groups.small_integer_elements` against the
full enumeration they replaced (`reference_elements`).

A set of group elements and the group it generates fix the same
polynomials, so imposing either list must give the same kernel basis,
the same final dimension, the same generator degrees and the same
invariance decisions.
"""

from pathlib import Path
from random import Random

import pytest

from classinv import action
from classinv.action import ActionContext, is_invariant
from classinv.certify import invariant_subspace_basis, minimal_generator_degrees
from classinv.cli import read_matrix_file
from classinv.exact import Matrix
from classinv.groups import finite_group, general_linear, orthogonal, symplectic
from classinv.poly import Polynomial, SpaceSignature

from points import monomial_basis
from reference_elements import reference_elements
from test_action import SIGNED_3_CYCLE
from test_fft import _half_swap

GROUPS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
FINITE = {
    name: finite_group(read_matrix_file(str(GROUPS_DIR / f"{name}.txt")))
    for name in ("a2", "g2", "b3")
}
FINITE["half-swap"] = _half_swap()
# order 6, since g^3 = -1
FINITE["signed-3-cycle"] = finite_group([Matrix.from_rows(SIGNED_3_CYCLE)])
# W(A3) = S4 by its simple reflections s_i(a_j) = a_j - A_ij a_i on the
# simple roots, A the Cartan matrix: no generator is a scaled permutation
FINITE["wa3"] = finite_group(
    [
        Matrix.from_rows([[-1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix.from_rows([[1, 0, 0], [1, -1, 1], [0, 0, 1]]),
        Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 1, -1]]),
    ]
)
NAMES = {spec: name for name, spec in FINITE.items()}

CELLS = [
    (orthogonal(1), 0, 2, 6),
    (orthogonal(2), 0, 2, 6),
    (orthogonal(2), 0, 3, 5),
    (orthogonal(3), 0, 2, 6),
    (orthogonal(4), 0, 2, 4),
    (orthogonal(4), 0, 2, 6),
    (orthogonal(4), 0, 3, 4),
    (symplectic(2), 0, 3, 6),
    (symplectic(4), 0, 2, 6),
    (symplectic(4), 0, 3, 4),
    (symplectic(6), 0, 2, 4),
    (symplectic(6), 0, 2, 6),
    (general_linear(1), 1, 2, 6),
    (general_linear(2), 1, 2, 6),
    (general_linear(2), 2, 2, 4),
    (general_linear(3), 1, 1, 6),
    (general_linear(3), 2, 1, 3),
    (general_linear(3), 2, 2, 6),
    (FINITE["a2"], 0, 1, 6),
    (FINITE["a2"], 0, 2, 4),
    (FINITE["g2"], 0, 1, 6),
    (FINITE["g2"], 1, 1, 4),
    (FINITE["b3"], 0, 1, 6),
    (FINITE["b3"], 0, 2, 4),
    (FINITE["half-swap"], 1, 1, 6),
    (FINITE["half-swap"], 1, 2, 4),
    (FINITE["signed-3-cycle"], 0, 2, 4),
    (FINITE["signed-3-cycle"], 1, 1, 4),
    (FINITE["wa3"], 0, 1, 6),
    (FINITE["wa3"], 0, 2, 4),
]
EVEN = [cell for cell in CELLS if cell[3] % 2 == 0]
FINITE_CELLS = [cell for cell in CELLS if cell[0].family == "finite"]


def _cell_id(cell):
    spec, k, m, d = cell
    return f"{NAMES.get(spec, f'{spec.family}{spec.n}')}-k{k}m{m}-d{d}"


def _under_reference(monkeypatch):
    monkeypatch.setattr(action, "small_integer_elements", reference_elements)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_kernel_matches_full_enumeration(cell, monkeypatch):
    spec, k, m, d = cell
    sig = SpaceSignature(n=spec.n, k=k, m=m)
    new = invariant_subspace_basis(spec, sig, d)
    _under_reference(monkeypatch)
    old = invariant_subspace_basis(spec, sig, d)
    assert new.samples_used <= old.samples_used
    assert (new.basis, new.dim, new.dim_history[-1]) == (old.basis, old.dim, old.dim_history[-1])


@pytest.mark.parametrize("cell", EVEN, ids=_cell_id)
def test_is_invariant_matches_full_enumeration(cell, monkeypatch):
    spec, k, m, d = cell
    sig = SpaceSignature(n=spec.n, k=k, m=m)
    ctx = ActionContext(spec, sig)
    basis = invariant_subspace_basis(spec, sig, d).basis
    monos = monomial_basis(sig, d)
    rng = Random(_cell_id(cell))
    polys = []
    for _ in range(4):
        f = Polynomial.zero(sig)
        for b in basis:
            f = f + b * rng.randint(-3, 3)
        polys.append(f)
        polys.append(f + Polynomial(sig, {rng.choice(monos): rng.randint(1, 3)}))
    new = [is_invariant(ctx, f) for f in polys]
    _under_reference(monkeypatch)
    assert new == [is_invariant(ctx, f) for f in polys]
    assert new[0::2] == [True] * 4


@pytest.mark.parametrize("cell", FINITE_CELLS, ids=_cell_id)
def test_generator_degrees_match_full_enumeration(cell, monkeypatch):
    spec, k, m, d = cell
    sig = SpaceSignature(n=spec.n, k=k, m=m)
    new = minimal_generator_degrees(spec, sig, d)
    _under_reference(monkeypatch)
    assert new == minimal_generator_degrees(spec, sig, d)
