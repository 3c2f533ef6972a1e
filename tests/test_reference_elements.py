"""The generating lists of `groups.small_integer_elements` against the
full enumeration they replaced (`reference_elements`).

A set of group elements and the group it generates fix the same
polynomials, so imposing either list must give the same kernel basis,
the same final dimension and the same invariance decisions.
"""

from random import Random

import pytest

from classinv import action, certify
from classinv.action import ActionContext, is_invariant
from classinv.certify import invariant_subspace_basis
from classinv.groups import general_linear, orthogonal, symplectic
from classinv.poly import Polynomial, SpaceSignature, monomial_basis

from reference_elements import reference_elements

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
]
EVEN = [cell for cell in CELLS if cell[3] % 2 == 0]


def _cell_id(cell):
    spec, k, m, d = cell
    return f"{spec.family}{spec.n}-k{k}m{m}-d{d}"


def _under_reference(monkeypatch):
    monkeypatch.setattr(certify, "small_integer_elements", reference_elements)
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
