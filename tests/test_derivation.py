"""Unipotent constraint elements imposed through their derivation.

For u = 1 + N with N^2 = 0 the substitution of `act` is exp(D), D the
derivation `action.derivation` reads off the same substitution, and u
fixes exactly the polynomials D kills.  The kernels cut by D must
therefore match the kernels cut by act(u) - 1 step by step.
"""

import random
from pathlib import Path

import pytest

from classinv import certify
from classinv.action import ActionContext, act, derivation
from classinv.cli import read_matrix_file
from classinv.exact import Matrix
from classinv.groups import (
    finite_group,
    general_linear,
    group_elements,
    orthogonal,
    small_integer_elements,
    symplectic,
)
from classinv.poly import Polynomial, SpaceSignature

from test_action import SIGNED_3_CYCLE
from test_fft import _half_swap
from test_poly import rational_poly

GROUPS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"

KERNEL_CELLS = [("sp", n, 0, m) for n in (2, 4, 6) for m in (1, 2, 3)] + [
    ("gl", n, k, m) for n in (1, 2, 3, 4) for k in (1, 2, 3) for m in (1, 2, 3) if k + m <= 4
]
_MAKE = {"sp": symplectic, "gl": general_linear}


def _unipotent(spec):
    return [e for e in small_integer_elements(spec) if derivation(SpaceSignature(spec.n, 0, 1), e)]


def test_the_shears_and_the_transvection_have_one():
    # sp(2): the shear; sp(n >= 4): the shear and the transvection; gl: the shear
    assert len(_unipotent(symplectic(2))) == 1
    assert len(_unipotent(symplectic(4))) == 2
    assert len(_unipotent(symplectic(6))) == 2
    assert len(_unipotent(general_linear(1))) == 0
    assert len(_unipotent(general_linear(3))) == 1
    for n in (1, 2, 3, 4):
        assert _unipotent(orthogonal(n)) == []


@pytest.mark.parametrize(
    "spec",
    [finite_group(read_matrix_file(str(GROUPS_DIR / f"{name}.txt"))) for name in ("a2", "g2", "b3")]
    + [_half_swap(), finite_group([Matrix.from_rows(SIGNED_3_CYCLE)])],
    ids=["a2", "g2", "b3", "half-swap", "signed-3-cycle"],
)
def test_no_element_of_a_finite_group_has_one(spec):
    # a unipotent element of finite order is 1 in characteristic 0
    sig = SpaceSignature(spec.n, 1, 2)
    assert all(derivation(sig, e) is None for e in group_elements(spec))


def test_the_rotation_has_none():
    for n in (2, 3, 4):
        rotation = small_integer_elements(orthogonal(n))[-1]
        assert derivation(SpaceSignature(n, 0, 2), rotation) is None


@pytest.mark.parametrize(
    "spec,k,m",
    [(symplectic(2), 0, 2), (symplectic(4), 0, 2), (general_linear(2), 1, 1), (general_linear(3), 2, 1)],
    ids=["sp2", "sp4", "gl2-k1", "gl3-k2"],
)
def test_exp_of_the_derivation_is_the_action(spec, k, m):
    sig = SpaceSignature(spec.n, k, m)
    ctx = ActionContext(spec, sig)
    rng = random.Random(f"{spec}{k}{m}")
    for elem in _unipotent(spec):
        rows = certify._cut_rows(ctx, elem)
        for _ in range(6):
            f = rational_poly(rng, sig, max_deg=4, terms=6)
            total = dict(f.terms)
            term = dict(f.terms)
            for j in range(1, 6):  # sum_j D^j f / j!
                term = {mono: c / j for mono, c in rows(term).items()}
                for mono, c in term.items():
                    total[mono] = total.get(mono, 0) + c
            # N^2 = 0, so D^(e + 1) kills every polynomial of degree e <= 4
            assert not term
            assert Polynomial(sig, total) == act(ctx, elem, f)


@pytest.mark.parametrize("family,n,k,m", KERNEL_CELLS, ids=str)
def test_derivation_cuts_match_act_cuts(family, n, k, m, monkeypatch):
    spec, sig = _MAKE[family](n), SpaceSignature(n, k, m)
    by_derivation = [certify.invariant_subspace_basis(spec, sig, d) for d in range(1, 7)]
    monkeypatch.setattr(certify, "derivation", lambda sig, elem: None)
    by_act = [certify.invariant_subspace_basis(spec, sig, d) for d in range(1, 7)]
    for new, old in zip(by_derivation, by_act):
        assert (new.basis, new.dim, new.dim_history, new.samples_used) == (
            old.basis, old.dim, old.dim_history, old.samples_used
        )


def test_some_derivation_cut_drops_the_dimension():
    # the equality above is not vacuous: the last cut (the sp
    # transvection, the gl shear) removes vectors the earlier stages kept
    res = certify.invariant_subspace_basis(symplectic(4), SpaceSignature(4, 0, 3), 4)
    assert res.dim_history[-2] > res.dim_history[-1]
    res = certify.invariant_subspace_basis(general_linear(3), SpaceSignature(3, 2, 2), 4)
    assert res.dim_history[-2] > res.dim_history[-1]
