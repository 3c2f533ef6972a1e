"""Unipotent constraint elements imposed through their derivation.

For u = 1 + N with N^2 = 0 the substitution of `act` is exp(D), D the
derivation `action._constraint_table` reads off the same substitution,
and u fixes exactly the polynomials D kills.  The kernels cut by D must
therefore match the kernels cut by act(u) - 1 step by step.
"""

import random
from pathlib import Path

import pytest

from classinv import action, certify
from classinv.action import ActionContext, act
from classinv.cli import read_matrix_file
from classinv.exact import Matrix, add_scaled, rref
from classinv.groups import (
    finite_group,
    general_linear,
    group_elements,
    orthogonal,
    small_integer_elements,
    symplectic,
)
from classinv.poly import Polynomial, SpaceSignature, space_dimension

from test_action import SIGNED_3_CYCLE
from test_fft import _half_swap
from test_poly import rational_poly

GROUPS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"

KERNEL_CELLS = [("sp", n, 0, m) for n in (2, 4, 6) for m in (1, 2, 3)] + [
    ("gl", n, k, m) for n in (1, 2, 3, 4) for k in (1, 2, 3) for m in (1, 2, 3) if k + m <= 4
]
_MAKE = {"sp": symplectic, "gl": general_linear}


def _kinds(sig, elems):
    return [kind for kind, _ in action._constraint_table(sig, tuple(elems))]


def _unipotent(spec, sig=None):
    """(element, its "derive" table entry) for each listed element
    compiled to a derivation, by default on one vector copy."""
    elems = small_integer_elements(spec)
    table = action._constraint_table(sig or SpaceSignature(spec.n, 0, 1), tuple(elems))
    return [(e, cut) for e, cut in zip(elems, table) if cut[0] == "derive"]


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
    assert "derive" not in _kinds(sig, group_elements(spec))


def test_the_rotation_has_none():
    for n in (2, 3, 4):
        rotation = small_integer_elements(orthogonal(n))[-1]
        assert _kinds(SpaceSignature(n, 0, 2), [rotation]) == ["act"]


@pytest.mark.parametrize(
    "spec,k,m",
    [(symplectic(2), 0, 2), (symplectic(4), 0, 2), (general_linear(2), 1, 1), (general_linear(3), 2, 1)],
    ids=["sp2", "sp4", "gl2-k1", "gl3-k2"],
)
def test_exp_of_the_derivation_is_the_action(spec, k, m):
    sig = SpaceSignature(spec.n, k, m)
    ctx = ActionContext(spec, sig)
    rng = random.Random(f"{spec}{k}{m}")
    for elem, cut in _unipotent(spec, sig):
        rows = certify._cut_rows(ctx, cut)
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


def _act_rows(ctx, elem):
    """v -> act(elem, v) - v, built without the constraint table."""

    def rows(v):
        w = dict(act(ctx, elem, Polynomial(ctx.sig, v)).terms)
        add_scaled(w, -1, v)
        return w

    return rows


def _canonical(sig, vectors):
    monos = sorted({m for v in vectors for m in v}, reverse=True)
    reduced, _ = rref([[v.get(m, 0) for m in monos] for v in vectors])
    return [Polynomial(sig, {m: c for m, c in zip(monos, r) if c}) for r in reduced]


@pytest.mark.parametrize("family,n,k,m", KERNEL_CELLS, ids=str)
def test_derivation_cuts_match_act_cuts(family, n, k, m):
    # every class representative's orbit-stage vectors go through each
    # cut twice, by the compiled derivation and by act(u) - 1, and both
    # must keep the same space; the act side then rebuilds the kernel's
    # history, class dimensions and representative blocks
    spec, sig = _MAKE[family](n), SpaceSignature(n, k, m)
    ctx = ActionContext(spec, sig)
    elems = small_integer_elements(spec)
    table = action._constraint_table(sig, tuple(elems))
    moves = [move for kind, move in table if kind == "orbit"]
    cuts = [(e, cut) for e, cut in zip(elems, table) if cut[0] != "orbit"]
    assert [cut[0] for _, cut in cuts] == ["derive"] * len(cuts)
    for d in range(1, 7):
        classes = certify._copy_classes(sig, d)
        reps = list(classes)
        history = [space_dimension(sig, d)] + [0] * (1 + len(cuts))
        by_class = []
        blocks = {}
        for rep, monos in zip(reps, certify._weight_zero_monomials(family, sig, reps)):
            size = len(classes[rep])
            vecs = certify._orbit_kernel(monos, moves)
            history[1] += size * len(vecs)
            for i, (elem, cut) in enumerate(cuts):
                by_derivation = certify._generic_cut(certify._cut_rows(ctx, cut), vecs)
                vecs = certify._generic_cut(_act_rows(ctx, elem), vecs)
                assert _canonical(sig, by_derivation) == _canonical(sig, vecs), (d, rep, i)
                history[2 + i] += size * len(vecs)
            by_class.append((rep, size, len(vecs)))
            blocks[rep] = _canonical(sig, vecs)
        kr = certify.invariant_subspace_basis(spec, sig, d)
        assert (kr.dim_history, kr.by_class, kr.samples_used) == (
            tuple(history), tuple(by_class), len(elems)
        )
        for rep in reps:
            assert [p for p in kr.basis if p.copy_degrees() == rep] == blocks[rep]


def test_some_derivation_cut_drops_the_dimension():
    # the equality above is not vacuous: the last cut (the sp
    # transvection, the gl shear) removes vectors the earlier stages kept
    res = certify.invariant_subspace_basis(symplectic(4), SpaceSignature(4, 0, 3), 4)
    assert res.dim_history[-2] > res.dim_history[-1]
    res = certify.invariant_subspace_basis(general_linear(3), SpaceSignature(3, 2, 2), 4)
    assert res.dim_history[-2] > res.dim_history[-1]
