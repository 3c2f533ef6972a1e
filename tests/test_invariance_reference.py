"""`is_invariant`, which walks the kernel's constraint table, against
the plain test it replaced: act(e, f) == f for every e in
`small_integer_elements`.

The groups are o, sp and gl with n <= 4, the Weyl groups of the
benchmark's group files, the half-swap group, the signed 3-cycle and
signed permutations conjugated by rational diagonals, whose orbit moves
have fractional scales and whose files give "act" entries.  The
polynomials are invariants, the same with one monomial added,
inhomogeneous sums of both, random polynomials, and polynomials that
only the last entry of the table moves.
"""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from classinv.action import ActionContext, act, constraint_table, is_invariant
from classinv.certify import invariant_subspace_basis
from classinv.cli import read_matrix_file
from classinv.exact import Matrix
from classinv.groups import (
    finite_group,
    general_linear,
    orthogonal,
    small_integer_elements,
    symplectic,
)
from classinv.poly import Polynomial, SpaceSignature, VarKind

from points import monomial_basis
from test_action import SIGNED_3_CYCLE
from test_closure_reference import SIGNED_PERMUTATIONS_4, conjugate
from test_fft import _half_swap
from test_poly import rand_poly

GROUP_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def _file(name):
    return finite_group(read_matrix_file(str(GROUP_DIR / f"{name}.txt")))


def _conjugated(rows_list, diag):
    return finite_group([conjugate(rows, [Fraction(x) for x in diag]) for rows in rows_list])


SWAP_AND_SIGN = [[[0, 1], [1, 0]], [[-1, 0], [0, 1]]]

# name: (spec, signature, degrees of the invariants summed)
CASES = {
    **{f"o{n}": (orthogonal(n), SpaceSignature(n, 0, 2 if n < 4 else 1), (2, 4)) for n in (1, 2, 3, 4)},
    "sp2": (symplectic(2), SpaceSignature(2, 0, 3), (2, 4)),
    "sp4": (symplectic(4), SpaceSignature(4, 0, 2), (2, 4)),
    **{f"gl{n}": (general_linear(n), SpaceSignature(n, 1, 2 if n < 4 else 1), (2, 4)) for n in (1, 2, 3, 4)},
    "a2": (_file("a2"), SpaceSignature(2, 0, 1), (2, 3, 6)),
    "g2": (_file("g2"), SpaceSignature(2, 0, 1), (2, 6)),
    "b3": (_file("b3"), SpaceSignature(3, 0, 1), (2, 4)),
    "half-swap": (_half_swap(), SpaceSignature(2, 0, 2), (2, 4)),
    "signed-3-cycle": (finite_group([Matrix.from_rows(SIGNED_3_CYCLE)]), SpaceSignature(3, 1, 1), (2, 3)),
    "conjugate-2": (_conjugated(SWAP_AND_SIGN, [3, Fraction(1, 2)]), SpaceSignature(2, 1, 1), (2, 4)),
    "conjugate-4": (
        _conjugated(SIGNED_PERMUTATIONS_4, [Fraction(1, 2), 3, 1, 2]),
        SpaceSignature(4, 0, 1),
        (2, 4),
    ),
}


def by_every_element(ctx, f):
    return all(act(ctx, e, f) == f for e in small_integer_elements(ctx.spec))


def candidates(spec, sig, degrees, rng):
    """Invariants, one-monomial perturbations, inhomogeneous sums and
    random polynomials."""
    invariants, out = [], []
    for d in degrees:
        basis = invariant_subspace_basis(spec, sig, d).basis
        f = Polynomial.zero(sig)
        for b in basis:
            f = f + b.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        invariants.append(f)
        mono = rng.choice(monomial_basis(sig, d))
        out += [f, f + Polynomial(sig, {mono: Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))})]
    inhomogeneous = Polynomial.constant(sig, Fraction(5, 3))
    for f in invariants:
        inhomogeneous = inhomogeneous + f
    out += [inhomogeneous, inhomogeneous + out[1] - invariants[0]]
    out += [rand_poly(rng, sig, max_deg=3, terms=4) for _ in range(3)]
    return out


@pytest.mark.parametrize("name", CASES)
def test_same_answer_as_every_element_acting(name):
    spec, sig, degrees = CASES[name]
    ctx = ActionContext(spec, sig)
    answers = []
    for f in candidates(spec, sig, degrees, Random(name)):
        answers.append(is_invariant(ctx, f))
        assert answers[-1] == by_every_element(ctx, f), f
    assert True in answers and False in answers


def _x(sig, copy, coord):
    return Polynomial.variable(sig, VarKind.VECTOR, copy, coord)


def _u(sig, copy, coord):
    return Polynomial.variable(sig, VarKind.COVECTOR, copy, coord)


def _rotation_moves_only():
    sig = SpaceSignature(2, 0, 1)
    return orthogonal(2), sig, _x(sig, 1, 1) ** 4 + _x(sig, 1, 2) ** 4


def _transvection_moves_only():
    # the product of the two pairs' forms: Sp(2) x Sp(2) and the pair swap fix it
    sig = SpaceSignature(4, 0, 2)
    pair = [_x(sig, 1, a) * _x(sig, 2, a + 1) - _x(sig, 1, a + 1) * _x(sig, 2, a) for a in (1, 3)]
    return symplectic(4), sig, pair[0] * pair[1]


def _shear_moves_only():
    # fixed by the coordinate swap and diag(2, 1), moved by the shear
    sig = SpaceSignature(2, 1, 1)
    return general_linear(2), sig, _u(sig, 1, 1) * _x(sig, 1, 1) * _u(sig, 1, 2) * _x(sig, 1, 2)


@pytest.mark.parametrize(
    "make,last",
    [(_rotation_moves_only, "act"), (_transvection_moves_only, "derive"), (_shear_moves_only, "derive")],
    ids=["o2-rotation", "sp4-transvection", "gl2-shear"],
)
def test_moved_only_by_the_last_entry(make, last):
    spec, sig, f = make()
    ctx = ActionContext(spec, sig)
    elems = small_integer_elements(spec)
    assert [act(ctx, e, f) == f for e in elems] == [True] * (len(elems) - 1) + [False]
    assert constraint_table(spec, sig)[-1][0] == last
    assert not is_invariant(ctx, f)
    for c in (Fraction(1, 3), Fraction(-7, 2)):
        assert not is_invariant(ctx, f.scale(c))
