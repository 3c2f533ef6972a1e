"""The kernel stays integral until its canonical form.

The orbit walk and every cut hand on integer vectors; only the final
per-block `rref` makes fractions.  The dimensions the kernel passes
through are pinned to the values the rational elimination gave.
"""

from fractions import Fraction

import pytest

from classinv import action, certify
from classinv.exact import Matrix
from classinv.groups import finite_group, general_linear, orthogonal, symplectic
from classinv.poly import SpaceSignature


def _record(monkeypatch):
    """Wrap the kernel stages in certify's namespace; returns the list
    their calls are recorded in, as (stage name, returned value)."""
    calls = []
    for name in ("_orbit_kernel", "_generic_cut", "act"):
        fn = getattr(certify, name)

        def recorded(*args, fn=fn, name=name):
            out = fn(*args)
            calls.append((name, out))
            return out

        monkeypatch.setattr(certify, name, recorded)
    return calls


CELLS = {
    # the 3-4-5 rotation is cut through act
    "o3": (orthogonal(3), SpaceSignature(3, 0, 2), 4, {"_orbit_kernel", "_generic_cut", "act"}),
    "sp4": (symplectic(4), SpaceSignature(4, 0, 2), 4, {"_orbit_kernel", "_generic_cut"}),
    "gl2": (general_linear(2), SpaceSignature(2, 1, 2), 4, {"_orbit_kernel", "_generic_cut"}),
    # a scaled permutation: its orbit weights are fractions before scaling
    "finite-scaled": (
        finite_group([Matrix.from_rows([[0, 2], [Fraction(1, 2), 0]])]),
        SpaceSignature(2, 0, 2),
        4,
        {"_orbit_kernel"},
    ),
    # an element of order 3 that is no scaled permutation: cut through act
    "finite-order-3": (
        finite_group([Matrix.from_rows([[0, -1], [1, -1]])]),
        SpaceSignature(2, 0, 1),
        3,
        {"_orbit_kernel", "_generic_cut", "act"},
    ),
}


@pytest.mark.parametrize("cell", CELLS.values(), ids=CELLS.keys())
def test_orbit_walk_and_cuts_return_integer_vectors(monkeypatch, cell):
    spec, sig, d, stages = cell
    calls = _record(monkeypatch)
    kr = certify.invariant_subspace_basis(spec, sig, d)
    assert kr.dim > 0
    assert {name for name, _ in calls} == stages
    for name, vectors in calls:
        if name == "act":
            continue
        for v in vectors:
            assert v and all(type(c) is int for c in v.values()), name
    assert all(type(c) is Fraction for p in kr.basis for c in p.terms.values())


def test_scaled_permutation_orbit_is_scaled_to_integers():
    # x1^2 and x2^2 trade places with weights 4 and 1/4: the orbit vector
    # x1^2 + x2^2 / 4 is returned as 4 x1^2 + x2^2
    g = Matrix.from_rows([[0, 2], [Fraction(1, 2), 0]])
    sig = SpaceSignature(2, 0, 1)
    (elem,) = action.small_integer_elements(finite_group([g]))
    ((kind, move),) = action._constraint_table(sig, (elem,))
    assert kind == "orbit"
    basis = certify._orbit_kernel([(2, 0), (0, 2)], [move])
    assert len(basis) == 1
    (v,) = basis
    assert all(type(c) is int for c in v.values())
    assert Fraction(v[(0, 2)], v[(2, 0)]) in (Fraction(4), Fraction(1, 4))


# dim_history and by_class as the rational elimination computed them
PINNED = {
    "o4k4d6": (
        orthogonal(4), SpaceSignature(4, 0, 4), 6,
        (54264, 654, 220),
        (
            ((6, 0, 0, 0), 4, 1), ((5, 1, 0, 0), 12, 1), ((4, 2, 0, 0), 12, 2),
            ((4, 1, 1, 0), 12, 2), ((3, 3, 0, 0), 6, 2), ((3, 2, 1, 0), 24, 3),
            ((3, 1, 1, 1), 4, 4), ((2, 2, 2, 0), 4, 5), ((2, 2, 1, 1), 6, 6),
        ),
    ),
    "sp4k4d8": (
        symplectic(4), SpaceSignature(4, 0, 4), 8,
        (490314, 3310, 615, 126),
        (
            ((8, 0, 0, 0), 4, 0), ((7, 1, 0, 0), 12, 0), ((6, 2, 0, 0), 12, 0),
            ((6, 1, 1, 0), 12, 0), ((5, 3, 0, 0), 12, 0), ((5, 2, 1, 0), 24, 0),
            ((5, 1, 1, 1), 4, 0), ((4, 4, 0, 0), 6, 1), ((4, 3, 1, 0), 24, 1),
            ((4, 2, 2, 0), 12, 1), ((4, 2, 1, 1), 12, 1), ((3, 3, 2, 0), 12, 1),
            ((3, 3, 1, 1), 6, 3), ((3, 2, 2, 1), 12, 3), ((2, 2, 2, 2), 1, 6),
        ),
    ),
}


@pytest.mark.parametrize("cell", PINNED.values(), ids=PINNED.keys())
def test_dimensions_match_the_rational_elimination(cell):
    spec, sig, d, history, by_class = cell
    kr = certify.invariant_subspace_basis(spec, sig, d, dim_cap=10**6)
    assert kr.dim_history == history
    assert kr.by_class == by_class
