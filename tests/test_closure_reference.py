"""The integer closure ``groups.finite_closure`` against the rational
closure it replaced (``tests/reference_closure.py``).

Both close the same generators under the same cap.  They must list the
same matrices in the same order, or refuse the group with the same
exception: NotFiniteGroup at the first element that fails the trace
test, ClosureCapExceeded at the same cap, the trace test before the cap
test.  The groups are signed permutations of n <= 4 coordinates, some
conjugated by a rational diagonal so that their entries are 2 and 1/2,
some with an element of infinite order mixed in, and the Weyl groups of
the benchmark's group files.

The inverse table the walk records (``finite_closure``'s ``inverses``,
read by ``group_elements`` and a finite group's
``small_integer_elements``) is checked on the same groups and on the
half-swap group and the signed 3-cycle: every element's recorded
inverse is its inverse by elimination, and their product is 1.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from classinv.cli import read_matrix_file
from classinv.exact import Matrix
from classinv.groups import (
    ClosureCapExceeded,
    NotFiniteGroup,
    finite_closure,
    finite_group,
    group_elements,
    small_integer_elements,
)
from reference_closure import finite_closure as reference_closure
from test_action import SIGNED_3_CYCLE
from test_fft import _half_swap

GROUP_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"

SCALES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]


def outcome(closure, gens, cap):
    """The element list, or the refusal and its cap."""
    try:
        return closure(gens, cap)
    except ClosureCapExceeded as exc:
        return ("cap", exc.cap)
    except NotFiniteGroup:
        return ("infinite",)


def assert_same_closure(gens, cap):
    got = outcome(finite_closure, gens, cap)
    assert got == outcome(reference_closure, gens, cap)
    if isinstance(got, list):
        assert_inverse_table(gens, cap, got)
    return got


def assert_inverse_table(gens, cap, elems):
    """The walk's inverse table lists, for each element, the position of
    the element that is its inverse by elimination."""
    inverses = []
    assert finite_closure(gens, cap, inverses) == elems
    assert len(inverses) == len(elems)
    ident = Matrix.identity(elems[0].rows)
    for g, i in zip(elems, inverses):
        assert g @ elems[i] == ident
        assert elems[i] == g.inverse()


def conjugate(rows, diag):
    """diag * rows * diag^-1 as a Matrix."""
    n = len(rows)
    return Matrix.from_rows(
        [[Fraction(rows[i][j]) * diag[i] / diag[j] for j in range(n)] for i in range(n)]
    )


@st.composite
def signed_permutation_groups(draw):
    n = draw(st.integers(1, 4))
    diag = draw(st.lists(st.sampled_from(SCALES), min_size=n, max_size=n))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        gens.append([[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)])
    extra = draw(st.sampled_from(["none", "none", "shear", "double"]))
    if extra == "shear" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        shear = [[int(a == b) for b in range(n)] for a in range(n)]
        shear[i][j] = draw(st.sampled_from([1, -2, 3]))
        gens.append(shear)
    elif extra == "double":
        # twice a signed permutation: some power of it has trace 2^k n
        gens.append([[2 * x for x in row] for row in gens[0]])
    gens = [conjugate(g, diag) for g in draw(st.permutations(gens))]
    return gens


@given(signed_permutation_groups(), st.one_of(st.integers(1, 400), st.just(10_000)))
def test_same_closure_as_the_rational_reference(gens, cap):
    assert_same_closure(gens, cap)


SIGNED_PERMUTATIONS_4 = [
    [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
]


@pytest.mark.parametrize("diag", [[1, 1, 1, 1], [2, 1, 1, 1], [Fraction(1, 2), 3, 1, 2]])
@pytest.mark.parametrize("cap", [384, 383, 100])
def test_signed_permutations_of_four(diag, cap):
    gens = [conjugate(g, [Fraction(x) for x in diag]) for g in SIGNED_PERMUTATIONS_4]
    got = assert_same_closure(gens, cap)
    if cap == 384:
        assert len(got) == 384
    else:
        assert got == ("cap", cap)


@pytest.mark.parametrize("name,order", [("a2", 6), ("g2", 12), ("b3", 48)])
def test_weyl_group_files(name, order):
    gens = read_matrix_file(str(GROUP_DIR / f"{name}.txt"))
    assert len(assert_same_closure(gens, 10_000)) == order
    assert assert_same_closure(gens, order - 1) == ("cap", order - 1)


@pytest.mark.parametrize(
    "g",
    [[[1, 1], [0, 1]], [[1, Fraction(1, 2)], [0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]],
    ids=["shear", "rational-shear", "shear-3"],
)
@pytest.mark.parametrize("cap", [1, 1000])
def test_shears_refused_by_both(g, cap):
    # the trace test runs before the cap test, so even cap 1 refuses a
    # shear as infinite
    gens = [Matrix.from_rows([[Fraction(x) for x in row] for row in g])]
    assert assert_same_closure(gens, cap) == ("infinite",)


@pytest.mark.parametrize("name", ["a2", "g2", "b3", "half-swap", "signed-3-cycle"])
def test_group_elements_carry_the_walks_inverses(name):
    if name == "half-swap":
        spec = _half_swap()
    elif name == "signed-3-cycle":
        spec = finite_group([Matrix.from_rows(SIGNED_3_CYCLE)])
    else:
        spec = finite_group(read_matrix_file(str(GROUP_DIR / f"{name}.txt")))
    elems = group_elements(spec)
    assert [e.g for e in elems] == reference_closure(spec.generators)
    ident = Matrix.identity(spec.n)
    for e in [*elems, *small_integer_elements(spec)]:
        assert e.g @ e.g_inv == ident
        assert e.g_inv == e.g.inverse()
    assert [e.g for e in small_integer_elements(spec)] == list(spec.generators)
