"""The sparse echelon engine against sympy.

Every exact elimination in classinv runs through ``exact.Echelon``, so its
dense views (``rref``, ``nullspace_basis``, ``Matrix.inverse``,
``Matrix.is_invertible``) are compared here with sympy's independent
routines on random rational matrices up to 6x6, a share of them
rank-deficient by construction.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp

from classinv.exact import Echelon, Matrix, SingularMatrixError, nullspace_basis, rref

SEEDS = range(40)


def _entry(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def random_matrix(rng, rows=None, cols=None):
    """Rows x cols, each up to 6 unless given; a third of the time a
    product through a thinner inner dimension, so the rank drops below
    min(rows, cols)."""
    rows = rows or rng.randint(1, 6)
    cols = cols or rng.randint(1, 6)
    if rng.random() < 1 / 3:
        inner = rng.randint(0, max(min(rows, cols) - 1, 0))
        a = [[_entry(rng) for _ in range(inner)] for _ in range(rows)]
        b = [[_entry(rng) for _ in range(cols)] for _ in range(inner)]
        dense = [
            [sum((a[i][t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)]
            for i in range(rows)
        ]
    else:
        dense = [
            [_entry(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(cols)]
            for _ in range(rows)
        ]
    return Matrix.from_rows(dense)


def random_square(rng):
    n = rng.randint(1, 6)
    return random_matrix(rng, n, n)


def to_sympy(m: Matrix):
    return sp.Matrix(
        m.rows, m.cols, [sp.Rational(x.numerator, x.denominator) for x in m.entries]
    )


def from_sympy_rows(s):
    return [[Fraction(int(x.p), int(x.q)) for x in s.row(i)] for i in range(s.rows)]


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_matches_sympy(seed):
    m = random_matrix(random.Random(seed))
    reduced, pivots = rref(m.row_lists())
    expected, expected_pivots = to_sympy(m).rref()
    assert pivots == list(expected_pivots)
    assert reduced == from_sympy_rows(expected)[: len(pivots)]
    assert all(isinstance(x, Fraction) for r in reduced for x in r)


@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_matches_sympy(seed):
    m = random_matrix(random.Random(1000 + seed))
    basis = nullspace_basis(m)
    vectors = to_sympy(m).nullspace()
    assert len(basis) == len(vectors)
    if vectors:
        canonical, _ = sp.Matrix.hstack(*vectors).T.rref()
        assert [list(v) for v in basis] == from_sympy_rows(canonical)


@pytest.mark.parametrize("seed", SEEDS)
def test_det_and_inverse_match_sympy(seed):
    m = random_square(random.Random(2000 + seed))
    s = to_sympy(m)
    det = s.det()
    assert m.is_invertible() == (det != 0)
    if det:
        assert m.inverse().row_lists() == from_sympy_rows(s.inv())
    else:
        with pytest.raises(SingularMatrixError) as exc:
            m.inverse()
        assert exc.value.rank == s.rank()


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_sum_to_zero(seed):
    rng = random.Random(3000 + seed)
    m = random_matrix(rng)
    rows = [{(j,): x for j, x in enumerate(r) if x} for r in m.row_lists()]
    echelon = Echelon()
    for i, row in enumerate(rows):
        echelon.insert(row, i)
    assert echelon.rank == to_sympy(m).rank()
    assert len(echelon.relations) == len(rows) - echelon.rank
    for relation in echelon.relations:
        assert relation
        total: dict = {}
        for i, c in relation.items():
            for col, x in rows[i].items():
                total[col] = total.get(col, 0) + c * x
        assert not any(total.values())


def test_tagged_insert_tracks_the_combination():
    rows = [{(2,): Fraction(1), (0,): Fraction(3)}, {(1,): Fraction(2)}]
    echelon = Echelon()
    for i, row in enumerate(rows):
        assert echelon.insert(row, i)
    # f = 2*rows[0] - rows[1] adds no pivot; its relation a f + c . rows = 0
    # gives f = -c / a . rows
    f = {(2,): Fraction(2), (1,): Fraction(-2), (0,): Fraction(6)}
    assert not echelon.insert(f, "f")
    relation = dict(echelon.relations[-1])
    a = relation.pop("f")
    assert {i: Fraction(-c, a) for i, c in relation.items()} == {0: 2, 1: -1}
