from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from classinv.exact import (
    DimensionMismatch,
    Matrix,
    SingularMatrixError,
    nullspace_basis,
    rref,
)

from points import apply

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def mat(rows):
    return Matrix.from_rows([[Fraction(v) for v in row] for row in rows])


def rand_square(rng, n, bound=5):
    return mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


class TestMatMul:
    def test_identity_absorbs(self):
        a = mat([[1, 2], [3, 4]])
        assert Matrix.identity(2) @ a == a
        assert a @ Matrix.identity(2) == a

    def test_swap_involution(self):
        swap = mat([[0, 1], [1, 0]])
        assert swap @ swap == Matrix.identity(2)

    def test_shear_times_inverse(self):
        assert mat([[1, 1], [0, 1]]) @ mat([[1, -1], [0, 1]]) == Matrix.identity(2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat([[1, 2]]) @ mat([[1, 2]])

    def test_rectangular(self):
        a = mat([[1, 2, 3]])
        b = mat([[1], [1], [1]])
        assert (a @ b).at(0, 0) == 6


class TestInverse:
    def test_identity(self):
        assert Matrix.identity(3).inverse() == Matrix.identity(3)

    def test_shear(self):
        assert mat([[1, 1], [0, 1]]).inverse() == mat([[1, -1], [0, 1]])

    def test_fibonacci_like(self):
        assert mat([[2, 1], [1, 1]]).inverse() == mat([[1, -1], [-1, 2]])

    def test_singular_reports_rank(self):
        with pytest.raises(SingularMatrixError) as exc:
            mat([[1, 2], [2, 4]]).inverse()
        assert exc.value.rank == 1
        assert exc.value.size == 2

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrixError) as exc:
            Matrix.from_rows([[0, 0], [0, 0]]).inverse()
        assert exc.value.rank == 0

    def test_random_roundtrip(self):
        # a @ a.inverse() == identity, bit for bit
        import random

        rng = random.Random(7)
        done = 0
        while done < 25:
            a = rand_square(rng, rng.randint(1, 4))
            if not a.is_invertible():
                continue
            assert a @ a.inverse() == Matrix.identity(a.rows)
            assert a.inverse() @ a == Matrix.identity(a.rows)
            done += 1


class TestRref:
    def test_pivots_normalized(self):
        rows, pivots = rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
        assert rows == [[Fraction(1), Fraction(2)]]
        assert pivots == [0]

    def test_idempotent(self):
        import random

        rng = random.Random(11)
        for _ in range(20):
            raw = [
                [Fraction(rng.randint(-6, 6)) for _ in range(4)] for _ in range(3)
            ]
            once, piv1 = rref(raw)
            twice, piv2 = rref([list(r) for r in once])
            assert once == twice
            assert piv1 == piv2

    def test_zero_rows_dropped(self):
        rows, pivots = rref([[Fraction(0), Fraction(0)]])
        assert rows == []
        assert pivots == []


class TestNullspace:
    def test_zero_row_full_kernel(self):
        basis = nullspace_basis(Matrix.from_rows([[0, 0]]))
        assert len(basis) == 2

    def test_sum_constraint(self):
        basis = nullspace_basis(mat([[1, 1]]))
        assert basis == [(Fraction(1), Fraction(-1))]

    def test_identity_trivial_kernel(self):
        assert nullspace_basis(Matrix.identity(3)) == []

    def test_vectors_actually_kill(self):
        import random

        rng = random.Random(3)
        for _ in range(20):
            m = mat(
                [
                    [rng.randint(-4, 4) for _ in range(4)]
                    for _ in range(rng.randint(1, 3))
                ]
            )
            for vec in nullspace_basis(m):
                out = apply(m, list(vec))
                assert all(v == 0 for v in out)

    def test_rank_nullity(self):
        import random

        rng = random.Random(5)
        for _ in range(20):
            ncols = rng.randint(1, 5)
            m = mat(
                [
                    [rng.randint(-3, 3) for _ in range(ncols)]
                    for _ in range(rng.randint(1, 5))
                ]
            )
            assert m.rank() + len(nullspace_basis(m)) == ncols


@given(rationals, rationals)
def test_fraction_addition_is_symmetric(a, b):
    # exactness sanity: no drift either way round
    assert a + b == b + a
    assert (a + b) - b == a


@given(st.lists(rationals, min_size=2, max_size=2), st.lists(rationals, min_size=2, max_size=2))
def test_matrix_add_commutes(r0, r1):
    a = Matrix.from_rows([r0, r1])
    b = Matrix.from_rows([r1, r0])
    assert a + b == b + a
    assert (a + b) - b == a


class TestMatrixHash:
    @given(st.lists(st.integers(-(2**70), 2**70), min_size=4, max_size=4))
    def test_equal_matrices_from_ints_and_fractions_hash_equal(self, xs):
        from_ints = Matrix(2, 2, xs)
        from_fractions = Matrix(2, 2, [Fraction(2 * x, 2) for x in xs])
        assert from_ints == from_fractions
        assert hash(from_ints) == hash(from_fractions) == hash(from_ints)

    def test_hash_matches_the_entries(self):
        m = mat([[Fraction(1, 2), 0], [3, Fraction(-7, 3)]])
        assert hash(m) == hash((2, 2, m.entries))
        assert len({m, mat([[Fraction(1, 2), 0], [3, Fraction(-7, 3)]])}) == 1

    @pytest.mark.parametrize("name", ["rows", "cols", "entries", "_hash", "other"])
    def test_immutable_before_and_after_hashing(self, name):
        m = mat([[1, 2], [3, 4]])
        for _ in range(2):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
            hash(m)
        assert m == mat([[1, 2], [3, 4]])
