"""The point helpers of ``points`` that the action tests rest on."""

import random
from fractions import Fraction

import pytest

from classinv.exact import Matrix
from classinv.poly import Polynomial, VarKind

from points import MissingAssignment, apply, evaluate
from test_poly import SIG2, rand_poly, xvar


class TestEvaluate:
    def test_point(self):
        x = xvar(SIG2, 1, 1)
        y = xvar(SIG2, 1, 2)
        f = x * x + y * y
        assert evaluate(f, [Fraction(3), Fraction(4)]) == 25

    def test_constant(self):
        f = Polynomial.constant(SIG2, Fraction(7, 3))
        assert evaluate(f, [Fraction(0), Fraction(0)]) == Fraction(7, 3)

    def test_missing_assignment(self):
        x = xvar(SIG2, 1, 1)
        with pytest.raises(MissingAssignment):
            evaluate(x, {1: Fraction(1)})

    def test_substitute_then_evaluate(self):
        # f(A v) == (f after substituting A) at v
        rng = random.Random(17)
        for _ in range(15):
            f = rand_poly(rng, SIG2)
            a = Matrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            )
            v = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
            left = evaluate(f.substitute_linear({(VarKind.VECTOR, 1): a}), v)
            right = evaluate(f, list(apply(a, v)))
            assert left == right
