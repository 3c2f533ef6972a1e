"""Kernel dimensions against the closed form, block by block.

`dimension_formula` computes the invariant dimension of every block from
Cauchy's decomposition, with no linear algebra, so it reaches cells the
sympy oracle cannot (o n=4 m=4 d=6 among them).  The grid covers o with
n <= 4, sp with n <= 4, gl with n <= 3, up to four copies, degrees 1..6.
The theorem says the contractions span every invariant, so the product
span must reach the same dimension.
"""

from collections import Counter

import pytest

from classinv.certify import fft_verify, generator_products_basis, invariant_subspace_basis
from classinv.groups import general_linear, orthogonal, symplectic
from classinv.poly import SpaceSignature, _exponents_desc

from dimension_formula import block_dim, invariant_dim, kostka, schur_dim

_MAKE = {"o": orthogonal, "sp": symplectic, "gl": general_linear}

_GRID = (
    [("o", n, 0, m) for n in (1, 2, 3, 4) for m in (1, 2, 3, 4)]
    + [("sp", n, 0, m) for n in (2, 4) for m in (1, 2, 3, 4)]
    + [("gl", n, k, m) for n in (1, 2, 3) for k in (1, 2, 3) for m in (1, 2, 3) if k + m <= 4]
)


def test_formula_on_known_values():
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((2, 2), 4) == 20
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2), (2, 2, 1)) == 2
    assert kostka((2, 1), (3,)) == 0
    assert invariant_dim("o", 3, 0, 2, 2) == 3  # s(1,1), s(1,2), s(2,2)
    # 21 products of two of the six w(i,j), less the one Plücker relation
    assert invariant_dim("sp", 2, 0, 4, 4) == 21 - 1


@pytest.mark.parametrize("family,n,k,m", _GRID, ids=lambda v: str(v))
def test_block_dims_match_closed_form(family, n, k, m):
    spec, sig = _MAKE[family](n), SpaceSignature(n, k, m)
    for d in range(1, 7):
        res = invariant_subspace_basis(spec, sig, d)
        blocks = Counter(f.copy_degrees() for f in res.basis)
        expected = {comp: block_dim(family, n, k, comp) for comp in _exponents_desc(k + m, d)}
        assert blocks == Counter({c: v for c, v in expected.items() if v}), d
        assert res.dim == invariant_dim(family, n, k, m, d), d
        assert generator_products_basis(spec, sig, d).dim_span == res.dim, d


@pytest.mark.parametrize(
    "family,n,k,m,degrees",
    [cell + (range(7),) for cell in _GRID] + [("o", 3, 0, 4, (6,)), ("sp", 4, 0, 4, (6,))],
    ids=lambda v: v if isinstance(v, str) else str(v),
)
def test_class_spans_match_the_full_span(family, n, k, m, degrees):
    # fft_verify ranks the products of one block per copy-permutation
    # class and weights each rank by the class size
    spec, sig = _MAKE[family](n), SpaceSignature(n, k, m)
    for d in degrees:
        span = generator_products_basis(spec, sig, d)
        rep = fft_verify(spec, sig, d)
        assert (rep.dim_span, rep.free_products) == (span.dim_span, span.free_count), d
        assert sum(size for _, size, _ in rep.span_by_class) == len(list(_exponents_desc(k + m, d)))
