"""Wide agreement sweep against the from-scratch reference implementation.

Every small configuration worth enumerating is checked on both sides.
The reference ranks the full stacked substitution matrix with sympy, so
agreement here means the production kernel path (orbit solving, generic
cuts, block decomposition) computes the same subspace dimensions as the
naive definition.
"""

from classinv.certify import invariant_subspace_basis
from classinv.groups import general_linear, orthogonal, symplectic
from classinv.poly import SpaceSignature, space_dimension

from oracle import invariant_dimension

_MAKE = {"o": orthogonal, "sp": symplectic, "gl": general_linear}


def _configs():
    out = []
    for n in (1, 2, 3):
        for m in (1, 2):
            for d in (1, 2, 3):
                out.append(("o", n, 0, m, d))
    for m in (2, 3):
        for d in (1, 2, 3):
            out.append(("sp", 2, 0, m, d))
    for n in (1, 2):
        for k, m in ((1, 1), (1, 2), (2, 1)):
            for d in (1, 2, 3):
                out.append(("gl", n, k, m, d))
    return out


def test_kernel_dims_agree_with_reference():
    checked = 0
    for fam, n, k, m, d in _configs():
        sig = SpaceSignature(n, k, m)
        dim_space = space_dimension(sig, d)
        if dim_space > 60 or (d % 2 and dim_space > 40):
            continue
        ours = invariant_subspace_basis(_MAKE[fam](n), sig, d).dim
        ref = invariant_dimension(fam, n, k, m, d, seed=7)
        assert ours == ref, (fam, n, k, m, d, ours, ref)
        checked += 1
    assert checked >= 30
