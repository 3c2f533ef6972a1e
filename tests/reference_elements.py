"""The element lists `groups.small_integer_elements` used to enumerate.

Before the lists were cut down to generating sets, they listed whole
subsets of the group: every sign mask, every transposition and every
reflection times a transposition for o(n); every transposition for
gl(n); kappa, -1 and the shear on every pair, J and every pair swap for
sp(n); every element of a finite group.  The tests keep that
enumeration as a reference: a set and the group it generates fix the
same polynomials, so both lists must give the same kernels and the same
invariance decisions.
"""

from fractions import Fraction

from classinv.exact import Matrix
from classinv.groups import GroupSpec, _element, group_elements, symplectic_form_matrix


def _unit(n, entries):
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = Fraction(v)
    return Matrix.from_rows(rows)


def _transposition(n, a, b):
    return _unit(n, {(a, a): 0, (b, b): 0, (a, b): 1, (b, a): 1})


def _transpositions(n):
    return [_transposition(n, a, b) for a in range(n) for b in range(a + 1, n)]


def reference_matrices(spec: GroupSpec) -> list[Matrix]:
    """The full enumeration for a classical family, as matrices."""
    n = spec.n
    if spec.family == "o":
        reflection = _unit(n, {(0, 0): -1})
        out = [
            _unit(n, {(a, a): -1 for a in range(n) if mask >> a & 1}) for mask in range(1, 1 << n)
        ]
        out += _transpositions(n) + [reflection @ t for t in _transpositions(n)]
        if n >= 2:
            c, s = Fraction(3, 5), Fraction(4, 5)
            out.append(_unit(n, {(0, 0): c, (1, 1): c, (0, 1): -s, (1, 0): s}))
        return out
    if spec.family == "gl":
        out = _transpositions(n) + [_unit(n, {(0, 0): 2})]
        if n >= 2:
            out.append(_unit(n, {(0, 1): 1}))
        return out
    if spec.family != "sp":
        raise ValueError("only the classical families have a matrix enumeration")
    half = n // 2
    kappa = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): -1}
    minus2 = {(0, 0): -1, (1, 1): -1}
    shear = {(0, 1): 1}
    out = [
        _unit(n, {(2 * p + a, 2 * p + b): v for (a, b), v in block.items()})
        for block in (kappa, minus2, shear)
        for p in range(half)
    ]
    out.append(symplectic_form_matrix(n))
    out += [
        _transposition(n, 2 * p, 2 * q) @ _transposition(n, 2 * p + 1, 2 * q + 1)
        for p in range(half)
        for q in range(p + 1, half)
    ]
    if n >= 4:
        vvT = Matrix.from_rows(
            [[Fraction(int(i in (0, 2) and j in (0, 2))) for j in range(n)] for i in range(n)]
        )
        out.append(Matrix.identity(n) + symplectic_form_matrix(n) @ vvT)
    return out


def reference_elements(spec: GroupSpec):
    """The full enumeration as group elements, in the same order; for a
    finite group, every element."""
    if spec.family == "finite":
        return list(group_elements(spec))
    return [_element(spec, g) for g in reference_matrices(spec)]
