"""Points of the representation space, and the monomials of one degree
or of one block.

The library never evaluates a polynomial or moves a point; the tests do,
to check the action's convention against its meaning:
evaluate(act(g, f), p) == evaluate(f, transform_point(g^-1, p)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from classinv.exact import ZERO, DimensionMismatch, _as_fraction
from classinv.poly import DEFAULT_DIM_CAP, _exponents_desc, check_dim_cap


class MissingAssignment(ValueError):
    pass


def evaluate(f, values) -> Fraction:
    """Exact value of the polynomial f at a point.

    ``values`` is either a sequence of length num_vars or a mapping
    from variable index to value covering every variable that occurs.
    """
    sig = f.sig
    if isinstance(values, Mapping):
        lookup = values
    else:
        values = list(values)
        if len(values) != sig.num_vars:
            raise MissingAssignment(f"point has {len(values)} coordinates, need {sig.num_vars}")
        lookup = dict(enumerate(values))
    total = ZERO
    for mono, coeff in f.terms.items():
        term = coeff
        for idx, e in enumerate(mono):
            if e:
                if idx not in lookup:
                    raise MissingAssignment(f"no value for {sig.var_name(idx)}")
                term *= _as_fraction(lookup[idx]) ** e
        total += term
    return total


def apply(mat, vec) -> tuple:
    """The matrix-vector product mat * vec, vec of length mat.cols."""
    if len(vec) != mat.cols:
        raise DimensionMismatch(f"vector length {len(vec)} != {mat.cols}")
    vec = [_as_fraction(v) for v in vec]
    return tuple(
        sum((mat.at(i, j) * vec[j] for j in range(mat.cols)), ZERO) for i in range(mat.rows)
    )


def transform_point(ctx, elem, point) -> list:
    """Move a point of the representation space: covector rows by g^-1 on
    the right, vector columns by g on the left.

    The compatibility evaluate(act(g, f), p) = evaluate(f, transform_point
    (g^-1, p)) then holds with g^-1 the swapped element.
    """
    sig = ctx.sig
    point = [Fraction(v) for v in point]
    if len(point) != sig.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, need {sig.num_vars}")
    n = sig.n
    out: list = []
    for i in range(sig.k):
        row = point[i * n : (i + 1) * n]
        # row vector times g^-1
        out.extend(sum(row[a] * elem.g_inv.at(a, b) for a in range(n)) for b in range(n))
    base = sig.k * n
    for j in range(sig.m):
        out.extend(apply(elem.g, point[base + j * n : base + (j + 1) * n]))
    return out


def block_monomials(sig, comp) -> list:
    """Every monomial of the block comp (one degree per copy): the product
    over the copies of each copy's exponent vectors, lex descending."""
    out = [()]
    for c in comp:
        part = list(_exponents_desc(sig.n, c))
        out = [a + b for a in out for b in part]
    return out


def monomial_basis(sig, d: int, cap: int = DEFAULT_DIM_CAP) -> list:
    """All degree-d monomials in graded-lex order (leading monomial first)."""
    check_dim_cap(sig, d, cap)
    return list(_exponents_desc(sig.num_vars, d))
