"""The group action on polynomials, invariance testing, group averaging.

A group element g acts on a polynomial in covector and vector copies by
substitution: vector-copy coordinates are rewritten through g^-1, so
that evaluating the transformed polynomial at a point equals evaluating
the original at the inversely-moved point, and covector-copy
coordinates are rewritten through g^T, the variable-level form of
right multiplication of the covector row by g.  With both conventions
in place the dual pairing of covector copy i against vector copy j is
fixed by every g, and act(g, act(h, f)) = act(g*h, f) holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import (
    GroupElement,
    GroupSpec,
    NotFiniteGroup,
    group_elements,
    small_integer_elements,
)
from .poly import Polynomial, SpaceSignature, VarKind


@dataclass(frozen=True)
class ActionContext:
    spec: GroupSpec
    sig: SpaceSignature

    def __post_init__(self):
        if self.spec.n != self.sig.n:
            raise ValueError(
                f"group acts on dimension {self.spec.n}, signature has n = {self.sig.n}"
            )


def act(ctx: ActionContext, elem: GroupElement, f: Polynomial) -> Polynomial:
    """Apply a group element to a polynomial, exactly."""
    if f.sig != ctx.sig:
        raise ValueError("polynomial signature does not match the context")
    assign = {}
    gT = elem.g.transpose()
    for i in range(1, ctx.sig.k + 1):
        assign[(VarKind.COVECTOR, i)] = gT
    for j in range(1, ctx.sig.m + 1):
        assign[(VarKind.VECTOR, j)] = elem.g_inv
    return f.substitute_linear(assign)


def transform_point(ctx: ActionContext, elem: GroupElement, point) -> list:
    """Move a point of the representation space: covector rows by g^-1 on
    the right, vector columns by g on the left.

    The compatibility evaluate(act(g, f), p) = evaluate(f, transform_point
    (g^-1, p)) then holds with g^-1 the swapped element.
    """
    sig = ctx.sig
    point = [Fraction(v) if not isinstance(v, Fraction) else v for v in point]
    if len(point) != sig.num_vars:
        raise ValueError(f"point has {len(point)} coordinates, need {sig.num_vars}")
    n = sig.n
    out: list = []
    for i in range(sig.k):
        row = point[i * n : (i + 1) * n]
        # row vector times g^-1
        out.extend(
            sum(row[a] * elem.g_inv.at(a, b) for a in range(n)) for b in range(n)
        )
    base = sig.k * n
    for j in range(sig.m):
        col = point[base + j * n : base + (j + 1) * n]
        out.extend(elem.g.apply(col))
    return out


def is_invariant(ctx: ActionContext, f: Polynomial) -> bool:
    """Decide invariance exactly.

    f is tested against every element of `small_integer_elements`, whose
    common fixed space is exactly the invariant space (for a finite
    group the list is every element), so True is a proof and False a
    refutation by the first element that moves f.
    """
    if f.sig != ctx.sig:
        raise ValueError("polynomial signature does not match the context")
    return all(act(ctx, e, f) == f for e in small_integer_elements(ctx.spec))


def reynolds(ctx: ActionContext, f: Polynomial) -> Polynomial:
    """Average f over a finite group; the projection onto invariants.

    Idempotent, identity on invariants, and multiplicative over invariant
    factors: reynolds(phi * f) = phi * reynolds(f) when phi is invariant.
    """
    if ctx.spec.family != "finite":
        raise NotFiniteGroup("averaging needs a finite group")
    elems = group_elements(ctx.spec)
    total = Polynomial.zero(ctx.sig)
    for e in elems:
        total = total + act(ctx, e, f)
    return total.scale(Fraction(1, len(elems)))
