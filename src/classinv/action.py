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


def substitution(sig: SpaceSignature, elem: GroupElement) -> dict:
    """The matrix each copy's coordinates are rewritten through when elem
    acts: g^T for every covector copy, g^-1 for every vector copy.

    This is the one statement of the action convention; `act` substitutes
    it and the kernel's constraint table reads its moves off the same.
    """
    gT = elem.g.transpose() if sig.k else None  # no covector copy, no transpose
    assign = {(VarKind.COVECTOR, i): gT for i in range(1, sig.k + 1)}
    assign.update({(VarKind.VECTOR, j): elem.g_inv for j in range(1, sig.m + 1)})
    return assign


def act(ctx: ActionContext, elem: GroupElement, f: Polynomial) -> Polynomial:
    """Apply a group element to a polynomial, exactly."""
    if f.sig != ctx.sig:
        raise ValueError("polynomial signature does not match the context")
    return f.substitute_linear(substitution(ctx.sig, elem))


def is_invariant(ctx: ActionContext, f: Polynomial) -> bool:
    """Decide invariance exactly.

    f is tested against every element of `small_integer_elements`, a
    generating set whose common fixed space is exactly the invariant
    space (for a finite group, its given generators), so True is a
    proof and False a refutation by the first element that moves f.
    """
    if f.sig != ctx.sig:
        raise ValueError("polynomial signature does not match the context")
    return all(act(ctx, e, f) == f for e in small_integer_elements(ctx.spec))


def reynolds(ctx: ActionContext, f: Polynomial) -> Polynomial:
    """Average f over a finite group; the projection onto invariants.

    Idempotent, identity on invariants, and multiplicative over invariant
    factors: reynolds(phi * f) = phi * reynolds(f) when phi is invariant.
    The images of f under every element are summed in one integer
    accumulator per coefficient denominator (`substitute_mean`), the
    substitution of `act` for each element, and divided once per term.
    """
    if ctx.spec.family != "finite":
        raise NotFiniteGroup("averaging needs a finite group")
    if f.sig != ctx.sig:
        raise ValueError("polynomial signature does not match the context")
    return f.substitute_mean([substitution(ctx.sig, e) for e in group_elements(ctx.spec)])
