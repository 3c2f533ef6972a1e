"""The group average that ``action.reynolds`` replaced.

It applies ``act`` to f once per element, a ``Fraction`` polynomial each
time, and adds each image with weight 1/|G|.  Its elements come from
the rational reference closure (``tests/reference_closure.py``) with
every inverse taken by elimination, so it shares neither the integer
closure's inverse table nor the one-pass integer sum of ``reynolds``.
"""

from __future__ import annotations

from fractions import Fraction

from classinv.action import ActionContext, act
from classinv.exact import add_scaled
from classinv.groups import GroupElement
from classinv.poly import Polynomial

from reference_closure import finite_closure


def reynolds(ctx: ActionContext, f: Polynomial) -> Polynomial:
    """(1/|G|) sum over g in G of act(g, f)."""
    elems = [GroupElement(g, g.inverse()) for g in finite_closure(ctx.spec.generators)]
    weight = Fraction(1, len(elems))
    total: dict = {}
    for e in elems:
        add_scaled(total, weight, act(ctx, e, f).terms)
    return Polynomial(ctx.sig, total)
