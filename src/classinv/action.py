"""The group action on polynomials, invariance testing, group averaging.

A group element g acts on a polynomial in covector and vector copies by
substitution: vector-copy coordinates are rewritten through g^-1, so
that evaluating the transformed polynomial at a point equals evaluating
the original at the inversely-moved point, and covector-copy
coordinates are rewritten through g^T, the variable-level form of
right multiplication of the covector row by g.  With both conventions
in place the dual pairing of covector copy i against vector copy j is
fixed by every g, and act(g, act(h, f)) = act(g*h, f) holds exactly.

`constraint_table` compiles the fixed generating set of a group once,
each element as an orbit move, a derivation or a plain `act`; the
kernels of `certify` and `is_invariant` impose the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .exact import Matrix, ensure, numerators
from .groups import (
    GroupElement,
    GroupSpec,
    NotFiniteGroup,
    group_elements,
    small_integer_elements,
)
from .poly import Polynomial, SpaceSignature, VarKind, integer_forms, linear_forms


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


def _picker(idx: list):
    # operator.itemgetter, but returning a tuple for any number of indices
    return itemgetter(*idx) if len(idx) > 1 else lambda m: tuple([m[v] for v in idx])


def orbit_scale(scales: tuple, m) -> tuple[int, int]:
    """(p, q): an "orbit" move with these scales sends monomial m to p / q
    times its image (see _constraint_table)."""
    p = q = 1
    for v, num, den in scales:
        p *= num ** m[v]
        q *= den ** m[v]
    return p, q


def _derive(moves: list, v: dict) -> dict:
    """D v for an integer vector v, for the derivation D that sends each
    variable x of `moves` to its form, a tuple of (variable, integer
    coefficient) pairs, and the others to 0."""
    acc: dict = {}
    for m, c in v.items():
        for x, form in moves:
            e = m[x]
            if not e:
                continue
            ce = c * e
            base = m[:x] + (e - 1,) + m[x + 1 :]
            for u, fc in form:
                mono = base[:u] + (base[u] + 1,) + base[u + 1 :]
                acc[mono] = acc.get(mono, 0) + ce * fc
    return {m: t for m, t in acc.items() if t}


def _constraint_table(sig: SpaceSignature, elems: tuple) -> tuple:
    """How each of elems is imposed, in list order, as (kind, payload),
    the kind read off g.  "orbit": g is a scaled permutation, and the
    payload (image, scales) moves monomial m to image(m) times num^e /
    den^e for each (variable, num, den) in scales, e the variable's
    exponent in m; scales holds every variable scale other than 1, -1
    included, as a reduced fraction num / den with den > 0.  "derive":
    (g - 1)^2 = 0 with g != 1, and the payload is D as `_derive` moves:
    each variable's form under the substitution of g - 1 (N^T on covector
    copies, g^-1 - 1 = -N on vector copies), times the lcm of the forms'
    denominators; every row of a cut shares that scale, so the relations
    are D's own.  "act": any other element, the payload itself.
    """
    one = Matrix.identity(sig.n)
    table = []
    for elem in elems:
        subst = substitution(sig, elem)
        if all(sum(map(bool, elem.g.row(a))) == 1 for a in range(sig.n)):
            forms = linear_forms(sig, subst)
            ensure(all(len(form) == 1 for form in forms), "a scaled permutation mixes variables")
            scale = [form[0][1] for form in forms]  # variable v goes to scale[v] * x_u
            src = sorted(range(len(forms)), key=lambda v: forms[v][0][0])  # image[u] = m[v]
            scales = tuple((v, s.numerator, s.denominator) for v, s in enumerate(scale) if s != 1)
            table.append(("orbit", (_picker(src), scales)))
            continue
        nil = elem.g - one
        if not any((nil @ nil).entries):
            _, forms = integer_forms(linear_forms(sig, {c: mat - one for c, mat in subst.items()}))
            table.append(("derive", tuple((x, form) for x, form in enumerate(forms) if form)))
        else:
            table.append(("act", elem))
    return tuple(table)


_TABLES: dict = {}  # the classical families' compiled tables, by (signature, element list)


def constraint_table(spec: GroupSpec, sig: SpaceSignature) -> tuple:
    """The compiled table of `small_integer_elements(spec)`, a generating
    set whose common fixed space is exactly the invariant space (for a
    finite group, its given generators).  A classical family's table is
    cached per (signature, element list); a finite group's list rests on
    a closure callers may clear, so its table is compiled per call."""
    elems = tuple(small_integer_elements(spec))
    if spec.family == "finite":
        return _constraint_table(sig, elems)
    table = _TABLES.get((sig, elems))
    if table is None:
        table = _TABLES[sig, elems] = _constraint_table(sig, elems)
    return table


def is_invariant(ctx: ActionContext, f: Polynomial) -> bool:
    """Decide invariance exactly: True is a proof, False a refutation by
    the first entry of `constraint_table` that moves f.  Each entry is
    tested on F = L f, L the lcm of f's denominators, as the kernel
    imposes it: "orbit" by a_image(m) = c(m) a_m for every m, "derive" by
    D F = 0 (the kernel of act(u, .) - id, see `certify`), "act" by
    act(elem, F) = F.
    """
    if f.sig != ctx.sig:
        raise ValueError("polynomial signature does not match the context")
    _, ints = numerators(f.terms)
    for kind, payload in constraint_table(ctx.spec, ctx.sig):
        if kind == "orbit":
            image, scales = payload
            for m, a in ints.items():
                p, q = orbit_scale(scales, m)
                if ints.get(image(m), 0) * q != p * a:
                    return False
        elif kind == "derive":
            if _derive(payload, ints):
                return False
        elif act(ctx, payload, g := Polynomial(ctx.sig, ints)) != g:
            return False
    return True


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
