"""The rational closure that ``groups.finite_closure`` replaced.

It multiplies and hashes ``Fraction`` matrices (``Matrix.__matmul__``).
It is kept as the reference that ``tests/test_closure_reference.py``
checks the integer closure against: both must list the same matrices in
the same order and refuse a group with the same exception at the same
element.
"""

from __future__ import annotations

from classinv.exact import Matrix
from classinv.groups import DEFAULT_CLOSURE_CAP, ClosureCapExceeded, NotFiniteGroup


def finite_closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> list[Matrix]:
    """All products of the generators, BFS order from the identity.

    The generators must be invertible; a closed finite set of invertible
    matrices containing the identity contains every inverse, so this is
    the generated group.  Raises ClosureCapExceeded past the cap, and
    NotFiniteGroup at the first element whose trace is not an integer in
    [-n, n], or is n: an element of finite order has n roots of unity as
    eigenvalues, so a rational trace of one is such an integer, and it
    is diagonalizable, so with trace n every eigenvalue is 1 and it is
    the identity.  A unipotent generator such as a shear is refused on
    its first power.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rows
    for g in gens:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must share one size")
        if not g.is_invertible():
            raise ValueError("generators must be invertible")
    ident = Matrix.identity(n)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = h @ g
                if p not in seen:
                    trace = sum(p.entries[:: n + 1])
                    if trace.denominator != 1 or not -n <= trace < n:
                        # the trace itself may be too long to print
                        raise NotFiniteGroup("the generators generate an element of infinite order")
                    if len(seen) >= cap:
                        raise ClosureCapExceeded(cap)
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return order
