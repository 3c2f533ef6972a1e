"""Matrix groups: family descriptors, exact samplers, finite closures.

Supported families: the general linear group of an n-dimensional space,
the orthogonal group of the standard symmetric form, the symplectic
group of the standard alternating form (n even), and finite groups given
by a list of generating matrices.  A finite group is closed by a
breadth-first search over integer numerators with one common denominator
per element, so the search multiplies no `Fraction`; the elements are
handed out as `Matrix` objects.

The library decides everything with the fixed exact elements of
`small_integer_elements`.  The seeded samplers serve the tests only, as
an independent cross-check: they return exact rational matrices with
their inverses, orthogonal and symplectic ones from the Cayley transform
g = (I - S)(I + S)^-1 of a small random integer S in the Lie algebra,
and a reflection is mixed in for odd seeds so orthogonal streams hit
both determinant signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from random import Random

from .exact import Matrix, ONE, ZERO, SingularMatrixError, ensure

RESAMPLE_LIMIT = 64
DEFAULT_CLOSURE_CAP = 10_000
ENTRY_BOUND = 3  # Lie-algebra / GL entries drawn from [-ENTRY_BOUND, ENTRY_BOUND]


class ResampleLimitExceeded(RuntimeError):
    pass


class ClosureCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"group closure exceeded {cap} elements")


class NotFiniteGroup(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """Which group acts: family is one of 'gl', 'o', 'sp', 'finite'."""

    family: str
    n: int
    generators: tuple = ()
    closure_cap: int = DEFAULT_CLOSURE_CAP

    def __post_init__(self):
        if self.family not in ("gl", "o", "sp", "finite"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.family == "sp" and self.n % 2:
            raise ValueError(f"n must be even for the symplectic family (got {self.n})")
        for g in self.generators:
            if g.rows != self.n or g.cols != self.n:
                raise ValueError("generator size does not match n")


def general_linear(n: int) -> GroupSpec:
    return GroupSpec("gl", n)


def orthogonal(n: int) -> GroupSpec:
    return GroupSpec("o", n)


def symplectic(n: int) -> GroupSpec:
    return GroupSpec("sp", n)


def finite_group(generators, cap: int = DEFAULT_CLOSURE_CAP) -> GroupSpec:
    """The finite group the matrices generate, acting on their own size."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    return GroupSpec("finite", gens[0].rows, gens, cap)


@dataclass(frozen=True)
class GroupElement:
    """A group element with its exact inverse precomputed."""

    g: Matrix
    g_inv: Matrix


def symplectic_form_matrix(n: int) -> Matrix:
    """Block-diagonal alternating form: [[0,1],[-1,0]] repeated along the diagonal."""
    if n % 2:
        raise ValueError("alternating form needs even n")
    rows = [[ZERO] * n for _ in range(n)]
    for p in range(n // 2):
        rows[2 * p][2 * p + 1] = ONE
        rows[2 * p + 1][2 * p] = -ONE
    return Matrix.from_rows(rows)


@lru_cache(maxsize=None)
def form_matrix(family: str, n: int) -> Matrix:
    """The form the family preserves: the identity for gl (the pairing of
    covectors with vectors) and o, the alternating form for sp."""
    return symplectic_form_matrix(n) if family == "sp" else Matrix.identity(n)


def contains(spec: GroupSpec, g: Matrix) -> bool:
    """Exact membership test for the described group."""
    if g.rows != spec.n or g.cols != spec.n:
        return False
    if spec.family == "gl":
        return g.is_invertible()
    if spec.family in ("o", "sp"):
        F = form_matrix(spec.family, spec.n)
        return g.transpose() @ F @ g == F
    return g in group_elements_matrices(spec)[0]


def _element(spec: GroupSpec, g: Matrix) -> GroupElement:
    if spec.family in ("o", "sp"):
        F = form_matrix(spec.family, spec.n)
        inv = F.transpose() @ g.transpose() @ F  # g^T F g = F and F^-1 = F^T
    else:
        inv = g.inverse()
    return GroupElement(g, inv)


def cayley(S: Matrix) -> Matrix:
    """(I - S)(I + S)^-1; raises SingularMatrixError when I + S is singular."""
    I = Matrix.identity(S.rows)
    return (I - S) @ (I + S).inverse()


def _random_skew(rng: Random, n: int) -> Matrix:
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-ENTRY_BOUND, ENTRY_BOUND))
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix.from_rows(rows)


def _random_symmetric(rng: Random, n: int) -> Matrix:
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-ENTRY_BOUND, ENTRY_BOUND))
            rows[i][j] = v
            rows[j][i] = v
    return Matrix.from_rows(rows)


def _reflection(n: int) -> Matrix:
    return _unit(n, {(0, 0): -ONE})


def sample_element(spec: GroupSpec, seed: int) -> GroupElement:
    """Deterministic exact sample; distinct seeds give independent draws."""
    rng = Random(seed)
    if spec.family == "o":
        # I + S is invertible for every skew S.  A Cayley image with every
        # entry in {0, 1, -1} is a signed permutation, which the
        # small-integer elements already impose, so it is redrawn; for
        # n = 1 every element is +-1 and there is nothing else to draw.
        for _ in range(RESAMPLE_LIMIT):
            g = cayley(_random_skew(rng, spec.n))
            if spec.n == 1 or any(x not in (0, 1, -1) for x in g.entries):
                break
        else:
            raise ResampleLimitExceeded("could not draw an orthogonal non-permutation")
        if seed % 2:
            g = g @ _reflection(spec.n)
        return _element(spec, g)
    if spec.family == "sp":
        J = symplectic_form_matrix(spec.n)
        for _ in range(RESAMPLE_LIMIT):
            S = J @ _random_symmetric(rng, spec.n)
            try:
                g = cayley(S)
            except SingularMatrixError:
                continue
            return _element(spec, g)
        raise ResampleLimitExceeded("could not draw a symplectic element")
    if spec.family == "gl":
        for _ in range(RESAMPLE_LIMIT):
            g = Matrix.from_rows(
                [
                    [Fraction(rng.randint(-ENTRY_BOUND, ENTRY_BOUND)) for _ in range(spec.n)]
                    for _ in range(spec.n)
                ]
            )
            if g.is_invertible():
                return _element(spec, g)
        raise ResampleLimitExceeded("could not draw an invertible matrix")
    elems = group_elements(spec)
    return elems[rng.randrange(len(elems))]


def finite_closure(generators, cap: int = DEFAULT_CLOSURE_CAP, inverses=None) -> list[Matrix]:
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

    The search runs on integers.  Each element is kept as the key
    (numerators, q): the matrix is numerators / q, with q > 0 and
    gcd(q, *numerators) == 1, so equal matrices get equal keys.  A
    product of keys is divided by the gcd of its numerators and its q,
    and its trace t / q passes when q divides t and -n q <= t < n q.
    One Matrix per element is built at the end, each distinct entry
    made into a Fraction once.

    Only the generators are inverted by elimination: each new p = x s
    gets the key of its inverse inv(s) inv(x) as it is found, and a list
    `inverses` receives the position of each element's inverse.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rows
    starts = range(0, n * n, n)

    def key(g: Matrix) -> tuple:
        q = lcm(*(e.denominator for e in g.entries))
        return [e.numerator * (q // e.denominator) for e in g.entries], q

    def times(rows, q, cols, cq) -> tuple:
        p = tuple([sum(map(mul, r, c)) for r in rows for c in cols])
        pq = q * cq
        if pq != 1:
            common = gcd(pq, *p)
            if common != 1:
                p = tuple([x // common for x in p])
                pq //= common
        return p, pq

    steps = []  # (columns of the numerators, q, rows of the inverse's, its q) per generator
    for g in gens:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must share one size")
        try:
            inums, iq = key(g.inverse())
        except SingularMatrixError:
            raise ValueError("generators must be invertible") from None
        nums, q = key(g)
        steps.append(([nums[j::n] for j in range(n)], q, [inums[i : i + n] for i in starts], iq))
    ident = (tuple(int(i == j) for i in range(n) for j in range(n)), 1)
    inverse_of = {ident: ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            (nums, q), (xinv, xq) = x, inverse_of[x]
            rows = [nums[i : i + n] for i in starts]
            for cols, gq, inv_rows, inv_q in steps:
                p = times(rows, q, cols, gq)
                if p not in inverse_of:
                    pnums, pq = p
                    t = sum(pnums[:: n + 1])
                    if t % pq or not -n * pq <= t < n * pq:
                        # the trace itself may be too long to print
                        raise NotFiniteGroup("the generators generate an element of infinite order")
                    if len(inverse_of) >= cap:
                        raise ClosureCapExceeded(cap)
                    inverse_of[p] = times(inv_rows, inv_q, [xinv[j::n] for j in range(n)], xq)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    if inverses is not None:
        position = {k: i for i, k in enumerate(order)}
        inverses[:] = [position[inverse_of[k]] for k in order]
    made: dict = {}  # (numerator, q) -> Fraction
    out = []
    for nums, q in order:
        entries = []
        for x in nums:
            f = made.get((x, q))
            if f is None:
                f = made[x, q] = Fraction(x, q)
            entries.append(f)
        out.append(Matrix(n, n, entries))
    return out


@lru_cache(maxsize=None)
def group_elements_matrices(spec: GroupSpec) -> tuple:
    """(elements, inverses): a finite group's matrices in closure order, and
    the position of each one's inverse."""
    if spec.family != "finite":
        raise NotFiniteGroup(f"{spec.family} is not a finite family")
    inverses: list = []
    mats = tuple(finite_closure(spec.generators, spec.closure_cap, inverses))
    return mats, tuple(inverses)


@lru_cache(maxsize=None)
def group_elements(spec: GroupSpec) -> tuple:
    """Every element of a finite group, as GroupElement, in closure order."""
    mats, inverses = group_elements_matrices(spec)
    return tuple(GroupElement(g, mats[i]) for g, i in zip(mats, inverses))


def _unit(n: int, entries: dict) -> Matrix:
    """The identity with the given {(row, col): value} entries replaced."""
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return Matrix.from_rows(rows)


def _swap(n: int, *pairs) -> Matrix:
    """The permutation matrix exchanging each pair (a, b) of coordinates."""
    swapped = {}
    for a, b in pairs:
        swapped.update({(a, a): ZERO, (b, b): ZERO, (a, b): ONE, (b, a): ONE})
    return _unit(n, swapped)


def small_integer_elements(spec: GroupSpec) -> list[GroupElement]:
    """Fixed exact group elements whose invariants are the group's.

    A set and the group it generates fix the same vectors, so the list
    only has to generate a group with the right invariants.  For a finite
    group it is the given generators; the closure is still built, once
    and cached, to prove the group finite within its cap, and it serves
    `reynolds`.  For a classical family its signed
    (block) permutations generate the Weyl group W (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1990, 1.5): for o(n), diag(-1, 1, ...)
    and the adjacent transpositions give every sign change and every
    permutation; for gl(n) the adjacent transpositions give every
    permutation; for sp(n), kappa = [[0, 1], [-1, 0]] on the first pair
    and the adjacent pair swaps give kappa on every pair, hence every
    -1 block and J, in a group of order 4^h h! (h = n/2).  Every other
    element generates a one-parameter subgroup up to Zariski closure:
    the shears and the symplectic transvection I + J v v^T (v = e1 + e3)
    are unipotent, and the 3-4-5 rotation has infinite order because
    (3 + 4i)/5 is not a root of unity.  A vector fixed by W and by such
    an element is therefore killed by the W-orbit of its Lie-algebra
    direction, and those orbits span sl(n), so(n) and sp(n).
    diag(2, 1, ...) adds the torus of GL and diag(-1, 1, ...) the
    determinant -1 of O(n), so the common fixed space of this list is
    exactly the invariant space.  The last element is the rotation (o),
    the shear (gl, sp(2)) or the transvection (sp(n), n >= 4).  The
    shears and the transvection satisfy (g - 1)^2 = 0, so `certify`
    imposes them through their nilpotent logarithm g - 1, acting on
    polynomials as a derivation whose kernel is the space g fixes.

    A classical list is built, and each element checked to lie in the
    group, once per (family, n).  A finite group's list is not cached:
    it rests on the cached closure, which callers may clear.
    """
    if spec.family == "finite":
        mats, inverses = group_elements_matrices(spec)  # raises unless the group is finite
        # the generators follow the identity in closure order: index finds them at once
        return [GroupElement(g, mats[inverses[mats.index(g)]]) for g in spec.generators]
    return list(_classical_elements(spec.family, spec.n))


@lru_cache(maxsize=None)
def _classical_elements(family: str, n: int) -> tuple:
    spec = GroupSpec(family, n)
    if family == "o":
        out = [_reflection(n)] + [_swap(n, (a, a + 1)) for a in range(n - 1)]
        if n >= 2:
            c, s = Fraction(3, 5), Fraction(4, 5)
            out.append(_unit(n, {(0, 0): c, (1, 1): c, (0, 1): -s, (1, 0): s}))
    elif family == "sp":
        out = [
            _unit(n, {(0, 0): ZERO, (1, 1): ZERO, (0, 1): ONE, (1, 0): -ONE}),
            _unit(n, {(0, 1): ONE}),
        ]
        out += [_swap(n, (a, a + 2), (a + 1, a + 3)) for a in range(0, n - 2, 2)]
        if n >= 4:
            # I + J v v^T, v = e1 + e3: rows 2 and 4 lose x1 + x3
            out.append(_unit(n, {(a, b): -ONE for a in (1, 3) for b in (0, 2)}))
    else:
        out = [_swap(n, (a, a + 1)) for a in range(n - 1)] + [_unit(n, {(0, 0): Fraction(2)})]
        if n >= 2:
            out.append(_unit(n, {(0, 1): ONE}))
    for g in out:
        ensure(contains(spec, g), f"a built-in element is not in the {family} group")
    return tuple(_element(spec, g) for g in out)
