"""Matrix groups: family descriptors, exact samplers, finite closures.

Supported families: the general linear group of an n-dimensional space,
the orthogonal group of the standard symmetric form, the symplectic
group of the standard alternating form (n even), and finite groups given
by a list of generating matrices.

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


def finite_group(
    generators, n: int | None = None, cap: int = DEFAULT_CLOSURE_CAP
) -> GroupSpec:
    gens = tuple(generators)
    if not gens and n is None:
        raise ValueError("need generators or an explicit n")
    size = n if n is not None else gens[0].rows
    return GroupSpec("finite", size, gens, cap)


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


def is_orthogonal(g: Matrix) -> bool:
    return g.transpose() @ g == Matrix.identity(g.rows)


def is_symplectic(g: Matrix) -> bool:
    J = symplectic_form_matrix(g.rows)
    return g.transpose() @ J @ g == J


def contains(spec: GroupSpec, g: Matrix) -> bool:
    """Exact membership test for the described group."""
    if g.rows != spec.n or g.cols != spec.n:
        return False
    if spec.family == "gl":
        return g.is_invertible()
    if spec.family == "o":
        return is_orthogonal(g)
    if spec.family == "sp":
        return is_symplectic(g)
    return g in group_elements_matrices(spec)


def _element(spec: GroupSpec, g: Matrix) -> GroupElement:
    if spec.family == "o":
        inv = g.transpose()
    elif spec.family == "sp":
        J = symplectic_form_matrix(spec.n)
        inv = (-J) @ g.transpose() @ J  # J^-1 = -J since J^2 = -I
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
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    rows[0][0] = -ONE
    return Matrix.from_rows(rows)


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


def finite_closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> list[Matrix]:
    """All products of the generators, BFS order from the identity.

    The generators must be invertible; a closed finite set of invertible
    matrices containing the identity contains every inverse, so this is
    the generated group.  Raises ClosureCapExceeded past the cap.
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
                    if len(seen) >= cap:
                        raise ClosureCapExceeded(cap)
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return order


@lru_cache(maxsize=None)
def group_elements_matrices(spec: GroupSpec) -> tuple:
    if spec.family != "finite":
        raise NotFiniteGroup(f"{spec.family} is not a finite family")
    return tuple(finite_closure(spec.generators, spec.closure_cap))


@lru_cache(maxsize=None)
def group_elements(spec: GroupSpec) -> tuple:
    """Every element of a finite group, as GroupElement, in closure order."""
    return tuple(_element(spec, g) for g in group_elements_matrices(spec))


def _perm_matrix(n: int, perm) -> Matrix:
    rows = [[ZERO] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = ONE
    return Matrix.from_rows(rows)


def _transpositions(n: int):
    for i in range(n):
        for j in range(i + 1, n):
            perm = list(range(n))
            perm[i], perm[j] = perm[j], perm[i]
            yield _perm_matrix(n, perm)


def small_integer_elements(spec: GroupSpec) -> list[GroupElement]:
    """Fixed exact group elements whose invariants are the group's.

    The signed (block) permutations among them generate the Weyl group
    W.  Every other element generates a one-parameter subgroup up to
    Zariski closure: the shears and the symplectic transvection
    I + J v v^T (v = e1 + e3) are unipotent, and the 3-4-5 rotation has
    infinite order because (3 + 4i)/5 is not a root of unity.  A vector
    fixed by W and by such an element is therefore killed by the W-orbit
    of its Lie-algebra direction, and those orbits span sl(n), so(n) and
    sp(n).  diag(2, 1, ...) adds the torus of GL and the sign diagonals
    the determinant -1 of O(n), so the common fixed space of this list is
    exactly the invariant space.  For a finite group the list is every
    element.
    """
    n = spec.n
    out: list[Matrix] = []
    if spec.family == "o":
        for mask in range(1, 1 << n):
            rows = [
                [(-ONE if (mask >> i) & 1 else ONE) if i == j else ZERO for j in range(n)]
                for i in range(n)
            ]
            out.append(Matrix.from_rows(rows))
        out.extend(_transpositions(n))
        for t in _transpositions(n):
            out.append(_reflection(n) @ t)
        if n >= 2:
            rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
            rows[0][0] = rows[1][1] = Fraction(3, 5)
            rows[0][1], rows[1][0] = Fraction(-4, 5), Fraction(4, 5)
            out.append(Matrix.from_rows(rows))
    elif spec.family == "sp":
        half = n // 2
        kappa = Matrix.from_rows([[ZERO, ONE], [-ONE, ZERO]])
        minus2 = Matrix.from_rows([[-ONE, ZERO], [ZERO, -ONE]])
        shear = Matrix.from_rows([[ONE, ONE], [ZERO, ONE]])
        for block in (kappa, minus2, shear):
            for p in range(half):
                rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
                for a in range(2):
                    for b in range(2):
                        rows[2 * p + a][2 * p + b] = block.at(a, b)
                out.append(Matrix.from_rows(rows))
        out.append(symplectic_form_matrix(n))
        for p in range(half):
            for q in range(p + 1, half):
                perm = list(range(n))
                perm[2 * p], perm[2 * q] = perm[2 * q], perm[2 * p]
                perm[2 * p + 1], perm[2 * q + 1] = perm[2 * q + 1], perm[2 * p + 1]
                out.append(_perm_matrix(n, perm))
        if n >= 4:
            vvT = Matrix.from_rows(
                [[ONE if i in (0, 2) and j in (0, 2) else ZERO for j in range(n)] for i in range(n)]
            )
            out.append(Matrix.identity(n) + symplectic_form_matrix(n) @ vvT)
    elif spec.family == "gl":
        out.extend(_transpositions(n))
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rows[0][0] = Fraction(2)
        out.append(Matrix.from_rows(rows))
        if n >= 2:
            rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
            rows[0][1] = ONE
            out.append(Matrix.from_rows(rows))
    else:
        return list(group_elements(spec))
    for g in out:
        ensure(contains(spec, g), f"a built-in element is not in the {spec.family} group")
    return [_element(spec, g) for g in out]
