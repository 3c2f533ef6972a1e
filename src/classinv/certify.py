"""Contraction generators, graded invariant subspaces, span certificates.

The certificate logic is a sandwich.  Products of contraction generators
span a subspace of the true invariants (each generator is fixed by the
whole group, exactly).  The kernel of the stacked constraints
act(g, .) - id over any set of genuine group elements contains the true
invariants.  So

    span(products)  <=  invariants  <=  kernel

holds unconditionally, and whenever dim_span = dim_kernel all three
spaces coincide: the contractions span every invariant of that degree.
That equality is an exact certificate, not a probabilistic statement.
The constraint set is `groups.small_integer_elements`, whose common
fixed space is exactly the invariant space, so the kernel is the
invariant space itself and inequality refutes the spanning claim at
that degree.

An element u with (u - 1)^2 = 0 (the shears and the symplectic
transvection) is imposed through the derivation D that u - 1 induces
instead of act(u, .) - id.  The substitution of u is exp(D), and
exp(D) - 1 = D (1 + D/2! + ...) whose second factor is unipotent, hence
invertible, so the two constraints have one kernel on every graded piece
and the sandwich is unchanged (Derksen and Kemper, *Computational
Invariant Theory*, 2nd ed., 2015).

Kernels are computed block by block: the action rewrites each copy's
coordinates within the copy, so the per-copy multidegree splits a graded
piece into independent blocks and no matrix ever reaches the full graded
dimension.  `action.constraint_table` reads each element's kind off g,
once per signature for a classical list (per call for a finite
group's), and its moves off `action.substitution`; `is_invariant`
tests a single polynomial against the same table.  The scaled
permutations are solved together by one integer-weighted walk per
monomial orbit before any row reduction happens; the other elements
then cut the small surviving space.  A unipotent one maps each
surviving vector to D v, whose terms are each monomial's variables
moved one at a time, with integer coefficients; any other (the 3-4-5
rotation, a finite group's other generators) to one `act`, whose
substitution builds each monomial's image from memoized lower-degree
images.

Blocks come in copy-permutation classes.  Every vector copy is moved by
the same g^-1 and every covector copy by the same g^T, so permuting
vector copies among themselves, or covector copies among themselves,
commutes with the action: the kernel of block sigma(mu) is sigma applied
to the kernel of block mu.  Only each class's representative, whose
covector degrees and vector degrees are each sorted descending, goes
through the orbit walk and the cuts; every other block relabels the
representative's surviving vectors copy by copy, coefficients unchanged.
The product span splits the same way: every contraction is homogeneous
in each copy, so every product lies in one block, and a copy
permutation carries the products of block mu onto those of block
sigma(mu) up to sign.  So `fft_verify` ranks only the products in each
representative block and weights each rank by its class size
(`_class_spans`), and `decompose_in_generators` expands only the
products in the blocks of f's monomials.
Each block is then put in reduced echelon form over the monomials its
vectors use; that form is unique for the space and the monomial order,
so the basis does not depend on which block was computed.  Blocks of a
class that visit the representative's positive-degree copies in one
order (one pattern) pull the lex order back to one order on the
representative's monomials, because a zero-degree copy holds only the
zero exponent and never decides a comparison.  So `rref` runs once per
class and pattern, in representative coordinates, and each block of
the pattern relabels its rows term by term.

For a classical family the orbit walk starts only from the monomials of
weight zero for the diagonal torus, generated directly rather than
filtered (`_weight_zero_monomials`).  Every invariant is fixed by the
torus, so each of its monomials has weight zero, and the Weyl elements
in the walk map weight-zero monomials to weight-zero monomials, so no
surviving orbit leaves that set.  For o and gl the filter drops only
what the walk already kills: the transpositions carry a monomial with
an odd sum on some coordinate to one with an odd sum on the first,
which diag(-1, 1, ...) negates, and diag(2, 1, ...) with the
transpositions scales by a power of 2 some monomial in the orbit of one
whose covector and vector sums differ.  For sp no listed element is
diag(t, 1/t) on a pair, so the filter removes orbits the walk would
keep; it is sound
because those diagonals lie in Sp(n), so the invariants lie in the
weight-zero space and span <= invariants <= kernel still holds exactly.
Only sp's intermediate dim_history entries differ from an unfiltered
walk (see Procesi, *Lie Groups*, 2007).  A finite group has no torus:
the same enumerator gives every monomial weight 0 and keeps them all.

Every rank here is one sparse ``exact.Echelon`` over rows keyed by
monomial: product spans and decompositions insert expanded products, and
a cut inserts the rows D v or (g - 1) v and keeps the relations among
them as the surviving combinations.  Up to the canonical stage the
kernel is integral: the orbit walk yields integer vectors, D v of an
integer vector is one, the relations are primitive integer combinations,
and the product span multiplies the contractions' integer coefficients.
Only a cut through `act` (the 3-4-5 rotation, a finite group's
generators) makes rational rows, which `Echelon` scales to integers as
it inserts them.  A ``Fraction`` is made once, when `rref` puts a
class's pattern in reduced echelon form, and every block of the pattern
shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from operator import add, itemgetter, neg, pos, xor

from .action import ActionContext, _derive, _picker, act, constraint_table, is_invariant, orbit_scale
from .exact import Echelon, add_scaled, ensure, numerators, rref
from .groups import GroupSpec, form_matrix
from .poly import (
    DEFAULT_DIM_CAP,
    Monomial,
    Polynomial,
    SpaceSignature,
    VarKind,
    _exponents_desc,
    check_dim_cap,
    grlex_key,
    mul_terms,
    space_dimension,
    weighted_exponents,
)

class NotInvariant(ValueError):
    pass


class ProductCapExceeded(ValueError):
    def __init__(self, count: int, d: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"degree {d} has {count} generator products, above the cap {cap}")


class NotInSpan(ValueError):
    def __init__(self, residual: Polynomial, dim_span: int):
        self.residual = residual
        self.dim_span = dim_span
        super().__init__(
            f"polynomial is outside the span of generator products "
            f"(span dimension {dim_span}, nonzero residual of degree {residual.degree()})"
        )


# ---------------------------------------------------------------------------
# generators


# each family's contraction letter, as written in expressions
SHORTHAND = {"gl": "c", "o": "s", "sp": "w"}


@dataclass(frozen=True, order=True)
class GeneratorId:
    """A degree-2 contraction: dual pairing ('gl'), symmetric form ('o'),
    alternating form ('sp'), of copies i and j."""

    family: str
    i: int
    j: int

    def __post_init__(self):
        if self.family not in SHORTHAND:
            raise ValueError(f"unknown contraction family {self.family!r}")
        if self.i < 1 or self.j < 1:
            raise ValueError("copy indices are 1-based")

    def symbol(self) -> str:
        return f"{SHORTHAND[self.family]}({self.i},{self.j})"


def contraction(gen: GeneratorId, sig: SpaceSignature) -> Polynomial:
    """Expand a contraction into coordinates, as an exact polynomial:
    the sum of F[a,b] * y_i[a] * x_j[b] over the family's form F, where y
    is covector copy i for gl and vector copy i otherwise.

    The symmetric form accepts either index order (it is symmetric); the
    alternating form likewise, with w(j,i) = -w(i,j) and w(i,i) = 0.
    """
    if gen.family == "gl":
        if gen.i > sig.k:
            raise ValueError(f"covector copy {gen.i} out of range 1..{sig.k}")
        if gen.j > sig.m:
            raise ValueError(f"vector copy {gen.j} out of range 1..{sig.m}")
        left = VarKind.COVECTOR
    else:
        if gen.i > sig.m or gen.j > sig.m:
            raise ValueError(f"vector copy out of range 1..{sig.m}")
        if gen.family == "sp" and sig.n % 2:
            raise ValueError("the alternating contraction needs even n")
        left = VarKind.VECTOR
    terms: dict = {}
    for ab, value in enumerate(form_matrix(gen.family, sig.n).entries):
        if value:
            a, b = divmod(ab, sig.n)
            mono = [0] * sig.num_vars
            mono[sig.var_index(left, gen.i, a + 1)] += 1
            mono[sig.var_index(VarKind.VECTOR, gen.j, b + 1)] += 1
            key = tuple(mono)
            terms[key] = terms[key] + value if key in terms else value
    return Polynomial(sig, terms)


def generators_for(spec: GroupSpec, sig: SpaceSignature) -> list[GeneratorId]:
    """The canonical generator list: all contractions the group's theorem
    provides, in row-major index order."""
    vectors = range(1, sig.m + 1)
    pairs = {
        "gl": product(range(1, sig.k + 1), vectors),
        "o": combinations_with_replacement(vectors, 2),
        "sp": combinations(vectors, 2),
    }.get(spec.family)
    if pairs is None:
        raise ValueError("finite groups have no contraction generators")
    return [GeneratorId(spec.family, i, j) for i, j in pairs]


# ---------------------------------------------------------------------------
# generator products


def _term_product(sig: SpaceSignature, factors: list[dict], exps) -> dict:
    """prod factors[i]^exps[i] over term dicts, multiplied out one factor
    at a time; integer terms give integer terms."""
    p = {(0,) * sig.num_vars: 1}
    for g, e in zip(factors, exps):
        for _ in range(e):
            p = mul_terms(p, g)
    return p


def _integer_terms(gens, sig: SpaceSignature) -> list[dict]:
    """Each contraction's expansion as a term dict of ints."""
    return [{m: int(c) for m, c in contraction(g, sig).terms.items()} for g in gens]


def _products(sig: SpaceSignature, factors: list[dict], weights: list[int], d: int, blocks=None):
    """The degree-d products of the factors (term dicts of the given
    degrees, each homogeneous in every copy) as (exponents, block, terms),
    in graded-lex order.  The block, the product's copy degrees, is worked
    out from the exponents first, and only the products in `blocks` (all
    of them if None) are expanded."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    own = [sig.copy_degrees(next(iter(g))) for g in factors]
    for exps in weighted_exponents(weights, d):
        block = [0] * sig.num_copies
        for b, e in zip(own, exps):
            for c, x in enumerate(b):
                block[c] += e * x
        block = tuple(block)
        if blocks is None or block in blocks:
            yield exps, block, _term_product(sig, factors, exps)


@dataclass(frozen=True)
class ProductSpan:
    """Degree-d products of the generators: the full canonically ordered
    list, the greedily chosen independent subset, and the dimensions."""

    generators: tuple
    products: tuple  # ((exponents over generators), expanded Polynomial)
    independent: tuple  # indices into products
    dim_span: int
    free_count: int

    def basis(self) -> list[Polynomial]:
        return [self.products[i][1] for i in self.independent]


def _product_count(weights: list[int], d: int, dim_cap: int) -> int:
    """How many products of generators of these degrees have degree d;
    ProductCapExceeded above dim_cap, before any product is built."""
    ways = [1] + [0] * d
    for w in weights:
        for t in range(w, d + 1):
            ways[t] += ways[t - w]
    if ways[d] > dim_cap:
        raise ProductCapExceeded(ways[d], d, dim_cap)
    return ways[d]


def _class_spans(spec: GroupSpec, sig: SpaceSignature, d: int, sizes: dict) -> tuple:
    """(representative, class size, rank) for each copy-permutation class
    of `sizes`, {representative: class size}: the rank of the degree-d
    products in the representative's block.

    A copy permutation sigma sends s(i,j) to s(sigma i, sigma j) and
    w(i,j) to +-w(sigma i, sigma j), and permutes the covectors and the
    vectors of c(i,j) separately, so it carries block mu's products onto
    block sigma(mu)'s up to sign, and both have one rank.  Blocks share
    no monomial, so the span's dimension is the sum of class size times
    rank, and only the representatives' products are expanded, over the
    contractions' integer coefficients.
    """
    gens = generators_for(spec, sig)
    echelons = {rep: Echelon() for rep in sizes}
    for _, block, terms in _products(sig, _integer_terms(gens, sig), [2] * len(gens), d, echelons):
        echelons[block].insert(terms)
    return tuple((rep, size, echelons[rep].rank) for rep, size in sizes.items())


def generator_products_basis(
    spec: GroupSpec, sig: SpaceSignature, d: int
) -> ProductSpan:
    """All degree-d monomials in the contraction generators, expanded, with
    an exact maximal independent subset (first-wins in graded-lex order).

    Relations among products (Gram determinants once copies outnumber
    the dimension) push dim_span strictly below the free count.
    """
    gens = tuple(generators_for(spec, sig))
    products = tuple(
        (exps, Polynomial(sig, terms))
        for exps, _, terms in _products(sig, _integer_terms(gens, sig), [2] * len(gens), d)
    )
    echelon = Echelon()
    independent = tuple(idx for idx, (_, p) in enumerate(products) if echelon.insert(p.terms))
    return ProductSpan(gens, products, independent, len(independent), len(products))


# ---------------------------------------------------------------------------
# kernel of the invariance constraints


@lru_cache(maxsize=None)
def _copy_exponents(n: int, c: int) -> tuple:
    """The exponent vectors of one copy of degree c, lex descending."""
    return tuple(_exponents_desc(n, c))


def _weight_zero_monomials(family: str, sig: SpaceSignature, comps: list) -> list[list]:
    """For each block of comps, the monomials the family's diagonal torus
    fixes, in the order of the product over the copies of each copy's
    exponent vectors (lex descending); every block monomial for a finite
    group, which has no torus.

    Summed over the copies, each coordinate's exponent is even (o), each
    coordinate's covector exponent equals its vector exponent (gl), and
    the two coordinates of each pair (2p+1, 2p+2) have equal exponents
    (sp).  A copy's exponent vector e gets an integer weight: for o the
    bitmask of its odd entries, combined by xor; for gl the entries of e,
    negated on vector copies, and for sp the pair differences, packed in
    base 2d+1 (d the largest block degree) and combined by addition; for
    a finite group 0.
    Each copy degree's exponent vectors are weighed once per call and
    side.  In a block, the copies before the last one of positive degree
    are enumerated with their weights, and the last one's exponent
    vectors are looked up by the weight they cancel.
    """
    n, k = sig.n, sig.k
    if family == "o":

        def weigh(vector, e):
            return sum(1 << a for a in range(n) if e[a] & 1)

        combine, cancel = xor, pos
    elif family == "finite":
        weigh, combine, cancel = (lambda vector, e: 0), add, neg
    else:
        base = 2 * max(map(sum, comps)) + 1

        def weigh(vector, e):
            digits = e if family == "gl" else [e[a] - e[a + 1] for a in range(0, n, 2)]
            w = 0
            for x in reversed(digits):
                w = w * base + x
            return -w if vector else w

        combine, cancel = add, neg
    weighed = {
        (dc, vector): [(e, weigh(vector, e)) for e in _copy_exponents(n, dc)]
        for dc, vector in {(dc, c >= k) for comp in comps for c, dc in enumerate(comp)}
    }
    out = []
    for comp in comps:
        last = max((c for c, dc in enumerate(comp) if dc), default=0)
        prefixes = [((), 0)]
        for c in range(last):
            part = weighed[comp[c], c >= k]
            prefixes = [(m + e, combine(w, we)) for m, w in prefixes for e, we in part]
        lookup: dict = {}
        for e, we in weighed[comp[last], last >= k]:
            lookup.setdefault(cancel(we), []).append(e)
        tail = (0,) * (n * (len(comp) - last - 1))
        out.append([m + e + tail for m, w in prefixes for e in lookup.get(w, ())])
    return out


def _relabelling(sig: SpaceSignature, block: tuple):
    """(pattern, relabel): relabel carries the monomials of the block's
    class representative (see _copy_classes) onto the block, and pattern
    lists the representative's positive-degree copies in the order the
    block visits them.

    Copy order[i] of the block takes the coordinates of copy i of the
    representative, where order lists the covector copies, then the
    vector copies, each by descending degree.  Blocks of one pattern
    pull the lex order back to one order on the representative's
    monomials (see the module docstring).
    """
    n, k = sig.n, sig.k
    order = sorted(range(k), key=lambda c: -block[c])
    order += sorted(range(k, sig.num_copies), key=lambda c: -block[c])
    src = [0] * sig.num_vars
    at = [0] * sig.num_copies
    for i, c in enumerate(order):
        src[c * n : (c + 1) * n] = range(i * n, (i + 1) * n)
        at[c] = i
    return tuple(at[c] for c, dc in enumerate(block) if dc), _picker(src)


def _copy_classes(sig: SpaceSignature, d: int) -> dict:
    """The blocks of degree d by copy-permutation class: each
    representative with the blocks of its class.

    The representative lists the covector degrees, then the vector
    degrees, each sorted descending.  Only the blocks of a class whose
    kernel survives need their relabellings (see _relabelling).
    """
    k = sig.k
    classes: dict = {}
    for block in _exponents_desc(sig.num_copies, d):
        rep = (*sorted(block[:k], reverse=True), *sorted(block[k:], reverse=True))
        classes.setdefault(rep, []).append(block)
    return classes


def _orbit_kernel(monos: list[Monomial], moves: list) -> list[dict]:
    """Exact joint kernel of act(g)-id for scaled-permutation elements.

    Such an element sends monomial m to c(m) * image(m) (its orbit move,
    see action._constraint_table, scaled by `orbit_scale`), so invariance
    forces a_{image(m)} = c(m) * a_m along every edge.  One walk per orbit gives its first monomial weight
    1 and every monomial reached the weight the edge forces; reaching a
    monomial again with another weight kills the orbit.  Weights stay
    ints unless a scale has a denominator, and each surviving orbit
    contributes one basis vector, an integer vector scaled by the lcm of
    its weights' denominators.
    """
    weight: dict = {}
    basis = []
    for first in monos:
        if first in weight:
            continue
        weight[first] = 1
        orbit = [first]
        alive = True
        for m in orbit:
            w = weight[m]
            for image, scales in moves:
                p, q = orbit_scale(scales, m)
                c = w * p if q == 1 else Fraction(w * p, q)
                img = image(m)
                seen = weight.get(img)
                if seen is None:
                    weight[img] = c
                    orbit.append(img)
                elif seen != c:
                    alive = False
        if alive:
            basis.append(numerators({m: weight[m] for m in orbit})[1])
    return basis


def _cut_rows(ctx: ActionContext, cut: tuple):
    """v -> the row of a "derive" or "act" entry of the constraint table:
    D v, whose kernel is the space the element fixes, or act(elem, v) - v."""
    kind, payload = cut
    if kind == "derive":
        return lambda v: _derive(payload, v)

    def row(v):
        w = dict(act(ctx, payload, Polynomial(ctx.sig, v)).terms)
        add_scaled(w, -1, v)
        return w

    return row


def _generic_cut(rows, vectors: list[dict]) -> list[dict]:
    """Intersect the span of `vectors` with the kernel of one element's
    constraint, the linear map `rows` from `_cut_rows`.

    Row i is rows(v_i): D v_i for an element imposed through its
    nilpotent logarithm (the sp shear and transvection, the gl shear),
    (elem - 1) v_i for any other.  It is inserted into an Echelon with
    tag i.  Each row that reduces to zero gives a relation
    sum c_i rows(v_i) = 0, so sum c_i v_i is in the kernel, and the
    relations span every such combination.  The relations are integer
    combinations, so integer vectors stay integer.  The vectors returned
    are independent but not canonical; invariant_subspace_basis
    re-echelons each block once at the end.
    """
    echelon = Echelon()
    for i, v in enumerate(vectors):
        echelon.insert(rows(v), i)
    out = []
    for relation in echelon.relations:
        nv: dict = {}
        for i, c in relation.items():
            add_scaled(nv, c, vectors[i])
        out.append(nv)
    return out


@dataclass(frozen=True)
class KernelResult:
    basis: tuple  # Polynomials, canonical echelon form, leading-monomial order
    dim: int
    samples_used: int  # group elements imposed
    dim_history: tuple
    by_class: tuple  # (representative, class size, kernel dimension at it) per class


def invariant_subspace_basis(
    spec: GroupSpec,
    sig: SpaceSignature,
    d: int,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> KernelResult:
    """Exact basis of the degree-d invariants.

    The constraints are `small_integer_elements`, a generating set of
    the group (the given generators of a finite group), whose common
    fixed space is the invariant space.  The scaled permutations among
    them go through the orbit stage, which a classical family starts
    from the torus-weight-zero monomials only, and every other element
    through one cut, by its derivation when it has one.
    """
    check_dim_cap(sig, d, dim_cap)
    ctx = ActionContext(spec, sig)
    classes = _copy_classes(sig, d)
    reps = list(classes)

    def weighted_dim(bases):
        return sum(len(b) * len(classes[rep]) for rep, b in zip(reps, bases))

    history = [space_dimension(sig, d)]

    table = constraint_table(spec, sig)
    moves = [payload for kind, payload in table if kind == "orbit"]

    # a finite group's generators may hold no scaled permutation: every
    # monomial is then its own orbit and the cuts do all the work
    block_bases = [
        _orbit_kernel(monos, moves) for monos in _weight_zero_monomials(spec.family, sig, reps)
    ]
    dim = weighted_dim(block_bases)
    ensure(dim <= history[-1], f"the orbit stage grew the kernel to {dim}")
    history.append(dim)

    for rows in [_cut_rows(ctx, cut) for cut in table if cut[0] != "orbit"]:
        block_bases = [_generic_cut(rows, vecs) for vecs in block_bases]
        new_dim = weighted_dim(block_bases)
        ensure(new_dim <= dim, f"a cut grew the kernel from {dim} to {new_dim}")
        dim = new_dim
        history.append(dim)

    polys = []
    for rep, vecs in zip(reps, block_bases):
        if not vecs:
            continue
        used = {m for v in vecs for m in v}
        forms: dict = {}  # pattern -> the reduced rows as (monomial, Fraction) pairs
        for block in classes[rep]:
            pattern, relabel = _relabelling(sig, block)
            rows = forms.get(pattern)
            if rows is None:
                # the block order restricted to the monomials in use, in
                # representative coordinates: the columns left out are
                # zero, and relabelling keeps the order, so the reduced
                # form is the block's own
                monos = sorted(used, key=relabel, reverse=True)
                reduced, pivots = rref([[v.get(m, 0) for m in monos] for v in vecs])
                ensure(len(pivots) == len(vecs), "a block basis lost rank in canonical form")
                rows = forms[pattern] = [[(m, c) for m, c in zip(monos, r) if c] for r in reduced]
            for row in rows:
                # a row's pivot is its first pair, and its leading monomial
                polys.append((relabel(row[0][0]), Polynomial(sig, {relabel(m): c for m, c in row})))
    # every pivot has degree d, where lex order is graded-lex order
    polys = [p for _, p in sorted(polys, key=itemgetter(0), reverse=True)]
    ensure(len(polys) == dim, f"{len(polys)} canonical vectors, kernel dimension {dim}")
    return KernelResult(
        basis=tuple(polys),
        dim=dim,
        samples_used=len(table),
        dim_history=tuple(history),
        by_class=tuple((rep, len(classes[rep]), len(b)) for rep, b in zip(reps, block_bases)),
    )


# ---------------------------------------------------------------------------
# the certificate


@dataclass(frozen=True)
class CertReport:
    group: GroupSpec
    sig: SpaceSignature
    degree: int
    dim_space: int
    dim_kernel: int
    dim_span: int
    certified: bool
    samples_used: int
    seed: int
    free_products: int
    dim_history: tuple  # the kernel's, from the graded piece to dim_kernel
    span_by_class: tuple  # (representative, class size, rank) per class

    def __post_init__(self):
        if not self.dim_span <= self.dim_kernel <= self.dim_space:
            raise ValueError(
                f"dimension sandwich violated: span {self.dim_span}, "
                f"kernel {self.dim_kernel}, space {self.dim_space}"
            )
        if self.certified != (self.dim_span == self.dim_kernel):
            raise ValueError("certified flag contradicts the dimensions")
        if sum(size * rank for _, size, rank in self.span_by_class) != self.dim_span:
            raise ValueError("the class ranks do not add up to the span dimension")
        if self.dim_history[-1] != self.dim_kernel:
            raise ValueError("the kernel history does not end at the kernel dimension")


def fft_verify(
    spec: GroupSpec,
    sig: SpaceSignature,
    d: int,
    seed: int = 0,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> CertReport:
    """Certify that contraction products span all degree-d invariants.

    certified=True is unconditional: the span is inside the invariants,
    the invariants are inside the computed kernel, and the outer
    dimensions agree.  The kernel is the invariant space itself, so
    certified=False would mean the contractions miss an invariant.
    The span is ranked one copy-permutation class at a time
    (`_class_spans`).  `seed` is only echoed in the report.
    """
    if spec.family not in ("gl", "o", "sp"):
        raise ValueError("certification applies to the classical families only")
    if spec.family in ("o", "sp") and sig.k:
        raise ValueError(
            "orthogonal and symplectic sessions use vector copies only"
        )
    # the degree-2 piece bounds the contractions listed and expanded below
    check_dim_cap(sig, max(d, 2), dim_cap)
    free = _product_count([2] * len(generators_for(spec, sig)), d, dim_cap)
    kr = invariant_subspace_basis(spec, sig, d, dim_cap=dim_cap)
    by_class = _class_spans(spec, sig, d, {rep: size for rep, size, _ in kr.by_class})
    dim_span = sum(size * rank for _, size, rank in by_class)
    return CertReport(
        group=spec,
        sig=sig,
        degree=d,
        dim_space=space_dimension(sig, d),
        dim_kernel=kr.dim,
        dim_span=dim_span,
        certified=dim_span == kr.dim,
        samples_used=kr.samples_used,
        seed=seed,
        free_products=free,
        dim_history=kr.dim_history,
        span_by_class=by_class,
    )


# ---------------------------------------------------------------------------
# decomposition into generators


@dataclass(frozen=True)
class GeneratorCombination:
    """A polynomial in the contraction generators: terms are (exponent
    tuple over `generators`, coefficient), graded-lex ordered."""

    generators: tuple
    terms: tuple
    sig: SpaceSignature

    def expand(self) -> Polynomial:
        factors = _integer_terms(self.generators, self.sig)
        total: dict = {}
        for exps, coeff in self.terms:
            add_scaled(total, coeff, _term_product(self.sig, factors, exps))
        return Polynomial(self.sig, total)


def decompose_in_generators(
    spec: GroupSpec,
    sig: SpaceSignature,
    f: Polynomial,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> GeneratorCombination:
    """Write a homogeneous invariant as a polynomial in the contractions.

    The elimination is the proof of invariance: the products are inserted
    tagged, f last, and f in their span gives the last relation
    a f + sum c_i product_i = 0, so f = sum (-c_i / a) product_i, each
    product exactly invariant; this is how `_generic_cut` reads its
    kernels.  Only an f that adds a pivot calls `action.is_invariant`, to
    tell a polynomial moved by a group element (NotInvariant) from a
    defect (NotInSpan, carrying f's primitive reduced row).  So the
    refusals come in this order: a degree-2 piece above dim_cap
    (DegreeCapExceeded, before any contraction is listed), a finite group
    (from `generators_for`), more than dim_cap products of f's degree
    (ProductCapExceeded, before any is expanded, even for a moved f),
    then NotInvariant.

    Relations make representations non-unique; the returned one is
    canonical: products are eliminated in graded-lex order and every
    redundant product gets coefficient zero.  Only the products in the
    blocks of f's monomials are expanded: blocks share no monomial and
    `Echelon` pivots on a row's largest monomial, so the other rows would
    never meet these, and the choice and the coefficients are those of
    one elimination over every product.
    """
    if f.sig != sig:
        raise ValueError("polynomial signature does not match")
    if not f.is_homogeneous():
        raise ValueError("decomposition needs a homogeneous polynomial")
    check_dim_cap(sig, 2, dim_cap)
    gens = tuple(generators_for(spec, sig))
    if not f:
        return GeneratorCombination(gens, (), sig)
    d = f.degree()
    _product_count([2] * len(gens), d, dim_cap)
    blocks = {sig.copy_degrees(m) for m in f.terms}
    echelon = Echelon()
    products = []
    for exps, _, terms in _products(sig, _integer_terms(gens, sig), [2] * len(gens), d, blocks):
        echelon.insert(terms, len(products))
        products.append(exps)
    if echelon.insert(f.terms, "f"):
        if not is_invariant(ActionContext(spec, sig), f):
            raise NotInvariant("polynomial is moved by a group element")
        # only a defect gets here: f is invariant and the FFT holds
        sizes = {rep: len(blocks) for rep, blocks in _copy_classes(sig, d).items()}
        dim_span = sum(size * rank for _, size, rank in _class_spans(spec, sig, d, sizes))
        row = next(row for row, combo in echelon.pivots.values() if "f" in combo)
        raise NotInSpan(Polynomial(sig, row), dim_span)
    relation = echelon.relations[-1]
    a = relation.pop("f")
    terms = tuple(
        sorted(
            ((products[i], Fraction(-c, a)) for i, c in relation.items()),
            key=lambda t: grlex_key(t[0]),
            reverse=True,
        )
    )
    return GeneratorCombination(gens, terms, sig)


# ---------------------------------------------------------------------------
# minimal generator degrees


@dataclass(frozen=True)
class GeneratorDegreeReport:
    degrees: tuple  # sorted multiset of minimal generator degrees
    new_by_degree: dict
    bound: int
    seed: int


def minimal_generator_degrees(
    spec: GroupSpec,
    sig: SpaceSignature,
    bound: int,
    seed: int = 0,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> GeneratorDegreeReport:
    """Degrees of a minimal generating set of the invariants, up to `bound`.

    Degree by degree: the number of new generators at degree d is the
    invariant dimension minus the rank of products of generators already
    found.  The degree multiset is independent of the choices made along
    the way; the basis vectors picked to extend the generator list are
    merely one canonical realization.  More than dim_cap products at a
    degree raise ProductCapExceeded before that degree's kernel.  `seed`
    is only echoed in the report.
    """
    if bound < 1:
        raise ValueError("the degree bound must be at least 1")
    found: list[tuple[int, dict]] = []  # (degree, primitive integer terms)
    new_by_degree: dict[int, int] = {}
    for d in range(1, bound + 1):
        weights = [dg for dg, _ in found]
        _product_count(weights, d, dim_cap)
        kr = invariant_subspace_basis(spec, sig, d, dim_cap=dim_cap)
        echelon = Echelon()
        for _, _, terms in _products(sig, [g for _, g in found], weights, d):
            echelon.insert(terms)
        new = kr.dim - echelon.rank
        ensure(new >= 0, f"degree {d}: kernel {kr.dim} below product rank {echelon.rank}")
        new_by_degree[d] = new
        if new:
            added = 0
            for b in kr.basis:
                if echelon.insert(b.terms):
                    # b's lead is 1, so its numerators are a primitive integer row
                    found.append((d, numerators(b.terms)[1]))
                    added += 1
            ensure(added == new, f"degree {d}: {added} new generators, {new} expected")
    degrees = tuple(sorted(dg for dg, _ in found))
    return GeneratorDegreeReport(
        degrees=degrees, new_by_degree=new_by_degree, bound=bound, seed=seed
    )
