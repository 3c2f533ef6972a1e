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

Kernels are computed block by block: the action rewrites each copy's
coordinates within the copy, so the per-copy multidegree splits a graded
piece into independent blocks and no matrix ever reaches the full graded
dimension.  Group elements whose matrix is a scaled permutation act by
monomial relabeling, and their combined constraint set is solved by a
weighted union-find over monomial orbits before any row reduction
happens; dense elements then cut the small surviving space.

Every rank here is one sparse ``exact.Echelon`` over rows keyed by
monomial: product spans and decompositions insert expanded products, and
a dense element's cut inserts the rows (g - 1) v and keeps the relations
among them as the surviving combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .action import ActionContext, act, is_invariant
from .exact import Echelon, Matrix, ONE, ZERO, add_scaled, ensure, rref
from .groups import GroupElement, GroupSpec, small_integer_elements
from .poly import (
    DEFAULT_DIM_CAP,
    Monomial,
    Polynomial,
    SpaceSignature,
    VarKind,
    _exponents_desc,
    check_dim_cap,
    grlex_key,
    space_dimension,
)

class NotInvariant(ValueError):
    pass


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


@dataclass(frozen=True, order=True)
class GeneratorId:
    """A degree-2 contraction: dual pairing ('gl'), symmetric form ('o'),
    alternating form ('sp'), of copies i and j."""

    family: str
    i: int
    j: int

    def __post_init__(self):
        if self.family not in ("gl", "o", "sp"):
            raise ValueError(f"unknown contraction family {self.family!r}")
        if self.i < 1 or self.j < 1:
            raise ValueError("copy indices are 1-based")

    def symbol(self) -> str:
        letter = {"gl": "c", "o": "s", "sp": "w"}[self.family]
        return f"{letter}({self.i},{self.j})"


def contraction(gen: GeneratorId, sig: SpaceSignature) -> Polynomial:
    """Expand a contraction into coordinates, as an exact polynomial.

    The symmetric form accepts either index order (it is symmetric); the
    alternating form likewise, with w(j,i) = -w(i,j) and w(i,i) = 0.
    """
    n = sig.n
    terms: dict = {}
    if gen.family == "gl":
        if gen.i > sig.k:
            raise ValueError(f"covector copy {gen.i} out of range 1..{sig.k}")
        if gen.j > sig.m:
            raise ValueError(f"vector copy {gen.j} out of range 1..{sig.m}")
        for a in range(1, n + 1):
            mono = [0] * sig.num_vars
            mono[sig.var_index(VarKind.COVECTOR, gen.i, a)] += 1
            mono[sig.var_index(VarKind.VECTOR, gen.j, a)] += 1
            terms[tuple(mono)] = ONE
        return Polynomial(sig, terms)
    if gen.i > sig.m or gen.j > sig.m:
        raise ValueError(f"vector copy out of range 1..{sig.m}")
    if gen.family == "o":
        for a in range(1, n + 1):
            mono = [0] * sig.num_vars
            mono[sig.var_index(VarKind.VECTOR, gen.i, a)] += 1
            mono[sig.var_index(VarKind.VECTOR, gen.j, a)] += 1
            key = tuple(mono)
            terms[key] = terms.get(key, ZERO) + ONE
        return Polynomial(sig, terms)
    if n % 2:
        raise ValueError("the alternating contraction needs even n")
    for p in range(n // 2):
        for a, b, sign in ((2 * p + 1, 2 * p + 2, ONE), (2 * p + 2, 2 * p + 1, -ONE)):
            mono = [0] * sig.num_vars
            mono[sig.var_index(VarKind.VECTOR, gen.i, a)] += 1
            mono[sig.var_index(VarKind.VECTOR, gen.j, b)] += 1
            key = tuple(mono)
            val = terms.get(key, ZERO) + sign
            if val:
                terms[key] = val
            else:
                terms.pop(key, None)
    return Polynomial(sig, terms)


def generators_for(spec: GroupSpec, sig: SpaceSignature) -> list[GeneratorId]:
    """The canonical generator list: all contractions the group's theorem
    provides, in row-major index order."""
    if spec.family == "gl":
        return [
            GeneratorId("gl", i, j)
            for i in range(1, sig.k + 1)
            for j in range(1, sig.m + 1)
        ]
    if spec.family == "o":
        return [
            GeneratorId("o", i, j)
            for i in range(1, sig.m + 1)
            for j in range(i, sig.m + 1)
        ]
    if spec.family == "sp":
        return [
            GeneratorId("sp", i, j)
            for i in range(1, sig.m + 1)
            for j in range(i + 1, sig.m + 1)
        ]
    raise ValueError("finite groups have no contraction generators")


# ---------------------------------------------------------------------------
# generator products


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


def generator_products_basis(
    spec: GroupSpec, sig: SpaceSignature, d: int
) -> ProductSpan:
    """All degree-d monomials in the contraction generators, expanded, with
    an exact maximal independent subset (first-wins in graded-lex order).

    Generators are quadratic, so odd d has no products at all, and
    relations among products (Gram determinants once copies outnumber
    the dimension) push dim_span strictly below the free count.
    """
    gens = tuple(generators_for(spec, sig))
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d % 2 or (d > 0 and not gens):
        return ProductSpan(gens, (), (), 0, 0)
    expansions = [contraction(g, sig) for g in gens]
    products = []
    for exps in _exponents_desc(max(len(gens), 1), d // 2) if gens else [()]:
        p = Polynomial.constant(sig, 1)
        for g, e in zip(expansions, exps):
            for _ in range(e):
                p = p * g
        products.append((tuple(exps), p))
    echelon = Echelon()
    independent = [idx for idx, (_, p) in enumerate(products) if echelon.insert(p.terms)]
    return ProductSpan(
        gens, tuple(products), tuple(independent), len(independent), len(products)
    )


# ---------------------------------------------------------------------------
# kernel of the invariance constraints


def _block_monomials(sig: SpaceSignature, comp: tuple) -> list[Monomial]:
    parts = [list(_exponents_desc(sig.n, c)) for c in comp]
    out = [()]
    for part in parts:
        out = [a + b for a in out for b in part]
    return out


def _scaled_permutation(g: Matrix):
    """(targets, scales) when g has exactly one nonzero per row and column,
    i.e. variable a rewrites to scales[a] * variable targets[a]; else None."""
    n = g.rows
    targets = [0] * n
    scales = [ONE] * n
    used = [False] * n
    for a in range(n):
        hits = [b for b in range(n) if g.at(a, b)]
        if len(hits) != 1 or used[hits[0]]:
            return None
        b = hits[0]
        used[b] = True
        targets[a] = b
        scales[a] = g.at(a, b)
    return targets, scales


def _variable_map(sig: SpaceSignature, elem: GroupElement):
    """Whole-universe variable relabeling for a scaled-permutation element,
    combining the covector (transpose) and vector (inverse) conventions."""
    pT = _scaled_permutation(elem.g.transpose())
    if pT is None:
        return None
    pI = _scaled_permutation(elem.g_inv)
    if pI is None:
        return None
    n = sig.n
    tgt = [0] * sig.num_vars
    scl = [ONE] * sig.num_vars
    for c in range(sig.num_copies):
        base = c * n
        t, s = pT if c < sig.k else pI
        for a in range(n):
            tgt[base + a] = base + t[a]
            scl[base + a] = s[a]
    return tgt, scl


def _mono_image(mono: Monomial, tgt, scl) -> tuple[Monomial, Fraction]:
    out = [0] * len(mono)
    c = ONE
    for v, e in enumerate(mono):
        if e:
            out[tgt[v]] += e
            s = scl[v]
            if s != ONE:
                c *= s**e
    return tuple(out), c


def _orbit_kernel(monos: list[Monomial], varmaps: list) -> list[dict]:
    """Exact joint kernel of act(g)-id for scaled-permutation elements.

    Such an element sends monomial m to c(m) * s(m), so invariance forces
    a_{s(m)} = c(m) * a_m along every edge; a weighted union-find resolves
    all constraints at once.  Orbits with an inconsistent cycle weight die
    entirely; each surviving orbit contributes one basis vector.
    """
    index = {m: i for i, m in enumerate(monos)}
    size = len(monos)
    parent = list(range(size))
    weight = [ONE] * size  # a_i = weight[i] * a_root(i)
    dead = [False] * size  # meaningful on roots

    def find(i: int) -> int:
        stack = []
        while parent[i] != i:
            stack.append(i)
            i = parent[i]
        for j in reversed(stack):
            p = parent[j]
            if p != i:
                weight[j] = weight[j] * weight[p]
            parent[j] = i
        return i

    for tgt, scl in varmaps:
        for i, m in enumerate(monos):
            img, c = _mono_image(m, tgt, scl)
            j = index[img]
            ri = find(i)
            rj = find(j)
            if ri == rj:
                if weight[j] != c * weight[i]:
                    dead[ri] = True
            else:
                parent[rj] = ri
                weight[rj] = c * weight[i] / weight[j]
                dead[ri] = dead[ri] or dead[rj]
    classes: dict[int, list[int]] = {}
    for i in range(size):
        classes.setdefault(find(i), []).append(i)
    basis = []
    for root in sorted(classes):
        if dead[root]:
            continue
        basis.append({monos[i]: weight[i] for i in classes[root]})
    return basis


def _generic_cut(ctx: ActionContext, elem: GroupElement, vectors: list[dict]) -> list[dict]:
    """Intersect the span of `vectors` with the kernel of act(elem) - id.

    Row i is (elem - 1) v_i, inserted into an Echelon with tag i.  Each row
    that reduces to zero gives a relation sum c_i (elem - 1) v_i = 0, so
    sum c_i v_i is fixed by elem, and the relations span every such
    combination.  The vectors returned are independent but not canonical;
    invariant_subspace_basis re-echelons each block once at the end.
    """
    images = {
        m: act(ctx, elem, Polynomial(ctx.sig, {m: ONE})).terms
        for m in {m for v in vectors for m in v}
    }
    echelon = Echelon()
    for i, v in enumerate(vectors):
        w: dict = {}
        for m, c in v.items():
            add_scaled(w, c, images[m])
        add_scaled(w, -ONE, v)
        echelon.insert(w, i)
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


def invariant_subspace_basis(
    spec: GroupSpec,
    sig: SpaceSignature,
    d: int,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> KernelResult:
    """Exact basis of the degree-d invariants.

    The constraints are every element of a finite group, or the fixed
    `small_integer_elements` of a classical family, whose common fixed
    space is the invariant space.  The scaled permutations among them
    go through the orbit stage, every other element through one cut.
    """
    check_dim_cap(sig, d, dim_cap)
    ctx = ActionContext(spec, sig)
    comps = list(_exponents_desc(sig.num_copies, d))
    blocks = [_block_monomials(sig, comp) for comp in comps]
    history = [space_dimension(sig, d)]

    elems = small_integer_elements(spec)
    mono_elems = []
    generic_elems = []
    for e in elems:
        vm = _variable_map(sig, e)
        if vm is None:
            generic_elems.append(e)
        else:
            mono_elems.append(vm)

    if mono_elems:
        block_bases = [_orbit_kernel(monos, mono_elems) for monos in blocks]
        dim = sum(len(b) for b in block_bases)
        ensure(dim <= history[-1], f"the orbit stage grew the kernel to {dim}")
        history.append(dim)
    else:
        block_bases = [[{m: ONE} for m in monos] for monos in blocks]
        dim = history[0]

    for e in generic_elems:
        block_bases = [_generic_cut(ctx, e, vecs) for vecs in block_bases]
        new_dim = sum(len(b) for b in block_bases)
        ensure(new_dim <= dim, f"a cut grew the kernel from {dim} to {new_dim}")
        dim = new_dim
        history.append(dim)

    polys = []
    for monos, vecs in zip(blocks, block_bases):
        if not vecs:
            continue
        reduced, pivots = rref([[v.get(m, ZERO) for m in monos] for v in vecs])
        ensure(len(pivots) == len(vecs), "a block basis lost rank in canonical form")
        for r in reduced:
            polys.append(Polynomial(sig, {m: c for m, c in zip(monos, r) if c}))
    polys.sort(key=lambda p: grlex_key(p.leading_monomial()), reverse=True)
    ensure(len(polys) == dim, f"{len(polys)} canonical vectors, kernel dimension {dim}")
    return KernelResult(
        basis=tuple(polys),
        dim=dim,
        samples_used=len(elems),
        dim_history=tuple(history),
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

    def __post_init__(self):
        if not self.dim_span <= self.dim_kernel <= self.dim_space:
            raise ValueError(
                f"dimension sandwich violated: span {self.dim_span}, "
                f"kernel {self.dim_kernel}, space {self.dim_space}"
            )
        if self.certified != (self.dim_span == self.dim_kernel):
            raise ValueError("certified flag contradicts the dimensions")


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
    `seed` is only echoed in the report.
    """
    if spec.family not in ("gl", "o", "sp"):
        raise ValueError("certification applies to the classical families only")
    if spec.family in ("o", "sp") and sig.k:
        raise ValueError(
            "orthogonal and symplectic sessions use vector copies only"
        )
    span = generator_products_basis(spec, sig, d)
    kr = invariant_subspace_basis(spec, sig, d, dim_cap=dim_cap)
    return CertReport(
        group=spec,
        sig=sig,
        degree=d,
        dim_space=space_dimension(sig, d),
        dim_kernel=kr.dim,
        dim_span=span.dim_span,
        certified=span.dim_span == kr.dim,
        samples_used=kr.samples_used,
        seed=seed,
        free_products=span.free_count,
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
        total = Polynomial.zero(self.sig)
        expansions = [contraction(g, self.sig) for g in self.generators]
        for exps, coeff in self.terms:
            p = Polynomial.constant(self.sig, coeff)
            for g, e in zip(expansions, exps):
                for _ in range(e):
                    p = p * g
            total = total + p
        return total


def decompose_in_generators(
    spec: GroupSpec,
    sig: SpaceSignature,
    f: Polynomial,
) -> GeneratorCombination:
    """Write a homogeneous invariant as a polynomial in the contractions.

    Invariance is decided first, exactly, by `action.is_invariant`; a
    polynomial moved by a group element raises NotInvariant.

    Relations make representations non-unique; the returned one is
    canonical: products are eliminated in graded-lex order and every
    redundant product gets coefficient zero.
    """
    if f.sig != sig:
        raise ValueError("polynomial signature does not match")
    if not f.is_homogeneous():
        raise ValueError("decomposition needs a homogeneous polynomial")
    ctx = ActionContext(spec, sig)
    if not is_invariant(ctx, f):
        raise NotInvariant("polynomial is moved by a group element")
    gens = tuple(generators_for(spec, sig))
    if not f:
        return GeneratorCombination(gens, (), sig)
    d = f.degree()
    span = generator_products_basis(spec, sig, d)
    echelon = Echelon()
    for idx, (_, p) in enumerate(span.products):
        echelon.insert(p.terms, idx)
    # f + sum combo[i] * product_i = residual
    residual, combo = echelon.reduce(f.terms, {})
    if residual:
        raise NotInSpan(Polynomial(sig, residual), span.dim_span)
    terms = tuple(
        sorted(
            ((span.products[i][0], -c) for i, c in combo.items()),
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


def _weighted_exponents(weights: list[int], total: int):
    if not weights:
        if total == 0:
            yield ()
        return
    w = weights[0]
    for e in range(total // w, -1, -1):
        for rest in _weighted_exponents(weights[1:], total - e * w):
            yield (e,) + rest


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
    merely one canonical realization.  `seed` is only echoed in the
    report.
    """
    if bound < 1:
        raise ValueError("the degree bound must be at least 1")
    found: list[tuple[int, Polynomial]] = []
    new_by_degree: dict[int, int] = {}
    for d in range(1, bound + 1):
        kr = invariant_subspace_basis(spec, sig, d, dim_cap=dim_cap)
        echelon = Echelon()
        weights = [dg for dg, _ in found]
        for exps in _weighted_exponents(weights, d):
            p = Polynomial.constant(sig, 1)
            for (_, gpoly), e in zip(found, exps):
                for _ in range(e):
                    p = p * gpoly
            echelon.insert(p.terms)
        new = kr.dim - echelon.rank
        ensure(new >= 0, f"degree {d}: kernel {kr.dim} below product rank {echelon.rank}")
        new_by_degree[d] = new
        if new:
            added = 0
            for b in kr.basis:
                if echelon.insert(b.terms):
                    found.append((d, b))
                    added += 1
            ensure(added == new, f"degree {d}: {added} new generators, {new} expected")
    degrees = tuple(sorted(dg for dg, _ in found))
    return GeneratorDegreeReport(
        degrees=degrees, new_by_degree=new_by_degree, bound=bound, seed=seed
    )
