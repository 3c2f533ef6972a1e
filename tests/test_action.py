import itertools
import random
from fractions import Fraction

import pytest

from classinv import certify
from classinv.action import ActionContext, act, is_invariant, reynolds, transform_point
from classinv.certify import contraction, generators_for
from classinv.exact import ONE, Matrix
from classinv.groups import (
    GroupElement,
    NotFiniteGroup,
    finite_group,
    general_linear,
    orthogonal,
    sample_element,
    small_integer_elements,
    symplectic,
)
from classinv.poly import Polynomial, SpaceSignature, VarKind, _exponents_desc

from test_poly import rand_poly


def mat(rows):
    return Matrix.from_rows([[Fraction(v) for v in row] for row in rows])


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement(a.g @ b.g, b.g_inv @ a.g_inv)


def inverse_of(a: GroupElement) -> GroupElement:
    return GroupElement(a.g_inv, a.g)


CONTEXTS = {
    "gl": ActionContext(general_linear(2), SpaceSignature(n=2, k=1, m=2)),
    "o": ActionContext(orthogonal(2), SpaceSignature(n=2, k=0, m=2)),
    "sp": ActionContext(symplectic(2), SpaceSignature(n=2, k=0, m=2)),
}


class TestBasics:
    def test_identity_fixes_everything(self):
        ctx = CONTEXTS["gl"]
        ident = GroupElement(Matrix.identity(2), Matrix.identity(2))
        rng = random.Random(0)
        for _ in range(10):
            f = rand_poly(rng, ctx.sig)
            assert act(ctx, ident, f) == f

    def test_scaling_on_a_vector_variable(self):
        # one vector copy in one dimension; g = [2] sends x to x/2
        ctx = ActionContext(general_linear(1), SpaceSignature(n=1, k=0, m=1))
        g = GroupElement(mat([[2]]), mat([[Fraction(1, 2)]]))
        x = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 1)
        assert act(ctx, g, x) == x.scale(Fraction(1, 2))

    def test_scaling_on_a_covector_variable(self):
        ctx = ActionContext(general_linear(1), SpaceSignature(n=1, k=1, m=0))
        g = GroupElement(mat([[2]]), mat([[Fraction(1, 2)]]))
        u = Polynomial.variable(ctx.sig, VarKind.COVECTOR, 1, 1)
        assert act(ctx, g, u) == u.scale(Fraction(2))

    def test_pairing_survives_scaling(self):
        ctx = ActionContext(general_linear(1), SpaceSignature(n=1, k=1, m=1))
        g = GroupElement(mat([[3]]), mat([[Fraction(1, 3)]]))
        u = Polynomial.variable(ctx.sig, VarKind.COVECTOR, 1, 1)
        x = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 1)
        assert act(ctx, g, u * x) == u * x

    def test_sum_of_squares_fixed_by_rotation(self):
        ctx = ActionContext(orthogonal(2), SpaceSignature(n=2, k=0, m=1))
        rot = mat([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
        el = GroupElement(rot, rot.transpose())
        x = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 1)
        y = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 2)
        assert act(ctx, el, x * x + y * y) == x * x + y * y
        assert act(ctx, el, x) != x

    def test_signature_mismatch_rejected(self):
        ctx = CONTEXTS["o"]
        other = SpaceSignature(n=2, k=0, m=1)
        f = Polynomial.variable(other, VarKind.VECTOR, 1, 1)
        with pytest.raises(ValueError):
            act(ctx, sample_element(ctx.spec, 0), f)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ActionContext(orthogonal(3), SpaceSignature(n=2, k=0, m=1))


class TestGroupLaws:
    @pytest.mark.parametrize("name", ["gl", "o", "sp"])
    def test_homomorphism(self, name):
        ctx = CONTEXTS[name]
        rng = random.Random(5)
        for trial in range(12):
            f = rand_poly(rng, ctx.sig)
            a = sample_element(ctx.spec, 2 * trial)
            b = sample_element(ctx.spec, 2 * trial + 1)
            assert act(ctx, a, act(ctx, b, f)) == act(ctx, compose(a, b), f)

    @pytest.mark.parametrize("name", ["gl", "o", "sp"])
    def test_inverse_undoes(self, name):
        ctx = CONTEXTS[name]
        rng = random.Random(6)
        for trial in range(8):
            f = rand_poly(rng, ctx.sig)
            a = sample_element(ctx.spec, trial)
            assert act(ctx, inverse_of(a), act(ctx, a, f)) == f

    @pytest.mark.parametrize("name", ["gl", "o", "sp"])
    def test_per_copy_degrees_preserved(self, name):
        # substitution mixes coordinates within a copy, never across copies
        ctx = CONTEXTS[name]
        rng = random.Random(7)
        for trial in range(10):
            f = Polynomial.constant(ctx.sig, Fraction(1))
            for copy in range(1, ctx.sig.num_copies + 1):
                kind = VarKind.COVECTOR if copy <= ctx.sig.k else VarKind.VECTOR
                idx = copy if copy <= ctx.sig.k else copy - ctx.sig.k
                for _ in range(rng.randint(0, 2)):
                    f = f * Polynomial.variable(ctx.sig, kind, idx, rng.randint(1, 2))
            profile = f.copy_degrees()
            image = act(ctx, sample_element(ctx.spec, trial), f)
            assert image.copy_degrees() == profile

    @pytest.mark.parametrize("name", ["gl", "o", "sp"])
    def test_duality_with_point_motion(self, name):
        # evaluate(act(g, f), p) == evaluate(f, g^-1 . p)
        ctx = CONTEXTS[name]
        rng = random.Random(8)
        for trial in range(10):
            f = rand_poly(rng, ctx.sig)
            a = sample_element(ctx.spec, trial)
            p = [Fraction(rng.randint(-3, 3)) for _ in range(ctx.sig.num_vars)]
            left = act(ctx, a, f).evaluate(p)
            right = f.evaluate(transform_point(ctx, inverse_of(a), p))
            assert left == right

    def test_linearity(self):
        ctx = CONTEXTS["o"]
        rng = random.Random(9)
        for trial in range(8):
            f = rand_poly(rng, ctx.sig)
            g = rand_poly(rng, ctx.sig)
            a = sample_element(ctx.spec, trial)
            assert act(ctx, a, f + g) == act(ctx, a, f) + act(ctx, a, g)
            assert act(ctx, a, f * g) == act(ctx, a, f) * act(ctx, a, g)


class TestIsInvariant:
    def test_accepts_sum_of_squares(self):
        ctx = ActionContext(orthogonal(2), SpaceSignature(n=2, k=0, m=1))
        x = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 1)
        y = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 2)
        assert is_invariant(ctx, x * x + y * y)

    def test_rejects_linear_form(self):
        ctx = ActionContext(orthogonal(2), SpaceSignature(n=2, k=0, m=1))
        x = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 1)
        assert not is_invariant(ctx, x)

    def test_reflection_always_probed(self):
        # det(x_1, ..., x_n) survives every rotation but not a reflection
        for n in (1, 2, 3):
            ctx = ActionContext(orthogonal(n), SpaceSignature(n=n, k=0, m=n))
            f = Polynomial.zero(ctx.sig)
            for perm in itertools.permutations(range(n)):
                sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                term = Polynomial.constant(ctx.sig, Fraction(sign))
                for i, a in enumerate(perm):
                    term = term * Polynomial.variable(ctx.sig, VarKind.VECTOR, i + 1, a + 1)
                f = f + term
            assert not is_invariant(ctx, f)
            assert is_invariant(ctx, f * f)

    def test_finite_exhaustive(self):
        spec = finite_group([mat([[-1]])])
        ctx = ActionContext(spec, SpaceSignature(n=1, k=0, m=1))
        x = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 1)
        assert is_invariant(ctx, x * x)
        assert not is_invariant(ctx, x)

    def test_constants_invariant(self):
        ctx = CONTEXTS["sp"]
        assert is_invariant(ctx, Polynomial.constant(ctx.sig, Fraction(5)))


def sampled_is_invariant(ctx, f):
    """The sampled check `is_invariant` used to make: seeded Cayley draws
    0-7, plus the reflection for O(n)."""
    elems = [sample_element(ctx.spec, seed) for seed in range(8)]
    if ctx.spec.family == "o":
        refl = mat([[-1 if i == j == 0 else int(i == j) for j in range(ctx.spec.n)]
                    for i in range(ctx.spec.n)])
        elems.append(GroupElement(refl, refl))
    return all(act(ctx, e, f) == f for e in elems)


def random_invariant(rng, spec, sig):
    gens = [contraction(g, sig) for g in generators_for(spec, sig)]
    f = Polynomial.constant(sig, Fraction(rng.randint(-3, 3)))
    for _ in range(3):
        p = Polynomial.constant(sig, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(1, 2)):
            p = p * rng.choice(gens)
        f = f + p
    return f


def random_odd_monomial(rng, sig):
    # -I lies in every group here and negates odd degrees, so adding an
    # odd monomial to an invariant never leaves an invariant
    exps = [0] * sig.num_vars
    for _ in range(rng.choice([1, 3])):
        exps[rng.randrange(sig.num_vars)] += 1
    return Polynomial(sig, {tuple(exps): ONE})


class TestExactAgainstSampled:
    @pytest.mark.parametrize(
        "spec,sig",
        [
            (general_linear(2), SpaceSignature(n=2, k=2, m=2)),
            (orthogonal(1), SpaceSignature(n=1, k=0, m=2)),
            (orthogonal(2), SpaceSignature(n=2, k=0, m=2)),
            (orthogonal(3), SpaceSignature(n=3, k=0, m=2)),
            (symplectic(2), SpaceSignature(n=2, k=0, m=2)),
            (symplectic(4), SpaceSignature(n=4, k=0, m=2)),
        ],
        ids=["gl2", "o1", "o2", "o3", "sp2", "sp4"],
    )
    def test_agree_on_contraction_combinations(self, spec, sig):
        ctx = ActionContext(spec, sig)
        rng = random.Random(f"{spec.family}{spec.n}")
        for _ in range(3):
            f = random_invariant(rng, spec, sig)
            assert is_invariant(ctx, f) and sampled_is_invariant(ctx, f)
            g = f + random_odd_monomial(rng, sig)
            assert not is_invariant(ctx, g) and not sampled_is_invariant(ctx, g)

    def test_rejects_what_signed_permutations_fix(self):
        ctx = ActionContext(orthogonal(2), SpaceSignature(n=2, k=0, m=1))
        x = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 1)
        y = Polynomial.variable(ctx.sig, VarKind.VECTOR, 1, 2)
        f = x**4 + y**4
        moved = [e for e in small_integer_elements(ctx.spec) if act(ctx, e, f) != f]
        assert [certify._variable_map(ctx.sig, e) for e in moved] == [None]
        assert not is_invariant(ctx, f)

    @pytest.mark.parametrize(
        "spec,sig,d",
        [
            (symplectic(4), SpaceSignature(n=4, k=0, m=3), 4),
            (general_linear(2), SpaceSignature(n=2, k=1, m=1), 4),
        ],
        ids=["sp4", "gl2"],
    )
    def test_rejects_what_only_the_last_element_moves(self, spec, sig, d):
        # a vector the orbit stage and every cut but the last one keep
        ctx = ActionContext(spec, sig)
        elems = small_integer_elements(spec)
        maps = [certify._variable_map(sig, e) for e in elems]
        generic = [e for e, vm in zip(elems, maps) if vm is None]
        moved = None
        for comp in _exponents_desc(sig.num_copies, d):
            vecs = certify._orbit_kernel(
                certify._block_monomials(sig, comp), [vm for vm in maps if vm is not None]
            )
            for e in generic[:-1]:
                vecs = certify._generic_cut(ctx, e, vecs)
            moved = moved or next(
                (f for f in (Polynomial(sig, v) for v in vecs) if act(ctx, generic[-1], f) != f),
                None,
            )
        assert moved is not None
        assert [e for e in elems if act(ctx, e, moved) != moved] == [generic[-1]]
        assert not is_invariant(ctx, moved)


class TestReynolds:
    def setup_method(self):
        self.spec = finite_group([mat([[-1]])])
        self.sig = SpaceSignature(n=1, k=0, m=1)
        self.ctx = ActionContext(self.spec, self.sig)
        self.x = Polynomial.variable(self.sig, VarKind.VECTOR, 1, 1)

    def test_kills_odd_part(self):
        assert reynolds(self.ctx, self.x) == Polynomial.zero(self.sig)

    def test_fixes_even_part(self):
        sq = self.x * self.x
        assert reynolds(self.ctx, sq) == sq

    def test_idempotent(self):
        rng = random.Random(10)
        for _ in range(10):
            f = rand_poly(rng, self.sig)
            once = reynolds(self.ctx, f)
            assert reynolds(self.ctx, once) == once

    def test_output_invariant(self):
        rng = random.Random(11)
        for _ in range(10):
            f = rand_poly(rng, self.sig)
            assert is_invariant(self.ctx, reynolds(self.ctx, f))

    def test_module_property(self):
        # phi invariant: averaging phi * f pulls phi out front
        phi = self.x * self.x
        f = self.x * self.x * self.x + self.x * self.x
        assert reynolds(self.ctx, phi * f) == phi * reynolds(self.ctx, f)

    def test_continuous_group_rejected(self):
        ctx = CONTEXTS["o"]
        with pytest.raises(NotFiniteGroup):
            reynolds(ctx, Polynomial.zero(ctx.sig))
