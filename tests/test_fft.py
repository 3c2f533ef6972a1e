import random
from fractions import Fraction

import pytest

from classinv.action import ActionContext, act, is_invariant
from classinv.certify import (
    GeneratorId,
    NotInSpan,
    NotInvariant,
    contraction,
    decompose_in_generators,
    fft_verify,
    generator_products_basis,
    generators_for,
    invariant_subspace_basis,
    minimal_generator_degrees,
)
from classinv.exact import Echelon, Matrix
from classinv.groups import (
    finite_group,
    general_linear,
    orthogonal,
    sample_element,
    symplectic,
)
from classinv.poly import Polynomial, SpaceSignature, VarKind, space_dimension

from oracle import invariant_dimension


def vvar(sig, copy, coord):
    return Polynomial.variable(sig, VarKind.VECTOR, copy, coord)


class TestContraction:
    def test_gl_pairing(self):
        sig = SpaceSignature(n=2, k=1, m=1)
        z = contraction(GeneratorId("gl", 1, 1), sig)
        u1 = Polynomial.variable(sig, VarKind.COVECTOR, 1, 1)
        u2 = Polynomial.variable(sig, VarKind.COVECTOR, 1, 2)
        assert z == u1 * vvar(sig, 1, 1) + u2 * vvar(sig, 1, 2)

    def test_orthogonal_diagonal(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        s = contraction(GeneratorId("o", 1, 1), sig)
        x = vvar(sig, 1, 1)
        y = vvar(sig, 1, 2)
        assert s == x * x + y * y

    def test_orthogonal_symmetric(self):
        sig = SpaceSignature(n=3, k=0, m=2)
        assert contraction(GeneratorId("o", 1, 2), sig) == contraction(
            GeneratorId("o", 2, 1), sig
        )

    def test_symplectic_expansion(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        w = contraction(GeneratorId("sp", 1, 2), sig)
        expected = vvar(sig, 1, 1) * vvar(sig, 2, 2) - vvar(sig, 1, 2) * vvar(sig, 2, 1)
        assert w == expected

    def test_symplectic_antisymmetric(self):
        sig = SpaceSignature(n=4, k=0, m=3)
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            wij = contraction(GeneratorId("sp", i, j), sig)
            wji = contraction(GeneratorId("sp", j, i), sig)
            assert wji == -wij

    def test_symplectic_diagonal_vanishes(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        assert contraction(GeneratorId("sp", 1, 1), sig) == Polynomial.zero(sig)

    def test_symbols(self):
        assert GeneratorId("gl", 2, 1).symbol() == "c(2,1)"
        assert GeneratorId("o", 1, 2).symbol() == "s(1,2)"
        assert GeneratorId("sp", 1, 3).symbol() == "w(1,3)"

    @pytest.mark.parametrize(
        "spec,sig",
        [
            (general_linear(1), SpaceSignature(n=1, k=1, m=1)),
            (general_linear(2), SpaceSignature(n=2, k=2, m=2)),
            (general_linear(3), SpaceSignature(n=3, k=1, m=2)),
            (orthogonal(1), SpaceSignature(n=1, k=0, m=2)),
            (orthogonal(2), SpaceSignature(n=2, k=0, m=2)),
            (orthogonal(3), SpaceSignature(n=3, k=0, m=3)),
            (symplectic(2), SpaceSignature(n=2, k=0, m=2)),
            (symplectic(4), SpaceSignature(n=4, k=0, m=3)),
        ],
        ids=["gl1", "gl2", "gl3", "o1", "o2", "o3", "sp2", "sp4"],
    )
    def test_generators_are_invariant(self, spec, sig):
        ctx = ActionContext(spec, sig)
        gens = generators_for(spec, sig)
        assert gens
        for gid in gens:
            f = contraction(gid, sig)
            for s in range(8):
                assert act(ctx, sample_element(spec, s), f) == f

    def test_generator_list_shapes(self):
        sig = SpaceSignature(n=2, k=2, m=3)
        gl_gens = generators_for(general_linear(2), sig)
        assert len(gl_gens) == 6  # 2 covector copies x 3 vector copies
        o_sig = SpaceSignature(n=2, k=0, m=3)
        assert len(generators_for(orthogonal(2), o_sig)) == 6  # pairs with repeats
        assert len(generators_for(symplectic(2), o_sig)) == 3  # strict pairs


class TestClassicalIdentities:
    # the first relation of each family, verified as a literal polynomial
    # identity by expansion

    def test_gram_determinant_vanishes_in_the_plane(self):
        sig = SpaceSignature(n=2, k=0, m=3)

        def s(i, j):
            return contraction(GeneratorId("o", i, j), sig)

        det = (
            s(1, 1) * (s(2, 2) * s(3, 3) - s(2, 3) * s(2, 3))
            - s(1, 2) * (s(1, 2) * s(3, 3) - s(2, 3) * s(1, 3))
            + s(1, 3) * (s(1, 2) * s(2, 3) - s(2, 2) * s(1, 3))
        )
        assert det == Polynomial.zero(sig)

    def test_gram_determinant_survives_in_space(self):
        sig = SpaceSignature(n=3, k=0, m=3)

        def s(i, j):
            return contraction(GeneratorId("o", i, j), sig)

        det = (
            s(1, 1) * (s(2, 2) * s(3, 3) - s(2, 3) * s(2, 3))
            - s(1, 2) * (s(1, 2) * s(3, 3) - s(2, 3) * s(1, 3))
            + s(1, 3) * (s(1, 2) * s(2, 3) - s(2, 2) * s(1, 3))
        )
        assert det != Polynomial.zero(sig)

    def test_pairing_determinant_vanishes_on_a_line(self):
        sig = SpaceSignature(n=1, k=2, m=2)

        def c(i, j):
            return contraction(GeneratorId("gl", i, j), sig)

        assert c(1, 1) * c(2, 2) - c(1, 2) * c(2, 1) == Polynomial.zero(sig)

    def test_alternating_four_copy_identity(self):
        sig = SpaceSignature(n=2, k=0, m=4)

        def w(i, j):
            return contraction(GeneratorId("sp", i, j), sig)

        combo = w(1, 2) * w(3, 4) - w(1, 3) * w(2, 4) + w(1, 4) * w(2, 3)
        assert combo == Polynomial.zero(sig)

    def test_alternating_identity_survives_in_four_dims(self):
        sig = SpaceSignature(n=4, k=0, m=4)

        def w(i, j):
            return contraction(GeneratorId("sp", i, j), sig)

        combo = w(1, 2) * w(3, 4) - w(1, 3) * w(2, 4) + w(1, 4) * w(2, 3)
        assert combo != Polynomial.zero(sig)


class TestProducts:
    def test_orthogonal_degree_two(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        span = generator_products_basis(orthogonal(2), sig, 2)
        assert span.free_count == 3  # s11, s12, s22
        assert span.dim_span == 3

    def test_odd_degree_empty(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        span = generator_products_basis(orthogonal(2), sig, 3)
        assert span.dim_span == 0
        assert span.free_count == 0

    def test_products_enumerated_by_exponents(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        span = generator_products_basis(orthogonal(2), sig, 4)
        # single generator s11, degree 4 = one product s11^2
        assert span.free_count == 1
        assert span.products[0][0] == (2,)
        assert span.dim_span == 1

    def test_relation_detected(self):
        # three vector copies in the plane: the 2x2 Gram relation cuts one
        # product out of degree six
        sig = SpaceSignature(n=2, k=0, m=3)
        span = generator_products_basis(orthogonal(2), sig, 6)
        assert span.free_count == 56
        assert span.dim_span == 55
        assert len(span.independent) == 55

    def test_basis_elements_live_in_products(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        span = generator_products_basis(symplectic(2), sig, 2)
        assert span.dim_span == 1
        (w,) = span.basis()
        assert w == contraction(GeneratorId("sp", 1, 2), sig)


class TestKernel:
    def test_sum_of_squares_is_the_whole_kernel(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        res = invariant_subspace_basis(orthogonal(2), sig, 2)
        assert res.dim == 1
        (f,) = res.basis
        x, y = vvar(sig, 1, 1), vvar(sig, 1, 2)
        assert f == x * x + y * y

    def test_no_linear_invariants(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        res = invariant_subspace_basis(orthogonal(2), sig, 1)
        assert res.dim == 0

    def test_dim_history_monotone(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        res = invariant_subspace_basis(orthogonal(2), sig, 4)
        hist = list(res.dim_history)
        assert hist == sorted(hist, reverse=True)
        assert hist[-1] == res.dim

    def test_trivial_group_fixes_everything(self):
        spec = finite_group([Matrix.identity(2)])
        sig = SpaceSignature(n=2, k=0, m=1)
        res = invariant_subspace_basis(spec, sig, 2)
        assert res.dim == space_dimension(sig, 2)

    def test_sign_group_keeps_even_monomials(self):
        spec = finite_group([Matrix.from_rows([[Fraction(-1)]])])
        sig = SpaceSignature(n=1, k=0, m=1)
        assert invariant_subspace_basis(spec, sig, 2).dim == 1
        assert invariant_subspace_basis(spec, sig, 3).dim == 0

    def test_basis_vectors_are_invariant(self):
        for spec, sig in [
            (orthogonal(2), SpaceSignature(n=2, k=0, m=2)),
            (symplectic(2), SpaceSignature(n=2, k=0, m=2)),
            (general_linear(2), SpaceSignature(n=2, k=1, m=1)),
            (symplectic(4), SpaceSignature(n=4, k=0, m=3)),
            (orthogonal(3), SpaceSignature(n=3, k=0, m=2)),
        ]:
            ctx = ActionContext(spec, sig)
            res = invariant_subspace_basis(spec, sig, 2)
            for f in res.basis:
                assert is_invariant(ctx, f)
                # and, independently of the fixed element list, under
                # seeded Cayley samples
                for seed in range(99, 105):
                    assert act(ctx, sample_element(spec, seed), f) == f


class TestOracleAgreement:
    # the reference implementation recomputes these dimensions from scratch
    @pytest.mark.parametrize(
        "family,n,k,m,d,expected",
        [
            ("o", 2, 0, 2, 2, 3),
            ("o", 1, 0, 2, 2, 3),
            ("o", 2, 0, 1, 4, 1),
            ("sp", 2, 0, 2, 2, 1),
            ("sp", 2, 0, 3, 2, 3),
            ("gl", 2, 1, 1, 2, 1),
            ("gl", 1, 1, 1, 2, 1),
            ("gl", 2, 2, 1, 2, 2),
        ],
    )
    def test_kernel_dim_matches_oracle(self, family, n, k, m, d, expected):
        spec = {"o": orthogonal, "sp": symplectic, "gl": general_linear}[family](n)
        sig = SpaceSignature(n=n, k=k, m=m)
        res = invariant_subspace_basis(spec, sig, d)
        ref = invariant_dimension(family, n, k, m, d, seed=5)
        assert res.dim == ref == expected


class TestCertification:
    def test_basic_cell(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        rep = fft_verify(orthogonal(2), sig, 2)
        assert rep.certified
        assert rep.dim_kernel == rep.dim_span == 3
        assert rep.dim_space == space_dimension(sig, 2)

    def test_sandwich_holds_in_report(self):
        sig = SpaceSignature(n=2, k=1, m=2)
        rep = fft_verify(general_linear(2), sig, 4)
        assert rep.dim_span <= rep.dim_kernel <= rep.dim_space
        assert rep.certified == (rep.dim_span == rep.dim_kernel)

    def test_products_inside_kernel(self):
        # containment, vector by vector, not just dimension counts
        sig = SpaceSignature(n=2, k=0, m=2)
        span = generator_products_basis(orthogonal(2), sig, 4)
        kernel = invariant_subspace_basis(orthogonal(2), sig, 4)
        echelon = Echelon()
        for f in kernel.basis:
            echelon.insert(f.terms)
        for f in span.basis():
            assert not echelon.reduce(f.terms)[0]

    def test_odd_degree_certifies_empty(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        rep = fft_verify(orthogonal(2), sig, 3)
        assert rep.certified
        assert rep.dim_kernel == rep.dim_span == 0

    def test_relation_cell_still_certifies(self):
        sig = SpaceSignature(n=2, k=0, m=3)
        rep = fft_verify(orthogonal(2), sig, 6)
        assert rep.certified
        assert rep.dim_span == 55
        assert rep.free_products == 56

    def test_finite_group_rejected(self):
        spec = finite_group([Matrix.identity(2)])
        with pytest.raises(ValueError):
            fft_verify(spec, SpaceSignature(n=2, k=0, m=1), 2)

    def test_covectors_rejected_for_orthogonal(self):
        with pytest.raises(ValueError):
            fft_verify(orthogonal(2), SpaceSignature(n=2, k=1, m=1), 2)


class TestDecompose:
    def test_writes_s11_squared(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        s11 = contraction(GeneratorId("o", 1, 1), sig)
        combo = decompose_in_generators(orthogonal(2), sig, s11 * s11)
        assert combo.terms == (((2,), Fraction(1)),)
        assert combo.expand() == s11 * s11

    def test_mixed_combination_roundtrips(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        s11 = contraction(GeneratorId("o", 1, 1), sig)
        s12 = contraction(GeneratorId("o", 1, 2), sig)
        s22 = contraction(GeneratorId("o", 2, 2), sig)
        f = Fraction(2) * s11 * s22 - Fraction(3, 4) * s12 * s12 + s11 * s11
        combo = decompose_in_generators(orthogonal(2), sig, f)
        assert combo.expand() == f

    def test_rejects_non_invariant(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        x = vvar(sig, 1, 1)
        with pytest.raises(NotInvariant):
            decompose_in_generators(orthogonal(2), sig, x * x)

    def test_zero_gets_empty_combination(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        combo = decompose_in_generators(orthogonal(2), sig, Polynomial.zero(sig))
        assert combo.terms == ()
        assert combo.expand() == Polynomial.zero(sig)

    def test_deterministic_choice_on_relations(self):
        # with the degree-six relation present the expression is not unique;
        # the canonical echelon answer must not depend on the run
        sig = SpaceSignature(n=2, k=0, m=3)
        gens = generators_for(orthogonal(2), sig)
        prod = Polynomial.constant(sig, Fraction(1))
        for gid in gens[:3]:
            prod = prod * contraction(gid, sig)
        a = decompose_in_generators(orthogonal(2), sig, prod)
        b = decompose_in_generators(orthogonal(2), sig, prod)
        assert a.terms == b.terms
        assert a.expand() == prod

    def test_gl_pairing_power(self):
        sig = SpaceSignature(n=2, k=1, m=1)
        z = contraction(GeneratorId("gl", 1, 1), sig)
        combo = decompose_in_generators(general_linear(2), sig, z * z)
        assert combo.expand() == z * z
        assert combo.terms == (((2,), Fraction(1)),)


class TestGeneratorDegrees:
    def test_single_quadric(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        rep = minimal_generator_degrees(orthogonal(2), sig, 6)
        assert rep.degrees == (2,)
        assert rep.new_by_degree.get(2) == 1

    def test_five_seeds_agree(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        for seed in range(5):
            rep = minimal_generator_degrees(orthogonal(2), sig, 6, seed=seed)
            assert rep.degrees == (2,)

    def test_gl_pairing_found(self):
        sig = SpaceSignature(n=1, k=1, m=1)
        rep = minimal_generator_degrees(general_linear(1), sig, 3)
        assert rep.degrees == (2,)

    def test_trivial_group_needs_linear_generators(self):
        spec = finite_group([Matrix.identity(1)])
        sig = SpaceSignature(n=1, k=0, m=1)
        rep = minimal_generator_degrees(spec, sig, 2)
        assert rep.degrees == (1,)

    def test_two_copies_symplectic(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        rep = minimal_generator_degrees(symplectic(2), sig, 4)
        assert rep.degrees == (2,)  # just w(1,2)

    def test_multisets_count_all_contractions(self):
        # each family needs exactly its contraction list, nothing more
        cases = [
            (orthogonal(2), SpaceSignature(n=2, k=0, m=2), 4, (2, 2, 2)),
            (symplectic(2), SpaceSignature(n=2, k=0, m=3), 4, (2, 2, 2)),
            (general_linear(2), SpaceSignature(n=2, k=2, m=2), 3, (2, 2, 2, 2)),
        ]
        for spec, sig, bound, expected in cases:
            assert minimal_generator_degrees(spec, sig, bound).degrees == expected

    def test_relation_does_not_remove_generators(self):
        # two copies on a line satisfy the Gram relation, yet all three
        # quadratics are still needed to generate
        sig = SpaceSignature(n=1, k=0, m=2)
        rep = minimal_generator_degrees(orthogonal(1), sig, 4)
        assert rep.degrees == (2, 2, 2)
