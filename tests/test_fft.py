import random
from fractions import Fraction
from pathlib import Path

import pytest

from classinv import action, certify
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
from classinv.cli import read_matrix_file
from classinv.exact import ONE, Echelon, Matrix, rref
from classinv.groups import (
    GroupElement,
    contains,
    finite_group,
    general_linear,
    orthogonal,
    sample_element,
    small_integer_elements,
    symplectic,
)
from classinv.poly import (
    Polynomial,
    SpaceSignature,
    VarKind,
    _exponents_desc,
    space_dimension,
)

from oracle import invariant_dimension
from points import monomial_basis


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
        for spec, k, m, d in [
            (orthogonal(2), 0, 2, 4),
            (symplectic(4), 0, 3, 4),
            (general_linear(3), 2, 1, 4),
        ]:
            res = invariant_subspace_basis(spec, SpaceSignature(n=spec.n, k=k, m=m), d)
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


def _b3():
    root = Path(__file__).resolve().parents[1]
    return finite_group(read_matrix_file(str(root / "perfbench" / "groups" / "b3.txt")))


def _half_swap():
    # order 8; the swap scales one coordinate by 2 and the other by 1/2
    half = Fraction(1, 2)
    return finite_group([Matrix.from_rows([[0, 2], [half, 0]]), Matrix.from_rows([[-1, 0], [0, 1]])])


class TestOrbitStage:
    """The orbit walk against the dense path it replaces: for every block,
    cutting the whole monomial basis by each scaled-permutation element in
    turn with _generic_cut must leave the same span."""

    @staticmethod
    def canonical(vectors, monos):
        return rref([[v.get(m, 0) for m in monos] for v in vectors])

    @pytest.mark.parametrize(
        "spec,k,m,d",
        [
            (orthogonal(1), 0, 2, 4),
            (orthogonal(2), 0, 2, 4),
            (orthogonal(2), 0, 1, 5),
            (orthogonal(3), 0, 2, 4),
            (orthogonal(4), 0, 2, 4),
            (symplectic(2), 0, 2, 4),
            (symplectic(4), 0, 2, 4),
            (general_linear(1), 1, 1, 4),
            (general_linear(2), 1, 2, 4),
            (general_linear(2), 2, 1, 3),
            (general_linear(3), 1, 1, 4),
            (_b3(), 0, 1, 6),
            (_b3(), 0, 2, 3),
            (_half_swap(), 0, 1, 4),
            (_half_swap(), 1, 1, 4),
            (_half_swap(), 0, 2, 4),
            (_half_swap(), 1, 2, 3),
        ],
        ids=[
            "o1", "o2", "o2-odd", "o3", "o4", "sp2", "sp4", "gl1", "gl2-k1", "gl2-k2", "gl3",
            "b3-m1", "b3-m2", "half-k0m1", "half-k1m1", "half-k0m2", "half-k1m2",
        ],
    )
    def test_orbit_kernel_matches_dense_cuts(self, spec, k, m, d):
        sig = SpaceSignature(n=spec.n, k=k, m=m)
        ctx = ActionContext(spec, sig)
        elems = small_integer_elements(spec)
        table = action._constraint_table(sig, tuple(elems))
        pairs = [(e, move) for e, (kind, move) in zip(elems, table) if kind == "orbit"]
        assert pairs
        total = 0
        for comp in _exponents_desc(sig.num_copies, d):
            monos = certify._block_monomials(sig, comp)
            orbit = certify._orbit_kernel(monos, [move for _, move in pairs])
            dense = [{mono: ONE} for mono in monos]
            for e, _ in pairs:
                dense = certify._generic_cut(certify._cut_rows(ctx, ("act", e)), dense)
            assert self.canonical(orbit, monos) == self.canonical(dense, monos)
            total += len(orbit)
        assert total <= space_dimension(sig, d)


class TestCopyClasses:
    """Blocks filled in by relabelling their copy-permutation class's
    representative, against every block computed directly: the orbit
    walk, then each dense cut, then rref, with no classes."""

    @staticmethod
    def direct_blocks(spec, sig, d):
        ctx = ActionContext(spec, sig)
        table = action._constraint_table(sig, tuple(small_integer_elements(spec)))
        moves = [move for kind, move in table if kind == "orbit"]
        out = {}
        for comp in _exponents_desc(sig.num_copies, d):
            monos = certify._block_monomials(sig, comp)
            vecs = certify._orbit_kernel(monos, moves)
            for cut in table:
                if cut[0] != "orbit":
                    vecs = certify._generic_cut(certify._cut_rows(ctx, cut), vecs)
            reduced, _ = rref([[v.get(m, 0) for m in monos] for v in vecs])
            out[comp] = [Polynomial(sig, dict(zip(monos, r))) for r in reduced]
        return out

    @pytest.mark.parametrize(
        "spec,k,m,d",
        [
            (orthogonal(2), 0, 3, 6),  # block (3,2,1): the relabelling is a 3-cycle
            (orthogonal(3), 0, 3, 4),
            (symplectic(2), 0, 3, 6),
            (symplectic(4), 0, 3, 4),
            (general_linear(2), 2, 2, 4),
            (general_linear(2), 2, 3, 4),
            (general_linear(3), 3, 2, 4),
            (_b3(), 0, 3, 4),
            (_half_swap(), 2, 2, 4),
            # more copies than the degree fills: blocks with zero-degree
            # copies share a reduced form with others of their pattern
            (orthogonal(3), 0, 4, 4),
            (symplectic(4), 0, 4, 4),
            (general_linear(2), 3, 3, 4),
        ],
        ids=[
            "o2-m3", "o3-m3", "sp2-m3", "sp4-m3", "gl2-k2m2", "gl2-k2m3", "gl3-k3m2", "b3-m3",
            "half-k2m2", "o3-m4", "sp4-m4", "gl2-k3m3",
        ],
    )
    def test_relabelled_blocks_match_direct(self, spec, k, m, d):
        sig = SpaceSignature(n=spec.n, k=k, m=m)
        res = invariant_subspace_basis(spec, sig, d)
        got: dict = {}
        for f in res.basis:
            got.setdefault(f.copy_degrees(), []).append(f)
        direct = self.direct_blocks(spec, sig, d)
        assert set(got) <= set(direct)
        for comp, polys in direct.items():
            assert got.get(comp, []) == polys, comp
        assert res.dim == sum(len(p) for p in direct.values()) > 0

    @pytest.mark.parametrize(
        "spec,k,m,d,history,samples",
        [
            (orthogonal(4), 0, 3, 4, (1365, 36, 21), 5),
            (symplectic(4), 0, 4, 4, (3876, 76, 41, 21), 4),
            (symplectic(4), 0, 2, 8, (6435, 42, 3, 1), 4),
            (general_linear(3), 2, 2, 6, (12376, 72, 20), 4),
        ],
        ids=["o4-m3-d4", "sp4-m4-d4", "sp4-m2-d8", "gl3-k2m2-d6"],
    )
    def test_class_weights_reproduce_dim_history(self, spec, k, m, d, history, samples):
        res = invariant_subspace_basis(spec, SpaceSignature(n=spec.n, k=k, m=m), d)
        assert (res.dim_history, res.samples_used, res.dim) == (history, samples, history[-1])

    @pytest.mark.parametrize(
        "spec,k,m,d,calls",
        [
            (orthogonal(4), 0, 3, 4, 7),
            (symplectic(4), 0, 4, 4, 5),
            (symplectic(4), 0, 2, 8, 1),
            (general_linear(3), 2, 2, 6, 9),
        ],
        ids=["o4-m3-d4", "sp4-m4-d4", "sp4-m2-d8", "gl3-k2m2-d6"],
    )
    def test_one_rref_per_copy_pattern(self, monkeypatch, spec, k, m, d, calls):
        # one rref per surviving class and order of its positive copies,
        # not one per block (15, 19, 1 and 16 blocks survive)
        seen = []
        monkeypatch.setattr(certify, "rref", lambda rows: seen.append(rows) or rref(rows))
        invariant_subspace_basis(spec, SpaceSignature(n=spec.n, k=k, m=m), d)
        assert len(seen) == calls


def _torus_elements(spec):
    """Diagonal group elements: every sign diagonal (o), diag(1, .., 2, .., 1)
    (gl), diag(.., 2, 1/2, ..) on one pair (sp)."""
    n = spec.n
    if spec.family == "o":
        rows = [[-1 if mask >> a & 1 else 1 for a in range(n)] for mask in range(1, 1 << n)]
    elif spec.family == "gl":
        rows = [[2 if b == a else 1 for b in range(n)] for a in range(n)]
    else:
        half = Fraction(1, 2)
        rows = [
            [2 if b == 2 * p else half if b == 2 * p + 1 else 1 for b in range(n)]
            for p in range(n // 2)
        ]
    return [
        Matrix.from_rows([[r[i] if i == j else 0 for j in range(n)] for i in range(n)]) for r in rows
    ]


class TestWeightZero:
    """The monomials the kernel enumerates per block against the whole
    block: exactly those the diagonal torus fixes, in block order."""

    @staticmethod
    def weight_zero(family, sig, mono):
        n, k = sig.n, sig.k
        cov = [sum(mono[c * n + a] for c in range(k)) for a in range(n)]
        vec = [sum(mono[c * n + a] for c in range(k, sig.num_copies)) for a in range(n)]
        if family == "o":
            return all(x % 2 == 0 for x in vec)
        if family == "gl":
            return cov == vec
        return all(vec[a] == vec[a + 1] for a in range(0, n, 2))

    @pytest.mark.parametrize(
        "spec,k,m",
        [
            (orthogonal(1), 0, 3),
            (orthogonal(2), 0, 3),
            (orthogonal(3), 0, 2),
            (orthogonal(4), 0, 2),
            (symplectic(2), 0, 3),
            (symplectic(4), 0, 2),
            (symplectic(6), 0, 1),
            (general_linear(1), 2, 2),
            (general_linear(2), 1, 2),
            (general_linear(2), 2, 1),
            (general_linear(3), 1, 1),
            (general_linear(3), 2, 1),
        ],
        ids=[
            "o1-m3", "o2-m3", "o3-m2", "o4-m2", "sp2-m3", "sp4-m2", "sp6-m1",
            "gl1-k2m2", "gl2-k1m2", "gl2-k2m1", "gl3-k1m1", "gl3-k2m1",
        ],
    )
    def test_torus_fixes_exactly_the_enumerated_monomials(self, spec, k, m):
        sig = SpaceSignature(n=spec.n, k=k, m=m)
        ctx = ActionContext(spec, sig)
        units = [tuple(int(u == v) for u in range(sig.num_vars)) for v in range(sig.num_vars)]
        scales = []
        for g in _torus_elements(spec):
            assert contains(spec, g)
            el = GroupElement(g, g.inverse())
            images = [act(ctx, el, Polynomial(sig, {u: ONE})).terms for u in units]
            assert [list(t) for t in images] == [[u] for u in units]
            scales.append([t[u] for t, u in zip(images, units)])

        def fixed_by(scale, mono):
            c = ONE
            for s, e in zip(scale, mono):
                c *= s**e
            return c == 1

        for d in range(7):
            blocks: dict = {}
            for mono in monomial_basis(sig, d):
                blocks.setdefault(sig.copy_degrees(mono), []).append(mono)
            comps = list(_exponents_desc(sig.num_copies, d))
            # one call weighs every block of the degree
            for comp, kept in zip(comps, certify._weight_zero_monomials(spec.family, sig, comps)):
                block = blocks.get(comp, [])
                assert kept == [mono for mono in block if self.weight_zero(spec.family, sig, mono)]
                kept_set = set(kept)
                for mono in block:
                    moved = any(not fixed_by(s, mono) for s in scales)
                    assert moved != (mono in kept_set), (comp, mono)


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

    def test_report_carries_the_history_and_the_class_ranks(self):
        # o n=2, three vectors, d=4: the class of (4,0,0) holds s(1,1)^2,
        # that of (3,1,0) s(1,1)s(1,2), that of (2,2,0) s(1,1)s(2,2) and
        # s(1,2)^2, that of (2,1,1) s(1,1)s(2,3) and s(1,2)s(1,3)
        spec, sig = orthogonal(2), SpaceSignature(n=2, k=0, m=3)
        rep = fft_verify(spec, sig, 4)
        assert rep.dim_history == invariant_subspace_basis(spec, sig, 4).dim_history
        rows = {r: (size, rank) for r, size, rank in rep.span_by_class}
        assert rows == {(4, 0, 0): (3, 1), (3, 1, 0): (6, 1), (2, 2, 0): (3, 2), (2, 1, 1): (3, 2)}
        assert rep.dim_span == 3 + 6 + 6 + 6 == rep.free_products
        assert rep.dim_history[-1] == rep.dim_kernel


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

    def test_elimination_proves_invariance(self, monkeypatch):
        # a zero residual writes f in the contractions, which is the proof;
        # only a nonzero residual asks is_invariant whether f is moved
        calls = []

        def recording(ctx, f):
            calls.append(f)
            return is_invariant(ctx, f)

        monkeypatch.setattr(certify, "is_invariant", recording)
        sig = SpaceSignature(n=2, k=0, m=2)
        s11 = contraction(GeneratorId("o", 1, 1), sig)
        s12 = contraction(GeneratorId("o", 1, 2), sig)
        f = s11 * s11 - Fraction(5, 7) * s12 * s12
        assert decompose_in_generators(orthogonal(2), sig, f).expand() == f
        assert calls == []
        x = vvar(sig, 1, 1)
        moved = x * x * x * x + f
        with pytest.raises(NotInvariant):
            decompose_in_generators(orthogonal(2), sig, moved)
        assert calls == [moved]

    def test_outside_the_span_reports_the_span_dimension(self, monkeypatch):
        # an invariant outside the span would refute the theorem, so the
        # invariance check is switched off to reach the span test behind it
        monkeypatch.setattr(certify, "is_invariant", lambda ctx, f: True)
        sig = SpaceSignature(n=2, k=0, m=3)
        x = vvar(sig, 1, 1)
        with pytest.raises(NotInSpan) as info:
            decompose_in_generators(orthogonal(2), sig, x * x * x * x * x * x)
        span = generator_products_basis(orthogonal(2), sig, 6)
        assert info.value.dim_span == span.dim_span == 55 < span.free_count
        assert info.value.residual

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
