from fractions import Fraction

import pytest

from classinv import groups
from classinv.action import _constraint_table
from classinv.certify import invariant_subspace_basis
from classinv.exact import Echelon, Matrix, SingularMatrixError
from classinv.groups import (
    ClosureCapExceeded,
    GroupSpec,
    NotFiniteGroup,
    cayley,
    contains,
    finite_closure,
    finite_group,
    form_matrix,
    general_linear,
    group_elements,
    orthogonal,
    sample_element,
    small_integer_elements,
    symplectic,
    symplectic_form_matrix,
)
from classinv.poly import SpaceSignature

from oracle import det
from reference_elements import reference_matrices


def mat(rows):
    return Matrix.from_rows([[Fraction(v) for v in row] for row in rows])


KAPPA = mat([[0, 1], [-1, 0]])


class TestFormMatrix:
    def test_n2(self):
        assert symplectic_form_matrix(2) == KAPPA

    def test_n4_block_diagonal(self):
        j = symplectic_form_matrix(4)
        assert j.at(0, 1) == 1 and j.at(1, 0) == -1
        assert j.at(2, 3) == 1 and j.at(3, 2) == -1
        assert j.at(0, 2) == 0 and j.at(1, 3) == 0

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            symplectic_form_matrix(3)

    def test_family_forms(self):
        assert form_matrix("gl", 3) == Matrix.identity(3)
        assert form_matrix("o", 3) == Matrix.identity(3)
        assert form_matrix("sp", 4) == symplectic_form_matrix(4)

    def test_square_to_minus_identity(self):
        for n in (2, 4, 6):
            j = symplectic_form_matrix(n)
            assert j @ j == -Matrix.identity(n)
            assert j.transpose() == -j


class TestMembership:
    def test_rotation_is_orthogonal(self):
        rot = mat([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
        assert contains(orthogonal(2), rot)

    def test_stretch_is_not_orthogonal(self):
        assert not contains(orthogonal(2), mat([[2, 0], [0, 1]]))

    def test_shear_is_symplectic(self):
        # SL(2) = Sp(2), so a unit shear qualifies
        assert contains(symplectic(2), mat([[1, 1], [0, 1]]))

    def test_det_two_not_symplectic(self):
        assert not contains(symplectic(2), mat([[2, 0], [0, 1]]))

    def test_gl_membership_is_invertibility(self):
        assert contains(general_linear(2), mat([[1, 1], [0, 1]]))
        assert not contains(general_linear(2), mat([[1, 1], [1, 1]]))

    def test_wrong_size_rejected(self):
        assert not contains(orthogonal(3), Matrix.identity(2))


class TestSpecValidation:
    def test_sp_odd_n(self):
        with pytest.raises(ValueError, match="n must be even"):
            symplectic(3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GroupSpec(family="su", n=2)

    def test_finite_needs_a_generator(self):
        with pytest.raises(ValueError, match="need at least one generator"):
            finite_group([])

    def test_generator_size_checked(self):
        with pytest.raises(ValueError, match="generator size"):
            finite_group([Matrix.identity(2), Matrix.identity(3)])


class TestCayley:
    def test_zero_gives_identity(self):
        assert cayley(mat([[0] * 3] * 3)) == Matrix.identity(3)

    def test_kappa_gives_quarter_turn(self):
        assert cayley(KAPPA) == mat([[0, -1], [1, 0]])

    def test_skew_input_lands_in_o(self):
        s = mat([[0, 2], [-2, 0]])
        assert contains(orthogonal(2), cayley(s))

    def test_singular_shift_raises(self):
        with pytest.raises(SingularMatrixError):
            cayley(-Matrix.identity(2))


class TestSampling:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthogonal_samples(self, n):
        spec = orthogonal(n)
        dets = set()
        for seed in range(100):
            el = sample_element(spec, seed)
            assert el.g.transpose() @ el.g == Matrix.identity(n)
            assert el.g @ el.g_inv == Matrix.identity(n)
            dets.add(det(el.g))
        assert dets == {Fraction(1), Fraction(-1)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthogonal_det_tracks_seed_parity(self, n):
        spec = orthogonal(n)
        for seed in range(20):
            assert det(sample_element(spec, seed).g) == (-1 if seed % 2 else 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_orthogonal_samples_are_not_signed_permutations(self, n):
        # signed permutations cut nothing beyond the small-integer elements
        for seed in range(200):
            g = sample_element(orthogonal(n), seed).g
            assert any(x not in (0, 1, -1) for x in g.entries)

    def test_orthogonal_n1_samples_are_signs(self):
        for seed in range(10):
            assert sample_element(orthogonal(1), seed).g.entries == ((-1,) if seed % 2 else (1,))

    @pytest.mark.parametrize("n", [2, 4])
    def test_symplectic_samples(self, n):
        spec = symplectic(n)
        j = symplectic_form_matrix(n)
        for seed in range(100):
            el = sample_element(spec, seed)
            assert el.g.transpose() @ j @ el.g == j
            assert el.g @ el.g_inv == Matrix.identity(n)

    def test_gl_samples_invertible(self):
        spec = general_linear(3)
        for seed in range(50):
            el = sample_element(spec, seed)
            assert el.g.is_invertible()
            assert el.g @ el.g_inv == Matrix.identity(3)

    def test_deterministic_in_seed(self):
        spec = orthogonal(3)
        assert sample_element(spec, 41).g == sample_element(spec, 41).g
        assert sample_element(spec, 41).g != sample_element(spec, 42).g


class TestFiniteClosure:
    def test_sign_group(self):
        elems = finite_closure([mat([[-1]])])
        assert len(elems) == 2

    def test_swap_group(self):
        elems = finite_closure([mat([[0, 1], [1, 0]])])
        assert len(elems) == 2

    def test_full_sign_group_on_two_coords(self):
        gens = [mat([[-1, 0], [0, 1]]), mat([[1, 0], [0, -1]])]
        assert len(finite_closure(gens)) == 4

    def test_symmetric_group_three(self):
        gens = [
            mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        ]
        assert len(finite_closure(gens)) == 6

    def test_infinite_generator_hits_cap(self):
        # the 384 signed permutations of 4 coordinates pass every trace
        # test, so only the cap stops their closure
        gens = [mat([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])]
        for a in range(3):
            swap = [[int(i == j) for j in range(4)] for i in range(4)]
            swap[a][a] = swap[a + 1][a + 1] = 0
            swap[a][a + 1] = swap[a + 1][a] = 1
            gens.append(mat(swap))
        assert len(finite_closure(gens, cap=384)) == 384
        with pytest.raises(ClosureCapExceeded):
            finite_closure(gens, cap=100)

    @pytest.mark.parametrize(
        "g",
        [[[1, 1], [0, 1]], [[1, Fraction(1, 2)], [0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]],
        ids=["shear", "rational-shear", "shear-3"],
    )
    def test_unipotent_generator_refused_at_once(self, g):
        # a finite-order element with trace n is the identity, so a shear
        # is refused on its first power, not at the cap
        with pytest.raises(NotFiniteGroup):
            finite_closure([mat(g)], cap=10**9)

    def test_kernel_proves_finiteness_first(self):
        # the kernel imposes the generator alone, which has infinite order
        rot = mat([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
        with pytest.raises(NotFiniteGroup):
            invariant_subspace_basis(finite_group([rot], cap=100), SpaceSignature(2, 0, 1), 2)

    def test_idempotent(self):
        elems = finite_closure([mat([[0, 1], [1, 0]])])
        again = finite_closure(elems)
        assert len(again) == len(elems)

    def test_closure_contains_inverses(self):
        elems = finite_closure([mat([[0, -1], [1, 0]])])  # order-4 rotation
        assert len(elems) == 4
        for g in elems:
            assert g.inverse() in elems

    def test_group_elements_cached_pairs(self):
        spec = finite_group((mat([[-1]]),))
        els = group_elements(spec)
        assert len(els) == 2
        for el in els:
            assert el.g @ el.g_inv == Matrix.identity(1)


class TestSmallIntegerElements:
    # membership is asserted inside the helper; exercising it per family is
    # already a real test
    @pytest.mark.parametrize(
        "spec", [orthogonal(1), orthogonal(2), orthogonal(3), symplectic(2),
                 symplectic(4), general_linear(1), general_linear(2)],
        ids=["o1", "o2", "o3", "sp2", "sp4", "gl1", "gl2"],
    )
    def test_members_and_inverses(self, spec):
        els = small_integer_elements(spec)
        assert els
        for el in els:
            assert contains(spec, el.g)
            assert el.g @ el.g_inv == Matrix.identity(spec.n)

    def test_classical_lists_are_built_once(self):
        # a classical list is built and checked once per (family, n); every
        # call gets its own list, so a caller cannot change the next one's
        first = small_integer_elements(orthogonal(3))
        hits = groups._classical_elements.cache_info().hits
        second = small_integer_elements(orthogonal(3))
        assert groups._classical_elements.cache_info().hits == hits + 1
        assert first == second and first is not second

    def test_finite_lists_rest_on_the_closure_each_time(self, monkeypatch):
        # clearing the closure caches makes the next call close the group
        # again, as a fresh process does
        calls = []
        closure = groups.finite_closure
        monkeypatch.setattr(groups, "finite_closure", lambda *a: calls.append(1) or closure(*a))
        spec = finite_group([mat([[0, 1], [1, 0]])])
        for _ in range(2):
            groups.group_elements_matrices.cache_clear()
            assert [e.g for e in small_integer_elements(spec)] == list(spec.generators)
        assert len(calls) == 2
        for _ in range(2):
            groups.group_elements.cache_clear()
            groups.group_elements_matrices.cache_clear()
            assert [e.g for e in group_elements(spec)] == [Matrix.identity(2), spec.generators[0]]
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "spec,order",
        [
            (orthogonal(1), 2), (orthogonal(2), 8), (orthogonal(3), 48), (orthogonal(4), 384),
            (general_linear(2), 2), (general_linear(3), 6), (general_linear(4), 24),
            (symplectic(2), 4), (symplectic(4), 32), (symplectic(6), 384),
        ],
        ids=["o1", "o2", "o3", "o4", "gl2", "gl3", "gl4", "sp2", "sp4", "sp6"],
    )
    def test_signed_permutations_generate_weyl_group(self, spec, order):
        # 2^n n! for o(n), n! for gl(n), 4^h h! for sp(2h): the group
        # holding every signed permutation the full enumeration listed
        def signed(gs):
            return [g for g in gs if _is_signed_permutation(g)]

        closure = set(finite_closure(signed(el.g for el in small_integer_elements(spec))))
        assert len(closure) == order
        # every sign mask (o), every transposition, every -1 block and J (sp)
        full = signed(reference_matrices(spec))
        assert full and set(full) <= closure


def _is_signed_permutation(g: Matrix) -> bool:
    rows = [[g.at(i, j) for j in range(g.cols)] for i in range(g.rows)]
    return all(x in (0, 1, -1) for row in rows for x in row) and all(
        sum(x != 0 for x in line) == 1 for line in rows + [list(c) for c in zip(*rows)]
    )


def _lie_closure_dim(spec: GroupSpec) -> int:
    """Dimension of the Lie algebra generated by the W-conjugates of the
    one-parameter directions of the non-monomial built-in elements, where
    W is generated by the built-in signed permutations."""
    n = spec.n
    eye = Matrix.identity(n)
    els = small_integer_elements(spec)
    weyl, queue = [], []  # queue starts with the one-parameter directions
    sig = SpaceSignature(n, 0, 1)  # one vector copy: g^-1 moves the variables
    for el, (kind, payload) in zip(els, _constraint_table(sig, tuple(els))):
        if kind == "orbit":
            # a Weyl or torus element, no direction of its own
            if all(abs(Fraction(num, den)) == 1 for _, num, den in payload[1]):
                weyl.append(el)
            continue
        x = el.g - eye
        if kind == "derive":
            assert x @ x == mat([[0] * n] * n)
            queue.append(x)  # unipotent: g = exp(g - I)
        else:
            # the 3-4-5 rotation: not unipotent, and its log is an
            # irrational multiple of E21 - E12; it has infinite order, so
            # its Zariski closure is the rotation group of the (1,2)
            # plane, whose Lie algebra E21 - E12 spans
            assert spec.family == "o"
            assert el.g.at(0, 0) == Fraction(3, 5) and el.g.at(1, 0) == Fraction(4, 5)
            rows = [[0] * n for _ in range(n)]
            rows[1][0], rows[0][1] = 1, -1
            queue.append(mat(rows))
    echelon = Echelon()
    basis = []
    while queue:
        y = queue.pop()
        if not echelon.insert({(i, j): y.at(i, j) for i in range(n) for j in range(n) if y.at(i, j)}):
            continue
        basis.append(y)
        queue.extend(w.g @ y @ w.g_inv for w in weyl)
        queue.extend(y @ z - z @ y for z in basis)
    return echelon.rank


class TestCompleteness:
    """The common fixed space of the built-in elements is the invariant
    space: their one-parameter directions generate the Lie algebra, GL
    adds its torus and O(n) an element of determinant -1."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_gl(self, n):
        assert _lie_closure_dim(general_linear(n)) == n * n - 1
        torus = mat([[2 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
        assert any(el.g == torus for el in small_integer_elements(general_linear(n)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_o(self, n):
        assert _lie_closure_dim(orthogonal(n)) == n * (n - 1) // 2
        assert any(det(el.g) == -1 for el in small_integer_elements(orthogonal(n)))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_sp(self, n):
        assert _lie_closure_dim(symplectic(n)) == n * (n + 1) // 2
