import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from classinv.exact import Matrix
from classinv.groups import (
    GroupElement,
    finite_group,
    general_linear,
    group_elements,
    orthogonal,
    sample_element,
    small_integer_elements,
    symplectic,
)
from classinv.poly import (
    DegreeCapExceeded,
    Polynomial,
    SignatureMismatch,
    SpaceSignature,
    VarKind,
    count_text,
    grlex_key,
    linear_images,
    space_dimension,
)

from points import monomial_basis

SIG2 = SpaceSignature(n=2, k=0, m=1)  # plain two variables x[1,1], x[1,2]


def xvar(sig, copy, coord):
    return Polynomial.variable(sig, VarKind.VECTOR, copy, coord)


def rand_poly(rng, sig, max_deg=3, terms=4):
    f = Polynomial.zero(sig)
    for _ in range(rng.randint(1, terms)):
        mono = Polynomial.constant(sig, Fraction(rng.randint(-5, 5)))
        for _ in range(rng.randint(0, max_deg)):
            copy = rng.randint(1, sig.num_copies)
            kind = VarKind.COVECTOR if copy <= sig.k else VarKind.VECTOR
            idx = copy if copy <= sig.k else copy - sig.k
            coord = rng.randint(1, sig.n)
            mono = mono * Polynomial.variable(sig, kind, idx, coord)
        f = f + mono
    return f


class TestSignature:
    def test_var_names(self):
        sig = SpaceSignature(n=2, k=1, m=1)
        assert sig.var_name(0) == "u[1,1]"
        assert sig.var_name(1) == "u[1,2]"
        assert sig.var_name(2) == "x[1,1]"
        assert sig.var_name(3) == "x[1,2]"

    def test_num_vars(self):
        assert SpaceSignature(n=3, k=2, m=1).num_vars == 9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpaceSignature(n=2, k=0, m=0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            SpaceSignature(n=0, k=0, m=1)


class TestMonomialBasis:
    def test_two_vars_degree_two(self):
        basis = monomial_basis(SIG2, 2)
        assert basis == [(2, 0), (1, 1), (0, 2)]

    def test_degree_zero(self):
        assert monomial_basis(SIG2, 0) == [(0, 0)]

    def test_four_vars_degree_two_count(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        assert len(monomial_basis(sig, 2)) == 10

    def test_stars_and_bars_counts(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 20:
            n = rng.randint(1, 4)
            m = rng.randint(1, 3)
            d = rng.randint(0, 6)
            sig = SpaceSignature(n=n, k=0, m=m)
            if sig.num_vars * d > 24:
                continue
            basis = monomial_basis(sig, d)
            assert len(basis) == comb(sig.num_vars + d - 1, d)
            assert len(set(basis)) == len(basis)
            checked += 1

    def test_grlex_sorted_leading_first(self):
        basis = monomial_basis(SIG2, 3)
        keys = [grlex_key(mo) for mo in basis]
        assert keys == sorted(keys, reverse=True)

    def test_dim_cap(self):
        sig = SpaceSignature(n=4, k=0, m=4)
        with pytest.raises(DegreeCapExceeded) as exc:
            monomial_basis(sig, 12)
        assert exc.value.dim == space_dimension(sig, 12)
        assert exc.value.dim > exc.value.cap


class TestArithmetic:
    def test_difference_of_squares(self):
        x = xvar(SIG2, 1, 1)
        y = xvar(SIG2, 1, 2)
        assert (x + y) * (x - y) == x * x - y * y

    def test_one_is_neutral(self):
        x = xvar(SIG2, 1, 1)
        one = Polynomial.constant(SIG2, Fraction(1))
        assert x * one == x

    def test_degrees_add(self):
        x = xvar(SIG2, 1, 1)
        y = xvar(SIG2, 1, 2)
        f = x * x + y * y
        g = x * y
        assert (f * g).degree() == 4

    def test_zero_degree_is_none(self):
        assert Polynomial.zero(SIG2).degree() is None

    def test_power(self):
        x = xvar(SIG2, 1, 1)
        y = xvar(SIG2, 1, 2)
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y

    def test_cancellation_drops_terms(self):
        x = xvar(SIG2, 1, 1)
        assert not (x - x)
        assert (x - x).terms == {}

    def test_signature_mismatch(self):
        other = SpaceSignature(n=3, k=0, m=1)
        with pytest.raises(SignatureMismatch):
            xvar(SIG2, 1, 1) + xvar(other, 1, 1)

    def test_scalar_multiplication(self):
        x = xvar(SIG2, 1, 1)
        assert Fraction(3, 2) * x == x.scale(Fraction(3, 2))


class TestConstructor:
    """Fraction values and tuple keys are stored as they are; ints and
    other key sequences are converted; either way zeros are dropped."""

    def test_int_and_fraction_values_agree(self):
        ints = Polynomial(SIG2, {(2, 0): 3, (1, 1): 0, (0, 2): -1})
        fracs = Polynomial(SIG2, {(2, 0): Fraction(3), (1, 1): Fraction(0), (0, 2): Fraction(-1)})
        assert ints == fracs
        assert ints.terms == fracs.terms == {(2, 0): Fraction(3), (0, 2): Fraction(-1)}
        for p in (ints, fracs):
            assert all(type(c) is Fraction for c in p.terms.values())

    def test_list_and_tuple_keys_agree(self):
        class ListKey(list):  # a hashable list, so it can key a dict
            __hash__ = object.__hash__

        lists = Polynomial(SIG2, {ListKey([1, 1]): Fraction(1, 2), ListKey([0, 2]): 0, ListKey([2, 0]): 5})
        tuples = Polynomial(SIG2, {(1, 1): Fraction(1, 2), (0, 2): 0, (2, 0): 5})
        assert lists == tuples
        assert lists.terms == {(1, 1): Fraction(1, 2), (2, 0): Fraction(5)}
        assert all(type(m) is tuple for m in lists.terms)

    def test_fractions_are_kept_not_copied(self):
        half = Fraction(1, 2)
        assert Polynomial(SIG2, {(1, 0): half}).terms[(1, 0)] is half

    def test_other_values_are_refused(self):
        with pytest.raises(TypeError):
            Polynomial(SIG2, {(1, 0): 0.5})


def rational_poly(rng, sig, max_deg=3, terms=4):
    # rand_poly with each term's coefficient over a random denominator
    f = rand_poly(rng, sig, max_deg, terms)
    return Polynomial(sig, {m: c / rng.choice([1, 2, 3, 6, 7, 12]) for m, c in f.terms.items()})


@st.composite
def small_polys(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return rand_poly(rng, SIG2)


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


class TestHomogeneity:
    def test_scaling_detects_degree(self):
        # z . I substitution multiplies a degree-d form by z^d
        x = xvar(SIG2, 1, 1)
        y = xvar(SIG2, 1, 2)
        f = x * x * y + y ** 3
        for z in (2, 3):
            zi = Matrix.from_rows([[z, 0], [0, z]])
            scaled = f.substitute_linear({(VarKind.VECTOR, 1): zi})
            assert scaled == f.scale(Fraction(z) ** 3)

    def test_mixed_not_homogeneous(self):
        x = xvar(SIG2, 1, 1)
        assert not (x + x * x).is_homogeneous()


class TestSubstitution:
    def test_identity_fixes(self):
        rng = random.Random(1)
        for _ in range(10):
            f = rand_poly(rng, SIG2)
            assert f.substitute_linear({}) == f

    def test_swap(self):
        x = xvar(SIG2, 1, 1)
        y = xvar(SIG2, 1, 2)
        swap = Matrix.from_rows([[0, 1], [1, 0]])
        assert x.substitute_linear({(VarKind.VECTOR, 1): swap}) == y

    def test_shear_expands(self):
        x = xvar(SIG2, 1, 1)
        y = xvar(SIG2, 1, 2)
        shear = Matrix.from_rows([[1, 1], [0, 1]])
        image = (x * x).substitute_linear({(VarKind.VECTOR, 1): shear})
        assert image == (x + y) * (x + y)

    def test_composition_order(self):
        # substituting A then B equals substituting A @ B in one go
        rng = random.Random(9)
        for _ in range(15):
            f = rand_poly(rng, SIG2)
            a = Matrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            )
            b = Matrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            )
            stepwise = f.substitute_linear({(VarKind.VECTOR, 1): a}).substitute_linear(
                {(VarKind.VECTOR, 1): b}
            )
            direct = f.substitute_linear({(VarKind.VECTOR, 1): a @ b})
            assert stepwise == direct

    def test_per_copy_independence(self):
        sig = SpaceSignature(n=2, k=1, m=1)
        u = Polynomial.variable(sig, VarKind.COVECTOR, 1, 1)
        x = Polynomial.variable(sig, VarKind.VECTOR, 1, 1)
        doubler = Matrix.from_rows([[2, 0], [0, 2]])
        image = (u * x).substitute_linear({(VarKind.VECTOR, 1): doubler})
        assert image == Fraction(2) * u * x


def expand_by_forms(sig, assign, mono):
    # the image of a monomial as a product of Polynomial linear forms
    image = Polynomial.constant(sig, 1)
    for v, e in enumerate(mono):
        kind, copy, coord = sig.var_id(v)
        mat = assign.get((kind, copy))
        form = Polynomial.variable(sig, kind, copy, coord)
        if mat is not None:
            form = Polynomial.zero(sig)
            for b in range(sig.n):
                form = form + Polynomial.variable(sig, kind, copy, b + 1).scale(mat.at(coord - 1, b))
        image = image * form**e
    return image


def substitute_by_forms(sig, assign, f):
    # f's substitution as the sum of its terms' expand_by_forms images
    total = Polynomial.zero(sig)
    for m, c in f.terms.items():
        total = total + expand_by_forms(sig, assign, m).scale(c)
    return total


class TestLinearImages:
    """linear_images against an independent expansion, over group elements
    with dense rational entries, signed and scaled permutations, copies
    left unassigned, and monomials asked for in random order, twice."""

    HALF_SWAP = finite_group(
        [Matrix.from_rows([[0, 2], [Fraction(1, 2), 0]]), Matrix.from_rows([[-1, 0], [0, 1]])]
    )

    @pytest.mark.parametrize(
        "spec,sig,elements,max_deg",
        [
            (general_linear(2), SpaceSignature(n=2, k=1, m=2), [0, 1], 5),
            (orthogonal(2), SpaceSignature(n=2, k=0, m=2), [0, 3], 6),
            (symplectic(2), SpaceSignature(n=2, k=0, m=1), [0, 1, 2], 6),
            (symplectic(4), SpaceSignature(n=4, k=0, m=1), [5], 4),
            (general_linear(1), SpaceSignature(n=1, k=0, m=1), [0, 1], 6),
            (general_linear(1), SpaceSignature(n=1, k=1, m=0), [2], 6),
            (HALF_SWAP, SpaceSignature(n=2, k=1, m=1), None, 6),
        ],
        ids=["gl2", "o2", "sp2", "sp4", "gl1-x", "gl1-u", "half-swap"],
    )
    def test_matches_products_of_linear_forms(self, spec, sig, elements, max_deg):
        if elements is None:
            elems = group_elements(spec)
        else:
            elems = [sample_element(spec, seed) for seed in elements]
        rng = random.Random(f"{spec.family}{sig}")
        monos = [m for d in range(max_deg + 1) for m in monomial_basis(sig, d)]
        for i, e in enumerate(elems):
            assign = {(VarKind.COVECTOR, c): e.g.transpose() for c in range(1, sig.k + 1)}
            assign.update({(VarKind.VECTOR, c): e.g_inv for c in range(1, sig.m + 1)})
            if i % 2 and len(assign) > 1:
                assign.popitem()  # a copy without an assignment keeps the identity
            expected = {m: expand_by_forms(sig, assign, m) for m in monos}
            scale, image = linear_images(sig, assign)
            for _ in range(2):
                rng.shuffle(monos)
                for m in monos:
                    numerators = image(m)
                    assert all(type(c) is int and c for c in numerators.values())
                    assert Polynomial(sig, numerators) == expected[m].scale(scale ** sum(m))

    def test_substitution_is_the_sum_of_images(self):
        # non-homogeneous f whose coefficients have several denominators,
        # so terms of different degrees share one numerator per class
        rng = random.Random(23)
        sig = SpaceSignature(n=2, k=1, m=1)
        half = self.HALF_SWAP.generators[0]  # entries 2 and 1/2, its own inverse
        cases = [
            (sample_element(orthogonal(2), 4), 5),
            (small_integer_elements(orthogonal(2))[-1], 5),  # the 3-4-5 rotation
            (GroupElement(half, half), 2),
            (small_integer_elements(general_linear(2))[-1], 1),  # the shear
        ]
        for e, scale in cases:
            assign = {(VarKind.COVECTOR, 1): e.g.transpose(), (VarKind.VECTOR, 1): e.g_inv}
            assert linear_images(sig, assign)[0] == scale
            for _ in range(10):
                f = rational_poly(rng, sig, max_deg=5, terms=8)
                assert f.substitute_linear(assign) == substitute_by_forms(sig, assign, f)
        # x[1,1] and x[1,2] both go to x/2 + y/3, so (x - y) * g goes to 0;
        # the classes of g's denominators cancel only against each other
        x = xvar(sig, 1, 1)
        y = xvar(sig, 1, 2)
        assign = {(VarKind.VECTOR, 1): Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]] * 2)}
        classes = []
        for _ in range(5):
            f = (x - y) * rational_poly(rng, sig, max_deg=3, terms=6)
            classes.append(len({c.denominator for c in f.terms.values()}))
            assert f.substitute_linear(assign).terms == {}
        assert max(classes) > 1
        assert Polynomial.zero(sig).substitute_linear(assign).terms == {}

    def test_shape_is_checked(self):
        with pytest.raises(SignatureMismatch):
            linear_images(SIG2, {(VarKind.VECTOR, 1): Matrix.identity(3)})


@st.composite
def rational_substitutions(draw):
    # n <= 3, a dense-ish rational matrix on the vector copy and maybe on
    # a covector copy, and a non-homogeneous f of degree <= 3
    n = draw(st.integers(min_value=1, max_value=3))
    sig = SpaceSignature(n=n, k=draw(st.integers(min_value=0, max_value=1)), m=1)
    entry = st.one_of(
        st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 6)
    )
    entries = st.lists(entry, min_size=n * n, max_size=n * n)
    assign = {(VarKind.VECTOR, 1): Matrix(n, n, draw(entries))}
    if sig.k and draw(st.booleans()):
        assign[(VarKind.COVECTOR, 1)] = Matrix(n, n, draw(entries))
    monos = st.lists(st.integers(min_value=0, max_value=sig.num_vars - 1), max_size=3).map(
        lambda vs: tuple(vs.count(v) for v in range(sig.num_vars))
    )
    coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6)
    terms = draw(st.dictionaries(monos, coeffs, min_size=1, max_size=6))
    return sig, assign, Polynomial(sig, terms)


@given(rational_substitutions())
def test_substitution_matches_products_of_linear_forms(case):
    sig, assign, f = case
    assert f.substitute_linear(assign) == substitute_by_forms(sig, assign, f)


def test_repr_mentions_variables():
    x = xvar(SIG2, 1, 1)
    assert "x[1,1]" in repr(x)


def test_count_text_shows_a_huge_count_by_its_size():
    assert count_text(230230) == "230230"
    assert count_text(10**300) == str(10**300)
    assert count_text(2**1000) == "at least 10^301"  # 2^1000 is about 1.07e301
    assert count_text(10**8000) == "at least 10^7999"
