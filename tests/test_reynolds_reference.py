"""``action.reynolds``, one integer sum over every element, against the
sum it replaced (``tests/reference_reynolds.py``): the mean of
``act(g, f)`` over the group, one ``Fraction`` polynomial per element.

The groups have non-integer entries, so the elements' images have
different scales D (the identity's is 1) and each is brought to one
common denominator before the sum; the sessions have covector and
vector copies, moved by g^T and g^-1, so a wrong inverse shows; and
the coefficients of f have mixed denominators, one accumulator each.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from classinv.action import ActionContext, reynolds
from classinv.exact import Matrix
from classinv.groups import finite_group
from classinv.poly import Polynomial, SpaceSignature
from reference_reynolds import reynolds as reference_reynolds

SCALES = [Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(1, 3)]
DENOMINATORS = [1, 2, 3, 4, 5, 7, 12]


@st.composite
def rational_groups(draw):
    """Signed permutation groups of n <= 3 coordinates conjugated by
    diag(1, s, ...), s != 1.  The first generator moves coordinate 1, so
    the ratios along its cycle through it multiply to 1 without all
    being 1, and one of them is not an integer: that element has D != 1."""
    n = draw(st.integers(2, 3))
    diag = [Fraction(1)] + draw(st.lists(st.sampled_from(SCALES), min_size=n - 1, max_size=n - 1))
    gens = []
    for i in range(draw(st.integers(1, 2))):
        perm = draw(st.permutations(range(n)).filter(lambda p: i or p[0] != 0))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        gens.append(
            Matrix.from_rows(
                [
                    [signs[i] * diag[i] / diag[j] if perm[i] == j else Fraction(0) for j in range(n)]
                    for i in range(n)
                ]
            )
        )
    return finite_group(gens)


@st.composite
def sessions(draw):
    spec = draw(rational_groups())
    k = draw(st.integers(1, 2))
    sig = SpaceSignature(spec.n, k, draw(st.integers(1, 3 - k)))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        mono = [0] * sig.num_vars
        for _ in range(draw(st.integers(0, 3))):
            mono[draw(st.integers(0, sig.num_vars - 1))] += 1
        num = draw(st.integers(-9, 9))
        terms[tuple(mono)] = Fraction(num, draw(st.sampled_from(DENOMINATORS)))
    return ActionContext(spec, sig), Polynomial(sig, terms)


@given(sessions())
def test_same_average_as_the_sum_of_act(session):
    ctx, f = session
    assert any(x.denominator != 1 for g in ctx.spec.generators for x in g.entries)
    assert reynolds(ctx, f) == reference_reynolds(ctx, f)


def test_scales_differ_across_the_group():
    # the half-swap group: the identity has D = 1 and the swap D = 2
    half = Fraction(1, 2)
    spec = finite_group([Matrix.from_rows([[0, 2], [half, 0]]), Matrix.from_rows([[-1, 0], [0, 1]])])
    sig = SpaceSignature(2, 1, 1)
    ctx = ActionContext(spec, sig)
    f = Polynomial(sig, {(2, 0, 0, 0): Fraction(1, 3), (1, 0, 0, 1): Fraction(5, 2), (0, 0, 0, 0): 1})
    assert reynolds(ctx, f) == reference_reynolds(ctx, f)
    assert reynolds(ctx, reynolds(ctx, f)) == reynolds(ctx, f)
