"""`parse_expression`, which works on integer numerators over one
denominator, against the rational parser it replaced
(`tests/reference_parse.py`).

Both parse the same random expression trees in gl, o and sp sessions:
rational literals with mixed denominators, zero factors, unary minus,
parentheses, powers from ^0 up, variables and the family's contraction
shorthands.  They must return the same polynomial, or refuse the text
with the same exception, message and byte offset: the dimension cap,
the bit cap of a product or a power, and the cap on a sum's
coefficients.  The caps are drawn small so that every refusal is
reached.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from classinv.expr import parse_expression
from classinv.poly import SpaceSignature
from reference_parse import parse as reference_parse

# (family, signature): the shorthand letter and the variables each allows
SESSIONS = [
    ("o", SpaceSignature(2, 0, 2)),
    ("o", SpaceSignature(1, 0, 1)),
    ("gl", SpaceSignature(2, 1, 2)),
    ("sp", SpaceSignature(2, 0, 2)),
    ("sp", SpaceSignature(4, 0, 1)),
]
LETTER = {"gl": "c", "o": "s", "sp": "w"}
NUMERATORS = [0, 1, 2, 3, 6, 7, 12, 1024, 3**20, 2**61 - 1]
DENOMINATORS = [1, 2, 3, 4, 6, 9, 10, 2**13 + 1, 3**11]
EXPONENTS = [0, 1, 2, 3, 7, 40, 300000]
CAPS = [6, 30, 90, 500, 200_000]


def outcome(parse, text, sig, family, cap):
    """The polynomial, or the refusal as (type, message, offset)."""
    try:
        return parse(text, sig, family, cap)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)


def assert_same(text, sig, family, cap):
    got = outcome(parse_expression, text, sig, family, cap)
    assert got == outcome(reference_parse, text, sig, family, cap), text
    return got


def leaves(family, sig):
    n, k, m = sig.n, sig.k, sig.m
    rational = st.builds(
        lambda neg, p, q: f"{'-' if neg else ''}{p}" + (f"/{q}" if q != 1 else ""),
        st.booleans(),
        st.sampled_from(NUMERATORS),
        st.sampled_from(DENOMINATORS),
    )
    vector = st.builds(lambda i, a: f"x[{i},{a}]", st.integers(1, m), st.integers(1, n))
    shorthand = st.builds(
        lambda i, j: f"{LETTER[family]}({i},{j})",
        st.integers(1, k if family == "gl" else m),
        st.integers(1, m),
    )
    options = [rational, vector, shorthand]
    if k:
        options.append(st.builds(lambda i, a: f"u[{i},{a}]", st.integers(1, k), st.integers(1, n)))
    return st.one_of(options)


def joined_sum(lead, terms):
    text = ("-" if lead else "") + terms[0][1]
    return text + "".join(f" {op} {t}" for op, t in terms[1:])


def trees(family, sig):
    """Expression text: every compound value is parenthesized, so each
    one can stand as a factor or a power's base."""

    def extend(inner):
        power = st.builds(lambda b, e: f"({b}^{e})", inner, st.sampled_from(EXPONENTS[:4]))
        product = st.lists(inner, min_size=2, max_size=3).map(lambda fs: "(" + "*".join(fs) + ")")
        total = st.builds(
            lambda lead, terms: f"({joined_sum(lead, terms)})",
            st.booleans(),
            st.lists(st.tuples(st.sampled_from("+-"), inner), min_size=1, max_size=3),
        )
        return st.one_of(power, product, total)

    leaf = leaves(family, sig)
    # large exponents only on leaves, where no expansion can run long
    big = st.builds(lambda b, e: f"({b}^{e})", leaf, st.sampled_from(EXPONENTS))
    factor = st.recursive(st.one_of(leaf, big), extend, max_leaves=6)
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    return st.builds(
        joined_sum, st.booleans(), st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=4)
    )


@st.composite
def cases(draw):
    family, sig = draw(st.sampled_from(SESSIONS))
    return draw(trees(family, sig)), sig, family, draw(st.sampled_from(CAPS))


@settings(max_examples=200, deadline=None)
@given(cases())
@example(("-1/2*x[1,1] + 1/3*(x[1,2] - 2/3*x[1,1])^2", SESSIONS[0][1], "o", 200_000))
@example(("0*s(1,2)^0 + (1/2*x[1,1])*(2*x[1,2])", SESSIONS[0][1], "o", 200_000))
def test_same_as_the_rational_parser(case):
    assert_same(*case)


# each refusal the caps can give, with the offset it is reported at
REFUSALS = [
    # dimension cap: degree 3 in 4 variables is 20 > 6
    ("x[1,1]*(x[1,2]*x[2,1])", 6, "DegreeCapExceeded"),
    ("(x[1,1] + x[1,2])^3", 6, "DegreeCapExceeded"),
    # a product's bits: 21 + 21 > 30
    ("x[1,1] + 1048576*(1048577/3*x[1,2])", 30, "would reach 42 bits"),
    # a power's bits: 2 bits times 20 (one variable: every dimension is 1)
    ("x[1,1]*(2*x[1,1])^20", 30, "would reach 40 bits"),
    ("3^300000", 200_000, "would reach 600000 bits"),
    ("(x[1,1] + 1)^300000", 200_000, "DegreeCapExceeded"),
    # a sum's bits: each term has 13 or 14 bits, the sum's denominator 27
    ("x[1,1]*(1/8193 + 1/8195)", 20, "reach 27 bits"),
    ("(1/8193 + 1/8195)*x[1,1] - x[1,2]", 20, "reach 27 bits"),
]


@pytest.mark.parametrize("text,cap,what", REFUSALS, ids=[t for t, _, _ in REFUSALS])
def test_each_refusal_as_the_rational_parser_gives_it(text, cap, what):
    sig = SESSIONS[1 if "^20" in text else 0][1]
    got = assert_same(text, sig, "o", cap)
    assert isinstance(got, tuple) and what in f"{got[0]} {got[1]}"


@pytest.mark.parametrize(
    "text,cap",
    [("1^300000", 200_000), ("(-1)^300000", 200_000), ("x[1,1] * 1^300000", 200_000), ("(-x[1,1])^7", 6)],
)
def test_a_unit_single_term_power_is_not_refused_by_either(text, cap):
    assert not isinstance(assert_same(text, SESSIONS[1][1], "o", cap), tuple)
