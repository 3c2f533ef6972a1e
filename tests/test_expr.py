import random
from fractions import Fraction
from pathlib import Path

import pytest

from classinv.action import ActionContext, reynolds
from classinv.certify import GeneratorId, contraction, decompose_in_generators
from classinv.expr import (
    ExprSyntaxError,
    coefficient_text,
    format_generator_combination,
    format_polynomial,
    parse_expression,
)
from classinv.cli import read_matrix_file
from classinv.groups import finite_group, orthogonal
from classinv.poly import Polynomial, SpaceSignature, VarKind

from test_poly import rand_poly

OSIG = SpaceSignature(n=2, k=0, m=2)
GLSIG = SpaceSignature(n=2, k=1, m=1)
GROUPS = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def vvar(sig, copy, coord):
    return Polynomial.variable(sig, VarKind.VECTOR, copy, coord)


class TestParse:
    def test_mixed_expression(self):
        f = parse_expression("s(1,2) + 3/4 * x[1,1]^2", OSIG, "o")
        s12 = contraction(GeneratorId("o", 1, 2), OSIG)
        x11 = vvar(OSIG, 1, 1)
        assert f == s12 + Fraction(3, 4) * x11 * x11

    def test_whitespace_ignored(self):
        a = parse_expression("x[1,1]+x[1,2]", OSIG, "o")
        b = parse_expression("  x[1,1]   +\tx[1,2] ", OSIG, "o")
        assert a == b

    def test_precedence(self):
        f = parse_expression("1 + 2 * 3^2", OSIG, "o")
        assert f == Polynomial.constant(OSIG, Fraction(19))

    def test_parentheses(self):
        f = parse_expression("(x[1,1] + x[1,2])^2", OSIG, "o")
        x, y = vvar(OSIG, 1, 1), vvar(OSIG, 1, 2)
        assert f == (x + y) ** 2

    def test_leading_minus(self):
        f = parse_expression("-x[1,1]", OSIG, "o")
        assert f == -vvar(OSIG, 1, 1)

    def test_rational_literal(self):
        f = parse_expression("-7/3", OSIG, "o")
        assert f == Polynomial.constant(OSIG, Fraction(-7, 3))

    def test_covector_variable(self):
        f = parse_expression("u[1,2] * x[1,1]", GLSIG, "gl")
        u = Polynomial.variable(GLSIG, VarKind.COVECTOR, 1, 2)
        assert f == u * vvar(GLSIG, 1, 1)

    def test_symplectic_diagonal_parses_to_zero(self):
        sig = SpaceSignature(n=2, k=0, m=2)
        f = parse_expression("w(1,1)", sig, "sp")
        assert f == Polynomial.zero(sig)


class TestParseErrors:
    def test_zero_copy_index(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("x[0,1]", OSIG, "o")
        assert "1-based" in str(exc.value)
        assert exc.value.offset == 0

    def test_out_of_range_copy(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("x[3,1]", OSIG, "o")

    def test_out_of_range_coordinate(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("x[1,5]", OSIG, "o")

    def test_covector_in_vector_only_session(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("u[1,1]", OSIG, "o")

    def test_negative_exponent(self):
        with pytest.raises(ExprSyntaxError, match="exponent"):
            parse_expression("x[1,1]^-2", OSIG, "o")

    def test_zero_denominator(self):
        with pytest.raises(ExprSyntaxError, match="denominator"):
            parse_expression("1/0", OSIG, "o")

    def test_wrong_family_shorthand(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("w(1,2)", OSIG, "o")
        assert "symplectic" in str(exc.value)
        assert "'o' session" in str(exc.value)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("x[1,1] x[1,2]", OSIG, "o")
        assert exc.value.offset == 7

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("(x[1,1] + 1", OSIG, "o")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("", OSIG, "o")

    def test_offset_is_byte_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("x[1,1] + ?", OSIG, "o")
        assert exc.value.offset == 9
        assert "(at byte 9)" in str(exc.value)

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("y[1,1]", OSIG, "o")

    # str.isdigit takes these, but int reads only some of them
    @pytest.mark.parametrize(
        "text,offset",
        [("²", 0), ("3²", 1), ("x[1,1]^²", 7), ("x[١,1]", 2), ("３*x[1,1]", 0)],
        ids=["superscript", "digit-superscript", "exponent", "arabic-indic", "fullwidth"],
    )
    def test_only_ascii_digits(self, text, offset):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression(text, OSIG, "o")
        assert exc.value.offset == offset
        assert "unexpected character" in str(exc.value)


def _primes(lo, count):
    sieve = bytearray([1]) * (lo * 2)
    out = []
    for p in range(2, len(sieve)):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
            if p >= lo:
                out.append(p)
    return out[:count]


class TestPrintableCoefficients:
    """Every sum the parser returns has coefficients that print within
    Python's digit limit of integer conversion (4300 digits by default),
    and within --dim-cap bits where that is less."""

    def test_limit_in_bits(self):
        assert parse_expression("2^14279*x[1,1]", OSIG, "o").terms[(1, 0, 0, 0)] == 2**14279
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("x[1,2] + 2^14280*x[1,1]", OSIG, "o")
        assert exc.value.offset == 0
        assert "14281 bits, above 14280 bits" in str(exc.value)
        assert "4300-digit limit of integer conversion" in str(exc.value)

    def test_a_sum_whose_terms_print(self):
        # 1100 primes of 15 bits: each term prints, their sum's
        # denominator has about 16000 bits
        body = " + ".join(f"1/{p}" for p in _primes(2**14, 1100))
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression(f"x[1,1]*({body})", OSIG, "o")
        assert exc.value.offset == 8
        assert "4300-digit limit" in str(exc.value)

    def test_terms_that_cancel(self):
        f = parse_expression("2^20000*x[1,1] + x[1,2] - 2^20000*x[1,1]", OSIG, "o")
        assert f == vvar(OSIG, 1, 2)

    def test_a_lower_dim_cap_bounds_sums(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("(1/1099511627776 + 1/1099511627775)*x[1,1]", OSIG, "o", dim_cap=50)
        assert exc.value.offset == 1
        assert "above the cap 50" in str(exc.value)

    @pytest.mark.parametrize(
        "text,want",
        [("1^300000", 1), ("(-1)^300000", 1), ("(-1)^300001", -1), ("x[1,1] * 1^300000", None)],
    )
    def test_a_unit_power_of_one_term_keeps_a_unit_coefficient(self, text, want):
        # its coefficient stays +-1, so no bit count can grow
        f = parse_expression(text, OSIG, "o")
        if want is None:
            assert f == vvar(OSIG, 1, 1)
        else:
            assert f == Polynomial.constant(OSIG, want)

    @pytest.mark.parametrize(
        "text,offset,bits", [("2^300000", 2, 600000), ("(1 + x[1,1])^300000", 13, 300000)]
    )
    def test_other_powers_keep_the_bit_cap(self, text, offset, bits):
        sig = SpaceSignature(n=1, k=0, m=1)  # one variable: the dimension cap never refuses
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression(text, sig, "o")
        assert exc.value.offset == offset
        assert f"would reach {bits} bits, above the cap 200000" in str(exc.value)

    def test_output_beyond_the_limit_is_refused_in_our_words(self):
        assert coefficient_text(Fraction(-2**14279, 3)) == str(Fraction(-2**14279, 3))
        with pytest.raises(ValueError) as exc:
            coefficient_text(Fraction(1, 10**4300))
        assert "14285 bits" in str(exc.value) and "4300-digit limit" in str(exc.value)
        assert "Exceeds the limit" not in str(exc.value)


class TestFormat:
    def test_zero(self):
        assert format_polynomial(Polynomial.zero(OSIG)) == "0"

    def test_leading_term_first(self):
        x, y = vvar(OSIG, 1, 1), vvar(OSIG, 1, 2)
        f = y + x * x
        assert format_polynomial(f) == "x[1,1]^2 + x[1,2]"

    def test_negative_coefficients(self):
        x = vvar(OSIG, 1, 1)
        assert format_polynomial(-x) == "-x[1,1]"
        assert format_polynomial(x.scale(Fraction(-3, 4))) == "-3/4*x[1,1]"

    def test_unit_coefficient_suppressed(self):
        x, y = vvar(OSIG, 1, 1), vvar(OSIG, 1, 2)
        assert format_polynomial(x * y - y) == "x[1,1]*x[1,2] - x[1,2]"

    def test_constant_term(self):
        f = vvar(OSIG, 1, 1) + Polynomial.constant(OSIG, Fraction(5))
        assert format_polynomial(f) == "x[1,1] + 5"

    def test_combination_uses_symbols(self):
        sig = SpaceSignature(n=2, k=0, m=1)
        s11 = contraction(GeneratorId("o", 1, 1), sig)
        combo = decompose_in_generators(orthogonal(2), sig, s11 * s11)
        assert format_generator_combination(combo) == "s(1,1)^2"


class TestRoundTrip:
    def test_handwritten_corpus(self):
        corpus = [
            "x[1,1]",
            "-x[1,1]",
            "x[1,1] + x[1,2]",
            "x[1,1]^2 - x[2,2]^2",
            "3/4*x[1,1]",
            "s(1,1) + s(2,2)",
            "s(1,2)^3",
            "x[1,1]*x[1,2]*x[2,1]",
            "7",
            "-7/3",
        ]
        for text in corpus:
            f = parse_expression(text, OSIG, "o")
            again = parse_expression(format_polynomial(f), OSIG, "o")
            assert again == f, text

    def test_random_polynomials_roundtrip(self):
        rng = random.Random(2718)
        for _ in range(30):
            f = rand_poly(rng, OSIG, max_deg=4, terms=5)
            text = format_polynomial(f)
            assert parse_expression(text, OSIG, "o") == f

    def test_format_is_stable(self):
        rng = random.Random(31)
        for _ in range(10):
            f = rand_poly(rng, OSIG)
            text = format_polynomial(f)
            assert format_polynomial(parse_expression(text, OSIG, "o")) == text


class TestSumsCollectInOneTermMap:
    """A sum is collected in one term map: with Polynomial.__add__ and
    __sub__ refusing to run, the parser, reynolds and expand still give
    their results."""

    @pytest.fixture
    def no_fold(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a sum folded through Polynomial + or -")

        monkeypatch.setattr(Polynomial, "__add__", refuse)
        monkeypatch.setattr(Polynomial, "__sub__", refuse)

    def test_parse(self, no_fold):
        f = parse_expression("x[1,1]^2 - 3/4*x[1,2] + 2*x[1,1]^2 - (x[1,2] - x[2,1]) + 1", OSIG, "o")
        assert f == Polynomial(
            OSIG,
            {
                (2, 0, 0, 0): Fraction(3),
                (0, 1, 0, 0): Fraction(-7, 4),
                (0, 0, 1, 0): Fraction(1),
                (0, 0, 0, 0): Fraction(1),
            },
        )

    def test_reynolds_b3(self, no_fold):
        spec = finite_group(read_matrix_file(str(GROUPS / "b3.txt")))
        sig = SpaceSignature(3, 0, 1)
        f = parse_expression("x[1,1]^4 + x[1,2]*x[1,3]", sig, "finite")
        # the signs kill x2*x3 and the permutations share x1^4 out evenly
        third = Fraction(1, 3)
        want = {(4, 0, 0): third, (0, 4, 0): third, (0, 0, 4): third}
        assert reynolds(ActionContext(spec, sig), f) == Polynomial(sig, want)

    def test_expand(self, no_fold):
        sig = SpaceSignature(2, 0, 3)
        f = parse_expression("s(1,1)*s(2,2)*s(3,3) - s(1,2)^2*s(3,3) + 5/2*s(1,3)^3", sig, "o")
        comb = decompose_in_generators(orthogonal(2), sig, f)
        assert comb.expand() == f


from hypothesis import given, strategies as st


@given(st.text(alphabet="xusw[],()+-*^/0123456789 ", max_size=30))
def test_parser_total_over_junk(text):
    # arbitrary input must either parse or fail with the typed error,
    # never crash some other way
    try:
        parse_expression(text, OSIG, "o")
    except ExprSyntaxError:
        pass
