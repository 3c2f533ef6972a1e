"""Textual expressions for polynomials and contraction shorthands.

Grammar (whitespace insensitive):

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | variable | shorthand | '(' expr ')'
    rational := ['-'] uint ('/' uint)?
    variable := ('x'|'u') '[' uint ',' uint ']'
    shorthand:= ('c'|'s'|'w') '(' uint ',' uint ')'

x[i,a] is coordinate a of vector copy i, u[i,a] the covector analogue;
both are 1-based.  c(i,j), s(i,j), w(i,j) expand to the dual-pairing,
symmetric-form, and alternating-form contractions and must match the
session's group family.  Formatting emits graded-lex term order and
round-trips: parsing a formatted polynomial recovers it exactly.
Before a product or a power is expanded, the dimension of the degree
piece it would reach, and the bit length its coefficients would reach
(except for a power of one term with coefficient +-1, which keeps it),
are checked against the dimension cap.  Every sum, the whole expression
and each parenthesised one, must also have coefficients that print: no
more bits than the dimension cap and than Python's digit limit of
integer conversion allows.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .certify import SHORTHAND, GeneratorCombination, GeneratorId, _integer_terms
from .poly import DEFAULT_DIM_CAP, Polynomial, SpaceSignature, VarKind, check_dim_cap, collect, mul_terms

_SHORTHAND_FAMILY = {letter: family for family, letter in SHORTHAND.items()}
_FAMILY_NAME = {"gl": "general linear", "o": "orthogonal", "sp": "symplectic"}


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


_SYMBOLS = set("+-*^/()[],")


def literal_digit_limit() -> int:
    """Python's limit on the digits of an integer read from a string,
    0 when there is none (before Python 3.10.7)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    limit = literal_digit_limit()
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            # only ASCII digits: str.isdigit also takes '²', which int refuses
            start = i
            while i < size and "0" <= text[i] <= "9":
                i += 1
            if limit and i - start > limit:
                raise ExprSyntaxError(
                    f"a literal of {i - start} digits is longer than the "
                    f"{limit}-digit limit of integer conversion",
                    start,
                )
            tokens.append(("int", int(text[start:i]), start))
            continue
        if ch.isalpha():
            start = i
            while i < size and text[i].isalpha():
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, size))
    return tokens


class _Parser:
    """Each value is (terms, den): a dict of nonzero int numerators over
    one positive denominator, reduced after every product and sum."""

    def __init__(self, text: str, sig: SpaceSignature, family: str, dim_cap: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.family = family
        self.dim_cap = dim_cap
        self.one = (0,) * sig.num_vars  # the monomial 1
        # a degree-0 power such as 2^99999999999 passes the dimension
        # cap, so coefficient growth is bounded by the same cap, in bits
        self.growth = f"would reach {{}} bits, above the cap {dim_cap}"
        limit = literal_digit_limit()
        printable = limit * 3321 // 1000  # log2(10) > 3.321 bits per digit
        if limit and printable < dim_cap:
            self.sum_cap = printable
            self.sum_cap_name = (
                f"{printable} bits, the most that print within the {limit}-digit limit of integer conversion"
            )
        else:
            self.sum_cap, self.sum_cap_name = dim_cap, f"the cap {dim_cap}"

    def _peek(self) -> tuple:
        return self.tokens[self.pos]

    def _take(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> tuple:
        tok = self._take()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return Polynomial.from_numerators(self.sig, *value)

    def expr(self) -> tuple:
        # one integer accumulator per denominator (poly.collect)
        accs: dict = {}
        start = self._peek()[2]
        sign = -1 if self._peek()[0] == "-" else 1
        if sign < 0:
            self._take()
        while True:
            terms, den = self.term()
            acc = accs.setdefault(den, {})
            for m, c in terms.items():
                acc[m] = acc.get(m, 0) + sign * c
            if self._peek()[0] not in ("+", "-"):
                break
            sign = 1 if self._take()[0] == "+" else -1
        value = _reduced(*collect(list(accs.items())))
        if value[0]:
            # a sum's denominators multiply, so it may pass the cap its terms kept
            self._check_bits((value,), 1, self.sum_cap, f"reach {{}} bits, above {self.sum_cap_name}", start)
        return value

    def term(self) -> tuple:
        acc = self.base_factor()
        while self._peek()[0] == "*":
            self._take()
            tok = self._peek()
            factor = self.base_factor()
            if acc[0] and factor[0]:
                check_dim_cap(self.sig, _degree(acc) + _degree(factor), self.dim_cap)
                self._check_bits((acc, factor), 1, self.dim_cap, self.growth, tok[2])
            acc = _reduced(mul_terms(acc[0], factor[0]), acc[1] * factor[1])
        return acc

    def base_factor(self) -> tuple:
        b = self.base()
        if self._peek()[0] != "^":
            return b
        self._take()
        tok = self._peek()
        if tok[0] == "-":
            raise ExprSyntaxError("negative exponent", tok[2])
        exp = self._expect("int", "a nonnegative integer exponent")
        (terms, den), e = b, exp[1]
        if terms:
            check_dim_cap(self.sig, _degree(b) * e, self.dim_cap)
            # a single term of coefficient +-1 keeps coefficient +-1
            if len(terms) > 1 or abs(next(iter(terms.values()))) != den:
                self._check_bits((b,), e, self.dim_cap, self.growth, exp[2])
        out = {self.one: 1}
        while e:  # by squaring
            if e & 1:
                out = mul_terms(out, terms)
            e >>= 1
            if e:
                terms = mul_terms(terms, terms)
        return out, den ** exp[1]

    def _check_bits(self, values: tuple, times: int, cap: int, text: str, off: int) -> None:
        # the exact count is taken only where a bound on it passes the cap
        if sum(map(_bits_bound, values)) * times > cap:
            bits = sum(map(_coefficient_bits, values)) * times
            if bits > cap:
                raise ExprSyntaxError("coefficients " + text.format(bits), off)

    def base(self) -> tuple:
        tok = self._take()
        kind, value, off = tok
        if kind == "-":
            num = self._expect("int", "an integer after '-'")
            return self._rational(-num[1], num[2])
        if kind == "int":
            return self._rational(value, off)
        if kind == "name":
            return self._named(value, off)
        if kind == "(":
            inner = self.expr()
            self._expect(")", "')'")
            return inner
        raise ExprSyntaxError("expected a value", off)

    def _rational(self, numerator: int, off: int) -> tuple:
        c = Fraction(numerator)
        if self._peek()[0] == "/":
            self._take()
            den = self._expect("int", "a positive denominator")
            if den[1] == 0:
                raise ExprSyntaxError("zero denominator", den[2])
            c = Fraction(numerator, den[1])
        return ({self.one: c.numerator} if c else {}), c.denominator

    def _named(self, name: str, off: int) -> tuple:
        if name in ("x", "u"):
            self._expect("[", "'['")
            copy = self._expect("int", "a copy index")[1]
            self._expect(",", "','")
            coord = self._expect("int", "a coordinate index")[1]
            self._expect("]", "']'")
            kind = VarKind.VECTOR if name == "x" else VarKind.COVECTOR
            try:
                return dict.fromkeys(Polynomial.variable(self.sig, kind, copy, coord).terms, 1), 1
            except ValueError as e:
                raise ExprSyntaxError(f"{e}; indices are 1-based", off) from None
        if name in _SHORTHAND_FAMILY:
            self._expect("(", "'('")
            i = self._expect("int", "a copy index")[1]
            self._expect(",", "','")
            j = self._expect("int", "a copy index")[1]
            self._expect(")", "')'")
            wanted = _SHORTHAND_FAMILY[name]
            if self.family != wanted:
                raise ExprSyntaxError(
                    f"shorthand {name}(i,j) belongs to the "
                    f"{_FAMILY_NAME[wanted]} family, not to a "
                    f"{self.family!r} session",
                    off,
                )
            try:
                return _integer_terms([GeneratorId(wanted, i, j)], self.sig)[0], 1
            except ValueError as e:
                raise ExprSyntaxError(f"{e}; indices are 1-based", off) from None
        raise ExprSyntaxError(f"unknown name {name!r}", off)


def _degree(value: tuple) -> int:
    return max(map(sum, value[0]))


def _reduced(terms: dict, den: int) -> tuple:
    # the content shared with the denominator divided out; 0 is ({}, 1)
    g = gcd(den, *terms.values()) if den > 1 else 1
    return ({m: c // g for m, c in terms.items()}, den // g) if g > 1 else (terms, den)


def _fraction_bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _bits_bound(value: tuple) -> int:
    # a reduced coefficient c / den has no more bits than c or den
    terms, den = value
    return max(max(terms.values()).bit_length(), min(terms.values()).bit_length(), den.bit_length())


def _coefficient_bits(value: tuple) -> int:
    terms, den = value
    return max(_fraction_bits(Fraction(c, den)) for c in terms.values())


def parse_expression(
    text: str, sig: SpaceSignature, family: str, dim_cap: int = DEFAULT_DIM_CAP
) -> Polynomial:
    """Parse an expression over the session signature; shorthands must
    match the session's group family.  Syntax errors carry a byte offset;
    a product or power whose degree piece exceeds `dim_cap` raises
    DegreeCapExceeded, and one whose coefficients would pass `dim_cap`
    bits raises ExprSyntaxError, before it is expanded."""
    return _Parser(text, sig, family, dim_cap).parse()


def polynomial_terms(f: Polynomial) -> list:
    """f's terms in graded-lex order, leading first, each as
    ([(variable name, exponent), ...], coefficient)."""
    return [
        ([(f.sig.var_name(v), e) for v, e in enumerate(mono) if e], coeff)
        for mono, coeff in f.terms_sorted()
    ]


def combination_terms(comb: GeneratorCombination) -> list:
    """The same term list over contraction symbols, in the combination's order."""
    return [
        ([(comb.generators[i].symbol(), e) for i, e in enumerate(exps) if e], coeff)
        for exps, coeff in comb.terms
    ]


def coefficient_text(c: Fraction) -> str:
    """str(c), or a ValueError of our own, naming the limit, where
    Python's digit limit of integer conversion refuses to print it."""
    try:
        return str(c)
    except ValueError:
        raise ValueError(
            f"a coefficient of {_fraction_bits(c)} bits has more digits than the "
            f"{literal_digit_limit()}-digit limit of integer conversion allows; it is not printed"
        ) from None


def _format_terms(items) -> str:
    if not items:
        return "0"
    parts = []
    for idx, (powers, coeff) in enumerate(items):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        bits = [name if e == 1 else f"{name}^{e}" for name, e in powers]
        body = "*".join(bits)
        if not body:
            body = coefficient_text(mag)
        elif mag != 1:
            body = f"{coefficient_text(mag)}*{body}"
        if idx == 0:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Graded-lex term order, '^' powers, explicit '*'; reparses exactly."""
    return _format_terms(polynomial_terms(f))


def format_generator_combination(comb: GeneratorCombination) -> str:
    """The same surface syntax, over contraction symbols instead of
    coordinates; reparses under the owning session."""
    return _format_terms(combination_terms(comb))
