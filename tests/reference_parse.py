"""The rational parser `classinv.expr.parse_expression` replaced, kept
as a reference: every value is a `Polynomial` over `Fraction`s, a
product is `Polynomial.__mul__`, a power `Polynomial.__pow__`, and a sum
is collected through `add_scaled`.  It is the parser as it was, except
that a power of a single term whose coefficient is +-1 is not refused
for coefficient growth (its coefficient stays +-1), as in the parser
it is compared with.

    parse(text, sig, family, dim_cap) -> Polynomial
"""

from fractions import Fraction

from classinv.certify import GeneratorId, contraction
from classinv.exact import ONE, add_scaled
from classinv.expr import (
    _FAMILY_NAME,
    _SHORTHAND_FAMILY,
    ExprSyntaxError,
    _tokenize,
    literal_digit_limit,
)
from classinv.poly import DEFAULT_DIM_CAP, Polynomial, SpaceSignature, VarKind, check_dim_cap


class _Parser:
    def __init__(self, text: str, sig: SpaceSignature, family: str, dim_cap: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.family = family
        self.dim_cap = dim_cap
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
        poly = self.expr()
        tok = self._peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input", tok[2])
        return poly

    def expr(self) -> Polynomial:
        # every term is added into one term map, so a long sum is linear
        total: dict = {}
        start = self._peek()[2]
        op = self._take()[0] if self._peek()[0] == "-" else "+"
        while True:
            add_scaled(total, ONE if op == "+" else -ONE, self.term().terms)
            if self._peek()[0] not in ("+", "-"):
                result = Polynomial(self.sig, total)
                # a sum's denominators multiply, so it may pass the cap its terms kept
                bits = _coefficient_bits(result) if result else 0
                if bits > self.sum_cap:
                    raise ExprSyntaxError(
                        f"coefficients reach {bits} bits, above {self.sum_cap_name}", start
                    )
                return result
            op = self._take()[0]

    def term(self) -> Polynomial:
        acc = self.base_factor()
        while self._peek()[0] == "*":
            self._take()
            tok = self._peek()
            factor = self.base_factor()
            if acc and factor:
                check_dim_cap(self.sig, acc.degree() + factor.degree(), self.dim_cap)
                self._check_bits(_coefficient_bits(acc) + _coefficient_bits(factor), tok[2])
            acc = acc * factor
        return acc

    def base_factor(self) -> Polynomial:
        b = self.base()
        if self._peek()[0] == "^":
            self._take()
            tok = self._peek()
            if tok[0] == "-":
                raise ExprSyntaxError("negative exponent", tok[2])
            exp = self._expect("int", "a nonnegative integer exponent")
            if b:
                check_dim_cap(self.sig, b.degree() * exp[1], self.dim_cap)
                # the one change: a single term of coefficient +-1 keeps it
                if len(b.terms) > 1 or abs(next(iter(b.terms.values()))) != 1:
                    self._check_bits(_coefficient_bits(b) * exp[1], exp[2])
            return b ** exp[1]
        return b

    def _check_bits(self, bits: int, off: int) -> None:
        # a degree-0 power such as 2^99999999999 passes the dimension
        # cap, so coefficient growth is bounded by the same cap, in bits
        if bits > self.dim_cap:
            raise ExprSyntaxError(
                f"coefficients would reach {bits} bits, above the cap {self.dim_cap}", off
            )

    def base(self) -> Polynomial:
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

    def _rational(self, numerator: int, off: int) -> Polynomial:
        if self._peek()[0] == "/":
            self._take()
            den = self._expect("int", "a positive denominator")
            if den[1] == 0:
                raise ExprSyntaxError("zero denominator", den[2])
            return Polynomial.constant(self.sig, Fraction(numerator, den[1]))
        return Polynomial.constant(self.sig, Fraction(numerator))

    def _named(self, name: str, off: int) -> Polynomial:
        if name in ("x", "u"):
            self._expect("[", "'['")
            copy = self._expect("int", "a copy index")[1]
            self._expect(",", "','")
            coord = self._expect("int", "a coordinate index")[1]
            self._expect("]", "']'")
            kind = VarKind.VECTOR if name == "x" else VarKind.COVECTOR
            try:
                return Polynomial.variable(self.sig, kind, copy, coord)
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
                return contraction(GeneratorId(wanted, i, j), self.sig)
            except ValueError as e:
                raise ExprSyntaxError(f"{e}; indices are 1-based", off) from None
        raise ExprSyntaxError(f"unknown name {name!r}", off)


def _fraction_bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _coefficient_bits(p: Polynomial) -> int:
    return max(map(_fraction_bits, p.terms.values()))


def parse(text: str, sig: SpaceSignature, family: str, dim_cap: int = DEFAULT_DIM_CAP) -> Polynomial:
    return _Parser(text, sig, family, dim_cap).parse()
