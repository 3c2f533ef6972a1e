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
piece it would reach, and the bit length its coefficients would reach,
are checked against the dimension cap.
"""

from __future__ import annotations

from fractions import Fraction

from .certify import GeneratorCombination, GeneratorId, contraction
from .poly import DEFAULT_DIM_CAP, Polynomial, SpaceSignature, VarKind, check_dim_cap

_SHORTHAND_FAMILY = {"c": "gl", "s": "o", "w": "sp"}
_FAMILY_NAME = {"gl": "general linear", "o": "orthogonal", "sp": "symplectic"}


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


_SYMBOLS = set("+-*^/()[],")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < size and text[i].isdigit():
                i += 1
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
    def __init__(self, text: str, sig: SpaceSignature, family: str, dim_cap: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.family = family
        self.dim_cap = dim_cap

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
        negate = False
        if self._peek()[0] == "-":
            self._take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self._peek()[0] in ("+", "-"):
            op = self._take()[0]
            nxt = self.term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

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


def _coefficient_bits(p: Polynomial) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.terms.values())


def parse_expression(
    text: str, sig: SpaceSignature, family: str, dim_cap: int = DEFAULT_DIM_CAP
) -> Polynomial:
    """Parse an expression over the session signature; shorthands must
    match the session's group family.  Syntax errors carry a byte offset;
    a product or power whose degree piece exceeds `dim_cap` raises
    DegreeCapExceeded, and one whose coefficients would pass `dim_cap`
    bits raises ExprSyntaxError, before it is expanded."""
    return _Parser(text, sig, family, dim_cap).parse()


def _format_terms(items) -> str:
    # items: (variable-power list as [(name, exp), ...], coefficient)
    parts = []
    for idx, (powers, coeff) in enumerate(items):
        negative = coeff < 0
        mag = -coeff if negative else coeff
        bits = [name if e == 1 else f"{name}^{e}" for name, e in powers]
        body = "*".join(bits)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if idx == 0:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Graded-lex term order, '^' powers, explicit '*'; reparses exactly."""
    items = f.terms_sorted()
    if not items:
        return "0"
    rendered = []
    for mono, coeff in items:
        powers = [
            (f.sig.var_name(v), e) for v, e in enumerate(mono) if e
        ]
        rendered.append((powers, coeff))
    return _format_terms(rendered)


def format_generator_combination(comb: GeneratorCombination) -> str:
    """The same surface syntax, over contraction symbols instead of
    coordinates; reparses under the owning session."""
    if not comb.terms:
        return "0"
    rendered = []
    for exps, coeff in comb.terms:
        powers = [
            (comb.generators[i].symbol(), e) for i, e in enumerate(exps) if e
        ]
        rendered.append((powers, coeff))
    return _format_terms(rendered)
