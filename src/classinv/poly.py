"""Sparse multivariate polynomials over Q with copy-indexed variables.

The variable universe is fixed by a signature (n, k, m): coordinates live
in k covector copies and m vector copies of an n-dimensional space, for
N = n*(k+m) variables total.  The canonical variable order puts covector
copies before vector copies, copies in index order, coordinates within a
copy in index order; a monomial is a dense exponent tuple of length N in
that order.  Term maps carry no zero coefficients, so polynomial equality
is dict equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Mapping

from .exact import Matrix, ONE, _as_fraction, add_scaled

Monomial = tuple  # dense exponent tuple, length = signature.num_vars

DEFAULT_DIM_CAP = 200_000


class VarKind(Enum):
    COVECTOR = "u"
    VECTOR = "x"


class SignatureMismatch(ValueError):
    pass


def count_text(count: int) -> str:
    """A count as a refusal prints it: its digits, or a power of ten it
    reaches once it has over 300 digits, which Python's digit limit of
    integer conversion (640 digits at the least) may refuse to print."""
    bits = count.bit_length()
    return str(count) if bits <= 1000 else f"at least 10^{(bits - 1) * 30102 // 100000}"


class DegreeCapExceeded(ValueError):
    def __init__(self, dim: int, cap: int):
        self.dim = dim
        self.cap = cap
        super().__init__(f"graded piece has dimension {count_text(dim)}, above the cap {cap}")


@dataclass(frozen=True)
class SpaceSignature:
    """Dimensions of the variable universe: n = dim V, k covector copies, m vector copies."""

    n: int
    k: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.k < 0 or self.m < 0:
            raise ValueError("copy counts must be nonnegative")
        if self.k + self.m < 1:
            raise ValueError("need at least one copy")

    @property
    def num_vars(self) -> int:
        return self.n * (self.k + self.m)

    @property
    def num_copies(self) -> int:
        return self.k + self.m

    def var_index(self, kind: VarKind, copy: int, coord: int) -> int:
        """Global index of a variable; copy and coord are 1-based."""
        if kind is VarKind.COVECTOR:
            if not 1 <= copy <= self.k:
                raise ValueError(f"covector copy {copy} out of range 1..{self.k}")
            base = (copy - 1) * self.n
        else:
            if not 1 <= copy <= self.m:
                raise ValueError(f"vector copy {copy} out of range 1..{self.m}")
            base = (self.k + copy - 1) * self.n
        if not 1 <= coord <= self.n:
            raise ValueError(f"coordinate {coord} out of range 1..{self.n}")
        return base + coord - 1

    def var_id(self, index: int) -> tuple[VarKind, int, int]:
        """Inverse of var_index: (kind, copy, coord), 1-based."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        copy0, coord0 = divmod(index, self.n)
        if copy0 < self.k:
            return VarKind.COVECTOR, copy0 + 1, coord0 + 1
        return VarKind.VECTOR, copy0 - self.k + 1, coord0 + 1

    def var_name(self, index: int) -> str:
        kind, copy, coord = self.var_id(index)
        return f"{kind.value}[{copy},{coord}]"

    def copy_degrees(self, mono: Monomial) -> tuple:
        """Per-copy total degrees of a monomial, covector copies first."""
        n = self.n
        return tuple(
            sum(mono[c * n : (c + 1) * n]) for c in range(self.num_copies)
        )


def space_dimension(sig: SpaceSignature, d: int) -> int:
    """dim of the homogeneous degree-d piece: C(N+d-1, d)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return comb(sig.num_vars + d - 1, d)


def check_dim_cap(sig: SpaceSignature, d: int, cap: int = DEFAULT_DIM_CAP) -> None:
    dim = space_dimension(sig, d)
    if dim > cap:
        raise DegreeCapExceeded(dim, cap)


def weighted_exponents(weights: list[int], total: int):
    """Exponent tuples e with sum e_i * weights[i] = total, lexicographically
    descending; the last exponent is solved for, not searched."""
    if not weights:
        if total == 0:
            yield ()
    elif len(weights) == 1:
        if total % weights[0] == 0:
            yield (total // weights[0],)
    else:
        w = weights[0]
        for first in range(total // w, -1, -1):
            for rest in weighted_exponents(weights[1:], total - first * w):
                yield (first,) + rest


def _exponents_desc(nvars: int, total: int):
    """All exponent tuples of the given total degree, lexicographically descending."""
    return weighted_exponents((1,) * nvars, total)


def mul_terms(a: Mapping, b: Mapping) -> dict:
    """The product of two term dicts, zeros dropped: the one multiply loop
    of the package.  Integer coefficients give integer coefficients."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(map(add, m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def collect(parts: list) -> tuple[dict, int]:
    """The sum of acc / q over (q, acc) pairs, acc a term dict of ints,
    as (nonzero int numerators, L) over L, the lcm of the qs."""
    if len(parts) == 1:
        ((den, acc),) = parts
        return {m: c for m, c in acc.items() if c}, den
    den = lcm(*(q for q, _ in parts))
    out: dict = {}
    for q, acc in parts:
        s = den // q
        for m, c in acc.items():
            out[m] = out.get(m, 0) + s * c
    return {m: c for m, c in out.items() if c}, den


def grlex_key(mono: Monomial) -> tuple:
    """Sort key: graded first, lex inside a degree; use reverse=True for leading-first."""
    return (sum(mono), mono)


def linear_forms(sig: SpaceSignature, assign: Mapping[tuple[VarKind, int], Matrix]) -> list:
    """What ``Polynomial.substitute_linear`` writes for each variable.

    Entry v is variable v's linear form, a tuple of (variable, nonzero
    coefficient) pairs: row a of the matrix assigned to a copy rewrites
    that copy's coordinate a, and unassigned variables map to themselves.
    """
    n = sig.n
    forms = [((v, ONE),) for v in range(sig.num_vars)]
    for (kind, copy), mat in assign.items():
        if mat.rows != n or mat.cols != n:
            raise SignatureMismatch(
                f"matrix for copy ({kind.value},{copy}) is {mat.rows}x{mat.cols}, need {n}x{n}"
            )
        base = sig.var_index(kind, copy, 1)
        for a in range(n):
            forms[base + a] = tuple((base + b, c) for b, c in enumerate(mat.row(a)) if c)
    return forms


def integer_forms(forms: list) -> tuple[int, list]:
    """(D, the forms times D): D is the lcm of the denominators in the
    linear forms, so each coefficient becomes an integer numerator."""
    scale = lcm(*(c.denominator for form in forms for _, c in form))
    return scale, [
        tuple((u, c.numerator * (scale // c.denominator)) for u, c in form) for form in forms
    ]


def linear_images(sig: SpaceSignature, assign: Mapping[tuple[VarKind, int], Matrix]):
    """The substitution of ``Polynomial.substitute_linear`` on monomials,
    over the integers.

    Returns ``(scale, image)``.  ``scale`` is D, the lcm of the
    denominators in the variables' linear forms: 1 for integer matrices.
    ``image(mono)`` is D^deg(mono) times the expanded image of one
    monomial, a term dict of nonzero ``int`` numerators, so the true
    image is ``image(mono) / D**deg(mono)``.  Each variable's form is
    built once and scaled by D.  A monomial's image is the image of the
    monomial with one factor of its first variable removed, times that
    variable's form: ``image`` walks down to the nearest memoized monomial
    and multiplies back up, memoizing only the steps two or more degrees
    below the requested monomial (callers ask for each about once; images
    one degree below are rarely shared and the largest).  Returned dicts
    may be shared and must not be mutated.
    """
    scale, forms = integer_forms(linear_forms(sig, assign))
    zero = (0,) * sig.num_vars
    memo = {zero: {zero: 1}}

    def image(mono: Monomial) -> dict:
        chain = []
        v = 0
        while mono not in memo:
            while not mono[v]:
                v += 1
            chain.append((mono, v))
            mono = mono[:v] + (mono[v] - 1,) + mono[v + 1 :]
        img = memo[mono]
        for step in range(len(chain) - 1, -1, -1):
            mono, v = chain[step]
            nxt: dict = {}
            for u, fc in forms[v]:
                if not nxt:  # the first term of the form: nothing to collect yet
                    nxt = {m[:u] + (m[u] + 1,) + m[u + 1 :]: fc * c for m, c in img.items()}
                    continue
                for m, c in img.items():
                    m = m[:u] + (m[u] + 1,) + m[u + 1 :]
                    s = nxt.get(m, 0) + fc * c
                    if s:
                        nxt[m] = s
                    else:
                        del nxt[m]
            img = nxt
            if step > 1:
                memo[mono] = img
        return img

    return scale, image


class Polynomial:
    """Element of the polynomial ring over the signature's variables."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: SpaceSignature, terms: Mapping[Monomial, Fraction] | None = None):
        clean: dict = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not Fraction:
                    coeff = _as_fraction(coeff)
                if coeff:
                    clean[mono if type(mono) is tuple else tuple(mono)] = coeff
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, sig: SpaceSignature) -> "Polynomial":
        return cls(sig, {})

    @classmethod
    def constant(cls, sig: SpaceSignature, c) -> "Polynomial":
        c = _as_fraction(c)
        if not c:
            return cls.zero(sig)
        return cls(sig, {(0,) * sig.num_vars: c})

    @classmethod
    def variable(cls, sig: SpaceSignature, kind: VarKind, copy: int, coord: int) -> "Polynomial":
        idx = sig.var_index(kind, copy, coord)
        mono = tuple(1 if i == idx else 0 for i in range(sig.num_vars))
        return cls(sig, {mono: ONE})

    @classmethod
    def from_numerators(cls, sig: SpaceSignature, nums: Mapping, den: int) -> "Polynomial":
        """The polynomial with terms nums / den: one division per term."""
        return cls(sig, {m: Fraction(c, den) for m, c in nums.items()})

    # -- ring structure --------------------------------------------------

    def _need_same_sig(self, other: "Polynomial") -> None:
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    def _plus(self, c, other: "Polynomial") -> "Polynomial":
        self._need_same_sig(other)
        out = dict(self.terms)
        add_scaled(out, c, other.terms)
        return Polynomial(self.sig, out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(ONE, other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(-ONE, other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.sig, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._need_same_sig(other)
        return Polynomial(self.sig, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(self.sig, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        c = _as_fraction(c)
        if not c:
            return Polynomial.zero(self.sig)
        return Polynomial(self.sig, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- grading ---------------------------------------------------------

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def copy_degrees(self) -> tuple | None:
        """Shared per-copy multidegree, or None if mixed or zero."""
        seen = {self.sig.copy_degrees(m) for m in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None

    # -- substitution ----------------------------------------------------

    def substitute_linear(self, assign: Mapping[tuple[VarKind, int], Matrix]) -> "Polynomial":
        """Replace each copy's coordinates by the given linear combinations.

        The matrix M assigned to a copy rewrites that copy's coordinate a
        as sum_b M[a,b] * coordinate b; copies without an assignment keep
        the identity.  The result is f composed with the block-diagonal
        linear map: `substitute_mean` over this one assignment.
        """
        return self.substitute_mean([assign])

    def substitute_mean(self, assigns: list) -> "Polynomial":
        """The mean of ``substitute_linear`` over a nonempty list of
        assignments, summed exactly from ``linear_images`` on integers.

        The terms of f are grouped by the denominator q of their
        coefficient.  With top the class's largest degree, D an
        assignment's scale and L the lcm of every D^top, term p/q * m adds
        p * (L / D^deg m) * image(m) per assignment, all over
        q * L * len(assigns): one integer accumulator per class, which
        `collect` brings over one denominator, and one division per output
        term.  (One lcm over every coefficient of f would make its
        numerators as long as all its denominators together.)
        """
        images = [linear_images(self.sig, assign) for assign in assigns]
        classes: dict = {}
        for mono, coeff in self.terms.items():
            classes.setdefault(coeff.denominator, []).append((mono, coeff.numerator, sum(mono)))
        parts = []
        for q, terms in classes.items():
            top = max(deg for _, _, deg in terms)
            common = lcm(*(scale**top for scale, _ in images))
            acc: dict = {}
            for scale, image in images:
                for mono, p, deg in terms:
                    p *= common // scale**deg
                    for m, c in image(mono).items():
                        acc[m] = acc.get(m, 0) + p * c
            parts.append((q * common * len(images), acc))
        return Polynomial.from_numerators(self.sig, *collect(parts))

    # -- presentation ----------------------------------------------------

    def terms_sorted(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for mono, coeff in self.terms_sorted():
            vars_part = "*".join(
                f"{self.sig.var_name(i)}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            )
            if vars_part:
                parts.append(f"{coeff}*{vars_part}" if coeff != 1 else vars_part)
            else:
                parts.append(str(coeff))
        return "Polynomial(" + " + ".join(parts) + ")"
