"""Exact rational scalars, dense rational matrices, sparse echelon forms.

The base field is Q.  Everything downstream relies on these operations
being exact; there is no floating point anywhere.  Every exact
elimination in the package runs through one sparse engine, ``Echelon``;
``rref``, ``nullspace_basis``, ``Matrix.inverse`` and ``Matrix.rank``
are thin dense views of it.  ``Echelon`` is fraction-free: its rows are
primitive integer rows, and a ``fractions.Fraction`` (always reduced,
positive denominator) appears only in what it hands back, the reduced
rows.  ``numerators`` turns rational values into integer ones.  A
``Matrix`` holds ``Fraction`` entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    pass


class SingularMatrixError(ValueError):
    """Raised when inverting a singular matrix; carries the rank found."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"singular matrix: rank {rank} < {size}")


class ConsistencyError(RuntimeError):
    """An exact identity a result rests on failed: a defect in classinv,
    never bad input.  Raised explicitly, so the checks survive python -O."""


def ensure(ok: bool, message: str) -> None:
    if not ok:
        raise ConsistencyError(message)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable dense matrix over Q, row-major entries.  Its hash is
    computed on first use and kept: most matrices, such as the elements
    of a closure and their inverses, are never hashed."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[Fraction]):
        entries = tuple(_as_fraction(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls(nrows, ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"add {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        return Matrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"sub {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        return Matrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"multiply {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            # the row's nonzero entries, each with the start of its row of b
            nonzero = [(v, t * m) for t, v in enumerate(a[i * k : (i + 1) * k]) if v]
            for j in range(m):
                out.append(sum([v * b[at + j] for v, at in nonzero], ZERO))
        return Matrix(n, m, out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self.at(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def inverse(self) -> "Matrix":
        """Exact inverse via Gauss-Jordan; SingularMatrixError reports the rank."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse needs a square matrix")
        n = self.rows
        aug = [list(self.row(i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        reduced, pivots = rref(aug)
        lead = [p for p in pivots if p < n]
        if len(lead) < n:
            raise SingularMatrixError(len(lead), n)
        return Matrix.from_rows([r[n:] for r in reduced])

    def rank(self) -> int:
        _, pivots = rref(self.row_lists())
        return len(pivots)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(self.at(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix[{body}]"


def add_scaled(row: dict, c, other: dict) -> None:
    """row += c * other, in place, dropping entries that cancel."""
    for m, v in other.items():
        s = row.get(m, 0) + c * v
        if s:
            row[m] = s
        else:
            row.pop(m, None)


def numerators(values: dict) -> tuple[int, dict]:
    """(L, L * values as ints, zeros dropped), L the lcm of the values'
    denominators; values are ints or Fractions."""
    den = lcm(*(c.denominator for c in values.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in values.items() if c}


def _scale(row: dict, a: int) -> None:
    if a != 1:
        for m in row:
            row[m] *= a


class Echelon:
    """Incremental fraction-free echelon form over sparse rows
    ``{column: value}``, values ``int`` or ``Fraction``.

    A row's pivot is its largest column key.  Keys are compared in their
    natural order.  For the monomial-keyed rows of ``certify`` that is
    graded-lex order only because every caller passes rows of a single
    degree, where tuple order and graded-lex order agree.  ``rref`` keys
    column j as -j, so the first nonzero entry leads.

    Every pivot row is a primitive integer row with a positive lead: an
    incoming row is scaled by the lcm of its denominators, a reduction
    step cross-multiplies by the two leads, each divided by their gcd,
    and the content is divided out when a pivot is stored (Bareiss,
    *Math. Comp.* 22, 1968; Geddes, Czapor and Labahn, *Algorithms for
    Computer Algebra*, 1992).  Each pivot row is a nonzero multiple of
    the pivot row a rational elimination with leading 1s would store, so
    ``reduced_rows`` returns exactly its results; it is the only place a
    ``Fraction`` is made.

    A row inserted with a ``tag`` carries, as an integer dict scaled with
    the row, the combination of inserted rows it equals: a row scaled by
    den starts from ``{tag: den}``.  When a tagged row reduces to zero,
    the primitive integer combination ``{tag: coefficient}`` of inserted
    rows that sums to the zero row is appended to ``relations``; there
    are as many relations as tagged rows minus the rank.  Tagged and
    untagged rows do not mix in one instance.  A row is in the span of
    the rows so far exactly when ``insert`` adds no pivot for it.
    """

    __slots__ = ("pivots", "relations")

    def __init__(self):
        self.pivots: dict = {}  # lead key -> (row, combination or None)
        self.relations: list[dict] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, row: dict, combo: dict | None) -> None:
        """Cancel pivot leads of the integer row, in place, until its lead
        is no pivot; the combination is scaled and reduced alongside."""
        pivots = self.pivots
        while row:
            lead = max(row)
            hit = pivots.get(lead)
            if hit is None:
                break
            prow, pcombo = hit
            a, b = prow[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, -b // g
            _scale(row, a)
            add_scaled(row, b, prow)
            if combo is not None:
                _scale(combo, a)
                add_scaled(combo, b, pcombo)

    def insert(self, row: dict, tag=None) -> bool:
        """Add a row.  Returns whether it was independent of the rows so
        far, that is, whether it added a pivot."""
        den, row = numerators(row)
        combo = None if tag is None else {tag: den}
        self._eliminate(row, combo)
        if not row:
            if combo is not None:
                g = gcd(*combo.values())
                self.relations.append({t: c // g for t, c in combo.items()})
            return False
        lead = max(row)
        g = gcd(*row.values(), *(combo or {}).values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            row = {m: c // g for m, c in row.items()}
            if combo is not None:
                combo = {t: c // g for t, c in combo.items()}
        self.pivots[lead] = (row, combo)
        return True

    def reduced_rows(self) -> list[dict]:
        """Back-substitution: the reduced echelon rows, leading pivot first,
        each divided by its lead, so every pivot entry is 1.

        Every returned row is zero on the other rows' pivot columns; the
        echelon form itself is left as it is.  The back-substitution runs
        on primitive integer rows.
        """
        done: dict = {}
        for lead in sorted(self.pivots):
            row = dict(self.pivots[lead][0])
            for col in [m for m in row if m != lead and m in done]:
                other = done[col]
                a, b = other[col], row[col]
                g = gcd(a, b)
                _scale(row, a // g)
                add_scaled(row, -b // g, other)
            g = gcd(*row.values())
            done[lead] = {m: c // g for m, c in row.items()} if g != 1 else row
        out = []
        for lead, row in sorted(done.items(), reverse=True):
            # a kernel row repeats a few small values: one Fraction each
            den, made = row[lead], {}
            out.append({m: made.get(c) or made.setdefault(c, Fraction(c, den)) for m, c in row.items()})
        return out


def _keyed(row: Sequence) -> dict:
    # dense row -> sparse row whose first nonzero entry has the largest key
    return {-j: x for j, x in enumerate(row) if x}


def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with first-nonzero pivoting, of rows of
    ints and Fractions.

    Returns (nonzero rows with pivot entries 1, pivot column indices).
    """
    echelon = Echelon()
    for r in rows:
        echelon.insert(_keyed(r))
    ncols = len(rows[0]) if rows else 0
    reduced = echelon.reduced_rows()
    return (
        [[r.get(-j, ZERO) for j in range(ncols)] for r in reduced],
        [-max(r) for r in reduced],
    )


def nullspace_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of {v : m v = 0}: reduced-echelon rows, pivots 1.

    The free-variable parametrization of the RREF of ``m`` is itself
    re-echelonized so fixtures are deterministic.
    """
    reduced, pivots = rref(m.row_lists())
    ncols = m.cols
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    if not free_cols:
        return []
    vectors = []
    for fc in free_cols:
        v = [ZERO] * ncols
        v[fc] = ONE
        for ridx, pc in enumerate(pivots):
            v[pc] = -reduced[ridx][fc]
        vectors.append(v)
    canonical, _ = rref(vectors)
    return [tuple(r) for r in canonical]
