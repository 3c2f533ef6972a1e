"""The rational echelon engine that ``exact.Echelon`` replaced.

Every pivot row is scaled to a leading 1 and every coefficient is a
``fractions.Fraction``.  It is kept as the reference that
``tests/test_echelon_reference.py`` checks the fraction-free engine
against: both must find the same ranks, the same reduced rows and the
same ``reduce`` results.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def add_scaled(row: dict, c, other: dict) -> None:
    """row += c * other, in place, dropping entries that cancel."""
    for m, v in other.items():
        s = row.get(m, ZERO) + c * v
        if s:
            row[m] = s
        else:
            row.pop(m, None)


class Echelon:
    """Incremental echelon form over sparse rows ``{column: value}``.

    A row's pivot is its largest column key, and every pivot row is scaled
    to a leading 1.  Keys are compared in their natural order.  For the
    monomial-keyed rows of ``certify`` that is graded-lex order only
    because every caller passes rows of a single degree, where tuple order
    and graded-lex order agree.  ``rref`` keys column j as -j, so the
    first nonzero entry leads.

    A row inserted with a ``tag`` carries the combination of inserted rows
    it equals.  When a tagged row reduces to zero, the combination
    ``{tag: coefficient}`` of inserted rows that sums to the zero row is
    appended to ``relations``; there are as many relations as tagged rows
    minus the rank.  Tagged and untagged rows do not mix in one instance.
    """

    __slots__ = ("pivots", "relations")

    def __init__(self):
        self.pivots: dict = {}  # lead key -> (row, combination or None)
        self.relations: list[dict] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict, combo: dict | None = None) -> tuple[dict, dict | None]:
        """Cancel pivot leads until the lead of the row is no pivot.

        Returns (remainder, combination): the remainder equals ``row``
        plus the sum of combination[t] times inserted row t, where the
        combination starts from ``combo`` (None tracks nothing).
        """
        row = dict(row)
        if combo is not None:
            combo = dict(combo)
        while row:
            lead = max(row)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            c = -row[lead]
            add_scaled(row, c, hit[0])
            if combo is not None:
                add_scaled(combo, c, hit[1])
        return row, combo

    def insert(self, row: dict, tag=None) -> dict:
        """Add a row.  Returns its remainder after ``reduce``: nonempty
        (the new pivot row, before scaling) when it was independent of the
        rows so far, empty when it was not."""
        row, combo = self.reduce(row, None if tag is None else {tag: ONE})
        if not row:
            if combo is not None:
                self.relations.append(combo)
            return row
        lead = max(row)
        inv = ONE / row[lead]
        self.pivots[lead] = (
            {m: v * inv for m, v in row.items()},
            None if combo is None else {t: v * inv for t, v in combo.items()},
        )
        return row

    def reduced_rows(self) -> list[dict]:
        """Back-substitution: the reduced echelon rows, leading pivot first.

        Every returned row is zero on the other rows' pivot columns; the
        echelon form itself is left as it is.
        """
        done: dict = {}
        for lead in sorted(self.pivots):
            row = dict(self.pivots[lead][0])
            for col in [m for m in row if m != lead and m in done]:
                add_scaled(row, -row[col], done[col])
            done[lead] = row
        return [done[lead] for lead in sorted(done, reverse=True)]
