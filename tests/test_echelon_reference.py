"""The fraction-free ``exact.Echelon`` against the rational engine it
replaced (``tests/reference_echelon.py``).

Both eliminate the same sparse rows, tagged and untagged, whose values
mix ``int`` and ``Fraction``, some with 256-bit denominators.  They must
agree on every insert, the rank and the reduced rows; a probe must add a
pivot exactly when the reference's ``reduce`` leaves a remainder, and
each relation of the integer engine, the probe's included, must sum the
inserted rows to zero.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from classinv.exact import Echelon
from reference_echelon import Echelon as ReferenceEchelon

COLUMNS = range(6)

small = st.integers(-9, 9).filter(bool)
values = st.one_of(
    small,
    st.builds(Fraction, small, st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(2**256), 2**256).filter(bool), st.integers(1, 2**256)),
)
sparse_rows = st.dictionaries(st.sampled_from(COLUMNS), values, max_size=4)


@st.composite
def row_lists(draw):
    """Random rows, some of them combinations of earlier rows so that
    relations occur."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            total: dict = {}
            for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(values)
                for col, x in row.items():
                    total[col] = total.get(col, 0) + c * x
            rows.append({col: x for col, x in total.items() if x})
        else:
            rows.append(draw(sparse_rows))
    return rows


def combination_sum(relation: dict, rows: list) -> dict:
    total: dict = {}
    for t, c in relation.items():
        for col, x in rows[t].items():
            total[col] = total.get(col, 0) + c * x
    return {col: x for col, x in total.items() if x}


def both(rows, tagged: bool):
    new, ref = Echelon(), ReferenceEchelon()
    for i, row in enumerate(rows):
        tag = i if tagged else None
        assert new.insert(row, tag) == bool(ref.insert(row, tag))
    return new, ref


def check_pivots_primitive(echelon: Echelon):
    for lead, (row, combo) in echelon.pivots.items():
        entries = [*row.values(), *(combo or {}).values()]
        assert all(type(c) is int for c in entries)
        assert row[lead] > 0
        assert gcd(*entries) == 1


@settings(max_examples=150, deadline=None)
@given(row_lists(), st.booleans(), sparse_rows)
def test_matches_the_rational_engine(rows, tagged, probe):
    new, ref = both(rows, tagged)
    assert new.rank == ref.rank
    check_pivots_primitive(new)

    reduced = new.reduced_rows()
    assert reduced == ref.reduced_rows()
    assert all(type(x) is Fraction for r in reduced for x in r.values())

    if tagged:
        assert len(new.relations) == len(ref.relations) == len(rows) - new.rank
    ref_remainder, _ = ref.reduce(probe)
    tag = len(rows) if tagged else None
    assert new.insert(probe, tag) == bool(ref_remainder)
    if tagged:
        assert len(new.relations) == len(rows) + 1 - new.rank
        for relation in new.relations:
            assert relation and all(type(c) is int for c in relation.values())
            assert combination_sum(relation, [*rows, probe]) == {}
    else:
        assert new.relations == []


def test_a_tagged_row_carries_its_denominator():
    # 1/2 and 1/3 in one column: the relation is 2 * row0 - 3 * row1 up
    # to sign, which holds only if row i's combination starts as {i: den}
    rows = [{0: Fraction(1, 2)}, {0: Fraction(1, 3)}]
    new, _ = both(rows, tagged=True)
    (relation,) = new.relations
    assert combination_sum(relation, rows) == {}
    assert relation in ({0: 2, 1: -3}, {0: -2, 1: 3})
    # 5/7 = (10/7) * row0: the probe's relation is 7 * probe - 10 * row0
    assert not new.insert({0: Fraction(5, 7)}, 2)
    assert new.relations[-1] == {2: 7, 0: -10}
