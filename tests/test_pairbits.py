import pytest

from gbengine.pairbits import BitTriangle

try:
    from hypothesis import given, settings, strategies as st
except ImportError:     # the package declares no dependencies
    given = None


def _both(cap, before, j, rows):
    """Two triangles of bit cap cap, after the pairs before: one given
    rows of column j by set_column, one by set row by row."""
    col, one = BitTriangle(cap), BitTriangle(cap)
    for tri in (col, one):
        for i, k in before:
            tri.set(i, k)
    col.set_column(j, rows)
    for i in rows:
        one.set(i, j)
    return col, one


def test_set_column_examples():
    # column 5 holds bits 10..14, from bit 2 of byte 1 on
    col, one = _both(None, [(0, 1)], 5, [4, 0, 2])
    assert col.bits == one.bits == bytearray(b"\x01\x54")
    assert [col.get(i, 5) for i in range(5)] == [True, False, True, False,
                                                  True]
    # a cap inside the column drops the triangle and every earlier bit
    col, one = _both(13, [(0, 1)], 5, [0, 3])
    assert col.dropped and one.dropped and col.bits == one.bits == b""
    assert not col.get(0, 1)
    col, _ = _both(13, [], 5, [0, 2])
    assert not col.dropped and col.get(2, 5)
    # a dropped triangle and an empty column set nothing
    col.drop()
    col.set_column(5, [1])
    assert col.bits == b"" and col.dropped
    col, one = _both(0, [], 9, [])
    assert not col.dropped and col.bits == one.bits == b""


if given is None:
    def test_set_column_matches_set_row_by_row():
        pytest.skip("hypothesis is not installed")
else:
    @st.composite
    def _columns(draw):
        """(cap, before, j, rows): a column j with a start bit j(j-1)/2
        aligned or not, rows of it in any order, earlier pairs set first,
        and a cap before, inside or after the column, or none."""
        j = draw(st.integers(1, 70))
        base = j * (j - 1) // 2
        rows = draw(st.lists(st.integers(0, j - 1), unique=True))
        pair = st.integers(0, 80).flatmap(
            lambda k: st.tuples(st.integers(0, max(k - 1, 0)), st.just(k)))
        before = draw(st.lists(pair, max_size=6))
        # caps next to a row's bit, where an off-by-one shows
        near = [max(base + i + d, 0) for i in rows for d in (-1, 0, 1)]
        cap = draw(st.one_of(st.none(), st.integers(0, base + j + 16),
                             st.sampled_from(near or [base])))
        return cap, before, j, rows

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=400)
    @given(_columns())
    def test_set_column_matches_set_row_by_row(case):
        col, one = _both(*case)
        assert (col.bits, col.dropped) == (one.bits, one.dropped)
