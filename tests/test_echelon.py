"""The incremental Echelon against the from-scratch reference RREF, on
random sparse Fraction matrices."""

from fractions import Fraction

from hypothesis import given, strategies as st

from tautrel.echelon import Echelon

from conftest import _rref

fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def matrices(draw):
    """(ncols, rows): sparse rows, zero entries and empty rows included,
    followed by linear combinations of them so that ranks drop."""
    ncols = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, ncols - 1), fractions, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    for weights in draw(st.lists(st.lists(fractions, min_size=len(rows), max_size=len(rows)), max_size=3)):
        combo = {}
        for w, r in zip(weights, rows):
            for c, x in r.items():
                combo[c] = combo.get(c, Fraction(0)) + w * x
        rows.append(combo)
    return ncols, rows


@given(matrices())
def test_rows_equal_reference(m):
    ncols, rows = m
    assert Echelon(rows).rows() == _rref(rows, ncols)


@given(matrices())
def test_add_reports_rank_growth(m):
    ncols, rows = m
    echelon = Echelon()
    before = 0
    for i, row in enumerate(rows):
        after = len(_rref(rows[: i + 1], ncols))
        assert echelon.add(row) == (after > before)
        assert echelon.rank == after
        before = after


@given(matrices(), st.data())
def test_reduce_leaves_no_pivot_and_stays_in_the_coset(m, data):
    ncols, rows = m
    echelon = Echelon(rows)
    pivots = {col for col, _ in echelon.rows()}
    probe = data.draw(st.dictionaries(st.integers(0, ncols - 1), fractions, max_size=ncols))
    frozen = dict(probe)
    rest = echelon.reduce(probe)
    assert probe == frozen
    assert not pivots & set(rest)
    assert all(rest.values())
    # probe - rest lies in the span
    diff = dict(probe)
    for c, x in rest.items():
        diff[c] = diff.get(c, Fraction(0)) - x
    assert not echelon.reduce(diff)
    for row in rows:
        assert not echelon.reduce(row)


@given(matrices(), st.data())
def test_rows_independent_of_input_order(m, data):
    _, rows = m
    shuffled = data.draw(st.permutations(rows))
    assert Echelon(shuffled).rows() == Echelon(rows).rows()


@given(matrices())
def test_nullspace_annihilates_every_row(m):
    ncols, rows = m
    echelon = Echelon(rows)
    kernel = echelon.nullspace(ncols)
    assert len(kernel) == ncols - echelon.rank
    assert Echelon({c: x for c, x in enumerate(v)} for v in kernel).rank == len(kernel)
    for v in kernel:
        for row in rows:
            assert sum(x * v[c] for c, x in row.items()) == 0


def test_sortable_keys_as_columns():
    rows = [{("b", 1): Fraction(2), ("a", 2): Fraction(1)}, {("a", 2): Fraction(3)}]
    echelon = Echelon()
    assert echelon.add(rows[0]) and echelon.add(rows[1])
    assert not echelon.add({("b", 1): Fraction(5)})
    assert echelon.rows() == [(("a", 2), {("a", 2): Fraction(1)}), (("b", 1), {("b", 1): Fraction(1)})]


def test_integral_rows_stay_int():
    # pivots 1 and -1 keep integral rows in int arithmetic
    echelon = Echelon([
        {0: Fraction(1), 1: Fraction(-2)},
        {1: Fraction(-1), 2: Fraction(2)},
        {0: Fraction(1), 2: Fraction(-3), 3: Fraction(5)},
    ])
    rows = echelon.rows()
    assert rows == [(0, {0: 1, 3: 20}), (1, {1: 1, 3: 10}), (2, {2: 1, 3: 5})]
    assert all(type(x) is int for _, row in rows for x in row.values())


def test_pivot_two_stores_fractions_and_nullspace_is_fractions():
    echelon = Echelon([{0: 2, 1: 1}])
    ((_, row),) = echelon.rows()
    assert row == {0: 1, 1: Fraction(1, 2)}
    assert type(row[0]) is int and type(row[1]) is Fraction
    kernel = Echelon([{0: 1, 1: -1}]).nullspace(3)
    assert kernel == [(1, 1, 0), (0, 0, 1)]
    assert all(type(x) is Fraction for v in kernel for x in v)
