"""Exact incremental reduced row echelon form of sparse rows.

A row is a mapping {column: coefficient}; columns are any sortable
keys and coefficients are exact rationals, ``int`` when integral,
``Fraction`` otherwise.  ``reduce`` turns each integral coefficient
of an incoming row into its numerator once, ``add`` divides a row by
its pivot only when the pivot is not 1 or -1, and every entry that
scaling or elimination leaves integral is stored as its numerator, so
integral rows are reduced in int arithmetic.
``nullspace`` returns ``Fraction`` entries.  The reduced row echelon
form of a row space is unique, so the stored rows do not depend on
the order in which rows were added.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Echelon"]


class Echelon:
    """Reduced row echelon form of the rows added so far.

    Each stored row has coefficient 1 at its pivot column, which is
    its smallest column and appears in no other stored row.
    """

    def __init__(self, rows=()):
        self._rows: dict = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, row) -> dict:
        """The remainder of ``row`` modulo the span: a new dict with no
        pivot column.  It is empty iff ``row`` lies in the span."""
        out = {c: x.numerator if x.denominator == 1 else x for c, x in row.items() if x}
        # a pivot row holds no other pivot column, so one pass suffices
        for col in [c for c in out if c in self._rows]:
            _subtract(out, out[col], self._rows[col])
        return out

    def add(self, row) -> bool:
        """Add ``row`` to the span; True iff the rank grew."""
        row = self.reduce(row)
        if not row:
            return False
        col = min(row)
        pivot = row[col]
        if pivot == -1:
            row = {c: -x for c, x in row.items()}
        elif pivot != 1:
            inv = Fraction(1) / pivot
            row = {c: _exact(x * inv) for c, x in row.items()}
        for prow in self._rows.values():
            if col in prow:
                _subtract(prow, prow[col], row)
        self._rows[col] = row
        return True

    def rows(self) -> list[tuple]:
        """The (pivot column, row) pairs sorted by pivot column; the
        rows are the echelon's own and must not be modified."""
        return sorted(self._rows.items())

    def nullspace(self, ncols: int) -> list[tuple[Fraction, ...]]:
        """Basis of the solutions x of row . x = 0 over the integer
        columns 0..ncols-1, one vector per free column: it sets that
        column to 1, the other free columns to 0 and each pivot column
        to minus its row's entry in the free column."""
        out = []
        for f in range(ncols):
            if f in self._rows:
                continue
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for col, row in self._rows.items():
                vec[col] = -Fraction(row.get(f, 0))
            out.append(tuple(vec))
        return out


def _subtract(target: dict, f, row: dict) -> None:
    """target -= f * row in place, dropping the entries that cancel."""
    for c, x in row.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = _exact(y)
        else:
            del target[c]


def _exact(x):
    """``x`` as an ``int`` when integral."""
    return x.numerator if x.denominator == 1 else x
