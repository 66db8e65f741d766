"""The coordinate intersection that left the package, kept verbatim as an
oracle with the keyed echelon it ran on.

`intersect_coordinates` served only the block split of the span of
liftings; that span is now each pair's lifted rows, which need no
elimination.  The tests that compute intersections (minimality by rank,
the dimension count for homogeneity, the brute-force block partitions)
import it from here.  `KeyedEchelon` is `_Echelon` as it was then: a row's
pivot is its first column under `key`, and `subspace` reads the rows
pivoted in `cols`.

Copied at 6d78d7c from `covol/exactlin.py` as it stood at e98b432.
"""

from fractions import Fraction

from covol.exactlin import SparseVector, Subspace, _axpy, _exact


class KeyedEchelon:
    """Incremental reduced row echelon form: pivot column -> normalised row
    entries, every row fully reduced against every other pivot.

    A row's pivot is its first column under `key` (natural order by
    default).  Read the result with `subspace`; its rows share the entry
    dicts, so read it after the last `add`.

    `_holders` maps each non-pivot column that some row holds to the set of
    pivots whose rows hold it, so a new pivot is eliminated from exactly
    the rows that hold its column.  Each such row changes independently of
    the others, so the set order never reaches a result."""

    __slots__ = ("rows", "key", "_holders")

    def __init__(self, vectors=(), key=None):
        self.rows = {}
        self.key = key
        self._holders = {}
        for vec in vectors:
            self.add(vec)

    def add(self, vec):
        """Reduce vec; return its new normalised row, which later adds may
        change, or None when vec already lies in the span."""
        reduced, holders = self.rows, self._holders
        entries = dict(vec.entries)
        for p in [c for c in entries if c in reduced]:
            _axpy(entries, -entries[p], reduced[p])
        if not entries:
            return None
        col = min(entries, key=self.key)
        p = entries[col]
        if p == 1:
            row = entries
        else:
            inv = Fraction(1) / p
            row = {k: _exact(v * inv) for k, v in entries.items()}
        stale = holders.pop(col, ())
        for k in row:
            if k != col:
                holders.setdefault(k, set()).add(col)
        for q in stale:  # other -= other[col] * row; col itself cancels
            other = reduced[q]
            c = -other[col]
            for k, v in row.items():
                s = other.get(k, 0) + c * v
                if s:
                    if k not in other:
                        holders[k].add(q)
                    other[k] = s
                else:
                    del other[k]
                    if k != col:
                        holders[k].discard(q)
        reduced[col] = row
        return SparseVector._wrap(row)

    def subspace(self, cols=None):
        """RREF Subspace of the rows whose pivot lies in cols (all rows by
        default)."""
        pivots = sorted(self.rows if cols is None else
                        [p for p in self.rows if p in cols])
        return Subspace([SparseVector._wrap(self.rows[p]) for p in pivots], pivots)


def intersect_coordinates(space, coords):
    """Intersection of a subspace with the span of the given coordinates.

    Echelonises once with every complement coordinate ordered before every
    coordinate in coords.  A row whose pivot lies in coords is then
    supported inside coords, and those rows span the intersection: a
    member supported in coords has zero coefficient on every other row.
    """
    coords = set(coords)
    return KeyedEchelon(space.rows, key=lambda c: (c in coords, c)).subspace(coords)
