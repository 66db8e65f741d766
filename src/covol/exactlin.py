"""
Exact linear algebra over the rationals and integers.

Sparse row vectors whose entries are nonzero int or Fraction (integral
values are ints), reduced row echelon bases as the canonical form of a
subspace, Smith normal form with unimodular factors, and the finest
coordinate-block decomposition of a subspace.  No floating point anywhere:
every equality test in this package is exact, and every division is
Fraction-valued.

One kernel writes every subspace: the incremental echelon `_Echelon`, whose
rows stay fully reduced after each `add`.  `rref` and the coalgebra closure
worklist read their subspaces off it.  The echelon keeps a holder index,
each non-pivot column to the pivots whose rows hold it, so a new pivot is
back-substituted only into the rows that hold its column, not into every
row.
"""

from fractions import Fraction

_ZERO = 0


def _exact(x):
    """x as an int when it is integral, else the Fraction itself."""
    return x.numerator if x.denominator == 1 else x


class SparseVector:
    """Sparse vector over Q: a map coordinate index -> nonzero int or
    Fraction; integral values are ints.  Sums of Fractions may stay
    integral Fractions, which compare and hash as the equal int."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for k, v in entries.items():
                v = Fraction(v)
                if v:
                    self.entries[k] = _exact(v)

    @classmethod
    def unit(cls, index):
        return cls({index: 1})

    @classmethod
    def _wrap(cls, entries):
        """Vector over an entry dict that holds no zeros, without copying."""
        vec = object.__new__(cls)
        vec.entries = entries
        return vec

    def is_zero(self):
        return not self.entries

    def support(self):
        return set(self.entries)

    def items(self):
        return self.entries.items()

    def __getitem__(self, index):
        return self.entries.get(index, _ZERO)

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __add__(self, other):
        out = dict(self.entries)
        _axpy(out, 1, other.entries)
        return SparseVector._wrap(out)

    def leading(self):
        """Smallest supported coordinate, or None for the zero vector."""
        return min(self.entries) if self.entries else None

    def __repr__(self):
        body = ", ".join("%d: %s" % (k, self.entries[k]) for k in sorted(self.entries))
        return "SparseVector({%s})" % body


class Subspace:
    """Row space in reduced row echelon form.

    Rows are nonzero, pivot columns strictly increase, each pivot column
    contains a single 1.  RREF is unique, so two Subspaces are equal iff
    they have identical rows.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows, pivots):
        self.rows = rows
        self.pivots = pivots

    @property
    def dimension(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec after eliminating all pivot coordinates."""
        out = dict(vec.entries)
        for row, p in zip(self.rows, self.pivots):
            c = out.get(p)
            if c:
                _axpy(out, -c, row.entries)
        return SparseVector._wrap(out)

    def member(self, vec):
        return self.reduce(vec).is_zero()

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.rows == other.rows

    def __repr__(self):
        return "Subspace(dim=%d, pivots=%r)" % (self.dimension, self.pivots)


def _axpy(target, c, source):
    """target += c * source, in place on entry dicts, dropping zeros."""
    for k, v in source.items():
        s = target.get(k, 0) + c * v
        if s:
            target[k] = s
        else:
            target.pop(k, None)


class _Echelon:
    """Incremental reduced row echelon form: pivot column -> normalised row
    entries, every row fully reduced against every other pivot.

    A row's pivot is its first column.  Read the result with `subspace`;
    its rows share the entry dicts, so read it after the last `add`.

    `_holders` maps each non-pivot column that some row holds to the set of
    pivots whose rows hold it, so a new pivot is eliminated from exactly
    the rows that hold its column.  Each such row changes independently of
    the others, so the set order never reaches a result."""

    __slots__ = ("rows", "_holders")

    def __init__(self, vectors=()):
        self.rows = {}
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
        col = min(entries)
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

    def subspace(self):
        """The RREF Subspace of the rows."""
        pivots = sorted(self.rows)
        return Subspace([SparseVector._wrap(self.rows[p]) for p in pivots], pivots)


def rref(rows):
    """Canonical RREF basis of the span of the given sparse vectors."""
    return _Echelon(rows).subspace()


def finest_block_partition(space):
    """Finest partition of the supported coordinates of an RREF subspace
    such that the space is the direct sum of its intersections with the
    per-block coordinate spans.

    Connected components of the graph joining coordinates that co-occur in
    an RREF row.  Uniqueness of RREF makes the result well defined.
    """
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for row in space.rows:
        sup = sorted(row.support())
        for c in sup:
            parent.setdefault(c, c)
        for c in sup[1:]:
            union(sup[0], c)
    blocks = {}
    for c in parent:
        blocks.setdefault(find(c), []).append(c)
    return sorted((sorted(b) for b in blocks.values()), key=lambda b: b[0])


def solve_affine(equations, nvars):
    """Solve a rational affine system given as (coefficient SparseVector,
    constant) pairs over variables 0..nvars-1.

    Returns (particular solution list, nullspace basis list of lists) or
    None when inconsistent.
    """
    rows = []
    for coeffs, const in equations:
        entries = dict(coeffs.entries)
        c = Fraction(const)
        if c:
            entries[nvars] = -c  # homogenized: coeffs . x - const = 0
        if entries:
            rows.append(SparseVector(entries))
    space = rref(rows)
    for p in space.pivots:
        if p == nvars:
            return None
    particular = [Fraction(0)] * nvars
    for row, p in zip(space.rows, space.pivots):
        particular[p] = -row[nvars]
    pivot_set = set(space.pivots)
    nullspace = []
    for free in range(nvars):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * nvars
        vec[free] = Fraction(1)
        for row, p in zip(space.rows, space.pivots):
            vec[p] = -row[free]
        nullspace.append(vec)
    return particular, nullspace


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix.

    Returns (diagonal, left, right) with left * matrix * right equal to the
    diagonal matrix, left and right unimodular, and the diagonal entries
    nonnegative with d1 | d2 | ... .  diagonal has length min(rows, cols).
    """
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    left = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    right = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, q):  # row i -= q * row j
        for k in range(ncols):
            m[i][k] -= q * m[j][k]
        for k in range(nrows):
            left[i][k] -= q * left[j][k]

    def col_op(i, j, q):  # col i -= q * col j
        for k in range(nrows):
            m[k][i] -= q * m[k][j]
        for k in range(ncols):
            right[k][i] -= q * right[k][j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for k in range(nrows):
            m[k][i], m[k][j] = m[k][j], m[k][i]
        for k in range(ncols):
            right[k][i], right[k][j] = right[k][j], right[k][i]

    def negate_row(i):
        for k in range(ncols):
            m[i][k] = -m[i][k]
        for k in range(nrows):
            left[i][k] = -left[i][k]

    n = min(nrows, ncols)
    for s in range(n):
        while True:
            # smallest nonzero entry of the trailing block to (s, s)
            best = None
            for i in range(s, nrows):
                for j in range(s, ncols):
                    if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != s:
                swap_rows(s, best[0])
            if best[1] != s:
                swap_cols(s, best[1])
            if m[s][s] < 0:
                negate_row(s)
            dirty = False
            for i in range(s + 1, nrows):
                if m[i][s]:
                    q = m[i][s] // m[s][s]
                    row_op(i, s, q)
                    if m[i][s]:
                        dirty = True
            for j in range(s + 1, ncols):
                if m[s][j]:
                    q = m[s][j] // m[s][s]
                    col_op(j, s, q)
                    if m[s][j]:
                        dirty = True
            if dirty:
                continue
            # enforce divisibility into the trailing block
            offender = None
            for i in range(s + 1, nrows):
                for j in range(s + 1, ncols):
                    if m[i][j] % m[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(s, offender, -1)  # add offending row, then restart the pivot
    diagonal = [m[i][i] for i in range(n)]
    return diagonal, left, right


def matmul_int(a, b):
    """Product of two dense matrices; exact on int and Fraction entries."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                for j in range(cols):
                    out[i][j] += aik * b[k][j]
    return out
