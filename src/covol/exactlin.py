"""
Exact linear algebra over the rationals and integers.

Sparse row vectors with Fraction entries, reduced row echelon bases as the
canonical form of a subspace, Smith normal form with unimodular factors, and
the finest coordinate-block decomposition of a subspace.  No floating point
anywhere: every equality test in this package is exact.
"""

from fractions import Fraction

_ZERO = Fraction(0)


class SparseVector:
    """Sparse vector over Q: a map coordinate index -> nonzero Fraction."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for k, v in entries.items():
                v = Fraction(v)
                if v:
                    self.entries[k] = v

    @classmethod
    def unit(cls, index):
        return cls({index: 1})

    @classmethod
    def _wrap(cls, entries):
        """Vector over an entry dict that holds no zeros, without copying."""
        vec = cls()
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
        for k, v in other.entries.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return SparseVector._wrap(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return SparseVector._wrap({k: c * v for k, v in self.entries.items()} if c else {})

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
        out = vec
        for row, p in zip(self.rows, self.pivots):
            c = out[p]
            if c:
                out = out - row.scale(c)
        return out

    def member(self, vec):
        return self.reduce(vec).is_zero()

    def coordinates(self, vec):
        """Coefficients of vec in the RREF basis, or None if not a member."""
        coeffs = [vec[p] for p in self.pivots]
        if self.reduce(vec).is_zero():
            return coeffs
        return None

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
            del target[k]


def rref(rows):
    """Canonical RREF basis of the span of the given sparse vectors.

    Invariant: the rows are fully reduced against every pivot.  A new row is
    reduced by the pivots in its support, its leading coordinate becomes a
    pivot, and it is back-substituted into the earlier rows."""
    reduced = {}  # pivot column -> normalised row entries
    for vec in rows:
        entries = dict(vec.entries)
        for p in [c for c in entries if c in reduced]:
            _axpy(entries, -entries[p], reduced[p])
        if entries:
            col = min(entries)
            inv = Fraction(1) / entries[col]
            row = {k: v * inv for k, v in entries.items()}
            for other in reduced.values():
                c = other.get(col)
                if c:
                    _axpy(other, -c, row)
            reduced[col] = row
    pivots = sorted(reduced)
    return Subspace([SparseVector._wrap(reduced[p]) for p in pivots], pivots)


def intersect_coordinates(space, coords):
    """Intersection of a subspace with the span of the given coordinates.

    Eliminates with complement coordinates first; the surviving rows
    supported inside coords span the intersection exactly.
    """
    coords = set(coords)

    def key(c):
        return (1, c) if c in coords else (0, c)

    work = list(space.rows)
    done = []
    while work:
        col = min((min(r.support(), key=key) for r in work), key=key)
        idx = next(i for i, r in enumerate(work) if min(r.support(), key=key) == col)
        row = work.pop(idx)
        row = row.scale(Fraction(1) / row[col])
        nxt = []
        for r in work:
            c = r[col]
            r2 = r - row.scale(c) if c else r
            if not r2.is_zero():
                nxt.append(r2)
        work = nxt
        done.append((col, row))
    inside = [row for col, row in done if col in coords]
    return rref(inside)


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


def det_int(a):
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    assert det.denominator == 1
    return int(det)
