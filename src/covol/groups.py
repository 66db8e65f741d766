"""
Group arithmetic for the three computable backends: finite multiplication
tables, finitely generated abelian groups, and free groups, plus finitely
presented descriptors that are only ever abelianized.

Elements are plain hashable values (ints, tuples); all operations live on
the descriptor.  Free words are tuples of nonzero signed generator numbers
(1-based), kept reduced.  Abelian elements are (free part, torsion part)
tuples with torsion residues in canonical range.
"""

from operator import add, neg

from .exactlin import smith_normal_form


class GroupError(ValueError):
    pass


class FiniteTable:
    """Finite group given by its multiplication table.

    table[i][j] is the index of element i * element j.  Group axioms are
    checked on construction.
    """

    def __init__(self, table, names=None):
        self.size = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.names = list(names) if names else [str(i) for i in range(self.size)]
        ident = None
        for e in range(self.size):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.size)):
                ident = e
                break
        if ident is None:
            raise GroupError("table has no identity")
        self.identity_index = ident
        inv = [None] * self.size
        for a in range(self.size):
            for b in range(self.size):
                if self.table[a][b] == ident:
                    inv[a] = b
        if any(i is None for i in inv):
            raise GroupError("table has a non-invertible element")
        self.inverse_table = tuple(inv)
        for a in range(self.size):
            for b in range(self.size):
                for c in range(self.size):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise GroupError("table is not associative")

    @classmethod
    def cyclic(cls, n):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(table, names=[str(i) for i in range(n)])

    def identity(self):
        return self.identity_index

    def multiply(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.inverse_table[a]

    def elements(self):
        return list(range(self.size))

    def format(self, el):
        return self.names[el]

    def sort_key(self, el):
        return el

    def __eq__(self, other):
        return isinstance(other, FiniteTable) and self.table == other.table

    def __repr__(self):
        return "FiniteTable(order=%d)" % self.size


class FgAbelian:
    """Finitely generated abelian group Z^free_rank x prod Z/torsion[i].

    Written additively in the DSL; elements are (free tuple, torsion tuple).
    """

    def __init__(self, free_rank, torsion=()):
        if any(t < 2 for t in torsion):
            raise GroupError("torsion orders must be >= 2")
        self.free_rank = free_rank
        self.torsion = tuple(int(t) for t in torsion)

    def element(self, free=(), torsion=()):
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) for x in torsion)
        if len(free) != self.free_rank or len(torsion) != len(self.torsion):
            raise GroupError("element shape mismatch")
        return (free, tuple(x % t for x, t in zip(torsion, self.torsion)))

    def identity(self):
        return ((0,) * self.free_rank, (0,) * len(self.torsion))

    def multiply(self, a, b):
        free = tuple(map(add, a[0], b[0]))
        if not self.torsion:
            return (free, ())
        return (free, tuple((x + y) % t for x, y, t in zip(a[1], b[1], self.torsion)))

    def inverse(self, a):
        free = tuple(map(neg, a[0]))
        if not self.torsion:
            return (free, ())
        return (free, tuple((-x) % t for x, t in zip(a[1], self.torsion)))

    def is_finite(self):
        return self.free_rank == 0

    def elements(self):
        if not self.is_finite():
            raise GroupError("infinite abelian group has no element list")
        out = [((), ())]
        for t in self.torsion:
            out = [((), tors + (r,)) for (_, tors) in out for r in range(t)]
        return out

    def format(self, el):
        free, tors = el
        parts = [str(x) for x in free] + [str(x) for x in tors]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return "0"
        return "(" + ",".join(parts) + ")"

    def sort_key(self, el):
        return el

    def __eq__(self, other):
        return (isinstance(other, FgAbelian) and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __repr__(self):
        return "FgAbelian(free_rank=%d, torsion=%r)" % (self.free_rank, self.torsion)


def reduce_word(letters):
    """Free reduction: cancel adjacent x x^-1 pairs.  Confluent, so the
    result is independent of cancellation order."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class FreeGroup:
    """Free group of the given rank; elements are reduced words, stored as
    tuples of nonzero ints: k for generator k, -k for its inverse (1-based)."""

    def __init__(self, rank, names=None):
        self.rank = rank
        if names is not None and len(names) != rank:
            raise GroupError("generator name count mismatch")
        self.names = list(names) if names else ["g%d" % (i + 1) for i in range(rank)]

    def generator(self, i):
        if not 0 <= i < self.rank:
            raise GroupError("generator index out of range")
        return (i + 1,)

    def word(self, letters):
        w = reduce_word(letters)
        if any(x == 0 or abs(x) > self.rank for x in w):
            raise GroupError("letter out of range")
        return w

    def identity(self):
        return ()

    def multiply(self, a, b):
        """Product of two reduced words.  Each factor is already reduced, so
        only the junction can cancel: the scan stops at the first letter of
        `b` that does not cancel the matching tail letter of `a`, in time
        proportional to the cancellation."""
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return a[:len(a) - k] + b[k:]

    def inverse(self, a):
        return tuple(-x for x in reversed(a))

    def format(self, el):
        if not el:
            return "1"
        parts = []
        i = 0
        while i < len(el):
            x = el[i]
            j = i
            while j < len(el) and el[j] == x:
                j += 1
            power = j - i if x > 0 else i - j
            name = self.names[abs(x) - 1]
            parts.append(name if power == 1 else "%s^%d" % (name, power))
            i = j
        return "*".join(parts)

    def sort_key(self, el):
        return (len(el), el)

    def __eq__(self, other):
        return isinstance(other, FreeGroup) and self.rank == other.rank

    def __repr__(self):
        return "FreeGroup(rank=%d)" % self.rank


class FinitelyPresented:
    """Presentation descriptor: generator count plus reduced relator words.

    The word problem is not implemented; the descriptor exists to be
    abelianized or, when relator-free, recognized as a free group.
    """

    def __init__(self, generator_count, relators):
        self.generator_count = generator_count
        self.relators = tuple(reduce_word(r) for r in relators)
        for r in self.relators:
            if any(x == 0 or abs(x) > generator_count for x in r):
                raise GroupError("relator letter out of range")

    def __repr__(self):
        return "FinitelyPresented(gens=%d, relators=%d)" % (
            self.generator_count, len(self.relators))


def power(group, el, n):
    out = group.identity()
    base = el if n >= 0 else group.inverse(el)
    for _ in range(abs(n)):
        out = group.multiply(out, base)
    return out


def abelianize(fp):
    """Abelianization of a finitely presented group.

    Returns (FgAbelian, images) where images[i] is the image of the i-th
    generator.  Computed by Smith normal form of the relator exponent-sum
    matrix; torsion orders come out sorted by divisibility.
    """
    g = fp.generator_count
    cols = []
    for rel in fp.relators:
        v = [0] * g
        for x in rel:
            v[abs(x) - 1] += 1 if x > 0 else -1
        cols.append(v)
    if not cols:
        grp = FgAbelian(g)
        return grp, [grp.element(free=[int(i == j) for j in range(g)]) for i in range(g)]
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(g)]
    diagonal, left, _right = smith_normal_form(matrix)
    # coker(Z^g / relator columns) with coordinates changed by `left`
    torsion_pos = [i for i, d in enumerate(diagonal) if d > 1]
    killed = {i for i, d in enumerate(diagonal) if d == 1}
    free_pos = [i for i in range(g) if i not in killed and i not in set(torsion_pos)]
    grp = FgAbelian(len(free_pos), [diagonal[i] for i in torsion_pos])
    images = []
    for i in range(g):
        coords = [left[r][i] for r in range(g)]
        free = [coords[r] for r in free_pos]
        tors = [coords[r] % diagonal[r] for r in torsion_pos]
        images.append(grp.element(free=free, torsion=tors))
    return grp, images


# ---------------------------------------------------------------------------
# generation tests


def _generates_finite(group, gens):
    seen = {group.identity()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                for y in (group.multiply(x, s), group.multiply(x, group.inverse(s))):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return len(seen) == group.size


def generator_relation_matrix(group, gens):
    """Integer matrix of Z^k + Z^t -> G for an abelian group: one column
    of coordinates per generator, then one column order * e per torsion
    factor; rows are the free and torsion coordinates."""
    r = group.free_rank
    n = r + len(group.torsion)
    cols = [list(g[0]) + list(g[1]) for g in gens]
    for i, order in enumerate(group.torsion):
        col = [0] * n
        col[r + i] = order
        cols.append(col)
    return [[c[i] for c in cols] for i in range(n)]


def _generates_abelian(group, gens):
    # surjectivity: generated iff all SNF diagonal entries are 1
    n = group.free_rank + len(group.torsion)
    diagonal, _, _ = smith_normal_form(generator_relation_matrix(group, gens))
    return len(diagonal) >= n and all(d == 1 for d in diagonal[:n])


def stallings_graph(rank, words):
    """Folded based graph for the subgroup generated by the given words.

    Vertices are ints, base is 0; edges are (src, dst, label) with labels
    1..rank read in the positive direction.  Folds until no vertex has two
    equal-label edges in the same direction, then trims hanging trees.
    """
    edges = []
    nxt = 1
    for w in words:
        cur = 0
        for i, x in enumerate(w):
            last = i == len(w) - 1
            dst = 0 if last else nxt
            if not last:
                nxt += 1
            if x > 0:
                edges.append([cur, dst, x])
            else:
                edges.append([dst, cur, -x])
            cur = dst

    def fold_once():
        bysrc = {}
        for idx, (s, d, l) in enumerate(edges):
            key = (s, l, "out")
            if key in bysrc:
                return d, edges[bysrc[key]][1]
            bysrc[key] = idx
            key = (d, l, "in")
            if key in bysrc:
                return s, edges[bysrc[key]][0]
            bysrc[key] = idx
        return None

    while True:
        pair = fold_once()
        if pair is None:
            break
        a, b = pair
        if a != b:
            keep, drop = min(a, b), max(a, b)
            for e in edges:
                if e[0] == drop:
                    e[0] = keep
                if e[1] == drop:
                    e[1] = keep
        # identical parallel edges: drop duplicates
        seen = set()
        dedup = []
        for e in edges:
            k = tuple(e)
            if k not in seen:
                seen.add(k)
                dedup.append(e)
        edges[:] = dedup

    # trim non-base degree-1 vertices (spurs cannot carry reduced loops)
    while True:
        degree = {}
        for s, d, _ in edges:
            degree[s] = degree.get(s, 0) + 1
            degree[d] = degree.get(d, 0) + 1
        leaf = next((v for v, deg in degree.items() if deg == 1 and v != 0), None)
        if leaf is None:
            break
        edges[:] = [e for e in edges if e[0] != leaf and e[1] != leaf]
    return edges


def _generates_free(group, gens):
    edges = stallings_graph(group.rank, [g for g in gens if g])
    vertices = {0} | {e[0] for e in edges} | {e[1] for e in edges}
    if len(vertices) != 1:
        return False
    labels = {l for _, _, l in edges}
    return labels == set(range(1, group.rank + 1)) and len(edges) == group.rank


def generates(group, gens):
    """True iff the given elements generate the whole group."""
    gens = list(gens)
    if isinstance(group, FiniteTable):
        return _generates_finite(group, gens)
    if isinstance(group, FgAbelian):
        return _generates_abelian(group, gens)
    if isinstance(group, FreeGroup):
        return _generates_free(group, gens)
    raise GroupError("generation test unsupported for backend %r" % group)
