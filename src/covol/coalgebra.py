"""
Length-truncated path coalgebras, admissible subcoalgebras, minimal
elements, homogeneity under an arrow weighting, smash coproduct
coalgebras, and the explicit basis-level coalgebra isomorphisms between
a smash coproduct and the path coalgebra of the smash coproduct quiver.

A coalgebra-with-basis exposes `symbols()`, `coproduct(sym)` returning
(terms, truncated) with terms a list of (coeff, left, right), and
`counit(sym)`.  Window-truncated coproduct terms are flagged, never
silently dropped: every verifier skips symbols whose expansion hits the
window boundary.  `coproduct` raises `CoalgebraError` on an id outside
`range(dimension)`, and `verify_coalgebra_map` fails a symbol whose image
the target refuses.  Coproduct tables (`PathIndex`, smash) are read as
`table[i] or coproduct(i)` where i lies in range by construction.

Every coalgebra map is a basis map, a dict symbol -> symbol (psi, phi,
both projections and `twist_iso`'s map send each symbol to one symbol
with coefficient 1); `apply_map` takes a vector's image under one.

Zero rule for sparse sums: terms are added as `out[k] = out.get(k, 0) + v`
and no sum deletes a key; a finished sum keeps only its nonzero values
(`_nonzero`), and a verifier sums lhs - rhs in one dict and fails exactly
when a value is nonzero; `verify_coalgebra_map` sums only when the two term
lists differ, as equal lists have a zero difference.  Only the echelon in
`exactlin` deletes keys.
"""

from fractions import Fraction

from .exactlin import SparseVector, Subspace, _Echelon, finest_block_partition
from .quiver import Walk
from .voltage import path_weight, twist_weighting, weighting_from_lifting


_ONE = 1
_UNSET = object()  # a smash shift not computed yet


class CoalgebraError(ValueError):
    pass


def _no_symbol(coalgebra, sym):
    return CoalgebraError("no symbol %r in a %s of dimension %d"
                          % (sym, type(coalgebra).__name__, coalgebra.dimension))


def _nonzero(sums):
    """The nonzero values of a finished sparse sum, as a new dict."""
    return {k: v for k, v in sums.items() if v}


class PathIndex:
    """Stable enumeration of all paths of length <= truncation.

    Paths are (source, target, arrows) with arrows in traversal order;
    vertices are the length-0 paths and come first, then arrows, then
    longer paths generated in enumeration order.

    The index keeps one coproduct table, filled on first use by `_split`,
    that every coalgebra, closure and coproduct over it reads, and the
    images of its paths under the last covering asked (`_projection`).
    """

    def __init__(self, quiver, truncation):
        self.quiver = quiver
        self.truncation = truncation
        self.paths = []
        self._index = {}
        self.by_pair = {}
        for v in range(quiver.num_vertices()):
            self._append(v, v, ())
        frontier = list(range(len(self.paths)))
        for _ in range(truncation):
            nxt = []
            for i in frontier:
                src, tgt, arrows = self.paths[i]
                for a in quiver.out_arrows[tgt]:
                    nxt.append(self._append(src, quiver.target(a), arrows + (a,)))
            frontier = nxt
        self._coproducts = [None] * len(self.paths)
        self._images = None

    def _append(self, src, tgt, arrows):
        idx = len(self.paths)
        self.paths.append((src, tgt, arrows))
        key = arrows if arrows else ("v", src)
        self._index[key] = idx
        self.by_pair.setdefault((src, tgt), []).append(idx)
        return idx

    def __len__(self):
        return len(self.paths)

    def _path(self, i):
        """Path i as (source, target, arrows); refuses an id outside range."""
        if 0 <= i < len(self.paths):
            return self.paths[i]
        raise CoalgebraError("no path %r in an index of %d paths" % (i, len(self.paths)))

    def source(self, i):
        return self._path(i)[0]

    def target(self, i):
        return self._path(i)[1]

    def arrows(self, i):
        return self._path(i)[2]

    def length(self, i):
        return len(self._path(i)[2])

    def vertex_path(self, v):
        if isinstance(v, str):
            v = self.quiver.vertex_index[v]
        return self._index[("v", v)]

    def arrow_path(self, a):
        if isinstance(a, str):
            a = self.quiver.arrow_index[a]
        return self._index[(a,)]

    def prefix(self, i):
        """Index of path i without its last arrow (a vertex for an arrow),
        or None for a vertex.  It always precedes path i."""
        src, _, arrows = self._path(i)
        if not arrows:
            return None
        return self._index[arrows[:-1] if len(arrows) > 1 else ("v", src)]

    def path_of(self, arrows):
        """Index of the path with the given traversal-order arrows, or None."""
        return self._index.get(tuple(arrows))

    def from_names(self, names):
        """Path from arrow names in right-to-left display order; a bare
        vertex label gives the length-0 path."""
        if not names:
            raise CoalgebraError("empty path expression")
        if len(names) == 1 and names[0] in self.quiver.vertex_index:
            return self.vertex_path(names[0])
        arrows = [self.quiver.arrow_index[n] for n in reversed(names)]
        idx = self.path_of(arrows)
        if idx is None:
            raise CoalgebraError("path %s exceeds truncation %d" %
                                 (".".join(names), self.truncation))
        return idx

    def label(self, i):
        src, _, arrows = self._path(i)
        if not arrows:
            return self.quiver.vertices[src]
        return ".".join(self.quiver.arrow_name(a) for a in reversed(arrows))

    def weight(self, weighting, i):
        return path_weight(weighting, self._path(i)[2])

    def walk(self, i):
        """Path i as a walk of forward steps."""
        src, _, arrows = self._path(i)
        return Walk(self.quiver, src, tuple((a, 1) for a in arrows))

    def _split(self, i):
        """Fill and return path i's entry of the coproduct table: all its
        (later part, earlier part) splittings, including the two vertex
        boundary terms, as ([(1, later, earlier), ...], False); a vertex is
        group-like.  Read the table as `_coproducts[i] or _split(i)`; the
        entries are shared, so no caller may mutate them.  An index that
        is no path raises `CoalgebraError`."""
        if not 0 <= i < len(self.paths):
            raise CoalgebraError("no path %r in an index of %d paths" % (i, len(self.paths)))
        src, tgt, arrows = self.paths[i]
        index = self._index  # every part of an indexed path is indexed
        if not arrows:
            terms = [(_ONE, i, i)]
        else:
            terms = [(_ONE, index[("v", tgt)], i), (_ONE, i, index[("v", src)])]
            for k in range(1, len(arrows)):
                terms.append((_ONE, index[arrows[k:]], index[arrows[:k]]))
        entry = self._coproducts[i] = (terms, False)
        return entry


def counit_vector(pindex, vec):
    return sum((c for i, c in vec.items() if pindex.length(i) == 0), 0)


class TruncatedPathCoalgebra:
    """The full path coalgebra truncated by length; symbols are path
    indices.  `coproduct`, `counit` and `label` raise `CoalgebraError` on
    an id outside `range(dimension)`."""

    def __init__(self, pindex):
        self.pindex = pindex
        self._paths = pindex.paths
        self._table = pindex._coproducts

    def symbols(self):
        return list(range(len(self.pindex)))

    def coproduct(self, sym):
        try:
            entry = self._table[sym]
        except IndexError:
            entry = None
        if entry is not None and sym >= 0:  # a negative index reads from the end
            return entry
        return self.pindex._split(sym)

    def counit(self, sym):
        if 0 <= sym < len(self._paths):
            return 0 if self._paths[sym][2] else 1
        raise _no_symbol(self, sym)

    def label(self, sym):
        if 0 <= sym < len(self._paths):
            return self.pindex.label(sym)
        raise _no_symbol(self, sym)

    @property
    def dimension(self):
        return len(self.pindex)


class SubcoalgebraBasis:
    """Admissible subcoalgebra of a truncated path coalgebra.

    Stored as per-(source, target) RREF subspaces in global path
    coordinates.  Symbols are 0..dim-1 in (source, target, row) order; the
    coproduct is expanded in the tensor basis through pivot coordinates.
    `coproduct`, `counit`, `label`, `row_vector` and `row_endpoints` raise
    `CoalgebraError` on an id outside `range(dimension)`.  A row entry
    outside `range(N)`, N = len(pindex), is refused here, so the escape
    check's tensor key l * N + r is injective: its l and r are row entries
    or splitting-table ids, all in range(N).

    The escape check leaves out a pivot split (c, l, r) whose two rows are
    each the unit {p: 1} at their own pivot, as every vertex and arrow row
    of an admissible subcoalgebra is: the coproduct's c at key l * N + r
    and the rebuild's -c * 1 * 1, at that key alone, cancel exactly.  Every
    other factor, a non-unit or a hand-built {p: 2}, is rebuilt.
    """

    def __init__(self, pindex, spaces):
        self.pindex = pindex
        self.spaces = {k: v for k, v in spaces.items() if v.dimension}
        self.basis_rows = []
        self._pivot_of = {}  # pivot path -> symbol
        for pair in sorted(self.spaces):
            for k, p in enumerate(self.spaces[pair].pivots):
                self._pivot_of[p] = len(self.basis_rows)
                self.basis_rows.append((pair, k))
        self._rows = [self.spaces[pair].rows[k] for pair, k in self.basis_rows]
        n = len(pindex)
        if not all(0 <= i < n for row in self._rows for i in row.entries):
            raise CoalgebraError("a row holds a path outside an index of %d paths" % n)
        self._units = {p for p, sym in self._pivot_of.items() if self._rows[sym].entries == {p: 1}}
        self._coproduct_cache = {}
        self._counits = {}

    @property
    def dimension(self):
        return len(self.basis_rows)

    def symbols(self):
        return list(range(self.dimension))

    def row_vector(self, sym):
        if 0 <= sym < len(self._rows):
            return self._rows[sym]
        raise _no_symbol(self, sym)

    def row_endpoints(self, sym):
        if 0 <= sym < len(self.basis_rows):
            return self.basis_rows[sym][0]
        raise _no_symbol(self, sym)

    def label(self, sym):
        return vector_label(self.pindex, self.row_vector(sym))

    def _residual(self, vec):
        """Residual of vec after reducing through the spaces of the endpoint
        pairs in its support; pair spaces use disjoint coordinates."""
        residual, path = vec, self.pindex._path
        for pair in {path(i)[:2] for i in vec.entries}:
            if pair in self.spaces:
                residual = self.spaces[pair].reduce(residual)
        return residual

    def member(self, vec):
        return self._residual(vec).is_zero()

    def coordinates(self, vec):
        """Coefficients in the global basis order, or None if not a member.
        Rows are fully reduced, so a coefficient is vec's pivot entry."""
        if not self._residual(vec).is_zero():
            return None
        pivot_of = self._pivot_of
        return dict(sorted((pivot_of[p], c) for p, c in vec.items() if p in pivot_of))

    def coproduct(self, sym):
        if sym in self._coproduct_cache:
            return self._coproduct_cache[sym]
        if not 0 <= sym < self.dimension:
            raise _no_symbol(self, sym)
        rows, pivot_of, n = self._rows, self._pivot_of, len(self.pindex)
        units, table, split = self._units, self.pindex._coproducts, self.pindex._split
        diff, terms, rebuild = {}, [], []  # diff: Delta(row) at l * n + r, minus its rebuild
        for i, c in rows[sym].entries.items():  # a splitting composes to i, so none repeats
            for _, l, r in (table[i] or split(i))[0]:
                if l in pivot_of and r in pivot_of:
                    terms.append((c, pivot_of[l], pivot_of[r]))
                    if l in units and r in units:
                        continue  # +c and its rebuild -c * 1 * 1 cancel at this key
                    rebuild.append(terms[-1])
                diff[l * n + r] = c
        for coeff, sl, sr in rebuild:
            rvec = rows[sr].entries
            for i, a in rows[sl].entries.items():
                i *= n
                for j, b in rvec.items():
                    key = i + j
                    diff[key] = diff.get(key, 0) - coeff * a * b
        if any(diff.values()):
            raise CoalgebraError("coproduct escapes the subcoalgebra at %r"
                                 % self.label(sym))
        self._coproduct_cache[sym] = (terms, False)
        return self._coproduct_cache[sym]

    def counit(self, sym):
        e = self._counits.get(sym)
        if e is None:
            e = self._counits[sym] = counit_vector(self.pindex, self.row_vector(sym))
        return e


def subcoalgebra_closure(pindex, generators):
    """Smallest admissible subcoalgebra containing the generators: adds all
    vertices and arrows, then closes under one-sided coproduct components
    (rows and columns of the coproduct matrices).

    A worklist over one echelon: each vector is reduced once, and only a
    row that enlarged the span has its components queued.  Components are
    linear, so the rows added span a space closed under them.

    An admissible subcoalgebra contains kQ0 + kQ1, so the echelon starts
    with the unit of every vertex and arrow as its own row, reduced against
    nothing: distinct units share no column, so together they are in RREF,
    and a unit holds no column but its pivot, so no holder is recorded.
    The worklist then skips a component that already lies in the final
    span:
    - one supported on paths of length <= 1, the first |Q0| + |Q1| indices
      of a full index: those paths were added first;
    - one equal to the row just added: an endpoint-pure row is its own
      restriction to its target and to its source;
    - a second component {k: c} once one unit component at path k is
      queued: both are multiples of e_k, which the first adds.
    So the space is the one spanned without the skips, and the RREF rows,
    being unique, are the same.  The basis is read off the echelon in pivot
    order: a row's pivot, its least path, names the (source, target) pair
    that every entry must share, and the row joins that pair's space."""
    quiver, echelon = pindex.quiver, _Echelon()
    for p in [*map(pindex.vertex_path, range(quiver.num_vertices())),
              *map(pindex.arrow_path, range(quiver.num_arrows()))]:
        echelon.rows[p] = {p: 1}  # a unit holds no other column: no holders
    short = quiver.num_vertices() + quiver.num_arrows()
    work = list(generators)
    queued = set()  # paths k with a unit component {k: c} queued
    table, split = pindex._coproducts, pindex._split
    while work:
        row = echelon.add(work.pop())
        if row is None:
            continue
        entries = row.entries
        rows, cols = {}, {}
        for i, c in entries.items():  # a splitting composes to path i, so none repeats
            for _, l, r in (table[i] or split(i))[0]:
                rows.setdefault(l, {})[r] = c
                cols.setdefault(r, {})[l] = c
        for comp in (*rows.values(), *cols.values()):
            if max(comp) < short or comp == entries:
                continue
            if len(comp) == 1:
                (k,) = comp
                if k in queued:
                    continue
                queued.add(k)
            work.append(SparseVector._wrap(comp))
    paths, by_pair = pindex.paths, {}
    for p in sorted(echelon.rows):  # pivot order, so each pair's rows are its RREF
        row = echelon.rows[p]
        src, tgt, _ = paths[p]  # a row's pivot is its least path
        for i in row:
            if paths[i][0] != src or paths[i][1] != tgt:
                raise CoalgebraError("closure produced a mixed-endpoint element")
        rows, pivots = by_pair.setdefault((src, tgt), ([], []))
        rows.append(SparseVector._wrap(row))
        pivots.append(p)
    sub = SubcoalgebraBasis(pindex, {pair: Subspace(*rp) for pair, rp in by_pair.items()})
    for sym in sub.symbols():
        sub.coproduct(sym)  # raises if the span is not a subcoalgebra
    return sub


def full_subcoalgebra(pindex):
    """The whole truncated path coalgebra as a subcoalgebra.  Each
    (source, target) space is spanned by the units of its paths, which in
    increasing path order are its RREF: the basis `subcoalgebra_closure`
    of all units gives, built without the worklist."""
    sub = SubcoalgebraBasis(pindex, {
        pair: Subspace([SparseVector._wrap({i: 1}) for i in paths], list(paths))
        for pair, paths in pindex.by_pair.items()})
    for sym in sub.symbols():
        sub.coproduct(sym)  # raises if the span is not a subcoalgebra
    return sub


def minimal_partition(basis):
    """Per-(source, target) finest block partition of the supported paths,
    with one representative minimal element for every block of size >= 2:
    the block's first RREF row.  Every RREF row lies inside one block, so
    the block of a row is the block of its pivot."""
    out = {}
    for pair in sorted(basis.spaces):
        space = basis.spaces[pair]
        blocks = finest_block_partition(space)
        block_of = {c: n for n, block in enumerate(blocks) for c in block}
        reps = [None] * len(blocks)
        for row, p in zip(space.rows, space.pivots):
            n = block_of[p]
            if reps[n] is None and len(blocks[n]) >= 2:
                reps[n] = row
        out[pair] = list(zip(blocks, reps))
    return out


def _weigh_rows(basis, weighting):
    """(weights, mixed): the weight of each basis row in symbol order and
    None, or None and the symbol of the first row whose support mixes
    weights.  Each supported path is weighed once.  The one homogeneity
    rule in the package (see `is_homogeneous`).  A weighting on another
    quiver raises `CoalgebraError`: its weights would be read by index."""
    if not basis.pindex.quiver.same_as(weighting.quiver):
        raise CoalgebraError("the weighting is on another quiver than the subcoalgebra")
    weight, paths = {}, basis.pindex.paths  # supported path -> weight
    weights = []
    for sym in basis.symbols():
        entries = basis.row_vector(sym).entries
        for i in entries:
            if i not in weight:
                weight[i] = path_weight(weighting, paths[i][2])
        row = {weight[i] for i in entries}
        if len(row) > 1:
            return None, sym
        weights.append(row.pop())
    return weights, None


def is_homogeneous(basis, weighting, return_witness=False):
    """Homogeneity of a subcoalgebra D under an arrow weighting: D is the
    direct sum of its intersections D_g with the spans of the paths of
    weight g exactly when every RREF row of D has one weight.

    If D is homogeneous, so is each (source, target) space, and the union
    of the RREFs of its pieces D_g is a reduced echelon basis of that
    space, since the pieces sit on disjoint coordinates.  RREF is unique,
    so that union is the space's RREF: every row has one weight.
    Conversely, rows of one weight each span D by homogeneous elements.
    The witness on failure is the first basis row, in symbol order (over
    sorted pairs), whose support mixes weights.
    """
    _, mixed = _weigh_rows(basis, weighting)
    homogeneous = mixed is None
    if return_witness:
        return homogeneous, (None if homogeneous else basis.row_vector(mixed))
    return homogeneous


class SmashCoalgebra:
    """Smash coproduct of a graded coalgebra-with-basis and a group window.

    With base symbols 0..n-1, the symbol (c, g) is the int j * n + c, g the
    j-th window element, so verifiers and maps key on ints; `symbol(c, g)`
    encodes, `decode` decodes, and labels, JSON and witnesses decode.  The
    coproduct of (c, g) is the sum over base coproduct terms (c1, c2) of
    (c1, w(c2) g) tensor (c2, g); a term whose shifted element escapes the
    window is dropped and the symbol flagged truncated.  Each shift, the
    offset j' * n of w g or None outside the window, comes from a table,
    window index -> interned weight id, filled on first use: one product
    per distinct (weight, window element), and no group element hashed.
    `coproduct`, `counit`, `decode` and `label` raise `CoalgebraError` on
    an id outside `range(dimension)`.
    """

    def __init__(self, base, weight_of, group, window):
        self.base = base
        self.weight_of = weight_of
        self.group = group
        self.window = list(window)
        self.window_pos = {g: i for i, g in enumerate(self.window)}
        self._n = n = base.dimension
        ids = {}  # weight -> weight id
        self._weight_id = [ids.setdefault(weight_of(c), len(ids)) for c in range(n)]
        self._weights = list(ids)
        self._shifts = [[_UNSET] * len(ids) for _ in self.window]
        self.dimension = n * len(self.window)
        self._coproducts = [None] * self.dimension
        self._counits = [base.counit(c) for c in range(n)]

    def symbols(self):
        return range(self.dimension)

    def symbol(self, c, g):
        """The symbol (c, g), or None outside the window or the base."""
        j = self.window_pos.get(g)
        return None if j is None or not 0 <= c < self._n else j * self._n + c

    def decode(self, sym):
        """(base symbol, window element) of a symbol."""
        if not 0 <= sym < self.dimension:
            raise _no_symbol(self, sym)
        j, c = divmod(sym, self._n)
        return c, self.window[j]

    def coproduct(self, sym):
        try:
            entry = self._coproducts[sym]
        except IndexError:
            entry = None
        if entry is not None and sym >= 0:  # a negative id reads from the end
            return entry
        if not 0 <= sym < self.dimension:
            raise _no_symbol(self, sym)
        j, c = divmod(sym, self._n)
        at = sym - c
        shifts, weight_id = self._shifts[j], self._weight_id
        terms = []
        base_terms, truncated = self.base.coproduct(c)
        for coeff, c1, c2 in base_terms:
            shift = shifts[weight_id[c2]]
            if shift is _UNSET:
                shift = self._shift(j, weight_id[c2])
            if shift is None:
                truncated = True
            else:
                terms.append((coeff, shift + c1, at + c2))
        entry = self._coproducts[sym] = (terms, truncated)
        return entry

    def _shift(self, j, w):
        """Fill and return the shift of window index j by weight id w."""
        k = self.window_pos.get(self.group.multiply(self._weights[w], self.window[j]))
        shift = self._shifts[j][w] = None if k is None else k * self._n
        return shift

    def _interior(self):
        """The interior symbols (c, g) in order: those whose coproduct, and
        the coproducts of both factors of each of its terms, are untruncated.
        That holds exactly when reach(c) g lies in the window, which the
        shift table answers with no coproduct built.  Over the terms
        (c1, c2) of Delta c, reach(c) holds w(c2), w(e2) for (e1, e2) in
        Delta c2 and w(d2) w(c2) for (d1, d2) in Delta c1, as the factor
        (c1, w(c2) g) shifts by w(d2) (w(c2) g); it is None when a base
        coproduct it reads is truncated.  It is kept as sorted weight ids:
        each composite is multiplied once per (id, id) pair and interned
        with a shift-table column."""
        weight_id, weights, group, n = self._weight_id, self._weights, self.group, self._n
        interned = {g: w for w, g in enumerate(weights)}
        product = {}  # (id, id) -> id of the product
        base = [self.base.coproduct(c) for c in range(n)]
        right = [{weight_id[c2] for _, _, c2 in terms} for terms, _ in base]
        reach = []
        for c, (terms, truncated) in enumerate(base):
            out = set(right[c])
            for _, c1, c2 in terms:
                w2 = weight_id[c2]
                truncated = truncated or base[c1][1] or base[c2][1]
                out |= right[c2]
                for w1 in right[c1]:
                    if (w1, w2) not in product:
                        g = group.multiply(weights[w1], weights[w2])
                        product[w1, w2] = interned.setdefault(g, len(interned))
                    out.add(product[w1, w2])
            reach.append(None if truncated else sorted(out))
        weights.extend(list(interned)[len(weights):])
        interior = []
        for j, row in enumerate(self._shifts):
            row.extend([_UNSET] * (len(weights) - len(row)))
            for c, ids in enumerate(reach):
                if ids is None:
                    continue
                for w in ids:
                    shift = row[w]
                    if shift is None or shift is _UNSET and self._shift(j, w) is None:
                        break
                else:
                    interior.append(j * n + c)
        return interior

    def counit(self, sym):
        if 0 <= sym < self.dimension:
            return self._counits[sym % self._n]
        raise _no_symbol(self, sym)

    def label(self, sym):
        c, g = self.decode(sym)
        return "%s#%s" % (self.base.label(c), self.group.format(g))


def smash_coalgebra(basis, weighting, window):
    """Smash coproduct coalgebra of a homogeneous subcoalgebra, on the row
    weights of the homogeneity pass (the proof is in `is_homogeneous`).
    The first mixed row raises `CoalgebraError`, with its label as the
    error's `witness`."""
    weights, mixed = _weigh_rows(basis, weighting)
    if mixed is not None:
        label = basis.label(mixed)
        exc = CoalgebraError("basis row %r is not weight-homogeneous" % label)
        exc.witness = label
        raise exc
    return SmashCoalgebra(basis, weights.__getitem__, weighting.group, window)


def smash_path_coalgebra(pindex, weighting, window):
    """Smash coproduct of the full truncated path coalgebra."""
    base = TruncatedPathCoalgebra(pindex)
    weights = [path_weight(weighting, arrows) for _, _, arrows in pindex.paths]
    return SmashCoalgebra(base, weights.__getitem__, weighting.group, window)


# ---------------------------------------------------------------------------
# basis maps between coalgebras-with-basis: dicts symbol -> symbol


def apply_map(get, vec):
    """Image of a symbol-coefficient dict under the basis map with lookup
    `get`, or None when a symbol has no image.  Two symbols can land on
    one, so a sum with a zero is copied without it."""
    out = {}
    for sym, c in vec.items():
        t = get(sym)
        if t is None:
            return None
        out[t] = out.get(t, 0) + c
    return _nonzero(out) if 0 in out.values() else out


def compose_maps(second, first):
    """second o first on every symbol of first whose image lies in second's
    domain; the rest are skipped."""
    get = second.get
    return {sym: image for sym, t in first.items() if (image := get(t)) is not None}


def is_identity_map(f):
    """Whether every symbol maps to itself."""
    return all(sym == t for sym, t in f.items())


def coproduct_of_vector(coalgebra, vec):
    """Coproduct of a symbol-coefficient dict; (tensor dict, truncated)."""
    out = {}
    truncated = False
    for sym, c in vec.items():
        terms, t = coalgebra.coproduct(sym)
        truncated |= t
        for coeff, l, r in terms:
            key = (l, r)
            out[key] = out.get(key, 0) + c * coeff
    return _nonzero(out), truncated


def verify_coalgebra_map(f, source, target):
    """Check (f tensor f) . Delta = Delta . f and counit preservation of the
    basis map f on every symbol s with an image whose expansions avoid the
    window boundary on both sides: Delta(f(s)) minus the sum of coeff at
    (f(l), f(r)) over the terms of Delta(s) must vanish, and
    counit(f(s)) = counit(s).  A symbol with a factor outside f's domain
    is skipped; one whose image the target refuses (`CoalgebraError` from
    its coproduct) fails.  Where the mapped list [(coeff, f(l), f(r))] of
    Delta(s) equals Delta(f(s))'s term list (no symbol is None), the
    difference is zero and only the counits are compared: psi, phi and the
    projections map term to term.  Otherwise it is summed in one dict,
    whose tensor keys stay pairs, as l * D + r is not injective on
    out-of-range image ids.

    Returns (ok, witness symbol, checked count).
    """
    get = f.get
    source_coproduct, source_counit = source.coproduct, source.counit
    target_coproduct, target_counit = target.coproduct, target.counit
    checked = 0
    for sym in source.symbols():
        t = get(sym)
        if t is None:
            continue
        terms, truncated = source_coproduct(sym)
        if truncated:
            continue
        try:
            image_terms, truncated = target_coproduct(t)
        except CoalgebraError:
            return False, sym, checked
        if truncated:
            continue
        if [(coeff, get(l), get(r)) for coeff, l, r in terms] == image_terms:
            if target_counit(t) != source_counit(sym):
                return False, sym, checked
            checked += 1
            continue
        diff = {}  # Delta . f minus (f tensor f) . Delta
        dget = diff.get
        for coeff, l, r in image_terms:
            key = (l, r)
            diff[key] = dget(key, 0) + coeff
        for coeff, l, r in terms:
            il, ir = get(l), get(r)
            if il is None or ir is None:
                break
            key = (il, ir)
            diff[key] = dget(key, 0) - coeff
        else:
            if any(diff.values()) or target_counit(t) != source_counit(sym):
                return False, sym, checked
            checked += 1
    return True, None, checked


def coassociativity_ok(coalgebra):
    """Exact coassociativity and counit laws, skipping symbols whose
    two-level expansion hits the window boundary.  Returns (ok, witness,
    checked count).

    On a `SmashCoalgebra` only the interior symbols are read, as decided
    by `_interior` from reach(c) g with no coproduct built.  The sums run
    once per base symbol c, at its first interior symbol in symbol order,
    and each later interior (c, g') is counted and reads no coproduct.
    This is exact.  With no term truncated, the expansion of (c, g) is the
    smash formula in full: every key is ((a, h1 g), (b, h2 g), (d, h3 g)),
    with h1, h2, h3 and every coefficient read from the base alone.  Right
    translation by g^-1 g' is injective, so it maps the keys and
    coefficients at (c, g) one to one onto those at (c, g'), and the
    coassociator and the counit sums vanish at one exactly when they vanish
    at the other, for any base, weights and group backend (`FiniteTable`
    checks associativity when built).  So the witness and the count are
    those of a check at every symbol.  The limit: the certificate is for
    the smash formula.  `_interior` reads a shift entry only as None or
    not, and only the expansions of first interior symbols read it as an
    offset, so an entry damaged to another offset at a fiber that none of
    them reads goes unseen.  Other coalgebras are checked at every symbol.
    A smash term's factors are in range(dimension), so they are read as
    `table[l] or coproduct(l)`.
    """
    coproduct, counit = coalgebra.coproduct, coalgebra.counit
    symbols, table, n = coalgebra.symbols(), None, None
    if isinstance(coalgebra, SmashCoalgebra):
        symbols, table, n = coalgebra._interior(), coalgebra._coproducts, coalgebra._n
    held = set()  # base symbols whose laws held at their first interior symbol
    checked = 0
    for sym in symbols:
        if n is not None and sym % n in held:
            checked += 1
            continue
        terms, truncated = coproduct(sym)
        if truncated:
            continue
        diff = {}  # (Delta x id) Delta minus (id x Delta) Delta
        for coeff, l, r in terms:
            lt, t1 = coproduct(l) if table is None else table[l] or coproduct(l)
            rt, t2 = coproduct(r) if table is None else table[r] or coproduct(r)
            if t1 or t2:
                break
            for c2, a, b in lt:
                key = (a, b, r)
                diff[key] = diff.get(key, 0) + coeff * c2
            for c2, a, b in rt:
                key = (l, a, b)
                diff[key] = diff.get(key, 0) - coeff * c2
        else:
            if any(diff.values()):
                return False, sym, checked
            # counit laws: (eps x id) Delta - id = 0 = (id x eps) Delta - id
            lsum, rsum = {sym: -1}, {sym: -1}
            for coeff, l, r in terms:
                e = counit(l)
                if e:
                    lsum[r] = lsum.get(r, 0) + coeff * e
                e = counit(r)
                if e:
                    rsum[l] = rsum.get(l, 0) + coeff * e
            if any(lsum.values()) or any(rsum.values()):
                return False, sym, checked
            if n is not None:
                held.add(sym % n)
            checked += 1
    return True, None, checked


# ---------------------------------------------------------------------------
# explicit isomorphisms


def _projection(cover_pindex, base_pindex, morphism):
    """Base path index of the arrow-wise image of every cover path.  It
    does not depend on a lifting, so the cover index keeps the table with
    the (base index, morphism) pair it was built for, and builds it again
    only when asked about another pair."""
    held = cover_pindex._images
    if held is None or held[0] is not base_pindex or held[1] is not morphism:
        images = []
        for src, _, arrows in cover_pindex.paths:
            if not arrows:
                images.append(base_pindex.vertex_path(morphism.vertex_map[src]))
            else:
                images.append(base_pindex.path_of(
                    tuple(morphism.arrow_map[a] for a in arrows)))
        held = cover_pindex._images = (base_pindex, morphism, images)
    return held[2]


def cover_projection_map(cover_pindex, base_pindex, morphism):
    """Path-coalgebra map induced by a quiver covering: arrow-wise image."""
    return dict(enumerate(_projection(cover_pindex, base_pindex, morphism)))


def smash_projection_map(smash_coalg):
    """Canonical coalgebra map of a smash coproduct onto its base: forget
    the window coordinate."""
    n = smash_coalg.base.dimension
    return {sym: sym % n for sym in smash_coalg.symbols()}


def lift_paths(base_pindex, cover_pindex, lifts, starts):
    """The cover path id of the lift of every base path, in `PathIndex`
    order, or None where there is none: one table per start map, a
    sequence giving each base vertex's cover vertex or None.

    A vertex u lifts to start[u].  `PathIndex` puts every prefix before
    its one-arrow extensions, so a longer path extends its prefix's lift
    by the unique `lifts(end, a, 1)` of its last arrow a; a path whose
    prefix did not lift, or whose last arrow has no unique lift there, has
    none.  The one lifting rule of phi and of the lifted subcoalgebra."""
    base_paths, cover_paths = base_pindex.paths, cover_pindex.paths
    prefix = [base_pindex.prefix(i) for i in range(len(base_paths))]
    path_of, vertex_path = cover_pindex.path_of, cover_pindex.vertex_path
    tables = []
    for start in starts:
        lifted = [None] * len(base_paths)
        for i, (src, _, arrows) in enumerate(base_paths):
            if not arrows:
                v = start[src]
                if v is not None:
                    lifted[i] = vertex_path(v)
                continue
            p = lifted[prefix[i]]
            if p is None:
                continue
            _, end, path = cover_paths[p]
            candidates = lifts(end, arrows[-1], 1)
            if len(candidates) == 1:
                lifted[i] = path_of(path + candidates)
        tables.append(lifted)
    return tables


def covering_coalgebra_iso(cover, lifting, base_pindex, cover_pindex, window):
    """The mutually inverse coalgebra isomorphisms between the truncated
    path coalgebra of a Galois cover and the smash coproduct built from a
    lifting.

    Returns (psi, phi, smash_coalgebra, induced weighting) where
    psi: cover paths -> smash symbols sends a path to the symbol of (its
    projection, deck displacement of its start from the lifted start), and
    phi: smash symbols -> cover paths lifts a path at the deck translate
    of the lifted source; at the canonical lifting of a smash quiver it is
    the basis bijection (p, g) -> the lift of p through the window fiber g.
    Both are partial near the window boundary.

    The deck displacement depends only on a path's source, so psi computes
    it once per cover vertex; psi's projection is the cover index's table
    (`_projection`), built once for all liftings.  phi is `lift_paths`
    from the translate by each window element of the lifting; it reads
    only the deck action and the unique-lift index, never psi.
    """
    group = cover.group
    morphism = cover.morphism
    induced = weighting_from_lifting(cover, lifting)
    smash_coalg = smash_path_coalgebra(base_pindex, induced, window)
    n_base, n_vertices = len(base_pindex), morphism.codomain.num_vertices()

    lifted_inverse = [group.inverse(cover.deck_of(lifting[u]))
                      for u in range(n_vertices)]
    # symbol(image, sigma) = symbol(0, sigma) + image, one offset per cover vertex
    offset = [smash_coalg.symbol(0, group.multiply(lifted_inverse[u], cover.deck_of(v)))
              for v, u in enumerate(morphism.vertex_map)]
    cover_paths = cover_pindex.paths
    projection = _projection(cover_pindex, base_pindex, morphism)
    psi = {i: at + image for i, image in enumerate(projection)
           if (at := offset[cover_paths[i][0]]) is not None}

    tables = lift_paths(base_pindex, cover_pindex, morphism.lifts,
                        [[cover.act_vertex(lifting[u], g) for u in range(n_vertices)]
                         for g in window])
    phi = {gi * n_base + i: idx for gi, lifted in enumerate(tables)
           for i, idx in enumerate(lifted) if idx is not None}
    return psi, phi, smash_coalg, induced


def twist_iso(base_pindex, weighting, vertex_weighting, window):
    """Coalgebra isomorphism between the smash coproducts over a weighting
    and its twist: (p, g) maps to (p, gamma(s(p))^-1 g).

    Returns (map, source smash, target smash, twisted weighting).
    """
    group = weighting.group
    source = smash_path_coalgebra(base_pindex, weighting, window)
    twisted = twist_weighting(weighting, vertex_weighting)
    target = smash_path_coalgebra(base_pindex, twisted, window)
    tmap = {}
    for sym in source.symbols():
        i, g = source.decode(sym)
        shifted = target.symbol(i, group.multiply(
            group.inverse(vertex_weighting.of(base_pindex.source(i))), g))
        if shifted is not None:
            tmap[sym] = shifted
    return tmap, source, target, twisted


# ---------------------------------------------------------------------------
# JSON

def rational_str(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (
        c.numerator, c.denominator)


def vector_label(pindex, vec):
    """Display form of a path vector, e.g. "a.c+-1*b.c"; "0" when zero."""
    parts = []
    for i in sorted(vec.support()):
        c = vec[i]
        txt = pindex.label(i)
        parts.append(txt if c == 1 else "%s*%s" % (rational_str(c), txt))
    return "+".join(parts) if parts else "0"


def subcoalgebra_to_json(basis):
    spaces = []
    for pair in sorted(basis.spaces):
        space = basis.spaces[pair]
        rows = []
        for row in space.rows:
            rows.append([{"path": list(basis.pindex.arrows(i)),
                          "coeff": rational_str(row[i])}
                         for i in sorted(row.support())])
        spaces.append({
            "source": basis.pindex.quiver.vertices[pair[0]],
            "target": basis.pindex.quiver.vertices[pair[1]],
            "rows": rows,
        })
    return {
        "schema": 1,
        "truncation": basis.pindex.truncation,
        "dimension": basis.dimension,
        "spaces": spaces,
    }
