"""The covering test and the spans of liftings before the endpoint test
and the lifted rows: the three-certificate test (`oracle_is_coalgebra_covering`:
common endpoint, membership, minimality by rank or by enumerating subsums)
over the lifts `span_of_liftings` kept (`oracle_lifts`); the span over the
identity fiber alone, in a cover index rooted there (`oracle_identity_span`);
and the windowed span, the RREF of every lift cut into pairs on its finest
block partition (`oracle_windowed_span`).  Copied at 060baf6 from
`covol/covering.py` as it stood at 584af09 (`_is_minimal_in` and
`_has_member_subsum` verbatim), and `oracle_windowed_span` at 6d78d7c from
`covol/covering.py` as it stood at e98b432."""

from covol.coalgebra import CoalgebraError, PathIndex, SparseVector
from covol.covering import CoalgebraCovering
from covol.exactlin import Subspace, finest_block_partition, rref
from covol.voltage import smash_quiver

from oracles.intersection import intersect_coordinates
from oracles.iso_pair import _lift_vector


class RootedPathIndex(PathIndex):
    """The path index rooted at `sources`: only the paths starting at those
    vertices, in the same relative order as in the full index.  It is not
    closed under splitting (a later part starts elsewhere), so `_split`
    refuses it."""

    def __init__(self, quiver, truncation, sources):
        self.quiver = quiver
        self.truncation = truncation
        self.paths = []
        self._index = {}
        self.by_pair = {}
        for v in sorted(sources):
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

    def _split(self, i):
        raise CoalgebraError("a rooted path index is not closed under splitting")


def _cut_into_pairs(generators, cover_pindex):
    """The span of the generators cut into its (source, target) pieces on
    its finest block partition, as `span_of_liftings` cuts it."""
    total = rref(generators)
    blocks = finest_block_partition(total)
    block_of = {c: n for n, block in enumerate(blocks) for c in block}
    block_rows = [[] for _ in blocks]
    for row, p in zip(total.rows, total.pivots):
        block_rows[block_of[p]].append(row)
    pieces = {}
    for block, rows in zip(blocks, block_rows):
        coords = {}
        for c in block:
            pair = (cover_pindex.source(c), cover_pindex.target(c))
            coords.setdefault(pair, []).append(c)
        if len(coords) == 1:
            pieces.setdefault(next(iter(coords)), []).extend(rows)
            continue
        space = Subspace(rows, [row.leading() for row in rows])
        for pair, cs in coords.items():
            pieces.setdefault(pair, []).extend(intersect_coordinates(space, cs).rows)
    return {pair: Subspace(sorted(rows, key=SparseVector.leading),
                           sorted(row.leading() for row in rows))
            for pair, rows in sorted(pieces.items()) if rows}


def oracle_reach_set(base, weighting):
    """The fibers that lifts from the identity fiber pass through, identity
    first: the weight w(a_k)...w(a_1) of every prefix of every path in the
    base's row supports, and w(a) and w(a)^-1 for each arrow, which keep
    every vertex (v, e) interior."""
    group = weighting.group
    reach = {group.identity(): None}
    for g in weighting.assignment.values():
        reach.update({g: None, group.inverse(g): None})
    for space in base.spaces.values():
        for row in space.rows:
            for i in row.support():
                g = group.identity()
                for a in base.pindex.arrows(i):
                    g = group.multiply(weighting.of(a), g)
                    reach[g] = None
    return list(reach)


def oracle_identity_span(base, weighting):
    """`span_of_liftings` without a window: the base's rows lifted as they
    stand from the identity fiber, over the smash quiver on `oracle_reach_set`,
    into a cover index rooted at the identity fiber."""
    quiver = base.pindex.quiver
    identity = weighting.group.identity()
    smash_q = smash_quiver(quiver, weighting, oracle_reach_set(base, weighting))
    cover_pindex = RootedPathIndex(smash_q.quiver, base.pindex.truncation,
                                   [smash_q.vertex_of(v, identity)
                                    for v in range(quiver.num_vertices())])
    generators = [_lift_vector(smash_q, cover_pindex, base.pindex, base.row_vector(sym),
                               identity) for sym in base.symbols()]
    return CoalgebraCovering(smash_q, base, cover_pindex,
                             _cut_into_pairs(generators, cover_pindex), [identity])


def oracle_windowed_span(base, weighting, window):
    """`span_of_liftings` before it kept each pair's lifted rows as they
    stand: the RREF of every lift through every fiber of the window, cut
    into pairs on its finest block partition (`_cut_into_pairs`)."""
    fibers = list(window)
    smash_q = smash_quiver(base.pindex.quiver, weighting, fibers)
    cover_pindex = PathIndex(smash_q.quiver, base.pindex.truncation)
    generators = []
    for sym in base.symbols():
        vec = base.row_vector(sym)
        for g in fibers:
            lifted = _lift_vector(smash_q, cover_pindex, base.pindex, vec, g)
            if lifted is not None:
                generators.append(lifted)
    return CoalgebraCovering(smash_q, base, cover_pindex,
                             _cut_into_pairs(generators, cover_pindex), fibers)


def oracle_minimal_rows(basis):
    """Every RREF row with support of size >= 2, as (endpoint pair, row)."""
    out = []
    for sym in basis.symbols():
        row = basis.row_vector(sym)
        if len(row.support()) >= 2:
            out.append((basis.row_endpoints(sym), row))
    return out


def oracle_lifts(cov):
    """The lifts `span_of_liftings` kept for the covering test: (row, cover
    start vertex, lift) for each row of support >= 2 and each fiber it
    lifts through, in (symbol, fiber) order."""
    base, smash_q = cov.base, cov.smash
    out = []
    for (src, _), rep in oracle_minimal_rows(base):
        for g in cov.fibers:
            lifted = _lift_vector(smash_q, cov.cover_pindex, base.pindex, rep, g)
            if lifted is not None:
                out.append((rep, smash_q.vertex_of(src, g), lifted))
    return out


def _is_minimal_in(space, vec):
    """No proper nonempty subsum of vec, a member of the space, lies in it.
    Such subsums lie in the space's intersection with the coordinates of
    vec's support; when that is one-dimensional it is vec's span."""
    local = intersect_coordinates(space, vec.support())
    return local.dimension == 1 or not _has_member_subsum(local, vec)


def _has_member_subsum(space, vec):
    """Whether a proper nonempty subsum of vec, a member of the space, lies
    in it.  A subsum is a member iff its complement is, so the subsums
    without the last coordinate suffice."""
    support = sorted(vec.support())
    n = len(support)
    return any(space.member(SparseVector({support[i]: vec[support[i]]
                                          for i in range(n) if (mask >> i) & 1}))
               for mask in range(1, 2 ** (n - 1)))


def oracle_is_coalgebra_covering(cov):
    """Every minimal element of the base lifts to a minimal element of the
    lifted span at every fiber of `cov.fibers` where its support paths
    materialize: common endpoint, membership, and minimality.  Quantifies
    over every base row of support >= 2 (a block can carry several), each
    a minimal element, through the lifts `span_of_liftings` kept
    (`oracle_lifts`).  Returns (ok, witness) with witness = (minimal element,
    fiber vertex) on failure."""
    cover_pindex = cov.cover_pindex
    for rep, start, candidate in oracle_lifts(cov):
        ends = {cover_pindex.target(i) for i in candidate.support()}
        space = cov.lifted_spans.get((start, ends.pop())) if len(ends) == 1 else None
        if space is None or not space.member(candidate) \
                or not _is_minimal_in(space, candidate):
            return False, (rep, start)
    return True, None
