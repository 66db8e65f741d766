"""Differential test of the endpoint covering test and of the row rule
for homogeneity that `is_homogeneous` and `smash_coalgebra` share.

`is_coalgebra_covering` and `covering_crosscheck` decide the covering
property from where the lifts of the base's rows of support >= 2 end.
The three-certificate test that preceded them (common endpoint,
membership in the pair's span, minimality by rank or by enumerating
subsums) is copied below as the oracle, with the lifts that
`span_of_liftings` used to keep.  So is the span over the identity fiber
alone, on a rooted cover index that holds only the paths leaving that
fiber, and, before it, over a cover index on every fiber of the reach set
(lifting the unit vectors of every member path plus the rows of support
>= 2).  Cover indices differ, so lifted spans are compared by (cover
source vertex, cover arrow tuple).  Both full spans lift rows of support
1 too, so they run over `oracle_reach_set`, the reach set that also held
the prefix weights of those rows' paths; `reach_set` now holds only what
the crosscheck walks, and a property test checks that it is a subset of
the oracle's on which every lift it walks stays.

The proof that only the endpoint certificate can fail is checked as a
test: every single-endpoint lift is a member of its pair's span, and the
span meets the coordinates of its support in one dimension.

`is_homogeneous` and `smash_coalgebra` decide homogeneity by whether
every RREF row has one weight.  The dimension count it replaced (the
dimension of each pair's space against the sum of its intersections with
the coordinates of each weight) is copied below as the oracle, verdict
and witness; so are the `smash_coalgebra` that ran `is_homogeneous`
before weighing the rows and its `row_weight`.  Hand-built bases cover a
pair of two weights whose rows each have one, and a mixed row that is
not the first of its pair.  No `intersect_coordinates` is left in the
package, and a spy on the echelon shows that homogeneity, the crosscheck
and the span of liftings add no row to one.

`span_of_liftings` keeps each pair's lifted rows as they stand.  The
function it replaced (the RREF of every lift, cut into pairs on its
finest block partition, intersecting each block that straddles pairs) is
kept as `oracle_windowed_span`, on the same block split as the
identity-fiber oracles (`_cut_into_pairs`).
"""

import importlib.resources as resources
import itertools
import random

import pytest

from covol import cli, coalgebra, covering, exactlin
from covol.coalgebra import CoalgebraError, PathIndex, SmashCoalgebra, SparseVector, \
    is_homogeneous, smash_coalgebra, subcoalgebra_closure, vector_label
from covol.covering import CoalgebraCovering, covering_crosscheck, \
    is_coalgebra_covering, reach_set, span_of_liftings
from covol.exactlin import Subspace, finest_block_partition, rref
from covol.fixtures import all_fixtures, double_loop_fixture, sl2_fixture, tri_fixture
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver, spanning_tree_pi1
from covol.voltage import ArrowWeighting, smash_quiver, window_ball

from intersection_oracle import intersect_coordinates
from iso_pair_oracle import _lift_vector


def oracle_all_path_symbols(base):
    """Path indices whose unit vectors lie in the subcoalgebra."""
    out = []
    for pair, space in sorted(base.spaces.items()):
        for i in base.pindex.by_pair.get(pair, []):
            if space.member(SparseVector.unit(i)):
                out.append(i)
    return out


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


def oracle_span_of_liftings(base, weighting):
    """The identity-fiber span over the full reach-set cover index, lifting
    member path units and the rows of support >= 2."""
    identity = weighting.group.identity()
    smash_q = smash_quiver(base.pindex.quiver, weighting, oracle_reach_set(base, weighting))
    cover_pindex = PathIndex(smash_q.quiver, base.pindex.truncation)
    vectors = [SparseVector.unit(i) for i in oracle_all_path_symbols(base)]
    vectors += [row for row in map(base.row_vector, base.symbols())
                if len(row.support()) >= 2]
    generators = [lifted for lifted in (
        _lift_vector(smash_q, cover_pindex, base.pindex, vec, identity)
        for vec in vectors) if lifted is not None]
    return CoalgebraCovering(smash_q, base, cover_pindex,
                             _cut_into_pairs(generators, cover_pindex), [identity])


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


def row_weight(basis, weighting, sym):
    """Weight of a basis row of a homogeneous subcoalgebra.  A row whose
    support mixes weights raises `CoalgebraError` with the row's label as
    its `witness`."""
    weights = {basis.pindex.weight(weighting, i)
               for i in basis.row_vector(sym).support()}
    if len(weights) != 1:
        label = basis.label(sym)
        exc = CoalgebraError("basis row %r is not weight-homogeneous" % label)
        exc.witness = label
        raise exc
    return next(iter(weights))


def oracle_smash_coalgebra(basis, weighting, window):
    """The smash coalgebra behind an `is_homogeneous` pre-pass."""
    ok, witness = is_homogeneous(basis, weighting, return_witness=True)
    if not ok:
        raise CoalgebraError("subcoalgebra is not homogeneous; witness %r"
                             % {basis.pindex.label(i): str(witness[i])
                                for i in sorted(witness.support())})
    weights = {sym: row_weight(basis, weighting, sym) for sym in basis.symbols()}
    return SmashCoalgebra(basis, lambda s: weights[s], weighting.group, window)


def oracle_is_homogeneous(basis, weighting):
    """The dimension count: one intersection per (pair, weight), witness
    from every pair."""
    total = 0
    witness = None
    for pair, space in sorted(basis.spaces.items()):
        supported = set()
        for row in space.rows:
            supported |= row.support()
        by_weight = {}
        for i in sorted(supported):
            w = basis.pindex.weight(weighting, i)
            by_weight.setdefault(w, set()).add(i)
        for w in by_weight:
            total += intersect_coordinates(space, by_weight[w]).dimension
        if witness is None:
            for row in space.rows:
                weights = {basis.pindex.weight(weighting, i) for i in row.support()}
                if len(weights) > 1:
                    witness = row
                    break
    homogeneous = total == basis.dimension
    return homogeneous, (None if homogeneous else witness)


def _s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteTable([[index[tuple(a[b[k]] for k in range(3))] for b in perms]
                        for a in perms])


def _backends():
    """(group, weight sampler) for Z, Z/5, S3, Z^2 and free(2)."""
    z, z5, z2, f2, s3 = FgAbelian(1), FgAbelian(0, (5,)), FgAbelian(2), FreeGroup(2), _s3()
    f2_letters = [f2.identity(), f2.generator(0), f2.generator(1),
                  f2.inverse(f2.generator(0)), f2.inverse(f2.generator(1))]
    return [
        (z, lambda rng: z.element(free=[rng.randint(-1, 1)])),
        (z5, lambda rng: z5.element(torsion=[rng.randrange(5)])),
        (s3, lambda rng: rng.randrange(6)),
        (z2, lambda rng: z2.element(free=[rng.randint(0, 1), rng.randint(0, 1)])),
        (f2, lambda rng: rng.choice(f2_letters)),
    ]


def _quivers():
    return [
        sl2_fixture(4).quiver,
        tri_fixture("ac").quiver,
        double_loop_fixture().quiver,
        Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
    ]


def _parallel_sums(rng, pindex):
    """Closure of two combinations of 2-3 parallel paths."""
    gens = []
    for _ in range(2):
        pair = rng.choice(sorted(pindex.by_pair))
        same = [i for i in pindex.by_pair[pair] if pindex.length(i)]
        support = rng.sample(same, min(len(same), rng.randint(2, 3)))
        gens.append(SparseVector({i: rng.choice([1, 2, -1]) for i in support}))
    return subcoalgebra_closure(pindex, gens)


def _instances(truncation=2):
    """(base, weighting) for every fixture, then seeded random instances on
    every backend, homogeneous or not, at the given truncation."""
    out = [(fx.basis, fx.weighting) for fx in all_fixtures()]
    rng = random.Random(1311)
    for quiver in _quivers():
        pindex = PathIndex(quiver, truncation)
        for group, sample in _backends():
            for _ in range(6):
                w = ArrowWeighting(quiver, group, {a: sample(rng)
                                                   for a in range(quiver.num_arrows())})
                out.append((_parallel_sums(rng, pindex), w))
    return out


def _keyed_spans(cov):
    """Lifted spans with every cover path named by (source vertex, arrows)."""
    pindex = cov.cover_pindex

    def key(i):
        return pindex.source(i), pindex.arrows(i)

    return {pair: ([{key(i): c for i, c in row.items()} for row in space.rows],
                   [key(p) for p in space.pivots])
            for pair, space in cov.lifted_spans.items()}


def test_rooted_cover_matches_full_reach_set_cover():
    verdicts, smaller = set(), 0
    for base, weighting in _instances():
        got = oracle_identity_span(base, weighting)
        want = oracle_span_of_liftings(base, weighting)
        identity = weighting.group.identity()
        full, rooted = want.cover_pindex, got.cover_pindex
        assert isinstance(rooted, RootedPathIndex) and not isinstance(full, RootedPathIndex)
        assert rooted.paths == [path for path in full.paths
                                if got.smash.fiber_coordinate(path[0]) == identity]
        smaller += len(rooted) < len(full)
        assert _keyed_spans(got) == _keyed_spans(want)
        assert got.lifted_dimension == want.lifted_dimension
        verdict = is_coalgebra_covering(got)
        assert verdict == oracle_is_coalgebra_covering(want)
        # the crosscheck's covering test, on the same smash quiver and fiber
        pres = spanning_tree_pi1(base.pindex.quiver, 0)
        assert covering_crosscheck(base, weighting, pres)["coveringOK"] == verdict[0]
        verdicts.add(verdict[0])
        for i in range(len(rooted)):
            with pytest.raises(CoalgebraError):
                rooted._split(i)
    assert verdicts == {True, False} and smaller


def test_reach_set_holds_every_lift_the_crosscheck_walks():
    """`reach_set` is a subset of `oracle_reach_set`, identity first, and
    the lift from the identity fiber of every path of every row of support
    >= 2 stays on the smash quiver over it, where every (v, e) is
    interior.  Truncation 3 gives rows with paths of length 3, whose middle
    prefix weight no arrow weight stands in for."""
    smaller = walked = 0
    for base, weighting in _instances() + _instances(3):
        identity = weighting.group.identity()
        reach, old = reach_set(base, weighting), oracle_reach_set(base, weighting)
        assert reach[0] == identity and len(set(reach)) == len(reach)
        assert set(reach) <= set(old)
        smaller += len(reach) < len(old)
        smash_q = smash_quiver(base.pindex.quiver, weighting, reach)
        assert smash_q.interior_vertices >= {
            smash_q.vertex_of(v, identity) for v in range(base.pindex.quiver.num_vertices())}
        for sym in base.symbols():
            row = base.row_vector(sym)
            if len(row.entries) < 2:
                continue
            for i in row.entries:
                assert smash_q.lift_arrows(base.pindex.arrows(i), identity) is not None
                walked += 1
    assert smaller and walked


def test_row_rule_matches_dimension_count():
    single = several = homogeneous_several = 0
    verdicts = set()
    for base, weighting in _instances():
        ok, witness = is_homogeneous(base, weighting, return_witness=True)
        assert (ok, witness) == oracle_is_homogeneous(base, weighting)
        assert is_homogeneous(base, weighting) == ok
        verdicts.add(ok)
        for space in base.spaces.values():
            weights = {base.pindex.weight(weighting, i)
                       for row in space.rows for i in row.support()}
            single += len(weights) == 1
            several += len(weights) > 1
            homogeneous_several += ok and len(weights) > 1
    assert verdicts == {True, False}
    assert single and several and homogeneous_several


def _spans_to_check(n, base, weighting):
    """Identity-fiber spans on every instance, windowed spans on every
    fixture at radii 1-4 and on every instance at radius 2."""
    fixtures = len(all_fixtures())  # _instances() lists the fixtures first
    radii = [1, 2, 3, 4] if n < fixtures else [2]
    return [oracle_identity_span(base, weighting)] + [
        span_of_liftings(base, weighting, window_ball(weighting.group, r)) for r in radii]


def test_kept_lifts_match_lifting_again():
    verdicts, kept, windowed = set(), 0, 0
    for n, (base, weighting) in enumerate(_instances()):
        for cov in _spans_to_check(n, base, weighting):
            verdict = is_coalgebra_covering(cov)
            assert verdict == oracle_is_coalgebra_covering(cov)
            rows = [base.row_vector(sym) for sym in base.symbols()
                    if len(base.row_vector(sym).support()) >= 2]
            lifts = oracle_lifts(cov)
            assert [rep for rep, _, _ in lifts] == \
                [row for row in rows for g in cov.fibers
                 if _lift_vector(cov.smash, cov.cover_pindex, base.pindex, row, g)
                 is not None]
            # a lift ends at one cover vertex exactly when its row has one weight
            for rep, _, lift in lifts:
                ends = {cov.cover_pindex.target(i) for i in lift.support()}
                weights = {base.pindex.weight(weighting, i) for i in rep.support()}
                assert (len(ends) == 1) == (len(weights) == 1)
            verdicts.add(verdict[0])
            kept += len(lifts)
            windowed += not isinstance(cov.cover_pindex, RootedPathIndex)
    assert verdicts == {True, False} and kept and windowed


def test_single_endpoint_lifts_are_minimal_members():
    """The proof that only the endpoint certificate can fail: on every
    windowed span, each lift of a row of support >= 2 that ends at one
    cover vertex is a member of its pair's span, which meets the
    coordinates of its support in one dimension."""
    single = mixed = 0
    for n, (base, weighting) in enumerate(_instances()):
        for cov in _spans_to_check(n, base, weighting)[1:]:
            for _, start, lift in oracle_lifts(cov):
                ends = {cov.cover_pindex.target(i) for i in lift.support()}
                if len(ends) > 1:
                    mixed += 1
                    continue
                space = cov.lifted_spans[(start, ends.pop())]
                assert space.member(lift)
                assert intersect_coordinates(space, lift.support()).dimension == 1
                single += 1
    assert single and mixed


def test_smash_coalgebra_raises_exactly_when_inhomogeneous():
    raised = built = 0
    for base, weighting in _instances():
        window = window_ball(weighting.group, 1)
        ok, witness = is_homogeneous(base, weighting, return_witness=True)
        if not ok:
            with pytest.raises(CoalgebraError) as err:
                smash_coalgebra(base, weighting, window)
            assert repr(vector_label(base.pindex, witness)) in str(err.value)
            raised += 1
            continue
        got = smash_coalgebra(base, weighting, window)
        want = oracle_smash_coalgebra(base, weighting, window)
        assert got.symbols() == want.symbols()
        for sym in want.symbols():
            assert got.coproduct(sym) == want.coproduct(sym)
            c, _ = want.decode(sym)
            assert got.weight_of(c) == want.weight_of(c)
        built += 1
    assert raised and built


def _parallel_then_one(*generators):
    """The closure of generators (lists of paths, each a list of arrow
    names in label order, summed with coefficient 1) in x -> y with
    arrows a, b, c followed by d: y -> z, at truncation 2, and the Z
    weighting a = b = d = 0, c = 1.  Every arrow is in the closure, so a
    generator's pair is (x, z)."""
    z = FgAbelian(1)
    quiver = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "x", "y"),
                                      ("c", "x", "y"), ("d", "y", "z")])
    pindex = PathIndex(quiver, 2)
    weighting = ArrowWeighting(quiver, z, {a: z.element(free=[int(a == 2)])
                                           for a in range(4)})
    vectors = [SparseVector({pindex.from_names(names): 1 for names in paths})
               for paths in generators]
    return subcoalgebra_closure(pindex, vectors), weighting


def test_row_rule_on_hand_built_bases():
    # one pair carries two weights and every row has one: homogeneous
    base, weighting = _parallel_then_one([["d", "a"], ["d", "b"]], [["d", "c"]])
    rows = base.spaces[(0, 2)].rows
    assert [vector_label(base.pindex, row) for row in rows] == ["d.a+d.b", "d.c"]
    assert len({base.pindex.weight(weighting, i)
                for row in rows for i in row.support()}) == 2
    assert is_homogeneous(base, weighting, return_witness=True) == (True, None)
    assert oracle_is_homogeneous(base, weighting) == (True, None)
    smash = smash_coalgebra(base, weighting, window_ball(weighting.group, 1))
    assert [smash.weight_of(sym) for sym in base.symbols()
            if base.row_endpoints(sym) == (0, 2)] == \
        [weighting.group.element(free=[w]) for w in (0, 1)]
    # the only mixed row is the second row of its pair
    base, weighting = _parallel_then_one([["d", "a"]], [["d", "b"], ["d", "c"]])
    rows = base.spaces[(0, 2)].rows
    assert [vector_label(base.pindex, row) for row in rows] == ["d.a", "d.b+d.c"]
    ok, witness = is_homogeneous(base, weighting, return_witness=True)
    assert (ok, witness) == oracle_is_homogeneous(base, weighting) == (False, rows[1])
    with pytest.raises(CoalgebraError) as err:
        smash_coalgebra(base, weighting, window_ball(weighting.group, 1))
    assert err.value.witness == "d.b+d.c"


def test_homogeneity_intersects_nothing(monkeypatch, tmp_path, capsys):
    """No `intersect_coordinates` is left in the package, and `covering`
    binds no `rref`.  A spy on the echelon shows that `is_homogeneous`,
    `covering_crosscheck` and the windowed span of liftings add no row to
    one; `cmd_homog` still runs on every shipped fixture."""
    for module in (exactlin, covering, coalgebra):
        assert not hasattr(module, "intersect_coordinates")
    assert not hasattr(covering, "rref")
    calls = []
    real = exactlin._Echelon.add

    def spy(self, vec):
        calls.append(vec)
        return real(self, vec)

    instances = _instances()  # their closures add rows
    monkeypatch.setattr(exactlin._Echelon, "add", spy)
    spans = 0
    for base, weighting in instances:
        is_homogeneous(base, weighting, return_witness=True)
        covering_crosscheck(base, weighting, spanning_tree_pi1(base.pindex.quiver, 0))
        spans += bool(span_of_liftings(base, weighting,
                                       window_ball(weighting.group, 2)).lifted_spans)
    assert calls == [] and spans == len(instances)
    monkeypatch.undo()
    for fx in all_fixtures():
        path = tmp_path / ("%s.cov" % fx.name)
        path.write_text((resources.files("covol") / "fixtures" / path.name).read_text())
        assert cli.main(["homog", str(path)]) == 0
    capsys.readouterr()
