"""Differential test of the endpoint covering test and of the row rule
for homogeneity that `is_homogeneous` and `smash_coalgebra` share.

`is_coalgebra_covering` and `covering_crosscheck` decide the covering
property from where the lifts of the base's rows of support >= 2 end; the
oracles are the three-certificate test and the identity-fiber span of
`oracles.identity_fiber`.  The span before that, over a cover index on
every fiber of `oracle_reach_set` (lifting the unit vectors of every member
path plus the rows of support >= 2), is copied below.  Cover indices
differ, so lifted spans are compared by (cover source vertex, cover arrow
tuple).  `reach_set` holds only what the crosscheck walks, and a property
test checks that it is a subset of the oracle's on which every lift it
walks stays.  The proof that only the endpoint certificate can fail is
checked as a test: every single-endpoint lift is a member of its pair's
span, and the span meets the coordinates of its support in one dimension.

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
"""

import importlib.resources as resources

import pytest

from covol import cli, coalgebra, covering, exactlin
from covol.coalgebra import CoalgebraError, PathIndex, SmashCoalgebra, SparseVector, \
    is_homogeneous, smash_coalgebra, subcoalgebra_closure, vector_label
from covol.covering import CoalgebraCovering, covering_crosscheck, \
    is_coalgebra_covering, reach_set, span_of_liftings
from covol.fixtures import all_fixtures
from covol.groups import FgAbelian
from covol.quiver import Quiver, spanning_tree_pi1
from covol.voltage import ArrowWeighting, smash_quiver, window_ball

from corpus import _instances
from oracles.identity_fiber import RootedPathIndex, _cut_into_pairs, oracle_identity_span, \
    oracle_is_coalgebra_covering, oracle_lifts, oracle_reach_set
from oracles.intersection import intersect_coordinates
from oracles.iso_pair import _lift_vector


def oracle_all_path_symbols(base):
    """Path indices whose unit vectors lie in the subcoalgebra."""
    out = []
    for pair, space in sorted(base.spaces.items()):
        for i in base.pindex.by_pair.get(pair, []):
            if space.member(SparseVector.unit(i)):
                out.append(i)
    return out


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
