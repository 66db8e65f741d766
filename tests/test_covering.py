import importlib.resources as resources
import itertools
import json
import os
import random

import pytest

from covol.coalgebra import CoalgebraError, PathIndex, SparseVector, is_homogeneous, \
    smash_coalgebra, subcoalgebra_closure
from covol import cli, covering
from covol.covering import (
    CoveringError, build_lifted_subcoalgebra,
    covering_crosscheck, extract_relators, is_coalgebra_covering, reach_set,
    relators_vanish, span_of_liftings, universal_factor_map,
    universal_grading_group, word_image,
)
from covol.exactlin import finest_block_partition, rref
from covol.fixtures import (
    all_fixtures, double_loop_fixture, kronecker_fixture, loop_fixture,
    sl2_fixture, tri_fixture,
)
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver, QuiverError, QuiverMorphism, spanning_tree_pi1
from covol.voltage import ArrowWeighting, smash_quiver, window_ball

from corpus import Z, _instances, _parallel_sums, _s3, zint
from oracles import identity_fiber as oracle
from oracles.identity_fiber import _is_minimal_in, oracle_identity_span, \
    oracle_is_coalgebra_covering, oracle_windowed_span
from oracles.intersection import intersect_coordinates
from oracles.iso_pair import _lift_vector, oracle_span_of_liftings


def test_build_lifted_loop():
    fx = loop_fixture(4)  # paths x, a, a^2, a^3
    cov = build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    # every (row, fiber) pair that fits the window materializes
    assert cov.lifted_dimension > 0
    # vertices and arrows of the covering quiver all lie in the span
    for v in range(cov.smash.quiver.num_vertices()):
        unit = SparseVector.unit(cov.cover_pindex.vertex_path(v))
        assert cov.lifted_spans[(v, v)].member(unit)
    for a in range(cov.smash.quiver.num_arrows()):
        i = cov.cover_pindex.arrow_path(a)
        pair = (cov.cover_pindex.source(i), cov.cover_pindex.target(i))
        assert cov.lifted_spans[pair].member(SparseVector.unit(i))


def test_build_lifted_rejects_inhomogeneous():
    fx = tri_fixture("ac+bc")
    with pytest.raises(CoveringError):
        build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_build_lifted_decides_homogeneity_once(monkeypatch):
    # the smash coalgebra's row weights decide it, with is_homogeneous's
    # witness and message, before anything is lifted
    fx = tri_fixture("ac+bc")
    ok, witness = is_homogeneous(fx.basis, fx.weighting, return_witness=True)
    assert not ok
    want = "base subcoalgebra is not homogeneous; witness %s" % \
        covering.vector_label(fx.basis.pindex, witness)
    monkeypatch.setattr(covering, "is_homogeneous", _refuse)
    monkeypatch.setattr(covering, "span_of_liftings", _refuse)
    with pytest.raises(CoveringError) as exc:
        build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    assert str(exc.value) == want
    monkeypatch.undo()
    fx = kronecker_fixture()
    monkeypatch.setattr(covering, "is_homogeneous", _refuse)
    assert build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4)).lifted_dimension > 0


def test_build_lifted_names_a_failing_projection_symbol_by_its_label(monkeypatch):
    # a projection that is the identity on symbol ids sends (a, -4), the
    # second symbol, to base symbol 1 but its coproduct term (x, -3) to
    # base symbol 4: the error names the symbol by its label, not its id
    fx = loop_fixture(4)

    def identity_on_ids(smash):
        return {s: {s: 1} for s in smash.symbols()}

    monkeypatch.setattr(covering, "smash_projection_map", identity_on_ids)
    with pytest.raises(CoveringError) as exc:
        build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    assert str(exc.value) == "projection failed to be a coalgebra map at 'a#-4'"


@pytest.mark.parametrize("name", ["tri_acbc", "kron"])
def test_smash_command_decides_homogeneity_once(monkeypatch, name):
    # the report equals the golden: an inhomogeneous subcoalgebra still
    # leaves out the coalgebra keys
    text = (resources.files("covol") / "fixtures" / ("%s.cov" % name)).read_text()
    args = cli.build_arg_parser().parse_args(["smash", "ws.cov"])
    monkeypatch.setattr(cli, "is_homogeneous", _refuse)
    report, _, code = cli.run_command("smash", cli.parse(text), args)
    golden = os.path.join(os.path.dirname(__file__), "golden", "%s.smash.out" % name)
    with open(golden, encoding="utf-8") as handle:
        assert report == json.load(handle)
    assert code == 0
    assert ("coalgebraSymbols" in report) == (name == "kron")


def test_build_lifted_sl2_contains_minimal_lifts():
    fx = sl2_fixture(5)
    cov = build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    ok, witness = is_coalgebra_covering(cov.smash, cov.base, cov.fibers)
    assert ok, witness


def test_span_of_liftings_matches_build_on_homogeneous():
    for fx in [loop_fixture(4), kronecker_fixture(), sl2_fixture(4)]:
        window = fx.window(4)
        built = build_lifted_subcoalgebra(fx.basis, fx.weighting, window)
        spanned = span_of_liftings(fx.basis, fx.weighting, window)
        assert set(built.lifted_spans) == set(spanned.lifted_spans)
        for pair in built.lifted_spans:
            assert built.lifted_spans[pair] == spanned.lifted_spans[pair]


def test_coalgebra_covering_fails_for_inhomogeneous():
    fx = tri_fixture("ac+bc")
    cov = span_of_liftings(fx.basis, fx.weighting, fx.window(4))
    ok, witness = is_coalgebra_covering(cov.smash, cov.base, cov.fibers)
    assert not ok
    rep, vertex = witness
    pindex = fx.pindex
    ac = SparseVector.unit(pindex.from_names(["a", "c"]))
    bc = SparseVector.unit(pindex.from_names(["b", "c"]))
    assert rep == ac + bc
    assert cov.smash.morphism.vertex_map[vertex] == fx.quiver.vertex_index["x"]


def test_coalgebra_covering_vacuous_without_minimal():
    fx = tri_fixture("ac")
    cov = span_of_liftings(fx.basis, fx.weighting, fx.window(4))
    assert is_coalgebra_covering(cov.smash, cov.base, cov.fibers) == (True, None)


def test_crosscheck_sl2():
    fx = sl2_fixture(5)
    report = covering_crosscheck(fx.basis, fx.weighting, fx.pres, fx.window(4))
    assert report["homogeneous"] and report["connected"] and report["coveringOK"]
    assert "witness" not in report


def test_crosscheck_tri_acbc():
    fx = tri_fixture("ac+bc")
    report = covering_crosscheck(fx.basis, fx.weighting, fx.pres, fx.window(4))
    assert report == {
        "schema": 1,
        "homogeneous": False,
        "connected": True,
        "coveringOK": False,
        "witness": "a.c+b.c",
    }


def test_crosscheck_trivial_group():
    fx = tri_fixture("ac+bc")
    trivial = FgAbelian(0)
    w = ArrowWeighting(fx.quiver, trivial, {a: trivial.identity()
                                            for a in range(3)})
    report = covering_crosscheck(fx.basis, w, fx.pres, window_ball(trivial, 1))
    assert report["homogeneous"] and report["connected"] and report["coveringOK"]


def random_subcoalgebra(rng, pindex):
    k = rng.randint(0, 2)
    gens = []
    all_paths = list(range(len(pindex)))
    for _ in range(k):
        support = rng.sample(all_paths, rng.randint(1, 2))
        pair = (pindex.source(support[0]), pindex.target(support[0]))
        same = [i for i in all_paths
                if (pindex.source(i), pindex.target(i)) == pair
                and pindex.length(i) >= 1]
        support = rng.sample(same, min(len(same), rng.randint(1, 3)))
        gens.append(SparseVector({i: rng.choice([1, 2, -1]) for i in support}))
    return subcoalgebra_closure(pindex, gens)


def test_crosscheck_random_instances():
    rng = random.Random(2024)
    quivers = [
        sl2_fixture(4).quiver,
        tri_fixture("ac").quiver,
        Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
    ]
    agreements = 0
    for trial in range(50):
        q = quivers[trial % len(quivers)]
        pindex = PathIndex(q, 2)
        basis = random_subcoalgebra(rng, pindex)
        named = {a: zint(rng.randint(-1, 1)) for a in range(q.num_arrows())}
        w = ArrowWeighting(q, Z, named)
        window = window_ball(Z, 4)
        homogeneous = is_homogeneous(basis, w)
        if homogeneous:
            cov = build_lifted_subcoalgebra(basis, w, window)
        else:
            with pytest.raises(CoveringError):
                build_lifted_subcoalgebra(basis, w, window)
            cov = span_of_liftings(basis, w, window)
        ok, _ = is_coalgebra_covering(cov.smash, cov.base, cov.fibers)
        assert ok == homogeneous, trial
        agreements += 1
    assert agreements == 50


def test_two_row_block_span_and_crosscheck():
    # one block carrying two independent minimal rows: the span of
    # liftings must contain both, and the equivalence still holds
    from covol.quiver import spanning_tree_pi1
    q = Quiver(["x", "y", "z"],
               [("c", "x", "y"), ("a", "y", "z"), ("b", "y", "z"),
                ("e", "y", "z")])
    pindex = PathIndex(q, 2)
    ac = SparseVector.unit(pindex.from_names(["a", "c"]))
    bc = SparseVector.unit(pindex.from_names(["b", "c"]))
    ec = SparseVector.unit(pindex.from_names(["e", "c"]))
    basis = subcoalgebra_closure(pindex, [ac + ec, bc + ec])
    pres = spanning_tree_pi1(q, 0)
    from covol.coalgebra import minimal_partition
    blocks = minimal_partition(basis)[(0, 2)]
    assert len(blocks) == 1 and len(blocks[0][0]) == 3

    flat = ArrowWeighting(q, Z, {i: zint(0) for i in range(4)})
    assert is_homogeneous(basis, flat)
    built = build_lifted_subcoalgebra(basis, flat, window_ball(Z, 4))
    spanned = span_of_liftings(basis, flat, window_ball(Z, 4))
    assert built.lifted_spans == spanned.lifted_spans
    report = covering_crosscheck(basis, flat, pres, window_ball(Z, 4))
    assert report["homogeneous"] and report["coveringOK"]
    assert not report["connected"]  # zero weights generate nothing in Z

    skew = ArrowWeighting(q, Z, {0: zint(0), 1: zint(0), 2: zint(1),
                                 3: zint(0)})
    report = covering_crosscheck(basis, skew, pres, window_ball(Z, 4))
    assert not report["homogeneous"] and not report["coveringOK"]


def test_minimal_blocks_push_forward():
    # representatives of minimal blocks upstairs project onto the minimal
    # block supports downstairs
    from covol.coalgebra import SubcoalgebraBasis, minimal_partition

    def represented_blocks(basis):
        return [block for blocks in minimal_partition(basis).values()
                for block, rep in blocks if rep is not None]

    fx = sl2_fixture(5)
    cov = build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    lifted_basis = SubcoalgebraBasis(cov.cover_pindex, cov.lifted_spans)
    base_blocks = {frozenset(block) for block in represented_blocks(fx.basis)}
    projected = set()
    morphism = cov.smash.morphism
    for block in represented_blocks(lifted_basis):
        image = frozenset(
            fx.pindex.path_of(tuple(morphism.arrow_map[a]
                                    for a in cov.cover_pindex.arrows(i)))
            for i in block)
        projected.add(image)
    assert projected == base_blocks


def test_extract_relators_tri():
    fx = tri_fixture("ac+bc")
    rels = extract_relators(fx.basis, fx.pres)
    assert len(rels) == 1
    assert fx.pres.cotree == [fx.quiver.arrow_index["b"]]
    assert rels.words() == [(1,)]  # the single co-tree generator


def test_extract_relators_none():
    fx = tri_fixture("ac")
    assert len(extract_relators(fx.basis, fx.pres)) == 0
    fx = loop_fixture(4)
    assert len(extract_relators(fx.basis, fx.pres)) == 0


def test_extract_relators_sl2():
    fx = sl2_fixture(5)
    rels = extract_relators(fx.basis, fx.pres)
    assert len(rels) == 3
    free = fx.pres.free_group
    for word in rels.words():
        assert len(word) == 2  # one generator against the next


def test_relator_soundness():
    for fx in [sl2_fixture(5), tri_fixture("ac"), loop_fixture(4)]:
        rels = extract_relators(fx.basis, fx.pres)
        if is_homogeneous(fx.basis, fx.weighting):
            assert relators_vanish(rels, fx.weighting)


def test_relator_walk_weight_vs_word_image():
    fx = sl2_fixture(5)
    rels = extract_relators(fx.basis, fx.pres)
    from covol.voltage import weight_walk
    cycle_weights = [weight_walk(fx.weighting, fx.pres.fundamental_cycle(a))
                     for a in fx.pres.cotree]
    for r in rels.relators:
        assert weight_walk(fx.weighting, r["walk"]) == \
            word_image(Z, cycle_weights, r["word"])


def test_universal_group_loop():
    fx = loop_fixture(4)
    univ = universal_grading_group(fx.basis, fx.pres)
    assert univ.rank == 1 and not univ.presentation.relators
    assert isinstance(univ.backend, FreeGroup) and univ.backend.rank == 1
    assert univ.describe() == "Z"
    assert not univ.abelianized and univ.exact


def test_universal_group_double_loop():
    fx = double_loop_fixture(truncation=2)
    univ = universal_grading_group(fx.basis, fx.pres)
    assert univ.rank == 2 and len(univ.presentation.relators) == 0
    assert univ.describe() == "free(2)"


def test_universal_group_sl2():
    fx = sl2_fixture(5)
    univ = universal_grading_group(fx.basis, fx.pres)
    assert univ.rank == 4
    assert len(univ.presentation.relators) == 3
    assert univ.backend == FgAbelian(1)
    assert univ.describe() == "Z (abelianized)"
    assert univ.abelianized and not univ.exact
    # all co-tree arrows map to the same generator of Z
    images = set(univ.images)
    assert len(images) == 1
    # tree arrows weight identity, co-tree arrows a generator
    for a in range(fx.quiver.num_arrows()):
        w = univ.weighting.of(a)
        if a in fx.pres.tree_arrows:
            assert w == univ.backend.identity()
        else:
            assert w in images


def test_universal_group_tri():
    fx = tri_fixture("ac")
    univ = universal_grading_group(fx.basis, fx.pres)
    assert univ.describe() == "Z"

    fx = tri_fixture("ac+bc")
    univ = universal_grading_group(fx.basis, fx.pres)
    assert univ.rank == 1 and len(univ.presentation.relators) == 1
    assert univ.backend == FgAbelian(0)
    assert univ.describe() == "trivial (abelianized)"
    assert univ.exact  # rank 1: the quotient is abelian, hence exact


def test_universal_cover_loop():
    fx = loop_fixture(4)
    univ = universal_grading_group(fx.basis, fx.pres)
    cov = build_lifted_subcoalgebra(fx.basis, univ.weighting, window_ball(univ.backend, 4))
    # directed A-infinity strip: every interior vertex one in, one out
    q = cov.smash.quiver
    for v in cov.smash.interior_vertices:
        assert len(q.out_arrows[v]) == 1 and len(q.in_arrows[v]) == 1
    ok, witness = is_coalgebra_covering(cov.smash, cov.base, cov.fibers)
    assert ok


def test_universal_cover_sl2():
    fx = sl2_fixture(4)
    univ = universal_grading_group(fx.basis, fx.pres)
    cov = build_lifted_subcoalgebra(fx.basis, univ.weighting, window_ball(univ.backend, 4))
    assert univ.describe() == "Z (abelianized)"
    assert is_homogeneous(fx.basis, univ.weighting)
    ok, witness = is_coalgebra_covering(cov.smash, cov.base, cov.fibers)
    assert ok, witness


def test_universal_cover_trivial_quotient():
    fx = tri_fixture("ac+bc")
    univ = universal_grading_group(fx.basis, fx.pres)
    cov = build_lifted_subcoalgebra(fx.basis, univ.weighting,
                                    window_ball(univ.backend, fx.pindex.truncation + 2))
    # trivial group: the covering is the base itself
    assert len(cov.smash.window) == 1
    assert cov.lifted_dimension == fx.basis.dimension
    ok, _ = is_coalgebra_covering(cov.smash, cov.base, cov.fibers)
    assert ok


def test_universal_factorization_relators_vanish():
    # every homogeneous connected fixture weighting kills the relators
    for fx in [sl2_fixture(5), loop_fixture(4), kronecker_fixture()]:
        rels = extract_relators(fx.basis, fx.pres)
        assert relators_vanish(rels, fx.weighting)


def test_universal_factor_map_sl2():
    fx = sl2_fixture(4)
    univ = universal_grading_group(fx.basis, fx.pres)
    mapping, checked = universal_factor_map(univ, fx.weighting, fx.window(8))
    assert checked > 0
    # projections commute: the map never moves the base vertex
    assert all(v == v2 for (v, _), (v2, _) in mapping.items())


def test_universal_factor_map_loop():
    fx = loop_fixture(4)
    univ = universal_grading_group(fx.basis, fx.pres)
    mapping, checked = universal_factor_map(univ, fx.weighting, fx.window(8))
    assert checked > 0


def test_fundamental_cycles_are_built_once_per_presentation(monkeypatch):
    # the connectedness test and the factor map read the presentation's
    # cycles; neither walks a fundamental cycle again
    from covol.quiver import Pi1Presentation
    from covol.voltage import is_connected_weighting
    fx = sl2_fixture(4)
    univ = universal_grading_group(fx.basis, fx.pres)

    def rebuilt(self, a):
        raise AssertionError("fundamental cycle rebuilt")

    monkeypatch.setattr(Pi1Presentation, "fundamental_cycle", rebuilt)
    assert is_connected_weighting(fx.weighting, fx.pres)
    mapping, checked = universal_factor_map(univ, fx.weighting, fx.window(8))
    assert checked > 0
    report = covering_crosscheck(fx.basis, fx.weighting, fx.pres, fx.window(2))
    assert report["connected"]


def test_universal_factor_map_rejects_bad_target():
    fx = sl2_fixture(4)
    univ = universal_grading_group(fx.basis, fx.pres)
    named = {}
    for a in range(fx.quiver.num_arrows()):
        name = fx.quiver.arrow_name(a)
        named[name] = zint(1) if name.startswith("b") else zint(0)
    bad = ArrowWeighting.by_name(fx.quiver, Z, named)
    # make one relator fail: weight b0 differently
    named["b0"] = zint(2)
    bad = ArrowWeighting.by_name(fx.quiver, Z, named)
    with pytest.raises(CoveringError):
        universal_factor_map(univ, bad, fx.window(8))


def test_change_of_tree_universal_groups_agree():
    # two spanning trees give isomorphic universal data: same rank,
    # same abelianization, and each backend factors through the other
    from covol.quiver import spanning_tree_pi1
    fx = sl2_fixture(4)
    pres1 = fx.pres
    pres2 = spanning_tree_pi1(fx.quiver, fx.quiver.vertex_index["x2"])
    u1 = universal_grading_group(fx.basis, pres1)
    u2 = universal_grading_group(fx.basis, pres2)
    assert u1.rank == u2.rank
    assert u1.backend == u2.backend
    m12, c12 = universal_factor_map(u1, u2.weighting, window_ball(u2.backend, 8))
    m21, c21 = universal_factor_map(u2, u1.weighting, window_ball(u1.backend, 8))
    assert c12 > 0 and c21 > 0


def _global_lifted_spans(base, smash_q, cover_pindex):
    """Reference formula: lift every path and every row from every fiber,
    reduce all lifts into one RREF, and intersect it with each (source,
    target) pair's coordinates.  Also returns how many blocks of the global
    RREF straddle pairs."""
    group = smash_q.group

    def lift(vec, fiber):
        out = {}
        for i, c in vec.items():
            src, _, arrows = base.pindex.paths[i]
            if not arrows:
                v = smash_q.vertex_of(src, fiber)
                if v is None:
                    return None
                out[cover_pindex.vertex_path(v)] = c
                continue
            cur, lifted = fiber, []
            for a in arrows:
                ca = smash_q.arrow_of(a, cur)
                if ca is None:
                    return None
                lifted.append(ca)
                cur = group.multiply(smash_q.weighting.of(a), cur)
            out[cover_pindex.path_of(tuple(lifted))] = c
        return SparseVector(out)

    vectors = [SparseVector.unit(i) for pair, space in sorted(base.spaces.items())
               for i in base.pindex.by_pair[pair] if space.member(SparseVector.unit(i))]
    vectors += [base.row_vector(sym) for sym in base.symbols()]
    lifts = [lift(vec, g) for vec in vectors for g in smash_q.window]
    total = rref([v for v in lifts if v is not None])
    spans = {}
    for pair, coords in cover_pindex.by_pair.items():
        space = intersect_coordinates(total, coords)
        if space.dimension:
            spans[pair] = space
    straddling = sum(
        len({(cover_pindex.source(c), cover_pindex.target(c)) for c in block}) > 1
        for block in finest_block_partition(total))
    return spans, straddling


def _backends():
    """(group, weight sampler) for Z, Z/5, S3, Z^2 and free(2)."""
    z5, z2, f2, s3 = FgAbelian(0, (5,)), FgAbelian(2), FreeGroup(2), _s3()
    f2_letters = [f2.identity(), f2.generator(0), f2.generator(1),
                  f2.inverse(f2.generator(0)), f2.inverse(f2.generator(1))]
    return [
        (Z, lambda rng: zint(rng.randint(-1, 1))),
        (z5, lambda rng: z5.element(torsion=[rng.randrange(5)])),
        (s3, lambda rng: rng.randrange(6)),
        (z2, lambda rng: z2.element(free=[rng.randint(0, 1), rng.randint(0, 1)])),
        (f2, lambda rng: rng.choice(f2_letters)),
    ]


def _criterion_5_quivers():
    return [
        sl2_fixture(4).quiver,
        tri_fixture("ac").quiver,
        Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
    ]


def test_span_of_liftings_matches_global_rref():
    # each pair's lifted rows equal the global RREF cut by intersection, on
    # every group backend; on these instances no combination of lifts that
    # straddle pairs lies in one pair, so this holds where the base is
    # inhomogeneous too (see test_span_of_liftings_drops_straddling_lifts)
    rng = random.Random(1070)
    straddling = inhomogeneous = checked = 0
    for q in _criterion_5_quivers():
        pindex = PathIndex(q, 2)
        for (group, sample), radius in zip(_backends(), (2, 0, 0, 1, 1)):
            window = window_ball(group, radius)
            for _ in range(3):
                w = ArrowWeighting(q, group, {a: sample(rng)
                                              for a in range(q.num_arrows())})
                basis = _parallel_sums(rng, pindex)
                cov = span_of_liftings(basis, w, window)
                want, blocks = _global_lifted_spans(basis, cov.smash, cov.cover_pindex)
                assert list(cov.lifted_spans) == sorted(want)
                for pair, space in want.items():
                    got = cov.lifted_spans[pair]
                    assert got.rows == space.rows and got.pivots == space.pivots
                straddling += blocks
                inhomogeneous += not is_homogeneous(basis, w)
                checked += 1
    assert checked == 45 and inhomogeneous > 0 and straddling > 0


def _typed_spans(cov):
    """(pair, rows with each entry's type, pivots) in the spans' order."""
    return [(pair, [[(k, v, type(v)) for k, v in row.items()] for row in space.rows],
             space.pivots) for pair, space in cov.lifted_spans.items()]


def _random_cases(seed, trials):
    """(base, weighting, window) on the criterion-5 quivers over Z, Z/5, S3,
    Z^2 and free(2), homogeneous or not."""
    rng = random.Random(seed)
    cases = []
    for q in _criterion_5_quivers():
        pindex = PathIndex(q, 2)
        for (group, sample), radius in zip(_backends(), (2, 0, 0, 1, 1)):
            for _ in range(trials):
                w = ArrowWeighting(q, group, {a: sample(rng)
                                              for a in range(q.num_arrows())})
                cases.append((_parallel_sums(rng, pindex), w, window_ball(group, radius)))
    return cases


def test_span_of_liftings_matches_block_split_on_homogeneous_bases():
    # same pairs, rows, pivots and entry types as the global RREF cut on
    # its block partition, on every homogeneous fixture (and sl2(8), dbl(4))
    # at radii 1-4, on the homogeneous random instances and on every
    # fixture's universal cover
    fixtures = all_fixtures() + [sl2_fixture(8), double_loop_fixture(4)]
    cases = [(fx.basis, fx.weighting, fx.window(r)) for fx in fixtures
             for r in (1, 2, 3, 4)] + _random_cases(1071, 10)
    backends = set()
    checked = 0
    for base, weighting, window in cases:
        if not is_homogeneous(base, weighting):
            continue
        got = span_of_liftings(base, weighting, window)
        assert _typed_spans(got) == _typed_spans(oracle_windowed_span(base, weighting, window))
        backends.add(repr(weighting.group))
        checked += 1
    for fx in all_fixtures():
        univ = universal_grading_group(fx.basis, fx.pres)
        cov = build_lifted_subcoalgebra(fx.basis, univ.weighting,
                                        window_ball(univ.backend, fx.pindex.truncation + 2))
        want = oracle_windowed_span(fx.basis, univ.weighting, cov.fibers)
        assert _typed_spans(cov) == _typed_spans(want), fx.name
        checked += 1
    assert len(backends) == 5 and checked > 120


def test_lifted_pivot_is_the_lift_of_the_base_pivot():
    # the lemma behind span_of_liftings: lifting from one start vertex
    # keeps the path order, so each in-window lift leads with its row's
    # lifted unit pivot, homogeneous or not
    cases = [(fx.basis, fx.weighting, fx.window(r)) for fx in all_fixtures()
             for r in (1, 2, 3, 4)] + _random_cases(1072, 3)
    lifts = inhomogeneous = 0
    for base, weighting, window in cases:
        cov = span_of_liftings(base, weighting, window)
        for sym in base.symbols():
            row = base.row_vector(sym)
            pivot = SparseVector.unit(row.leading())
            for g in cov.fibers:
                lift = _lift_vector(cov.smash, cov.cover_pindex, base.pindex, row, g)
                if lift is None:
                    continue
                lifted_pivot = _lift_vector(cov.smash, cov.cover_pindex, base.pindex, pivot, g)
                assert lift.leading() == lifted_pivot.leading()
                assert lift[lift.leading()] == 1
                lifts += 1
        inhomogeneous += not is_homogeneous(base, weighting)
    assert lifts > 1000 and inhomogeneous


def _straddling_example():
    """a, b, x: u -> m and c: m -> v with generators c.a + c.x and c.b + c.x,
    x of weight 1, over Z at radius 1: (base, weighting, window)."""
    quiver = Quiver(["u", "m", "v"], [("a", "u", "m"), ("b", "u", "m"),
                                      ("x", "u", "m"), ("c", "m", "v")])
    pindex = PathIndex(quiver, 2)
    base = subcoalgebra_closure(pindex, [
        SparseVector({pindex.from_names(["c", "a"]): 1, pindex.from_names(["c", "x"]): 1}),
        SparseVector({pindex.from_names(["c", "b"]): 1, pindex.from_names(["c", "x"]): 1})])
    weighting = ArrowWeighting.by_name(quiver, Z, {"a": zint(0), "b": zint(0),
                                                   "x": zint(1), "c": zint(0)})
    return base, weighting, window_ball(Z, 1)


def test_span_of_liftings_drops_straddling_lifts():
    # both rows of the straddling example lift to paths ending at two
    # vertices, and their difference c.a - c.b, which the global RREF
    # finds, lies in one pair.  Each piece is the RREF of its pair's
    # one-pair lifts, inside the block split's piece, which is larger.
    base, weighting, window = _straddling_example()
    assert not is_homogeneous(base, weighting)
    got = span_of_liftings(base, weighting, window)
    old = oracle_windowed_span(base, weighting, window)
    assert (got.lifted_dimension, old.lifted_dimension) == (20, 22)
    one_pair, straddling = {}, 0
    for sym in base.symbols():
        for g in got.fibers:
            lift = _lift_vector(got.smash, got.cover_pindex, base.pindex,
                                base.row_vector(sym), g)
            if lift is None:
                continue
            ends = {got.cover_pindex.target(i) for i in lift.support()}
            if len(ends) > 1:
                straddling += 1
                continue
            start = got.cover_pindex.source(lift.leading())
            one_pair.setdefault((start, ends.pop()), []).append(lift)
    assert straddling
    assert list(got.lifted_spans) == sorted(one_pair)
    for pair, lifts in one_pair.items():
        want = rref(lifts)
        space = got.lifted_spans[pair]
        assert space.rows == want.rows and space.pivots == want.pivots
        assert all(old.lifted_spans[pair].member(row) for row in space.rows)
    assert set(got.lifted_spans) < set(old.lifted_spans)


def test_weighting_on_another_quiver_is_refused():
    # every fixture's subcoalgebra against every other fixture's weighting:
    # a weighting on a quiver of another structure is refused before any
    # weight is read by arrow index; tri_ac and tri_acbc share one
    fixtures = all_fixtures()
    refused = shared = 0
    for fx, other in itertools.product(fixtures, fixtures):
        w, window = other.weighting, other.window(1)
        if fx.quiver.same_as(other.quiver):
            report = covering_crosscheck(fx.basis, w, fx.pres)
            assert report["coveringOK"] == is_homogeneous(fx.basis, w)
            assert span_of_liftings(fx.basis, w, window).lifted_dimension
            shared += fx is not other
            continue
        for call in (lambda: is_homogeneous(fx.basis, w),
                     lambda: reach_set(fx.basis, w),
                     lambda: smash_coalgebra(fx.basis, w, window),
                     lambda: covering_crosscheck(fx.basis, w, fx.pres),
                     lambda: build_lifted_subcoalgebra(fx.basis, w, window)):
            with pytest.raises(CoalgebraError, match="another quiver"):
                call()
        for call in (lambda: smash_quiver(fx.quiver, w, window),
                     lambda: span_of_liftings(fx.basis, w, window)):
            with pytest.raises(QuiverError, match="another quiver"):
                call()
        refused += 1
    assert shared == 2 and refused == len(fixtures) * (len(fixtures) - 1) - shared


def test_span_of_liftings_matches_the_path_by_path_lift():
    # the lift table gives the same pairs, rows, pivots and entry types as
    # lifting each row path by path (`_lift_vector`), homogeneous or not:
    # every fixture at radii 1-4, the criterion-5 instances, the
    # straddling example and every fixture's universal cover
    cases = [(fx.basis, fx.weighting, fx.window(r)) for fx in all_fixtures()
             for r in (1, 2, 3, 4)] + _random_cases(1073, 3) + [_straddling_example()]
    inhomogeneous = 0
    for base, weighting, window in cases:
        got = span_of_liftings(base, weighting, window)
        want = oracle_span_of_liftings(base, weighting, window)
        assert _typed_spans(got) == _typed_spans(want)
        assert got.fibers == want.fibers
        inhomogeneous += not is_homogeneous(base, weighting)
    for fx in all_fixtures():
        univ = universal_grading_group(fx.basis, fx.pres)
        cov = build_lifted_subcoalgebra(fx.basis, univ.weighting,
                                        window_ball(univ.backend, fx.pindex.truncation + 2))
        want = oracle_span_of_liftings(fx.basis, univ.weighting, cov.fibers)
        assert _typed_spans(cov) == _typed_spans(want), fx.name
    assert len(cases) == 24 + 45 + 1 and inhomogeneous > 1


def _identity_fiber_pieces(cov):
    """The span's pieces leaving the identity fiber, in path labels, which
    do not depend on the window the cover was built over."""
    sq, pindex = cov.smash, cov.cover_pindex
    names = sq.quiver.vertices
    return {(names[s], names[t]): [{pindex.label(i): c for i, c in row.items()}
                                   for row in space.rows]
            for (s, t), space in cov.lifted_spans.items()
            if sq.fiber_coordinate(s) == sq.group.identity()}


def test_identity_fiber_certifies_every_fiber():
    # deck equivariance: lifting from the identity fiber over the reach set
    # gives the windowed verdict and is_homogeneous on every backend, and
    # its span (the oracle's, since the crosscheck builds none) is the
    # windowed span's piece at the identity fiber
    rng = random.Random(1006)
    inhomogeneous = with_minimal = 0
    for q in _criterion_5_quivers():
        pindex = PathIndex(q, 2)
        for (group, sample), radius in zip(_backends(), (2, 0, 0, 2, 2)):
            window = window_ball(group, radius)  # contains every reach set
            for _ in range(8):
                w = ArrowWeighting(q, group, {a: sample(rng)
                                              for a in range(q.num_arrows())})
                basis = _parallel_sums(rng, pindex)
                reach = reach_set(basis, w)
                assert reach[0] == group.identity() and set(reach) <= set(window)
                ident = oracle_identity_span(basis, w)
                windowed = span_of_liftings(basis, w, window)
                assert ident.fibers == [group.identity()]
                assert ident.smash.interior_vertices >= {
                    ident.smash.vertex_of(v, group.identity())
                    for v in range(q.num_vertices())}
                homogeneous = is_homogeneous(basis, w)
                assert covering_crosscheck(basis, w, spanning_tree_pi1(q, 0))[
                    "coveringOK"] == homogeneous
                for cov in (ident, windowed):
                    assert is_coalgebra_covering(cov.smash, cov.base, cov.fibers)[0] == homogeneous
                assert _identity_fiber_pieces(ident) == _identity_fiber_pieces(windowed)
                inhomogeneous += not homogeneous
                with_minimal += homogeneous and any(
                    len(basis.row_vector(sym).support()) >= 2
                    for sym in basis.symbols())
    assert inhomogeneous and with_minimal


def test_crosscheck_builds_only_the_arrow_table(monkeypatch):
    # with Quiver, QuiverMorphism and every backend's format made to fail,
    # the crosscheck gives the same report on every fixture and on the
    # seeded instances of all five backends
    cases = [(base, w, spanning_tree_pi1(base.pindex.quiver, 0))
             for base, w in _instances()]
    want = [covering_crosscheck(*case) for case in cases]
    fx = kronecker_fixture()
    for cls in (Quiver, QuiverMorphism):
        monkeypatch.setattr(cls, "__init__", _refuse)
    for cls in (FgAbelian, FiniteTable, FreeGroup):
        monkeypatch.setattr(cls, "format", _refuse)
    assert [covering_crosscheck(*case) for case in cases] == want
    assert {type(w.group) for _, w, _ in cases} == {FgAbelian, FiniteTable, FreeGroup}
    assert {report["coveringOK"] for report in want} == {True, False}
    sq = smash_quiver(fx.quiver, fx.weighting, fx.window(1))
    with pytest.raises(AssertionError):
        sq.quiver


def test_crosscheck_runs_the_covering_test_once_on_the_identity_fiber(monkeypatch):
    # the crosscheck and the lifted-subcoalgebra tests run one covering rule
    # under one name: one call per crosscheck, on the identity fiber, whose
    # verdict is the report's, on every fixture and the seeded instances of
    # all five backends
    covering_test, calls = is_coalgebra_covering, []

    def spy(smash_q, base, fibers):
        verdict = covering_test(smash_q, base, fibers)
        calls.append((base, fibers, verdict[0]))
        return verdict

    monkeypatch.setattr(covering, "is_coalgebra_covering", spy)
    for base, w in _instances():
        calls.clear()
        report = covering_crosscheck(base, w, spanning_tree_pi1(base.pindex.quiver, 0))
        assert calls == [(base, [w.group.identity()], report["coveringOK"])]


@pytest.mark.parametrize("name, arrow, onto, fiber", [
    ("tri_acbc", "b", "z", 0), ("sl2", "b1", "x1", 0), ("sl2", "a1", "x2", 1)])
def test_crosscheck_reads_lift_ends_from_the_arrow_table(monkeypatch, name, arrow,
                                                         onto, fiber):
    # re-pointing the end of one table arrow (a, e) onto another vertex over
    # the same base vertex flips the covering verdict alone: the lifts of
    # tri_acbc's a.c and b.c from the identity fiber now end together, and
    # sl2's of a0.b0 and b1.a1 apart, also when the re-pointed arrow is the
    # first of its lift, so that the next fiber is read there.  So the
    # covering side reads the table and does not multiply the weights again.
    fx = {fx.name: fx for fx in all_fixtures()}[name]
    homogeneous = covering_crosscheck(fx.basis, fx.weighting, fx.pres)["homogeneous"]
    real = covering.smash_quiver

    def repointed(base, weighting, window):
        sq = real(base, weighting, window)
        k = sq.arrow_of(arrow, weighting.group.identity())
        end = sq.vertex_of(onto, zint(fiber))
        assert sq.arrow_ends[k][1] != end
        sq.arrow_ends[k] = (sq.arrow_ends[k][0], end)
        return sq

    monkeypatch.setattr(covering, "smash_quiver", repointed)
    with pytest.raises(CoveringError) as exc:
        covering_crosscheck(fx.basis, fx.weighting, fx.pres)
    assert str(exc.value) == "homogeneity and covering property disagree: %r vs %r" \
        % (homogeneous, not homogeneous)


def test_relators_vanish_on_every_backend():
    # a homogeneous weighting kills every relator, on every group backend;
    # each backend meets homogeneous instances with relators to kill
    rng = random.Random(1083)
    nonvacuous = [0] * 5
    for q in _criterion_5_quivers():
        pindex = PathIndex(q, 2)
        pres = spanning_tree_pi1(q, 0)
        for k, (group, sample) in enumerate(_backends()):
            for _ in range(12):
                w = ArrowWeighting(q, group, {a: sample(rng)
                                              for a in range(q.num_arrows())})
                basis = _parallel_sums(rng, pindex)
                if not is_homogeneous(basis, w):
                    continue
                rels = extract_relators(basis, pres)
                assert relators_vanish(rels, w)
                nonvacuous[k] += bool(rels.relators)
    assert all(nonvacuous), nonvacuous


def test_deck_action_carries_lifts():
    # right translation by h carries the lift of every base path from g
    # onto its lift from gh, wherever the translate stays in the window
    for fx in all_fixtures():
        sq = smash_quiver(fx.quiver, fx.weighting, fx.window(2))
        checked = 0
        for h in sq.window:
            vmap, amap, _ = sq.deck_action(h)
            for g in sq.window:
                gh = sq.group.multiply(g, h)
                for src, _, arrows in fx.pindex.paths:
                    lift = sq.lift_arrows(arrows, g)
                    if lift is None or sq.vertex_of(src, gh) is None \
                            or any(a not in amap for a in lift):
                        continue
                    assert vmap[sq.vertex_of(src, g)] == sq.vertex_of(src, gh)
                    assert tuple(amap[a] for a in lift) == sq.lift_arrows(arrows, gh)
                    checked += 1
        assert checked > len(fx.pindex), fx.name


def _minimal_by_enumeration(space, vec):
    support = sorted(vec.support())
    n = len(support)
    return not any(
        space.member(SparseVector({support[i]: vec[support[i]]
                                   for i in range(n) if (mask >> i) & 1}))
        for mask in range(1, 2 ** n - 1))


def test_minimality_by_rank_matches_enumeration():
    # members of random spaces on <= 10 coordinates, whose intersection
    # with the coordinates of their support is one-dimensional (certified
    # by rank) or larger (searched), against the full enumeration
    rng = random.Random(2010)
    seen = set()  # (local dimension capped at 2, minimal)
    for _ in range(300):
        ambient = rng.randint(2, 10)
        space = rref([SparseVector({i: rng.choice([0, 0, 1, -1, 2])
                                    for i in range(ambient)})
                      for _ in range(rng.randint(1, 4))])
        vec = SparseVector()
        for row in rng.sample(space.rows, min(len(space.rows), rng.randint(1, 3))):
            vec = vec + row.scale(rng.choice([1, 2, -1]))
        if vec.is_zero():
            continue
        minimal = _minimal_by_enumeration(space, vec)
        assert _is_minimal_in(space, vec) == minimal
        local = intersect_coordinates(space, vec.support()).dimension
        seen.add((min(local, 2), minimal))
    assert seen == {(1, True), (2, True), (2, False)}


def test_star_crosscheck_enumerates_no_subsums(tmp_path, monkeypatch):
    # x -> m_i -> y with generator sum_i b_i.a_i: the crosscheck reads the
    # endpoints of its 24-path minimal element, and the three-certificate
    # oracle certifies its minimality by rank; enumeration would try 2^24
    # subsums
    n = 24
    calls = []
    enumerate_subsums = oracle._has_member_subsum
    monkeypatch.setattr(oracle, "_has_member_subsum",
                        lambda *args: calls.append(args) or enumerate_subsums(*args))
    path = tmp_path / "star.cov"
    path.write_text(
        "quiver star {\n  vertices x, y, %s;\n  arrows %s;\n}\n"
        "group G = Z;\nweighting d on star into G {\n%s\n}\n"
        "subcoalgebra B of star {\n  truncate 2;\n  generators: %s;\n}\n" % (
            ", ".join("m%d" % i for i in range(n)),
            ", ".join("a%d: x -> m%d, b%d: m%d -> y" % (i, i, i, i) for i in range(n)),
            "\n".join("  a%d = 0;\n  b%d = 0;" % (i, i) for i in range(n)),
            " + ".join("b%d.a%d" % (i, i) for i in range(n))))
    assert cli.main(["cov-crosscheck", str(path), "--json", str(tmp_path / "out.json")]) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["homogeneous"] and report["coveringOK"]
    ws = cli.parse(path.read_text())
    basis, weighting = ws.sole("subcoalgebra", None).basis, ws.sole("weighting", None).weighting
    for cov in (oracle_identity_span(basis, weighting),
                span_of_liftings(basis, weighting, window_ball(Z, 1))):
        assert oracle_is_coalgebra_covering(cov) == (True, None)
        assert is_coalgebra_covering(cov.smash, cov.base, cov.fibers) == (True, None)
    assert calls == []
