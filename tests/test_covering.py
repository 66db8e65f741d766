import itertools
import random

import pytest

from covol.coalgebra import PathIndex, SparseVector, is_homogeneous, \
    subcoalgebra_closure
from covol.covering import (
    CoveringError, build_lifted_subcoalgebra, covering_crosscheck,
    extract_relators, is_coalgebra_covering, relators_vanish,
    span_of_liftings, universal_cover, universal_factor_map,
    universal_grading_group, word_image,
)
from covol.exactlin import finest_block_partition, intersect_coordinates, rref
from covol.fixtures import (
    double_loop_fixture, kronecker_fixture, loop_fixture, sl2_fixture,
    tri_fixture,
)
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver
from covol.voltage import ArrowWeighting, smash_quiver, window_ball

Z = FgAbelian(1)


def zint(n):
    return Z.element(free=[n])


def test_build_lifted_loop():
    fx = loop_fixture(4)  # paths x, a, a^2, a^3
    cov = build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    # every (row, fiber) pair that fits the window materializes
    assert cov.lifted_dimension > 0
    # vertices and arrows of the covering quiver all lie in the span
    for v in range(cov.smash.quiver.num_vertices()):
        unit = SparseVector.unit(cov.cover_pindex.vertex_path(v))
        assert cov.lifted_member((v, v), unit)
    for a in range(cov.smash.quiver.num_arrows()):
        i = cov.cover_pindex.arrow_path(a)
        pair = (cov.cover_pindex.source(i), cov.cover_pindex.target(i))
        assert cov.lifted_member(pair, SparseVector.unit(i))


def test_build_lifted_rejects_inhomogeneous():
    fx = tri_fixture("ac+bc")
    with pytest.raises(CoveringError):
        build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))


def test_build_lifted_sl2_contains_minimal_lifts():
    fx = sl2_fixture(5)
    cov = build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    ok, witness = is_coalgebra_covering(cov)
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
    ok, witness = is_coalgebra_covering(cov)
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
    assert is_coalgebra_covering(cov) == (True, None)


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
        ok, _ = is_coalgebra_covering(cov)
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
    from covol.coalgebra import SubcoalgebraBasis, minimal_elements
    fx = sl2_fixture(5)
    cov = build_lifted_subcoalgebra(fx.basis, fx.weighting, fx.window(4))
    lifted_basis = SubcoalgebraBasis(cov.cover_pindex, cov.lifted_spans)
    base_blocks = {
        frozenset(block) for _, block, _ in minimal_elements(fx.basis)}
    projected = set()
    morphism = cov.smash.morphism
    for _pair, block, _rep in minimal_elements(lifted_basis):
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
    univ, cov = universal_cover(fx.basis, fx.pres, window_radius=4)
    # directed A-infinity strip: every interior vertex one in, one out
    q = cov.smash.quiver
    for v in cov.smash.interior_vertices:
        assert len(q.out_arrows[v]) == 1 and len(q.in_arrows[v]) == 1
    ok, witness = is_coalgebra_covering(cov)
    assert ok


def test_universal_cover_sl2():
    fx = sl2_fixture(4)
    univ, cov = universal_cover(fx.basis, fx.pres, window_radius=4)
    assert univ.describe() == "Z (abelianized)"
    assert is_homogeneous(fx.basis, univ.weighting)
    ok, witness = is_coalgebra_covering(cov)
    assert ok, witness


def test_universal_cover_trivial_quotient():
    fx = tri_fixture("ac+bc")
    univ, cov = universal_cover(fx.basis, fx.pres)
    # trivial group: the covering is the base itself
    assert len(cov.smash.window) == 1
    assert cov.lifted_dimension == fx.basis.dimension
    ok, _ = is_coalgebra_covering(cov)
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


def _s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteTable([[index[tuple(a[b[k]] for k in range(3))] for b in perms]
                        for a in perms])


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

    vectors = [SparseVector.unit(i) for i in base.all_path_symbols()]
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


def test_span_of_liftings_matches_global_rref():
    # the block-local spans equal the global RREF cut by intersection, on
    # every group backend, homogeneous or not
    z5, z2, f2, s3 = FgAbelian(0, (5,)), FgAbelian(2), FreeGroup(2), _s3()
    f2_letters = [f2.identity(), f2.generator(0), f2.generator(1),
                  f2.inverse(f2.generator(0)), f2.inverse(f2.generator(1))]
    backends = [
        (Z, lambda rng: zint(rng.randint(-1, 1)), 2),
        (z5, lambda rng: z5.element(torsion=[rng.randrange(5)]), 0),
        (s3, lambda rng: rng.randrange(6), 0),
        (z2, lambda rng: z2.element(free=[rng.randint(0, 1), rng.randint(0, 1)]), 1),
        (f2, lambda rng: rng.choice(f2_letters), 1),
    ]
    quivers = [
        sl2_fixture(4).quiver,
        tri_fixture("ac").quiver,
        Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
    ]
    rng = random.Random(1070)
    straddling = inhomogeneous = checked = 0
    for q in quivers:
        pindex = PathIndex(q, 2)
        for group, sample, radius in backends:
            window = window_ball(group, radius)
            for _ in range(3):
                w = ArrowWeighting(q, group, {a: sample(rng)
                                              for a in range(q.num_arrows())})
                gens = []
                for _ in range(2):  # combinations of 2-3 parallel paths
                    pair = rng.choice(sorted(pindex.by_pair))
                    same = [i for i in pindex.by_pair[pair] if pindex.length(i)]
                    support = rng.sample(same, min(len(same), rng.randint(2, 3)))
                    gens.append(SparseVector({i: rng.choice([1, 2, -1])
                                              for i in support}))
                basis = subcoalgebra_closure(pindex, gens)
                sq = smash_quiver(q, w, window)
                cov = span_of_liftings(basis, w, window, smash_q=sq)
                want, blocks = _global_lifted_spans(basis, sq, cov.cover_pindex)
                assert list(cov.lifted_spans) == sorted(want)
                for pair, space in want.items():
                    got = cov.lifted_spans[pair]
                    assert got.rows == space.rows and got.pivots == space.pivots
                straddling += blocks
                inhomogeneous += not is_homogeneous(basis, w)
                checked += 1
    assert checked == 45 and inhomogeneous > 0 and straddling > 0
