import itertools
import random
from fractions import Fraction

import pytest

from covol.coalgebra import (
    CoalgebraError, PathIndex, SmashCoalgebra, SparseVector,
    TruncatedPathCoalgebra, coassociativity_ok, counit_vector,
    cover_projection_map, covering_coalgebra_iso, subcoalgebra_closure,
    is_homogeneous, is_identity_map, compose_maps,
    minimal_partition, smash_coalgebra,
    smash_path_coalgebra, smash_projection_map,
    subcoalgebra_to_json, twist_iso,
    verify_coalgebra_map,
)
from covol.fixtures import (
    all_fixtures, double_loop_fixture, kronecker_fixture, loop_fixture,
    sl2_fixture, tri_fixture,
)
from covol.exactlin import rref
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver
from covol.voltage import (
    ArrowWeighting, GaloisCoverData, VertexWeighting, smash_quiver,
    window_ball,
)

from corpus import Z, _random_subcoalgebra, zint
from oracles.path_vectors import delta_vector, endpoints


def test_delta_vertex_and_arrow():
    fx = kronecker_fixture()
    pindex = fx.pindex
    paths = TruncatedPathCoalgebra(pindex)
    x = pindex.vertex_path("x")
    assert paths.coproduct(x) == ([(1, x, x)], False)
    a = pindex.arrow_path("a")
    y = pindex.vertex_path("y")
    assert sorted(paths.coproduct(a)[0]) == sorted([(1, y, a), (1, a, x)])


def test_delta_length_two():
    fx = tri_fixture("ac")
    pindex = fx.pindex
    ac = pindex.from_names(["a", "c"])
    x, z = pindex.vertex_path("x"), pindex.vertex_path("z")
    a, c = pindex.arrow_path("a"), pindex.arrow_path("c")
    assert sorted(TruncatedPathCoalgebra(pindex).coproduct(ac)[0]) == \
        sorted([(1, z, ac), (1, ac, x), (1, a, c)])


def test_counit():
    fx = tri_fixture("ac")
    pindex = fx.pindex
    v = SparseVector({pindex.vertex_path("x"): Fraction(2),
                      pindex.arrow_path("a"): Fraction(5)})
    assert counit_vector(pindex, v) == 2


def test_counits_of_an_integral_basis_are_int():
    basis = sl2_fixture().basis
    counits = [basis.counit(sym) for sym in basis.symbols()]
    assert all(type(e) is int for e in counits) and 0 in counits and 1 in counits


def test_coradical_grading():
    # splitting a path never increases total length
    fx = double_loop_fixture(truncation=4)
    pindex = fx.pindex
    paths = TruncatedPathCoalgebra(pindex)
    for i in range(len(pindex)):
        for _, l, r in paths.coproduct(i)[0]:
            if pindex.length(i) == 0:
                assert pindex.length(l) == 0 and pindex.length(r) == 0
            else:
                assert pindex.length(l) + pindex.length(r) == pindex.length(i)


def test_path_coalgebra_coassociative():
    for fx in all_fixtures():
        ok, witness, checked = coassociativity_ok(TruncatedPathCoalgebra(fx.pindex))
        assert ok, (fx.name, witness)
        assert checked == len(fx.pindex)


def test_closure_full():
    fx = loop_fixture(4)
    assert fx.basis.dimension == len(fx.pindex)


def test_closure_tri():
    for gen in ["ac", "ac+bc"]:
        fx = tri_fixture(gen)
        assert fx.basis.dimension == 7  # x, y, z, a, b, c, and one degree-2


def test_closure_sl2_dimension():
    fx = sl2_fixture(5)
    # 5 vertices + 8 arrows + the path b0.a0 + three degree-two sums
    assert fx.basis.dimension == 17


def test_path_index_refuses_a_generator_past_the_truncation():
    # generator needs a length-2 path, truncation 1 cannot hold it
    with pytest.raises(CoalgebraError, match="exceeds truncation 1"):
        tri_fixture("ac", truncation=1)


def _round_based_closure(pindex, generators):
    """Reference: a round-based closure fixpoint that re-runs a full RREF
    over every row and every row/column coproduct component each round,
    then one RREF per endpoint pair.  Returns {pair: (rows, pivots)}."""
    vectors = [SparseVector.unit(pindex.vertex_path(v))
               for v in range(pindex.quiver.num_vertices())]
    vectors += [SparseVector.unit(pindex.arrow_path(a))
                for a in range(pindex.quiver.num_arrows())]
    space = rref(vectors + list(generators))
    while True:
        new_vectors = list(space.rows)
        for row in space.rows:
            rows, cols = {}, {}
            for (l, r), c in delta_vector(pindex, row).items():
                rows.setdefault(l, {})[r] = c
                cols.setdefault(r, {})[l] = c
            new_vectors += [SparseVector(p) for p in list(rows.values()) + list(cols.values())]
        bigger = rref(new_vectors)
        if bigger.dimension == space.dimension:
            break
        space = bigger
    by_pair = {}
    for row in space.rows:
        by_pair.setdefault(endpoints(pindex, row), []).append(row)
    return {pair: (s.rows, s.pivots) for pair, s in
            ((pair, rref(rs)) for pair, rs in by_pair.items())}


def test_worklist_closure_matches_round_based_fixpoint():
    rng = random.Random(31)
    pindexes = [
        sl2_fixture(24).pindex,
        PathIndex(double_loop_fixture().quiver, 4),
        tri_fixture("ac").pindex,
        PathIndex(Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"),
                                      ("c", "v", "u")]), 3),
    ]
    grew = 0
    for pindex in pindexes:
        for trial in range(6):
            gens, count = [], rng.randint(1, 6)
            while len(gens) < count:
                pair = rng.choice(sorted(pindex.by_pair))
                same = [i for i in pindex.by_pair[pair] if pindex.length(i) >= 1]
                if same:
                    support = rng.sample(same, min(len(same), rng.randint(1, 3)))
                    gens.append(SparseVector({i: rng.choice([1, 2, -1, Fraction(1, 2)])
                                              for i in support}))
            basis = subcoalgebra_closure(pindex, gens)
            want = _round_based_closure(pindex, gens)
            got = {pair: (space.rows, space.pivots) for pair, space in basis.spaces.items()}
            assert got == want, (pindex.quiver.vertices, trial)
            grew += basis.dimension > pindex.quiver.num_vertices() + \
                pindex.quiver.num_arrows() + len(gens)
    assert grew  # some closures needed components beyond the generators


def test_closure_scalars_are_exact_and_int_typed_when_integral():
    """The closure never produces a float; its rows do not depend on
    whether an integral generator coefficient is typed int or Fraction; and
    integral data stays int end to end."""
    rng = random.Random(58)
    pindex = sl2_fixture(24).pindex
    for trial in range(6):
        gens = []
        while len(gens) < 4:
            pair = rng.choice(sorted(pindex.by_pair))
            same = [i for i in pindex.by_pair[pair] if pindex.length(i) >= 1]
            if same:
                support = rng.sample(same, min(len(same), rng.randint(1, 3)))
                gens.append({i: rng.choice([1, -1, 2, Fraction(1, 3), Fraction(1, 2)])
                             for i in support})
        basis = subcoalgebra_closure(pindex, [SparseVector(g) for g in gens])
        typed = subcoalgebra_closure(pindex, [
            SparseVector._wrap({i: Fraction(c) for i, c in g.items()}) for g in gens])
        got = {pair: (space.rows, space.pivots) for pair, space in basis.spaces.items()}
        assert got == {pair: (space.rows, space.pivots)
                       for pair, space in typed.spaces.items()}, trial
        assert got == _round_based_closure(pindex, [SparseVector(g) for g in gens])
        for space in basis.spaces.values():
            assert all(type(v) in (int, Fraction) for row in space.rows
                       for _, v in row.items()), trial

    fx = sl2_fixture(24)
    entries = [v for space in fx.basis.spaces.values() for row in space.rows
               for _, v in row.items()]
    assert entries and all(type(v) is int for v in entries)
    coalg = TruncatedPathCoalgebra(fx.pindex)
    for sym in coalg.symbols():
        terms, _ = coalg.coproduct(sym)
        assert terms and all(type(c) is int for c, _, _ in terms)
        assert type(coalg.counit(sym)) is int


def test_subcoalgebra_membership_and_coordinates():
    fx = tri_fixture("ac+bc")
    pindex, basis = fx.pindex, fx.basis
    ac = SparseVector.unit(pindex.from_names(["a", "c"]))
    bc = SparseVector.unit(pindex.from_names(["b", "c"]))
    assert basis.member(ac + bc)
    assert not basis.member(ac)
    coords = basis.coordinates(ac + bc)
    assert coords is not None
    rebuilt = SparseVector()
    for sym, c in coords.items():
        rebuilt = rebuilt + SparseVector({k: c * v for k, v in basis.row_vector(sym).items()})
    assert rebuilt == ac + bc


def test_subcoalgebra_coproduct_closed():
    for fx in all_fixtures():
        ok, witness, checked = coassociativity_ok(fx.basis)
        assert ok, (fx.name, witness)
        assert checked == fx.basis.dimension


def _minimal_elements(basis):
    """(pair, block, representative) of every block that has one."""
    return [(pair, block, rep)
            for pair, blocks in minimal_partition(basis).items()
            for block, rep in blocks if rep is not None]


def test_minimal_partition_tri():
    fx = tri_fixture("ac")
    assert _minimal_elements(fx.basis) == []

    fx = tri_fixture("ac+bc")
    found = _minimal_elements(fx.basis)
    assert len(found) == 1
    pair, block, rep = found[0]
    pindex = fx.pindex
    assert pair == (pindex.quiver.vertex_index["x"], pindex.quiver.vertex_index["z"])
    assert set(block) == {pindex.from_names(["a", "c"]), pindex.from_names(["b", "c"])}
    ac = SparseVector.unit(pindex.from_names(["a", "c"]))
    bc = SparseVector.unit(pindex.from_names(["b", "c"]))
    assert rep == ac + bc


def test_minimal_partition_sl2():
    fx = sl2_fixture(5)
    pindex = fx.pindex
    found = _minimal_elements(fx.basis)
    assert len(found) == 3
    for i, (pair, block, rep) in enumerate(sorted(found)):
        vi = pindex.quiver.vertex_index["x%d" % (i + 1)]
        assert pair == (vi, vi)
        first = pindex.from_names(["a%d" % i, "b%d" % i])
        second = pindex.from_names(["b%d" % (i + 1), "a%d" % (i + 1)])
        assert set(block) == {first, second}
        assert rep == SparseVector.unit(first) + SparseVector.unit(second)
    # d0 = b0.a0 is a path in the basis, not a minimal element
    d0 = pindex.from_names(["b0", "a0"])
    assert fx.basis.member(SparseVector.unit(d0))


def test_homogeneity():
    # trivial group: always homogeneous
    fx = tri_fixture("ac+bc")
    trivial = FgAbelian(0)
    w = ArrowWeighting(fx.quiver, trivial,
                       {a: trivial.identity() for a in range(3)})
    assert is_homogeneous(fx.basis, w)

    # weights 0 vs 1 split the generator
    ok, witness = is_homogeneous(fx.basis, fx.weighting, return_witness=True)
    assert not ok
    pindex = fx.pindex
    ac = SparseVector.unit(pindex.from_names(["a", "c"]))
    bc = SparseVector.unit(pindex.from_names(["b", "c"]))
    assert witness == ac + bc

    # same quiver, (ac)-embedding: homogeneous under the same weighting
    fx2 = tri_fixture("ac")
    assert is_homogeneous(fx2.basis, fx2.weighting)


def test_homogeneity_sl2():
    fx = sl2_fixture(5)
    assert is_homogeneous(fx.basis, fx.weighting)


def test_homogeneity_dimension_test_matches_blockwise_test():
    # the per-weight dimension-sum test agrees with the constant-weight
    # test on the minimal blocks, over random subcoalgebras and weightings
    rng = random.Random(13)
    quivers = [sl2_fixture(4).quiver, tri_fixture("ac").quiver]
    for trial in range(50):
        q = quivers[trial % len(quivers)]
        pindex = PathIndex(q, 2)
        basis = _random_subcoalgebra(rng, pindex)
        w = ArrowWeighting(q, Z, {a: zint(rng.randint(-1, 1))
                                  for a in range(q.num_arrows())})
        expected = True
        for pair, blocks in minimal_partition(basis).items():
            for block, rep in blocks:
                if len({pindex.weight(w, i) for i in block}) > 1:
                    expected = False
        assert is_homogeneous(basis, w) == expected, trial


def test_row_weight():
    fx = sl2_fixture(5)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(1))
    for sym in fx.basis.symbols():
        w = smash.weight_of(sym)
        support = fx.basis.row_vector(sym).support()
        assert {fx.pindex.weight(fx.weighting, i) for i in support} == {w}
        if {fx.pindex.length(i) for i in support} == {0}:
            assert w == Z.identity()


def test_smash_coalgebra_group_likes():
    fx = loop_fixture(3)
    smash = smash_coalgebra(fx.basis, fx.weighting, window_ball(Z, 2))
    for sym in smash.symbols():
        c, g = smash.decode(sym)
        if fx.basis.counit(c) == 1 and len(fx.basis.row_vector(c).support()) == 1:
            terms, truncated = smash.coproduct(sym)
            if fx.pindex.length(next(iter(fx.basis.row_vector(c).support()))) == 0:
                assert not truncated
                assert terms == [(Fraction(1), sym, sym)]


def test_smash_coalgebra_loop_formula():
    fx = loop_fixture(4)
    smash = smash_path_coalgebra(fx.pindex, fx.weighting, window_ball(Z, 3))
    a2 = fx.pindex.from_names(["a", "a"])
    x = fx.pindex.vertex_path("x")
    a = fx.pindex.arrow_path("a")
    at = smash.symbol
    terms, truncated = smash.coproduct(at(a2, zint(0)))
    assert not truncated
    assert sorted(terms) == sorted([
        (Fraction(1), at(x, zint(2)), at(a2, zint(0))),
        (Fraction(1), at(a, zint(1)), at(a, zint(0))),
        (Fraction(1), at(a2, zint(0)), at(x, zint(0))),
    ])


def _edge_windows():
    """(base coalgebra, weight of each base symbol, group, window, window
    elements outside it) over free and torsion `FgAbelian`, `FiniteTable`
    and `FreeGroup` windows, on path coalgebras and on a subcoalgebra."""
    dbl = double_loop_fixture(2)
    z3, z5 = FgAbelian(1, (3,)), FgAbelian(0, (5,))
    c4 = FiniteTable.cyclic(4)
    f2 = FreeGroup(2)
    out = []
    for group, a, b, outside in [
            (Z, zint(1), zint(-1), [zint(3), zint(-4)]),
            (z3, z3.element([1], [2]), z3.element([0], [1]), [z3.element([3], [0])]),
            (z5, z5.element([], [2]), z5.element([], [4]), []),
            (c4, 1, 3, []),
            (f2, f2.generator(0), f2.generator(1), [f2.word([1, 2, 1])])]:
        weighting = ArrowWeighting(dbl.quiver, group, {0: a, 1: b})
        weights = [dbl.pindex.weight(weighting, i) for i in range(len(dbl.pindex))]
        window = window_ball(group, 2)
        out.append((TruncatedPathCoalgebra(dbl.pindex), weights, group, window, outside))
    fx = sl2_fixture(4)
    weights = [fx.pindex.weight(fx.weighting, next(iter(fx.basis.row_vector(c).support())))
               for c in fx.basis.symbols()]
    out.append((fx.basis, weights, Z, fx.window(2), [zint(3)]))
    return out


def test_smash_symbol_edge_round_trips_on_every_backend():
    for base, weights, group, window, outside in _edge_windows():
        smash = SmashCoalgebra(base, weights.__getitem__, group, window)
        n = base.dimension
        # ids in window-major order: the (c, g) list the tuple symbols had
        assert [smash.decode(s) for s in smash.symbols()] == \
            [(c, g) for g in window for c in base.symbols()]
        assert smash.dimension == len(smash.symbols()) == n * len(window)
        for g in window:
            for c in base.symbols():
                sym = smash.symbol(c, g)
                assert type(sym) is int and smash.decode(sym) == (c, g)
                assert smash.label(sym) == "%s#%s" % (base.label(c), group.format(g))
            assert smash.symbol(-1, g) is None and smash.symbol(n, g) is None
        for g in outside:
            assert g not in window
            assert all(smash.symbol(c, g) is None for c in base.symbols())


def test_ids_outside_the_range_are_refused():
    """Every smash method that takes an id refuses one outside
    range(dimension), also once every coproduct is cached, and so do the
    coproduct, counit and label of a path coalgebra and of a subcoalgebra
    and a subcoalgebra's row vector and row endpoints, also once every
    counit is cached; a refused id caches nothing.  Every path index
    reader that takes a path id refuses one outside range(len(pindex)),
    where a negative id would read from the end."""
    for base, weights, group, window, _ in _edge_windows():
        smash = SmashCoalgebra(base, weights.__getitem__, group, window)
        dim = smash.dimension
        for sym in smash.symbols():
            smash.coproduct(sym)
        for bad in (-1, -dim, -dim - 1, dim, 2 * dim - 1, 2 * dim, 3 * dim):
            for method in (smash.coproduct, smash.counit, smash.label, smash.decode):
                with pytest.raises(CoalgebraError):
                    method(bad)
    fx = sl2_fixture(4)
    for coalg in (TruncatedPathCoalgebra(fx.pindex), fx.basis):
        dim = coalg.dimension
        for sym in coalg.symbols():
            coalg.coproduct(sym)
            coalg.counit(sym)
        methods = [coalg.coproduct, coalg.counit, coalg.label]
        if coalg is fx.basis:
            methods += [coalg.row_vector, coalg.row_endpoints]
        for bad in (-1, -dim, -dim - 1, dim, 2 * dim - 1, 2 * dim, 3 * dim):
            for method in methods:
                with pytest.raises(CoalgebraError):
                    method(bad)
    assert set(fx.basis._counits) == set(fx.basis.symbols())
    pindex, n = fx.pindex, len(fx.pindex)
    readers = [pindex.source, pindex.target, pindex.arrows, pindex.length,
               pindex.prefix, pindex.label, pindex.walk,
               lambda i: pindex.weight(fx.weighting, i)]
    for i in range(n):
        for reader in readers:
            reader(i)
    for bad in (-1, -n, -n - 1, n, 2 * n - 1, 2 * n, 3 * n):
        for reader in readers:
            with pytest.raises(CoalgebraError):
                reader(bad)


def test_verify_fails_where_the_target_refuses_an_image():
    """An image id outside the target fails the first symbol the verifier
    expands it at, on a smash and on a path coalgebra target."""
    fx = loop_fixture(4)
    smash = smash_path_coalgebra(fx.pindex, fx.weighting, fx.window(1))
    paths = TruncatedPathCoalgebra(fx.pindex)
    first = min(s for s in smash.symbols() if not smash.coproduct(s)[1])
    for target in (smash, paths):
        dim = target.dimension
        for bad in (dim, 3 * dim, -1, -dim - 1):
            outside = {s: bad + s if bad > 0 else bad - s for s in smash.symbols()}
            assert verify_coalgebra_map(outside, smash, target) == (False, first, 0)
    last = paths.dimension - 1  # the longest path: no other path splits into it
    for bad in (paths.dimension + last, -1, -paths.dimension - 1):
        f = {i: i for i in paths.symbols()}
        f[last] = bad
        assert verify_coalgebra_map(f, paths, paths) == (False, last, last)


def test_smash_coalgebra_inhomogeneous_rejected():
    fx = tri_fixture("ac+bc")
    with pytest.raises(CoalgebraError):
        smash_coalgebra(fx.basis, fx.weighting, window_ball(Z, 2))


def test_smash_coalgebra_coassociative_on_interior():
    for fx in [loop_fixture(4), kronecker_fixture(), sl2_fixture(4)]:
        smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(3))
        ok, witness, checked = coassociativity_ok(smash)
        assert ok, (fx.name, witness)
        assert checked > 0


def test_smash_projection_is_coalgebra_map():
    fx = sl2_fixture(4)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(3))
    proj = smash_projection_map(smash)
    ok, witness, checked = verify_coalgebra_map(proj, smash, fx.basis)
    assert ok and checked > 0


def _canonical_phi(fx, window):
    """phi of the covering isomorphism at the canonical lifting: the basis
    bijection (p, g) -> the lift of p through fiber g."""
    sq = smash_quiver(fx.quiver, fx.weighting, window)
    cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
    _, phi, _, _ = covering_coalgebra_iso(
        GaloisCoverData.from_smash(sq), sq.canonical_lifting(), fx.pindex,
        cover_pindex, window)
    return sq, cover_pindex, phi


def test_canonical_phi_vertices_arrows():
    fx = loop_fixture(4)
    sq, cover_pindex, emap = _canonical_phi(fx, window_ball(Z, 3))
    at = smash_path_coalgebra(fx.pindex, fx.weighting, window_ball(Z, 3)).symbol
    x = fx.pindex.vertex_path("x")
    v = sq.vertex_of("x", zint(0))
    assert emap[at(x, zint(0))] == cover_pindex.vertex_path(v)
    a = fx.pindex.arrow_path("a")
    ca = sq.arrow_of("a", zint(0))
    assert emap[at(a, zint(0))] == cover_pindex.arrow_path(ca)
    # phi(a^2 # 0) is the two-step path through fibers 0 then 1
    a2 = fx.pindex.from_names(["a", "a"])
    arrows = (sq.arrow_of("a", zint(0)), sq.arrow_of("a", zint(1)))
    assert emap[at(a2, zint(0))] == cover_pindex.path_of(arrows)


def test_canonical_phi_intertwines_delta():
    for fx in all_fixtures():
        radius = 3
        window = fx.window(radius)
        _, cover_pindex, emap = _canonical_phi(fx, window)
        smash = smash_path_coalgebra(fx.pindex, fx.weighting, window)
        ok, witness, checked = verify_coalgebra_map(
            emap, smash, TruncatedPathCoalgebra(cover_pindex))
        assert ok, (fx.name, witness)
        assert checked > 0, fx.name
        # bijective where defined
        assert len(set(emap.values())) == len(emap)


def test_covering_iso_roundtrip_canonical():
    fx = kronecker_fixture()
    window = window_ball(Z, 3)
    sq = smash_quiver(fx.quiver, fx.weighting, window)
    cover = GaloisCoverData.from_smash(sq)
    cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
    psi, phi, smash, induced = covering_coalgebra_iso(
        cover, sq.canonical_lifting(), fx.pindex, cover_pindex, window)
    assert induced == fx.weighting
    ok, witness, checked = verify_coalgebra_map(
        psi, TruncatedPathCoalgebra(cover_pindex), smash)
    assert ok and checked > 0
    ok, witness, checked = verify_coalgebra_map(
        phi, smash, TruncatedPathCoalgebra(cover_pindex))
    assert ok and checked > 0
    assert is_identity_map(compose_maps(psi, phi))
    assert is_identity_map(compose_maps(phi, psi))
    # F_L . psi = F
    proj_smash = smash_projection_map(smash)
    proj_cover = cover_projection_map(cover_pindex, fx.pindex, sq.morphism)
    lhs = compose_maps(proj_smash, psi)
    assert lhs == {sym: proj_cover[sym] for sym in lhs}


def test_covering_iso_with_shifted_lifting():
    fx = kronecker_fixture()
    window = window_ball(Z, 3)
    sq = smash_quiver(fx.quiver, fx.weighting, window)
    cover = GaloisCoverData.from_smash(sq)
    cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
    gamma = VertexWeighting.by_name(fx.quiver, Z, {"x": zint(0), "y": zint(1)})
    lifting = sq.lifting_from_vertex_weighting(gamma)
    psi, phi, smash, induced = covering_coalgebra_iso(
        cover, lifting, fx.pindex, cover_pindex, window)
    assert induced.of(fx.quiver.arrow_index["a"]) == zint(-1)
    ok, _, checked = verify_coalgebra_map(
        psi, TruncatedPathCoalgebra(cover_pindex), smash)
    assert ok and checked > 0
    composed = compose_maps(psi, phi)
    assert is_identity_map(composed) and composed


def test_covering_iso_finite_cover():
    from covol.quiver import Quiver, QuiverMorphism
    cover_q = Quiver([str(i) for i in range(6)],
                     [("e%d" % i, i, (i + 1) % 6) for i in range(6)])
    base_q = Quiver([str(i) for i in range(3)],
                    [("e%d" % i, i, (i + 1) % 3) for i in range(3)])
    f = QuiverMorphism(cover_q, base_q, [i % 3 for i in range(6)],
                       [i % 3 for i in range(6)])
    cover = GaloisCoverData.from_finite(f, 0)
    base_pindex = PathIndex(base_q, 3)
    cover_pindex = PathIndex(cover_q, 3)
    lifting = {0: 0, 1: 1, 2: 2}
    window = cover.group.elements()
    psi, phi, smash, induced = covering_coalgebra_iso(
        cover, lifting, base_pindex, cover_pindex, window)
    # weights live in the two-element deck group; wrap-around arrow is nontrivial
    ident = cover.group.identity()
    weights = [induced.of(a) for a in range(3)]
    assert weights.count(ident) == 2
    ok, _, checked = verify_coalgebra_map(
        psi, TruncatedPathCoalgebra(cover_pindex), smash)
    assert ok and checked == len(cover_pindex)
    assert is_identity_map(compose_maps(phi, psi))
    assert is_identity_map(compose_maps(psi, phi))


def test_twist_iso():
    fx = kronecker_fixture()
    window = window_ball(Z, 3)
    gamma = VertexWeighting.by_name(fx.quiver, Z, {"x": zint(0), "y": zint(1)})
    tmap, source, target, twisted = twist_iso(fx.pindex, fx.weighting, gamma, window)
    ok, witness, checked = verify_coalgebra_map(tmap, source, target)
    assert ok and checked > 0
    # identity vertex weighting gives the identity map
    ident = VertexWeighting(fx.quiver, Z, {v: Z.identity() for v in range(fx.quiver.num_vertices())})
    imap, src2, tgt2, tw2 = twist_iso(fx.pindex, fx.weighting, ident, window)
    assert tw2 == fx.weighting
    assert is_identity_map(imap)


def test_twist_iso_composition():
    fx = kronecker_fixture()
    window = window_ball(Z, 4)
    g1 = VertexWeighting.by_name(fx.quiver, Z, {"x": zint(1), "y": zint(0)})
    g2 = VertexWeighting.by_name(fx.quiver, Z, {"x": zint(-1), "y": zint(2)})
    m1, s0, s1, tw1 = twist_iso(fx.pindex, fx.weighting, g1, window)
    m2, s1b, s2, tw2 = twist_iso(fx.pindex, tw1, g2, window)
    pointwise = VertexWeighting(fx.quiver, Z, {
        v: Z.multiply(g1.of(v), g2.of(v)) for v in range(2)})
    m12, _, s2b, tw12 = twist_iso(fx.pindex, fx.weighting, pointwise, window)
    assert tw12 == tw2
    composed = compose_maps(m2, m1)
    assert all(composed[sym] == m12[sym] for sym in composed)


def test_twist_iso_commutes_with_projection():
    fx = kronecker_fixture()
    window = window_ball(Z, 3)
    gamma = VertexWeighting.by_name(fx.quiver, Z, {"x": zint(2), "y": zint(1)})
    tmap, source, target, _ = twist_iso(fx.pindex, fx.weighting, gamma, window)
    p_src = smash_projection_map(source)
    p_tgt = smash_projection_map(target)
    lhs = compose_maps(p_tgt, tmap)
    assert lhs == {sym: p_src[sym] for sym in lhs}


def test_twist_iso_commutes_with_right_action():
    fx = kronecker_fixture()
    window = window_ball(Z, 3)
    gamma = VertexWeighting.by_name(fx.quiver, Z, {"x": zint(1), "y": zint(-1)})
    tmap, source, target, _ = twist_iso(fx.pindex, fx.weighting, gamma, window)
    h = zint(1)
    for sym, image in tmap.items():
        i, g = source.decode(sym)
        shifted_src = source.symbol(i, Z.multiply(g, h))
        if shifted_src not in tmap:
            continue
        j, gp = target.decode(image)
        want = target.symbol(j, Z.multiply(gp, h))
        got = tmap[shifted_src]
        if want is not None:
            assert got == want


def test_verify_coalgebra_map_identity_and_a_wrong_image():
    fx = loop_fixture(4)
    coalg = TruncatedPathCoalgebra(fx.pindex)
    ident = {sym: sym for sym in coalg.symbols()}
    ok, _, checked = verify_coalgebra_map(ident, coalg, coalg)
    assert ok and checked == len(fx.pindex)
    # sending the arrow to a.a while fixing the vertex breaks compatibility
    # at the arrow itself, after the vertex was checked
    bad = dict(ident)
    a = fx.pindex.arrow_path("a")
    bad[a] = fx.pindex.from_names(["a", "a"])
    assert verify_coalgebra_map(bad, coalg, coalg) == (False, a, 1)


def test_every_map_the_package_builds_is_a_symbol_to_symbol_dict():
    """psi, phi, both projections and the twist map send int to int, on
    every fixture."""
    for fx in all_fixtures():
        window = fx.window(2)
        sq = smash_quiver(fx.quiver, fx.weighting, window)
        cover = GaloisCoverData.from_smash(sq)
        cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
        psi, phi, smash, _ = covering_coalgebra_iso(
            cover, sq.canonical_lifting(), fx.pindex, cover_pindex, window)
        gamma = VertexWeighting(fx.quiver, fx.group, {
            v: g for v, g in zip(range(fx.quiver.num_vertices()), itertools.cycle(window))})
        tmap = twist_iso(fx.pindex, fx.weighting, gamma, window)[0]
        maps = [psi, phi, smash_projection_map(smash), tmap,
                cover_projection_map(cover_pindex, fx.pindex, sq.morphism)]
        assert all(f and all(type(s) is int and type(t) is int for s, t in f.items())
                   for f in maps), fx.name


def test_json_serialization():
    fx = tri_fixture("ac+bc")
    doc = subcoalgebra_to_json(fx.basis)
    assert doc["schema"] == 1 and doc["dimension"] == 7
    flat = [row for space in doc["spaces"] for row in space["rows"]]
    assert any(len(row) == 2 for row in flat)  # the two-path generator
    for space in doc["spaces"]:
        for row in space["rows"]:
            for term in row:
                assert isinstance(term["path"], list)
                assert "/" in term["coeff"] or term["coeff"].lstrip("-").isdigit()
