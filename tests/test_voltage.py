import importlib.resources as resources
import json
import random

import pytest

from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import (
    Quiver, Walk, QuiverError, concat, is_covering, is_galois_on_fiber,
    spanning_tree_pi1,
)
from covol.voltage import (
    ArrowWeighting, VertexWeighting, GaloisCoverData,
    is_connected_weighting, local_covering_ok, path_weight, smash_quiver,
    twist_weighting, weight_walk, weighting_from_lifting, window_ball,
)

from corpus import Z, zint


def loop():
    return Quiver(["x"], [("a", "x", "x")])


def kronecker():
    return Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])


def test_weight_walk_basic():
    q = loop()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(1)})
    assert weight_walk(w, Walk(q, 0)) == Z.identity()
    path = Walk(q, 0, ((0, 1),) * 4)
    assert weight_walk(w, path) == zint(4)


def test_weight_walk_kronecker():
    q = kronecker()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(0), "b": zint(1)})
    b_inv_a = Walk(q, 0, ((0, 1), (1, -1)))
    assert weight_walk(w, b_inv_a) == zint(-1)


def test_weight_walk_homomorphism():
    q = Quiver(["x"], [("a", "x", "x"), ("b", "x", "x")])
    free = FreeGroup(2)
    w = ArrowWeighting.by_name(q, free, {"a": free.generator(0),
                                         "b": free.generator(1)})
    rng = random.Random(2)
    for _ in range(20):
        s1 = tuple((rng.randrange(2), rng.choice([1, -1])) for _ in range(3))
        s2 = tuple((rng.randrange(2), rng.choice([1, -1])) for _ in range(3))
        w1, w2 = Walk(q, 0, s1), Walk(q, 0, s2)
        assert weight_walk(w, concat(w2, w1)) == free.multiply(
            weight_walk(w, w2), weight_walk(w, w1))


def test_connected_weighting():
    q = loop()
    pres = spanning_tree_pi1(q, 0)
    assert is_connected_weighting(ArrowWeighting.by_name(q, Z, {"a": zint(1)}), pres)
    assert not is_connected_weighting(ArrowWeighting.by_name(q, Z, {"a": zint(2)}), pres)
    trivial = FgAbelian(0)
    w = ArrowWeighting.by_name(q, trivial, {"a": trivial.identity()})
    assert is_connected_weighting(w, pres)


def test_window_balls():
    assert window_ball(FiniteTable.cyclic(4), 99) == [0, 1, 2, 3]
    ball = window_ball(Z, 3)
    assert len(ball) == 7 and Z.identity() in ball
    free = FreeGroup(2)
    ball = window_ball(free, 2)
    assert len(ball) == 1 + 4 + 12
    assert all(len(w) <= 2 for w in ball)


def test_smash_loop_cyclic():
    # weight 1 over Z/n materializes the cyclic quiver of length n
    for n in range(2, 7):
        zn = FiniteTable.cyclic(n)
        q = loop()
        w = ArrowWeighting.by_name(q, zn, {"a": 1})
        smash = smash_quiver(q, w, window_ball(zn, 0))
        assert smash.quiver.num_vertices() == n
        assert smash.quiver.num_arrows() == n
        ok, _ = is_covering(smash.morphism)
        assert ok
        assert is_galois_on_fiber(smash.morphism, 0)
        # single cycle through all vertices
        succ = {smash.quiver.source(a): smash.quiver.target(a)
                for a in range(n)}
        seen, cur = set(), 0
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
        assert len(seen) == n


def test_smash_loop_integer_window():
    q = loop()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(1)})
    smash = smash_quiver(q, w, window_ball(Z, 3))
    # directed A-infinity segment: 7 vertices, 6 arrows, all same direction
    assert smash.quiver.num_vertices() == 7
    assert smash.quiver.num_arrows() == 6
    assert local_covering_ok(smash)
    indeg = [len(smash.quiver.in_arrows[v]) for v in range(7)]
    outdeg = [len(smash.quiver.out_arrows[v]) for v in range(7)]
    assert sorted(indeg) == [0, 1, 1, 1, 1, 1, 1]
    assert sorted(outdeg) == [0, 1, 1, 1, 1, 1, 1]


def test_smash_kronecker_zigzag():
    q = kronecker()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(0), "b": zint(1)})
    smash = smash_quiver(q, w, window_ball(Z, 3))
    assert local_covering_ok(smash)
    for v in range(smash.quiver.num_vertices()):
        base_v = smash.morphism.vertex_map[v]
        if base_v == 0:  # x-fiber: only sources
            assert not smash.quiver.in_arrows[v]
        else:  # y-fiber: only sinks
            assert not smash.quiver.out_arrows[v]
    # interior x-vertices have out-degree 2 into distinct fibers
    for v in smash.interior_vertices:
        if smash.morphism.vertex_map[v] == 0:
            targets = {smash.quiver.target(a) for a in smash.quiver.out_arrows[v]}
            assert len(targets) == 2


def test_smash_rejects_empty_interior():
    q = loop()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(5)})
    with pytest.raises(QuiverError):
        smash_quiver(q, w, [Z.identity()])


@pytest.mark.parametrize("command", ["smash", "check-cover", "csm-iso"])
def test_loop_at_window_0_has_empty_interior(tmp_path, capsys, monkeypatch, command):
    # raised by the constructor, which builds no Quiver, and reported by the CLI
    from covol.cli import main
    from covol.fixtures import loop_fixture
    fx = loop_fixture()

    def refuse(*args):
        raise AssertionError("built")

    monkeypatch.setattr(Quiver, "__init__", refuse)
    with pytest.raises(QuiverError, match="^window has empty interior$"):
        smash_quiver(fx.quiver, fx.weighting, fx.window(0))
    monkeypatch.undo()
    path = tmp_path / "loop.cov"
    path.write_text((resources.files("covol") / "fixtures" / "loop.cov").read_text())
    assert main([command, str(path), "--window", "0"]) == 2
    assert json.loads(capsys.readouterr().out) == \
        {"schema": 1, "error": "window has empty interior"}


def test_smash_quiver_builds_quiver_and_morphism_on_first_read():
    from covol.fixtures import kronecker_fixture
    fx = kronecker_fixture()
    sq = smash_quiver(fx.quiver, fx.weighting, fx.window(2))
    assert "quiver" not in vars(sq) and "morphism" not in vars(sq)
    quiver = sq.quiver
    assert sq.quiver is quiver and sq.morphism is sq.morphism
    assert sq.morphism.domain is quiver
    assert [(s, t) for _, s, t in quiver.arrows] == sq.arrow_ends


def test_local_covering_random():
    rng = random.Random(31)
    galois_checked = 0
    for trial in range(50):
        nv = rng.randint(1, 6)
        na = rng.randint(1, 10)
        arrows = [("a%d" % i, rng.randrange(nv), rng.randrange(nv))
                  for i in range(na)]
        q = Quiver(["v%d" % i for i in range(nv)], arrows)
        k = rng.randint(2, 5)
        zk = FiniteTable.cyclic(k)
        w = ArrowWeighting(q, zk, {i: rng.randrange(k) for i in range(na)})
        smash = smash_quiver(q, w, zk.elements())
        assert local_covering_ok(smash), trial
        # connected full-window smash quivers are Galois coverings
        if q.is_connected() and smash.quiver.is_connected():
            ok, _ = is_covering(smash.morphism)
            assert ok, trial
            assert is_galois_on_fiber(smash.morphism, 0), trial
            galois_checked += 1
    assert galois_checked > 5


def test_local_covering_all_fixtures():
    from covol.fixtures import all_fixtures
    for fx in all_fixtures():
        smash = smash_quiver(fx.quiver, fx.weighting, fx.window(3))
        assert local_covering_ok(smash), fx.name


def test_deck_action():
    zn = FiniteTable.cyclic(4)
    q = loop()
    w = ArrowWeighting.by_name(q, zn, {"a": 1})
    smash = smash_quiver(q, w, zn.elements())
    vmap, amap, missing = smash.deck_action(1)
    assert not missing
    # rotation by one fiber step, commuting with the projection
    for v, img in vmap.items():
        assert smash.morphism.vertex_map[v] == smash.morphism.vertex_map[img]
    ident_v, _, _ = smash.deck_action(zn.identity())
    assert all(ident_v[v] == v for v in ident_v)


def test_deck_action_partial_window():
    q = loop()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(1)})
    smash = smash_quiver(q, w, window_ball(Z, 2))
    vmap, _, missing = smash.deck_action(zint(1))
    assert missing  # top of the window falls off
    assert vmap  # but most of it maps


def test_twist():
    q = kronecker()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(0), "b": zint(1)})
    ident = VertexWeighting(q, Z, {v: Z.identity() for v in range(q.num_vertices())})
    assert twist_weighting(w, ident) == w
    gamma = VertexWeighting.by_name(q, Z, {"x": zint(0), "y": zint(1)})
    tw = twist_weighting(w, gamma)
    assert tw.of(q.arrow_index["a"]) == zint(-1)
    assert tw.of(q.arrow_index["b"]) == zint(0)


def test_twist_loop_abelian_invariant():
    q = loop()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(1)})
    for g in [zint(-2), zint(0), zint(5)]:
        gamma = VertexWeighting(q, Z, {v: g for v in range(q.num_vertices())})
        assert twist_weighting(w, gamma) == w


def test_twist_composition():
    q = kronecker()
    rng = random.Random(17)
    w = ArrowWeighting.by_name(q, Z, {"a": zint(2), "b": zint(-1)})
    for _ in range(10):
        g1 = VertexWeighting(q, Z, {v: zint(rng.randint(-3, 3)) for v in range(2)})
        g2 = VertexWeighting(q, Z, {v: zint(rng.randint(-3, 3)) for v in range(2)})
        pointwise = VertexWeighting(q, Z, {
            v: Z.multiply(g1.of(v), g2.of(v)) for v in range(2)})
        assert twist_weighting(twist_weighting(w, g1), g2) == \
            twist_weighting(w, pointwise)


def test_weighting_from_canonical_lifting():
    q = kronecker()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(0), "b": zint(1)})
    smash = smash_quiver(q, w, window_ball(Z, 3))
    cover = GaloisCoverData.from_smash(smash)
    assert weighting_from_lifting(cover, smash.canonical_lifting()) == w


def test_weighting_from_shifted_lifting_is_twist():
    q = kronecker()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(0), "b": zint(1)})
    smash = smash_quiver(q, w, window_ball(Z, 3))
    cover = GaloisCoverData.from_smash(smash)
    gamma = VertexWeighting.by_name(q, Z, {"x": zint(0), "y": zint(1)})
    lifting = smash.lifting_from_vertex_weighting(gamma)
    got = weighting_from_lifting(cover, lifting)
    assert got == twist_weighting(w, gamma)
    assert got.of(q.arrow_index["a"]) == zint(-1)
    assert got.of(q.arrow_index["b"]) == zint(0)


def test_weighting_from_lifting_loop_shift():
    q = loop()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(1)})
    smash = smash_quiver(q, w, window_ball(Z, 3))
    cover = GaloisCoverData.from_smash(smash)
    gamma = VertexWeighting(q, Z, {v: zint(2) for v in range(q.num_vertices())})
    lifting = smash.lifting_from_vertex_weighting(gamma)
    assert weighting_from_lifting(cover, lifting) == w


def test_weighting_from_finite_cover():
    from covol.quiver import QuiverMorphism
    cover_q = Quiver([str(i) for i in range(6)],
                     [("e%d" % i, i, (i + 1) % 6) for i in range(6)])
    base_q = Quiver([str(i) for i in range(3)],
                    [("e%d" % i, i, (i + 1) % 3) for i in range(3)])
    f = QuiverMorphism(cover_q, base_q, [i % 3 for i in range(6)],
                       [i % 3 for i in range(6)])
    cover = GaloisCoverData.from_finite(f, 0)
    assert cover.group.size == 2
    lifting = {0: 0, 1: 1, 2: 2}
    w = weighting_from_lifting(cover, lifting)
    # two arrows stay in the chosen sheet, the wrap-around arrow crosses
    weights = [w.of(i) for i in range(3)]
    assert weights.count(cover.group.identity()) == 2
    nontrivial = next(g for g in weights if g != cover.group.identity())
    assert cover.group.multiply(nontrivial, nontrivial) == cover.group.identity()


def test_deck_data_rejects_non_galois_cover():
    from covol.quiver import QuiverMorphism
    # permutation cover of the double loop with a non-normal stabilizer
    perm_a = {0: 1, 1: 0, 2: 2}
    perm_b = {0: 0, 1: 2, 2: 1}
    arrows = [("a%d" % i, i, perm_a[i]) for i in range(3)]
    arrows += [("b%d" % i, i, perm_b[i]) for i in range(3)]
    cover_q = Quiver(["v0", "v1", "v2"], arrows)
    base_q = Quiver(["x"], [("a", "x", "x"), ("b", "x", "x")])
    f = QuiverMorphism(cover_q, base_q, [0, 0, 0], [0, 0, 0, 1, 1, 1])
    with pytest.raises(QuiverError):
        GaloisCoverData.from_finite(f, 0)


def test_path_weight():
    q = loop()
    w = ArrowWeighting.by_name(q, Z, {"a": zint(1)})
    assert path_weight(w, [0, 0, 0]) == zint(3)
    assert path_weight(w, []) == Z.identity()


def test_lift_arrows_matches_lift_walk_on_every_fixture_path():
    """The window lift of SmashQuiver equals the generic unique-walk lift
    along the smash morphism, for every path of every fixture from every
    window fiber, and is None exactly where that lift raises."""
    from covol.fixtures import all_fixtures
    from covol.quiver import lift_walk
    lifted = left = 0
    for fx in all_fixtures():
        for radius in (1, 3):
            sq = smash_quiver(fx.quiver, fx.weighting, fx.window(radius))
            for g in sq.window:
                for i in range(len(fx.pindex)):
                    start = sq.vertex_of(fx.pindex.source(i), g)
                    try:
                        walk = lift_walk(sq.morphism, fx.pindex.walk(i), start)
                        want = tuple(b for b, _ in walk.steps)
                    except QuiverError:
                        want = None
                    got = sq.lift_arrows(fx.pindex.arrows(i), g)
                    assert got == want, (fx.name, radius, g, i)
                    if want is None:
                        left += 1
                    else:
                        lifted += 1
    assert lifted > 100 and left > 100


def test_canonical_phi_is_the_path_lift_of_the_covering_test():
    """phi of the covering isomorphism at the canonical lifting sends each
    smash symbol (p, g) to the lift of the unit path p from fiber g: the
    entry of p in the `lift_paths` table from fiber g, which
    `span_of_liftings` reads, and the path-by-path lift (`_lift_vector`,
    which read `lift_arrows`); it is undefined exactly where that lift
    leaves the window.  Every fixture path at radii 1-4."""
    from covol.coalgebra import PathIndex, SparseVector, covering_coalgebra_iso, lift_paths
    from oracles.iso_pair import _lift_vector
    from covol.fixtures import all_fixtures
    defined = undefined = 0
    for fx in all_fixtures():
        nv = fx.quiver.num_vertices()
        for radius in (1, 2, 3, 4):
            window = fx.window(radius)
            sq = smash_quiver(fx.quiver, fx.weighting, window)
            cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
            _, phi, smash, _ = covering_coalgebra_iso(
                GaloisCoverData.from_smash(sq), sq.canonical_lifting(),
                fx.pindex, cover_pindex, window)
            tables = lift_paths(fx.pindex, cover_pindex, sq.morphism.lifts,
                                [[sq.vertex_of(u, g) for u in range(nv)] for g in window])
            symbols = set()
            for g, table in zip(window, tables):
                for i in range(len(fx.pindex)):
                    lifted = _lift_vector(sq, cover_pindex, fx.pindex,
                                          SparseVector.unit(i), g)
                    sym = smash.symbol(i, g)
                    if lifted is None:
                        assert sym not in phi and table[i] is None, (fx.name, radius, g, i)
                        undefined += 1
                    else:
                        assert phi[sym] == lifted.entries == {table[i]: 1}, \
                            (fx.name, radius, g, i)
                        symbols.add(sym)
                        defined += 1
            assert set(phi) == symbols, (fx.name, radius)
    assert defined > 100 and undefined > 100
