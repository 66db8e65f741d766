import pytest

from covol.quiver import (
    Quiver, Walk, QuiverMorphism, QuiverError,
    concat, spanning_tree_pi1, walk_to_word,
    is_covering, lift_walk, is_galois_on_fiber, deck_group,
)


def loop_quiver():
    return Quiver(["x"], [("a", "x", "x")])


def double_loop_quiver():
    return Quiver(["x"], [("a", "x", "x"), ("b", "x", "x")])


def kronecker_quiver():
    return Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])


def cyclic_quiver(n):
    return Quiver([str(i) for i in range(n)],
                  [("e%d" % i, i, (i + 1) % n) for i in range(n)])


def test_walk_composition():
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z")])
    wa = Walk(q, 0, [(q.arrow_index["a"], 1)])
    wb = Walk(q, 1, [(q.arrow_index["b"], 1)])
    ba = concat(wb, wa)  # traverse a first
    assert ba.start == 0 and ba.end == 2
    assert ba.display() == "b.a"
    with pytest.raises(QuiverError):
        concat(wa, wb)


def test_walk_inverse_closes():
    q = kronecker_quiver()
    w = Walk(q, 0, [(q.arrow_index["a"], 1)])
    closed = concat(w.inverse(), w)
    assert closed.is_closed() and closed.start == 0


def test_kronecker_walk():
    q = kronecker_quiver()
    a = Walk(q, 0, ((0, 1),))
    b_inv_a = concat(Walk(q, 1, ((1, -1),)), a)
    assert b_inv_a.is_closed()
    assert b_inv_a.display() == "b-.a"


def test_pi1_ranks():
    assert spanning_tree_pi1(loop_quiver(), 0).rank == 1
    assert spanning_tree_pi1(double_loop_quiver(), 0).rank == 2
    assert spanning_tree_pi1(kronecker_quiver(), 0).rank == 1


def test_pi1_disconnected_rejected():
    q = Quiver(["x", "y"], [])
    with pytest.raises(QuiverError):
        spanning_tree_pi1(q, 0)


def test_walk_to_word_loop():
    q = loop_quiver()
    pres = spanning_tree_pi1(q, 0)
    w = Walk(q, 0, ((0, 1),))
    assert walk_to_word(pres, w) == (1,)


def test_walk_to_word_tree_only():
    q = Quiver(["x", "y"], [("a", "x", "y")])
    pres = spanning_tree_pi1(q, 0)
    w = Walk(q, 0, ((0, 1), (0, -1)))
    assert walk_to_word(pres, w) == ()


def test_walk_to_word_kronecker():
    q = kronecker_quiver()
    pres = spanning_tree_pi1(q, 0)  # BFS tree takes a; co-tree = {b}
    assert pres.cotree == [1]
    w = Walk(q, 0, ((0, 1), (1, -1)))  # b- after a
    assert walk_to_word(pres, w) == (-1,)


def test_presentation_keeps_one_fundamental_cycle_per_generator():
    for q in (loop_quiver(), double_loop_quiver(), kronecker_quiver(),
              cyclic_quiver(4)):
        pres = spanning_tree_pi1(q, 0)
        assert pres.cycles == [pres.fundamental_cycle(a) for a in pres.cotree]
        for k, cycle in enumerate(pres.cycles):
            assert walk_to_word(pres, cycle) == (k + 1,)


def test_walk_to_word_multiplicative():
    q = double_loop_quiver()
    pres = spanning_tree_pi1(q, 0)
    w1 = Walk(q, 0, ((0, 1), (1, 1)))
    w2 = Walk(q, 0, ((1, -1), (0, 1)))
    free = pres.free_group
    word_cat = walk_to_word(pres, concat(w2, w1))
    assert word_cat == free.multiply(walk_to_word(pres, w2), walk_to_word(pres, w1))


def test_walk_to_word_backtracking_invariant():
    q = double_loop_quiver()
    pres = spanning_tree_pi1(q, 0)
    w = Walk(q, 0, ((0, 1), (1, 1)))
    padded = Walk(q, 0, ((0, 1), (0, 1), (0, -1), (1, 1)))
    assert walk_to_word(pres, w) == walk_to_word(pres, padded)


def cyclic_cover_morphism(n, m):
    """Cyclic quiver of length n over cyclic of length m (m | n)."""
    cover, base = cyclic_quiver(n), cyclic_quiver(m)
    f = QuiverMorphism(cover, base,
                       [i % m for i in range(n)], [i % m for i in range(n)])
    return f


def test_is_covering():
    q = cyclic_quiver(3)
    ident = QuiverMorphism(q, q, [0, 1, 2], [0, 1, 2])
    assert is_covering(ident) == (True, None)
    assert is_covering(cyclic_cover_morphism(6, 3))[0]


def test_is_covering_fails_on_collapse():
    q = kronecker_quiver()
    line = Quiver(["x", "y"], [("a", "x", "y")])
    collapse = QuiverMorphism(q, line, [0, 1], [0, 0])
    ok, witness = is_covering(collapse)
    assert not ok and witness is not None


def test_lift_walk():
    f = cyclic_cover_morphism(6, 3)
    base = f.codomain
    w = Walk(base, 0, ((0, 1), (1, 1), (2, 1)))  # full 3-cycle
    lifted = lift_walk(f, w, 0)
    assert [lifted.start] + [f.domain.target(a) for a, _ in lifted.steps] == [0, 1, 2, 3]
    # length-0 walk lifts to the vertex itself
    assert lift_walk(f, Walk(base, 0), 0).steps == ()
    # lift of w then lift of inverse(w) returns to start
    back = lift_walk(f, w.inverse(), lifted.end)
    assert back.end == 0


def test_galois_on_fiber():
    assert is_galois_on_fiber(cyclic_cover_morphism(6, 3), 0)
    q = cyclic_quiver(3)
    ident = QuiverMorphism(q, q, [0, 1, 2], [0, 1, 2])
    assert is_galois_on_fiber(ident, 0)


def non_regular_triple_cover():
    """Connected 3-fold cover of the double loop given by the permutation
    action a = (0 1), b = (1 2): the point stabilizer is a non-normal
    index-3 subgroup, so the cover is not Galois."""
    perm_a = {0: 1, 1: 0, 2: 2}
    perm_b = {0: 0, 1: 2, 2: 1}
    arrows = []
    for i in range(3):
        arrows.append(("a%d" % i, i, perm_a[i]))
    for i in range(3):
        arrows.append(("b%d" % i, i, perm_b[i]))
    cover = Quiver(["v0", "v1", "v2"], arrows)
    base = Quiver(["x"], [("a", "x", "x"), ("b", "x", "x")])
    return QuiverMorphism(cover, base, [0, 0, 0], [0, 0, 0, 1, 1, 1])


def test_non_galois_cover_detected():
    f = non_regular_triple_cover()
    assert f.domain.is_connected()
    assert is_covering(f)[0]
    assert not is_galois_on_fiber(f, 0)


def test_deck_group_cyclic():
    f = cyclic_cover_morphism(6, 3)
    group, autos = deck_group(f, 0)
    assert group.size == 2
    rotation = next(a for a in autos if a[0][0] == 3)
    assert rotation[0] == [3, 4, 5, 0, 1, 2]


def test_empty_fiber_is_not_galois():
    # One domain vertex over x of x -> y: nothing lies over y.
    base = Quiver(["x", "y"], [("a", "x", "y")])
    f = QuiverMorphism(Quiver(["x0"], []), base, [0], [])
    assert is_galois_on_fiber(f, 0)
    assert is_galois_on_fiber(f, "y") is False
    with pytest.raises(QuiverError, match="not Galois over vertex 'y'"):
        deck_group(f, 1)


def test_dot_export():
    q = kronecker_quiver()
    dot = q.to_dot("kron")
    assert dot.startswith("digraph")
    assert '"x" -> "y" [label="a"];' in dot
    assert dot.count("->") == 2
