import random

import pytest

from covol.groups import (
    FiniteTable, FgAbelian, FreeGroup, FinitelyPresented, GroupError,
    abelianize, generates, power, reduce_word, stallings_graph,
)


def test_free_reduction():
    free = FreeGroup(2)
    x, y = free.generator(0), free.generator(1)
    xyinv = free.multiply(x, free.inverse(y))
    yx = free.multiply(y, x)
    assert free.multiply(xyinv, yx) == (1, 1)  # (x y^-1)(y x) = x^2


def test_free_reduction_confluent():
    rng = random.Random(3)
    for _ in range(50):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(12)]
        # reduce in a random split order vs. left-to-right
        k = rng.randint(0, 12)
        left, right = reduce_word(letters[:k]), reduce_word(letters[k:])
        assert reduce_word(list(left) + list(right)) == reduce_word(letters)


def test_free_format():
    free = FreeGroup(2, names=["x", "y"])
    assert free.format(()) == "1"
    assert free.format((1, -2, -2)) == "x*y^-2"


def test_abelian_arithmetic():
    z = FgAbelian(1)
    three = z.element(free=[3])
    assert z.multiply(three, z.inverse(three)) == z.identity()
    z6 = FgAbelian(0, [2, 3])
    el = z6.element(torsion=[1, 2])
    assert power(z6, el, 6) == z6.identity()


def test_finite_table_cyclic():
    z5 = FiniteTable.cyclic(5)
    assert z5.multiply(3, 4) == 2
    assert z5.inverse(2) == 3
    assert z5.identity() == 0


def test_finite_table_rejects_non_group():
    with pytest.raises(GroupError):
        FiniteTable([[0, 1], [1, 1]])


def test_group_axioms_random():
    rng = random.Random(9)
    groups = [FiniteTable.cyclic(6), FgAbelian(2, [2]), FreeGroup(2)]
    samples = {
        FiniteTable: lambda g: rng.randrange(6),
        FgAbelian: lambda g: g.element(free=[rng.randint(-3, 3) for _ in range(2)],
                                       torsion=[rng.randint(0, 1)]),
        FreeGroup: lambda g: g.word([rng.choice([1, -1, 2, -2]) for _ in range(4)]),
    }
    for g in groups:
        pick = samples[type(g)]
        for _ in range(20):
            a, b, c = pick(g), pick(g), pick(g)
            assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))
            assert g.multiply(a, g.identity()) == a
            assert g.multiply(g.inverse(a), a) == g.identity()


def _random_reduced_word(rng, rank, max_len):
    return reduce_word([rng.choice([1, -1]) * rng.randint(1, rank)
                        for _ in range(rng.randint(0, max_len))])


def test_free_multiply_cancels_only_at_the_junction():
    free = FreeGroup(3)
    rng = random.Random(2011)
    kinds = {"full": 0, "partial": 0, "none": 0, "identity": 0}
    for k in range(2000):
        a = _random_reduced_word(rng, 3, 8)
        shape = k % 5
        if shape == 0:  # a . a^-1
            b = free.inverse(a)
        elif shape == 1:  # a^-1 tail, then fresh letters
            cut = rng.randint(0, len(a))
            b = reduce_word(list(free.inverse(a[cut:]))
                            + list(_random_reduced_word(rng, 3, 5)))
        elif shape == 2:
            a, b = free.identity(), a
        elif shape == 3:
            b = free.identity()
        else:
            b = _random_reduced_word(rng, 3, 8)
        got = free.multiply(a, b)
        assert got == reduce_word(a + b), (a, b)
        assert isinstance(got, tuple)
        if not a or not b:
            kinds["identity"] += 1
        elif not got:
            kinds["full"] += 1
        elif len(got) < len(a) + len(b):
            kinds["partial"] += 1
        else:
            kinds["none"] += 1
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("free_rank, torsion", [(1, ()), (2, ()), (2, (2,))])
def test_abelian_kernels_match_componentwise_reference(free_rank, torsion):
    group = FgAbelian(free_rank, torsion)
    rng = random.Random(2012 + free_rank + len(torsion))

    def pick():
        return group.element(free=[rng.randint(-9, 9) for _ in range(free_rank)],
                             torsion=[rng.randrange(t) for t in torsion])

    for _ in range(500):
        a, b = pick(), pick()
        want = (tuple(x + y for x, y in zip(a[0], b[0])),
                tuple((x + y) % t for x, y, t in zip(a[1], b[1], torsion)))
        assert group.multiply(a, b) == want
        assert group.inverse(a) == (tuple(-x for x in a[0]),
                                    tuple((-x) % t for x, t in zip(a[1], torsion)))


def test_generates_abelian():
    z = FgAbelian(1)
    assert generates(z, [z.element(free=[2]), z.element(free=[3])])  # gcd 1
    assert not generates(z, [z.element(free=[2])])
    z2 = FgAbelian(2)
    assert generates(z2, [z2.element(free=[1, 0]), z2.element(free=[1, 1])])
    assert not generates(z2, [z2.element(free=[1, 1])])
    mixed = FgAbelian(1, [2])
    assert generates(mixed, [mixed.element(free=[1], torsion=[1]),
                             mixed.element(free=[0], torsion=[1])])
    # (1,1) alone misses (0,1): index-2 subgroup
    assert not generates(mixed, [mixed.element(free=[1], torsion=[1])])
    assert not generates(mixed, [mixed.element(free=[1], torsion=[0])])


def test_generates_finite_matches_closure():
    # exhaustive closure agreement on all-torsion groups of order <= 200
    for orders in [(2,), (3,), (6,), (2, 2), (4, 3), (5, 5), (2, 2, 2), (12, 12)]:
        grp = FgAbelian(0, list(orders))
        total = 1
        for t in orders:
            total *= t
        assert total <= 200
        rng = random.Random(total)
        for _ in range(8):
            gens = [grp.element(torsion=[rng.randrange(t) for t in orders])
                    for _ in range(rng.randint(1, 3))]
            closure = {grp.identity()}
            frontier = list(closure)
            while frontier:
                nxt = []
                for x in frontier:
                    for s in gens:
                        y = grp.multiply(x, s)
                        if y not in closure:
                            closure.add(y)
                            nxt.append(y)
                frontier = nxt
            assert generates(grp, gens) == (len(closure) == total)


def test_generates_free():
    free = FreeGroup(2)
    x, y = free.generator(0), free.generator(1)
    assert generates(free, [x, y])
    assert not generates(free, [x])
    assert not generates(free, [free.multiply(x, x), y])  # <x^2, y> is proper
    assert generates(free, [free.multiply(x, y), y])  # xy and y generate


def brute_force_expressible(free, target, gens, depth):
    closure = {free.identity()}
    frontier = list(closure)
    alphabet = list(gens) + [free.inverse(g) for g in gens]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for s in alphabet:
                u = free.multiply(w, s)
                if u not in closure:
                    closure.add(u)
                    nxt.append(u)
        frontier = nxt
    return target in closure


def test_stallings_agrees_with_witness_search():
    free = FreeGroup(2)
    rng = random.Random(21)
    for _ in range(40):
        gens = [free.word([rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 3))]
        if generates(free, gens):
            for i in range(free.rank):
                assert brute_force_expressible(free, free.generator(i), gens, 4)


def test_stallings_graph_rose():
    edges = stallings_graph(2, [(1,), (2,)])
    assert {0} == {e[0] for e in edges} | {e[1] for e in edges}
    assert sorted(l for _, _, l in edges) == [1, 2]


def test_abelianize_free():
    fp = FinitelyPresented(2, [])
    grp, images = abelianize(fp)
    assert grp == FgAbelian(2)
    assert images[0] == grp.element(free=[1, 0])


def test_abelianize_commutator():
    fp = FinitelyPresented(2, [(1, 2, -1, -2)])
    grp, _ = abelianize(fp)
    assert grp == FgAbelian(2)


def test_abelianize_torsion():
    fp = FinitelyPresented(1, [(1, 1, 1)])
    grp, images = abelianize(fp)
    assert grp == FgAbelian(0, [3])
    assert power(grp, images[0], 3) == grp.identity()


def test_abelianize_chain_to_z():
    # four generators, consecutive ones identified: quotient is Z
    fp = FinitelyPresented(4, [(-1, 2), (-2, 3), (-3, 4)])
    grp, images = abelianize(fp)
    assert grp == FgAbelian(1)
    assert len(set(images)) == 1
    assert generates(grp, images)
