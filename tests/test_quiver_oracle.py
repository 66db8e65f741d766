"""Differential test of the covering layer.

The scan-based covering rules that preceded `QuiverMorphism.lifts` are
copied below as oracles: each finds the lifts of a base arrow at a vertex
by scanning the arrows there.  Seeded random morphisms (permutation
covers, Galois or not; collapsed, missing and duplicated lifts;
disconnected domains; morphisms missing vertices or arrows of the base)
must give the same results, witnesses and raised errors under both.
One difference is deliberate: over a base vertex with an empty fiber the
oracles raise `IndexError`, while `is_galois_on_fiber` says False and
`deck_group` raises `QuiverError`.

`SmashQuiver` builds its arrow table and interior eagerly and its labels,
`Quiver` and morphism on first read.  The eager construction that built
them all at once, with the interior from the cover's arrow lists, is
copied below as `OracleSmashQuiver`; both must give the same quiver,
morphism and interior, or the same error.
"""

import random
from types import SimpleNamespace

from covol.groups import FiniteTable
from covol.quiver import (
    Quiver, QuiverError, QuiverMorphism, Walk, covering_automorphism,
    deck_group, is_covering, is_galois_on_fiber, lift_walk,
)
from covol.fixtures import all_fixtures
from covol.voltage import ArrowWeighting, SmashQuiver, local_covering_ok, smash_quiver, \
    window_ball

from corpus import Z, _backends, _outcome, _quivers


# ---------------------------------------------------------------------------
# oracles: the scan-based rules, verbatim


def oracle_is_covering(morphism, require_connected=True):
    dom, cod = morphism.domain, morphism.codomain
    if require_connected and not (dom.is_connected() and cod.is_connected()):
        return False, None
    if set(morphism.vertex_map) != set(range(cod.num_vertices())):
        return False, None
    if set(morphism.arrow_map) != set(range(cod.num_arrows())):
        return False, None
    for v in range(dom.num_vertices()):
        img = morphism.vertex_map[v]
        outs = [morphism.arrow_map[a] for a in dom.out_arrows[v]]
        ins = [morphism.arrow_map[a] for a in dom.in_arrows[v]]
        if sorted(outs) != sorted(cod.out_arrows[img]):
            return False, v
        if sorted(ins) != sorted(cod.in_arrows[img]):
            return False, v
    return True, None


def oracle_local_covering_ok(smash):
    q = smash.quiver
    base = smash.base
    f = smash.morphism
    for v in smash.interior_vertices:
        img = f.vertex_map[v]
        outs = sorted(f.arrow_map[a] for a in q.out_arrows[v])
        ins = sorted(f.arrow_map[a] for a in q.in_arrows[v])
        if outs != sorted(base.out_arrows[img]) or ins != sorted(base.in_arrows[img]):
            return False
    return True


def oracle_lift_walk(morphism, walk, start):
    dom = morphism.domain
    if morphism.vertex_map[start] != walk.start:
        raise QuiverError("start vertex does not lie over the walk's start")
    cur = start
    steps = []
    for a, sign in walk.steps:
        if sign == 1:
            candidates = [b for b in dom.out_arrows[cur] if morphism.arrow_map[b] == a]
        else:
            candidates = [b for b in dom.in_arrows[cur] if morphism.arrow_map[b] == a]
        if len(candidates) != 1:
            raise QuiverError("not a covering at vertex %r" % dom.vertices[cur])
        b = candidates[0]
        steps.append((b, sign))
        cur = dom.target(b) if sign == 1 else dom.source(b)
    return Walk(dom, start, steps)


def oracle_covering_automorphism(morphism, src_vertex, dst_vertex):
    dom = morphism.domain
    if morphism.vertex_map[src_vertex] != morphism.vertex_map[dst_vertex]:
        return None
    vmap = {src_vertex: dst_vertex}
    amap = {}
    frontier = [src_vertex]
    while frontier:
        v = frontier.pop()
        w = vmap[v]
        for a in dom.out_arrows[v]:
            image = [b for b in dom.out_arrows[w]
                     if morphism.arrow_map[b] == morphism.arrow_map[a]]
            if len(image) != 1:
                return None
            b = image[0]
            if amap.setdefault(a, b) != b:
                return None
            t, tb = dom.target(a), dom.target(b)
            if t in vmap:
                if vmap[t] != tb:
                    return None
            else:
                vmap[t] = tb
                frontier.append(t)
        for a in dom.in_arrows[v]:
            image = [b for b in dom.in_arrows[w]
                     if morphism.arrow_map[b] == morphism.arrow_map[a]]
            if len(image) != 1:
                return None
            b = image[0]
            if amap.setdefault(a, b) != b:
                return None
            s, sb = dom.source(a), dom.source(b)
            if s in vmap:
                if vmap[s] != sb:
                    return None
            else:
                vmap[s] = sb
                frontier.append(s)
    if len(vmap) != dom.num_vertices() or len(amap) != dom.num_arrows():
        return None
    if sorted(vmap.values()) != list(range(dom.num_vertices())):
        return None
    vperm = [vmap[v] for v in range(dom.num_vertices())]
    aperm = [amap[a] for a in range(dom.num_arrows())]
    return vperm, aperm


def oracle_is_galois_on_fiber(morphism, base_vertex):
    if isinstance(base_vertex, str):
        base_vertex = morphism.codomain.vertex_index[base_vertex]
    fiber = morphism.fiber(base_vertex)
    anchor = fiber[0]
    return all(oracle_covering_automorphism(morphism, anchor, v) is not None
               for v in fiber)


def oracle_deck_group(morphism, base_vertex):
    if isinstance(base_vertex, str):
        base_vertex = morphism.codomain.vertex_index[base_vertex]
    fiber = morphism.fiber(base_vertex)
    anchor = fiber[0]
    autos = []
    for v in fiber:
        auto = oracle_covering_automorphism(morphism, anchor, v)
        if auto is None:
            raise QuiverError("covering is not Galois over vertex %r"
                              % morphism.codomain.vertices[base_vertex])
        autos.append(auto)
    index_of = {auto[0][anchor]: i for i, auto in enumerate(autos)}
    table = []
    for g, (vg, _) in enumerate(autos):
        row = []
        for h, (vh, _) in enumerate(autos):
            row.append(index_of[vh[vg[anchor]]])
        table.append(row)
    group = FiniteTable(table)
    return group, autos


class OracleSmashQuiver:
    """The eager smash quiver construction, verbatim."""

    def __init__(self, base, weighting, window):
        self.base = base
        self.weighting = weighting
        group = weighting.group
        self.group = group
        self.window = list(window)
        self.window_pos = {g: i for i, g in enumerate(self.window)}
        if group.identity() not in self.window_pos:
            raise QuiverError("window must contain the identity")

        nv = base.num_vertices()
        names = [group.format(g) for g in self.window]
        labels = ["%s#%s" % (x, name) for name in names for x in base.vertices]
        self.vertex_pairs = [(v, g) for g in self.window for v in range(nv)]
        self._vertex_of = {pair: i for i, pair in enumerate(self.vertex_pairs)}

        # vertex (v, g) has index window_pos[g] * nv + v
        arrows = []
        self.arrow_pairs = []
        arrow_map = []
        weights = [weighting.of(a) for a in range(base.num_arrows())]
        for k, g in enumerate(self.window):
            for a, (arrow_name, s, t) in enumerate(base.arrows):
                j = self.window_pos.get(group.multiply(weights[a], g))
                if j is None:
                    continue
                src, tgt = k * nv + s, j * nv + t
                arrows.append(("%s#%s" % (arrow_name, names[k]), src, tgt))
                self.arrow_pairs.append((a, g))
                arrow_map.append(a)
        self.quiver = Quiver(labels, arrows)
        self._arrow_of = {pair: i for i, pair in enumerate(self.arrow_pairs)}
        self.morphism = QuiverMorphism(self.quiver, base, [v for v, _ in self.vertex_pairs],
                                       arrow_map)

        # (v, g) is interior when every arrow at v lifts there: (a, g) for a
        # leaving v, (a, w(a)^-1 g) for a entering v, both inside the window
        cover = self.quiver
        interior = {i for i, (v, _) in enumerate(self.vertex_pairs)
                    if len(cover.out_arrows[i]) == len(base.out_arrows[v])
                    and len(cover.in_arrows[i]) == len(base.in_arrows[v])}
        self.interior_vertices = interior
        if not interior:
            raise QuiverError("window has empty interior")


# ---------------------------------------------------------------------------
# seeded random morphisms


def _random_base(rng):
    n = rng.randint(1, 4)
    arrows = [("a%d" % k, rng.randrange(n), rng.randrange(n))
              for k in range(rng.randint(1, 6))]
    return Quiver(["x%d" % v for v in range(n)], arrows)


def _random_perm(rng, degree, kind):
    if kind == "cyclic":  # a voltage in Z/degree: a Galois cover when connected
        shift = rng.randrange(degree)
        return [(i + shift) % degree for i in range(degree)]
    if kind == "trivial":  # degree disjoint sheets
        return list(range(degree))
    perm = list(range(degree))
    rng.shuffle(perm)
    return perm


def _permutation_cover(rng, base, degree, kind):
    """Domain arrows (a, i): (s(a), i) -> (t(a), pi_a(i)), with the domain
    vertices and arrows shuffled so their numbering carries no structure.
    Returns (vertex pairs, arrow triples (a, source pair, target pair))."""
    pairs = [(v, i) for v in range(base.num_vertices()) for i in range(degree)]
    rng.shuffle(pairs)
    arrows = []
    for a in range(base.num_arrows()):
        perm = _random_perm(rng, degree, kind)
        for i in range(degree):
            arrows.append((a, (base.source(a), i), (base.target(a), perm[i])))
    rng.shuffle(arrows)
    return pairs, arrows


def _damage(rng, base, pairs, arrows, degree):
    """One defect: a collapsed lift (an arrow moved onto another sheet at
    its source or its target), a missing lift, a duplicated lift, all
    lifts of one base arrow dropped, or the vertices over a base vertex
    dropped.  Returns the defect's name and the damaged data."""
    kind = rng.choice(["move_source", "move_target", "missing", "duplicate",
                       "drop_arrow", "drop_vertex"])
    arrows = list(arrows)
    k = rng.randrange(len(arrows))
    a, src, tgt = arrows[k]
    if kind == "move_source":
        arrows[k] = (a, (src[0], rng.randrange(degree)), tgt)
    elif kind == "move_target":
        arrows[k] = (a, src, (tgt[0], rng.randrange(degree)))
    elif kind == "missing":
        del arrows[k]
    elif kind == "duplicate":
        arrows.insert(rng.randrange(len(arrows) + 1), arrows[k])
    elif kind == "drop_arrow":
        arrows = [arr for arr in arrows if arr[0] != a]
    else:
        v = rng.randrange(base.num_vertices())
        pairs = [p for p in pairs if p[0] != v]
        arrows = [arr for arr in arrows if arr[1][0] != v and arr[2][0] != v]
    return kind, pairs, arrows


def _morphism(base, pairs, arrows):
    index = {p: n for n, p in enumerate(pairs)}
    dom = Quiver(["%s#%d" % (base.vertices[v], i) for v, i in pairs],
                 [("%s#%d" % (base.arrow_name(a), n), index[s], index[t])
                  for n, (a, s, t) in enumerate(arrows)])
    return QuiverMorphism(dom, base, [v for v, _ in pairs], [a for a, _, _ in arrows])


def _random_walk(rng, quiver, start, length):
    steps, cur = [], start
    for _ in range(length):
        moves = [(a, 1) for a in quiver.out_arrows[cur]] + \
                [(a, -1) for a in quiver.in_arrows[cur]]
        if not moves:
            break
        a, sign = rng.choice(moves)
        steps.append((a, sign))
        cur = quiver.target(a) if sign == 1 else quiver.source(a)
    return Walk(quiver, start, steps)


def _random_morphisms(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        base = _random_base(rng)
        degree = rng.randint(1, 4)
        kind = rng.choice(["cyclic", "cyclic", "random", "random", "trivial"])
        pairs, arrows = _permutation_cover(rng, base, degree, kind)
        if rng.random() < 0.5:
            kind, pairs, arrows = _damage(rng, base, pairs, arrows, degree)
        if pairs:
            yield kind, rng, _morphism(base, pairs, arrows)


def test_covering_layer_matches_scan_oracles():
    seen = {"covering": 0, "not_covering": 0, "local_witness": 0,
            "disconnected_domain": 0, "vertex_gap": 0, "arrow_gap": 0,
            "galois_cover": 0, "non_galois_cover": 0, "lift_ok": 0, "lift_raised": 0,
            "automorphisms": 0, "empty_fiber": 0}
    kinds = set()
    for kind, rng, f in _random_morphisms(1108, 400):
        kinds.add(kind)
        dom, cod = f.domain, f.codomain
        got = is_covering(f)
        assert got == oracle_is_covering(f), kind
        seen["covering" if got[0] else "not_covering"] += 1
        seen["local_witness"] += got[1] is not None
        seen["disconnected_domain"] += not dom.is_connected()
        if dom.is_connected() and cod.is_connected():
            seen["vertex_gap"] += set(f.vertex_map) != set(range(cod.num_vertices()))
            seen["arrow_gap"] += set(f.arrow_map) != set(range(cod.num_arrows()))

        interior = {v for v in range(dom.num_vertices()) if rng.random() < 0.7}
        smash = SimpleNamespace(quiver=dom, base=cod, morphism=f,
                                interior_vertices=interior)
        assert local_covering_ok(smash) == oracle_local_covering_ok(smash), kind

        for b in range(cod.num_vertices()):
            name = cod.vertices[b] if rng.random() < 0.5 else b
            galois = _outcome(is_galois_on_fiber, f, name)
            deck = _outcome(deck_group, f, name)
            want = _outcome(oracle_deck_group, f, name)
            if not f.fiber(b):
                # Deliberate difference: the oracles index the empty fiber.
                index_error = ("raised", "IndexError", "list index out of range")
                assert _outcome(oracle_is_galois_on_fiber, f, name) == index_error
                assert want == index_error
                assert galois == ("ok", False), kind
                assert deck[:2] == ("raised", "QuiverError"), kind
                seen["empty_fiber"] += 1
                continue
            assert galois == _outcome(oracle_is_galois_on_fiber, f, name), kind
            if got[0]:
                seen["galois_cover" if galois[1] else "non_galois_cover"] += 1
            if deck[0] == "ok" and want[0] == "ok":
                assert deck[1][0].table == want[1][0].table and deck[1][1] == want[1][1]
            else:
                assert deck == want, kind

        for _ in range(3):
            src, dst = rng.randrange(dom.num_vertices()), rng.randrange(dom.num_vertices())
            auto = covering_automorphism(f, src, dst)
            assert auto == oracle_covering_automorphism(f, src, dst), kind
            seen["automorphisms"] += auto is not None

        for _ in range(3):
            walk = _random_walk(rng, cod, rng.randrange(cod.num_vertices()),
                                rng.randint(0, 5))
            fiber = f.fiber(walk.start)
            start = rng.choice(fiber) if fiber and rng.random() < 0.9 \
                else rng.randrange(dom.num_vertices())
            lifted = _outcome(lift_walk, f, walk, start)
            assert lifted == _outcome(oracle_lift_walk, f, walk, start), kind
            seen["lift_ok" if lifted[0] == "ok" else "lift_raised"] += 1

    assert kinds == {"cyclic", "random", "trivial", "move_source", "move_target",
                     "missing", "duplicate", "drop_arrow", "drop_vertex"}
    assert all(seen.values()), seen


def test_local_covering_ok_matches_oracle_on_windowed_smash_quivers():
    rng = random.Random(1109)
    boundary = 0
    for _ in range(40):
        base = _random_base(rng)
        w = ArrowWeighting(base, Z, {a: Z.element(free=[rng.randint(-2, 2)])
                                     for a in range(base.num_arrows())})
        try:
            sq = smash_quiver(base, w, window_ball(Z, rng.randint(1, 3)))
        except QuiverError:  # empty interior
            continue
        assert local_covering_ok(sq) == oracle_local_covering_ok(sq)
        all_vertices = SimpleNamespace(quiver=sq.quiver, base=base, morphism=sq.morphism,
                                       interior_vertices=range(sq.quiver.num_vertices()))
        ok = local_covering_ok(all_vertices)
        assert ok == oracle_local_covering_ok(all_vertices)
        boundary += not ok
    assert boundary > 0


def _smash_or_error(make, base, weighting, window):
    try:
        sq = make(base, weighting, window)
    except QuiverError as exc:
        return str(exc)
    f = sq.morphism
    return (sq.quiver.vertices, sq.quiver.arrows, f.vertex_map, f.arrow_map,
            f.domain is sq.quiver, sq.interior_vertices, sq.vertex_pairs, sq.arrow_pairs)


def test_smash_quiver_matches_eager_oracle():
    # every fixture at radii 0-4 and seeded weightings on all five backends
    cases = [(fx.quiver, fx.weighting, fx.window(r)) for fx in all_fixtures()
             for r in range(5)]
    rng = random.Random(1907)
    for group, sample in _backends():
        for quiver in _quivers():
            for radius in (0, 1, 2):
                w = ArrowWeighting(quiver, group, {a: sample(rng)
                                                   for a in range(quiver.num_arrows())})
                cases.append((quiver, w, window_ball(group, radius)))
    built = raised = 0
    for case in cases:
        want = _smash_or_error(OracleSmashQuiver, *case)
        assert _smash_or_error(SmashQuiver, *case) == want, case
        if isinstance(want, str):
            assert want == "window has empty interior"
            raised += 1
        else:
            sq = SmashQuiver(*case)
            assert sq.arrow_ends == [(s, t) for _, s, t in want[1]]
            built += 1
    assert built and raised
