"""Differential test of the covering/smash coalgebra isomorphisms.

`covering_coalgebra_iso` computes psi's deck displacement once per cover
vertex and lifts base paths for phi by one-arrow prefix extension.  The
per-path version that preceded it, which computed the displacement for
every cover path and lifted every base path from its start with
`lift_walk`, is copied below as the oracle, together with the generator-
expression `verify_coalgebra_map` of the same period.  On shipped
fixtures, finite Galois covers and seeded random permutation covers
(intact, or with a duplicated or missing lift) both must give equal
psi, phi, induced weighting and smash symbols, or raise the same error.
The verifiers must agree on psi, phi, damaged copies of phi, and psi
and phi against the smash coalgebra's term lists reversed or padded with
a cancelling pair, so that both the verifier's list-equal and summed
branches are reached; the oracle verifier reads linear maps, so it is
given their unit lifts.
"""

import random

from covol.coalgebra import (
    PathIndex, TruncatedPathCoalgebra, coproduct_of_vector,
    cover_projection_map, covering_coalgebra_iso, smash_path_coalgebra,
    verify_coalgebra_map,
)
from covol.fixtures import all_fixtures
from covol.groups import FiniteTable
from covol.quiver import Quiver, QuiverError, QuiverMorphism, lift_walk
from covol.voltage import GaloisCoverData, smash_quiver, weighting_from_lifting

from corpus import _Relisted, _outcome, damaged_maps, oracle_verdict, tally_branches

# ---------------------------------------------------------------------------
# oracles: the per-path rules, verbatim but for the smash symbols, which
# are encoded through `symbol`, and for psi and phi, which are basis maps
# {symbol: symbol}


def oracle_covering_coalgebra_iso(cover, lifting, base_pindex, cover_pindex, window):
    group = cover.group
    induced = weighting_from_lifting(cover, lifting)
    smash_coalg = smash_path_coalgebra(base_pindex, induced, window)
    window_set = set(window)

    projection = cover_projection_map(cover_pindex, base_pindex, cover.morphism)
    psi_pairs = []
    for i, image in projection.items():
        src = cover_pindex.source(i)
        base_src = cover.morphism.vertex_map[src]
        sigma = group.multiply(group.inverse(cover.deck_of(lifting[base_src])),
                               cover.deck_of(src))
        if sigma in window_set:
            psi_pairs.append((i, smash_coalg.symbol(image, sigma)))
    psi = dict(psi_pairs)

    phi_pairs = []
    for g in window:
        for i in range(len(base_pindex)):
            src, _, arrows = base_pindex.paths[i]
            start = cover.act_vertex(lifting[src], g)
            if start is None:
                continue
            if not arrows:
                phi_pairs.append((smash_coalg.symbol(i, g),
                                  cover_pindex.vertex_path(start)))
                continue
            try:
                lifted = lift_walk(cover.morphism, base_pindex.walk(i), start)
            except QuiverError:
                continue
            idx = cover_pindex.path_of(tuple(a for a, _ in lifted.steps))
            if idx is not None:
                phi_pairs.append((smash_coalg.symbol(i, g), idx))
    phi = dict(phi_pairs)
    return psi, phi, smash_coalg, induced


def oracle_verify_coalgebra_map(linmap, source, target):
    checked = 0
    for sym in source.symbols():
        image = linmap.get(sym)
        if image is None:
            continue
        terms, truncated = source.coproduct(sym)
        if truncated:
            continue
        lhs, t2 = coproduct_of_vector(target, image)
        if t2:
            continue
        rhs = {}
        skip = False
        for coeff, l, r in terms:
            il, ir = linmap.get(l), linmap.get(r)
            if il is None or ir is None:
                skip = True
                break
            for a, ca in il.items():
                for b, cb in ir.items():
                    key = (a, b)
                    s = rhs.get(key, 0) + coeff * ca * cb
                    if s:
                        rhs[key] = s
                    else:
                        del rhs[key]
        if skip:
            continue
        if lhs != rhs:
            return False, sym, checked
        eps = sum((c * target.counit(t) for t, c in image.items()), 0)
        if eps != source.counit(sym):
            return False, sym, checked
        checked += 1
    return True, None, checked


# ---------------------------------------------------------------------------
# comparison


def _compare(cover, lifting, base_pindex, cover_pindex, window, seen, damage_rng):
    """Compare both isomorphism builders, then both verifiers on psi, phi,
    a phi with two arrow-path images swapped and the damaged phis of
    `damaged_maps`, drawn from `damage_rng` so that the instances drawn
    elsewhere do not move.  Returns (psi, phi) or None when both raised."""
    args = (cover, lifting, base_pindex, cover_pindex, window)
    got = _outcome(covering_coalgebra_iso, *args)
    want = _outcome(oracle_covering_coalgebra_iso, *args)
    if got[0] == "raised" or want[0] == "raised":
        assert got == want
        seen["raised"] += 1
        return None
    (psi, phi, smash, induced), (opsi, ophi, osmash, oinduced) = got[1], want[1]
    assert psi == opsi
    assert phi == ophi
    assert smash.symbols() == osmash.symbols()
    assert induced.assignment == oinduced.assignment
    seen["ok"] += 1
    cover_coalg = TruncatedPathCoalgebra(cover_pindex)
    swapped = dict(phi)
    keys = [k for k in phi if base_pindex.length(smash.decode(k)[0])][:2]
    if len(keys) == 2:
        swapped[keys[0]], swapped[keys[1]] = phi[keys[1]], phi[keys[0]]
    maps = [(psi, cover_coalg, smash), (phi, smash, cover_coalg),
            (swapped, smash, cover_coalg), (psi, cover_coalg, _Relisted(smash, "reversed")),
            (phi, _Relisted(smash, "cancel"), cover_coalg)]
    if len(phi) > 1:
        maps += [(f, smash, cover_coalg)
                 for _, f in damaged_maps(damage_rng, phi, len(cover_pindex))]
    for f, source, target in maps:
        result = verify_coalgebra_map(f, source, target)
        assert result == oracle_verdict(oracle_verify_coalgebra_map, f, source, target)
        seen["verify_ok" if result[0] else "verify_fail"] += 1
        tally_branches(seen, result, f, source, target)
    return psi, phi


def _random_liftings(rng, cover, base, window, count):
    """The lifting to each fiber's first vertex, then `count` liftings to
    its deck translates by random window elements."""
    first = {v: min(cover.morphism.fiber(v)) for v in range(base.num_vertices())}
    out = [first]
    for _ in range(count):
        out.append({v: cover.act_vertex(first[v], rng.choice(window)) for v in first})
    return out


def _new_seen():
    return {"ok": 0, "raised": 0, "verify_ok": 0, "verify_fail": 0,
            "list-equal": 0, "summed": 0}


# ---------------------------------------------------------------------------
# instances


def test_iso_matches_per_path_oracle_on_fixtures():
    rng, damage_rng = random.Random(2009), random.Random(2109)
    seen = _new_seen()
    for fx in all_fixtures():
        for radius in (1, 2, 3):
            window = fx.window(radius)
            sq = smash_quiver(fx.quiver, fx.weighting, window)
            cover = GaloisCoverData.from_smash(sq)
            cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
            liftings = [sq.canonical_lifting()]
            for _ in range(5):
                liftings.append({v: sq.vertex_of(v, rng.choice(window))
                                 for v in range(fx.quiver.num_vertices())})
            for lifting in liftings:
                _compare(cover, lifting, fx.pindex, cover_pindex, window, seen, damage_rng)
    assert all(seen.values()), seen


def test_iso_matches_per_path_oracle_on_the_cyclic_6_to_3_cover():
    cover_q = Quiver([str(i) for i in range(6)],
                     [("e%d" % i, i, (i + 1) % 6) for i in range(6)])
    base_q = Quiver([str(i) for i in range(3)],
                    [("e%d" % i, i, (i + 1) % 3) for i in range(3)])
    f = QuiverMorphism(cover_q, base_q, [i % 3 for i in range(6)],
                       [i % 3 for i in range(6)])
    cover = GaloisCoverData.from_finite(f, 0)
    window = cover.group.elements()
    damage_rng = random.Random(2108)
    seen = _new_seen()
    for truncation in (1, 3, 4):
        base_pindex, cover_pindex = PathIndex(base_q, truncation), PathIndex(cover_q, truncation)
        for bits in range(8):
            lifting = {v: v + 3 * ((bits >> v) & 1) for v in range(3)}
            psi, phi = _compare(cover, lifting, base_pindex, cover_pindex, window, seen,
                                damage_rng)
            assert len(psi) == len(cover_pindex) == len(phi)
    assert seen["ok"] == 24 and seen["verify_fail"] > 0, seen


def _permutation_cover(rng, base, degree):
    """Cyclic voltages in Z/degree: domain arrows (a, i): (s(a), i) ->
    (t(a), i + k_a).  Returns vertex pairs and arrow triples."""
    pairs = [(v, i) for v in range(base.num_vertices()) for i in range(degree)]
    rng.shuffle(pairs)
    arrows = []
    for a in range(base.num_arrows()):
        shift = rng.randrange(degree)
        for i in range(degree):
            arrows.append((a, (base.source(a), i), (base.target(a), (i + shift) % degree)))
    rng.shuffle(arrows)
    return pairs, arrows


def _cover_data(base, pairs, arrows, degree):
    """The cover as `GaloisCoverData`: sheet index as deck coordinate and
    sheet shift as deck action, read from the undamaged vertex pairs."""
    index = {p: n for n, p in enumerate(pairs)}
    dom = Quiver(["%s#%d" % (base.vertices[v], i) for v, i in pairs],
                 [("%s#%d" % (base.arrow_name(a), n), index[s], index[t])
                  for n, (a, s, t) in enumerate(arrows)])
    f = QuiverMorphism(dom, base, [v for v, _ in pairs], [a for a, _, _ in arrows])
    group = FiniteTable.cyclic(degree)

    def act(v, g):
        b, i = pairs[v]
        return index[(b, (i + g) % degree)]

    return GaloisCoverData(f, group, lambda v: pairs[v][1], act)


def test_iso_matches_per_path_oracle_on_random_permutation_covers():
    rng, damage_rng = random.Random(2010), random.Random(2110)
    seen = _new_seen()
    damaged = {"intact": 0, "duplicate": 0, "missing": 0}
    for _ in range(120):
        n = rng.randint(1, 3)
        base = Quiver(["x%d" % v for v in range(n)],
                      [("a%d" % k, rng.randrange(n), rng.randrange(n))
                       for k in range(rng.randint(1, 4))])
        degree = rng.randint(1, 4)
        pairs, arrows = _permutation_cover(rng, base, degree)
        kind = rng.choice(["intact", "duplicate", "missing"])
        if kind == "duplicate":
            arrows.insert(rng.randrange(len(arrows) + 1), rng.choice(arrows))
        elif kind == "missing":
            del arrows[rng.randrange(len(arrows))]
        cover = _cover_data(base, pairs, arrows, degree)
        window = cover.group.elements()
        truncation = rng.randint(1, 3)
        base_pindex = PathIndex(base, truncation)
        cover_pindex = PathIndex(cover.morphism.domain, truncation)
        for lifting in _random_liftings(rng, cover, base, window, 3):
            if _compare(cover, lifting, base_pindex, cover_pindex, window, seen, damage_rng):
                damaged[kind] += 1
    assert all(seen.values()), seen
    assert all(damaged.values()), damaged
