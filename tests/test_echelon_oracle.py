"""Differential test of the holder-indexed echelon, the table-driven smash
coproduct and the one-pass smash quiver.

`_Echelon.add` back-substitutes a new pivot only into the rows its holder
index names; the closure worklist reads the path index's splitting table
directly; `SmashCoalgebra.coproduct` reads each shift w(c2) g from a table;
and `SmashQuiver` finds arrow endpoints by index arithmetic and the
interior by degree counts.  The versions that preceded them (every row
scanned for the new pivot, `delta_vector` in the closure loop, one group
product per coproduct term, the interior by per-vertex products) are
copied below as oracles.  Rows must agree entry by entry, with the same
order and the same int/Fraction type, so reports stay byte-identical.
The package echelon takes no key; the intersection order runs on the
keyed copy in `intersection_oracle`, which must give the package
echelon's rows in natural order.
"""

import itertools
import random
from fractions import Fraction

import pytest

from covol.coalgebra import (
    PathIndex, SmashCoalgebra, TruncatedPathCoalgebra, smash_coalgebra,
    subcoalgebra_closure,
)
from covol.exactlin import SparseVector, _Echelon, rref
from covol.fixtures import all_fixtures, double_loop_fixture, sl2_fixture, tri_fixture
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver, QuiverError
from covol.voltage import ArrowWeighting, SmashQuiver, window_ball

from intersection_oracle import KeyedEchelon, intersect_coordinates
from test_closure_oracle import delta_vector, endpoints


# ---------------------------------------------------------------------------
# oracles: the scanning rules, verbatim


def _oracle_exact(x):
    return x.numerator if x.denominator == 1 else x


def _oracle_axpy(target, c, source):
    for k, v in source.items():
        s = target.get(k, 0) + c * v
        if s:
            target[k] = s
        else:
            target.pop(k, None)


class OracleEchelon:
    def __init__(self, vectors=(), key=None):
        self.rows = {}
        self.key = key
        for vec in vectors:
            self.add(vec)

    def add(self, vec):
        reduced = self.rows
        entries = dict(vec.entries)
        for p in [c for c in entries if c in reduced]:
            _oracle_axpy(entries, -entries[p], reduced[p])
        if not entries:
            return None
        col = min(entries, key=self.key)
        p = entries[col]
        if p == 1:
            row = entries
        else:
            inv = Fraction(1) / p
            row = {k: _oracle_exact(v * inv) for k, v in entries.items()}
        for other in reduced.values():
            c = other.get(col)
            if c:
                _oracle_axpy(other, -c, row)
        reduced[col] = row
        return SparseVector._wrap(row)

    def subspace(self, cols=None):
        pivots = sorted(self.rows if cols is None else
                        [p for p in self.rows if p in cols])
        return [self.rows[p] for p in pivots], pivots


def oracle_closure(pindex, generators):
    """The worklist closure over `delta_vector`; returns ({pair: (rows,
    pivots)}, every vector handed to the echelon, in order)."""
    echelon, fed = OracleEchelon(), []
    work = [SparseVector.unit(pindex.vertex_path(v))
            for v in range(pindex.quiver.num_vertices())]
    work += [SparseVector.unit(pindex.arrow_path(a))
             for a in range(pindex.quiver.num_arrows())]
    work += list(generators)
    while work:
        vec = work.pop()
        fed.append(SparseVector._wrap(dict(vec.entries)))
        row = echelon.add(vec)
        if row is None:
            continue
        rows, cols = {}, {}
        for (l, r), c in delta_vector(pindex, row).items():
            rows.setdefault(l, {})[r] = c
            cols.setdefault(r, {})[l] = c
        work += map(SparseVector._wrap, rows.values())
        work += map(SparseVector._wrap, cols.values())
    by_pair = {}
    for row, p in zip(*echelon.subspace()):
        by_pair.setdefault(endpoints(pindex, SparseVector._wrap(row)), []).append((row, p))
    return {pair: ([_typed(r) for r, _ in rps], [p for _, p in rps])
            for pair, rps in by_pair.items()}, fed


def oracle_smash_coproduct(smash, sym):
    c, g = smash.decode(sym)
    terms = []
    base_terms, truncated = smash.base.coproduct(c)
    for coeff, c1, c2 in base_terms:
        shifted = smash.group.multiply(smash.weight_of(c2), g)
        if shifted in smash.window_pos:
            terms.append((coeff, smash.symbol(c1, shifted), smash.symbol(c2, g)))
        else:
            truncated = True
    return terms, truncated


def oracle_smash_quiver(base, weighting, window):
    """(labels, arrows, vertex pairs, arrow pairs, interior), or the
    QuiverError message."""
    group = weighting.group
    window = list(window)
    window_pos = {g: i for i, g in enumerate(window)}
    if group.identity() not in window_pos:
        return "window must contain the identity"
    labels, vertex_pairs = [], []
    for g in window:
        for v in range(base.num_vertices()):
            labels.append("%s#%s" % (base.vertices[v], group.format(g)))
            vertex_pairs.append((v, g))
    vertex_of = {pair: i for i, pair in enumerate(vertex_pairs)}
    arrows, arrow_pairs = [], []
    for g in window:
        for a in range(base.num_arrows()):
            shifted = group.multiply(weighting.of(a), g)
            if shifted not in window_pos:
                continue
            name = "%s#%s" % (base.arrow_name(a), group.format(g))
            src = vertex_of[(base.source(a), g)]
            tgt = vertex_of[(base.target(a), shifted)]
            arrows.append((name, src, tgt))
            arrow_pairs.append((a, g))
    interior = set()
    for i, (v, g) in enumerate(vertex_pairs):
        outs_ok = all(group.multiply(weighting.of(a), g) in window_pos
                      for a in base.out_arrows[v])
        ins_ok = all(group.multiply(group.inverse(weighting.of(a)), g) in window_pos
                     for a in base.in_arrows[v])
        if outs_ok and ins_ok:
            interior.add(i)
    if not interior:
        return "window has empty interior"
    return labels, arrows, vertex_pairs, arrow_pairs, interior


# ---------------------------------------------------------------------------
# helpers


def _typed(entries):
    """Entries with order and scalar type, the form a report is printed from."""
    return [(k, v, type(v)) for k, v in entries.items()]


def _holders_of(echelon):
    want = {}
    for p, row in echelon.rows.items():
        for k in row:
            if k != p:
                want.setdefault(k, set()).add(p)
    return want


def _replay(vectors, key=None):
    """Feed both echelons the same vectors; after every add they must
    return the same row and hold the same rows, and the holder index must
    be exactly the non-pivot columns of the rows.  Returns the new echelon."""
    new = _Echelon() if key is None else KeyedEchelon(key=key)
    old = OracleEchelon(key=key)
    for vec in vectors:
        got, want = new.add(vec), old.add(vec)
        assert (got is None) == (want is None)
        if got is not None:
            assert _typed(got.entries) == _typed(want.entries)
        assert {p: _typed(r) for p, r in new.rows.items()} == \
            {p: _typed(r) for p, r in old.rows.items()}
        assert new._holders == _holders_of(new)
    return new


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
        (z2, lambda rng: z2.element(free=[rng.randint(-1, 1), rng.randint(0, 1)])),
        (f2, lambda rng: rng.choice(f2_letters)),
    ]


def _quivers():
    return [
        sl2_fixture(4).quiver,
        tri_fixture("ac").quiver,
        double_loop_fixture().quiver,
        Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
    ]


def _random_generators(rng, pindex, count):
    gens = []
    while len(gens) < count:
        pair = rng.choice(sorted(pindex.by_pair))
        same = [i for i in pindex.by_pair[pair] if pindex.length(i) >= 1]
        if same:
            support = rng.sample(same, min(len(same), rng.randint(1, 3)))
            gens.append(SparseVector({i: rng.choice([1, 2, -1, Fraction(1, 2), Fraction(-2, 3)])
                                      for i in support}))
    return gens


# ---------------------------------------------------------------------------
# the echelon


def test_echelon_matches_scanning_oracle_on_random_rows():
    rng = random.Random(1201)
    values = [0, 0, 0, 1, -1, 2, 3, Fraction(1, 3), Fraction(-3, 2), Fraction(4, 2)]
    fraction_pivots = 0
    for trial in range(300):
        ncols = rng.randint(1, 9)
        seen = []
        for _ in range(rng.randint(1, 14)):
            if seen and rng.random() < 0.3:  # a combination of earlier rows
                coeffs = [rng.choice(values) for _ in seen]
                seen.append({k: v for k, v in
                             ((i, sum(c * r.get(i, 0) for c, r in zip(coeffs, seen)))
                              for i in range(ncols)) if v})
            else:
                seen.append({i: v for i in range(ncols) for v in [rng.choice(values)] if v})
        vectors = [SparseVector._wrap(dict(e)) for e in seen]
        fraction_pivots += any(type(e[min(e)]) is Fraction and e[min(e)] != 1
                               for e in seen if e)
        new = _replay(vectors)
        space = rref(vectors)
        assert space.pivots == sorted(new.rows), trial
        # the keyed copy in natural order is the package echelon
        keyed = KeyedEchelon(vectors)
        assert {p: _typed(r) for p, r in keyed.rows.items()} == \
            {p: _typed(r) for p, r in new.rows.items()}, trial
    assert fraction_pivots > 50


def test_echelon_matches_scanning_oracle_under_intersection_key():
    rng = random.Random(1202)
    values = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3)]
    proper = 0
    for trial in range(200):
        ncols = rng.randint(2, 9)
        rows = [SparseVector({i: rng.choice(values) for i in range(ncols)})
                for _ in range(rng.randint(1, 8))]
        space = rref(rows)
        coords = set(rng.sample(range(ncols), rng.randint(1, ncols)))
        key = lambda c: (c in coords, c)  # the order intersect_coordinates uses
        _replay(space.rows, key=key)
        want_rows, want_pivots = OracleEchelon(space.rows, key=key).subspace(coords)
        got = intersect_coordinates(space, coords)
        assert got.pivots == want_pivots, trial
        assert [_typed(r.entries) for r in got.rows] == [_typed(r) for r in want_rows]
        proper += 0 < got.dimension < space.dimension
    assert proper > 20


def test_closure_matches_scanning_oracle_on_fixtures_and_random_generators():
    rng = random.Random(1203)
    fixtures = all_fixtures() + [sl2_fixture(24)]
    cases = [(fx.pindex, [fx.basis.row_vector(s) for s in fx.basis.symbols()])
             for fx in fixtures]
    for pindex in [sl2_fixture(24).pindex, PathIndex(double_loop_fixture().quiver, 4),
                   tri_fixture("ac").pindex]:
        cases += [(pindex, _random_generators(rng, pindex, rng.randint(1, 5)))
                  for _ in range(3)]
    for pindex, gens in cases:
        want, fed = oracle_closure(pindex, gens)
        basis = subcoalgebra_closure(pindex, gens)
        got = {pair: ([_typed(r.entries) for r in s.rows], s.pivots)
               for pair, s in basis.spaces.items()}
        assert got == want
        _replay(fed)  # the closure's own add sequence keeps the invariant


def test_closure_dimensions_are_unchanged():
    for m in (3, 5, 15):
        assert sl2_fixture(m).basis.dimension == 4 * m - 3
    for t in (2, 3, 4):
        fx = double_loop_fixture(t)
        assert fx.basis.dimension == 2 ** (t + 1) - 1


# ---------------------------------------------------------------------------
# the smash coproduct


class _CountingGroup:
    """A group that counts its products, for the shift-table bound."""

    def __init__(self, group):
        self.group = group
        self.products = 0

    def multiply(self, a, b):
        self.products += 1
        return self.group.multiply(a, b)

    def __getattr__(self, name):
        return getattr(self.group, name)


def test_smash_coproduct_matches_multiply_rule_on_every_backend():
    rng = random.Random(1204)
    truncated = interior = 0
    for group, sample in _backends():
        for quiver in _quivers():
            for trial in range(2):
                weighting = ArrowWeighting(quiver, group,
                                           {a: sample(rng) for a in range(quiver.num_arrows())})
                pindex = PathIndex(quiver, 2)
                base = TruncatedPathCoalgebra(pindex)
                weights = [pindex.weight(weighting, i) for i in range(len(pindex))]
                counting = _CountingGroup(group)
                smash = SmashCoalgebra(base, weights.__getitem__, counting,
                                       window_ball(group, rng.randint(1, 2)))
                got = {sym: smash.coproduct(sym) for sym in smash.symbols()}
                # one product per distinct (weight, window element), none per term
                pairs = {(weights[c2], g) for c, g in map(smash.decode, smash.symbols())
                         for _, _, c2 in base.coproduct(c)[0]}
                assert counting.products == len(pairs)
                for sym in smash.symbols():
                    assert smash.coproduct(sym) is got[sym]
                assert counting.products == len(pairs)
                for sym, entry in got.items():
                    assert entry == oracle_smash_coproduct(smash, sym), (group, sym)
                    truncated += entry[1]
                    interior += not entry[1]
    assert truncated and interior


def test_subcoalgebra_smash_coproduct_matches_multiply_rule():
    checked = 0
    for fx in all_fixtures():
        for radius in (1, 2):
            try:
                smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(radius))
            except ValueError:  # a fixture whose subcoalgebra is not homogeneous
                continue
            for sym in smash.symbols():
                assert smash.coproduct(sym) == oracle_smash_coproduct(smash, sym)
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# the smash quiver


def _smash_or_error(base, weighting, window):
    try:
        smash = SmashQuiver(base, weighting, window)
    except QuiverError as exc:
        return str(exc)
    assert smash.morphism.vertex_map == [v for v, _ in smash.vertex_pairs]
    assert smash.morphism.arrow_map == [a for a, _ in smash.arrow_pairs]
    return (smash.quiver.vertices, smash.quiver.arrows, smash.vertex_pairs,
            smash.arrow_pairs, smash.interior_vertices)


@pytest.mark.parametrize("radius", range(5))
def test_smash_quiver_matches_multiply_rule_on_every_fixture(radius):
    for fx in all_fixtures():
        window = fx.window(radius)
        want = oracle_smash_quiver(fx.quiver, fx.weighting, window)
        assert _smash_or_error(fx.quiver, fx.weighting, window) == want, (fx, radius)


def test_smash_quiver_matches_multiply_rule_on_every_backend():
    rng = random.Random(1205)
    partial = 0
    for group, sample in _backends():
        for quiver in _quivers():
            for radius in (0, 1, 2):
                weighting = ArrowWeighting(quiver, group,
                                           {a: sample(rng) for a in range(quiver.num_arrows())})
                window = window_ball(group, radius)
                want = oracle_smash_quiver(quiver, weighting, window)
                assert _smash_or_error(quiver, weighting, window) == want, (group, radius)
                partial += not isinstance(want, str) and \
                    len(want[4]) < len(want[2])
    assert partial  # some windows had boundary vertices
