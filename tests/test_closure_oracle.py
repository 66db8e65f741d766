"""Differential test of the subcoalgebra closure worklist, its basis
assembly and the escape check.

`subcoalgebra_closure` seeds its echelon with every vertex and arrow and
queues only components that can enlarge the span: none supported on
paths of length <= 1, none equal to the row just added, and one unit
component per path.  The closure that preceded it (vertices, arrows and
every component pushed through the echelon) is copied below as the
oracle.  Both must span the same space, so their RREF rows must agree by
value, and both must raise, or not, alike.  A wrapper on `_Echelon.add`,
installed only here, counts the echelon adds each one makes.

The closure then reads its basis straight off the echelon rows, taking
each row's endpoint pair from its pivot, and `SubcoalgebraBasis.coproduct`
keys its escape check on the int l * N + r.  The assembly that preceded
them (`endpoints` per row over `echelon.subspace()`, `min` pivots) and the
tuple-keyed escape check over `delta_vector` are copied below too, on the
helpers kept in `oracles.path_vectors`.  On the same worklist, both must
give the same spaces, rows entry by entry, pivots, symbol order and
coproduct terms in order, or the same error.
"""

import importlib.util
import os
import random
from fractions import Fraction

import pytest

from covol import coalgebra, fixtures, workspace
from covol.coalgebra import (
    CoalgebraError, PathIndex, SubcoalgebraBasis, _no_symbol, full_subcoalgebra,
    subcoalgebra_closure,
)
from covol.exactlin import SparseVector, Subspace, _Echelon
from covol.fixtures import (
    all_fixtures, double_loop_fixture, kronecker_fixture, loop_fixture, sl2_fixture,
    tri_fixture,
)
from covol.quiver import Quiver

from corpus import ROOT
from oracles.identity_fiber import RootedPathIndex
from oracles.path_vectors import delta_vector, endpoints


# ---------------------------------------------------------------------------
# oracles: the basis assembly and the escape check as they were, verbatim


class OracleBasis(SubcoalgebraBasis):
    """`SubcoalgebraBasis` with the tuple-keyed escape check."""

    def coproduct(self, sym):
        if sym in self._coproduct_cache:
            return self._coproduct_cache[sym]
        if not 0 <= sym < self.dimension:
            raise _no_symbol(self, sym)
        rows, pivot_of = self._rows, self._pivot_of
        diff = delta_vector(self.pindex, rows[sym])
        terms = [(c, pivot_of[pl], pivot_of[pr]) for (pl, pr), c in diff.items()
                 if pl in pivot_of and pr in pivot_of]
        for coeff, sl, sr in terms:  # diff becomes the coproduct minus its rebuild
            lvec, rvec = rows[sl], rows[sr]
            for i, a in lvec.items():
                for j, b in rvec.items():
                    key = (i, j)
                    diff[key] = diff.get(key, 0) - coeff * a * b
        if any(diff.values()):
            raise CoalgebraError("coproduct escapes the subcoalgebra at %r"
                                 % self.label(sym))
        self._coproduct_cache[sym] = (terms, False)
        return self._coproduct_cache[sym]


def oracle_assembly(pindex, echelon):
    """The basis as the closure built it from its finished echelon."""
    by_pair = {}
    for row in echelon.subspace().rows:  # pivot order, so each pair's rows are its RREF
        pair = endpoints(pindex, row)
        if pair is None:
            raise CoalgebraError("closure produced a mixed-endpoint element")
        by_pair.setdefault(pair, []).append(row)
    sub = OracleBasis(pindex, {p: Subspace(rs, [min(r.entries) for r in rs])
                               for p, rs in by_pair.items()})
    for sym in sub.symbols():
        sub.coproduct(sym)  # raises if the span is not a subcoalgebra
    return sub


def oracle_worklist_closure(pindex, generators):
    """The closure with today's worklist and the assembly above."""
    quiver, echelon = pindex.quiver, _Echelon()
    for v in range(quiver.num_vertices()):
        echelon.add(SparseVector._wrap({pindex.vertex_path(v): 1}))
    for a in range(quiver.num_arrows()):
        echelon.add(SparseVector._wrap({pindex.arrow_path(a): 1}))
    short = quiver.num_vertices() + quiver.num_arrows()
    work = list(generators)
    queued = set()  # paths k with a unit component {k: c} queued
    table, split = pindex._coproducts, pindex._split
    while work:
        row = echelon.add(work.pop())
        if row is None:
            continue
        entries = row.entries
        rows, cols = {}, {}
        for i, c in entries.items():  # a splitting composes to path i, so none repeats
            for _, l, r in (table[i] or split(i))[0]:
                rows.setdefault(l, {})[r] = c
                cols.setdefault(r, {})[l] = c
        for comp in (*rows.values(), *cols.values()):
            if max(comp) < short or comp == entries:
                continue
            if len(comp) == 1:
                (k,) = comp
                if k in queued:
                    continue
                queued.add(k)
            work.append(SparseVector._wrap(comp))
    return oracle_assembly(pindex, echelon)


def oracle_closure(pindex, generators):
    echelon = _Echelon()
    work = [SparseVector.unit(pindex.vertex_path(v))
            for v in range(pindex.quiver.num_vertices())]
    work += [SparseVector.unit(pindex.arrow_path(a))
             for a in range(pindex.quiver.num_arrows())]
    work += list(generators)
    table, split = pindex._coproducts, pindex._split
    while work:
        row = echelon.add(work.pop())
        if row is None:
            continue
        rows, cols = {}, {}
        for i, c in row.entries.items():  # a splitting composes to path i, so none repeats
            for _, l, r in (table[i] or split(i))[0]:
                rows.setdefault(l, {})[r] = c
                cols.setdefault(r, {})[l] = c
        work += map(SparseVector._wrap, rows.values())
        work += map(SparseVector._wrap, cols.values())
    return oracle_assembly(pindex, echelon)


# ---------------------------------------------------------------------------
# helpers


class _AddCounter:
    """Counts `_Echelon.add` calls and those that return None (a vector
    the span already held)."""

    def __init__(self, monkeypatch):
        self.adds = self.wasted = 0
        add = _Echelon.add

        def counting(echelon, vec):
            row = add(echelon, vec)
            self.adds += 1
            self.wasted += row is None
            return row

        monkeypatch.setattr(_Echelon, "add", counting)

    def take(self):
        out = (self.adds, self.wasted)
        self.adds = self.wasted = 0
        return out


def _outcome(closure, pindex, gens):
    """(rows by value, None) or (None, (exception type, message))."""
    try:
        basis = closure(pindex, gens)
    except (CoalgebraError, KeyError) as exc:
        return None, (type(exc), str(exc))
    return {pair: ([sorted(r.entries.items()) for r in s.rows], s.pivots)
            for pair, s in basis.spaces.items()}, None


def _typed(basis):
    return {pair: [[(k, v, type(v)) for k, v in sorted(r.entries.items())]
                   for r in s.rows] for pair, s in basis.spaces.items()}


def _compare(counter, pindex, gens):
    """Both closures on one case: equal rows by value or the same error,
    and no more echelon adds than the oracle.  Returns the new closure's
    (adds, wasted adds) and its outcome."""
    want = _outcome(oracle_closure, pindex, gens)
    oracle_adds, _ = counter.take()
    got = _outcome(subcoalgebra_closure, pindex, gens)
    adds = counter.take()
    assert got == want
    if want[1] is None:
        assert adds[0] <= oracle_adds
    return adds, got


def _recorded_closures(monkeypatch, build):
    """Every (path index, generators) that `build` closes."""
    seen = []

    def record(pindex, generators):
        generators = list(generators)
        seen.append((pindex, generators))
        return subcoalgebra_closure(pindex, generators)

    for module in (coalgebra, fixtures, workspace):
        monkeypatch.setattr(module, "subcoalgebra_closure", record)
    build()
    for module in (coalgebra, fixtures, workspace):
        monkeypatch.setattr(module, "subcoalgebra_closure", subcoalgebra_closure)
    return seen


def _shipped_workspaces():
    for name in sorted(os.listdir(os.path.join(ROOT, "src", "covol", "fixtures"))):
        with open(os.path.join(ROOT, "src", "covol", "fixtures", name), encoding="utf-8") as f:
            workspace.parse(f.read())


def _benchmark_closures(monkeypatch):
    """The 11 closures of one `build_verify` pass at seed 11."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ops = module.build_verify_ops(11)[:11]

    def run():
        for op in ops:
            op.run()

    return _recorded_closures(monkeypatch, run)


def _random_generators(rng, pindex):
    """1-4 generators, each a Fraction combination of 1-4 paths of any
    length and any endpoints."""
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    return [SparseVector({i: rng.choice(coeffs)
                          for i in rng.sample(range(len(pindex)),
                                              min(len(pindex), rng.randint(1, 4)))})
            for _ in range(rng.randint(1, 4))]


def _pure_generators(rng, pindex):
    """1-4 generators, each a combination of 1-3 paths sharing the
    endpoints of a random anchor path."""
    gens = []
    for _ in range(rng.randint(1, 4)):
        src, tgt, _ = pindex.paths[rng.randrange(len(pindex))]
        same = pindex.by_pair[src, tgt]
        gens.append(SparseVector({i: rng.choice([1, 2, -1, Fraction(1, 2)])
                                  for i in rng.sample(same, min(len(same), rng.randint(1, 3)))}))
    return gens


def _units(pindex):
    return [SparseVector.unit(i) for i in range(len(pindex))]


def _full_fixture_indices():
    """The path indices of the fixtures built by `full_subcoalgebra`."""
    return [loop_fixture().pindex, double_loop_fixture().pindex,
            kronecker_fixture().pindex]


# ---------------------------------------------------------------------------
# tests


def test_closure_matches_oracle_on_shipped_fixtures(monkeypatch):
    cases = _recorded_closures(monkeypatch, all_fixtures)
    cases += _recorded_closures(monkeypatch, _shipped_workspaces)
    # loop, dbl and kron build their full coalgebras without a closure;
    # the closure of their units is still compared here
    cases += [(pindex, _units(pindex)) for pindex in _full_fixture_indices()]
    assert len(cases) == 12
    counter = _AddCounter(monkeypatch)
    for pindex, gens in cases:
        _, (_, error) = _compare(counter, pindex, gens)
        assert error is None
        # the shipped closures keep every scalar's type too
        assert _typed(subcoalgebra_closure(pindex, gens)) == \
            _typed(oracle_closure(pindex, gens))


def test_full_subcoalgebra_is_the_closure_of_the_units(monkeypatch):
    """On every fixture and on the double loop at truncation 4 to 6, the
    directly built full coalgebra has the spaces, pivots and symbol order
    of the closure of all units, and no closure runs to build it."""
    dbl = double_loop_fixture(1).quiver
    indices = [fx.pindex for fx in all_fixtures()] + [PathIndex(dbl, t) for t in (4, 5, 6)]
    for pindex in indices:
        want = subcoalgebra_closure(pindex, _units(pindex))
        monkeypatch.setattr(coalgebra, "subcoalgebra_closure", None)
        got = full_subcoalgebra(pindex)
        monkeypatch.undo()
        assert got.spaces == want.spaces
        assert {p: s.pivots for p, s in got.spaces.items()} == \
            {p: s.pivots for p, s in want.spaces.items()}
        assert got.basis_rows == want.basis_rows
        assert [got.label(s) for s in got.symbols()] == \
            [want.label(s) for s in want.symbols()]
        assert got.dimension == len(pindex)


def test_closure_matches_oracle_on_benchmark_closures(monkeypatch):
    cases = _benchmark_closures(monkeypatch)
    assert len(cases) == 11
    counter = _AddCounter(monkeypatch)
    adds = wasted = 0
    for pindex, gens in cases:
        (a, w), (_, error) = _compare(counter, pindex, gens)
        assert error is None
        assert _typed(subcoalgebra_closure(pindex, gens)) == \
            _typed(oracle_closure(pindex, gens))
        adds, wasted = adds + a, wasted + w
    assert adds <= 1500  # 8,680 echelon adds before, 7,444 of them wasted
    assert wasted <= 150


@pytest.mark.parametrize("m", [3, 5, 15, 24])
def test_sl2_closure_wastes_no_echelon_add(monkeypatch, m):
    (pindex, gens), = _recorded_closures(monkeypatch, lambda: sl2_fixture(m))
    counter = _AddCounter(monkeypatch)
    (adds, wasted), (_, error) = _compare(counter, pindex, gens)
    assert error is None and wasted == 0
    assert adds == pindex.quiver.num_vertices() + pindex.quiver.num_arrows() + m - 1


def test_closure_matches_oracle_on_random_mixed_generators(monkeypatch):
    rng = random.Random(1501)
    quivers = [double_loop_fixture().quiver, sl2_fixture(5).quiver,
               kronecker_fixture().quiver, tri_fixture("ac").quiver,
               Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")])]
    counter = _AddCounter(monkeypatch)
    cases = mixed = 0
    for quiver in quivers:
        for truncation in (1, 2, 3):
            pindex = PathIndex(quiver, truncation)
            for _ in range(36):
                gens = _random_generators(rng, pindex)
                mixed += any(endpoints(pindex, g) is None for g in gens)
                _, (_, error) = _compare(counter, pindex, gens)
                assert error is None
                cases += 1
    assert cases == 540 and mixed > 200


def test_closure_raises_as_the_oracle_does(monkeypatch):
    counter = _AddCounter(monkeypatch)
    q = double_loop_fixture().quiver
    bare = Quiver(["x", "y"], [])
    cases = [
        (PathIndex(q, 0), []),  # truncation 0 with arrows
        (RootedPathIndex(q, 2, [0]), [SparseVector.unit(3)]),  # rooted
        (RootedPathIndex(sl2_fixture(3).quiver, 2, [0]), []),  # a vertex left out
    ]
    for pindex, gens in cases:
        _, (rows, error) = _compare(counter, pindex, gens)
        assert rows is None and error is not None
    _, (rows, error) = _compare(counter, PathIndex(bare, 0), [SparseVector.unit(1)])
    assert error is None and len(rows) == 2


# ---------------------------------------------------------------------------
# the basis read off the echelon and the int-keyed escape check


def _dump(basis):
    """What a report can read of a basis: each pair's rows, entry by entry
    in order with each scalar's type, its pivots, the symbol order and
    every coproduct's terms in order."""
    spaces = [(pair, [[(k, v, type(v)) for k, v in row.entries.items()] for row in s.rows],
               s.pivots) for pair, s in basis.spaces.items()]
    terms = [[(c, type(c), l, r) for c, l, r in basis.coproduct(sym)[0]]
             for sym in basis.symbols()]
    return spaces, basis.basis_rows, terms


def _dump_outcome(closure, pindex, gens):
    """(dump, None) or (None, (exception type, message))."""
    try:
        return _dump(closure(pindex, gens)), None
    except (CoalgebraError, KeyError) as exc:
        return None, (type(exc), str(exc))


def _assert_same_basis(pindex, gens):
    """The closure and the oracle assembly on the same worklist agree;
    returns whether they raised."""
    got = _dump_outcome(subcoalgebra_closure, pindex, gens)
    assert got == _dump_outcome(oracle_worklist_closure, pindex, gens)
    return got[1] is not None


def test_basis_off_the_echelon_matches_the_oracle_assembly(monkeypatch):
    """The six fixtures' closures (and the closures of their units), the
    shipped workspaces and the 11 `build_verify` closures: sl2(m) for
    m = 15, 31, 63, 95, the full double loop at truncation 4 to 6 and the
    four random ones."""
    cases = _recorded_closures(monkeypatch, all_fixtures)
    cases += _recorded_closures(monkeypatch, _shipped_workspaces)
    cases += [(fx.pindex, _units(fx.pindex)) for fx in all_fixtures()]
    cases += _benchmark_closures(monkeypatch)
    assert len(cases) == 26
    for pindex, gens in cases:
        assert not _assert_same_basis(pindex, gens)
    # the fixtures built by `full_subcoalgebra` run the same escape check
    for fx in all_fixtures():
        oracle = OracleBasis(fx.pindex, fx.basis.spaces)
        assert _dump(fx.basis) == _dump(oracle)


def test_basis_off_the_echelon_matches_on_random_generators():
    """Seeded generator sets, endpoint-pure and mixed, on the sl2q, tri, uv
    and double-loop quivers at truncation 2 to 4."""
    rng = random.Random(2023)
    quivers = [sl2_fixture(4).quiver, tri_fixture("ac").quiver,
               Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
               double_loop_fixture().quiver]
    cases = 0
    for quiver in quivers:
        for truncation in (2, 3, 4):
            pindex = PathIndex(quiver, truncation)
            for k in range(6):
                if k % 2:
                    gens = _random_generators(rng, pindex)
                else:
                    gens = _pure_generators(rng, pindex)
                assert not _assert_same_basis(pindex, gens)
                cases += 1
    assert cases == 72


def test_assembly_raises_as_the_oracle_does(monkeypatch):
    """An unclosed index fails alike, and so does a mixed-endpoint row left
    in the echelon, where the pivot's pair and another entry's differ."""
    q = double_loop_fixture().quiver
    for pindex, gens in [(PathIndex(q, 0), []),
                         (RootedPathIndex(q, 2, [0]), [SparseVector.unit(3)]),
                         (RootedPathIndex(sl2_fixture(3).quiver, 2, [0]), [])]:
        got = _dump_outcome(subcoalgebra_closure, pindex, gens)
        assert got[1] is not None
        assert got == _dump_outcome(oracle_worklist_closure, pindex, gens)
    pindex = PathIndex(sl2_fixture(3).quiver, 2)
    long = [i for i in range(len(pindex)) if pindex.length(i) == 2]
    a = long[0]
    b = next(i for i in long if pindex.paths[i][:2] != pindex.paths[a][:2])

    class MixedEchelon(_Echelon):
        """An echelon that starts with the row e_a + e_b."""

        def __init__(self):
            super().__init__([SparseVector({a: 1, b: 1})])

    monkeypatch.setattr(coalgebra, "_Echelon", MixedEchelon)
    monkeypatch.setitem(globals(), "_Echelon", MixedEchelon)
    got = _dump_outcome(subcoalgebra_closure, pindex, [])
    assert got == (None, (CoalgebraError, "closure produced a mixed-endpoint element"))
    assert got == _dump_outcome(oracle_worklist_closure, pindex, [])


def test_escape_check_raises_at_the_oracle_symbol():
    """sl2_fixture(4)'s spaces with one arrow row removed are not closed:
    the int-keyed check and the tuple-keyed one raise at the same first
    symbol, with the same label."""
    fx = sl2_fixture(4)
    raised = 0
    for pair, space in fx.basis.spaces.items():
        for k, p in enumerate(space.pivots):
            if fx.pindex.length(p) != 1:
                continue
            spaces = dict(fx.basis.spaces)
            spaces[pair] = Subspace(space.rows[:k] + space.rows[k + 1:],
                                    space.pivots[:k] + space.pivots[k + 1:])
            got, want = SubcoalgebraBasis(fx.pindex, spaces), OracleBasis(fx.pindex, spaces)
            outcomes = []
            for basis in (got, want):
                for sym in basis.symbols():
                    try:
                        basis.coproduct(sym)
                    except CoalgebraError as exc:
                        outcomes.append((sym, basis.label(sym), str(exc)))
                        break
                else:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
            assert outcomes[0] is not None and "escapes" in outcomes[0][2]
            raised += 1
    assert raised == fx.quiver.num_arrows() == 6


def test_a_row_outside_the_index_is_refused():
    """A row entry outside range(len(pindex)) would wrap round the
    splitting table or break the int key's injectivity."""
    fx = sl2_fixture(4)
    n = len(fx.pindex)
    for bad in (-1, -n, n, n + 1, 2 * n):
        spaces = dict(fx.basis.spaces)
        pair = next(iter(spaces))
        space = spaces[pair]
        row = dict(space.rows[0].entries)
        row[bad] = 1
        spaces[pair] = Subspace([SparseVector(row)] + space.rows[1:], space.pivots)
        with pytest.raises(CoalgebraError, match="outside an index of %d paths" % n):
            SubcoalgebraBasis(fx.pindex, spaces)
