"""Differential test of the subcoalgebra closure worklist.

`subcoalgebra_closure` seeds its echelon with every vertex and arrow and
queues only components that can enlarge the span: none supported on
paths of length <= 1, none equal to the row just added, and one unit
component per path.  The closure that preceded it (vertices, arrows and
every component pushed through the echelon) is copied below as the
oracle.  Both must span the same space, so their RREF rows must agree by
value, and both must raise, or not, alike.  A wrapper on `_Echelon.add`,
installed only here, counts the echelon adds each one makes.
"""

import importlib.util
import os
import random
from fractions import Fraction

import pytest

from covol import coalgebra, fixtures, workspace
from covol.coalgebra import (
    CoalgebraError, PathIndex, SubcoalgebraBasis, endpoints, full_subcoalgebra,
    subcoalgebra_closure,
)
from covol.exactlin import SparseVector, Subspace, _Echelon
from covol.fixtures import (
    all_fixtures, double_loop_fixture, kronecker_fixture, loop_fixture, sl2_fixture,
    tri_fixture,
)
from covol.quiver import Quiver

from test_identity_fiber_oracle import RootedPathIndex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# oracle: the closure loop as it was, verbatim


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
    by_pair = {}
    for row in echelon.subspace().rows:  # pivot order, so each pair's rows are its RREF
        pair = endpoints(pindex, row)
        if pair is None:
            raise CoalgebraError("closure produced a mixed-endpoint element")
        by_pair.setdefault(pair, []).append(row)
    sub = SubcoalgebraBasis(pindex, {p: Subspace(rs, [min(r.entries) for r in rs])
                                     for p, rs in by_pair.items()})
    for sym in sub.symbols():
        sub.coproduct(sym)  # raises if the span is not a subcoalgebra
    return sub


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
