"""Instances, constants and brute-force references that several test
modules use, defined once.
A helper that one module uses stays there, and a same-named helper that
draws otherwise (the Z^2 sampler of `test_echelon_oracle._backends`) keeps
its own definition, since merging it would change seeded test data."""

import importlib.resources as resources
import itertools
import os
import random
from fractions import Fraction

from covol.coalgebra import CoalgebraError, PathIndex, SparseVector, subcoalgebra_closure
from covol.fixtures import all_fixtures, double_loop_fixture, sl2_fixture, tri_fixture
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver
from covol.voltage import ArrowWeighting

from oracles.intersection import intersect_coordinates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIXTURES = ["loop", "dbl", "kron", "tri_ac", "tri_acbc", "sl2"]

Z = FgAbelian(1)

COEFFS = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2)]

# The Kronecker string representations of total dimension <= 4, as the
# (a matrix, b matrix, dim at x, dim at y) of arrows a, b: x -> y; each
# is gradable by the zig-zag weighting a = 0, b = 1.
KRONECKER_STRINGS = [
    ([[1]], [[0]], 1, 1),
    ([[0]], [[1]], 1, 1),
    ([[1, 0]], [[0, 1]], 2, 1),
    ([[1], [0]], [[0], [1]], 1, 2),
    ([[1, 0], [0, 1]], [[0, 0], [1, 0]], 2, 2),
]


def zint(n):
    return Z.element(free=[n])


def fixture_path(name, tmp_path):
    text = (resources.files("covol") / "fixtures" / ("%s.cov" % name)).read_text()
    path = tmp_path / ("%s.cov" % name)
    path.write_text(text)
    return str(path)


def _outcome(fn, *args):
    """A call's result, or the type and text of the error it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return "raised", type(exc).__name__, str(exc)


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
        (z2, lambda rng: z2.element(free=[rng.randint(0, 1), rng.randint(0, 1)])),
        (f2, lambda rng: rng.choice(f2_letters)),
    ]


def _quivers():
    return [
        sl2_fixture(4).quiver,
        tri_fixture("ac").quiver,
        double_loop_fixture().quiver,
        Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
    ]


def _parallel_sums(rng, pindex):
    """Closure of two combinations of 2-3 parallel paths."""
    gens = []
    for _ in range(2):
        pair = rng.choice(sorted(pindex.by_pair))
        same = [i for i in pindex.by_pair[pair] if pindex.length(i)]
        support = rng.sample(same, min(len(same), rng.randint(2, 3)))
        gens.append(SparseVector({i: rng.choice([1, 2, -1]) for i in support}))
    return subcoalgebra_closure(pindex, gens)


def _random_subcoalgebra(rng, pindex):
    """Closure of up to two combinations of 1-3 parallel paths of length >= 1."""
    gens = []
    for _ in range(rng.randint(0, 2)):
        anchor = rng.randrange(len(pindex))
        pair = (pindex.source(anchor), pindex.target(anchor))
        same = [i for i in pindex.by_pair[pair] if pindex.length(i) >= 1]
        if not same:
            continue
        support = rng.sample(same, min(len(same), rng.randint(1, 3)))
        gens.append(SparseVector({i: rng.choice([1, 2, -1]) for i in support}))
    return subcoalgebra_closure(pindex, gens)


def brute_force_partition(space, coords):
    """The finest split of `coords` into parts whose coordinate
    intersections with `space` add up to its dimension, by trying every
    bipartition: the reference for `finest_block_partition`."""
    coords = sorted(coords)
    if not coords:
        return []
    n = len(coords)
    for mask in range(1, 2 ** (n - 1)):
        part = {coords[i] for i in range(n) if (mask >> i) & 1}
        rest = set(coords) - part
        a = intersect_coordinates(space, part)
        b = intersect_coordinates(space, rest)
        if a.dimension + b.dimension == space.dimension:
            return (brute_force_partition(a, part) +
                    brute_force_partition(b, rest))
    return [coords]


def _instances(truncation=2):
    """(base, weighting) for every fixture, then seeded random instances on
    every backend, homogeneous or not, at the given truncation."""
    out = [(fx.basis, fx.weighting) for fx in all_fixtures()]
    rng = random.Random(1311)
    for quiver in _quivers():
        pindex = PathIndex(quiver, truncation)
        for group, sample in _backends():
            for _ in range(6):
                w = ArrowWeighting(quiver, group, {a: sample(rng)
                                                   for a in range(quiver.num_arrows())})
                out.append((_parallel_sums(rng, pindex), w))
    return out


class _Perturbed:
    """A coalgebra-with-basis whose coproducts are another's with each term
    sometimes split in two and cancelling term pairs inserted, so that
    every sum over it cancels; `damage` changes one coefficient, drops one
    term or changes one counit."""

    def __init__(self, base, rng, damage=None):
        self.base = base
        symbols = base.symbols()
        self._symbols = symbols
        self._terms = {}
        for sym in symbols:
            terms, truncated = base.coproduct(sym)
            out = []
            for coeff, l, r in terms:
                d = rng.choice(COEFFS)
                if rng.random() < 0.4 and d != coeff:
                    out += [(coeff - d, l, r), (d, l, r)]
                else:
                    out.append((coeff, l, r))
            for _ in range(rng.randint(0, 2)):
                e, l, r = rng.choice(COEFFS), rng.choice(symbols), rng.choice(symbols)
                out += [(e, l, r), (-e, l, r)]
            rng.shuffle(out)
            self._terms[sym] = (out, truncated)
        self._counits = {sym: base.counit(sym) for sym in symbols}
        if damage is not None:
            sym = rng.choice(symbols)
            terms, truncated = self._terms[sym]
            k = rng.randrange(len(terms))
            if damage == "coefficient":
                c, l, r = terms[k]
                terms[k] = (2 * c, l, r)
            elif damage == "drop":
                del terms[k]
            else:
                self._counits[sym] += 1

    def symbols(self):
        return list(self._symbols)

    def coproduct(self, sym):
        if sym not in self._terms:  # refused, as every coalgebra refuses it
            raise CoalgebraError("no symbol %r" % (sym,))
        return self._terms[sym]

    def counit(self, sym):
        return self._counits[sym]


class _Relisted:
    """A coalgebra-with-basis with another's coproducts as other term
    lists, by `how`: "reversed" reverses each list, and "cancel" appends a
    pair (1, s, s), (-1, s, s) at symbol s that cancels at one key, so a
    basis map into or out of it reaches both branches of
    `verify_coalgebra_map` (one-term lists read equal, longer ones
    differ).  "coefficient" doubles each list's first coefficient and
    "counit" adds 1 to each counit: damage that an equal key list, or an
    equal term list, must not hide."""

    def __init__(self, base, how):
        self.base, self._how = base, how

    def symbols(self):
        return list(self.base.symbols())

    def coproduct(self, sym):
        terms, truncated = self.base.coproduct(sym)
        if self._how == "reversed":
            return terms[::-1], truncated
        if self._how == "cancel":
            return terms + [(1, sym, sym), (-1, sym, sym)], truncated
        if self._how == "coefficient" and terms:
            (coeff, l, r), *rest = terms
            return [(2 * coeff, l, r), *rest], truncated
        return terms, truncated

    def counit(self, sym):
        return self.base.counit(sym) + (self._how == "counit")


def term_list_split(f, source, target):
    """(list-equal, summed): the symbols s with an image t = f[s], with
    Delta(s) and Delta(t) untruncated and every factor of Delta(s) in f's
    domain, split by whether the mapped list [(coeff, f(l), f(r))] of
    Delta(s) equals Delta(t)'s term list.  When `verify_coalgebra_map(f,
    source, target)` passes, these are the symbols it counts."""
    equal, summed = [], []
    for sym in source.symbols():
        terms, truncated = source.coproduct(sym)
        if sym not in f or truncated or _refuses(target, f[sym]):
            continue
        image_terms, truncated = target.coproduct(f[sym])
        mapped = [(coeff, f.get(l), f.get(r)) for coeff, l, r in terms]
        if not truncated and all(l is not None and r is not None for _, l, r in mapped):
            (equal if mapped == image_terms else summed).append(sym)
    return equal, summed


def tally_branches(seen, result, f, source, target):
    """Add to `seen` the symbols of `term_list_split` by branch, after
    checking that they are what the `verify_coalgebra_map` result counted,
    if it passed."""
    if result[0]:
        equal, summed = term_list_split(f, source, target)
        assert len(equal) + len(summed) == result[2]
        seen["list-equal"] += len(equal)
        seen["summed"] += len(summed)


def unit_lift(f):
    """The linear map {s: {t: 1}} of a basis map {s: t}: the form the map
    oracles, written when every map was linear, read."""
    return {s: {t: 1} for s, t in f.items()}


def damaged_maps(rng, f, dimension):
    """(damage, map) for four copies of a basis map f on at least two
    symbols, into a target of `dimension` symbols, each with one damage: a
    wrong target, a swapped pair, an out-of-range id (the target refuses it)
    and a dropped symbol."""
    keys = list(f)
    s, other = rng.sample(keys, 2)
    out = []
    for damage in ("wrong target", "swapped pair", "out of range", "dropped symbol"):
        g = dict(f)
        if damage == "wrong target":
            g[s] = rng.choice([t for t in range(dimension) if t != f[s]])
        elif damage == "swapped pair":
            g[s], g[other] = f[other], f[s]
        elif damage == "out of range":
            g[s] = dimension
        else:
            del g[s]
        out.append((damage, g))
    return out


class _Before:
    """The symbols of a coalgebra before `stop`, with its coproduct and
    counit."""

    def __init__(self, coalgebra, stop):
        symbols = coalgebra.symbols()
        self._symbols = symbols[:symbols.index(stop)]
        self.coproduct, self.counit = coalgebra.coproduct, coalgebra.counit

    def symbols(self):
        return list(self._symbols)


def _refuses(coalgebra, sym):
    try:
        coalgebra.coproduct(sym)
    except CoalgebraError:
        return True
    return False


def oracle_verdict(oracle, f, source, target):
    """A linear-map oracle's (ok, witness, checked) on the unit lift of the
    basis map f.  Where the oracle raises at an image id the target
    refuses, the verifier fails that symbol: the verdict is then a failure
    at the first symbol the oracle expands to a refused image, with the
    oracle's count over the symbols before it, which must all pass."""
    linmap = unit_lift(f)
    try:
        return oracle(linmap, source, target)
    except CoalgebraError:
        bad = next(s for s in source.symbols() if s in f
                   and not source.coproduct(s)[1] and _refuses(target, f[s]))
    ok, _, checked = oracle(linmap, _Before(source, bad), target)
    assert ok
    return False, bad, checked
