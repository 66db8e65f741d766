"""Differential test of the translation certificate in `coassociativity_ok`.

On a `SmashCoalgebra`, `coassociativity_ok` decides whether (c, g) is
interior, its coproduct and both factor coproducts untruncated, from
reach(c) g alone (`SmashCoalgebra._interior`), with no coproduct built.  It
runs the coassociativity and counit sums once per base symbol, at its first
interior symbol, and every later interior symbol of that base symbol is
counted without a read: right translation carries one symbol's two-level
expansion onto another's (the proof is in the function's docstring).  The
check that ran the sums at every interior symbol is copied below, verbatim,
as the oracle.  Both must return the same (ok, witness, checked) on every
homogeneous fixture at radii 0-4, on seeded weightings over Z, Z/5, S3, Z^2
and free(2), and on smash coalgebras over damaged bases.  On that corpus,
with perturbed bases and smashes over smashes (whose base coproducts are
truncated at the window boundary) added, `_interior` gives the oracle's
interior symbols; a reach set without the composites w(d2) w(c2) does not.

A shift table damaged by hand shows the certificate's limit: a wrong
shift at a fiber that some first interior symbol's expansion reads fails
both checks, and a wrong shift at a fiber that none reads fails only the
oracle.

`coassociativity_ok` reads a smash term's factor coproducts from the
smash table as `table[l] or coproduct(l)`.  A fresh table, one partly
filled before the check and one filled in full give the oracle's triple
on each of the five backends; on the full table the check calls
`coproduct` once per base symbol with an interior symbol.  On the two
`build_verify` smash checks it builds 182 of 1,089 smash coproducts
(sl2(31) at radius 4) and 69 of 527 (dbl(4) at radius 2).
"""

import collections
import random

from covol.coalgebra import (
    SmashCoalgebra, coassociativity_ok, is_homogeneous, smash_coalgebra,
    smash_path_coalgebra,
)
from covol.fixtures import all_fixtures, double_loop_fixture, sl2_fixture
from covol.voltage import window_ball

from corpus import _Perturbed, _backends, _instances


# ---------------------------------------------------------------------------
# oracle: the check at every interior symbol, verbatim


def oracle_coassociativity_ok(coalgebra):
    """Exact coassociativity and counit laws, skipping symbols whose
    two-level expansion hits the window boundary.  Returns (ok, witness,
    checked count)."""
    coproduct, counit = coalgebra.coproduct, coalgebra.counit
    checked = 0
    for sym in coalgebra.symbols():
        terms, truncated = coproduct(sym)
        if truncated:
            continue
        diff = {}  # (Delta x id) Delta minus (id x Delta) Delta
        for coeff, l, r in terms:
            lt, t1 = coproduct(l)
            rt, t2 = coproduct(r)
            if t1 or t2:
                break
            for c2, a, b in lt:
                key = (a, b, r)
                diff[key] = diff.get(key, 0) + coeff * c2
            for c2, a, b in rt:
                key = (l, a, b)
                diff[key] = diff.get(key, 0) - coeff * c2
        else:
            if any(diff.values()):
                return False, sym, checked
            # counit laws: (eps x id) Delta - id = 0 = (id x eps) Delta - id
            lsum, rsum = {sym: -1}, {sym: -1}
            for coeff, l, r in terms:
                e = counit(l)
                if e:
                    lsum[r] = lsum.get(r, 0) + coeff * e
                e = counit(r)
                if e:
                    rsum[l] = rsum.get(l, 0) + coeff * e
            if any(lsum.values()) or any(rsum.values()):
                return False, sym, checked
            checked += 1
    return True, None, checked


# ---------------------------------------------------------------------------
# cases


class _Damaged(_Perturbed):
    """A perturbed or damaged base with the dimension a smash base has."""

    @property
    def dimension(self):
        return len(self._symbols)


def _fixture_smashes(radii):
    """Smash coalgebras of every homogeneous fixture, on its subcoalgebra
    and on its full path coalgebra, at each radius."""
    for fx in all_fixtures():
        if not is_homogeneous(fx.basis, fx.weighting):
            continue
        for radius in radii:
            window = fx.window(radius)
            yield smash_coalgebra(fx.basis, fx.weighting, window)
            yield smash_path_coalgebra(fx.pindex, fx.weighting, window)


def _counting(smash, method):
    """Count the calls of the named method made on `smash` from now on."""
    calls = [0]
    call = getattr(smash, method)

    def counted(sym):
        calls[0] += 1
        return call(sym)

    setattr(smash, method, counted)
    return calls


def _filled(smash, rng, share):
    """`smash` with the coproducts of about `share` of its symbols, drawn
    by rng, already in its table."""
    for sym in smash.symbols():
        if rng.random() < share:
            smash.coproduct(sym)
    return smash


def _interior(smash, sym):
    terms, truncated = smash.coproduct(sym)
    return not truncated and not any(smash.coproduct(l)[1] or smash.coproduct(r)[1]
                                     for _, l, r in terms)


def _interior_by_reach(smash, reach):
    """The symbols (c, g) with h g in the window for every element h of
    reach[c], a set of group elements or None."""
    multiply, pos = smash.group.multiply, smash.window_pos
    return [sym for sym in smash.symbols()
            for c, g in [smash.decode(sym)]
            if reach[c] is not None and all(multiply(h, g) in pos for h in reach[c])]


def _reach_without_composites(smash):
    """reach(c) less the composites w(d2) w(c2): the w(c2) and w(e2) alone."""
    base, weight = smash.base, smash.weight_of
    coproducts = [base.coproduct(c) for c in range(base.dimension)]
    out = []
    for terms, truncated in coproducts:
        reach = {weight(c2) for _, _, c2 in terms}
        for _, c1, c2 in terms:
            truncated = truncated or coproducts[c1][1] or coproducts[c2][1]
            reach |= {weight(e2) for _, _, e2 in coproducts[c2][0]}
        out.append(None if truncated else reach)
    return out


def _smash_over(smash):
    """The smash of `smash` itself on its window, every weight the
    identity: (c, g) is interior exactly where the base's own two-level
    expansion of c, truncated at its window boundary, is not."""
    identity = smash.group.identity()
    return SmashCoalgebra(smash, lambda sym: identity, smash.group, smash.window)


def _instance_smashes():
    """Smash coalgebras of every seeded instance at radii 1 and 2, on its
    full path coalgebra and, when homogeneous, on its subcoalgebra."""
    for base, weighting in _instances():
        for radius in (1, 2):
            window = window_ball(weighting.group, radius)
            yield smash_path_coalgebra(base.pindex, weighting, window)
            if is_homogeneous(base, weighting):
                yield smash_coalgebra(base, weighting, window)


def _predicate_corpus():
    """The smash coalgebras of the triple tests, then perturbed bases and a
    smash over each fixture smash."""
    yield from _fixture_smashes(range(5))
    yield from _instance_smashes()
    rng = random.Random(5)
    for fx in all_fixtures():
        if not is_homogeneous(fx.basis, fx.weighting):
            continue
        window = fx.window(2)
        for sound in (smash_path_coalgebra(fx.pindex, fx.weighting, window),
                      smash_coalgebra(fx.basis, fx.weighting, window)):
            damaged = SmashCoalgebra(_Damaged(sound.base, rng), sound.weight_of, fx.group, window)
            yield from (damaged, _smash_over(sound), _smash_over(damaged))


def _read_fibers(smash):
    """Window indices of every symbol that the two-level expansion of a
    first interior symbol of some base symbol reads, and the window
    indices that hold an interior symbol."""
    n, seen, read, interior = smash.base.dimension, set(), set(), set()
    for sym in smash.symbols():
        if not _interior(smash, sym):
            continue
        interior.add(sym // n)
        if sym % n in seen:
            continue
        seen.add(sym % n)
        read.add(sym // n)
        for _, l, r in smash.coproduct(sym)[0]:
            for x in (l, r):
                read.add(x // n)
                read.update(y // n for _, a, b in smash.coproduct(x)[0] for y in (a, b))
    return read, interior


def _with_wrong_identity_shift(fresh, j, k):
    """A new smash coalgebra whose shift by the identity weight at window
    index j points at window index k instead, before any coproduct is
    built: every interior symbol at fiber j then breaks the counit law."""
    smash = fresh()
    identity = smash.group.identity()
    (w,) = [w for w, g in enumerate(smash._weights) if g == identity]
    assert j != k
    smash._shifts[j][w] = k * smash.base.dimension
    return smash


# ---------------------------------------------------------------------------
# tests


def test_translation_matches_oracle_on_every_homogeneous_fixture():
    saved = 0
    for smash in _fixture_smashes(range(5)):
        calls = _counting(smash, "counit")
        got = coassociativity_ok(smash)
        new_calls, calls[0] = calls[0], 0
        want = oracle_coassociativity_ok(smash)
        assert got == want
        assert got[0] and (got[2] or len(smash.window) == 1)
        assert new_calls <= calls[0]
        saved += calls[0] - new_calls
    assert saved  # the memo is read: later fibers run no counit sums


def test_translation_matches_oracle_on_seeded_weightings():
    seen = {"checked": 0, "groups": set()}
    for smash in _instance_smashes():
        got = coassociativity_ok(smash)
        assert got == oracle_coassociativity_ok(smash)
        assert got[0]
        seen["checked"] += got[2] > smash.base.dimension
        seen["groups"].add(type(smash.group).__name__)
    assert seen["checked"], seen
    assert seen["groups"] == {"FgAbelian", "FiniteTable", "FreeGroup"}


def test_translation_matches_oracle_on_damaged_bases():
    rng = random.Random(2111)
    seen = {"ok": 0, "fail": 0}
    for fx in all_fixtures():
        if not is_homogeneous(fx.basis, fx.weighting):
            continue
        window = fx.window(2)
        for sound in (smash_path_coalgebra(fx.pindex, fx.weighting, window),
                      smash_coalgebra(fx.basis, fx.weighting, window)):
            for damage in (None, "coefficient", "drop", "counit"):
                damaged = _Damaged(sound.base, rng, damage)
                smash = SmashCoalgebra(damaged, sound.weight_of, fx.group, window)
                got = coassociativity_ok(smash)
                assert got == oracle_coassociativity_ok(smash)
                assert got[0] or damage is not None
                seen["ok" if got[0] else "fail"] += 1
            over = _smash_over(sound)
            assert coassociativity_ok(over) == oracle_coassociativity_ok(over)
    assert seen["ok"] and seen["fail"], seen


def test_wrong_shift_at_a_read_fiber_fails_both():
    failed = 0
    for fx in all_fixtures():
        if not is_homogeneous(fx.basis, fx.weighting):
            continue
        window = fx.window(3)
        fresh = lambda: smash_coalgebra(fx.basis, fx.weighting, window)
        read, interior = _read_fibers(fresh())
        j = min(read)  # the fiber of the first first-interior symbol
        k = min(interior - {j})
        got = coassociativity_ok(_with_wrong_identity_shift(fresh, j, k))
        want = oracle_coassociativity_ok(_with_wrong_identity_shift(fresh, j, k))
        assert not got[0] and not want[0], fx.name
        assert want[1] <= got[1]
        failed += 1
    assert failed == 5


def test_wrong_shift_at_an_unread_fiber_fails_only_the_oracle():
    """The documented limit: the certificate holds for the smash formula,
    and a shift table damaged only at a fiber that no first interior
    symbol's expansion reads is outside it."""
    missed = 0
    for fx in all_fixtures():
        if not is_homogeneous(fx.basis, fx.weighting):
            continue
        window = fx.window(3)
        fresh = lambda: smash_coalgebra(fx.basis, fx.weighting, window)
        read, interior = _read_fibers(fresh())
        unread = sorted(interior - read)
        assert unread, fx.name
        j, k = unread[-1], min(read)
        got = coassociativity_ok(_with_wrong_identity_shift(fresh, j, k))
        want = oracle_coassociativity_ok(_with_wrong_identity_shift(fresh, j, k))
        assert got[0] and not want[0], fx.name
        missed += 1
    assert missed == 5


def test_table_reads_match_oracle_on_every_backend():
    """Fresh, partly filled and full tables give the oracle's triple, and a
    wrong identity shift at the first read fiber fails the check and the
    oracle alike, on Z, Z/5, S3, Z^2 and free(2)."""
    backends = {repr(group) for group, _ in _backends()}
    rng = random.Random(2707)
    seen = collections.Counter()
    for base, weighting in _instances():
        group = weighting.group
        if repr(group) not in backends:
            continue
        window = window_ball(group, 1)
        builders = [lambda: smash_path_coalgebra(base.pindex, weighting, window)]
        if is_homogeneous(base, weighting):
            builders.append(lambda: smash_coalgebra(base, weighting, window))
        for fresh in builders:
            want = oracle_coassociativity_ok(fresh())
            partly = _filled(fresh(), rng, 0.5)
            assert None in partly._coproducts and any(partly._coproducts)
            assert coassociativity_ok(fresh()) == coassociativity_ok(partly) == want
            full = _filled(fresh(), rng, 1)
            calls = _counting(full, "coproduct")
            assert coassociativity_ok(full) == want
            probe, n = fresh(), full.base.dimension
            assert want[0]
            assert calls[0] == len({sym % n for sym in probe.symbols() if _interior(probe, sym)})
            read, interior = _read_fibers(fresh())
            j = min(read)
            k = min(interior - {j})
            got = coassociativity_ok(_filled(_with_wrong_identity_shift(fresh, j, k), rng, 0.5))
            wrong = oracle_coassociativity_ok(_with_wrong_identity_shift(fresh, j, k))
            assert not got[0] and not wrong[0]
            assert wrong[1] <= got[1]
            seen[repr(group)] += want[0] and want[2] > 0
    assert set(seen) == backends and all(seen.values()), seen


def test_reach_decides_interiority_at_every_symbol():
    """`SmashCoalgebra._interior`, reach(c) g inside the window, gives the
    symbols whose coproduct and both factor coproducts are untruncated, on
    the whole corpus; a reach set without the composites w(d2) w(c2) does
    not (on this corpus it differs only over perturbed bases)."""
    seen = collections.Counter()
    for smash in _predicate_corpus():
        want = [sym for sym in smash.symbols() if _interior(smash, sym)]
        assert smash._interior() == want
        seen["interior"] += len(want)
        seen["boundary"] += smash.dimension - len(want)
        seen["missed without composites"] += (
            _interior_by_reach(smash, _reach_without_composites(smash)) != want)
    assert all(seen.values()) and len(seen) == 3, seen


def test_build_verify_smash_checks_build_few_coproducts():
    """The two smash checks of the benchmark's `build_verify` build only
    the coproducts that their law sums read: 182 of 1,089 and 69 of 527."""
    sl2 = sl2_fixture(31)
    dbl = double_loop_fixture(4)
    cases = [(sl2, window_ball(sl2.group, 4), 1029, 182, 1089),
             (dbl, window_ball(dbl.group, 2), 85, 69, 527)]
    for fx, window, checked, built, dimension in cases:
        smash = smash_coalgebra(fx.basis, fx.weighting, window)
        assert coassociativity_ok(smash) == (True, None, checked)
        built_now = smash.dimension - smash._coproducts.count(None)
        assert (built_now, smash.dimension) == (built, dimension)
        assert oracle_coassociativity_ok(smash) == (True, None, checked)
