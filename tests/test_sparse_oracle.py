"""Differential test of the zero rule for sparse sums.

Every sum in `coalgebra` adds its terms as `out[k] = out.get(k, 0) + v`,
drops the zeros of a finished sum once (`_nonzero`), and every verifier
accumulates lhs - rhs in one dict and fails exactly when a value is
nonzero; `verify_coalgebra_map` first compares the two term lists and
sums only where they differ.  The accumulate-and-delete versions that
preceded the rule are copied below as oracles; the map oracles read
linear maps, so they are given the unit lift {s: {t: 1}} of each basis
map.  On seeded random basis maps and sparse vectors, on damaged maps,
and on the shipped coalgebras with cancelling term pairs and split terms
inserted (intact or damaged), both must give equal results, witnesses,
checked counts and raised `CoalgebraError`s.  No input of the
differential part carries a zero coefficient: there the oracles raise
`KeyError`, and the zero-coefficient cases at the end pin the zero-free
answers instead.
"""

import collections
import random

import pytest

from covol.coalgebra import (
    CoalgebraError, SubcoalgebraBasis, TruncatedPathCoalgebra,
    apply_map, coassociativity_ok, compose_maps,
    coproduct_of_vector, is_homogeneous, smash_coalgebra,
    is_identity_map, smash_projection_map, verify_coalgebra_map,
)
from covol.exactlin import SparseVector, rref
from covol.fixtures import all_fixtures, kronecker_fixture

from corpus import (
    COEFFS, _Perturbed, _Relisted, damaged_maps, oracle_verdict, tally_branches, unit_lift,
)
from oracles.iso_pair import compose_by_apply_map, composite_agrees
from oracles.path_vectors import delta_vector


# ---------------------------------------------------------------------------
# oracles: the accumulate-and-delete rules, verbatim


def oracle_apply_map(linmap, vec):
    out = {}
    for sym, c in vec.items():
        image = linmap.get(sym)
        if image is None:
            return None
        for t, d in image.items():
            s = out.get(t, 0) + c * d
            if s:
                out[t] = s
            else:
                del out[t]
    return out


def oracle_compose_maps(second, first):
    out = {}
    for sym, image in first.items():
        acc = oracle_apply_map(second, image)
        if acc is not None:
            out[sym] = acc
    return out


def oracle_composite_agrees(get, first, want):
    compared = 0
    for sym, image in first.items():
        acc = {}
        for t, c in image.items():
            back = get(t)
            if back is None:
                break
            if c == 1 and len(image) == 1:  # a basis map: the image as it stands
                acc = back
                continue
            for s, d in back.items():
                v = acc.get(s, 0) + c * d
                if v:
                    acc[s] = v
                else:
                    del acc[s]
        else:
            if acc != want(sym):
                return False, compared
            compared += 1
    return True, compared


def oracle_coproduct_of_vector(coalgebra, vec):
    out = {}
    truncated = False
    for sym, c in vec.items():
        terms, t = coalgebra.coproduct(sym)
        truncated |= t
        for coeff, l, r in terms:
            key = (l, r)
            s = out.get(key, 0) + c * coeff
            if s:
                out[key] = s
            else:
                del out[key]
    return out, truncated


def oracle_verify_coalgebra_map(linmap, source, target):
    get, source_coproduct, source_counit = linmap.get, source.coproduct, source.counit
    target_coproduct, target_counit = target.coproduct, target.counit
    checked = 0
    for sym in source.symbols():
        image = get(sym)
        if image is None:
            continue
        terms, truncated = source_coproduct(sym)
        if truncated:
            continue
        lhs = {}
        for t, c in image.items():
            image_terms, truncated = target_coproduct(t)
            if truncated:
                break
            for coeff, l, r in image_terms:
                key = (l, r)
                s = lhs.get(key, 0) + c * coeff
                if s:
                    lhs[key] = s
                else:
                    del lhs[key]
        if truncated:
            continue
        rhs = {}
        for coeff, l, r in terms:
            il, ir = get(l), get(r)
            if il is None or ir is None:
                break
            for a, ca in il.items():
                for b, cb in ir.items():
                    key = (a, b)
                    s = rhs.get(key, 0) + coeff * ca * cb
                    if s:
                        rhs[key] = s
                    else:
                        del rhs[key]
        else:
            if lhs != rhs:
                return False, sym, checked
            eps = 0
            for t, c in image.items():
                e = target_counit(t)
                if e:
                    eps += c * e
            if eps != source_counit(sym):
                return False, sym, checked
            checked += 1
    return True, None, checked


def oracle_coassociativity_ok(coalgebra):
    checked = 0
    for sym in coalgebra.symbols():
        terms, truncated = coalgebra.coproduct(sym)
        if truncated:
            continue
        left, right = {}, {}
        skip = False
        for coeff, l, r in terms:
            lt, t1 = coalgebra.coproduct(l)
            rt, t2 = coalgebra.coproduct(r)
            if t1 or t2:
                skip = True
                break
            for c2, a, b in lt:
                key = (a, b, r)
                s = left.get(key, 0) + coeff * c2
                if s:
                    left[key] = s
                else:
                    del left[key]
            for c2, a, b in rt:
                key = (l, a, b)
                s = right.get(key, 0) + coeff * c2
                if s:
                    right[key] = s
                else:
                    del right[key]
        if skip:
            continue
        if left != right:
            return False, sym, checked
        # counit laws: (eps x id) Delta = id = (id x eps) Delta
        lsum, rsum = {}, {}
        for coeff, l, r in terms:
            e = coalgebra.counit(l)
            if e:
                lsum[r] = lsum.get(r, 0) + coeff * e
            e = coalgebra.counit(r)
            if e:
                rsum[l] = rsum.get(l, 0) + coeff * e
        ident = {sym: 1}
        if {k: v for k, v in lsum.items() if v} != ident:
            return False, sym, checked
        if {k: v for k, v in rsum.items() if v} != ident:
            return False, sym, checked
        checked += 1
    return True, None, checked


def oracle_subcoalgebra_coproduct(basis, sym):
    """`SubcoalgebraBasis.coproduct` without its cache."""
    matrix = delta_vector(basis.pindex, basis.row_vector(sym))
    pivot_of = basis._pivot_of
    terms = [(c, pivot_of[pl], pivot_of[pr]) for (pl, pr), c in matrix.items()
             if pl in pivot_of and pr in pivot_of]
    rebuilt = {}
    for coeff, sl, sr in terms:
        lvec, rvec = basis.row_vector(sl), basis.row_vector(sr)
        for i, a in lvec.items():
            for j, b in rvec.items():
                key = (i, j)
                s = rebuilt.get(key, 0) + coeff * a * b
                if s:
                    rebuilt[key] = s
                else:
                    del rebuilt[key]
    if rebuilt != matrix:
        raise CoalgebraError("coproduct escapes the subcoalgebra at %r"
                             % basis.label(sym))
    return terms, False


# ---------------------------------------------------------------------------
# inputs


def _outcome(fn, *args):
    """The call's results, or the type and text of the CoalgebraError it
    raised."""
    try:
        return "ok", fn(*args)
    except CoalgebraError as exc:
        return "raised", str(exc)


def _random_map(rng, domain, codomain, density=0.8):
    return {s: rng.choice(codomain) for s in domain if rng.random() < density}


def _coalgebras(fx):
    """The fixture's path coalgebra, its subcoalgebra and, when it is
    homogeneous, its smash coproduct over the radius-1 window."""
    out = [TruncatedPathCoalgebra(fx.pindex), fx.basis]
    if is_homogeneous(fx.basis, fx.weighting):
        out.append(smash_coalgebra(fx.basis, fx.weighting, fx.window(1)))
    return out


def _new_seen():
    return {"cancelled": 0, "ok": 0, "fail": 0, "raised": 0}


# ---------------------------------------------------------------------------
# differential tests


def test_map_sums_match_the_delete_oracle():
    """Vector images, composites and the identity test of seeded random
    basis maps, against the oracles on their unit lifts; two symbols that
    land on one can cancel."""
    rng = random.Random(2011)
    seen = _new_seen()
    for _ in range(400):
        symbols = list(range(rng.randint(2, 8)))
        first = _random_map(rng, symbols, symbols)
        second = _random_map(rng, symbols, list(range(rng.randint(1, 4))))
        lifted, first_lifted = unit_lift(second), unit_lift(first)
        for _ in range(3):
            vec = {s: rng.choice(COEFFS)
                   for s in rng.sample(symbols, rng.randint(1, len(symbols)))}
            got = apply_map(second.get, vec)
            assert got == oracle_apply_map(lifted, vec)
            if got is not None and len(got) < len({second[s] for s in vec}):
                seen["cancelled"] += 1
        composite = compose_maps(second, first)
        assert unit_lift(composite) == oracle_compose_maps(lifted, first_lifted) \
            == compose_by_apply_map(lifted, first_lifted)
        identity = composite_agrees(lifted.get, first_lifted, lambda sym: {sym: 1})
        assert is_identity_map(composite) == identity[0]
        wanted = unit_lift(composite)
        if wanted and rng.random() < 0.5:
            sym = rng.choice(sorted(wanted))
            wanted[sym] = {**wanted[sym], 0: rng.choice(COEFFS)}
        want = lambda sym: wanted.get(sym, {})
        result = composite_agrees(lifted.get, first_lifted, want)
        assert result == oracle_composite_agrees(lifted.get, first_lifted, want)
        agrees = all(want(sym) == {t: 1} for sym, t in composite.items())
        assert result[0] == agrees and (not agrees or result[1] == len(composite))
        seen["ok" if result[0] else "fail"] += 1
    assert all(seen[k] for k in ("cancelled", "ok", "fail")), seen


def test_coproduct_of_vector_matches_the_delete_oracle():
    rng = random.Random(2012)
    seen = _new_seen()
    for fx in all_fixtures():
        for coalg in _coalgebras(fx):
            symbols = coalg.symbols()
            for source in (coalg, _Perturbed(coalg, rng)):
                for _ in range(30):
                    vec = {s: rng.choice(COEFFS)
                           for s in rng.sample(symbols, min(len(symbols), rng.randint(1, 4)))}
                    got = coproduct_of_vector(source, vec)
                    assert got == oracle_coproduct_of_vector(source, vec)
                    if source is not coalg:
                        raw = {(l, r) for s in vec for _, l, r in source.coproduct(s)[0]}
                        seen["cancelled"] += len(got[0]) < len(raw)
    assert seen["cancelled"], seen


def test_coassociativity_matches_the_delete_oracle():
    rng = random.Random(2013)
    seen = _new_seen()
    for fx in all_fixtures():
        for coalg in _coalgebras(fx):
            for damage in (None, None, "coefficient", "drop", "counit"):
                perturbed = _Perturbed(coalg, rng, damage)
                result = coassociativity_ok(perturbed)
                assert result == oracle_coassociativity_ok(perturbed)
                assert result[0] or damage is not None
                seen["ok" if result[0] else "fail"] += 1
            assert coassociativity_ok(coalg) == oracle_coassociativity_ok(coalg)
    assert seen["ok"] and seen["fail"], seen


def _verify_both(seen, f, source, target):
    """`verify_coalgebra_map`'s result, equal to the oracle's and tallied
    by branch in `seen`."""
    result = verify_coalgebra_map(f, source, target)
    assert result == oracle_verdict(oracle_verify_coalgebra_map, f, source, target)
    tally_branches(seen, result, f, source, target)
    return result


def test_verify_coalgebra_map_matches_the_delete_oracle():
    """The identity, a partial identity, a random basis map and the four
    damaged identities of `damaged_maps`, on every fixture coalgebra and
    between it and its relisted copies (`_Relisted`); the oracle reads
    their unit lifts.  Both branches of the verifier, a term list equal to
    the image's and one summed, are reached."""
    rng = random.Random(2014)
    seen = collections.Counter()
    for fx in all_fixtures():
        for coalg in _coalgebras(fx):
            symbols = coalg.symbols()
            identity = {s: s for s in symbols}
            maps = [(None, identity), (None, {s: s for s in symbols if rng.random() < 0.9}),
                    (None, _random_map(rng, symbols, symbols))]
            maps += damaged_maps(rng, identity, len(symbols))
            targets = [coalg, _Perturbed(coalg, rng),
                       _Perturbed(coalg, rng, rng.choice(["coefficient", "drop", "counit"]))]
            relisted = [_Relisted(coalg, how)
                        for how in ("reversed", "cancel", "coefficient", "counit")]
            pairs = [(source, target) for source in targets[:2] for target in targets]
            pairs += [(coalg, r) for r in relisted] + [(r, coalg) for r in relisted]
            for damage, f in maps:
                for source, target in pairs:
                    result = _verify_both(seen, f, source, target)
                    seen[damage, result[0]] += 1
            if hasattr(coalg, "window"):
                proj = smash_projection_map(coalg)
                for source, target in ((coalg, coalg.base),
                                       (_Perturbed(coalg, rng), _Perturbed(coalg.base, rng)),
                                       (coalg, _Relisted(coalg.base, "reversed"))):
                    result = _verify_both(seen, proj, source, target)
                    assert result[0] and result[2]
    assert seen[None, True] and seen[None, False], seen
    assert seen["list-equal"] and seen["summed"], seen
    # a dropped symbol is skipped, so only the count tells it
    assert all(seen[damage, False] for damage in
               ("wrong target", "swapped pair", "out of range")), seen


def _random_subspaces(rng, fx):
    """Per endpoint pair, a random subset of the closure's rows, sometimes
    with a random combination of the pair's paths added."""
    spaces = {}
    for pair, space in fx.basis.spaces.items():
        rows = [row for row in space.rows if rng.random() < 0.8]
        paths = fx.pindex.by_pair[pair]
        if rng.random() < 0.5:
            rows.append(SparseVector({i: rng.choice(COEFFS)
                                      for i in rng.sample(paths, min(len(paths), 3))}))
        if rows:
            spaces[pair] = rref(rows)
    return spaces


def test_subcoalgebra_escape_check_matches_the_delete_oracle():
    rng = random.Random(2015)
    seen = _new_seen()
    for fx in all_fixtures():
        for _ in range(20):
            spaces = _random_subspaces(rng, fx)
            basis = SubcoalgebraBasis(fx.pindex, spaces)
            for sym in basis.symbols():
                got = _outcome(basis.coproduct, sym)
                assert got == _outcome(oracle_subcoalgebra_coproduct, basis, sym)
                seen["raised" if got[0] == "raised" else "ok"] += 1
        closure = fx.basis
        for sym in closure.symbols():
            assert closure.coproduct(sym) == oracle_subcoalgebra_coproduct(closure, sym)
    assert seen["ok"] and seen["raised"], seen


# ---------------------------------------------------------------------------
# zero coefficients: the oracles raise KeyError, the zero rule answers


def test_zero_coefficient_gives_the_zero_free_answer():
    f = {0: 5}
    with pytest.raises(KeyError):
        oracle_apply_map(unit_lift(f), {0: 0})
    assert apply_map(f.get, {0: 0}) == {}

    fx = kronecker_fixture()
    coalg = TruncatedPathCoalgebra(fx.pindex)
    a = fx.pindex.arrow_path("a")
    with pytest.raises(KeyError):
        oracle_coproduct_of_vector(coalg, {a: 0})
    assert coproduct_of_vector(coalg, {a: 0}) == ({}, False)


def test_identity_map_reads_every_symbol():
    assert is_identity_map({0: 0, 1: 1})
    assert is_identity_map({})
    assert not is_identity_map({0: 0, 1: 0})
    assert not is_identity_map({0: 1, 1: 0})
