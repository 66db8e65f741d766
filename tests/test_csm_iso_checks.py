"""The `csm-iso` inverse and projection-square checks, and the shared
path coproduct table.

`cmd_csm_iso` decides "psi and phi are mutually inverse" and "psi lies
over the cover projection" on the `compose_maps` composites
(`_inverse_over_base`) of basis maps {symbol: symbol}.  Two oracles check
it on the unit lifts {s: {t: 1}} of the maps: the composites built through
the linear `apply_map`, and the lookup check the command used before
(`composite_agrees`), both kept verbatim in `oracles.iso_pair`.  On every
shipped fixture, with the canonical and the 5 seeded liftings the command
itself draws, and on mutated copies of the maps, all three must give the
same verdict.  A check that compares no
symbol, or skips a symbol of its first map, must not count as a pass.
The command builds the smash projection map once: every lifting's smash
coalgebra has n = len(base index) and n * |window| symbols.

Smash symbols and base symbols are both ints: a psi, phi or projection
that puts one where the other belongs must fail the command on every
fixture.

Path splittings are computed once per `PathIndex` into a table that
every coalgebra over the index reads; the tests count the computations
and compare the table with a fresh computation.

The command checks each distinct lifting once and counts it once per
draw; a verbatim copy of the loop that checked every draw from scratch
is the oracle for its exit code and report bytes.
"""

import collections
import io
import contextlib
import json
import os
import random

import pytest

from covol import cli
from covol.cli import (
    CommandError, _inverse_over_base, _weighting_of,
)
from covol.coalgebra import (
    PathIndex, TruncatedPathCoalgebra, compose_maps,
    counit_vector, cover_projection_map, covering_coalgebra_iso,
    is_homogeneous, is_identity_map, smash_coalgebra, smash_path_coalgebra,
    smash_projection_map, verify_coalgebra_map,
)
from covol.exactlin import SparseVector
from covol.fixtures import all_fixtures, loop_fixture
from covol.voltage import GaloisCoverData, VertexWeighting, smash_quiver, window_ball
from covol.workspace import parse

from corpus import FIXTURES, fixture_path as _fixture_path, term_list_split, unit_lift
from oracles.iso_pair import _small_window_element, compose_by_apply_map, composite_agrees
from oracles.path_vectors import delta_vector

# distinct liftings among the 6 that `csm-iso` draws at the default seed
DISTINCT = {"loop": 2, "dbl": 4, "kron": 5, "tri_ac": 6, "tri_acbc": 6, "sl2": 6}


def _run_csm_iso(path, *options):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["csm-iso", path, *options])
    return code, out.getvalue()


def _key(lifting):
    """A lifting's cover vertices in base-vertex order."""
    return tuple(lifting[v] for v in range(len(lifting)))


def _captured_isos(monkeypatch, tmp_path, name):
    """(psi, phi, smash coalgebra, expected projection) for every lifting
    `csm-iso` checks on a fixture, as the command computes them."""
    iso, projection = cli.covering_coalgebra_iso, cli.cover_projection_map
    seen, expected, keys = [], [], set()

    def record_iso(*args):
        result = iso(*args)
        seen.append(result[:3])
        keys.add(_key(args[1]))
        return result

    def record_projection(*args):
        expected.append(projection(*args))
        return expected[-1]

    monkeypatch.setattr(cli, "covering_coalgebra_iso", record_iso)
    monkeypatch.setattr(cli, "cover_projection_map", record_projection)
    code, _ = _run_csm_iso(_fixture_path(name, tmp_path))
    monkeypatch.undo()
    assert code == 0 and len(seen) == len(keys) == DISTINCT[name] and len(expected) == 1
    return [(psi, phi, smash, expected[0]) for psi, phi, smash in seen]


# ---------------------------------------------------------------------------
# oracles: the composites the command used to build


def _unit_at(sym):
    return {sym: 1}


def _oracle_checks(psi, phi, smash, expected):
    projection = smash_projection_map(smash)
    psi_phi = compose_by_apply_map(unit_lift(psi), unit_lift(phi))
    phi_psi = compose_by_apply_map(unit_lift(phi), unit_lift(psi))
    proj = compose_by_apply_map(unit_lift(projection), unit_lift(psi))
    assert (psi_phi, phi_psi, proj) == tuple(map(unit_lift, (
        compose_maps(psi, phi), compose_maps(phi, psi), compose_maps(projection, psi))))
    return ((psi_phi == {sym: _unit_at(sym) for sym in psi_phi}, len(psi_phi)),
            (phi_psi == {sym: _unit_at(sym) for sym in phi_psi}, len(phi_psi)),
            (proj == {sym: _unit_at(expected[sym]) for sym in proj}, len(proj)))


def _lookup_checks(psi, phi, smash, expected):
    return (composite_agrees(unit_lift(psi).get, unit_lift(phi), _unit_at),
            composite_agrees(unit_lift(phi).get, unit_lift(psi), _unit_at),
            composite_agrees(unit_lift(smash_projection_map(smash)).get, unit_lift(psi),
                             lambda sym: _unit_at(expected[sym])))


def _assert_same_verdicts(psi, phi, smash, expected):
    oracle = _oracle_checks(psi, phi, smash, expected)
    lookup = _lookup_checks(psi, phi, smash, expected)
    for (want_ok, size), (ok, compared) in zip(oracle, lookup):
        assert ok == want_ok
        if ok:  # a passing check compared every symbol of the composite
            assert compared == size
    # each composite must be defined on every symbol of its first map
    verdict = all(ok and 0 < size == len(first)
                  for (ok, size), first in zip(oracle, (phi, psi, psi)))
    assert all(ok and 0 < compared == len(first)
               for (ok, compared), first in zip(lookup, (phi, psi, psi))) == verdict
    assert cli._inverse_over_base(psi, phi, smash_projection_map(smash), expected) == verdict
    assert [is_identity_map(compose_maps(psi, phi)),
            is_identity_map(compose_maps(phi, psi))] == [ok for ok, _ in oracle[:2]]
    return [ok for ok, _ in oracle] + [verdict]


# ---------------------------------------------------------------------------
# mutations of a basis map; each returns a new map


def _swap_two(linmap):
    a, b = list(linmap)[:2]
    out = dict(linmap)
    out[a], out[b] = linmap[b], linmap[a]
    return out


def _drop_one(linmap):
    out = dict(linmap)
    del out[next(iter(out))]
    return out


def _wrong_target(linmap):
    """One symbol goes where another goes."""
    out = dict(linmap)
    a, b = list(linmap)[:2]
    out[a] = linmap[b]
    return out


def _one_outside(linmap):
    """One image lies outside every map's domain, so the composite skips
    that symbol."""
    out = dict(linmap)
    out[next(iter(out))] = -1
    return out


MUTATIONS = [_swap_two, _drop_one, _wrong_target, _one_outside]


@pytest.mark.parametrize("name", FIXTURES)
def test_lookup_checks_match_composites(monkeypatch, tmp_path, name):
    failed = collections.Counter()
    isos = _captured_isos(monkeypatch, tmp_path, name)
    # so one projection map, built once by the command, serves every lifting
    assert len({(smash.base.dimension, smash.dimension) for _, _, smash, _ in isos}) == 1
    for psi, phi, smash, expected in isos:
        assert _assert_same_verdicts(psi, phi, smash, expected) == [True] * 4
        for mutate in MUTATIONS:
            for verdicts in (_assert_same_verdicts(psi, mutate(phi), smash, expected),
                             _assert_same_verdicts(mutate(psi), phi, smash, expected)):
                failed[mutate.__name__] += not all(verdicts)
    # A dropped symbol is skipped, by the composites as by the lookups, so
    # only the count of compared symbols catches it; every mutation fails
    # the command's verdict on every lifting, of phi and of psi.
    assert set(failed.values()) == {2 * DISTINCT[name]}, failed


def _csm_iso_report(monkeypatch, tmp_path, name, mutate):
    """Exit code and report of `csm-iso` with every (psi, phi) mutated."""
    iso = cli.covering_coalgebra_iso

    def mutated(*args):
        psi, phi, smash, weighting = iso(*args)
        return (*mutate(psi, phi), smash, weighting)

    monkeypatch.setattr(cli, "covering_coalgebra_iso", mutated)
    code, out = _run_csm_iso(_fixture_path(name, tmp_path))
    return code, json.loads(out)


@pytest.mark.parametrize("name", FIXTURES)
def test_csm_iso_fails_when_phi_misses_a_symbol(monkeypatch, tmp_path, name):
    """Deleting one symbol from each phi fails every lifting; it must not
    merely shrink checkedSymbols."""
    code, report = _csm_iso_report(monkeypatch, tmp_path, name,
                                   lambda psi, phi: (psi, _drop_one(phi)))
    assert code == 1
    assert (report["liftings"], report["verified"]) == (6, 0)


def _drop_pair(psi, phi):
    """Delete a symbol s from phi and phi(s) from psi."""
    phi, psi = dict(phi), dict(psi)
    del psi[phi.pop(next(iter(phi)))]
    return psi, phi


@pytest.mark.parametrize("name", FIXTURES)
def test_csm_iso_fails_when_a_matching_pair_is_deleted(monkeypatch, tmp_path, name):
    """A matching pair leaves every composite defined on every symbol of
    its first map, and the coalgebra-map checks skip both symbols; phi's
    symbol count, one per cover path leaving a translate of the lifting,
    fails every lifting."""
    code, report = _csm_iso_report(monkeypatch, tmp_path, name, _drop_pair)
    assert code == 1
    assert (report["liftings"], report["verified"]) == (6, 0)


# ---------------------------------------------------------------------------
# a smash symbol id and a base symbol id are both ints: mixing them is caught


def _csm_iso_maps(monkeypatch, tmp_path, name):
    """(psi, phi, smash coalgebra, cover path coalgebra) for every lifting
    `csm-iso` checks on a fixture, as the command computes them."""
    iso, seen, keys = cli.covering_coalgebra_iso, [], set()

    def record(cover, lifting, base_pindex, cover_pindex, window):
        result = iso(cover, lifting, base_pindex, cover_pindex, window)
        seen.append((*result[:3], TruncatedPathCoalgebra(cover_pindex)))
        keys.add(_key(lifting))
        return result

    monkeypatch.setattr(cli, "covering_coalgebra_iso", record)
    code, _ = _run_csm_iso(_fixture_path(name, tmp_path))
    monkeypatch.undo()
    assert code == 0 and len(seen) == len(keys) == DISTINCT[name]
    return seen


def _psi_on_base_ids(psi, phi, smash):
    """psi sending a cover path to its base path index, not its smash id."""
    return {p: smash.decode(t)[0] for p, t in psi.items()}, phi


def _phi_on_base_ids(psi, phi, smash):
    """phi keyed by the base path index of each smash symbol."""
    return psi, {smash.decode(s)[0]: image for s, image in phi.items()}


def _projection_on_ids(smash):
    """The smash projection as the identity on symbol ids."""
    return {s: s for s in smash.symbols()}


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("mixed", ["psi", "phi", "projection"])
def test_base_ids_for_smash_ids_are_caught(monkeypatch, tmp_path, name, mixed):
    """A psi into base ids, a phi keyed by base ids, or a projection that
    keeps the smash id: `csm-iso` verifies no lifting of any fixture.

    Base ids are the smash ids of the first window element, a boundary
    element, so `verify_coalgebra_map` skips most symbols there.  It
    still fails the psi mixup at some lifting of every fixture, and the
    projection mixup at every distinct lifting: an image id past the
    base's last symbol, which the base refuses, fails its symbol.  A phi keyed by base ids it
    cannot see: it skips every symbol whose coproduct leaves phi's
    domain, and on the rest phi is a deck translate of the right map.
    There phi's symbol count and the inverse checks catch it."""
    verdicts = []
    for psi, phi, smash, cover_coalg in _csm_iso_maps(monkeypatch, tmp_path, name):
        if mixed == "psi":
            bad = _psi_on_base_ids(psi, phi, smash)[0]
            verdicts.append(verify_coalgebra_map(bad, cover_coalg, smash)[0])
        elif mixed == "projection":
            verdicts.append(verify_coalgebra_map(
                _projection_on_ids(smash), smash, smash.base)[0])
    assert mixed == "phi" or False in verdicts
    assert mixed != "projection" or verdicts == [False] * DISTINCT[name]
    if mixed == "projection":
        monkeypatch.setattr(cli, "smash_projection_map", _projection_on_ids)
    else:
        iso = cli.covering_coalgebra_iso
        mutate = _psi_on_base_ids if mixed == "psi" else _phi_on_base_ids

        def mutated(*args):
            psi, phi, smash, weighting = iso(*args)
            return (*mutate(psi, phi, smash), smash, weighting)

        monkeypatch.setattr(cli, "covering_coalgebra_iso", mutated)
    code, out = _run_csm_iso(_fixture_path(name, tmp_path))
    report = json.loads(out)
    assert code == 1
    assert report["verified"] == 0 < report["liftings"] == 6


def test_disjoint_domains_do_not_pass_vacuously():
    fx = loop_fixture()
    smash = smash_path_coalgebra(fx.pindex, fx.weighting, fx.window(1))
    e = fx.group.identity()
    at = smash.symbol
    # psi's image lies outside phi's domain and the other way round
    psi = {0: at(1, e)}
    phi = {at(0, e): 1}
    expected = {0: 1, 1: 1}
    assert is_identity_map(compose_maps(psi, phi))  # the old checks held vacuously
    assert is_identity_map(compose_maps(phi, psi))
    assert composite_agrees(unit_lift(psi).get, unit_lift(phi), _unit_at) == (True, 0)
    assert composite_agrees(unit_lift(phi).get, unit_lift(psi), _unit_at) == (True, 0)
    projection = smash_projection_map(smash)
    assert not cli._inverse_over_base(psi, phi, projection, expected)
    # the same maps made inverse on one symbol, over the right base path
    psi, phi = {0: at(0, e)}, {at(0, e): 0}
    assert cli._inverse_over_base(psi, phi, projection, {0: 0})
    assert not cli._inverse_over_base(psi, phi, projection, {0: 1})
    # psi's image is no smash symbol: the square compares nothing
    outside = smash.dimension
    assert not cli._inverse_over_base({0: outside}, {outside: 0}, projection, {0: 0})


# ---------------------------------------------------------------------------
# psi, phi and the smash projection map term to term


@pytest.mark.parametrize("name", FIXTURES)
def test_csm_iso_maps_map_term_to_term(monkeypatch, tmp_path, name):
    """`verify_coalgebra_map` sums a symbol's difference only where its
    mapped term list differs from its image's.  `PathIndex._split` lists
    a cover path's terms in the order of its base path's, and
    `SmashCoalgebra.coproduct` keeps its base's order, so on every lifting
    `csm-iso` checks at COVOL_SEED=20240801, and on the fixture's smash
    coalgebra over its subcoalgebra, every symbol counted for psi, phi and
    the smash projection has equal lists.  An order that breaks this fails
    here, where the verifier would only slow down."""
    monkeypatch.setenv("COVOL_SEED", "20240801")
    checks = []
    for psi, phi, smash, cover_coalg in _csm_iso_maps(monkeypatch, tmp_path, name):
        checks += [(psi, cover_coalg, smash), (phi, smash, cover_coalg),
                   (smash_projection_map(smash), smash, smash.base)]
    fx = next(fx for fx in all_fixtures() if fx.name == name)
    if is_homogeneous(fx.basis, fx.weighting):
        for radius in (1, 2):
            smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(radius))
            checks.append((smash_projection_map(smash), smash, fx.basis))
    for f, source, target in checks:
        ok, _, checked = verify_coalgebra_map(f, source, target)
        equal, summed = term_list_split(f, source, target)
        assert ok and summed == [] and len(equal) == checked > 0


# ---------------------------------------------------------------------------
# one coproduct table per PathIndex


def _oracle_delta_terms(pindex, i):
    """The splittings, computed fresh as before the shared table."""
    src, tgt, arrows = pindex.paths[i]
    if not arrows:
        return [(i, i)]
    out = [(pindex.vertex_path(tgt), i), (i, pindex.vertex_path(src))]
    for k in range(1, len(arrows)):
        out.append((pindex.path_of(arrows[k:]), pindex.path_of(arrows[:k])))
    return out


@pytest.mark.parametrize("name", FIXTURES)
def test_one_csm_iso_run_splits_each_path_once(monkeypatch, tmp_path, name):
    split = PathIndex._split
    computed = collections.Counter()

    def counting(pindex, i):
        computed[pindex, i] += 1
        return split(pindex, i)

    monkeypatch.setattr(PathIndex, "_split", counting)
    code, _ = _run_csm_iso(_fixture_path(name, tmp_path))
    assert code == 0
    assert set(computed.values()) == {1}
    by_index = collections.Counter(pindex for pindex, _ in computed)
    # the base index, read by the closure and all six liftings' smash
    # coalgebras, had every path split, each exactly once
    base = min(by_index, key=len)
    assert by_index[base] == len(base)


@pytest.mark.parametrize("name", FIXTURES)
def test_shared_table_matches_a_fresh_computation(tmp_path, name):
    with open(_fixture_path(name, tmp_path), encoding="utf-8") as handle:
        ws = parse(handle.read())
    basis = ws.sole("subcoalgebra", None).basis
    weighting = ws.sole("weighting", None).weighting
    pindex = basis.pindex
    sq = smash_quiver(weighting.quiver, weighting, window_ball(weighting.group, 1))
    for index in (pindex, PathIndex(sq.quiver, pindex.truncation)):
        coalg = TruncatedPathCoalgebra(index)
        for i in range(len(index)):
            fresh = _oracle_delta_terms(index, i)
            unit = SparseVector.unit(i)
            assert coalg.coproduct(i) == ([(1, l, r) for l, r in fresh], False)
            assert coalg.coproduct(i) is coalg.coproduct(i) is index._coproducts[i]
            assert delta_vector(index, unit) == {key: 1 for key in fresh}
            assert coalg.counit(i) == counit_vector(index, unit)
    smash = smash_path_coalgebra(pindex, weighting, window_ball(weighting.group, 1))
    for sym in smash.symbols():
        assert smash.counit(sym) == counit_vector(
            pindex, SparseVector.unit(smash.decode(sym)[0]))
    for sym in basis.symbols():
        row = basis.row_vector(sym)
        want = {key: c for i, c in row.items() for key in _oracle_delta_terms(pindex, i)}
        terms, truncated = basis.coproduct(sym)
        assert not truncated
        rebuilt = collections.Counter()
        for coeff, sl, sr in terms:
            for i, a in basis.row_vector(sl).items():
                for j, b in basis.row_vector(sr).items():
                    rebuilt[i, j] += coeff * a * b
        assert {k: v for k, v in rebuilt.items() if v} == want
        assert basis.counit(sym) == counit_vector(pindex, row) == basis.counit(sym)


# ---------------------------------------------------------------------------
# each distinct lifting is checked once, and counted once per draw


def oracle_cmd_csm_iso(ws, args):
    """`cli.cmd_csm_iso` checking every drawn lifting from scratch, a
    verbatim copy of the loop before repeats were checked once; its
    `_inverse_over_base` call builds the projection map per lifting."""
    decl = ws.sole("subcoalgebra", args.subcoalgebra)
    basis = decl.basis
    weighting = _weighting_of(ws, args, on=decl)
    group = weighting.group
    window = window_ball(group, args.window)
    sq = smash_quiver(weighting.quiver, weighting, window)
    cover = GaloisCoverData.from_smash(sq)
    cover_pindex = PathIndex(sq.quiver, basis.pindex.truncation)
    cover_coalg = TruncatedPathCoalgebra(cover_pindex)
    seed = int(os.environ.get("COVOL_SEED", "20240801"))
    rng = random.Random(seed)

    liftings = [sq.canonical_lifting()]
    # A random lift is drawn among the small elements whose vertex is
    # interior, so that every arrow at it lifts inside the window.
    candidates = []
    for v in range(weighting.quiver.num_vertices() if args.liftings else 0):
        candidates.append([g for g in window if _small_window_element(group, g)
                           and sq.vertex_of(v, g) in sq.interior_vertices])
        if not candidates[v]:
            raise CommandError("no small window element lifts vertex %r to the "
                               "interior at window %d"
                               % (weighting.quiver.vertices[v], args.window))
    for _ in range(args.liftings):
        named = {v: rng.choice(small) for v, small in enumerate(candidates)}
        gamma = VertexWeighting(weighting.quiver, group, named)
        liftings.append(sq.lifting_from_vertex_weighting(gamma))

    expected = cover_projection_map(cover_pindex, basis.pindex, sq.morphism)
    # phi lifts (p, g) from the translate by g of p's lifted source, so it
    # has one symbol per cover path leaving such a translate inside the
    # window: count the cover paths at each vertex once per command.
    paths_at = [0] * sq.quiver.num_vertices()
    for src, _, _ in cover_pindex.paths:
        paths_at[src] += 1
    verified = 0
    total_checked = 0
    for lifting in liftings:
        psi, phi, smash_coalg, _ = covering_coalgebra_iso(
            cover, lifting, basis.pindex, cover_pindex, window)
        ok1, _, c1 = verify_coalgebra_map(psi, cover_coalg, smash_coalg)
        ok2, _, c2 = verify_coalgebra_map(phi, smash_coalg, cover_coalg)
        lifted = sum(paths_at[v] for start in lifting.values() for g in window
                     if (v := cover.act_vertex(start, g)) is not None)
        if ok1 and ok2 and c1 and c2 and len(phi) == lifted \
                and _inverse_over_base(psi, phi, smash_projection_map(smash_coalg), expected):
            verified += 1
        total_checked += c1 + c2
    report = {
        "command": "csm-iso",
        "liftings": len(liftings),
        "verified": verified,
        "checkedSymbols": total_checked,
    }
    return report, None, 0 if verified == len(liftings) else 1


def _run_both(monkeypatch, path, options, wrap=lambda iso: iso):
    """(command's, oracle's) exit code and report, and the keys of the
    liftings each passed to `covering_coalgebra_iso`, in call order; each
    call goes through `wrap(covering_coalgebra_iso)`."""
    runs = []
    for owner in (cli, None):
        keys, iso = [], wrap(covering_coalgebra_iso)

        def record(cover, lifting, *rest, keys=keys, iso=iso):
            keys.append(_key(lifting))
            return iso(cover, lifting, *rest)

        with monkeypatch.context() as m:
            if owner is cli:
                m.setattr(cli, "covering_coalgebra_iso", record)
            else:
                m.setitem(globals(), "covering_coalgebra_iso", record)
                m.setitem(cli.COMMANDS, "csm-iso", oracle_cmd_csm_iso)
            runs.append((_run_csm_iso(path, *options), keys))
    return runs


@pytest.mark.parametrize("name", FIXTURES)
def test_each_distinct_lifting_is_checked_once(monkeypatch, tmp_path, name):
    """Same exit code and report bytes as the oracle at 0, 5 and 12 random
    liftings under two seeds; the command builds the isomorphisms once per
    distinct lifting, in the order the oracle first draws it."""
    path = _fixture_path(name, tmp_path)
    repeats = 0
    for seed in ("20240801", "7"):
        monkeypatch.setenv("COVOL_SEED", seed)
        for n in (0, 5, 12):
            (got, checked), (want, drawn) = _run_both(monkeypatch, path,
                                                     ["--liftings", str(n)])
            assert got == want and got[0] == 0
            assert json.loads(got[1])["liftings"] == len(drawn) == n + 1
            assert checked == list(dict.fromkeys(drawn))
            repeats += len(drawn) - len(checked)
            if (seed, n) == ("20240801", 5):
                assert len(checked) == DISTINCT[name]
    # loop has 3 small elements for 13 draws, dbl 5: a draw must repeat;
    # sl2's larger quiver repeats none of these draws
    assert repeats > 0 or name == "sl2"


def _drop_one_at(key):
    """Wrap covering_coalgebra_iso so phi misses a symbol at one lifting."""
    def wrap(iso):
        def broken(cover, lifting, *rest):
            psi, phi, smash, induced = iso(cover, lifting, *rest)
            return psi, _drop_one(phi) if _key(lifting) == key else phi, smash, induced
        return broken
    return wrap


@pytest.mark.parametrize("name", FIXTURES)
def test_a_broken_lifting_fails_every_draw_of_it(monkeypatch, tmp_path, name):
    """One distinct lifting, the most drawn, is broken by its key: each of
    its draws counts as unverified, in the command and in the oracle."""
    path = _fixture_path(name, tmp_path)
    options = ["--liftings", "12"]
    (_, _), (want, drawn) = _run_both(monkeypatch, path, options)
    assert want[0] == 0
    key, draws = collections.Counter(drawn).most_common(1)[0]
    assert draws > 1 or name == "sl2"
    (got, checked), (want, drawn) = _run_both(monkeypatch, path, options,
                                              _drop_one_at(key))
    assert got == want and got[0] == 1
    assert checked.count(key) == 1 and drawn.count(key) == draws
    report = json.loads(got[1])
    assert (report["liftings"], report["verified"]) == (13, 13 - draws)
