"""Acceptance suite: one test per criterion, exact arithmetic throughout,
one PASS/FAIL line per criterion (run with -s to see them)."""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import importlib.resources as resources

import pytest

from covol.coalgebra import (
    PathIndex, SparseVector, TruncatedPathCoalgebra, coassociativity_ok,
    compose_maps, cover_projection_map, covering_coalgebra_iso,
    is_homogeneous, is_identity_map, minimal_partition,
    smash_coalgebra, smash_path_coalgebra, smash_projection_map,
    twist_iso,
    verify_coalgebra_map,
)
from covol.comodule import (
    Comodule, Gradable, GradedComodule, QuiverRepresentation, Ungradable,
    from_smash_comodule, gradability_probe, push_down, to_smash_comodule,
    verify_comodule, witness_graded_comodule,
)
from covol.covering import (
    CoveringError, build_lifted_subcoalgebra, covering_crosscheck,
    extract_relators, is_coalgebra_covering, relators_vanish,
    span_of_liftings, universal_grading_group,
)
from covol.exactlin import finest_block_partition, rref
from covol.fixtures import (
    all_fixtures, double_loop_fixture, kronecker_fixture, loop_fixture,
    sl2_fixture, tri_fixture,
)
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver, is_covering, is_galois_on_fiber
from covol.voltage import (
    ArrowWeighting, GaloisCoverData, VertexWeighting,
    smash_quiver, twist_weighting, weighting_from_lifting, window_ball,
)
from covol.workspace import emit, parse

from corpus import (
    KRONECKER_STRINGS, Z, _random_subcoalgebra, brute_force_partition, zint,
)

import os

SEED = int(os.environ.get("COVOL_SEED", "20240801"))


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print("FAIL criterion %d: %s" % (number, text))
        raise
    print("PASS criterion %d: %s" % (number, text))


def fixtures_at_truncation_5():
    return [loop_fixture(6), double_loop_fixture(truncation=5),
            kronecker_fixture(truncation=5), tri_fixture("ac", truncation=5),
            tri_fixture("ac+bc", truncation=5), sl2_fixture(5, truncation=5)]


def test_criterion_1_coalgebra_axioms():
    with criterion(1, "coassociativity and counit laws, truncation 5 and "
                      "radius-3 smash windows"):
        for fx in fixtures_at_truncation_5():
            coalg = TruncatedPathCoalgebra(fx.pindex)
            ok, witness, checked = coassociativity_ok(coalg)
            assert ok and checked == len(fx.pindex), (fx.name, witness)

            window = fx.window(3)
            path_smash = smash_path_coalgebra(fx.pindex, fx.weighting, window)
            ok, witness, checked = coassociativity_ok(path_smash)
            assert ok and checked > 0, (fx.name, witness)

            if is_homogeneous(fx.basis, fx.weighting):
                sub_smash = smash_coalgebra(fx.basis, fx.weighting, window)
                ok, witness, checked = coassociativity_ok(sub_smash)
                assert ok and checked > 0, (fx.name, witness)


def test_criterion_2_cyclic_covers():
    with criterion(2, "loop over Z/n gives the cyclic quiver, a covering "
                      "with transitive deck action (n = 2..6)"):
        loop = Quiver(["x"], [("a", "x", "x")])
        for n in range(2, 7):
            zn = FiniteTable.cyclic(n)
            w = ArrowWeighting.by_name(loop, zn, {"a": 1})
            sq = smash_quiver(loop, w, zn.elements())
            assert sq.quiver.num_vertices() == n
            assert sq.quiver.num_arrows() == n
            succ = {}
            for a in range(n):
                src = sq.quiver.source(a)
                assert src not in succ
                succ[src] = sq.quiver.target(a)
            seen, cur = set(), 0
            while cur not in seen:
                seen.add(cur)
                cur = succ[cur]
            assert len(seen) == n  # one n-cycle
            ok, _ = is_covering(sq.morphism)
            assert ok
            assert is_galois_on_fiber(sq.morphism, 0)
            for h in zn.elements():
                vmap, amap, missing = sq.deck_action(h)
                assert not missing
            fiber = sq.fiber(0)
            images = {sq.deck_action(h)[0][fiber[0]] for h in zn.elements()}
            assert images == set(fiber)  # transitive on the fiber


def _verify_iso_pair(cover, lifting, base_pindex, cover_pindex, window,
                     morphism):
    cover_coalg = TruncatedPathCoalgebra(cover_pindex)
    psi, phi, smash_coalg, _ = covering_coalgebra_iso(
        cover, lifting, base_pindex, cover_pindex, window)
    ok1, w1, c1 = verify_coalgebra_map(psi, cover_coalg, smash_coalg)
    ok2, w2, c2 = verify_coalgebra_map(phi, smash_coalg, cover_coalg)
    assert ok1 and c1 > 0, w1
    assert ok2 and c2 > 0, w2
    assert is_identity_map(compose_maps(psi, phi))
    assert is_identity_map(compose_maps(phi, psi))
    projected = compose_maps(smash_projection_map(smash_coalg), psi)
    expected = cover_projection_map(cover_pindex, base_pindex, morphism)
    assert projected == {sym: expected[sym] for sym in projected}


def test_criterion_3_covering_smash_isomorphisms():
    with criterion(3, "covering/smash coalgebra isomorphisms for the "
                      "canonical and 5 random liftings"):
        rng = random.Random(SEED)
        for fx in [kronecker_fixture(), loop_fixture(5)]:
            window = window_ball(Z, 3)
            sq = smash_quiver(fx.quiver, fx.weighting, window)
            cover = GaloisCoverData.from_smash(sq)
            cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
            liftings = [sq.canonical_lifting()]
            for _ in range(5):
                named = {v: zint(rng.randint(-1, 1))
                         for v in range(fx.quiver.num_vertices())}
                gamma = VertexWeighting(fx.quiver, Z, named)
                liftings.append(sq.lifting_from_vertex_weighting(gamma))
            for lifting in liftings:
                _verify_iso_pair(cover, lifting, fx.pindex, cover_pindex,
                                 window, sq.morphism)


def test_criterion_4_smash_path_coalgebra_bijection():
    with criterion(4, "smash coproduct basis bijection onto the covering "
                      "path coalgebra intertwines the coproduct"):
        for fx in all_fixtures():
            window = fx.window(3)
            sq = smash_quiver(fx.quiver, fx.weighting, window)
            cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
            smash = smash_path_coalgebra(fx.pindex, fx.weighting, window)
            # phi at the canonical lifting: (p, g) -> the lift of p through g
            _, emap, _, _ = covering_coalgebra_iso(
                GaloisCoverData.from_smash(sq), sq.canonical_lifting(),
                fx.pindex, cover_pindex, window)
            ok, witness, checked = verify_coalgebra_map(
                emap, smash, TruncatedPathCoalgebra(cover_pindex))
            assert ok and checked > 0, (fx.name, witness)
            assert len(set(emap.values())) == len(emap)  # injective on symbols
            interior = [s for s in smash.symbols() if not smash.coproduct(s)[1]]
            assert all(s in emap for s in interior)


def test_criterion_5_covering_equivalence():
    with criterion(5, "homogeneity equals the coalgebra covering property "
                      "(fixtures and 50 random instances)"):
        fx = sl2_fixture(5)
        report = covering_crosscheck(fx.basis, fx.weighting, fx.pres,
                                     fx.window(4))
        assert report["homogeneous"] and report["connected"] \
            and report["coveringOK"]

        fx = tri_fixture("ac+bc")
        assert fx.weighting.of(fx.quiver.arrow_index["a"]) != \
            fx.weighting.of(fx.quiver.arrow_index["b"])
        report = covering_crosscheck(fx.basis, fx.weighting, fx.pres,
                                     fx.window(4))
        assert not report["homogeneous"]
        assert report["witness"] == "a.c+b.c"

        rng = random.Random(SEED)
        quivers = [
            sl2_fixture(4).quiver,
            tri_fixture("ac").quiver,
            Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"),
                                ("c", "v", "u")]),
        ]
        for trial in range(50):
            q = quivers[trial % len(quivers)]
            pindex = PathIndex(q, 2)
            basis = _random_subcoalgebra(rng, pindex)
            w = ArrowWeighting(q, Z, {a: zint(rng.randint(-1, 1))
                                      for a in range(q.num_arrows())})
            window = window_ball(Z, 4)
            homogeneous = is_homogeneous(basis, w)
            if homogeneous:
                cov = build_lifted_subcoalgebra(basis, w, window)
            else:
                with pytest.raises(CoveringError):
                    build_lifted_subcoalgebra(basis, w, window)
                cov = span_of_liftings(basis, w, window)
            ok, _ = is_coalgebra_covering(cov.smash, cov.base, cov.fibers)
            assert ok == homogeneous, trial


def _random_subspaces():
    """Criterion 6's 100 random RREF subspaces, ambient <= 10."""
    rng = random.Random(SEED)
    spaces = []
    for _ in range(100):
        ambient = rng.randint(2, 10)
        dim = rng.randint(1, 4)
        rows = [SparseVector({i: rng.choice([0, 0, 1, -1, 2])
                              for i in range(ambient)})
                for _ in range(dim)]
        spaces.append(rref(rows))
    return spaces


def test_criterion_6_minimal_partition_oracle():
    with criterion(6, "block partition equals brute-force splitting "
                      "(100 random subspaces, ambient <= 10) and the "
                      "degree-two blocks of the block-quiver fixture"):
        for trial, space in enumerate(_random_subspaces()):
            supported = set()
            for r in space.rows:
                supported |= r.support()
            got = finest_block_partition(space)
            want = sorted((sorted(b) for b in
                           brute_force_partition(space, supported)),
                          key=lambda b: b[0] if b else -1)
            assert got == want, trial

        for fx in all_fixtures():
            for pair, space in fx.basis.spaces.items():
                supported = set()
                for r in space.rows:
                    supported |= r.support()
                got = finest_block_partition(space)
                want = sorted((sorted(b) for b in
                               brute_force_partition(space, supported)),
                              key=lambda b: b[0])
                assert got == want, fx.name

        fx = sl2_fixture(5)
        found = [(pair, block) for pair, blocks in
                 minimal_partition(fx.basis).items()
                 for block, rep in blocks if rep is not None]
        assert len(found) == 3
        pindex = fx.pindex
        for i, (pair, block) in enumerate(sorted(found)):
            vi = pindex.quiver.vertex_index["x%d" % (i + 1)]
            assert pair == (vi, vi)
            first = pindex.from_names(["a%d" % i, "b%d" % i])
            second = pindex.from_names(["b%d" % (i + 1), "a%d" % (i + 1)])
            assert set(block) == {first, second}


def _oracle_minimal_partition(basis):
    """The earlier `minimal_partition`, kept as an oracle: each block's
    representative is the first RREF row whose support lies inside the
    block, found by testing every row against every block."""
    out = {}
    for pair in sorted(basis.spaces):
        space = basis.spaces[pair]
        blocks = []
        for block in finest_block_partition(space):
            rep = None
            if len(block) >= 2:
                blockset = set(block)
                for row in space.rows:
                    if row.support() <= blockset:
                        rep = row
                        break
            blocks.append((block, rep))
        out[pair] = blocks
    return out


def test_minimal_partition_matches_row_against_block_oracle():
    """One pass over the rows picks the same blocks and representatives
    as testing every row against every block."""
    bases = [SimpleNamespace(spaces={(0, 0): space})
             for space in _random_subspaces()]
    bases += [fx.basis for fx in all_fixtures()]
    represented = 0
    for n, basis in enumerate(bases):
        want = _oracle_minimal_partition(basis)
        assert minimal_partition(basis) == want, n
        represented += sum(rep is not None
                           for blocks in want.values() for _, rep in blocks)
    assert represented > 50


def test_criterion_7_universal_grading_groups():
    with criterion(7, "universal grading groups of the five fixtures"):
        univ = universal_grading_group(loop_fixture(5).basis,
                                       loop_fixture(5).pres)
        assert univ.describe() == "Z" and not univ.presentation.relators

        fx = double_loop_fixture(truncation=3)
        univ = universal_grading_group(fx.basis, fx.pres)
        assert isinstance(univ.backend, FreeGroup) and univ.backend.rank == 2
        assert len(univ.presentation.relators) == 0

        fx = sl2_fixture(5)
        univ = universal_grading_group(fx.basis, fx.pres)
        assert univ.rank == 4
        assert len(univ.presentation.relators) == 3
        assert univ.backend == FgAbelian(1)  # abelianization Z

        fx = tri_fixture("ac")
        univ = universal_grading_group(fx.basis, fx.pres)
        assert univ.describe() == "Z"

        fx = tri_fixture("ac+bc")
        univ = universal_grading_group(fx.basis, fx.pres)
        assert univ.backend == FgAbelian(0)  # trivial quotient
        # the two embeddings of the same subcoalgebra have different
        # universal groups: Z vs trivial


def test_criterion_8_relator_soundness():
    with criterion(8, "every extracted relator has identity weight under "
                      "every homogeneous connected fixture weighting"):
        from covol.voltage import is_connected_weighting
        for fx in all_fixtures():
            rels = extract_relators(fx.basis, fx.pres)
            if is_homogeneous(fx.basis, fx.weighting) and \
                    is_connected_weighting(fx.weighting, fx.pres):
                assert relators_vanish(rels, fx.weighting), fx.name
            univ = universal_grading_group(fx.basis, fx.pres)
            assert relators_vanish(rels, univ.weighting), fx.name


def _random_vertex_weighting(rng, fx):
    if isinstance(fx.group, FreeGroup):
        named = {}
        for v in range(fx.quiver.num_vertices()):
            letters = [rng.choice([1, -1, 2, -2])
                       for _ in range(rng.randint(0, 1))]
            named[v] = fx.group.word([l for l in letters
                                      if abs(l) <= fx.group.rank])
        return VertexWeighting(fx.quiver, fx.group, named)
    named = {v: zint(rng.randint(-1, 1))
             for v in range(fx.quiver.num_vertices())}
    return VertexWeighting(fx.quiver, fx.group, named)


def test_criterion_9_twisting_suite():
    with criterion(9, "twist composition, twist isomorphisms, and grading "
                      "preservation for 10 random vertex weightings per "
                      "fixture"):
        rng = random.Random(SEED)
        for fx in all_fixtures():
            window = fx.window(3)
            sq = smash_quiver(fx.quiver, fx.weighting, window)
            cover = GaloisCoverData.from_smash(sq)
            for _ in range(10):
                g1 = _random_vertex_weighting(rng, fx)
                g2 = _random_vertex_weighting(rng, fx)
                pointwise = VertexWeighting(fx.quiver, fx.group, {
                    v: fx.group.multiply(g1.of(v), g2.of(v))
                    for v in range(fx.quiver.num_vertices())})
                lhs = twist_weighting(twist_weighting(fx.weighting, g1), g2)
                assert lhs == twist_weighting(fx.weighting, pointwise)

                tmap, source, target, twisted = twist_iso(
                    fx.pindex, fx.weighting, g1, window)
                ok, witness, checked = verify_coalgebra_map(tmap, source, target)
                assert ok, (fx.name, witness)
                assert len(set(tmap.values())) == len(tmap)

                # grading preservation: the lifting moved by g1 induces
                # exactly the twisted weighting
                try:
                    lifting = sq.lifting_from_vertex_weighting(g1)
                except Exception:
                    continue
                induced = weighting_from_lifting(cover, lifting)
                assert induced == twisted, fx.name


def _weyl_comodule(fx):
    basis = fx.basis
    pindex = fx.pindex

    def unit_symbol(path_index):
        coords = basis.coordinates(SparseVector.unit(path_index))
        (sym, coeff), = coords.items()
        assert coeff == 1
        return sym

    x0 = unit_symbol(pindex.vertex_path("x0"))
    x1 = unit_symbol(pindex.vertex_path("x1"))
    a0 = unit_symbol(pindex.arrow_path("a0"))
    return Comodule(basis, ["m0", "m1"], {
        (0, 0): {x0: Fraction(1)},
        (1, 0): {a0: Fraction(1)},
        (1, 1): {x1: Fraction(1)},
    })


def test_criterion_10_comodule_suite():
    with criterion(10, "graded-comodule round trip, string push-down, and "
                       "the gradability certificates"):
        # round trip on the length-two comodule generated by an arrow
        fx = sl2_fixture(5)
        M = _weyl_comodule(fx)
        assert verify_comodule(M)[0]
        smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
        graded = GradedComodule(M, [zint(0), zint(0)], smash.weight_of, Z)
        assert graded.verify()[0]
        N = to_smash_comodule(graded, smash)
        assert verify_comodule(N)[0]
        back, _ = from_smash_comodule(N)
        assert back.comodule == graded.comodule
        assert back.degrees == graded.degrees
        pushed = push_down(N, smash_projection_map(smash), fx.basis)
        assert pushed == M

        # push-down of the length-ell string along the loop cover equals
        # the truncation comodule
        ell = 4
        lfx = loop_fixture(ell)
        sq = smash_quiver(lfx.quiver, lfx.weighting, window_ball(Z, ell + 1))
        cover_pindex = PathIndex(sq.quiver, lfx.pindex.truncation)
        dims = [0] * sq.quiver.num_vertices()
        for i in range(ell):
            dims[sq.vertex_of("x", zint(i))] = 1
        maps = {}
        for i in range(ell - 1):
            maps[sq.arrow_of("a", zint(i))] = [[Fraction(1)]]
        rep = QuiverRepresentation(sq.quiver, dims, maps)
        N = rep.as_comodule(TruncatedPathCoalgebra(cover_pindex), cover_pindex)
        assert verify_comodule(N)[0]
        proj = cover_projection_map(cover_pindex, lfx.pindex, sq.morphism)
        pushed = push_down(N, proj, TruncatedPathCoalgebra(lfx.pindex))
        a_power = {k: lfx.pindex.path_of(tuple([0] * k))
                   for k in range(1, ell)}
        a_power[0] = lfx.pindex.vertex_path("x")
        expected = {}
        for j in range(ell):
            for k in range(j + 1):
                expected[(k, j)] = {a_power[j - k]: Fraction(1)}
        reorder = {i: ell - 1 - i for i in range(ell)}
        relabeled = {(reorder[i], reorder[j]): coeff
                     for (i, j), coeff in pushed.coaction.items()}
        assert relabeled == expected

        # band is ungradable with a full exhaustion certificate
        kfx = kronecker_fixture()
        band = QuiverRepresentation(kfx.quiver, [1, 1],
                                    {0: [[1]], 1: [[1]]})
        window = window_ball(Z, 2)
        result = gradability_probe(band, kfx.weighting, window)
        assert isinstance(result, Ungradable)
        assert result.refuted == 25  # every dimension vector refuted

        # strings of total dimension <= 4 are gradable with verified
        # witnesses
        for a_mat, b_mat, dx, dy in KRONECKER_STRINGS:
            rep = QuiverRepresentation(kfx.quiver, [dx, dy],
                                       {0: a_mat, 1: b_mat})
            result = gradability_probe(rep, kfx.weighting, window_ball(Z, 4))
            assert isinstance(result, Gradable)
            graded = witness_graded_comodule(
                rep, kfx.weighting, result,
                TruncatedPathCoalgebra(kfx.pindex), kfx.pindex)
            assert graded.verify()[0]
            assert verify_comodule(graded.comodule)[0]


def _well_formed_dot(text):
    if not text.startswith("digraph"):
        return False
    if text.count("{") != text.count("}"):
        return False
    return text.rstrip().endswith("}")


def test_criterion_11_cli():
    with criterion(11, "parse/emit byte-stability, fixture commands exit 0, "
                       "well-formed DOT"):
        from covol.cli import build_arg_parser, run_command

        names = ["loop", "dbl", "kron", "tri_ac", "tri_acbc", "sl2"]
        sources = {}
        for name in names:
            text = (resources.files("covol") / "fixtures" /
                    ("%s.cov" % name)).read_text()
            sources[name] = text
            ws = parse(text)
            canonical = emit(ws)
            assert parse(canonical) == ws, name
            assert emit(parse(canonical)) == canonical, name

        plans = {
            "loop": ["smash", "check-cover", "homog", "minimal", "relators",
                     "universal", "cov-crosscheck", "csm-iso", "export"],
            "dbl": ["smash", "check-cover", "homog", "universal", "export"],
            "kron": ["smash", "check-cover", "homog", "minimal", "relators",
                     "universal", "cov-crosscheck", "csm-iso", "gradable",
                     "export"],
            "tri_ac": ["homog", "minimal", "relators", "universal",
                       "cov-crosscheck", "export"],
            "tri_acbc": ["homog", "minimal", "relators", "universal",
                         "cov-crosscheck", "export"],
            "sl2": ["smash", "check-cover", "homog", "minimal", "relators",
                    "universal", "cov-crosscheck", "export"],
        }
        parser = build_arg_parser()
        for name, commands in plans.items():
            ws = parse(sources[name])
            for command in commands:
                argv = [command, "dummy.cov"]
                if command in ("cov-crosscheck",):
                    argv += ["--window", "4"]
                if command in ("smash", "export"):
                    argv += ["--dot"]
                if command == "csm-iso":
                    argv += ["--liftings", "2"]
                args = parser.parse_args(argv)
                report, dot, code = run_command(command, ws, args)
                assert code == 0, (name, command, report)
                assert report["schema"] == 1
                json.dumps(report, sort_keys=True)  # serializable
                if dot is not None:
                    assert _well_formed_dot(dot), (name, command)

        # twist needs its --gamma argument
        ws = parse(sources["kron"])
        args = parser.parse_args(["twist", "dummy.cov", "--gamma", "x=0,y=1"])
        report, _, code = run_command("twist", ws, args)
        assert code == 0 and report["weighting"] == {"a": "-1", "b": "0"}
