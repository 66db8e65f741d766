"""
Command line front end: `covol <command> <workspace.cov> [options]`.

Commands build smash quivers and coalgebras, run the homogeneity /
covering / connectedness checks, extract minimal elements and relators,
compute universal grading groups, verify the covering isomorphisms, twist
weightings, probe gradability of a comodule, and export DOT or JSON.
Every command prints one deterministic JSON report; the exit code is 0
iff every property the command asserts actually held.
"""

import argparse
import json
import os
import random
import sys

from .coalgebra import (
    PathIndex, TruncatedPathCoalgebra, coassociativity_ok,
    cover_projection_map, covering_coalgebra_iso, compose_maps,
    is_homogeneous, is_identity_map, minimal_partition,
    smash_coalgebra, smash_projection_map, subcoalgebra_to_json,
    verify_coalgebra_map,
)
from .comodule import gradability_probe
from .covering import (
    _vector_label, covering_crosscheck, extract_relators,
    universal_grading_group,
)
from .groups import FgAbelian, FiniteTable
from .quiver import is_covering, is_galois_on_fiber, spanning_tree_pi1
from .voltage import (
    GaloisCoverData, VertexWeighting, local_covering_ok, smash_quiver,
    twist_weighting, window_ball,
)
from .workspace import Parser, WorkspaceError, parse


class CommandError(ValueError):
    pass


def _weighting_of(ws, args):
    decl = ws.sole("weighting", getattr(args, "weighting", None))
    return decl.weighting


def _basis_of(ws, args):
    decl = ws.sole("subcoalgebra", getattr(args, "subcoalgebra", None))
    return decl.basis


def _pres_of(ws, args):
    decl = ws.sole("subcoalgebra", getattr(args, "subcoalgebra", None))
    quiver = ws.quivers[decl.quiver_name].quiver
    return spanning_tree_pi1(quiver, 0)


def cmd_smash(ws, args):
    weighting = _weighting_of(ws, args)
    sq = smash_quiver(weighting.quiver, weighting,
                      window_ball(weighting.group, args.window))
    report = {
        "command": "smash",
        "vertices": sq.quiver.num_vertices(),
        "arrows": sq.quiver.num_arrows(),
        "interiorVertices": len(sq.interior_vertices),
        "window": len(sq.window),
        "localCovering": local_covering_ok(sq),
    }
    basis_decl = ws.sole("subcoalgebra", getattr(args, "subcoalgebra", None),
                         required=False)
    if basis_decl is not None and is_homogeneous(basis_decl.basis, weighting):
        coalg = smash_coalgebra(basis_decl.basis, weighting, sq.window)
        ok, _, checked = coassociativity_ok(coalg)
        report["coalgebraSymbols"] = coalg.dimension
        report["coassociativeInterior"] = ok
        report["checkedSymbols"] = checked
    dot = sq.to_dot(name="smash") if args.dot else None
    ok = report["localCovering"] and report.get("coassociativeInterior", True)
    return report, dot, 0 if ok else 1


def cmd_check_cover(ws, args):
    weighting = _weighting_of(ws, args)
    group = weighting.group
    window = window_ball(group, args.window)
    sq = smash_quiver(weighting.quiver, weighting, window)
    report = {"command": "check-cover"}
    if isinstance(group, FiniteTable) or \
            (isinstance(group, FgAbelian) and group.is_finite()):
        ok, witness = is_covering(sq.morphism)
        report["covering"] = ok
        transitive = all(
            is_galois_on_fiber(sq.morphism, v)
            for v in range(weighting.quiver.num_vertices()))
        report["deckTransitive"] = transitive
        code = 0 if ok and transitive else 1
    else:
        ok = local_covering_ok(sq)
        report["interiorCovering"] = ok
        vmap, _, _ = sq.deck_action(group.identity())
        report["deckIdentityTotal"] = len(vmap) == sq.quiver.num_vertices()
        code = 0 if ok else 1
    return report, None, code


def cmd_homog(ws, args):
    basis = _basis_of(ws, args)
    weighting = _weighting_of(ws, args)
    ok, witness = is_homogeneous(basis, weighting, return_witness=True)
    report = {"command": "homog", "homogeneous": ok}
    if witness is not None:
        report["witness"] = _vector_label(basis.pindex, witness)
    return report, None, 0


def cmd_minimal(ws, args):
    basis = _basis_of(ws, args)
    pindex = basis.pindex
    blocks = []
    for pair, items in sorted(minimal_partition(basis).items()):
        for block, rep in items:
            blocks.append({
                "source": pindex.quiver.vertices[pair[0]],
                "target": pindex.quiver.vertices[pair[1]],
                "paths": [pindex.label(i) for i in block],
                "representative": _vector_label(pindex, rep) if rep else None,
            })
    report = {"command": "minimal", "blocks": blocks,
              "minimalElements": sum(1 for b in blocks if b["representative"])}
    return report, None, 0


def cmd_relators(ws, args):
    basis = _basis_of(ws, args)
    pres = _pres_of(ws, args)
    rels = extract_relators(basis, pres)
    report = {
        "command": "relators",
        "pi1Rank": pres.rank,
        "count": len(rels),
        "relators": [pres.free_group.format(w) for w in rels.words()],
    }
    return report, None, 0


def cmd_universal(ws, args):
    basis = _basis_of(ws, args)
    pres = _pres_of(ws, args)
    univ = universal_grading_group(basis, pres)
    backend = univ.backend
    rank = backend.rank if hasattr(backend, "rank") else backend.free_rank
    report = {
        "command": "universal",
        "group": univ.describe(),
        "rank": rank,
        "pi1Rank": univ.rank,
        "relators": len(univ.presentation.relators),
        "abelianized": univ.abelianized,
        "exact": univ.exact,
    }
    return report, None, 0


def cmd_cov_crosscheck(ws, args):
    basis = _basis_of(ws, args)
    weighting = _weighting_of(ws, args)
    pres = _pres_of(ws, args)
    window = window_ball(weighting.group, args.window)
    report = covering_crosscheck(basis, weighting, pres, window)
    report = dict(report)
    report.pop("schema", None)
    report["command"] = "cov-crosscheck"
    return report, None, 0


def cmd_csm_iso(ws, args):
    weighting = _weighting_of(ws, args)
    basis = _basis_of(ws, args)
    group = weighting.group
    window = window_ball(group, args.window)
    sq = smash_quiver(weighting.quiver, weighting, window)
    cover = GaloisCoverData.from_smash(sq)
    cover_pindex = PathIndex(sq.quiver, basis.pindex.truncation)
    cover_coalg = TruncatedPathCoalgebra(cover_pindex)
    seed = int(os.environ.get("COVOL_SEED", "20240801"))
    rng = random.Random(seed)

    liftings = [sq.canonical_lifting()]
    for _ in range(args.liftings):
        named = {}
        for v in range(weighting.quiver.num_vertices()):
            named[v] = rng.choice([g for g in window
                                   if _small_window_element(group, g)])
        gamma = VertexWeighting(weighting.quiver, group, named)
        liftings.append(sq.lifting_from_vertex_weighting(gamma))

    verified = 0
    total_checked = 0
    for lifting in liftings:
        psi, phi, smash_coalg, _ = covering_coalgebra_iso(
            cover, lifting, basis.pindex, cover_pindex, window)
        ok1, _, c1 = verify_coalgebra_map(psi, cover_coalg, smash_coalg)
        ok2, _, c2 = verify_coalgebra_map(phi, smash_coalg, cover_coalg)
        ident = is_identity_map(compose_maps(psi, phi)) and \
            is_identity_map(compose_maps(phi, psi))
        proj = compose_maps(smash_projection_map(smash_coalg), psi)
        expected = cover_projection_map(cover_pindex, basis.pindex, sq.morphism)
        commutes = proj == {sym: expected[sym] for sym in proj}
        if ok1 and ok2 and ident and commutes and c1 and c2:
            verified += 1
        total_checked += c1 + c2
    report = {
        "command": "csm-iso",
        "liftings": len(liftings),
        "verified": verified,
        "checkedSymbols": total_checked,
    }
    return report, None, 0 if verified == len(liftings) else 1


def _small_window_element(group, g):
    if isinstance(group, FgAbelian):
        return all(abs(x) <= 1 for x in g[0])
    if isinstance(group, FiniteTable):
        return True
    return len(g) <= 1


def cmd_twist(ws, args):
    weighting = _weighting_of(ws, args)
    group = weighting.group
    quiver = weighting.quiver
    named = {}
    parser = Parser(args.gamma)
    while True:
        vertex = parser.expect("name")
        if vertex.value not in quiver.vertex_index:
            raise CommandError("unknown vertex %r in --gamma" % vertex.value)
        parser.expect("=")
        named[vertex.value] = parser.group_element(group)
        if not parser.accept(","):
            break
    parser.expect("eof")
    gamma = VertexWeighting.by_name(quiver, group, named)
    twisted = twist_weighting(weighting, gamma)
    report = {
        "command": "twist",
        "weighting": {quiver.arrow_name(a): group.format(twisted.of(a))
                      for a in range(quiver.num_arrows())},
    }
    return report, None, 0


def cmd_gradable(ws, args):
    decl = ws.sole("comodule", getattr(args, "comodule", None))
    weighting = _weighting_of(ws, args)
    rep = decl.representation
    radius = args.window
    if radius < rep.total_dim:
        radius = rep.total_dim
    window = window_ball(weighting.group, radius)
    result = gradability_probe(rep, weighting, window)
    report = {"command": "gradable", "verdict": result.verdict}
    if result.verdict == "gradable":
        labels = rep.labels()
        degrees = {}
        index = 0
        for v in range(len(rep.dims)):
            for k in range(rep.dims[v]):
                degrees[labels[index]] = result.degrees[(v, k)]
                index += 1
        report["degrees"] = degrees
    elif result.verdict == "ungradable":
        report["refutedVectors"] = len(result.refuted)
    else:
        report["reason"] = result.reason
    return report, None, 0


def cmd_export(ws, args):
    quiver_decl = ws.sole("quiver", getattr(args, "quiver", None))
    dot = quiver_decl.quiver.to_dot(name=quiver_decl.name) if args.dot else None
    report = ws.structure()
    report["command"] = "export"
    basis_decl = ws.sole("subcoalgebra", getattr(args, "subcoalgebra", None),
                         required=False)
    if basis_decl is not None:
        report["subcoalgebra"] = subcoalgebra_to_json(basis_decl.basis)
    return report, None if args.dot is None else dot, 0


COMMANDS = {
    "smash": cmd_smash,
    "check-cover": cmd_check_cover,
    "homog": cmd_homog,
    "minimal": cmd_minimal,
    "relators": cmd_relators,
    "universal": cmd_universal,
    "cov-crosscheck": cmd_cov_crosscheck,
    "csm-iso": cmd_csm_iso,
    "twist": cmd_twist,
    "gradable": cmd_gradable,
    "export": cmd_export,
}


def run_command(command, ws, args):
    """Dispatch a command on a parsed workspace.  Returns (report dict,
    dot text or None, exit code); reports always carry schema 1."""
    handler = COMMANDS[command]
    report, dot, code = handler(ws, args)
    report["schema"] = 1
    return report, dot, code


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="covol",
        description="quiver coverings, voltages, and graded path coalgebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("workspace", help="workspace (.cov) file")
        p.add_argument("--window", type=int, default=3,
                       help="window radius for infinite groups (default 3)")
        p.add_argument("--json", help="write the JSON report to a file")
        p.add_argument("--dot", nargs="?", const="-",
                       help="write DOT output (smash/export) to a file")
        p.add_argument("--quiver")
        p.add_argument("--weighting")
        p.add_argument("--subcoalgebra")
        p.add_argument("--comodule")
        if name == "twist":
            p.add_argument("--gamma", required=True,
                           help="vertex weighting, e.g. \"x=0,y=1\"")
        if name == "csm-iso":
            p.add_argument("--liftings", type=int, default=5,
                           help="random liftings beyond the canonical one")
    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.workspace, "r", encoding="utf-8") as handle:
            ws = parse(handle.read())
        report, dot, code = run_command(args.command, ws, args)
    except (WorkspaceError, CommandError, KeyError, ValueError) as exc:
        print(json.dumps({"schema": 1, "error": str(exc)}, sort_keys=True))
        return 2
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if dot is not None:
        if args.dot and args.dot != "-":
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(dot)
        else:
            sys.stdout.write(dot)
    return code


if __name__ == "__main__":
    sys.exit(main())
