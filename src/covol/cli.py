"""
Command line front end: `covol <command> <workspace.cov> [options]`.

Commands build smash quivers and coalgebras, run the homogeneity /
covering / connectedness checks, extract minimal elements and relators,
compute universal grading groups, verify the covering isomorphisms, twist
weightings, probe gradability of a comodule, and export DOT or JSON.
Every command prints one deterministic JSON report.  Exit code 0: every
property the command asserts held; 1: one failed; 2: a usage, workspace
or file I/O error.  All commands share one option set, with `--window
R >= 0`, but `--gamma` is required for `twist` only and `--liftings N >= 0`
serves `csm-iso` only.
"""

import argparse
import json
import os
import random
import sys

from .coalgebra import (
    CoalgebraError, PathIndex, TruncatedPathCoalgebra, coassociativity_ok,
    compose_maps, cover_projection_map, covering_coalgebra_iso, is_homogeneous,
    is_identity_map, minimal_partition, smash_coalgebra, smash_projection_map,
    subcoalgebra_to_json, vector_label, verify_coalgebra_map,
)
from .comodule import gradability_probe, probe_searches
from .covering import covering_crosscheck, extract_relators, universal_grading_group
from .groups import FgAbelian, FiniteTable
from .quiver import is_covering, is_galois_on_fiber, spanning_tree_pi1
from .voltage import (
    GaloisCoverData, VertexWeighting, local_covering_ok, smash_quiver,
    twist_weighting, window_ball,
)
from .workspace import Parser, WorkspaceError, parse


class CommandError(ValueError):
    pass


def _weighting_of(ws, args, on=None):
    """The sole weighting.  With `on`, a subcoalgebra or comodule
    declaration, a weighting on another quiver is refused: its weights
    would be read against `on`'s arrows by index."""
    decl = ws.sole("weighting", args.weighting)
    if on is not None and on.quiver_name != decl.quiver_name:
        raise CommandError("weighting %r is on quiver %r, but %s %r is on quiver %r"
                           % (decl.name, decl.quiver_name, on.kind, on.name,
                              on.quiver_name))
    return decl.weighting


def _basis_of(ws, args):
    decl = ws.sole("subcoalgebra", args.subcoalgebra)
    return decl.basis


def _pres_of(ws, args):
    decl = ws.sole("subcoalgebra", args.subcoalgebra)
    quiver = ws.quivers[decl.quiver_name].quiver
    return spanning_tree_pi1(quiver, 0)


def cmd_smash(ws, args):
    basis_decl = ws.sole("subcoalgebra", args.subcoalgebra, required=False)
    weighting = _weighting_of(ws, args, on=basis_decl)
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
    if basis_decl is not None:
        try:
            coalg = smash_coalgebra(basis_decl.basis, weighting, sq.window)
        except CoalgebraError:
            pass  # not homogeneous: no smash coalgebra to check
        else:
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
    decl = ws.sole("subcoalgebra", args.subcoalgebra)
    basis = decl.basis
    weighting = _weighting_of(ws, args, on=decl)
    ok, witness = is_homogeneous(basis, weighting, return_witness=True)
    report = {"command": "homog", "homogeneous": ok}
    if witness is not None:
        report["witness"] = vector_label(basis.pindex, witness)
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
                "representative": vector_label(pindex, rep) if rep else None,
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
    decl = ws.sole("subcoalgebra", args.subcoalgebra)
    weighting = _weighting_of(ws, args, on=decl)
    report = covering_crosscheck(decl.basis, weighting, _pres_of(ws, args))
    report["command"] = "cov-crosscheck"
    return report, None, 0


def cmd_csm_iso(ws, args):
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

    nv = weighting.quiver.num_vertices()
    liftings = [sq.canonical_lifting()]
    # A random lift is drawn among the elements of the radius-1 window
    # whose vertex is interior, so that every arrow at it lifts inside the
    # window.
    candidates, ball = [], set(window_ball(group, 1))
    for v in range(nv if args.liftings else 0):
        candidates.append([g for g in window if g in ball
                           and sq.vertex_of(v, g) in sq.interior_vertices])
        if not candidates[v]:
            raise CommandError("no small window element lifts vertex %r to the "
                               "interior at window %d"
                               % (weighting.quiver.vertices[v], args.window))
    for _ in range(args.liftings):
        liftings.append({v: sq.vertex_of(v, rng.choice(small))
                         for v, small in enumerate(candidates)})

    expected = cover_projection_map(cover_pindex, basis.pindex, sq.morphism)
    # phi lifts (p, g) from the translate by g of p's lifted source, so it
    # has one symbol per cover path leaving such a translate inside the
    # window: count the cover paths at each vertex once per command.
    paths_at = [0] * sq.quiver.num_vertices()
    for src, _, _ in cover_pindex.paths:
        paths_at[src] += 1
    # A lifting's outcome depends only on its cover vertices (the loop
    # reads command state or fills caches), so a repeated draw is checked
    # once and counted once per draw.
    outcomes = {}  # cover vertices in base-vertex order -> (verified, checked)
    projection = None  # one for all liftings: each smash is len(basis.pindex) x |window|
    verified = 0
    total_checked = 0
    for lifting in liftings:
        key = tuple(lifting[v] for v in range(nv))
        if key not in outcomes:
            psi, phi, smash_coalg, _ = covering_coalgebra_iso(
                cover, lifting, basis.pindex, cover_pindex, window)
            ok1, _, c1 = verify_coalgebra_map(psi, cover_coalg, smash_coalg)
            ok2, _, c2 = verify_coalgebra_map(phi, smash_coalg, cover_coalg)
            lifted = sum(paths_at[v] for start in lifting.values() for g in window
                         if (v := cover.act_vertex(start, g)) is not None)
            projection = projection or smash_projection_map(smash_coalg)
            ok = bool(ok1 and ok2 and c1 and c2 and len(phi) == lifted
                      and _inverse_over_base(psi, phi, projection, expected))
            outcomes[key] = (ok, c1 + c2)
        ok, checked = outcomes[key]
        verified += ok
        total_checked += checked
    report = {
        "command": "csm-iso",
        "liftings": len(liftings),
        "verified": verified,
        "checkedSymbols": total_checked,
    }
    return report, None, 0 if verified == len(liftings) else 1


def _inverse_over_base(psi, phi, projection, expected):
    """psi and phi are mutually inverse and psi lies over the cover
    projection `expected`: compose_maps(psi, phi) and compose_maps(phi,
    psi) are identities, and compose_maps(projection, psi), `projection`
    the smash coalgebra's `smash_projection_map`, equals `expected`, each
    composite defined on every symbol of its first map, and on at least
    one, so that no check holds vacuously or by skipping: a symbol left
    out of phi, or an image that leaves the other map's domain, fails."""
    over = compose_maps(projection, psi)
    return all(0 < len(composite) == len(first) and is_identity_map(composite)
               for composite, first in ((compose_maps(psi, phi), phi),
                                        (compose_maps(phi, psi), psi))) \
        and 0 < len(over) == len(psi) \
        and all(image == expected[sym] for sym, image in over.items())


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
        if vertex.value in named:
            raise CommandError("vertex %r is assigned twice in --gamma" % vertex.value)
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
    decl = ws.sole("comodule", args.comodule)
    weighting = _weighting_of(ws, args, on=decl)
    rep = decl.representation
    group = weighting.group
    # the probe refuses an unsearched group before it reads the window
    window = window_ball(group, args.window) if probe_searches(group) else []
    result = gradability_probe(rep, weighting, window)
    report = {"command": "gradable", "verdict": result.verdict}
    if result.verdict == "gradable":
        report["degrees"] = dict(zip(rep.labels(), result.degrees))
    elif result.verdict == "ungradable":
        report["refutedVectors"] = result.refuted
    else:
        report["reason"] = result.reason
    return report, None, 0


def cmd_export(ws, args):
    quiver_decl = ws.sole("quiver", args.quiver)
    dot = quiver_decl.quiver.to_dot(name=quiver_decl.name) if args.dot else None
    report = ws.structure()
    report["command"] = "export"
    basis_decl = ws.sole("subcoalgebra", args.subcoalgebra, required=False)
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


class _ArgumentParser(argparse.ArgumentParser):
    """One flat option set; `--gamma` and `--liftings` each serve one
    command, and a window radius is never negative."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extra = super().parse_known_args(args, namespace)
        if (ns.command == "twist") != (ns.gamma is not None):
            self.error("--gamma is required for twist and refused elsewhere")
        if ns.window < 0:
            self.error("--window must be >= 0")
        if ns.liftings is not None and (ns.command != "csm-iso" or ns.liftings < 0):
            self.error("--liftings is for csm-iso only and must be >= 0")
        if ns.command == "csm-iso" and ns.liftings is None:
            ns.liftings = 5
        return ns, extra


def build_arg_parser():
    parser = _ArgumentParser(
        prog="covol", usage="%(prog)s command workspace [options]",
        description="quiver coverings, voltages, and graded path coalgebras")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("workspace", help="workspace (.cov) file")
    parser.add_argument("--window", type=int, default=3,
                        help="window radius for infinite groups (default 3)")
    parser.add_argument("--json", help="write the JSON report to a file")
    parser.add_argument("--dot", nargs="?", const="-",
                        help="write DOT output (smash/export) to a file")
    for name in ("quiver", "weighting", "subcoalgebra", "comodule"):
        parser.add_argument("--" + name)
    parser.add_argument("--gamma", help="twist only, required: vertex weights x=0,y=1")
    parser.add_argument("--liftings", type=int, help="csm-iso only: random "
                        "liftings beyond the canonical one (default 5)")
    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        with open(args.workspace, "r", encoding="utf-8") as handle:
            ws = parse(handle.read())
        report, dot, code = run_command(args.command, ws, args)
        # Files first, so that a failed write leaves only the error on stdout.
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text)
            text = ""
        if dot is not None:
            if args.dot and args.dot != "-":
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(dot)
            else:
                text += dot
    except (WorkspaceError, CommandError, KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message; report the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(json.dumps({"schema": 1, "error": str(message)}, sort_keys=True))
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
