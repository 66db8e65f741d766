"""Seeded op lists for the three benchmark workloads.

Every op is built during set-up from the workload seed.  An op's `run`
calls into covol and returns its output; `check` inspects that output
outside the timed region and returns None or a one-line error.  Calls go
through module attributes (`covering.covering_crosscheck`, ...) so that
the tracer's patches are seen.
"""

import contextlib
import io
import itertools
import json
import os
import random

from covol import cli, coalgebra, covering, exactlin, voltage
from covol.coalgebra import PathIndex, SparseVector
from covol.fixtures import (
    double_loop_fixture, kronecker_fixture, loop_fixture, sl2_fixture,
    tri_fixture,
)
from covol.groups import FgAbelian, FiniteTable, FreeGroup
from covol.quiver import Quiver, spanning_tree_pi1

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_DIR = os.path.join("src", "covol", "fixtures")
GOLDENS = os.path.join(HERE, "goldens", "cli_sweep.json")

# csm-iso draws its random liftings from COVOL_SEED; pin it to the CLI
# default so that its goldens hold.
CSM_ISO_SEED = "20240801"

# One vertex weighting per shipped fixture for `twist --gamma`, covering
# every vertex.
TWIST_GAMMA = {
    "dbl": "x=a",
    "kron": "x=0,y=1",
    "loop": "x=1",
    "sl2": "x0=0,x1=1,x2=0,x3=-1,x4=2",
    "tri_ac": "x=0,y=1,z=-1",
    "tri_acbc": "x=1,y=0,z=1",
}


class Op:
    """One closed-loop operation with the sizes that make its time
    interpretable."""

    def __init__(self, label, run, check, sizes=None, extra_sizes=None):
        self.label = label
        self.run = run
        self.check = check
        self.sizes = sizes or {}
        # Sizes that cost a rerun; a traced run computes them untimed.
        self.extra_sizes = extra_sizes


# ---------------------------------------------------------------------------
# crosscheck


def _s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[k]] for k in range(3))] for b in perms]
             for a in perms]
    return FiniteTable(table, names=["".join(map(str, p)) for p in perms])


def _backends():
    """(name, group, weight sampler, window radius).  Weights are chosen so
    that every lift of a length-2 path from the identity fiber stays in
    the window, which rules out window refusals by construction."""
    z, z5, z2, f2 = FgAbelian(1), FgAbelian(0, (5,)), FgAbelian(2), FreeGroup(2)
    s3 = _s3()
    f2_letters = [f2.identity(), f2.generator(0), f2.generator(1),
                  f2.inverse(f2.generator(0)), f2.inverse(f2.generator(1))]
    return [
        ("Z", z, lambda rng: z.element(free=[rng.randint(-1, 1)]), 4),
        ("Z/5", z5, lambda rng: z5.element(torsion=[rng.randrange(5)]), 0),
        ("S3", s3, lambda rng: rng.randrange(6), 0),
        ("Z^2", z2, lambda rng: z2.element(
            free=[rng.randint(0, 1), rng.randint(0, 1)]), 1),
        ("free(2)", f2, lambda rng: rng.choice(f2_letters), 2),
    ]


def _random_quivers():
    """The three quivers of the covering-equivalence acceptance criterion."""
    return {
        "sl2q": sl2_fixture(4).quiver,
        "tri": tri_fixture("ac").quiver,
        "uv": Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"),
                                  ("c", "v", "u")]),
    }


def random_generators(rng, pindex, count):
    """`count` random generators, each a random combination of 1-3 paths
    of length >= 1 sharing the endpoints of a random anchor path."""
    gens = []
    while len(gens) < count:
        anchor = rng.randrange(len(pindex))
        pair = (pindex.source(anchor), pindex.target(anchor))
        same = [i for i in pindex.by_pair[pair] if pindex.length(i) >= 1]
        if same:
            support = rng.sample(same, min(len(same), rng.randint(1, 3)))
            gens.append(SparseVector({i: rng.choice([1, 2, -1]) for i in support}))
    return gens


def weight_pure_oracle(basis, weighting):
    """Homogeneity without is_homogeneous: every RREF row of every endpoint
    space has a single path weight."""
    for space in basis.spaces.values():
        for row in space.rows:
            if len({basis.pindex.weight(weighting, i) for i in row.support()}) > 1:
                return False
    return True


def _crosscheck_op(label, basis, weighting, pres, window, expected=None):
    oracle = weight_pure_oracle(basis, weighting)

    def run():
        return covering.covering_crosscheck(basis, weighting, pres, window)

    def check(report):
        if report["coveringOK"] != report["homogeneous"]:
            return "coveringOK %r != homogeneous %r" % (
                report["coveringOK"], report["homogeneous"])
        if report["homogeneous"] != oracle:
            return "homogeneous %r but weight-purity oracle %r" % (
                report["homogeneous"], oracle)
        for key, want in (expected or {}).items():
            if report.get(key) != want:
                return "%s: got %r, want %r" % (key, report.get(key), want)
        return None

    def extra_sizes():
        cov = covering.span_of_liftings(basis, weighting, window)
        return {"cover_paths": len(cov.cover_pindex),
                "span_blocks": sum(len(exactlin.finest_block_partition(space))
                                   for space in cov.lifted_spans.values())}

    sizes = {"window": len(window), "base_dim": basis.dimension,
             "base_paths": len(basis.pindex)}
    return Op(label, run, check, sizes, extra_sizes)


# The scale ladder: (label, fixture builder, window radius, README verdict).
_HOLDS = {"homogeneous": True, "connected": True, "coveringOK": True}
_TRI_ACBC = {"homogeneous": False, "connected": True, "coveringOK": False,
             "witness": "a.c+b.c"}
LADDER = [
    ("sl2(3) r2", lambda: sl2_fixture(3), 2, _HOLDS),
    ("sl2(4) r2", lambda: sl2_fixture(4), 2, _HOLDS),
    ("dbl(2) r2", lambda: double_loop_fixture(2), 2, _HOLDS),
    ("dbl(3) r2", lambda: double_loop_fixture(3), 2, _HOLDS),
    ("loop(3) r8", lambda: loop_fixture(3), 8, _HOLDS),
    ("loop(5) r8", lambda: loop_fixture(5), 8, _HOLDS),
    ("kron r4", kronecker_fixture, 4, _HOLDS),
    ("kron r6", kronecker_fixture, 6, _HOLDS),
    ("tri_ac r3", lambda: tri_fixture("ac"), 3, _HOLDS),
    ("tri_ac r4", lambda: tri_fixture("ac"), 4, _HOLDS),
    ("tri_acbc r3", lambda: tri_fixture("ac+bc"), 3, _TRI_ACBC),
    ("tri_acbc r4", lambda: tri_fixture("ac+bc"), 4, _TRI_ACBC),
]

# Random instances per pass: (quiver, backend, count).  The sl2 quiver
# runs over Z/5 only: one instance takes 2-5 s over Z at radius 4 and
# free(2) at radius 2, and 0.5-1.4 s over S3 and Z^2.  free(2) runs on uv
# only: on tri it takes 0.5-0.9 s, the heaviest op of the pass, and its
# seed-to-seed swing would set op_p90_ms.
RANDOM_SLOTS = [
    ("tri", "Z", 1), ("uv", "Z", 1),
    ("tri", "Z/5", 2), ("uv", "Z/5", 2), ("sl2q", "Z/5", 1),
    ("tri", "S3", 2), ("uv", "S3", 2),
    ("tri", "Z^2", 1), ("uv", "Z^2", 1),
    ("uv", "free(2)", 1),
]

# The weighting of each slot is drawn once from this constant seed.  The
# cover it spans sets most of an instance's cost, so holding it fixed keeps
# the pass time from swinging with the workload seed, which draws the
# subcoalgebras.
WEIGHTING_SEED = 20240801


def crosscheck_ops(seed):
    ops = []
    for label, build, radius, verdict in LADDER:
        fx = build()
        ops.append(_crosscheck_op(label, fx.basis, fx.weighting, fx.pres,
                                  fx.window(radius), verdict))
    rng = random.Random(seed)
    weight_rng = random.Random(WEIGHTING_SEED)
    quivers = _random_quivers()
    backends = {b[0]: b for b in _backends()}
    for qname, bname, count in RANDOM_SLOTS:
        q = quivers[qname]
        pindex = PathIndex(q, 2)
        pres = spanning_tree_pi1(q, 0)
        _, group, sample, radius = backends[bname]
        window = voltage.window_ball(group, radius)
        w = voltage.ArrowWeighting(
            q, group, {a: sample(weight_rng) for a in range(q.num_arrows())})
        for k in range(count):
            basis = coalgebra.subcoalgebra_closure(
                pindex, random_generators(rng, pindex, 2))
            ops.append(_crosscheck_op("%s/%s #%d" % (qname, bname, k),
                                      basis, w, pres, window))
    return ops


# ---------------------------------------------------------------------------
# build_verify


def _sl2_shape(m):
    """Path index, generators and weighting of sl2_fixture(m), without the
    closure that the fixture builder runs."""
    vertices = ["x%d" % i for i in range(m)]
    arrows = []
    named = {}
    z = FgAbelian(1)
    for i in range(m - 1):
        arrows.append(("a%d" % i, "x%d" % i, "x%d" % (i + 1)))
        arrows.append(("b%d" % i, "x%d" % (i + 1), "x%d" % i))
        named["a%d" % i] = z.element(free=[0])
        named["b%d" % i] = z.element(free=[-1])
    q = Quiver(vertices, arrows)
    pindex = PathIndex(q, 2)
    gens = [SparseVector.unit(pindex.from_names(["b0", "a0"]))]
    for i in range(m - 2):
        gens.append(
            SparseVector.unit(pindex.from_names(["a%d" % i, "b%d" % i]))
            + SparseVector.unit(pindex.from_names(["b%d" % (i + 1), "a%d" % (i + 1)])))
    return pindex, gens, voltage.ArrowWeighting.by_name(q, z, named)


def _closure_op(label, pindex, gens, want_dim, state):
    def run():
        basis = coalgebra.subcoalgebra_closure(pindex, gens)
        state[label] = basis
        return basis

    def check(basis):
        if want_dim is not None and basis.dimension != want_dim:
            return "dimension %d, want %d" % (basis.dimension, want_dim)
        floor = pindex.quiver.num_vertices() + pindex.quiver.num_arrows()
        if basis.dimension < floor:
            return "dimension %d below vertices + arrows %d" % (basis.dimension, floor)
        for g in gens:
            if not basis.member(g):
                return "a generator is not a member of its closure"
        return None

    return Op(label, run, check, {"base_paths": len(pindex),
                                  "generators": len(gens)})


def _smash_verify_op(label, source, weighting, window, state):
    def run():
        smash = coalgebra.smash_coalgebra(state[source], weighting, window)
        return coalgebra.coassociativity_ok(smash)

    def check(result):
        ok, witness, checked = result
        if not ok:
            return "coassociativity fails at %r" % (witness,)
        if not checked:
            return "no symbol checked"
        return None

    return Op(label, run, check, {"window": len(window)})


def _iso_verify_op(label, source, weighting, window, state):
    def run():
        base_pindex = state[source].pindex
        sq = voltage.smash_quiver(base_pindex.quiver, weighting, window)
        cover = voltage.GaloisCoverData.from_smash(sq)
        cover_pindex = coalgebra.PathIndex(sq.quiver, base_pindex.truncation)
        cover_coalg = coalgebra.TruncatedPathCoalgebra(cover_pindex)
        psi, phi, smash, _ = coalgebra.covering_coalgebra_iso(
            cover, sq.canonical_lifting(), base_pindex, cover_pindex, window)
        ok1 = coalgebra.verify_coalgebra_map(psi, cover_coalg, smash)
        ok2 = coalgebra.verify_coalgebra_map(phi, smash, cover_coalg)
        return ok1, ok2, coalgebra.compose_maps(psi, phi), \
            coalgebra.compose_maps(phi, psi)

    def check(result):
        (ok1, bad1, c1), (ok2, bad2, c2), psi_phi, phi_psi = result
        if not (ok1 and ok2):
            return "not a coalgebra map at %r / %r" % (bad1, bad2)
        if not (c1 and c2):
            return "no symbol checked"
        if not (psi_phi and coalgebra.is_identity_map(psi_phi)):
            return "psi . phi is not the identity"
        if not (phi_psi and coalgebra.is_identity_map(phi_psi)):
            return "phi . psi is not the identity"
        return None

    return Op(label, run, check, {"window": len(window)})


def build_verify_ops(seed):
    """Builds first, then verifies on the bases those builds just made, so
    no verify op sees a coproduct cache filled by an earlier pass."""
    state = {}
    ops = []
    weightings = {}
    for m in (15, 31, 63, 95):
        pindex, gens, weightings[m] = _sl2_shape(m)
        ops.append(_closure_op("sl2(%d) closure" % m, pindex, gens, 4 * m - 3, state))
    dbl = double_loop_fixture(1)
    for t in (4, 5, 6):
        pindex = PathIndex(dbl.quiver, t)
        gens = [SparseVector.unit(i) for i in range(len(pindex))]
        ops.append(_closure_op("dbl(%d) full" % t, pindex, gens,
                               2 ** (t + 1) - 1, state))
    rng = random.Random(seed)
    sl2_random = _sl2_shape(24)[0]
    dbl_random = PathIndex(dbl.quiver, 4)
    for k in range(2):
        ops.append(_closure_op("sl2(24) random #%d" % k, sl2_random,
                               random_generators(rng, sl2_random, 24), None, state))
    for k in range(2):
        ops.append(_closure_op("dbl(4) random #%d" % k, dbl_random,
                               random_generators(rng, dbl_random, 6), None, state))

    z_r4 = voltage.window_ball(FgAbelian(1), 4)
    f2_r2 = voltage.window_ball(dbl.group, 2)
    ops.append(_smash_verify_op("sl2(31) smash+coassoc r4", "sl2(31) closure",
                                weightings[31], z_r4, state))
    ops.append(_smash_verify_op("dbl(4) smash+coassoc r2", "dbl(4) full",
                                dbl.weighting, f2_r2, state))
    ops.append(_iso_verify_op("sl2(15) iso r4", "sl2(15) closure",
                              weightings[15], z_r4, state))
    ops.append(_iso_verify_op("dbl(4) iso r2", "dbl(4) full",
                              dbl.weighting, f2_r2, state))
    return ops


# ---------------------------------------------------------------------------
# cli_sweep


def cli_argvs():
    """(label, argv) for every command but cov-crosscheck on every shipped
    fixture where it applies, at CLI defaults."""
    out = []
    for name in sorted(TWIST_GAMMA):
        path = os.path.join(FIXTURE_DIR, name + ".cov")
        for command in sorted(cli.COMMANDS):
            if command == "cov-crosscheck":
                continue
            if command == "gradable" and name != "kron":
                continue  # only kron declares a comodule
            argv = [command, path]
            if command == "twist":
                argv += ["--gamma", TWIST_GAMMA[name]]
            out.append(("%s %s" % (command, name), argv))
    return out


def run_cli(argv):
    """In-process `covol` run: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_op(label, argv, golden):
    def run():
        return run_cli(argv)

    def check(result):
        code, text = result
        report = json.loads(text)
        if code != golden["code"]:
            return "exit code %r, golden %r" % (code, golden["code"])
        for key, want in golden["report"].items():
            if key not in report:
                return "key %r missing" % key
            if report[key] != want:
                return "key %r differs from its golden" % key
        return None

    return Op(label, run, check, {"command": argv[0]})


def cli_sweep_ops(seed):
    """The seed fixes the order of the sweep; COVOL_SEED is pinned."""
    os.environ["COVOL_SEED"] = CSM_ISO_SEED
    with open(GOLDENS, "r", encoding="utf-8") as handle:
        goldens = json.load(handle)
    ops = [_cli_op(label, argv, goldens[label]) for label, argv in cli_argvs()]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "crosscheck": crosscheck_ops,
    "build_verify": build_verify_ops,
    "cli_sweep": cli_sweep_ops,
}
