"""
Coalgebra coverings: the lifted subcoalgebra over a smash coproduct
quiver (each cover pair's lifted base RREF rows, which are already its
RREF, so nothing is eliminated), the covering test for minimal elements,
the equivalence report (homogeneous / connected / covering), relator
extraction from minimal blocks, universal grading groups, and
window-local factor maps between covers.

A base minimal element lifts to a minimal element of the cover exactly
when its lift ends at one cover vertex, that is, when its paths share one
weight; the covering test reads only those endpoints.  Right translation
u#g -> u#gh is a deck transformation of the smash quiver, so the
crosscheck (`cov-crosscheck`) lifts from the identity fiber over the reach
set alone, certifies every fiber, and ignores `--window`.
"""

from .coalgebra import (
    CoalgebraError, PathIndex, SparseVector, is_homogeneous, lift_paths,
    minimal_partition, smash_coalgebra, smash_projection_map, vector_label,
    verify_coalgebra_map,
)
from .exactlin import Subspace, smith_normal_form
from .groups import FinitelyPresented, FreeGroup, abelianize, generates, \
    generator_relation_matrix, power
from .quiver import concat, walk_to_word
from .voltage import ArrowWeighting, is_connected_weighting, smash_quiver, \
    weight_walk, window_ball


class CoveringError(ValueError):
    pass


class CoalgebraCovering:
    """A smash-quiver covering together with a base subcoalgebra and the
    span of its liftings through `fibers`, in the covering path coalgebra."""

    def __init__(self, smash_q, base, cover_pindex, lifted_spans, fibers):
        self.smash = smash_q
        self.base = base
        self.cover_pindex = cover_pindex
        self.lifted_spans = lifted_spans
        self.fibers = fibers

    @property
    def lifted_dimension(self):
        return sum(s.dimension for s in self.lifted_spans.values())


def reach_set(base, weighting):
    """The fibers that lifts from the identity fiber of the rows of support
    >= 2 pass through, identity first: the weight w(a_k)...w(a_1) of every
    prefix of every path in those rows' supports, and w(a) and w(a)^-1 for
    each arrow, which keep every vertex (v, e) interior.  A weighting on
    another quiver raises `CoalgebraError`: it would be read by index."""
    if not base.pindex.quiver.same_as(weighting.quiver):
        raise CoalgebraError("the weighting is on another quiver than the subcoalgebra")
    group = weighting.group
    reach = {group.identity(): None}
    for g in weighting.assignment.values():
        reach.update({g: None, group.inverse(g): None})
    for space in base.spaces.values():
        for row in space.rows:
            if len(row.entries) < 2:
                continue
            for i in row.entries:
                g = group.identity()
                for a in base.pindex.paths[i][2]:
                    g = group.multiply(weighting.of(a), g)
                    reach[g] = None
    return list(reach)


def span_of_liftings(base, weighting, window):
    """The lifts of the base subcoalgebra's RREF rows through every fiber
    of the window whose lift stays inside, each in the (source, target)
    pair of cover vertices where it starts and ends (the endpoint rule of
    `is_coalgebra_covering`); a lift that ends at several vertices joins no
    pair.  For a homogeneous base every lift ends at one vertex, and this
    is the lifted subcoalgebra: the rows of support 1 lift the vertices and
    arrows, every row of support >= 2 is a minimal element, and lifting is
    linear on path coordinates.  For an inhomogeneous base no pair piece is
    a subcoalgebra, and `is_coalgebra_covering` reads none.

    Each pair's lifts, sorted by leading coordinate, are its RREF, with no
    elimination:
    - a pair's cover source (u, g) fixes the fiber g, and the lift of a
      base path from g determines the path, so a base row's unit pivot
      lifts to a unit entry that no other lift in the pair holds;
    - that lifted pivot is the lift's smallest cover coordinate.  The
      support paths of a base row all start at u, and its pivot is the
      smallest of them.  `PathIndex` orders paths by length, then by
      prefix, then by the last arrow's place among the out-arrows of the
      prefix's end.  `SmashQuiver` numbers arrow (a, h) by (window position
      of h, a), so the out-arrows of (t, h) are lifts of out-arrows of t in
      their order.  By induction on length, lifting from (u, g) keeps the
      order of the paths from u.

    Each fiber's lifts come from one `lift_paths` table, the rule that
    builds phi in `covering_coalgebra_iso`.
    """
    fibers = list(window)
    smash_q = smash_quiver(base.pindex.quiver, weighting, fibers)
    cover_pindex = PathIndex(smash_q.quiver, base.pindex.truncation)
    starts = [[smash_q.vertex_of(u, g) for u in range(base.pindex.quiver.num_vertices())]
              for g in fibers]
    tables = lift_paths(base.pindex, cover_pindex, smash_q.morphism.lifts, starts)
    pieces = {}  # cover (source, target) -> the lifts that start and end there
    for sym in base.symbols():
        vec, src = base.row_vector(sym), base.row_endpoints(sym)[0]
        for start, lift in zip(starts, tables):
            lifted = {lift[i]: c for i, c in vec.items()}
            if None in lifted:  # a support path falls off the window
                continue
            ends = {cover_pindex.target(i) for i in lifted}
            if len(ends) == 1:
                pair = (start[src], ends.pop())
                pieces.setdefault(pair, []).append(SparseVector._wrap(lifted))
    spans = {}
    for pair, rows in sorted(pieces.items()):
        rows.sort(key=SparseVector.leading)
        spans[pair] = Subspace(rows, [row.leading() for row in rows])
    return CoalgebraCovering(smash_q, base, cover_pindex, spans, fibers)


def build_lifted_subcoalgebra(base, weighting, window):
    """Lifted subcoalgebra of a homogeneous base: its span of liftings
    through every fiber of the window.  The projection down to the base is
    verified as a coalgebra map on interior symbols.  Building the smash
    coalgebra decides homogeneity, before anything is lifted."""
    try:
        smash_coalg = smash_coalgebra(base, weighting, window)
    except CoalgebraError as exc:
        if not hasattr(exc, "witness"):  # a weighting on another quiver
            raise
        raise CoveringError("base subcoalgebra is not homogeneous; witness %s"
                            % exc.witness) from None
    cov = span_of_liftings(base, weighting, window)
    ok, bad, _ = verify_coalgebra_map(smash_projection_map(smash_coalg), smash_coalg, base)
    if not ok:
        raise CoveringError("projection failed to be a coalgebra map at %r"
                            % smash_coalg.label(bad))
    return cov


def is_coalgebra_covering(smash_q, base, fibers):
    """Every base minimal element lifts to a minimal element of the lifted
    span at every fiber of `fibers` where it materializes, read from the
    lifts' endpoints (see `covering_crosscheck`): the lift of each base row
    of support >= 2 from each fiber ends at one cover vertex, read from the
    smash quiver's arrow table.  A lift that leaves the window is skipped.
    Returns (ok, witness) with witness = (row, cover start vertex), the
    first failure in (symbol, fiber) order."""
    ends, paths = smash_q.arrow_ends, base.pindex.paths  # the basis refuses other row ids
    for sym in base.symbols():
        row = base.row_vector(sym)
        if len(row.entries) < 2:
            continue
        src = base.row_endpoints(sym)[0]
        for g in fibers:
            start = smash_q.vertex_of(src, g)
            lifts = [smash_q.lift_arrows(paths[i][2], g) for i in row.entries]
            if None not in lifts and len({ends[p[-1]][1] if p else start
                                          for p in lifts}) > 1:
                return False, (row, start)
    return True, None


def covering_crosscheck(base, weighting, pres, window=None):
    """Evaluate homogeneity, connectedness of the weighting, and the
    covering property; homogeneity and the covering property must agree.

    The covering property is read from where the lifts from the identity
    fiber end, over the smash quiver on `reach_set` (`window` is accepted
    for positional callers only).  No cover index or span is built, since
    only that endpoint test can fail, nor the smash quiver's labels,
    `Quiver` or morphism.  The lift of a base path p from fiber g is the
    unique cover path from (s(p), g); it ends at (t(p), w(p)g) and
    determines p and g, so lifts from distinct coordinates or fibers have
    disjoint supports.  Each base RREF row holds a pivot no other row holds,
    so its lift holds a lifted pivot no other lift holds, and the span of
    liftings meets the coordinates of that lift's support in the lift's
    span: the lift of a row of support >= 2 (a minimal element) is minimal,
    and a member of its pair's piece once it ends at one vertex, that is,
    once w is constant on the row's support.  Deck translation carries the
    identity fiber to every fiber.  Independently of `is_homogeneous`,
    which multiplies the arrow weights of each RREF row's paths in the
    group, this walks the arrow table through `SmashQuiver.lift_arrows`,
    which multiplies nothing.  Returns a JSON-ready report dict.
    """
    homogeneous, witness = is_homogeneous(base, weighting, return_witness=True)
    connected = is_connected_weighting(weighting, pres)
    smash_q = smash_quiver(base.pindex.quiver, weighting, reach_set(base, weighting))
    covering_ok, _ = is_coalgebra_covering(smash_q, base, [weighting.group.identity()])
    if homogeneous != covering_ok:
        raise CoveringError(
            "homogeneity and covering property disagree: %r vs %r"
            % (homogeneous, covering_ok))
    report = {
        "schema": 1,
        "homogeneous": homogeneous,
        "connected": connected,
        "coveringOK": covering_ok,
    }
    if witness is not None:  # exactly when the covering test failed too
        report["witness"] = vector_label(base.pindex, witness)
    return report


class RelatorSet:
    """Relators of the base subcoalgebra: one free word per non-leading
    path of each minimal block, conjugated back to the base vertex."""

    def __init__(self, pres, relators):
        self.pres = pres
        self.relators = relators  # list of dicts: word, walk, pair, paths

    def words(self):
        return [r["word"] for r in self.relators]

    def __len__(self):
        return len(self.relators)


def extract_relators(base, pres):
    """For each minimal block with supported paths p1 < p2 < ... (path
    index order): the words of the closed walks w^-1 p1^-1 pj w, j >= 2,
    with w the tree geodesic from the base vertex to the paths' source."""
    relators = []
    for pair, blocks in minimal_partition(base).items():
        for block, rep in blocks:
            if rep is None:
                continue
            first = block[0]  # blocks are sorted
            src = base.pindex.source(first)
            geodesic = pres.geodesics[src]
            lead_walk = base.pindex.walk(first)
            for other in block[1:]:
                other_walk = base.pindex.walk(other)
                closed = concat(geodesic.inverse(),
                                concat(lead_walk.inverse(),
                                       concat(other_walk, geodesic)))
                relators.append({
                    "word": walk_to_word(pres, closed),
                    "walk": closed,
                    "pair": pair,
                    "paths": (first, other),
                })
    return RelatorSet(pres, relators)


def word_image(group, images, word):
    out = group.identity()
    for letter in word:
        g = images[abs(letter) - 1]
        if letter < 0:
            g = group.inverse(g)
        out = group.multiply(out, g)
    return out


class UniversalGradingGroup:
    """Universal grading data: the fundamental-group presentation modulo
    the relators, a computable backend (free when relator-free, otherwise
    the abelianized quotient), generator images, and the induced connected
    weighting (tree arrows to the identity, co-tree arrows to their
    generator images)."""

    def __init__(self, pres, relator_set, presentation, backend, images,
                 weighting, abelianized):
        self.pres = pres
        self.relator_set = relator_set
        self.presentation = presentation
        self.backend = backend
        self.images = images
        self.weighting = weighting
        self.abelianized = abelianized

    @property
    def rank(self):
        return self.presentation.generator_count

    @property
    def exact(self):
        """Whether the backend is the exact quotient: always for relator-
        free presentations, and for rank <= 1 where the quotient is
        automatically abelian."""
        return not self.presentation.relators or self.rank <= 1

    def describe(self):
        if isinstance(self.backend, FreeGroup):
            if self.backend.rank == 0:
                return "trivial"
            if self.backend.rank == 1:
                return "Z"
            return "free(%d)" % self.backend.rank
        parts = []
        if self.backend.free_rank == 1:
            parts.append("Z")
        elif self.backend.free_rank > 1:
            parts.append("Z^%d" % self.backend.free_rank)
        parts.extend("Z/%d" % t for t in self.backend.torsion)
        text = " x ".join(parts) if parts else "trivial"
        if self.abelianized:
            text += " (abelianized)"
        return text


def universal_grading_group(base, pres):
    relator_set = extract_relators(base, pres)
    presentation = FinitelyPresented(pres.rank, relator_set.words())
    if not presentation.relators:
        backend = FreeGroup(pres.rank, names=[
            base.pindex.quiver.arrow_name(a) for a in pres.cotree])
        images = [backend.generator(i) for i in range(pres.rank)]
        abelianized = False
    else:
        backend, images = abelianize(presentation)
        abelianized = True
    named = {}
    quiver = base.pindex.quiver
    for a in range(quiver.num_arrows()):
        if a in pres.generator_of:
            named[a] = images[pres.generator_of[a]]
        else:
            named[a] = backend.identity()
    weighting = ArrowWeighting(quiver, backend, named)
    for word in relator_set.words():
        if word_image(backend, images, word) != backend.identity():
            raise CoveringError("relator does not vanish in the backend")
    if not isinstance(backend, FreeGroup) and not generates(backend, images):
        raise CoveringError("universal weighting is not connected")
    return UniversalGradingGroup(pres, relator_set, presentation, backend,
                                 images, weighting, abelianized)


def relators_vanish(relator_set, weighting):
    """Soundness: a homogeneous grading weights every relator walk at the
    identity."""
    group = weighting.group
    return all(weight_walk(weighting, r["walk"]) == group.identity()
               for r in relator_set.relators)


def universal_factor_map(univ, target_weighting, target_window):
    """Window-local covering morphism from the universal smash cover onto
    the smash cover of a homogeneous connected weighting.

    Vertices map by (u, g) -> (u, gamma(u) * phi(g)) where gamma is the
    geodesic weight and phi sends generator images to fundamental-cycle
    weights.  The abelianized backend only factors through abelian
    targets; the arrow-compatibility audit raises otherwise.  Returns
    (vertex pair map, checked count).
    """
    pres = univ.pres
    group = target_weighting.group
    quiver = pres.quiver

    if not relators_vanish(univ.relator_set, target_weighting):
        raise CoveringError("target weighting does not kill the relators")

    cycle_weights = [weight_walk(target_weighting, c) for c in pres.cycles]
    gamma = {v: weight_walk(target_weighting, pres.geodesics[v])
             for v in range(quiver.num_vertices())}

    if isinstance(univ.backend, FreeGroup):
        def phi(g):
            return word_image(group, cycle_weights, g)
    else:
        basis = _abelian_basis_in_target(univ, group, cycle_weights)

        def phi(g):
            out = group.identity()
            for c, b in zip(list(g[0]) + list(g[1]), basis):
                out = group.multiply(out, power(group, b, c))
            return out

    window_set = set(target_window)
    checked = 0
    mapping = {}
    for g in window_ball(univ.backend, quiver.num_arrows() + 2):
        img_g = phi(g)
        for v in range(quiver.num_vertices()):
            target_fiber = group.multiply(gamma[v], img_g)
            if target_fiber in window_set:
                mapping[(v, g)] = (v, target_fiber)
                checked += 1
    for (v, g), (_, h) in mapping.items():
        for a in quiver.out_arrows[v]:
            end = (quiver.target(a), univ.backend.multiply(univ.weighting.of(a), g))
            if end in mapping:
                want = (quiver.target(a),
                        group.multiply(target_weighting.of(a), h))
                if mapping[end] != want:
                    raise CoveringError("factor map is not a covering morphism")
    return mapping, checked


def _abelian_basis_in_target(univ, group, cycle_weights):
    """Target images of the abelianized backend's standard basis, found by
    expressing each basis element as an integer combination of the
    generator images (solvable since the images generate)."""
    matrix = generator_relation_matrix(univ.backend, univ.images)
    n = len(matrix)
    diag, left, right = smith_normal_form(matrix)
    ncols = len(right)
    basis = []
    for k in range(n):
        target = [left[i][k] for i in range(n)]
        y = [0] * ncols
        for i in range(n):
            if i < len(diag) and diag[i]:
                if target[i] % diag[i]:
                    raise CoveringError("generator images do not generate")
                y[i] = target[i] // diag[i]
            elif target[i]:
                raise CoveringError("generator images do not generate")
        x = [sum(right[i][j] * y[j] for j in range(ncols))
             for i in range(ncols)]
        out = group.identity()
        for i in range(len(univ.images)):  # torsion relation columns contribute nothing
            out = group.multiply(out, power(group, cycle_weights[i], x[i]))
        basis.append(out)
    return basis
