"""
Coalgebra coverings: the lifted subcoalgebra over a smash coproduct
quiver, the covering test for minimal elements, the equivalence report
(homogeneous / connected / covering), relator extraction from minimal
blocks, universal grading groups, and window-local factor maps between
covers.
"""

from .coalgebra import (
    PathIndex, SparseVector, is_homogeneous, minimal_elements, minimal_rows,
    rational_str, smash_coalgebra, smash_projection_map, verify_coalgebra_map,
)
from .exactlin import Subspace, finest_block_partition, intersect_coordinates, rref
from .groups import FinitelyPresented, FreeGroup, abelianize, generates, power
from .quiver import concat, walk_to_word
from .voltage import ArrowWeighting, is_connected_weighting, smash_quiver, \
    weight_walk


class CoveringError(ValueError):
    pass


def _lift_path_arrows(smash_q, arrows, start_fiber):
    """Arrow indices of the lift of a base path from the given fiber, or
    None when the lift leaves the window."""
    group = smash_q.group
    out = []
    cur = start_fiber
    for a in arrows:
        ca = smash_q.arrow_of(a, cur)
        if ca is None:
            return None
        out.append(ca)
        cur = group.multiply(smash_q.weighting.of(a), cur)
    return out


def _lift_vector(smash_q, cover_pindex, base_pindex, vec, start_fiber):
    """Path-by-path lift of a base vector from one fiber; None if any
    support path falls off the window."""
    out = {}
    for i, c in vec.items():
        src, _, arrows = base_pindex.paths[i]
        if not arrows:
            v = smash_q.vertex_of(src, start_fiber)
            if v is None:
                return None
            out[cover_pindex.vertex_path(v)] = c
            continue
        lifted = _lift_path_arrows(smash_q, arrows, start_fiber)
        if lifted is None:
            return None
        out[cover_pindex.path_of(tuple(lifted))] = c
    return SparseVector(out)


class CoalgebraCovering:
    """A smash-quiver covering together with a base subcoalgebra and the
    span of liftings realized in the covering path coalgebra."""

    def __init__(self, smash_q, base, cover_pindex, lifted_spans):
        self.smash = smash_q
        self.base = base
        self.cover_pindex = cover_pindex
        self.lifted_spans = lifted_spans

    @property
    def lifted_dimension(self):
        return sum(s.dimension for s in self.lifted_spans.values())

    def lifted_member(self, pair, vec):
        space = self.lifted_spans.get(pair)
        return space is not None and space.member(vec)


def span_of_liftings(base, weighting, window, smash_q=None):
    """The span of all liftings of the paths and minimal elements of the
    base subcoalgebra, cut into its (source, target) components.

    Every RREF row with support of size >= 2 is a minimal element (any
    member supported inside a row's support is a multiple of that row),
    and lifting is linear on path coordinates, so lifting all rows and all
    member paths spans the same space as lifting all minimal elements.
    For a homogeneous base this coincides with the lifted subcoalgebra.

    The span is the direct sum of its pieces on its finest block partition:
    a block inside one pair joins it unchanged, and only a block straddling
    pairs is intersected with each pair's coordinates.  Rows of disjoint
    blocks are jointly reduced, so a pair's pieces sorted by pivot are its RREF.
    """
    if smash_q is None:
        smash_q = smash_quiver(base.pindex.quiver, weighting, window)
    cover_pindex = PathIndex(smash_q.quiver, base.pindex.truncation)
    vectors = [SparseVector.unit(i) for i in base.all_path_symbols()]
    vectors += [row for row in map(base.row_vector, base.symbols())
                if len(row.support()) >= 2]
    generators = []
    for vec in vectors:
        for g in smash_q.window:
            lifted = _lift_vector(smash_q, cover_pindex, base.pindex, vec, g)
            if lifted is not None:
                generators.append(lifted)
    total = rref(generators)
    blocks = finest_block_partition(total)
    block_of = {c: n for n, block in enumerate(blocks) for c in block}
    block_rows = [[] for _ in blocks]
    for row, p in zip(total.rows, total.pivots):
        block_rows[block_of[p]].append(row)
    pieces = {}  # pair -> rows of the block pieces inside its coordinates
    for block, rows in zip(blocks, block_rows):
        coords = {}
        for c in block:
            pair = (cover_pindex.source(c), cover_pindex.target(c))
            coords.setdefault(pair, []).append(c)
        if len(coords) == 1:
            pieces.setdefault(next(iter(coords)), []).extend(rows)
            continue
        space = Subspace(rows, [row.leading() for row in rows])
        for pair, cs in coords.items():
            pieces.setdefault(pair, []).extend(intersect_coordinates(space, cs).rows)
    spans = {pair: Subspace(sorted(rows, key=SparseVector.leading),
                            sorted(row.leading() for row in rows))
             for pair, rows in sorted(pieces.items()) if rows}
    return CoalgebraCovering(smash_q, base, cover_pindex, spans)


def build_lifted_subcoalgebra(base, weighting, window):
    """Lifted subcoalgebra of a homogeneous base: the span of (row, fiber)
    pairs realized as path vectors in the covering quiver.  The projection
    down to the base is verified as a coalgebra map on interior symbols."""
    ok, witness = is_homogeneous(base, weighting, return_witness=True)
    if not ok:
        raise CoveringError("base subcoalgebra is not homogeneous; witness %s"
                            % _vector_label(base.pindex, witness))
    smash_q = smash_quiver(base.pindex.quiver, weighting, window)
    cover_pindex = PathIndex(smash_q.quiver, base.pindex.truncation)
    spans = {}
    for sym in base.symbols():
        vec = base.row_vector(sym)
        for g in smash_q.window:
            lifted = _lift_vector(smash_q, cover_pindex, base.pindex, vec, g)
            if lifted is None:
                continue
            pairs = {(cover_pindex.source(i), cover_pindex.target(i))
                     for i in lifted.support()}
            assert len(pairs) == 1  # homogeneous rows lift with common endpoints
            spans.setdefault(next(iter(pairs)), []).append(lifted)
    spans = {pair: rref(rows) for pair, rows in spans.items()}
    cov = CoalgebraCovering(smash_q, base, cover_pindex, spans)

    smash_coalg = smash_coalgebra(base, weighting, window)
    proj = smash_projection_map(smash_coalg)
    ok, bad, _ = verify_coalgebra_map(proj, smash_coalg, base)
    if not ok:
        raise CoveringError("projection failed to be a coalgebra map at %r" % (bad,))
    return cov


def _vector_label(pindex, vec):
    parts = []
    for i in sorted(vec.support()):
        c = vec[i]
        txt = pindex.label(i)
        parts.append(txt if c == 1 else "%s*%s" % (rational_str(c), txt))
    return "+".join(parts) if parts else "0"


def _is_minimal_in(space, vec):
    """No proper nonempty subsum of vec lies in the space."""
    support = sorted(vec.support())
    n = len(support)
    for mask in range(1, 2 ** n - 1):
        part = SparseVector({support[i]: vec[support[i]]
                             for i in range(n) if (mask >> i) & 1})
        if space.member(part):
            return False
    return True


def is_coalgebra_covering(cov):
    """Every minimal element of the base lifts to a minimal element of the
    lifted span at every fiber point where its support paths materialize:
    common endpoint, membership, and minimality.  Quantifies over all
    minimal rows (a block can carry several).  Returns (ok, witness) with
    witness = (minimal element, fiber vertex) on failure."""
    base = cov.base
    smash_q = cov.smash
    for _pair, rep in minimal_rows(base):
        src = next(iter({base.pindex.source(i) for i in rep.support()}))
        for g in smash_q.window:
            start = smash_q.vertex_of(src, g)
            if start is None:
                continue
            lifts = {}
            complete = True
            for i in rep.support():
                arrows = base.pindex.arrows(i)
                lifted = _lift_path_arrows(smash_q, arrows, g)
                if lifted is None:
                    complete = False
                    break
                lifts[i] = lifted
            if not complete:
                continue
            ends = {smash_q.quiver.target(lifts[i][-1]) for i in lifts}
            if len(ends) != 1:
                return False, (rep, start)
            end = next(iter(ends))
            candidate = SparseVector({
                cov.cover_pindex.path_of(tuple(lifts[i])): rep[i] for i in lifts})
            space = cov.lifted_spans.get((start, end))
            if space is None or not space.member(candidate):
                return False, (rep, start)
            if not _is_minimal_in(space, candidate):
                return False, (rep, start)
    return True, None


def _rep_has_qualifying_fiber(cov, rep):
    """Whether some fiber point materializes every support path of the
    minimal element; the covering test is vacuous for this element
    otherwise."""
    smash_q = cov.smash
    for g in smash_q.window:
        if all(_lift_path_arrows(smash_q, cov.base.pindex.arrows(i), g) is not None
               for i in rep.support()):
            return True
    return False


def covering_crosscheck(base, weighting, pres, window):
    """Evaluate homogeneity, connectedness of the weighting, and the
    covering property of the span of liftings; homogeneity and the
    covering property must agree.

    Returns a JSON-ready report dict.
    """
    homogeneous, witness = is_homogeneous(base, weighting, return_witness=True)
    connected = is_connected_weighting(weighting, pres)
    cov = span_of_liftings(base, weighting, window)
    for _pair, rep in minimal_rows(base):
        if not _rep_has_qualifying_fiber(cov, rep):
            raise CoveringError("window too small to certify the covering "
                                "property for %s"
                                % _vector_label(base.pindex, rep))
    covering_ok, cov_witness = is_coalgebra_covering(cov)
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
    if witness is not None:
        report["witness"] = _vector_label(base.pindex, witness)
    elif cov_witness is not None:
        report["witness"] = _vector_label(base.pindex, cov_witness[0])
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
    quiver = base.pindex.quiver
    relators = []
    for pair, block, rep in sorted(minimal_elements(base)):
        paths = sorted(block)
        first = paths[0]
        src = base.pindex.source(first)
        geodesic = pres.geodesics[src]
        lead_walk = _path_as_walk(base.pindex, quiver, first)
        for other in paths[1:]:
            other_walk = _path_as_walk(base.pindex, quiver, other)
            closed = concat(geodesic.inverse(),
                            concat(lead_walk.inverse(),
                                   concat(other_walk, geodesic)))
            word = walk_to_word(pres, closed)
            relators.append({
                "word": word,
                "walk": closed,
                "pair": pair,
                "paths": (first, other),
            })
    return RelatorSet(pres, relators)


def _path_as_walk(pindex, quiver, i):
    from .quiver import Walk
    src, _, arrows = pindex.paths[i]
    return Walk(quiver, src, tuple((a, 1) for a in arrows))


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


def universal_cover(base, pres, window_radius=None, window=None):
    """Lifted subcoalgebra over the universal weighting."""
    from .voltage import window_ball
    univ = universal_grading_group(base, pres)
    if window is None:
        if window_radius is None:
            window_radius = base.pindex.truncation + 2
        window = window_ball(univ.backend, window_radius)
    cov = build_lifted_subcoalgebra(base, univ.weighting, window)
    return univ, cov


def relators_vanish(relator_set, weighting):
    """Soundness: a homogeneous grading weights every relator walk at the
    identity."""
    group = weighting.group
    return all(weight_walk(weighting, r["walk"]) == group.identity()
               for r in relator_set.relators)


def universal_factor_map(univ, target_weighting, target_window, univ_window=None):
    """Window-local covering morphism from the universal smash cover onto
    the smash cover of a homogeneous connected weighting.

    Vertices map by (u, g) -> (u, gamma(u) * phi(g)) where gamma is the
    geodesic weight and phi sends generator images to fundamental-cycle
    weights.  The abelianized backend only factors through abelian
    targets; the arrow-compatibility audit raises otherwise.  Returns
    (vertex pair map, checked count).
    """
    from .voltage import window_ball
    pres = univ.pres
    group = target_weighting.group
    quiver = pres.quiver
    if univ_window is None:
        univ_window = window_ball(univ.backend, quiver.num_arrows() + 2)

    if not relators_vanish(univ.relator_set, target_weighting):
        raise CoveringError("target weighting does not kill the relators")

    cycle_weights = [weight_walk(target_weighting, pres.fundamental_cycle(a))
                     for a in pres.cotree]
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
    for g in univ_window:
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
    from .exactlin import smith_normal_form
    backend = univ.backend
    r = backend.free_rank
    n = r + len(backend.torsion)
    cols = [list(img[0]) + list(img[1]) for img in univ.images]
    ngen = len(cols)
    for i, order in enumerate(backend.torsion):
        col = [0] * n
        col[r + i] = order
        cols.append(col)
    matrix = [[c[i] for c in cols] for i in range(n)]
    diag, left, right = smith_normal_form(matrix)
    basis = []
    for k in range(n):
        target = [left[i][k] for i in range(n)]
        y = [0] * len(cols)
        for i in range(n):
            if i < len(diag) and diag[i]:
                if target[i] % diag[i]:
                    raise CoveringError("generator images do not generate")
                y[i] = target[i] // diag[i]
            elif target[i]:
                raise CoveringError("generator images do not generate")
        x = [sum(right[i][j] * y[j] for j in range(len(cols)))
             for i in range(len(cols))]
        out = group.identity()
        for i in range(ngen):  # torsion relation columns contribute nothing
            out = group.multiply(out, power(group, cycle_weights[i], x[i]))
        basis.append(out)
    return basis
