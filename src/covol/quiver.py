"""
Quivers (finite directed multigraphs), walks with formal inverse steps,
spanning-tree presentations of the fundamental group, quiver morphisms,
covering checks, and unique walk lifting.

Paths compose right to left: in a displayed product the rightmost arrow is
traversed first.  Internally a Walk stores its steps in traversal order.
"""

from .groups import FiniteTable, FreeGroup, reduce_word


class QuiverError(ValueError):
    pass


class Quiver:
    """Vertices are labels; arrows are (name, source index, target index).

    Loops and parallel arrows are allowed.
    """

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise QuiverError("duplicate vertex label")
        self.arrows = []
        self.arrow_index = {}
        for name, src, tgt in arrows:
            s = src if isinstance(src, int) else self.vertex_index[src]
            t = tgt if isinstance(tgt, int) else self.vertex_index[tgt]
            if not (0 <= s < len(self.vertices) and 0 <= t < len(self.vertices)):
                raise QuiverError("arrow endpoint out of range: %r" % name)
            if name in self.arrow_index:
                raise QuiverError("duplicate arrow name %r" % name)
            self.arrow_index[name] = len(self.arrows)
            self.arrows.append((name, s, t))
        self.out_arrows = [[] for _ in self.vertices]
        self.in_arrows = [[] for _ in self.vertices]
        for i, (_, s, t) in enumerate(self.arrows):
            self.out_arrows[s].append(i)
            self.in_arrows[t].append(i)

    def num_vertices(self):
        return len(self.vertices)

    def num_arrows(self):
        return len(self.arrows)

    def source(self, a):
        return self.arrows[a][1]

    def target(self, a):
        return self.arrows[a][2]

    def arrow_name(self, a):
        return self.arrows[a][0]

    def is_connected(self):
        if not self.vertices:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for a in self.out_arrows[v] + self.in_arrows[v]:
                for w in (self.source(a), self.target(a)):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        return len(seen) == len(self.vertices)

    def to_dot(self, name="Q", rank_groups=None):
        """DOT text; vertex name = label, arrow label = arrow name.

        rank_groups: optional list of vertex-index groups emitted as
        rank=same clusters (used for fiber alignment of covers).
        """
        lines = ["digraph \"%s\" {" % name]
        for v in self.vertices:
            lines.append("  \"%s\";" % v)
        if rank_groups:
            for group in rank_groups:
                inner = " ".join("\"%s\";" % self.vertices[v] for v in group)
                lines.append("  { rank=same; %s }" % inner)
        for aname, s, t in self.arrows:
            lines.append("  \"%s\" -> \"%s\" [label=\"%s\"];" % (
                self.vertices[s], self.vertices[t], aname))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "Quiver(%d vertices, %d arrows)" % (len(self.vertices), len(self.arrows))


class Walk:
    """Sequence of signed arrow steps; steps are stored in traversal order,
    so the paper-style display reads them right to left."""

    __slots__ = ("quiver", "start", "steps")

    def __init__(self, quiver, start, steps=()):
        self.quiver = quiver
        self.start = start
        self.steps = tuple(steps)
        cur = start
        for a, sign in self.steps:
            s, t = quiver.source(a), quiver.target(a)
            if sign == 1:
                if s != cur:
                    raise QuiverError("step %s does not start at current vertex" %
                                      quiver.arrow_name(a))
                cur = t
            elif sign == -1:
                if t != cur:
                    raise QuiverError("inverse step %s does not start at current vertex" %
                                      quiver.arrow_name(a))
                cur = s
            else:
                raise QuiverError("step sign must be +1 or -1")

    @property
    def end(self):
        cur = self.start
        for a, sign in self.steps:
            cur = self.quiver.target(a) if sign == 1 else self.quiver.source(a)
        return cur

    def __len__(self):
        return len(self.steps)

    def is_closed(self):
        return self.start == self.end

    def inverse(self):
        return Walk(self.quiver, self.end,
                    tuple((a, -sign) for a, sign in reversed(self.steps)))

    def reduced_steps(self):
        """Steps after cancelling immediate backtracking a a^-."""
        out = []
        for step in self.steps:
            if out and out[-1][0] == step[0] and out[-1][1] == -step[1]:
                out.pop()
            else:
                out.append(step)
        return tuple(out)

    def display(self):
        if not self.steps:
            return "(%s)" % self.quiver.vertices[self.start]
        names = []
        for a, sign in self.steps:
            n = self.quiver.arrow_name(a)
            names.append(n if sign == 1 else n + "-")
        return ".".join(reversed(names))

    def __eq__(self, other):
        return (isinstance(other, Walk) and self.quiver is other.quiver
                and self.start == other.start and self.steps == other.steps)

    def __repr__(self):
        return "Walk(%s)" % self.display()


def concat(second, first):
    """Walk `first` followed by walk `second` (right-to-left composition:
    concat(b, a) is the product ba traversing a first)."""
    if first.quiver is not second.quiver:
        raise QuiverError("walks live in different quivers")
    if second.start != first.end:
        raise QuiverError("endpoint mismatch: second walk starts at %r, first ends at %r" %
                          (second.start, first.end))
    return Walk(first.quiver, first.start, first.steps + second.steps)


def path_walk(quiver, start, arrow_names):
    """Path from arrow names given in right-to-left display order."""
    steps = [(quiver.arrow_index[n], 1) for n in reversed(arrow_names)]
    return Walk(quiver, start, steps)


class Pi1Presentation:
    """Spanning-tree presentation of the fundamental group of a quiver.

    Generators are the co-tree arrows; geodesics are the tree walks from
    the base vertex; `cycles` holds the fundamental cycle of each co-tree
    arrow, in generator order.  Free rank = |Q1| - |Q0| + 1.
    """

    def __init__(self, quiver, base, tree_arrows, cotree, geodesics):
        self.quiver = quiver
        self.base = base
        self.tree_arrows = frozenset(tree_arrows)
        self.cotree = list(cotree)
        self.generator_of = {a: i for i, a in enumerate(self.cotree)}
        self.geodesics = geodesics
        self.free_group = FreeGroup(len(self.cotree),
                                    names=[quiver.arrow_name(a) for a in self.cotree])
        self.cycles = [self.fundamental_cycle(a) for a in self.cotree]

    @property
    def rank(self):
        return len(self.cotree)

    def fundamental_cycle(self, cotree_arrow):
        """Closed walk at the base: geodesic in, the co-tree arrow, geodesic back."""
        a = cotree_arrow
        s, t = self.quiver.source(a), self.quiver.target(a)
        up = self.geodesics[s]
        down = self.geodesics[t].inverse()
        mid = Walk(self.quiver, s, ((a, 1),))
        return concat(down, concat(mid, up))


def spanning_tree_pi1(quiver, base):
    """Breadth-first spanning tree rooted at the base vertex, with stable
    arrow-index tie-breaking, and the induced fundamental group data."""
    if isinstance(base, str):
        base = quiver.vertex_index[base]
    if not quiver.is_connected():
        raise QuiverError("quiver is not connected")
    tree = set()
    geodesics = {base: Walk(quiver, base)}
    frontier = [base]
    while frontier:
        nxt = []
        for v in frontier:
            for a in sorted(quiver.out_arrows[v] + quiver.in_arrows[v]):
                s, t = quiver.source(a), quiver.target(a)
                if s == v and t not in geodesics:
                    tree.add(a)
                    geodesics[t] = Walk(quiver, base, geodesics[v].steps + ((a, 1),))
                    nxt.append(t)
                elif t == v and s not in geodesics:
                    tree.add(a)
                    geodesics[s] = Walk(quiver, base, geodesics[v].steps + ((a, -1),))
                    nxt.append(s)
        frontier = nxt
    cotree = [a for a in range(quiver.num_arrows()) if a not in tree]
    return Pi1Presentation(quiver, base, tree, cotree, geodesics)


def walk_to_word(pres, walk):
    """Image of a closed walk at the base vertex in the spanning-tree
    presentation: tree steps vanish, co-tree steps map to generators.
    Backtracking-invariant since the word is freely reduced."""
    if walk.start != pres.base or not walk.is_closed():
        raise QuiverError("walk is not closed at the base vertex")
    letters = []
    for a, sign in reversed(walk.steps):  # first-traversed step is rightmost
        g = pres.generator_of.get(a)
        if g is not None:
            letters.append(sign * (g + 1))
    return reduce_word(letters)


class QuiverMorphism:
    """Structure-preserving map of quivers given by vertex and arrow maps."""

    def __init__(self, source, target, vertex_map, arrow_map):
        self.domain = source
        self.codomain = target
        self.vertex_map = list(vertex_map)
        self.arrow_map = list(arrow_map)
        for a in range(source.num_arrows()):
            b = self.arrow_map[a]
            if (self.vertex_map[source.source(a)] != target.source(b)
                    or self.vertex_map[source.target(a)] != target.target(b)):
                raise QuiverError("morphism does not preserve sources/targets at %r"
                                  % source.arrow_name(a))
        self._lifts = None

    def fiber(self, vertex):
        return [v for v, img in enumerate(self.vertex_map) if img == vertex]

    def lifts(self, v, a, sign):
        """Domain arrows over codomain arrow a that leave domain vertex v
        (sign 1) or enter it (sign -1).  The index is built on first use."""
        if self._lifts is None:
            self._lifts = {}
            for b, ((_, s, t), image) in enumerate(zip(self.domain.arrows, self.arrow_map)):
                for key in ((s, image, 1), (t, image, -1)):
                    self._lifts[key] = self._lifts.get(key, ()) + (b,)
        return self._lifts.get((v, a, sign), ())

    def is_local_bijection(self, v):
        """Every arrow leaving (entering) the image of v has exactly one lift
        leaving (entering) v.  Every arrow at v lies over one of them, since
        morphisms preserve endpoints, so this is the local bijection."""
        img, cod = self.vertex_map[v], self.codomain
        return all(len(self.lifts(v, a, 1)) == 1 for a in cod.out_arrows[img]) \
            and all(len(self.lifts(v, a, -1)) == 1 for a in cod.in_arrows[img])


def is_covering(morphism):
    """Covering test: both quivers connected, surjective on vertices and
    arrows, and locally a bijection on in-arrows and out-arrows at every
    covering vertex.

    Returns (ok, witness_vertex).
    """
    dom, cod = morphism.domain, morphism.codomain
    if not (dom.is_connected() and cod.is_connected()):
        return False, None
    if set(morphism.vertex_map) != set(range(cod.num_vertices())):
        return False, None
    if set(morphism.arrow_map) != set(range(cod.num_arrows())):
        return False, None
    for v in range(dom.num_vertices()):
        if not morphism.is_local_bijection(v):
            return False, v
    return True, None


def lift_walk(morphism, walk, start):
    """Unique lift of a walk along a covering, starting at the given
    covering vertex over the walk's start."""
    dom = morphism.domain
    if morphism.vertex_map[start] != walk.start:
        raise QuiverError("start vertex does not lie over the walk's start")
    cur = start
    steps = []
    for a, sign in walk.steps:
        candidates = morphism.lifts(cur, a, sign)
        if len(candidates) != 1:
            raise QuiverError("not a covering at vertex %r" % dom.vertices[cur])
        b = candidates[0]
        steps.append((b, sign))
        cur = dom.target(b) if sign == 1 else dom.source(b)
    return Walk(dom, start, steps)


def covering_automorphism(morphism, src_vertex, dst_vertex):
    """Covering automorphism sending src_vertex to dst_vertex, or None.

    Propagates along arrows; any inconsistency means no automorphism with
    that fiber assignment exists.
    """
    dom = morphism.domain
    if morphism.vertex_map[src_vertex] != morphism.vertex_map[dst_vertex]:
        return None
    vmap = {src_vertex: dst_vertex}
    amap = {}
    frontier = [src_vertex]
    while frontier:
        v = frontier.pop()
        w = vmap[v]
        for arrows, sign, far in ((dom.out_arrows[v], 1, dom.target),
                                  (dom.in_arrows[v], -1, dom.source)):
            for a in arrows:
                image = morphism.lifts(w, morphism.arrow_map[a], sign)
                if len(image) != 1:
                    return None
                b = image[0]
                if amap.setdefault(a, b) != b:
                    return None
                u, ub = far(a), far(b)
                if u not in vmap:
                    frontier.append(u)
                if vmap.setdefault(u, ub) != ub:
                    return None
    if len(vmap) != dom.num_vertices() or len(amap) != dom.num_arrows():
        return None  # only complete automorphisms count (connected: always complete)
    if sorted(vmap.values()) != list(range(dom.num_vertices())):
        return None
    vperm = [vmap[v] for v in range(dom.num_vertices())]
    aperm = [amap[a] for a in range(dom.num_arrows())]
    return vperm, aperm


def _deck_sweep(morphism, base_vertex):
    """The base vertex index, its fiber, and the covering automorphisms
    moving the fiber's first vertex to each fiber vertex in turn, up to the
    first vertex that none reaches (all of them iff Galois there).  An
    empty fiber has no automorphisms and is never Galois."""
    if isinstance(base_vertex, str):
        base_vertex = morphism.codomain.vertex_index[base_vertex]
    fiber = morphism.fiber(base_vertex)
    autos = []
    for v in fiber:
        auto = covering_automorphism(morphism, fiber[0], v)
        if auto is None:
            break
        autos.append(auto)
    return base_vertex, fiber, autos


def is_galois_on_fiber(morphism, base_vertex):
    """True iff covering automorphisms act transitively on the fiber over
    the base vertex (finite covering quivers only)."""
    _, fiber, autos = _deck_sweep(morphism, base_vertex)
    return bool(fiber) and len(autos) == len(fiber)


def deck_group(morphism, base_vertex):
    """Deck transformations of a finite Galois covering as a finite group.

    Returns (FiniteTable, autos) where autos[i] = (vperm, aperm) and the
    table encodes the right action: acting by table[g][h] equals acting by
    g and then by h.
    """
    base_vertex, fiber, autos = _deck_sweep(morphism, base_vertex)
    if not fiber or len(autos) != len(fiber):
        raise QuiverError("covering is not Galois over vertex %r"
                          % morphism.codomain.vertices[base_vertex])
    anchor = fiber[0]
    index_of = {auto[0][anchor]: i for i, auto in enumerate(autos)}
    table = [[index_of[vh[vg[anchor]]] for vh, _ in autos] for vg, _ in autos]
    return FiniteTable(table), autos
