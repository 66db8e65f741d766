"""
Arrow weightings (voltages), vertex weightings, connectedness of a
weighting, smash coproduct quivers with finite windows for infinite
groups, deck actions, weightings induced by liftings, and twists.

The smash coproduct quiver of Q and G has vertices x#g and arrows a#g
with s(a#g) = s(a)#g and t(a#g) = t(a)#(w(a)g), for w the weighting.
Infinite groups are materialized over an explicit finite window; the
interior consists of the window vertices whose local arrow stars stay
inside the window, and covering/deck statements quantify over it.
"""

from functools import cached_property

from .groups import FiniteTable, FgAbelian, FreeGroup, GroupError, generates
from .quiver import Quiver, QuiverMorphism, Walk, QuiverError, deck_group, \
    lift_walk


class ArrowWeighting:
    """Total map from the arrows of a quiver to a group."""

    def __init__(self, quiver, group, assignment):
        self.quiver = quiver
        self.group = group
        self.assignment = dict(assignment)
        for a in range(quiver.num_arrows()):
            if a not in self.assignment:
                raise QuiverError("weighting misses arrow %r" % quiver.arrow_name(a))

    def of(self, arrow):
        return self.assignment[arrow]

    @classmethod
    def by_name(cls, quiver, group, named):
        return cls(quiver, group,
                   {quiver.arrow_index[n]: g for n, g in named.items()})

    def __eq__(self, other):
        return (isinstance(other, ArrowWeighting) and self.quiver is other.quiver
                and self.group == other.group and self.assignment == other.assignment)

    def __repr__(self):
        names = {self.quiver.arrow_name(a): self.group.format(g)
                 for a, g in sorted(self.assignment.items())}
        return "ArrowWeighting(%r)" % (names,)


class VertexWeighting:
    """Total map from the vertices of a quiver to a group."""

    def __init__(self, quiver, group, assignment):
        self.quiver = quiver
        self.group = group
        self.assignment = dict(assignment)
        for v in range(quiver.num_vertices()):
            if v not in self.assignment:
                raise QuiverError("vertex weighting misses %r" % quiver.vertices[v])

    def of(self, vertex):
        return self.assignment[vertex]

    @classmethod
    def by_name(cls, quiver, group, named):
        return cls(quiver, group,
                   {quiver.vertex_index[n]: g for n, g in named.items()})


def weight_walk(weighting, walk):
    """Weight of a walk: the sign-respecting product of its arrow weights,
    first-traversed step rightmost.  Multiplicative over concatenation."""
    group = weighting.group
    out = group.identity()
    for a, sign in walk.steps:
        g = weighting.of(a)
        if sign == -1:
            g = group.inverse(g)
        out = group.multiply(g, out)
    return out


def path_weight(weighting, arrows):
    """Weight of a directed path given as arrow indices in traversal order."""
    group = weighting.group
    out = group.identity()
    for a in arrows:
        out = group.multiply(weighting.of(a), out)
    return out


def is_connected_weighting(weighting, pres):
    """A weighting is connected iff the weights of the fundamental cycles
    generate the group."""
    return generates(weighting.group, [weight_walk(weighting, c) for c in pres.cycles])


def twist_weighting(weighting, vertex_weighting):
    """Conjugation-adjusted weighting: a |-> gamma(t(a))^-1 * w(a) * gamma(s(a)).

    On any path the twist acts the same way through the endpoints only.
    """
    group = weighting.group
    if vertex_weighting.group != group:
        raise GroupError("twist requires matching groups")
    out = {}
    for a in range(weighting.quiver.num_arrows()):
        s = weighting.quiver.source(a)
        t = weighting.quiver.target(a)
        out[a] = group.multiply(
            group.multiply(group.inverse(vertex_weighting.of(t)), weighting.of(a)),
            vertex_weighting.of(s))
    return ArrowWeighting(weighting.quiver, group, out)


def window_ball(group, radius):
    """Identity-containing window: the whole group when finite, the integer
    box [-radius, radius]^rank (times the full torsion) for f.g. abelian
    groups, and the word-length ball for free groups.  Deterministic order."""
    if isinstance(group, FiniteTable):
        return list(group.elements())
    if isinstance(group, FgAbelian):
        boxes = [()]
        for _ in range(group.free_rank):
            boxes = [b + (i,) for b in boxes for i in range(-radius, radius + 1)]
        tors = [()]
        for t in group.torsion:
            tors = [b + (i,) for b in tors for i in range(t)]
        out = [(b, tt) for b in boxes for tt in tors]
        return sorted(out)
    if isinstance(group, FreeGroup):
        out = [()]
        frontier = [()]
        for _ in range(radius):
            nxt = []
            for w in frontier:
                for letter in list(range(1, group.rank + 1)) + \
                        list(range(-1, -group.rank - 1, -1)):
                    u = group.multiply(w, (letter,))
                    if len(u) == len(w) + 1:
                        nxt.append(u)
            out.extend(nxt)
            frontier = nxt
        return sorted(set(out), key=group.sort_key)
    raise GroupError("no window rule for backend %r" % group)


class SmashQuiver:
    """Materialized smash coproduct quiver over a finite window.

    Vertices are pairs (base vertex, window element); an arrow (a, g)
    exists when both g and w(a)g lie in the window.  The covering morphism
    forgets the window coordinate.  The constructor builds only the arrow
    table (`vertex_pairs`, `arrow_pairs`, each arrow's cover (source,
    target) in `arrow_ends`) and the interior; the x#g and a#g labels,
    `quiver` and `morphism` are built on first read and kept.
    """

    def __init__(self, base, weighting, window):
        self.base = base
        self.weighting = weighting
        group = weighting.group
        self.group = group
        self.window = list(window)
        self.window_pos = {g: i for i, g in enumerate(self.window)}
        if not base.same_as(weighting.quiver):
            raise QuiverError("the weighting is on another quiver than the smash base")
        if group.identity() not in self.window_pos:
            raise QuiverError("window must contain the identity")

        nv = base.num_vertices()
        self.vertex_pairs = [(v, g) for g in self.window for v in range(nv)]
        self._vertex_of = {pair: i for i, pair in enumerate(self.vertex_pairs)}

        # vertex (v, g) has index window_pos[g] * nv + v
        self.arrow_pairs, self.arrow_ends = [], []
        out_degree, in_degree = [0] * len(self.vertex_pairs), [0] * len(self.vertex_pairs)
        weights = [weighting.of(a) for a in range(base.num_arrows())]
        for k, g in enumerate(self.window):
            for a, (_, s, t) in enumerate(base.arrows):
                j = self.window_pos.get(group.multiply(weights[a], g))
                if j is None:
                    continue
                src, tgt = k * nv + s, j * nv + t
                self.arrow_pairs.append((a, g))
                self.arrow_ends.append((src, tgt))
                out_degree[src] += 1
                in_degree[tgt] += 1
        self._arrow_of = {pair: i for i, pair in enumerate(self.arrow_pairs)}

        # (v, g) is interior when every arrow at v lifts there: (a, g) for a
        # leaving v, (a, w(a)^-1 g) for a entering v, both inside the window
        self.interior_vertices = {i for i, (v, _) in enumerate(self.vertex_pairs)
                                  if out_degree[i] == len(base.out_arrows[v])
                                  and in_degree[i] == len(base.in_arrows[v])}
        if not self.interior_vertices:
            raise QuiverError("window has empty interior")

    @cached_property
    def quiver(self):
        base, nv = self.base, self.base.num_vertices()
        names = [self.group.format(g) for g in self.window]
        return Quiver(["%s#%s" % (x, name) for name in names for x in base.vertices],
                      [("%s#%s" % (base.arrows[a][0], names[s // nv]), s, t)
                       for (a, _), (s, t) in zip(self.arrow_pairs, self.arrow_ends)])

    @cached_property
    def morphism(self):
        return QuiverMorphism(self.quiver, self.base, [v for v, _ in self.vertex_pairs],
                              [a for a, _ in self.arrow_pairs])

    def vertex_of(self, base_vertex, g):
        if isinstance(base_vertex, str):
            base_vertex = self.base.vertex_index[base_vertex]
        return self._vertex_of.get((base_vertex, g))

    def arrow_of(self, base_arrow, g):
        if isinstance(base_arrow, str):
            base_arrow = self.base.arrow_index[base_arrow]
        return self._arrow_of.get((base_arrow, g))

    def lift_arrows(self, arrows, g):
        """Cover arrows of the unique lift through fiber g of a base path
        given as arrow indices in traversal order, or None when the lift
        leaves the window.  Each next fiber is read from the arrow table."""
        out = []
        for a in arrows:
            ca = self._arrow_of.get((a, g))
            if ca is None:
                return None
            out.append(ca)
            g = self.vertex_pairs[self.arrow_ends[ca][1]][1]
        return tuple(out)

    def fiber_coordinate(self, vertex):
        """Window element of a materialized vertex."""
        return self.vertex_pairs[vertex][1]

    def fiber(self, base_vertex):
        if isinstance(base_vertex, str):
            base_vertex = self.base.vertex_index[base_vertex]
        return self.morphism.fiber(base_vertex)

    def canonical_lifting(self):
        """The lifting x |-> x # identity."""
        e = self.group.identity()
        return {v: self._vertex_of[(v, e)] for v in range(self.base.num_vertices())}

    def lifting_from_vertex_weighting(self, vertex_weighting):
        out = {}
        for v in range(self.base.num_vertices()):
            key = (v, vertex_weighting.of(v))
            if key not in self._vertex_of:
                raise QuiverError("lifting leaves the window at %r"
                                  % self.base.vertices[v])
            out[v] = self._vertex_of[key]
        return out

    def deck_action(self, h):
        """Partial right action (u#g) -> (u#gh); returns (vertex map, arrow
        map, missing) where missing lists elements whose image leaves the
        window."""
        group = self.group
        vmap, amap, missing = {}, {}, []
        for i, (v, g) in enumerate(self.vertex_pairs):
            gh = group.multiply(g, h)
            j = self._vertex_of.get((v, gh))
            if j is None:
                missing.append(("vertex", i))
            else:
                vmap[i] = j
        for i, (a, g) in enumerate(self.arrow_pairs):
            gh = group.multiply(g, h)
            j = self._arrow_of.get((a, gh))
            if j is None:
                missing.append(("arrow", i))
            else:
                amap[i] = j
        return vmap, amap, missing

    def to_dot(self, name="smash"):
        groups = [self.fiber(v) for v in range(self.base.num_vertices())]
        return self.quiver.to_dot(name=name, rank_groups=groups)

    def __repr__(self):
        return "SmashQuiver(%r over window of %d)" % (self.base, len(self.window))


def smash_quiver(base, weighting, window):
    return SmashQuiver(base, weighting, window)


def local_covering_ok(smash):
    """Covering property at every interior vertex: the morphism restricts
    to bijections on in-arrows and out-arrows there.  For a full window
    over a finite group this is the covering property everywhere."""
    return all(smash.morphism.is_local_bijection(v) for v in smash.interior_vertices)


class GaloisCoverData:
    """Uniform fiber bookkeeping for a Galois covering.

    Wraps either a smash-constructed cover (deck coordinates read off the
    window component) or a finite covering morphism (deck group enumerated
    from covering automorphisms).  `deck_of(v)` is the unique group element
    moving the canonical lift of F(v) to v.
    """

    def __init__(self, morphism, group, deck_of, act_vertex):
        self.morphism = morphism
        self.group = group
        self.deck_of = deck_of
        self.act_vertex = act_vertex

    @classmethod
    def from_smash(cls, smash):
        group = smash.group

        def act(v, g):
            base_v, h = smash.vertex_pairs[v]
            return smash.vertex_of(base_v, group.multiply(h, g))

        return cls(smash.morphism, group, smash.fiber_coordinate, act)

    @classmethod
    def from_finite(cls, morphism, base_vertex=0):
        group, autos = deck_group(morphism, base_vertex)
        canonical = {v: min(morphism.fiber(v))
                     for v in range(morphism.codomain.num_vertices())}

        def deck_of(v):
            anchor = canonical[morphism.vertex_map[v]]
            for g, (vperm, _) in enumerate(autos):
                if vperm[anchor] == v:
                    return g
            raise QuiverError("deck element not identifiable (non-Galois input)")

        def act(v, g):
            return autos[g][0][v]

        return cls(morphism, group, deck_of, act)


def weighting_from_lifting(cover, lifting):
    """Arrow weighting induced by a lifting of a Galois covering: lift each
    arrow at the lifted source; the weight is the deck element carrying the
    lifted target to the lift's end."""
    base = cover.morphism.codomain
    group = cover.group
    for v in range(base.num_vertices()):
        if cover.morphism.vertex_map[lifting[v]] != v:
            raise QuiverError("not a lifting: wrong fiber at %r" % base.vertices[v])
    out = {}
    for a in range(base.num_arrows()):
        walk = Walk(base, base.source(a), ((a, 1),))
        lifted = lift_walk(cover.morphism, walk, lifting[base.source(a)])
        end = lifted.end
        target_lift = lifting[base.target(a)]
        # end = target_lift acted by g
        g = group.multiply(group.inverse(cover.deck_of(target_lift)),
                           cover.deck_of(end))
        if cover.act_vertex(target_lift, g) != end:
            raise QuiverError("deck element not identifiable (non-Galois input)")
        out[a] = g
    return ArrowWeighting(base, group, out)
