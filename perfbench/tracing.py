"""Out-of-tree span tracer for the covol modules.

Wraps, from outside the package, every public module-level function and
every public method of every public class of each covol module.  A
function imported into other modules (`rref` lives in exactlin but is
bound in coalgebra, covering and comodule too) is replaced at every
binding, including dict values such as `cli.COMMANDS`.  Per-element
primitives that run millions of times per pass are left alone.

Spans (name, start, end, parent) are kept in memory; self time is a
span's duration minus the durations of its direct children.  Work counts
are taken at the same boundaries from arguments and results, after the
span has ended, so they add to wall time but not to self time.
"""

import collections
import importlib
import inspect
import time

MODULES = ["exactlin", "groups", "quiver", "voltage", "coalgebra", "covering",
           "comodule", "workspace", "cli"]

# Bindings that fixtures.py and the benchmark hold are patched too, but
# fixtures is not a layer: it only builds inputs.
BOUND_IN = MODULES + ["fixtures"]

# Per-element primitives: accessors, group arithmetic, sparse vectors and
# the tokenizer.  Wrapping them would cost more than the work they do.
SKIP_CLASSES = {
    "exactlin.SparseVector",
    "groups.FiniteTable", "groups.FgAbelian", "groups.FreeGroup",
    "workspace.Token", "workspace.Parser", "workspace.Declaration",
}
SKIP = {
    "groups.reduce_word", "groups.power",
    "quiver.Quiver.num_vertices", "quiver.Quiver.num_arrows",
    "quiver.Quiver.source", "quiver.Quiver.target", "quiver.Quiver.arrow_name",
    "quiver.Walk", "quiver.Walk.end", "quiver.concat",
    "voltage.ArrowWeighting.of", "voltage.VertexWeighting.of",
    "voltage.path_weight", "voltage.weight_walk",
    "voltage.SmashQuiver.vertex_of", "voltage.SmashQuiver.arrow_of",
    "voltage.SmashQuiver.fiber_coordinate",
    "coalgebra.PathIndex.source", "coalgebra.PathIndex.target",
    "coalgebra.PathIndex.arrows", "coalgebra.PathIndex.length",
    "coalgebra.PathIndex.vertex_path", "coalgebra.PathIndex.arrow_path",
    "coalgebra.PathIndex.path_of", "coalgebra.PathIndex.label",
    "coalgebra.PathIndex.weight", "coalgebra.PathIndex.from_names",
    "coalgebra.SubcoalgebraBasis.row_vector",
    "coalgebra.SubcoalgebraBasis.row_endpoints",
    "coalgebra.SubcoalgebraBasis.counit", "coalgebra.SubcoalgebraBasis.label",
    "coalgebra.SubcoalgebraBasis.symbols",
    "coalgebra.SubcoalgebraBasis.coproduct",
    "coalgebra.SmashCoalgebra.coproduct", "coalgebra.SmashCoalgebra.counit",
    "coalgebra.SmashCoalgebra.has_symbol", "coalgebra.SmashCoalgebra.label",
    "coalgebra.SmashCoalgebra.is_interior", "coalgebra.SmashCoalgebra.symbols",
    "coalgebra.TruncatedPathCoalgebra.coproduct",
    "coalgebra.TruncatedPathCoalgebra.counit",
    "coalgebra.TruncatedPathCoalgebra.label",
    "coalgebra.TruncatedPathCoalgebra.symbols",
    "coalgebra.delta_terms", "coalgebra.delta_vector", "coalgebra.counit_vector",
    "coalgebra.endpoints", "coalgebra.apply_map", "coalgebra.coproduct_of_vector",
    "coalgebra.rational_str",
    "exactlin.Subspace.reduce", "exactlin.Subspace.member",
    "exactlin.Subspace.coordinates",
    "comodule.Comodule.coefficient",
    "comodule.QuiverRepresentation.basis_vertex",
    "comodule.QuiverRepresentation.path_matrix",
}


def _counts_rref(stats, parent, args, kwargs, result):
    stats["exactlin.rref.rows_in"] += len(args[0])
    stats["exactlin.rref.rank"] += result.dimension
    if parent == "covering.span_of_liftings":
        stats["covering.span_of_liftings.generators"] += len(args[0])


def _counts_intersect(stats, parent, args, kwargs, result):
    stats["exactlin.intersect_coordinates.rows_in"] += args[0].dimension
    if parent == "covering.span_of_liftings":
        stats["covering.span_of_liftings.pairs"] += 1


def _counts_blocks(stats, parent, args, kwargs, result):
    stats["exactlin.finest_block_partition.blocks"] += len(result)


def _counts_span(stats, parent, args, kwargs, result):
    stats["covering.span_of_liftings.pairs_nonempty"] += len(result.lifted_spans)
    stats["covering.span_of_liftings.dimension"] += result.lifted_dimension


def _counts_closure(stats, parent, args, kwargs, result):
    stats["coalgebra.subcoalgebra_closure.dimension"] += result.dimension


def _counts_pathindex(stats, parent, args, kwargs, result):
    stats["coalgebra.PathIndex.paths"] += len(args[0])


def _counts_coassoc(stats, parent, args, kwargs, result):
    coalg = args[0]
    symbols = args[1] if len(args) > 1 else kwargs.get("symbols")
    stats["coalgebra.coassociativity_ok.checked"] += result[2]
    stats["coalgebra.coassociativity_ok.symbols"] += len(
        coalg.symbols() if symbols is None else symbols)


def _counts_verify(stats, parent, args, kwargs, result):
    linmap, source = args[0], args[1]
    symbols = args[3] if len(args) > 3 else kwargs.get("symbols")
    if symbols is None:
        symbols = [s for s in source.symbols() if s in linmap]
    stats["coalgebra.verify_coalgebra_map.checked"] += result[2]
    stats["coalgebra.verify_coalgebra_map.symbols"] += len(symbols)


def _counts_smash_quiver(stats, parent, args, kwargs, result):
    sq = args[0]
    stats["voltage.window.size"] += len(sq.window)
    stats["voltage.smash_quiver.vertices"] += sq.quiver.num_vertices()
    stats["voltage.smash_quiver.arrows"] += sq.quiver.num_arrows()


def _counts_parse(stats, parent, args, kwargs, result):
    stats["workspace.parse.bytes"] += len(args[0])


COUNTERS = {
    "exactlin.rref": _counts_rref,
    "exactlin.intersect_coordinates": _counts_intersect,
    "exactlin.finest_block_partition": _counts_blocks,
    "covering.span_of_liftings": _counts_span,
    "coalgebra.subcoalgebra_closure": _counts_closure,
    "coalgebra.PathIndex": _counts_pathindex,
    "coalgebra.coassociativity_ok": _counts_coassoc,
    "coalgebra.verify_coalgebra_map": _counts_verify,
    "voltage.SmashQuiver": _counts_smash_quiver,
    "workspace.parse": _counts_parse,
}


class Tracer:
    """Installs wrappers on enter, removes them on exit."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index]
        self.stack = []
        self.stats = collections.defaultdict(int)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        listify = name == "exactlin.rref"

        def traced(*args, **kwargs):
            if listify and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + args[1:]
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.stats, spans[parent][0] if parent >= 0 else None,
                        args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        mods = {m: importlib.import_module("covol." + m) for m in BOUND_IN}
        replaced = {}  # id(original function) -> wrapper
        for short in MODULES:
            mod = mods[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (short, attr)
                if inspect.isfunction(obj) and name not in SKIP:
                    replaced[id(obj)] = (obj, self._wrap(name, obj))
                elif inspect.isclass(obj) and name not in SKIP_CLASSES:
                    self._patch_class(name, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(mod, attr, replaced[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced and replaced[id(val)][0] is val:
                            self._undo.append((obj, key, val))
                            obj[key] = replaced[id(val)][1]
        return self

    def _patch_class(self, cname, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = cname if attr == "__init__" else "%s.%s" % (cname, attr)
            if name in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        return False

    # -- summary -----------------------------------------------------------

    def summary(self):
        """{name: {"calls", "total_s", "self_s"}} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out
