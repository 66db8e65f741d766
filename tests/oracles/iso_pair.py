"""Helpers of the covering isomorphism pair that left the package, kept
verbatim as oracles.

- `composite_agrees` checked a composite by lookup, without building it;
  `cli._inverse_over_base` now reads the `compose_maps` composites.
  `compose_by_apply_map` is `compose_maps` as it read when maps were
  linear, every image through `apply_map`, kept as `linear_apply_map`:
  its map images were {symbol: coefficient} dicts, where every map is now
  a basis map {symbol: symbol}.  These three read the unit lift
  {s: {t: 1}} of a basis map.
- `_lift_vector` lifted a base vector path by path through
  `SmashQuiver.lift_arrows` and `PathIndex.path_of`; `span_of_liftings`
  now reads each fiber's `lift_paths` table, the rule that builds phi.
  `oracle_span_of_liftings` is `span_of_liftings` as it read on
  `_lift_vector`.
- `_small_window_element` restated `window_ball(group, 1)` backend by
  backend; `csm-iso` now reads that window.

Copied at b1d38be from `covol/coalgebra.py`, `covol/covering.py` and
`covol/cli.py` as they stood at 6d78d7c; `linear_apply_map` is
`coalgebra.apply_map` as it stood at e247ff2.
"""

from covol.coalgebra import _ONE, PathIndex, _nonzero
from covol.covering import CoalgebraCovering
from covol.exactlin import SparseVector, Subspace
from covol.groups import FgAbelian, FiniteTable
from covol.voltage import smash_quiver


def linear_apply_map(get, vec):
    """Image of a symbol-coefficient dict under the map with lookup `get`,
    or None when a symbol has no image; a sum without a zero is not copied."""
    out = {}
    for sym, c in vec.items():
        image = get(sym)
        if image is None:
            return None
        for t, d in image.items():
            out[t] = out.get(t, 0) + c * d
    return _nonzero(out) if 0 in out.values() else out


def composite_agrees(get, first, want):
    """Whether compose_maps(second, first) equals want(sym) at every symbol
    of its domain, where `get` is second's lookup, decided by one lookup
    per image term without building the composite.  A symbol whose image
    leaves second's domain is skipped, as compose_maps skips it, and images
    are compared through `_nonzero`, as compose_maps builds them.

    Returns (ok, number of symbols compared), so that an empty composite,
    which agrees vacuously, can be told apart.
    """
    compared = 0
    for sym, image in first.items():
        if len(image) == 1 and _ONE in image.values():  # a basis map: as it stands
            acc = get(next(iter(image)))
            if acc is not None and 0 in acc.values():
                acc = _nonzero(acc)
        else:
            acc = linear_apply_map(get, image)
        if acc is None:
            continue
        if acc != want(sym):
            return False, compared
        compared += 1
    return True, compared


def compose_by_apply_map(second, first):
    get = second.get
    out = {}
    for sym, image in first.items():
        acc = linear_apply_map(get, image)
        if acc is not None:
            out[sym] = acc
    return out


def _lift_vector(smash_q, cover_pindex, base_pindex, vec, start_fiber):
    """Path-by-path lift of a base vector from one fiber, each path to its
    unique lift through that fiber; None if any support path falls off the
    window."""
    out = {}
    for i, c in vec.items():
        src, _, arrows = base_pindex.paths[i]
        if arrows:
            lifted = smash_q.lift_arrows(arrows, start_fiber)
            idx = None if lifted is None else cover_pindex.path_of(lifted)
        else:
            v = smash_q.vertex_of(src, start_fiber)
            idx = None if v is None else cover_pindex.vertex_path(v)
        if idx is None:
            return None
        out[idx] = c
    return SparseVector._wrap(out)


def oracle_span_of_liftings(base, weighting, window):
    fibers = list(window)
    smash_q = smash_quiver(base.pindex.quiver, weighting, fibers)
    cover_pindex = PathIndex(smash_q.quiver, base.pindex.truncation)
    pieces = {}  # cover (source, target) -> the lifts that start and end there
    for sym in base.symbols():
        vec, src = base.row_vector(sym), base.row_endpoints(sym)[0]
        for g in fibers:
            lifted = _lift_vector(smash_q, cover_pindex, base.pindex, vec, g)
            ends = () if lifted is None else {cover_pindex.target(i) for i in lifted.entries}
            if len(ends) == 1:
                pieces.setdefault((smash_q.vertex_of(src, g), ends.pop()), []).append(lifted)
    spans = {}
    for pair, rows in sorted(pieces.items()):
        rows.sort(key=SparseVector.leading)
        spans[pair] = Subspace(rows, [row.leading() for row in rows])
    return CoalgebraCovering(smash_q, base, cover_pindex, spans, fibers)


def _small_window_element(group, g):
    if isinstance(group, FgAbelian):
        return all(abs(x) <= 1 for x in g[0])
    if isinstance(group, FiniteTable):
        return True
    return len(g) <= 1
