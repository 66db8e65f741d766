"""`delta_vector` and `endpoints`, the path-vector helpers of the closure and
its escape check before both read pivots and int keys.  Copied at e98b432
from `covol/coalgebra.py` as it stood at 747fa38."""


def delta_vector(pindex, vec):
    """Coproduct of a path vector as a dict (left, right) -> coefficient.
    A splitting composes to its own path, so no two terms share a key."""
    table, split = pindex._coproducts, pindex._split
    return {(l, r): c for i, c in vec.items() for _, l, r in (table[i] or split(i))[0]}


def endpoints(pindex, vec):
    """(source, target) if the vector is endpoint-homogeneous, else None."""
    pairs = {(pindex.source(i), pindex.target(i)) for i in vec.support()}
    if len(pairs) == 1:
        return next(iter(pairs))
    return None
