"""Differential test of `QuiverRepresentation.as_comodule`, which forms each
path's matrix once, from its prefix's matrix and its last arrow, and checks
nilpotency on the full-length products extended by one arrow.

The version that multiplied every path from scratch (`path_matrix`) and
walked the paths of length truncation + 1 again (`_check_nilpotent`) is
copied below as the oracle, with one change: its products carry their
column count.  `matmul_int` reads the column count from its right factor's
first row, so a product through a zero-dimensional vertex came out with no
columns, and the copied loop over `dims[src]` then raised `IndexError`.
"""

import random
from fractions import Fraction

import pytest

from covol.coalgebra import CoalgebraError, PathIndex, TruncatedPathCoalgebra
from covol.comodule import Comodule, QuiverRepresentation, verify_comodule
from covol.quiver import Quiver


def _product(a, b, cols):
    """a times b, with b's column count given."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def oracle_path_matrix(rep, arrows):
    mat = None
    for a in arrows:
        mat = rep.maps[a] if mat is None else \
            _product(rep.maps[a], mat, rep.dims[rep.quiver.source(arrows[0])])
    return mat


def oracle_check_nilpotent(rep, truncation):
    current = [(v, v, None) for v in range(len(rep.dims))]
    for _ in range(truncation + 1):
        nxt = []
        for src, v, mat in current:
            for a in rep.quiver.out_arrows[v]:
                m2 = rep.maps[a] if mat is None else \
                    _product(rep.maps[a], mat, rep.dims[src])
                if any(x for row in m2 for x in row):
                    nxt.append((src, rep.quiver.target(a), m2))
        current = nxt
        if not current:
            return
    raise CoalgebraError(
        "representation is not nilpotent within truncation %d" % truncation)


def oracle_as_comodule(rep, coalgebra, pindex):
    coaction = {}
    for i in range(len(pindex)):
        src, tgt, arrows = pindex.paths[i]
        if not arrows:
            for k in range(rep.dims[src]):
                idx = rep.offsets[src] + k
                coaction.setdefault((idx, idx), {})[i] = Fraction(1)
            continue
        mat = oracle_path_matrix(rep, arrows)
        for r in range(rep.dims[tgt]):
            for c in range(rep.dims[src]):
                if mat[r][c]:
                    row = rep.offsets[tgt] + r
                    col = rep.offsets[src] + c
                    coaction.setdefault((row, col), {})[i] = mat[r][c]
    oracle_check_nilpotent(rep, pindex.truncation)
    return Comodule(coalgebra, rep.labels(), coaction)


def _quivers():
    return [
        Quiver(["x"], [("a", "x", "x")]),
        Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z"), ("c", "x", "z")]),
        Quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")]),
        Quiver(["x", "y"], [("a", "x", "x"), ("b", "x", "y"), ("c", "y", "y")]),
    ]


def _random_rep(rng, quiver):
    """Dimensions 0-2 with at least one vertex of dimension 0 and one of
    dimension 2 when there are two vertices; loops are strictly triangular
    half the time, so nilpotent and non-nilpotent cases both occur."""
    n = quiver.num_vertices()
    dims = [rng.randint(0, 2) for _ in range(n)]
    if n > 1:
        zero, full = rng.sample(range(n), 2)
        dims[zero], dims[full] = 0, 2
    triangular = rng.random() < 0.5
    maps = {}
    for a in range(quiver.num_arrows()):
        s, t = quiver.source(a), quiver.target(a)
        mat = [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(dims[s])]
               for _ in range(dims[t])]
        if triangular and s == t:
            mat = [[x if j > i else 0 for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        maps[a] = mat
    return QuiverRepresentation(quiver, dims, maps)


def _outcome(build):
    try:
        return build().coaction
    except CoalgebraError as err:
        return str(err)


def test_prefix_products_match_products_from_scratch():
    rng = random.Random(1409)
    built = raised = through_zero = 0
    for quiver in _quivers():
        for truncation in range(4):
            pindex = PathIndex(quiver, truncation)
            coalgebra = TruncatedPathCoalgebra(pindex)
            for _ in range(25):
                rep = _random_rep(rng, quiver)
                got = _outcome(lambda: rep.as_comodule(coalgebra, pindex))
                assert got == _outcome(lambda: oracle_as_comodule(rep, coalgebra, pindex))
                if isinstance(got, str):
                    raised += 1
                    continue
                built += 1
                assert verify_comodule(rep.as_comodule(coalgebra, pindex))[0]
                through_zero += any(
                    rep.dims[pindex.source(i)] and rep.dims[pindex.target(i)]
                    and any(rep.dims[quiver.target(a)] == 0
                            for a in pindex.arrows(i)[:-1])
                    for i in range(len(pindex)))
    assert built and raised and through_zero


def test_nilpotency_error_message():
    quiver = Quiver(["x"], [("a", "x", "x")])
    rep = QuiverRepresentation(quiver, [1], {"a": [[1]]})
    for truncation in range(4):
        pindex = PathIndex(quiver, truncation)
        with pytest.raises(CoalgebraError,
                           match="not nilpotent within truncation %d" % truncation):
            rep.as_comodule(TruncatedPathCoalgebra(pindex), pindex)
