import importlib.resources as resources
import itertools
import math
import random
from fractions import Fraction

import pytest

from covol.coalgebra import (
    CoalgebraError, PathIndex, SparseVector, TruncatedPathCoalgebra,
    cover_projection_map, smash_coalgebra, smash_projection_map,
)
from covol.comodule import (
    Comodule, GradedComodule, Gradable, QuiverRepresentation, Ungradable,
    Unknown, from_smash_comodule, gradability_probe,
    push_down, to_smash_comodule, verify_comodule, witness_graded_comodule,
    _degree_operator_system, _graded_by_chains,
)
from covol.exactlin import solve_affine
from covol.fixtures import kronecker_fixture, loop_fixture, sl2_fixture
from covol.quiver import Quiver
from covol.voltage import ArrowWeighting, smash_quiver, window_ball
from covol.workspace import parse

from corpus import KRONECKER_STRINGS, Z, zint
from oracles.gradability import check_fredholm, check_grading


def unit_symbol(basis, path_index):
    """Basis symbol whose row is the unit vector of the given path."""
    coords = basis.coordinates(SparseVector.unit(path_index))
    assert coords is not None and len(coords) == 1
    (sym, coeff), = coords.items()
    assert coeff == 1
    return sym


def simple_comodule(fx, vertex):
    basis = fx.basis
    sym = unit_symbol(basis, fx.pindex.vertex_path(vertex))
    return Comodule(basis, ["m"], {(0, 0): {sym: Fraction(1)}})


def weyl_comodule(fx, i=0):
    """Two-dimensional comodule generated by the arrow a_i: basis m0 at
    x_i, m1 at x_{i+1}, with rho(m0) = m0 (x) x_i + m1 (x) a_i."""
    basis = fx.basis
    pindex = fx.pindex
    x_i = unit_symbol(basis, pindex.vertex_path("x%d" % i))
    x_next = unit_symbol(basis, pindex.vertex_path("x%d" % (i + 1)))
    a_i = unit_symbol(basis, pindex.arrow_path("a%d" % i))
    coaction = {
        (0, 0): {x_i: Fraction(1)},
        (1, 0): {a_i: Fraction(1)},
        (1, 1): {x_next: Fraction(1)},
    }
    return Comodule(basis, ["m0", "m1"], coaction)


def test_simple_comodule_verifies():
    fx = sl2_fixture(4)
    ok, failure = verify_comodule(simple_comodule(fx, "x0"))
    assert ok, failure


def test_weyl_comodule_verifies():
    fx = sl2_fixture(4)
    ok, failure = verify_comodule(weyl_comodule(fx))
    assert ok, failure


def test_dropped_counit_term_fails():
    fx = sl2_fixture(4)
    M = weyl_comodule(fx)
    del M.coaction[(1, 1)]
    ok, failure = verify_comodule(M)
    assert not ok and failure[0] == "counit"


def test_zero_coefficient_is_dropped_at_construction():
    fx = kronecker_fixture()
    x = unit_symbol(fx.basis, fx.pindex.vertex_path("x"))
    a = unit_symbol(fx.basis, fx.pindex.arrow_path("a"))
    with_zero = Comodule(fx.basis, ["m"], {(0, 0): {x: 1, a: 0}})
    plain = Comodule(fx.basis, ["m"], {(0, 0): {x: 1}})
    assert with_zero == plain
    assert with_zero.coaction == {(0, 0): {x: 1}}
    assert Comodule(fx.basis, ["m"], {(0, 0): {x: 1}, (0, 1): {a: 0}}) == plain
    assert verify_comodule(with_zero) == verify_comodule(plain) == (True, None)


def test_broken_coassociativity_fails():
    fx = sl2_fixture(4)
    pindex = fx.pindex
    basis = fx.basis
    d0 = unit_symbol(basis, pindex.from_names(["b0", "a0"]))
    x0 = unit_symbol(basis, pindex.vertex_path("x0"))
    M = Comodule(basis, ["m"], {(0, 0): {x0: Fraction(1), d0: Fraction(1)}})
    ok, failure = verify_comodule(M)
    assert not ok and failure[0] == "coassociativity"


def test_graded_comodule_invariant():
    fx = sl2_fixture(4)
    M = weyl_comodule(fx)
    w = fx.weighting

    def weight_of(sym):
        support = fx.basis.row_vector(sym).support()
        return fx.pindex.weight(w, next(iter(support)))

    graded = GradedComodule(M, [zint(0), zint(0)], weight_of, Z)
    ok, failure = graded.verify()
    assert ok, failure
    # wrong degree fails: a_i has weight 0, so degrees must agree
    bad = GradedComodule(M, [zint(0), zint(1)], weight_of, Z)
    ok, _ = bad.verify()
    assert not ok


def test_smash_comodule_roundtrip_weyl():
    fx = sl2_fixture(4)
    M = weyl_comodule(fx)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))

    graded = GradedComodule(M, [zint(0), zint(0)], smash.weight_of, Z)
    assert graded.verify()[0]
    N = to_smash_comodule(graded, smash)
    ok, failure = verify_comodule(N)
    assert ok, failure
    # coaction lands in (symbol, 0) pairs for degree-zero elements
    for coeff in N.coaction.values():
        assert all(g == zint(0) for _, g in map(smash.decode, coeff))
    back, change = from_smash_comodule(N)
    assert change is None
    assert back.comodule == graded.comodule
    assert back.degrees == graded.degrees


def test_smash_comodule_roundtrip_shifted_degrees():
    fx = sl2_fixture(4)
    M = weyl_comodule(fx)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    graded = GradedComodule(M, [zint(2), zint(2)], smash.weight_of, Z)
    assert graded.verify()[0]
    N = to_smash_comodule(graded, smash)
    for coeff in N.coaction.values():
        assert all(g == zint(-2) for _, g in map(smash.decode, coeff))
    back, _ = from_smash_comodule(N)
    assert back.degrees == graded.degrees
    assert back.comodule == graded.comodule


def test_smash_comodule_roundtrip_random():
    rng = random.Random(77)
    fx = sl2_fixture(4)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    for _ in range(20):
        i = rng.randrange(3)
        M = weyl_comodule(fx, i)
        d = zint(rng.randint(-2, 2))
        graded = GradedComodule(M, [d, d], smash.weight_of, Z)
        assert graded.verify()[0]
        N = to_smash_comodule(graded, smash)
        back, _ = from_smash_comodule(N)
        assert back.comodule == graded.comodule
        assert back.degrees == graded.degrees


def change_basis(coaction, P, Pinv):
    """Coaction on the basis m'_t = sum_j P[j][t] m_j: the coefficient of
    m'_s in rho(m'_t) is sum_ij Pinv[s][i] c_ij P[j][t]."""
    out = {}
    n = len(P)
    for (i, j), coeff in coaction.items():
        for s in range(n):
            for t in range(n):
                f = Pinv[s][i] * P[j][t]
                if f:
                    cell = out.setdefault((s, t), {})
                    for sym, c in coeff.items():
                        v = cell.get(sym, 0) + f * c
                        if v:
                            cell[sym] = v
                        else:
                            del cell[sym]
    return {k: cell for k, cell in out.items() if cell}


# mix the basis: m0' = m0 + m1, m1' = m1 (still a valid comodule)
MIX = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
MIX_INV = [[Fraction(1), Fraction(0)], [Fraction(-1), Fraction(1)]]


def test_from_smash_with_basis_change():
    fx = sl2_fixture(4)
    M = weyl_comodule(fx)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    graded = GradedComodule(M, [zint(0), zint(0)], smash.weight_of, Z)
    N = to_smash_comodule(graded, smash)
    N2 = Comodule(smash, ["p0", "p1"], change_basis(N.coaction, MIX, MIX_INV))
    ok, failure = verify_comodule(N2)
    assert ok, failure
    back, change = from_smash_comodule(N2)
    assert back.verify()[0]
    assert sorted(Z.format(d) for d in back.degrees) == ["0", "0"]


def test_from_smash_diagonalizes_a_mixed_group_coaction():
    # simples at x0 and x1 in degrees 0 and 1, mixed across degrees, so
    # the group coaction is not diagonal and the basis must change
    fx = sl2_fixture(4)
    x0 = unit_symbol(fx.basis, fx.pindex.vertex_path("x0"))
    x1 = unit_symbol(fx.basis, fx.pindex.vertex_path("x1"))
    M = Comodule(fx.basis, ["m0", "m1"],
                 {(0, 0): {x0: Fraction(1)}, (1, 1): {x1: Fraction(1)}})
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    N = to_smash_comodule(GradedComodule(M, [zint(0), zint(1)], smash.weight_of, Z),
                          smash)
    mixed = Comodule(smash, ["p0", "p1"], change_basis(N.coaction, MIX, MIX_INV))
    ok, failure = verify_comodule(mixed)
    assert ok, failure
    back, change = from_smash_comodule(mixed)
    assert change is not None
    assert sorted(Z.format(d) for d in back.degrees) == ["0", "1"]
    assert back.verify()[0]
    assert back.comodule.labels == ["n0", "n1"]
    assert back.comodule.coaction == M.coaction  # the unmixed simples
    # undoing the change on the recovered coaction gives the mixed
    # comodule's coaction with the group coordinate forgotten
    projected = {}
    for key, coeff in mixed.coaction.items():
        cell = {}
        for s, c in coeff.items():
            sym = smash.decode(s)[0]
            cell[sym] = cell.get(sym, 0) + c
        cell = {sym: c for sym, c in cell.items() if c}
        if cell:
            projected[key] = cell
    (a, b), (c, d) = change
    det = a * d - b * c
    change_inv = [[Fraction(d, det), Fraction(-b, det)],
                  [Fraction(-c, det), Fraction(a, det)]]
    assert change_basis(back.comodule.coaction, change_inv, change) == projected


def test_to_smash_rejects_degree_outside_window():
    fx = sl2_fixture(4)
    M = weyl_comodule(fx)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(2))
    graded = GradedComodule(M, [zint(9), zint(9)], smash.weight_of, Z)
    with pytest.raises(CoalgebraError):
        to_smash_comodule(graded, smash)


def random_graded_comodule(rng, fx, smash):
    """Random direct sum of simples and arrow-generated two-dimensional
    comodules with consistent degrees, total dimension <= 4."""
    basis = fx.basis
    pindex = fx.pindex
    labels = []
    degrees = []
    coaction = {}

    def unit_symbol(path_index):
        (sym, _), = basis.coordinates(SparseVector.unit(path_index)).items()
        return sym

    while len(labels) < rng.randint(1, 4):
        if rng.random() < 0.5 or len(labels) >= 3:
            v = rng.randrange(fx.quiver.num_vertices())
            sym = unit_symbol(pindex.vertex_path(v))
            i = len(labels)
            labels.append("s%d" % i)
            coaction[(i, i)] = {sym: Fraction(1)}
            degrees.append(zint(rng.randint(-1, 1)))
        else:
            k = rng.randrange(3)
            x_k = unit_symbol(pindex.vertex_path("x%d" % k))
            x_next = unit_symbol(pindex.vertex_path("x%d" % (k + 1)))
            a_k = unit_symbol(pindex.arrow_path("a%d" % k))
            i = len(labels)
            labels.extend(["w%d" % i, "w%d" % (i + 1)])
            coaction[(i, i)] = {x_k: Fraction(1)}
            coaction[(i + 1, i)] = {a_k: Fraction(1)}
            coaction[(i + 1, i + 1)] = {x_next: Fraction(1)}
            d = zint(rng.randint(-1, 1))
            degrees.extend([d, d])
    M = Comodule(basis, labels, coaction)
    return GradedComodule(M, degrees, smash.weight_of, Z)


def test_smash_roundtrip_random_direct_sums():
    rng = random.Random(4242)
    fx = sl2_fixture(4)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    for _ in range(20):
        graded = random_graded_comodule(rng, fx, smash)
        ok, failure = graded.verify()
        assert ok, failure
        ok, failure = verify_comodule(graded.comodule)
        assert ok, failure
        N = to_smash_comodule(graded, smash)
        back, _ = from_smash_comodule(N)
        assert back.comodule == graded.comodule
        assert back.degrees == graded.degrees
        pushed = push_down(N, smash_projection_map(smash), fx.basis)
        assert pushed == graded.comodule


def test_push_down_zigzag_string_is_kronecker_string():
    # a three-box string on the zig-zag cover pushes down to the Kronecker
    # string module with dimension vector (1, 2)
    fx = kronecker_fixture()
    sq = smash_quiver(fx.quiver, fx.weighting, window_ball(Z, 3))
    cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
    dims = [0] * sq.quiver.num_vertices()
    dims[sq.vertex_of("y", zint(0))] = 1
    dims[sq.vertex_of("x", zint(0))] = 1
    dims[sq.vertex_of("y", zint(1))] = 1
    maps = {
        sq.arrow_of("a", zint(0)): [[Fraction(1)]],
        sq.arrow_of("b", zint(0)): [[Fraction(1)]],
    }
    rep = QuiverRepresentation(sq.quiver, dims, maps)
    N = rep.as_comodule(TruncatedPathCoalgebra(cover_pindex), cover_pindex)
    ok, failure = verify_comodule(N)
    assert ok, failure
    proj = cover_projection_map(cover_pindex, fx.pindex, sq.morphism)
    pushed = push_down(N, proj, TruncatedPathCoalgebra(fx.pindex))
    ok, failure = verify_comodule(pushed)
    assert ok, failure

    # direct construction of the (1,2) string module over the base
    string = QuiverRepresentation(fx.quiver, [1, 2],
                                  {0: [[1], [0]], 1: [[0], [1]]})
    direct = string.as_comodule(TruncatedPathCoalgebra(fx.pindex), fx.pindex)
    # align bases: pushed basis order follows the cover vertex order
    perm = {}
    labels = rep.labels()
    for idx, label in enumerate(labels):
        vertex = label.rsplit(".", 1)[0]
        base_v, fiber = sq.vertex_pairs[sq.quiver.vertex_index[vertex]]
        if base_v == 0:
            perm[idx] = 0
        else:
            perm[idx] = 1 if fiber == zint(0) else 2
    relabeled = {(perm[i], perm[j]): coeff
                 for (i, j), coeff in pushed.coaction.items()}
    assert relabeled == direct.coaction


def test_from_smash_rank_one_group_like():
    fx = sl2_fixture(4)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    x_sym = unit_symbol(fx.basis, fx.pindex.vertex_path("x0"))
    N = Comodule(smash, ["m"], {(0, 0): {smash.symbol(x_sym, zint(2)): Fraction(1)}})
    ok, failure = verify_comodule(N)
    assert ok, failure
    back, change = from_smash_comodule(N)
    assert change is None
    assert back.degrees == [zint(-2)]  # coacting fiber g reads off degree g^-1
    assert back.verify()[0]


def test_from_smash_rejects_broken_group_coaction():
    fx = sl2_fixture(4)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    x_sym = unit_symbol(fx.basis, fx.pindex.vertex_path("x0"))
    # group-coaction weight 1/2 at one fiber: projections cannot sum to id
    N = Comodule(smash, ["m"],
                 {(0, 0): {smash.symbol(x_sym, zint(0)): Fraction(1, 2)}})
    with pytest.raises(CoalgebraError):
        from_smash_comodule(N)


def test_push_down_recovers_underlying():
    fx = sl2_fixture(4)
    M = weyl_comodule(fx)
    smash = smash_coalgebra(fx.basis, fx.weighting, fx.window(4))
    graded = GradedComodule(M, [zint(1), zint(1)], smash.weight_of, Z)
    N = to_smash_comodule(graded, smash)
    from covol.coalgebra import smash_projection_map
    proj = smash_projection_map(smash)
    pushed = push_down(N, proj, fx.basis)
    assert pushed == M


def loop_string_representation(fx, ell, radius):
    """String of length ell on the directed infinite-strip cover of the
    loop, labeled downward so the push-down matches the truncation."""
    sq = smash_quiver(fx.quiver, fx.weighting, window_ball(Z, radius))
    cover_pindex = PathIndex(sq.quiver, fx.pindex.truncation)
    dims = [0] * sq.quiver.num_vertices()
    for i in range(ell):
        dims[sq.vertex_of("x", zint(i))] = 1
    maps = {}
    for i in range(ell - 1):
        maps[sq.arrow_of("a", zint(i))] = [[Fraction(1)]]
    rep = QuiverRepresentation(sq.quiver, dims, maps)
    return sq, cover_pindex, rep


def test_push_down_loop_string_is_truncation_comodule():
    ell = 4
    fx = loop_fixture(ell)
    sq, cover_pindex, rep = loop_string_representation(fx, ell, ell + 1)
    cover_coalg = TruncatedPathCoalgebra(cover_pindex)
    N = rep.as_comodule(cover_coalg, cover_pindex)
    ok, failure = verify_comodule(N)
    assert ok, failure
    proj = cover_projection_map(cover_pindex, fx.pindex, sq.morphism)
    pushed = push_down(N, proj, TruncatedPathCoalgebra(fx.pindex))
    ok, failure = verify_comodule(pushed)
    assert ok, failure

    # the truncation comodule: basis a^k, coaction from path splitting,
    # after reversing the string basis order (m'_k = m_{ell-1-k})
    a_power = {k: fx.pindex.path_of(tuple([0] * k)) for k in range(1, ell)}
    a_power[0] = fx.pindex.vertex_path("x")
    expected = {}
    for j in range(ell):
        for k in range(j + 1):
            expected[(k, j)] = {a_power[j - k]: Fraction(1)}
    reorder = {i: ell - 1 - i for i in range(ell)}
    relabeled = {}
    for (i, j), coeff in pushed.coaction.items():
        relabeled[(reorder[i], reorder[j])] = coeff
    assert relabeled == expected


def test_loop_truncation_operators_nilpotent():
    ell = 4
    fx = loop_fixture(ell)
    sq, cover_pindex, rep = loop_string_representation(fx, ell, ell + 1)
    # single loop operator nilpotent within the truncation
    mat = [[Fraction(0)] * ell for _ in range(ell)]
    for i in range(ell - 1):
        mat[i + 1][i] = Fraction(1)
    power = [[Fraction(1 if i == j else 0) for j in range(ell)] for i in range(ell)]
    for _ in range(ell):
        power = [[sum(mat[i][k] * power[k][j] for k in range(ell))
                  for j in range(ell)] for i in range(ell)]
    assert all(x == 0 for row in power for x in row)


def test_non_nilpotent_rejected():
    fx = loop_fixture(3)
    dims = [1]
    maps = {0: [[Fraction(1)]]}  # invertible loop operator
    rep = QuiverRepresentation(fx.quiver, dims, maps)
    with pytest.raises(CoalgebraError):
        rep.as_comodule(TruncatedPathCoalgebra(fx.pindex), fx.pindex)


def kronecker_rep(a_mat, b_mat, dim_x, dim_y):
    q = kronecker_fixture().quiver
    return QuiverRepresentation(q, [dim_x, dim_y], {0: a_mat, 1: b_mat})


def test_probe_simple():
    fx = kronecker_fixture()
    rep = kronecker_rep([[1]], [[0]], 1, 1)
    result = gradability_probe(rep, fx.weighting, window_ball(Z, 3))
    assert isinstance(result, Gradable)
    # string (1,1): degrees x at h, y at h (arrow a forces equality)
    assert result.degrees[0] == result.degrees[1]


def test_probe_band_ungradable():
    fx = kronecker_fixture()
    rep = kronecker_rep([[1]], [[1]], 1, 1)
    window = window_ball(Z, 2)
    result = gradability_probe(rep, fx.weighting, window)
    assert isinstance(result, Ungradable)
    # full exhaustion: every dimension vector over the window is refuted
    assert result.refuted == 5 * 5
    assert check_fredholm(rep, fx.weighting, result.fredholm) is None


def test_probe_counts_one_vector_at_a_zero_dimensional_vertex():
    # the Kronecker band with a third, zero-dimensional vertex: the window
    # counts for x and y alone, and an empty window counts no vector
    q = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "x", "y"), ("c", "y", "z")])
    rep = QuiverRepresentation(q, [1, 1, 0], {0: [[1]], 1: [[1]]})
    w = ArrowWeighting(q, Z, {0: zint(0), 1: zint(1), 2: zint(0)})
    assert gradability_probe(rep, w, window_ball(Z, 2)).refuted == 5 * 5
    assert gradability_probe(rep, w, []).refuted == 0


def test_probe_certifies_the_kron_fixture_comodule_ungradable():
    ws = parse((resources.files("covol") / "fixtures" / "kron.cov").read_text())
    rep = ws.sole("comodule", None).representation
    weighting = ws.sole("weighting", None).weighting
    result = gradability_probe(rep, weighting, window_ball(Z, 3))
    assert isinstance(result, Ungradable) and result.refuted == 49
    assert check_fredholm(rep, weighting, result.fredholm) is None
    # a vector that vanishes on the weight terms certifies nothing
    assert check_fredholm(rep, weighting, [0] * len(result.fredholm)) is not None


def test_probe_strings_gradable():
    fx = kronecker_fixture()
    window = window_ball(Z, 4)
    for strings in KRONECKER_STRINGS:
        rep = kronecker_rep(*strings)
        result = gradability_probe(rep, fx.weighting, window)
        assert isinstance(result, Gradable), getattr(result, "reason", None)
        assert check_grading(rep, fx.weighting, result.graded) is None
        graded = witness_graded_comodule(
            rep, fx.weighting, result,
            TruncatedPathCoalgebra(fx.pindex), fx.pindex)
        ok, failure = graded.verify()
        assert ok, failure
        ok, failure = verify_comodule(graded.comodule)
        assert ok, failure


def test_probe_grades_a_representation_larger_than_the_window():
    # total dimension 4 at radius 2: the window no longer bounds the probe
    fx = kronecker_fixture()
    rep = kronecker_rep([[1, 0], [0, 1]], [[0, 0], [1, 0]], 2, 2)
    result = gradability_probe(rep, fx.weighting, window_ball(Z, 2))
    assert isinstance(result, Gradable)
    assert check_grading(rep, fx.weighting, result.graded) is None
    graded = witness_graded_comodule(
        rep, fx.weighting, result, TruncatedPathCoalgebra(fx.pindex), fx.pindex)
    assert graded.verify() == (True, None)
    assert verify_comodule(graded.comodule) == (True, None)


def test_probe_unknown_for_unsupported_group():
    from covol.groups import FreeGroup
    q = kronecker_fixture().quiver
    free = FreeGroup(1)
    w = ArrowWeighting(q, free, {0: free.identity(), 1: free.generator(0)})
    rep = kronecker_rep([[1]], [[1]], 1, 1)
    result = gradability_probe(rep, w, window_ball(free, 2))
    assert isinstance(result, Unknown)


A3 = Quiver(["x", "y", "z"], [("a", "x", "y"), ("b", "y", "z")])


def test_probe_grades_a_span_wider_than_the_window():
    # D_y = D_x - 5: degrees that span 5 > radius 2
    q = kronecker_fixture().quiver
    w = ArrowWeighting(q, Z, {0: zint(5), 1: zint(0)})
    result = gradability_probe(kronecker_rep([[1]], [[0]], 1, 1), w, window_ball(Z, 2))
    assert isinstance(result, Gradable)
    assert result.degrees == [5, 0]


def test_probe_grades_a_vertex_spread_over_two_degrees():
    q = kronecker_fixture().quiver
    w = ArrowWeighting(q, Z, {0: zint(2), 1: zint(-3)})
    rep = kronecker_rep([[1], [0]], [[-1], [2]], 1, 2)
    result = gradability_probe(rep, w, window_ball(Z, 3))
    assert isinstance(result, Gradable)
    assert result.degrees == [2, 0, 5]
    assert check_grading(rep, w, result.graded) is None


@pytest.mark.parametrize("quiver, weights, dims, maps, radius, degrees", [
    # gradings whose degrees span more than the radius
    (A3, (-2, -3), [1, 1, 1], {0: [[2]], 1: [[2]]}, 3, [0, 2, 5]),
    (kronecker_fixture().quiver, (3, 3), [1, 1], {0: [[1]], 1: [[1]]}, 2, [3, 0]),
    # the zero representation is trivially graded
    (A3, (-2, -3), [0, 0, 0], {}, 3, []),
])
def test_probe_verdict_does_not_depend_on_the_window(quiver, weights, dims, maps,
                                                      radius, degrees):
    w = ArrowWeighting(quiver, Z, {a: zint(x) for a, x in enumerate(weights)})
    rep = QuiverRepresentation(quiver, dims, maps)
    for window in (window_ball(Z, radius), window_ball(Z, 0), []):
        result = gradability_probe(rep, w, window)
        assert isinstance(result, Gradable)
        assert result.degrees == degrees
        assert check_grading(rep, w, result.graded) is None


def test_probe_finds_witnesses_without_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("a gradable input counted dimension vectors")
    monkeypatch.setattr("covol.comodule.comb", refuse)
    fx = kronecker_fixture()
    for strings in KRONECKER_STRINGS:
        result = gradability_probe(kronecker_rep(*strings), fx.weighting,
                                   window_ball(Z, 12))
        assert isinstance(result, Gradable), strings


def test_probe_gcd_count_does_not_depend_on_the_weight_magnitude(monkeypatch):
    # the chains link roots by the weights themselves, never by the
    # integers between them
    from covol import comodule
    calls = []

    def counting(p, q, gcd=comodule._poly_gcd):
        calls.append(1)
        return gcd(p, q)
    monkeypatch.setattr(comodule, "_poly_gcd", counting)
    rep = kronecker_rep([[1, 0], [0, 1]], [[0, 0], [1, 0]], 2, 2)
    counts = []
    for weight in (3, 10 ** 6):
        w = ArrowWeighting(rep.quiver, Z, {0: zint(weight), 1: zint(0)})
        del calls[:]
        result = gradability_probe(rep, w, window_ball(Z, 4))
        assert isinstance(result, Gradable)
        assert sorted(result.degrees) == [0, weight, weight, 2 * weight]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# (quiver, arrow cycles) for the seeded probe invariants
PROBE_QUIVERS = [
    (kronecker_fixture().quiver, []),
    (A3, []),
    (Quiver(["u", "v"], [("a", "u", "v"), ("b", "v", "u")]), [[0, 1]]),
    (Quiver(["p"], [("a", "p", "p")]), [[0]]),
]


def _seeded_representation(rng, entries):
    q, cycles = rng.choice(PROBE_QUIVERS)
    dims = [0] * len(q.vertices)
    for _ in range(rng.randint(1, 4)):
        dims[rng.randrange(len(dims))] += 1
    rep = QuiverRepresentation(q, dims, {
        a: [[rng.choice(entries) for _ in range(dims[q.source(a)])]
            for _ in range(dims[q.target(a)])] for a in range(q.num_arrows())})
    weights = [rng.randint(-3, 3) for _ in range(q.num_arrows())]
    return rep, cycles, weights, ArrowWeighting(
        q, Z, {a: zint(x) for a, x in enumerate(weights)})


def test_probe_verdicts_meet_their_conditions_on_seeded_representations():
    rng = random.Random(3030)
    entries = [0, 0, 1, -1, 2, Fraction(1, 2)]
    seen = set()
    for _ in range(240):
        rep, cycles, weights, w = _seeded_representation(rng, entries)
        q = rep.quiver
        radius = rep.total_dim + rng.randint(0, 2)
        result = gradability_probe(rep, w, window_ball(Z, radius))
        seen.add(result.verdict)
        empty = gradability_probe(rep, w, [])
        assert empty.verdict == result.verdict
        if isinstance(result, Gradable):
            assert check_grading(rep, w, result.graded) is None
            pindex = PathIndex(q, rep.total_dim)
            try:
                graded = witness_graded_comodule(
                    rep, w, result, TruncatedPathCoalgebra(pindex), pindex)
            except CoalgebraError:
                # a graded representation fails to be nilpotent only
                # around a cycle of total weight zero
                assert any(sum(weights[a] for a in c) == 0 for c in cycles)
                continue
            ok, failure = graded.verify()
            assert ok, failure
            ok, failure = verify_comodule(graded.comodule)
            assert ok, failure
        else:
            assert check_fredholm(rep, w, result.fredholm) is None
            # one multiset of window degrees per vertex, counted independently
            count = 1
            for d in rep.dims:
                count *= math.comb(2 * radius + 1 + d - 1, d)
            assert result.refuted == count
            # no vector over an empty window, where a vertex has a dimension
            assert empty.refuted == 0 < rep.total_dim
    assert seen == {"gradable", "ungradable"}


def _is_square(x):
    x = Fraction(x)
    return x >= 0 and all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def test_chains_grade_every_solution_of_the_degree_operator_system():
    # any solution grades, not only the particular one: perturb it along
    # End(M), which makes some spectra irrational
    rng = random.Random(3131)
    entries = [0, 0, 1, -1, 2, Fraction(1, 2)]
    solutions = irrational = 0
    for _ in range(200):
        rep, _, _, w = _seeded_representation(rng, entries)
        equations, offsets, nvars = _degree_operator_system(rep, w)
        solved = solve_affine(equations, nvars)
        if solved is None:
            continue
        D, directions = solved
        for direction in directions:
            lam = rng.choice([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
            D = [x + lam * e for x, e in zip(D, direction)]
        assert all(sum(c * D[x] for x, c in row.items()) == b for row, b in equations)
        graded = _graded_by_chains(rep, w, D, offsets).graded
        assert check_grading(rep, w, graded) is None
        solutions += 1
        for v, d in enumerate(rep.dims):
            if d == 2:  # x^2 - trace x + det with a non-square discriminant
                m = D[offsets[v]:offsets[v] + 4]
                irrational += not _is_square((m[0] - m[3]) ** 2 + 4 * m[1] * m[2])
    assert solutions > 100 and irrational > 5


@pytest.mark.parametrize("dims, T, weight, D, degrees", [
    # spectrum {sqrt 2, -sqrt 2} at x and {sqrt 2 + 3, -sqrt 2 + 3} at y
    ([2, 2], [[1, 0], [0, 1]], -3, [0, 2, 1, 0, 3, 2, 1, 3], [0, 0, 3, 3]),
    # a Jordan block at 4 beside the eigenvalue 2 at x, the eigenvalue 0 at y
    ([3, 1], [[1, 0, 0]], 2, [2, 0, 0, 0, 4, 1, 0, 0, 4, 0], [2, 4, 4, 0]),
])
def test_chains_grade_irrational_and_non_diagonalisable_solutions(dims, T, weight, D,
                                                                   degrees):
    quiver = Quiver(["x", "y"], [("a", "x", "y")])
    rep = QuiverRepresentation(quiver, dims, {0: T})
    w = ArrowWeighting(quiver, Z, {0: zint(weight)})
    equations, offsets, _ = _degree_operator_system(rep, w)
    assert all(sum(c * D[x] for x, c in row.items()) == b for row, b in equations)
    result = _graded_by_chains(rep, w, [Fraction(x) for x in D], offsets)
    assert result.degrees == degrees
    assert check_grading(rep, w, result.graded) is None


def _det(mat):
    """Leibniz expansion: an oracle that shares no code with elimination."""
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def _rank(mat):
    """Size of the largest nonzero minor."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                if _det([[mat[r][c] for c in cols] for r in rows]):
                    return k
    return 0


def test_invert_and_kernel_on_random_int_and_fraction_matrices():
    """M M^-1 = M^-1 M = I, None exactly when det M = 0, M k = 0 for every
    kernel column, and the kernel has n - rank independent columns."""
    from covol.comodule import _invert, _kernel
    from covol.exactlin import matmul_int
    rng = random.Random(17)
    singular = invertible = 0
    for trial in range(300):
        n = rng.randint(1, 4)
        if trial % 2:
            mat = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                   for _ in range(n)]
        else:
            mat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n > 1:  # a row that is a multiple of another
            i, j = rng.sample(range(n), 2)
            c = rng.choice([0, 1, -2, Fraction(1, 2)])
            mat[i] = [c * x for x in mat[j]]
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        inv = _invert(mat)
        if _det(mat):
            invertible += 1
            assert inv is not None, mat
            assert matmul_int(mat, inv) == ident and matmul_int(inv, mat) == ident
            assert all(type(x) in (int, Fraction) for row in inv for x in row)
        else:
            singular += 1
            assert inv is None, mat
        kernel = _kernel(mat)
        assert len(kernel) == n - _rank(mat), mat
        for col in kernel:
            assert all(sum(mat[i][j] * col[j] for j in range(n)) == 0
                       for i in range(n)), (mat, col)
        assert _rank(kernel) == len(kernel)
    assert singular > 50 and invertible > 50
