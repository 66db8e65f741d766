import itertools
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
)
from covol.fixtures import kronecker_fixture, loop_fixture, sl2_fixture
from covol.voltage import ArrowWeighting, smash_quiver, window_ball

from corpus import Z, zint


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
    degs = result.degrees
    assert degs[(1, 0)] == degs[(0, 0)]


def test_probe_band_ungradable():
    fx = kronecker_fixture()
    rep = kronecker_rep([[1]], [[1]], 1, 1)
    window = window_ball(Z, 2)
    result = gradability_probe(rep, fx.weighting, window)
    assert isinstance(result, Ungradable)
    # full exhaustion: every dimension vector over the window is refuted
    assert len(result.refuted) == 5 * 5
    for vector, reason in result.refuted:
        assert reason


def test_probe_strings_gradable():
    fx = kronecker_fixture()
    window = window_ball(Z, 4)
    cases = [
        kronecker_rep([[1]], [[0]], 1, 1),
        kronecker_rep([[0]], [[1]], 1, 1),
        kronecker_rep([[1, 0]], [[0, 1]], 2, 1),
        kronecker_rep([[1], [0]], [[0], [1]], 1, 2),
        kronecker_rep([[1, 0], [0, 1]], [[0, 0], [1, 0]], 2, 2),
    ]
    for rep in cases:
        result = gradability_probe(rep, fx.weighting, window)
        assert isinstance(result, Gradable), getattr(result, "reason", None)
        graded = witness_graded_comodule(
            rep, fx.weighting, result,
            TruncatedPathCoalgebra(fx.pindex), fx.pindex)
        ok, failure = graded.verify()
        assert ok, failure
        ok, failure = verify_comodule(graded.comodule)
        assert ok, failure


def test_probe_respects_window_precondition():
    fx = kronecker_fixture()
    rep = kronecker_rep([[1, 0], [0, 1]], [[0, 0], [1, 0]], 2, 2)
    with pytest.raises(CoalgebraError):
        gradability_probe(rep, fx.weighting, window_ball(Z, 2))


def test_probe_unknown_for_unsupported_group():
    from covol.groups import FreeGroup
    q = kronecker_fixture().quiver
    free = FreeGroup(1)
    w = ArrowWeighting(q, free, {0: free.identity(), 1: free.generator(0)})
    rep = kronecker_rep([[1]], [[1]], 1, 1)
    result = gradability_probe(rep, w, window_ball(free, 2))
    assert isinstance(result, Unknown)


def test_int_sqrt_is_exact_on_large_integers():
    from covol.comodule import _fraction_sqrt, _int_sqrt
    big = 2 ** 60 + 12345
    assert _int_sqrt(big * big) == big  # a float root misses this square
    assert _int_sqrt(10 ** 400) == 10 ** 200  # a float root overflows here
    assert _int_sqrt(big * big + 1) is None
    assert _fraction_sqrt(Fraction(big * big, 10 ** 400)) == Fraction(big, 10 ** 200)


def test_divisors_match_brute_force():
    from covol.comodule import _divisors
    for n in range(1, 2001):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    # 2^12 * 5^12: a trial loop up to n would not finish; pairing up to
    # isqrt(n) = 10^6 does, and the list stays ascending
    big = _divisors(10 ** 12)
    assert len(big) == 13 * 13 and big == sorted(set(big))
    assert big[:4] == [1, 2, 4, 5] and big[-2:] == [5 * 10 ** 11, 10 ** 12]
    assert all(10 ** 12 % d == 0 for d in big)


def test_char_poly_and_eigenvalues_are_exact_on_integer_matrices():
    from covol.comodule import _char_poly, _rational_eigenvalues
    assert _char_poly([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == [1, -6, 11, -6]
    cases = [
        ([[5]], [5]),
        ([[-2]], [-2]),
        ([[2, 1], [1, 2]], [1, 3]),
        ([[0, 1], [-2, 3]], [1, 2]),
        ([[1, 0], [0, 1]], [1, 1]),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 2, 3]),
        ([[2, 1, 0], [0, 3, 4], [0, 0, -1]], [-1, 2, 3]),
        ([[0, 1, 0], [0, 0, 1], [6, -11, 6]], [1, 2, 3]),  # companion matrix
        ([[1, 1, 0], [0, 1, 0], [0, 0, 2]], [1, 1, 2]),  # repeated root
    ]
    for mat, want in cases:
        poly = _char_poly(mat)
        assert all(type(c) in (int, Fraction) for c in poly), mat
        assert len(poly) == len(mat) + 1 and poly[0] == 1
        eigen = _rational_eigenvalues(mat)
        assert sorted(eigen) == want, mat
        assert all(type(x) in (int, Fraction) for x in eigen), mat
    # t^3 - t^2 - 2t + 2 = (t - 1)(t^2 - 2): the root sqrt(2) is irrational
    assert _rational_eigenvalues([[0, 2, 0], [1, 0, 0], [0, 0, 1]]) is None


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
