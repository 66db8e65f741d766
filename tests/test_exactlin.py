import random
from fractions import Fraction

from covol.exactlin import (
    SparseVector, _Echelon, rref, finest_block_partition,
    smith_normal_form, matmul_int, solve_affine,
)

from corpus import brute_force_partition
from oracles.intersection import intersect_coordinates
from oracles.snf import det_int, snf_reconstructs, verify_unimodular


def vec(*values):
    return SparseVector({i: v for i, v in enumerate(values) if v})


def dense(v, n):
    return [v[i] for i in range(n)]


def test_rref_hand_example():
    # hand Gaussian elimination of {(1,1,0),(0,1,1)}
    space = rref([vec(1, 1, 0), vec(0, 1, 1)])
    assert space.dimension == 2
    assert dense(space.rows[0], 3) == [1, 0, -1]
    assert dense(space.rows[1], 3) == [0, 1, 1]
    assert space.pivots == [0, 1]


def test_rref_empty_and_scaling():
    assert rref([]).dimension == 0
    space = rref([vec(2, 4)])
    assert dense(space.rows[0], 2) == [1, 2]


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        rows = [vec(*[rng.randint(-3, 3) for _ in range(6)]) for _ in range(4)]
        space = rref(rows)
        again = rref(space.rows)
        assert again.rows == space.rows and again.pivots == space.pivots


def dense_gauss_jordan(matrix, ncols):
    """Oracle: textbook Gauss-Jordan on dense Fraction rows.  Returns the
    nonzero reduced rows and their pivot columns."""
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def test_rref_matches_dense_gauss_jordan():
    rng = random.Random(1070)
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    for trial in range(300):
        ncols = rng.randint(1, 8)
        rows = [[rng.choice(values) for _ in range(ncols)]
                for _ in range(rng.randint(0, 7))]
        rows += [[0] * ncols for _ in range(rng.randint(0, 2))]  # zero rows
        if rows:  # duplicates and rational multiples of earlier rows
            rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 2))]
            rows += [[Fraction(-2, 3) * x for x in rng.choice(rows)]]
        want_rows, want_pivots = dense_gauss_jordan(rows, ncols)
        for _ in range(3):  # the result does not depend on row order
            rng.shuffle(rows)
            space = rref([vec(*r) for r in rows])
            assert space.pivots == want_pivots, trial
            assert [dense(r, ncols) for r in space.rows] == want_rows, trial
            assert all(v for r in space.rows for _, v in r.items())


def test_member():
    space = rref([vec(1, 0, -1), vec(0, 1, 1)])
    assert space.member(vec(1, 1, 0))  # (1,1,0) = (1,0,-1) + (0,1,1)
    assert space.member(SparseVector())
    line = rref([vec(1, 2)])
    assert not line.member(vec(1, 3))  # 1*t=1, 2*t=3 inconsistent


def _scaled(vector, c):
    return SparseVector({k: c * v for k, v in vector.items()})


def test_member_is_linear():
    rng = random.Random(11)
    for _ in range(20):
        rows = [vec(*[rng.randint(-4, 4) for _ in range(5)]) for _ in range(3)]
        space = rref(rows)
        a = sum((_scaled(r, rng.randint(-3, 3)) for r in rows), SparseVector())
        b = sum((_scaled(r, rng.randint(-3, 3)) for r in rows), SparseVector())
        assert space.member(a) and space.member(b)
        assert space.member(a + b)
        assert space.member(_scaled(a, Fraction(7, 3)))


# intersect_coordinates left the package; these tests pin the oracle copy
# that the other tests compute intersections with


def test_intersect_coordinates():
    # V = {(a,b,c): a+b+c arbitrary..}: span{(1,1,0),(0,1,1)}; V ∩ <e2,e3>
    space = rref([vec(1, 1, 0), vec(0, 1, 1)])
    inter = intersect_coordinates(space, {1, 2})
    assert inter.dimension == 1
    assert dense(inter.rows[0], 3) == [0, 1, 1]
    assert intersect_coordinates(space, {0}).dimension == 0


def _rescan_intersection(space, coords):
    """Reference intersection that picks each pivot by rescanning every
    remaining row, complement coordinates first, then takes the RREF of
    the rows pivoted inside coords."""
    coords = set(coords)

    def key(c):
        return (1, c) if c in coords else (0, c)

    work = list(space.rows)
    done = []
    while work:
        col = min((min(r.support(), key=key) for r in work), key=key)
        idx = next(i for i, r in enumerate(work) if min(r.support(), key=key) == col)
        row = work.pop(idx)
        row = _scaled(row, Fraction(1) / row[col])
        nxt = []
        for r in work:
            c = r[col]
            r2 = r + _scaled(row, -c) if c else r
            if not r2.is_zero():
                nxt.append(r2)
        work = nxt
        done.append((col, row))
    return rref([row for col, row in done if col in coords])


def test_intersect_coordinates_matches_rescanning_reference():
    rng = random.Random(2024)
    values = [0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]
    subsets = 0
    for trial in range(300):
        ncols = rng.randint(1, 9)
        rows = [vec(*[rng.choice(values) for _ in range(ncols)])
                for _ in range(rng.randint(0, 6))]
        space = rref(rows)
        choices = [set(), set(range(ncols)),
                   {c for c in range(ncols) if rng.random() < 0.5},
                   set(rng.sample(range(ncols), rng.randint(1, ncols)))]
        for coords in choices:
            got = intersect_coordinates(space, coords)
            want = _rescan_intersection(space, coords)
            assert got.rows == want.rows and got.pivots == want.pivots, (trial, coords)
            assert all(row.support() <= coords for row in got.rows)
            subsets += 0 < len(coords) < ncols and 0 < got.dimension < space.dimension
    assert subsets > 50  # proper, nontrivial intersections were exercised


def test_echelon_add_returns_none_exactly_on_span_members():
    rng = random.Random(77)
    values = [0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]
    members = added = 0
    for trial in range(200):
        ncols = rng.randint(1, 7)
        echelon, seen = _Echelon(), []
        for _ in range(rng.randint(1, 10)):
            if seen and rng.random() < 0.4:  # a combination of earlier vectors
                coeffs = [rng.choice(values) for _ in seen]
                row = [sum(c * r[i] for c, r in zip(coeffs, seen)) for i in range(ncols)]
            else:
                row = [rng.choice(values) for _ in range(ncols)]
            before = len(dense_gauss_jordan(seen, ncols)[1])
            in_span = len(dense_gauss_jordan(seen + [row], ncols)[1]) == before
            got = echelon.add(vec(*row))
            assert (got is None) == in_span, trial
            if got is not None:  # the new row is normalised at its leading column
                assert got[got.leading()] == 1
                added += 1
            members += in_span and any(row)  # nonzero members
            seen.append(row)
        space = echelon.subspace()
        want_rows, want_pivots = dense_gauss_jordan(seen, ncols)
        assert space.pivots == want_pivots, trial
        assert [dense(r, ncols) for r in space.rows] == want_rows, trial
    assert members > 200 and added > 200


def _exact_entries(space):
    return all(type(v) in (int, Fraction) for row in space.rows for _, v in row.items())


def test_int_and_fraction_scalars_give_the_same_exact_results():
    """No float reaches a scalar: rref, the oracle intersect_coordinates
    and solve_affine return int or Fraction values only, agree with the dense
    Gauss-Jordan oracle, and do not depend on whether an integral input is
    typed int or Fraction.  Leading entries 1, -1, 2 and 1/3 take both the
    unit-pivot path and the normalising path of the echelon."""
    rng = random.Random(4711)
    values = [0, 0, 0, 1, -1, 2, 5, Fraction(1, 3), Fraction(-7, 2)]
    leads = [1, -1, 2, Fraction(1, 3)]
    inconsistent = solved = 0
    for trial in range(300):
        ncols = rng.randint(1, 7)
        rows = []
        for _ in range(rng.randint(1, 6)):
            lead = rng.randrange(ncols)
            rows.append([0] * lead + [rng.choice(leads)] +
                        [rng.choice(values) for _ in range(lead + 1, ncols)])
        ints = [vec(*r) for r in rows]
        fracs = [SparseVector._wrap({i: Fraction(v) for i, v in enumerate(r) if v})
                 for r in rows]
        space, again = rref(ints), rref(fracs)
        want_rows, want_pivots = dense_gauss_jordan(rows, ncols)
        assert space.pivots == again.pivots == want_pivots, trial
        assert [dense(r, ncols) for r in space.rows] == want_rows, trial
        assert space.rows == again.rows, trial
        assert _exact_entries(space) and _exact_entries(again), trial
        coords = {c for c in range(ncols) if rng.random() < 0.5}
        for source in (space, again):
            inter = intersect_coordinates(source, coords)
            assert inter.rows == _rescan_intersection(space, coords).rows, trial
            assert _exact_entries(inter), trial
        # the last column is the constant of the affine system
        nvars = ncols - 1
        equations = [(SparseVector({i: v for i, v in enumerate(r[:-1]) if v}), r[-1])
                     for r in rows]
        result = solve_affine(equations, nvars)
        if nvars in want_pivots:
            assert result is None, trial
            inconsistent += 1
            continue
        particular, nullspace = result
        values_out = particular + [x for v in nullspace for x in v]
        assert all(type(x) in (int, Fraction) for x in values_out), trial
        for coeffs, const in equations:
            assert sum(c * particular[i] for i, c in coeffs.items()) == const, trial
            for v in nullspace:
                assert sum(c * v[i] for i, c in coeffs.items()) == 0, trial
        assert len(nullspace) == nvars - len(want_pivots), trial
        solved += 1
    assert inconsistent > 20 and solved > 20


def test_smith_hand_examples():
    diag, left, right = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]
    assert snf_reconstructs([[2, 0], [0, 3]], diag, left, right)

    diag, left, right = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]

    diag, left, right = smith_normal_form([[1, -1]])
    assert diag == [1]
    assert snf_reconstructs([[1, -1]], diag, left, right)


def test_smith_reconstruction_random():
    rng = random.Random(100)
    for _ in range(100):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        diag, left, right = smith_normal_form(m)
        assert snf_reconstructs(m, diag, left, right)
        assert verify_unimodular(left) and verify_unimodular(right)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        assert all(d >= 0 for d in diag)


def supported(space):
    out = set()
    for r in space.rows:
        out |= r.support()
    return out


def test_block_partition_examples():
    space = rref([vec(1, 1, 0), vec(0, 0, 1)])
    assert finest_block_partition(space) == [[0, 1], [2]]
    space = rref([vec(1, 1, 0), vec(0, 1, 1)])
    assert finest_block_partition(space) == [[0, 1, 2]]
    assert finest_block_partition(rref([])) == []


def test_block_partition_matches_brute_force():
    rng = random.Random(7)
    for trial in range(100):
        dim = rng.randint(1, 4)
        ambient = rng.randint(2, 7)
        rows = [vec(*[rng.choice([0, 0, 1, -1, 2]) for _ in range(ambient)])
                for _ in range(dim)]
        space = rref(rows)
        got = finest_block_partition(space)
        want = sorted((sorted(b) for b in
                       brute_force_partition(space, supported(space))),
                      key=lambda b: b[0])
        assert got == want, (trial, got, want)


def test_matmul_det():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert matmul_int(a, b) == [[2, 1], [4, 3]]
    assert det_int(a) == -2
    assert det_int([[2, 0], [0, 2]]) == 4
