import random
from fractions import Fraction

from covol.exactlin import (
    SparseVector, rref, intersect_coordinates, finest_block_partition,
    smith_normal_form, matmul_int, det_int,
)
from covol.groups import snf_reconstructs, verify_unimodular


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


def test_member_is_linear():
    rng = random.Random(11)
    for _ in range(20):
        rows = [vec(*[rng.randint(-4, 4) for _ in range(5)]) for _ in range(3)]
        space = rref(rows)
        a = sum((r.scale(rng.randint(-3, 3)) for r in rows), SparseVector())
        b = sum((r.scale(rng.randint(-3, 3)) for r in rows), SparseVector())
        assert space.member(a) and space.member(b)
        assert space.member(a + b)
        assert space.member(a.scale(Fraction(7, 3)))


def test_coordinates_roundtrip():
    space = rref([vec(1, 1, 0), vec(0, 1, 1)])
    target = vec(2, 3, 1)
    coeffs = space.coordinates(target)
    assert coeffs is not None
    rebuilt = sum((r.scale(c) for r, c in zip(space.rows, coeffs)), SparseVector())
    assert rebuilt == target
    assert space.coordinates(vec(0, 0, 0, 1)) is None


def test_intersect_coordinates():
    # V = {(a,b,c): a+b+c arbitrary..}: span{(1,1,0),(0,1,1)}; V ∩ <e2,e3>
    space = rref([vec(1, 1, 0), vec(0, 1, 1)])
    inter = intersect_coordinates(space, {1, 2})
    assert inter.dimension == 1
    assert dense(inter.rows[0], 3) == [0, 1, 1]
    assert intersect_coordinates(space, {0}).dimension == 0


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


def brute_force_partition(space, coords):
    """Oracle: recursive splitting; a split (S, S^c) is valid iff
    dim(V ∩ span S) + dim(V ∩ span S^c) = dim V."""
    coords = sorted(coords)
    if not coords:
        return []
    n = len(coords)
    for mask in range(1, 2 ** (n - 1)):
        part = {coords[i] for i in range(n) if (mask >> i) & 1}
        rest = set(coords) - part
        a = intersect_coordinates(space, part)
        b = intersect_coordinates(space, rest)
        if a.dimension + b.dimension == space.dimension:
            left = brute_force_partition(a, part)
            right = brute_force_partition(b, rest)
            return left + right
    return [coords]


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
