"""The Smith normal form certificates, which no command or benchmark
checked: `snf_reconstructs`, `verify_unimodular` and the determinant they
ran on, `det_int`.  Copied from `covol/groups.py` and `covol/exactlin.py` as
they stood at 94320a1."""

from fractions import Fraction

from covol.exactlin import matmul_int


def det_int(a):
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    assert det.denominator == 1
    return int(det)


def verify_unimodular(matrix):
    return abs(det_int(matrix)) == 1


def snf_reconstructs(matrix, diagonal, left, right):
    """Check left * matrix * right equals diag(diagonal) exactly."""
    product = matmul_int(matmul_int(left, matrix), right)
    nrows = len(product)
    ncols = len(product[0]) if nrows else 0
    for i in range(nrows):
        for j in range(ncols):
            want = diagonal[i] if i == j and i < len(diagonal) else 0
            if product[i][j] != want:
                return False
    return True
