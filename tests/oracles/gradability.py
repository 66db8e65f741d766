"""Checkers for the two certificates of `covol.comodule.gradability_probe`,
sharing no code with the construction that finds them.

`check_grading` takes over the arrow check that the probe ran on its own
witnesses, `_arrows_respect` in `covol/comodule.py` as it stood at 2d682fc,
and adds the basis check that the probe's eigenspace scan made by counting.
`check_fredholm` reads the Fredholm vector of an unsolvable degree-operator
system as one matrix Y_a per arrow and checks it without forming the system.
"""

from covol.exactlin import SparseVector, matmul_int, rref


def _value(weighting, a):
    return weighting.of(a)[0][0]


def check_grading(rep, weighting, graded):
    """None when `graded` ({vertex: [(degree, column), ...]}) grades the
    representation, else what fails: each vertex's columns are a basis of
    its space, and every arrow maps each degree-g column into the span of
    its target's columns of degree g - w(a)."""
    for v, d in enumerate(rep.dims):
        columns = [SparseVector(dict(enumerate(col))) for _, col in graded.get(v, [])]
        if len(columns) != d or len(rref(columns).rows) != d:
            return "the columns at vertex %d are no basis" % v
    for a in range(rep.quiver.num_arrows()):
        s, t = rep.quiver.source(a), rep.quiver.target(a)
        T = rep.maps[a]
        w = _value(weighting, a)
        for gs, col in graded.get(s, []):
            image = [sum(T[i][j] * col[j] for j in range(rep.dims[s]))
                     for i in range(rep.dims[t])]
            if not any(image):
                continue
            span = rref([SparseVector(dict(enumerate(c)))
                         for gt, c in graded.get(t, []) if gt == gs - w])
            if not span.member(SparseVector(dict(enumerate(image)))):
                return "arrow %d leaves degree %d" % (a, gs - w)
    return None


def check_fredholm(rep, weighting, y):
    """None when y, one coordinate per (arrow, target row, source column),
    certifies that no degree operator D solves D_t T_a - T_a D_s = -w(a) T_a:
    as matrices Y_a, the functional sum_a <Y_a, D_t T_a - T_a D_s> vanishes
    for every D, that is sum over arrows into v of Y_a T_a^T minus sum over
    arrows out of v of T_a^T Y_a is 0 at every vertex v, while
    sum_a <Y_a, -w(a) T_a> = 1.  Else what fails."""
    q = rep.quiver
    Y, used = {}, 0
    for a in range(q.num_arrows()):
        rows, cols = rep.dims[q.target(a)], rep.dims[q.source(a)]
        Y[a] = [y[used + i * cols:used + (i + 1) * cols] for i in range(rows)]
        used += rows * cols
    if used != len(y):
        return "y has %d coordinates, the system %d equations" % (len(y), used)
    for v, d in enumerate(rep.dims):
        total = [[0] * d for _ in range(d)]
        for a in range(q.num_arrows()):
            if not (rep.dims[q.source(a)] and rep.dims[q.target(a)]):
                continue  # an empty Y_a
            T = rep.maps[a]
            Tt = [list(col) for col in zip(*T)]
            terms = []
            if q.target(a) == v:
                terms.append((1, matmul_int(Y[a], Tt)))
            if q.source(a) == v:
                terms.append((-1, matmul_int(Tt, Y[a])))
            for sign, mat in terms:
                for i in range(d):
                    for j in range(d):
                        total[i][j] += sign * mat[i][j]
        if any(x for row in total for x in row):
            return "y does not vanish on the operators at vertex %d" % v
    pairing = sum(-_value(weighting, a) * Y[a][i][j] * rep.maps[a][i][j]
                  for a in Y for i in range(len(Y[a])) for j in range(len(Y[a][i])))
    if pairing != 1:
        return "y pairs with the weight terms to %s" % pairing
    return None
