"""
Finite-dimensional right comodules over a coalgebra-with-basis, graded
comodules, the correspondence with comodules over the smash coproduct,
push-down along coalgebra projections, and an exact gradability probe
for quiver-representation-shaped comodules.

Compatibility convention for graded comodules: for every coaction term
m_i (x) c with c homogeneous, degree(i) * weight(c) = degree(j) on the
coacting basis element m_j.  This is exactly the convention that makes
the smash-comodule structure map coassociative.
"""

from fractions import Fraction
from itertools import product
from math import comb

from .coalgebra import CoalgebraError, _nonzero, coproduct_of_vector, \
    apply_map, smash_projection_map
from .exactlin import SparseVector, matmul_int, rref, solve_affine
from .groups import FgAbelian


class Comodule:
    """Right comodule: rho(m_j) = sum_i m_i (x) c_ij with coefficients
    c_ij as symbol-coefficient dicts over the coalgebra's basis, zeros dropped."""

    def __init__(self, coalgebra, labels, coaction):
        self.coalgebra = coalgebra
        self.labels = list(labels)
        self.coaction = {k: cell for k, v in coaction.items() if (cell := _nonzero(v))}

    @property
    def dimension(self):
        return len(self.labels)

    def coefficient(self, i, j):
        return self.coaction.get((i, j), {})

    def __eq__(self, other):
        return (isinstance(other, Comodule) and self.dimension == other.dimension
                and self.coaction == other.coaction)

    def __repr__(self):
        return "Comodule(dim=%d)" % self.dimension


def verify_comodule(M):
    """Exact comodule axioms; window-truncated coefficients are skipped the
    same way the coalgebra verifiers skip boundary symbols.

    Returns (ok, failure description or None).
    """
    C = M.coalgebra
    n = M.dimension
    for j in range(n):
        for i in range(n):
            eps = sum(c * C.counit(sym) for sym, c in M.coefficient(i, j).items())
            if eps != (1 if i == j else 0):
                return False, ("counit", i, j)
    for j in range(n):
        for i in range(n):
            cij = M.coefficient(i, j)
            diff, truncated = coproduct_of_vector(C, cij)  # minus sum_k c_ik (x) c_kj
            if truncated:
                continue
            for k in range(n):
                ckj = M.coefficient(k, j)
                for s1, a in M.coefficient(i, k).items():
                    for s2, b in ckj.items():
                        key = (s1, s2)
                        diff[key] = diff.get(key, 0) - a * b
            if any(diff.values()):
                return False, ("coassociativity", i, j)
    return True, None


class GradedComodule:
    """Comodule with a degree per basis element, compatible with the
    grading of the coalgebra through a fixed arrow weighting."""

    def __init__(self, comodule, degrees, weight_of, group):
        self.comodule = comodule
        self.degrees = list(degrees)
        self.weight_of = weight_of  # weight of a coalgebra basis symbol
        self.group = group

    @property
    def dimension(self):
        return self.comodule.dimension

    def verify(self):
        """degree(i) * weight(c_ij) = degree(j) for every homogeneous
        coefficient; mixed-weight coefficients fail immediately."""
        group = self.group
        for (i, j), coeff in self.comodule.coaction.items():
            weights = {self.weight_of(sym) for sym in coeff}
            if len(weights) > 1:
                return False, ("mixed weight", i, j)
            w = next(iter(weights))
            if group.multiply(self.degrees[i], w) != self.degrees[j]:
                return False, ("degree", i, j)
        return True, None


def to_smash_comodule(graded, smash):
    """Comodule over the smash coproduct: rho'(m_j) has coefficients
    (c_ij, degree(j)^-1)."""
    group = graded.group
    M = graded.comodule
    coaction = {}
    for (i, j), coeff in M.coaction.items():
        g = group.inverse(graded.degrees[j])
        if g not in smash.window_pos:
            raise CoalgebraError("degree %s leaves the window" % group.format(g))
        coaction[(i, j)] = {smash.symbol(sym, g): c for sym, c in coeff.items()}
    return Comodule(smash, M.labels, coaction)


def _invert(matrix):
    """Exact inverse of a square matrix, or None when it is singular: the
    RREF of [M | I] is [I | M^-1] exactly when its pivots are 0..n-1."""
    n = len(matrix)
    space = rref([SparseVector({**{j: matrix[i][j] for j in range(n)}, n + i: 1})
                  for i in range(n)])
    if space.pivots != list(range(n)):
        return None
    return [[row[n + j] for j in range(n)] for row in space.rows]


def from_smash_comodule(N):
    """Graded comodule recovered from a comodule over a smash coproduct.

    The group coaction (c, g) -> counit(c) g^-1 must split the basis into
    degree eigenspaces; if it is not diagonal on the given basis, a basis
    change is attempted and failure is reported.

    Returns (GradedComodule over the smash's base, change-of-basis or None).
    """
    smash = N.coalgebra
    group = smash.group
    base = smash.base
    n = N.dimension
    coefficients = {}  # group element -> dense matrix
    for (i, j), coeff in N.coaction.items():
        for s, c in coeff.items():
            sym, g = smash.decode(s)
            eps = base.counit(sym)
            if eps:
                h = group.inverse(g)
                mat = coefficients.setdefault(
                    h, [[Fraction(0)] * n for _ in range(n)])
                mat[i][j] += c * eps
    # idempotent system: sum A_h = I, A_g A_h = delta A_g
    total = [[Fraction(0)] * n for _ in range(n)]
    for mat in coefficients.values():
        for i in range(n):
            for j in range(n):
                total[i][j] += mat[i][j]
    if total != [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]:
        raise CoalgebraError("group coaction does not sum to the identity")

    diagonal = all(
        all(mat[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        and all(mat[i][i] in (0, 1) for i in range(n))
        for mat in coefficients.values())
    if diagonal:
        degrees = [None] * n
        for h, mat in coefficients.items():
            for i in range(n):
                if mat[i][i] == 1:
                    degrees[i] = h
        change = None
        M = N
    else:
        # columns of each A_h span the degree-h eigenspace
        columns, degrees = [], []
        for h in sorted(coefficients, key=group.sort_key):
            mat = coefficients[h]
            vecs = [SparseVector({i: mat[i][j] for i in range(n) if mat[i][j]})
                    for j in range(n)]
            space = rref(vecs)
            for row in space.rows:
                columns.append([row[i] for i in range(n)])
                degrees.append(h)
        if len(columns) != n:
            raise CoalgebraError("group coaction is not diagonalizable")
        P = [[columns[t][i] for t in range(n)] for i in range(n)]
        Pinv = _invert(P)
        if Pinv is None:
            raise CoalgebraError("group coaction is not diagonalizable")
        coaction = {}
        for (i, j), coeff in N.coaction.items():
            for s in range(n):
                for t in range(n):
                    f = Pinv[s][i] * P[j][t]
                    if not f:
                        continue
                    cell = coaction.setdefault((s, t), {})
                    for sym, c in coeff.items():
                        cell[sym] = cell.get(sym, 0) + f * c
        labels = ["n%d" % t for t in range(n)]
        M = Comodule(smash, labels, coaction)
        change = P
    under = push_down(M, smash_projection_map(smash), base)
    graded = GradedComodule(under, degrees, smash.weight_of, group)
    return graded, change


def push_down(N, projection, target):
    """Comodule over the target coalgebra: coefficients composed with a
    verified coalgebra projection map."""
    coaction = {}
    for (i, j), coeff in N.coaction.items():
        image = apply_map(projection.get, coeff)
        if image is None:
            raise CoalgebraError("projection undefined on a coefficient")
        coaction[(i, j)] = image
    return Comodule(target, N.labels, coaction)


# ---------------------------------------------------------------------------
# quiver representations and the gradability probe


class QuiverRepresentation:
    """Finite-dimensional representation: a space per vertex, a matrix per
    arrow (rows indexed by the target space)."""

    def __init__(self, quiver, dims, maps):
        self.quiver = quiver
        self.dims = list(dims)
        self.maps = {}
        for a in range(quiver.num_arrows()):
            rows = dims[quiver.target(a)]
            cols = dims[quiver.source(a)]
            mat = maps.get(a) or maps.get(quiver.arrow_name(a))
            if mat is None:
                mat = [[Fraction(0)] * cols for _ in range(rows)]
            mat = [[Fraction(x) for x in row] for row in mat]
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise CoalgebraError("matrix shape mismatch on arrow %r"
                                     % quiver.arrow_name(a))
            self.maps[a] = mat
        self.offsets = []
        total = 0
        for d in self.dims:
            self.offsets.append(total)
            total += d
        self.total_dim = total

    def labels(self):
        out = []
        for v in range(len(self.dims)):
            for k in range(self.dims[v]):
                out.append("%s.%d" % (self.quiver.vertices[v], k))
        return out

    def as_comodule(self, coalgebra, pindex):
        """Path-expanded coaction over a truncated path coalgebra; raises
        when a composite survives past the truncation (not locally
        nilpotent at this truncation level).  A path's matrix is its last
        arrow's times its prefix's (a vertex's is the identity), and the
        paths one arrow past the truncation extend the full-length ones."""
        coaction = {}
        mats = []
        for i, (src, tgt, arrows) in enumerate(pindex.paths):
            if arrows:
                mat = matmul_int(self.maps[arrows[-1]], mats[pindex.prefix(i)])
            else:
                mat = [[Fraction(int(r == c)) for c in range(self.dims[src])]
                       for r in range(self.dims[src])]
            mats.append(mat)
            for r, row in enumerate(mat):  # no columns through a 0-dim vertex
                for c, x in enumerate(row):
                    if x:
                        coaction.setdefault((self.offsets[tgt] + r,
                                             self.offsets[src] + c), {})[i] = x
            if len(arrows) == pindex.truncation and any(
                    x for a in self.quiver.out_arrows[tgt]
                    for row in matmul_int(self.maps[a], mat) for x in row):
                raise CoalgebraError("representation is not nilpotent within "
                                     "truncation %d" % pindex.truncation)
        return Comodule(coalgebra, self.labels(), coaction)


class Gradable:
    """A grading: `graded` holds each vertex block's (degree, column)
    pairs in vertex order, the columns a basis of the block in increasing
    degree, and `degrees` lists those degrees in that order, one per basis
    vector; the least degree of each chain of linked eigenvalues is 0."""

    def __init__(self, graded):
        self.graded = graded
        self.degrees = [degree for pairs in graded.values() for degree, _ in pairs]

    verdict = "gradable"


class Ungradable:
    def __init__(self, refuted, fredholm):
        self.refuted = refuted  # how many dimension vectors over the window
        # y with y.A = 0 and y.b = 1 on the degree-operator system, one
        # coordinate per (arrow, target row, source column), in that order
        self.fredholm = fredholm

    verdict = "ungradable"


class Unknown:
    def __init__(self, reason):
        self.reason = reason

    verdict = "unknown"


def _degree_value(el):
    """Integer coordinate of a rank-one free abelian element."""
    return el[0][0]


def probe_searches(group):
    """Whether the gradability probe decides gradings by the group: only
    rank-one free abelian groups are decided."""
    return isinstance(group, FgAbelian) and group.free_rank == 1 and not group.torsion


def gradability_probe(rep, weighting, window):
    """Decide whether a quiver representation admits a grading compatible
    with the weighting: a splitting of each vertex space such that every
    arrow operator maps the degree-g part of its source into the part of
    degree g * w(a)^-1 of its target.

    Only rank-one free abelian weightings are decided (the probe's
    fixtures); everything else returns Unknown.  A grading exists exactly
    when the degree-operator system is solvable: a grading's diagonal
    degree operator solves it, and `_graded_by_chains` grades by any
    solution.  Gradable carries that grading; Ungradable a Fredholm vector
    of the system and the number of dimension vectors over the window, each
    refuted by it: a multiset of d window degrees per vertex of dimension d,
    so the product of comb(|window| + d - 1, d) over vertices with d > 0.
    The window only counts those vectors.
    """
    if not probe_searches(weighting.group):
        return Unknown("probe only searches rank-one free abelian gradings")
    equations, offsets, nvars = _degree_operator_system(rep, weighting)
    solved = solve_affine(equations, nvars)
    if solved is not None:
        return _graded_by_chains(rep, weighting, solved[0], offsets)
    refuted = 1
    for d in rep.dims:
        if d:
            refuted *= comb(len(window) + d - 1, d)
    return Ungradable(refuted, _fredholm(equations))


def _degree_operator_system(rep, weighting):
    """The degree operator's linear system D_t T_a - T_a D_s = -w(a) T_a,
    one equation per (arrow, target row, source column): block matrices
    D_v, row-major from offsets[v].  Returns (equations, offsets, nvars)."""
    offsets, nvars = [], 0
    for d in rep.dims:
        offsets.append(nvars)
        nvars += d * d
    equations = []
    for a in range(rep.quiver.num_arrows()):
        s, t = rep.quiver.source(a), rep.quiver.target(a)
        ds, dt = rep.dims[s], rep.dims[t]
        T = rep.maps[a]
        w = _degree_value(weighting.of(a))
        for i in range(dt):
            for j in range(ds):
                coeffs = {}
                for k in range(dt):
                    if T[k][j]:
                        x = offsets[t] + i * dt + k
                        coeffs[x] = coeffs.get(x, 0) + T[k][j]
                for k in range(ds):
                    if T[i][k]:
                        x = offsets[s] + k * ds + j
                        coeffs[x] = coeffs.get(x, 0) - T[i][k]
                equations.append((SparseVector(coeffs), Fraction(-w) * T[i][j]))
    return equations, offsets, nvars


def _fredholm(equations):
    """y with y.A = 0 and y.b = 1 for an inconsistent system of (row of A,
    entry of b) pairs: by the Fredholm alternative the transposed system
    is consistent exactly when the original is not."""
    columns = {}
    for i, (coeffs, _) in enumerate(equations):
        for j, c in coeffs.items():
            columns.setdefault(j, {})[i] = c
    transposed = [(SparseVector(column), 0) for column in columns.values()]
    transposed.append((SparseVector({i: b for i, (_, b) in enumerate(equations)}), 1))
    return solve_affine(transposed, len(equations))[0]


def _graded_by_chains(rep, weighting, D, offsets):
    """The grading by a solution D of the degree-operator system, with no
    root computed.  D_t T_a = T_a (D_s - w(a)), so T_a maps the generalised
    eigenspace of D_s at e into that of D_t at e - w(a).  Link two roots of
    the square-free part f of the blocks' characteristic polynomials when
    they differ by a nonzero weight; a root's degree is its offset above
    the least root of its chain.  Relaxation over rational factors of f
    finds the degrees: from level 0, the roots k above level m,
    gcd(f, q_m(x - k)), rise to level m + k until nothing moves.  The
    degree-m part of a block M of size d is ker q_m(M)^d, rational like
    q_m; D need not be diagonalisable nor its spectrum rational."""
    blocks = {v: [D[offsets[v] + i * d:offsets[v] + (i + 1) * d] for i in range(d)]
              for v, d in enumerate(rep.dims) if d}
    chi = [Fraction(1)]
    for mat in blocks.values():
        chi = _poly_mul(chi, _charpoly(mat))
    f = _poly_divmod(chi, _poly_gcd(chi, [k * c for k, c in enumerate(chi)][1:]))[0]
    steps = sorted({sign * _degree_value(weighting.of(a)) for sign in (1, -1)
                    for a in range(rep.quiver.num_arrows())} - {0})
    levels = {0: f}
    moved = True
    while moved:
        moved = False
        for m, k in product(sorted(levels), steps):
            up = _poly_gcd(f, _shifted(levels[m], k))
            for n in [n for n in levels if n < m + k]:
                part = _poly_gcd(levels[n], up)
                if len(part) > 1:
                    levels[n] = _poly_divmod(levels[n], part)[0]
                    levels[m + k] = _poly_mul(levels.get(m + k, [Fraction(1)]), part)
                    moved = True
    graded = {}
    for v, mat in blocks.items():
        for m in sorted(levels):
            power = [Fraction(1)]
            for _ in mat:
                power = _poly_mul(power, levels[m])
            graded.setdefault(v, []).extend(
                (m, col) for col in _kernel(_at_matrix(power, mat)))
    return Gradable(graded)


# polynomials over Q: coefficient lists, constant term first, with a
# nonzero last coefficient; the zero polynomial is []


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_divmod(p, q):
    """Quotient and remainder of p by a nonzero q."""
    p = list(p)
    quotient = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q):
        k = len(p) - len(q)
        quotient[k] = Fraction(p[-1]) / q[-1]
        for i, y in enumerate(q):
            p[k + i] -= quotient[k] * y
        while p and not p[-1]:
            p.pop()
    return quotient, p


def _poly_gcd(p, q):
    """Monic greatest common divisor of p and q, not both zero."""
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    return [Fraction(c) / p[-1] for c in p]


def _shifted(q, k):
    """q(x - k), by Horner's rule."""
    out = q[-1:]
    for c in reversed(q[:-1]):
        out = _poly_mul(out, [-k, 1])
        out[0] += c
    return out


def _charpoly(mat):
    """det(x I - M) by Faddeev-LeVerrier: from N_0 = 0 and c_n = 1, N_k =
    M N_(k-1) + c_(n-k+1) I and c_(n-k) = -trace(M N_k) / k."""
    n = len(mat)
    coeffs = [Fraction(1)]  # c_n, c_(n-1), ...
    N = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        N = matmul_int(mat, N)
        for i in range(n):
            N[i][i] += coeffs[-1]
        MN = matmul_int(mat, N)
        coeffs.append(Fraction(-sum(MN[i][i] for i in range(n)), k))
    return coeffs[::-1]


def _at_matrix(q, mat):
    """q(M) for a square matrix M, by Horner's rule."""
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for c in reversed(q):
        out = matmul_int(out, mat)
        for i in range(n):
            out[i][i] += c
    return out


def _kernel(mat):
    """Nullspace basis of a square matrix, one column per free variable."""
    n = len(mat)
    return solve_affine([(SparseVector(dict(enumerate(row))), 0) for row in mat],
                        n)[1]


def witness_graded_comodule(rep, weighting, witness, coalgebra, pindex):
    """Rebase the representation onto the witness's graded columns, path
    expand it, and attach the witness degrees; the result satisfies the
    graded-comodule compatibility by construction and `verify` proves it.
    """
    group = weighting.group
    quiver = rep.quiver
    P, Pinv = {}, {}
    for v, pairs in witness.graded.items():  # the vertices of dimension > 0
        P[v] = [[col[i] for _, col in pairs] for i in range(rep.dims[v])]
        Pinv[v] = _invert(P[v])
    new_maps = {}
    for a in range(quiver.num_arrows()):
        s, t = quiver.source(a), quiver.target(a)
        if rep.dims[s] and rep.dims[t]:
            new_maps[a] = matmul_int(Pinv[t], matmul_int(rep.maps[a], P[s]))
    rebased = QuiverRepresentation(quiver, rep.dims, new_maps)
    comodule = rebased.as_comodule(coalgebra, pindex)
    degrees = [group.element(free=[degree]) for degree in witness.degrees]
    return GradedComodule(comodule, degrees,
                          lambda sym: pindex.weight(weighting, sym), group)
