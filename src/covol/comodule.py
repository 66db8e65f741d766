"""
Finite-dimensional right comodules over a coalgebra-with-basis, graded
comodules, the correspondence with comodules over the smash coproduct,
push-down along coalgebra projections, and a bounded gradability probe
for quiver-representation-shaped comodules.

Compatibility convention for graded comodules: for every coaction term
m_i (x) c with c homogeneous, degree(i) * weight(c) = degree(j) on the
coacting basis element m_j.  This is exactly the convention that makes
the smash-comodule structure map coassociative.
"""

import math
from fractions import Fraction

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
    def __init__(self, degrees, graded, dimension_vector):
        self.degrees = degrees
        self.graded = graded
        self.dimension_vector = dimension_vector

    verdict = "gradable"


class Ungradable:
    def __init__(self, refuted):
        self.refuted = refuted  # list of (dimension vector, reason)

    verdict = "ungradable"


class Unknown:
    def __init__(self, reason):
        self.reason = reason

    verdict = "unknown"


def _degree_value(group, el):
    """Integer coordinate of a rank-one free abelian element."""
    return el[0][0]


def _enumerate_dimension_vectors(dims, window_values):
    """All assignments of per-vertex dimensions to window degrees, as
    tuples of per-vertex sorted ((degree, count), ...) profiles."""
    per_vertex = []
    for d in dims:
        profiles = [()]
        for value in window_values:
            profiles = [p + ((value, k),) if k else p
                        for p in profiles
                        for k in range(min(d, d - sum(c for _, c in p)) + 1)]
        profiles = [p for p in profiles if sum(c for _, c in p) == d]
        per_vertex.append(profiles)
    out = [()]
    for profiles in per_vertex:
        out = [o + (p,) for o in out for p in profiles]
    return out


def gradability_probe(rep, weighting, window):
    """Decide whether a quiver representation admits a grading compatible
    with the weighting: a splitting of each vertex space such that every
    arrow operator maps the degree-g part of its source into the part of
    degree g * w(a)^-1 of its target.

    Only rank-one free abelian weightings are searched (the probe's
    fixtures); everything else returns Unknown.  Verdicts are certified:
    Gradable carries a verified witness, Ungradable an exhaustive list of
    refuted dimension vectors.
    """
    group = weighting.group
    if not (isinstance(group, FgAbelian) and group.free_rank == 1
            and not group.torsion):
        return Unknown("probe only searches rank-one free abelian gradings")
    if not window:
        return Unknown("empty window")
    radius = max(abs(_degree_value(group, g)) for g in window)
    if radius < rep.total_dim:
        raise CoalgebraError("window radius %d below comodule dimension %d"
                             % (radius, rep.total_dim))
    window_values = sorted((_degree_value(group, g) for g in window),
                           key=lambda v: (abs(v), v))

    # degree operator: block matrices D_v with
    # D_t T_a - T_a D_s = -w(a) T_a for every arrow
    nvars = sum(d * d for d in rep.dims)
    var_offset = []
    total = 0
    for d in rep.dims:
        var_offset.append(total)
        total += d * d

    def var(v, i, j):
        return var_offset[v] + i * rep.dims[v] + j

    equations = []
    for a in range(rep.quiver.num_arrows()):
        s, t = rep.quiver.source(a), rep.quiver.target(a)
        T = rep.maps[a]
        w = _degree_value(group, weighting.of(a))
        for i in range(rep.dims[t]):
            for j in range(rep.dims[s]):
                coeffs = {}
                for k in range(rep.dims[t]):
                    if T[k][j]:
                        coeffs[var(t, i, k)] = coeffs.get(var(t, i, k), 0) + T[k][j]
                for k in range(rep.dims[s]):
                    if T[i][k]:
                        coeffs[var(s, k, j)] = coeffs.get(var(s, k, j), 0) - T[i][k]
                equations.append((SparseVector(coeffs), Fraction(-w) * T[i][j]))
    solved = solve_affine(equations, nvars)

    vectors = _enumerate_dimension_vectors(rep.dims, window_values)
    fast_refutations = _refute_single_degree_vectors(rep, weighting, group,
                                                     vectors)

    if solved is None:
        # no degree operator at all: every dimension vector is infeasible
        refuted = []
        for vector in vectors:
            reason = fast_refutations.get(vector,
                                          "no degree operator satisfies the "
                                          "arrow commutation relations")
            refuted.append((vector, reason))
        return Ungradable(refuted)

    particular, homogeneous = solved
    witness = _search_witness(rep, weighting, group, window_values,
                              particular, homogeneous, var)
    if witness is not None:
        return witness

    if all(v in fast_refutations for v in vectors):
        return Ungradable([(v, fast_refutations[v]) for v in vectors])
    return Unknown("no witness found and some dimension vectors need an "
                   "undecided subspace search")


def _refute_single_degree_vectors(rep, weighting, group, vectors):
    """Complete feasibility decision for the dimension vectors concentrated
    in a single degree per vertex: the splitting is forced, so only the
    arrow constraints matter.  Returns a dict of refuted vectors -> reason."""
    out = {}
    for vector in vectors:
        if any(len(profile) > 1 for profile in vector):
            continue  # needs a genuine subspace search
        degree = {}
        for v, profile in enumerate(vector):
            if profile:
                degree[v] = profile[0][0]
        bad = None
        for a in range(rep.quiver.num_arrows()):
            s, t = rep.quiver.source(a), rep.quiver.target(a)
            if s not in degree or t not in degree:
                continue
            if any(x for row in rep.maps[a] for x in row):
                w = _degree_value(group, weighting.of(a))
                if degree[t] != degree[s] - w:
                    bad = ("arrow %s forces degree %d at %s, assigned %d"
                           % (rep.quiver.arrow_name(a), degree[s] - w,
                              rep.quiver.vertices[t], degree[t]))
                    break
        if bad:
            out[vector] = bad
    return out


def _search_witness(rep, weighting, group, window_values, particular,
                    homogeneous, var):
    """Try small rational combinations of the affine degree-operator family
    and accept any member with integer spectrum and exact eigenspace
    splitting; the witness is verified as a graded comodule structure."""
    from itertools import product as iproduct
    grid = [Fraction(k) for k in (-2, -1, 0, 1, 2)]
    params = homogeneous[:3]
    for combo in iproduct(grid, repeat=len(params)):
        D = list(particular)
        for lam, direction in zip(combo, params):
            if lam:
                D = [d + lam * e for d, e in zip(D, direction)]
        result = _integral_eigensplit(rep, D, var)
        if result is None:
            continue
        degrees, blocks = result
        shift = -min(degrees.values())
        degrees = {k: v + shift for k, v in degrees.items()}
        if any(d not in window_values for d in degrees.values()):
            continue
        witness = _witness_from_split(rep, weighting, group, degrees, blocks)
        if witness is not None:
            return witness
    return None


def _block_matrix(rep, D, var, v):
    d = rep.dims[v]
    return [[D[var(v, i, j)] for j in range(d)] for i in range(d)]


def _integral_eigensplit(rep, D, var):
    """Integer eigenvalues and exact eigenspace decomposition of each
    vertex block, or None."""
    degrees = {}
    blocks = {}
    for v in range(len(rep.dims)):
        d = rep.dims[v]
        if d == 0:
            continue
        mat = _block_matrix(rep, D, var, v)
        eigen = _rational_eigenvalues(mat)
        if eigen is None or any(x.denominator != 1 for x in eigen):
            return None
        vectors = []
        for value in sorted(set(eigen)):
            space = _kernel(_shift(mat, value))
            for col in space:
                vectors.append((int(value), col))
        if len(vectors) != d:
            return None  # not diagonalizable
        for k, (value, col) in enumerate(vectors):
            degrees[(v, k)] = value
        blocks[v] = vectors
    return degrees, blocks


def _shift(mat, value):
    n = len(mat)
    return [[mat[i][j] - (value if i == j else 0) for j in range(n)]
            for i in range(n)]


def _kernel(mat):
    """Nullspace basis of a square matrix, one column per free variable."""
    n = len(mat)
    return solve_affine([(SparseVector(dict(enumerate(row))), 0) for row in mat],
                        n)[1]


def _char_roots_linear_quadratic(mat):
    n = len(mat)
    if n == 1:
        return [Fraction(mat[0][0])]
    if n == 2:
        tr = mat[0][0] + mat[1][1]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        disc = tr * tr - 4 * det
        if disc < 0:
            return None
        root = _fraction_sqrt(disc)
        if root is None:
            return None
        return [Fraction(tr + root, 2), Fraction(tr - root, 2)]
    return None


def _fraction_sqrt(x):
    x = Fraction(x)
    if x < 0:
        return None
    num = _int_sqrt(x.numerator)
    den = _int_sqrt(x.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_sqrt(n):
    r = math.isqrt(n)
    return r if r * r == n else None


def _rational_eigenvalues(mat):
    """All eigenvalues when they are rational; None when undecided.
    Handles size <= 2 directly and larger sizes by rational root search
    of the characteristic polynomial."""
    n = len(mat)
    direct = _char_roots_linear_quadratic(mat)
    if direct is not None or n <= 2:
        return direct
    poly = _char_poly(mat)  # monic, integer-scaled
    roots = []
    work = poly
    for _ in range(n):
        root = _find_rational_root(work)
        if root is None:
            return None
        roots.append(root)
        work = _deflate(work, root)
    return roots


def _char_poly(mat):
    # Faddeev-LeVerrier: monic coefficients of det(tI - M), degree first
    n = len(mat)
    cs = [Fraction(1)]
    A = None
    for k in range(1, n + 1):
        A = mat if k == 1 else matmul_int(mat, _shift(A, -cs[-1]))
        trace = sum(A[i][i] for i in range(n))
        cs.append(Fraction(-trace, k))
    return cs


def _find_rational_root(poly):
    # poly: monic with rational coefficients, highest degree first
    scale = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    lead, const = ints[0], ints[-1]
    if const == 0:
        return Fraction(0)
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                if _poly_eval(poly, cand) == 0:
                    return cand
    return None


def _poly_eval(poly, x):
    out = Fraction(0)
    for c in poly:
        out = out * x + c
    return out


def _deflate(poly, root):
    out = [poly[0]]
    for c in poly[1:-1]:
        out.append(c + out[-1] * root)
    return out


def _divisors(n):
    """Positive divisors of n >= 1 in ascending order, paired up to isqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _witness_from_split(rep, weighting, group, degrees, blocks):
    """Check the eigen-splitting against the arrow constraints and package
    it as a verified graded quiver representation witness."""
    for a in range(rep.quiver.num_arrows()):
        s, t = rep.quiver.source(a), rep.quiver.target(a)
        T = rep.maps[a]
        w = _degree_value(group, weighting.of(a))
        for k, (gs, col) in enumerate(blocks.get(s, [])):
            image = [sum(T[i][j] * col[j] for j in range(rep.dims[s]))
                     for i in range(rep.dims[t])]
            if all(x == 0 for x in image):
                continue
            # image must lie in the degree gs - w eigenspace of the target
            target_cols = [c for gt, c in blocks.get(t, []) if gt == gs - w]
            span = rref([SparseVector(dict(enumerate(c))) for c in target_cols])
            if not span.member(SparseVector(dict(enumerate(image)))):
                return None
    dimension_vector = []
    degree_list = {}
    for v in range(len(rep.dims)):
        profile = {}
        for k, (g, _) in enumerate(blocks.get(v, [])):
            shifted = degrees[(v, k)]
            profile[shifted] = profile.get(shifted, 0) + 1
            degree_list[(v, k)] = shifted
        dimension_vector.append(tuple(sorted(profile.items())))
    return Gradable(degree_list, blocks, tuple(dimension_vector))


def witness_graded_comodule(rep, weighting, witness, coalgebra, pindex):
    """Rebase the representation onto the witness eigen-splitting, path
    expand it, and attach the witness degrees; the result satisfies the
    graded-comodule compatibility by construction and `verify` proves it.
    """
    group = weighting.group
    quiver = rep.quiver
    P, Pinv = {}, {}
    for v in range(len(rep.dims)):
        d = rep.dims[v]
        if d == 0:
            continue
        cols = [col for _, col in witness.graded[v]]
        P[v] = [[cols[t][i] for t in range(d)] for i in range(d)]
        Pinv[v] = _invert(P[v])
    new_maps = {}
    for a in range(quiver.num_arrows()):
        s, t = quiver.source(a), quiver.target(a)
        if rep.dims[s] and rep.dims[t]:
            new_maps[a] = matmul_int(Pinv[t], matmul_int(rep.maps[a], P[s]))
    rebased = QuiverRepresentation(quiver, rep.dims, new_maps)
    comodule = rebased.as_comodule(coalgebra, pindex)
    degrees = []
    for v in range(len(rep.dims)):
        for k in range(rep.dims[v]):
            degrees.append(group.element(free=[witness.degrees[(v, k)]]))
    return GradedComodule(comodule, degrees,
                          lambda sym: pindex.weight(weighting, sym), group)
