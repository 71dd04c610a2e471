"""Reference definitions that tests compare against or check with: the
Leibniz derivation, the dense derivation matrix, and the invariant and
semi-invariant search on the whole monomial span at once with every piece
refined, the generalized eigenspace from the dense matrix
power, monomial coordinates, the general-position test, the greedy
coordinate complement, the dense bracket and rational Jacobi check,
right-first normal ordering of a generator word, word-by-word evaluation
of an enveloping-algebra element, the Leibniz sum for composing
differential operators, identity, product and substitution on flows (rows
of ExpPoly entries), the closure search's fold and coordinate descent on
Fractions, the upper-triangular algebra b_3 in any basis order, the
gaussian-weights algebra as .alg text, and a drawn rational basis and an
algebra in it.  No orbitkit command needs them."""

from fractions import Fraction
from math import comb, lcm

from hypothesis import strategies as st

from orbitkit.envelop import MINUS_I, PLUS_I, XI, DiffOp, UEAElement
from orbitkit.errors import DimensionMismatch
from orbitkit.exactlin import Matrix, Q0, Subspace, kernel, rref, solve, unit_vector, vec
from orbitkit.invariants import _capped, _monomials, _vector_to_poly
from orbitkit.liealg import LieAlgebra, _gaussian_eigenvalues, _restrict_to
from orbitkit.symflow import ExpPoly


def derivation(m: LieAlgebra, x, q: ExpPoly, module: Subspace | None = None) -> ExpPoly:
    """The derivation with (X . e_nu) = (h -> h([X, e_nu])), extended by Leibniz."""
    names = m.dual_names(module)
    a = m.ad_matrix(m.basis_vector(x) if isinstance(x, str) else x, module)
    present = q.poly_variables()
    out = ExpPoly()
    for nu, var in enumerate(names):
        if var not in present:
            continue
        image = ExpPoly()
        for mu, other in enumerate(names):
            if a.entries[mu][nu]:
                image = image + ExpPoly.variable(other) * a.entries[mu][nu]
        out = out + q.d_dvar(var) * image
    return out


def _derivation_matrix(a: Matrix, monomials) -> Matrix:
    """Matrix of the derivation with action matrix a on the monomial span.

    x^alpha goes to sum over nu, mu of alpha_nu * a[mu][nu] * x^(alpha - e_nu + e_mu).
    """
    index = {m: i for i, m in enumerate(monomials)}
    n = len(monomials)
    rows = [[Q0] * n for _ in range(n)]
    for col, alpha in enumerate(monomials):
        for nu, k in enumerate(alpha):
            if not k:
                continue
            for mu in range(a.rows):
                c = a.entries[mu][nu]
                if c:
                    beta = list(alpha)
                    beta[nu] -= 1
                    beta[mu] += 1
                    rows[index[tuple(beta)]][col] += k * c
    return Matrix(rows)


def ungraded_invariant_space(m: LieAlgebra, degree_bound: int):
    """Canonical basis of the nonconstant invariants up to the degree bound,
    from one common kernel on the whole monomial span."""
    names = m.basis_names
    monomials = _monomials(names, degree_bound)
    mats = [_derivation_matrix(m.ad_matrix(unit_vector(m.dim, i)), monomials)
            for i in range(m.dim)]
    space = Subspace.common_kernel(len(monomials), mats)
    return [_vector_to_poly(v, names, monomials) for v in space.basis]


def ungraded_semi_invariants(g: LieAlgebra, degree_bound: int,
                             module: Subspace | None = None):
    """invariants.semi_invariants with every matrix dense on the whole
    monomial span of degree 1..degree_bound, in one block, and every piece
    refined through its eigenvalues, scalar actions included."""
    names = g.dual_names(module)
    monomials = _monomials(names, degree_bound)
    mats = [_derivation_matrix(g.ad_matrix(unit_vector(g.dim, i), module), monomials)
            for i in range(g.dim)]
    comm = g.commutator_ideal()
    pieces = [Subspace.common_kernel(len(monomials), [
        _derivation_matrix(g.ad_matrix(b, module), monomials) for b in comm.basis])]
    for c in comm.complement_coordinates():
        refined = []
        for piece in pieces:
            az = _restrict_to(mats[c].apply, piece)
            for lam, _ in _gaussian_eigenvalues(az):
                if not lam.imag:
                    eig = kernel(Matrix([[x - lam if i == j else x for j, x in enumerate(row)]
                                         for i, row in enumerate(az.entries)]))
                    refined.append(Subspace.from_vectors(len(monomials), [
                        [sum((c * b for c, b in zip(coeffs, column)), Q0)
                         for column in zip(*piece.basis)] for coeffs in eig.basis]))
        pieces = refined
    results = []
    for piece in pieces:
        for lead, v in zip(piece.pivots, piece.basis):
            weight = tuple(mat.apply(v)[lead] / v[lead] for mat in mats)
            assert all(mat.apply(v) == tuple(lam * c for c in v)
                       for mat, lam in zip(mats, weight))
            results.append((_vector_to_poly(v, names, monomials), weight))
    results.sort(key=lambda t: (t[1], sorted(t[0].terms().keys())))
    return results


def power_generalized_eigenspace(shifted: Matrix, mult: int) -> Subspace:
    """ker(N^mult) from the dense power N^mult."""
    return kernel(shifted ** mult)


def _poly_to_vector(q: ExpPoly, names, monomials):
    index = {m: i for i, m in enumerate(monomials)}
    pos = {n: i for i, n in enumerate(names)}
    out = [Q0] * len(monomials)
    for (mono, lin), c in q.terms().items():
        if lin:
            raise DimensionMismatch("polynomial has exponential terms")
        key = [0] * len(names)
        for v, k in mono:
            key[pos[v]] = k
        key = tuple(key)
        if key not in index:
            raise DimensionMismatch("polynomial degree exceeds the monomial space")
        out[index[key]] = c
    return tuple(out)


def largest_ideal_in_kernel(g: LieAlgebra, f) -> Subspace:
    """Greatest fixed point of V -> {v in V : [g, v] in V} starting at ker f.

    f is in general position exactly when the result is zero.
    """
    f = vec(f)
    current = kernel(Matrix([f]))
    ads = [g.ad_matrix(unit_vector(g.dim, i)) for i in range(g.dim)]
    while True:
        ann = current.annihilator_matrix()
        nxt = Subspace.common_kernel(g.dim, [ann] + [ann * ad for ad in ads])
        if nxt == current:
            return current
        current = nxt


def in_general_position(g: LieAlgebra, f) -> bool:
    return largest_ideal_in_kernel(g, f).dim == 0


def greedy_complement_coordinates(space: Subspace):
    """Lexicographically first coordinate subset completing the basis of
    space: each coordinate in turn is kept when it raises the rank."""
    chosen = []
    current = list(space.basis)
    for c in range(space.ambient_dim):
        if space.dim + len(chosen) == space.ambient_dim:
            break
        reduced, _ = rref(current + [unit_vector(space.ambient_dim, c)])
        if len(reduced) > len(current):
            chosen.append(c)
            current = list(reduced)
    return tuple(chosen)


CATALOG_NAMES = ["heisenberg3", "axb", "g49_0", "b5", "e2-motion", "abelian3"]


def borel3(order=None) -> LieAlgebra:
    """Upper-triangular 3x3 matrices: [E_ij, E_kl] = d_jk E_il - d_li E_kj,
    with the basis E_ij listed in `order` (names), else by (i, j)."""
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a + 1:]:
            terms = {f"E{i}{l}": 1} if j == k else {}
            if l == i:
                terms[f"E{k}{j}"] = -1
            brackets[(f"E{i}{j}", f"E{k}{l}")] = terms
    return LieAlgebra.construct(order or [f"E{i}{j}" for i, j in pairs], brackets)


# ad(a) and ad(b) act on x, y, u, v by rotation blocks, ad(b) between the two
# blocks: the flag search meets eigenvalues and matrix entries in Q(i)
GAUSSIAN_WEIGHTS_ALG = """\
basis a b x y u v
bracket a x = y
bracket a y = -x
bracket a u = v
bracket a v = -u
bracket b x = u + v
bracket b y = -u + v
"""


# a vector coordinate: zero, or a small rational
COORD = st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
_SMALL_Q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_NONZERO_Q = st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 3))


def _change_basis(g, p):
    """g in the basis of the columns of p: [p e_i, p e_j] in p-coordinates."""
    n = g.dim
    cols = [p.column(j) for j in range(n)]
    table = [[solve(p, g.bracket(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    return LieAlgebra(g.basis_names, table)


def draw_basis_matrix(data, n):
    """A drawn invertible rational n x n matrix P = L*U (L unit lower, U
    invertible upper)."""
    lower = [[Fraction(int(i == j)) if i <= j else data.draw(_SMALL_Q) for j in range(n)]
             for i in range(n)]
    upper = [[data.draw(_NONZERO_Q) if i == j else Fraction(0) if i > j
              else data.draw(_SMALL_Q) for j in range(n)] for i in range(n)]
    return Matrix(lower) * Matrix(upper)


def draw_basis_change(data, g):
    """g in the drawn rational basis of draw_basis_matrix."""
    return _change_basis(g, draw_basis_matrix(data, g.dim))


def dense_bracket(g: LieAlgebra, x, y):
    """[x, y] = sum_ijk x_i y_j c_ij^k e_k over every cell of the dense table."""
    n = g.dim
    return tuple(sum((x[i] * y[j] * g.table[i][j][k] for i in range(n) for j in range(n)), Q0)
                 for k in range(n))


def first_jacobi_defect(table):
    """((i, j, k), defect) for the first triple i < j < k whose Jacobi sum
    [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] is nonzero,
    summed in rationals over the dense table; None when every sum vanishes."""
    n = len(table)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                defect = tuple(
                    sum((table[b][c][l] * table[a][l][m]
                         for a, b, c in ((i, j, k), (j, k, i), (k, i, j)) for l in range(n)),
                        Q0)
                    for m in range(n))
                if any(defect):
                    return (i, j, k), defect
    return None


def normalize_word_right(g: LieAlgebra, word: tuple) -> dict:
    """{ordered word: rational coeff} by rewriting the rightmost inversion
    first; envelop._normalize_word rewrites the leftmost."""
    inversions = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if not inversions:
        return {word: Fraction(1)}
    pos = inversions[-1]
    a, b = word[pos], word[pos + 1]
    result = dict(normalize_word_right(g, word[:pos] + (b, a) + word[pos + 2:]))
    # e_a e_b = e_b e_a + [e_a, e_b]
    for k, c in g.sparse_table[a][b]:
        for w, cf in normalize_word_right(g, word[:pos] + (k,) + word[pos + 2:]).items():
            result[w] = result.get(w, Fraction(0)) + c * cf
    return {w: c for w, c in result.items() if c}


def evaluate_uea_by_words(assign: dict, u: UEAElement) -> DiffOp:
    """The sum over u's words w of c_w * t_w1 o ... o t_wk with t_a =
    i*assign[a], each word's operator built from scratch."""
    t = [PLUS_I * assign[name] for name in u.algebra.basis_names]
    total = DiffOp()
    for word, coeff in u.terms.items():
        op = DiffOp.multiplication(coeff)
        for idx in word:
            op = op * t[idx]
        total = total + op
    return total


def leibniz_product(p: DiffOp, q: DiffOp) -> DiffOp:
    """p o q by the general Leibniz rule: a D^m o b D^k is the sum over
    j <= m of C(m, j) a (D^j b) D^(m-j+k), with D = -i d/dxi."""
    out = DiffOp()
    for m, a in p.terms.items():
        for k, b in q.terms.items():
            derivatives = [b]
            while len(derivatives) <= m:
                derivatives.append(derivatives[-1].d_dvar(XI) * MINUS_I)
            for j, bj in enumerate(derivatives):
                out = out + DiffOp({m - j + k: a * bj * comb(m, j)})
    return out


def identity_rows(n):
    """The n x n identity as rows of ExpPoly entries: a flow at parameter 0."""
    return tuple(tuple(ExpPoly.constant(int(i == j)) for j in range(n)) for i in range(n))


def rows_product(a, b):
    """The matrix product of two flows given as rows of ExpPoly entries."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ExpPoly()) for col in zip(*b))
                 for row in a)


def substitute_rows(rows, mapping):
    """Every entry of a flow with ExpPoly.substitute(mapping) applied."""
    return tuple(tuple(e.substitute(mapping) for e in row) for row in rows)


def fraction_fold(compiled, target, atoms):
    """invariants._fold on Fractions, without its size cap: component -
    target as (den, degrees, terms), each coefficient times its atom powers
    a Fraction product."""
    coeffs = [(-target, {})]
    for coeff, mono, exps in compiled:
        for v, e in exps:
            coeff = coeff * atoms[v] ** e
        coeffs.append((coeff, dict(mono)))
    names = sorted({v for _, powers in coeffs for v in powers})
    degrees = tuple((v, max(powers.get(v, 0) for _, powers in coeffs)) for v in names)
    den = lcm(*(c.denominator for c, _ in coeffs))
    return den, degrees, tuple((c.numerator * (den // c.denominator),
                                tuple(powers.get(v, 0) for v in names))
                               for c, powers in coeffs)


def restrict_each(folded, assignment, var=None):
    """[(den, {power of var: numerator})] per folded residual, with every
    other variable's value p/q from assignment put in: x^k becomes
    p^k * q^(top - k) and den is multiplied by q^top."""
    out = []
    for den, degrees, terms in folded:
        at, known = None, []
        for i, (v, top) in enumerate(degrees):
            if v == var:
                at = i
                continue
            p, q = assignment[v].as_integer_ratio()
            known.append((i, [p ** k * q ** (top - k) for k in range(top + 1)]))
            den *= q ** top
        coeffs = {}
        for n, powers in terms:
            for i, scale in known:
                n *= scale[powers[i]]
            k = 0 if at is None else powers[at]
            coeffs[k] = coeffs.get(k, 0) + n
        out.append((den, coeffs))
    return out


def dist2_of_pairs(pairs):
    """Sum of (numerator / den)^2 over (numerator, den) pairs, as one Fraction."""
    common = lcm(*(den for _, den in pairs))
    return Fraction(sum((n * (common // den)) ** 2 for n, den in pairs), common * common)


def restricted_dist2(restrictions, x):
    """Squared distance at var = x from the restrictions [(den, {power: numerator})]."""
    p, q = x.as_integer_ratio()
    pairs = []
    for den, coeffs in restrictions:
        top = max(coeffs)
        pairs.append((sum(n * p ** k * q ** (top - k) for k, n in coeffs.items()),
                      den * q ** top))
    return dist2_of_pairs(pairs)


def best_value_for(folded, var, assignment):
    """(x, dist2): the capped minimizer of the squared distance along var when
    every residual is linear in it (the current value when none depends on
    it), else the closest of the current value, 0, 1 and -1; and the
    distance as a Fraction-valued function of var's value."""
    restrictions = restrict_each(folded, assignment, var)
    if max((max(c) for _, c in restrictions), default=0) <= 1:
        # (alpha p^2 + 2 beta p q + gamma q^2) / (D q)^2, least at -beta / alpha
        common = lcm(*(den for den, _ in restrictions))
        alpha = beta = gamma = 0
        for den, coeffs in restrictions:
            a, b, w = coeffs.get(1, 0), coeffs.get(0, 0), (common // den) ** 2
            alpha += a * a * w
            beta += a * b * w
            gamma += b * b * w

        def dist2(x):
            p, q = x.as_integer_ratio()
            return Fraction(alpha * p * p + 2 * beta * p * q + gamma * q * q,
                            (common * q) ** 2)
        return (assignment[var] if alpha == 0 else Fraction(*_capped(-beta, alpha))), dist2

    def dist2(x):
        return restricted_dist2(restrictions, x)
    candidates = sorted({assignment[var], Fraction(0), Fraction(1), Fraction(-1)})
    return min(candidates, key=dist2), dist2


def fraction_descend(search, assignment, folded):
    """_Search.descend with every distance a Fraction: two sweeps of
    coordinate descent over search.poly_vars, counting evaluations on search
    and stopping at its budget.  Returns (distance, assignment)."""
    assignment = dict(assignment)
    search.evaluations += 1
    best = dist2_of_pairs([(sum(coeffs.values()), den)
                           for den, coeffs in restrict_each(folded, assignment)])
    for _ in range(2):
        sweep_start = best
        for var in search.poly_vars:
            if search.evaluations >= search.budget:
                return best, assignment
            cand, dist2 = best_value_for(folded, var, assignment)
            if cand != assignment[var]:
                search.evaluations += 1
                d = dist2(cand)
                if d < best:
                    best = d
                    assignment[var] = cand
        if best == sweep_start:
            break
    return best, assignment
