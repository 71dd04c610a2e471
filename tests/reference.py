"""Reference definitions that tests compare against or check with: the
Leibniz derivation, monomial coordinates, the general-position test, the
greedy coordinate complement, the dense bracket and rational Jacobi check,
right-first normal ordering of a generator word, word-by-word evaluation
of an enveloping-algebra element, the Leibniz sum for composing
differential operators, identity, product and substitution on flows (rows
of ExpPoly entries), and the closure search's fold and coordinate descent
on Fractions.  No orbitkit command needs them."""

from fractions import Fraction
from math import comb, lcm

from orbitkit.envelop import MINUS_I, PLUS_I, XI, DiffOp, UEAElement
from orbitkit.errors import DimensionMismatch
from orbitkit.exactlin import Matrix, Q0, Subspace, kernel, rref, unit_vector, vec
from orbitkit.invariants import _capped
from orbitkit.liealg import LieAlgebra
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
            if a[mu, nu]:
                image = image + ExpPoly.variable(other) * a[mu, nu]
        out = out + q.d_dvar(var) * image
    return out


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
