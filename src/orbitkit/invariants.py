"""Polynomials on dual spaces, semi-invariants, and orbit-closure tests.

A dual polynomial lives in the coordinate functions of a dual space (the
basis names of the underlying algebra or of an invariant subspace), possibly
with extra named rational constants.  The infinitesimal coadjoint action is
a derivation on these polynomials, given by one matrix A = ad(x) (restricted
to the ideal when there is one).  Semi-invariants are found by exact linear
algebra on the monomials, one total degree at a time: the derivation acts
directly on monomial exponent tuples and keeps their total degree, so every
matrix of the search is block-diagonal by degree.  A joint eigenspace is the
direct sum of its parts of each degree, and the reduced echelon basis of such
a sum is the union of the parts' bases, so the blocks give the same
polynomials as the whole monomial span would.  Each derivation is built
once per degree as sparse columns, {row: value} with only the nonzero cells
(a derivation moves a monomial to a few others), and these give the rows of
the commutator common kernel, the action on each piece and the weights.  A
piece on which an action A is lam*I is kept as it is: ker(0) is the whole
piece, and its basis is already reduced.  Any other piece splits into
piece.kernel_of(A.shifted(lam)) for each real eigenvalue lam.  The
invariants are the weight-zero part.  A solution becomes an ExpPoly only
at output.

Closure membership returns certificates: a semi-invariant with a nonzero
value is an exact disproof of membership, while a sufficiently close orbit
point found by the seeded search is numeric evidence for membership.  The
search runs on one integer polynomial per choice of exp atoms, the sum of
the squared residuals over one denominator.  Inside it every value is an
integer pair (p, q) with q > 0, reduced for a parameter value and unreduced
for a distance, compared by cross-multiplication; Fractions are built only
for the record it hands back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, groupby
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    InvariantNotVanishing,
    OrbitkitError,
    PreconditionFailed,
)
from .exactlin import Matrix, Q0, Subspace, kernel, unit_vector, vec_scale
from .liealg import LieAlgebra, _gaussian_eigenvalues, _restrict_to
from .symflow import ExpPoly, OrbitMap, orbit_map, _exact_root

NOT_IN_CLOSURE = "not-in-closure"
IN_CLOSURE_NUMERIC = "in-closure-numeric"
EXACT_POINT = "exact-point"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# invariant and semi-invariant search
# ---------------------------------------------------------------------------

def _monomials(names, degree_bound):
    """Exponent tuples of total degree 1..degree_bound, in a fixed order."""
    k = len(names)
    out = []
    for d in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(range(k), d):
            expo = [0] * k
            for i in combo:
                expo[i] += 1
            out.append(tuple(expo))
    return out


def _vector_to_poly(v, names, monomials):
    return ExpPoly({(tuple(sorted((name, k) for name, k in zip(names, expo) if k)), ()): c
                    for c, expo in zip(v, monomials) if c})


def _derivation_columns(a: Matrix, monomials, index):
    """The derivation with action matrix a on the monomials, one sparse column
    {row: value} per monomial, with only the nonzero cells.

    x^alpha goes to sum over nu, mu of alpha_nu * a[mu][nu] * x^(alpha - e_nu + e_mu);
    index maps each monomial to its row.
    """
    a_columns = [[(mu, c) for mu, c in enumerate(col) if c] for col in zip(*a.entries)]
    columns = []
    for alpha in monomials:
        column = {}
        for nu, k in enumerate(alpha):
            if k:
                for mu, c in a_columns[nu]:
                    beta = list(alpha)
                    beta[nu] -= 1
                    beta[mu] += 1
                    row = index[tuple(beta)]
                    column[row] = column.get(row, Q0) + k * c
        columns.append({row: x for row, x in column.items() if x})
    return columns


def _apply(columns, v):
    """The image of the vector v under the map with these sparse columns."""
    image = [Q0] * len(columns)
    for x, column in zip(v, columns):
        if x:
            for row, c in column.items():
                image[row] += x * c
    return tuple(image)


def _dense_rows(columns):
    """The nonzero rows of the map with these sparse columns."""
    rows = {}
    for j, column in enumerate(columns):
        for row, c in column.items():
            rows.setdefault(row, [Q0] * len(columns))[j] = c
    return list(rows.values())


def invariant_space(g: LieAlgebra, semis):
    """Basis of the nonconstant polynomial invariants, from the list that
    semi_invariants(g, degree_bound) returned: its weight-zero members, in
    the echelon order of their span, by degree and then by leading monomial
    in _monomials order."""
    position = {name: i for i, name in enumerate(g.basis_names)}

    def lead(q):
        return min((sum(k for _, k in mono),
                    sorted(position[name] for name, k in mono for _ in range(k)))
                   for mono, _ in q.terms())

    return sorted((q for q, weight in semis if not any(weight)), key=lead)


def semi_invariants(g: LieAlgebra, degree_bound: int, module: Subspace | None = None):
    """Joint rational eigenvectors of the derivation action, with their weights.

    Returns a list of (polynomial, weight covector on g's basis), sorted by
    weight and then by terms; the weight vanishes on the commutator ideal,
    and weight zero means invariant.  The search runs on the monomials of
    each total degree alone, with each derivation as sparse columns; a piece
    whose action is lam*I is kept whole, and only the others go to the
    eigenvalue search (see the module docstring).
    """
    names = g.dual_names(module)
    actions = [g.ad_matrix(unit_vector(g.dim, i), module) for i in range(g.dim)]
    comm = g.commutator_ideal()
    comm_actions = [g.ad_matrix(b, module) for b in comm.basis]
    coords = comm.complement_coordinates()
    results = []
    for _, block in groupby(_monomials(names, degree_bound), key=sum):
        monomials = list(block)
        n = len(monomials)
        index = {m: i for i, m in enumerate(monomials)}
        mats = [_derivation_columns(a, monomials, index) for a in actions]
        comm_rows = [row for a in comm_actions
                     for row in _dense_rows(_derivation_columns(a, monomials, index))]
        pieces = [Subspace.common_kernel(n, [Matrix(comm_rows, n)])]
        for c in coords:
            refined = []
            for piece in pieces:
                az = _restrict_to(partial(_apply, mats[c]), piece)
                # a scalar action lam*I (lam rational, as every entry is) keeps
                # the piece whole: ker(0) is all of it, and its basis is reduced
                if all(x == (az.entries[0][0] if i == j else Q0)
                       for i, row in enumerate(az.entries) for j, x in enumerate(row)):
                    refined.append(piece)
                    continue
                refined += [piece.kernel_of(az.shifted(lam))
                            for lam, _ in _gaussian_eigenvalues(az) if not lam.imag]
            pieces = refined

        for piece in pieces:
            for lead, v in zip(piece.pivots, piece.basis):
                # D_x is linear in x and vanishes on the commutator ideal, so v
                # is an eigenvector of every D_{e_i}; read each weight off one
                # entry
                weight = []
                for mat in mats:
                    image = _apply(mat, v)
                    lam = image[lead] / v[lead]
                    if image != vec_scale(lam, v):
                        raise PreconditionFailed(
                            "semi-invariant candidate is not a joint eigenvector")
                    weight.append(lam)
                results.append((_vector_to_poly(v, names, monomials), tuple(weight)))
    results.sort(key=lambda t: (t[1], sorted(t[0].terms().keys())))
    return results


def vanish_on_orbit(q: ExpPoly, om: OrbitMap) -> bool:
    """Substitute the orbit components into q and test the normal form for 0."""
    comp = dict(zip(om.component_names, om.components))
    clash = (q.variables() - set(om.component_names)) & set(om.params)
    if clash:
        raise DimensionMismatch(
            f"polynomial uses orbit parameters as coordinates: {sorted(clash)}")
    substitution = {v: comp[v] for v in q.poly_variables() if v in comp}
    return q.substitute(substitution).is_zero()


# ---------------------------------------------------------------------------
# closure membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureVerdict:
    """Outcome of an orbit-closure test, with recomputable witness data;
    budget is a soft bound: a search can spend one more evaluation (see
    closure_membership)."""

    kind: str
    tolerance: Fraction
    budget: int
    evaluations: int
    invariant: ExpPoly | None = None
    invariant_value: Fraction | None = None
    assignment: dict | None = None
    exp_atoms: dict | None = None
    squared_distance: Fraction | None = None


def _compile_components(components):
    """Flatten exponential polynomials for fast exact evaluation.

    Returns (compiled, scales).  Each compiled component is a list
    [(coeff, ((var, power), ...), ((var, int_exp), ...))] with Fraction
    coefficients, where exp(a*v) is written u_v^(a*L_v) with L_v = scales[v],
    the lcm of the denominators of v's exponent coefficients, so that the
    atom u_v stands for exp(v / L_v) and every power is an integer.
    """
    scales = {}
    for comp in components:
        for (_, lin), c in comp.terms().items():
            if c.imag or any(a.imag for _, a in lin):
                raise PreconditionFailed(
                    "the closure search needs an orbit with real coefficients "
                    "and real exponents")
            for v, a in lin:
                scales[v] = lcm(scales.get(v, 1), a.denominator)
    compiled = [[(c, mono, tuple((v, int(a * scales[v])) for v, a in lin))
                 for (mono, lin), c in comp.terms().items()]
                for comp in components]
    return compiled, scales


def _fold(compiled, target, atoms):
    """component - target as (den, degrees, terms): integer numerators over den.

    degrees lists (var, top power) per polynomial variable; a term is
    (numerator, powers aligned with degrees), with the atom powers folded in.
    Terms whose numerator is 0 stay, since the search reads the monomials.
    Each coefficient times its positive atom powers is multiplied out on
    integers and reduced by one gcd.
    """
    coeffs = [(-target.numerator, target.denominator, {})]
    for coeff, mono, exps in compiled:
        n, d = coeff.numerator, coeff.denominator
        for v, e in exps:
            atom = atoms[v]
            p, q = atom.numerator, atom.denominator
            if abs(e) * (p.bit_length() + q.bit_length() - 2) > _POWER_BITS_CAP:
                raise PreconditionFailed(
                    f"exp atom {atom} to the power {e} is past the closure search's "
                    f"size cap of {_POWER_BITS_CAP} bits")
            if e < 0:
                p, q, e = q, p, -e
            n *= p ** e
            d *= q ** e
        g = gcd(n, d)
        coeffs.append((n // g, d // g, dict(mono)))
    names = sorted({v for _, _, powers in coeffs for v in powers})
    degrees = tuple((v, max(powers.get(v, 0) for _, _, powers in coeffs)) for v in names)
    den = lcm(*(d for _, d, _ in coeffs))
    return den, degrees, tuple((n * (den // d), tuple(powers.get(v, 0) for v in names))
                               for n, d, powers in coeffs)


def _restrict(folded, assignment, var):
    """{power of var: numerator} for one folded residual, with every other
    variable's value p/q from assignment put in as p^k * q^(top - k)."""
    _, degrees, terms = folded
    at, known = None, []
    for i, (v, top) in enumerate(degrees):
        if v == var:
            at = i
            continue
        known.append((i, _powers(assignment[v], top)))
    coeffs = {}
    for n, powers in terms:
        for i, scale in known:
            n *= scale[powers[i]]
        k = 0 if at is None else powers[at]
        coeffs[k] = coeffs.get(k, 0) + n
    return coeffs


class _Gram(NamedTuple):
    """S = sum over residuals of (L / den)^2 * R^2, for one choice of atoms.

    R is a folded residual's integer numerator polynomial with its like
    monomials merged, and L the lcm of the dens, so the squared distance is
    S / den with den = L^2.  A term is (coefficient, exponents aligned with
    the search's poly_vars); tops holds S's top power of each variable, and
    along[j] the terms as (power of variable j, coefficient, the other
    (index, exponent) pairs).  linear[j] says whether every folded residual
    has top power at most 1 in variable j, which picks the closed-form step.
    """

    den: int
    tops: tuple
    linear: tuple
    terms: tuple
    along: tuple


def _gram(folded, names) -> _Gram:
    den = lcm(*(d for d, _, _ in folded))
    index = {v: i for i, v in enumerate(names)}
    gram = {}
    for d, degrees, terms in folded:
        at = [index[v] for v, _ in degrees]
        merged = {}
        for n, powers in terms:
            key = [0] * len(names)
            for i, k in zip(at, powers):
                key[i] = k
            key = tuple(key)
            merged[key] = merged.get(key, 0) + n
        items = [(key, n * (den // d)) for key, n in merged.items() if n]
        for a, (ka, na) in enumerate(items):
            for b, (kb, nb) in enumerate(items[a:]):
                key = tuple(x + y for x, y in zip(ka, kb))
                gram[key] = gram.get(key, 0) + (na * nb if b == 0 else 2 * na * nb)
    terms = tuple((n, key) for key, n in gram.items() if n)
    return _Gram(
        den * den,
        tuple(max((key[j] for _, key in terms), default=0) for j in range(len(names))),
        tuple(max(top for _, degrees, _ in folded for v, top in degrees if v == name) <= 1
              for name in names),
        terms,
        tuple(tuple((key[j], n, tuple((i, e) for i, e in enumerate(key) if i != j))
                    for n, key in terms) for j in range(len(names))))


def _powers(x, top):
    """[p^k * q^(top - k) for k = 0..top] for the pair x = (p, q): x^k
    homogenised to top."""
    p, q = x
    return [p ** k * q ** (top - k) for k in range(top + 1)]


def _step(gram, j, tables, current):
    """(candidate, den, coeffs) along the j-th variable, the others at the
    values whose _powers tables are given: S there is
    sum(coeffs[k] * x^k) / den, and _at gives its value at one x.

    S is grouped by the power of the variable, each coefficient evaluated
    at the other values over one denominator.  With linear residuals the
    candidate is the capped minimizer of the quadratic c2 x^2 + c1 x + c0,
    or the current value when c2 is 0; otherwise it is the closest of the
    current value, 0, 1 and -1, the smallest value on a tie.  Values are
    reduced (p, q) pairs.
    """
    top = gram.tops[j]
    coeffs = [0] * (top + 1)
    for k, n, others in gram.along[j]:
        for i, e in others:
            n *= tables[i][e]
        coeffs[k] += n
    den = gram.den
    for i, table in enumerate(tables):
        if i != j:
            den *= table[0]
    if gram.linear[j]:
        c2 = coeffs[2] if top == 2 else 0
        return (current if c2 == 0 else _capped(-coeffs[1], 2 * c2)), den, coeffs
    # heuristic candidate set for higher degree, in increasing order
    p, q = current
    below = [x for x in _UNITS if x[0] * q < p]
    above = [x for x in _UNITS if x[0] * q > p]
    best = None
    for x in (*below, current, *above):
        n, d = _at(den, coeffs, _powers(x, top))
        if best is None or n * best[2] < best[1] * d:
            best = (x, n, d)
    return best[0], den, coeffs


def _at(den, coeffs, table):
    """sum(coeffs[k] * x^k) / den at the x whose _powers table is given, as
    an unreduced (numerator, positive denominator) pair."""
    return sum(map(mul, coeffs, table)), den * table[0]


# -1, 0 and 1 as pairs: the extra candidates of a step of degree above 2
_UNITS = ((-1, 1), (0, 1), (1, 1))
# minimizers are rounded to this denominator bound: unbounded exact
# coordinate descent squares denominators every sweep and stalls
_DENOMINATOR_CAP = 10 ** 24
# _fold refuses an atom power past this many bits, counted as |exponent| times
# the bits of the atom's numerator and denominator beyond one each (so the
# atom 1 counts 0): exponents from large integer roots would fill memory
_POWER_BITS_CAP = 2 ** 16


def _capped(n, d):
    """Fraction(n, d).limit_denominator(_DENOMINATOR_CAP) as its reduced
    (numerator, positive denominator) pair, computed on integers.

    This is CPython's continued-fraction algorithm: the last convergent p1/q1
    with q1 <= cap, or the semiconvergent beyond it when that one is closer
    (a tie keeps p1/q1).  With den the denominator n/d starts with, p1/q1 lies
    d / (q1 * den) from it.  An unreduced n/d has the same partial quotients,
    so no gcd is taken first; an expansion that ends within the cap is n/d.
    Convergents and semiconvergents are in lowest terms already, so only a
    denominator within the cap takes a gcd.
    """
    if d < 0:
        n, d = -n, -d
    if d <= _DENOMINATOR_CAP:
        g = gcd(n, d)
        return n // g, d // g
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while d:
        a, r = divmod(n, d)
        q2 = q0 + a * q1
        if q2 > _DENOMINATOR_CAP:
            k = (_DENOMINATOR_CAP - q0) // q1
            if 2 * d * (q0 + k * q1) <= den:
                return p1, q1
            return p0 + k * p1, q0 + k * q1
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, r
    return p1, q1


class _Search:
    """Seeded search for an orbit point near the targets.

    _offer runs one attempt at fixed atoms and alone replaces the record
    self.best = (distance, assignment, atoms).  Parameter values (in the
    assignment, pins, starts and candidates) are reduced integer pairs
    (p, q) with q > 0, and the distance an unreduced one; atoms stay
    Fractions.  run() offers, in order:
    1. pin starts at unit atoms; 2. solved atoms, unless the record is exact;
    3. for a polynomial orbit up to 6 seeded restarts, else rounds scaling
    one atom of the record by each factor, with up to 12 random atom
    restarts in all after rounds that do not improve.  The stop predicate is
    _stopped: evaluations >= budget or distance <= tol^2.  Phase 3 checks the
    budget before each offer and _stopped after each improvement and each
    atom's factors, so a round begun within tolerance tries the first atom.

    _offer builds the _Gram polynomial S once per choice of atoms, and the
    descent evaluates only S: a step groups S by the power of its variable,
    evaluated at the other values over one denominator.  When every folded
    residual is linear in the variable, S is the quadratic c2 x^2 + c1 x + c0
    there, and its minimizer -c1 / (2 c2) is rounded by _capped,
    limit_denominator computed on integers.  Distances are compared by
    cross-multiplication; run() hands the record back on Fractions.
    """

    def __init__(self, om, targets, tol, budget, seed):
        self.targets = targets
        self.tol2 = tol * tol
        self.budget = budget
        self.evaluations = 0
        self.rng = random.Random(seed)
        self.poly_vars = sorted({v for c in om.components for v in c.poly_variables()})
        self.compiled, self.scales = _compile_components(om.components)
        self.exp_vars = sorted(self.scales)
        self.best = None

    def _stopped(self):
        n, d = self.best[0]
        return (self.evaluations >= self.budget
                or n * self.tol2.denominator <= self.tol2.numerator * d)

    def dist2(self, gram, tables):
        """One evaluation: S at the values whose _powers tables are given, as
        an unreduced (numerator, positive denominator) pair."""
        self.evaluations += 1
        total = 0
        for n, key in gram.terms:
            for table, e in zip(tables, key):
                n *= table[e]
            total += n
        den = gram.den
        for table in tables:
            den *= table[0]
        return total, den

    def descend(self, assignment, gram):
        """Two sweeps of exact coordinate descent from a copy of assignment;
        returns (distance as an unreduced pair, assignment)."""
        assignment = dict(assignment)
        tops = gram.tops
        tables = [_powers(assignment[v], top) for v, top in zip(self.poly_vars, tops)]
        best = self.dist2(gram, tables)
        for _ in range(2):
            improved = False
            for j, var in enumerate(self.poly_vars):
                if self.evaluations >= self.budget:
                    return best, assignment
                cand, den, coeffs = _step(gram, j, tables, assignment[var])
                if cand != assignment[var]:
                    # one evaluation: the distance at cand along var
                    self.evaluations += 1
                    table = _powers(cand, tops[j])
                    n, d = _at(den, coeffs, table)
                    if n * best[1] < best[0] * d:
                        best = (n, d)
                        assignment[var] = cand
                        tables[j] = table
                        improved = True
            if not improved:
                break
        return best, assignment

    def _random_start(self):
        start = {}
        for v in self.poly_vars:
            n = self.rng.randint(1, 4) * self.rng.choice((-1, 1))
            d = self.rng.randint(1, 3)
            g = gcd(n, d)
            start[v] = (n // g, d // g)
        return start

    def _linear_pin(self, folded, pinned):
        """(var, value) when the residual is linear in one unpinned variable.

        Every variable of degrees occurs in some term (numerator 0 included),
        so two unpinned ones, or one of top power above 1, mean a term that
        is not linear in a single variable.
        """
        free = [(v, top) for v, top in folded[1] if v not in pinned]
        if len(free) != 1 or free[0][1] != 1:
            return None
        var = free[0][0]
        coeffs = _restrict(folded, pinned, var)
        if coeffs[1] == 0:
            return None
        return var, _capped(-coeffs.get(0, 0), coeffs[1])

    def _multipass_pin(self, folded, skip=None, preset=None):
        """Solve components exactly one variable at a time, in passes.

        Mirrors how witness sequences are built by hand: components that are
        linear in a single remaining unknown get solved exactly; everything
        still unpinned afterwards is set to zero.  _linear_pin sees pinned
        variables substituted, so it returns an unpinned one.
        """
        pinned = dict(preset or {})
        progress = True
        while progress:
            progress = False
            for ci, f in enumerate(folded):
                if ci == skip:
                    continue
                got = self._linear_pin(f, pinned)
                if got is not None:
                    pinned[got[0]] = got[1]
                    progress = True
        return {v: pinned.get(v, (0, 1)) for v in self.poly_vars}

    def _pin_starts(self, atoms, folded):
        starts = [self._multipass_pin(folded)]
        for ci in range(len(folded)):
            starts.append(self._multipass_pin(folded, skip=ci))
        # product breaker: a large dyadic value for the first variable,
        # sized against the smallest atom, unlocks x*y-coupled components
        if self.poly_vars:
            low = min(atoms.values(), default=1)
            h = max(0, (-low.numerator.bit_length() + low.denominator.bit_length() + 1) // 2)
            first = self.poly_vars[0]
            for sign in (1, -1):
                starts.append(self._multipass_pin(
                    folded, preset={first: (sign * 2 ** h, 1)}))
        unique = []
        for s in starts:
            if s not in unique:
                unique.append(s)
        return unique

    def _offer(self, atoms, extra_starts=()):
        """Descend from extra_starts, then the pin starts, keeping any better
        record; the first start always runs, the others stop at the budget or
        after an exact hit.  Returns whether the record improved."""
        # atoms are fixed within an attempt: fold them in once
        folded = [_fold(c, t, atoms) for c, t in zip(self.compiled, self.targets)]
        gram = _gram(folded, self.poly_vars)
        record = self.best
        for start in (*extra_starts, *self._pin_starts(atoms, folded)):
            d, a = self.descend(start, gram)
            if self.best is None or d[0] * self.best[0][1] < self.best[0][0] * d[1]:
                self.best = (d, a, atoms)
            if d[0] == 0 or self.evaluations >= self.budget:
                break
        return self.best is not record

    def _solved_atoms(self):
        """Atoms solved exactly from components that are pure single-atom
        monomials, e.g. exp(-s) against a positive rational target."""
        atoms = {v: Fraction(1) for v in self.exp_vars}
        for compiled, tgt in zip(self.compiled, self.targets):
            if len(compiled) != 1:
                continue
            coeff, mono, exps = compiled[0]
            if mono or len(exps) != 1 or coeff == 0:
                continue
            v, e = exps[0]
            if atoms[v] != 1:
                continue
            value = tgt / coeff
            if value <= 0:
                continue
            root = _exact_root(value if e > 0 else 1 / value, abs(e))
            if root is not None and root > 0:
                atoms[v] = root
        return atoms

    def _scale_atoms(self):
        """Phase 3 for an orbit with exp atoms."""
        factors = (Fraction(1, 16), Fraction(16), Fraction(1, 2), Fraction(2))
        restarts = 12
        while self.evaluations < self.budget:
            round_start = self.best
            for var in self.exp_vars:
                for factor in factors:
                    if self.evaluations >= self.budget:
                        return
                    _, a, atoms = self.best
                    improved = self._offer({**atoms, var: atoms[var] * factor}, (a,))
                    if improved and self._stopped():
                        return
                if self._stopped():
                    return
            if self.best is not round_start:
                continue
            while restarts and self.evaluations < self.budget:
                restarts -= 1
                atoms = {v: Fraction(2) ** self.rng.randint(-24, 8) for v in self.exp_vars}
                if self._offer(atoms, (self._random_start(),)):
                    break
            else:
                return

    def run(self):
        unit = {v: Fraction(1) for v in self.exp_vars}
        self._offer(unit)
        solved = self._solved_atoms()
        if self.best[0][0] and solved != unit:
            self._offer(solved, (self.best[1],))
        if not self.exp_vars:
            for _ in range(6):
                if self._stopped():
                    break
                self._offer(unit, (self._random_start(),))
        elif self.best[0][0]:
            self._scale_atoms()
        (n, d), assignment, atoms = self.best
        return Fraction(n, d), {v: Fraction(*x) for v, x in assignment.items()}, atoms


def closure_membership(om: OrbitMap, target, invariants=(),
                       tol: Fraction = Fraction(1, 10 ** 6),
                       budget: int = 10 ** 4, seed: int = 0) -> ClosureVerdict:
    """Certificate-producing test for target in the closure of the orbit.

    Every supplied invariant must vanish identically on the orbit (checked
    symbolically).  A nonzero invariant value at the target is an exact
    NOT-IN-CLOSURE certificate.  Otherwise a seeded coordinate-descent
    search over parameter values and positive rational exp-atom values
    looks for orbit points near the target: exact hit, distance below tol,
    or an inconclusive budget report.  A target equal to the orbit's
    rational start is an exact hit with no evaluation: every parameter 0,
    every exp atom 1.

    The budget is a soft bound on the evaluations.  The first pin start
    always runs, and phase 2 (atoms solved from single-atom components)
    runs whenever the record is not exact, so a search whose phase 1 spent
    a budget of at least 1 can spend one more evaluation (6 at budget 5,
    for example).  Every later step checks the budget first.

    The search atom u_v stands for exp(v / L_v), where L_v is the lcm of the
    denominators of v's exponent coefficients, so every power it takes is an
    integer; the reported exp_atoms are u_v^L_v = exp(v).  An orbit with a
    complex coefficient or exponent raises PreconditionFailed before any
    evaluation, unless a certificate or the start decides first.

    For each choice of atoms, every component minus its target is folded
    once into integer numerators over one denominator, and the squared
    residuals are summed once into one integer polynomial S over L^2.  The
    search keeps every parameter value as a reduced integer pair (p, q)
    with q > 0 and every distance, S at a point, as an unreduced one, and
    compares them by cross-multiplication.  A coordinate step along a
    variable in which every residual is linear reads the distance off S's
    quadratic coefficients there, and rounds its minimizer to the
    denominator cap with limit_denominator's continued fractions on
    integers.  This is the exact arithmetic of evaluating on Fractions, so
    the search visits the same points with the same evaluation count;
    Fractions are built only for the record it returns.  A search
    verdict's witness is evaluated again through the orbit map, and a
    distance other than squared_distance raises OrbitkitError.

    A negative tol or a budget below 1 raises PreconditionFailed.
    """
    target = tuple(Fraction(x) for x in target)
    if len(target) != len(om.components):
        raise DimensionMismatch("target length differs from the orbit components")
    tol = Fraction(tol)
    if tol < 0:
        raise PreconditionFailed(f"closure tolerance must be at least 0, got {tol}")
    if budget < 1:
        raise PreconditionFailed(f"closure search budget must be at least 1, got {budget}")
    for q in invariants:
        if not vanish_on_orbit(q, om):
            raise InvariantNotVanishing(f"{q} does not vanish on the orbit")
    point = dict(zip(om.component_names, target))
    for q in invariants:
        val = q.evaluate(point)
        if val != 0:
            return ClosureVerdict(kind=NOT_IN_CLOSURE, tolerance=tol, budget=budget,
                                  evaluations=0, invariant=q, invariant_value=val)
    # the orbit map evaluates to its start at the identity; compared directly,
    # since evaluating a complex exponent raises
    if not any(isinstance(x, ExpPoly) for x in om.start) and target == tuple(om.start):
        return ClosureVerdict(
            kind=EXACT_POINT, tolerance=tol, budget=budget, evaluations=0,
            assignment={v: Fraction(0) for v in sorted(
                set().union(*(c.poly_variables() for c in om.components)))},
            exp_atoms={v: Fraction(1) for v in sorted(
                set().union(*(c.exp_variables() for c in om.components)))},
            squared_distance=Fraction(0))

    search = _Search(om, target, tol, budget, seed)
    best_d, best_a, best_u = search.run()
    best_atoms = {v: u ** search.scales[v] for v, u in best_u.items()}
    point = om.evaluate(best_a, best_atoms)
    if sum(((x - t) ** 2 for x, t in zip(point, target)), Fraction(0)) != best_d:
        raise OrbitkitError("closure search witness does not re-evaluate "
                            "to its squared distance")
    mixed = set(search.poly_vars) & set(search.exp_vars)
    if best_d == 0:
        consistent = all(best_a[v] == 0 and best_atoms[v] == 1 for v in mixed)
        kind = EXACT_POINT if consistent else IN_CLOSURE_NUMERIC
    elif best_d <= search.tol2:
        kind = IN_CLOSURE_NUMERIC
    else:
        kind = INCONCLUSIVE
    return ClosureVerdict(kind=kind, tolerance=tol, budget=budget,
                          evaluations=search.evaluations,
                          assignment=best_a, exp_atoms=best_atoms,
                          squared_distance=best_d)


# ---------------------------------------------------------------------------
# orbit certificates and the critical-functional test
# ---------------------------------------------------------------------------

def orbit_certificates(g: LieAlgebra, f, om: OrbitMap, degree: int = 2):
    """Semi-invariant combinations that vanish identically on the orbit of f.

    Weight-zero semi-invariants are constant along the orbit, so q - q(f)
    qualifies; within each nonzero weight the combinations vanishing at f
    vanish on the whole orbit.  Everything returned is re-verified
    symbolically against the orbit map.
    """
    module = om.restricted_to
    start_point = dict(zip(om.component_names,
                           [x if not isinstance(x, ExpPoly) else None
                            for x in om.start]))
    if any(v is None for v in start_point.values()):
        raise DimensionMismatch("orbit certificates need a rational starting functional")
    by_weight = {}
    for q, weight in semi_invariants(g, degree, module):
        by_weight.setdefault(weight, []).append(q)
    candidates = []
    zero_weight = tuple(Fraction(0) for _ in range(g.dim))
    for weight, polys in sorted(by_weight.items()):
        values = [q.evaluate(start_point) for q in polys]
        if weight == zero_weight:
            candidates.extend(q - v for q, v in zip(polys, values)
                              if not (q - v).is_zero())
        else:
            rows = [values]
            rel = kernel(Matrix(rows))
            for coeffs in rel.basis:
                q = ExpPoly()
                for c, poly in zip(coeffs, polys):
                    q = q + poly * c
                if not q.is_zero():
                    candidates.append(q)
    return [q for q in candidates if vanish_on_orbit(q, om)]


CRITICAL = "critical"
IN_CLOSURE_EVIDENCE = "in-closure-evidence"
NOT_IN_OMEGA = "not-in-omega"
SAME_N_ORBIT = "same-n-orbit"


@dataclass(frozen=True)
class CriticalVerdict:
    """Classification of a functional against the orbit of a reference one."""

    label: str
    restricted: ClosureVerdict
    full: ClosureVerdict | None = None
    notes: tuple = ()


def critical_test(g: LieAlgebra, f, target, steps, degree: int = 2,
                  tol: Fraction = Fraction(1, 10 ** 6), budget: int = 10 ** 4,
                  seed: int = 0) -> CriticalVerdict:
    """Is target critical for the orbit of f?

    First decides membership of target restricted to the nilradical in the
    closure of the restricted orbit (the defining condition for the closed
    region Omega); an exact hit there means the two functionals share the
    restricted orbit.  Inside Omega, the full-orbit closure is tested with
    semi-invariant certificates: an exact nonvanishing certificate makes
    the target critical.  steps are the orbit_map steps for both orbits.
    """
    f = tuple(Fraction(x) for x in f)
    target = tuple(Fraction(x) for x in target)
    nilrad = g.nilradical()
    om_n = orbit_map(g, f, steps, restrict_to=nilrad)
    target_n = nilrad.restrict(target)
    restricted = closure_membership(om_n, target_n, (), tol, budget, seed)
    if restricted.kind == EXACT_POINT:
        return CriticalVerdict(label=SAME_N_ORBIT, restricted=restricted)
    if restricted.kind == INCONCLUSIVE:
        return CriticalVerdict(
            label=NOT_IN_OMEGA, restricted=restricted,
            notes=("restricted search exhausted its budget; membership in the "
                   "closed region is numeric evidence only",))
    om = orbit_map(g, f, steps)
    certificates = orbit_certificates(g, f, om, degree)
    full = closure_membership(om, target, certificates, tol, budget, seed)
    if full.kind == NOT_IN_CLOSURE:
        return CriticalVerdict(label=CRITICAL, restricted=restricted, full=full)
    label = IN_CLOSURE_EVIDENCE
    notes = ()
    if full.kind == INCONCLUSIVE:
        notes = ("full-orbit search exhausted its budget without a certificate "
                 "either way",)
    return CriticalVerdict(label=label, restricted=restricted, full=full, notes=notes)
