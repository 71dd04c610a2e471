"""Polynomials on dual spaces, semi-invariants, and orbit-closure tests.

A dual polynomial lives in the coordinate functions of a dual space (the
basis names of the underlying algebra or of an invariant subspace), possibly
with extra named rational constants.  The infinitesimal coadjoint action is
a derivation on these polynomials, given by one matrix A = ad(x) (restricted
to the ideal when there is one).  Invariants and semi-invariants are found by
exact linear algebra on the monomial space: the derivation acts directly on
monomial exponent tuples, and a solution becomes an ExpPoly only at output.

Closure membership returns certificates: a semi-invariant with a nonzero
value is an exact disproof of membership, while a sufficiently close orbit
point found by the seeded search is numeric evidence for membership.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

from .errors import (
    DimensionMismatch,
    InvariantNotVanishing,
    NotIdeal,
    PreconditionFailed,
)
from .exactlin import GaussianRational, Matrix, Q0, Subspace, kernel, unit_vector, vec_dot
from .liealg import LieAlgebra, _gaussian_eigenvalues, _restrict_to
from .symflow import ExpPoly, OrbitMap, orbit_map, _exact_root

NOT_IN_CLOSURE = "not-in-closure"
IN_CLOSURE_NUMERIC = "in-closure-numeric"
EXACT_POINT = "exact-point"
INCONCLUSIVE = "inconclusive"


def evaluate_polynomial(q: ExpPoly, point: dict):
    """Exact value of an exponential-free polynomial at named coordinates."""
    v = q.evaluate(point)
    return v.rational() if v.is_real else v


# ---------------------------------------------------------------------------
# the derivation action
# ---------------------------------------------------------------------------

def _dual_names(g: LieAlgebra, module: Subspace | None):
    """Names of the dual coordinates; a module must be an ideal."""
    if module is None:
        return g.basis_names
    if not g.is_ideal(module):
        raise NotIdeal("the coordinate space must be an invariant subspace")
    return g.subspace_names(module)


def _action(g: LieAlgebra, x, module: Subspace | None) -> Matrix:
    """A = ad(x) on g, or on the ideal module in its canonical basis.

    The derivation of x sends the coordinate e_nu to sum_mu A[mu][nu] e_mu.
    """
    if isinstance(x, str):
        x = g.basis_vector(x)
    a = g.ad_matrix(x)
    return a if module is None else _restrict_to(a, module)


def derivation(m: LieAlgebra, x, q: ExpPoly, module: Subspace | None = None) -> ExpPoly:
    """The derivation with (X . e_nu) = (h -> h([X, e_nu])), extended by Leibniz."""
    names = _dual_names(m, module)
    a = _action(m, x, module)
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


def _poly_to_vector(q: ExpPoly, names, monomials):
    index = {m: i for i, m in enumerate(monomials)}
    pos = {n: i for i, n in enumerate(names)}
    out = [Q0] * len(monomials)
    for (mono, expo), c in q.terms().items():
        if expo != (GaussianRational(0), ()):
            raise DimensionMismatch("polynomial has exponential terms")
        key = [0] * len(names)
        for v, k in mono:
            key[pos[v]] = k
        key = tuple(key)
        if key not in index:
            raise DimensionMismatch("polynomial degree exceeds the monomial space")
        out[index[key]] = c.rational()
    return tuple(out)


def _vector_to_poly(v, names, monomials):
    q = ExpPoly()
    for c, expo in zip(v, monomials):
        if c:
            p = ExpPoly.constant(c)
            for name, k in zip(names, expo):
                if k:
                    p = p * ExpPoly.variable(name) ** k
            q = q + p
    return q


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
                c = a[mu, nu]
                if c:
                    beta = list(alpha)
                    beta[nu] -= 1
                    beta[mu] += 1
                    rows[index[tuple(beta)]][col] += k * c
    return Matrix(rows)


def invariant_space(m: LieAlgebra, degree_bound: int, module: Subspace | None = None):
    """Basis of the nonconstant polynomial invariants up to the degree bound."""
    names = _dual_names(m, module)
    monomials = _monomials(names, degree_bound)
    space = Subspace.full(len(monomials))
    for i in range(m.dim):
        mat = _derivation_matrix(_action(m, unit_vector(m.dim, i), module), monomials)
        space = space.intersect(kernel(mat))
    return [_vector_to_poly(v, names, monomials) for v in space.basis]


def semi_invariants(g: LieAlgebra, degree_bound: int, module: Subspace | None = None):
    """Joint rational eigenvectors of the derivation action, with their weights.

    Returns a list of (polynomial, weight covector on g's basis); the weight
    vanishes on the commutator ideal, and weight zero means invariant.
    """
    names = _dual_names(g, module)
    monomials = _monomials(names, degree_bound)
    mats = [_derivation_matrix(_action(g, unit_vector(g.dim, i), module), monomials)
            for i in range(g.dim)]

    comm = g.commutator_ideal()
    space = Subspace.full(len(monomials))
    for b in comm.basis:
        mat = _derivation_matrix(_action(g, b, module), monomials)
        space = space.intersect(kernel(mat))

    pieces = [space]
    for c in comm.complement_coordinates():
        refined = []
        for piece in pieces:
            if piece.dim == 0:
                continue
            az = _restrict_to(mats[c], piece)
            for lam, _ in _gaussian_eigenvalues(az):
                if not lam.is_real:
                    continue
                eig = kernel(az - Matrix.identity(az.rows).scale(lam.re))
                sub = Subspace.from_vectors(len(monomials), piece.combinations(eig.basis))
                if sub.dim:
                    refined.append(sub)
        pieces = refined

    results = []
    for piece in pieces:
        for v in piece.basis:
            # D_x is linear in x and vanishes on the commutator ideal, so v is
            # an eigenvector of every D_{e_i}; read each weight off one entry
            lead = next(j for j, c in enumerate(v) if c)
            weight = []
            for mat in mats:
                image = mat.apply(v)
                lam = image[lead] / v[lead]
                if image != tuple(lam * c for c in v):
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
    """Outcome of an orbit-closure test, with recomputable witness data."""

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
        for (_, (const, lin)), c in comp.terms().items():
            if not c.is_real or const or any(not a.is_real for _, a in lin):
                raise PreconditionFailed(
                    "the closure search needs an orbit with real coefficients "
                    "and real exponents without a constant part")
            for v, a in lin:
                scales[v] = lcm(scales.get(v, 1), a.re.denominator)
    compiled = [[(c.rational(), mono, tuple((v, int(a.re * scales[v])) for v, a in lin))
                 for (mono, (_, lin)), c in comp.terms().items()]
                for comp in components]
    return compiled, scales


def _compiled_value(compiled, assignment, atoms):
    total = Fraction(0)
    for coeff, mono, exps in compiled:
        value = coeff
        for v, k in mono:
            value = value * assignment[v] ** k
        for v, e in exps:
            value = value * atoms[v] ** e
        total += value
    return total


def _univariate_restriction(compiled, var, assignment, atoms):
    """Coefficients {power: value} of a compiled component as a polynomial
    in var, all other variables fixed."""
    coeffs = {}
    for c, mono, exps in compiled:
        power = 0
        value = c
        for v, k in mono:
            if v == var:
                power += k
            else:
                value = value * assignment[v] ** k
        for v, e in exps:
            value = value * atoms[v] ** e
        coeffs[power] = coeffs.get(power, Fraction(0)) + value
    return coeffs


# minimizers are rounded to this denominator bound: unbounded exact
# coordinate descent squares denominators every sweep and stalls
_DENOMINATOR_CAP = 10 ** 24


def _best_value_for(compiled_components, targets, var, assignment, atoms, current):
    """Near-exact minimizer of the squared distance along one coordinate."""
    restrictions = [_univariate_restriction(c, var, assignment, atoms)
                    for c in compiled_components]
    max_deg = max((max(r) for r in restrictions if r), default=0)
    if max_deg <= 1:
        # quadratic in var: closed-form minimizer
        alpha = Fraction(0)
        beta = Fraction(0)
        for r, tgt in zip(restrictions, targets):
            a = r.get(1, Fraction(0))
            b = r.get(0, Fraction(0)) - tgt
            alpha += a * a
            beta += 2 * a * b
        if alpha == 0:
            return current
        return (-beta / (2 * alpha)).limit_denominator(_DENOMINATOR_CAP)
    # heuristic candidate set for higher degree
    candidates = {current, Fraction(0), Fraction(1), Fraction(-1)}

    def dist2_at(x):
        total = Fraction(0)
        for r, tgt in zip(restrictions, targets):
            val = sum((cv * x ** p for p, cv in r.items()), Fraction(0))
            total += (val - tgt) ** 2
        return total

    return min(sorted(candidates), key=dist2_at)


class _Search:
    def __init__(self, om, targets, tol, budget, seed):
        self.targets = targets
        self.tol2 = tol * tol
        self.budget = budget
        self.evaluations = 0
        self.rng = random.Random(seed)
        self.poly_vars = sorted({v for c in om.components for v in c.poly_variables()})
        self.compiled, self.scales = _compile_components(om.components)
        self.exp_vars = sorted(self.scales)

    def dist2(self, assignment, atoms):
        self.evaluations += 1
        total = Fraction(0)
        for compiled, tgt in zip(self.compiled, self.targets):
            total += (_compiled_value(compiled, assignment, atoms) - tgt) ** 2
        return total

    def descend(self, assignment, atoms, sweeps=3):
        assignment = dict(assignment)
        best = self.dist2(assignment, atoms)
        for _ in range(sweeps):
            improved = False
            for var in self.poly_vars:
                if self.evaluations >= self.budget:
                    return best, assignment
                cand = _best_value_for(self.compiled, self.targets, var,
                                       assignment, atoms, assignment[var])
                if cand != assignment[var]:
                    old = assignment[var]
                    assignment[var] = cand
                    d = self.dist2(assignment, atoms)
                    if d < best:
                        best = d
                        improved = True
                    else:
                        assignment[var] = old
            if not improved:
                break
        return best, assignment

    def _random_start(self):
        return {v: Fraction(self.rng.randint(1, 4) * self.rng.choice((-1, 1)),
                            self.rng.randint(1, 3))
                for v in self.poly_vars}

    def _linear_pin(self, compiled, target, pinned, atoms):
        """(var, value) when the component is linear in one unpinned variable."""
        the_var = None
        slope = Fraction(0)
        offset = Fraction(0)
        for coeff, mono, exps in compiled:
            value = coeff
            free = []
            for v, k in mono:
                if v in pinned:
                    value = value * pinned[v] ** k
                else:
                    free.append((v, k))
            for v, e in exps:
                value = value * atoms[v] ** e
            if not free:
                offset += value
                continue
            if len(free) > 1 or free[0][1] > 1:
                return None
            v = free[0][0]
            if the_var is None:
                the_var = v
            elif the_var != v:
                return None
            slope += value
        if the_var is None or slope == 0:
            return None
        return the_var, ((target - offset) / slope).limit_denominator(_DENOMINATOR_CAP)

    def _multipass_pin(self, atoms, skip=None, preset=None):
        """Solve components exactly one variable at a time, in passes.

        Mirrors how witness sequences are built by hand: components that are
        linear in a single remaining unknown get solved exactly; everything
        still unpinned afterwards is set to zero.
        """
        pinned = dict(preset or {})
        progress = True
        while progress:
            progress = False
            for ci, compiled in enumerate(self.compiled):
                if ci == skip:
                    continue
                got = self._linear_pin(compiled, self.targets[ci], pinned, atoms)
                if got is not None and got[0] not in pinned:
                    pinned[got[0]] = got[1]
                    progress = True
        return {v: pinned.get(v, Fraction(0)) for v in self.poly_vars}

    def _pin_starts(self, atoms):
        starts = [self._multipass_pin(atoms)]
        for ci in range(len(self.compiled)):
            starts.append(self._multipass_pin(atoms, skip=ci))
        # product breaker: a large dyadic value for the first variable,
        # sized against the smallest atom, unlocks x*y-coupled components
        if self.poly_vars:
            low = min(atoms.values(), default=Fraction(1))
            h = max(0, (-low.numerator.bit_length() + low.denominator.bit_length() + 1) // 2)
            first = self.poly_vars[0]
            for sign in (1, -1):
                starts.append(self._multipass_pin(
                    atoms, preset={first: Fraction(sign * 2 ** h)}))
        unique = []
        for s in starts:
            if s not in unique:
                unique.append(s)
        return unique

    def _attempt(self, atoms, extra_starts=()):
        best = None
        starts = list(extra_starts) + self._pin_starts(atoms)
        for start in starts:
            if best is not None and self.evaluations >= self.budget:
                break
            d, a = self.descend(dict(start), atoms, sweeps=2)
            if best is None or d < best[0]:
                best = (d, a)
            if d == 0:
                break
        return best

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

    def run(self):
        atoms = {v: Fraction(1) for v in self.exp_vars}
        best_d, best_a = self._attempt(atoms)
        best_atoms = dict(atoms)
        if best_d == 0:
            return best_d, best_a, best_atoms
        solved = self._solved_atoms()
        if solved != atoms:
            got = self._attempt(solved, extra_starts=(best_a,))
            if got is not None and got[0] < best_d:
                best_d, best_a = got
                best_atoms = dict(solved)
            if best_d == 0:
                return best_d, best_a, best_atoms
        if not self.exp_vars:
            # polynomial orbit: pin starts plus a few seeded restarts
            for _ in range(6):
                if self.evaluations >= self.budget or best_d <= self.tol2:
                    break
                got = self._attempt(atoms, extra_starts=(self._random_start(),))
                if got is not None and got[0] < best_d:
                    best_d, best_a = got
            return best_d, best_a, best_atoms
        factors = (Fraction(1, 16), Fraction(16), Fraction(1, 2), Fraction(2))
        failed_restarts = 0
        while self.evaluations < self.budget:
            improved = False
            for var in self.exp_vars:
                for factor in factors:
                    if self.evaluations >= self.budget:
                        break
                    trial_atoms = dict(best_atoms)
                    trial_atoms[var] = trial_atoms[var] * factor
                    got = self._attempt(trial_atoms, extra_starts=(best_a,))
                    if got is not None and got[0] < best_d:
                        best_d, best_a = got
                        best_atoms = trial_atoms
                        improved = True
                        if best_d == 0 or best_d <= self.tol2:
                            break
                if best_d == 0 or best_d <= self.tol2:
                    break
            if best_d == 0 or best_d <= self.tol2:
                break
            if not improved:
                progress = False
                while failed_restarts < 12 and self.evaluations < self.budget:
                    trial_atoms = {v: Fraction(2) ** self.rng.randint(-24, 8)
                                   for v in self.exp_vars}
                    got = self._attempt(trial_atoms, extra_starts=(self._random_start(),))
                    failed_restarts += 1
                    if got is not None and got[0] < best_d:
                        best_d, best_a = got
                        best_atoms = trial_atoms
                        progress = True
                        break
                if not progress:
                    break
        return best_d, best_a, best_atoms


def closure_membership(om: OrbitMap, target, invariants=(),
                       tol: Fraction = Fraction(1, 10 ** 6),
                       budget: int = 10 ** 4, seed: int = 0) -> ClosureVerdict:
    """Certificate-producing test for target in the closure of the orbit.

    Every supplied invariant must vanish identically on the orbit (checked
    symbolically).  A nonzero invariant value at the target is an exact
    NOT-IN-CLOSURE certificate.  Otherwise a seeded coordinate-descent
    search over parameter values and positive rational exp-atom values
    looks for orbit points near the target: exact hit, distance below tol,
    or an inconclusive budget report.

    The search atom u_v stands for exp(v / L_v), where L_v is the lcm of the
    denominators of v's exponent coefficients, so every power it takes is an
    integer; the reported exp_atoms are u_v^L_v = exp(v).  An orbit with a
    complex coefficient or exponent raises PreconditionFailed before any
    evaluation, unless a certificate decides first.
    """
    target = tuple(Fraction(x) for x in target)
    if len(target) != len(om.components):
        raise DimensionMismatch("target length differs from the orbit components")
    tol = Fraction(tol)
    for q in invariants:
        if not vanish_on_orbit(q, om):
            raise InvariantNotVanishing(f"{q} does not vanish on the orbit")
    point = dict(zip(om.component_names, target))
    for q in invariants:
        val = evaluate_polynomial(q, point)
        if val != 0:
            return ClosureVerdict(kind=NOT_IN_CLOSURE, tolerance=tol, budget=budget,
                                  evaluations=0, invariant=q, invariant_value=val)

    search = _Search(om, target, tol, budget, seed)
    best_d, best_a, best_u = search.run()
    best_atoms = {v: u ** search.scales[v] for v, u in best_u.items()}
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
        values = [evaluate_polynomial(q, start_point) for q in polys]
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


def critical_test(g: LieAlgebra, f, target, steps=None, degree: int = 2,
                  tol: Fraction = Fraction(1, 10 ** 6), budget: int = 10 ** 4,
                  seed: int = 0) -> CriticalVerdict:
    """Is target critical for the orbit of f?

    First decides membership of target restricted to the nilradical in the
    closure of the restricted orbit (the defining condition for the closed
    region Omega); an exact hit there means the two functionals share the
    restricted orbit.  Inside Omega, the full-orbit closure is tested with
    semi-invariant certificates: an exact nonvanishing certificate makes
    the target critical.
    """
    f = tuple(Fraction(x) for x in f)
    target = tuple(Fraction(x) for x in target)
    if steps is None:
        steps = [(g.basis_vector(name), f"s{i+1}")
                 for i, name in enumerate(g.basis_names)]
    nilrad = g.nilradical()
    om_n = orbit_map(g, f, steps, restrict_to=nilrad)
    target_n = tuple(vec_dot(target, b) for b in nilrad.basis)
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
