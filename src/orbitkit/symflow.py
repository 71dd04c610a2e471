"""Exact exponential-polynomial scalars and coadjoint one-parameter flows.

An ExpPoly is a finite sum of terms

    c * v1^k1 * ... * vm^km * exp(a1*w1 + ... + ar*wr)

with scalar c and ai over named variables: a Fraction when real, else a
GaussianRational (exactlin's scalar rule).  A term is keyed by its monomial
and its exponent, a linear form without a constant part.  Terms with equal
keys are merged, zero coefficients dropped, and terms kept in a
deterministic order, so equality of normal forms is syntactic.

Exponentials stay formal.  Numeric evaluation substitutes positive rationals
for the atoms exp(variable); the multiplicative rule exp(a+b) =
exp(a)*exp(b) is applied exactly, so evaluation never leaves the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    DimensionMismatch,
    InconsistentExponentialAssignment,
    NonlinearExponentSubstitution,
    NonRationalSpectrum,
    PreconditionFailed,
)
from .exactlin import (
    Q0,
    Q1,
    SCALARS,
    Matrix,
    Subspace,
    kernel,
    rref,
    scalar,
    unit_vector,
    vec_scale,
)
from .liealg import LieAlgebra, _gaussian_eigenvalues


def _term_sort_key(key):
    mono, lin = key
    return tuple((v, (c.real, c.imag)) for v, c in lin), mono


class ExpPoly:
    """Normal-form exponential polynomial; immutable, equality is syntactic."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        coerced = ((key, scalar(c)) for key, c in (terms or {}).items())
        object.__setattr__(self, "_terms", {key: c for key, c in coerced if c})

    def __setattr__(self, *args):
        raise AttributeError("ExpPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls({((), ()): scalar(c)})

    @classmethod
    def variable(cls, name):
        return cls({(((name, 1),), ()): Q1})

    @classmethod
    def exp(cls, linear):
        """exp(sum coeff*var) for a dict {var: coeff}."""
        lin = tuple(sorted((v, scalar(c)) for v, c in linear.items() if scalar(c)))
        return cls({((), lin): Q1})

    @classmethod
    def lift(cls, x):
        if isinstance(x, ExpPoly):
            return x
        return cls.constant(x)

    @classmethod
    def _operand(cls, x):
        """x lifted, or None for a non-scalar such as a UEAElement or DiffOp."""
        if isinstance(x, ExpPoly):
            return x
        if isinstance(x, SCALARS):
            return cls.constant(x)
        return None

    # -- inspection ----------------------------------------------------------

    def terms(self):
        return dict(self._terms)

    def is_zero(self):
        return not self._terms

    def variables(self):
        out = set()
        for mono, lin in self._terms:
            out.update(v for v, _ in mono)
            out.update(v for v, _ in lin)
        return out

    def poly_variables(self):
        return {v for mono, _ in self._terms for v, _ in mono}

    def exp_variables(self):
        return {v for _, lin in self._terms for v, _ in lin}

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = ExpPoly._operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            terms[key] = terms.get(key, Q0) + c
        return ExpPoly(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExpPoly._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ExpPoly({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        other = ExpPoly._operand(other)
        if other is None:
            return NotImplemented
        terms = {}
        for (m1, l1), a in self._terms.items():
            for (m2, l2), b in other._terms.items():
                key = (_merge_mono(m1, m2), _merge_lin(l1, l2))
                terms[key] = terms.get(key, Q0) + a * b
        return ExpPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ExpPoly.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, SCALARS):
            other = ExpPoly.constant(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- calculus ------------------------------------------------------------

    def d_dvar(self, var):
        """Exact partial derivative (product rule on poly * exp factors)."""
        terms = {}

        def accumulate(key, c):
            if not c:
                return
            terms[key] = terms.get(key, Q0) + c

        for (mono, lin), c in self._terms.items():
            for idx, (v, k) in enumerate(mono):
                if v != var:
                    continue
                if k == 1:
                    new_mono = mono[:idx] + mono[idx + 1:]
                else:
                    new_mono = mono[:idx] + ((v, k - 1),) + mono[idx + 1:]
                accumulate((new_mono, lin), c * k)
            for v, a in lin:
                if v == var:
                    accumulate((mono, lin), c * a)
        return ExpPoly(terms)

    def substitute(self, mapping):
        """Replace variables by scalars or ExpPolys.

        A variable occurring inside an exponent may only receive 0 or an
        exponential-free linear form without a constant part, so that
        exponents stay linear forms; anything else raises
        NonlinearExponentSubstitution.
        """
        mapping = {v: ExpPoly.lift(x) for v, x in mapping.items()}
        linear_cache = {}

        def linear_form(v):
            if v not in linear_cache:
                form = _linear_form(mapping[v])
                if form is None:
                    raise NonlinearExponentSubstitution(
                        f"cannot substitute a value other than a linear form "
                        f"for {v!r} inside exp()")
                linear_cache[v] = form
            return linear_cache[v]

        total = ExpPoly()
        for (mono, lin), c in self._terms.items():
            factor = ExpPoly.constant(c)
            new_lin = {}
            for v, a in lin:
                for w, q in (linear_form(v) if v in mapping else {v: Q1}).items():
                    new_lin[w] = new_lin.get(w, Q0) + a * q
            factor = factor * ExpPoly.exp(new_lin)
            for v, k in mono:
                base = mapping.get(v)
                if base is None:
                    factor = factor * ExpPoly.variable(v) ** k
                else:
                    factor = factor * base ** k
            total = total + factor
        return total

    def evaluate(self, assignment=None, exp_atoms=None):
        """Exact value with variables and exp-atoms replaced by rationals.

        assignment gives values for polynomial occurrences; exp_atoms gives
        the positive rational standing in for exp(var).  exp(a+b) =
        exp(a)*exp(b) is enforced by construction, and exponent coefficients
        must make the powers rational.
        """
        assignment = {v: scalar(x) for v, x in (assignment or {}).items()}
        atoms = {}
        for v, x in (exp_atoms or {}).items():
            x = Fraction(x)
            if x <= 0:
                raise InconsistentExponentialAssignment(
                    f"exp atom for {v!r} must be a positive rational, got {x}")
            atoms[v] = x
        total = Q0
        for (mono, lin), c in self._terms.items():
            value = c
            for v, k in mono:
                if v not in assignment:
                    raise InconsistentExponentialAssignment(f"no value for variable {v!r}")
                value = value * assignment[v] ** k
            for v, a in lin:
                if v not in atoms:
                    raise InconsistentExponentialAssignment(f"no exp atom for {v!r}")
                value = value * _rational_power(atoms[v], a)
            total = total + value
        return total

    # -- printing ------------------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return "0"
        chunks = []
        for key in sorted(self._terms, key=_term_sort_key):
            mono, lin = key
            c = self._terms[key]
            factors = []
            for v, k in mono:
                factors.append(v if k == 1 else f"{v}^{k}")
            if lin:
                factors.append(f"exp({_format_linform(lin)})")
            coeff_str = _format_coeff(c)
            if factors:
                body = "*".join(factors)
                if coeff_str == "1":
                    text = body
                elif coeff_str == "-1":
                    text = "-" + body
                else:
                    text = f"{coeff_str}*{body}"
            else:
                text = coeff_str
            chunks.append(text)
        out = chunks[0]
        for ch in chunks[1:]:
            out += " - " + ch[1:] if ch.startswith("-") else " + " + ch
        return out


def _merge_mono(m1, m2):
    powers = {}
    for v, k in m1 + m2:
        powers[v] = powers.get(v, 0) + k
    return tuple(sorted((v, k) for v, k in powers.items() if k))


def _merge_lin(l1, l2):
    coeffs = {}
    for v, a in l1 + l2:
        coeffs[v] = coeffs.get(v, Q0) + a
    return tuple(sorted((v, a) for v, a in coeffs.items() if a))


def _linear_form(ep: ExpPoly):
    """{var: coeff} when ep is an exponential-free linear form without a
    constant part (0 included), else None."""
    coeffs = {}
    for (mono, lin), c in ep._terms.items():
        if lin or len(mono) != 1 or mono[0][1] != 1:
            return None
        coeffs[mono[0][0]] = c
    return coeffs


def _rational_power(base: Fraction, p):
    if p.imag:
        raise InconsistentExponentialAssignment(
            "complex exponent coefficient has no rational atom value")
    if p.denominator != 1:
        root = _exact_root(base, p.denominator)
        if root is None:
            raise InconsistentExponentialAssignment(
                f"atom value {base} has no exact {p.denominator}-th root")
        base, p = root, Fraction(p.numerator)
    e = p.numerator
    return base ** e if e >= 0 else (Fraction(1) / base) ** (-e)


def _exact_root(x: Fraction, k: int):
    num = _int_root(x.numerator, k)
    den = _int_root(x.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_root(n: int, k: int):
    """r with r**k == n, or None; integer Newton iteration from above."""
    if n < 0:
        return None
    if n < 2 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)  # 2**ceil(bits/k) >= n**(1/k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


def _format_coeff(c):
    if not c.imag:
        return str(c)
    if c.real == 0:
        if c.imag == 1:
            return "i"
        if c.imag == -1:
            return "-i"
        return f"{c.imag}*i"
    return f"({c})"


def _format_linform(lin):
    pieces = []
    for v, a in lin:
        if a == 1:
            pieces.append(v)
        elif a == -1:
            pieces.append(f"-{v}")
        else:
            pieces.append(f"{_format_coeff(a)}*{v}")
    out = pieces[0]
    for p in pieces[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def _generalized_eigenspace(shifted: Matrix, mult: int) -> Subspace:
    """ker(N^mult) for N = A - lambda*I, lambda of algebraic multiplicity mult.

    With mult the order of A, N is nilpotent and the kernel is the whole
    space.  When lambda is semisimple, ker(N) already has dimension mult and
    no power is formed; only a defective lambda takes the dense power N^mult.
    """
    n = shifted.rows
    if mult == n:
        return Subspace.full(n)
    space = kernel(shifted)
    return space if space.dim == mult else kernel(shifted ** mult)


def exp_matrix(a: Matrix, param: str) -> tuple:
    """Exact exp(t*A) for rational A with spectrum in Q(i), as a tuple of
    rows, each a tuple of ExpPoly entries.

    On the generalized eigenspace of lambda, with N = A - lambda*I,
    exp(t*A) = exp(lambda*t) * sum_k t^k/k! * N^k, and the sum stops at the
    first k with N^k u = 0.  The generalized eigenspace is the whole space
    when lambda is the only eigenvalue, ker(N) when its dimension is
    lambda's multiplicity, and ker(N^mult) otherwise.  With U the matrix
    whose columns are a basis u_b of the generalized eigenspaces,
    exp(t*A) = E * U^-1, so entry (i, j) has the coefficient
    sum_b (N^k u_b)[i] * U^-1[b][j] / k! at the term t^k * exp(lambda*t).
    Each entry is built from that table of terms; the functions
    t^k * exp(lambda*t) are linearly independent, so the table is the
    entry's normal form.
    """
    n = a.rows
    if n == 0:
        return ()
    eigs = _gaussian_eigenvalues(a)
    if sum(m for _, m in eigs) != n:
        raise NonRationalSpectrum(
            "matrix spectrum is not contained in the Gaussian rationals")
    basis_vectors = []
    chains = []  # per basis vector u: (exponent form of lambda, [N^k u / k!])
    for lam, mult in eigs:
        shifted = a.shifted(lam)
        gen_space = _generalized_eigenspace(shifted, mult)
        expo = ((param, lam),) if lam else ()
        for u in gen_space.basis:
            basis_vectors.append(u)
            chain = []
            while any(u):
                if len(chain) == mult:
                    raise NonRationalSpectrum(
                        "a generalized eigenvector outlives its multiplicity")
                chain.append(vec_scale(Fraction(1, factorial(len(chain))), u))
                u = shifted.apply(u)
            chains.append((expo, chain))
    if len(basis_vectors) != n:
        raise NonRationalSpectrum("generalized eigenspaces do not fill the space")
    # U^-1 is the right block of the rref of [U | I] when U is invertible
    reduced, pivots = rref([row + unit_vector(n, i)
                            for i, row in enumerate(zip(*basis_vectors))])
    if pivots != tuple(range(n)):
        raise NonRationalSpectrum("eigenbasis is singular")
    u_inv_cols = list(zip(*(row[n:] for row in reduced)))
    rows = []
    for i in range(n):
        row = []
        for u_inv in u_inv_cols:
            table = {}
            for (expo, chain), w in zip(chains, u_inv):
                if not w:
                    continue
                for k, v in enumerate(chain):
                    if v[i]:
                        key = (((param, k),) if k else (), expo)
                        table[key] = table.get(key, 0) + v[i] * w
            row.append(ExpPoly(table))
        rows.append(tuple(row))
    return tuple(rows)


def one_param_flow(g: LieAlgebra, x, param: str, restrict_to: Subspace | None = None) -> tuple:
    """coAd(exp(t*x)) on g* (or on the dual of an ideal, else NotIdeal), as
    exp_matrix's rows."""
    if isinstance(x, str):
        x = g.basis_vector(x)
    g.dual_names(restrict_to)  # raises NotIdeal unless restrict_to is an ideal
    # the infinitesimal coadjoint action on dual coordinates is -A^T
    return exp_matrix((-g.ad_matrix(x, restrict_to)).transpose(), param)


# ---------------------------------------------------------------------------
# orbit maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitMap:
    """Symbolic parametrization of a coadjoint orbit through a functional."""

    algebra: LieAlgebra
    component_names: tuple
    params: tuple
    components: tuple
    start: tuple
    restricted_to: Subspace | None = None

    def evaluate(self, assignment=None, exp_atoms=None):
        return tuple(comp.evaluate(assignment, exp_atoms) for comp in self.components)


def _normalize_steps(g: LieAlgebra, steps):
    """Each step becomes a list of (vector, param); multi-factor steps commute."""
    normal = []
    for step in steps:
        if len(step) == 2 and isinstance(step[1], str):
            group = [step]
        else:
            group = list(step)
        resolved = []
        for x, param in group:
            if isinstance(x, str):
                x = g.basis_vector(x)
            resolved.append((tuple(x), param))
        for i in range(len(resolved)):
            for j in range(i + 1, len(resolved)):
                if any(c != 0 for c in g.bracket(resolved[i][0], resolved[j][0])):
                    raise PreconditionFailed(
                        "factors of a combined exponential step must commute")
        normal.append(resolved)
    return normal


def orbit_map(g: LieAlgebra, start, steps, restrict_to: Subspace | None = None) -> OrbitMap:
    """coAd(exp(step_1) ... exp(step_k)) applied to the starting functional.

    start may be a rational covector or a vector of ExpPoly entries (for
    carrying symbolic constants).  steps is a list of (vector-or-name,
    parameter-name) pairs; a sub-list groups commuting factors into a single
    exponential of a sum.
    """
    names = g.dual_names(restrict_to)
    start_list = list(start)
    if len(start_list) != len(names):
        if restrict_to is not None and len(start_list) == g.dim:
            if any(isinstance(x, ExpPoly) for x in start_list):
                raise DimensionMismatch("cannot restrict a symbolic functional")
            start_list = restrict_to.restrict(start_list)
        else:
            raise DimensionMismatch("starting functional has the wrong length")

    factors = [(x, param) for group in _normalize_steps(g, steps) for x, param in group]
    # coAd(exp(x_1) ... exp(x_k)) f = F_1(F_2(... F_k(f))): last factor first
    components = tuple(ExpPoly.lift(x) for x in start_list)
    for x, param in reversed(factors):
        flow = one_param_flow(g, x, param, restrict_to)
        components = tuple(sum((a * c for a, c in zip(row, components)), ExpPoly())
                           for row in flow)
    params = [param for _, param in factors]
    return OrbitMap(algebra=g, component_names=names, params=tuple(params),
                    components=components, start=tuple(start_list),
                    restricted_to=restrict_to)
