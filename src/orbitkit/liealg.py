"""Lie algebras over the rationals given by structure constants.

Provides structural series, nilradical, adjoint weights (roots) computed on
an exact composition series, and the exponentiality test.  Each algebra
builds that series once: its weights are the roots, and when every weight
is real its vectors span the rational flag of ideals.  The work is
rational; Gaussian rationals enter only where a non-real eigenvalue is
chosen.  All spectra are kept exact: algebras whose adjoint maps have
eigenvalues outside Q(i) are rejected with NonRationalSpectrum.

Eigenvalues come from integer arithmetic: indices whose row or column is
zero off the diagonal are peeled off, the rest gets a division-free
Berkowitz charpoly, and the roots that Gauss's lemma allows are tested
under a fixed work budget.  Past it sympy factors, imported only then.

An algebra is kept as its brackets, the nonzero (index, constant) pairs
of [e_i, e_j] for each i < j; the sparse table derived by [e_j, e_i] =
-[e_i, e_j] holds every pair, so antisymmetry holds by construction.  The
bracket, the Killing form, the coadjoint form, the PBW rewriting and [g, g]
walk only those, and the flag search keeps each action on g/flag as sparse
rows.  The Jacobi identity is checked on integers: with D the common
denominator of the constants, each basis triple's defect is summed as an
integer vector over D^2.  A subalgebra of a checked algebra is not checked
again, since a subspace closed under the bracket inherits the identities.

A LieAlgebra is immutable, so its structure is computed once, in a private
per-algebra memo; LieAlgebra.cached keeps other algebra-only results there
too, such as coadjoint flows and semi-invariants.  The nilradical is the Killing-form radical when that
certifies itself as a nilpotent ideal, else the common kernel of the roots
(de Graaf, Lie Algebras: Theory and Algorithms, 2000).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    JacobiViolation,
    NonRationalSpectrum,
    NotIdeal,
    NotSubalgebra,
    OrbitkitError,
    PreconditionFailed,
)
from .exactlin import (
    GaussianRational,
    Matrix,
    Q0,
    Q1,
    Subspace,
    kernel,
    rank,
    solve,
    unit_vector,
    vec_dot,
    vec_scale,
)


def _support(v):
    """The (index, value) pairs of the nonzero coordinates of v."""
    return [(i, x) for i, x in enumerate(v) if x]


def _dense(n, support):
    """The vector of length n with the (index, value) pairs of support."""
    out = [Q0] * n
    for i, x in support:
        out[i] = x
    return tuple(out)


class Root(NamedTuple):
    """A weight of the adjoint representation, split as re + i*im covectors."""

    re: tuple
    im: tuple
    multiplicity: int = 1

    def value(self, v):
        return GaussianRational(vec_dot(self.re, v), vec_dot(self.im, v))

    def vanishes_on(self, space: Subspace) -> bool:
        return all(not self.value(b) for b in space.basis)


class ExponentialVerdict(NamedTuple):
    kind: str  # "exponential" | "not-exponential" | "unknown"
    witness: Root | None = None
    detail: str = ""

    def __bool__(self):
        return self.kind == "exponential"


def _memoized(method):
    """Keep method(self, *args) in the algebra's memo (LieAlgebra.cached),
    keyed by the method's name and args.  Safe because the algebra is
    immutable; the memoized methods return tuples, Subspaces and bools."""
    @functools.wraps(method)
    def memoized(self, *args):
        return self.cached((method.__name__,) + args, lambda: method(self, *args))
    return memoized


class LieAlgebra:
    """A finite-dimensional Lie algebra with named ordered basis.

    Structure constants satisfy [e_i, e_j] = sum_k c[i][j][k] e_k, given as
    brackets {(i, j): ((k, c[i][j][k]), ...)} with i < j and k rising;
    brackets keeps the nonzero ones sorted, sparse_table[i][j] holds every
    pair, and table is a dense view for the tests and the benchmark.  The
    Jacobi identity is checked at construction unless _validated vouches.
    """

    __slots__ = ("dim", "basis_names", "brackets", "sparse_table", "_memo", "_hash")

    def __init__(self, basis_names, brackets, _validated=False):
        names = tuple(basis_names)
        n = len(names)
        if len(set(names)) != n:
            raise DimensionMismatch("duplicate basis names")
        cells = [[()] * n for _ in range(n)]
        for (i, j), terms in brackets.items():
            cell = tuple((k, c) for k, c in terms if c)
            cells[i][j], cells[j][i] = cell, tuple((k, -c) for k, c in cell)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "brackets", tuple(
            ((i, j), row[j]) for i, row in enumerate(cells) for j in range(i + 1, n) if row[j]))
        object.__setattr__(self, "sparse_table", tuple(map(tuple, cells)))
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_hash", None)
        if not _validated:
            self._validate()

    def __setattr__(self, *args):
        raise AttributeError("LieAlgebra is immutable")

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra)
                and self.basis_names == other.basis_names
                and self.brackets == other.brackets)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.basis_names, self.brackets)))
        return self._hash

    @property
    def table(self):
        """The dense view, for the tests and the benchmark: table[i][j] is
        [e_i, e_j] in basis coordinates."""
        return self.cached(("table",), lambda: tuple(
            tuple(_dense(self.dim, cell) for cell in row) for row in self.sparse_table))

    def cached(self, key, compute):
        """compute(), or the OrbitkitError it raised, kept in this algebra's
        memo under key and handed back (or raised again) on each later call
        with that key.  Sound for a result that depends only on the algebra
        and the key, since the algebra is immutable; the result should be
        immutable too, as every caller of the memo may receive it."""
        memo = self._memo
        if key not in memo:
            try:
                memo[key] = compute()
            except OrbitkitError as exc:
                memo[key] = exc
                raise
        got = memo[key]
        if isinstance(got, OrbitkitError):
            raise got.with_traceback(None)
        return got

    def _validate(self):
        n, s = self.dim, self.sparse_table
        # D times each constant is an integer, so D^2 times each defect is one
        d = math.lcm(1, *(c.denominator for row in s for cell in row for _, c in cell))
        t = [[[(k, c.numerator * (d // c.denominator)) for k, c in cell] for cell in row]
             for row in s]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [e_a, [e_b, e_c]] summed over the cyclic shifts of (i, j, k)
                    acc = [0] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, x in t[b][c]:
                            for m, y in t[a][l]:
                                acc[m] += x * y
                    if any(acc):
                        raise JacobiViolation(i, j, k, (Fraction(x, d * d) for x in acc),
                                              self.basis_names)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def construct(cls, names, brackets):
        """Build an algebra from a name-keyed bracket map {(a, b): {c: coeff}}.
        (a, b) and (b, a) may both be given when they agree, [b, a] = -[a, b];
        [a, a] must vanish."""
        names = tuple(names)
        index = {name: i for i, name in enumerate(names)}
        cells = {}
        for (a, b), terms in brackets.items():
            if a not in index or b not in index:
                raise DimensionMismatch(f"unknown basis name in bracket ({a},{b})")
            i, j = index[a], index[b]
            coeffs = {}
            for c, val in terms.items():
                if c not in index:
                    raise DimensionMismatch(f"unknown basis name {c!r} in bracket value")
                coeffs[index[c]] = coeffs.get(index[c], Q0) + Fraction(val)
            signed = tuple(sorted((k, x if i < j else -x) for k, x in coeffs.items() if x))
            if i == j:
                if signed:
                    raise AntisymmetryViolation(f"[{a},{a}] must vanish")
            elif cells.setdefault((min(i, j), max(i, j)), signed) != signed:
                raise AntisymmetryViolation(
                    f"brackets for ({a},{b}) conflict with the opposite order")
        return cls(names, cells)

    @classmethod
    def abelian(cls, names):
        return cls(names, {}, _validated=True)

    def index_of(self, name):
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise DimensionMismatch(f"no basis element named {name!r}") from None

    def basis_vector(self, name):
        return unit_vector(self.dim, self.index_of(name))

    # -- basic operations ----------------------------------------------------

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x, y."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatch("vector length differs from algebra dimension")
        return self._bracket_of_supports(_support(x), _support(y))

    def _bracket_of_supports(self, xs, ys):
        """[x, y] from the supports of x and y, reading only nonzero cells."""
        out = [Q0] * self.dim
        for i, xi in xs:
            row = self.sparse_table[i]
            for j, yj in ys:
                cell = row[j]
                if cell:
                    f = xi * yj
                    for k, c in cell:
                        out[k] = out[k] + f * c
        return tuple(out)

    def ad_matrix(self, x, ideal: Subspace | None = None) -> Matrix:
        """Matrix A of ad(x): columns are the coordinates of [x, e_j]; given an
        ideal, the matrix of ad(x) on it in its canonical basis.  The
        derivation of x sends the dual coordinate e_nu to sum_mu A[mu][nu] e_mu.
        """
        if len(x) != self.dim:
            raise DimensionMismatch("vector length differs from algebra dimension")
        xs = _support(x)
        if len(xs) == 1 and xs[0][1] == 1:
            a = self._basis_ad_matrices()[xs[0][0]]
        else:
            a = self._ad_of_support(xs)
        return a if ideal is None else _restrict_to(a.apply, ideal)

    def _ad_of_support(self, xs):
        return Matrix.from_columns([self._bracket_of_supports(xs, ((j, Q1),))
                                    for j in range(self.dim)])

    @_memoized
    def _basis_ad_matrices(self):
        return tuple(self._ad_of_support(((i, Q1),)) for i in range(self.dim))

    def dual_names(self, ideal: Subspace | None = None):
        """Names of the coordinates on g*, or on the dual of an ideal; raises
        NotIdeal for a subspace that is not an ideal."""
        if ideal is None:
            return self.basis_names
        if not self.is_ideal(ideal):
            raise NotIdeal("the coordinate space must be an ideal")
        return self.subspace_names(ideal)

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        """[a, b]; for a == b only the unordered pairs of a's basis, since
        [u, v] = -[v, u] and [u, u] = 0."""
        supports = [_support(u) for u in a.basis]
        pairs = (itertools.combinations(supports, 2) if a == b else
                 itertools.product(supports, [_support(v) for v in b.basis]))
        vectors = (self._bracket_of_supports(u, v) for u, v in pairs)
        return Subspace.from_vectors(self.dim, [w for w in vectors if any(w)])

    @_memoized
    def commutator_ideal(self) -> Subspace:
        """[g, g], spanned by the nonzero brackets [e_i, e_j] with i < j."""
        return Subspace.from_vectors(self.dim, [_dense(self.dim, cell)
                                                for _, cell in self.brackets])

    def is_subalgebra(self, v: Subspace) -> bool:
        """Is [v, v] <= v?  A v containing [g, g] is an ideal (see is_ideal),
        so it is one at once; only other subspaces take the bracket sweep."""
        return (v.contains_subspace(self.commutator_ideal())
                or v.contains_subspace(self.bracket_span(v, v)))

    def is_ideal(self, v: Subspace) -> bool:
        """Is [g, v] <= v?  Containing [g, g] proves it, since then
        [g, v] <= [g, g] <= v; only other subspaces take the bracket sweep."""
        if v.contains_subspace(self.commutator_ideal()):
            return True
        vs = [_support(b) for b in v.basis]
        brackets = (self._bracket_of_supports(((i, Q1),), b) for i in range(self.dim) for b in vs)
        return all(v.contains(w) for w in brackets if any(w))

    def centralizer(self, v: Subspace) -> Subspace:
        """{x : [x, v] = 0}, the common kernel of ad(b) over the basis of v."""
        return Subspace.common_kernel(self.dim, [self.ad_matrix(b) for b in v.basis])

    @_memoized
    def center(self) -> Subspace:
        return self.centralizer(Subspace.full(self.dim))

    def subspace_names(self, v: Subspace):
        """Names for the canonical basis of v: a unit row's basis name, else
        b<index> with `_` appended until it is no basis name."""
        names = []
        for idx, row in enumerate(v.basis):
            support = [j for j, x in enumerate(row) if x != 0]
            unit = len(support) == 1 and row[support[0]] == 1
            name = self.basis_names[support[0]] if unit else f"b{idx}"
            while not unit and name in self.basis_names:
                name += "_"
            names.append(name)
        return tuple(names)

    def descending_central_series(self, m: Subspace):
        """C^1 m = [m, m], C^{k+1} m = [m, C^k m]; returns (series, stable term).

        m must be a subalgebra (is_subalgebra decides it).
        """
        if not self.is_subalgebra(m):
            raise NotSubalgebra("descending central series needs a subalgebra")
        series = []
        current = self.bracket_span(m, m)
        while True:
            series.append(current)
            nxt = self.bracket_span(m, current)
            if nxt == current:
                break
            current = nxt
        return series, series[-1]

    def lower_central_series(self):
        return self.descending_central_series(Subspace.full(self.dim))

    @_memoized
    def is_nilpotent(self) -> bool:
        _, stable = self.lower_central_series()
        return stable.dim == 0

    @_memoized
    def is_solvable(self) -> bool:
        current = self.commutator_ideal()
        while True:
            nxt = self.bracket_span(current, current)
            if nxt == current:
                return current.dim == 0
            current = nxt

    def quotient(self, ideal: Subspace):
        """Quotient algebra by an ideal plus the coordinate projection matrix.

        The quotient basis is the lexicographically first coordinate subset
        completing the ideal's echelon basis.
        """
        if not self.is_ideal(ideal):
            raise NotIdeal("quotient needs an ideal")
        comp = ideal.complement_coordinates()
        k = len(comp)
        names = tuple(self.basis_names[c] for c in comp)
        # columns of M are the complement basis vectors followed by the ideal basis
        cols = [unit_vector(self.dim, c) for c in comp] + list(ideal.basis)
        m = Matrix.from_columns(cols)

        def project(v):
            sol = solve(m, v)
            return tuple(sol[:k])

        proj = Matrix([[project(unit_vector(self.dim, j))[i] for j in range(self.dim)]
                       for i in range(k)])
        brackets = {(i, j): _support(project(_dense(self.dim, self.sparse_table[a][b])))
                    for (i, a), (j, b) in itertools.combinations(enumerate(comp), 2)}
        return LieAlgebra(names, brackets), proj

    def subalgebra(self, v: Subspace):
        """Algebra structure on a subalgebra plus the inclusion matrix."""
        if not self.is_subalgebra(v):
            raise NotSubalgebra("not closed under the bracket")
        brackets = {(i, j): _support(v.coordinates_of(self.bracket(a, b)))
                    for (i, a), (j, b) in itertools.combinations(enumerate(v.basis), 2)}
        incl = Matrix.from_columns(list(v.basis))
        # a closed subspace inherits the Jacobi identity
        return LieAlgebra(self.subspace_names(v), brackets, _validated=True), incl

    # -- spectra -------------------------------------------------------------

    @_memoized
    def _triangularize(self):
        """Composition series of the adjoint module with its diagonal weights.

        Returns (flag vectors in order, weight covectors) as tuples; each weight
        is a tuple of scalar values on the basis.  The ad-matrices and flag
        vectors stay rational: a real eigenvalue is a Fraction, so Gaussian
        rationals appear only when a non-real eigenvalue is chosen.  Raises
        NonRationalSpectrum when an eigenvalue escapes Q(i).

        The action of each basis and commutator ad-matrix on g/flag is kept
        as {row: {column: nonzero entry}} over the coordinates that are no
        flag pivot.  When v, 1 at its lead, joins the flag, row and column
        lead go and M[r][c] -= v[r]*M[lead][c] on supp(v) x supp(M[lead]),
        dropping what cancels.  That is the reduction modulo the new flag: its
        pivots are the old ones and the lead, where the new columns vanish,
        and a residue vanishing on the pivots is unique.  _eigen_ratio checks
        each weight, read off the basis matrix times v.
        """
        if not self.is_solvable():
            raise PreconditionFailed("adjoint weights are defined for solvable algebras")
        n = self.dim
        comm = self.commutator_ideal()
        comp_coords = comm.complement_coordinates()
        actions = [{r: s for r, row in enumerate(a.entries) if (s := dict(_support(row)))}
                   for a in self._basis_ad_matrices() + tuple(map(self.ad_matrix, comm.basis))]
        free = list(range(n))  # the coordinates that are no flag pivot

        def act(rows, v):
            vs = {c: x for c, x in zip(free, v) if x}
            return tuple(sum((y * vs[c] for c, y in rows[r].items() if c in vs), Q0)
                         if r in rows else Q0 for r in free)

        flag_vectors, weights = [], []
        while free:
            rows = [tuple(row.get(c, Q0) for c in free)
                    for m in actions[n:] for row in m.values()]
            w_space = Subspace.common_kernel(len(free), [Matrix(rows, len(free))])
            if w_space.dim == 0:
                raise PreconditionFailed("no common null vector for the commutator action")
            for c in comp_coords:
                if w_space.dim == 1:
                    break
                if not actions[c]:
                    continue  # ad(e_c) is zero on g/flag: w_space stays whole
                az = _restrict_to(functools.partial(act, actions[c]), w_space)
                eigs = _gaussian_eigenvalues(az)
                if not eigs:
                    raise NonRationalSpectrum(
                        f"ad({self.basis_names[c]}) has no Gaussian-rational "
                        "eigenvalue on the current invariant subspace",
                        witness=self.basis_names[c])
                # the first in (real, imag) order, as _gaussian_eigenvalues sorts
                w_space = w_space.kernel_of(az.shifted(eigs[0][0]))
            v, lead = w_space.basis[0], w_space.pivots[0]
            weights.append(tuple(_eigen_ratio(act(actions[i], v), v, lead, name)
                                 for i, name in enumerate(self.basis_names)))
            support = [(c, x) for c, x in zip(free, v) if x]
            placed = dict(support)
            flag_vectors.append(tuple(placed.get(c, Q0) for c in range(n)))
            lead = free.pop(lead)
            for m in actions:
                for r, row in list(m.items()):  # column lead goes
                    if row.pop(lead, None) is not None and not row:
                        del m[r]
                top = m.pop(lead, {})
                for r, x in support[1:]:  # support[0] is (lead, 1)
                    row = m.setdefault(r, {})
                    for c, y in top.items():
                        z = row.get(c, Q0) - x * y
                        if z:
                            row[c] = z
                        else:
                            del row[c]
                    if not row:
                        del m[r]
        return tuple(flag_vectors), tuple(weights)

    def adjoint_weights(self):
        """Roots of the adjoint representation, one per value with multiplicity,
        as a new list over the memoized tuple of _roots."""
        return list(self._roots())

    @_memoized
    def _roots(self):
        _, weights = self._triangularize()
        grouped = {}  # in order of first occurrence
        for w in weights:
            grouped[w] = grouped.get(w, 0) + 1
        roots = []
        for w, multiplicity in grouped.items():
            # Fraction.imag is the int 0
            root = Root(re=tuple(z.real for z in w), im=tuple(Fraction(z.imag) for z in w),
                        multiplicity=multiplicity)
            if not root.vanishes_on(self.commutator_ideal()):
                raise PreconditionFailed("weight does not vanish on the commutator ideal")
            roots.append(root)
        return tuple(roots)

    def composition_flag(self):
        """A complete chain of ideals 0 = g_0 < g_1 < ... < g_n = g over Q.

        A rational flag of ideals triangularizes every ad(x) over Q, so one
        exists exactly when every weight is real; the search then chooses
        only real eigenvalues, and its flag vectors are rational.
        """
        vectors, weights = self._triangularize()
        for weight in weights:
            for name, lam in zip(self.basis_names, weight):
                if lam.imag:
                    raise NonRationalSpectrum(
                        f"ad({name}) has no rational eigenvalue on the current "
                        "invariant subspace", witness=name)
        return [Subspace.from_vectors(self.dim, vectors[:k]) for k in range(self.dim + 1)]

    @_memoized
    def nilradical(self) -> Subspace:
        """Maximal nilpotent ideal of a solvable algebra.

        The radical of the Killing form k_ij = sum_{k,l} c_ik^l c_jl^k, which
        _killing_form sums over the nonzero structure constants alone, is an
        ideal containing it, and is it when nilpotent; else (roots (1 +- i)*t
        have k(x, x) = 0) it is the common kernel of the roots (de Graaf 2000).
        """
        result = kernel(self._killing_form())
        if not self._is_nilpotent_ideal_over_commutator(result):
            result = mtilde(self, Subspace.zero(self.dim))  # every root vanishes on 0
            if not self._is_nilpotent_ideal_over_commutator(result):
                raise PreconditionFailed("computed nilradical is not a nilpotent ideal "
                                         "containing the commutator ideal")
        return result

    def _killing_form(self) -> Matrix:
        """k_ij = tr(ad e_i ad e_j) from the nonzero cells: the constant
        c_ik^l at cell (k, l) of row i meets c_jl^k at cell (l, k) of row j."""
        cells = [{(k, l): x for k, cell in enumerate(row) for l, x in cell}
                 for row in self.sparse_table]
        return Matrix([[sum((x * cj[l, k] for (k, l), x in ci.items() if (l, k) in cj), Q0)
                        for cj in cells] for ci in cells])

    def _is_nilpotent_ideal_over_commutator(self, v: Subspace) -> bool:
        """v contains [g, g], so is an ideal (see is_ideal), and is nilpotent."""
        return (v.contains_subspace(self.commutator_ideal())
                and self.descending_central_series(v)[1].dim == 0)

    def is_exponential(self) -> ExponentialVerdict:
        """An exponential algebra is solvable, and no adjoint root of it may
        be purely imaginary and nonzero."""
        if not self.is_solvable():
            return ExponentialVerdict("not-exponential", detail="the algebra is not solvable")
        try:
            roots = self.adjoint_weights()
        except NonRationalSpectrum as exc:
            return ExponentialVerdict("unknown", detail=str(exc))
        for root in roots:
            re_zero = all(x == 0 for x in root.re)
            im_zero = all(x == 0 for x in root.im)
            if im_zero:
                continue
            if re_zero or rank(Matrix([root.re, root.im])) != 1:
                return ExponentialVerdict(
                    "not-exponential", witness=root,
                    detail="imaginary part of a root is not a rational multiple "
                           "of its real part")
        return ExponentialVerdict("exponential")


def mtilde(g: LieAlgebra, m: Subspace) -> Subspace:
    """Common kernel of the roots that vanish on m; full space if none do."""
    return Subspace.common_kernel(g.dim, [Matrix([root.re, root.im])
                                          for root in g.adjoint_weights()
                                          if root.vanishes_on(m)])


# ---------------------------------------------------------------------------
# eigenvalues in Q(i): integer candidates, with sympy past a work budget
# ---------------------------------------------------------------------------

# trial divisions, candidate tests and quadratic-coefficient steps that one
# candidate search may spend before sympy's factorization answers instead
_BUDGET = 20000


def _restrict_to(apply, space: Subspace) -> Matrix:
    """Matrix of the linear map `apply` (a Matrix's apply, or any function of
    ambient vectors) on an invariant subspace, in its canonical basis."""
    cols = []
    for b in space.basis:
        coords = space.coordinates_of(apply(b))
        if coords is None:
            raise PreconditionFailed("subspace is not invariant")
        cols.append(coords)
    return Matrix.from_columns(cols)


def _eigen_ratio(image, v, lead, name):
    """lambda with image = lambda * v, for an exact eigenvector v nonzero at lead."""
    lam = image[lead] / v[lead]
    if image != vec_scale(lam, v):
        raise PreconditionFailed(f"vector is not an eigenvector of ad({name})")
    return lam


def _charpoly(rows):
    """Coefficients of det(xI - a), leading first, over the ring of the
    entries (division-free Berkowitz): the polynomial of each leading block
    is a Toeplitz column times the polynomial of the block before it."""
    p = [1]
    for k in range(len(rows)):
        r, c = rows[k][:k], [row[k] for row in rows[:k]]
        col = [1, -rows[k][k]]
        for _ in range(k):
            col.append(-sum(x * y for x, y in zip(r, c)))
            c = [sum(x * y for x, y in zip(row[:k], c)) for row in rows[:k]]
        p = [sum(col[j - i] * p[i] for i in range(min(j, k) + 1)) for j in range(k + 2)]
    return p


def _deflate(p, lam):
    """(p / (x - lam)^k, k) for the largest k, p dense and leading first
    (synthetic division)."""
    mult = 0
    while len(p) > 1:
        quotient = [p[0]]
        for c in p[1:-1]:
            quotient.append(c + lam * quotient[-1])
        if p[-1] + lam * quotient[-1]:
            break
        p, mult = quotient, mult + 1
    return p, mult


def _divisors(n, budget):
    """(sorted positive divisors of n > 0, budget left) by trial division,
    which spends one step per trial and two per divisor; (None, 0) when the
    steps would pass the budget."""
    primes, q = {}, 2
    while q * q <= n:
        budget -= 1
        if budget < 0:
            return None, 0
        while n % q == 0:
            primes[q], n = primes.get(q, 0) + 1, n // q
        q += 1 if q == 2 else 2
    if n > 1:
        primes[n] = primes.get(n, 0) + 1
    budget -= 2 * math.prod(e + 1 for e in primes.values())
    if budget < 0:
        return None, 0
    divs = [1]
    for q, e in primes.items():
        divs = [x * q ** k for x in divs for k in range(e + 1)]
    return sorted(divs), budget


def _core_eigenvalues(rows):
    """Eigenvalues in Q(i) of a square matrix with multiplicities, or None
    when the search would pass _BUDGET.

    With d the common denominator, p = det(xI - d*m) is monic over Z[i], so
    its roots in Q(i) are Gaussian integers and roots of the monic norm
    f = A^2 + B^2 of p = A + iB (f = p for rational m).  By Gauss's lemma a
    rational root divides f(0), and a + bi (b != 0) is a root of a factor
    x^2 - 2a*x + C of f with C = a^2 + b^2 dividing f(0); integer roots are
    divided out of f first.  A candidate's multiplicity is as a root of p.
    """
    d = math.lcm(1, *(q.denominator for row in rows for x in row for q in (x.real, x.imag)))
    p = _charpoly([[x * d if x.imag else int(x * d) for x in row] for row in rows])
    re, im, n = [int(c.real) for c in p], [int(c.imag) for c in p], len(p) - 1
    if any(im):
        f = [sum(re[i] * re[k - i] + im[i] * im[k - i]
                 for i in range(max(0, k - n), min(k, n) + 1)) for k in range(2 * n + 1)]
    else:
        p, f = re, re[:]
    eigs = []

    def offer(a, b=0):
        mult = _deflate(p, GaussianRational(a, b) if b else a)[1]
        if mult:
            eigs.append((GaussianRational(Fraction(a, d), Fraction(b, d)), mult))

    if not f[-1]:
        offer(0)
        while not f[-1]:
            f.pop()
    if len(f) == 1:
        return eigs
    divs, budget = _divisors(abs(f[-1]), _BUDGET)
    if divs is None:
        return None
    for mu in (x for s in divs for x in (s, -s)):
        if not f[-1] % mu:
            f, mult = _deflate(f, mu)
            if mult:
                offer(mu)
    norms = [c for c in divs if not f[-1] % c] if len(f) > 2 else []
    if budget < sum(2 * math.isqrt(c) + 1 for c in norms):
        return None
    for c in norms:
        for a in range(-math.isqrt(c), math.isqrt(c) + 1):
            b = math.isqrt(c - a * a)
            if not b or b * b != c - a * a:
                continue
            re_f = im_f = 0  # f(a + bi) by Horner
            for coeff in f:
                re_f, im_f = re_f * a - im_f * b + coeff, re_f * b + im_f * a
            if not re_f and not im_f:
                offer(a, b)
                offer(a, -b)
    return eigs


def _to_gaussian_matrix(m: Matrix):
    """m as a sympy DomainMatrix over QQ_I."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix([[QQ_I(QQ(x.real.numerator, x.real.denominator),
                               QQ(x.imag.numerator, x.imag.denominator)) for x in row]
                         for row in m.entries], (m.rows, m.cols), QQ_I)


def _sympy_eigenvalues(m: Matrix):
    """The fallback: the roots of the linear factors, which are monic, of the
    charpoly factored over QQ_I."""
    return [(GaussianRational(Fraction(-f[1].x.numerator, f[1].x.denominator),
                              Fraction(-f[1].y.numerator, f[1].y.denominator)), mult)
            for f, mult in _to_gaussian_matrix(m).charpoly_factor_list() if len(f) == 2]


def _gaussian_eigenvalues(m: Matrix):
    """Eigenvalues of m lying in Q(i), with multiplicities, sorted by (re, im).

    Peel: while some live row or column i is zero off the diagonal, x - m_ii
    divides det(xI - m), so m_ii is an eigenvalue and index i is dropped.
    The core that is left goes to the exact integer candidate search
    (_core_eigenvalues), and past its work budget to sympy, which is
    imported only then.
    """
    a, idx = m.entries, range(m.rows)
    rows = {i: {j for j in idx if j != i and a[i][j]} for i in idx}
    cols = {i: {j for j in idx if j != i and a[j][i]} for i in idx}
    eigs, ready = Counter(), list(idx)
    while ready:
        i = ready.pop()
        if i not in rows or (rows[i] and cols[i]):
            continue
        eigs[a[i][i]] += 1
        for here, there in ((rows, cols), (cols, rows)):
            for j in here.pop(i):
                there[j].discard(i)
                ready.append(j)
    core = [[a[i][j] for j in rows] for i in rows]
    found = _core_eigenvalues(core)
    for lam, mult in _sympy_eigenvalues(Matrix(core)) if found is None else found:
        eigs[lam] += mult
    return sorted(eigs.items(), key=lambda t: (t[0].real, t[0].imag))


# ---------------------------------------------------------------------------
# ready-made algebras used throughout the tests and the catalog
# ---------------------------------------------------------------------------

def heisenberg3() -> LieAlgebra:
    return LieAlgebra.construct(("e1", "e2", "e3"), {("e1", "e2"): {"e3": 1}})


def ax_b() -> LieAlgebra:
    return LieAlgebra.construct(("a", "b"), {("a", "b"): {"b": 1}})


def motion_e2() -> LieAlgebra:
    return LieAlgebra.construct(
        ("a", "x", "y"), {("a", "x"): {"y": 1}, ("a", "y"): {"x": -1}})


def g49_zero() -> LieAlgebra:
    return LieAlgebra.construct(
        ("e0", "e1", "e2", "e3"),
        {("e0", "e1"): {"e1": -1}, ("e0", "e2"): {"e2": 1}, ("e1", "e2"): {"e3": 1}})


def b5() -> LieAlgebra:
    return LieAlgebra.construct(
        ("d", "e0", "e1", "e2", "e3"),
        {("e1", "e2"): {"e3": 1},
         ("e0", "e1"): {"e1": -1},
         ("e0", "e2"): {"e2": 1},
         ("d", "e2"): {"e2": 1},
         ("d", "e3"): {"e3": 1}})
