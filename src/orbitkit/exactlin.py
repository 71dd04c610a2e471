"""Exact linear algebra over the rationals and the Gaussian rationals.

Every value is immutable and every operation is pure; there is no floating
point anywhere in this module.  Subspaces are kept in reduced row echelon
form, so subspace equality is literal equality of the canonical basis.

Scalars have one normal form: a real value is always a Fraction, and only a
value with a nonzero imaginary part is a GaussianRational.  Both types carry
.real and .imag (PEP 3141), so code reads them whatever the scalar type.
A GaussianRational times a nonzero int or Fraction takes two Fraction
products and is never real; times zero it is Q0.  vec and every Matrix row
coerce their entries to normal form; Fractions alone are kept as they are.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch

Q0 = Fraction(0)
Q1 = Fraction(1)


def scalar(x):
    """Coerce ints, strings and Fractions to Fraction; pass GaussianRational through."""
    if type(x) is Fraction or isinstance(x, GaussianRational):
        return x
    return Fraction(x)


def _rational(x):
    return x if type(x) is Fraction else Fraction(x)


class GaussianRational:
    """An exact non-real Gaussian rational real + imag*i.

    GaussianRational(real, imag) returns the Fraction real when imag is zero,
    and all arithmetic goes through it, so no GaussianRational is real.
    """

    __slots__ = ("real", "imag")

    def __new__(cls, real=0, imag=0):
        imag = _rational(imag)
        if not imag:
            return _rational(real)
        self = object.__new__(cls)
        object.__setattr__(self, "real", _rational(real))
        object.__setattr__(self, "imag", imag)
        return self

    def __setattr__(self, *args):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, o):
        if not isinstance(o, SCALARS):
            return NotImplemented
        return GaussianRational(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, o):
        if not isinstance(o, SCALARS):
            return NotImplemented
        return GaussianRational(self.real - o.real, self.imag - o.imag)

    def __rsub__(self, o):
        if not isinstance(o, SCALARS):
            return NotImplemented
        return GaussianRational(o.real - self.real, o.imag - self.imag)

    def __mul__(self, o):
        if isinstance(o, GaussianRational):
            return GaussianRational(self.real * o.real - self.imag * o.imag,
                                    self.real * o.imag + self.imag * o.real)
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        # a real o: two products, and a nonzero o keeps the imaginary part
        if not o:
            return Q0
        out = object.__new__(GaussianRational)
        object.__setattr__(out, "real", self.real * o)
        object.__setattr__(out, "imag", self.imag * o)
        return out

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, SCALARS):
            return NotImplemented
        # (a + bi) / (c + di) = (a + bi)(c - di) / (c^2 + d^2); a zero o
        # raises ZeroDivisionError in the Fraction division
        n = o.real * o.real + o.imag * o.imag
        return GaussianRational((self.real * o.real + self.imag * o.imag) / n,
                                (self.imag * o.real - self.real * o.imag) / n)

    def __rtruediv__(self, o):
        # a real o: a GaussianRational o divides through its own __truediv__
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        n = self.real * self.real + self.imag * self.imag
        return GaussianRational(o * self.real / n, -o * self.imag / n)

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Q1
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.real == other.real and self.imag == other.imag
        return False if isinstance(other, SCALARS) else NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag))

    def __repr__(self):
        if self.real == 0:
            return f"{self.imag}*i"
        sign = "+" if self.imag > 0 else "-"
        return f"{self.real}{sign}{abs(self.imag)}*i"


SCALARS = (int, Fraction, GaussianRational)


# ---------------------------------------------------------------------------
# vectors (plain tuples)
# ---------------------------------------------------------------------------

def vec(entries):
    """entries as a tuple in normal form, which all-Fraction entries are in."""
    v = tuple(entries)
    return v if set(map(type, v)) <= {Fraction} else tuple(map(scalar, v))


def vec_scale(c, u):
    # a scale by 1 and the zero entries are left as they are
    if c == 1:
        return tuple(u)
    return tuple(c * a if a else a for a in u)


def vec_dot(u, v):
    # zero entries are skipped: ad-matrices are mostly zeros
    total = Q0
    for a, b in zip(u, v):
        if a and b:
            total = total + a * b
    return total


def unit_vector(n, i):
    return tuple(Q1 if j == i else Q0 for j in range(n))


class Matrix:
    """Immutable dense matrix with exact entries; cols is the width of one without rows."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=0):
        rows = tuple(map(vec, entries))
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else cols)
        if any(len(r) != self.cols for r in rows):
            raise DimensionMismatch("ragged matrix rows")

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([unit_vector(n, i) for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls([(Q0,) * cols for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, columns):
        return cls(list(zip(*columns)), len(columns))

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return Matrix(list(zip(*self.entries)) if self.rows else [()] * self.cols, self.rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = scalar(c)
        return Matrix([vec_scale(c, r) for r in self.entries], self.cols)

    def shifted(self, lam):
        """A - lam*I, with lam subtracted on the diagonal alone."""
        if self.rows != self.cols:
            raise DimensionMismatch("shift of a non-square matrix")
        return Matrix([[x - lam if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(self.entries)], self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch("inner dimensions differ")
            ot = other.transpose()
            return Matrix([[vec_dot(r, c) for c in ot.entries] for r in self.entries],
                          other.cols)
        return NotImplemented

    def apply(self, v):
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length differs from column count")
        return tuple(vec_dot(r, v) for r in self.entries)

    def __pow__(self, k):
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        out = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self):
        return not any(x for row in self.entries for x in row)

    def __repr__(self):
        return "Matrix(" + ", ".join(str(list(r)) for r in self.entries) + ")"


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        # zeros and a pivot of 1 divide to themselves
        if pv != 1:
            work[r] = [x / pv if x else x for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b if b else a for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    reduced = tuple(tuple(row) for row in work[:r])
    return reduced, tuple(pivots)


def rank(m: Matrix) -> int:
    return len(rref(m.entries)[0])


def kernel(m: Matrix) -> "Subspace":
    """Null space {v : Mv = 0} with canonical basis."""
    return Subspace.common_kernel(m.cols, [m])


def solve(m: Matrix, b):
    """Some x with Mx = b, or None when the system is inconsistent."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length differs from row count")
    aug = [list(row) + [scalar(x)] for row, x in zip(m.entries, b)]
    reduced, pivots = rref(aug)
    n = m.cols
    if n in pivots:
        return None
    x = [Q0] * n
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][n]
    return tuple(x)


class Subspace:
    """A subspace of a fixed coordinate space, stored as RREF basis rows.

    The reduced echelon basis is the unique canonical representative, so
    two Subspace values are equal exactly when they describe the same
    subspace.  pivots holds the leading column of each basis row.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis_rows):
        basis = tuple(tuple(r) for r in basis_rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots",
                           tuple(next(i for i, x in enumerate(r) if x) for r in basis))

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        vectors = [vec(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch("vector length differs from ambient dimension")
        reduced, _ = rref(vectors) if vectors else ((), ())
        return cls(ambient_dim, reduced)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, Matrix.identity(ambient_dim).entries)

    @classmethod
    def common_kernel(cls, ambient_dim, matrices):
        """{v : Mv = 0 for every M in matrices}, from one rref of their stacked
        rows; the full space when there are no rows."""
        rows = []
        for m in matrices:
            if m.cols != ambient_dim:
                raise DimensionMismatch("matrix width differs from ambient dimension")
            rows.extend(m.entries)
        if not rows:
            return cls.full(ambient_dim)
        reduced, pivots = rref(rows)
        basis = []
        for fc in range(ambient_dim):
            if fc in pivots:
                continue
            v = [Q0] * ambient_dim
            v[fc] = Q1
            for r, pc in enumerate(pivots):
                v[pc] = -reduced[r][fc]
            basis.append(tuple(v))
        return cls.from_vectors(ambient_dim, basis)

    @classmethod
    def span_of_coordinates(cls, ambient_dim, coords):
        return cls.from_vectors(ambient_dim, [unit_vector(ambient_dim, c) for c in coords])

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def reduce(self, v):
        """Residual of v after eliminating against the canonical basis."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        residual = list(v)
        for p, row in zip(self.pivots, self.basis):
            f = residual[p]
            if f:
                residual = [a - f * b if b else a for a, b in zip(residual, row)]
        return tuple(residual)

    def contains(self, v):
        return not any(self.reduce(v))

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.basis)

    def coordinates_of(self, v):
        """Coefficients of v in the canonical basis, or None if v is outside.

        The basis is reduced, so the coefficient of a row is v at its pivot.
        """
        if any(self.reduce(v)):
            return None
        return tuple(scalar(v[p]) for p in self.pivots)

    def restrict(self, f):
        """Coordinates of the covector f restricted to the subspace, in its
        canonical basis."""
        f = vec(f)
        if len(f) != self.ambient_dim:
            raise DimensionMismatch("functional length differs from ambient dimension")
        return tuple(vec_dot(f, b) for b in self.basis)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")

    def __add__(self, other):
        self._check_ambient(other)
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other):
        self._check_ambient(other)
        return Subspace.common_kernel(self.ambient_dim, [self.annihilator_matrix(),
                                                         other.annihilator_matrix()])

    def kernel_of(self, a: Matrix) -> Subspace:
        """The vectors of the subspace whose coordinates a kills: the sum v_j
        of c_j[k] * basis_k over k for each basis row c_j of ker(a), no rref.

        Both bases are reduced, so the v_j are too.  With p_k the pivot of
        basis_k and q_j that of c_j, only the basis_k with k >= q_j enter v_j,
        so v_j is zero before p_(q_j); its entry at each p_i is c_j[i], so it
        is 1 at p_(q_j) and 0 at the pivot p_(q_i) of every other v_i.
        """
        if a.cols != self.dim:
            raise DimensionMismatch("matrix width differs from subspace dimension")
        rows = []
        for coeffs in kernel(a).basis:
            v = [Q0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = [x + c * b if b else x for x, b in zip(v, row)]
            rows.append(tuple(v))
        return Subspace(self.ambient_dim, rows)

    def complement_coordinates(self):
        """Lexicographically first coordinate subset completing the basis.

        e_c completes it exactly when no vector of the subspace has its last
        nonzero entry at c, so the subset is the non-pivot columns of the
        echelon form taken from the last column to the first.
        """
        n = self.ambient_dim
        _, reversed_pivots = rref([row[::-1] for row in self.basis])
        last = {n - 1 - p for p in reversed_pivots}
        return tuple(c for c in range(n) if c not in last)

    def annihilator_matrix(self):
        """Matrix whose kernel (as row covectors acting by the dot product) is self."""
        return Matrix(kernel(Matrix(self.basis, self.ambient_dim)).basis, self.ambient_dim)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
