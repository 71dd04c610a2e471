"""PBW normal forms in the complexified enveloping algebra, symmetrization,
centrality, and evaluation in a Weyl-type algebra of differential operators.

Enveloping-algebra elements are combinations of ordered monomials in the
algebra's fixed basis order with ExpPoly coefficients, which hold symbolic
rational constants and the factors -i of the dotted generators -i*e_nu.
symmetrize and is_central build them already in normal form, rewriting a
generator word with e_j e_i = e_i e_j - [e_i, e_j] for j > i until it is
ordered; elements add termwise and have no product here.

Symmetrization and the centrality test work on rational word sums
{normal word: Fraction}: the structure constants are rational, so the normal
form of any generator word is one, and ExpPoly coefficients are multiplied in
once per output word.  The sum over the distinct orderings of a multiset M of
letters follows D(M) = sum over distinct letters a in M of e_a * D(M - a),
which visits the prod(m_a + 1) sub-multisets of M rather than its
k!/prod(m_a!) orderings (Dixmier, Enveloping Algebras, 2.4).

A DiffOp is a finite sum a_k(xi, params) D^k with D = -i d/dxi; composition
uses the exact rule D o a = a o D + (-i) da/dxi.  An element is evaluated in
one Horner pass over the prefix trie of its words, from the longest prefixes
down: each trie node costs one composition with a generator's image as the
left factor, and the coefficients, which must not mention xi, enter at the
nodes where their words end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .errors import DimensionMismatch, PreconditionFailed, RepCheckFailed
from .exactlin import GaussianRational, Q1
from .liealg import LieAlgebra
from .symflow import ExpPoly

MINUS_I = GaussianRational(0, -1)
PLUS_I = GaussianRational(0, 1)

XI = "xi"


@lru_cache(maxsize=None)
def _normalize_word(g: LieAlgebra, word: tuple):
    """Normal ordering of a generator word: {ordered word: rational coeff}.

    The leftmost inversion is rewritten first; any choice yields the same
    normal form (tests compare a right-first rewrite).  A letter outside
    range(dim) raises DimensionMismatch.
    """
    if not all(isinstance(i, int) and 0 <= i < g.dim for i in word):
        raise DimensionMismatch(f"word {word} has a letter outside range({g.dim})")
    pos = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
    if pos is None:
        return {word: Fraction(1)}
    a, b = word[pos], word[pos + 1]
    swapped = word[:pos] + (b, a) + word[pos + 2:]
    result = dict(_normalize_word(g, swapped))
    # e_a e_b = e_b e_a + [e_a, e_b]
    for k, c in g.sparse_table[a][b]:
        contracted = word[:pos] + (k,) + word[pos + 2:]
        for w, cf in _normalize_word(g, contracted).items():
            result[w] = result.get(w, Fraction(0)) + c * cf
    return {w: c for w, c in result.items() if c}


class UEAElement:
    """An element of the enveloping algebra in PBW normal form."""

    __slots__ = ("algebra", "terms")

    def __setattr__(self, *args):
        raise AttributeError("UEAElement is immutable")

    @classmethod
    def _from_normal(cls, algebra, terms):
        """The element with terms {normal word: ExpPoly}, zeros dropped; the
        words are already in normal form, so none is renormalized."""
        self = object.__new__(cls)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "terms", {w: c for w, c in terms.items() if not c.is_zero()})
        return self

    def __add__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        if self.algebra != other.algebra:
            raise DimensionMismatch("elements live over different algebras")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms[w] + c if w in terms else c
        return UEAElement._from_normal(self.algebra, terms)

    def __eq__(self, other):
        return (isinstance(other, UEAElement) and self.algebra == other.algebra
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.algebra.basis_names
        chunks = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            mono = "*".join(names[i] for i in word) if word else "1"
            chunks.append(f"({self.terms[word]})*{mono}")
        return " + ".join(chunks)


def _left_normal(algebra, word, ordered):
    """The normal form of word; an ordered (non-decreasing) word is its own,
    without a _normalize_word lookup."""
    return {word: Q1} if ordered else _normalize_word(algebra, word)


def _add_into(acc, word_sum, scale=1):
    """acc += scale * word_sum, in place; a word is stored on its first
    occurrence and added into afterwards."""
    scaled = (word_sum.items() if scale == 1
              else ((w, scale * c) for w, c in word_sum.items()))
    for w, c in scaled:
        acc[w] = acc[w] + c if w in acc else c


def _combine(scaled_sums):
    """{normal word: ExpPoly}, nonzero terms only: the sum of coeff * word_sum
    over (ExpPoly coeff, rational word sum) pairs, with one ExpPoly product
    per pair and nonzero word."""
    terms = {}
    for coeff, word_sum in scaled_sums:
        for w, r in word_sum.items():
            if r:
                terms[w] = terms[w] + coeff * r if w in terms else coeff * r
    return {w: c for w, c in terms.items() if not c.is_zero()}


def _ordering_sum(algebra, counts, memo):
    """{normal word: Fraction}: the sum of the normal forms of the distinct
    orderings of the multiset with letter counts `counts` (a dim-tuple)."""
    if counts not in memo:
        acc = {}
        for a, m in enumerate(counts):
            if m:
                rest = counts[:a] + (m - 1,) + counts[a + 1:]
                for w, c in _ordering_sum(algebra, rest, memo).items():
                    _add_into(acc, _left_normal(algebra, (a,) + w, not w or a <= w[0]), c)
        memo[counts] = {w: c for w, c in acc.items() if c}
    return memo[counts]


def symmetrize(q: ExpPoly, algebra: LieAlgebra) -> UEAElement:
    """Symmetrization of a polynomial in the basis coordinate functions.

    A monomial x_1...x_k goes to (1/k!) times the sum of its k! ordered
    products of dotted generators -i * e_nu, that is (-i)^k times the mean
    over its distinct orderings; variables that are not basis names stay in
    the coefficient as symbolic constants.  The ordering sums are rational
    word sums from the sub-multiset recursion of _ordering_sum, memoized for
    this call only, and each monomial's coefficient is multiplied in once
    per output word.
    """
    index = {name: i for i, name in enumerate(algebra.basis_names)}
    memo = {(0,) * algebra.dim: {(): Fraction(1)}}
    scaled_sums = []
    for (mono, lin), c in q.terms().items():
        if lin:
            raise DimensionMismatch("cannot symmetrize exponential terms")
        counts = [0] * algebra.dim
        coeff = ExpPoly.constant(c)
        for var, k in mono:
            if var in index:
                counts[index[var]] += k
            else:
                coeff = coeff * ExpPoly.variable(var) ** k
        degree = sum(counts)
        orderings = factorial(degree) // prod(factorial(m) for m in counts)
        scaled_sums.append((coeff * (MINUS_I ** degree / orderings),
                            _ordering_sum(algebra, tuple(counts), memo)))
    return UEAElement._from_normal(algebra, _combine(scaled_sums))


def _commutator_sum(algebra, word, i):
    """{normal word: Fraction}: the normal form of [e_word, e_i]."""
    acc = {}
    _add_into(acc, _left_normal(algebra, word + (i,), not word or word[-1] <= i))
    _add_into(acc, _left_normal(algebra, (i,) + word, not word or i <= word[0]), -1)
    return acc


def is_central(u: UEAElement):
    """(True, None) or (False, (generator name, nonzero commutator)).

    The witness is the commutator u * e_name - e_name * u, built from
    rational word sums with each coefficient of u multiplied in once per
    output word.
    """
    m = u.algebra
    for i, name in enumerate(m.basis_names):
        defect = UEAElement._from_normal(m, _combine(
            (coeff, _commutator_sum(m, word, i)) for word, coeff in u.terms.items()))
        if not defect.is_zero():
            return False, (name, defect)
    return True, None


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

class DiffOp:
    """Sum a_k * D^k with ExpPoly coefficients in xi and parameters."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        lifted = ((k, ExpPoly.lift(c)) for k, c in (terms or {}).items())
        object.__setattr__(self, "terms", {k: c for k, c in lifted if not c.is_zero()})

    def __setattr__(self, *args):
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def multiplication(cls, expr):
        """Multiplication by a function of xi (and parameters)."""
        return cls({0: expr})

    @classmethod
    def D(cls, power=1):
        return cls({power: 1})

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            other = DiffOp.multiplication(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return DiffOp(terms)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            other = DiffOp.multiplication(other)
        return self + (-other)

    def __neg__(self):
        return DiffOp({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """Operator composition; D^m o a = sum_j C(m,j) (-i d/dxi)^j(a) D^(m-j)."""
        if not isinstance(other, DiffOp):
            return DiffOp({k: c * other for k, c in self.terms.items()})
        terms = {}
        for m, a in self.terms.items():
            for k, b in other.terms.items():
                derived = b
                for j in range(m + 1):
                    if j:
                        derived = derived.d_dvar(XI) * MINUS_I
                    if derived.is_zero():
                        break
                    coeff = a * derived * comb(m, j)
                    key = m - j + k
                    terms[key] = terms[key] + coeff if key in terms else coeff
        return DiffOp(terms)

    def __rmul__(self, other):
        if isinstance(other, DiffOp):
            return NotImplemented
        return DiffOp({k: other * c for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            other = DiffOp.multiplication(other)
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        """No D^k with k >= 1 and a xi-free order-zero coefficient."""
        if any(k >= 1 for k in self.terms):
            return False
        if not self.terms:
            return True
        return XI not in self.terms[0].variables()

    def scalar_value(self) -> ExpPoly:
        if not self.is_scalar():
            raise PreconditionFailed("operator is not a scalar")
        return self.terms.get(0, ExpPoly())

    def __repr__(self):
        if not self.terms:
            return "0"
        chunks = []
        for k in sorted(self.terms):
            if k == 0:
                chunks.append(f"({self.terms[k]})")
            else:
                dk = "D" if k == 1 else f"D^{k}"
                chunks.append(f"({self.terms[k]})*{dk}")
        return " + ".join(chunks)


def check_rep(m: LieAlgebra, assign: dict):
    """Verify that dotted-generator assignments give a representation.

    assign maps basis names to DiffOps standing for the images of the
    dotted generators -i*e_nu.  With T(e_nu) = i*assign[nu] the bracket
    test [T(e_i), T(e_j)] = T([e_i, e_j]) must hold exactly; returns
    (True, None) or (False, (name_i, name_j, defect DiffOp)).
    """
    if set(assign) != set(m.basis_names):
        raise DimensionMismatch("assignment must cover exactly the basis")
    names = m.basis_names
    t = [PLUS_I * assign[name] for name in names]
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            lhs = t[i] * t[j] - t[j] * t[i]
            rhs = sum((t[k] * c for k, c in m.sparse_table[i][j]), DiffOp())
            defect = lhs - rhs
            if not defect.is_zero():
                return False, (names[i], names[j], defect)
    return True, None


def evaluate_uea(assign: dict, u: UEAElement) -> DiffOp:
    """Apply a differential-operator representation to a normal-form element.

    assign is as in check_rep.  For central u in an irreducible catalog
    representation the result is a scalar operator.  The coefficients of u
    are constants of U(g_C), so none may mention xi, the representation's
    variable: such a coefficient raises PreconditionFailed.

    The value is R(()) for R(p) = c_p + sum_a t_a o R(p.a) over the prefix
    trie of u's words, with t_a = i*assign[a] and c_p the coefficient of
    word p (zero off u's words).  It is computed from the longest prefixes
    down, one composition per trie node, and equals the sum of
    c_w * t_w1 o ... o t_wk because each xi-free c_w commutes with every t_a.
    """
    m = u.algebra
    ok, defect = check_rep(m, assign)
    if not ok:
        raise RepCheckFailed(
            f"assignment is not a representation; defect at {defect[0]},{defect[1]}")
    if any(XI in coeff.variables() for coeff in u.terms.values()):
        raise PreconditionFailed(f"a coefficient mentions {XI}, the representation's variable")
    t = [PLUS_I * assign[name] for name in m.basis_names]
    pending = {word: DiffOp.multiplication(coeff) for word, coeff in u.terms.items()}
    for length in range(max(map(len, pending), default=0), 0, -1):
        for prefix in [p for p in pending if len(p) == length]:
            op = t[prefix[-1]] * pending.pop(prefix)
            parent = prefix[:-1]
            pending[parent] = pending[parent] + op if parent in pending else op
    return pending.get((), DiffOp())
