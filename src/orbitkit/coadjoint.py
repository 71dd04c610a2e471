"""Linear functionals, stabilizers, condition (R) and the regularity verdict.

Functionals are rational covectors on the dual basis of a LieAlgebra.  Every
verdict produced here carries an exact certificate that can be recomputed
from scratch; nothing is ever rounded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, FlagInvalid, NotCoabelianIdeal
from .exactlin import Matrix, Q0, Subspace, kernel, vec
from .liealg import LieAlgebra

# numerators and denominators of seeded random functionals are bounded by this
RANDOM_COEFF_BOUND = 9
# regularity_report tests condition (R) on this many seeded random functionals
RANDOM_SAMPLES = 24

STAR_REGULAR = "star-regular"
PRIMITIVE_STAR_REGULAR = "primitive-star-regular"
CONDITION_R_FAILS = "condition-R-fails"
UNDETERMINED = "undetermined"


def functional(g: LieAlgebra, values) -> tuple:
    """Covector from a {basis name: rational} mapping; omitted names are zero."""
    coeffs = [Q0] * g.dim
    for name, val in values.items():
        coeffs[g.index_of(name)] = Fraction(val)
    return tuple(coeffs)


def form_matrix(g: LieAlgebra, f) -> Matrix:
    """The antisymmetric form B_f(e_i, e_j) = f([e_i, e_j])."""
    f = vec(f)
    if len(f) != g.dim:
        raise DimensionMismatch("functional length differs from algebra dimension")
    return Matrix([[sum((f[k] * c for k, c in cell), Q0) for cell in row]
                   for row in g.sparse_table])


def stabilizer(g: LieAlgebra, f) -> Subspace:
    """g_f: the radical of B_f, i.e. the coadjoint stabilizer algebra of f."""
    return kernel(form_matrix(g, f))


def stabilizer_ideal(g: LieAlgebra, f, n: Subspace | None = None) -> Subspace:
    """m = g_f + n for a coabelian ideal n (defaults to the nilradical).  n must
    contain [g, g], which makes n and m ideals (see LieAlgebra.is_ideal)."""
    if n is None:
        n = g.nilradical()
    if not n.contains_subspace(g.commutator_ideal()):
        raise NotCoabelianIdeal("n must be an ideal containing the commutator ideal")
    return stabilizer(g, f) + n


class ConditionRCertificate(NamedTuple):
    """Witness data for the condition (R) test at one functional."""

    f: tuple
    n: Subspace
    m: Subspace
    m_infinity: Subspace
    values_on_m_infinity: tuple
    holds: bool

    def verify(self, g: LieAlgebra) -> bool:
        """Recompute every cited object and compare with the stored ones."""
        return condition_R_at(g, self.f)[1] == self


def condition_R_at(g: LieAlgebra, f):
    """Does f vanish on the stable term of the central series of its stabilizer ideal?

    Returns (bool, certificate); the certificate carries m = g_f + [g,g],
    its stable term, and the values of f there.
    """
    f = vec(f)
    n = g.commutator_ideal()
    m = stabilizer_ideal(g, f, n)
    _, m_inf = g.descending_central_series(m)
    values = m_inf.restrict(f)
    holds = all(x == 0 for x in values)
    return holds, ConditionRCertificate(f=f, n=n, m=m, m_infinity=m_inf,
                                        values_on_m_infinity=values, holds=holds)


def _gram(b, vectors) -> Matrix:
    """f([v, w]) = v.B_f.w over v, w in vectors, read off the entries b of B_f
    on the supports of the vectors."""
    supports = [[(i, x) for i, x in enumerate(v) if x] for v in vectors]
    return Matrix([[sum((x * b[i][j] * y for i, x in v for j, y in w if b[i][j]), Q0)
                    for w in supports] for v in supports])


def vergne_polarization(g: LieAlgebra, flag, f) -> Subspace:
    """Sum of the stepwise stabilizers along a complete flag of ideals.

    flag must be a chain 0 = g_0 < g_1 < ... < g_n = g of ideals with
    dim g_k = k (the leading zero term may be omitted).  Given the chain up
    to g_k, g_k = g_(k-1) + Qv for its basis row v whose pivot g_(k-1) lacks,
    so if g_(k-1) is an ideal, g_k is one iff it holds every [e_i, v]: n^2
    brackets for the flag.  Each member's stabilizer is the kernel of its
    Gram, read off B_f, formed once.
    """
    chain = [s for s in flag if s.dim > 0]
    if [s.dim for s in chain] != list(range(1, g.dim + 1)):
        raise FlagInvalid("flag dimensions must be exactly 1..dim")
    units = Matrix.identity(g.dim).entries
    for small, big in zip([Subspace.zero(g.dim)] + chain, chain):
        if not big.contains_subspace(small):
            raise FlagInvalid("flag is not a chain")
        v = next(row for row, p in zip(big.basis, big.pivots) if p not in small.pivots)
        if not all(big.contains(g.bracket(e, v)) for e in units):
            raise FlagInvalid("every flag member must be an ideal")
    b = form_matrix(g, f).entries
    return Subspace.from_vectors(g.dim, [v for gk in chain
                                         for v in gk.kernel_of(_gram(b, gk.basis)).basis])


class PolarizationReport(NamedTuple):
    """The four exactly checkable polarization flags at a functional."""

    subspace: Subspace
    is_subalgebra: bool
    is_isotropic: bool
    dimension_ok: bool
    contains_stabilizer: bool

    @property
    def certified(self) -> bool:
        return (self.is_subalgebra and self.is_isotropic
                and self.dimension_ok and self.contains_stabilizer)


def check_polarization(g: LieAlgebra, f, p: Subspace) -> PolarizationReport:
    """Check subalgebra, isotropy f([p,p]) = 0, dim p = (dim g + dim g_f)/2,
    and g_f <= p."""
    b = form_matrix(g, f)
    gf = kernel(b)
    return PolarizationReport(
        subspace=p,
        is_subalgebra=g.is_subalgebra(p),
        is_isotropic=_gram(b.entries, p.basis).is_zero(),
        dimension_ok=2 * p.dim == g.dim + gf.dim,
        contains_stabilizer=p.contains_subspace(gf),
    )


# ---------------------------------------------------------------------------
# the decision procedure
# ---------------------------------------------------------------------------

def random_functional(g: LieAlgebra, rng: random.Random) -> tuple:
    """Seeded random covector; numerators and denominators bounded by
    RANDOM_COEFF_BOUND."""
    return tuple(Fraction(rng.randint(-RANDOM_COEFF_BOUND, RANDOM_COEFF_BOUND),
                          rng.randint(1, RANDOM_COEFF_BOUND))
                 for _ in range(g.dim))


class RegularityReport(NamedTuple):
    """Verdict of the decision cascade, with certificates and side notes."""

    verdict: str
    reason: str
    certificate: ConditionRCertificate | None = None
    notes: tuple = ()
    branches: tuple = ()
    samples_checked: int = 0

    def verify(self, g: LieAlgebra) -> bool:
        if self.certificate is None:
            return True
        return self.certificate.verify(g) and not self.certificate.holds


def regularity_report(g: LieAlgebra, sample_functionals=(),
                      seed: int = 0) -> RegularityReport:
    """Decision cascade for (primitive) star-regularity of exp(g).

    Branches, in order: nilpotent algebras are star-regular (polynomial
    growth); metabelian algebras are star-regular; a one-codimensional
    nilpotent ideal forces primitive star-regularity; otherwise the
    vanishing condition on stable central-series terms is tested on the
    supplied sample plus seeded random functionals.  A violation there is an
    exact disproof; absence of violations is only evidence and is reported
    as undetermined.
    """
    exp_verdict = g.is_exponential()
    if not exp_verdict:
        return RegularityReport(
            verdict=UNDETERMINED,
            reason="the decision procedure applies to exponential algebras only",
            notes=(f"exponentiality check: {exp_verdict.kind} ({exp_verdict.detail})",))

    comm = g.commutator_ideal()
    rules = (  # (branch, holds, verdict, reason)
        ("nilpotent", g.is_nilpotent(), STAR_REGULAR,
         "nilpotent: the group has polynomial growth"),
        ("metabelian", g.bracket_span(comm, comm).dim == 0, STAR_REGULAR,
         "metabelian: the commutator ideal is abelian"),
        ("codimension-one-nilradical", g.nilradical().dim == g.dim - 1,
         PRIMITIVE_STAR_REGULAR, "the nilradical is a one-codimensional nilpotent ideal"),
    )
    branches = tuple(name for name, holds, _, _ in rules if holds)
    notes = tuple(f"branch satisfied: {b}" for b in branches)
    for _, holds, verdict, reason in rules:
        if holds:
            return RegularityReport(verdict=verdict, reason=reason,
                                    notes=notes, branches=branches)

    rng = random.Random(seed)
    samples = [vec(f) for f in sample_functionals]
    samples += [random_functional(g, rng) for _ in range(RANDOM_SAMPLES)]
    for f in samples:
        holds, cert = condition_R_at(g, f)
        if not holds:
            return RegularityReport(
                verdict=CONDITION_R_FAILS,
                reason="a functional with nonvanishing restriction to the stable "
                       "term of its stabilizer ideal's central series",
                certificate=cert, notes=notes, branches=branches,
                samples_checked=len(samples))
    return RegularityReport(
        verdict=UNDETERMINED,
        reason="condition (R) holds on the sample - evidence only, a sample "
               "cannot prove the universally quantified condition",
        notes=notes, branches=branches, samples_checked=len(samples))
