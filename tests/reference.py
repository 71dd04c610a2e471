"""Reference definitions that tests compare against or check with: the
Leibniz derivation, monomial coordinates and the general-position test.
No orbitkit command needs them."""

from orbitkit.errors import DimensionMismatch
from orbitkit.exactlin import Matrix, Q0, Subspace, kernel, unit_vector, vec
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
