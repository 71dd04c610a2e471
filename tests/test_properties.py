"""Cross-module invariants: orbit invariance of the vanishing condition,
commutator Jacobi in the enveloping algebra, scalar action of central
elements, and normal-form idempotence."""

import random
from fractions import Fraction

from reference import ReferenceUEA

from orbitkit.catalog import get_entry
from orbitkit.coadjoint import condition_R_at, functional, stabilizer_ideal
from orbitkit.envelop import evaluate_uea
from orbitkit.exactlin import Subspace
from orbitkit.invariants import invariant_space, semi_invariants
from orbitkit.liealg import b5, g49_zero
from orbitkit.symflow import ExpPoly, orbit_map

F = Fraction

B5_STEPS = [("d", "s"), ("e0", "t"), ("e1", "x1"), [("e2", "x2"), ("e3", "x3")]]


def test_condition_r_is_orbit_invariant():
    # the verdict only depends on the coadjoint orbit: sample points by
    # exact exponential substitution and recheck
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    om = orbit_map(g, f, B5_STEPS)
    verdict_at_f, _ = condition_R_at(g, f)
    rng = random.Random(23)
    for _ in range(20):
        assignment = {v: F(rng.randint(-6, 6), rng.randint(1, 4))
                      for v in ("x1", "x2", "x3")}
        atoms = {v: F(2) ** rng.randint(-4, 4) * F(rng.randint(1, 5))
                 for v in ("s", "t")}
        point = om.evaluate(assignment, atoms)
        verdict, cert = condition_R_at(g, point)
        assert verdict == verdict_at_f
        assert cert.m == stabilizer_ideal(g, f, g.commutator_ideal())


def test_uea_commutator_satisfies_jacobi():
    def commutator(a, b):
        return a * b - b * a

    m = g49_zero()
    rng = random.Random(31)
    for _ in range(30):
        u, v, w = (ReferenceUEA(m, {tuple(rng.choices(range(4), k=rng.randint(0, 2))):
                                    F(rng.randint(-2, 2))}) for _ in range(3))
        total = (commutator(u, commutator(v, w))
                 + commutator(v, commutator(w, u))
                 + commutator(w, commutator(u, v)))
        assert total.is_zero()


def test_central_elements_act_by_scalars_in_catalog_reps():
    entry = get_entry("g49_0")
    m = entry.algebra
    f0 = ExpPoly.variable("f0")
    e0, e1, e2, e3 = (ExpPoly.variable(n) for n in m.basis_names)
    from orbitkit.envelop import symmetrize, is_central
    candidates = [
        symmetrize(e3, m),
        symmetrize(e0 * e3 - e1 * e2, m),
        symmetrize(e0 * e3 - e1 * e2 - f0 * e3, m),
        ReferenceUEA(m, {(): F(7, 2)}),
    ]
    for name, assign in entry.representations.items():
        for u in candidates:
            assert is_central(u)[0]
            op = evaluate_uea(assign, u)
            assert op.is_scalar(), (name, u)


def test_invariants_are_constant_along_catalog_flows():
    # infinitesimal invariance matches global invariance: substituting the
    # one-parameter flows into an invariant removes every flow parameter
    m = g49_zero()
    f = functional(m, {"e0": F(1, 3), "e3": 1})
    steps = [("e0", "t"), ("e1", "x1"), [("e2", "x2"), ("e3", "x3")]]
    om = orbit_map(m, f, steps)
    for q in invariant_space(m, semi_invariants(m, 2)):
        substituted = q.substitute(dict(zip(om.component_names, om.components)))
        assert not (substituted.variables() & set(om.params))


def test_expoly_normal_form_idempotent():
    rng = random.Random(41)
    for _ in range(40):
        terms = {}
        p = ExpPoly()
        for _ in range(4):
            t = (ExpPoly.variable(rng.choice("xyz")) ** rng.randint(0, 2)
                 * ExpPoly.exp({rng.choice("st"): rng.randint(-1, 1)})
                 * F(rng.randint(-3, 3), rng.randint(1, 3)))
            p = p + t
        rebuilt = ExpPoly(p.terms())
        assert rebuilt == p
        assert (p - p).is_zero()


def test_restricted_and_full_components_agree():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    m = stabilizer_ideal(g, f)
    om_full = orbit_map(g, f, B5_STEPS)
    om_m = orbit_map(g, f, B5_STEPS, restrict_to=m)
    full = dict(zip(om_full.component_names, om_full.components))
    for name, comp in zip(om_m.component_names, om_m.components):
        assert full[name] == comp


def test_largest_ideal_swallows_known_ideals():
    from reference import largest_ideal_in_kernel
    from orbitkit.coadjoint import random_functional
    rng = random.Random(55)
    for name in ("b5", "g49_0", "heisenberg3", "axb"):
        g = get_entry(name).algebra
        family = [g.commutator_ideal(), g.center(), g.nilradical()]
        family.append(family[0].intersect(family[1]))
        for _ in range(8):
            f = random_functional(g, rng)
            result = largest_ideal_in_kernel(g, f)
            assert g.is_ideal(result)
            for ideal in family:
                if all(sum((a * b for a, b in zip(f, row)), F(0)) == 0
                       for row in ideal.basis):
                    assert result.contains_subspace(ideal)


def test_central_series_monotone_and_short():
    rng = random.Random(56)
    for name in ("b5", "g49_0", "heisenberg3", "axb"):
        g = get_entry(name).algebra
        series, stable = g.lower_central_series()
        assert len(series) <= g.dim
        for bigger, smaller in zip(series, series[1:]):
            assert bigger.contains_subspace(smaller)
        if g.is_nilpotent():
            assert stable.dim == 0


def test_vergne_always_subalgebra_and_isotropic():
    from orbitkit.coadjoint import (check_polarization, random_functional,
                                    vergne_polarization)
    rng = random.Random(57)
    for name in ("b5", "g49_0", "heisenberg3", "axb"):
        entry = get_entry(name)
        g = entry.algebra
        for _ in range(6):
            f = random_functional(g, rng)
            p = vergne_polarization(g, entry.ideal_flag, f)
            report = check_polarization(g, f, p)
            assert report.is_subalgebra and report.is_isotropic
            # catalog algebras are exponential with rational flags, so the
            # dimension count holds as well
            assert report.dimension_ok and report.contains_stabilizer


def test_mtilde_quotients_stay_nilpotent_across_catalog():
    from orbitkit.coadjoint import random_functional
    from orbitkit.liealg import mtilde
    rng = random.Random(58)
    for name in ("b5", "g49_0", "heisenberg3", "axb"):
        g = get_entry(name).algebra
        for _ in range(4):
            f = random_functional(g, rng)
            m = stabilizer_ideal(g, f, g.commutator_ideal())
            _, m_inf = g.descending_central_series(m)
            mt = mtilde(g, m)
            assert mt.contains_subspace(m)
            sub, _ = g.subalgebra(mt)
            # express the stable term inside the subalgebra and quotient by it
            sub_space = Subspace.from_vectors(
                sub.dim, [_coords_in(mt, row) for row in m_inf.basis])
            q, _ = sub.quotient(sub_space)
            assert q.is_nilpotent()


def _coords_in(space, vector):
    coords = space.coordinates_of(vector)
    assert coords is not None
    return coords
