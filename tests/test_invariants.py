"""Derivations, (semi-)invariants, vanishing on orbits, closure certificates."""

import random
from fractions import Fraction

import pytest

from orbitkit.catalog import get_entry
from orbitkit.coadjoint import functional, stabilizer_ideal
from orbitkit.errors import DimensionMismatch, InvariantNotVanishing, NotIdeal
from orbitkit.exactlin import Matrix, Subspace
from orbitkit.invariants import (
    CRITICAL,
    EXACT_POINT,
    IN_CLOSURE_EVIDENCE,
    IN_CLOSURE_NUMERIC,
    INCONCLUSIVE,
    NOT_IN_CLOSURE,
    NOT_IN_OMEGA,
    SAME_N_ORBIT,
    closure_membership,
    critical_test,
    derivation,
    invariant_space,
    orbit_certificates,
    semi_invariants,
    vanish_on_orbit,
)
from orbitkit.liealg import LieAlgebra, b5, g49_zero, heisenberg3
from orbitkit.symflow import ExpPoly, orbit_map

F = Fraction

B5_STEPS = [("d", "s"), ("e0", "t"), ("e1", "x1"), [("e2", "x2"), ("e3", "x3")]]


def var(name):
    return ExpPoly.variable(name)


def b5_pipeline():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    m = stabilizer_ideal(g, f)
    om = orbit_map(g, f, B5_STEPS, restrict_to=m)
    certs = orbit_certificates(g, f, om, 2)
    return g, f, om, certs


def poly_in_span(q, basis_polys, names, degree):
    """Membership via exact linear algebra on the monomial coefficients."""
    from orbitkit.invariants import _monomials, _poly_to_vector
    monomials = _monomials(names, degree)
    cols = [_poly_to_vector(p, names, monomials) for p in basis_polys]
    target = _poly_to_vector(q, names, monomials)
    from orbitkit.exactlin import Matrix, solve
    return solve(Matrix.from_columns(cols), target) is not None


def test_derivation_examples():
    m = g49_zero()
    e0, e1, e2, e3 = (var(n) for n in m.basis_names)
    assert derivation(m, "e3", e0 * e1 * e2).is_zero()
    assert derivation(m, "e0", e0 * e3 - e1 * e2).is_zero()
    g = b5()
    mm = Subspace.span_of_coordinates(5, [1, 2, 3, 4])
    assert derivation(g, "d", e3, module=mm) == e3


def test_derivation_leibniz_and_linearity():
    m = g49_zero()
    rng = random.Random(8)
    names = m.basis_names
    for _ in range(15):
        q = sum((var(rng.choice(names)) * var(rng.choice(names)) * rng.randint(-3, 3)
                 for _ in range(2)), ExpPoly.constant(rng.randint(-2, 2)))
        r = var(rng.choice(names)) + rng.randint(-2, 2)
        x = tuple(F(rng.randint(-3, 3)) for _ in range(4))
        left = derivation(m, x, q * r)
        right = derivation(m, x, q) * r + q * derivation(m, x, r)
        assert left == right


def test_invariant_space_abelian():
    a2 = LieAlgebra.abelian(("u", "v"))
    inv = invariant_space(a2, 2)
    assert len(inv) == 5  # u, v, u^2, uv, v^2


def test_invariant_space_g49():
    m = g49_zero()
    inv = invariant_space(m, 2)
    assert len(inv) == 3
    e0, e1, e2, e3 = (var(n) for n in m.basis_names)
    assert poly_in_span(e3, inv, m.basis_names, 2)
    assert poly_in_span(e0 * e3 - e1 * e2, inv, m.basis_names, 2)
    for q in inv:
        for name in m.basis_names:
            assert derivation(m, name, q).is_zero()


def test_invariant_space_h3_degree_one():
    h3 = heisenberg3()
    inv = invariant_space(h3, 1)
    assert inv == [var("e3")]


def test_semi_invariants_b5_on_stabilizer_dual():
    g = b5()
    mm = Subspace.span_of_coordinates(5, [1, 2, 3, 4])
    semis = semi_invariants(g, 2, module=mm)
    e0, e1, e2, e3 = (var(n) for n in ("e0", "e1", "e2", "e3"))
    expected_weight = (F(1), F(0), F(0), F(0), F(0))
    found = {}
    for q, w in semis:
        found[q] = w
    assert found.get(e3) == expected_weight
    assert found.get(e0 * e3 - e1 * e2) == expected_weight
    comm = g.commutator_ideal()
    for q, w in semis:
        # weights vanish on the commutator ideal, and the eigen equation holds
        for b in comm.basis:
            assert sum((c * x for c, x in zip(w, b)), F(0)) == 0
        for i, name in enumerate(g.basis_names):
            assert derivation(g, name, q, module=mm) == q * w[i]


def test_semi_invariant_weights_agree_with_derivation():
    # the weights are read off the derivation matrices; derivation builds
    # the same action by Leibniz on ExpPolys and is the reference
    for name in ("axb", "g49_0", "heisenberg3", "b5"):
        g = get_entry(name).algebra
        for q, w in semi_invariants(g, 2):
            for i, x in enumerate(g.basis_names):
                assert derivation(g, x, q) == q * w[i]


def test_dual_of_a_non_ideal_is_rejected():
    g = b5()
    line = Subspace.span_of_coordinates(5, [1])
    with pytest.raises(NotIdeal):
        derivation(g, "d", var("e0"), module=line)
    with pytest.raises(NotIdeal):
        invariant_space(g, 1, module=line)
    with pytest.raises(NotIdeal):
        semi_invariants(g, 1, module=line)


def test_semi_invariants_h3():
    h3 = heisenberg3()
    semis = semi_invariants(h3, 1)
    assert (var("e3"), (F(0), F(0), F(0))) in semis


def test_vanish_on_orbit():
    g, f, om, certs = b5_pipeline()
    p = certs[0]
    assert vanish_on_orbit(ExpPoly(), om)
    assert vanish_on_orbit(p, om)
    assert not vanish_on_orbit(var("e3"), om)
    with pytest.raises(DimensionMismatch):
        vanish_on_orbit(var("s"), om)


def test_orbit_certificates_find_the_invariant():
    g, f, om, certs = b5_pipeline()
    e0, e1, e2, e3 = (var(n) for n in ("e0", "e1", "e2", "e3"))
    assert certs == [e0 * e3 - e1 * e2 - e3 * F(1, 3)]


def test_closure_membership_self_is_exact():
    g, f, om, certs = b5_pipeline()
    target = (F(1, 3), F(0), F(0), F(1))
    verdict = closure_membership(om, target, certs, seed=5)
    assert verdict.kind == EXACT_POINT
    assert verdict.squared_distance == 0
    assert om.evaluate(verdict.assignment, verdict.exp_atoms) == target


def test_closure_membership_critical_certificate():
    g, f, om, certs = b5_pipeline()
    verdict = closure_membership(om, (F(0), F(1), F(2), F(0)), certs, seed=5)
    assert verdict.kind == NOT_IN_CLOSURE
    assert verdict.invariant == certs[0]
    assert verdict.invariant_value == F(-2)


def test_closure_membership_boundary_family():
    g, f, om, certs = b5_pipeline()
    tol = F(1, 10 ** 6)
    verdict = closure_membership(om, (F(5), F(3), F(0), F(0)), certs,
                                 tol=tol, budget=10 ** 4, seed=7)
    assert verdict.kind == IN_CLOSURE_NUMERIC
    assert verdict.squared_distance < tol * tol
    # the witness re-evaluates to the stored exact squared distance
    point = om.evaluate(verdict.assignment, verdict.exp_atoms)
    target = (F(5), F(3), F(0), F(0))
    d2 = sum((a - b) ** 2 for a, b in zip(point, target))
    assert d2 == verdict.squared_distance


def test_closure_membership_requires_vanishing_invariants():
    g, f, om, certs = b5_pipeline()
    with pytest.raises(InvariantNotVanishing):
        closure_membership(om, (F(0),) * 4, [var("e3")])


def test_closure_membership_deterministic():
    g, f, om, certs = b5_pipeline()
    target = (F(-2), F(0), F(7), F(0))
    v1 = closure_membership(om, target, certs, seed=13)
    v2 = closure_membership(om, target, certs, seed=13)
    assert (v1.kind, v1.squared_distance, v1.assignment, v1.exp_atoms,
            v1.evaluations) == \
           (v2.kind, v2.squared_distance, v2.assignment, v2.exp_atoms,
            v2.evaluations)


def test_critical_test_labels():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    assert critical_test(g, f, f, steps=B5_STEPS, seed=2).label == SAME_N_ORBIT
    crit = critical_test(g, f, functional(g, {"e1": 1, "e2": 1}),
                         steps=B5_STEPS, seed=2)
    assert crit.label == CRITICAL
    assert crit.full.kind == NOT_IN_CLOSURE
    neg = critical_test(g, f, functional(g, {"e3": -1}), steps=B5_STEPS,
                        seed=2, budget=1500)
    assert neg.label == NOT_IN_OMEGA
    assert neg.restricted.kind == INCONCLUSIVE
    boundary = critical_test(g, f, functional(g, {"e1": 1, "e0": 2}),
                             steps=B5_STEPS, seed=2)
    assert boundary.label == IN_CLOSURE_EVIDENCE


def test_critical_test_agrees_with_catalog_description():
    from orbitkit.catalog import get_entry
    entry = get_entry("b5")
    g = entry.algebra
    f = entry.reference_functional
    rng = random.Random(17)
    targets = []
    for e3 in (F(0), F(0), F(2), F(1, 3), F(-1)):
        targets.append(functional(g, {
            "e0": F(rng.randint(-4, 4)),
            "e1": F(rng.randint(1, 4)),
            "e2": F(rng.randint(1, 4)),
            "e3": e3,
        }))
    targets.append(functional(g, {"e3": 0, "e1": 0, "e2": 3}))  # boundary
    for target in targets:
        expected = entry.critical_label_oracle(target)
        got = critical_test(g, f, target, steps=B5_STEPS, seed=4, budget=2500)
        assert got.label == expected, (target, expected, got.label)
