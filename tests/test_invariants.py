"""Derivations, (semi-)invariants, vanishing on orbits, closure certificates."""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    CATALOG_NAMES,
    COORD,
    _poly_to_vector,
    borel3,
    derivation,
    draw_basis_change,
    fraction_descend,
    fraction_fold,
    ungraded_invariant_space,
    ungraded_semi_invariants,
)

from orbitkit import cli, invariants
from orbitkit.algfile import parse_algebra
from orbitkit.catalog import get_entry
from orbitkit.coadjoint import functional, stabilizer_ideal
from orbitkit.errors import (
    DimensionMismatch,
    InvariantNotVanishing,
    NotIdeal,
    OrbitkitError,
    PreconditionFailed,
)
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
    _DENOMINATOR_CAP,
    _Gram,
    closure_membership,
    critical_test,
    invariant_space,
    orbit_certificates,
    semi_invariants,
    _at,
    _capped,
    _fold,
    _gram,
    _powers,
    _Search,
    _step,
    vanish_on_orbit,
)
from orbitkit.liealg import LieAlgebra, _gaussian_eigenvalues, b5, g49_zero, heisenberg3
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
    from orbitkit.invariants import _monomials
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
    inv = invariant_space(a2, semi_invariants(a2, 2))
    assert len(inv) == 5  # u, v, u^2, uv, v^2


def test_invariant_space_g49():
    m = g49_zero()
    inv = invariant_space(m, semi_invariants(m, 2))
    assert len(inv) == 3
    e0, e1, e2, e3 = (var(n) for n in m.basis_names)
    assert poly_in_span(e3, inv, m.basis_names, 2)
    assert poly_in_span(e0 * e3 - e1 * e2, inv, m.basis_names, 2)
    for q in inv:
        for name in m.basis_names:
            assert derivation(m, name, q).is_zero()


def test_invariant_space_h3_degree_one():
    h3 = heisenberg3()
    inv = invariant_space(h3, semi_invariants(h3, 1))
    assert inv == [var("e3")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CATALOG_NAMES + ["borel3"]), st.booleans(), st.integers(1, 3),
       st.booleans(), st.data())
def test_graded_search_matches_the_whole_monomial_span(name, change, degree, on_module,
                                                       data):
    # sparse columns one total degree at a time, with scalar pieces kept
    # whole, give the same list, element for element, as dense matrices on
    # one block for degrees 1..d with every piece refined; the invariants
    # are its weight-zero part in the echelon order of the whole span
    g = borel3() if name == "borel3" else get_entry(name).algebra
    if change:
        g = draw_basis_change(data, g)
    module = None
    if on_module:
        module = stabilizer_ideal(g, data.draw(st.tuples(*[COORD] * g.dim)))
    semis = semi_invariants(g, degree, module)
    assert semis == ungraded_semi_invariants(g, degree, module)
    if module is None:
        assert invariant_space(g, semis) == ungraded_invariant_space(g, degree)


def test_only_a_scalar_action_keeps_a_piece_whole(monkeypatch):
    # every action the search refines is non-scalar, and b5's diag(1, 2) on
    # a degree-2 piece is refined.  Keeping that diagonal piece whole would
    # give the same list (each of its basis rows is already an eigenvector,
    # and later pieces split along them), so the rule is pinned by the
    # matrices handed to the eigenvalue search rather than by the output
    refined = []

    def recording(m):
        refined.append(m.entries)
        return _gaussian_eigenvalues(m)

    monkeypatch.setattr(invariants, "_gaussian_eigenvalues", recording)
    semi_invariants(b5(), 2)
    assert ((F(1), F(0)), (F(0), F(2))) in refined
    assert not any(all(x == (rows[0][0] if i == j else 0)
                       for i, row in enumerate(rows) for j, x in enumerate(row))
                   for rows in refined)


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


def test_a_target_at_the_orbit_start_is_an_exact_point_without_a_search():
    om, certs = _closure_orbit("b5")
    v = closure_membership(om, om.start, certs, seed=5)
    assert (v.kind, v.evaluations, v.assignment, v.exp_atoms, v.squared_distance) == (
        EXACT_POINT, 0, {"x1": 0, "x2": 0}, {"s": 1, "t": 1}, 0)
    assert om.evaluate(v.assignment, v.exp_atoms) == om.start


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


# -- the closure-search kernel -------------------------------------------------

# closure-test --file inputs with their --f: exp(-s/2), and s^2 in a component
_ALG_FILES = {
    "half": ("basis a b\nbracket a b = 1/2*b\n", (F(0), F(1))),
    "filiform4": ("basis x y z w\nbracket x y = z\nbracket x z = w\n", (F(0),) * 3 + (F(1),)),
}


@functools.lru_cache(maxsize=None)
def _closure_orbit(name):
    """Orbit map and degree-2 certificates as closure-test builds them."""
    if name in _ALG_FILES:
        g, f = parse_algebra(_ALG_FILES[name][0]), _ALG_FILES[name][1]
        steps = [(g.basis_vector(n), f"s{i+1}") for i, n in enumerate(g.basis_names)]
        module = None
    else:
        entry = get_entry(name)
        g, f, steps = entry.algebra, entry.reference_functional, entry.orbit_steps
        module = stabilizer_ideal(g, f) if entry.stabilizer_names else None
    om = orbit_map(g, f, steps, restrict_to=module)
    return om, tuple(orbit_certificates(g, f, om, 2))


# (orbit, target, use certificates, search keywords) -> the verdict recorded from
# the search evaluated on Fractions, which the integer kernel must reproduce
# exactly; the off-orbit b5 target reaches the random restarts, and the
# filiform one the candidate set for a coordinate of degree 2.  The seed-0
# calls pin the other exits: a polynomial restart that improves, polynomial
# restarts and an attempt's starts stopped by the budget, atom scaling stopped
# by the budget, a random atom restart that improves; the near-orbit g49_0
# target ends phase 2 within tolerance, and the round after it still scales
# the first atom by every factor before the search stops; the half target
# reaches phase 2 after phase 1 spent the budget, and the last g49_0 target
# spends all twelve random atom restarts well inside its budget
GOLDEN_CALLS = {
    'b5 e1-axis': ("b5", (F(2), F(3, 2), F(0), F(0)), True, {"seed": 3}),
    'b5 e2-axis': ("b5", (F(-1), F(0), F(5, 3), F(0)), True, {"seed": 5}),
    'b5 e0-line': ("b5", (F(4, 7), F(0), F(0), F(0)), True, {"seed": 7}),
    'axb orbit point': ("axb", (F(3, 2), F(5, 2)), True, {"seed": 0}),
    'half b=9/4': ("half", (F(0), F(9, 4)), True, {"seed": 0}),
    'b5 off-orbit': ("b5", (F(-1), F(1), F(0), F(2)), False, {"seed": 11, "budget": 400}),
    'filiform4 off-orbit': ("filiform4", (F(1), F(2), F(1), F(1)), False,
                            {"seed": 1, "budget": 300}),
    'filiform4 restart improves': ("filiform4", (F(0), F(0), F(1), F(1)), False,
                                   {"seed": 0, "budget": 200}),
    'filiform4 budget 20': ("filiform4", (F(-2), F(-1), F(0), F(0)), False,
                            {"seed": 0, "budget": 20}),
    'b5 scaling budget': ("b5", (F(1), F(-1), F(0), F(-3, 2)), False,
                          {"seed": 0, "budget": 200}),
    'g49_0 atom restart improves': ("g49_0", (F(-2), F(3), F(-1), F(-2)), False,
                                    {"seed": 0, "budget": 200}),
    'g49_0 within tolerance': ("g49_0", (F(1000003, 3000000), F(0), F(0), F(1)), False,
                               {"seed": 2, "budget": 200}),
    'half phase 2 past budget': ("half", (F(0), F(3, 2)), False, {"seed": 1, "budget": 5}),
    'g49_0 restarts spent': ("g49_0", (F(1, 2), F(-2), F(1), F(1, 2)), False,
                             {"seed": 9, "budget": 1500}),
}
GOLDEN_VERDICTS = {
    'b5 e1-axis': (
        'in-closure-numeric', 1010,
        {'x1': F("-40264027848226940795/37107328064926039599744"),
         'x2': F("1298960286035839515797035335/845677269554581872764704")},
        {'s': F("16777216"), 't': F("1/1024")},
        F("1311602823668942923520741147230637757134629456906271079752374169793986"
          "98510549470402217/1652146591928928609270140192722879949361447725093702"
          "1945098207540446202758208203488500465485549142016")),
    'b5 e2-axis': (
        'in-closure-numeric', 975,
        {'x1': F("-295436135555505145856/86553555338526855"),
         'x2': F("-342607823215001873/877076027430406354400")},
        {'s': F("16777216"), 't': F("1/8192")},
        F("1025523667528208174583229263890061550374424617399753818630563375216353"
          "929/176011738069347039617776074486786576120504464695746328537827222506"
          "685444552392704000000")),
    'b5 e0-line': (
        'in-closure-numeric', 1059,
        {'x1': F("11255933111384823310112115/87936977432790305859404"),
         'x2': F("-1790284631449327075305/962457017866978789024493")},
        {'s': F("4398046511104"), 't': F("1/8192")},
        F("4139821300684172529493468349638488757393573102609179701643102661924203"
          "77780903751679746349696979804229227209/3818950222581931648344853455966"
          "7539678072029597636985704505096966461657458571892803979794779690720430"
          "50971201671207583744")),
    'axb orbit point': (
        'exact-point', 8,
        {'x1': F("3/2")},
        {'s': F("2/5")},
        F("0")),
    'half b=9/4': (
        'exact-point', 6,
        {'s2': F("0")},
        {'s1': F("16/81")},
        F("0")),
    'b5 off-orbit': (
        'inconclusive', 400,
        {'x1': F("216006362604181861919429/711913579902012060468172"),
         'x2': F("685750799687045647394604/533180903591398671171199")},
        {'s': F("1/2"), 't': F("1")},
        F("4342568979305155589514193980945935794292913465816837241826815305610544"
          "40731395498588511294776393/3241800204489230849413061587596212192880460"
          "36376809085131322678009137054868778380548783334144964")),
    'filiform4 off-orbit': (
        'inconclusive', 64,
        {'s1': F("-1"), 's3': F("1")},
        {},
        F("9/4")),
    'filiform4 restart improves': (
        'inconclusive', 52,
        {'s1': F("-2/3"), 's3': F("0")},
        {},
        F("13/81")),
    'filiform4 budget 20': (
        'inconclusive', 20,
        {'s1': F("0"), 's3': F("-2")},
        {},
        F("2")),
    'b5 scaling budget': (
        'inconclusive', 200,
        {'x1': F("23856188392220800/573279290493435123"),
         'x2': F("-10153057099866817468920939/634317398502559253050238")},
        {'s': F("32"), 't': F("1/16")},
        F("3969430468793455611543977053401483784510957970087258490020506245818359"
          "5657728812995637/16926054062352184871665807177175510776264270399330601"
          "003418821483979360305413837705728")),
    'g49_0 atom restart improves': (
        'inconclusive', 200,
        {'x1': F("1850307592541596405272640/35726248295498170313833"),
         'x2': F("39751290515042924202646/861277828343368722651133")},
        {'t': F("64")},
        F("7704730659979349119158195474549414440670628581868064298208552213962539"
          "5999425745706041849966939/852126102180995384339462156777527543340924293"
          "2031836661313532103582293833623304603036040046689")),
    'g49_0 within tolerance': (
        'in-closure-numeric', 59,
        {'x1': F("0"), 'x2': F("0")},
        {'t': F("1")},
        F("1/1000000000000")),
    'half phase 2 past budget': (
        'exact-point', 6,
        {'s2': F("0")},
        {'s1': F("4/9")},
        F("0")),
    'g49_0 restarts spent': (
        'inconclusive', 478,
        {'x1': F("-212741/1502796"), 'x2': F("-4463507247926/2303654550697")},
        {'t': F("1")},
        F("6166353302993749061147677/5202563802526170437678352")),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_CALLS))
def test_closure_search_trajectory_is_pinned(label):
    name, target, with_certs, kwargs = GOLDEN_CALLS[label]
    om, certs = _closure_orbit(name)
    v = closure_membership(om, target, certs if with_certs else (), **kwargs)
    got = (v.kind, v.evaluations, v.assignment, v.exp_atoms, v.squared_distance)
    assert got == GOLDEN_VERDICTS[label]


_Q = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
_BIG = st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))
_SEARCH_ORBITS = st.sampled_from(["b5", "axb", "g49_0", "half", "filiform4"])


def _fraction(pair):
    """An integer (numerator, positive denominator) pair as its Fraction."""
    n, d = pair
    assert type(n) is int and type(d) is int and d > 0, pair
    return F(n, d)


def _reduced(pair):
    """A search value: a (numerator, positive denominator) pair in lowest
    terms, as its Fraction."""
    assert gcd(*pair) == 1, pair
    return _fraction(pair)


def _pairs(assignment):
    return {v: x.as_integer_ratio() for v, x in assignment.items()}


def _tables(search, gram, assignment):
    """The _powers tables of a pair-valued assignment."""
    return [_powers(assignment[v], top) for v, top in zip(search.poly_vars, gram.tops)]


def _step_dist2(gram, j, tables, current):
    """(candidate pair, the Fraction-valued distance along the j-th variable
    at a pair)."""
    cand, den, coeffs = _step(gram, j, tables, current)
    return cand, lambda x: _fraction(_at(den, coeffs, _powers(x, gram.tops[j])))


@settings(max_examples=60, deadline=None)
@given(_SEARCH_ORBITS, st.data())
def test_fold_is_the_fraction_fold(name, data):
    """The integer fold against one that multiplies Fractions
    (tests/reference.py), with atoms above and below 1."""
    om, _ = _closure_orbit(name)
    target = tuple(data.draw(st.one_of(_Q, _BIG)) for _ in om.components)
    search = _Search(om, target, F(0), 1, 0)
    atom = st.builds(F, st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
    atoms = {v: data.draw(atom, label=v) for v in search.exp_vars}
    for c, t in zip(search.compiled, target):
        assert _fold(c, t, atoms) == fraction_fold(c, t, atoms)


@settings(max_examples=40, deadline=None)
@given(_SEARCH_ORBITS, st.booleans(), st.data())
def test_folded_distance_is_the_fraction_distance(name, integral, data):
    values = st.integers(-9, 9).map(F) if integral else _Q
    atom = st.integers(1, 9).map(F) if integral else st.builds(F, st.integers(1, 9),
                                                               st.integers(1, 9))
    om, _ = _closure_orbit(name)
    target = tuple(data.draw(values) for _ in om.components)
    search = _Search(om, target, F(0), 1, 0)
    assignment = {v: data.draw(values, label=v) for v in search.poly_vars}
    atoms = {v: data.draw(atom, label=v) for v in search.exp_vars}
    folded = [_fold(c, t, atoms) for c, t in zip(search.compiled, target)]
    gram = _gram(folded, search.poly_vars)
    point = om.evaluate(assignment, {v: u ** search.scales[v] for v, u in atoms.items()})
    pairs = _pairs(assignment)
    d = _fraction(search.dist2(gram, _tables(search, gram, pairs)))
    assert type(d) is F and d == sum((x - t) ** 2 for x, t in zip(point, target))
    for j, var in enumerate(search.poly_vars):
        x = data.draw(values, label=f"new {var}").as_integer_ratio()
        _, dist2 = _step_dist2(gram, j, _tables(search, gram, pairs), pairs[var])
        d = dist2(x)
        assert type(d) is F and d == _fraction(
            search.dist2(gram, _tables(search, gram, {**pairs, var: x})))


@settings(max_examples=40, deadline=None)
@given(_SEARCH_ORBITS, st.data())
def test_gram_polynomial_is_the_squared_distance(name, data):
    """S over L^2, evaluated term by term on Fractions, is the squared
    distance through the orbit map; its top power in each variable is twice
    the top power of the residuals once their like monomials are merged."""
    om, _ = _closure_orbit(name)
    target = tuple(data.draw(_Q) for _ in om.components)
    search = _Search(om, target, F(0), 1, 0)
    assignment = {v: data.draw(_Q, label=v) for v in search.poly_vars}
    atoms = {v: data.draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)), label=v)
             for v in search.exp_vars}
    folded = [_fold(c, t, atoms) for c, t in zip(search.compiled, target)]
    gram = _gram(folded, search.poly_vars)
    value = sum((n * prod(assignment[v] ** e for v, e in zip(search.poly_vars, key))
                 for n, key in gram.terms), F(0)) / gram.den
    point = om.evaluate(assignment, {v: u ** search.scales[v] for v, u in atoms.items()})
    assert value == sum((x - t) ** 2 for x, t in zip(point, target))
    tops = dict.fromkeys(search.poly_vars, 0)
    for _, degrees, terms in folded:
        merged = {}
        for n, powers in terms:
            merged[powers] = merged.get(powers, 0) + n
        for powers, n in merged.items():
            if n:
                for (v, _), k in zip(degrees, powers):
                    tops[v] = max(tops[v], k)
    assert gram.tops == tuple(2 * tops[v] for v in search.poly_vars)


@settings(max_examples=60, deadline=None)
@given(_SEARCH_ORBITS, st.one_of(st.integers(1, 8), st.just(10 ** 4)), st.data())
def test_descend_is_the_fraction_descend(name, budget, data):
    """The integer descent against one on Fractions (tests/reference.py):
    the same distance, assignment and evaluation count, also when the budget
    stops it within a sweep."""
    om, _ = _closure_orbit(name)
    target = tuple(data.draw(_Q) for _ in om.components)
    new, old = _Search(om, target, F(0), budget, 0), _Search(om, target, F(0), budget, 0)
    start = {v: data.draw(st.one_of(_Q, _BIG), label=v) for v in new.poly_vars}
    atoms = {v: data.draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)), label=v)
             for v in new.exp_vars}
    folded = [_fold(c, t, atoms) for c, t in zip(new.compiled, target)]
    d, assignment = new.descend(_pairs(start), _gram(folded, new.poly_vars))
    got = (_fraction(d), {v: _reduced(x) for v, x in assignment.items()})
    want = fraction_descend(old, start, folded)
    assert (got, new.evaluations) == (want, old.evaluations)


def _convergents(x):
    """The convergents of the continued fraction of x."""
    n, d = x.numerator, x.denominator
    p0, q0, p1, q1 = 0, 1, 1, 0
    out = set()
    while d:
        a, n, d = n // d, d, n % d
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.add(F(p1, q1))
    return out


def _final_choice(x, cap):
    """Which answer x.limit_denominator(cap) gives: x itself, the last
    convergent within the cap, or the semiconvergent beside it."""
    if x.denominator <= cap:
        return "exact"
    return "convergent" if x.limit_denominator(cap) in _convergents(x) else "semiconvergent"


_PI_31 = 31415926535897932384626433832795
# (n, d) -> the final choice of F(n, d).limit_denominator(_DENOMINATOR_CAP)
_CAPPED_EXAMPLES = {
    (_PI_31, 10 ** 31): "convergent",
    (-_PI_31, 10 ** 31 + 12): "semiconvergent",
    (355 * 10 ** 40, 113 * 10 ** 40): "exact",
}


def test_the_capped_examples_reach_every_final_choice():
    assert {(n, d): _final_choice(F(n, d), _DENOMINATOR_CAP)
            for n, d in _CAPPED_EXAMPLES} == _CAPPED_EXAMPLES


def _with_capped_examples(test):
    for n, d in _CAPPED_EXAMPLES:
        test = example(n=n, d=d, common=1, negate=False)(test)
    return test


@_with_capped_examples
@settings(max_examples=150, deadline=None)
@given(n=st.integers(-10 ** 60, 10 ** 60),
       d=st.one_of(st.integers(1, _DENOMINATOR_CAP),
                   st.integers(_DENOMINATOR_CAP + 1, 10 ** 60)),
       common=st.one_of(st.just(1), st.integers(2, 10 ** 30)),
       negate=st.booleans())
def test_capped_is_limit_denominator(n, d, common, negate):
    want = F(n, d).limit_denominator(_DENOMINATOR_CAP)
    # an unreduced n/d, and a negative denominator, as _linear_pin passes them
    n, d = n * common, d * common
    if negate:
        n, d = -n, -d
    assert _reduced(_capped(n, d)) == want


def test_capped_breaks_ties_as_limit_denominator(monkeypatch):
    """Small caps reach the ties between the two final candidates."""
    for cap in range(1, 8):
        monkeypatch.setattr(invariants, "_DENOMINATOR_CAP", cap)
        for d in range(1, 41):
            for n in range(-80, 81):
                want = F(n, d).limit_denominator(cap)
                assert _reduced(_capped(n, d)) == want, (n, d, cap)


@pytest.mark.parametrize("coeffs", [(1, 0, -2, 0, 1), (0, 0, 1, -2, 1)])
def test_a_step_of_higher_degree_breaks_ties_to_the_smallest_value(coeffs):
    """S(x) = (x^2 - 1)^2 ties at -1 and 1, and x^2 (x - 1)^2 at 0 and 1:
    from any current value the step takes the smallest closest candidate,
    as min over sorted Fractions does."""
    terms = tuple((n, (k,)) for k, n in enumerate(coeffs) if n)
    gram = _Gram(1, (4,), (False,), terms, (tuple((k, n, ()) for n, (k,) in terms),))

    def value(x):
        return sum(n * x ** k for k, n in enumerate(coeffs))
    for current in (F(-1), F(0), F(1), F(1, 2), F(2), F(-3, 2)):
        pair = current.as_integer_ratio()
        cand, _, _ = _step(gram, 0, [_powers(pair, 4)], pair)
        want = min(sorted({current, F(0), F(1), F(-1)}), key=value)
        assert _reduced(cand) == want, current


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["b5", "axb", "g49_0"]), st.data())
def test_quadratic_step_is_the_fraction_step(name, data):
    """The closed-form step against one on plain Fractions: the capped
    minimizer -sum(a*b) / sum(a*a) of the residuals a*x + b along each
    variable, and the squared distance there."""
    om, _ = _closure_orbit(name)
    target = tuple(data.draw(_Q) for _ in om.components)
    search = _Search(om, target, F(0), 1, 0)
    assignment = {v: data.draw(_BIG, label=v) for v in search.poly_vars}
    atoms = {v: data.draw(st.builds(F, st.integers(1, 10 ** 9), st.integers(1, 10 ** 9)),
                          label=v) for v in search.exp_vars}
    folded = [_fold(c, t, atoms) for c, t in zip(search.compiled, target)]
    gram = _gram(folded, search.poly_vars)
    exp_atoms = {v: u ** search.scales[v] for v, u in atoms.items()}
    for j, var in enumerate(search.poly_vars):
        def residuals(x):
            point = om.evaluate({**assignment, var: x}, exp_atoms)
            return [p - t for p, t in zip(point, target)]
        b = residuals(F(0))
        a = [r - s for r, s in zip(residuals(F(1)), b)]
        assert residuals(F(2)) == [2 * ai + bi for ai, bi in zip(a, b)]
        alpha = sum(ai * ai for ai in a)
        beta = sum(ai * bi for ai, bi in zip(a, b))
        want = (assignment[var] if alpha == 0
                else (-beta / alpha).limit_denominator(_DENOMINATOR_CAP))
        pairs = _pairs(assignment)
        cand, dist2 = _step_dist2(gram, j, _tables(search, gram, pairs), pairs[var])
        assert _reduced(cand) == want
        d = dist2(cand)
        assert type(d) is F and d == sum(r * r for r in residuals(want))


def test_a_search_verdict_rechecks_its_witness(monkeypatch, capsys):
    run = _Search.run

    def off_by_one(self):
        d, a, u = run(self)
        return d + 1, a, u

    monkeypatch.setattr(_Search, "run", off_by_one)
    om, certs = _closure_orbit("axb")
    with pytest.raises(OrbitkitError, match="re-evaluate"):
        closure_membership(om, (F(3, 2), F(5, 2)), certs)
    assert cli.main(["closure-test", "--catalog", "axb", "--g", "a=3/2,b=5/2"]) == 2
    assert capsys.readouterr().err.startswith("orbitkit: closure search witness")


def test_closure_membership_rejects_a_negative_tolerance():
    om, certs = _closure_orbit("axb")
    with pytest.raises(PreconditionFailed, match="tolerance must be at least 0"):
        closure_membership(om, (F(3, 2), F(5, 2)), certs, tol=F(-1, 10 ** 6))
    assert closure_membership(om, (F(3, 2), F(5, 2)), certs, tol=F(0)).kind == EXACT_POINT


def test_closure_membership_rejects_a_budget_below_one():
    om, certs = _closure_orbit("axb")
    for budget in (-5, 0):
        with pytest.raises(PreconditionFailed, match="budget must be at least 1"):
            closure_membership(om, (F(3, 2), F(5, 2)), certs, budget=budget)
    assert closure_membership(om, (F(3, 2), F(5, 2)), certs, budget=1).evaluations >= 1


# x, y with ad(a) of charpoly (t - p)(t - q) for 25-digit primes p, q: the
# orbit carries exp(p*s), so the search's atom powers have 25-digit exponents
_LARGE_ROOTS_ALG = ("basis a x y\nbracket a x = y\n"
                    "bracket a y = -3000000000000000000000028000000000000000000000049*x"
                    " + 4000000000000000000000014*y\n")


def test_large_integer_roots_end_in_a_computation_error(tmp_path):
    # under an address-space cap, so a regression fails instead of filling memory
    path = tmp_path / "large-roots.alg"
    path.write_text(_LARGE_ROOTS_ALG, encoding="utf-8")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
            "from orbitkit import cli\n"
            "raise SystemExit(cli.main(sys.argv[1:]))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, "closure-test", "--file", str(path),
                           "--f", "x=1", "--g", "x=2,y=3", "--json"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("orbitkit: exp atom") and "size cap" in proc.stderr
