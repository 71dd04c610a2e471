"""Exponential polynomials, one-parameter flows, orbit parametrizations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.coadjoint import functional
from orbitkit.errors import (
    InconsistentExponentialAssignment,
    NonlinearExponentSubstitution,
    NotIdeal,
)
from orbitkit.exactlin import Subspace
from orbitkit.liealg import LieAlgebra, b5, heisenberg3
from orbitkit.symflow import (
    ExpPoly,
    FlowMatrix,
    _int_root,
    one_param_flow,
    orbit_map,
)

F = Fraction

B5_STEPS = [("d", "s"), ("e0", "t"), ("e1", "x1"), [("e2", "x2"), ("e3", "x3")]]


def var(name):
    return ExpPoly.variable(name)


def test_expoly_product_merges_exponentials():
    x1, x2 = var("x1"), var("x2")
    left = ExpPoly.exp({"t": 1}) * x2
    right = -(ExpPoly.exp({"s": -1}) * ExpPoly.exp({"t": -1}) * x1)
    assert left * right == -(ExpPoly.exp({"s": -1}) * x1 * x2)


def test_expoly_is_a_commutative_ring():
    a = var("x") * 2 + ExpPoly.exp({"t": 1})
    b = var("y") - ExpPoly.constant(F(1, 2))
    c = var("x") * var("y") + ExpPoly.exp({"t": -1})
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a - a == ExpPoly()
    assert (a + b) - b == a


def test_expoly_derivative_eigenfunction():
    f = ExpPoly.exp({"t": 1}) * var("x2")
    assert f.d_dvar("t") == f
    g = var("t") ** 2 * ExpPoly.exp({"t": -1})
    expect = var("t") * 2 * ExpPoly.exp({"t": -1}) - g
    assert g.d_dvar("t") == expect


def test_expoly_substitute():
    ems = ExpPoly.exp({"s": -1})
    assert ems.substitute({"s": 0}) == ExpPoly.constant(1)
    t1_plus_t2 = var("t1") + var("t2")
    assert (ExpPoly.exp({"t": 1}).substitute({"t": t1_plus_t2})
            == ExpPoly.exp({"t1": 1, "t2": 1}))
    with pytest.raises(NonlinearExponentSubstitution):
        ExpPoly.exp({"t": 1}).substitute({"t": var("x") ** 2})
    # polynomial occurrences accept anything
    assert (var("x") ** 2).substitute({"x": var("y") + 1}) == \
        var("y") ** 2 + var("y") * 2 + 1


def test_expoly_evaluate():
    f = ExpPoly.exp({"s": -1}) * var("x") + ExpPoly.constant(F(1, 3))
    assert f.evaluate({"x": F(2)}, {"s": F(4)}) == F(1, 2) + F(1, 3)
    with pytest.raises(InconsistentExponentialAssignment):
        f.evaluate({"x": 1}, {})
    with pytest.raises(InconsistentExponentialAssignment):
        f.evaluate({}, {"s": 1})
    with pytest.raises(InconsistentExponentialAssignment):
        f.evaluate({"x": 1}, {"s": -2})
    half = ExpPoly.exp({"t": F(1, 2)})
    assert half.evaluate({}, {"t": F(4)}) == F(2)
    with pytest.raises(InconsistentExponentialAssignment):
        half.evaluate({}, {"t": F(2)})


def test_one_param_flow_central_is_identity():
    h3 = heisenberg3()
    flow = one_param_flow(h3, "e3", "t")
    assert flow == FlowMatrix.identity(3)


def test_one_param_flow_b5_d_direction():
    g = b5()
    flow = one_param_flow(g, "d", "s")
    i3 = g.index_of("e3")
    assert flow.entries[i3][i3] == ExpPoly.exp({"s": -1})
    at_zero = flow.substitute({"s": 0})
    assert at_zero == FlowMatrix.identity(5)


def test_one_param_flow_nilpotent_is_polynomial():
    h3 = heisenberg3()
    flow = one_param_flow(h3, "e1", "t")
    for row in flow.entries:
        for entry in row:
            assert not entry.exp_variables()


def test_flow_group_law():
    for g, name in [(b5(), "d"), (b5(), "e0"), (heisenberg3(), "e1")]:
        flow = one_param_flow(g, name, "t")
        f1 = flow.substitute({"t": var("t1")})
        f2 = flow.substitute({"t": var("t2")})
        assert f1 * f2 == flow.substitute({"t": var("t1") + var("t2")})


def test_flow_derivative_at_zero_is_generator():
    g = b5()
    for name in g.basis_names:
        flow = one_param_flow(g, name, "t")
        a = (-g.ad_matrix(g.basis_vector(name))).transpose()
        for i in range(5):
            for j in range(5):
                deriv = flow.entries[i][j].d_dvar("t").substitute({"t": 0})
                assert deriv == ExpPoly.constant(a[i, j])


def test_orbit_map_empty_sequence_is_constant():
    g = heisenberg3()
    f = functional(g, {"e3": 1})
    om = orbit_map(g, f, [])
    assert om.components == tuple(ExpPoly.constant(x) for x in f)


def test_orbit_map_b5_reproduces_displayed_formulas():
    g = b5()
    f0 = var("f0")
    start = (ExpPoly.constant(0), f0, ExpPoly.constant(0), ExpPoly.constant(0),
             ExpPoly.constant(1))
    om = orbit_map(g, start, B5_STEPS)
    comp = dict(zip(om.component_names, om.components))
    x1, x2, x3 = var("x1"), var("x2"), var("x3")
    assert comp["e0"] == f0 - x1 * x2
    assert comp["e1"] == ExpPoly.exp({"t": 1}) * x2
    assert comp["e2"] == -(ExpPoly.exp({"s": -1, "t": -1}) * x1)
    assert comp["e3"] == ExpPoly.exp({"s": -1})
    assert comp["d"] == x3
    assert om.params == ("s", "t", "x1", "x2", "x3")


def test_orbit_map_h3_is_polynomial():
    g = heisenberg3()
    f = functional(g, {"e1": 1, "e3": 2})
    om = orbit_map(g, f, [("e1", "x1"), ("e2", "x2"), ("e3", "x3")])
    for c in om.components:
        assert not c.exp_variables()
    zero = om.evaluate({"x1": 0, "x2": 0, "x3": 0}, {})
    assert zero == f


def test_orbit_map_restriction_requires_ideal():
    g = b5()
    f = functional(g, {"e3": 1})
    with pytest.raises(NotIdeal):
        orbit_map(g, f, B5_STEPS, restrict_to=Subspace.span_of_coordinates(5, [0]))


def test_one_param_flow_restriction_requires_ideal():
    with pytest.raises(NotIdeal):
        one_param_flow(b5(), "e0", "t", restrict_to=Subspace.span_of_coordinates(5, [0]))


def test_orbit_map_is_the_product_of_its_flows():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    nilrad = g.nilradical()
    steps = [("d", "s"), ("e0", "t"), ("e1", "x1"), ("e2", "x2"), ("e3", "x3")]
    for space in (None, nilrad):
        om = orbit_map(g, f, steps, restrict_to=space)
        total = FlowMatrix.identity(len(om.start))
        for name, param in steps:
            total = total * one_param_flow(g, name, param, restrict_to=space)
        assert om.components == total.apply(om.start)


def test_orbit_evaluation():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    m = Subspace.span_of_coordinates(5, [1, 2, 3, 4])
    om = orbit_map(g, f, B5_STEPS, restrict_to=m)
    base = {"x1": 0, "x2": 0, "x3": 0}
    assert om.evaluate(base, {"s": 1, "t": 1}) == (F(1, 3), F(0), F(0), F(1))
    # x1=1, x2=2 with exp(t) -> 1 and exp(-s) -> 1/4
    point = om.evaluate({"x1": 1, "x2": 2, "x3": 0}, {"s": 4, "t": 1})
    assert point == (F(1, 3) - 2, F(2), F(-1, 4), F(1, 4))


def test_orbit_witness_family_approaches_target():
    # witness family shape: x2 pinned to the target e1-value, x1 solving the
    # e0-component, exp(-s) halving to zero
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    m = Subspace.span_of_coordinates(5, [1, 2, 3, 4])
    om = orbit_map(g, f, B5_STEPS, restrict_to=m)
    target = (F(2), F(5), F(0), F(0))
    x1 = (F(1, 3) - target[0]) / target[1]
    dists = []
    for k in (2, 4, 8):
        point = om.evaluate({"x1": x1, "x2": target[1], "x3": 0},
                            {"s": F(2) ** k, "t": 1})
        d2 = sum((a - b) ** 2 for a, b in zip(point, target))
        dists.append(d2)
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < F(1, 10 ** 4)


def test_flow_rejects_irrational_spectrum():
    from orbitkit.errors import NonRationalSpectrum
    weird = LieAlgebra.construct(("a", "x", "y"),
                                 {("a", "x"): {"y": 1}, ("a", "y"): {"x": 1}})
    # ad(a) squares to 2 on the plane below, so its eigenvalues are irrational
    bad = LieAlgebra.construct(("a", "x", "y"),
                               {("a", "x"): {"y": 1}, ("a", "y"): {"x": 2}})
    with pytest.raises(NonRationalSpectrum):
        one_param_flow(bad, "a", "t")
    # sanity: the hyperbolic one works and stays exact
    flow = one_param_flow(weird, "a", "t")
    assert flow.substitute({"t": 0}) == FlowMatrix.identity(3)


def test_int_root_is_exact_beyond_float_range():
    r = 2 ** 60 + 12345
    assert _int_root(r * r, 2) == r
    assert _int_root(10 ** 400, 2) == 10 ** 200
    assert _int_root(10 ** 400, 8) == 10 ** 50


def test_int_root_rejects_non_powers():
    assert _int_root(2, 2) is None
    assert _int_root((2 ** 60 + 12345) ** 2 + 1, 2) is None
    assert _int_root(10 ** 400 + 1, 3) is None
    assert _int_root(-8, 3) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 80), st.integers(min_value=1, max_value=7))
def test_int_root_inverts_powers(r, k):
    assert _int_root(r ** k, k) == r
    if r >= 1 and k >= 2:
        assert _int_root(r ** k + 1, k) is None
