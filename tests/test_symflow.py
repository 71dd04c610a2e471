"""Exponential polynomials, one-parameter flows, orbit parametrizations."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    draw_basis_matrix,
    expoly_derivative,
    expoly_negation,
    expoly_product,
    expoly_sum,
    identity_rows,
    power_generalized_eigenspace,
    rows_product,
    substitute_rows,
)

from orbitkit import symflow
from orbitkit.coadjoint import functional
from orbitkit.errors import (
    InconsistentExponentialAssignment,
    NonlinearExponentSubstitution,
    NonRationalSpectrum,
    NotIdeal,
)
from orbitkit.exactlin import GaussianRational, Matrix, Subspace, solve, unit_vector
from orbitkit.liealg import LieAlgebra, _gaussian_eigenvalues, b5, heisenberg3
from orbitkit.symflow import (
    ExpPoly,
    _int_root,
    exp_matrix,
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
    # an exponent is a linear form: exp(t1 + 1) has no term key
    with pytest.raises(NonlinearExponentSubstitution):
        ExpPoly.exp({"t": 1}).substitute({"t": var("t1") + 1})
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


_RATIONAL = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
_NONZERO = st.builds(F, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 3))
_COEFF = _RATIONAL | st.builds(GaussianRational, _RATIONAL, _NONZERO)
# 0, 1, -1, i, -i, then any rational or Gaussian value
_SCALAR = (st.sampled_from([0, 1, -1, GaussianRational(0, 1), GaussianRational(0, -1)])
           | _COEFF | st.integers(-2, 2))
_MONO = st.dictionaries(st.sampled_from("xy"), st.integers(1, 2), max_size=2)
_LIN = st.dictionaries(st.sampled_from("st"), _COEFF.filter(bool), max_size=2)
_EXPOLY = (_SCALAR.map(ExpPoly.constant)
           | st.dictionaries(st.tuples(_MONO, _LIN).map(
               lambda ml: tuple(tuple(sorted(d.items())) for d in ml)),
               _COEFF, max_size=5).map(ExpPoly))


def _items(e):
    """The terms in their stored order, each coefficient with its type."""
    return [(key, type(c), c) for key, c in e.terms().items()]


@settings(max_examples=300, deadline=None)
@given(_EXPOLY, _EXPOLY, _SCALAR)
def test_expoly_kernels_match_the_merging_reference_in_order(p, q, c):
    assert _items(p + q) == _items(expoly_sum(p, q))
    assert _items(p + c) == _items(expoly_sum(p, ExpPoly.constant(c)))
    assert _items(-p) == _items(expoly_negation(p))
    assert _items(p * q) == _items(expoly_product(p, q))
    assert _items(q * p) == _items(expoly_product(q, p))
    assert _items(p * c) == _items(expoly_product(p, ExpPoly.constant(c)))
    assert _items(c * p) == _items(expoly_product(ExpPoly.constant(c), p))
    for v in "xs":
        assert _items(p.d_dvar(v)) == _items(expoly_derivative(p, v))


def test_one_param_flow_central_is_identity():
    h3 = heisenberg3()
    flow = one_param_flow(h3, "e3", "t")
    assert flow == identity_rows(3)


def test_one_param_flow_b5_d_direction():
    g = b5()
    flow = one_param_flow(g, "d", "s")
    i3 = g.index_of("e3")
    assert flow[i3][i3] == ExpPoly.exp({"s": -1})
    assert substitute_rows(flow, {"s": 0}) == identity_rows(5)


def test_one_param_flow_nilpotent_is_polynomial():
    h3 = heisenberg3()
    flow = one_param_flow(h3, "e1", "t")
    for row in flow:
        for entry in row:
            assert not entry.exp_variables()


def test_flow_group_law():
    for g, name in [(b5(), "d"), (b5(), "e0"), (heisenberg3(), "e1")]:
        flow = one_param_flow(g, name, "t")
        f1 = substitute_rows(flow, {"t": var("t1")})
        f2 = substitute_rows(flow, {"t": var("t2")})
        assert rows_product(f1, f2) == substitute_rows(flow, {"t": var("t1") + var("t2")})


def test_flow_derivative_at_zero_is_generator():
    g = b5()
    for name in g.basis_names:
        flow = one_param_flow(g, name, "t")
        a = (-g.ad_matrix(g.basis_vector(name))).transpose()
        for i in range(5):
            for j in range(5):
                deriv = flow[i][j].d_dvar("t").substitute({"t": 0})
                assert deriv == ExpPoly.constant(a.entries[i][j])


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


def test_a_kept_flow_error_is_raised_again():
    # ad(a) squares to 2 on span{x, y}: the flow's roots are +-sqrt(2)
    g = LieAlgebra.construct(("a", "x", "y"), {("a", "x"): {"y": 1}, ("a", "y"): {"x": 2}})
    calls = []

    def counting(a, param):
        calls.append(param)
        return exp_matrix(a, param)

    raised = []
    with mock.patch.object(symflow, "exp_matrix", counting):
        for _ in range(2):
            with pytest.raises(NonRationalSpectrum) as err:
                one_param_flow(g, "a", "t")
            raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1] and calls == ["t"]


def test_orbit_map_is_the_product_of_its_flows():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    nilrad = g.nilradical()
    steps = [("d", "s"), ("e0", "t"), ("e1", "x1"), ("e2", "x2"), ("e3", "x3")]
    for space in (None, nilrad):
        om = orbit_map(g, f, steps, restrict_to=space)
        total = identity_rows(len(om.start))
        for name, param in steps:
            total = rows_product(total, one_param_flow(g, name, param, restrict_to=space))
        assert om.components == tuple(sum((a * x for a, x in zip(row, om.start)), ExpPoly())
                                      for row in total)


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
    assert substitute_rows(flow, {"t": 0}) == identity_rows(3)


_SMALL_Q = st.builds(F, st.integers(-2, 2), st.integers(1, 2))
_NONZERO_Q = st.builds(F, st.sampled_from((-2, -1, 1, 2)), st.integers(1, 2))


@st.composite
def conjugated_block_triangular(draw):
    """A = P T P^-1 with n <= 5 and T block upper triangular: rational scalars
    and rotation blocks [[a, -b], [b, a]] (eigenvalues a +- bi) on the
    diagonal, rational couplings above the blocks.  A block is drawn with a
    repeat count, so repeated values give Jordan chains up to length 4."""
    scalar = st.builds(lambda z, m: [[[z]]] * m, _SMALL_Q, st.integers(1, 4))
    rotation = st.builds(lambda a, b, m: [[[a, -b], [b, a]]] * m,
                         _SMALL_Q, _NONZERO_Q, st.integers(1, 2))
    blocks, n = [], 0
    for group in draw(st.lists(scalar | rotation, min_size=1, max_size=4), label="blocks"):
        for block in group:
            if n + len(block) <= 5:
                blocks.append((n, block))
                n += len(block)
    t = [[F(0)] * n for _ in range(n)]
    for start, block in blocks:
        for i, row in enumerate(block):
            t[start + i][start:start + len(row)] = row
            for j in range(start + len(row), n):
                t[start + i][j] = draw(_SMALL_Q)
    lower = [[F(int(i == j)) if i <= j else draw(_SMALL_Q) for j in range(n)]
             for i in range(n)]
    upper = [[F(int(i == j)) if i >= j else draw(_SMALL_Q) for j in range(n)]
             for i in range(n)]
    p = Matrix(lower) * Matrix(upper)
    p_inv = Matrix.from_columns([solve(p, unit_vector(n, j)) for j in range(n)])
    return p * Matrix(t) * p_inv


@settings(max_examples=40, deadline=None)
@given(conjugated_block_triangular())
def test_exp_matrix_solves_the_flow_equation(a):
    # F(0) = I and F' = A F have exactly one solution, exp(tA), so these two
    # pin every entry
    n = a.rows
    flow = exp_matrix(a, "t")
    assert substitute_rows(flow, {"t": 0}) == identity_rows(n)
    for i in range(n):
        for j in range(n):
            expected = sum((flow[k][j] * a.entries[i][k] for k in range(n)), ExpPoly())
            assert flow[i][j].d_dvar("t") == expected


def _jordan_rotation_zero(data):
    """A = P J P^-1 of order <= 6, with P from draw_basis_matrix.  J is a
    Jordan block of size 2 or 3 with a nonzero rational eigenvalue, a
    rotation block [[a, -b], [b, a]] (eigenvalues a +- bi) and a nilpotent
    Jordan block of size 1 or 2; or, when single is drawn, one Jordan block
    of size 2..6 alone."""
    single = data.draw(st.booleans(), label="single")
    lam = data.draw(_NONZERO_Q)
    size = data.draw(st.integers(2, 6 if single else 3))
    blocks = [[[lam if i == j else F(int(j == i + 1)) for j in range(size)]
               for i in range(size)]]
    if not single:
        a, b = data.draw(_SMALL_Q), data.draw(_NONZERO_Q)
        zeros = data.draw(st.integers(1, 4 - size))
        blocks += [[[a, -b], [b, a]],
                   [[F(int(j == i + 1)) for j in range(zeros)] for i in range(zeros)]]
    n = sum(len(block) for block in blocks)
    j_form = [[F(0)] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            j_form[start + i][start:start + len(row)] = row
        start += len(block)
    p = draw_basis_matrix(data, n)
    p_inv = Matrix.from_columns([solve(p, unit_vector(n, j)) for j in range(n)])
    return p * Matrix(j_form) * p_inv


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_generalized_eigenspaces_agree_with_the_dense_power(data):
    # the whole space, or ker(N) at full dimension, is ker(N^mult), basis row
    # for basis row, and so gives the same flow, entry for entry
    a = _jordan_rotation_zero(data)
    for lam, mult in _gaussian_eigenvalues(a):
        shifted = a.shifted(lam)
        assert (symflow._generalized_eigenspace(shifted, mult)
                == power_generalized_eigenspace(shifted, mult))
    flow = exp_matrix(a, "t")
    with mock.patch.object(symflow, "_generalized_eigenspace", power_generalized_eigenspace):
        assert flow == exp_matrix(a, "t")


def test_exp_matrix_refuses_a_chain_longer_than_the_multiplicity(monkeypatch):
    # a wrong spectrum, the single eigenvalue 0 of an invertible matrix, makes
    # the whole space its generalized eigenspace; no chain there ever ends
    monkeypatch.setattr(symflow, "_gaussian_eigenvalues", lambda a: [(F(0), a.rows)])
    with pytest.raises(NonRationalSpectrum):
        exp_matrix(Matrix([[1, 0], [0, 2]]), "t")


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
