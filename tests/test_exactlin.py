"""Exact linear algebra: rank, kernels, solving, canonical subspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import greedy_complement_coordinates
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix
from test_symflow import conjugated_block_triangular

from orbitkit.errors import DimensionMismatch
from orbitkit.exactlin import (
    GaussianRational,
    Matrix,
    Subspace,
    kernel,
    rank,
    rref,
    solve,
    unit_vector,
    vec_scale,
)
from orbitkit.symflow import ExpPoly, exp_matrix

F = Fraction


def test_gaussian_rational_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a * b == GaussianRational(5, 5)
    assert (a / b) * b == a
    assert -a == GaussianRational(-1, -2)
    assert a - a == GaussianRational(0)
    assert not GaussianRational(0)
    assert GaussianRational(0, 1) ** 2 == GaussianRational(-1)


def test_gaussian_rational_mixes_with_fractions():
    a = GaussianRational(F(1, 2), 0)
    assert a == F(1, 2)
    assert hash(a) == hash(F(1, 2))
    assert F(1, 2) + GaussianRational(0, 1) == GaussianRational(F(1, 2), 1)
    assert type(a) is F
    assert type(GaussianRational(0, 1)) is GaussianRational


# -- the scalar rule: a real value is a Fraction --------------------------------

_Q = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_PAIRS = st.tuples(_Q, st.one_of(st.just(F(0)), _Q))  # (real, imag)
_GAUSSIAN = _PAIRS.map(lambda p: GaussianRational(*p))


def _in_normal_form(x):
    """A Fraction exactly when the imaginary part is zero."""
    return type(x) is (F if x.imag == 0 else GaussianRational)


def _pair_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


@settings(max_examples=300, deadline=None)
@given(_PAIRS, _PAIRS, st.integers(0, 5))
def test_scalar_arithmetic_agrees_with_pairs_and_keeps_the_normal_form(p, q, k):
    a, b = GaussianRational(*p), GaussianRational(*q)
    assert _in_normal_form(a) and _in_normal_form(b)
    expected = {"+": (p[0] + q[0], p[1] + q[1]), "-": (p[0] - q[0], p[1] - q[1]),
                "*": _pair_mul(p, q)}
    got = {"+": a + b, "-": a - b, "*": a * b}
    power = (F(1), F(0))
    for _ in range(k):
        power = _pair_mul(power, p)
    expected["**"], got["**"] = power, a ** k
    norm = q[0] * q[0] + q[1] * q[1]
    if norm:
        expected["/"] = ((p[0] * q[0] + p[1] * q[1]) / norm,
                         (p[1] * q[0] - p[0] * q[1]) / norm)
        got["/"] = a / b
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    for op, x in got.items():
        assert (x.real, x.imag) == expected[op], op
        assert _in_normal_form(x), op


_REAL = st.integers(-4, 4) | _Q  # ints and Fractions, 0 included
_NONREAL_PAIRS = st.tuples(_Q, _Q.filter(bool))


@settings(max_examples=300, deadline=None)
@given(_NONREAL_PAIRS, _REAL)
def test_gaussian_times_a_real_is_the_general_product(p, x):
    a = GaussianRational(*p)
    expected = _pair_mul(p, (F(x), F(0)))
    for got in (a * x, x * a):
        assert (got.real, got.imag) == expected
        assert _in_normal_form(got)


def _expoly_scalars(e):
    for (_, lin), c in e.terms().items():
        yield c
        yield from (a for _, a in lin)


_VARS = st.sampled_from(("s", "t"))
_EXPOLY_ATOMS = st.one_of(
    st.builds(ExpPoly.constant, _GAUSSIAN),
    _VARS.map(ExpPoly.variable),
    st.builds(lambda v, a: ExpPoly.exp({v: a}), _VARS, _GAUSSIAN))


@settings(max_examples=150, deadline=None)
@given(st.lists(_EXPOLY_ATOMS, min_size=1, max_size=4),
       st.lists(st.sampled_from("+-*ds"), max_size=5), _GAUSSIAN)
def test_expoly_ring_operations_store_real_scalars_as_fractions(atoms, ops, c):
    e = atoms[0]
    for i, op in enumerate(ops):
        other = atoms[(i + 1) % len(atoms)]
        if op == "+":
            e = e + other
        elif op == "-":
            e = e - other
        elif op == "*":
            e = e * other
        elif op == "d":
            e = e.d_dvar("t")
        else:
            e = e.substitute({"s": ExpPoly.variable("t") * c})
        assert all(_in_normal_form(x) for x in _expoly_scalars(e))


@settings(max_examples=20, deadline=None)
@given(conjugated_block_triangular())
def test_exp_matrix_stores_real_scalars_as_fractions(a):
    flow = exp_matrix(a, "t")
    assert all(_in_normal_form(x) for row in flow for e in row
               for x in _expoly_scalars(e))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(3, 4)) == 0


# the 5x5 form matrix of the reference functional on the 5-dimensional
# catalog algebra, entries worked out from the bracket table by hand
B_F = Matrix([
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, -1, 0, 0],
    [-1, 0, 0, 0, 0],
])


def test_rank_of_reference_form_matrix():
    assert rank(B_F) == 4


def test_kernel_identity_zero_and_form_matrix():
    assert kernel(Matrix.identity(3)) == Subspace.zero(3)
    assert kernel(Matrix.zero(2, 4)) == Subspace.full(4)
    assert kernel(B_F) == Subspace.span_of_coordinates(5, [1])


def test_subspace_sum_and_intersection():
    a = Subspace.span_of_coordinates(5, [1])
    zero = Subspace.zero(5)
    full = Subspace.full(5)
    assert a + zero == a
    assert a.intersect(full) == a
    n = Subspace.span_of_coordinates(5, [2, 3, 4])
    assert a + n == Subspace.span_of_coordinates(5, [1, 2, 3, 4])
    x = Subspace.span_of_coordinates(3, [0, 1])
    y = Subspace.span_of_coordinates(3, [1, 2])
    assert x.intersect(y) == Subspace.span_of_coordinates(3, [1])


def test_subspace_sum_requires_matching_ambient():
    with pytest.raises(DimensionMismatch):
        Subspace.full(2) + Subspace.full(3)


def test_canonical_form_is_representation_independent():
    s1 = Subspace.from_vectors(3, [(1, 1, 0), (0, 1, 1)])
    s2 = Subspace.from_vectors(3, [(1, 2, 1), (2, 3, 1), (1, 1, 0)])
    assert s1 == s2
    assert hash(s1) == hash(s2)


def test_solve_identity_zero_and_roundtrip():
    assert solve(Matrix.identity(3), (1, 2, 3)) == (F(1), F(2), F(3))
    assert solve(Matrix.zero(2, 2), (1, 0)) is None
    rng = random.Random(5)
    for _ in range(10):
        while True:
            m = Matrix([[F(rng.randint(-6, 6), rng.randint(1, 4))
                         for _ in range(4)] for _ in range(4)])
            if rank(m) == 4:
                break
        b = tuple(F(rng.randint(-9, 9)) for _ in range(4))
        x = solve(m, b)
        assert m.apply(x) == b


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix([[F(rng.randint(-3, 3)) for _ in range(cols)]
                    for _ in range(rows)])
        assert rank(m) + kernel(m).dim == cols


def test_complement_coordinates_greedy():
    s = Subspace.from_vectors(2, [(1, 1)])
    assert s.complement_coordinates() == (0,)
    assert Subspace.span_of_coordinates(3, [1]).complement_coordinates() == (0, 2)


@st.composite
def rational_subspaces(draw, n=None):
    """The span of up to n + 1 drawn rational vectors, about half their entries zero."""
    if n is None:
        n = draw(st.integers(1, 8), label="n")
    entry = st.one_of(st.just(F(0)), _Q)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1),
                label="rows")
    return Subspace.from_vectors(n, rows)


@settings(max_examples=200, deadline=None)
@given(rational_subspaces())
def test_complement_coordinates_match_the_greedy_search(s):
    comp = s.complement_coordinates()
    assert comp == greedy_complement_coordinates(s)
    assert (s + Subspace.span_of_coordinates(s.ambient_dim, comp)).dim == s.ambient_dim


def _leading_columns(s):
    return tuple(next(i for i, x in enumerate(row) if x) for row in s.basis)


@settings(max_examples=100, deadline=None)
@given(rational_subspaces(), st.data())
def test_pivots_are_the_leading_column_of_each_row(s, data):
    n = s.ambient_dim
    other = data.draw(rational_subspaces(n), label="other")
    for space in (s, Subspace.common_kernel(n, [Matrix(s.basis, n)]),
                  Subspace.full(n), Subspace.zero(n), s + other, s.intersect(other)):
        assert space.pivots == _leading_columns(space)


def test_contains_and_coordinates():
    s = Subspace.from_vectors(4, [(1, 0, 1, 0), (0, 1, 0, 2)])
    v = (2, 3, 2, 6)
    assert s.contains(v)
    coords = s.coordinates_of(v)
    rebuilt = [F(0)] * 4
    for c, row in zip(coords, s.basis):
        rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
    assert tuple(rebuilt) == tuple(map(F, v))
    assert not s.contains(unit_vector(4, 3))
    assert s.coordinates_of(unit_vector(4, 3)) is None


def test_zero_row_matrices_keep_their_width():
    z = Matrix.zero(0, 3)
    assert (z.rows, z.cols) == (0, 3)
    assert (z.transpose().rows, z.transpose().cols) == (3, 0)
    assert (z * Matrix.identity(3)).cols == 3
    assert Matrix.from_columns([(), ()]).cols == 2
    assert kernel(z) == Subspace.full(3)
    for s in (Subspace.zero(3), Subspace.full(3)):
        assert kernel(s.annihilator_matrix()) == s


# mostly zero entries, so that families of matrices are often rank deficient
_Q = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


def _matrices(n):
    """Lists of 0-4 matrices with n columns, 0-4 rows each, some all zero."""
    random_matrix = st.integers(0, 4).flatmap(
        lambda rows: st.lists(st.lists(_Q, min_size=n, max_size=n),
                              min_size=rows, max_size=rows).map(lambda e: Matrix(e, n)))
    zero_matrix = st.integers(0, 4).map(lambda rows: Matrix.zero(rows, n))
    return st.lists(st.one_of(random_matrix, zero_matrix), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _matrices(n))))
def test_common_kernel_is_killed_by_every_matrix(case):
    n, mats = case
    space = Subspace.common_kernel(n, mats)
    assert space.ambient_dim == n
    for m in mats:
        assert all(not any(m.apply(v)) for v in space.basis)
    stacked = Matrix([row for m in mats for row in m.entries], n)
    assert space.dim == n - rank(stacked)
    if len(mats) == 1:
        assert space == kernel(mats[0])


def _subspaces(n):
    return st.lists(st.lists(_Q, min_size=n, max_size=n), max_size=n).map(
        lambda vectors: Subspace.from_vectors(n, vectors))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_subspaces(n), _subspaces(n))))
def test_intersection_lies_in_both_and_has_the_dimension_formula(pair):
    a, b = pair
    both = a.intersect(b)
    assert a.contains_subspace(both) and b.contains_subspace(both)
    assert a.dim + b.dim == (a + b).dim + both.dim
    assert kernel(a.annihilator_matrix()) == a


def test_common_kernel_rejects_a_matrix_of_another_width():
    with pytest.raises(DimensionMismatch):
        Subspace.common_kernel(3, [Matrix.identity(3), Matrix.zero(0, 2)])


# -- rref against sympy's DomainMatrix.rref -------------------------------------

_NONZERO = st.builds(F, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 4))
_NONREAL = st.builds(GaussianRational, st.integers(-3, 3), st.integers(1, 3) | st.integers(-3, -1))


def _sparse_entries(nonzero):
    """Zero half the time, else 1, -1 or a drawn nonzero value."""
    return st.one_of(st.just(F(0)), st.sampled_from([F(1), F(-1)]) | nonzero)


@st.composite
def _sparse_rows(draw, nonzero):
    """1-8 rows of 1-8 columns, mostly zero, with some rows all zero."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = _sparse_entries(nonzero)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1))):
        m[i] = [F(0)] * cols
    return m


def _to_sympy(x, domain):
    re = QQ(x.real.numerator, x.real.denominator)
    return re if domain is QQ else QQ_I(re, QQ(x.imag.numerator, x.imag.denominator))


def _from_sympy(z, domain):
    if domain is QQ:
        return F(z.numerator, z.denominator)
    return GaussianRational(F(z.x.numerator, z.x.denominator),
                            F(z.y.numerator, z.y.denominator))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, QQ_I]).flatmap(
    lambda domain: st.tuples(st.just(domain), _sparse_rows(
        _NONZERO if domain is QQ else _NONZERO | _NONREAL))))
def test_rref_matches_sympy_domain_matrix(case):
    domain, m = case
    rows, pivots = rref(m)
    expected, expected_pivots = DomainMatrix(
        [[_to_sympy(x, domain) for x in row] for row in m], (len(m), len(m[0])),
        domain).rref()
    assert pivots == expected_pivots
    assert [list(row) for row in rows] == [
        [_from_sympy(z, domain) for z in row] for row in expected.to_list()[:len(pivots)]]
    assert all(_in_normal_form(x) for row in rows for x in row)


@settings(max_examples=300, deadline=None)
@given(_sparse_entries(_NONZERO | _NONREAL),
       st.lists(_sparse_entries(_NONZERO | _NONREAL), max_size=8))
def test_vec_scale_and_vec_sub_match_the_plain_comprehension(c, u):
    got, plain = vec_scale(c, u), tuple(c * a for a in u)
    assert got == plain
    assert [type(x) for x in got] == [type(x) for x in plain]


def _entries_over(data):
    """Sparse entries over QQ or, when drawn, over QQ(i)."""
    gaussian = data.draw(st.booleans(), label="gaussian")
    return _sparse_entries(_NONZERO | _NONREAL if gaussian else _NONZERO)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_of_is_the_reduced_span_of_the_basis_combinations(data):
    entry = _entries_over(data)
    n = data.draw(st.integers(1, 7), label="n")
    s = Subspace.from_vectors(n, data.draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n), label="rows"))
    d = s.dim
    random_rows = st.lists(st.lists(entry, min_size=d, max_size=d), max_size=4)
    # a drawn matrix, the zero one (the full kernel) or one of full column
    # rank (the zero kernel)
    a = data.draw(st.one_of(
        random_rows.map(lambda rows: Matrix(rows, d)),
        st.integers(0, 3).map(lambda rows: Matrix.zero(rows, d)),
        random_rows.map(lambda rows: Matrix(list(Matrix.identity(d).entries) + rows, d))),
        label="a")
    combos = [[sum((c * b for c, b in zip(coeffs, column)), F(0)) for column in zip(*s.basis)]
              for coeffs in kernel(a).basis]
    got = s.kernel_of(a)
    assert got == Subspace.from_vectors(n, combos)
    assert got.pivots == _leading_columns(got)
    assert all(_in_normal_form(x) for row in got.basis for x in row)
    assert all(not any(a.apply(s.coordinates_of(v))) for v in got.basis)


def test_kernel_of_rejects_a_matrix_of_another_width():
    with pytest.raises(DimensionMismatch):
        Subspace.full(3).kernel_of(Matrix.identity(2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shifted_is_the_dense_difference(data):
    entry = _entries_over(data)
    n = data.draw(st.integers(0, 6), label="n")
    a = Matrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                  min_size=n, max_size=n), label="a"), n)
    lam = data.draw(_sparse_entries(_NONZERO | _NONREAL), label="lam")
    lam_i = Matrix.identity(n).scale(lam)
    dense = [[x - y for x, y in zip(row, lam_row)]
             for row, lam_row in zip(a.entries, lam_i.entries)]
    got = a.shifted(lam)
    assert (got.rows, got.cols) == (n, n)
    assert [list(row) for row in got.entries] == dense
    assert [[type(x) for x in row] for row in got.entries] == [
        [type(x) for x in row] for row in dense]


def test_shifted_rejects_a_non_square_matrix():
    with pytest.raises(DimensionMismatch):
        Matrix.zero(2, 3).shifted(1)
