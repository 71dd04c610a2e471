"""Structure constants, series, weights, nilradical, exponentiality."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import corpus
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    CATALOG_NAMES,
    COORD,
    borel,
    dense_ad_matrix,
    dense_bracket,
    dense_bracket_span,
    dense_is_ideal,
    dense_is_subalgebra,
    dense_killing_form,
    draw_basis_change,
    first_jacobi_defect,
    triangularize_by_induce,
)
from sympy import QQ, QQ_I, nextprime
from sympy.polys.matrices import DomainMatrix

from orbitkit import cli, liealg
from orbitkit.algfile import parse_algebra
from orbitkit.catalog import get_entry
from orbitkit.coadjoint import stabilizer, stabilizer_ideal
from orbitkit.errors import (
    AntisymmetryViolation,
    JacobiViolation,
    NonRationalSpectrum,
    NotIdeal,
    NotSubalgebra,
)
from orbitkit.exactlin import GaussianRational, Matrix, Subspace, kernel, solve, unit_vector
from orbitkit.liealg import (
    LieAlgebra,
    _gaussian_eigenvalues,
    _memoized,
    ax_b,
    b5,
    g49_zero,
    heisenberg3,
    motion_e2,
    mtilde,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"


def span(n, coords):
    return Subspace.span_of_coordinates(n, coords)


def test_abelian_constructs():
    g = LieAlgebra.abelian(("x", "y", "z"))
    assert g.dim == 3
    assert g.commutator_ideal().dim == 0


def test_abelian_triangularization_takes_no_eigenvalues(monkeypatch):
    # every ad(x) is zero, so each flag step keeps its whole common kernel
    calls = []
    monkeypatch.setattr(liealg, "_gaussian_eigenvalues", calls.append)
    g = LieAlgebra.abelian(tuple(f"e{i}" for i in range(5)))
    assert g.composition_flag() == [span(5, range(k)) for k in range(6)]
    zero = (F(0),) * 5
    assert g.adjoint_weights() == [liealg.Root(re=zero, im=zero, multiplicity=5)]
    assert calls == []


def test_b5_constructs_and_brackets():
    g = b5()
    e = {n: g.basis_vector(n) for n in g.basis_names}
    assert g.bracket(e["e1"], e["e2"]) == e["e3"]
    assert g.bracket(e["e0"], e["e1"]) == tuple(-x for x in e["e1"])
    assert g.bracket(e["d"], e["e3"]) == e["e3"]
    assert g.bracket(e["e0"], e["e3"]) == (F(0),) * 5
    x = (F(1), F(2), F(3), F(4), F(5))
    assert g.bracket(x, x) == (F(0),) * 5


def test_sign_flip_still_valid_but_differs_from_catalog():
    # flipping [e0,e1] forces [e0,e3] = 2*e3 for the Jacobi identity to
    # survive; the result is a valid table that the golden comparison flags
    flipped = LieAlgebra.construct(
        ("d", "e0", "e1", "e2", "e3"),
        {("e1", "e2"): {"e3": 1},
         ("e0", "e1"): {"e1": 1},
         ("e0", "e2"): {"e2": 1},
         ("e0", "e3"): {"e3": 2},
         ("d", "e2"): {"e2": 1},
         ("d", "e3"): {"e3": 1}})
    assert flipped.table != b5().table
    # the bare sign flip alone violates the Jacobi identity
    with pytest.raises(JacobiViolation):
        LieAlgebra.construct(
            ("d", "e0", "e1", "e2", "e3"),
            {("e1", "e2"): {"e3": 1},
             ("e0", "e1"): {"e1": 1},
             ("e0", "e2"): {"e2": 1},
             ("d", "e2"): {"e2": 1},
             ("d", "e3"): {"e3": 1}})


def test_broken_table_raises_jacobi_with_witness():
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra.construct(
            ("e1", "e2", "e3"),
            {("e1", "e2"): {"e3": 1}, ("e1", "e3"): {"e1": 1}})
    assert err.value.triple == (0, 1, 2)
    assert any(x != 0 for x in err.value.defect)


def test_antisymmetry_conflict():
    with pytest.raises(AntisymmetryViolation):
        LieAlgebra.construct(
            ("e1", "e2", "e3"),
            {("e1", "e2"): {"e3": 1}, ("e2", "e1"): {"e3": 1}})
    with pytest.raises(AntisymmetryViolation):
        LieAlgebra.construct(("e1", "e2"), {("e1", "e1"): {"e2": 1}})


def test_bracket_bilinearity_randomized():
    g = b5()
    rng = random.Random(3)
    for _ in range(20):
        x, y, z = (tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(5)) for _ in range(3))
        c = F(rng.randint(-3, 3))
        left = g.bracket(tuple(a + c * b for a, b in zip(x, y)), z)
        expect = tuple(a + c * b for a, b in
                       zip(g.bracket(x, z), g.bracket(y, z)))
        assert left == expect
        assert g.bracket(x, y) == tuple(-v for v in g.bracket(y, x))


def test_commutator_ideal_examples():
    assert LieAlgebra.abelian(("a", "b")).commutator_ideal().dim == 0
    assert heisenberg3().commutator_ideal() == span(3, [2])
    assert b5().commutator_ideal() == span(5, [2, 3, 4])


def test_descending_central_series():
    g = b5()
    m = span(5, [1, 2, 3, 4])
    series, stable = g.descending_central_series(m)
    assert series[0] == span(5, [2, 3, 4])
    assert stable == span(5, [2, 3, 4])
    h3 = heisenberg3()
    series, stable = h3.descending_central_series(Subspace.full(3))
    assert series[0] == span(3, [2])
    assert stable.dim == 0
    abelian = LieAlgebra.abelian(("x", "y"))
    series, stable = abelian.descending_central_series(Subspace.full(2))
    assert stable.dim == 0 and len(series) == 1
    with pytest.raises(NotSubalgebra):
        g.descending_central_series(
            Subspace.from_vectors(5, [(0, 1, 0, 0, 0), (0, 0, 1, 1, 0)]))


def test_center_and_predicates():
    assert heisenberg3().center() == span(3, [2])
    assert LieAlgebra.abelian(("x", "y")).center().dim == 2
    g = b5()
    assert g.is_solvable() and not g.is_nilpotent()
    assert heisenberg3().is_nilpotent()
    assert g.is_ideal(g.commutator_ideal())
    assert heisenberg3().is_ideal(heisenberg3().center())


def test_quotient_of_b5_by_central_line():
    g = b5()
    q, proj = g.quotient(span(5, [4]))
    assert q.basis_names == ("d", "e0", "e1", "e2")
    i1, i2 = q.index_of("e1"), q.index_of("e2")
    assert all(x == 0 for x in q.table[i1][i2])
    assert q.table[q.index_of("e0")][i1] == (F(0), F(0), F(-1), F(0))
    # the projection is a homomorphism on random pairs
    rng = random.Random(9)
    for _ in range(10):
        x, y = (tuple(F(rng.randint(-3, 3)) for _ in range(5)) for _ in range(2))
        assert proj.apply(g.bracket(x, y)) == q.bracket(proj.apply(x), proj.apply(y))
    with pytest.raises(NotIdeal):
        g.quotient(span(5, [0]))


def test_subalgebra_extraction_matches_catalog_table():
    g = b5()
    m = span(5, [1, 2, 3, 4])
    sub, incl = g.subalgebra(m)
    assert sub == g49_zero()
    assert incl.apply((1, 0, 0, 0)) == unit_vector(5, 1)


def test_adjoint_weights_abelian_and_axb():
    roots = LieAlgebra.abelian(("x", "y", "z")).adjoint_weights()
    assert len(roots) == 1 and roots[0].multiplicity == 3
    assert roots[0].vanishes_on(Subspace.full(3))
    roots = ax_b().adjoint_weights()
    values = sorted((r.re, r.im, r.multiplicity) for r in roots)
    assert values == [((F(0), F(0)), (F(0), F(0)), 1),
                      ((F(1), F(0)), (F(0), F(0)), 1)]


def test_adjoint_weights_b5():
    roots = b5().adjoint_weights()
    as_pairs = {(r.re[0], r.re[1]): r.multiplicity for r in roots}
    assert as_pairs == {(F(1), F(0)): 1, (F(0), F(-1)): 1,
                        (F(1), F(1)): 1, (F(0), F(0)): 2}
    comm = b5().commutator_ideal()
    for r in roots:
        assert r.vanishes_on(comm)
        assert all(x == 0 for x in r.im)


def test_nilradical_examples():
    assert heisenberg3().nilradical() == Subspace.full(3)
    assert b5().nilradical() == span(5, [2, 3, 4])
    assert ax_b().nilradical() == span(2, [1])
    sub, _ = b5().subalgebra(b5().nilradical())
    assert sub == heisenberg3()


def test_nilradical_maximality_probe():
    g = b5()
    nilrad = g.nilradical()
    rng = random.Random(21)
    for _ in range(20):
        v = tuple(F(rng.randint(-3, 3)) for _ in range(5))
        bigger = nilrad + Subspace.from_vectors(5, [v])
        if bigger == nilrad:
            continue
        if not g.is_ideal(bigger):
            continue
        sub, _ = g.subalgebra(bigger)
        assert not sub.is_nilpotent()


def _root_kernels(g):
    result = Subspace.full(g.dim)
    for root in g.adjoint_weights():
        result = result.intersect(kernel(Matrix([root.re, root.im])))
    return result


def _killing_blind():
    # roots (1 +- i)*a: k(a, a) = (1+i)^2 + (1-i)^2 = 0, so Rad k is all of g
    return LieAlgebra.construct(("a", "x", "y"), {("a", "x"): {"x": 1, "y": 1},
                                                  ("a", "y"): {"x": -1, "y": 1}})


def _triangularized(g):
    return {key[1:] for key in g._memo if key[0] == "_triangularize"}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(CATALOG_NAMES + ["b3"]), st.data())
def test_killing_nilradical_equals_the_root_kernels_after_a_basis_change(name, data):
    g = draw_basis_change(data, borel(3) if name == "b3" else get_entry(name).algebra)
    nilrad = g.nilradical()
    # the Killing radical certified itself: no triangularization ran
    assert _triangularized(g) == set()
    assert nilrad == _root_kernels(g)


def test_nilradical_falls_back_to_root_kernels_when_the_killing_form_is_blind():
    g = _killing_blind()
    assert g.nilradical() == span(3, [1, 2])
    assert _triangularized(g) == {()}


def test_nilradical_outside_gaussian_spectrum():
    # ad(a) squares to 2 on span{x, y}: roots +-sqrt(2)*a leave Q(i)
    g = LieAlgebra.construct(("a", "x", "y"), {("a", "x"): {"y": 1}, ("a", "y"): {"x": 2}})
    assert g.nilradical() == span(3, [1, 2])
    with pytest.raises(NonRationalSpectrum):
        g.adjoint_weights()


def test_memo_keeps_a_raised_error(monkeypatch, alg_dir, capsys):
    # analyze asks is_exponential, then adjoint_weights: both need the flag
    # that the sqrt(2) spectrum makes impossible, and the memo answers the second
    calls = Counter()

    def counting(m):
        calls["eigen"] += 1
        return _gaussian_eigenvalues(m)

    monkeypatch.setattr(liealg, "_gaussian_eigenvalues", counting)
    assert cli.main(["analyze", "--file", str(alg_dir / "sqrt2.alg"), "--json"]) == 0
    assert "roots_error" in capsys.readouterr().out
    assert calls == {"eigen": 1}
    g = LieAlgebra.construct(("a", "x", "y"), {("a", "x"): {"y": 1}, ("a", "y"): {"x": 2}})
    raised = []
    for _ in range(2):
        with pytest.raises(NonRationalSpectrum) as err:
            g.adjoint_weights()
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1] and calls == {"eigen": 2}


def test_memo_keeps_equality_hash_and_immutability():
    g = b5()
    g.nilradical(), g.composition_flag(), g.is_exponential()
    assert g._memo
    fresh = b5()
    assert g == fresh and hash(g) == hash(fresh) and not fresh._memo
    for attr in ("dim", "_memo"):
        with pytest.raises(AttributeError):
            setattr(g, attr, None)


def test_the_hash_is_computed_once_and_kept():
    g = g49_zero()
    assert g._hash is None
    h = hash(g)
    assert g._hash == h == hash((g.basis_names, g.table)) == hash(g49_zero())
    with pytest.raises(AttributeError):
        g._hash = None


def test_triangularization_runs_once_per_algebra_and_flag(monkeypatch):
    body = LieAlgebra._triangularize.__wrapped__
    calls = []

    def counting(self):
        calls.append(self)
        return body(self)

    monkeypatch.setattr(LieAlgebra, "_triangularize", _memoized(counting))

    def chain(g):
        g.is_exponential()
        g.adjoint_weights()
        return mtilde(g, g.nilradical())

    g = b5()  # takes the Killing path
    chain(g), g.composition_flag(), chain(g), g.composition_flag()
    assert calls == [g]
    # the nilradical of the blind algebra needs its roots; it has no rational flag
    calls.clear()
    blind = _killing_blind()
    chain(blind), chain(blind)
    assert calls == [blind]


def test_is_exponential():
    assert heisenberg3().is_exponential().kind == "exponential"
    assert b5().is_exponential().kind == "exponential"
    verdict = motion_e2().is_exponential()
    assert verdict.kind == "not-exponential"
    assert any(x != 0 for x in verdict.witness.im)
    assert all(x == 0 for x in verdict.witness.re)


def test_composition_flag_is_chain_of_ideals():
    for g in (b5(), g49_zero(), heisenberg3(), ax_b()):
        flag = g.composition_flag()
        assert [s.dim for s in flag] == list(range(g.dim + 1))
        for s in flag[1:]:
            assert g.is_ideal(s)
        for small, big in zip(flag, flag[1:]):
            assert big.contains_subspace(small)


_UNIT = st.sampled_from((-1, 0, 1))
# n on x1..x_dim: dim, the number of free weights of a diagonal derivation,
# the brackets, and the derivation's weights on x1..x_dim from the free ones
_NILPOTENT = {
    "Q2": (2, 2, {}, lambda w: w),
    "Q3": (3, 3, {}, lambda w: w),
    "h3": (3, 2, {("x1", "x2"): {"x3": 1}}, lambda w: (w[0], w[1], w[0] + w[1])),
    "f4": (4, 2, {("x1", "x2"): {"x3": 1}, ("x1", "x3"): {"x4": 1}},
           lambda w: (w[0], w[1], w[0] + w[1], 2 * w[0] + w[1])),
}


@st.composite
def semidirect_products(draw):
    """R^k semidirect n for k commuting derivations a_i of n: diagonal with
    free weights in {-1, 0, 1}, or on Q^2 the rotation blocks p + q*J."""
    kind = draw(st.sampled_from(sorted(_NILPOTENT)), label="n")
    dim, free, brackets, weights = _NILPOTENT[kind]
    xs = [f"x{j}" for j in range(1, dim + 1)]
    k = draw(st.integers(1, 2), label="k")
    rotation = kind == "Q2" and draw(st.booleans(), label="rotation")
    brackets = dict(brackets)
    for a in (f"a{i}" for i in range(k)):
        if rotation:
            p, q = draw(_UNIT), draw(_UNIT)
            brackets[(a, "x1")] = {"x1": p, "x2": q}
            brackets[(a, "x2")] = {"x1": -q, "x2": p}
        else:
            drawn = [draw(_UNIT) for _ in range(free)]
            for x, w in zip(xs, weights(drawn)):
                brackets[(a, x)] = {x: w}
    return LieAlgebra.construct([f"a{i}" for i in range(k)] + xs, brackets)


@settings(max_examples=60, deadline=None)
@given(semidirect_products(), st.booleans(), st.data())
def test_composition_flag_exists_exactly_when_every_root_is_real(g, change, data):
    if change:
        g = draw_basis_change(data, g)
    if any(any(root.im) for root in g.adjoint_weights()):
        with pytest.raises(NonRationalSpectrum) as err:
            g.composition_flag()
        assert err.value.witness in g.basis_names
    else:
        flag = g.composition_flag()
        assert [s.dim for s in flag] == list(range(g.dim + 1))
        assert all(g.is_ideal(s) for s in flag)
        assert all(big.contains_subspace(small) for small, big in zip(flag, flag[1:]))
        assert all(type(x) is Fraction for s in flag for row in s.basis for x in row)
    # the roots and the flag read one search
    assert _triangularized(g) == {()}


_SMALL_Q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_SMALL_QI = st.builds(GaussianRational, _SMALL_Q, st.one_of(st.just(0), _SMALL_Q))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gaussian_eigenvalues_recover_a_conjugated_triangular_diagonal(data):
    # M = P T P^-1 with T upper triangular over Q(i) next to the companion
    # block of x^2 - 2; the irrational roots +-sqrt(2) must be left out
    k = data.draw(st.integers(1, 4), label="k")
    diag = data.draw(st.lists(_SMALL_QI, min_size=k, max_size=k), label="diagonal")
    n = k + 2
    t = [[Fraction(0)] * n for _ in range(n)]
    for i in range(k):
        t[i][i] = diag[i]
        for j in range(i + 1, k):
            t[i][j] = data.draw(_SMALL_Q)
    t[k][k + 1], t[k + 1][k] = Fraction(2), Fraction(1)
    lower = [[Fraction(int(i == j)) if i <= j else data.draw(_SMALL_Q) for j in range(n)]
             for i in range(n)]
    upper = [[Fraction(int(i == j)) if i >= j else data.draw(_SMALL_Q) for j in range(n)]
             for i in range(n)]
    p = Matrix(lower) * Matrix(upper)
    p_inv = Matrix.from_columns([solve(p, unit_vector(n, j)) for j in range(n)])
    m = p * Matrix(t) * p_inv
    expected = sorted(Counter(diag).items(), key=lambda t: (t[0].real, t[0].imag))
    assert _gaussian_eigenvalues(m) == expected


def _to_qq_i(m):
    return DomainMatrix([[QQ_I(QQ(x.real.numerator, x.real.denominator),
                               QQ(x.imag.numerator, x.imag.denominator)) for x in row]
                         for row in m.entries], (m.rows, m.cols), QQ_I)


def _from_qq_i(z):
    return GaussianRational(Fraction(z.x.numerator, z.x.denominator),
                            Fraction(z.y.numerator, z.y.denominator))


def _qq_i_eigenvalues(m):
    # the reference: the charpoly factored over QQ_I, its linear factors read off
    eigs = []
    for factor, mult in _to_qq_i(m).charpoly_factor_list():
        if len(factor) == 2:
            eigs.append((_from_qq_i(-factor[1] / factor[0]), mult))
    eigs.sort(key=lambda t: (t[0].real, t[0].imag))
    return eigs


def _companion(coeffs):
    # the monic x^k + c_{k-1} x^{k-1} + ... + c_0, coeffs = [c_0, ..., c_{k-1}]
    k = len(coeffs)
    return [[Fraction(int(i == j + 1)) if j < k - 1 else Fraction(-coeffs[i])
             for j in range(k)] for i in range(k)]


# (x^2 + 1)^2, x^2 + 4x + 13 (roots -2 +- 3i), x^2 + 2 (+-sqrt(2) i, whose
# 4c - b^2 = 8 is not a square), x^2 + x + 1 and x^2 - 2: only the first two
# have roots in Q(i)
_PLANTED = ((1, 0, 2, 0), (13, 4), (2, 0), (1, 1), (-2, 0))


def _draw_conjugated_block_triangular(data):
    # M = P T P^-1, T block upper triangular: scalars and planted companion
    # blocks on the diagonal, noise above them; P and the scalars are
    # Gaussian or rational
    scalars = data.draw(st.sampled_from((_SMALL_Q, _SMALL_QI)), label="field")
    blocks, n = [], 0
    for block in data.draw(st.lists(st.one_of(scalars.map(lambda z: [[z]]),
                                              st.sampled_from(_PLANTED).map(_companion)),
                                    min_size=1, max_size=5), label="blocks"):
        if n + len(block) <= 5:
            blocks.append((n, block))
            n += len(block)
    t = [[Fraction(0)] * n for _ in range(n)]
    for start, block in blocks:
        for i, row in enumerate(block):
            t[start + i][start:start + len(row)] = row
            for j in range(start + len(row), n):
                t[start + i][j] = data.draw(_SMALL_Q)
    lower = [[Fraction(int(i == j)) if i <= j else data.draw(scalars) for j in range(n)]
             for i in range(n)]
    upper = [[Fraction(int(i == j)) if i >= j else data.draw(scalars) for j in range(n)]
             for i in range(n)]
    p = Matrix(lower) * Matrix(upper)
    p_inv = Matrix.from_columns([solve(p, unit_vector(n, j)) for j in range(n)])
    return p * Matrix(t) * p_inv


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gaussian_eigenvalues_match_the_qq_i_factorization(data):
    m = _draw_conjugated_block_triangular(data)
    assert _gaussian_eigenvalues(m) == _qq_i_eigenvalues(m)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_the_sympy_fallback_agrees_with_the_candidate_search(data):
    # a budget of one step sends every core whose charpoly is not a power
    # of x to the fallback
    m = _draw_conjugated_block_triangular(data)
    fast = _gaussian_eigenvalues(m)
    with mock.patch.object(liealg, "_BUDGET", 1):
        assert _gaussian_eigenvalues(m) == fast


def test_a_constant_term_past_the_budget_comes_back_exact_through_sympy():
    # (x - p)(x - q) with two 25-digit primes: trial division cannot factor
    # pq within the budget, and the companion matrix peels nothing
    p, q = nextprime(10 ** 24), nextprime(3 * 10 ** 24)
    m = Matrix(_companion((p * q, -(p + q))))
    with mock.patch.object(liealg, "_sympy_eigenvalues",
                           wraps=liealg._sympy_eigenvalues) as fallback:
        assert _gaussian_eigenvalues(m) == [(Fraction(p), 1), (Fraction(q), 1)]
    fallback.assert_called_once_with(m)


_SPARSE_Q = st.one_of(st.just(Fraction(0)), _SMALL_Q)
_SPARSE_QI = st.one_of(st.just(Fraction(0)), _SMALL_QI)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_berkowitz_charpoly_matches_sympy(data):
    n = data.draw(st.integers(0, 8), label="n")
    entries = data.draw(st.sampled_from((_SMALL_Q, _SMALL_QI, _SPARSE_Q, _SPARSE_QI)),
                        label="entries")
    m = Matrix([[data.draw(entries) for _ in range(n)] for _ in range(n)], n)
    assert liealg._charpoly(m.entries) == [_from_qq_i(c) for c in _to_qq_i(m).charpoly()]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_permuted_triangular_matrix_peels_to_an_empty_core(data):
    n = data.draw(st.integers(1, 8), label="n")
    diag = data.draw(st.lists(_SMALL_QI, min_size=n, max_size=n), label="diagonal")
    perm = data.draw(st.permutations(range(n)), label="permutation")
    t = [[diag[i] if i == j else data.draw(_SPARSE_QI) if i < j else Fraction(0)
          for j in range(n)] for i in range(n)]
    m = Matrix([[t[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    with mock.patch.object(liealg, "_core_eigenvalues",
                           wraps=liealg._core_eigenvalues) as search:
        eigs = _gaussian_eigenvalues(m)
    search.assert_called_once_with([])
    assert eigs == sorted(Counter(diag).items(), key=lambda t: (t[0].real, t[0].imag))


@pytest.mark.parametrize("command", ["analyze", "regularity-report"])
def test_gaussian_entry_triangularization_keeps_its_output(command, monkeypatch, alg_dir,
                                                           capsys):
    # ad(b) acts by 1 - i on the -i eigenspace of ad(a), so the flag search
    # hands _gaussian_eigenvalues matrices with non-real entries
    gaussian_calls = Counter()

    def counting(m):
        gaussian_calls[any(isinstance(x, GaussianRational) and x.imag
                           for row in m.entries for x in row)] += 1
        return _gaussian_eigenvalues(m)

    monkeypatch.setattr(liealg, "_gaussian_eigenvalues", counting)
    monkeypatch.delenv("ORBITKIT_SEED", raising=False)
    assert cli.main([command, "--file", str(alg_dir / "gaussian-weights.alg"), "--json"]) == 0
    golden = GOLDEN / f"gaussian-weights.{command}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert gaussian_calls[True] >= 1


# -- the sparse structure table against dense references ---------------------

def _catalog_or_b3(name):
    return borel(3) if name == "b3" else get_entry(name).algebra


def _draw_vector(data, n, label):
    return tuple(data.draw(st.lists(COORD, min_size=n, max_size=n), label=label))


def _draw_subspace(data, n):
    k = data.draw(st.integers(0, n), label="k")
    return Subspace.from_vectors(n, [_draw_vector(data, n, f"v{i}") for i in range(k)])


def _flag_ideals(g):
    try:
        return g.composition_flag()
    except NonRationalSpectrum:
        return []


# beside the catalog and b_2..b_4: the spiral (roots (1 +- i)*a), the
# gaussian-weights algebra and roots +-sqrt(2), which leave Q(i)
_SPARSE_CASES = {
    "b2": lambda: borel(2), "b3": lambda: borel(3), "b4": lambda: borel(4),
    "spiral": _killing_blind,
    "gaussian-weights": lambda: parse_algebra(corpus.ALG_FILES["gaussian-weights.alg"]),
    "sqrt2": lambda: LieAlgebra.construct(("a", "x", "y"),
                                          {("a", "x"): {"y": 1}, ("a", "y"): {"x": 2}}),
}
SPARSE_CASES = CATALOG_NAMES + list(_SPARSE_CASES)


def _sparse_algebra(name):
    return _SPARSE_CASES[name]() if name in _SPARSE_CASES else get_entry(name).algebra


def _sparse_case(name, data):
    g = _sparse_algebra(name)
    return draw_basis_change(data, g) if data.draw(st.booleans(), label="change") else g


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPARSE_CASES), st.data())
def test_bracket_equals_the_dense_reference_after_a_basis_change(name, data):
    g = draw_basis_change(data, _sparse_algebra(name))
    for _ in range(3):
        x, y = _draw_vector(data, g.dim, "x"), _draw_vector(data, g.dim, "y")
        assert g.bracket(x, y) == dense_bracket(g, x, y)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CATALOG_NAMES + ["b3"]), st.booleans(), st.data())
def test_ideal_and_subalgebra_tests_agree_with_the_bracket_span(name, change, data):
    g = _catalog_or_b3(name)
    if change:
        g = draw_basis_change(data, g)
    n, full = g.dim, Subspace.full(g.dim)
    # every coordinate span, which is an ideal or subalgebra often enough to
    # test both answers
    spaces = [span(n, c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    flag = _flag_ideals(g)
    # g_f + [g, g] and a drawn superset of [g, g] take the rule that skips the
    # sweep; a rule keyed on anything smaller would pass non-ideals here
    comm = g.commutator_ideal()
    over_comm = [stabilizer(g, _draw_vector(data, n, "f")) + comm,
                 _draw_subspace(data, n) + comm]
    for v in spaces + [_draw_subspace(data, n)] + flag + over_comm:
        assert g.is_ideal(v) == v.contains_subspace(g.bracket_span(full, v))
        assert g.is_subalgebra(v) == v.contains_subspace(g.bracket_span(v, v))
    assert all(g.is_ideal(v) and g.is_subalgebra(v) for v in flag + over_comm)


@pytest.mark.parametrize("name", CATALOG_NAMES + ["b3"])
def test_a_subspace_over_the_commutator_ideal_takes_no_bracket_sweep(name, monkeypatch):
    g = _catalog_or_b3(name)
    comm = g.commutator_ideal()
    f = tuple(Fraction(i + 1, 2) for i in range(g.dim))
    spaces = [comm, stabilizer(g, f) + comm, Subspace.full(g.dim)]
    calls = []
    sweep = LieAlgebra._bracket_of_supports

    def counted(self, xs, ys):
        calls.append((xs, ys))
        return sweep(self, xs, ys)

    monkeypatch.setattr(LieAlgebra, "_bracket_of_supports", counted)
    assert all(g.is_ideal(v) and g.is_subalgebra(v) for v in spaces)
    assert calls == []
    if comm.dim:  # a line off [g, g] still sweeps, through the patched kernel
        g.is_ideal(span(g.dim, comm.complement_coordinates()[:1]))
        assert calls


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPARSE_CASES), st.data())
def test_sparse_structure_sweeps_equal_their_dense_references(name, data):
    g = _sparse_case(name, data)
    n = g.dim
    x = _draw_vector(data, n, "x")
    for v in (x, unit_vector(n, data.draw(st.integers(0, n - 1), label="i"))):
        assert g.ad_matrix(v) == dense_ad_matrix(g, v)
    drawn = [_draw_subspace(data, n) for _ in range(2)]
    for a in drawn + [span(n, [n - 1])]:
        assert g.is_ideal(a) == dense_is_ideal(g, a)
        assert g.is_subalgebra(a) == dense_is_subalgebra(g, a)
        assert g.bracket_span(a, a) == dense_bracket_span(g, a, a)
    full = Subspace.full(n)
    assert g.commutator_ideal() == dense_bracket_span(g, full, full)
    # two subspaces, different in most draws, take the ordered pairs
    assert g.bracket_span(*drawn) == dense_bracket_span(g, *drawn)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPARSE_CASES), st.data())
def test_killing_form_equals_the_dense_triple_sum(name, data):
    g = _sparse_case(name, data)
    assert g._killing_form() == dense_killing_form(g)


def _same_flag_search(g):
    """Assert that the flag search gives the reference's flag and weights, or
    raises its NonRationalSpectrum; True when there is a flag."""
    try:
        expected = triangularize_by_induce(g)
    except NonRationalSpectrum as exc:
        with pytest.raises(NonRationalSpectrum) as err:
            g._triangularize()
        assert (str(err.value), err.value.witness) == (str(exc), exc.witness)
        return False
    assert g._triangularize() == expected
    return True


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SPARSE_CASES), st.data())
def test_flag_search_equals_the_search_that_reduces_every_column(name, data):
    _same_flag_search(_sparse_case(name, data))


def test_flag_search_equals_the_reference_on_non_real_and_irrational_spectra():
    g = _sparse_algebra("gaussian-weights")
    assert _same_flag_search(g)
    assert any(lam.imag for w in g._triangularize()[1] for lam in w)
    assert not _same_flag_search(_sparse_algebra("sqrt2"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG_NAMES + ["b3"]), st.data())
def test_a_perturbed_cell_fails_jacobi_as_the_reference_says(name, data):
    g = draw_basis_change(data, _catalog_or_b3(name))
    n = g.dim
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                     label="cell")
    k = data.draw(st.integers(0, n - 1), label="component")
    delta = data.draw(st.builds(F, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 4)),
                      label="delta")
    table = [[list(cell) for cell in row] for row in g.table]
    table[i][j][k] += delta  # and the opposite cell, so antisymmetry still holds
    table[j][i][k] -= delta
    expected = first_jacobi_defect(table)
    if expected is None:
        LieAlgebra(g.basis_names, table)  # the perturbation kept the identity
        return
    with pytest.raises(JacobiViolation) as err:
        LieAlgebra(g.basis_names, table)
    assert (err.value.triple, err.value.defect) == expected
    a, b, c = (g.basis_names[i] for i in expected[0])
    shown = ", ".join(str(x) for x in expected[1])  # 1/2, not Fraction(1, 2)
    assert str(err.value) == f"Jacobi identity fails on triple ({a},{b},{c}), defect ({shown})"


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_subalgebras_pass_the_validating_constructor(name):
    # subalgebra() skips re-validation: a closed subspace of a valid algebra
    # must give a table the validating constructor accepts unchanged
    entry = get_entry(name)
    g = entry.algebra
    for v in [stabilizer_ideal(g, entry.reference_functional)] + _flag_ideals(g):
        sub, _ = g.subalgebra(v)
        assert LieAlgebra(sub.basis_names, sub.table) == sub


BOREL4_ALG = """\
# upper-triangular 4x4 matrices [E_ij, E_kl] = d_jk E_il - d_li E_kj, shuffled basis
basis E3_4 E4_4 E2_2 E1_3 E1_1 E1_4 E2_4 E3_3 E1_2 E2_3
bracket E3_4 E4_4 = E3_4
bracket E3_4 E1_3 = -E1_4
bracket E3_4 E3_3 = -E3_4
bracket E3_4 E2_3 = -E2_4
bracket E4_4 E1_4 = -E1_4
bracket E4_4 E2_4 = -E2_4
bracket E2_2 E2_4 = E2_4
bracket E2_2 E1_2 = -E1_2
bracket E2_2 E2_3 = E2_3
bracket E1_3 E1_1 = -E1_3
bracket E1_3 E3_3 = E1_3
bracket E1_1 E1_4 = E1_4
bracket E1_1 E1_2 = E1_2
bracket E2_4 E1_2 = -E1_4
bracket E3_3 E2_3 = -E2_3
bracket E1_2 E2_3 = E1_3
"""
BOREL4_F = ("E3_4=-8/3,E4_4=-3,E2_2=-2,E1_3=7/2,E1_1=1/2,E1_4=2/5,E2_4=-3,E3_3=-1/2,"
            "E1_2=-3/2,E2_3=7/2")


@pytest.mark.parametrize("command", ["analyze", "stabilizer", "condition-r", "polarize",
                                     "orbit", "regularity-report"])
def test_borel4_in_a_shuffled_basis_keeps_its_output(command, monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("ORBITKIT_SEED", raising=False)
    path = tmp_path / "borel4.alg"
    path.write_text(BOREL4_ALG, encoding="utf-8")
    extra = [] if command == "analyze" else ["--f", BOREL4_F]
    assert cli.main([command, "--file", str(path), "--json", *extra]) == 0
    golden = GOLDEN / f"borel4.{command}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_borel4_analyze_checks_each_root_once(monkeypatch, tmp_path, capsys):
    # analyze reads the roots directly and through is_exponential; the roots
    # are memoized, so each is checked against the commutator ideal once
    monkeypatch.delenv("ORBITKIT_SEED", raising=False)
    checked = []
    vanishes_on = liealg.Root.vanishes_on

    def counted(root, space):
        checked.append(root)
        return vanishes_on(root, space)

    monkeypatch.setattr(liealg.Root, "vanishes_on", counted)
    path = tmp_path / "borel4.alg"
    path.write_text(BOREL4_ALG, encoding="utf-8")
    assert cli.main(["analyze", "--file", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "borel4.analyze.json").read_text(encoding="utf-8")
    assert len(checked) == len(set(checked)) == len(json.loads(out)["result"]["roots"])
