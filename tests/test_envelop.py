"""PBW normal forms, symmetrization, centrality, operator representations."""

import random
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    ReferenceUEA,
    evaluate_uea_by_words,
    leibniz_product,
    normalize_word_right,
)

from orbitkit.algfile import parse_algebra
from orbitkit.catalog import get_entry
from orbitkit.envelop import (
    DiffOp,
    UEAElement,
    _normalize_word,
    check_rep,
    evaluate_uea,
    is_central,
    symmetrize,
)
from orbitkit.errors import DimensionMismatch, PreconditionFailed, RepCheckFailed
from orbitkit.exactlin import GaussianRational
from orbitkit.liealg import g49_zero, heisenberg3
from orbitkit.symflow import ExpPoly

F = Fraction

# solvable, with the non-integer constants that make word sums carry real
# Fractions: [a,x] = x, [a,y] = -y/2, [a,z] = z/2, [x,y] = z/2
HALF_BRACKETS = parse_algebra("basis a x y z\n"
                              "bracket a x = x\n"
                              "bracket a y = -1/2*y\n"
                              "bracket a z = 1/2*z\n"
                              "bracket x y = 1/2*z\n")
ALGEBRAS = (g49_zero(), heisenberg3(), HALF_BRACKETS)


def var(name):
    return ExpPoly.variable(name)


def gens(algebra):
    return {n: ReferenceUEA(algebra, {(i,): 1}) for i, n in enumerate(algebra.basis_names)}


def dotted(algebra):
    """The complexified generators -i * e_n."""
    return {n: e * GaussianRational(0, -1) for n, e in gens(algebra).items()}


def catalog_w():
    m = get_entry("g49_0").algebra
    f0 = var("f0")
    e0, e1, e2, e3 = (var(n) for n in m.basis_names)
    p = e0 * e3 - e1 * e2 - f0 * e3
    return m, symmetrize(p, m)


def test_pbw_rewrite_single_step():
    m = g49_zero()
    g = gens(m)
    expected = g["e1"] * g["e2"] - g["e3"]
    assert g["e2"] * g["e1"] == expected


def test_central_generator_commutes():
    h3 = heisenberg3()
    g = gens(h3)
    rng = random.Random(4)
    for _ in range(10):
        u = ReferenceUEA(h3, {tuple(rng.choices(range(3), k=rng.randint(0, 3))):
                              F(rng.randint(-3, 3))})
        assert (g["e3"] * u - u * g["e3"]).is_zero()


def test_pbw_associativity_example():
    m = g49_zero()
    g = gens(m)
    a, b, c = g["e0"], g["e1"], g["e2"]
    assert (a * b) * c == a * (b * c)


def test_symmetrize_degree_one():
    m = g49_zero()
    w = symmetrize(var("e3"), m)
    assert w == dotted(m)["e3"]


def test_symmetrize_heisenberg_quadratic():
    h3 = heisenberg3()
    g = gens(h3)
    w = symmetrize(var("e1") * var("e2"), h3)
    assert w == -(g["e1"] * g["e2"] - g["e3"] * F(1, 2))


def test_symmetrize_matches_displayed_central_element():
    m, w_sym = catalog_w()
    ed = dotted(m)
    f0 = var("f0")
    w_display = (ed["e3"] * ed["e0"]
                 - (ed["e2"] * ed["e1"] + ed["e1"] * ed["e2"]) * F(1, 2)
                 - ed["e3"] * f0)
    assert w_sym == w_display
    half_i = ExpPoly.constant(GaussianRational(0, F(1, 2)))
    w_other = ed["e3"] * ed["e0"] - ed["e2"] * ed["e1"] - ed["e3"] * (f0 - half_i)
    assert w_sym == w_other


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(-3, 3).filter(bool))
def test_symmetrize_repeated_letters_matches_all_orderings(data, c):
    # reference: (1/k!) times the sum over all k! orderings, repeats included
    m = data.draw(st.sampled_from(ALGEBRAS))
    letters = data.draw(st.lists(st.sampled_from(m.basis_names), min_size=1, max_size=4))
    ed = dotted(m)
    q = ExpPoly.constant(c)
    for name in letters:
        q = q * var(name)
    expected = ReferenceUEA(m, {})
    for perm in permutations(letters):
        prod = ReferenceUEA(m, {(): 1})
        for name in perm:
            prod = prod * ed[name]
        expected = expected + prod
    assert symmetrize(q, m) == expected * F(c, factorial(len(letters)))


def test_is_central():
    m, w = catalog_w()
    assert is_central(ReferenceUEA(m, {(): F(5, 3)}))[0]
    ok, witness = is_central(w)
    assert ok and witness is None
    ok, witness = is_central(dotted(m)["e0"])
    assert not ok
    assert witness[0] == "e1"
    assert not witness[1].is_zero()


coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)),
    st.builds(lambda k, c: var("f0") ** k * c, st.integers(1, 2), st.integers(-2, 2)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_central_witness_is_the_commutator(data):
    m = data.draw(st.sampled_from(ALGEBRAS[:2]))
    words = st.lists(st.integers(0, m.dim - 1), max_size=4).map(tuple)
    u = ReferenceUEA(m, data.draw(st.dictionaries(words, coefficients, min_size=1,
                                                  max_size=4)))
    expected = (True, None)
    for name, e in gens(m).items():
        commutator = u * e - e * u
        if not commutator.is_zero():
            expected = (False, (name, commutator))
            break
    assert is_central(u) == expected


def test_words_with_letters_outside_the_basis_are_rejected():
    m = g49_zero()
    for word in ((-1,), (3, -1), (9,)):
        with pytest.raises(DimensionMismatch):
            _normalize_word(m, word)


def test_src_elements_come_in_normal_form_and_add_only_to_elements():
    m = g49_zero()
    with pytest.raises(TypeError):
        UEAElement(m, {(1, 0): 1})
    u = symmetrize(var("e0") * var("e1"), m)
    v = symmetrize(var("e2"), m)
    assert u + v == ReferenceUEA(m, {}) + u + v
    with pytest.raises(TypeError):
        u + 1
    with pytest.raises(DimensionMismatch):
        u + symmetrize(var("e1"), heisenberg3())


def test_mixed_operands_defer_to_the_element_or_operator():
    m = g49_zero()
    t = var("f0") * F(1, 2) + GaussianRational(0, 1)
    g = gens(m)
    u = g["e1"] * g["e0"] + 3
    d = DiffOp.D(2) + DiffOp.multiplication(var("xi"))
    assert t * u == u * t
    assert t + u == u + t
    assert t + d == d + t
    assert t * DiffOp.D() == DiffOp({1: t})
    assert 1 - u == -(u - 1)
    assert F(1, 2) - u == -(u - F(1, 2))


def test_symmetrized_casimir_polynomial_acts_by_the_same_polynomial_of_its_scalar():
    # q = a*C^3 + b*C^2 + c*C with C the g4,9,0 Casimir; symmetrize(q) is
    # central and drho sends it to a*s^3 + b*s^2 + c*s with s = -g1*g2; both
    # representations agree with word-by-word evaluation
    entry = get_entry("g49_0")
    m = entry.algebra
    e0, e1, e2, e3 = (var(n) for n in m.basis_names)
    casimir = e0 * e3 - e1 * e2 - var("f0") * e3
    a, b, c = F(-3, 2), F(5, 4), F(7)
    w = symmetrize(casimir ** 3 * a + casimir ** 2 * b + casimir * c, m)
    assert is_central(w) == (True, None)
    s = -(var("g1") * var("g2"))
    value = evaluate_uea(entry.representations["drho"], w)
    assert value.is_scalar()
    assert value.scalar_value() == s ** 3 * a + s ** 2 * b + s * c
    for assign in entry.representations.values():
        assert evaluate_uea(assign, w) == evaluate_uea_by_words(assign, w)


def test_diffop_canonical_commutator():
    d = DiffOp.D()
    xi = DiffOp.multiplication(var("xi"))
    minus_i = DiffOp.multiplication(GaussianRational(0, -1))
    assert d * xi - xi * d == minus_i


def test_scalar_value_refuses_an_operator_that_is_not_a_scalar():
    assert DiffOp.multiplication(var("f0")).scalar_value() == var("f0")
    for op in (DiffOp.D(), DiffOp.multiplication(var("xi"))):
        with pytest.raises(PreconditionFailed, match="not a scalar"):
            op.scalar_value()


def test_diffop_associativity():
    rng = random.Random(6)
    ops = [DiffOp.D(), DiffOp.multiplication(var("xi") ** 2),
           DiffOp.multiplication(ExpPoly.exp({"xi": 1})),
           DiffOp.D(2) + DiffOp.multiplication(F(1, 2))]
    for _ in range(10):
        a, b, c = (rng.choice(ops) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def gaussian_rationals():
    part = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
    return st.builds(GaussianRational, part, part)


def xi_functions():
    """Sums of c * xi^n * exp(k*xi) with n <= 3 and k in {-1, 0, 1}."""
    term = st.builds(lambda c, n, k: ExpPoly.constant(c) * var("xi") ** n
                     * ExpPoly.exp({"xi": k}),
                     gaussian_rationals(), st.integers(0, 3), st.integers(-1, 1))
    return st.lists(term, max_size=3).map(lambda ts: sum(ts, ExpPoly()))


def diffops():
    """Operators of D-order at most 3 with xi_functions coefficients."""
    return st.dictionaries(st.integers(0, 3), xi_functions(), max_size=3).map(DiffOp)


@settings(max_examples=60, deadline=None)
@given(diffops(), diffops(), diffops())
def test_diffop_composition_follows_leibniz_and_is_associative(p, q, r):
    assert p * q == leibniz_product(p, q)
    assert (p * q) * r == p * (q * r)


def test_check_rep_catalog_representations():
    entry = get_entry("g49_0")
    m = entry.algebra
    for name, assign in entry.representations.items():
        ok, defect = check_rep(m, assign)
        assert ok, (name, defect)


def test_check_rep_detects_wrong_sign():
    entry = get_entry("g49_0")
    m = entry.algebra
    wrong = dict(entry.representations["dpi_s"])
    wrong["e2"] = -wrong["e2"]
    ok, defect = check_rep(m, wrong)
    assert not ok
    assert defect[0] == "e1" and defect[1] == "e2"


def test_evaluate_dotted_e3_is_scalar():
    entry = get_entry("g49_0")
    m = entry.algebra
    dpi = entry.representations["dpi_s"]
    op = evaluate_uea(dpi, dotted(m)["e3"])
    assert op.is_scalar()
    assert op.scalar_value() == ExpPoly.exp({"s": -1})


def test_central_element_acts_by_scalars():
    entry = get_entry("g49_0")
    m, w = catalog_w()
    dpi = entry.representations["dpi_s"]
    drho = entry.representations["drho"]
    assert evaluate_uea(dpi, w).is_zero()
    value = evaluate_uea(drho, w)
    assert value.is_scalar()
    assert value.scalar_value() == -(var("g1") * var("g2"))


def test_evaluate_is_homomorphism():
    entry = get_entry("g49_0")
    m = entry.algebra
    dpi = entry.representations["dpi_s"]
    rng = random.Random(12)
    for _ in range(8):
        u = ReferenceUEA(m, {tuple(rng.choices(range(4), k=rng.randint(0, 2))):
                             F(rng.randint(-2, 2))})
        v = ReferenceUEA(m, {tuple(rng.choices(range(4), k=rng.randint(0, 2))):
                             F(rng.randint(-2, 2))})
        left = evaluate_uea(dpi, u * v)
        right = evaluate_uea(dpi, u) * evaluate_uea(dpi, v)
        assert left == right


def test_evaluate_refuses_non_representation():
    entry = get_entry("g49_0")
    m, w = catalog_w()
    wrong = dict(entry.representations["dpi_s"])
    wrong["e2"] = -wrong["e2"]
    with pytest.raises(RepCheckFailed):
        evaluate_uea(wrong, w)


def f0_polynomials():
    """Polynomials of degree at most 2 in f0 over Q(i)."""
    return st.lists(gaussian_rationals(), min_size=1, max_size=3).map(
        lambda cs: sum((ExpPoly.constant(c) * var("f0") ** k for k, c in enumerate(cs)),
                       ExpPoly()))


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.lists(st.integers(0, 3), max_size=5).map(tuple),
                       f0_polynomials(), max_size=8))
def test_evaluate_matches_word_by_word_evaluation(terms):
    entry = get_entry("g49_0")
    u = ReferenceUEA(entry.algebra, terms)
    for assign in entry.representations.values():
        assert evaluate_uea(assign, u) == evaluate_uea_by_words(assign, u)


def test_evaluate_refuses_a_coefficient_in_xi():
    # xi is the representation's variable, not a constant of U(g_C)
    entry = get_entry("g49_0")
    u = symmetrize(var("xi") * var("e0"), entry.algebra)
    for assign in entry.representations.values():
        with pytest.raises(PreconditionFailed, match="xi"):
            evaluate_uea(assign, u)


def test_renormalization_strategies_agree():
    m = g49_zero()
    rng = random.Random(3)
    for _ in range(30):
        word = tuple(rng.choices(range(4), k=rng.randint(0, 4)))
        assert _normalize_word(m, word) == normalize_word_right(m, word)
