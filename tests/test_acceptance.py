"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import functools
import random
import time
from fractions import Fraction

from reference import (
    _poly_to_vector,
    derivation,
    normalize_word_right,
    rows_product,
    substitute_rows,
)

from orbitkit import cli
from orbitkit.catalog import get_entry
from orbitkit.coadjoint import (
    condition_R_at,
    functional,
    regularity_report,
    stabilizer,
    stabilizer_ideal,
)
from orbitkit.envelop import (
    DiffOp,
    UEAElement,
    _normalize_word,
    check_rep,
    evaluate_uea,
    is_central,
    symmetrize,
)
from orbitkit.exactlin import GaussianRational, Matrix, Subspace, rank, solve
from orbitkit.invariants import (
    EXACT_POINT,
    IN_CLOSURE_NUMERIC,
    NOT_IN_CLOSURE,
    closure_membership,
    invariant_space,
    orbit_certificates,
    semi_invariants,
    vanish_on_orbit,
)
from orbitkit.liealg import LieAlgebra, ax_b, b5, g49_zero, heisenberg3, motion_e2
from orbitkit.symflow import ExpPoly, one_param_flow, orbit_map

F = Fraction

B5_STEPS = [("d", "s"), ("e0", "t"), ("e1", "x1"), [("e2", "x2"), ("e3", "x3")]]

TOL = F(1, 10 ** 6)          # distance tolerance for numeric closure evidence
TOL2 = TOL * TOL             # squared: 10^-12
BUDGET = 10 ** 4


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {description}")
                raise
            print(f"[criterion {number}] PASS  {description}")
        return wrapper
    return decorate


def var(name):
    return ExpPoly.variable(name)


def reference_pipeline():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    m = stabilizer_ideal(g, f)
    om = orbit_map(g, f, B5_STEPS, restrict_to=m)
    certs = orbit_certificates(g, f, om, 2)
    return g, f, m, om, certs


@criterion(1, "orbit golden test reproduces the four displayed components, < 1 s")
def test_criterion_1_orbit_golden(capsys):
    entry = get_entry("b5")
    start = time.monotonic()
    om = orbit_map(entry.algebra, entry.symbolic_start, entry.orbit_steps)
    elapsed = time.monotonic() - start
    comp = dict(zip(om.component_names, om.components))
    f0, x1, x2 = var("f0"), var("x1"), var("x2")
    assert comp["e0"] == f0 - x1 * x2
    assert comp["e1"] == ExpPoly.exp({"t": 1}) * x2
    assert comp["e2"] == -(ExpPoly.exp({"s": -1, "t": -1}) * x1)
    assert comp["e3"] == ExpPoly.exp({"s": -1})
    assert elapsed < 1.0, f"orbit map took {elapsed:.3f}s"
    # the command line prints exactly these normal forms
    assert cli.main(["orbit", "--catalog", "b5"]) == 0
    out = capsys.readouterr().out
    for line in ("e0: f0 - x1*x2", "e1: x2*exp(t)",
                 "e2: -x1*exp(-s-t)", "e3: exp(-s)"):
        assert line in out


@criterion(2, "stabilizer pipeline: g_f, m = g_f + n, and the bracket table of m")
def test_criterion_2_stabilizer_pipeline():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    assert stabilizer(g, f) == Subspace.span_of_coordinates(5, [1])
    m = stabilizer_ideal(g, f)
    assert m == Subspace.span_of_coordinates(5, [1, 2, 3, 4])
    sub, _ = g.subalgebra(m)
    assert sub == get_entry("g49_0").algebra


@criterion(3, "condition (R) fails at the reference functional with certificate")
def test_criterion_3_condition_r_certificate():
    g = b5()
    f = functional(g, {"e0": F(1, 3), "e3": 1})
    holds, cert = condition_R_at(g, f)
    assert not holds
    assert cert.m_infinity == Subspace.span_of_coordinates(5, [2, 3, 4])
    assert cert.values_on_m_infinity == (F(0), F(0), F(1))
    assert cert.verify(g)
    report = regularity_report(g, [f], seed=0)
    assert report.verdict == "condition-R-fails"
    assert report.certificate.verify(g)


@criterion(4, "decision-procedure branches give the expected verdicts")
def test_criterion_4_decision_branches():
    assert regularity_report(heisenberg3()).verdict == "star-regular"
    assert "nilpotent" in regularity_report(heisenberg3()).branches

    axb_report = regularity_report(ax_b())
    assert axb_report.verdict == "star-regular"
    assert "metabelian" in axb_report.reason

    # every catalog algebra whose nilradical has codimension one satisfies
    # the one-codimensional branch; the non-metabelian one lands on it
    for name in ("axb", "g49_0"):
        entry = get_entry(name)
        g = entry.algebra
        if g.nilradical().dim == g.dim - 1:
            report = regularity_report(g)
            assert "codimension-one-nilradical" in report.branches
            assert report.verdict in ("star-regular", "primitive-star-regular")
    assert regularity_report(g49_zero()).verdict == "primitive-star-regular"

    e2_report = regularity_report(motion_e2())
    assert e2_report.verdict == "undetermined"
    assert any("not-exponential" in note for note in e2_report.notes)


@criterion(5, "invariant recovery at degree 2 and symbolic vanishing on the orbit")
def test_criterion_5_invariants():
    m_alg = g49_zero()
    inv = invariant_space(m_alg, semi_invariants(m_alg, 2))
    assert len(inv) == 3  # e3, e0*e3 - e1*e2, e3^2 (nonconstant, degree <= 2)
    e0, e1, e2, e3 = (var(n) for n in m_alg.basis_names)
    from orbitkit.invariants import _monomials
    monomials = _monomials(m_alg.basis_names, 2)
    cols = [_poly_to_vector(q, m_alg.basis_names, monomials) for q in inv]
    for member in (e3, e0 * e3 - e1 * e2):
        target = _poly_to_vector(member, m_alg.basis_names, monomials)
        assert solve(Matrix.from_columns(cols), target) is not None

    entry = get_entry("b5")
    om = orbit_map(entry.algebra, entry.symbolic_start, entry.orbit_steps)
    p = e0 * e3 - e1 * e2 - var("f0") * e3
    assert vanish_on_orbit(p, om)
    assert not vanish_on_orbit(e3, om)


@criterion(6, "enveloping algebra: W central, both representations, scalars, < 5 s")
def test_criterion_6_enveloping_pipeline():
    start = time.monotonic()
    entry = get_entry("g49_0")
    m = entry.algebra
    f0 = var("f0")
    e0, e1, e2, e3 = (var(n) for n in m.basis_names)
    w = symmetrize(e0 * e3 - e1 * e2 - f0 * e3, m)

    # the dotted generators -i * e_n
    ed = {n: UEAElement(m, {(i,): GaussianRational(0, -1)})
          for i, n in enumerate(m.basis_names)}
    w_display = (ed["e3"] * ed["e0"]
                 - (ed["e2"] * ed["e1"] + ed["e1"] * ed["e2"]) * F(1, 2)
                 - ed["e3"] * f0)
    assert w == w_display
    assert is_central(w)[0]

    dpi = entry.representations["dpi_s"]
    drho = entry.representations["drho"]
    assert check_rep(m, dpi)[0]
    assert check_rep(m, drho)[0]
    assert evaluate_uea(dpi, w).is_zero()
    value = evaluate_uea(drho, w)
    assert value.is_scalar()
    assert value.scalar_value() == -(var("g1") * var("g2"))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"enveloping pipeline took {elapsed:.3f}s"


@criterion(7, "closure lemma at desk scale: 20 critical + 3x20 boundary targets")
def test_criterion_7_closure_lemma():
    g, f, m, om, certs = reference_pipeline()
    p = certs[0]
    rng = random.Random(2024)

    def nonzero():
        return F(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))

    for trial in range(20):
        target = (F(rng.randint(-9, 9), rng.randint(1, 9)), nonzero(), nonzero(),
                  F(0))
        verdict = closure_membership(om, target, certs, tol=TOL, budget=BUDGET,
                                     seed=trial)
        assert verdict.kind == NOT_IN_CLOSURE
        assert verdict.invariant == p
        assert verdict.invariant_value == -target[1] * target[2]

    shapes = [lambda: (F(rng.randint(-9, 9), rng.randint(1, 9)), nonzero(), F(0), F(0)),
              lambda: (F(rng.randint(-9, 9), rng.randint(1, 9)), F(0), nonzero(), F(0)),
              lambda: (F(rng.randint(-9, 9), rng.randint(1, 9)), F(0), F(0), F(0))]
    for case, shape in enumerate(shapes):
        for trial in range(20):
            target = shape()
            verdict = closure_membership(om, target, certs, tol=TOL,
                                         budget=BUDGET, seed=100 * case + trial)
            assert verdict.kind == IN_CLOSURE_NUMERIC, (case, trial, verdict.kind)
            assert verdict.squared_distance < TOL2
            assert verdict.evaluations <= BUDGET
            # the witness re-evaluates exactly and has the expected shape:
            # the e3 component (an exp atom) has been driven close to zero
            point = om.evaluate(verdict.assignment, verdict.exp_atoms)
            d2 = sum((a - b) ** 2 for a, b in zip(point, target))
            assert d2 == verdict.squared_distance
            assert point[3] ** 2 <= TOL2

    # determinism per seed
    target = (F(1), F(2), F(0), F(0))
    v1 = closure_membership(om, target, certs, tol=TOL, budget=BUDGET, seed=5)
    v2 = closure_membership(om, target, certs, tol=TOL, budget=BUDGET, seed=5)
    assert (v1.squared_distance, v1.assignment, v1.exp_atoms, v1.evaluations) \
        == (v2.squared_distance, v2.assignment, v2.exp_atoms, v2.evaluations)


# -- criterion 8: the randomized property suites ------------------------------

def _random_invertible(rng, n):
    while True:
        m = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


@criterion(8, "property suites, >= 200 randomized cases each, fixed seeds")
def test_criterion_8_property_suites():
    _suite_jacobi_validation()
    _suite_grassmann_identity()
    _suite_pbw()
    _suite_expoly_and_flows()
    _suite_leibniz()
    _suite_homomorphism_defect()
    _suite_certificate_reverification()


def _suite_jacobi_validation():
    # change of basis preserves validity and the structural invariants
    rng = random.Random(81)
    sources = [heisenberg3(), g49_zero(), ax_b(), b5()]
    for case in range(200):
        g = sources[case % len(sources)]
        n = g.dim
        p = _random_invertible(rng, n)
        cols = [p.column(j) for j in range(n)]
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                w = g.bracket(cols[i], cols[j])
                row.append(solve(p, w))
            table.append(row)
        h = LieAlgebra(tuple(f"b{i}" for i in range(n)), table)
        assert h.is_solvable() == g.is_solvable()
        assert h.is_nilpotent() == g.is_nilpotent()
        assert h.commutator_ideal().dim == g.commutator_ideal().dim


def _suite_grassmann_identity():
    rng = random.Random(82)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = Subspace.from_vectors(n, [[F(rng.randint(-3, 3)) for _ in range(n)]
                                      for _ in range(rng.randint(0, n))])
        b = Subspace.from_vectors(n, [[F(rng.randint(-3, 3)) for _ in range(n)]
                                      for _ in range(rng.randint(0, n))])
        assert a.dim + b.dim == (a + b).dim + a.intersect(b).dim
        assert a + b == b + a
        assert a.intersect(b) == b.intersect(a)
        assert a + a == a and a.intersect(a) == a


def _suite_pbw():
    rng = random.Random(83)
    algebras = [g49_zero(), heisenberg3()]
    for case in range(200):
        m = algebras[case % 2]
        n = m.dim

        def rand_elt(max_len):
            return UEAElement(m, {
                tuple(rng.choices(range(n), k=rng.randint(0, max_len))):
                F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)})

        if case % 2 == 0:
            u, v, w = rand_elt(2), rand_elt(2), rand_elt(2)
            assert (u * v) * w == u * (v * w)
        else:
            for _ in range(3):
                word = tuple(rng.choices(range(n), k=rng.randint(0, 4)))
                assert _normalize_word(m, word) == normalize_word_right(m, word)


def _suite_expoly_and_flows():
    rng = random.Random(84)

    def rand_expoly():
        p = ExpPoly()
        for _ in range(rng.randint(1, 3)):
            t = ExpPoly.constant(F(rng.randint(-3, 3), rng.randint(1, 3)))
            for v in ("x", "y"):
                t = t * ExpPoly.variable(v) ** rng.randint(0, 2)
            t = t * ExpPoly.exp({rng.choice("st"): rng.randint(-1, 1)})
            p = p + t
        return p

    for _ in range(170):
        a, b, c = rand_expoly(), rand_expoly(), rand_expoly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    g = b5()
    t1, t2 = ExpPoly.variable("t1"), ExpPoly.variable("t2")
    for case in range(30):
        x = tuple(F(rng.randint(-2, 2)) for _ in range(5))
        flow = one_param_flow(g, x, "t")
        f1 = substitute_rows(flow, {"t": t1})
        f2 = substitute_rows(flow, {"t": t2})
        assert rows_product(f1, f2) == substitute_rows(flow, {"t": t1 + t2})


def _suite_leibniz():
    rng = random.Random(85)
    m = g49_zero()
    names = m.basis_names
    for _ in range(200):
        q = ExpPoly.constant(rng.randint(-2, 2))
        for _ in range(2):
            q = q + (ExpPoly.variable(rng.choice(names))
                     * ExpPoly.variable(rng.choice(names)) * rng.randint(-3, 3))
        r = ExpPoly.variable(rng.choice(names)) * rng.randint(-2, 2) + 1
        x = tuple(F(rng.randint(-3, 3)) for _ in range(4))
        assert derivation(m, x, q * r) == \
            derivation(m, x, q) * r + q * derivation(m, x, r)


def _suite_homomorphism_defect():
    rng = random.Random(86)
    entry = get_entry("g49_0")
    m = entry.algebra
    for case in range(200):
        assign = entry.representations["dpi_s" if case % 2 else "drho"]
        t = {n: DiffOp.multiplication(GaussianRational(0, 1)) * assign[n]
             for n in m.basis_names}

        def t_of(vec):
            out = DiffOp()
            for n, c in zip(m.basis_names, vec):
                if c:
                    out = out + t[n] * c
            return out

        x = tuple(F(rng.randint(-2, 2)) for _ in range(4))
        y = tuple(F(rng.randint(-2, 2)) for _ in range(4))
        defect = (t_of(x) * t_of(y) - t_of(y) * t_of(x)) - t_of(m.bracket(x, y))
        assert defect.is_zero()


def _suite_certificate_reverification():
    # every report kind the toolkit emits is recomputed from its own data
    for name in ("heisenberg3", "axb", "g49_0", "b5", "e2-motion", "abelian3"):
        entry = get_entry(name)
        g = entry.algebra
        samples = [entry.reference_functional] if entry.reference_functional else []
        report = regularity_report(g, samples, seed=7)
        if entry.expected_verdict is not None:
            assert report.verdict == entry.expected_verdict, name
        assert report.verify(g)
        if report.certificate is not None:
            assert report.certificate.verify(g)

    g, f, m, om, certs = reference_pipeline()
    not_in = closure_membership(om, (F(0), F(1), F(2), F(0)), certs, seed=1)
    assert not_in.kind == NOT_IN_CLOSURE
    point = dict(zip(om.component_names, (F(0), F(1), F(2), F(0))))
    revalue = not_in.invariant.evaluate(point)
    assert type(revalue) is F and revalue == not_in.invariant_value != 0
    assert vanish_on_orbit(not_in.invariant, om)

    numeric = closure_membership(om, (F(1), F(2), F(0), F(0)), certs, seed=1)
    assert numeric.kind == IN_CLOSURE_NUMERIC
    point = om.evaluate(numeric.assignment, numeric.exp_atoms)
    d2 = sum((a - b) ** 2 for a, b in zip(point, (F(1), F(2), F(0), F(0))))
    assert d2 == numeric.squared_distance

    exact = closure_membership(om, (F(1, 3), F(0), F(0), F(1)), certs, seed=1)
    assert exact.kind == EXACT_POINT
    assert om.evaluate(exact.assignment, exact.exp_atoms) == \
        (F(1, 3), F(0), F(0), F(1))
