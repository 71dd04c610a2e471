"""Stabilizers, condition (R), polarizations, and the decision cascade."""

import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    CATALOG_NAMES,
    COORD,
    borel,
    borel3,
    draw_basis_change,
    in_general_position,
    largest_ideal_in_kernel,
)

from orbitkit import cli
from orbitkit.algfile import parse_algebra
from orbitkit.catalog import get_entry
from orbitkit.coadjoint import (
    CONDITION_R_FAILS,
    PRIMITIVE_STAR_REGULAR,
    STAR_REGULAR,
    UNDETERMINED,
    check_polarization,
    condition_R_at,
    form_matrix,
    functional,
    random_functional,
    regularity_report,
    stabilizer,
    stabilizer_ideal,
    vergne_polarization,
)
from orbitkit.errors import FlagInvalid, NotCoabelianIdeal
from orbitkit.exactlin import Subspace, rank
from orbitkit.liealg import LieAlgebra, ax_b, b5, g49_zero, heisenberg3, motion_e2, mtilde

F = Fraction


def span(n, coords):
    return Subspace.span_of_coordinates(n, coords)


def ref_b5():
    g = b5()
    return g, functional(g, {"e0": F(1, 3), "e3": 1})


def test_form_matrix_examples():
    abelian = LieAlgebra.abelian(("x", "y"))
    assert form_matrix(abelian, (1, 2)).is_zero()

    g, f = ref_b5()
    b = form_matrix(g, f)
    i = {n: g.index_of(n) for n in g.basis_names}
    assert b.entries[i["d"]][i["e3"]] == 1 and b.entries[i["e3"]][i["d"]] == -1
    assert b.entries[i["e1"]][i["e2"]] == 1 and b.entries[i["e2"]][i["e1"]] == -1
    assert b == -b.transpose()

    h3 = heisenberg3()
    assert rank(form_matrix(h3, functional(h3, {"e3": 1}))) == 2


def test_stabilizer_examples():
    abelian = LieAlgebra.abelian(("x", "y"))
    assert stabilizer(abelian, (3, 4)) == Subspace.full(2)
    g = b5()
    for extra in ({}, {"d": 5, "e0": F(-2, 7)}):
        f = functional(g, {"e3": 1, **extra})
        assert stabilizer(g, f) == span(5, [1])
    h3 = heisenberg3()
    assert stabilizer(h3, functional(h3, {"e3": 1})) == span(3, [2])


def test_stabilizer_has_even_codimension():
    rng = random.Random(2)
    for g in (b5(), g49_zero(), heisenberg3()):
        for _ in range(10):
            f = random_functional(g, rng)
            codim = g.dim - stabilizer(g, f).dim
            assert codim % 2 == 0
            assert codim == rank(form_matrix(g, f))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CATALOG_NAMES + ["b3"]), st.booleans(), st.data())
def test_stabilizer_ideal_examples(name, change, data):
    g, f = ref_b5()
    assert stabilizer_ideal(g, functional(g, {})) == Subspace.full(5)
    m = stabilizer_ideal(g, f)
    assert m == span(5, [1, 2, 3, 4])
    assert g.is_ideal(m)
    h3 = heisenberg3()
    assert stabilizer_ideal(h3, functional(h3, {"e3": 1})) == Subspace.full(3)
    with pytest.raises(NotCoabelianIdeal):
        stabilizer_ideal(g, f, span(5, [4]))

    # containing [g, g] makes a subspace an ideal, so stabilizer_ideal, the
    # nilradical and the cascade run no ideal sweep; a fresh algebra has
    # nothing memoized that would hide one
    g = borel3() if name == "b3" else get_entry(name).algebra
    g = draw_basis_change(data, g) if change else LieAlgebra(g.basis_names, dict(g.brackets))
    draw = st.lists(COORD, min_size=g.dim, max_size=g.dim).map(tuple)
    comm = g.commutator_ideal()
    extra = data.draw(st.lists(draw, max_size=2), label="extra")
    assert g.is_ideal(comm + Subspace.from_vectors(g.dim, extra))
    f = data.draw(draw, label="f")
    with mock.patch.object(LieAlgebra, "is_ideal", side_effect=AssertionError("swept")):
        nilrad = g.nilradical()
        ideals = {n: stabilizer_ideal(g, f, n) for n in (comm, nilrad)}
        assert stabilizer_ideal(g, f) == ideals[nilrad]
        condition_R_at(g, f)
        regularity_report(g)
    for n, m in ideals.items():
        assert m == stabilizer(g, f) + n
        assert g.is_ideal(m)


def test_mtilde_examples():
    g, f = ref_b5()
    assert mtilde(g, Subspace.full(5)) == Subspace.full(5)
    m = stabilizer_ideal(g, f)
    assert mtilde(g, m) == m
    n = g.nilradical()
    assert mtilde(g, n) == n


def test_mtilde_quotient_stays_nilpotent():
    g, f = ref_b5()
    m = stabilizer_ideal(g, f)
    _, m_inf = g.descending_central_series(m)
    mt = mtilde(g, m)
    sub, _ = g.subalgebra(mt)
    coords = [sub.basis_names.index(n) for n in ("e1", "e2", "e3")]
    q, _ = sub.quotient(span(sub.dim, coords))
    assert q.is_nilpotent()


def test_condition_r():
    h3 = heisenberg3()
    holds, cert = condition_R_at(h3, functional(h3, {"e1": 2, "e3": 5}))
    assert holds and cert.m_infinity.dim == 0

    g, f = ref_b5()
    holds, cert = condition_R_at(g, f)
    assert not holds
    assert cert.m == span(5, [1, 2, 3, 4])
    assert cert.m_infinity == span(5, [2, 3, 4])
    assert cert.values_on_m_infinity == (F(0), F(0), F(1))
    assert cert.verify(g)

    axb = ax_b()
    holds, _ = condition_R_at(axb, functional(axb, {"b": 1, "a": 2}))
    assert holds


def test_largest_ideal_in_kernel():
    g, f = ref_b5()
    assert largest_ideal_in_kernel(g, functional(g, {})) == Subspace.full(5)
    assert largest_ideal_in_kernel(g, f).dim == 0
    assert in_general_position(g, f)
    h3 = heisenberg3()
    result = largest_ideal_in_kernel(h3, functional(h3, {"e1": 1}))
    assert result == span(3, [1, 2])
    # the result is an ideal inside the kernel and swallows smaller ones
    assert h3.is_ideal(result)
    assert all(x == 0 for x in result.restrict(functional(h3, {"e1": 1})))


def test_vergne_polarization_examples():
    abelian = LieAlgebra.abelian(("x", "y"))
    flag = [span(2, [1]), Subspace.full(2)]
    assert vergne_polarization(abelian, flag, (1, 1)) == Subspace.full(2)

    m = g49_zero()
    fm = functional(m, {"e0": F(1, 3), "e3": 1})
    flag = [span(4, c) for c in ([3], [2, 3], [1, 2, 3], [0, 1, 2, 3])]
    assert vergne_polarization(m, flag, fm) == span(4, [0, 2, 3])

    h3 = heisenberg3()
    flag = [span(3, c) for c in ([2], [1, 2], [0, 1, 2])]
    assert vergne_polarization(h3, flag, functional(h3, {"e3": 1})) == span(3, [1, 2])

    with pytest.raises(FlagInvalid):
        vergne_polarization(h3, [span(3, [0]), Subspace.full(3)], (0, 0, 1))
    with pytest.raises(FlagInvalid):
        vergne_polarization(h3, [span(3, [2]), Subspace.full(3)], (0, 0, 1))
    # a chain with the right dimensions whose first member is not an ideal:
    # span(a) in axb, [b, a] = -b, and span(e1) in h3, [e2, e1] = -e3
    with pytest.raises(FlagInvalid):
        vergne_polarization(ax_b(), [span(2, [0]), Subspace.full(2)], (0, 1))
    with pytest.raises(FlagInvalid):
        vergne_polarization(h3, [span(3, c) for c in ([0], [0, 2], [0, 1, 2])], (0, 0, 1))


def test_vergne_output_is_polarization_on_catalog():
    cases = [
        (b5(), {"e0": F(1, 3), "e3": 1},
         [span(5, c) for c in ([4], [3, 4], [2, 3, 4], [1, 2, 3, 4],
                               [0, 1, 2, 3, 4])]),
        (g49_zero(), {"e0": F(1, 3), "e3": 1},
         [span(4, c) for c in ([3], [2, 3], [1, 2, 3], [0, 1, 2, 3])]),
        (heisenberg3(), {"e3": 1},
         [span(3, c) for c in ([2], [1, 2], [0, 1, 2])]),
    ]
    for g, fval, flag in cases:
        f = functional(g, fval)
        p = vergne_polarization(g, flag, f)
        report = check_polarization(g, f, p)
        assert report.certified


# the algebras with a composition flag: the catalog but e2-motion, and b_2..b_4
_FLAG_ALGEBRAS = [*(name for name in CATALOG_NAMES if name != "e2-motion"), 2, 3, 4]


def _reference_flag_check(g, flag):
    """Dimensions 1..n, nested, and every member an ideal."""
    chain = [s for s in flag if s.dim > 0]
    return ([s.dim for s in chain] == list(range(1, g.dim + 1))
            and all(big.contains_subspace(small) for small, big in zip(chain, chain[1:]))
            and all(g.is_ideal(s) for s in chain))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_FLAG_ALGEBRAS), st.sampled_from(["valid", "random vector",
                                                         "swap vectors", "swap members"]),
       st.data())
def test_flag_invalid_exactly_when_the_reference_rejects_the_flag(which, kind, data):
    """b_n in a drawn basis order, a catalog algebra in a drawn basis or its
    own; a member's new vector swapped for a random vector of the next
    member, two new vectors swapped (and the members after them rebuilt), or
    two members swapped."""
    if isinstance(which, int):
        g = borel(which, data.draw(st.permutations(borel(which).basis_names), label="order"))
    else:
        g = get_entry(which).algebra
        if data.draw(st.booleans(), label="change"):
            g = draw_basis_change(data, g)
    n = g.dim
    flag = g.composition_flag()[1:]
    # the new vector of each member: a vector of it outside the member before
    vectors = [next(v for v in big.basis if not small.contains(v))
               for small, big in zip([Subspace.zero(n)] + flag, flag)]
    k = data.draw(st.integers(0, n - 1), label="member")
    j = data.draw(st.integers(0, n - 1), label="other member")
    if kind == "random vector":
        coeffs = data.draw(st.lists(COORD, min_size=k + 2, max_size=k + 2), label="coeffs")
        r = [sum((c * v[i] for c, v in zip(coeffs, vectors)), F(0)) for i in range(n)]
        flag[k] = Subspace.from_vectors(n, vectors[:k] + [r])
    elif kind == "swap vectors":
        vectors[k], vectors[j] = vectors[j], vectors[k]
        flag = [Subspace.from_vectors(n, vectors[:i + 1]) for i in range(n)]
    elif kind == "swap members":
        flag[k], flag[j] = flag[j], flag[k]
    f = data.draw(st.tuples(*[COORD] * n), label="f")
    try:
        vergne_polarization(g, flag, f)
    except FlagInvalid:
        assert not _reference_flag_check(g, flag)
    else:
        assert _reference_flag_check(g, flag)


def test_check_polarization_flags():
    m = g49_zero()
    fm = functional(m, {"e0": F(1, 3), "e3": 1})
    report = check_polarization(m, fm, span(4, [0, 2, 3]))
    assert report.certified

    g_crit = functional(m, {"e1": 1, "e2": 2})
    report = check_polarization(m, g_crit, m.nilradical())
    assert report.certified

    h3 = heisenberg3()
    report = check_polarization(h3, functional(h3, {"e3": 1}), Subspace.full(3))
    assert report.is_subalgebra and not report.is_isotropic


def test_combine_polarization():
    # g_f + p0 is a polarization at f when p0 is one inside an ideal h with
    # g = g_f + h
    h3 = heisenberg3()
    f = functional(h3, {"e3": 1})
    p0 = span(3, [1, 2])
    p = stabilizer(h3, f) + p0
    assert p == p0 and check_polarization(h3, f, p).certified

    m = g49_zero()
    fm = functional(m, {"e0": F(1, 3), "e3": 1})
    h, p0 = m.nilradical(), span(4, [2, 3])
    assert (stabilizer(m, fm) + h).dim == m.dim and h.contains_subspace(p0)
    p = stabilizer(m, fm) + p0
    assert p == span(4, [0, 2, 3])
    assert check_polarization(m, fm, p).certified

    # on b5 the nilradical is no such h: g_f + n is a hyperplane
    g, f = ref_b5()
    assert (stabilizer(g, f) + g.nilradical()).dim == g.dim - 1


def test_remark_invariants():
    # [m, zn] = 0 and zn <= zm for m = g_f + n, with zn and zm the centres
    # of n and m; both are theorems for f in general position
    def centres(g, f):
        n = g.nilradical()
        m = stabilizer_ideal(g, f, n)
        zn = g.centralizer(n).intersect(n)
        zm = g.centralizer(m).intersect(m)
        assert g.bracket_span(m, zn).dim == 0 and zm.contains_subspace(zn)
        return zn, zm

    g, f = ref_b5()
    assert in_general_position(g, f)
    assert centres(g, f) == (span(5, [4]), span(5, [4]))

    h3 = heisenberg3()
    centres(h3, functional(h3, {"e3": 1}))

    # a two-dimensional center means no functional is in general position;
    # the identities still hold without the hypothesis
    h3u = LieAlgebra.construct(
        ("e1", "e2", "e3", "u"), {("e1", "e2"): {"e3": 1}})
    f = functional(h3u, {"e1": 1, "e2": 1, "e3": 1, "u": 1})
    assert not in_general_position(h3u, f)
    centres(h3u, f)


def test_regularity_verdicts():
    assert regularity_report(heisenberg3()).verdict == STAR_REGULAR
    assert "polynomial growth" in regularity_report(heisenberg3()).reason

    axb_report = regularity_report(ax_b())
    assert axb_report.verdict == STAR_REGULAR
    assert "metabelian" in axb_report.reason
    assert "codimension-one-nilradical" in axb_report.branches

    g49_report = regularity_report(g49_zero())
    assert g49_report.verdict == PRIMITIVE_STAR_REGULAR

    e2_report = regularity_report(motion_e2())
    assert e2_report.verdict == UNDETERMINED
    assert any("not-exponential" in note for note in e2_report.notes)

    g, f = ref_b5()
    b5_report = regularity_report(g, sample_functionals=[f], seed=1)
    assert b5_report.verdict == CONDITION_R_FAILS
    assert b5_report.certificate is not None
    assert b5_report.certificate.values_on_m_infinity[-1] == 1
    assert b5_report.verify(g)


def test_regularity_report_deterministic():
    g, f = ref_b5()
    r1 = regularity_report(g, [f], seed=3)
    r2 = regularity_report(g, [f], seed=3)
    assert r1 == r2


# R^2 acting on the filiform f4 with weights a = (-1,-1,-2,-3), b = (-1,0,-1,-2):
# no branch of the cascade applies, so the verdict comes from the sample
R2_F4 = """basis a b x1 x2 x3 x4
bracket x1 x2 = x3
bracket x1 x3 = x4
bracket a x1 = -1*x1
bracket a x2 = -1*x2
bracket a x3 = -2*x3
bracket a x4 = -3*x4
bracket b x1 = -1*x1
bracket b x3 = -1*x3
bracket b x4 = -2*x4
"""
# a functional whose stabilizer ideal's stable term is not in its kernel
R2_F4_VIOLATION = (F(1, 2), F(-1, 4), F(0), F(4, 9), F(-2), F(0))


def test_a_sample_without_violations_is_undetermined(tmp_path, capsys):
    rep = regularity_report(parse_algebra(R2_F4))
    assert (rep.verdict, rep.samples_checked, rep.certificate) == (UNDETERMINED, 24, None)
    path = tmp_path / "r2f4.alg"
    path.write_text(R2_F4, encoding="utf-8")
    assert cli.main(["regularity-report", "--file", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["verdict"], result["samples_checked"]) == (UNDETERMINED, 24)
    assert "certificate" not in result


def test_a_sampled_violation_certifies_condition_r_fails():
    g = parse_algebra(R2_F4)
    rep = regularity_report(g, sample_functionals=[R2_F4_VIOLATION])
    assert rep.verdict == CONDITION_R_FAILS and rep.verify(g)
    cert = rep.certificate
    assert cert.f == R2_F4_VIOLATION and cert.verify(g)
    assert cert.values_on_m_infinity == (0, F(4, 9), -2, 0)


def test_a_certificate_with_any_field_replaced_fails_verify():
    g = parse_algebra(R2_F4)
    rep = regularity_report(g, sample_functionals=[R2_F4_VIOLATION])
    cert = rep.certificate
    wrong = {"f": cert.f[:3] + (F(5, 9),) + cert.f[4:], "n": cert.m, "m": cert.n,
             "m_infinity": cert.m, "values_on_m_infinity": (0, 0, 0, 0), "holds": True}
    assert set(wrong) == set(cert._fields)
    for name, value in wrong.items():
        assert value != getattr(cert, name)
        bad = cert._replace(**{name: value})
        assert not bad.verify(g), name
        assert not rep._replace(certificate=bad).verify(g), name
