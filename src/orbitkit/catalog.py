"""Built-in algebra catalog with reference data for the worked examples.

Each entry bundles an algebra with the reference functionals, coexponential
step sequences, ideal flags, expected polarizations, differential-operator
representations and expected verdicts that the golden tests pin down.

Representation convention: induced representations act by
(pi(m) phi)(x) = phi(m^-1 x) on functionals phi with phi(xp) =
chi(p)^-1 Delta^(1/2)(p) phi(x); the stored operator assignments for the
dotted generators are exact for that convention, and check_rep re-verifies
them on every catalog load in the test suite.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .envelop import DiffOp
from .exactlin import GaussianRational, Subspace
from .liealg import (
    LieAlgebra,
    ax_b,
    b5,
    g49_zero,
    heisenberg3,
    motion_e2,
)
from .symflow import ExpPoly


class CatalogEntry(NamedTuple):
    """An algebra plus the reference data its golden tests rely on."""

    name: str
    description: str
    algebra: LieAlgebra
    reference_functional: tuple | None = None
    orbit_steps: tuple | None = None
    symbolic_start: tuple | None = None
    ideal_flag: tuple | None = None
    stabilizer_names: tuple | None = None
    expected_polarization: Subspace | None = None
    representations: Mapping = MappingProxyType({})
    expected_verdict: str | None = None
    critical_label_oracle: object = None


def _b5_critical_label(target) -> str:
    """Exact classification of a covector on b5 against the reference orbit.

    Pinned description: the restricted-orbit closure is {l : l(e3) >= 0},
    the full closure inside it is cut out by e0*e3 - e1*e2 - f(e0)*e3.
    """
    g = b5()
    e1, e2, e3 = (target[g.index_of(n)] for n in ("e1", "e2", "e3"))
    e0 = target[g.index_of("e0")]
    if e3 < 0:
        return "not-in-omega"
    if e3 > 0:
        return "same-n-orbit"
    p_value = e0 * e3 - e1 * e2 - Fraction(1, 3) * e3
    return "critical" if p_value != 0 else "in-closure-evidence"


def _xi():
    return ExpPoly.variable("xi")


def _g49_representations():
    f0 = ExpPoly.variable("f0")
    g1 = ExpPoly.variable("g1")
    g2 = ExpPoly.variable("g2")
    ems = ExpPoly.exp({"s": -1})
    i_half = ExpPoly.constant(GaussianRational(0, Fraction(1, 2)))
    d = DiffOp.D()
    dpi_s = {
        "e0": DiffOp.multiplication(f0 - i_half) + DiffOp.multiplication(_xi()) * d,
        "e1": -d,
        "e2": DiffOp.multiplication(-(ems * _xi())),
        "e3": DiffOp.multiplication(ems),
    }
    drho = {
        "e0": -d,
        "e1": DiffOp.multiplication(ExpPoly.exp({"xi": 1}) * g1),
        "e2": DiffOp.multiplication(ExpPoly.exp({"xi": -1}) * g2),
        "e3": DiffOp.multiplication(0),
    }
    return {"dpi_s": dpi_s, "drho": drho}


def _coordinate_flag(dim, coordinate_chain):
    return tuple(Subspace.span_of_coordinates(dim, coords)
                 for coords in coordinate_chain)


_B5_STEPS = (("d", "s"), ("e0", "t"), ("e1", "x1"), (("e2", "x2"), ("e3", "x3")))

_G49_STEPS = (("e0", "t"), ("e1", "x1"), (("e2", "x2"), ("e3", "x3")))


def _build_entries():
    entries = {}

    h3 = heisenberg3()
    entries["heisenberg3"] = CatalogEntry(
        name="heisenberg3",
        description="3-dimensional Heisenberg algebra [e1,e2]=e3",
        algebra=h3,
        reference_functional=(Fraction(0), Fraction(0), Fraction(1)),
        orbit_steps=(("e1", "x1"), ("e2", "x2"), ("e3", "x3")),
        ideal_flag=_coordinate_flag(3, ([2], [1, 2], [0, 1, 2])),
        expected_verdict="star-regular",
    )

    axb = ax_b()
    entries["axb"] = CatalogEntry(
        name="axb",
        description="affine algebra of the line, [a,b]=b",
        algebra=axb,
        reference_functional=(Fraction(0), Fraction(1)),
        orbit_steps=(("a", "s"), ("b", "x1")),
        ideal_flag=_coordinate_flag(2, ([1], [0, 1])),
        expected_verdict="star-regular",
    )

    g49 = g49_zero()
    entries["g49_0"] = CatalogEntry(
        name="g49_0",
        description="4-dimensional stabilizer algebra: [e0,e1]=-e1, [e0,e2]=e2, "
                    "[e1,e2]=e3",
        algebra=g49,
        reference_functional=(Fraction(1, 3), Fraction(0), Fraction(0), Fraction(1)),
        orbit_steps=_G49_STEPS,
        ideal_flag=_coordinate_flag(4, ([3], [2, 3], [1, 2, 3], [0, 1, 2, 3])),
        expected_polarization=Subspace.span_of_coordinates(4, [0, 2, 3]),
        representations=_g49_representations(),
        expected_verdict="primitive-star-regular",
    )

    gb5 = b5()
    f0 = ExpPoly.variable("f0")
    entries["b5"] = CatalogEntry(
        name="b5",
        description="5-dimensional exponential algebra with Heisenberg nilradical; "
                    "the smallest case where the vanishing condition fails",
        algebra=gb5,
        reference_functional=(Fraction(0), Fraction(1, 3), Fraction(0), Fraction(0),
                              Fraction(1)),
        orbit_steps=_B5_STEPS,
        symbolic_start=(ExpPoly.constant(0), f0, ExpPoly.constant(0),
                        ExpPoly.constant(0), ExpPoly.constant(1)),
        ideal_flag=_coordinate_flag(
            5, ([4], [3, 4], [2, 3, 4], [1, 2, 3, 4], [0, 1, 2, 3, 4])),
        stabilizer_names=("e0", "e1", "e2", "e3"),
        expected_polarization=Subspace.span_of_coordinates(5, [1, 3, 4]),
        expected_verdict="condition-R-fails",
        critical_label_oracle=_b5_critical_label,
    )

    e2m = motion_e2()
    entries["e2-motion"] = CatalogEntry(
        name="e2-motion",
        description="motion algebra of the plane, [a,x]=y, [a,y]=-x; "
                    "not exponential (purely imaginary roots)",
        algebra=e2m,
        reference_functional=(Fraction(0), Fraction(1), Fraction(0)),
        expected_verdict="undetermined",
    )

    return entries


_ENTRIES = _build_entries()

_ABELIAN_RE = re.compile(r"^abelian([1-9][0-9]?)$")


def catalog_names():
    return sorted(_ENTRIES) + ["abelian<n>"]


@lru_cache(maxsize=None)
def _abelian_entry(n: int) -> CatalogEntry:
    """The abelianN entry, built once per process like the named entries, so
    its algebra's memo outlives one command; the name pattern bounds n by 99."""
    return CatalogEntry(
        name=f"abelian{n}",
        description=f"abelian algebra of dimension {n}",
        algebra=LieAlgebra.abelian(tuple(f"e{i+1}" for i in range(n))),
        reference_functional=tuple([Fraction(1)] * n),
        orbit_steps=tuple((f"e{i+1}", f"x{i+1}") for i in range(n)),
        ideal_flag=_coordinate_flag(n, [list(range(n - k, n))
                                        for k in range(1, n + 1)]),
        expected_verdict="star-regular",
    )


def get_entry(name: str) -> CatalogEntry:
    """Named entry; 'abelianN' is the abelian algebra of dimension N."""
    if name in _ENTRIES:
        return _ENTRIES[name]
    m = _ABELIAN_RE.match(name)
    if m:
        return _abelian_entry(int(m.group(1)))
    raise KeyError(f"no catalog entry named {name!r}")
