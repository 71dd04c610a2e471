"""Machine-readable mirrors of the report types.

Exact rationals are serialized as strings "p" or "p/q" (never floats); a
root's real and imaginary parts are separate rational vectors; distances
are additionally given as decimal strings with stated precision.  Key order is
deterministic: payloads are emitted with sorted keys.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING

from .coadjoint import (
    ConditionRCertificate,
    PolarizationReport,
    RegularityReport,
)
from .exactlin import Subspace
from .liealg import ExponentialVerdict, Root

if TYPE_CHECKING:
    # annotation-only names: importing them would load the orbit and
    # invariant layers with every command
    from .invariants import ClosureVerdict
    from .symflow import OrbitMap

SCHEMA = "orbitkit-report/1"
DISTANCE_DECIMALS = 12


def rational_str(x) -> str:
    x = Fraction(x)
    return str(x)


def vector_json(v):
    return [rational_str(x) for x in v]


def subspace_json(s: Subspace, names=None):
    out = {"ambient_dim": s.ambient_dim, "dim": s.dim,
           "basis": [vector_json(row) for row in s.basis]}
    if names is not None:
        out["coordinates"] = list(names)
    return out


def functional_json(f, names):
    return {n: rational_str(x) for n, x in zip(names, f) if x != 0} or {}


def root_json(r: Root):
    return {"re": vector_json(r.re), "im": vector_json(r.im),
            "multiplicity": r.multiplicity}


def exponential_json(v: ExponentialVerdict):
    out = {"kind": v.kind}
    if v.witness is not None:
        out["witness_root"] = root_json(v.witness)
    if v.detail:
        out["detail"] = v.detail
    return out


def condition_r_json(c: ConditionRCertificate, names):
    return {
        "holds": c.holds,
        "functional": functional_json(c.f, names),
        "commutator_ideal": subspace_json(c.n, names),
        "stabilizer_ideal": subspace_json(c.m, names),
        "stable_term": subspace_json(c.m_infinity, names),
        "values_on_stable_term": [rational_str(x) for x in c.values_on_m_infinity],
    }


def regularity_json(r: RegularityReport, names):
    out = {
        "verdict": r.verdict,
        "reason": r.reason,
        "branches": list(r.branches),
        "notes": list(r.notes),
        "samples_checked": r.samples_checked,
    }
    if r.certificate is not None:
        out["certificate"] = condition_r_json(r.certificate, names)
    return out


def polarization_json(p: PolarizationReport, names):
    return {
        "subspace": subspace_json(p.subspace, names),
        "is_subalgebra": p.is_subalgebra,
        "is_isotropic": p.is_isotropic,
        "dimension_ok": p.dimension_ok,
        "contains_stabilizer": p.contains_stabilizer,
        "certified": p.certified,
    }


def orbit_json(om: OrbitMap):
    return {
        "parameters": list(om.params),
        "components": {n: str(c) for n, c in zip(om.component_names, om.components)},
    }


def closure_json(v: ClosureVerdict):
    out = {
        "kind": v.kind,
        "tolerance": rational_str(v.tolerance),
        "budget": v.budget,
        "evaluations": v.evaluations,
    }
    if v.invariant is not None:
        out["invariant"] = str(v.invariant)
        out["invariant_value"] = rational_str(v.invariant_value)
    if v.squared_distance is not None:
        out["squared_distance"] = rational_str(v.squared_distance)
        out["distance_decimal"] = decimal_str_sqrt(v.squared_distance)
        out["assignment"] = {k: rational_str(x) for k, x in sorted(v.assignment.items())}
        out["exp_atoms"] = {k: rational_str(x) for k, x in sorted(v.exp_atoms.items())}
    return out


def decimal_str_sqrt(squared: Fraction) -> str:
    """Decimal string of sqrt(squared) by integer square root; display only."""
    scaled = Fraction(squared) * 10 ** (2 * DISTANCE_DECIMALS)
    root = isqrt(scaled.numerator // scaled.denominator)
    whole, frac = divmod(root, 10 ** DISTANCE_DECIMALS)
    return f"{whole}.{frac:0{DISTANCE_DECIMALS}d}"


def envelope(command: str, payload: dict) -> str:
    return json.dumps({"schema": SCHEMA, "command": command, "result": payload},
                      sort_keys=True, indent=2) + "\n"
