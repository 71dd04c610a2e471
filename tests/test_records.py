"""The nine result records are immutable NamedTuples: no field can be set,
records with equal fields are equal and a record with one field replaced is
not, an ExponentialVerdict is truthy only for an exponential algebra, and
catalog entries share no mutable representations mapping."""

import functools

import pytest

from orbitkit.catalog import CatalogEntry, catalog_names, get_entry
from orbitkit.coadjoint import check_polarization, condition_R_at, regularity_report
from orbitkit.invariants import closure_membership, critical_test
from orbitkit.liealg import ExponentialVerdict, heisenberg3
from orbitkit.symflow import orbit_map

RECORDS = ("CatalogEntry", "ConditionRCertificate", "PolarizationReport",
           "RegularityReport", "ClosureVerdict", "CriticalVerdict", "Root",
           "ExponentialVerdict", "OrbitMap")


@functools.cache
def _records():
    """{class name: one record of that class}, from the b5 and e2-motion entries."""
    entry = get_entry("b5")
    g, f = entry.algebra, entry.reference_functional
    om = orbit_map(g, f, entry.orbit_steps)
    not_exponential = get_entry("e2-motion").algebra.is_exponential()
    return {
        "CatalogEntry": entry,
        "ConditionRCertificate": condition_R_at(g, f)[1],
        "PolarizationReport": check_polarization(g, f, entry.expected_polarization),
        "RegularityReport": regularity_report(g),
        "ClosureVerdict": closure_membership(om, f, ()),
        "CriticalVerdict": critical_test(g, f, f, entry.orbit_steps),
        "Root": not_exponential.witness,
        "ExponentialVerdict": not_exponential,
        "OrbitMap": om,
    }


def test_one_record_of_each_class_is_checked():
    assert sorted(type(r).__name__ for r in _records().values()) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_field_cannot_be_set(name):
    record = _records()[name]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_make_equal_records_and_one_replaced_field_an_unequal_one(name):
    record = _records()[name]
    assert type(record)(*record) == record
    assert type(record)(**record._asdict()) == record
    for field in record._fields:
        changed = record._replace(**{field: object()})
        assert type(changed) is type(record) and changed != record, field


def test_an_exponential_verdict_is_truthy_exactly_when_exponential():
    for kind in ("exponential", "not-exponential", "unknown"):
        assert bool(ExponentialVerdict(kind)) is (kind == "exponential")
    assert get_entry("b5").algebra.is_exponential()
    assert not get_entry("e2-motion").algebra.is_exponential()


def test_catalog_entries_share_no_mutable_representations():
    entries = [get_entry(n) for n in catalog_names() if n != "abelian<n>"]
    entries += [get_entry("abelian3"), get_entry("abelian4"),
                CatalogEntry(name="h3", description="", algebra=heisenberg3())]
    assert get_entry("g49_0").representations
    for i, entry in enumerate(entries):
        for other in entries[i + 1:]:
            if entry.representations is other.representations:
                with pytest.raises(TypeError):
                    entry.representations["drho"] = {}
    assert all(not e.representations for e in entries if e.name != "g49_0")
