"""Shared catalog of groups and subgroup families used across the suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

# property tests draw the same examples on every run and store nothing;
# a test's own @settings still sets its example count
settings.register_profile("singideal", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("singideal")

from singideal.groups import (FiniteGroup, conjugation_closure,
                              cyclic, dihedral, direct_product,
                              enumerate_subgroups, quaternion_group,
                              symmetric_group)


def build_catalog():
    groups = [cyclic(n) for n in range(1, 13)]
    groups += [
        direct_product([cyclic(2), cyclic(2)]),
        direct_product([cyclic(2), cyclic(2), cyclic(2)]),
        direct_product([cyclic(2), cyclic(4)]),
        symmetric_group(3),
        symmetric_group(4),
        dihedral(4),
        dihedral(5),
        quaternion_group(),
    ]
    return groups


def conjugacy_class_families(group: FiniteGroup):
    """One conjugation-invariant family per conjugacy class of subgroups."""
    families = {}
    for sub in enumerate_subgroups(group):
        fam = conjugation_closure(group, [sub])
        families[fam.members] = fam
    return [families[k] for k in sorted(families)]


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def catalog_cases(catalog):
    """Every (group, single-conjugacy-class family) pair in the catalog."""
    cases = []
    for group in catalog:
        for fam in conjugacy_class_families(group):
            cases.append((group, fam))
    return cases


@pytest.fixture
def eliminations(monkeypatch):
    """(shape, prime, reduced) of each mod-p elimination that ``exact``
    runs from now on, in order."""
    from singideal import exact

    calls = []
    real = exact.eliminate_mod_p

    def counting(mat, p, reduced=False):
        calls.append((mat.shape, p, reduced))
        return real(mat, p, reduced)
    monkeypatch.setattr(exact, "eliminate_mod_p", counting)
    return calls
