"""Seeded defects in the symmetry code, and the check or test that kills each.

Each entry of MUTANTS monkeypatches one library function with a plausible
bug and names what must catch it; the killer runs on a family fixed before
the run (every poset with n <= 4 and a few wrap forests).  The killer must
pass on the library as it is and fail under the defect.
"""

import pytest

from posetdecomp import hcd, poset, verify
from posetdecomp.chains import ChainDecomposition
from posetdecomp.generate import antichain, wrap_forest

import oracles

FAMILY = [p for n in range(5) for p in poset.enumerate_posets(n)]
FAMILY += [wrap_forest(20, seed=s) for s in range(4)]


def first_witness_only(monkeypatch):
    """The engine keeps only the first witness at each base point."""
    real = poset._witness
    last = []

    def mutant(rows, dom, free, b, x):
        if last and last[0] is rows and last[1] == b:
            return None
        g = real(rows, dom, free, b, x)
        if g is not None:
            last[:] = [rows, b]
        return g

    monkeypatch.setattr(poset, "_witness", mutant)


def kernel_order_one(monkeypatch):
    """The kernel-order step returns 1 without searching."""
    monkeypatch.setattr(hcd, "_kernel_order", lambda p, d: 1)


def reversed_images(monkeypatch):
    """The induced images compose in reverse order: the map returns the inverse image."""
    real = hcd.induced_chain_permutation

    def mutant(p, d, g):
        sigma = real(p, d, g)
        inverse = [0] * len(sigma)
        for i, s in enumerate(sigma):
            inverse[s] = i
        return tuple(inverse)

    monkeypatch.setattr(hcd, "induced_chain_permutation", mutant)


def orders_differ_from_listing_oracle() -> bool:
    """test_automorphisms.test_group_matches_listing_oracle."""
    return any(
        poset.automorphism_group(p.lt).order
        != len(oracles._order_search(p.lt, p.lt, find_all=True))
        for p in FAMILY
    )


def injective_check_passes_non_chain_block() -> bool:
    """test_hcd.test_embedding_injective_fails_on_non_chain_block."""
    p = antichain(2)
    return hcd._embedding(p, ChainDecomposition(p, ((0, 1),)), 0).injective


def embedding_check_fails() -> bool:
    """The battery's embedding check (verify.check_embedding)."""
    return any(
        not verify.run_poset_checks(p, which=("embedding",))["ok"] for p in FAMILY
    )


MUTANTS = {
    "first-witness-only": (first_witness_only, orders_differ_from_listing_oracle),
    "kernel-order-one": (kernel_order_one, injective_check_passes_non_chain_block),
    "reversed-images": (reversed_images, embedding_check_fails),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    mutate, killed = MUTANTS[name]
    assert not killed()
    mutate(monkeypatch)
    assert killed(), f"{name} survives {killed.__doc__}"
