"""Seeded defects, and the check or test that kills each.

Each entry of MUTANTS monkeypatches one library function with a plausible
bug and names what must catch it; the killer runs on a family fixed before
the run (every poset with n <= 4 and a few wrap forests).  The killer must
pass on the library as it is and fail under the defect.
"""

import itertools
import random

import numpy as np
import pytest

from posetdecomp import cut as cut_module
from posetdecomp import hcd, poset, verify
from posetdecomp.chains import ChainDecomposition
from posetdecomp.generate import antichain, random_poset, wrap_forest

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


def mhcd_merges_first_two(monkeypatch):
    """The analysis' `mhcd` merges its first two chains."""
    real = verify.mhcd

    def mutant(p):
        parts = [list(c) for c in real(p).chains]
        if len(parts) >= 2:
            parts[:2] = [parts[0] + parts[1]]
        return ChainDecomposition._from_index_parts(p, parts)

    monkeypatch.setattr(verify, "mhcd", mutant)


def merge_any_comparable(monkeypatch):
    """`merge_fixpoint` drops the profile test and merges any comparable pair."""

    def mutant(p, shuffle_seed=None):
        chains = [[x] for x in range(p.n)]
        rng = random.Random(shuffle_seed)
        while True:
            pairs = [
                (i, j)
                for i, j in itertools.combinations(range(len(chains)), 2)
                if all(p.lt[a, b] or p.lt[b, a] for a in chains[i] for b in chains[j])
            ]
            if not pairs:
                return ChainDecomposition._from_index_parts(p, chains)
            i, j = rng.choice(pairs)
            chains[i] += chains.pop(j)

    monkeypatch.setattr(verify, "merge_fixpoint", mutant)


def crossing_without_top(monkeypatch):
    """The crossing scan drops the b < d condition: B inside (a, b) suffices."""

    def mutant(up, down, chains):
        masks = [sum(1 << x for x in chain) for chain in chains]
        for ci, chain_a in enumerate(chains):
            for cj, mask_b in enumerate(masks):
                if cj != ci and any(mask_b & up[chain_a[0]] & down[b] for b in chain_a[1:]):
                    return chain_a[0], cj
        return None

    monkeypatch.setattr(verify, "_crossing", mutant)


def unsigned_side_counts(monkeypatch):
    """The side counts drop the alternating sign: they count the chains."""
    real = cut_module.d_matrix

    def chain_counts(lt):
        adj = lt.astype(np.int64 if len(lt) <= 64 else object)
        total = power = np.eye(len(lt), dtype=adj.dtype)
        for _ in range(len(lt) - 1):
            power = power @ adj
            total = total + power
        return total

    def mutant(p, d, scope="whole", cut=None):
        with monkeypatch.context() as m:
            if scope != "whole":
                m.setattr(cut_module, "_signed_counts", chain_counts)
            return real(p, d, scope, cut)

    monkeypatch.setattr(cut_module, "d_matrix", mutant)


def upper_over_lower_parts(monkeypatch):
    """The upper side is aggregated over the lower parts."""
    real = cut_module.d_matrix

    def mutant(p, d, scope="whole", cut=None):
        return real(p, d, "lower" if scope == "upper" else scope, cut)

    monkeypatch.setattr(cut_module, "d_matrix", mutant)


def admissible_by_comparability(monkeypatch):
    """`is_admissible` tests comparability (lt | lt.T) in place of lt."""

    def mutant(cut):
        lt = cut.poset.lt | cut.poset.lt.T
        comp = cut.frame.graph.adjacency
        k = cut.decomposition.k
        return cut_module.is_proper(cut) and all(
            lt[cut.lower_parts[i][-1], cut.upper_parts[j][0]]
            for i in range(k)
            for j in range(k)
            if i != j and comp[i, j]
        )

    monkeypatch.setattr(cut_module, "is_admissible", mutant)


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


def check_fails(name: str):
    """A killer: the battery's check `name` fails on some poset of FAMILY."""

    def killed() -> bool:
        return any(not verify.run_poset_checks(p, which=(name,))["ok"] for p in FAMILY)

    killed.__doc__ = f"The battery's {name} check."
    return killed


MUTANTS = {
    "first-witness-only": (first_witness_only, orders_differ_from_listing_oracle),
    "kernel-order-one": (kernel_order_one, injective_check_passes_non_chain_block),
    "reversed-images": (reversed_images, check_fails("embedding")),
    "mhcd-merges-first-two": (mhcd_merges_first_two, check_fails("homogeneous")),
    "merge-any-comparable": (merge_any_comparable, check_fails("homogeneous")),
    "crossing-without-top": (crossing_without_top, check_fails("segments")),
    "unsigned-side-counts": (unsigned_side_counts, check_fails("cut")),
    "upper-over-lower-parts": (upper_over_lower_parts, check_fails("cut")),
    "admissible-by-comparability": (admissible_by_comparability, check_fails("cut")),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    mutate, killed = MUTANTS[name]
    assert not killed()
    mutate(monkeypatch)
    assert killed(), f"{name} survives {killed.__doc__}"


def test_faulty_mhcd_fails_checks_instead_of_raising(monkeypatch):
    mhcd_merges_first_two(monkeypatch)
    cases = [
        (wrap_forest(20, seed=0), "InvalidDecompositionError"),
        (random_poset(6, seed=1), "NotHomogeneousError"),
    ]
    for p, error in cases:
        record = verify.run_poset_checks(p)
        errors = [c["details"].get("error", "") for c in record["checks"] if not c["passed"]]
        assert errors and any(e.startswith(error) for e in errors)
