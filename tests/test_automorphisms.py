"""The automorphism engine and the embedding check, pinned against listing oracles."""

import math
import random

import numpy as np
import pytest

from posetdecomp import Poset, poset, verify_embedding
from posetdecomp.generate import antichain, random_poset, wrap_forest
from posetdecomp.poset import automorphism_group, automorphisms, isomorphic

import oracles
import populations

FAMILIES = {
    "n<=5": populations.up_to,
    "random9": lambda: [random_poset(9, 0.3, seed=s) for s in range(60)],
    "wrapforest20": lambda: populations.wrapforest_n20(40),
}

# two 9-element posets with groups that the smaller posets do not show:
# C2 x C2, which swaps the two A's, the two B's or both (its stabilizer chain
# needs two witnesses at one level), and C3, a rotation of three 3-chains
# that induces a chain permutation of order 3, not an involution
C2XC2 = Poset.from_cover_relations(
    ["m1", "m2", "m3", "m4", "A12", "A34", "B13", "B24", "t"],
    [("m1", "A12"), ("m2", "A12"), ("m3", "A34"), ("m4", "A34"), ("m1", "B13"), ("m3", "B13"),
     ("m2", "B24"), ("m4", "B24"), ("A12", "t"), ("A34", "t")],
)
C3 = Poset.from_cover_relations(
    [f"{x}{i}" for i in range(3) for x in "abc"],
    [pair for i in range(3)
     for pair in ((f"a{i}", f"b{i}"), (f"b{i}", f"c{i}"), (f"a{(i + 1) % 3}", f"c{i}"))],
)

# the top-down oracle's populations: |Aut| up to 5,000 lists every element
CHAIN_POPULATIONS = {
    **populations.STANDARD,
    "wrapforest-n30": lambda: [wrap_forest(30, seed=s) for s in range(50)],
    "c2xc2-and-c3": lambda: [C2XC2, C3],
}
LISTED_ORDER = 5_000
BOUND_POPULATIONS = {**CHAIN_POPULATIONS, "wrap_forest(400)": lambda: [wrap_forest(400, seed=0)]}

VERDICTS = (
    "aut_poset_order",
    "aut_oriented_order",
    "aut_unoriented_order",
    "well_defined",
    "injective",
    "homomorphism",
    "onto_oriented",
)


@pytest.mark.parametrize("family", FAMILIES)
def test_group_matches_listing_oracle(family):
    for p in FAMILIES[family]():
        listed = oracles._order_search(p.lt, p.lt, find_all=True)
        group = automorphism_group(p.rows)
        assert group.order == len(listed)
        assert set(automorphisms(p, cap=None)) == set(listed)


@pytest.mark.parametrize("family", FAMILIES)
def test_embedding_report_matches_oracle(family):
    for seed, p in enumerate(FAMILIES[family]()):
        rep = verify_embedding(p, seed=seed)
        assert {name: getattr(rep, name) for name in VERDICTS} == oracles.brute_embedding(p)
        assert rep.ok


def chain_faults(posets) -> list:
    """The posets whose group differs from the top-down oracle's in base,
    basic orbit sizes or order, or, up to LISTED_ORDER, in its elements.
    The engine is read off its module, where a rewrite binds it."""
    faults = []
    for p in posets:
        group = poset.automorphism_group(p.rows)
        base, gens, sizes = oracles.stabilizer_chain_top_down(p.rows)
        if (group.base, group.orbit_sizes, group.order) != (base, sizes, math.prod(sizes)):
            faults.append(p)
        elif group.order <= LISTED_ORDER and group.elements() != oracles.generated_group(p.n, gens):
            faults.append(p)
    return faults


@pytest.mark.parametrize("population", CHAIN_POPULATIONS)
def test_bottom_up_chain_matches_top_down_oracle(population):
    assert chain_faults(CHAIN_POPULATIONS[population]()) == []


@pytest.mark.parametrize("population", BOUND_POPULATIONS)
def test_generators_join_orbits(population):
    # each witness joins two orbits of the group found before it
    for p in BOUND_POPULATIONS[population]():
        assert len(automorphism_group(p.rows).generators) <= max(p.n - 1, 0)


def test_group_anchors():
    # wrap_forest(20, 174): ten 2-element chains, nine interchangeable
    for p, order in ((antichain(8), 40_320), (wrap_forest(20, seed=174), 362_880)):
        assert automorphism_group(p.rows).order == order
    assert len(set(automorphisms(antichain(8)))) == 40_320


def test_colours_restrict_the_group():
    # the antichain's group split by colour classes of sizes 3 and 2
    assert automorphism_group(antichain(5).rows, [0, 0, 0, 1, 1]).order == 12
    assert automorphism_group(([], [])).order == 1


def _relabeled(p, rng):
    perm = list(range(p.n))
    rng.shuffle(perm)
    lt = np.zeros_like(p.lt)
    lt[np.ix_(perm, perm)] = p.lt
    return Poset(p.labels, lt)


def _one_cover_removed(p, rng):
    covers = p.covers()
    if not covers:
        return None
    x, y = rng.choice(covers)
    lt = p.lt.copy()
    lt[p.idx(x), p.idx(y)] = False  # removing a cover pair keeps the order transitive
    return Poset(p.labels, lt)


# every pair of non-isomorphic n = 6 posets whose sorted (down count, up count)
# signatures agree, as cover pairs (no such pair exists at n <= 5): the search,
# not its starting domains, must tell them apart
SAME_DEGREES = (
    ([(0, 5), (1, 5), (4, 2), (4, 3)], [(0, 5), (1, 4), (2, 3), (2, 5)]),
    ([(0, 5), (1, 5), (2, 3), (2, 5), (3, 4)], [(0, 5), (1, 4), (2, 3), (2, 4), (3, 5)]),
    ([(0, 5), (1, 4), (1, 5), (2, 3), (2, 4)], [(0, 5), (1, 3), (1, 4), (2, 3), (2, 4)]),
    ([(0, 5), (1, 5), (2, 3), (4, 1), (4, 2)], [(0, 5), (1, 3), (2, 3), (4, 1), (4, 2), (4, 5)]),
    ([(2, 3), (3, 4), (5, 0), (5, 1), (5, 4)], [(1, 4), (2, 3), (2, 4), (5, 0), (5, 1)]),
    ([(1, 4), (2, 3), (3, 4), (5, 0), (5, 1)], [(1, 3), (2, 3), (4, 1), (4, 2), (5, 0), (5, 3)]),
    ([(0, 4), (1, 2), (1, 4), (2, 3), (2, 5), (4, 5)],
     [(0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (3, 5)]),
)


def _degrees(p):
    up, down = p.rows
    return sorted((d.bit_count(), u.bit_count()) for u, d in zip(up, down))


def test_isomorphic_matches_oracle():
    # relabeled pairs are isomorphic; removing one cover from each side of a
    # relabeled pair gives equal relation counts, isomorphic or not
    rng = random.Random(7)
    verdicts = []
    for p in FAMILIES["n<=5"]() + FAMILIES["random9"]():
        q = _relabeled(p, rng)
        assert isomorphic(p, q)
        assert oracles._order_search(p.lt, q.lt, find_all=False)
        a, b = _one_cover_removed(p, rng), _one_cover_removed(q, rng)
        if a is not None:
            expected = bool(oracles._order_search(a.lt, b.lt, find_all=False))
            assert isomorphic(a, b) == expected
            verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)
    for covers_a, covers_b in SAME_DEGREES:
        a, b = (Poset.from_cover_relations(range(6), c) for c in (covers_a, covers_b))
        assert _degrees(a) == _degrees(b)
        assert not oracles._order_search(a.lt, b.lt, find_all=False)
        assert not isomorphic(a, b)
