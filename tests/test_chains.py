"""Chain decompositions, Dilworth minimum, maximum antichains."""

import random

import numpy as np
import pytest

from posetdecomp import (
    ChainDecomposition,
    InvalidDecompositionError,
    Poset,
    UnknownElementError,
    decomposition_from_lines,
    enumerate_chain_decompositions,
    is_antichain,
    is_chain,
    is_chain_decomposition,
    maximum_antichain,
    minimum_chain_decomposition,
    width,
)
from posetdecomp import chains as chains_module
from posetdecomp.generate import (
    antichain,
    boolean_lattice,
    chain,
    random_poset,
    two_chain_fan,
    wrap_forest,
)
from posetdecomp.poset import enumerate_posets

import oracles


def test_is_chain_and_antichain():
    p = boolean_lattice(2)
    assert is_chain(p, ["{}", "{1}", "{1,2}"])
    assert not is_chain(p, ["{1}", "{2}"])
    assert is_antichain(p, ["{1}", "{2}"])
    assert not is_antichain(p, ["{}", "{1}"])


def test_chain_and_antichain_tests_match_pair_oracles():
    # random subsets of every poset with n <= 5, some with repeated elements
    rng = random.Random(21)
    for n in range(6):
        for p in enumerate_posets(n):
            subsets = [[], list(p.labels)]
            for _ in range(6):
                subsets.append(rng.sample(p.labels, rng.randint(0, n)))
                if n:
                    subsets.append(rng.choices(p.labels, k=rng.randint(1, n + 2)))
            for elems in subsets:
                assert is_chain(p, elems) == oracles.is_chain_by_pairs(p, elems)
                assert is_antichain(p, elems) == oracles.is_antichain_by_pairs(p, elems)


def test_repeated_element_is_not_comparable_to_itself():
    p = chain(3)
    assert not is_chain(p, ["1", "1"])
    assert is_antichain(p, ["2", "2"])
    assert not is_antichain(p, ["1", "2", "1"])
    assert is_chain(p, ["2"]) and is_antichain(p, ["2"])


def test_chain_and_antichain_tests_reject_unknown_elements():
    p = chain(3)
    with pytest.raises(UnknownElementError):
        is_chain(p, ["1", "z"])
    with pytest.raises(UnknownElementError):
        is_antichain(p, ["z"])


def test_from_parts_sorts_into_poset_order():
    p = chain(4)
    d = ChainDecomposition.from_parts(p, [["3", "1", "4", "2"]])
    assert d.chains_as_labels() == (("1", "2", "3", "4"),)


def test_from_parts_rejects_non_chain():
    p = boolean_lattice(2)
    with pytest.raises(InvalidDecompositionError):
        ChainDecomposition.from_parts(p, [["{1}", "{2}"], ["{}", "{1,2}"]])


def test_from_parts_rejects_partial_cover():
    p = chain(3)
    with pytest.raises(InvalidDecompositionError):
        ChainDecomposition.from_parts(p, [["1", "2"]])


def test_from_parts_rejects_overlap():
    p = chain(3)
    with pytest.raises(InvalidDecompositionError):
        ChainDecomposition.from_parts(p, [["1", "2"], ["2", "3"]])


def test_lines_round_trip():
    p = two_chain_fan(2)
    d = minimum_chain_decomposition(p)
    again = decomposition_from_lines(p, d.to_lines())
    assert again == d


def test_is_chain_decomposition_accepts_object_and_parts():
    p = chain(3)
    d = minimum_chain_decomposition(p)
    assert is_chain_decomposition(p, d)
    assert is_chain_decomposition(p, [["1", "2", "3"]])
    assert not is_chain_decomposition(p, [["1", "2"]])


def test_minimum_decomposition_known_sizes():
    assert minimum_chain_decomposition(chain(6)).k == 1
    assert minimum_chain_decomposition(antichain(5)).k == 5
    assert minimum_chain_decomposition(boolean_lattice(3)).k == 3
    # maxima b1, b2, b3 and z form a width-4 antichain
    assert minimum_chain_decomposition(two_chain_fan(3)).k == 4


def test_dilworth_equality_exhaustive():
    for n in range(5):
        for p in enumerate_posets(n):
            d = minimum_chain_decomposition(p)
            a = maximum_antichain(p)
            assert d.k == len(a)
            assert is_antichain(p, a)
            assert d.k == oracles.brute_min_chain_partition(p)
            assert len(a) == oracles.max_antichain_size(p)


def test_dilworth_equality_random():
    for seed in range(60):
        p = random_poset(9, density=0.25 + 0.05 * (seed % 5), seed=seed)
        assert minimum_chain_decomposition(p).k == len(maximum_antichain(p))


def test_width_matches_antichain():
    p = boolean_lattice(3)
    assert width(p) == 3


def test_enumerate_decompositions_matches_partition_oracle():
    for n in range(5):
        for p in enumerate_posets(n):
            got = {
                frozenset(d.chains)
                for d in enumerate_chain_decompositions(p, cap=6)
            }
            want = {
                frozenset(tuple(block) for block in part)
                for part in oracles.chain_partitions(p)
            }
            assert got == want


def test_enumerate_decompositions_yields_each_once():
    p = chain(4)
    seen = list(enumerate_chain_decompositions(p, cap=6))
    keys = [frozenset(d.chains) for d in seen]
    assert len(keys) == len(set(keys))
    # partitions of a total order into chains = all set partitions
    assert len(keys) == 15


def test_empty_poset():
    for p in enumerate_posets(0):
        assert minimum_chain_decomposition(p).k == 0
        assert maximum_antichain(p) == ()


def test_matching_with_long_augmenting_path():
    # a fence a_i < b_i, a_i < b_(i+1): the b indices descend, so the first
    # greedy phase matches every a_i with b_(i+1), and a_m's only augmenting
    # path then runs through all 1200 matched pairs down to b_0
    m = 1200
    n = 2 * (m + 1)
    lt = np.zeros((n, n), dtype=bool)
    for i in range(m + 1):
        lt[i, n - 1 - i] = True
        if i < m:
            lt[i, n - 2 - i] = True
    p = Poset([str(i) for i in range(n)], lt)
    assert minimum_chain_decomposition(p).k == m + 1


def _matching_populations():
    yield from (p for n in range(6) for p in enumerate_posets(n))
    for density in (0.02, 0.05, 0.1, 0.2, 0.35, 0.5):
        for seed in range(8):
            yield random_poset(8 + 13 * (seed % 5), density=density, seed=seed)
    yield from (wrap_forest(n, seed=s) for n in (12, 20, 30) for s in range(10))
    yield chain(300)
    yield antichain(300)


def test_bit_row_matching_is_the_list_matching():
    # the bit-row search tries edges in the same order, so it must return
    # the very matching, decomposition and antichain of the list-based one
    for p in _matching_populations():
        succ = [np.flatnonzero(row).tolist() for row in p.lt]
        assert chains_module._hopcroft_karp(p.rows[0], p.n) == oracles._hopcroft_karp(succ, p.n)
        d, a = chains_module._dilworth(p)
        assert (d.chains, a) == oracles.dilworth_by_lists(p)


def test_dilworth_check_and_section_match_once(monkeypatch):
    from posetdecomp import chains, cli, verify

    calls = []
    real = chains._hopcroft_karp

    def counted(up, n):
        calls.append(n)
        return real(up, n)

    monkeypatch.setattr(chains, "_hopcroft_karp", counted)
    p = random_poset(9, seed=3)
    assert verify.check_dilworth(verify.Analysis(p))["passed"]
    assert cli._section_dilworth(verify.Analysis(p), False)["equal"]
    assert calls == [9, 9]
