"""The permutation kernels: the descent search and the avoider walk, each
against the scan it replaced.

Each case is built once as a boolean matrix: the kernels read its bit rows,
the verbatim scans its row-major 0/1 bytes."""

import random

import numpy as np
import pytest

from posetdecomp import _reference, kernels
from posetdecomp.generate import antichain, chain, random_poset, two_chain_fan
from posetdecomp.nccd import derived_extension
from posetdecomp.poset import enumerate_posets

import oracles


def _bytes(m) -> bytes:
    return m.astype(np.uint8).tobytes()


def _random_matrix(rng, n, density):
    """An n x n relation drawn row-major, each cell present with `density`."""
    return np.array([rng.random() < density for _ in range(n * n)], dtype=bool).reshape(n, n)


def test_reference_trivial_sizes():
    assert _reference.min_descents([], [], []) == 0
    assert _reference.permutations_avoiding([], []) == [()]
    assert _reference.min_descents([0], [0], [0]) == 1
    assert _reference.permutations_avoiding([0], [0]) == [(0,)]


def test_reference_matches_naive_oracle():
    for n in range(5):
        for p in enumerate_posets(n):
            assert _reference.min_descents(*p.rows, p.rows[0]) == oracles.naive_min_descents(p)
            assert _reference.permutations_avoiding(*p.rows) == sorted(oracles.naive_avoiders(p))


def _assert_min_descents_match(pattern, lt):
    assert kernels.min_descents(*oracles.bit_rows(pattern), oracles.bit_rows(lt)[0]) == oracles.scan_min_descents(
        _bytes(pattern), _bytes(lt), len(lt)
    )


def _assert_poset_min_descents_match(p):
    for pattern in (p.lt, oracles.extension_matrix(p, derived_extension(p))):
        _assert_min_descents_match(pattern, p.lt)


def test_min_descents_is_one_kernel():
    assert kernels.min_descents is _reference.min_descents
    assert kernels.permutations_avoiding is _reference.permutations_avoiding
    assert kernels.BACKEND == "pure"


def test_min_descents_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kernels.min_descents([0], [0], [0, 0])
    with pytest.raises(ValueError):
        kernels.min_descents([0, 0], [0], [0, 0])


def test_min_descents_matches_scan_oracle_exhaustive():
    for n in range(6):
        for p in enumerate_posets(n):
            _assert_poset_min_descents_match(p)


def test_min_descents_matches_scan_oracle_random_n8():
    for s in range(200):
        _assert_poset_min_descents_match(random_poset(8, density=0.3, seed=s))


def test_min_descents_matches_scan_oracle_large():
    # the oracle takes about a second on antichain(9) and on each of these
    # random posets; the width bound settles them in microseconds
    _assert_poset_min_descents_match(antichain(9))
    for s in range(4):
        _assert_poset_min_descents_match(random_poset(10, density=0.15, seed=s))


def test_min_descents_matches_scan_oracle_on_arbitrary_relations():
    # neither matrix need be an order: the width bound closes lt transitively
    rng = random.Random(20231)
    for _ in range(1500):
        n = rng.randint(1, 6)
        dp, dl = rng.random(), rng.random()
        pattern = _random_matrix(rng, n, dp)
        _assert_min_descents_match(pattern, _random_matrix(rng, n, dl))


def _assert_avoiders_match(pattern):
    assert kernels.permutations_avoiding(*oracles.bit_rows(pattern)) == oracles.scan_avoiders(
        _bytes(pattern), len(pattern)
    )


def test_permutations_avoiding_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kernels.permutations_avoiding([0], [0, 0])
    with pytest.raises(ValueError):
        kernels.permutations_avoiding([0, 0], [])


def test_permutations_avoiding_matches_scan_oracle_exhaustive():
    for n in range(6):
        for p in enumerate_posets(n):
            _assert_avoiders_match(p.lt)
            _assert_avoiders_match(oracles.extension_matrix(p, derived_extension(p)))


def test_permutations_avoiding_matches_scan_oracle_families():
    cases = [antichain(7), chain(8), two_chain_fan(3), *(random_poset(8, seed=s) for s in range(6))]
    for p in cases:
        _assert_avoiders_match(p.lt)


def test_permutations_avoiding_matches_scan_oracle_on_arbitrary_relations():
    # the walk needs no order: a diagonal bit or a cycle in pattern changes
    # which triples are patterns, not how they are found
    rng = random.Random(20232)
    for _ in range(1500):
        n = rng.randint(1, 6)
        _assert_avoiders_match(_random_matrix(rng, n, rng.random()))


def test_extension_relative_pattern_buffer():
    # pattern and order may differ; the antichain under a listing order has
    # avoiders counted by the Catalan numbers
    p = antichain(5)
    avoiders = kernels.permutations_avoiding(*oracles.bit_rows(oracles.extension_matrix(p, p.labels)))
    assert len(avoiders) == oracles.catalan_closed_form(5)
