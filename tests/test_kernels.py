"""The permutation kernels: the descent search and the avoider walk, each
against the scan it replaced."""

import random

import pytest

from posetdecomp import _reference, kernels
from posetdecomp.generate import antichain, chain, random_poset, two_chain_fan
from posetdecomp.nccd import derived_extension
from posetdecomp.poset import enumerate_posets

import oracles


def test_reference_trivial_sizes():
    assert _reference.min_descents(b"", b"", 0) == 0
    assert _reference.permutations_avoiding(b"", 0) == [()]
    assert _reference.min_descents(b"\x00", b"\x00", 1) == 1


def test_reference_matches_naive_oracle():
    for n in range(5):
        for p in enumerate_posets(n):
            got = _reference.min_descents(p.lt_bytes, p.lt_bytes, p.n)
            assert got == oracles.naive_min_descents(p)
            assert _reference.permutations_avoiding(p.lt_bytes, p.n) == sorted(
                oracles.naive_avoiders(p)
            )


def _extension_pattern(p, e) -> bytes:
    """pattern[x*n+y] = 1 when x comes before y in the linear extension e."""
    rank = {label: i for i, label in enumerate(e)}
    r = [rank[label] for label in p.labels]
    return bytes(int(r[x] < r[y]) for x in range(p.n) for y in range(p.n))


def _assert_min_descents_match(p):
    for pattern in (p.lt_bytes, _extension_pattern(p, derived_extension(p))):
        assert kernels.min_descents(pattern, p.lt_bytes, p.n) == oracles.scan_min_descents(
            pattern, p.lt_bytes, p.n
        )


def test_min_descents_is_one_kernel():
    assert kernels.min_descents is _reference.min_descents
    assert kernels.permutations_avoiding is _reference.permutations_avoiding
    assert kernels.BACKEND == "pure"


def test_min_descents_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kernels.min_descents(b"\x00", b"\x00", 2)
    with pytest.raises(ValueError):
        kernels.min_descents(bytes(4), bytes(3), 2)


def test_min_descents_matches_scan_oracle_exhaustive():
    for n in range(6):
        for p in enumerate_posets(n):
            _assert_min_descents_match(p)


def test_min_descents_matches_scan_oracle_random_n8():
    for s in range(200):
        _assert_min_descents_match(random_poset(8, density=0.3, seed=s))


def test_min_descents_matches_scan_oracle_large():
    # the oracle takes about a second on antichain(9) and on each of these
    # random posets; the width bound settles them in microseconds
    _assert_min_descents_match(antichain(9))
    for s in range(4):
        _assert_min_descents_match(random_poset(10, density=0.15, seed=s))


def test_min_descents_matches_scan_oracle_on_arbitrary_relations():
    # neither matrix need be an order: the width bound closes lt transitively
    rng = random.Random(20231)
    for _ in range(1500):
        n = rng.randint(1, 6)
        dp, dl = rng.random(), rng.random()
        pattern = bytes(int(rng.random() < dp) for _ in range(n * n))
        lt = bytes(int(rng.random() < dl) for _ in range(n * n))
        assert kernels.min_descents(pattern, lt, n) == oracles.scan_min_descents(pattern, lt, n)


def _assert_avoiders_match(pattern, n):
    assert kernels.permutations_avoiding(pattern, n) == oracles.scan_avoiders(pattern, n)


def test_permutations_avoiding_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kernels.permutations_avoiding(b"\x00", 2)
    with pytest.raises(ValueError):
        kernels.permutations_avoiding(bytes(5), 2)


def test_permutations_avoiding_matches_scan_oracle_exhaustive():
    for n in range(6):
        for p in enumerate_posets(n):
            _assert_avoiders_match(p.lt_bytes, p.n)
            _assert_avoiders_match(_extension_pattern(p, derived_extension(p)), p.n)


def test_permutations_avoiding_matches_scan_oracle_families():
    cases = [antichain(7), chain(8), two_chain_fan(3), *(random_poset(8, seed=s) for s in range(6))]
    for p in cases:
        _assert_avoiders_match(p.lt_bytes, p.n)


def test_permutations_avoiding_matches_scan_oracle_on_arbitrary_relations():
    # the walk needs no order: a diagonal bit or a cycle in pattern changes
    # which triples are patterns, not how they are found
    rng = random.Random(20232)
    for _ in range(1500):
        n = rng.randint(1, 6)
        density = rng.random()
        pattern = bytes(int(rng.random() < density) for _ in range(n * n))
        _assert_avoiders_match(pattern, n)


def test_extension_relative_pattern_buffer():
    # pattern and order matrices may differ; the antichain under a listing
    # order has avoiders counted by the Catalan numbers
    p = antichain(5)
    import numpy as np

    rank = np.arange(5)
    pattern = (rank[:, None] < rank[None, :]).astype(np.uint8).tobytes()
    avoiders = kernels.permutations_avoiding(pattern, 5)
    assert len(avoiders) == oracles.catalan_closed_form(5)
