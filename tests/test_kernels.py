"""The permutation kernels: the descent search and the avoider walk, each
against the scan it replaced.

Each case is built once as a boolean matrix: the kernels read its bit rows,
the verbatim scans its row-major 0/1 bytes."""

import random

import numpy as np
import pytest

from posetdecomp import _reference, kernels
from posetdecomp.chains import width
from posetdecomp.generate import antichain, chain, random_poset, two_chain_fan, wrap_forest
from posetdecomp.nccd import (
    derived_extension,
    min_descents_over_avoiders,
    min_descents_over_extension_avoiders,
)
from posetdecomp.poset import _extension_rows

import oracles
import populations


def _bytes(m) -> bytes:
    return m.astype(np.uint8).tobytes()


def _widths(lt: list[int]):
    """The kernel's width memo on the oracle's comparability rows of lt."""
    return kernels.antichain_widths(oracles.comparability_rows(lt))


def _random_matrix(rng, n, density):
    """An n x n relation drawn row-major, each cell present with `density`."""
    return np.array([rng.random() < density for _ in range(n * n)], dtype=bool).reshape(n, n)


def test_reference_trivial_sizes():
    assert _reference.min_descents([], [], [], _widths([])) == 0
    assert _reference.permutations_avoiding([], []) == [()]
    assert _reference.min_descents([0], [0], [0], _widths([0])) == 1
    assert _reference.permutations_avoiding([0], [0]) == [(0,)]


def test_reference_matches_naive_oracle():
    for p in populations.up_to(4):
        width = _widths(p.rows[0])
        assert _reference.min_descents(*p.rows, p.rows[0], width) == oracles.naive_min_descents(p)
        assert _reference.permutations_avoiding(*p.rows) == sorted(oracles.naive_avoiders(p))


def _assert_min_descents_match(pattern, lt):
    lt_rows = oracles.bit_rows(lt)[0]
    got = kernels.min_descents(*oracles.bit_rows(pattern), lt_rows, _widths(lt_rows))
    assert got == oracles.scan_min_descents(_bytes(pattern), _bytes(lt), len(lt))


def _assert_poset_min_descents_match(p):
    for pattern in (p.lt, oracles.extension_matrix(p, derived_extension(p))):
        _assert_min_descents_match(pattern, p.lt)


def test_min_descents_is_one_kernel():
    assert kernels.min_descents is _reference.min_descents
    assert kernels.permutations_avoiding is _reference.permutations_avoiding
    assert kernels.BACKEND == "pure"


def test_min_descents_rejects_size_mismatch():
    with pytest.raises(ValueError):
        kernels.min_descents([0], [0], [0, 0], _widths([0, 0]))
    with pytest.raises(ValueError):
        kernels.min_descents([0, 0], [0], [0, 0], _widths([0, 0]))


def test_min_descents_matches_scan_oracle_exhaustive():
    for p in populations.up_to():
        _assert_poset_min_descents_match(p)


def test_min_descents_matches_scan_oracle_random_n8():
    for p in populations.random_n8(200):
        _assert_poset_min_descents_match(p)


def test_min_descents_matches_scan_oracle_large():
    # the oracle takes about a second on antichain(9) and on each of these
    # random posets; the width bound settles them in microseconds
    _assert_poset_min_descents_match(antichain(9))
    for s in range(4):
        _assert_poset_min_descents_match(random_poset(10, density=0.15, seed=s))


def test_min_descents_matches_scan_oracle_on_arbitrary_relations():
    # neither matrix need be an order: the oracle's width memo closes lt
    # transitively, so the width bound holds
    rng = random.Random(20231)
    for _ in range(1500):
        n = rng.randint(1, 6)
        dp, dl = rng.random(), rng.random()
        pattern = _random_matrix(rng, n, dp)
        _assert_min_descents_match(pattern, _random_matrix(rng, n, dl))


def _assert_scans_match_recursion(p, deep=False):
    """Both scans of p, plain and relative to its derived extension, against
    the recursive scan and width memo, run deep when asked."""
    up, down = p.rows
    comparable = [u | v for u, v in zip(up, down)]
    patterns = [(up, down), _extension_rows(p, [p.idx(x) for x in derived_extension(p)])]
    widths = kernels.antichain_widths(comparable)
    got = [kernels.min_descents(*rows, up, widths) for rows in patterns]

    def want():
        return [oracles.min_descents_by_recursion(*rows, up, comparable) for rows in patterns]

    assert got == (oracles.run_deep(want) if deep else want())


@pytest.mark.parametrize("population", populations.STANDARD)
def test_min_descents_matches_recursive_scan(population):
    for p in populations.STANDARD[population]():
        _assert_scans_match_recursion(p)


def test_min_descents_matches_recursive_scan_deep():
    # the recursive scan and width memo are about 1,100 frames deep here
    _assert_scans_match_recursion(wrap_forest(1100, seed=0), deep=True)


def test_scans_need_no_recursion():
    # the scan and the width memo are loops: 5,000 elements deep, both scans
    # reach the width under the default recursion limit
    for p in (chain(5000), wrap_forest(5000, seed=0)):
        assert min_descents_over_avoiders(p, cap=None) == width(p)
        assert min_descents_over_extension_avoiders(p, derived_extension(p), cap=None) == width(p)


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
    for p in populations.up_to():
        _assert_avoiders_match(p.lt)
        _assert_avoiders_match(oracles.extension_matrix(p, derived_extension(p)))


def test_permutations_avoiding_matches_scan_oracle_families():
    cases = [antichain(7), chain(8), two_chain_fan(3), *populations.random_n8(6)]
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
