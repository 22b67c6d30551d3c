"""Poset construction, validation, Mobius machinery, and enumeration."""

import random

import numpy as np
import pytest

from posetdecomp import (
    CycleError,
    Poset,
    UnknownElementError,
    count_linear_extensions,
    enumerate_posets,
    is_linear_extension,
    linear_extensions,
    mobius,
    mobius_matrix,
    signed_chain_count,
    signed_chain_count_matrix,
    transitive_closure,
)
from posetdecomp._reference import _masks
from posetdecomp.generate import antichain, boolean_lattice, chain, random_poset, wrap_forest
from posetdecomp.poset import automorphisms, isomorphic

import oracles


def diamond():
    return boolean_lattice(2)


def test_from_cover_relations_closure():
    p = Poset.from_cover_relations("abc", [("a", "b"), ("b", "c")])
    assert p.less("a", "c")
    assert p.less("a", "b") and p.less("b", "c")
    assert not p.less("c", "a")


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        Poset.from_cover_relations(["a", "a"], [])


def test_unknown_element_rejected():
    with pytest.raises(UnknownElementError):
        Poset.from_cover_relations("ab", [("a", "z")])


def test_cycle_rejected_with_witness():
    with pytest.raises(CycleError) as exc:
        Poset.from_cover_relations("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert exc.value.cycle


def test_init_rejects_intransitive_matrix():
    lt = np.zeros((3, 3), dtype=bool)
    lt[0, 1] = lt[1, 2] = True
    with pytest.raises(ValueError):
        Poset("abc", lt)


def test_init_rejects_symmetric_pair():
    lt = np.zeros((2, 2), dtype=bool)
    lt[0, 1] = lt[1, 0] = True
    with pytest.raises(ValueError):
        Poset("ab", lt)


def test_matrix_is_read_only():
    p = chain(3)
    with pytest.raises(ValueError):
        p.lt[0, 1] = False


def test_transitive_closure_long_path():
    # repeated squaring must reach the far end of a 12-step path
    n = 13
    rel = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        rel[i, i + 1] = True
    closed = transitive_closure(rel)
    assert closed[0, n - 1]
    assert closed.sum() == n * (n - 1) // 2


def test_transitive_closure_matches_squaring_oracle():
    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(0, 60)
        density = rng.choice((0.02, 0.05, 0.1, 0.3))
        rel = np.array(
            [[rng.random() < density for _ in range(n)] for _ in range(n)], dtype=bool
        ).reshape(n, n)
        if trial % 2:
            rel = np.triu(rel, 1)  # acyclic half of the trials
        assert np.array_equal(transitive_closure(rel), oracles.closure_by_squaring(rel))


def test_transitive_closure_of_scrambled_1000_chain():
    # the int64 squaring oracle needs about 20 s at n = 1000, so the expected
    # closure comes from the path itself: i < j iff i comes first on the path
    n = 1000
    path = list(range(n))
    random.Random(9).shuffle(path)
    rel = np.zeros((n, n), dtype=bool)
    for x, y in zip(path, path[1:]):
        rel[x, y] = True
    pos = np.empty(n, dtype=int)
    pos[path] = np.arange(n)
    assert np.array_equal(transitive_closure(rel), pos[:, None] < pos[None, :])


def test_from_cover_relations_on_2000_chain():
    n = 2000
    labels = [str(i) for i in range(n)]
    p = Poset.from_cover_relations(labels, list(zip(labels, labels[1:])))
    assert p.less("0", str(n - 1))
    assert int(p.lt.sum()) == n * (n - 1) // 2
    assert len(p.covers()) == n - 1


def test_2000_cycle_witness_is_a_directed_cycle():
    n = 2000
    labels = [str(i) for i in range(n)]
    covers = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    with pytest.raises(CycleError) as exc:
        Poset.from_cover_relations(labels, covers)
    cycle = exc.value.cycle
    assert len(set(cycle)) == len(cycle) == n
    related = set(covers)
    assert all((x, y) in related for x, y in zip(cycle, cycle[1:] + cycle[:1]))


def test_covers_of_diamond():
    assert sorted(diamond().covers()) == [
        ("{1}", "{1,2}"),
        ("{2}", "{1,2}"),
        ("{}", "{1}"),
        ("{}", "{2}"),
    ]


def test_induced_and_without():
    p = diamond()
    q = p.without("{1}")
    assert q.n == 3
    assert q.less("{}", "{1,2}")
    r = p.induced(["{2}", "{}"])
    assert r.less("{}", "{2}")


def test_minimal_maximal():
    p = diamond()
    assert p.minimal_elements() == ["{}"]
    assert p.maximal_elements() == ["{1,2}"]


def test_mobius_diamond():
    p = diamond()
    assert mobius(p, "{}", "{}") == 1
    assert mobius(p, "{}", "{1}") == -1
    assert mobius(p, "{}", "{1,2}") == 1
    assert mobius(p, "{1}", "{2}") == 0


def test_mobius_chain_vanishes_beyond_covers():
    p = chain(5)
    m = mobius_matrix(p)
    for i in range(5):
        for j in range(5):
            if j == i:
                assert m[i][j] == 1
            elif j == i + 1:
                assert m[i][j] == -1
            else:
                assert m[i][j] == 0


def test_signed_counts_match_mobius_small():
    for n in range(5):
        for p in enumerate_posets(n):
            assert signed_chain_count_matrix(p) == mobius_matrix(p)


def test_signed_counts_match_dfs_oracle():
    for p in enumerate_posets(4):
        for x in range(p.n):
            for y in range(p.n):
                if x == y or p.lt[x, y]:
                    got = signed_chain_count(p, p.labels[x], p.labels[y])
                    assert got == oracles.signed_chain_count_oracle(p, x, y)


def test_linear_extensions_chain_and_antichain():
    assert count_linear_extensions(chain(4)) == 1
    assert count_linear_extensions(antichain(4)) == 24
    exts = list(linear_extensions(diamond()))
    assert len(exts) == 2
    for e in exts:
        assert is_linear_extension(diamond(), e)



def test_linear_extensions_match_filter_oracle():
    cases = [p for n in range(5) for p in enumerate_posets(n)]
    cases += [random_poset(7, density=0.3, seed=s) for s in range(5)]
    for p in cases:
        want = [tuple(p.labels[i] for i in perm) for perm in oracles.linear_extensions_by_filter(p)]
        assert list(linear_extensions(p)) == want


def test_linear_extensions_of_long_chain():
    p = chain(1500)
    assert list(linear_extensions(p, cap=None)) == [p.labels]

def test_is_linear_extension_rejects_swap():
    p = chain(3)
    assert not is_linear_extension(p, ("2", "1", "3"))


def test_automorphisms_diamond_and_chain():
    assert len(automorphisms(diamond())) == 2
    assert len(automorphisms(chain(6))) == 1
    assert len(automorphisms(antichain(4))) == 24


def test_isomorphic_relabeled():
    p = Poset.from_cover_relations("abcd", [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])
    assert isomorphic(p, diamond())
    assert not isomorphic(p, chain(4))


def test_enumerate_posets_counts():
    # labeled poset counts for n = 0..4
    got = [sum(1 for _ in enumerate_posets(n, cap=4)) for n in range(5)]
    assert got == [1, 1, 3, 19, 219]


def test_enumerate_posets_matches_relation_filter_oracle():
    for n in range(4):
        assert sum(1 for _ in enumerate_posets(n)) == oracles.all_relations_poset_count(n)


def test_enumerated_posets_are_valid_and_distinct():
    seen = set()
    for p in enumerate_posets(3):
        key = p.lt_bytes
        assert key not in seen
        seen.add(key)


def test_cached_rows_match_masks():
    posets = [p for n in range(6) for p in enumerate_posets(n)]
    posets += [wrap_forest(20, seed=s) for s in range(10)]
    for p in posets:
        assert p.rows == _masks(p.lt_bytes, p.n)
        assert p.rows is p.rows
