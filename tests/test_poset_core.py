"""Poset construction, validation, Mobius machinery, and enumeration."""

import itertools
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
from posetdecomp import textio
from posetdecomp.generate import (
    FAMILIES,
    antichain,
    boolean_lattice,
    chain,
    make_family,
    random_poset,
    two_chain_fan,
    wrap_forest,
)
from posetdecomp.poset import _bitrows, automorphisms, isomorphic
from posetdecomp.verify import Analysis

import oracles
import populations


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
    with pytest.raises(ValueError, match="^relation is not transitively closed$"):
        Poset("abc", lt)


def test_init_rejects_symmetric_pair():
    lt = np.zeros((2, 2), dtype=bool)
    lt[0, 1] = lt[1, 0] = True
    with pytest.raises(ValueError, match="^strict order cannot be symmetric on any pair$"):
        Poset("ab", lt)


def test_init_rejects_reflexive_matrix():
    lt = np.zeros((3, 3), dtype=bool)
    lt[0, 1] = lt[2, 2] = True
    with pytest.raises(ValueError, match="^strict order cannot be reflexive$"):
        Poset("abc", lt)


def test_init_rejects_antisymmetric_3_cycle():
    # a < b < c < a passes the reflexive and symmetric checks; the cover
    # walk must neither accept it nor loop on it
    lt = np.zeros((4, 4), dtype=bool)
    lt[0, 1] = lt[1, 2] = lt[2, 0] = True
    lt[3, :3] = True
    with pytest.raises(ValueError, match="^relation is not transitively closed$"):
        Poset("abcd", lt)


def _walk_agrees_with_product(lt, labels=None) -> bool:
    """The constructor accepts lt iff the dense check does, with the same covers."""
    try:
        p = Poset(labels or [f"e{i}" for i in range(len(lt))], lt)
    except ValueError as exc:
        return str(exc) == "relation is not transitively closed" and not oracles.transitive_by_product(lt)
    return oracles.transitive_by_product(lt) and p.covers() == oracles.covers_by_product(p)


def test_cover_walk_matches_product_oracles_on_near_orders():
    relations = list(oracles.near_orders(seed=16, count=2400))
    assert sum(map(oracles.transitive_by_product, relations)) > 500
    for lt in relations:
        assert _walk_agrees_with_product(lt), lt.astype(int)


def test_cover_walk_matches_product_oracles_on_large_orders():
    n = 1000
    reverse = list(range(n))[::-1]
    shuffled = list(range(n))
    random.Random(3).shuffle(shuffled)
    for p in (chain(n), wrap_forest(n), antichain(n)):
        for order in (range(n), reverse, shuffled):
            q = p.induced([p.labels[i] for i in order])
            assert _walk_agrees_with_product(q.lt, q.labels)
    gapped = chain(n).lt.copy()
    gapped[0, n - 1] = False
    gapped = gapped[np.ix_(reverse, reverse)]
    assert not oracles.transitive_by_product(gapped)
    assert _walk_agrees_with_product(gapped)


def test_matrix_is_read_only():
    loaded = textio.loads("elements: a b c\na < b\nb < c\n")
    for p in (chain(3), loaded, populations.of_size(3)[-1], Poset("ab", [[0, 1], [0, 0]])):
        with pytest.raises(ValueError):
            p.lt[0, 1] = False


def _assert_rows_first(p, want):
    """p's lazily built matrix is the oracle's matrix, which the validating
    constructor accepts, and p's stored rows are the rows of that matrix."""
    Poset(p.labels, want)
    assert np.array_equal(p.lt, want)
    assert p.rows == _bitrows(p.lt)


def test_generated_rows_match_matrix_oracles(monkeypatch):
    # chains, antichains and boolean lattices against their matrices; the
    # pairs wrap_forest loads are captured, then loaded again through a
    # dense matrix; random_poset's matrix is the squaring closure of its draw
    for n in range(9):
        _assert_rows_first(chain(n), np.triu(np.ones((n, n), dtype=bool), 1))
        _assert_rows_first(antichain(n), np.zeros((n, n), dtype=bool))
    for k in range(6):
        m = np.arange(1 << k)[:, None]
        _assert_rows_first(boolean_lattice(k), (m & m.T == m) & (m != m.T))
    loads = []
    real = Poset.from_cover_relations.__func__

    def spy(cls, labels, covers):
        loads.append((labels, list(covers)))
        return real(cls, labels, loads[-1][1])

    monkeypatch.setattr(Poset, "from_cover_relations", classmethod(spy))
    for seed in range(20):
        for n in range(8, 41):
            want = oracles.random_order_matrix(n, 0.3, seed)
            _assert_rows_first(random_poset(n, 0.3, seed), want)
        for n in range(20, 61):
            p = wrap_forest(n, seed)
            _assert_rows_first(p, oracles.closure_of_pairs(*loads.pop()))


def test_no_matrix_until_lt_is_read():
    posets = [textio.loads(textio.dumps(wrap_forest(60, seed=s))) for s in range(3)]
    posets += populations.of_size(4)
    posets += [make_family(name, n, seed=1) for name in FAMILIES for n in (1, 5)]
    for p in posets:
        assert "lt" not in p.__dict__
        Analysis(p).graph
        assert "lt" not in p.__dict__
    posets[0].lt
    assert "lt" in posets[0].__dict__


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
    rel = np.zeros((n, n), dtype=bool)
    rel[np.arange(n), (np.arange(n) + 1) % n] = True
    assert cycle == [labels[i] for i in oracles.find_cycle(rel)]


def _random_relation(rng, n, density):
    return np.array(
        [[rng.random() < density for _ in range(n)] for _ in range(n)], dtype=bool
    ).reshape(n, n)


def _relation_pairs(rel, labels):
    return [(labels[i], labels[j]) for i, j in zip(*np.nonzero(rel))]


def test_load_closure_matches_squaring_oracle():
    # acyclic relations: a random upper triangle, relabeled by a random
    # permutation so that the search meets its nodes out of index order
    rng = random.Random(12)
    for trial in range(200):
        n = rng.randint(0, 60)
        density = (0.02, 0.05, 0.1, 0.3, 0.6)[trial % 5]
        perm = list(range(n))
        rng.shuffle(perm)
        rel = np.triu(_random_relation(rng, n, density), 1)[np.ix_(perm, perm)]
        labels = [f"e{i}" for i in range(n)]
        p = Poset.from_cover_relations(labels, _relation_pairs(rel, labels))
        assert np.array_equal(p.lt, oracles.closure_by_squaring(rel))


def test_cycle_witness_matches_oracle():
    rng = random.Random(13)
    for trial in range(200):
        n = rng.randint(1, 60)
        rel = _random_relation(rng, n, (0.01, 0.03, 0.1, 0.3)[trial % 4])
        ring = rng.sample(range(n), rng.randint(1, min(n, 6)))
        for x, y in zip(ring, ring[1:] + ring[:1]):
            rel[x, y] = True  # at least one cycle, a loop when the ring has one node
        labels = [f"e{i}" for i in range(n)]
        want = oracles.find_cycle(rel)
        assert want is not None
        with pytest.raises(CycleError) as exc:
            Poset.from_cover_relations(labels, _relation_pairs(rel, labels))
        assert exc.value.cycle == [labels[i] for i in want]


def test_from_cover_relations_of_scrambled_2000_chain():
    n = 2000
    rng = random.Random(14)
    path = [f"x{i}" for i in range(n)]
    rng.shuffle(path)
    covers = list(zip(path, path[1:]))
    rng.shuffle(covers)
    labels = sorted(path)
    p = Poset.from_cover_relations(labels, covers)
    pos = np.empty(n, dtype=int)
    pos[[p.idx(x) for x in path]] = np.arange(n)
    assert np.array_equal(p.lt, pos[:, None] < pos[None, :])
    _assert_rows_first(p, oracles.closure_of_pairs(labels, covers))


def test_from_cover_relations_of_zero_and_one_element():
    empty = Poset.from_cover_relations([], [])
    assert empty.n == 0 and empty.lt.shape == (0, 0)
    single = Poset.from_cover_relations(["a"], [])
    assert single.n == 1 and not single.lt.any()
    assert empty == Poset([], np.zeros((0, 0), dtype=bool))
    assert single == Poset(["a"], np.zeros((1, 1), dtype=bool))
    with pytest.raises(CycleError) as exc:
        Poset.from_cover_relations(["a"], [("a", "a")])
    assert exc.value.cycle == ["a"]


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
    for p in populations.up_to(4):
        assert signed_chain_count_matrix(p) == mobius_matrix(p)


def test_signed_counts_match_dfs_oracle():
    for p in populations.of_size(4):
        for x in range(p.n):
            for y in range(p.n):
                if x == y or p.lt[x, y]:
                    got = signed_chain_count(p, p.labels[x], p.labels[y])
                    assert got == oracles.signed_chain_count_oracle(p, x, y)


def test_single_entries_match_the_matrices_small():
    for p in populations.up_to():
        counts, mu = signed_chain_count_matrix(p), mobius_matrix(p)
        for (x, a), (y, b) in itertools.product(enumerate(p.labels), repeat=2):
            assert signed_chain_count(p, a, b) == counts[x][y]
            assert mobius(p, a, b) == mu[x][y]


def test_linear_extensions_chain_and_antichain():
    assert count_linear_extensions(chain(4)) == 1
    assert count_linear_extensions(antichain(4)) == 24
    exts = list(linear_extensions(diamond()))
    assert len(exts) == 2
    for e in exts:
        assert is_linear_extension(diamond(), e)



def test_linear_extensions_match_filter_oracle():
    cases = populations.up_to(4)
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


def test_is_linear_extension_matches_filter_oracle():
    # shuffled orders, some with a repeat, some one short and some one long
    rng = random.Random(14)
    for s in range(60):
        p = random_poset(rng.randint(1, 7), density=rng.random(), seed=s)
        exts = set(oracles.linear_extensions_by_filter(p))
        for _ in range(10):
            e = list(p.labels)
            rng.shuffle(e)
            if rng.random() < 0.2:
                e[rng.randrange(p.n)] = e[0]
            if rng.random() < 0.2:
                e.pop()
            if rng.random() < 0.2:
                e.append(rng.choice(p.labels))
            assert is_linear_extension(p, e) == (tuple(map(p.labels.index, e)) in exts)


def test_automorphisms_diamond_and_chain():
    assert len(automorphisms(diamond())) == 2
    assert len(automorphisms(chain(6))) == 1
    assert len(automorphisms(antichain(4))) == 24


def test_isomorphic_relabeled():
    p = Poset.from_cover_relations("abcd", [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])
    assert isomorphic(p, diamond())
    assert not isomorphic(p, chain(4))


def test_enumerate_posets_counts():
    # labeled poset counts for n = 0..6
    got = [sum(1 for _ in enumerate_posets(n, cap=6)) for n in range(7)]
    assert got == [1, 1, 3, 19, 219, 4231, 130_023]


def test_enumerate_posets_is_the_product_oracle_sequence():
    for n in range(6):
        got = [p.rows[0] for p in enumerate_posets(n)]
        assert got == list(oracles.poset_rows_by_product(n))


def test_enumerate_six_posets_in_product_order():
    # Every yielded order passes the validating constructor with the same
    # rows, and its product key (per pair in combinations order: 0, 1 for
    # i < j, 2 for j < i) strictly increases.  With the count of 130,023
    # labeled orders, that makes the sequence the product oracle's, without
    # running its 3^15 candidates.
    pairs = list(itertools.combinations(range(6), 2))
    keys = []
    for p in enumerate_posets(6, cap=6):
        assert Poset(p.labels, p.lt).rows == p.rows
        up = p.rows[0]
        keys.append(tuple(1 if up[i] >> j & 1 else 2 if up[j] >> i & 1 else 0 for i, j in pairs))
    assert len(keys) == 130_023
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_posets_matches_relation_filter_oracle():
    for n in range(4):
        assert sum(1 for _ in enumerate_posets(n)) == oracles.all_relations_poset_count(n)


def test_enumerate_posets_refuses_a_negative_size():
    # the recursion on n stops only at n == 0
    with pytest.raises(ValueError, match="got -1"):
        enumerate_posets(-1)


@pytest.mark.parametrize(
    "family", [chain, antichain, boolean_lattice, two_chain_fan, random_poset, wrap_forest]
)
def test_generators_refuse_a_negative_size(family):
    # a negative size must not pass for the empty poset
    with pytest.raises(ValueError, match="must be >= 0 \\(got -3\\)"):
        family(-3)
    assert family(0).n == (1 if family in (boolean_lattice, two_chain_fan) else 0)


@pytest.mark.parametrize("density", [-0.1, 1.5, float("nan"), float("inf")])
def test_random_poset_refuses_a_density_outside_the_unit_interval(density):
    # a density above 1 drew a chain and nan an antichain, as if they were 1 and 0
    with pytest.raises(ValueError, match="density must be in \\[0, 1\\]"):
        random_poset(5, density=density)


def test_random_poset_density_ends_give_an_antichain_and_a_chain():
    assert random_poset(6, density=0).covers() == []
    assert len(random_poset(6, density=1).covers()) == 5


def test_enumerated_posets_are_valid_and_distinct():
    seen = set()
    for p in enumerate_posets(3):
        key = p.lt.tobytes()
        assert key not in seen
        seen.add(key)


def test_cached_rows_match_masks():
    for n in range(6):
        for p, up in zip(enumerate_posets(n), oracles.poset_rows_by_product(n), strict=True):
            _assert_rows_first(p, oracles.matrix_of_rows(up))
            assert p.rows == oracles.bit_rows(p.lt)
    for p in populations.wrapforest_n20(10):
        assert p.rows == oracles.bit_rows(p.lt)
        assert p.rows is p.rows
