"""Homogeneous decompositions, the chain graph, the automorphism embedding."""

import math

import numpy as np
import pytest

from posetdecomp import (
    NotHomogeneousError,
    Poset,
    acyclic_orientation,
    chain_comparability,
    chain_graph,
    deletion_bounds,
    graph_automorphisms,
    induced_chain_permutation,
    is_homogeneous,
    merge_fixpoint,
    mhcd,
    min_homogeneous,
    minimum_chain_decomposition,
    preserves_length_classes,
    verify_embedding,
)
from posetdecomp.generate import (
    antichain,
    boolean_lattice,
    chain,
    random_poset,
    two_chain_fan,
    wrap_forest,
)
from posetdecomp.chains import ChainDecomposition, enumerate_chain_decompositions
from posetdecomp.hcd import HOM_WORDS, _as_decomposition, _embedding, _merge_table, _replay
from posetdecomp.poset import automorphism_group, automorphisms, enumerate_posets

import oracles


def theta():
    return Poset.from_cover_relations(
        ["u1", "w1", "w2", "u2", "x1", "x2"],
        [("u1", "w1"), ("w1", "w2"), ("w2", "u2"), ("u1", "x1"), ("x1", "x2"), ("x2", "u2")],
    )


def test_homogeneity_predicate():
    p = theta()
    hom = [["u1", "u2"], ["w1", "w2"], ["x1", "x2"]]
    assert is_homogeneous(p, hom)
    # the dilworth minimum of theta mixes chain pairs
    d = minimum_chain_decomposition(p)
    assert d.k == 2
    assert not is_homogeneous(p, d)


def test_chain_comparability_raises_on_mixed_pair():
    p = theta()
    d = minimum_chain_decomposition(p)
    with pytest.raises(NotHomogeneousError):
        chain_comparability(p, d)


def _comparability_agrees(p, d):
    expected, mixed = oracles.chain_comparability(p, d.chains)
    if mixed is None:
        assert np.array_equal(chain_comparability(p, d), expected)
        return
    names = d.chains_as_labels()
    message = f"chains {names[mixed[0]]} and {names[mixed[1]]} mix"
    with pytest.raises(NotHomogeneousError) as exc:
        chain_comparability(p, d)
    assert str(exc.value).startswith(message)


def test_chain_comparability_matches_loop_oracle_exhaustive():
    # every chain decomposition of every poset with n <= 5, homogeneous or not
    mixed = 0
    for n in range(6):
        for p in enumerate_posets(n):
            for d in enumerate_chain_decompositions(p):
                _comparability_agrees(p, d)
                mixed += not is_homogeneous(p, d)
    assert mixed > 1000


def test_chain_comparability_matches_loop_oracle_on_wrap_forests():
    for n in range(12, 31):
        for seed in range(10):
            p = wrap_forest(n, seed=seed)
            _comparability_agrees(p, mhcd(p))


def test_chain_comparability_matches_loop_oracle_on_sparse_posets():
    # the Dilworth decompositions of sparse orders give mixed pairs, which
    # must raise at the first pair i < j whatever order the chains are met in
    mixed = 0
    for seed in range(20):
        p = random_poset(40, density=0.03, seed=seed)
        for d in (mhcd(p), minimum_chain_decomposition(p)):
            _comparability_agrees(p, d)
            mixed += not is_homogeneous(p, d)
    assert mixed > 5
    p = antichain(300)
    _comparability_agrees(p, mhcd(p))


def test_mhcd_known_cases():
    assert mhcd(chain(5)).k == 1
    assert mhcd(antichain(5)).k == 5
    assert mhcd(boolean_lattice(2)).k == 3
    assert mhcd(theta()).k == 3
    assert mhcd(two_chain_fan(2)).k == 5


def test_mhcd_matches_enumeration_oracle():
    for n in range(6):
        for p in enumerate_posets(n, cap=5):
            d = mhcd(p)
            minima = oracles.brute_minimal_homogeneous(p)
            assert len(minima) == 1
            assert frozenset(d.chains) == minima[0]


def test_mhcd_confluent_under_shuffles():
    for n in range(6):
        for p in enumerate_posets(n, cap=5):
            base = frozenset(mhcd(p).chains)
            for s in range(5):
                assert oracles.merge_fixpoint(p, shuffle_seed=s) == base


def test_twin_classes_equal_merge_oracle_on_seeded_families():
    families = (
        lambda s: random_poset(9, seed=s),
        lambda s: wrap_forest(20, seed=s),
        lambda s: random_poset(14, density=0.15, seed=s),
    )
    for make in families:
        for s in range(200):
            p = make(s)
            assert frozenset(mhcd(p).chains) == oracles.merge_fixpoint(p), s


def test_library_merge_fixpoint_equals_twin_classes():
    for p in [theta(), two_chain_fan(3), boolean_lattice(3), wrap_forest(12, seed=4)]:
        d = mhcd(p)
        assert merge_fixpoint(p) == d
        for s in range(5):
            assert merge_fixpoint(p, shuffle_seed=s) == d


def test_library_merge_fixpoint_matches_oracle():
    posets = [p for n in range(6) for p in enumerate_posets(n)]
    posets += [random_poset(9, 0.3, seed=s) for s in range(60)]
    posets += [wrap_forest(20, seed=s) for s in range(40)]
    for p in posets:
        for s in [None, *range(8)]:
            assert frozenset(merge_fixpoint(p, s).chains) == oracles.merge_fixpoint(p, s)


def test_merge_sequences_match_rescan_oracle():
    posets = [p for n in range(6) for p in enumerate_posets(n)]
    posets += [random_poset(9, 0.3, seed=s) for s in range(60)]
    posets += [random_poset(14, 0.15, seed=s) for s in range(50)]
    posets += [wrap_forest(20, seed=s) for s in range(40)]
    posets += [wrap_forest(40, seed=s) for s in range(10)]
    for p in posets:
        table = _merge_table(p)
        for s in [None, *range(8)]:
            assert _replay(p.n, *table, s) == oracles.merge_sequence_by_rescan(p, s)


def test_min_homogeneous_values():
    assert min_homogeneous(antichain(7)) == 7
    assert min_homogeneous(chain(7)) == 1


def test_chain_graph_edges_theta():
    p = theta()
    g = chain_graph(p)
    # the long chain is comparable to both two-element chains; those two are not
    assert sorted(g.edges()) == [(0, 1), (0, 2)]


def test_orientation_is_acyclic_and_by_minima():
    for n in range(6):
        for p in enumerate_posets(n, cap=5):
            g = acyclic_orientation(p)
            mat = oracles.matrix_of_rows(g.rows[0])
            # no two-cycles, and every oriented edge starts at the smaller minimum
            assert not (mat & mat.T).any()
            d = g.decomposition
            for i, j in g.edges():
                assert p.lt[d.chains[i][0], d.chains[j][0]]


def test_to_dot_shapes():
    p = theta()
    und = chain_graph(p).to_dot("g")
    assert und.startswith("graph g {") and "--" in und
    ori = acyclic_orientation(p).to_dot("d")
    assert ori.startswith("digraph d {") and "->" in ori


def test_to_dot_escapes_quotes_and_backslashes():
    p = Poset.from_cover_relations(['say "hi"', "a\\b"], [('say "hi"', "a\\b")])
    dot = chain_graph(p).to_dot("g")
    assert 'c0 [label="<say \\"hi\\",a\\\\b>"];' in dot


def test_graph_automorphisms_square_cycle():
    # an undirected 4-cycle has the dihedral symmetry group of order 8
    mat = np.zeros((4, 4), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        mat[a, b] = mat[b, a] = True
    assert len(graph_automorphisms(mat)) == 8


def test_induced_chain_permutation_identity():
    p = theta()
    d = mhcd(p)
    ident = tuple(range(p.n))
    assert induced_chain_permutation(p, d, ident) == (0, 1, 2)
    swap = {"u1": "u1", "u2": "u2", "w1": "x1", "w2": "x2", "x1": "w1", "x2": "w2"}
    g = tuple(p.idx(swap[x]) for x in p.labels)
    assert induced_chain_permutation(p, d, g) == (0, 2, 1)


def test_preserves_length_classes():
    p = theta()
    d = mhcd(p)
    assert preserves_length_classes(d, (0, 2, 1))
    fan = mhcd(two_chain_fan(2))
    # chains of different lengths must not trade places
    lens = [len(c) for c in fan.chains]
    sigma = list(range(fan.k))
    a = lens.index(1)
    b = lens.index(2) if 2 in lens else a
    if lens[a] != lens[b]:
        sigma[a], sigma[b] = sigma[b], sigma[a]
        assert not preserves_length_classes(fan, tuple(sigma))


def test_embedding_exhaustive_small():
    for n in range(5):
        for p in enumerate_posets(n):
            rep = verify_embedding(p)
            assert rep.well_defined and rep.injective and rep.homomorphism


def test_embedding_anchor_orders():
    for n in (2, 3, 4, 5):
        rep = verify_embedding(antichain(n))
        assert rep.aut_poset_order == math.factorial(n)
        assert rep.injective
    rep = verify_embedding(chain(6))
    assert rep.aut_poset_order == 1


def test_embedding_random():
    for seed in range(25):
        p = random_poset(7, density=0.3, seed=seed)
        rep = verify_embedding(p, seed=seed)
        assert rep.ok


def test_embedding_hom_products_pairs_and_words():
    # the identity, every ordered pair of strong generators, then HOM_WORDS words
    p = antichain(4)
    gens = automorphism_group(p.rows).generators
    rep = verify_embedding(p, seed=3)
    assert rep.ok and rep.aut_poset_order == 24
    assert rep.hom_pairs_checked == 1 + len(gens) ** 2 + HOM_WORDS
    assert rep.findings == [{"kind": "embedding-onto", "onto": True}]
    # a rigid poset has no generators: the identity alone
    assert verify_embedding(chain(3)).hom_pairs_checked == 1


def test_embedding_injective_fails_on_non_chain_block():
    # every chain decomposition has a trivial kernel; a block of two
    # incomparable elements lets the swap map it to itself
    p = antichain(2)
    rep = _embedding(p, acyclic_orientation(p, ChainDecomposition(p, ((0, 1),))), 0)
    assert rep.well_defined and rep.homomorphism
    assert not rep.injective and rep.witness == {"kernel_order": 2}


def test_deletion_bounds_exhaustive():
    for n in range(1, 6):
        for p in enumerate_posets(n, cap=5):
            rep = deletion_bounds(p)
            assert rep.ok


def test_deletion_counts_match_sub_poset_mhcd():
    # the twin classes of the comparability matrix without z, against the
    # MHCD of the validated sub-poset
    posets = [p for n in range(1, 6) for p in enumerate_posets(n)]
    posets += [wrap_forest(20, seed=s) for s in range(10)]
    for p in posets:
        counts = [e["k_without"] for e in deletion_bounds(p).entries]
        assert counts == [mhcd(p.without(z)).k for z in p.labels]


def test_deletion_bounds_fan_sharpness():
    for k in range(1, 6):
        p = two_chain_fan(k)
        assert min_homogeneous(p) == 2 * k + 1
        assert min_homogeneous(p.without("z")) == k
        rep = deletion_bounds(p, "z")
        entry = rep.entries[0]
        assert entry["k_without"] == k
        assert rep.k == 2 * k + 1


def test_as_decomposition_accepts_labels():
    p = theta()
    d = _as_decomposition(p, [["u1", "u2"], ["w1", "w2"], ["x1", "x2"]])
    assert d.k == 3
