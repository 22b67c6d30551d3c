"""Homogeneous decompositions, the chain graph, the automorphism embedding."""

import math
import random
from dataclasses import asdict

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
from posetdecomp.chains import (
    ChainDecomposition,
    _as_decomposition,
    _partition_walk,
    enumerate_chain_decompositions,
)
from posetdecomp.hcd import (
    HOM_WORDS,
    _comparable_pairs,
    _dense,
    _embedding,
    _products,
    _unoriented_order,
)
from posetdecomp.errors import ScatteringError
from posetdecomp.poset import automorphism_group, automorphisms
from posetdecomp.verify import _merge_table

import oracles
import populations


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
    # the twin-row certificate against the chain-pair walk it replaced: the
    # same rows when homogeneous, else the same first mixed pair
    out, into, first = _comparable_pairs(p, d)
    walk = oracles.comparable_pairs_by_walk(p, d)
    assert first == walk[2]
    if first is None:
        assert (out, into) == walk[:2]
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
    seen = mixed = 0
    for p in populations.up_to():
        for d in enumerate_chain_decompositions(p):
            _comparability_agrees(p, d)
            seen += 1
            mixed += not is_homogeneous(p, d)
    assert (seen, mixed) == (69714, 50644)


def test_comparable_pairs_match_walk_oracle_at_scale():
    # MHCDs on both sides of the size rule: two dense graphs and a sparse one
    # of 4,873 chains
    sides = []
    for p in (random_poset(300, 0.3), random_poset(120, 0.6), wrap_forest(16000)):
        d = mhcd(p)
        out, into, mixed = _comparable_pairs(p, d)
        assert (out, into, mixed) == oracles.comparable_pairs_by_walk(p, d)
        sides.append(_dense(sum(row.bit_count() for row in out), d.k, p.n))
    assert sides == [True, True, False]


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
    for p in populations.up_to():
        d = mhcd(p)
        minima = oracles.brute_minimal_homogeneous(p)
        assert len(minima) == 1
        assert frozenset(d.chains) == minima[0]


def test_mhcd_confluent_under_shuffles():
    for p in populations.up_to():
        base = frozenset(mhcd(p).chains)
        for s in range(5):
            assert oracles.merge_fixpoint(p, shuffle_seed=s) == base


def test_twin_classes_equal_merge_oracle_on_seeded_families():
    families = (
        [random_poset(9, seed=s) for s in range(200)],
        populations.wrapforest_n20(),
        [random_poset(14, density=0.15, seed=s) for s in range(200)],
    )
    for posets in families:
        for s, p in enumerate(posets):
            assert frozenset(mhcd(p).chains) == oracles.merge_fixpoint(p), s


def test_merge_sequences_match_rescan_oracle():
    posets = populations.up_to()
    posets += [random_poset(9, 0.3, seed=s) for s in range(60)]
    posets += [random_poset(14, 0.15, seed=s) for s in range(50)]
    # twin classes of up to 9 elements, interleaved, next to many pairs that
    # differ off the pair and so never become merges
    posets += [random_poset(12, 0.6, seed=s) for s in range(20)]
    posets += populations.wrapforest_n20(40)
    posets += [wrap_forest(40, seed=s) for s in range(10)]
    for p in posets:
        table = _merge_table(p)
        for s in [None, *range(8)]:
            assert oracles.replay_ready_pairs(table, s) == oracles.merge_sequence_by_rescan(p, s)


def test_seeded_replays_take_as_many_orders_as_before():
    # the replays of seeds 0..7 differ from each other on as many posets as
    # under random.Random(seed), so the stream shuffles the merges as widely
    for name, expected in (("n<=5", 1506), ("random-n8", 152), ("wrapforest-n20", 200)):
        differ = 0
        for p in populations.STANDARD[name]():
            table = _merge_table(p)
            differ += len({tuple(oracles.replay_ready_pairs(table, s)) for s in range(8)}) > 1
        assert differ == expected


def test_min_homogeneous_values():
    assert min_homogeneous(antichain(7)) == 7
    assert min_homogeneous(chain(7)) == 1


def test_chain_graph_edges_theta():
    p = theta()
    g = chain_graph(p)
    # the long chain is comparable to both two-element chains; those two are not
    assert sorted(g.edges()) == [(0, 1), (0, 2)]


def test_orientation_is_acyclic_and_by_minima():
    for p in populations.up_to():
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


@pytest.mark.parametrize("p", [random_poset(120, 0.6), wrap_forest(200)], ids=["dense", "wrapforest"])
def test_to_dot_edge_lines_match_oracle(p):
    # both graphs' edge lines, one per oracle edge in row-major order, on
    # either side of the size rule that lists them
    for g in (chain_graph(p), acyclic_orientation(p)):
        chains = g.decomposition.chains
        comp, _ = oracles.chain_comparability(p, chains)
        mat = oracles.orientation_by_minima(p, chains, comp) if g.directed else np.triu(comp, 1)
        arrow = "->" if g.directed else "--"
        lines = g.to_dot("g").split("\n")
        assert lines[-2:] == ["}", ""]
        edges = lines[1 + g.k:-2]
        assert edges and edges == [f"  c{i} {arrow} c{j};" for i, j in np.argwhere(mat).tolist()]
        assert _dense(len(edges), g.k, p.n) == (p.n == 120)


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
    for p in populations.up_to(4):
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


def test_products_match_oracle_words():
    # every product the homomorphism test maps, words included, against the
    # oracle's own draws, on every poset with n <= 5 and seeded wrap forests
    posets = populations.up_to() + populations.wrapforest_n20(40)
    for seed, p in enumerate(posets):
        d = mhcd(p)
        gens = [(g, induced_chain_permutation(p, d, g)) for g in automorphism_group(p.rows).generators]
        products = [(tuple(g), tuple(sigma)) for g, sigma in _products(p.n, d.k, gens, seed)]
        assert products == oracles.word_products(p.n, d.k, gens, seed)


def test_embedding_injective_fails_on_non_chain_block():
    # every chain decomposition has a trivial kernel; a block of two
    # incomparable elements lets the swap map it to itself
    p = antichain(2)
    rep = _embedding(p, acyclic_orientation(p, ChainDecomposition(p, ((0, 1),))), 0)
    assert rep.well_defined and rep.homomorphism
    assert not rep.injective and rep.witness == {"kernel_order": 2}


def split_two_chains():
    """Two disjoint 2-chains a < b and c < d, decomposed as {a < b}, {c}, {d}:
    homogeneous, and the swap of the two chains scatters {a < b}."""
    p = Poset.from_cover_relations("abcd", [("a", "b"), ("c", "d")])
    return p, acyclic_orientation(p, ChainDecomposition.from_parts(p, [["a", "b"], ["c"], ["d"]]))


def _homogeneous_graphs():
    """The oriented chain graph of every homogeneous chain decomposition of
    every poset with n <= 4, the MHCD's and every finer or other one: these
    reach the scattering, length and graph witnesses."""
    for p in populations.up_to(4):
        for masks, homogeneous in _partition_walk(p, None):
            if homogeneous:
                yield p, acyclic_orientation(p, ChainDecomposition._from_masks(p, masks))


EMBEDDING_CASES = {
    "n<=5": lambda: ((p, acyclic_orientation(p)) for p in populations.up_to()),
    "random8": lambda: ((p, acyclic_orientation(p)) for p in populations.random_n8()),
    "wrapforest20": lambda: ((p, acyclic_orientation(p)) for p in populations.wrapforest_n20()),
    "homogeneous-n<=4": _homogeneous_graphs,
    "non-chain-block": lambda: [
        (antichain(2), acyclic_orientation(antichain(2), ChainDecomposition(antichain(2), ((0, 1),)))),
        split_two_chains(),
    ],
}


@pytest.mark.parametrize("family", EMBEDDING_CASES)
def test_embedding_matches_label_map_oracle(family):
    # every field and every witness of the battery's path, with the
    # unoriented order filled in as verify_embedding does, against the check
    # with all four searches and a set per chain for every product
    for seed, (p, graph) in enumerate(EMBEDDING_CASES[family]()):
        rep = _embedding(p, graph, seed)
        assert rep.aut_unoriented_order is None
        rep.aut_unoriented_order = _unoriented_order(graph)
        assert asdict(rep) == asdict(oracles.embedding_by_label_maps(p, graph, seed))


def test_embedding_reports_the_scattered_chain():
    p, graph = split_two_chains()
    rep = _embedding(p, graph, 0)
    assert not rep.well_defined
    assert rep.witness == {
        "automorphism": (2, 3, 0, 1),
        "error": "chain ('a', 'b') is scattered over chains [1, 2]",
    }


def _induced_outcome(induced, p, d, g):
    try:
        return induced(p, d, g)
    except (ScatteringError, ValueError) as exc:
        return type(exc), str(exc)


def test_induced_map_matches_chain_set_oracle():
    # images, scatterings, non-bijections and non-permutations, with their
    # messages, on every chain decomposition of every poset with n <= 4 and
    # seeded element maps that need not be automorphisms
    rng = random.Random(31)
    for p in populations.up_to(4):
        maps = [tuple(rng.sample(range(p.n), p.n)) for _ in range(6)]
        maps += [tuple(rng.randrange(p.n) for _ in range(p.n)), tuple(range(p.n - 1))]
        for d in enumerate_chain_decompositions(p):
            for g in maps:
                assert _induced_outcome(induced_chain_permutation, p, d, g) == _induced_outcome(
                    oracles.induced_by_chain_sets, p, d, g
                )


def test_deletion_bounds_exhaustive():
    for p in populations.up_to()[1:]:
        assert deletion_bounds(p).ok


def test_deletion_counts_match_sub_poset_mhcd():
    # the twin classes of the comparability matrix without z, against the
    # MHCD of the validated sub-poset
    posets = populations.up_to()[1:] + populations.wrapforest_n20(10)
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
