"""Noncrossing decompositions, 132 patterns, descents, trees, the bound chain."""

import itertools
import random
import sys

import numpy as np
import pytest

from posetdecomp import (
    CheckFailure,
    Poset,
    all_132_avoiding,
    ascending_runs_decomposition,
    attachment_tree,
    canonical_chain_order,
    chain_concatenation,
    count_noncrossing_decompositions,
    crossing_witness,
    derived_extension,
    descent_optimal_permutation,
    descent_profile,
    is_132_avoiding,
    is_132_avoiding_in_extension,
    is_linear_extension,
    is_noncrossing,
    mhcd,
    min_descents_over_avoiders,
    min_descents_over_extension_avoiders,
    minimum_noncrossing_decomposition,
    tree_to_text,
    TreeNode,
    verify_chain_bounds,
    wrap_order,
    wrap_relation,
)
from posetdecomp import hcd, kernels, nccd, verify
from posetdecomp.chains import ChainDecomposition, enumerate_chain_decompositions, width
from posetdecomp.generate import antichain, boolean_lattice, chain, random_poset, wrap_forest
from posetdecomp.poset import _bitrows, _extension_rows

import oracles
import populations


def diamond():
    return boolean_lattice(2)


def theta():
    return Poset.from_cover_relations(
        ["u1", "w1", "w2", "u2", "x1", "x2"],
        [("u1", "w1"), ("w1", "w2"), ("w2", "u2"), ("u1", "x1"), ("x1", "x2"), ("x2", "u2")],
    )


def nest(h: int) -> Poset:
    """A 2-chain, then h times a fresh 2-chain and an outer 2-chain wrapping
    it and the previous outer chain: n = 4h + 2, and the MHCD has 2h + 1
    chains whose wrap order nests h levels deep."""
    labels = ["x0", "y0"]
    covers = [("x0", "y0")]
    for t in range(1, h + 1):
        labels += [f"x{t}", f"c{t}", f"d{t}", f"y{t}"]
        covers += [(f"c{t}", f"d{t}"), (f"x{t}", f"c{t}"), (f"d{t}", f"y{t}"),
                   (f"x{t}", f"x{t - 1}"), (f"y{t - 1}", f"y{t}")]
    return Poset.from_cover_relations(labels, covers)


def oracle_family():
    """The posets on which the pipeline must match its recursive oracles."""
    yield from populations.up_to()
    yield from populations.random_n8()
    yield from populations.wrapforest_n20()
    yield from (wrap_forest(200, seed=s) for s in range(30))
    yield from (random_poset(12, 0.2, seed=s) for s in range(100))


# -- crossings ------------------------------------------------------------------


def test_crossing_witness_on_interleaved_chains():
    p = chain(4)
    parts = [["1", "3"], ["2", "4"]]
    w = crossing_witness(p, parts)
    assert w == ("1", "2", "3", "4")
    assert not is_noncrossing(p, parts)
    assert is_noncrossing(p, [["1", "2"], ["3", "4"]])


def test_crossing_witness_matches_scan_oracle():
    for p in populations.up_to():
        for d in enumerate_chain_decompositions(p):
            assert crossing_witness(p, d) == oracles.crossing_witness(p, d)
    for p in populations.random_n8(200):
        _, d = minimum_noncrossing_decomposition(p)
        assert crossing_witness(p, d) is None
        assert oracles.crossing_witness(p, d) is None


def test_noncrossing_matches_oracle():
    for p in populations.up_to(4):
        for part in oracles.chain_partitions(p):
            labels = [[p.labels[x] for x in block] for block in part]
            assert is_noncrossing(p, labels) == oracles.noncrossing_partition(p, part)


def test_minimum_noncrossing_matches_oracle():
    for p in populations.up_to():
        nc, witness = minimum_noncrossing_decomposition(p)
        assert nc == oracles.brute_min_noncrossing(p)
        assert is_noncrossing(p, witness)
        assert witness.k == nc


def test_count_noncrossing_matches_oracle():
    for p in populations.up_to(4):
        assert count_noncrossing_decompositions(p) == oracles.count_noncrossing(p)


def test_catalan_counts():
    for n in range(1, 8):
        assert count_noncrossing_decompositions(chain(n)) == oracles.catalan_closed_form(n)


def test_noncrossing_walk_matches_recursive_searches():
    posets = populations.up_to() + populations.random_n8(200)
    for p in posets:
        nc, witness = minimum_noncrossing_decomposition(p)
        assert (nc, witness.chains) == oracles.recursive_min_noncrossing(p)
        assert count_noncrossing_decompositions(p) == oracles.recursive_count_noncrossing(p)


def walk_minimum(walk, p):
    """(size, chains) of `walk`'s minimum under the limit-lowering protocol
    of `nccd._noncrossing_minimum`: lower the limit to each yielded size, and
    stop at the width."""
    limit, best, floor = [p.n + 1], None, width(p)
    for chains in walk(p, limit):
        best = tuple(tuple(c) for c in chains)
        limit[0] = len(best)
        if limit[0] == floor:
            break
    return len(best), best


def test_noncrossing_walk_matches_recursive_bit_row_walk():
    # the whole sequence yielded with the limit at n + 1, and the minimum
    posets = populations.up_to() + populations.every_65th_n6() + populations.random_n8()
    posets += [random_poset(9, density=0.2, seed=seed) for seed in range(50)]
    for p in posets:
        got = [[tuple(c) for c in chains] for chains in nccd._noncrossing_walk(p, [p.n + 1])]
        want = [[tuple(c) for c in chains]
                for chains in oracles.noncrossing_walk_by_recursion(p, [p.n + 1])]
        assert got == want
        nc, best = walk_minimum(oracles.noncrossing_walk_by_recursion, p)
        assert nccd._noncrossing_minimum(p, width(p)) == (
            nc, ChainDecomposition._from_index_parts(p, best))


def test_noncrossing_minimum_matches_recursive_walk_on_deep_inputs():
    # the recursive oracle places one element per frame
    for n in (1000, 2000):
        p = wrap_forest(n, seed=0)
        nc, best = oracles.run_deep(lambda: walk_minimum(oracles.noncrossing_walk_by_recursion, p))
        assert minimum_noncrossing_decomposition(p, cap=None) == (
            nc, ChainDecomposition._from_index_parts(p, best))


def test_noncrossing_minimum_needs_no_recursion():
    # both walks are thousands of placements deep, past the default limit
    assert minimum_noncrossing_decomposition(chain(5000), cap=None)[0] == 1
    p = wrap_forest(3000, seed=0)
    nc, witness = minimum_noncrossing_decomposition(p, cap=None)
    assert nc == width(p)
    assert is_noncrossing(p, witness)


# -- patterns and descents --------------------------------------------------------


def test_132_predicate_matches_oracle():
    for p in populations.up_to(4):
        naive = {
            tuple(p.labels[i] for i in perm) for perm in oracles.naive_avoiders(p)
        }
        assert set(all_132_avoiding(p)) == naive
        for perm in itertools.permutations(p.labels):
            assert is_132_avoiding(p, perm) == (perm in naive)


def test_segment_walk_flags_what_the_prefix_replay_flags():
    # a cover relation is acyclic but not transitive, so the runs of its
    # avoiders can stop being chains or cross: the walk must flag the first
    # avoider that the prefix replay flags, return it as its witness, and
    # count them all otherwise
    flagged = 0
    for p in populations.up_to():
        lt = p.lt.astype(np.int64)
        for m in (p.lt, p.lt & ~(lt @ lt).astype(bool)):
            up, down = oracles.bit_rows(m)
            perms = kernels.permutations_avoiding(up, down)
            at = oracles.segment_fault(up, down, perms)
            count, witness = nccd._segment_walk(up, down)
            assert (count, witness is not None) == ((len(perms), False) if at is None else (at, True))
            if at is not None:
                assert witness == perms[at]
            flagged += at is not None
    assert flagged


def test_132_in_total_order_matches_classic_pattern():
    p = chain(4)
    # in a total order the poset pattern is the classic permutation pattern
    assert is_132_avoiding(p, ("4", "1", "2", "3"))
    assert not is_132_avoiding(p, ("1", "4", "2", "3"))  # 1 4 2 contains 1<2<4


def test_extension_relative_132():
    p = antichain(3)
    e = ("1", "2", "3")
    # incomparable everywhere, so plain 132 never occurs
    assert is_132_avoiding(p, ("1", "3", "2"))
    # but relative to e, 1 3 2 is exactly the pattern
    assert not is_132_avoiding_in_extension(p, ("1", "3", "2"), e)
    assert is_132_avoiding_in_extension(p, ("3", "2", "1"), e)


def test_extension_must_be_linear_extension():
    p = chain(3)
    for e in (("2", "1", "3"), ("1", "2"), ("1", "2", "2")):
        with pytest.raises(ValueError):
            is_132_avoiding_in_extension(p, ("1", "2", "3"), e)
        with pytest.raises(ValueError):
            min_descents_over_extension_avoiders(p, e)


def _random_linear_extension(p, rng):
    """A seeded linear extension: a random minimal element of the rest, repeatedly."""
    rest = set(range(p.n))
    out = []
    while rest:
        x = rng.choice(sorted(i for i in rest if not any(p.lt[j, i] for j in rest)))
        rest.remove(x)
        out.append(p.labels[x])
    return tuple(out)


def test_extension_rows_match_rank_matrix():
    cases = [(p, derived_extension(p)) for p in populations.up_to()]
    rng = random.Random(13)
    for s in range(40):
        p = random_poset(rng.randint(1, 12), density=rng.random(), seed=s)
        cases += [(p, _random_linear_extension(p, rng)) for _ in range(3)]
    for p, e in cases:
        assert _extension_rows(p, [p.idx(x) for x in e]) == oracles.bit_rows(oracles.extension_matrix(p, e))


def test_descent_profile_positions():
    p = chain(5)
    prof = descent_profile(p, ("1", "2", "5", "3", "4"))
    # drop after 5 at position 3, plus the terminal position
    assert prof.positions == (3, 5)
    assert prof.count == 2
    assert descent_profile(antichain(0), ()).count == 0


def test_descent_profile_incomparable_counts():
    p = antichain(3)
    prof = descent_profile(p, ("1", "2", "3"))
    assert prof.positions == (1, 2, 3)


def test_min_descents_matches_oracle():
    for p in populations.up_to(4):
        assert min_descents_over_avoiders(p) == oracles.naive_min_descents(p)


def test_ascending_runs_form_noncrossing_decomposition():
    for p in populations.up_to(4):
        for perm in all_132_avoiding(p):
            d = ascending_runs_decomposition(p, perm)
            assert d.k == descent_profile(p, perm).count
            assert is_noncrossing(p, d)


def test_ascending_runs_reject_pattern():
    p = chain(3)
    with pytest.raises(ValueError):
        ascending_runs_decomposition(p, ("1", "3", "2"))


# -- wrap order and canonical order ------------------------------------------------


def test_wrap_relation_theta():
    p = theta()
    d = mhcd(p)
    rel = wrap_relation(p, d)
    # chains (u1<u2), (w1<w2), (x1<x2): the u chain wraps both others
    assert rel.tolist() == [
        [False, False, False],
        [True, False, False],
        [True, False, False],
    ]


def test_wrap_matrices_match_loop_oracle():
    posets = populations.up_to()
    posets += [random_poset(9, seed=seed) for seed in range(20)]
    posets += populations.wrapforest_n20(20)
    for p in posets:
        w = wrap_order(p)
        wrapped, above = oracles.wrap_matrices(p, w.decomposition.chains)
        assert oracles.matrix_of_rows(w.rows[0]).tolist() == wrapped
        assert oracles.matrix_of_rows(w.rows[1]).tolist() == above
        union = [[a or b for a, b in zip(ra, rb)] for ra, rb in zip(wrapped, above)]
        assert oracles.matrix_of_rows(w.rows[2]).tolist() == union
        assert wrap_relation(p, w.decomposition).tolist() == union


def _chain_layer_family():
    yield from populations.up_to()
    yield from (random_poset(n, seed=s) for n in range(8, 41) for s in range(10))
    yield from (wrap_forest(n, seed=s) for n in range(20, 201, 20) for s in range(10))
    yield nest(50)
    yield random_poset(120, 0.6)


def test_chain_layer_rows_match_dense_oracles():
    # the graph's rows, its adjacency and its orientation against the loop
    # comparability and the minima matrix; the wrap rows against the product.
    # The family's graphs lie on both sides of the size rule `hcd._dense`.
    sides = set()
    for p in _chain_layer_family():
        g = hcd.acyclic_orientation(p)
        d = g.decomposition
        comp, mixed = oracles.chain_comparability(p, d.chains)
        assert mixed is None
        oriented = oracles.orientation_by_minima(p, d.chains, comp)
        assert g.rows == oracles.bit_rows(oriented)
        assert g.adjacency.tolist() == comp.tolist()
        assert g.edges() == [tuple(e) for e in np.argwhere(oriented).tolist()]
        undirected = hcd.ChainGraph(d, g.rows).edges()
        assert undirected == [tuple(e) for e in np.argwhere(np.triu(comp, 1)).tolist()]
        sides.add(hcd._dense(len(undirected), d.k, p.n))
        wrapped, above = oracles.wrap_matrices_by_product(p, d.chains)
        rows = nccd._wrap_rows(p, d)
        assert rows[0] == oracles.bit_rows(wrapped)[0]
        assert rows[1] == oracles.bit_rows(above)[0]
        assert rows[2:] == oracles.bit_rows(wrapped | above)
    assert sides == {False, True}


def test_canonical_order_diamond_frozen():
    p = diamond()
    order, findings = canonical_chain_order(p)
    d = mhcd(p)
    names = [d.chains_as_labels()[i] for i in order]
    assert names == [("{1}",), ("{2}",), ("{}", "{1,2}")]
    pi = descent_optimal_permutation(p)
    assert pi == ("{1}", "{2}", "{}", "{1,2}")


def test_canonical_order_extends_wrap_order_everywhere():
    for p in populations.up_to():
        order, _ = canonical_chain_order(p)
        rel = wrap_relation(p, mhcd(p))
        pos = {c: i for i, c in enumerate(order)}
        for a in range(len(order)):
            for b in range(len(order)):
                if rel[a, b]:
                    assert pos[a] < pos[b]


def test_optimal_permutation_properties_exhaustive():
    for p in populations.up_to():
        pi = descent_optimal_permutation(p)
        k = mhcd(p).k
        assert descent_profile(p, pi).count == k
        assert is_132_avoiding(p, pi)


# -- plane trees and the derived extension -----------------------------------------


def test_tree_diamond_frozen():
    p = diamond()
    d = mhcd(p)
    order, _ = canonical_chain_order(p)
    tree = attachment_tree(p, d, order)
    assert tree_to_text(tree) == "*({1,2}({1} {2} {}))"
    assert derived_extension(p) == ("{}", "{2}", "{1}", "{1,2}")


def test_tree_single_chain():
    p = chain(3)
    d = mhcd(p)
    order, _ = canonical_chain_order(p)
    tree = attachment_tree(p, d, order)
    assert tree_to_text(tree) == "*(3(2(1)))"
    assert derived_extension(p) == ("1", "2", "3")



def _random_plane_tree(rng, size: int) -> TreeNode:
    root = TreeNode(None)
    nodes = [root]
    for i in range(size):
        parent = rng.choice(nodes)
        child = TreeNode(str(i))
        parent.children.insert(rng.randint(0, len(parent.children)), child)
        nodes.append(child)
    return root


def test_tree_walks_match_recursive_oracles():
    rng = random.Random(7)
    for size in (0, 1, 2, 5, 30, 200):
        for _ in range(20):
            tree = _random_plane_tree(rng, size)
            assert tree_to_text(tree) == oracles.tree_text(tree)


def test_tree_walks_on_deep_path():
    root = TreeNode(None)
    node = root
    for i in range(5000):
        child = TreeNode(i)
        node.children.append(child)
        node = child
    assert tree_to_text(root) == "*(" + "(".join(map(str, range(5000))) + ")" * 5000


def test_derived_extension_on_long_chain():
    # a 1100-element chain hangs as one path of depth 1100 off the root
    p = chain(1100)
    e = derived_extension(p)
    assert is_linear_extension(p, e)
    assert e == p.labels

def test_derived_extension_is_linear_extension_exhaustive():
    for p in populations.up_to():
        e = derived_extension(p)
        assert is_linear_extension(p, e)


def test_derived_extension_wrap_forests():
    for seed in range(12):
        p = wrap_forest(9, seed=seed)
        e = derived_extension(p)
        assert is_linear_extension(p, e)
        pi = descent_optimal_permutation(p)
        assert is_132_avoiding_in_extension(p, pi, e)


# -- the inequality chain -----------------------------------------------------------


def test_chain_bounds_exhaustive_small():
    for p in populations.up_to(4):
        rep = verify_chain_bounds(p)
        assert rep.ok, rep.checks
        assert (
            rep.min_chains
            <= rep.min_noncrossing
            <= rep.min_descents
            <= rep.min_descents_ext
            <= rep.min_homogeneous
        )


def test_chain_bounds_strictness_witnesses():
    # the diamond separates the extension-relative minimum from Min_h
    rep = verify_chain_bounds(diamond())
    assert (rep.min_descents_ext, rep.min_homogeneous) == (2, 3)
    # theta shows the same gap at the last step with longer chains in play
    rep = verify_chain_bounds(theta())
    assert rep.min_chains == 2
    assert rep.min_descents_ext == 2
    assert rep.min_homogeneous == 3


def test_chain_bounds_random():
    for seed in range(10):
        p = random_poset(7, density=0.3, seed=seed)
        rep = verify_chain_bounds(p)
        assert rep.ok


def test_chain_bounds_match_once(monkeypatch):
    # one Dilworth matching serves the chain minimum and the noncrossing bound
    from posetdecomp import chains

    calls = []
    real = chains._hopcroft_karp

    def counted(up, n):
        calls.append(n)
        return real(up, n)

    monkeypatch.setattr(chains, "_hopcroft_karp", counted)
    assert verify_chain_bounds(random_poset(8, seed=3)).ok
    assert calls == [8]


def test_chain_bounds_shared_width_memo_matches_scans_run_alone(monkeypatch):
    # the two scans of one report share one comparability pass and one width
    # memo; each must equal its public scan, which builds its own
    calls = []
    real = nccd.antichain_widths

    def counted(comparable):
        calls.append(comparable)
        return real(comparable)

    monkeypatch.setattr(nccd, "antichain_widths", counted)
    posets = populations.up_to() + populations.random_n8()
    posets += [random_poset(12, 0.2, seed=s) for s in range(5)]
    for p in posets:
        an = verify.Analysis(p)
        calls.clear()
        rep = nccd._chain_bounds(p, an.dilworth[0].k, an.noncrossing, an.construction, True)
        assert len(calls) == 1
        assert rep.min_descents == min_descents_over_avoiders(p, cap=None)
        assert rep.min_descents_ext == min_descents_over_extension_avoiders(p, rep.extension, cap=None)


def test_check_bounds_above_scan_cap_orders_chains_once(monkeypatch):
    calls = []
    real = nccd.canonical_chain_order

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # count calls through either module's binding
    monkeypatch.setattr(nccd, "canonical_chain_order", counted)
    monkeypatch.setattr(verify, "canonical_chain_order", counted, raising=False)
    cases = [(random_poset(9, seed=s), k) for s, k in enumerate((6, 5, 5, 7))]
    cases += [(random_poset(10, seed=s), k) for s, k in enumerate((5, 7, 10, 9))]
    cases += [(wrap_forest(12, seed=s), k) for s, k in enumerate((4, 3, 3, 4))]
    cases += zip(populations.wrapforest_n20(4), (6, 5, 6, 8))
    for p, k in cases:
        calls.clear()
        out = verify.check_bounds(verify.Analysis(p))
        assert out["passed"]
        assert out["details"] == {"k": k, "scans": "skipped"}
        assert len(calls) == 1


def test_check_bounds_above_scan_cap_computes_mhcd_once(monkeypatch):
    calls = []
    real = hcd.mhcd

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # the pipeline builds the MHCD and hands its wrap order down, so the
    # wrap order never recomputes the MHCD
    monkeypatch.setattr(hcd, "mhcd", counted)
    monkeypatch.setattr(verify, "mhcd", counted)
    for p in [random_poset(9, seed=s) for s in range(4)] + populations.wrapforest_n20(4):
        calls.clear()
        assert verify.check_bounds(verify.Analysis(p))["passed"]
        assert len(calls) == 1


def test_report_serializes_to_plain_json_types():
    import json

    rep = verify_chain_bounds(diamond())
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    assert "min_homogeneous" in blob


def test_intransitive_wrap_relation_fails_with_first_missing_pair(monkeypatch):
    # the cover walk only decides; the witness is the first pair, row-major,
    # that the closure of the relation adds
    p = wrap_forest(20, seed=0)
    d = mhcd(p)
    names = d.chains_as_labels()
    assert d.k >= 3
    for arcs in (((0, 1), (1, 2)), ((0, 1), (1, 2), (2, 0))):
        rel = np.zeros((d.k, d.k), dtype=bool)
        for i, j in arcs:
            rel[i, j] = True
        rows = _relation_rows(rel, rel & False)
        monkeypatch.setattr(nccd, "_wrap_rows", lambda p, d, rows=rows: rows)
        i, j = np.argwhere(oracles.closure_by_squaring(rel) & ~rel)[0]
        with pytest.raises(CheckFailure, match="^wrap relation is not transitive") as exc:
            wrap_order(p)
        assert exc.value.witness == (names[i], names[j])


def _relation_rows(wrapped, above):
    """The rows of a WrapOrder with the matrices wrapped and above, by `_bitrows`."""
    return _bitrows(wrapped)[0], _bitrows(above)[0], *_bitrows(wrapped | above)


# -- the pipeline against its recursive oracles ---------------------------------------


def _outcome(run):
    """run()'s result, or the message and witness of the check it fails."""
    try:
        return run()
    except (CheckFailure, oracles.Refuted) as exc:
        return str(exc), exc.witness


def test_construction_matches_recursive_oracles():
    for p in oracle_family():
        graph = hcd.chain_graph(p)
        d = graph.decomposition
        wrapped, above = oracles.wrap_matrices(p, d.chains)
        oracles.check_wrap_order_by_blocks(p, d.chains, graph.adjacency.tolist(), wrapped, above)
        order, findings = canonical_chain_order(p, wrap=nccd._verified_wrap_order(p, graph))
        names = d.chains_as_labels()
        assert (order, findings) == oracles.canonical_order_by_recursion(names, wrapped, above)
        tree = attachment_tree(p, d, order)
        walked = oracles.attachment_tree_by_walk(p, d.chains, order)
        assert tree_to_text(tree) == oracles.tree_text(walked)
        e = nccd._construction(p, graph)[4]
        assert e == tuple(reversed(oracles.preorder_by_stack(walked)))
        assert e == tuple(reversed(oracles.preorder_labels(tree)))


def test_construction_verdicts_equal_the_label_predicates():
    # the construction tests its witnesses once, on indices; each verdict
    # must be what the public label predicate says of the same witness
    for p in populations.standard():
        d, _, _, pi, e, ext, checks = nccd._construction(p, hcd.chain_graph(p))
        linear = is_linear_extension(p, e)
        assert checks == {
            "extension-is-linear": linear,
            "witness-has-min-descents": descent_profile(p, pi).count == d.k,
            "witness-avoids-132": is_132_avoiding(p, pi),
            "witness-avoids-132-in-extension": linear and is_132_avoiding_in_extension(p, pi, e),
        }
        assert ext == (oracles.bit_rows(oracles.extension_matrix(p, e)) if linear else None)


def _relation_variants(graph, wrapped, above, rng):
    """Relations near the true (wrapped, above): random ones; the true one
    with one entry flipped, moved between the matrices or transposed; and the
    true one plus an arc between chains the graph leaves incomparable, closed
    transitively, each added arc in a matrix drawn at random."""
    k = graph.k
    yield rng.random((k, k)) < 0.2, rng.random((k, k)) < 0.1
    for _ in range(3):
        i, j = rng.integers(k, size=2)
        flipped = wrapped.copy(), above.copy()
        flipped[rng.integers(2)][i, j] ^= True
        yield flipped
        moved = wrapped.copy(), above.copy()
        moved[0][i, j], moved[1][i, j] = moved[1][i, j], moved[0][i, j]
        yield moved
        turned = wrapped.copy(), above.copy()
        for m in turned:
            m[i, j], m[j, i] = m[j, i], m[i, j]
        yield turned
    free = np.argwhere(~graph.adjacency & ~np.eye(k, dtype=bool))
    for i, j in free[rng.permutation(len(free))[:3]]:
        rel = wrapped | above
        rel[i, j] = True
        added = oracles.closure_by_squaring(rel) & ~(wrapped | above)
        side = rng.random((k, k)) < 0.5
        yield wrapped | (added & side), above | (added & ~side)


def _random_strict_orders(k: int, count: int, rng):
    """Strict orders on k chains as (wrapped, above): arcs of a random
    permutation's order kept at random and closed, each split at random."""
    for _ in range(count):
        perm = rng.permutation(k)
        rel = np.zeros((k, k), dtype=bool)
        for a, b in itertools.combinations(range(k), 2):
            rel[perm[a], perm[b]] = rng.random() < 0.3
        rel = oracles.closure_by_squaring(rel)
        side = rng.random((k, k)) < 0.5
        yield rel & side, rel & ~side


def test_wrap_failures_match_block_oracle(monkeypatch):
    # relations patched into the pipeline must fail at the oracle's first
    # check with its witness, or pass with the oracle's order and findings
    rng = np.random.default_rng(19)
    cases = []
    for s in range(60):
        p = random_poset(9, 0.3, seed=s)
        graph = hcd.chain_graph(p)
        true = oracles.wrap_matrices_by_product(p, graph.decomposition.chains)
        cases += [(p, graph, rel) for rel in _relation_variants(graph, *true, rng)]
    # no two chains of an antichain are comparable, so every strict order
    # passes the wrap order's checks and reaches the canonical order
    graph = hcd.chain_graph(antichain(6))
    cases += [(graph.decomposition.poset, graph, rel) for rel in _random_strict_orders(6, 200, rng)]
    # homogeneous decompositions other than the MHCD can interleave; under
    # the total order i < j on their chains the block count decides first
    for p in populations.up_to(4):
        for d in enumerate_chain_decompositions(p):
            if hcd.is_homogeneous(p, d):
                graph = hcd.chain_graph(p, d)
                total = np.triu(np.ones((d.k, d.k), dtype=bool), 1)
                cases.append((p, graph, oracles.wrap_matrices_by_product(p, d.chains)))
                cases.append((p, graph, (total, total & False)))
    kinds = set()
    for p, graph, (wrapped, above) in cases:
        d = graph.decomposition
        rows = _relation_rows(wrapped, above)
        monkeypatch.setattr(nccd, "_wrap_rows", lambda p, d: rows)

        def library():
            w = nccd._verified_wrap_order(p, graph)
            return canonical_chain_order(p, wrap=w)

        def oracle():
            lists = wrapped.tolist(), above.tolist()
            oracles.check_wrap_order_by_blocks(p, d.chains, graph.adjacency.tolist(), *lists)
            return oracles.canonical_order_by_recursion(d.chains_as_labels(), *lists)

        got = _outcome(library)
        assert got == _outcome(oracle)
        if isinstance(got[0], str):
            kinds.add(got[0].split(" (witness")[0])
        else:
            kinds.add("passed with findings" if got[1] else "passed")
    # every check fails somewhere, except the one a verified relation
    # cannot reach: transitivity puts each chain below some marker
    assert kinds == {
        "passed",
        "passed with findings",
        "wrap relation is not antisymmetric",
        "wrap relation is not transitive",
        "comparable chains interleave in more than one block",
        "comparable chains carry no wrap relation",
        "chain wrapped by two maximal chains",
        "chain classified both as wrapped and as above a maximal chain",
        "constructed order does not extend the wrap order",
    }


def test_nest_needs_no_recursion():
    p = nest(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        order, _ = canonical_chain_order(p)
        assert len(order) == 601
        assert is_linear_extension(p, derived_extension(p))
        assert verify.check_bounds(verify.Analysis(p))["passed"]
    finally:
        sys.setrecursionlimit(limit)
