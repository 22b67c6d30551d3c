"""Seeded defects, and the check or test that kills each.

Each entry of MUTANTS monkeypatches one library function with a plausible
bug and names what must catch it; the killer runs on a family fixed before
the run (every poset with n <= 4 and a few wrap forests).  The killer must
pass on the library as it is and fail under the defect.
"""

import inspect
import itertools
import random

import numpy as np
import pytest

from posetdecomp import cut as cut_module
from posetdecomp import chains, hcd, nccd, poset, verify
from posetdecomp.chains import ChainDecomposition
from posetdecomp.generate import antichain, chain, random_poset, wrap_forest

import oracles

FAMILY = [p for n in range(5) for p in poset.enumerate_posets(n)]
FAMILY += [wrap_forest(20, seed=s) for s in range(4)]
NEAR_ORDERS = list(oracles.near_orders(seed=6, count=600))


def _rewrite(monkeypatch, module, name, old, new, into=None):
    """Replace `old` by `new` in the source of module.name, which must hold it
    once, and bind the recompiled function under that name in each module of
    `into` (module itself by default)."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    for target in into or (module,):
        monkeypatch.setattr(target, name, namespace[name])


def first_witness_only(monkeypatch):
    """The engine keeps only the first witness at each base point."""
    real = poset._witness
    last = []

    def mutant(rows, dom, free, b, x):
        if last and last[0] is rows and last[1] == b:
            return None
        g = real(rows, dom, free, b, x)
        if g is not None:
            last[:] = [rows, b]
        return g

    monkeypatch.setattr(poset, "_witness", mutant)


def signature_not_invariant(monkeypatch):
    """The search's element invariant tells even indices from odd ones."""
    _rewrite(monkeypatch, poset, "_signatures", "up[i].bit_count())", "up[i].bit_count(), i & 1)")


def kernel_order_one(monkeypatch):
    """The kernel-order step returns 1 without searching."""
    monkeypatch.setattr(hcd, "_kernel_order", lambda p, d: 1)


def reversed_images(monkeypatch):
    """The induced images compose in reverse order: the map returns the inverse image."""
    real = hcd.induced_chain_permutation

    def mutant(p, d, g):
        sigma = real(p, d, g)
        inverse = [0] * len(sigma)
        for i, s in enumerate(sigma):
            inverse[s] = i
        return tuple(inverse)

    monkeypatch.setattr(hcd, "induced_chain_permutation", mutant)


def mhcd_merges_first_two(monkeypatch):
    """The analysis' `mhcd` merges its first two chains."""
    real = verify.mhcd

    def mutant(p):
        parts = [list(c) for c in real(p).chains]
        if len(parts) >= 2:
            parts[:2] = [parts[0] + parts[1]]
        return ChainDecomposition._from_index_parts(p, parts)

    monkeypatch.setattr(verify, "mhcd", mutant)


def merge_any_comparable(monkeypatch):
    """The merge replays drop the profile test and merge any comparable pair."""

    def mutant(p, shuffle_seed=None):
        chains = [[x] for x in range(p.n)]
        rng = random.Random(shuffle_seed)
        while True:
            pairs = [
                (i, j)
                for i, j in itertools.combinations(range(len(chains)), 2)
                if all(p.lt[a, b] or p.lt[b, a] for a in chains[i] for b in chains[j])
            ]
            if not pairs:
                return ChainDecomposition._from_index_parts(p, chains)
            i, j = rng.choice(pairs)
            chains[i] += chains.pop(j)

    monkeypatch.setattr(verify, "_merge_replays", lambda p, seeds: (mutant(p, s) for s in seeds))


def replay_promotes_untested(monkeypatch):
    """A pair is promoted when its watched bit dies, without re-testing diff & alive."""
    _rewrite(monkeypatch, hcd, "_replay", "if rest:", "if False:")


def replay_drops_second_only(monkeypatch):
    """After a merge (i, j), only the candidates whose second element is j are dropped."""
    _rewrite(monkeypatch, hcd, "_replay", "if j not in c]", "if c[1] != j]")


def mixed_pair_comparable(monkeypatch):
    """`_comparable_pairs` keeps only the OR test: a mixed chain pair counts as comparable."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "if masks[j] & inside[i] != masks[j]:", "if False:")


def orient_by_index(monkeypatch):
    """Every comparable chain pair points from the chain of lower index."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "if above & low[j]:", "if True:")


def orient_reversed(monkeypatch):
    """Every comparable chain pair points from the chain with the larger minimum."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "above, below = up[chain[0]], down[chain[0]]",
             "below, above = up[chain[0]], down[chain[0]]")


def wrap_keeps_own_chain(monkeypatch):
    """A chain's wrapped column keeps its own elements: the own-chain mask is dropped."""
    _rewrite(monkeypatch, nccd, "_wrap_rows", "down[chain[-1]] & ~masks[j]", "down[chain[-1]]")


def crossing_without_top(monkeypatch):
    """The replay's crossing test drops the b < d condition: a closed run
    inside (low, v) suffices."""
    _rewrite(monkeypatch, nccd, "_segment_fault", "mask & between and mask & ux",
             "mask & between", into=(verify,))


def run_extends_above_first(monkeypatch):
    """An element joins the current run when it lies above the run's first element."""
    _rewrite(monkeypatch, nccd, "_segment_fault", "reach = ux", "reach = up[low]",
             into=(verify,))


def replay_one_level_deep(monkeypatch):
    """The replay files each frame one level early, so it restores the frame
    one element past the common prefix."""
    _rewrite(monkeypatch, nccd, "_segment_fault", "frames[i + 1] = (", "frames[i] = (",
             into=(verify,))


def walk_joins_incomparable(monkeypatch):
    """The noncrossing walk appends an element to a chain whose top it does not lie above."""
    _rewrite(monkeypatch, nccd, "_noncrossing_walk", "up[chain[-1]] >> v & 1 and not", "not")


def unsigned_side_counts(monkeypatch):
    """The side counts drop the alternating sign: they count the chains."""
    _rewrite(monkeypatch, poset, "_alternating_series", "sign = -sign", "sign = 1",
             into=(cut_module,))


def upper_over_lower_parts(monkeypatch):
    """The upper side is aggregated over the lower parts."""
    _rewrite(monkeypatch, cut_module, "_cut_kernel", "np.stack((low, ~low)", "np.stack((low, low)")


def admissible_by_comparability(monkeypatch):
    """Admissibility tests comparability (lt | lt.T) in place of lt."""
    _rewrite(monkeypatch, cut_module, "_admissible", "lt = frame.poset.lt\n",
             "lt = frame.poset.lt | frame.poset.lt.T\n")


def side_series_drops_last_power(monkeypatch):
    """The side series stops before its last nonzero power."""
    _rewrite(monkeypatch, poset, "_alternating_series", "while power.any():",
             "while ((power @ strict) * inside).any():", into=(cut_module,))


def side_series_keeps_v0(monkeypatch):
    """The side series keeps V_0 but drops its last nonzero power of order >= 1."""
    _rewrite(monkeypatch, poset, "_alternating_series", "total += sign * power\n",
             "total += sign * power * (not total.any() or ((power @ strict) * inside).any())\n",
             into=(cut_module,))


def float_tier_past_53(monkeypatch):
    """The float64 tier reaches every bound below 2**63, where a double rounds."""
    _rewrite(monkeypatch, poset, "_exact_dtypes", "if bound < 2**53:", "if bound < 2**63:",
             into=(poset, cut_module))


def j_without_identity(monkeypatch):
    """The frame's J is the chain graph's adjacency alone: the identity is dropped."""
    _rewrite(monkeypatch, cut_module, "CutFrame", "np.eye(k, dtype=np.int64) + ",
             "np.zeros((k, k), dtype=np.int64) + ", into=(cut_module, verify))


def closure_skips_last_pivot(monkeypatch):
    """Warshall's closure on bit rows never pivots on the last element."""
    _rewrite(monkeypatch, poset, "_closure_rows", "for k in range(len(reach)):",
             "for k in range(len(reach) - 1):")


def closure_skips_successor_bit(monkeypatch):
    """Each finishing node ORs its successors' reach rows but not the successors themselves."""
    _rewrite(monkeypatch, poset, "_close_acyclic", "row |= reach[w] | 1 << w", "row |= reach[w]")


def down_pass_drops_own_bit(monkeypatch):
    """The loading search's down pass passes each node's down row on without the node's own bit."""
    _rewrite(monkeypatch, poset, "_close_acyclic", "down[w] |= down[v] | 1 << v",
             "down[w] |= down[v]")


def walk_skips_containment(monkeypatch):
    """The cover walk drops its containment test: no row is checked against x's."""
    _rewrite(monkeypatch, poset, "_cover_rows", "if up[y] & ~row:", "if False:")


def covers_keep_reached(monkeypatch):
    """The cover walk returns each whole row: every successor counts as a cover."""
    _rewrite(monkeypatch, poset, "_cover_rows", "covers.append(row & ~reached)",
             "covers.append(row)")


def extension_rows_reversed(monkeypatch):
    """`_extension_rows` returns (down, up): "earlier in e" read as "later"."""
    real = nccd._extension_rows

    def mutant(p, e):
        rows = real(p, e)
        return None if rows is None else rows[::-1]

    monkeypatch.setattr(nccd, "_extension_rows", mutant)


def attach_below_shallowest(monkeypatch):
    """Each chain hangs below the shallowest path vertex above its top, not the deepest."""
    _rewrite(monkeypatch, nccd, "_leftmost_attachment", "keep = up[chain[-1]] & path\n",
             "keep = up[chain[-1]] & path & 1 << pre[0] if pre else 0\n")


def marker_before_group(monkeypatch):
    """The canonical order emits each marker before its group instead of after it."""
    _rewrite(monkeypatch, nccd, "canonical_chain_order", "todo += ([m], groups[m])",
             "todo += (groups[m], [m])")


def markers_against_all_chains(monkeypatch):
    """Markers are the chains maximal among all chains, not among the working set."""
    _rewrite(monkeypatch, nccd, "canonical_chain_order", "not up[m] & live & ~(1 << m)",
             "not up[m] & ~(1 << m)")


def deletion_keeps_column_z(monkeypatch):
    """The deletion counts compare the closed rows without clearing bit z."""
    _rewrite(monkeypatch, hcd, "_deletion_bounds", "row & ~(1 << z)", "row", into=(hcd, verify))


def matching_one_phase(monkeypatch):
    """`_hopcroft_karp` stops after its first phase: the greedy matching."""
    _rewrite(monkeypatch, chains, "_hopcroft_karp", "while True:", "for _phase in range(1):")


def antichain_keeps_right_cover(monkeypatch):
    """The antichain is Z_L: the right cover Z_R is not removed."""
    _rewrite(monkeypatch, chains, "_dilworth", "if in_zl[x] and not zr >> x & 1]",
             "if in_zl[x]]", into=(verify,))


def orders_choice_swapped(monkeypatch):
    """The enumerator takes point 0's relations in the order unrelated, below, above."""
    _rewrite(monkeypatch, poset, "_order_rows", "itertools.product((0, 1, 2), repeat=n - 1)",
             "itertools.product((0, 2, 1), repeat=n - 1)")


def orders_skip_up_closure(monkeypatch):
    """The enumerator drops its test that the elements above point 0 are up-closed."""
    _rewrite(monkeypatch, poset, "_order_rows", "all(up[j] | a == a for j in above) and ", "")


def orders_skip_down_bit(monkeypatch):
    """The enumerator leaves bit 0 out of the down rows of the elements above point 0."""
    _rewrite(monkeypatch, poset, "_order_rows", "new_down[j] |= 1", "new_down[j] |= 0")


def orders_differ_from_product_oracle() -> bool:
    """test_poset_core's exact-sequence test, for n <= 4."""
    for n in range(5):
        try:
            got = [p.rows[0] for p in poset.enumerate_posets(n)]
        except ValueError:  # a relation that is not an order
            return True
        if got != list(oracles.poset_rows_by_product(n)):
            return True
    return False


def closure_differs_from_squaring_oracle() -> bool:
    """test_poset_core.test_transitive_closure_matches_squaring_oracle."""
    rng = random.Random(5)
    for trial in range(200):
        n = rng.randint(0, 60)
        density = rng.choice((0.02, 0.05, 0.1, 0.3))
        rel = np.array(
            [[rng.random() < density for _ in range(n)] for _ in range(n)], dtype=bool
        ).reshape(n, n)
        if trial % 2:
            rel = np.triu(rel, 1)
        if not np.array_equal(poset.transitive_closure(rel), oracles.closure_by_squaring(rel)):
            return True
    return False


def round_trip_through_covers_differs() -> bool:
    """Rebuilding each poset of FAMILY from its Hasse diagram."""
    return any(poset.Poset.from_cover_relations(p.labels, p.covers()) != p for p in FAMILY)


def rows_differ_from_matrix() -> bool:
    """test_poset_core's rows-first invariant, on every poset with n <= 4 and
    on FAMILY loaded again from its covers."""
    posets = [p for n in range(5) for p in poset.enumerate_posets(n)]
    posets += [poset.Poset.from_cover_relations(p.labels, p.covers()) for p in FAMILY]
    return any(p.rows != poset._bitrows(p.lt) for p in posets)


def walk_differs_from_product_oracles() -> bool:
    """test_poset_core's cover-walk agreement tests, on FAMILY and NEAR_ORDERS."""
    for p in FAMILY:
        if poset.Poset(p.labels, p.lt).covers() != oracles.covers_by_product(p):
            return True
    for lt in NEAR_ORDERS:
        try:
            q = poset.Poset(range(len(lt)), lt)
        except ValueError:
            q = None
        if (q is not None) != oracles.transitive_by_product(lt):
            return True
        if q is not None and q.covers() != oracles.covers_by_product(q):
            return True
    return False


def orders_differ_from_listing_oracle() -> bool:
    """test_automorphisms.test_group_matches_listing_oracle."""
    return any(
        poset.automorphism_group(p.rows).order
        != len(oracles._order_search(p.lt, p.lt, find_all=True))
        for p in FAMILY
    )


def deletion_counts_differ_from_sub_posets() -> bool:
    """test_hcd.test_deletion_counts_match_sub_poset_mhcd, on FAMILY."""
    return any(
        [e["k_without"] for e in hcd.deletion_bounds(p).entries]
        != [hcd.mhcd(p.without(z)).k for z in p.labels]
        for p in FAMILY
    )


def injective_check_passes_non_chain_block() -> bool:
    """test_hcd.test_embedding_injective_fails_on_non_chain_block."""
    p = antichain(2)
    graph = hcd.acyclic_orientation(p, ChainDecomposition(p, ((0, 1),)))
    return hcd._embedding(p, graph, 0).injective


def orientation_differs_from_oracle() -> bool:
    """test_nccd.test_chain_layer_rows_match_dense_oracles' orientation, on FAMILY."""
    for p in FAMILY:
        g = hcd.acyclic_orientation(p)
        comp, _ = oracles.chain_comparability(p, g.decomposition.chains)
        if g.rows != oracles.bit_rows(oracles.orientation_by_minima(p, g.decomposition.chains, comp)):
            return True
    return False


def float_tier_differs_from_mobius() -> bool:
    """test_cut.test_signed_counts_exact_across_float_tier, against the Mobius recursion."""
    return any(
        poset.signed_chain_count_matrix(p) != poset.mobius_matrix(p)
        for p in map(chain, (53, 54, 60, 63))
    )


def check_fails(name: str):
    """A killer: the battery's check `name` fails on some poset of FAMILY."""

    def killed() -> bool:
        return any(not verify.run_poset_checks(p, which=(name,))["ok"] for p in FAMILY)

    killed.__doc__ = f"The battery's {name} check."
    return killed


MUTANTS = {
    "first-witness-only": (first_witness_only, orders_differ_from_listing_oracle),
    "signature-not-invariant": (signature_not_invariant, orders_differ_from_listing_oracle),
    "kernel-order-one": (kernel_order_one, injective_check_passes_non_chain_block),
    "reversed-images": (reversed_images, check_fails("embedding")),
    "mhcd-merges-first-two": (mhcd_merges_first_two, check_fails("homogeneous")),
    "merge-any-comparable": (merge_any_comparable, check_fails("homogeneous")),
    "replay-promotes-untested": (replay_promotes_untested, check_fails("homogeneous")),
    "replay-drops-second-only": (replay_drops_second_only, check_fails("homogeneous")),
    "mixed-pair-comparable": (mixed_pair_comparable, check_fails("homogeneous")),
    "orient-by-index": (orient_by_index, check_fails("embedding")),
    # the battery cannot see this one: a reversed acyclic orientation has the same symmetries
    "orient-reversed": (orient_reversed, orientation_differs_from_oracle),
    "wrap-keeps-own-chain": (wrap_keeps_own_chain, check_fails("bounds")),
    "crossing-without-top": (crossing_without_top, check_fails("segments")),
    "run-extends-above-first": (run_extends_above_first, check_fails("segments")),
    "replay-one-level-deep": (replay_one_level_deep, check_fails("segments")),
    "walk-joins-incomparable": (walk_joins_incomparable, check_fails("noncrossing-trivial")),
    "unsigned-side-counts": (unsigned_side_counts, check_fails("cut")),
    "upper-over-lower-parts": (upper_over_lower_parts, check_fails("cut")),
    "admissible-by-comparability": (admissible_by_comparability, check_fails("cut")),
    "side-series-drops-last-power": (side_series_drops_last_power, check_fails("cut")),
    "side-series-keeps-v0": (side_series_keeps_v0, check_fails("cut")),
    "float-tier-past-53": (float_tier_past_53, float_tier_differs_from_mobius),
    "j-without-identity": (j_without_identity, check_fails("cut")),
    "closure-skips-last-pivot": (closure_skips_last_pivot, closure_differs_from_squaring_oracle),
    "closure-skips-successor-bit": (closure_skips_successor_bit, round_trip_through_covers_differs),
    "down-pass-drops-own-bit": (down_pass_drops_own_bit, rows_differ_from_matrix),
    "walk-skips-containment": (walk_skips_containment, walk_differs_from_product_oracles),
    "covers-keep-reached": (covers_keep_reached, walk_differs_from_product_oracles),
    "extension-rows-reversed": (extension_rows_reversed, check_fails("bounds")),
    "attach-below-shallowest": (attach_below_shallowest, check_fails("bounds")),
    "marker-before-group": (marker_before_group, check_fails("bounds")),
    "markers-against-all-chains": (markers_against_all_chains, check_fails("bounds")),
    "deletion-keeps-column-z": (deletion_keeps_column_z, deletion_counts_differ_from_sub_posets),
    "matching-one-phase": (matching_one_phase, check_fails("dilworth")),
    "antichain-keeps-right-cover": (antichain_keeps_right_cover, check_fails("dilworth")),
    "orders-choice-swapped": (orders_choice_swapped, orders_differ_from_product_oracle),
    "orders-skip-up-closure": (orders_skip_up_closure, orders_differ_from_product_oracle),
    "orders-skip-down-bit": (orders_skip_down_bit, rows_differ_from_matrix),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    mutate, killed = MUTANTS[name]
    assert not killed()
    mutate(monkeypatch)
    assert killed(), f"{name} survives {killed.__doc__}"


def test_faulty_mhcd_fails_checks_instead_of_raising(monkeypatch):
    mhcd_merges_first_two(monkeypatch)
    cases = [
        (wrap_forest(20, seed=0), "InvalidDecompositionError"),
        (random_poset(6, seed=1), "NotHomogeneousError"),
    ]
    for p, error in cases:
        record = verify.run_poset_checks(p)
        errors = [c["details"].get("error", "") for c in record["checks"] if not c["passed"]]
        assert errors and any(e.startswith(error) for e in errors)
