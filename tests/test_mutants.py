"""Seeded defects, and the check or test that kills each.

Each entry of MUTANTS monkeypatches one library function with a plausible
bug and names what must catch it; the killer runs on a family fixed before
the run (every poset with n <= 4 and a few wrap forests), handed out as new
posets at each call so that no defect's cached state outlives it.  The
killer must pass on the library as it is and fail under the defect.
"""

import ast
import inspect
import itertools
import linecache
import math
import random
import sys

import numpy as np
import pytest

from posetdecomp import cut as cut_module
from posetdecomp import _reference, chains, cli, hcd, nccd, poset, textio, verify
from posetdecomp.chains import ChainDecomposition
from posetdecomp.generate import antichain, chain, random_poset, wrap_forest

import oracles
import populations
import test_automorphisms
import test_boundary
import test_cli
import test_cut
import test_textio


def family() -> list:
    """Every poset with n <= 4, `wrap_forest(20)` seeds 0..3, and C2XC2 and
    C3, as new `Poset` objects at each call."""
    # on the other posets the engine needs one witness per level, and every
    # generator induces an involution, so that sigma and its inverse agree;
    # C2XC2 and C3 break both
    return [*populations.up_to(4), *populations.wrapforest_n20(4),
            *(poset.Poset._from_rows(q.labels, *map(list, q.rows))
              for q in (test_automorphisms.C2XC2, test_automorphisms.C3))]


NEAR_ORDERS = list(oracles.near_orders(seed=6, count=600))


def _segment_cases() -> list:
    """Every permutation of every poset with n <= 4, and 12 seeded
    permutations of each of 150 seeded posets with n = 5."""
    rng = random.Random(27)
    cases = [(p, perm) for p in populations.up_to(4) for perm in itertools.permutations(range(p.n))]
    cases += [
        (p, tuple(rng.sample(range(5), 5)))
        for p in rng.sample(populations.of_size(5), 150)
        for _ in range(12)
    ]
    return cases


SEGMENT_CASES = _segment_cases()


def _top_level_sources() -> dict:
    """The source of every function and class defined at the top level of
    an imported posetdecomp module, decorators included, keyed by the
    object, read once when this module is imported.  `inspect.getsource`
    would reread the file at each rewrite, at the line numbers of the code
    already loaded, so a source file edited during the run would hand a
    rewrite the wrong lines."""
    sources = {}
    for key, mod in list(sys.modules.items()):
        if key.startswith("posetdecomp."):
            lines = inspect.getsource(mod).splitlines(True)
            for node in ast.parse("".join(lines)).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in vars(mod):
                    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    sources[vars(mod)[node.name]] = "".join(lines[start - 1:node.end_lineno])
    return sources


SOURCES = _top_level_sources()


def _rewritten(module, name, old, new):
    """module.name recompiled with `old`, which its source must hold once,
    replaced by `new`.  The new function's source joins SOURCES, so a
    rewritten function can be rewritten again, and is registered with
    linecache for tracebacks."""
    source = SOURCES[getattr(module, name)]
    assert source.count(old) == 1
    source = source.replace(old, new)
    filename = f"<rewritten {module.__name__}.{name} {hash(source):x}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = dict(vars(module))
    exec(compile(source, filename, "exec"), namespace)
    SOURCES[namespace[name]] = source
    return namespace[name]


def _rewrite(monkeypatch, module, name, old, new):
    """Bind `_rewritten(module, name, old, new)` at every attribute of a
    posetdecomp module that holds the original, so a defect runs wherever
    the original would: in its own module and in every module that imported
    it by name."""
    original = getattr(module, name)
    fn = _rewritten(module, name, old, new)
    for key, mod in list(sys.modules.items()):
        if key == "posetdecomp" or key.startswith("posetdecomp."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, fn)


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


def failed_witness_ends_level(monkeypatch):
    """The engine leaves a level at its first image without a witness."""
    _rewrite(monkeypatch, poset, "automorphism_group", "todo &= ~orbit[x]", "todo = 0")


def orbit_kept_after_witness(monkeypatch):
    """After a witness, the engine drops only its image from the level's
    images to try, not the whole orbit the witness joined to b's."""
    _rewrite(monkeypatch, poset, "automorphism_group", "todo &= ~orbit[b]", "todo &= ~(1 << x)")


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


def induced_skips_scatter(monkeypatch):
    """The induced map's core reads the chain heads only and never tests for a scattered chain."""
    _rewrite(monkeypatch, hcd, "_induced", "if [sigma[c] for c in owner] != image:", "if False:")


def hom_word_same_slots(monkeypatch):
    """Every product-replacement word draws the same two state slots."""
    _rewrite(monkeypatch, hcd, "_products", "i, j = draw(m), draw(m - 1)", "i, j = 0, 0")


def widths_from_up_only(monkeypatch):
    """The descent scans' width memo reads the up rows alone as the comparability."""
    _rewrite(monkeypatch, nccd, "_widths", "[u | v for u, v in zip(*p.rows)]", "list(p.rows[0])")


def descents_without_final_position(monkeypatch):
    """The construction counts the witness's descents without its final position."""
    _rewrite(monkeypatch, nccd, "_construction", "len(_descents(p.rows[0], pi)) == d.k",
             "len(_descents(p.rows[0], pi)) - 1 == d.k")


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
    """The ready pairs drop the profile test: every comparable pair is ready."""
    _rewrite(monkeypatch, verify, "_merge_table", "if not (comp[i] ^ comp[j]) & ~(1 << i | 1 << j)",
             "if True")


def ready_pairs_spanning_forest(monkeypatch):
    """`_merge_table` drops each ready pair (i, j) for which (i, f) and (f, j)
    are both ready, f the first partner of i: each class keeps a path of
    ready pairs in place of its clique, so the classes stay connected."""
    real = verify._merge_table

    def mutant(p):
        ready = real(p)
        pairs = set(ready)
        first: dict[int, int] = {}
        for i, j in ready:
            first.setdefault(i, j)
        # (i, first[i]) is ready by its definition
        return [(i, j) for i, j in ready if (first[i], j) not in pairs]

    monkeypatch.setattr(verify, "_merge_table", mutant)


def ready_admits_one_difference(monkeypatch):
    """`_merge_table` counts a comparable pair whose rows differ off the pair
    in at most one element as ready."""
    _rewrite(monkeypatch, verify, "_merge_table", "if not (comp[i] ^ comp[j]) & ~(1 << i | 1 << j)",
             "if ((comp[i] ^ comp[j]) & ~(1 << i | 1 << j)).bit_count() <= 1")


def mixed_pair_comparable(monkeypatch):
    """`_comparable_pairs` never reads the rows' differences: a mixed chain
    pair counts as comparable when its minima are."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "if any(diffs):", "if False:")


def mixed_witness_first_bit(monkeypatch):
    """The mixed-pair witness is the pair of the first differing bit, not the least pair."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "i, j = min(pairs)", "i, j = next(pairs)")


def partition_joins_incomparable(monkeypatch):
    """The partition walk lets an element join a chain whose top is not below it."""
    _rewrite(monkeypatch, chains, "_partition_walk", "if up[top] & bit:", "if True:")


def partition_skips_pair_status(monkeypatch):
    """The partition walk tests only a joining element's own uniformity
    towards the other chains, not that it keeps its chain's status."""
    _rewrite(monkeypatch, chains, "_partition_walk", "(row ^ comp[top]) & placed & ~mask != 0",
             "any(row & m not in (0, m) for i, m in enumerate(masks) if i != c)")


def orient_by_index(monkeypatch):
    """Every comparable chain pair points from the chain of lower index."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "above = [up[x] & minima for x in lows]",
             "above = [(up[x] | down[x]) & minima & -(2 << x) for x in lows]")


def orient_reversed(monkeypatch):
    """Every comparable chain pair points from the chain with the larger minimum."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "above = [up[x] & minima for x in lows]",
             "above = [down[x] & minima for x in lows]")


def dense_unpacks_down_rows(monkeypatch):
    """The dense chain graph is read off the minima's down rows: every pair
    points from the chain with the larger minimum."""
    _rewrite(monkeypatch, hcd, "_comparable_pairs", "_unpack_rows([up[x] for x in lows], p.n)",
             "_unpack_rows([down[x] for x in lows], p.n)")


def section_reads_into_rows(monkeypatch):
    """The MHCD section lists its edges off the into rows instead of the out rows."""
    _rewrite(monkeypatch, cli, "_section_mhcd", "gr.rows[0]", "gr.rows[1]")


def rows_read_columns(monkeypatch):
    """The dense row listing takes column i of the unpacked rows for row i:
    each chain lists the chains that point into it."""
    _rewrite(monkeypatch, hcd, "_row_targets", "objs[mat[i]]", "objs[mat[:, i]]")


def row_head_from_target(monkeypatch):
    """A JSON edge row's head is built from its first target's encoding
    instead of its source's."""
    _rewrite(monkeypatch, cli, "_emit_json", 'head = f"[{src}, "', 'head = f"[{targets[0]}, "')


def wrap_keeps_own_chain(monkeypatch):
    """A chain's wrapped column keeps its own elements: the own-chain mask is dropped."""
    _rewrite(monkeypatch, nccd, "_wrap_rows", "down[chain[-1]] & ~masks[j]", "down[chain[-1]]")


def crossing_without_top(monkeypatch):
    """The walk's crossing test drops the b < d condition: a closed run
    inside (low, v) suffices."""
    _rewrite(monkeypatch, nccd, "_segment_walk", "mask & between and mask & ux",
             "mask & between")


def run_extends_above_first(monkeypatch):
    """An element joins the current run when it lies above the run's first element."""
    _rewrite(monkeypatch, nccd, "_segment_walk", "above | ux, ux, head", "above | ux, up[head], head")


def child_keeps_parent_forbidden(monkeypatch):
    """The walk passes a child its parent's forbidden mask instead of the
    updated one."""
    _rewrite(monkeypatch, nccd, "_segment_walk", "joined, grown, shut)", "joined, forbidden, shut)")


def segment_skips_role_b(monkeypatch):
    """The walk drops its role-b test: an element extending the current run
    is never checked against a closed run with elements between and above."""
    _rewrite(monkeypatch, nccd, "_segment_walk", "if mask & between and mask & ux:",
             "if False:")


def segment_skips_role_d(monkeypatch):
    """The walk drops its role-d test: an element extending the current run
    may lie above a closed run's b with a current-run element between."""
    _rewrite(monkeypatch, nccd, "_segment_walk", " or forbidden >> x & 1", "")


def segment_prune_without_rest(monkeypatch):
    """The walk's 132 prune drops `& rest`: a candidate is pruned when any
    element, used or not, lies between it and an earlier one."""
    _rewrite(monkeypatch, nccd, "_segment_walk", "if down[x] & above & rest:", "if down[x] & above:")


def segment_witness_highest_candidate(monkeypatch):
    """The walk completes a flagged node's prefix by the highest candidate
    the 132 prune keeps instead of the lowest."""
    _rewrite(monkeypatch, nccd, "_segment_walk", "for x in _bits(unused)",
             "for x in reversed([*_bits(unused)])")


def descents_stop_above_floor(monkeypatch):
    """The descent search stops once its incumbent reaches the width floor
    plus one, so a permutation with floor descents can go unfound."""
    _rewrite(monkeypatch, _reference, "min_descents", "floor = width(full)\n",
             "floor = width(full) + 1\n")


def descents_stop_at_first_dead_end(monkeypatch):
    """The descent search ends at its first exhausted frame, so it returns
    the best permutation of the first branch it closes, not the minimum."""
    _rewrite(monkeypatch, _reference, "min_descents", "stack.pop()", "stack.clear()")


def crossing_test_skips_the_chain(monkeypatch):
    """The walk's blocked mask drops its interval: v completes a crossing
    with any chain that has two elements below it, whether chain j meets the
    interval or not."""
    _rewrite(monkeypatch, nccd, "_noncrossing_walk",
             "blocked |= up[chain[0]] & down[chain[h - 1]] & ~mask", "blocked |= ~mask")


def crossing_test_skips_the_top(monkeypatch):
    """The walk's blocked mask ignores v: its interval runs from each chain's
    lowest element to its top, wherever v lies."""
    _rewrite(monkeypatch, nccd, "_noncrossing_walk", "(h := (mask & down[v]).bit_count())",
             "(h := len(chain))")


def catalan_off_at_four(monkeypatch):
    """The Catalan recurrence adds one at n = 4: 15 in place of 14."""
    _rewrite(monkeypatch, verify, "catalan_numbers", "for i in range(n + 1)))",
             "for i in range(n + 1)) + (n == 3))")


def decomposition_by_index(monkeypatch):
    """`_as_decomposition` uses every ChainDecomposition as it stands, even
    one of another poset, whose chain indices mean other elements."""
    _rewrite(monkeypatch, chains, "_as_decomposition", "if parts.poset is p or parts.poset == p:",
             "if True:")


def walk_joins_incomparable(monkeypatch):
    """The noncrossing walk appends an element to a chain whose top it does not lie above."""
    _rewrite(monkeypatch, nccd, "_noncrossing_walk",
             " or not up[chains[j][-1]] >> v & 1)", ")")


def walk_resumes_past_a_chain(monkeypatch):
    """After undoing a pick, the walk resumes two chains on: the element
    never tries the chain after the one it left."""
    _rewrite(monkeypatch, nccd, "_noncrossing_walk",
             "masks[j]\n        j += 1\n", "masks[j]\n        j += 2\n")


def unsigned_side_counts(monkeypatch):
    """The side counts drop the alternating sign: they count the chains."""
    _rewrite(monkeypatch, poset, "_alternating_series", "total -= power", "total += power")


def upper_over_lower_parts(monkeypatch):
    """The upper side is aggregated over the lower parts."""
    _rewrite(monkeypatch, cut_module, "_cut_kernel", "np.stack((low, ~low)", "np.stack((low, low)")


def kernel_key_own_chain(monkeypatch):
    """The kernel keys each row by its side's mask on chain i's own elements,
    not on chain i's up-closure."""
    _rewrite(monkeypatch, cut_module, "_cut_kernel", "_distinct_rows(inside, chains)",
             "_distinct_rows(inside & frame.members.astype(bool)[chains], chains)")


def kernel_key_drops_chain(monkeypatch):
    """The kernel keys each row by its restricted mask alone, without the chain index."""
    _rewrite(monkeypatch, cut_module, "_cut_kernel", "_distinct_rows(inside, chains)",
             "_distinct_rows(inside, 0 * chains)")


def admissible_by_comparability(monkeypatch):
    """Admissibility tests comparability (lt | lt.T) in place of lt."""
    _rewrite(monkeypatch, cut_module, "_admissible", "lt = frame.poset.lt\n",
             "lt = frame.poset.lt | frame.poset.lt.T\n")


def side_series_drops_last_power(monkeypatch):
    """The side series stops before its last nonzero power, which is V_0
    itself when V_1 is zero."""
    _rewrite(monkeypatch, poset, "_alternating_series", "    total = power\n",
             "    total = power * ((power @ strict) * inside).any()\n")
    _rewrite(monkeypatch, poset, "_alternating_series", "if not power.any():",
             "if not ((power @ strict) * inside).any():")


def side_series_keeps_v0(monkeypatch):
    """The side series keeps V_0 but drops its last nonzero power of order >= 1."""
    _rewrite(monkeypatch, poset, "_alternating_series", "if not power.any():",
             "if not ((power @ strict) * inside).any():")


def float_tier_past_53(monkeypatch):
    """The float64 tier reaches every bound below 2**63, where a double rounds."""
    _rewrite(monkeypatch, poset, "_exact_dtypes", "if bound < 2**53:", "if bound < 2**63:")


def halves_shift_short(monkeypatch):
    """The int64 tier's products rejoin their halves one bit short."""
    _rewrite(monkeypatch, poset, "_by_halves", "out <<= 32", "out <<= 31")


def j_without_identity(monkeypatch):
    """The frame's J is the chain graph's adjacency alone: the identity is dropped."""
    _rewrite(monkeypatch, cut_module, "CutFrame", "np.eye(k, dtype=np.int64) + ",
             "np.zeros((k, k), dtype=np.int64) + ")


def mobius_without_sign(monkeypatch):
    """The Mobius recursion drops its sign: mu(x, y) sums mu(x, z) over x <= z < y."""
    _rewrite(monkeypatch, poset, "_mobius_row", "value -= row[", "value += row[")


def mobius_unordered(monkeypatch):
    """The Mobius recursion takes y in index order, not in a linear extension."""
    _rewrite(monkeypatch, poset, "mobius_matrix", "order = _topological_order(p)",
             "order = list(range(p.n))")


def chain_sums_skip_diagonal(monkeypatch):
    """The chain sums of the Mobius array skip the pairs x = y."""
    _rewrite(monkeypatch, cut_module, "_mobius_sums", "mu = frame.mobius[flat][:, flat]",
             "mu = frame.mobius[flat][:, flat] * (1 - np.eye(len(flat), dtype=np.int64))")


def bound_undercounts(monkeypatch):
    """The chain-count bound is one bit short, which puts posets with
    between 2**53 and 2**54 chains inside one up-set into float64."""
    _rewrite(monkeypatch, poset, "_chain_count_bound", "    return bound\n", "    return bound >> 1\n")


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


def comment_cut_keeps_comment(monkeypatch):
    """The reader's comment fast path keeps what follows the '#' of a relation line, not what precedes it."""
    _rewrite(monkeypatch, textio, "loads", 'raw = raw[:raw.index("#")]', 'raw = raw[raw.index("#") + 1:]')


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
    _rewrite(monkeypatch, hcd, "deletion_bounds", "row & ~(1 << z)", "row")


def matching_one_phase(monkeypatch):
    """`_hopcroft_karp` stops after its first phase: the greedy matching,
    with the reach of the BFS that follows it."""
    _rewrite(monkeypatch, chains, "_hopcroft_karp", "if not seen & free_r:", "if True:")


def greedy_takes_highest_free(monkeypatch):
    """The greedy first phase matches each left vertex to its highest free
    right vertex: the later phases still end at a maximum matching."""
    _rewrite(monkeypatch, chains, "_hopcroft_karp", "low = cand & -cand",
             "low = 1 << cand.bit_length() - 1")


def koenig_reach_drops_free_roots(monkeypatch):
    """The reach of the last BFS leaves out the free left vertices it starts from."""
    _rewrite(monkeypatch, chains, "_hopcroft_karp", "(queue, seen)",
             "([x for x in queue if match_l[x] != -1], seen)")


def antichain_keeps_right_cover(monkeypatch):
    """The antichain is Z_L: the right cover Z_R is not removed."""
    _rewrite(monkeypatch, chains, "_dilworth", " if not zr >> x & 1]", "]")


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
    """Rebuilding each poset of family() from its Hasse diagram."""
    return any(poset.Poset.from_cover_relations(p.labels, p.covers()) != p for p in family())


def reader_differs_from_two_pass_oracle() -> bool:
    """test_textio.test_reader_matches_two_pass_oracle, on its malformed and shapes groups."""
    return test_textio.reader_faults([*test_textio.MALFORMED.values(), *test_textio.SHAPES.values()]) != []


def rows_differ_from_matrix() -> bool:
    """test_poset_core's rows-first invariant, on every poset with n <= 4 and
    on family() loaded again from its covers."""
    posets = [p for n in range(5) for p in poset.enumerate_posets(n)]
    posets += [poset.Poset.from_cover_relations(p.labels, p.covers()) for p in family()]
    return any(p.rows != poset._bitrows(p.lt) for p in posets)


def walk_differs_from_product_oracles() -> bool:
    """test_poset_core's cover-walk agreement tests, on family() and NEAR_ORDERS."""
    for p in family():
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
        for p in family()
    )


def chain_differs_from_top_down_oracle() -> bool:
    """test_automorphisms.test_bottom_up_chain_matches_top_down_oracle, on
    every poset with n <= 5."""
    return test_automorphisms.chain_faults(test_automorphisms.CHAIN_POPULATIONS["n<=5"]()) != []


def generators_exceed_orbit_bound() -> bool:
    """test_automorphisms.test_generators_join_orbits, on family()."""
    return any(len(poset.automorphism_group(p.rows).generators) > max(p.n - 1, 0) for p in family())


def matching_differs_from_list_oracle() -> bool:
    """test_chains.test_bit_row_matching_is_the_list_matching, on family()."""
    for p in family():
        succ = [np.flatnonzero(row).tolist() for row in p.lt]
        if chains._hopcroft_karp(p.rows[0], p.n)[:2] != oracles._hopcroft_karp(succ, p.n):
            return True
    return False


def deletion_counts_differ_from_sub_posets() -> bool:
    """test_hcd.test_deletion_counts_match_sub_poset_mhcd, on family()."""
    return any(
        [e["k_without"] for e in hcd.deletion_bounds(p).entries]
        != [hcd.mhcd(p.without(z)).k for z in p.labels]
        for p in family()
    )


def injective_check_passes_non_chain_block() -> bool:
    """test_hcd.test_embedding_injective_fails_on_non_chain_block."""
    p = antichain(2)
    graph = hcd.acyclic_orientation(p, ChainDecomposition(p, ((0, 1),)))
    return hcd._embedding(p, graph, 0).injective


def scattered_chain_witness_differs() -> bool:
    """test_hcd.test_embedding_reports_the_scattered_chain: on two disjoint
    2-chains a < b and c < d, decomposed as {a < b}, {c}, {d}, the swap
    scatters {a < b}; the witness must be the label-map oracle's."""
    p = poset.Poset.from_cover_relations("abcd", [("a", "b"), ("c", "d")])
    graph = hcd.acyclic_orientation(p, ChainDecomposition.from_parts(p, [["a", "b"], ["c"], ["d"]]))
    return hcd._embedding(p, graph, 0).witness != oracles.embedding_by_label_maps(p, graph, 0).witness


def products_differ_from_oracle_words() -> bool:
    """test_hcd.test_products_match_oracle_words, on family()."""
    for seed, p in enumerate(family()):
        d = hcd.mhcd(p)
        generators = poset.automorphism_group(p.rows).generators
        gens = [(g, hcd.induced_chain_permutation(p, d, g)) for g in generators]
        products = [(tuple(g), tuple(sigma)) for g, sigma in hcd._products(p.n, d.k, gens, seed)]
        if products != oracles.word_products(p.n, d.k, gens, seed):
            return True
    return False


def orientation_differs_from_oracle() -> bool:
    """test_nccd.test_chain_layer_rows_match_dense_oracles' orientation, on
    family() and on random_poset(120, 0.6), whose chain graph is dense."""
    for p in [*family(), random_poset(120, 0.6)]:
        g = hcd.acyclic_orientation(p)
        comp, _ = oracles.chain_comparability(p, g.decomposition.chains)
        if g.rows != oracles.bit_rows(oracles.orientation_by_minima(p, g.decomposition.chains, comp)):
            return True
    return False


def mixed_pairs_differ_from_walk_oracle() -> bool:
    """test_hcd.test_chain_comparability_matches_loop_oracle_exhaustive's
    first mixed pairs, on every chain decomposition of every poset with n <= 5."""
    return any(
        hcd._comparable_pairs(p, d)[2] != oracles.comparable_pairs_by_walk(p, d)[2]
        for p in populations.up_to()
        for d in chains.enumerate_chain_decompositions(p)
    )


def mhcd_section_differs_from_pair_oracle() -> bool:
    """test_cli.test_mhcd_section_edges_match_pair_oracle, on family()."""
    for p in family():
        an = verify.Analysis(p)
        if cli._section_mhcd(an, False)["oriented_edges"].pairs() != oracles.oriented_edges_by_pairs(p, an.mhcd.chains):
            return True
    return False


def mhcd_writers_differ_from_oracle() -> bool:
    """test_cli.test_mhcd_writers_match_pair_oracle, on its posets: labels
    that JSON escapes, a dense graph, a wrap forest and three without edges."""
    for make in test_cli.WRITER_POSETS.values():
        got, want, lines, want_lines = test_cli.mhcd_writes(make())
        if got != want or lines != want_lines:
            return True
    return False


def _path_walk():
    """`nccd._segment_walk` with its 132 prune lifted and replaced by one
    that keeps only the permutation `walk.__globals__["PATH"]`: it returns
    count 0 and a witness when that permutation's runs are flagged, else
    (1, None)."""
    return _rewritten(nccd, "_segment_walk", "if down[x] & above & rest:",
                      "if x != PATH[n - 1 - rest.bit_count()]:")


def segment_walk_differs_from_runs() -> bool:
    """The avoider walk without its 132 prune, along one permutation per
    call, on SEGMENT_CASES, against the consecutive-pair runs of
    `_avoider_runs` (without its 132 test), their chain test and `_crossing`."""
    walk = _path_walk()
    split = _rewritten(nccd, "_avoider_runs", "if down[x] & above & rest:", "if False:")
    for p, perm in SEGMENT_CASES:
        up, down = p.rows
        runs = split(up, down, perm)
        chained = all(up[a] >> b & 1 for run in runs for a, b in zip(run, run[1:]))
        expected = not chained or nccd._crossing(up, down, runs) is not None
        walk.__globals__["PATH"] = perm
        if (walk(up, down)[1] is not None) != expected:
            return True
    return False


def segment_witness_differs_from_first_avoider() -> bool:
    """test_nccd.test_segment_walk_flags_what_the_prefix_replay_flags's
    witness test, on the order and the cover relation of every poset with
    n <= 5: a flagged walk's witness is the avoider at its count.  The family
    stops at n = 4, where a flagged node leaves at most one element to place:
    a run fails at its third element at the earliest, and a crossing at the
    fourth."""
    for p in populations.up_to():
        lt = p.lt.astype(np.int64)
        for m in (p.lt, p.lt & ~(lt @ lt).astype(bool)):
            up, down = oracles.bit_rows(m)
            count, witness = nccd._segment_walk(up, down)
            if witness is not None and witness != _reference.permutations_avoiding(up, down)[count]:
                return True
    return False


def over_pruned_count_differs_from_catalan() -> bool:
    """test_verify.test_segments_counts_avoiders_without_the_kernel's
    Catalan pin: the segments check's avoider count on chain(n), n = 0..6."""
    return any(
        verify.run_poset_checks(chain(n), which=("segments",))["checks"][0]["details"]
        != {"permutations": math.comb(2 * n, n) // (n + 1)}
        for n in range(7)
    )


def float_tier_differs_from_mobius() -> bool:
    """test_cut.test_signed_counts_exact_across_float_tier, against the Mobius recursion."""
    return any(
        poset.signed_chain_count_matrix(p) != poset.mobius_matrix(p)
        for p in map(chain, (53, 54, 60, 63))
    )


def tiers_differ_from_exact_count() -> bool:
    """test_cut.test_tiers_sized_by_the_chain_count_bound, on its posets whose
    first candidate leaves float64."""
    return test_cut.tier_faults(test_cut.PAST_53) != []


def kernel_differs_from_row_oracle() -> bool:
    """test_cut.test_kernel_matches_row_oracle, on the family's wrap forests:
    blocks of random heights, improper and inadmissible cuts included."""
    return test_cut.kernel_faults(populations.wrapforest_n20(4)) > 0


def catalan_check_fails() -> bool:
    """The exhaustive sweep's Catalan check."""
    return not verify.check_catalan_counts()["passed"]


def noncrossing_count_differs_from_oracle() -> bool:
    """test_nccd.test_count_noncrossing_matches_oracle, on every poset with n <= 4."""
    return any(
        nccd.count_noncrossing_decompositions(p) != oracles.count_noncrossing(p)
        for p in populations.up_to(4)
    )


def boundary_table_fails_in_every_module() -> bool:
    """test_boundary's table on wrap_forest(12, 3): some entry point of each
    module of the chain layer breaks the rule."""
    faults = test_boundary.boundary_faults(wrap_forest(12, seed=3))
    return {test_boundary.HOMES[name] for name, _ in faults} == set(test_boundary.HOMES.values())


def check_fails(name: str):
    """A killer: the battery's check `name` fails on some poset of family()."""

    def killed() -> bool:
        return any(not verify.run_poset_checks(p, which=(name,))["ok"] for p in family())

    killed.__doc__ = f"The battery's {name} check."
    return killed


MUTANTS = {
    "first-witness-only": (first_witness_only, orders_differ_from_listing_oracle),
    "signature-not-invariant": (signature_not_invariant, orders_differ_from_listing_oracle),
    # a lost image at n = 5 at the earliest: only the oracle's populations tell
    "failed-witness-ends-level": (failed_witness_ends_level, chain_differs_from_top_down_oracle),
    # every extra witness is a true automorphism: only the generator count tells
    "orbit-kept-after-witness": (orbit_kept_after_witness, generators_exceed_orbit_bound),
    "kernel-order-one": (kernel_order_one, injective_check_passes_non_chain_block),
    "reversed-images": (reversed_images, check_fails("embedding")),
    # a scattered chain that is also not a bijection: only the witness tells
    "induced-skips-scatter": (induced_skips_scatter, scattered_chain_witness_differs),
    # every word is a product of automorphisms: only the products tell
    "hom-word-same-slots": (hom_word_same_slots, products_differ_from_oracle_words),
    "widths-from-up-only": (widths_from_up_only, check_fails("bounds")),
    "descents-without-final-position": (descents_without_final_position, check_fails("bounds")),
    "mhcd-merges-first-two": (mhcd_merges_first_two, check_fails("homogeneous")),
    "merge-any-comparable": (merge_any_comparable, check_fails("homogeneous")),
    "ready-admits-one-difference": (ready_admits_one_difference, check_fails("homogeneous")),
    # the classes keep their masks: only the clique count tells
    "ready-pairs-spanning-forest": (ready_pairs_spanning_forest, check_fails("homogeneous")),
    "mixed-pair-comparable": (mixed_pair_comparable, check_fails("homogeneous")),
    # the verdict stands: only the pair named in the error tells
    "mixed-witness-first-bit": (mixed_witness_first_bit, mixed_pairs_differ_from_walk_oracle),
    "partition-joins-incomparable": (partition_joins_incomparable, check_fails("dilworth")),
    "partition-skips-pair-status": (partition_skips_pair_status, check_fails("homogeneous")),
    "orient-by-index": (orient_by_index, check_fails("embedding")),
    # the battery cannot see this one: a reversed acyclic orientation has the same symmetries
    "orient-reversed": (orient_reversed, orientation_differs_from_oracle),
    # nor this one, on the dense side of the size rule, which family() never takes
    "dense-unpacks-down-rows": (dense_unpacks_down_rows, orientation_differs_from_oracle),
    # the battery never reads the section, only the graph it lists
    "section-reads-into-rows": (section_reads_into_rows, mhcd_section_differs_from_pair_oracle),
    # nor the written section: only its bytes tell, the first on the dense
    # side of the size rule, which family() never takes
    "rows-read-columns": (rows_read_columns, mhcd_writers_differ_from_oracle),
    "row-head-from-target": (row_head_from_target, mhcd_writers_differ_from_oracle),
    "wrap-keeps-own-chain": (wrap_keeps_own_chain, check_fails("bounds")),
    "crossing-without-top": (crossing_without_top, check_fails("segments")),
    "run-extends-above-first": (run_extends_above_first, check_fails("segments")),
    # every crossing of ascending runs comes with a 132 pattern that the walk
    # prunes, so the battery cannot see a missed crossing
    "child-keeps-parent-forbidden": (child_keeps_parent_forbidden, segment_walk_differs_from_runs),
    "segment-skips-role-b": (segment_skips_role_b, segment_walk_differs_from_runs),
    "segment-skips-role-d": (segment_skips_role_d, segment_walk_differs_from_runs),
    # nor a lost avoider: the check passes with a smaller count
    "segment-prune-without-rest": (segment_prune_without_rest, over_pruned_count_differs_from_catalan),
    "segment-witness-highest-candidate": (
        segment_witness_highest_candidate, segment_witness_differs_from_first_avoider),
    "descents-stop-above-floor": (descents_stop_above_floor, check_fails("bounds")),
    "descents-stop-at-first-dead-end": (descents_stop_at_first_dead_end, check_fails("bounds")),
    # an over-eager crossing test blocks placements but keeps every minimum
    # on family(): only the counts tell
    "crossing-test-skips-the-chain": (crossing_test_skips_the_chain, catalan_check_fails),
    "crossing-test-skips-the-top": (crossing_test_skips_the_top, noncrossing_count_differs_from_oracle),
    "catalan-off-at-four": (catalan_off_at_four, catalan_check_fails),
    "decomposition-by-index": (decomposition_by_index, boundary_table_fails_in_every_module),
    "walk-joins-incomparable": (walk_joins_incomparable, check_fails("noncrossing-trivial")),
    "walk-resumes-past-a-chain": (walk_resumes_past_a_chain, catalan_check_fails),
    "unsigned-side-counts": (unsigned_side_counts, check_fails("cut")),
    "upper-over-lower-parts": (upper_over_lower_parts, check_fails("cut")),
    # on every block of admissible cuts tried, either key still gives every
    # row its value, so the battery cannot see them: only improper and
    # inadmissible cuts tell
    "kernel-key-own-chain": (kernel_key_own_chain, kernel_differs_from_row_oracle),
    "kernel-key-drops-chain": (kernel_key_drops_chain, kernel_differs_from_row_oracle),
    "admissible-by-comparability": (admissible_by_comparability, check_fails("cut")),
    "side-series-drops-last-power": (side_series_drops_last_power, check_fails("cut")),
    "side-series-keeps-v0": (side_series_keeps_v0, check_fails("cut")),
    "float-tier-past-53": (float_tier_past_53, float_tier_differs_from_mobius),
    "j-without-identity": (j_without_identity, check_fails("cut")),
    "mobius-without-sign": (mobius_without_sign, check_fails("cut")),
    "mobius-unordered": (mobius_unordered, check_fails("cut")),
    "chain-sums-skip-diagonal": (chain_sums_skip_diagonal, check_fails("cut")),
    "bound-undercounts": (bound_undercounts, tiers_differ_from_exact_count),
    "halves-shift-short": (halves_shift_short, tiers_differ_from_exact_count),
    "closure-skips-last-pivot": (closure_skips_last_pivot, closure_differs_from_squaring_oracle),
    "closure-skips-successor-bit": (closure_skips_successor_bit, round_trip_through_covers_differs),
    "down-pass-drops-own-bit": (down_pass_drops_own_bit, rows_differ_from_matrix),
    "comment-cut-keeps-comment": (comment_cut_keeps_comment, reader_differs_from_two_pass_oracle),
    "walk-skips-containment": (walk_skips_containment, walk_differs_from_product_oracles),
    "covers-keep-reached": (covers_keep_reached, walk_differs_from_product_oracles),
    "extension-rows-reversed": (extension_rows_reversed, check_fails("bounds")),
    "attach-below-shallowest": (attach_below_shallowest, check_fails("bounds")),
    "marker-before-group": (marker_before_group, check_fails("bounds")),
    "markers-against-all-chains": (markers_against_all_chains, check_fails("bounds")),
    "deletion-keeps-column-z": (deletion_keeps_column_z, deletion_counts_differ_from_sub_posets),
    "matching-one-phase": (matching_one_phase, check_fails("dilworth")),
    # another maximum matching passes every check: only the list matching tells
    "greedy-takes-highest-free": (greedy_takes_highest_free, matching_differs_from_list_oracle),
    "koenig-reach-drops-free-roots": (koenig_reach_drops_free_roots, check_fails("dilworth")),
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


def test_rewrites_read_no_source_file(monkeypatch):
    # every rewrite reads the sources taken when this module was imported,
    # so a source file edited during the run cannot shift the lines it sees
    def edited(*args):
        raise OSError("the source file changed on disk")

    monkeypatch.setattr(inspect, "getsource", edited)
    monkeypatch.setattr(linecache, "getlines", edited)
    for mutate, _ in MUTANTS.values():
        with pytest.MonkeyPatch.context() as mp:
            mutate(mp)


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


def test_spanning_forest_is_seen_by_the_clique_count_alone(monkeypatch):
    ready_pairs_spanning_forest(monkeypatch)
    failing = [p for p in family() if not verify.run_poset_checks(p, which=("homogeneous",))["ok"]]
    assert len(failing) == 58
    # without the pair count, the classes' masks alone pass every poset
    check = _rewritten(verify, "check_homogeneous",
                       " and len(ready) == sum(comb(c.bit_count(), 2) for c in classes)", "")
    monkeypatch.setitem(verify._CHECKS, "homogeneous", check)
    assert not check_fails("homogeneous")()


def test_segment_walk_tests_both_crossing_roles():
    # in the chain 0 < 1 < 2 < 3, the runs of (1, 3, 0, 2) cross when 2 joins
    # the current run as b, and those of (0, 2, 1, 3) when 3 joins it as d
    up, down = chain(4).rows
    walk = _path_walk()
    for perm in ((1, 3, 0, 2), (0, 2, 1, 3)):
        walk.__globals__["PATH"] = perm
        assert walk(up, down) == (0, perm)
    walk.__globals__["PATH"] = (0, 1, 2, 3)
    assert walk(up, down) == (1, None)
    assert not segment_walk_differs_from_runs()
