"""Noncrossing decompositions, pattern-avoiding permutations and plane trees.

Two chains cross when one contains a, b and the other c, d with a < c < b < d,
which one test on the bit rows of the order finds: some element of the other
chain lies strictly between a and b, and another above b.  Decompositions
without a crossing sit between arbitrary chain decompositions and
homogeneous ones in the minimum-size ordering:

    min chains <= min noncrossing <= min descents over 132-avoiders
               <= min descents over extension-relative avoiders
               <= minimal homogeneous chain count.

The last three quantities come from permutation scans and from a constructive
pipeline: order the minimal homogeneous chains by successive refinement around
maximal chains of the wrap order, concatenate them into a permutation with
exactly one descent per chain, and read a reference linear extension off a
plane tree built by leftmost attachment.  Each stage, the wrap order too, is
one pass on bit rows: comparable chains interleave in one block iff one lies
in a single gap of the other (the gap rule), and the tree's leftmost path is
a prefix of its preorder (the prefix rule), so no tree is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .chains import ChainDecomposition, _dilworth, width
from .errors import CheckFailure, InternalInconsistencyError, refuse_above
from .hcd import ChainGraph, _as_decomposition, chain_graph
from .kernels import min_descents, permutations_avoiding
from .poset import (
    Poset,
    _bits,
    _closure_rows,
    _cover_rows,
    _extension_rows,
    _topological_order,
    _unpack_rows,
    is_linear_extension,
)

NONCROSSING_CAP = 10
DESCENT_SCAN_CAP = 8


# -- crossing predicate and exhaustive minimum --------------------------------


def _crossing(up: list[int], down: list[int], chains) -> tuple | None:
    """The first crossing (a, c, b, d) of ascending index chains, on bit rows.

    Some element of chain B lies strictly between a < b of chain A and
    another above b; a crossing at a, b is one at A's lowest element and b.
    """
    masks = [sum(1 << x for x in chain) for chain in chains]
    for ci, chain_a in enumerate(chains):
        a = chain_a[0]
        for cj, mask_b in enumerate(masks):
            if cj == ci or not mask_b & up[a]:
                continue
            for b in chain_a[1:]:
                if mask_b & up[a] & down[b] and mask_b & up[b]:
                    c = next(x for x in chains[cj] if (up[a] & down[b]) >> x & 1)
                    d = next(x for x in chains[cj] if up[b] >> x & 1)
                    return a, c, b, d
    return None


def crossing_witness(p: Poset, parts) -> tuple | None:
    """A crossing quadruple (a, c, b, d) as labels, or None when noncrossing."""
    d = _as_decomposition(p, parts)
    found = _crossing(*p.rows, d.chains)
    return None if found is None else tuple(p.labels[x] for x in found)


def is_noncrossing(p: Poset, parts) -> bool:
    """True iff no two chains of the decomposition cross."""
    return crossing_witness(p, parts) is None


def _creates_crossing(up: list[int], down: list[int], chains: list, j: int, v: int) -> bool:
    """Does appending v to chain j complete a crossing?

    Elements are placed in linear-extension order, so v can only ever play the
    topmost role of a crossing; checking that one role keeps the search exact.
    As in `_crossing`, the other chain's lowest element stands for every a.
    """
    mask_j = sum(1 << c for c in chains[j])
    return any(
        down[v] >> b & 1 and mask_j & up[ci[0]] & down[b]
        for i, ci in enumerate(chains)
        if i != j
        for b in ci[1:]
    )


def _noncrossing_walk(p: Poset, limit: list[int]) -> Iterator[list[list[int]]]:
    """Every noncrossing decomposition with fewer than limit[0] chains.

    Elements are placed in linear-extension order; each one extends a chain
    whose top lies below it without completing a crossing, or opens a new
    chain while that stays under the limit.  Each decomposition is yielded as
    the live chain lists, so a caller keeping one must copy it.  The limit is
    read at every step, so the caller may lower it between yields.
    """
    order = _topological_order(p)
    up, down = p.rows
    chains: list[list[int]] = []

    def place(pos: int) -> Iterator[list[list[int]]]:
        if len(chains) >= limit[0]:
            return
        if pos == p.n:
            yield chains
            return
        v = order[pos]
        for j, chain in enumerate(chains):
            if up[chain[-1]] >> v & 1 and not _creates_crossing(up, down, chains, j, v):
                chain.append(v)
                yield from place(pos + 1)
                chain.pop()
        if len(chains) + 1 < limit[0]:
            chains.append([v])
            yield from place(pos + 1)
            chains.pop()

    return place(0)


def minimum_noncrossing_decomposition(
    p: Poset, cap: int | None = NONCROSSING_CAP
) -> tuple[int, ChainDecomposition]:
    """Smallest noncrossing decomposition via branch and bound.

    Prunes on crossings, on the incumbent size, and bottoms out at the
    Dilworth lower bound.  Returns (size, witness decomposition).
    """
    refuse_above("noncrossing minimum", cap, p.n)
    return _noncrossing_minimum(p, width(p) if p.n else 0)


def _noncrossing_minimum(p: Poset, lower_bound: int) -> tuple[int, ChainDecomposition]:
    """`minimum_noncrossing_decomposition` without a cap, given the width of p."""
    limit = [p.n + 1]
    best = None
    for chains in _noncrossing_walk(p, limit):
        best = [tuple(c) for c in chains]
        limit[0] = len(best)
        if limit[0] == lower_bound:
            break
    if best is None:
        raise InternalInconsistencyError("search left no decomposition at all")
    return len(best), ChainDecomposition._from_index_parts(p, best)


def count_noncrossing_decompositions(p: Poset, cap: int | None = NONCROSSING_CAP) -> int:
    """Number of noncrossing decompositions, by exhaustive pruned search."""
    refuse_above("noncrossing count", cap, p.n)
    # no decomposition has more than n chains, so the limit never prunes
    return sum(1 for _ in _noncrossing_walk(p, [p.n + 1]))


# -- pattern avoidance ---------------------------------------------------------


def _perm_indices(p: Poset, perm: Sequence) -> list[int]:
    idxs = [p.idx(x) for x in perm]
    if len(idxs) != p.n or len(set(idxs)) != p.n:
        raise ValueError("not a permutation of the ground set")
    return idxs


def _avoider_runs(up: list[int], down: list[int], perm: Sequence[int]) -> list | None:
    """An index permutation split once at its descents, or None on a 132 pattern.

    `up` and `down` are the bit rows of the order.  As in the avoider scan, a
    pattern is caught at its largest element x: an element still to come
    lies below x and above an earlier one.
    """
    rest = (1 << len(perm)) - 1
    above = 0
    runs: list[list[int]] = []
    for x in perm:
        rest ^= 1 << x
        if down[x] & above & rest:
            return None
        above |= up[x]
        if runs and up[runs[-1][-1]] >> x & 1:
            runs[-1].append(x)
        else:
            runs.append([x])
    return runs


def _segment_fault(up: list[int], down: list[int], perms: Sequence[Sequence[int]]) -> int | None:
    """The index of the first permutation in perms with a 132 pattern or
    crossing ascending runs, or None.

    The list is read as a prefix tree.  Frame i is the state after the first
    i elements: the unused and `above` masks of `_avoider_runs`, the up row
    of the current run's top (`reach`), the run's lowest element and mask,
    the forbidden mask, and the closed runs as (lowest element, mask) pairs.
    Each permutation restores the frame at its common prefix with the one
    before and processes only the rest.  Each new element is tested for a
    132 pattern as in `_avoider_runs`, and one that extends the current run
    must lie above all of it.  Only the current run grows, and its new
    element v is its top, so a new crossing has v as b (a closed run has an
    element between the run's lowest element and v, and another above v) or
    as d (v is forbidden: it lies above some b of a closed run with a
    current-run element between that run's lowest element and b).
    """
    n = len(up)
    # ups[mask]: the union of up[b] over the elements b of mask
    ups = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        ups[mask] = ups[mask ^ low] | up[low.bit_length() - 1]
    frames = [((1 << n) - 1, 0, 0, -1, 0, 0, ())] * (n + 1)
    prev: Sequence[int] = ()
    for at, perm in enumerate(perms):
        depth = 0
        for x, y in zip(prev, perm):
            if x != y:
                break
            depth += 1
        rest, above, reach, low, run, forbidden, closed = frames[depth]
        for i in range(depth, n):
            x = perm[i]
            rest ^= 1 << x
            if down[x] & above & rest:
                return at
            ux = up[x]
            above |= ux
            if reach >> x & 1:
                # the run stays a chain: x lies above all of it
                if run & ~down[x] or forbidden >> x & 1:
                    return at
                between = up[low] & down[x]
                for c, mask in closed:
                    if mask & between and mask & ux:
                        return at
                    if up[c] >> x & 1:
                        forbidden |= ups[mask & ux]
                run |= 1 << x
            else:
                if run:
                    closed += ((low, run),)
                low, run, forbidden = x, 1 << x, 0
                for c, mask in closed:
                    if up[c] >> x & 1:
                        forbidden |= ups[mask & ux]
            reach = ux
            frames[i + 1] = (rest, above, reach, low, run, forbidden, closed)
        prev = perm
    return None


def is_132_avoiding(p: Poset, perm: Sequence) -> bool:
    """No positions i1 < i2 < i3 with perm[i1] < perm[i3] < perm[i2] in p."""
    return _avoider_runs(*p.rows, _perm_indices(p, perm)) is not None


def is_132_avoiding_in_extension(p: Poset, perm: Sequence, e: Sequence) -> bool:
    """132 avoidance with "below" read off positions in the extension e."""
    rows = _extension_rows(p, e)
    if rows is None:
        raise ValueError("reference order must be a linear extension")
    return _avoider_runs(*rows, _perm_indices(p, perm)) is not None


def all_132_avoiding(p: Poset, cap: int | None = DESCENT_SCAN_CAP) -> list[tuple]:
    """Every 132-avoiding permutation as a label tuple, lexicographic by index."""
    refuse_above("permutation sweep", cap, p.n)
    return [
        tuple(p.labels[i] for i in perm)
        for perm in permutations_avoiding(*p.rows)
    ]


# -- descents -------------------------------------------------------------------


@dataclass(frozen=True)
class DescentProfile:
    """Descent positions of a permutation (1-based; the last position counts)."""

    permutation: tuple
    positions: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.positions)


def descent_profile(p: Poset, perm: Sequence) -> DescentProfile:
    """Positions i where perm does not strictly ascend into i+1, plus the end.

    An adjacency counts as a descent when the left element is larger or the
    two are incomparable; the final position is always a descent, so every
    nonempty permutation has at least one.
    """
    idxs = _perm_indices(p, perm)
    positions = [
        i for i in range(1, p.n) if not p.rows[0][idxs[i - 1]] >> idxs[i] & 1
    ]
    if p.n:
        positions.append(p.n)
    return DescentProfile(tuple(perm), tuple(positions))


def ascending_runs_decomposition(p: Poset, perm: Sequence) -> ChainDecomposition:
    """Split a 132-avoiding permutation at its descents into a decomposition.

    Each maximal ascending run is a chain; for 132-avoiding input the family
    is noncrossing with exactly one chain per descent (a failure of that
    property would be a counterexample and raises CheckFailure).
    """
    runs = _avoider_runs(*p.rows, _perm_indices(p, perm))
    if runs is None:
        raise ValueError("permutation must avoid the 132 pattern")
    d = ChainDecomposition._from_index_parts(p, runs)
    witness = crossing_witness(p, d)
    if witness is not None:
        raise CheckFailure(
            "ascending runs of a 132-avoiding permutation crossed", witness=witness
        )
    return d


def min_descents_over_avoiders(p: Poset, cap: int | None = DESCENT_SCAN_CAP) -> int:
    """Minimum descent count over all 132-avoiding permutations."""
    refuse_above("descent scan", cap, p.n)
    return min_descents(*p.rows, p.rows[0])


def min_descents_over_extension_avoiders(
    p: Poset, e: Sequence, cap: int | None = DESCENT_SCAN_CAP
) -> int:
    """Minimum descent count over permutations avoiding 132 relative to e."""
    refuse_above("descent scan", cap, p.n)
    rows = _extension_rows(p, e)
    if rows is None:
        raise ValueError("reference order must be a linear extension")
    return min_descents(*rows, p.rows[0])


# -- the wrap order over minimal homogeneous chains -----------------------------


@dataclass
class WrapOrder:
    """Strict order on the chains of the minimal homogeneous decomposition.

    Chain i sits below chain j when j wraps around i (some x < y < z with x,
    z in j and y in i) or when i lies entirely above j.  `rows` holds the bit
    rows of both relations (bit j of row i), their union and its transpose.
    """

    decomposition: ChainDecomposition
    rows: tuple[list[int], list[int], list[int], list[int]]


def _wrap_rows(p: Poset, d: ChainDecomposition) -> tuple[list[int], list[int], list[int], list[int]]:
    """The rows of WrapOrder on the chains of d: chain j wraps the chains that
    meet `up[lo_j] & down[hi_j]` outside chain j and lies below the chains
    whose minimum is in `up[hi_j]`; column j of the relation collects both."""
    up, down = p.rows
    chain_of = d.chain_of
    masks = [sum(1 << x for x in chain) for chain in d.chains]
    minima = sum(1 << chain[0] for chain in d.chains)
    bit = [1 << i for i in range(d.k)]
    wrapped, above, columns = [0] * d.k, [0] * d.k, [0] * d.k
    for j, chain in enumerate(d.chains):
        rest = up[chain[0]] & down[chain[-1]] & ~masks[j]
        while rest:
            i = chain_of[rest.bit_length() - 1]
            wrapped[i] |= bit[j]
            columns[j] |= bit[i]
            rest ^= rest & masks[i]  # each chain once
        for x in _bits(up[chain[-1]] & minima):
            above[chain_of[x]] |= bit[j]
            columns[j] |= bit[chain_of[x]]
    return wrapped, above, [a | b for a, b in zip(wrapped, above)], columns


def wrap_relation(p: Poset, d) -> np.ndarray:
    """The raw wrap relation on any homogeneous decomposition's chains."""
    d = _as_decomposition(p, d)
    return _unpack_rows(_wrap_rows(p, d)[2], d.k)


def wrap_order(p: Poset) -> WrapOrder:
    """Verified wrap order on the minimal homogeneous decomposition.

    Checks antisymmetry, transitivity, and that every comparable chain pair
    interleaves in a single block (one chain inside one gap of the other, or
    stacked) with exactly one wrap relation; a falsification raises
    CheckFailure since it would contradict the theory this implements.
    """
    return _verified_wrap_order(p, chain_graph(p))


def _verified_wrap_order(p: Poset, graph: ChainGraph) -> WrapOrder:
    """`wrap_order` on the chain graph of a decomposition the caller knows to be the MHCD.

    By the gap rule, comparable chains i and j interleave in one block iff no
    element of j lies below i's top but not below i's bottom, or vice versa.
    """
    d = graph.decomposition
    w = WrapOrder(d, _wrap_rows(p, d))
    _, _, up, down = w.rows
    names = d.chains_as_labels()
    for i, both in enumerate(a & b for a, b in zip(up, down)):
        if both:
            j = next(_bits(both))
            raise CheckFailure("wrap relation is not antisymmetric", witness=(names[i], names[j]))
    if _cover_rows(up, down) is None:
        closed = _closure_rows(up)
        i = next(i for i, row in enumerate(up) if closed[i] & ~row)
        j = next(_bits(closed[i] & ~up[i]))
        raise CheckFailure("wrap relation is not transitive", witness=(names[i], names[j]))
    below = p.rows[1]
    masks = [sum(1 << x for x in chain) for chain in d.chains]
    # the elements below a chain's top but not below its bottom
    spread = [below[c[0]] ^ below[c[-1]] for c in d.chains]
    for i, (a, b) in enumerate(zip(*graph.rows)):
        single = up[i] ^ down[i]  # the chains j with exactly one of i -> j, j -> i
        rest = (a | b) & -(2 << i)  # the comparable chains j > i, lowest first
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if spread[i] & masks[j] and spread[j] & masks[i]:
                fault = "comparable chains interleave in more than one block"
            elif not single & low:
                fault = "comparable chains carry no wrap relation"
            else:
                continue
            raise CheckFailure(fault, witness=(names[i], names[j]))
    return w


# -- canonical chain order (successive refinement) -------------------------------


def canonical_chain_order(
    p: Poset, *, wrap: WrapOrder | None = None
) -> tuple[tuple[int, ...], list]:
    """A linear extension of the wrap order by successive refinement.

    Repeatedly: take the maximal chains of the working set as markers; every
    other chain either lies entirely above some marker (case 1, deferred to
    the next round, whose markers land in front of everything so far) or is
    wrapped by exactly one marker (case 2, grouped right before that marker);
    groups are then refined in turn from a stack, with markers read off the
    relation's bit rows under a mask of the working set.  Anomalies raise
    CheckFailure; the constructed order is verified to extend the wrap order.
    A caller that holds the verified wrap order of the MHCD passes it as `wrap`.
    """
    w = wrap_order(p) if wrap is None else wrap
    d = w.decomposition
    wrapped, above, up, down = w.rows
    findings: list = []
    names = d.chains_as_labels()
    order: list[int] = []
    # each entry is a group to refine; a marker waits as a group of one
    todo = [list(range(d.k))]
    while todo:
        working = todo.pop()
        if len(working) <= 1:
            order.extend(working)
            continue
        while working:
            live = sum(1 << c for c in working)
            markers = [m for m in working if not up[m] & live & ~(1 << m)]
            marked = sum(1 << m for m in markers)
            groups: dict[int, list[int]] = {m: [] for m in markers}
            case_deferred: list[int] = []
            grouped = 0
            for c in working:
                if c in groups:
                    continue
                wrapping = wrapped[c] & marked
                over = above[c] & marked
                if wrapping & wrapping - 1:
                    raise CheckFailure(
                        "chain wrapped by two maximal chains",
                        witness=(names[c], [names[m] for m in _bits(wrapping)]),
                    )
                if wrapping and over:
                    raise CheckFailure(
                        "chain classified both as wrapped and as above a maximal chain",
                        witness=(names[c], names[next(_bits(wrapping))], names[next(_bits(over))]),
                    )
                if wrapping:
                    groups[wrapping.bit_length() - 1].append(c)
                    grouped |= 1 << c
                elif over:
                    case_deferred.append(c)
                else:
                    raise CheckFailure(
                        "chain not below any maximal chain of its round",
                        witness=names[c],
                    )
            for c1 in case_deferred:
                for c2 in _bits((up[c1] | down[c1]) & grouped & ~above[c1]):
                    findings.append(
                        {
                            "kind": "deferred-vs-grouped-order",
                            "deferred": list(names[c1]),
                            "grouped": list(names[c2]),
                        }
                    )
            # later rounds pop first; each group pops right before its marker
            for m in reversed(markers):
                todo += ([m], groups[m])
            working = case_deferred
    placed = 0
    for a, c in enumerate(order):
        placed |= 1 << c
        if down[c] & ~placed:
            later = next(b for b in order[a + 1:] if down[c] >> b & 1)
            raise CheckFailure(
                "constructed order does not extend the wrap order",
                witness=(names[c], names[later]),
            )
    return tuple(order), findings


def chain_concatenation(p: Poset, d: ChainDecomposition, order: Sequence[int]) -> tuple:
    """Concatenate the chains (each ascending) in the given order, as labels."""
    return tuple(p.labels[x] for ci in order for x in d.chains[ci])


def descent_optimal_permutation(p: Poset) -> tuple:
    """A permutation realizing the minimal homogeneous chain count as descents.

    Concatenating the minimal homogeneous chains along the canonical order
    yields exactly one descent per chain and avoids 132; violations raise
    CheckFailure because they would refute the construction.
    """
    d, _, _, pi, _ = _construction(p, chain_graph(p))
    if not is_132_avoiding(p, pi):
        raise CheckFailure("chain concatenation contains a 132 pattern", witness=pi)
    prof = descent_profile(p, pi)
    if prof.count != d.k:
        raise CheckFailure(
            f"chain concatenation has {prof.count} descents, expected {d.k}",
            witness=pi,
        )
    return pi


# -- plane trees and the derived extension ---------------------------------------


class TreeNode:
    """Plane tree node; the root carries label None."""

    __slots__ = ("label", "children")

    def __init__(self, label, children=None):
        self.label = label
        self.children: list[TreeNode] = children if children is not None else []

    def __repr__(self) -> str:
        return f"TreeNode({self.label!r}, {len(self.children)} children)"


def tree_to_text(root: TreeNode) -> str:
    """Nested-parentheses rendering, root as `*`."""
    parts: list[str] = []
    # an explicit stack of nodes and pending punctuation, so depth costs no recursion
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        name = "*" if item.label is None else str(item.label)
        if not item.children:
            parts.append(name)
            continue
        parts.append(name + "(")
        stack.append(")")
        for i in range(len(item.children) - 1, -1, -1):
            stack.append(item.children[i])
            if i:
                stack.append(" ")
    return "".join(parts)


def _leftmost_attachment(
    p: Poset, d: ChainDecomposition, order: Sequence[int]
) -> tuple[list[int], list[int | None]]:
    """(preorder, attachment vertex of each chain or None for the root) of
    the attachment tree.  Its leftmost path is a prefix of the preorder that
    descends in p, so the path vertices above a chain's top are its first i,
    and the chain goes in reversed at i, below pre[i - 1], ending the path."""
    up = p.rows[0]
    pre: list[int] = []
    anchor: list[int | None] = [None] * d.k
    path = 0
    for ci in reversed(order):
        chain = d.chains[ci]
        keep = up[chain[-1]] & path
        i = keep.bit_count()
        anchor[ci] = pre[i - 1] if i else None
        pre[i:i] = reversed(chain)
        path = keep | sum(1 << x for x in chain)
    return pre, anchor


def attachment_tree(p: Poset, d: ChainDecomposition, order: Sequence[int]) -> TreeNode:
    """Plane tree built by leftmost attachment of the ordered chains.

    The last chain hangs off the root reversed (largest element on top); each
    earlier chain, processed in reverse order, attaches below the lowest
    vertex on the leftmost path that exceeds the chain's maximum (the root
    when none does), becoming the new leftmost branch.  By the prefix rule,
    `_leftmost_attachment` finds each such vertex without a tree.
    """
    _, anchor = _leftmost_attachment(p, d, order)
    nodes: dict = {None: TreeNode(None)}
    for ci in reversed(order):
        node = nodes[anchor[ci]]
        for x in reversed(d.chains[ci]):
            child = nodes[x] = TreeNode(p.labels[x])
            node.children.insert(0, child)
            node = child
    return nodes[None]


def _construction(
    p: Poset, graph: ChainGraph
) -> tuple[ChainDecomposition, tuple[int, ...], list, tuple, tuple]:
    """The constructive witnesses of the bound chain on the chain graph of mhcd(p).

    Returns (d, order, findings, pi, e): the minimal homogeneous
    decomposition, its canonical chain order with that order's findings, the
    chain concatenation along the order, and the reversed preorder of the
    attachment tree.  e is not yet checked to be a linear extension.
    """
    d = graph.decomposition
    order, findings = canonical_chain_order(p, wrap=_verified_wrap_order(p, graph))
    pre, _ = _leftmost_attachment(p, d, order)
    e = tuple(p.labels[x] for x in reversed(pre))
    return d, order, findings, chain_concatenation(p, d, order), e


def derived_extension(p: Poset) -> tuple:
    """Reverse preorder of the attachment tree; verified linear extension."""
    e = _construction(p, chain_graph(p))[4]
    if not is_linear_extension(p, e):
        raise CheckFailure("derived order is not a linear extension", witness=e)
    return e


# -- the inequality chain ----------------------------------------------------------


@dataclass
class ChainBoundsReport:
    """The five minima and the constructed witnesses tying them together."""

    n: int
    min_chains: int
    min_noncrossing: int | None
    min_descents: int | None
    min_descents_ext: int | None
    min_homogeneous: int
    extension: tuple
    permutation: tuple
    noncrossing_witness: list[str]
    checks: dict
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "extension": [str(x) for x in self.extension],
            "permutation": [str(x) for x in self.permutation],
            "ok": self.ok,
        }


def verify_chain_bounds(p: Poset) -> ChainBoundsReport:
    """Compute all five minima and check the full inequality chain.

    Also validates the constructive side: the canonical concatenation has
    exactly one descent per minimal homogeneous chain and avoids 132 both
    plainly and relative to the derived extension.  Strictness of each
    inequality is recorded as a finding (input to the open question of where
    the chain can be strict), never asserted.  Refuses n > NONCROSSING_CAP
    and then n > DESCENT_SCAN_CAP.
    """
    refuse_above("noncrossing minimum", NONCROSSING_CAP, p.n)
    refuse_above("descent scan", DESCENT_SCAN_CAP, p.n)
    d, antichain = _dilworth(p)
    noncrossing = _noncrossing_minimum(p, len(antichain))
    return _chain_bounds(p, d.k, noncrossing, _construction(p, chain_graph(p)), True)


def _chain_bounds(
    p: Poset, min_chains: int, noncrossing: tuple | None, construction: tuple, scans: bool
) -> ChainBoundsReport:
    """`verify_chain_bounds` on the minima and witnesses its caller holds.

    `noncrossing` is the (size, witness) pair, or None when out of scope.
    Without `scans` the descent minima stay None and the noncrossing minimum
    is bounded by the homogeneous count directly; `scans` needs `noncrossing`.
    """
    d, _, findings, pi, e = construction
    ext = _extension_rows(p, e)
    checks = {
        "extension-is-linear": ext is not None,
        "witness-has-min-descents": descent_profile(p, pi).count == d.k,
        "witness-avoids-132": is_132_avoiding(p, pi),
        "witness-avoids-132-in-extension": ext is not None
        and _avoider_runs(*ext, _perm_indices(p, pi)) is not None,
    }
    min_nc, nc_witness = noncrossing or (None, None)
    if noncrossing:
        checks["chains-le-noncrossing"] = min_chains <= min_nc
    scan = scan_ext = None
    if scans:
        scan = min_descents_over_avoiders(p, cap=None)
        scan_ext = -1 if ext is None else min_descents(*ext, p.rows[0])
        checks["noncrossing-le-descents"] = min_nc <= scan
        checks["descents-le-descents-ext"] = scan <= scan_ext
        checks["descents-ext-le-homogeneous"] = scan_ext <= d.k
        strict = {
            "chains-lt-noncrossing": min_chains < min_nc,
            "noncrossing-lt-descents": min_nc < scan,
            "descents-lt-descents-ext": scan < scan_ext,
            "descents-ext-lt-homogeneous": scan_ext < d.k,
        }
        findings = [*findings, {"kind": "inequality-strictness", "strict": strict}]
    elif noncrossing:
        checks["noncrossing-le-homogeneous"] = min_nc <= d.k
    return ChainBoundsReport(
        n=p.n,
        min_chains=min_chains,
        min_noncrossing=min_nc,
        min_descents=scan,
        min_descents_ext=scan_ext,
        min_homogeneous=d.k,
        extension=e,
        permutation=pi,
        noncrossing_witness=nc_witness.to_lines() if noncrossing else [],
        checks=checks,
        findings=list(findings),
    )
