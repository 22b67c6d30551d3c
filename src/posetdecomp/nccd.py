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
plane tree built by leftmost attachment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .chains import ChainDecomposition, _dilworth, width
from .errors import CheckFailure, InternalInconsistencyError, refuse_above
from .hcd import ChainGraph, _as_decomposition, chain_graph, mhcd
from .kernels import min_descents, permutations_avoiding
from .poset import (
    Poset,
    _bitrows,
    _cover_rows,
    _extension_rows,
    _topological_order,
    is_linear_extension,
    transitive_closure,
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
            if p.lt[chain[-1], v] and not _creates_crossing(up, down, chains, j, v):
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
        i for i in range(1, p.n) if not p.lt[idxs[i - 1], idxs[i]]
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

    Chain i sits below chain j when j wraps around i (`wrapped[i, j]`: some
    x < y < z with x, z in j and y in i) or when i lies entirely above j
    (`above[i, j]`).
    """

    decomposition: ChainDecomposition
    wrapped: np.ndarray
    above: np.ndarray

    @property
    def relation(self) -> np.ndarray:
        return self.wrapped | self.above


def _wrap_matrices(p: Poset, d: ChainDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The `wrapped` and `above` matrices of WrapOrder, with False diagonals."""
    lo = np.array([c[0] for c in d.chains], dtype=np.intp)
    hi = np.array([c[-1] for c in d.chains], dtype=np.intp)
    # between[j, y]: y lies strictly between the ends of chain j
    between = p.lt[lo] & p.lt[:, hi].T
    member = np.arange(d.k)[:, None] == np.array(d.chain_of, dtype=np.intp)
    wrapped = member @ between.T
    np.fill_diagonal(wrapped, False)
    return wrapped, p.lt[np.ix_(hi, lo)].T


def wrap_relation(p: Poset, d) -> np.ndarray:
    """The raw wrap relation on any homogeneous decomposition's chains."""
    wrapped, above = _wrap_matrices(p, _as_decomposition(p, d))
    return wrapped | above


def wrap_order(p: Poset, d: ChainDecomposition | None = None) -> WrapOrder:
    """Verified wrap order on the minimal homogeneous decomposition.

    Checks antisymmetry, transitivity, and that every comparable chain pair
    interleaves in a single block (one chain inside one gap of the other, or
    stacked) with exactly one wrap relation; a falsification raises
    CheckFailure since it would contradict the theory this implements.
    """
    if d is None:
        d = mhcd(p)
    else:
        d = _as_decomposition(p, d)
        if d != mhcd(p):
            raise ValueError("wrap order is only defined on the minimal homogeneous decomposition")
    return _verified_wrap_order(p, chain_graph(p, d))


def _verified_wrap_order(p: Poset, graph: ChainGraph) -> WrapOrder:
    """`wrap_order` on the chain graph of a decomposition the caller knows to be the MHCD."""
    d = graph.decomposition
    w = WrapOrder(d, *_wrap_matrices(p, d))
    rel = w.relation
    comp = graph.adjacency
    names = d.chains_as_labels()
    both = rel & rel.T
    if both.any():
        i, j = map(int, np.argwhere(both)[0])
        raise CheckFailure("wrap relation is not antisymmetric", witness=(names[i], names[j]))
    if _cover_rows(*_bitrows(rel)) is None:
        missing = np.argwhere(transitive_closure(rel) & ~rel)
        i, j = map(int, missing[0])
        raise CheckFailure("wrap relation is not transitive", witness=(names[i], names[j]))
    for i in range(d.k):
        for j in range(i + 1, d.k):
            if not comp[i, j]:
                continue
            blocks = _interleaving_blocks(p, d.chains[i], d.chains[j])
            if blocks > 3:
                raise CheckFailure(
                    "comparable chains interleave in more than one block",
                    witness=(names[i], names[j]),
                )
            if bool(rel[i, j]) == bool(rel[j, i]):
                raise CheckFailure(
                    "comparable chains carry no wrap relation",
                    witness=(names[i], names[j]),
                )
    return w


def _interleaving_blocks(p: Poset, chain_a: tuple[int, ...], chain_b: tuple[int, ...]) -> int:
    """Alternation blocks in the merged total order of two comparable chains."""
    # comparable chains of a homogeneous decomposition form one chain, which
    # the predecessor counts in p list in order
    union = [(x, 0) for x in chain_a] + [(x, 1) for x in chain_b]
    union.sort(key=lambda pair: p.pred_counts[pair[0]])
    blocks = 1
    for (_, side), (_, prev_side) in zip(union[1:], union):
        if side != prev_side:
            blocks += 1
    return blocks


# -- canonical chain order (successive refinement) -------------------------------


def canonical_chain_order(
    p: Poset, d: ChainDecomposition | None = None, *, wrap: WrapOrder | None = None
) -> tuple[tuple[int, ...], list]:
    """A linear extension of the wrap order by successive refinement.

    Repeatedly: take the maximal chains of the working set as markers; every
    other chain either lies entirely above some marker (case 1, deferred to
    the next round, whose markers land in front of everything so far) or is
    wrapped by exactly one marker (case 2, grouped right before that marker);
    groups are then refined recursively.  Classification anomalies raise
    CheckFailure; the constructed order is verified to extend the wrap order.
    A caller that holds the verified wrap order of the MHCD passes it as
    `wrap`, which then stands in for `d`.
    """
    w = wrap_order(p, d) if wrap is None else wrap
    d = w.decomposition
    rel = w.relation
    findings: list = []
    names = d.chains_as_labels()

    def arrange(members: list[int]) -> list[int]:
        if len(members) <= 1:
            return list(members)
        rounds: list[list[tuple[list[int], int]]] = []
        working = sorted(members)
        while working:
            markers = [
                m for m in working if not any(rel[m, u] for u in working if u != m)
            ]
            groups: dict[int, list[int]] = {m: [] for m in markers}
            case_deferred: list[int] = []
            case_grouped: list[int] = []
            for c in working:
                if c in groups:
                    continue
                wrapping = [m for m in markers if w.wrapped[c, m]]
                above = [m for m in markers if w.above[c, m]]
                if len(wrapping) > 1:
                    raise CheckFailure(
                        "chain wrapped by two maximal chains",
                        witness=(names[c], [names[m] for m in wrapping]),
                    )
                if wrapping and above:
                    raise CheckFailure(
                        "chain classified both as wrapped and as above a maximal chain",
                        witness=(names[c], names[wrapping[0]], names[above[0]]),
                    )
                if wrapping:
                    groups[wrapping[0]].append(c)
                    case_grouped.append(c)
                elif above:
                    case_deferred.append(c)
                else:
                    raise CheckFailure(
                        "chain not below any maximal chain of its round",
                        witness=names[c],
                    )
            for c1 in case_deferred:
                for c2 in case_grouped:
                    if (rel[c1, c2] or rel[c2, c1]) and not w.above[c1, c2]:
                        findings.append(
                            {
                                "kind": "deferred-vs-grouped-order",
                                "deferred": list(names[c1]),
                                "grouped": list(names[c2]),
                            }
                        )
            rounds.append([(groups[m], m) for m in markers])
            working = sorted(case_deferred)
        out: list[int] = []
        for round_items in reversed(rounds):
            for group, marker in round_items:
                out.extend(arrange(group))
                out.append(marker)
        return out

    order = arrange(list(range(d.k)))
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if rel[order[b], order[a]]:
                raise CheckFailure(
                    "constructed order does not extend the wrap order",
                    witness=(names[order[a]], names[order[b]]),
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


def attachment_tree(p: Poset, d: ChainDecomposition, order: Sequence[int]) -> TreeNode:
    """Plane tree built by leftmost attachment of the ordered chains.

    The last chain hangs off the root reversed (largest element on top); each
    earlier chain, processed in reverse order, attaches below the lowest
    vertex on the leftmost path that exceeds the chain's maximum (the root
    when none does), becoming the new leftmost branch.
    """
    root = TreeNode(None)
    ordered = [d.chains[ci] for ci in order]
    if not ordered:
        return root

    def attach(parent: TreeNode, chain: tuple[int, ...]) -> None:
        node = parent
        for x in reversed(chain):
            child = TreeNode(p.labels[x])
            node.children.insert(0, child)
            node = child

    attach(root, ordered[-1])
    for chain in reversed(ordered[:-1]):
        top = chain[-1]
        path = []
        node = root
        while node.children:
            node = node.children[0]
            path.append(node)
        target = root
        for cand in reversed(path):
            if p.lt[top, p.idx(cand.label)]:
                target = cand
                break
        attach(target, chain)
    return root


def _preorder(node: TreeNode, out: list) -> None:
    """Append the labels below node (node first, children left to right)."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node.label is not None:
            out.append(node.label)
        stack.extend(reversed(node.children))


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
    walk: list = []
    _preorder(attachment_tree(p, d, order), walk)
    return d, order, findings, chain_concatenation(p, d, order), tuple(reversed(walk))


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
