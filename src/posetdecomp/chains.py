"""Chain decompositions, minimum chain covers and maximum antichains.

The Dilworth bound is computed by maximum matching in the split bipartite
graph (left copy x, right copy y, edge iff x < y): chains follow matched
edges, the minimum count is n - |matching|, and the complement of the Koenig
vertex cover recovers a maximum antichain of the same size.  The matching
(Hopcroft-Karp) runs on the bit rows `Poset.rows`: its first phase, in which
every augmenting path is one edge, is one greedy pass; each later BFS expands
a right vertex once through a mask of those already seen, and the
depth-first searches read their candidate edges off per-layer masks of right
vertices, so no adjacency list is built.  The Koenig cover is the reach of
the matching's last BFS, the one that finds no free right vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    InternalInconsistencyError,
    InvalidDecompositionError,
    UnknownElementError,
    refuse_above,
)
from .poset import Poset, _bits, _topological_order

DECOMPOSITION_ENUMERATION_CAP = 10


def _related(p: Poset, elems: Iterable) -> tuple[list[int], int, list[int]]:
    """(the indices of elems, their bit mask, per index the bits of the mask
    it is strictly related to), read off the bit rows of p.

    A repeated element is never related to itself, since lt is irreflexive.
    """
    idxs = [p.idx(x) for x in elems]
    up, down = p.rows
    mask = 0
    for i in idxs:
        mask |= 1 << i
    return idxs, mask, [(up[i] | down[i]) & mask for i in idxs]


def is_chain(p: Poset, elems: Iterable) -> bool:
    """True iff the given elements are pairwise comparable."""
    idxs, mask, related = _related(p, elems)
    return mask.bit_count() == len(idxs) and all(
        r == mask ^ 1 << i for i, r in zip(idxs, related)
    )


def is_antichain(p: Poset, elems: Iterable) -> bool:
    """True iff the given elements are pairwise incomparable."""
    _, _, related = _related(p, elems)
    return not any(related)


@dataclass(frozen=True)
class ChainDecomposition:
    """A partition of the ground set into chains.

    Chains are stored as index tuples sorted increasingly in the poset order,
    and the family is ordered by each chain's minimum element index, so equal
    partitions compare equal as values.
    """

    poset: Poset
    chains: tuple[tuple[int, ...], ...]

    @classmethod
    def from_parts(cls, p: Poset, parts: Iterable[Iterable]) -> "ChainDecomposition":
        """Validate and canonicalize a family of label sets; raises on bad input."""
        index_parts = []
        for part in parts:
            part = list(part)
            try:
                index_parts.append([p.idx(x) for x in part])
            except UnknownElementError as exc:
                raise InvalidDecompositionError(f"unknown element {exc.args[0]!r}") from None
        return cls._from_index_parts(p, index_parts)

    @classmethod
    def _from_index_parts(
        cls, p: Poset, parts: Sequence[Sequence[int]]
    ) -> "ChainDecomposition":
        # a chain listed by predecessor count ascends, and a part is a chain
        # iff that listing relates every element to the next one
        preds = p.pred_counts
        up, down = p.rows
        seen: set[int] = set()
        total = 0
        sorted_chains = []
        for part in parts:
            if not part:
                raise InvalidDecompositionError("empty chain")
            total += len(part)
            seen.update(part)
            ordered = sorted(part, key=preds.__getitem__)
            if not all(up[a] >> b & 1 for a, b in zip(ordered, ordered[1:])):
                a, b = next(
                    (a, b)
                    for a_pos, a in enumerate(part)
                    for b in part[a_pos + 1:]
                    if not (up[a] | down[a]) >> b & 1
                )
                raise InvalidDecompositionError(
                    f"elements {p.labels[a]!r} and {p.labels[b]!r} share a part "
                    "but are incomparable"
                )
            sorted_chains.append(tuple(ordered))
        if total != p.n or len(seen) != p.n:
            raise InvalidDecompositionError("parts do not partition the ground set")
        sorted_chains.sort(key=lambda c: c[0])
        return cls(p, tuple(sorted_chains))

    @classmethod
    def _from_masks(cls, p: Poset, masks: Iterable[int]) -> "ChainDecomposition":
        """Validate and canonicalize a family of index bit masks."""
        return cls._from_index_parts(p, [list(_bits(mask)) for mask in masks])

    @property
    def k(self) -> int:
        return len(self.chains)

    @cached_property
    def chain_of(self) -> tuple[int, ...]:
        """Back-map: element index -> index of its chain."""
        owner = [-1] * self.poset.n
        for ci, chain in enumerate(self.chains):
            for x in chain:
                owner[x] = ci
        return tuple(owner)

    def chains_as_labels(self) -> tuple[tuple, ...]:
        return tuple(tuple(self.poset.labels[x] for x in chain) for chain in self.chains)

    def to_lines(self) -> list[str]:
        """One `chain: x1 < x2 < ...` line per chain."""
        return [
            "chain: " + " < ".join(str(self.poset.labels[x]) for x in chain)
            for chain in self.chains
        ]

    def __repr__(self) -> str:
        inner = "; ".join(
            " < ".join(str(self.poset.labels[x]) for x in chain) for chain in self.chains
        )
        return f"ChainDecomposition({inner})"


def decomposition_from_lines(p: Poset, lines: Iterable[str]) -> ChainDecomposition:
    """Parse the `chain: x1 < x2 < ...` serialization back into a decomposition."""
    parts = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("chain:"):
            raise InvalidDecompositionError(f"expected 'chain: ...', got {line!r}")
        body = line[len("chain:"):].strip()
        parts.append([x.strip() for x in body.split("<")])
    return ChainDecomposition.from_parts(p, parts)


def _as_decomposition(p: Poset, parts) -> ChainDecomposition:
    """The decomposition of p that `parts` stands for: the one rule by which
    every entry point of the chain layer reads its decomposition argument.

    A ChainDecomposition of p, or of a poset equal to p, is used as it
    stands.  Anything else, a family of label sets or a decomposition of
    another poset, is read by its labels and validated, so an unknown label
    or a part that is not a chain of p raises InvalidDecompositionError.
    Chain indices that a caller passes in or reads off a result (orders,
    chain permutations, matrix rows, cut heights) refer to the returned
    decomposition.
    """
    if isinstance(parts, ChainDecomposition):
        if parts.poset is p or parts.poset == p:
            return parts
        parts = parts.chains_as_labels()
    return ChainDecomposition.from_parts(p, parts)


def is_chain_decomposition(p: Poset, parts) -> bool:
    """True iff the family partitions the ground set into chains.

    The family is read by `_as_decomposition`; a ChainDecomposition that it
    uses as it stands is validated again on its index chains.
    """
    try:
        d = _as_decomposition(p, parts)
        if d is parts:
            ChainDecomposition._from_index_parts(p, d.chains)
    except InvalidDecompositionError:
        return False
    return True


# -- Dilworth bound ----------------------------------------------------------


def _hopcroft_karp(
    up: list[int], n: int
) -> tuple[list[int], list[int], tuple[list[int], int]]:
    """Maximum matching of the split graph on the bit rows `up` (bit y of
    up[x] is the edge x -> y): the left/right partner arrays (-1 free) and
    the reach of the last BFS.

    In the first phase every vertex is free, so every augmenting path is a
    single edge: that phase's BFS fills no layer, and its search from each
    left vertex x, in index order, takes the lowest right vertex of up[x]
    still free.  One greedy loop does exactly that, so the matching it
    leaves, and with it every later phase, is that of the full first phase.

    Each later phase's BFS expands every right vertex once, through a mask
    of the ones already seen.  The BFS also fills layer[d], the matched right
    vertices whose owner sits at distance d, so the depth-first searches pick
    their next edge as the lowest bit of up[x] & (free_r | layer[dist[x] + 1])
    instead of testing every edge.  Edges are still tried in increasing y, so
    the matching is the one the edge-by-edge formulation finds.

    The last BFS sees no free right vertex.  Its reach (zl, zr), the left
    vertices it dequeues, in that order, and the mask of the right vertices
    it saw, is Koenig's pair: the vertices that alternating paths reach from
    the free left ones.  A matched x is dequeued only after its partner was
    seen, so expanding all of up[x] adds no right vertex those paths miss.
    """
    match_l = [-1] * n
    match_r = [-1] * n
    free_r = (1 << n) - 1
    for x in range(n):
        cand = up[x] & free_r
        if cand:
            low = cand & -cand
            free_r ^= low
            match_l[x] = y = low.bit_length() - 1
            match_r[y] = x
    inf = n + 1
    while True:
        dist = [0 if match_l[x] == -1 else inf for x in range(n)]
        layer = [0] * (n + 1)
        queue = [x for x in range(n) if match_l[x] == -1]
        seen = 0
        # the loop reads the owners that it appends to the queue
        for x in queue:
            new = up[x] & ~seen
            seen |= new
            owned = new & ~free_r
            layer[dist[x] + 1] |= owned
            while owned:
                low = owned & -owned
                owned ^= low
                owner = match_r[low.bit_length() - 1]
                dist[owner] = dist[x] + 1
                queue.append(owner)
        if not seen & free_r:
            return match_l, match_r, (queue, seen)
        for x in range(n):
            if match_l[x] == -1:
                y = _augment(x, up, match_l, match_r, dist, layer, free_r, inf)
                if y != -1:
                    free_r &= ~(1 << y)


def _augment(
    root: int,
    up: list[int],
    match_l: list[int],
    match_r: list[int],
    dist: list[int],
    layer: list[int],
    free_r: int,
    inf: int,
) -> int:
    """One augmenting path from a free left vertex along the BFS layers; the
    free right vertex it ends at, or -1.

    Depth-first with an explicit stack: `path` holds the left vertices of the
    alternating path, so path[i] sits at distance i, and the right vertex
    joining path[i] to path[i + 1] is match_l[path[i + 1]].  `lo` is the
    lowest right vertex not yet tried at the top of the path.  A dead-end
    left vertex gets distance `inf`, as in the recursive formulation, and
    leaves its layer, so later searches of this phase skip it.
    """
    path = [root]
    lo = 0
    while path:
        x = path[-1]
        d = len(path)
        cand = (up[x] & (free_r | layer[d])) >> lo
        if not cand:
            path.pop()
            if path:
                # x leaves its layer; its parent resumes after x's right vertex
                layer[dist[x]] &= ~(1 << match_l[x])
                lo = match_l[x] + 1
            dist[x] = inf
            continue
        y = lo + (cand & -cand).bit_length() - 1
        owner = match_r[y]
        if owner != -1:
            path.append(owner)
            lo = 0
            continue
        # flip the path: each right vertex moves to its new owner's layer
        end = y
        for i in range(len(path) - 1, -1, -1):
            a = path[i]
            prev = match_l[a]
            match_l[a] = y
            match_r[y] = a
            layer[i + 1] &= ~(1 << y)
            layer[i] |= 1 << y
            y = prev
        return end
    return -1


def _dilworth(p: Poset) -> tuple[ChainDecomposition, tuple]:
    """A minimum chain decomposition and a maximum antichain from one matching.

    The chains follow matched edges; the antichain, as labels, is the
    complement of the Koenig vertex cover: the left vertices in Z_L that are
    not in Z_R, the reach of the matching's last BFS.
    """
    n = p.n
    match_l, match_r, (zl, zr) = _hopcroft_karp(p.rows[0], n)
    chains = []
    for start in range(n):
        if match_r[start] != -1:
            continue
        chain = [start]
        while match_l[chain[-1]] != -1:
            chain.append(match_l[chain[-1]])
        chains.append(chain)
    antichain = [p.labels[x] for x in sorted(zl) if not zr >> x & 1]
    if len(antichain) != match_l.count(-1) or not is_antichain(p, antichain):
        raise InternalInconsistencyError("cover complement is not a maximum antichain")
    return ChainDecomposition._from_index_parts(p, chains), tuple(antichain)


def minimum_chain_decomposition(p: Poset) -> ChainDecomposition:
    """A minimum-size chain decomposition (Dilworth bound) via matching."""
    return _dilworth(p)[0]


def maximum_antichain(p: Poset) -> tuple:
    """A maximum antichain, as labels, from the Koenig cover complement."""
    return _dilworth(p)[1]


def width(p: Poset) -> int:
    """Size of a maximum antichain (= minimum number of chains)."""
    return len(maximum_antichain(p))


# -- exhaustive enumeration ---------------------------------------------------


def enumerate_chain_decompositions(
    p: Poset,
    cap: int | None = DECOMPOSITION_ENUMERATION_CAP,
) -> Iterator[ChainDecomposition]:
    """Every partition of the poset into chains, exactly once, in the order
    of `_partition_walk`."""
    walk = _partition_walk(p, cap)
    return (ChainDecomposition._from_masks(p, masks) for masks, _ in walk)


def _partition_walk(p: Poset, cap: int | None) -> Iterator[tuple[tuple[int, ...], bool]]:
    """(masks, homogeneous) for every partition of the poset into chains.

    Elements are placed in `_topological_order`, so a chain only ever grows
    past its top: element v joins each chain whose top lies below it, in the
    order the chains were opened, and then opens a chain of its own.  The
    chains are bit masks, listed in the order they were opened.

    Homogeneity is decided on the way down, on the comparability rows
    comp[x] = up[x] | down[x]: a cross pair is tested when its later element
    v is placed.  A new chain {v} must meet every chain in none or all of its
    elements.  When v joins chain c, it must meet every other chain as c's
    top does: in a partition not yet mixed, the top meets each other chain
    in none or all of its elements, so this holds iff v does too and the
    answer keeps c's status towards that chain.  A mixed partition stays
    mixed down the recursion.
    """
    refuse_above("decomposition enumeration", cap, p.n)
    order = _topological_order(p)
    up, down = p.rows
    comp = [u | d for u, d in zip(up, down)]
    n = p.n
    tops: list[int] = []
    masks: list[int] = []

    def place(pos: int, placed: int, mixed: bool) -> Iterator[tuple[tuple[int, ...], bool]]:
        if pos == n:
            yield tuple(masks), not mixed
            return
        v = order[pos]
        bit = 1 << v
        row = comp[v] & placed
        for c, top in enumerate(tops):
            if up[top] & bit:
                mask = masks[c]
                tops[c], masks[c] = v, mask | bit
                yield from place(
                    pos + 1, placed | bit, mixed or (row ^ comp[top]) & placed & ~mask != 0
                )
                tops[c], masks[c] = top, mask
        opened = mixed or any(row & mask not in (0, mask) for mask in masks)
        tops.append(v)
        masks.append(bit)
        yield from place(pos + 1, placed | bit, opened)
        tops.pop()
        masks.pop()

    return place(0, 0, False)
