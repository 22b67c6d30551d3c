"""Chain decompositions, minimum chain covers and maximum antichains.

The Dilworth bound is computed by maximum matching in the split bipartite
graph (left copy x, right copy y, edge iff x < y): chains follow matched
edges, the minimum count is n - |matching|, and the complement of the Koenig
vertex cover recovers a maximum antichain of the same size.  The matching
(Hopcroft-Karp) and the Koenig cover run on the bit rows `Poset.rows`: each
BFS expands a right vertex once through a mask of those already seen, and the
depth-first searches read their candidate edges off per-layer masks of right
vertices, so no adjacency list is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    InternalInconsistencyError,
    InvalidDecompositionError,
    UnknownElementError,
    refuse_above,
)
from .poset import Poset, _topological_order

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


def is_chain_decomposition(p: Poset, parts) -> bool:
    """True iff the family partitions the ground set into chains."""
    if isinstance(parts, ChainDecomposition):
        parts = parts.chains_as_labels()
    try:
        ChainDecomposition.from_parts(p, parts)
    except InvalidDecompositionError:
        return False
    return True


# -- Dilworth bound ----------------------------------------------------------


def _hopcroft_karp(up: list[int], n: int) -> tuple[list[int], list[int]]:
    """Maximum matching of the split graph on the bit rows `up` (bit y of
    up[x] is the edge x -> y); left/right partner arrays (-1 free).

    Each phase's BFS expands every right vertex once, through a mask of the
    ones already seen.  The BFS also fills layer[d], the matched right
    vertices whose owner sits at distance d, so the depth-first searches pick
    their next edge as the lowest bit of up[x] & (free_r | layer[dist[x] + 1])
    instead of testing every edge.  Edges are still tried in increasing y, so
    the matching is the one the edge-by-edge formulation finds.
    """
    match_l = [-1] * n
    match_r = [-1] * n
    free_r = (1 << n) - 1
    inf = n + 1
    while True:
        dist = [0 if match_l[x] == -1 else inf for x in range(n)]
        layer = [0] * (n + 1)
        queue = deque(x for x in range(n) if match_l[x] == -1)
        seen = 0
        while queue:
            x = queue.popleft()
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
            break
        for x in range(n):
            if match_l[x] == -1:
                y = _augment(x, up, match_l, match_r, dist, layer, free_r, inf)
                if y != -1:
                    free_r &= ~(1 << y)
    return match_l, match_r


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
    complement of the Koenig vertex cover: Z_L and Z_R are the left and
    right vertices reachable from the free left ones by alternating paths.
    """
    n = p.n
    up = p.rows[0]
    match_l, match_r = _hopcroft_karp(up, n)
    chains = []
    for start in range(n):
        if match_r[start] != -1:
            continue
        chain = [start]
        while match_l[chain[-1]] != -1:
            chain.append(match_l[chain[-1]])
        chains.append(chain)
    in_zl = [match_l[x] == -1 for x in range(n)]
    zr = 0
    queue = deque(x for x in range(n) if in_zl[x])
    while queue:
        x = queue.popleft()
        new = up[x] & ~zr
        if match_l[x] != -1:
            new &= ~(1 << match_l[x])
        zr |= new
        while new:
            low = new & -new
            new ^= low
            owner = match_r[low.bit_length() - 1]
            if owner != -1 and not in_zl[owner]:
                in_zl[owner] = True
                queue.append(owner)
    antichain = [p.labels[x] for x in range(n) if in_zl[x] and not zr >> x & 1]
    matched = sum(1 for x in range(n) if match_l[x] != -1)
    if len(antichain) != n - matched or not is_antichain(p, antichain):
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
    """Every partition of the poset into chains, exactly once.

    Elements are placed in linear-extension order, so a chain only ever grows
    past its current maximum.
    """
    refuse_above("decomposition enumeration", cap, p.n)
    order = _topological_order(p)
    chains: list[list[int]] = []

    def place(pos: int) -> Iterator[ChainDecomposition]:
        if pos == len(order):
            yield ChainDecomposition._from_index_parts(p, [c[:] for c in chains])
            return
        v = order[pos]
        for chain in chains:
            if p.rows[0][chain[-1]] >> v & 1:
                chain.append(v)
                yield from place(pos + 1)
                chain.pop()
        chains.append([v])
        yield from place(pos + 1)
        chains.pop()

    return place(0)
