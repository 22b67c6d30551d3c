"""Brute-force oracles, kept deliberately independent of the package internals.

Everything here recomputes structure from first principles with plain loops
over indices so test expectations never share code paths with the library.
"""

import itertools
import math
import random
import sys
import threading
from collections import deque
from typing import Sequence

import numpy as np


def comparable(p, a, b) -> bool:
    return bool(p.lt[a, b]) or bool(p.lt[b, a])


def bit_rows(m) -> tuple[list[int], list[int]]:
    """(up, down) of a square 0/1 matrix: bit y of up[x] and bit x of down[y]
    set when m[x, y], cell by cell."""
    n = len(m)
    up = [0] * n
    down = [0] * n
    for x in range(n):
        for y in range(n):
            if m[x, y]:
                up[x] |= 1 << y
                down[y] |= 1 << x
    return up, down


def extension_matrix(p, e):
    """m[x, y] when x comes before y in the sequence e: its rank matrix."""
    rank = {label: i for i, label in enumerate(e)}
    r = np.array([rank[label] for label in p.labels], dtype=np.int64)
    return r[:, None] < r[None, :]


def set_partitions(items):
    """All partitions of a list, as lists of lists (restricted growth strings)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def is_chain_block(p, block) -> bool:
    return all(comparable(p, a, b) for a, b in itertools.combinations(block, 2))


def chain_partitions(p):
    """All partitions of range(n) into chains, blocks sorted by poset order."""
    for partition in set_partitions(range(p.n)):
        if all(is_chain_block(p, block) for block in partition):
            yield [
                sorted(block, key=lambda x: sum(bool(p.lt[y, x]) for y in block))
                for block in partition
            ]


def chain_partitions_by_placement(p):
    """The library's chain-partition enumeration before it ran on bit masks,
    kept as the order oracle.

    Elements are placed in order of predecessor count (ties by index); each
    joins every chain whose top lies below it, in the order the chains were
    opened, and then opens a chain of its own.  Yields every partition as a
    list of ascending index lists, in opening order.
    """
    order = sorted(range(p.n), key=lambda x: int(p.lt[:, x].sum()))
    chains = []

    def place(pos):
        if pos == len(order):
            yield [chain[:] for chain in chains]
            return
        v = order[pos]
        for chain in chains:
            if p.lt[chain[-1], v]:
                chain.append(v)
                yield from place(pos + 1)
                chain.pop()
        chains.append([v])
        yield from place(pos + 1)
        chains.pop()

    yield from place(0)


def brute_min_chain_partition(p) -> int:
    return min((len(part) for part in chain_partitions(p)), default=0)


def homogeneous_partition(p, partition) -> bool:
    for ca, cb in itertools.combinations(partition, 2):
        flags = {comparable(p, a, b) for a in ca for b in cb}
        if len(flags) > 1:
            return False
    return True


def brute_minimal_homogeneous(p):
    """All minimum-size homogeneous chain partitions, as sets of tuples."""
    hom = [part for part in chain_partitions(p) if homogeneous_partition(p, part)]
    least = min((len(part) for part in hom), default=0)
    return [
        frozenset(tuple(block) for block in part) for part in hom if len(part) == least
    ]


def chain_comparability(p, chains):
    """The chain comparability of a decomposition by a loop over element pairs.

    Returns (comp, mixed): the k x k comparability matrix, and the first pair
    (i, j), i < j, whose cross pairs mix comparable and incomparable ones
    (None when homogeneous).  The matrix is complete only when mixed is None.
    """
    k = len(chains)
    comp = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            pairs = [comparable(p, x, y) for x in chains[i] for y in chains[j]]
            if all(pairs):
                comp[i, j] = comp[j, i] = True
            elif any(pairs):
                return comp, (i, j)
    return comp, None


def comparable_pairs_by_walk(p, d):
    """`hcd._comparable_pairs` as the walk over chain pairs it replaced:
    (out, into, mixed), with out and into complete only when mixed is None.

    On the bit rows of p: chain i reaches the elements comparable to all of
    its elements (`inside`, the AND of their closed rows) or to some of them
    (`reach`, the OR).  Chain j is comparable to i when it lies in inside[i]
    and incomparable when it misses reach[i]; anything else is mixed.  Chain
    i visits only the later chains that meet reach[i], and the order of the
    minima of two comparable chains directs the pair.
    """
    up, down = p.rows
    chain_of = d.chain_of
    masks, inside, reach = [], [], []
    for chain in d.chains:
        mask, every, some = 0, -1, 0
        for x in chain:
            closed = up[x] | down[x] | 1 << x
            mask |= 1 << x
            every &= closed
            some |= closed
        masks.append(mask)
        inside.append(every)
        reach.append(some)
    low = [1 << c[0] for c in d.chains]
    out, into = [0] * d.k, [0] * d.k
    seen = 0  # the elements of chains 0..i
    for i, chain in enumerate(d.chains):
        seen |= masks[i]
        rest = reach[i] & ~seen
        above, below = up[chain[0]], down[chain[0]]
        mixed = []
        while rest:
            j = chain_of[rest.bit_length() - 1]
            rest ^= rest & masks[j]
            if masks[j] & inside[i] != masks[j]:
                mixed.append(j)
            elif above & low[j]:
                out[i] |= 1 << j
                into[j] |= 1 << i
            else:
                assert below & low[j], "comparable chains with incomparable minima"
                out[j] |= 1 << i
                into[i] |= 1 << j
        if mixed:
            return out, into, (i, min(mixed))
    return out, into, None


def merge_fixpoint(p, shuffle_seed=None):
    """Greedy chain merging from singletons until no pair is mergeable.

    Two chains are mergeable when every cross pair is comparable and they
    relate alike to every other chain.  Each round lists every mergeable
    pair afresh from element comparabilities; with a seed the round merges a
    uniformly drawn one, otherwise the first.  Returns the chains as a
    frozenset of index tuples, each in poset order.
    """
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    comp = [[comparable(p, a, b) for b in range(p.n)] for a in range(p.n)]
    chains = [[x] for x in range(p.n)]
    while True:
        k = len(chains)
        joined = [
            [all(comp[a][b] for a in chains[i] for b in chains[j]) for j in range(k)]
            for i in range(k)
        ]
        mergeable = [
            (i, j)
            for i, j in itertools.combinations(range(k), 2)
            if joined[i][j]
            and all(joined[i][t] == joined[j][t] for t in range(k) if t not in (i, j))
        ]
        if not mergeable:
            break
        i, j = rng.choice(mergeable) if rng else mergeable[0]
        chains[i] += chains.pop(j)
    return frozenset(
        tuple(sorted(c, key=lambda x: sum(bool(p.lt[y, x]) for y in c))) for c in chains
    )


def replay_ready_pairs(ready, seed=None):
    """The merges (i, j), in firing order, of one merge loop run from
    `ready`, the merges of its first round in (i, j) order, which it leaves
    intact.

    Each round fires the candidate that the next state of `draw_states(seed)`
    picks among them or, with seed None, the first; after each merge (i, j)
    the candidates lose the pairs that hold j, and no pair is ever added.
    That none needs adding is the lemma in the docstring of
    `verify._merge_table`; `merge_sequence_by_rescan`, which lists the
    candidates afresh each round, must fire the same merges.
    """
    states = None if seed is None else draw_states(seed)
    candidates = ready
    merges = []
    while candidates:
        i, j = candidates[pick(states, len(candidates))] if states else candidates[0]
        merges.append((i, j))
        candidates = [c for c in candidates if j not in c]
    return merges


def merge_sequence_by_rescan(p, shuffle_seed=None):
    """The merges (i, j) of the greedy merge loop, by a rescan per round.

    On the bit rows, comp[x] = up[x] | down[x]; chain i is named by its least
    index and keeps comp[i] when j merges in.  Each round lists every alive
    comparable pair (i, j), i < j, whose rows agree off i and j on the alive
    elements, in (i, j) order, and fires the first or, with a seed, the one
    that the next state of `draw_states(shuffle_seed)` picks.
    """
    up, down = p.rows
    comp = [u | d for u, d in zip(up, down)]
    alive = (1 << p.n) - 1
    states = None if shuffle_seed is None else draw_states(shuffle_seed)

    def bits(mask):
        return [x for x in range(p.n) if mask >> x & 1]

    merges = []
    while True:
        candidates = [
            (i, j)
            for i in bits(alive)
            for j in bits(comp[i] & alive & -(2 << i))
            if not (comp[i] ^ comp[j]) & alive & ~(1 << i | 1 << j)
        ]
        if not candidates:
            return merges
        i, j = candidates[pick(states, len(candidates))] if states else candidates[0]
        merges.append((i, j))
        alive ^= 1 << j


def draw_states(seed):
    """The 64-bit states of the library's seeded draw stream (the one the
    product-replacement words of its embedding check draw from), one per draw:
    splitmix64's finalizer (Steele, Lea & Flood 2014) mixes seed plus the
    golden gamma once, and each draw then takes one step of Knuth's MMIX
    linear congruential generator."""
    z = (seed + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    state = z ^ (z >> 31)
    while True:
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        yield state


def pick(states, m):
    """An index in range(m): the next state's high 32 bits, mod m."""
    return (next(states) // 2**32) % m


def closure_by_squaring(rel):
    """Transitive closure by repeated int64 squaring of the relation matrix."""
    closed = np.asarray(rel).astype(np.int64)
    while True:
        grown = (((closed @ closed) > 0) | (closed > 0)).astype(np.int64)
        if np.array_equal(grown, closed):
            return closed.astype(bool)
        closed = grown


def _two_step(rel):
    f = np.asarray(rel, dtype=np.float32)
    return (f @ f) > 0


def transitive_by_product(lt) -> bool:
    """The dense transitivity check: no two-step path i -> k -> j misses lt[i, j].

    One float32 product of the 0/1 matrix with itself; its entries count at
    most n middle points, so they are exact for n < 2**24.
    """
    lt = np.asarray(lt, dtype=bool)
    return not (~lt & _two_step(lt)).any()


def covers_by_product(p) -> list:
    """Hasse diagram pairs: the strict pairs with no two-step path, row-major."""
    hasse = p.lt & ~_two_step(p.lt)
    return [(p.labels[i], p.labels[j]) for i, j in zip(*np.nonzero(hasse))]


def near_orders(seed: int, count: int, nmax: int = 12):
    """Irreflexive antisymmetric relations on at most nmax points, transitive or not.

    Cycles through three kinds: a closed order (the closure of a random
    acyclic relation, in scrambled labels) with one pair flipped; a random
    orientation of a random set of pairs; and a closed order or random
    orientation with a directed 3-cycle laid over it.
    """
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(3, nmax)
        density = rng.choice((0.1, 0.2, 0.3, 0.5))
        perm = list(range(n))
        rng.shuffle(perm)
        if i % 3 == 1 or (i % 3 == 2 and rng.random() < 0.5):
            rel = np.zeros((n, n), dtype=bool)
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < density:
                    rel[(a, b) if rng.random() < 0.5 else (b, a)] = True
        else:
            upper = np.triu(np.array([[rng.random() < density for _ in range(n)] for _ in range(n)]), 1)
            rel = closure_by_squaring(upper)[np.ix_(perm, perm)]
        if i % 3 == 0:
            pairs = np.argwhere(rel)
            if len(pairs):
                a, b = pairs[rng.randrange(len(pairs))]
                rel[a, b], rel[b, a] = False, True
        elif i % 3 == 2:
            a, b, c = rng.sample(range(n), 3)
            for x, y in ((a, b), (b, c), (c, a)):
                rel[x, y], rel[y, x] = True, False
        yield rel


def find_cycle(rel):
    """The library's cycle search before it also closed the relation, kept
    verbatim as the witness oracle.

    Witness cycle (as an index list) in a directed relation, else None.
    Depth-first search from each unvisited index in turn, successors in
    index order, with an explicit stack; the witness is the stretch of the
    current path from the first back edge's target to its end.
    """
    n = rel.shape[0]
    succ = [np.flatnonzero(row).tolist() for row in rel]
    color = [0] * n  # 0 unvisited, 1 on the path, 2 done
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        path = [root]
        pending = [iter(succ[root])]
        while pending:
            for w in pending[-1]:
                if color[w] == 1:
                    return path[path.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    pending.append(iter(succ[w]))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


# -- loading through a dense relation matrix (the path the library took
# before a poset stored only the bit rows of its order)


def close_acyclic_by_matrix(rel):
    """(witness cycle, None) for a relation matrix with a directed cycle, else
    (None, closure), kept verbatim from the library's matrix-reading search.

    Depth-first search from each unvisited index in turn, successors in
    index order, with an explicit stack; a finished node's reach row is the
    OR of reach[w] | 1 << w over its successors w, and the rows are unpacked
    into the boolean closure at the end.
    """
    n = rel.shape[0]
    succ = [[] for _ in range(n)]
    flat = np.flatnonzero(rel)
    for x, w in zip((flat // n).tolist(), (flat % n).tolist()):
        succ[x].append(w)  # row-major, so each list is in index order
    color = [0] * n  # 0 unvisited, 1 on the path, 2 done
    reach = [0] * n
    for root in range(n):
        if color[root]:
            continue
        color[root] = 1
        path = [root]
        pending = [iter(succ[root])]
        while pending:
            for w in pending[-1]:
                if color[w] == 1:
                    return path[path.index(w):], None
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    pending.append(iter(succ[w]))
                    break
            else:
                v = path.pop()
                color[v] = 2
                pending.pop()
                row = 0
                for w in succ[v]:
                    row |= reach[w] | 1 << w
                reach[v] = row
    width = (n + 7) // 8
    blob = b"".join(row.to_bytes(width, "little") for row in reach)
    packed = np.frombuffer(blob, dtype=np.uint8).reshape(n, width)
    return None, np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def closure_of_pairs(labels, pairs):
    """The strict-order matrix that loading the acyclic pairs (x, y), x < y,
    gave: a dense relation closed by `close_acyclic_by_matrix`."""
    index = {x: i for i, x in enumerate(labels)}
    rel = np.zeros((len(labels), len(labels)), dtype=bool)
    for x, y in pairs:
        rel[index[x], index[y]] = True
    cycle, closed = close_acyclic_by_matrix(rel)
    assert cycle is None
    return closed


def read_poset_text(text):
    """What the text reader returns, by the two-pass reader it replaced: the
    lines are checked and their label pairs listed first, then mapped to
    indices and closed, so no check shares a step with the filing.

    ("poset", labels, up rows) for a poset, ("FormatError", message, line)
    for malformed text, and ("CycleError", message, witness labels) for a
    cycle, whose witness is `find_cycle`'s on the relation matrix.  Every
    label on the element line is checked, where the reader checks them only
    when the line holds a '<' or a second 'elements:'.
    """

    def malformed(message, line):
        return ("FormatError", message if line is None else f"line {line}: {message}", line)

    labels = None
    pairs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if labels is None:
            if not line.startswith("elements:"):
                return malformed("expected an 'elements:' line first", lineno)
            labels = line[len("elements:"):].split()
            for x in labels:
                if "<" in x or x.startswith("elements:"):
                    return malformed(f"label {x!r} is not allowed in the text format", lineno)
            for x in labels:
                if x in seen:
                    return malformed(f"duplicate element {x!r}", lineno)
                seen.add(x)
            continue
        if line.startswith("elements:"):
            return malformed("second 'elements:' line", lineno)
        parts = line.split("<")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            return malformed(f"expected 'x < y', got {line!r}", lineno)
        x, y = parts[0].strip(), parts[1].strip()
        for side in (x, y):
            if side not in seen:
                return malformed(f"unknown element {side!r}", lineno)
        if x == y:
            return malformed(f"element {x!r} related to itself", lineno)
        pairs.append((x, y))
    if labels is None:
        return malformed("missing 'elements:' line", None)
    index = {x: i for i, x in enumerate(labels)}
    rel = np.zeros((len(labels), len(labels)), dtype=bool)
    for x, y in pairs:
        rel[index[x], index[y]] = True
    cycle = find_cycle(rel)
    if cycle is not None:
        witness = [labels[i] for i in cycle]
        return ("CycleError", "cover relations contain a cycle: " + " < ".join(witness + witness[:1]), witness)
    closed = closure_of_pairs(labels, pairs)
    up = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in closed]
    return ("poset", tuple(labels), up)


def random_order_matrix(n, density, seed):
    """The matrix of `generate.random_poset(n, density, seed)`: the squaring
    closure of the same random upper-triangular relation."""
    rng = random.Random(seed)
    rel = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rel[i, j] = True
    return closure_by_squaring(rel)


def matrix_of_rows(rows):
    """m[x, y] when bit y of rows[x] is set, cell by cell."""
    n = len(rows)
    return np.array([[bool(rows[x] >> y & 1) for y in range(n)] for x in range(n)],
                    dtype=bool).reshape(n, n)


def is_chain_by_pairs(p, elems) -> bool:
    """The library's pair loop before it read the bit rows, kept as the oracle."""
    idxs = [p.idx(x) for x in elems]
    return all(
        p.lt[a, b] or p.lt[b, a]
        for i, a in enumerate(idxs)
        for b in idxs[i + 1:]
    )


def is_antichain_by_pairs(p, elems) -> bool:
    """The library's pair loop before it read the bit rows, kept as the oracle."""
    idxs = [p.idx(x) for x in elems]
    return not any(
        p.lt[a, b] or p.lt[b, a]
        for i, a in enumerate(idxs)
        for b in idxs[i + 1:]
    )


def max_antichain_size(p) -> int:
    best = 0
    for r in range(p.n, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(p.n), r):
            if all(not comparable(p, a, b) for a, b in itertools.combinations(combo, 2)):
                best = r
                break
    return best


# -- Dilworth matching on successor lists (the matching the library used
# before it moved to bit rows) ---------------------------------------------


def _hopcroft_karp(succ: list[list[int]], n: int) -> tuple[list[int], list[int]]:
    """Maximum matching of the split graph; left/right partner arrays (-1 free)."""
    match_l = [-1] * n
    match_r = [-1] * n
    inf = n + 1
    while True:
        dist = [0 if match_l[x] == -1 else inf for x in range(n)]
        queue = deque(x for x in range(n) if match_l[x] == -1)
        reachable_free = False
        while queue:
            x = queue.popleft()
            for y in succ[x]:
                owner = match_r[y]
                if owner == -1:
                    reachable_free = True
                elif dist[owner] == inf:
                    dist[owner] = dist[x] + 1
                    queue.append(owner)
        if not reachable_free:
            return match_l, match_r
        for x in range(n):
            if match_l[x] == -1:
                _augment(x, succ, match_l, match_r, dist, inf)


def _augment(
    root: int,
    succ: list[list[int]],
    match_l: list[int],
    match_r: list[int],
    dist: list[int],
    inf: int,
) -> bool:
    """One augmenting path from a free left vertex along the BFS layers.

    Depth-first with an explicit stack: `path` holds the left vertices of the
    alternating path and `via[i]` the right vertex joining path[i] to
    path[i + 1].  A dead-end left vertex gets distance `inf`, as in the
    recursive formulation, so later searches of this phase skip it.
    """
    path = [root]
    via: list[int] = []
    pending = [iter(succ[root])]
    while path:
        x = path[-1]
        for y in pending[-1]:
            owner = match_r[y]
            if owner == -1:
                via.append(y)
                for a, b in zip(path, via):
                    match_l[a] = b
                    match_r[b] = a
                return True
            if dist[owner] == dist[x] + 1:
                via.append(y)
                path.append(owner)
                pending.append(iter(succ[owner]))
                break
        else:
            dist[x] = inf
            path.pop()
            pending.pop()
            if via:
                via.pop()
    return False


def koenig_reach(up: list[int], match_l: list[int], match_r: list[int]) -> tuple[list[int], int]:
    """Koenig's pair (zl, zr) of a maximum matching on the bit rows `up`: the
    left vertices that alternating paths reach from the free left ones, in
    the order a BFS from those, in index order, dequeues them, and the mask
    of the right vertices those paths reach.  The BFS that `_dilworth` ran
    after its matching, before the matching's last BFS took its place."""
    n = len(up)
    in_zl = [match_l[x] == -1 for x in range(n)]
    zr = 0
    queue = deque(x for x in range(n) if in_zl[x])
    order = []
    while queue:
        x = queue.popleft()
        order.append(x)
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
    return order, zr


def dilworth_by_lists(p) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """(chains, antichain) as the list-based `_dilworth` built them: the
    chains of matched edges sorted by first element, and the complement of
    the Koenig cover as labels."""
    n = p.n
    succ = [np.flatnonzero(row).tolist() for row in p.lt]
    match_l, match_r = _hopcroft_karp(succ, n)
    chains = []
    for start in range(n):
        if match_r[start] != -1:
            continue
        chain = [start]
        while match_l[chain[-1]] != -1:
            chain.append(match_l[chain[-1]])
        chains.append(tuple(chain))
    in_zl = [match_l[x] == -1 for x in range(n)]
    in_zr = [False] * n
    queue = deque(x for x in range(n) if in_zl[x])
    while queue:
        x = queue.popleft()
        for y in succ[x]:
            if match_l[x] == y or in_zr[y]:
                continue
            in_zr[y] = True
            owner = match_r[y]
            if owner != -1 and not in_zl[owner]:
                in_zl[owner] = True
                queue.append(owner)
    antichain = tuple(p.labels[x] for x in range(n) if in_zl[x] and not in_zr[x])
    return tuple(sorted(chains)), antichain


def noncrossing_partition(p, partition) -> bool:
    for ca, cb in itertools.permutations(partition, 2):
        for a, b in itertools.combinations(ca, 2):
            lo, hi = (a, b) if p.lt[a, b] else (b, a)
            between = any(p.lt[lo, c] and p.lt[c, hi] for c in cb)
            beyond = any(p.lt[hi, d] for d in cb)
            if between and beyond:
                return False
    return True


def crossing_witness(p, d):
    """The library's first crossing scan, kept verbatim as the witness oracle.

    Takes a ChainDecomposition; returns the first crossing quadruple
    (a, c, b, d) as labels, in the scan's order, or None.
    """
    for ci, chain_a in enumerate(d.chains):
        for cj, chain_b in enumerate(d.chains):
            if ci == cj:
                continue
            for apos in range(len(chain_a)):
                a = chain_a[apos]
                for bpos in range(apos + 1, len(chain_a)):
                    b = chain_a[bpos]
                    c = next(
                        (x for x in chain_b if p.lt[a, x] and p.lt[x, b]), None
                    )
                    if c is None:
                        continue
                    top = next((x for x in chain_b if p.lt[b, x]), None)
                    if top is not None:
                        return tuple(p.labels[x] for x in (a, c, b, top))
    return None


def brute_min_noncrossing(p) -> int:
    return min(
        (len(part) for part in chain_partitions(p) if noncrossing_partition(p, part)),
        default=0,
    )


def count_noncrossing(p) -> int:
    return sum(1 for part in chain_partitions(p) if noncrossing_partition(p, part))


# The library's two noncrossing searches before they shared one placement
# walk, kept verbatim apart from their dependencies: the crossing test is
# copied, the Dilworth lower bound is `max_antichain_size`, predecessor counts
# are recounted here, and the witness chains come back sorted by first element.
def _creates_crossing(p, chains, j, v) -> bool:
    cj = chains[j]
    for i, ci in enumerate(chains):
        if i == j:
            continue
        for bpos in range(1, len(ci)):
            b = ci[bpos]
            if not p.lt[b, v]:
                continue
            for apos in range(bpos):
                a = ci[apos]
                if any(p.lt[a, c] and p.lt[c, b] for c in cj):
                    return True
    return False


def _placement_order(p) -> list:
    return sorted(range(p.n), key=lambda x: sum(bool(p.lt[y, x]) for y in range(p.n)))


def recursive_min_noncrossing(p):
    """(size, chains) of the first minimum noncrossing decomposition found."""
    order = _placement_order(p)
    lower_bound = max_antichain_size(p) if p.n else 0
    chains = []
    best = [p.n + 1, None]

    def place(pos: int) -> None:
        if best[0] == lower_bound or len(chains) >= best[0]:
            return
        if pos == p.n:
            best[0] = len(chains)
            best[1] = [tuple(c) for c in chains]
            return
        v = order[pos]
        for j, chain in enumerate(chains):
            if p.lt[chain[-1], v] and not _creates_crossing(p, chains, j, v):
                chain.append(v)
                place(pos + 1)
                chain.pop()
        if len(chains) + 1 < best[0]:
            chains.append([v])
            place(pos + 1)
            chains.pop()

    place(0)
    return best[0], tuple(sorted(best[1]))


def recursive_count_noncrossing(p) -> int:
    """Number of noncrossing decompositions by the unpruned placement search."""
    order = _placement_order(p)
    chains = []

    def place(pos: int) -> int:
        if pos == p.n:
            return 1
        total = 0
        v = order[pos]
        for j, chain in enumerate(chains):
            if p.lt[chain[-1], v] and not _creates_crossing(p, chains, j, v):
                chain.append(v)
                total += place(pos + 1)
                chain.pop()
        chains.append([v])
        total += place(pos + 1)
        chains.pop()
        return total

    return place(0)


# The library's placement walk on bit rows before it became one loop on chain
# masks, kept verbatim apart from its placement order, recounted here as a
# stable sort by down-row popcount.
def _creates_crossing_on_rows(up: list[int], down: list[int], chains: list, j: int, v: int) -> bool:
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


def noncrossing_walk_by_recursion(p, limit: list[int]):
    """Every noncrossing decomposition with fewer than limit[0] chains.

    Elements are placed in linear-extension order; each one extends a chain
    whose top lies below it without completing a crossing, or opens a new
    chain while that stays under the limit.  Each decomposition is yielded as
    the live chain lists, so a caller keeping one must copy it.  The limit is
    read at every step, so the caller may lower it between yields.
    """
    up, down = p.rows
    order = sorted(range(p.n), key=lambda x: down[x].bit_count())
    chains: list[list[int]] = []

    def place(pos: int):
        if len(chains) >= limit[0]:
            return
        if pos == p.n:
            yield chains
            return
        v = order[pos]
        for j, chain in enumerate(chains):
            if up[chain[-1]] >> v & 1 and not _creates_crossing_on_rows(up, down, chains, j, v):
                chain.append(v)
                yield from place(pos + 1)
                chain.pop()
        if len(chains) + 1 < limit[0]:
            chains.append([v])
            yield from place(pos + 1)
            chains.pop()

    return place(0)


def wrap_matrices(p, chains):
    """(wrapped, above) as nested lists, by the pairwise loop over chains.

    wrapped[i][j]: some element of chain i lies strictly between the ends of
    chain j; above[i][j]: chain i starts above the top of chain j.
    """
    k = len(chains)
    wrapped = [[False] * k for _ in range(k)]
    above = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            lo, hi = chains[j][0], chains[j][-1]
            wrapped[i][j] = any(p.lt[lo, y] and p.lt[y, hi] for y in chains[i])
            above[i][j] = bool(p.lt[hi, chains[i][0]])
    return wrapped, above


def wrap_matrices_by_product(p, chains):
    """(wrapped, above) as boolean matrices, dense over p.lt: the
    chain-by-element membership times the elements strictly between each
    chain's ends, as one float32 product (the library's construction before
    it built bit rows; counts stay below 2**24, so exact)."""
    lo = np.array([c[0] for c in chains], dtype=np.intp)
    hi = np.array([c[-1] for c in chains], dtype=np.intp)
    between = p.lt[lo] & p.lt[:, hi].T
    member = np.zeros((len(chains), p.n), dtype=np.float32)
    for i, chain in enumerate(chains):
        member[i, list(chain)] = 1
    wrapped = member @ between.astype(np.float32).T > 0
    np.fill_diagonal(wrapped, False)
    return wrapped, p.lt[np.ix_(hi, lo)].T


def orientation_by_minima(p, chains, comp):
    """The oriented chain graph as a matrix: the comparability matrix comp
    masked by the strict order of the chain minima, read off p.lt; comparable
    chains with incomparable minima fail."""
    lo = [c[0] for c in chains]
    below = p.lt[np.ix_(lo, lo)]
    assert not (comp & ~(below | below.T)).any()
    return comp & below



def oriented_edges_by_pairs(p, chains):
    """The oriented chain graph as label pairs, from p.lt and the chains
    alone: chains a and b form an edge when every cross pair is comparable,
    pointing from the one whose minimum lies below the other's; listed by
    source chain, then by target chain, in the order of `chains`."""

    def minimum(c):
        return next(x for x in c if not any(p.lt[y, x] for y in c))

    names = [[str(p.labels[x]) for x in c] for c in chains]
    return [
        [names[i], names[j]]
        for i, a in enumerate(chains)
        for j, b in enumerate(chains)
        if i != j
        and all(comparable(p, x, y) for x in a for y in b)
        and p.lt[minimum(a), minimum(b)]
    ]


class Refuted(AssertionError):
    """An oracle's failed check, worded as the library words a CheckFailure."""

    def __init__(self, message, witness):
        self.witness = witness
        super().__init__(f"{message} (witness: {witness!r})")


def interleaving_blocks(p, chain_a, chain_b) -> int:
    """Alternation blocks in the merged order of two comparable chains, whose
    union is one chain, listed in order by sorting on predecessor counts."""
    preds = p.lt.sum(axis=0)
    union = [(x, 0) for x in chain_a] + [(x, 1) for x in chain_b]
    union.sort(key=lambda pair: preds[pair[0]])
    return 1 + sum(side != prev for (_, side), (_, prev) in zip(union[1:], union))


def check_wrap_order_by_blocks(p, chains, comp, wrapped, above) -> None:
    """The wrap order's checks in order, raising Refuted at the first failure:
    antisymmetry and transitivity (each at its first pair, row-major), then
    for each comparable pair i < j the block count and the single relation."""
    k = len(chains)
    names = [tuple(p.labels[x] for x in chain) for chain in chains]
    rel = np.array([[wrapped[i][j] or above[i][j] for j in range(k)] for i in range(k)], dtype=bool)
    for i, j in itertools.product(range(k), repeat=2):
        if rel[i, j] and rel[j, i]:
            raise Refuted("wrap relation is not antisymmetric", (names[i], names[j]))
    missing = np.argwhere(closure_by_squaring(rel) & ~rel)
    if len(missing):
        i, j = missing[0]
        raise Refuted("wrap relation is not transitive", (names[i], names[j]))
    for i in range(k):
        for j in range(i + 1, k):
            if not comp[i][j]:
                continue
            if interleaving_blocks(p, chains[i], chains[j]) > 3:
                raise Refuted(
                    "comparable chains interleave in more than one block", (names[i], names[j])
                )
            if rel[i, j] == rel[j, i]:
                raise Refuted("comparable chains carry no wrap relation", (names[i], names[j]))


def canonical_order_by_recursion(names, wrapped, above):
    """(order, findings) of the canonical chain order, raising Refuted.

    Each group of chains is arranged by one recursive call: the maximal
    chains of the working set are its markers, each other chain is wrapped
    by one marker (grouped before it) or lies above one (deferred to the next
    round, emitted in front), and groups recurse.  Markers are found by
    testing each chain against every other chain of the working set.
    """
    k = len(names)
    rel = [[wrapped[i][j] or above[i][j] for j in range(k)] for i in range(k)]
    findings = []

    def arrange(members):
        if len(members) <= 1:
            return list(members)
        rounds = []
        working = sorted(members)
        while working:
            markers = [m for m in working if not any(rel[m][u] for u in working if u != m)]
            groups = {m: [] for m in markers}
            deferred, grouped = [], []
            for c in working:
                if c in groups:
                    continue
                wrapping = [m for m in markers if wrapped[c][m]]
                over = [m for m in markers if above[c][m]]
                if len(wrapping) > 1:
                    raise Refuted(
                        "chain wrapped by two maximal chains",
                        (names[c], [names[m] for m in wrapping]),
                    )
                if wrapping and over:
                    raise Refuted(
                        "chain classified both as wrapped and as above a maximal chain",
                        (names[c], names[wrapping[0]], names[over[0]]),
                    )
                if wrapping:
                    groups[wrapping[0]].append(c)
                    grouped.append(c)
                elif over:
                    deferred.append(c)
                else:
                    raise Refuted("chain not below any maximal chain of its round", names[c])
            for c1 in deferred:
                for c2 in grouped:
                    if (rel[c1][c2] or rel[c2][c1]) and not above[c1][c2]:
                        findings.append(
                            {
                                "kind": "deferred-vs-grouped-order",
                                "deferred": list(names[c1]),
                                "grouped": list(names[c2]),
                            }
                        )
            rounds.append([(groups[m], m) for m in markers])
            working = sorted(deferred)
        out = []
        for round_items in reversed(rounds):
            for group, marker in round_items:
                out.extend(arrange(group))
                out.append(marker)
        return out

    order = arrange(list(range(k)))
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if rel[order[b]][order[a]]:
                raise Refuted(
                    "constructed order does not extend the wrap order",
                    (names[order[a]], names[order[b]]),
                )
    return tuple(order), findings


# The battery's segments check before it replayed the avoider list as a
# prefix tree, kept verbatim apart from its dependencies: the run split and
# the crossing scan on bit rows are copied here.
def avoider_runs(up, down, perm):
    """An index permutation split at its descents, or None on a 132 pattern."""
    rest = (1 << len(perm)) - 1
    above = 0
    runs = []
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


def runs_cross(up, down, chains) -> bool:
    """Some element of chain B lies strictly between a < b of chain A and
    another above b, with a the lowest element of A."""
    masks = [sum(1 << x for x in chain) for chain in chains]
    return any(
        mask_b & up[chain_a[0]] & down[b] and mask_b & up[b]
        for ci, chain_a in enumerate(chains)
        for cj, mask_b in enumerate(masks)
        if cj != ci
        for b in chain_a[1:]
    )


def segments_record(p, perms) -> dict:
    """The segments check's record on p, one permutation of perms at a time."""
    up, down = p.rows
    for swept, perm in enumerate(perms):
        runs = avoider_runs(up, down, perm)
        if runs is None:
            fault = "not 132-avoiding"
        elif not all(up[a] >> b & 1 for run in runs for a, b in zip(run, run[1:])):
            fault = "an ascending run is not a chain"
        elif runs_cross(up, down, runs):
            fault = "ascending runs cross"
        else:
            continue
        return {
            "name": "segments",
            "passed": False,
            "details": {"permutations": swept, "error": fault},
            "witness": {"permutation": [str(p.labels[x]) for x in perm]},
        }
    return {"name": "segments", "passed": True, "details": {"permutations": len(perms)}}


# The battery's segments check before it walked the avoider tree itself
# (`nccd._segment_walk`), kept verbatim: the prefix replay of the avoider
# list.
def segment_fault(up: list[int], down: list[int], perms: Sequence[Sequence[int]]) -> int | None:
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


def replay_record(p, perms) -> dict:
    """The segments check's record on p as the prefix replay gave it: the
    first permutation of perms it flags, classified on its own."""
    at = segment_fault(*p.rows, perms)
    if at is None:
        return {"name": "segments", "passed": True, "details": {"permutations": len(perms)}}
    record = segments_record(p, perms[at : at + 1])
    assert not record["passed"], "the replay flags a permutation whose runs pass"
    record["details"]["permutations"] = at
    return record


def naive_avoiders(p):
    """All 132-avoiding index permutations via the cubic scan."""
    out = []
    for perm in itertools.permutations(range(p.n)):
        hit = False
        for i1 in range(p.n):
            for i2 in range(i1 + 1, p.n):
                for i3 in range(i2 + 1, p.n):
                    if p.lt[perm[i1], perm[i3]] and p.lt[perm[i3], perm[i2]]:
                        hit = True
        if not hit:
            out.append(perm)
    return out


def descent_count(p, perm) -> int:
    if not perm:
        return 0
    downs = sum(1 for i in range(1, len(perm)) if not p.lt[perm[i - 1], perm[i]])
    return downs + 1


def naive_min_descents(p) -> int:
    return min((descent_count(p, perm) for perm in naive_avoiders(p)), default=0)


# The descent kernel's default width memo before every caller passed its
# own: the comparability rows of the Warshall closure of an arbitrary lt.
def comparability_rows(lt: list[int]) -> list[int]:
    """The bit rows of the comparability graph of the transitive closure of
    the bit rows lt, cycles included."""
    reach = list(lt)
    for k in range(len(reach)):
        for x in range(len(reach)):
            if reach[x] >> k & 1:
                reach[x] |= reach[k]
    comparable = list(reach)
    for x, row in enumerate(reach):
        for y in range(len(reach)):
            if row >> y & 1:
                comparable[y] |= 1 << x
    return comparable


# The library's descent scan and width memo before they became loops, kept
# verbatim: both recurse once per element, so a deep input needs `run_deep`.
def min_descents_by_recursion(up: list[int], down: list[int], lt: list[int], comparable: list[int]) -> int:
    """Minimum descent count over all pattern-avoiding permutations, bounded
    by the widths in the graph of bit rows `comparable`."""
    width = antichain_widths_by_recursion(comparable)
    n = len(up)
    if len(down) != n or len(lt) != n:
        raise ValueError("row count mismatch")
    if n == 0:
        return 0
    full = (1 << n) - 1
    floor = width(full)
    best = n + 1

    def scan(unused: int, last: int, above: int, d: int) -> None:
        # returns with best == floor once the search is over
        nonlocal best
        ascents = unused & succ[last]
        for group, nd in ((ascents, d), (unused ^ ascents, d + 1)):
            while group:
                low = group & -group
                group ^= low
                rest = unused ^ low
                if not rest:
                    if nd + 1 < best:
                        best = nd + 1
                        if best == floor:
                            return
                    continue
                v = low.bit_length() - 1
                if down[v] & above & rest or nd + width(rest) >= best:
                    continue
                scan(rest, v, above | up[v], nd)
                if best == floor:
                    return

    # the first element ascends from a virtual start below everything
    succ = [*lt, full]
    scan(full, n, 0, 0)
    return best


def antichain_widths_by_recursion(comparable: list[int]):
    """The width of a set of indices given as a bit mask, memoised over sets."""
    widths = {0: 0}

    def width(s: int) -> int:
        # the largest antichain in s either skips its lowest element x, or
        # holds x and nothing comparable to x
        w = widths.get(s)
        if w is None:
            low = s & -s
            rest = s ^ low
            w = max(width(rest), 1 + width(rest & ~comparable[low.bit_length() - 1]))
            widths[s] = w
        return w

    return width


def run_deep(fn):
    """fn() run in a thread with a 64 MB stack and a recursion limit of
    10,000, for a recursive oracle on an input thousands of elements deep;
    the limit and the stack size are given back whatever happens."""
    result = []
    limit, stack = sys.getrecursionlimit(), threading.stack_size(64 << 20)
    sys.setrecursionlimit(10_000)
    try:
        thread = threading.Thread(target=lambda: result.append(fn()))
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(stack)
    assert not thread.is_alive() and result, "the deep call did not finish"
    return result[0]


# The library's min_descents before its width-bounded bitset search, kept
# verbatim: a plain pruned walk of the permutation tree.
def scan_min_descents(pattern: bytes, lt: bytes, n: int) -> int:
    """Minimum descent count over all pattern-avoiding permutations."""
    if n == 0:
        return 0
    if len(pattern) != n * n or len(lt) != n * n:
        raise ValueError("matrix size mismatch")
    best = n + 1
    perm = [0] * n
    used = [False] * n

    def scan(depth: int, partial: int) -> None:
        nonlocal best
        if depth == n:
            best = partial + 1
            return
        for v in range(n):
            if used[v]:
                continue
            seen_small = False
            bad = False
            vrow = v * n
            for j in range(depth):
                pj = perm[j]
                if seen_small and pattern[vrow + pj]:
                    bad = True
                    break
                if pattern[pj * n + v]:
                    seen_small = True
            if bad:
                continue
            nd = partial
            if depth > 0 and not lt[perm[depth - 1] * n + v]:
                nd += 1
            if nd + 1 >= best:
                continue
            perm[depth] = v
            used[v] = True
            scan(depth + 1, nd)
            used[v] = False

    scan(0, 0)
    return best


# The library's permutations_avoiding before its bitset walk, kept verbatim:
# each appended element is tested against the whole prefix.
def scan_avoiders(pattern: bytes, n: int) -> list:
    """All pattern-avoiding permutations of 0..n-1, in lexicographic order."""
    if n == 0:
        return [()]
    if len(pattern) != n * n:
        raise ValueError("matrix size mismatch")
    out = []
    perm = [0] * n
    used = [False] * n

    def scan(depth: int) -> None:
        if depth == n:
            out.append(tuple(perm))
            return
        for v in range(n):
            if used[v]:
                continue
            seen_small = False
            bad = False
            vrow = v * n
            for j in range(depth):
                pj = perm[j]
                if seen_small and pattern[vrow + pj]:
                    bad = True
                    break
                if pattern[pj * n + v]:
                    seen_small = True
            if bad:
                continue
            perm[depth] = v
            used[v] = True
            scan(depth + 1)
            used[v] = False

    scan(0)
    return out


def tree_text(node) -> str:
    """Recursive nested-parentheses rendering of a plane tree, root as `*`."""
    name = "*" if node.label is None else str(node.label)
    if not node.children:
        return name
    return name + "(" + " ".join(tree_text(c) for c in node.children) + ")"


def preorder_labels(node) -> list:
    """Recursive preorder of a plane tree's labels, the unlabeled root skipped."""
    out = [] if node.label is None else [node.label]
    for child in node.children:
        out.extend(preorder_labels(child))
    return out


class Node:
    """A plane tree node with a label (None at the root) and ordered children."""

    def __init__(self, label):
        self.label = label
        self.children = []


def attachment_tree_by_walk(p, chains, order):
    """The attachment tree, each vertex found by walking the tree.

    The last chain of the order hangs off the root reversed; each earlier
    one, in reverse order, hangs reversed as the first child of the deepest
    vertex on the leftmost path (walked down through first children) that
    lies above the chain's top, or of the root when none does.
    """
    root = Node(None)
    for ci in reversed(order):
        chain = chains[ci]
        path = []
        node = root
        while node.children:
            node = node.children[0]
            path.append(node)
        target = root
        for cand in reversed(path):
            if p.lt[chain[-1], p.idx(cand.label)]:
                target = cand
                break
        for x in reversed(chain):
            child = Node(p.labels[x])
            target.children.insert(0, child)
            target = child
    return root


def preorder_by_stack(node) -> list:
    """Preorder of a plane tree's labels by an explicit stack, the unlabeled
    root skipped."""
    out = []
    stack = [node]
    while stack:
        node = stack.pop()
        if node.label is not None:
            out.append(node.label)
        stack.extend(reversed(node.children))
    return out


def linear_extensions_by_filter(p) -> list:
    """Every linear extension as an index tuple, lexicographic, by filtering n! orders."""
    return [
        perm
        for perm in itertools.permutations(range(p.n))
        if not any(p.lt[perm[b], perm[a]] for a in range(p.n) for b in range(a + 1, p.n))
    ]


def signed_chain_count_oracle(p, x, y) -> int:
    """Even-minus-odd count of strictly increasing sequences from x to y."""
    if x == y:
        return 1
    total = 0
    stack = [(x, 0)]
    while stack:
        node, length = stack.pop()
        if node == y:
            total += -1 if length % 2 else 1
            continue
        for z in range(p.n):
            if p.lt[node, z] and (z == y or p.lt[z, y]):
                stack.append((z, length + 1))
    return total


def _int_matmul(a: list, b: list) -> list:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for k in range(n):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(n):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def power_sum_signed_counts(lt) -> list:
    """Signed chain counts as the alternating sum of adjacency powers, in Python ints.

    `lt` is a strict-order matrix; entry (x, y) of the result sums (-1)^s
    over the chains x = z_0 < ... < z_s = y.
    """
    n = len(lt)
    adj = [[1 if lt[i][j] else 0 for j in range(n)] for i in range(n)]
    total = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    power = [row[:] for row in total]
    sign = 1
    for _ in range(n - 1):
        power = _int_matmul(power, adj)
        if not any(any(row) for row in power):
            break
        sign = -sign
        for i in range(n):
            ti, pi = total[i], power[i]
            for j in range(n):
                ti[j] += sign * pi[j]
    return total


def fraction_determinant(mat) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    from fractions import Fraction

    m = [[Fraction(v) for v in row] for row in mat]
    k = len(m)
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, k):
            factor = m[r][col] / m[col][col]
            for c in range(col, k):
                m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


def cut_identity_reports(p, chains) -> dict:
    """Every admissible cut's identity report, keyed by heights, recomputed per cut.

    `chains` is a homogeneous decomposition as ascending index tuples.  Each
    report is the dict `verify_cut_identity(...).to_dict()` must equal: both
    sides of D J = D_low J + D_up J - D_low J D_up J, with every matrix built
    from the strict order by loops (signed counts by `power_sum_signed_counts`
    on the relevant rows and columns of `lt`).
    """
    k = len(chains)
    lt = [[bool(v) for v in row] for row in p.lt]
    comp = [
        [i != j and all(lt[x][y] or lt[y][x] for x in chains[i] for y in chains[j]) for j in range(k)]
        for i in range(k)
    ]
    j_mat = [[1 if i == j or comp[i][j] else 0 for j in range(k)] for i in range(k)]

    def aggregate(parts) -> list:
        keep = [x for part in parts for x in part]
        counts = power_sum_signed_counts([[lt[a][b] for b in keep] for a in keep])
        pos = {x: i for i, x in enumerate(keep)}
        return [
            [sum(counts[pos[x]][pos[y]] for x in parts[i] for y in parts[j]) for j in range(k)]
            for i in range(k)
        ]

    def mul(a, b) -> list:
        return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)] for i in range(k)]

    whole = aggregate(chains)
    lhs = mul(whole, j_mat)
    det = fraction_determinant(j_mat)
    out = {}
    for heights in itertools.product(*(range(1, len(c)) for c in chains)):
        lower = [c[:h] for c, h in zip(chains, heights)]
        upper = [c[h:] for c, h in zip(chains, heights)]
        if not all(
            lt[lower[i][-1]][upper[j][0]] for i in range(k) for j in range(k) if comp[i][j]
        ):
            continue
        d_low, d_up = aggregate(lower), aggregate(upper)
        low_j, up_j = mul(d_low, j_mat), mul(d_up, j_mat)
        prod = mul(low_j, up_j)
        rhs = [[low_j[i][j] + up_j[i][j] - prod[i][j] for j in range(k)] for i in range(k)]
        diff = max((abs(lhs[i][j] - rhs[i][j]) for i in range(k) for j in range(k)), default=0)
        out[heights] = {
            "heights": list(heights),
            "proper": True,
            "admissible": True,
            "d_whole": whole,
            "d_lower": d_low,
            "d_upper": d_up,
            "j": j_mat,
            "lhs": lhs,
            "rhs": rhs,
            "equal": diff == 0,
            "max_abs_discrepancy": diff,
            "j_determinant": det,
            "ok": diff == 0,
            "findings": [{"kind": "j-invertible-over-rationals", "value": det != 0}],
        }
    return out


def exact_dtypes(bound: int) -> tuple:
    """(dtype to compute in, dtype to return) for integer matrix arithmetic
    whose values and partial sums are all at most `bound` in absolute
    value, by the bit length of `bound`: up to 53 bits, float64 (a double's
    significand holds such an integer, so no step rounds), returned as
    int64; up to 63 bits, int64; past that, Python integers."""
    bits = int(bound).bit_length()
    if bits <= 53:
        return np.float64, np.int64
    return (np.int64, np.int64) if bits <= 63 else (object, object)


def cut_kernel_by_rows(frame, heights, work=None) -> tuple:
    """`cut._cut_kernel(frame, heights)` with one side-series row per (cut,
    side, chain), as the kernel ran before its rows were keyed: the four
    arrays of its batch (d_lower, d_upper, rhs, equal), in the same dtypes.

    With `inside` each row's side mask, the series sums (-1)^s V_s from
    V_0 = M * inside by V_{s+1} = (V_s @ lt) * inside, one signed copy per
    power into a zeroed total, up to the first zero power; the dtypes come
    from `exact_dtypes` on the kernel's bounds.  With `work` the series
    runs in that dtype, not in the layout's.
    """
    _, _, _, chain_of, position, _, strict = frame.layout
    if work is not None:
        strict = frame.poset.lt.astype(work)
    c, k = heights.shape
    n = len(position)
    low = position < heights[:, chain_of]
    inside = np.stack((low, ~low), axis=1)[:, :, None, :]
    inside = np.broadcast_to(inside, (c, 2, k, n)).reshape(2 * c * k, n)
    members = frame.members.astype(strict.dtype, copy=False)
    power = np.tile(members, (2 * c, 1)) * inside
    total = np.zeros_like(power)
    sign = 1
    while power.any():
        total += sign * power
        power = (power @ strict) * inside
        sign = -sign
    d_sides = (total @ members.T).reshape(c, 2, k, k)
    m = max(int(np.abs(a).max()) if a.size else 0 for a in (d_sides, frame.d_whole))
    work, exact = exact_dtypes(k**3 * m * (m + 2))
    d_sides = d_sides.astype(work, copy=False)
    j_mat = frame.j.astype(work)
    lower_j = d_sides[:, 0] @ j_mat
    upper_j = d_sides[:, 1] @ j_mat
    rhs = lower_j + upper_j - lower_j @ upper_j
    equal = (rhs == frame.lhs.astype(work)).all(axis=(1, 2))
    d_sides = d_sides.astype(exact, copy=False)
    return d_sides[:, 0], d_sides[:, 1], rhs.astype(exact, copy=False), equal


def signed_counts_by_n(lt) -> np.ndarray:
    """The signed chain counts of a strict order matrix in the tier that n
    alone allows, as they ran before the poset's chain-count bound sized
    them: every value counts chains from x to y, at most 2**(n-2), and
    `exact_dtypes` maps that to float64 BLAS (returned as int64), int64 or
    Python integers.  The series sums (-1)^s A^s from I, one signed copy
    per power, up to the first zero power."""
    n = len(lt)
    work, exact = exact_dtypes(2 ** (n - 2))
    adj = np.asarray(lt).astype(work)
    total = power = np.eye(n, dtype=work)
    sign = 1
    while True:
        power = power @ adj
        if not power.any():
            return total.astype(exact)
        sign = -sign
        total = total + sign * power


def chain_sums(d, mu, keep: int) -> np.ndarray:
    """k x k: entry (i, j) sums mu[x][y] over the pairs x <= y in the bits of
    `keep` with x on chain i and y on chain j, pair by pair in Python
    integers, returned in the dtype that n alone allows (int64 up to
    n = 63): D_whole and the cut check's side sums as they were summed
    before the frame's Mobius array."""
    n = d.poset.n
    sums = [[0] * d.k for _ in range(d.k)]
    for x in _set_bits(keep):
        for y in _set_bits(keep):
            if x == y or d.poset.lt[x, y]:
                sums[d.chain_of[x]][d.chain_of[y]] += mu[x][y]
    return np.array(sums, dtype=exact_dtypes(2**n - 1)[1]).reshape(d.k, d.k)


def chains_in_up_sets(p) -> int:
    """The largest number of nonempty chains inside one principal up-set
    {z : x <= z}, counted from the top of each chain: for each x, the chains
    inside x's up-set that end at y number 1 plus those that end at some
    z < y in it, over y in an order by the number of points below."""
    n = p.n
    lt = [[bool(v) for v in row] for row in p.lt]
    order = sorted(range(n), key=lambda y: sum(lt[z][y] for z in range(n)))
    best = 0
    for x in range(n):
        ends = {}
        for y in order:
            if y == x or lt[x][y]:
                ends[y] = 1 + sum(count for z, count in ends.items() if lt[z][y])
        best = max(best, sum(ends.values()))
    return best


def side_counts_by_submatrix(p, chains, heights, scope) -> list:
    """One side's chain-aggregated signed counts, from the power sum on the
    strict order's submatrix over that side (`np.ix_`), per cut.

    `chains` are ascending index tuples and `heights` one height per chain;
    `scope` is "lower" or "upper".  The power sum runs on int64 up to 64
    elements (its entries are at most 2**(n-2)) and on Python integers above.
    """
    parts = [c[:h] if scope == "lower" else c[h:] for c, h in zip(chains, heights)]
    keep = [x for part in parts for x in part]
    sub = p.lt[np.ix_(keep, keep)]
    adj = sub.astype(np.int64 if len(keep) <= 64 else object)
    counts = power = np.eye(len(keep), dtype=adj.dtype)
    sign = 1
    for _ in range(len(keep) - 1):
        power = power @ adj
        if not power.any():
            break
        sign = -sign
        counts = counts + sign * power
    members = np.zeros((len(chains), len(keep)), dtype=object)
    col = 0
    for i, part in enumerate(parts):
        members[i, col:col + len(part)] = 1
        col += len(part)
    return (members @ counts @ members.T).tolist()


def admissible_by_loop(p, chains, comp, heights) -> bool:
    """Proper, and the top of every lower part lies below the bottom of the
    upper part of every chain comparable to it (`comp`), pair by pair."""
    if not all(0 < h < len(c) for c, h in zip(chains, heights)):
        return False
    k = len(chains)
    for i in range(k):
        top_low = chains[i][heights[i] - 1]
        for j in range(k):
            if i != j and comp[i, j] and not p.lt[top_low, chains[j][heights[j]]]:
                return False
    return True


def mobius_by_loop(p) -> list:
    """Mobius matrix by its recursion, every z tested against x and y in `lt`."""
    n = p.n
    mu = [[0] * n for _ in range(n)]
    order = sorted(range(n), key=lambda y: int(p.lt[:, y].sum()))
    for x in range(n):
        mu[x][x] = 1
        for y in order:
            if p.lt[x, y]:
                acc = 0
                for z in range(n):
                    if (z == x or p.lt[x, z]) and p.lt[z, y]:
                        acc += mu[x][z]
                mu[x][y] = -acc
    return mu


# -- the Mobius function of a sub-order by its own recursion (the cut check
#    ran it on both sides of the first admissible cut before it read them off
#    the whole poset's Mobius matrix)


def sub_order_mobius(p, keep: int) -> list:
    """`mobius_matrix` of the sub-order induced on the bits of `keep`, as an
    n x n matrix that is 0 in every row and column outside them."""
    up, down = p.rows
    order = [y for y in sorted(range(p.n), key=p.pred_counts.__getitem__) if keep >> y & 1]
    mu = []
    for x in range(p.n):
        row = [0] * p.n
        if keep >> x & 1:
            row[x] = 1
            at_least_x = (up[x] | 1 << x) & keep
            for y in order:
                if up[x] >> y & 1:
                    row[y] = -sum(row[z] for z in _set_bits(at_least_x & down[y]))
        mu.append(row)
    return mu


def _set_bits(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def catalan_closed_form(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def all_relations_poset_count(n: int) -> int:
    """Count strict orders on n labeled points by filtering every relation."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in itertools.product((False, True), repeat=len(cells)):
        rel = {}
        for cell, bit in zip(cells, bits):
            rel[cell] = bit
        if any(rel[(i, j)] and rel[(j, i)] for i in range(n) for j in range(n) if i != j):
            continue
        transitive = True
        for (i, j), ij in rel.items():
            if not ij:
                continue
            for k in range(n):
                if k != i and k != j and rel.get((j, k)) and not rel.get((i, k)):
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            count += 1
    return count


# -- automorphism groups by listing them (the search the library used before
# it moved to base and strong generators) ---------------------------------------


def _refined_signatures(lt: np.ndarray) -> list:
    """Invariant per element, stable under automorphism, used for pruning."""
    n = lt.shape[0]
    sig: list = [(int(lt[:, i].sum()), int(lt[i, :].sum())) for i in range(n)]
    for _ in range(2):
        codes = {s: r for r, s in enumerate(sorted(set(sig)))}
        enc = [codes[s] for s in sig]
        sig = [
            (
                enc[i],
                tuple(sorted(enc[j] for j in range(n) if lt[j, i])),
                tuple(sorted(enc[j] for j in range(n) if lt[i, j])),
            )
            for i in range(n)
        ]
    return sig


def _order_search(
    lt_a: np.ndarray, lt_b: np.ndarray, find_all: bool
) -> list[tuple[int, ...]]:
    """Backtracking search for order isomorphisms lt_a -> lt_b."""
    n = lt_a.shape[0]
    if lt_b.shape[0] != n:
        return []
    sig_a = _refined_signatures(lt_a)
    sig_b = _refined_signatures(lt_b)
    if sorted(sig_a) != sorted(sig_b):
        return []
    candidates = [
        [j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)
    ]
    image = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def place(i: int) -> bool:
        if i == n:
            found.append(tuple(image))
            return not find_all
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for k in range(i):
                if lt_a[i, k] != lt_b[j, image[k]] or lt_a[k, i] != lt_b[image[k], j]:
                    ok = False
                    break
            if ok:
                image[i] = j
                used[j] = True
                if place(i + 1):
                    return True
                used[j] = False
                image[i] = -1
        return False

    place(0)
    return found


def brute_embedding(p, pair_cap: int = 250_000) -> dict:
    """Embedding verdicts and group orders by listing every group.

    Lists Aut(P) and both chain graphs' symmetries with `_order_search`,
    takes the MHCD from `merge_fixpoint`, and checks the induced chain map
    on every automorphism and on every ordered pair of them (up to
    `pair_cap` pairs, else the first `pair_cap` in order).
    """
    autos = _order_search(p.lt, p.lt, find_all=True)
    chains = sorted(merge_fixpoint(p), key=lambda c: c[0])
    k = len(chains)
    owner = {x: ci for ci, c in enumerate(chains) for x in c}
    adjacency = np.zeros((k, k), dtype=bool)
    oriented = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            if i != j and comparable(p, chains[i][0], chains[j][0]):
                adjacency[i, j] = True
                oriented[i, j] = bool(p.lt[chains[i][0], chains[j][0]])
    lengths = [len(c) for c in chains]

    def graph_group(mat):
        return {
            s for s in _order_search(mat, mat, find_all=True)
            if all(lengths[s[i]] == lengths[i] for i in range(k))
        }

    oriented_group = graph_group(oriented)
    out = {
        "aut_poset_order": len(autos),
        "aut_oriented_order": len(oriented_group),
        "aut_unoriented_order": len(graph_group(adjacency)),
    }

    def induced(g):
        images = [{owner[g[x]] for x in c} for c in chains]
        if any(len(t) != 1 for t in images):
            return None
        return tuple(t.pop() for t in images)

    sigmas = [induced(g) for g in autos]
    out["well_defined"] = all(s is not None and s in oriented_group for s in sigmas)
    out["injective"] = len(set(sigmas)) == len(sigmas)
    pairs = itertools.islice(itertools.product(range(len(autos)), repeat=2), pair_cap)
    out["homomorphism"] = out["well_defined"] and all(
        induced(tuple(autos[a][autos[b][x]] for x in range(p.n)))
        == tuple(sigmas[a][sigmas[b][i]] for i in range(k))
        for a, b in pairs
    )
    out["onto_oriented"] = len(set(sigmas)) == len(oriented_group)
    return out


# -- automorphism groups by a stabilizer chain solved top-down (the loop the
# library ran before it solved the levels deepest first) ------------------------


def _chain_place(up, down, dom, i, j):
    """Domains, as sets, after mapping i to j, or None when some element is
    left no image: every other element keeps the images other than j that
    relate to j as it relates to i, in both directions."""
    out = []
    for u, images in enumerate(dom):
        if u == i:
            out.append({j})
            continue
        above, below = up[i] >> u & 1, down[i] >> u & 1
        keep = {w for w in images
                if w != j and up[j] >> w & 1 == above and down[j] >> w & 1 == below}
        if not keep:
            return None
        out.append(keep)
    return out


def _chain_extend(up, down, dom, placed):
    """One map that places every element not in `placed`, or None: the lowest
    such element tries its images in increasing order, recursively."""
    u = next((u for u in range(len(dom)) if u not in placed), None)
    if u is None:
        return tuple(min(images) for images in dom)
    for j in sorted(dom[u]):
        nxt = _chain_place(up, down, dom, u, j)
        found = None if nxt is None else _chain_extend(up, down, nxt, placed | {u})
        if found is not None:
            return found
    return None


def _orbit(b, gens) -> set:
    orbit, queue = {b}, [b]
    for x in queue:
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                queue.append(g[x])
    return orbit


def stabilizer_chain_top_down(rows, colors=None) -> tuple:
    """(base, generators, orbit sizes) of the colour-preserving automorphisms
    of a relation given by bit rows (up, down), level by level from the top.

    Domains start from (colour, loop bit, down count, up count) and shrink by
    forward checking.  Base points are taken in index order, skipping every
    point whose domain is itself alone once the earlier ones are placed on
    themselves.  At base point b, each image in its domain outside the
    orbit of b under the generators that fix every earlier base point gets
    one witness search, and the orbit is recomputed after each witness.
    """
    up, down = rows
    n = len(up)
    colors = [0] * n if colors is None else colors
    sig = [(colors[i], up[i] >> i & 1, bin(down[i]).count("1"), bin(up[i]).count("1"))
           for i in range(n)]
    dom = [{w for w in range(n) if sig[w] == sig[u]} for u in range(n)]
    placed: set = set()
    base, gens, sizes = [], [], []
    for b in range(n):
        if dom[b] == {b}:
            continue
        level = [g for g in gens if all(g[c] == c for c in base)]
        orbit = _orbit(b, level)
        for x in sorted(dom[b]):
            if x in orbit:
                continue
            nxt = _chain_place(up, down, dom, b, x)
            g = None if nxt is None else _chain_extend(up, down, nxt, placed | {b})
            if g is not None:
                gens.append(g)
                level.append(g)
                orbit = _orbit(b, level)
        base.append(b)
        sizes.append(len(orbit))
        dom = _chain_place(up, down, dom, b, b)
        placed.add(b)
    return tuple(base), gens, tuple(sizes)


def generated_group(n, gens) -> list:
    """Every element of the permutation group that gens generate, sorted:
    the identity closed under right multiplication by each generator."""
    identity = tuple(range(n))
    seen, queue = {identity}, [identity]
    for h in queue:
        for g in gens:
            hg = tuple(g[h[x]] for x in range(n))
            if hg not in seen:
                seen.add(hg)
                queue.append(hg)
    return sorted(seen)


# -- the embedding check with per-product label maps (the check the library
# ran before it dropped the unreported search and mapped on index lists) -------


def induced_by_chain_sets(p, d, g) -> tuple:
    """The chain permutation of g, one target set per chain; raises the
    library's ScatteringError or ValueError with the library's messages."""
    from posetdecomp.errors import ScatteringError

    if sorted(g) != list(range(p.n)):
        raise ValueError("g is not a permutation of the element indices")
    owner = d.chain_of
    sigma = []
    for ci, chain in enumerate(d.chains):
        targets = {owner[g[x]] for x in chain}
        if len(targets) != 1:
            raise ScatteringError(
                f"chain {d.chains_as_labels()[ci]} is scattered over chains "
                f"{sorted(targets)}"
            )
        sigma.append(targets.pop())
    if sorted(sigma) != list(range(d.k)):
        raise ScatteringError("induced chain map is not a bijection")
    return tuple(sigma)


def _compose(a, b) -> tuple:
    """The permutation a after b."""
    return tuple(a[x] for x in b)


# the number of seeded product-replacement words in the embedding check's
# homomorphism test, the library's HOM_WORDS, pinned here on its own
WORDS = 16


def word_products(n: int, k: int, gens, seed: int) -> list[tuple[tuple, tuple]]:
    """The (element, chain) products of the embedding's homomorphism test,
    as tuples: the identity, every ordered pair of `gens`, then WORDS
    product-replacement words.  Each word picks slot i of the state from the
    draw stream of `seed`, then slot j among the other slots in order, and
    replaces slot i by slot i after slot j."""
    products = [(tuple(range(n)), tuple(range(k)))]
    products += [(_compose(a, b), _compose(sa, sb)) for a, sa in gens for b, sb in gens]
    if gens:
        states = draw_states(seed)
        state = gens * (1 if len(gens) > 1 else 2)
        for _ in range(WORDS):
            i = pick(states, len(state))
            j = [s for s in range(len(state)) if s != i][pick(states, len(state) - 1)]
            (a, sa), (b, sb) = state[i], state[j]
            state[i] = (_compose(a, b), _compose(sa, sb))
            products.append(state[i])
    return products


def embedding_by_label_maps(p, gr, seed: int):
    """The library's EmbeddingReport for the oriented chain graph `gr`, with
    all four symmetry searches (Aut(P), the oriented and the unoriented
    length-coloured chain graphs, the kernel) and a fresh
    `induced_by_chain_sets` map for every product of tuples.  The searches
    are the library's `automorphism_group`; `brute_embedding` pins that."""
    from posetdecomp.errors import ScatteringError
    from posetdecomp.hcd import EmbeddingReport
    from posetdecomp.poset import automorphism_group

    group = automorphism_group(p.rows)
    d = gr.decomposition
    comp = [a | b for a, b in zip(*gr.rows)]
    edges = set(gr.edges())
    lengths = [len(c) for c in d.chains]
    report = EmbeddingReport(
        n=p.n,
        k=d.k,
        aut_poset_order=group.order,
        aut_oriented_order=automorphism_group(gr.rows, lengths).order,
        aut_unoriented_order=automorphism_group((comp, comp), lengths).order,
        well_defined=True,
        injective=True,
        homomorphism=True,
        onto_oriented=False,
        hom_pairs_checked=0,
    )

    induced = []
    for g in group.generators:
        try:
            sigma = induced_by_chain_sets(p, d, g)
        except ScatteringError as exc:
            report.well_defined = False
            report.witness = {"automorphism": g, "error": str(exc)}
            return report
        if sorted(sigma) != list(range(d.k)) or any(
            len(d.chains[sigma[i]]) != len(d.chains[i]) for i in range(d.k)
        ):
            report.well_defined = False
            report.witness = {"automorphism": g, "induced": sigma, "error": "length class broken"}
            return report
        if {(sigma[i], sigma[j]) for i, j in edges} != edges:
            report.well_defined = False
            report.witness = {
                "automorphism": g,
                "induced": sigma,
                "error": "induced permutation does not fix the oriented chain graph",
            }
            return report
        induced.append(sigma)

    kernel = automorphism_group(p.rows, d.chain_of).order
    if kernel != 1:
        report.injective = False
        report.witness = {"kernel_order": kernel}

    products = word_products(p.n, d.k, list(zip(group.generators, induced)), seed)
    for g, expected in products:
        report.hom_pairs_checked += 1
        if induced_by_chain_sets(p, d, g) != expected:
            report.homomorphism = False
            report.witness = {"product": g, "expected": expected}
            break

    report.onto_oriented = report.aut_poset_order == report.aut_oriented_order
    report.findings.append({"kind": "embedding-onto", "onto": report.onto_oriented})
    return report


# -- labeled posets by filtering every pair orientation (the enumeration the
# library used before it grew each order from one on a point fewer)


def poset_rows_by_product(n: int):
    """The up rows of every strict order on 0..n-1: each unordered pair in
    `combinations` order gets one of {incomparable, i<j, j<i}, and the
    assignments of the product that fail transitivity are dropped."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [0] * n
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        if _bitrows_transitive(rows):
            yield rows


def _bitrows_transitive(rows: list[int]) -> bool:
    for i, row in enumerate(rows):
        acc = 0
        rest = row
        while rest:
            low = rest & -rest
            acc |= rows[low.bit_length() - 1]
            rest ^= low
        if acc & ~row:
            return False
    return True
