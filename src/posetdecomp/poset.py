"""Finite posets stored as the bit rows of their strict order.

Element labels are opaque (hashable) values kept in input order; every
operation works on dense indices 0..n-1 internally.  A `Poset` holds its
closed strict order once, as the shared, read-only bit rows
`rows = (up, down)`: bit y of up[x] and bit x of down[y] are set when x < y.
Dense work reads `lt`, the n x n boolean matrix unpacked from the up rows on
its first read.  `Poset(labels, lt)` validates a matrix; every constructor
that proves its order on the way calls the trusted `Poset._from_rows`.

Loading from cover relations closes the relation on bit rows during the
search for a directed cycle, one depth-first pass.  Validation and the Hasse
diagram are one walk on the bit rows, `_cover_rows`: for each x it tests the
up row of one successor y per step and ORs it into the set x has reached,
until every successor of x is either such a y or reached; the successors
never reached are x's covers.  It is exact in any label order for an
irreflexive relation.  Each z above x is either a tested y or lies in the
row of some tested y, whose row then lies inside x's and misses y itself,
so it is strictly smaller than x's; by induction on the size of the row,
every row of the relation that passes is closed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CycleError, UnknownElementError, refuse_above

LINEAR_EXTENSION_CAP = 10
AUTOMORPHISM_CAP = 9
POSET_ENUMERATION_CAP = 5


def _bitrows(mat: np.ndarray) -> tuple[list[int], list[int]]:
    """The bit rows (up, down) of a square boolean matrix: bit y of up[x] and
    bit x of down[y] are set when mat[x, y].

    One packing call on the matrix stacked over its transpose; stacking also
    copies the transpose to row-major order, which packs several times faster
    than the transposed view at n in the hundreds.
    """
    n = len(mat)
    packed = np.packbits(np.concatenate((mat, mat.T)), axis=1, bitorder="little")
    # one bytes object per row, through a void dtype as wide as a row
    rows = packed.view(f"V{packed.shape[1] or 1}").ravel().tolist()
    rows = list(map(int.from_bytes, rows, itertools.repeat("little")))
    return rows[:n], rows[n:]


def _cover_rows(up: list[int], down: list[int]) -> list[int] | None:
    """The covers of each x as a bit row, or None unless the irreflexive
    relation with bit rows (up, down) is transitively closed.

    For each x, until every successor is reached or tested: take the lowest
    successor left, step down to the highest successor left below it while
    one is (`seen` ends the descent on a cycle), require that element's up
    row to lie inside x's, and OR it into `reached`.  The successors never
    reached are the covers; see the module docstring for why this is exact.
    """
    covers = []
    for row in up:
        reached = 0
        left = row
        while left:
            y = (left & -left).bit_length() - 1
            below = down[y] & left
            if below:
                seen = 1 << y
                while below:
                    y = below.bit_length() - 1
                    seen |= 1 << y
                    below = down[y] & left & ~seen
            if up[y] & ~row:
                return None
            reached |= up[y]
            left &= ~(reached | 1 << y)
        covers.append(row & ~reached)
    return covers


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Boolean transitive closure of any relation, as a fresh writable matrix."""
    rel = np.asarray(rel, dtype=bool)
    return _unpack_rows(_closure_rows(_bitrows(rel)[0]), len(rel)).copy()


def _closure_rows(rows: Sequence[int]) -> list[int]:
    """Warshall's algorithm on bit rows: bit y of the result's row x is set
    when rows lead from x to y in one or more steps, cycles included."""
    reach = list(rows)
    for k in range(len(reach)):
        bit, row = 1 << k, reach[k]
        for x, r in enumerate(reach):
            if r & bit:
                reach[x] = r | row
    return reach


class Poset:
    """A finite strict partial order over an ordered tuple of labels."""

    def __init__(self, labels: Sequence, lt: np.ndarray):
        labels = tuple(labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("duplicate element labels")
        lt = np.asarray(lt, dtype=bool)
        if lt.shape != (n, n):
            raise ValueError(f"matrix shape {lt.shape} does not match {n} elements")
        up, down = _bitrows(lt)
        if any(row >> x & 1 for x, row in enumerate(up)):
            raise ValueError("strict order cannot be reflexive")
        covers = _cover_rows(up, down)
        if covers is None:
            # x < y < x would make an irreflexive transitive relation
            # reflexive, so a symmetric pair fails the walk too
            if any(u & d for u, d in zip(up, down)):
                raise ValueError("strict order cannot be symmetric on any pair")
            raise ValueError("relation is not transitively closed")
        self.labels = labels
        self.rows = (up, down)
        self._covers = covers

    @classmethod
    def _from_rows(cls, labels: tuple, up: list[int], down: list[int]) -> "Poset":
        """The poset on distinct labels whose proved order has bit rows (up, down): no checks."""
        p = cls.__new__(cls)
        p.labels = labels
        p.rows = (up, down)
        return p

    # -- construction ------------------------------------------------------

    @classmethod
    def from_cover_relations(cls, labels: Sequence, covers: Iterable[tuple]) -> "Poset":
        """Build from Hasse-style cover pairs (x, y) meaning x < y.

        Any set of acyclic relations works (redundant, transitively implied
        pairs are fine); a directed cycle raises CycleError with a witness.
        """
        labels = tuple(labels)
        index = {x: i for i, x in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("duplicate element labels")
        succ: list[set[int]] = [set() for _ in labels]
        try:
            for x, y in covers:
                succ[index[x]].add(index[y])
        except KeyError as unknown:
            raise UnknownElementError(unknown.args[0]) from None
        cycle, rows = _close_acyclic([sorted(ws) for ws in succ])
        if cycle is not None:
            raise CycleError([labels[i] for i in cycle])
        return cls._from_rows(labels, *rows)

    @cached_property
    def lt(self) -> np.ndarray:
        """The strict order as a read-only boolean matrix, unpacked from the up rows."""
        return _unpack_rows(self.rows[0], self.n)

    @cached_property
    def _covers(self) -> list[int]:
        return _cover_rows(*self.rows)  # a valid order passes the walk

    @cached_property
    def _index(self) -> dict:
        return {x: i for i, x in enumerate(self.labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    def idx(self, x) -> int:
        """Dense index of a label."""
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElementError(x) from None

    def label(self, i: int):
        return self.labels[i]

    @cached_property
    def pred_counts(self) -> tuple[int, ...]:
        """Number of elements below each element, by index."""
        return tuple(row.bit_count() for row in self.rows[1])

    # -- queries -----------------------------------------------------------

    def less(self, x, y) -> bool:
        return bool(self.rows[0][self.idx(x)] >> self.idx(y) & 1)

    def leq(self, x, y) -> bool:
        i, j = self.idx(x), self.idx(y)
        return i == j or bool(self.rows[0][i] >> j & 1)

    def comparable(self, x, y) -> bool:
        i, j = self.idx(x), self.idx(y)
        return i == j or bool((self.rows[0][i] | self.rows[1][i]) >> j & 1)

    def covers(self) -> list[tuple]:
        """Hasse diagram pairs (x, y), in element input order: the cover rows
        that validation found, read lowest x first and lowest y first."""
        labels = self.labels
        return [(labels[i], labels[j]) for i, row in enumerate(self._covers) for j in _bits(row)]

    def induced(self, keep: Iterable) -> "Poset":
        """Sub-poset on a subset of labels, in the order given."""
        idxs = [self.idx(x) for x in keep]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate element in subset")
        sub = _bitrows(self.lt[np.ix_(idxs, idxs)])
        return Poset._from_rows(tuple(self.labels[i] for i in idxs), *sub)

    def without(self, x) -> "Poset":
        """Sub-poset after deleting one element."""
        i = self.idx(x)
        return self.induced([lab for j, lab in enumerate(self.labels) if j != i])

    def minimal_elements(self) -> list:
        return [x for x, row in zip(self.labels, self.rows[1]) if not row]

    def maximal_elements(self) -> list:
        return [x for x, row in zip(self.labels, self.rows[0]) if not row]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.rows[0] == other.rows[0]
        )

    def __hash__(self) -> int:
        return hash((self.labels, tuple(self.rows[0])))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={len(self.covers())})"


def _close_acyclic(succ: list[list[int]]) -> tuple[list[int] | None, tuple | None]:
    """(witness cycle, None) if the successor lists have a cycle, else (None, (up, down)).

    Depth-first search from each unvisited index in turn over succ, whose
    lists are increasing, with an explicit stack; the witness is the stretch
    of the current path from the first back edge's target to its end.
    Without a cycle a node finishes after its successors w, and its up row is
    the OR of up[w] | 1 << w over those not yet in the row.  The tested w
    include every cover, so ORing down[v] | 1 << v into the down row of each
    tested w of v, in reverse finishing order, gives every down row.
    """
    n = len(succ)
    color = [0] * n  # 0 unvisited, 1 on the path, 2 done
    reach = [0] * n
    tested: list[list[int]] = [[] for _ in range(n)]
    finished = []
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
                    if not row >> w & 1:
                        row |= reach[w] | 1 << w
                        tested[v].append(w)
                reach[v] = row
                finished.append(v)
    down = [0] * n
    for v in reversed(finished):
        for w in tested[v]:
            down[w] |= down[v] | 1 << v
    return None, (reach, down)


def _unpack_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """The read-only boolean matrix with one row per bit row: bit y of rows[x] at column y < n."""
    width = (n + 7) // 8
    blob = b"".join(row.to_bytes(width, "little") for row in rows)
    packed = np.frombuffer(blob, dtype=np.uint8).reshape(len(rows), width)
    mat = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
    mat.setflags(write=False)
    return mat


# -- signed chain counts and the Mobius function ---------------------------


def signed_chain_count_matrix(p: Poset) -> list[list[int]]:
    """Matrix of signed counts of strictly increasing chains x to y.

    Entry (x, y) sums (-1)^s over all chains x = z_0 < z_1 < ... < z_s = y;
    the single length-0 chain contributes +1 on the diagonal.  The lists of
    `_signed_counts(p.lt)`, so every entry is a Python integer.
    """
    return _signed_counts(p.lt).tolist()


def _signed_counts(lt: np.ndarray) -> np.ndarray:
    """Signed chain counts of a strict order matrix, as an exact numpy array.

    The alternating sum of the powers of the strict adjacency matrix (the
    power A^s counts s-step chains), by `_alternating_series` from I.  Any
    principal submatrix of a strict order is itself one, so a sub-order's
    counts come straight from `lt[np.ix_(keep, keep)]`.

    Every intermediate value is exact: an entry of a power, a partial sum of
    one of its dot products (added in whatever order BLAS adds them), and a
    partial sum of the alternating series each count distinct chains from x
    to y, or are a signed sum of such counts, so they lie within the number
    of chains from x to y, at most 2**(n-2) (one chain per subset of the
    points strictly between).  `_exact_dtypes` turns that bound into the
    dtype: the series runs on float64 BLAS for n <= 54 and returns int64, on
    int64 for n <= 64, and on Python integers (dtype object) above.
    """
    n = len(lt)
    work, exact = _exact_dtypes(2 ** (n - 2))
    counts = _alternating_series(np.eye(n, dtype=work), lt.astype(work))
    return counts.astype(exact, copy=False)


def _exact_dtypes(bound) -> tuple:
    """The dtype to compute in and the dtype to return, for integer matrix
    arithmetic in which every entry and every partial sum of a dot product,
    added in any order, is at most `bound` in absolute value.

    float64 below 2**53: a double holds every integer of at most 53 bits
    exactly, so no sum, product or fused multiply-add whose exact result is
    such an integer rounds, and the products run on BLAS; the result
    returns as int64.  Below 2**63, int64 (numpy has no BLAS path for it);
    above, Python integers (dtype object).
    """
    if bound < 2**53:
        return np.float64, np.int64
    dtype = np.int64 if bound < 2**63 else object
    return dtype, dtype


def _alternating_series(power: np.ndarray, strict: np.ndarray, inside=1) -> np.ndarray:
    """sum_s (-1)^s V_s with V_0 = power and V_{s+1} = (V_s @ strict) * inside,
    up to the first zero power; `strict` is nilpotent, so one comes.  Each
    power replaces the one before, so V_0 is not kept alive to the end."""
    total = np.zeros_like(power)
    sign = 1
    while power.any():
        total += sign * power
        power = (power @ strict) * inside
        sign = -sign
    return total


def signed_chain_count(p: Poset, x, y) -> int:
    """Signed count of increasing chains from x to y (0 unless x <= y)."""
    return signed_chain_count_matrix(p)[p.idx(x)][p.idx(y)]


def mobius_matrix(p: Poset) -> list[list[int]]:
    """Mobius function of the poset as a dense integer matrix.

    By its defining recursion: mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z)
    over x <= z < y, with y taken in a linear extension so that every
    mu(x, z) is ready.  The elements z are the bits of
    (up[x] | 1 << x) & down[y] on the bit rows.
    """
    return _mobius(p, (1 << p.n) - 1)


def _mobius(p: Poset, keep: int) -> list[list[int]]:
    """`mobius_matrix` of the sub-order induced on the bits of `keep`, as an
    n x n matrix that is 0 in every row and column outside them."""
    up, down = p.rows
    order = [y for y in _topological_order(p) if keep >> y & 1]
    mu = []
    for x in range(p.n):
        row = [0] * p.n
        if keep >> x & 1:
            row[x] = 1
            at_least_x = (up[x] | 1 << x) & keep
            for y in order:
                if up[x] >> y & 1:
                    row[y] = -sum(row[z] for z in _bits(at_least_x & down[y]))
        mu.append(row)
    return mu


def mobius(p: Poset, x, y) -> int:
    """Mobius function mu(x, y); 0 when x and y are not ordered x <= y."""
    i, j = p.idx(x), p.idx(y)
    if i == j:
        return 1
    if not p.rows[0][i] >> j & 1:
        return 0
    return mobius_matrix(p)[i][j]


def _topological_order(p: Poset) -> list[int]:
    return sorted(range(p.n), key=p.pred_counts.__getitem__)


# -- linear extensions ------------------------------------------------------


def linear_extensions(p: Poset, cap: int | None = LINEAR_EXTENSION_CAP) -> Iterator[tuple]:
    """Yield every linear extension (as a label tuple) exactly once.

    Refuses n > cap up front; pass cap=None to lift the guard.
    """
    refuse_above("linear extension enumeration", cap, p.n)
    return _linear_extensions_iter(p)


def _linear_extensions_iter(p: Poset) -> Iterator[tuple]:
    # depth-first over prefixes, lowest free index first, with an explicit
    # prefix stack so that long chains cost no recursion; an element is free
    # when it is unplaced and everything below it is placed
    down = p.rows[1]
    unplaced = (1 << p.n) - 1
    out: list[int] = []
    start = 0  # the lowest index still to try at the current depth
    while True:
        if not unplaced:
            yield tuple(p.labels[i] for i in out)
            i = None
        else:
            i = next((j for j in _bits(unplaced >> start << start) if not down[j] & unplaced), None)
        if i is not None:
            unplaced ^= 1 << i
            out.append(i)
            start = 0
            continue
        if not out:
            return
        i = out.pop()
        unplaced |= 1 << i
        start = i + 1


def _extension_rows(p: Poset, seq: Sequence) -> tuple[list[int], list[int]] | None:
    """The bit rows (up, down) of "earlier in seq", or None unless seq is a
    linear extension of p: one pass that fails on a repeat or on an element
    placed while one below it is not."""
    below = p.rows[1]
    full = (1 << p.n) - 1
    up, down = [0] * p.n, [0] * p.n
    placed = 0
    for x in [p.idx(y) for y in seq]:
        if placed >> x & 1 or below[x] & ~placed:
            return None
        down[x] = placed
        placed |= 1 << x
        up[x] = full ^ placed
    return (up, down) if placed == full else None


def is_linear_extension(p: Poset, seq: Sequence) -> bool:
    """True iff seq lists every element once and never places y before x < y."""
    return _extension_rows(p, seq) is not None


def count_linear_extensions(p: Poset, cap: int | None = LINEAR_EXTENSION_CAP) -> int:
    return sum(1 for _ in linear_extensions(p, cap=cap))


# -- automorphisms and isomorphism ------------------------------------------
#
# One backtracking search serves every symmetry question: it looks for one map
# from relation a to relation b, each given by its bit rows (up, down), that
# keeps vertex colours and both directions of every relation, extending a
# given partial map.  Each element keeps a bitmask of the images still open to
# it; mapping i to j leaves an element u only the images that relate to j as u
# relates to i (forward checking), and j itself leaves every other domain, so
# every partial map is injective.  Domains start from a per-element invariant
# (colour, loop bit, down and up counts), and the search branches on the
# lowest open element.  The group of a relation is then found by base and
# strong generators (Sims 1970): for base points b_1, b_2, ..., one witness
# per new point of the orbit of b_i under the pointwise stabilizer of
# b_1..b_{i-1}, and |G| is the product of the orbit sizes.


def _signatures(rows: tuple, colors: Sequence | None = None) -> list:
    """Invariant per element, stable under colour-preserving automorphism, used for pruning:
    its colour, its loop bit and its down and up counts."""
    up, down = rows
    colors = [0] * len(up) if colors is None else colors
    return [
        (colors[i], bool(up[i] >> i & 1), down[i].bit_count(), up[i].bit_count())
        for i in range(len(up))
    ]


def _domains(sig_a: list, sig_b: list) -> list[int]:
    """For each element of a, the mask of the elements of b with its signature."""
    masks: dict = {}
    for j, s in enumerate(sig_b):
        masks[s] = masks.get(s, 0) | 1 << j
    return [masks.get(s, 0) for s in sig_a]


def _fixing(gens: Sequence[tuple[int, ...]], points: Sequence[int]) -> list[tuple[int, ...]]:
    """The permutations in gens that fix every one of the points."""
    return [g for g in gens if all(g[c] == c for c in points)]


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _place(rows: tuple, dom: list[int], free: int, i: int, j: int) -> tuple | None:
    """Domains after mapping i to j, or None when some element is left no image."""
    up_a, down_a, up_b, down_b = rows
    dom = dom.copy()
    dom[i] = 1 << j
    free &= ~(1 << i)
    ua, da = up_a[i], down_a[i]
    ub, db, other = up_b[j], down_b[j], ~(1 << j)
    for u in _bits(free):
        bit = 1 << u
        m = dom[u] & other & (ub if ua & bit else ~ub) & (db if da & bit else ~db)
        if not m:
            return None
        dom[u] = m
    return dom, free


def _extend(rows: tuple, dom: list[int], free: int) -> tuple[int, ...] | None:
    """One map that gives every free element an image in its domain, or None.

    Depth-first with an explicit stack of (domains, free set, element,
    untried images), branching on the lowest free element; images are tried
    in increasing order.
    """
    def frame(dom: list[int], free: int) -> tuple:
        u = (free & -free).bit_length() - 1
        return dom, free, u, dom[u]

    if not free:
        return tuple(d.bit_length() - 1 for d in dom)
    stack = [frame(dom, free)]
    while stack:
        dom, free, u, untried = stack[-1]
        if not untried:
            stack.pop()
            continue
        low = untried & -untried
        stack[-1] = (dom, free, u, untried ^ low)
        placed = _place(rows, dom, free, u, low.bit_length() - 1)
        if placed is None:
            continue
        if not placed[1]:
            return tuple(d.bit_length() - 1 for d in placed[0])
        stack.append(frame(*placed))
    return None


def _witness(rows: tuple, dom: list[int], free: int, b: int, x: int) -> tuple[int, ...] | None:
    """One automorphism that maps b to x and respects the placements in `dom`."""
    placed = _place(rows, dom, free, b, x)
    return None if placed is None else _extend(rows, *placed)


def _transversal(b: int, gens: Sequence[tuple[int, ...]], n: int) -> dict[int, tuple[int, ...]]:
    """The orbit of b under the group that gens generate, each point with one
    group element that maps b to it."""
    reps = {b: tuple(range(n))}
    queue = [b]
    for x in queue:
        t = reps[x]
        for s in gens:
            y = s[x]
            if y not in reps:
                reps[y] = tuple(s[z] for z in t)
                queue.append(y)
    return reps


@dataclass(frozen=True)
class AutomorphismGroup:
    """A permutation group on 0..n-1 by base, strong generators and basic orbit sizes.

    The generators that fix base[:i] pointwise generate the pointwise
    stabilizer of base[:i], and orbit_sizes[i] is the length of base[i]'s
    orbit under it, so the order is their exact product.
    """

    n: int
    base: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    orbit_sizes: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.orbit_sizes)

    def elements(self) -> list[tuple[int, ...]]:
        """Every element once, in lexicographic order: products of the basic transversals."""
        elements = [tuple(range(self.n))]
        for i in reversed(range(len(self.base))):
            level = _fixing(self.generators, self.base[:i])
            reps = _transversal(self.base[i], level, self.n).values()
            elements = [tuple(t[x] for x in h) for t in reps for h in elements]
        return sorted(elements)


def automorphism_group(rows: tuple, colors: Sequence | None = None) -> AutomorphismGroup:
    """The colour-preserving automorphisms of a relation given by its bit rows
    (up, down), as `Poset.rows` or `_bitrows` of a boolean matrix give them.

    Base points are taken in index order, skipping every point that the
    stabilizer of the earlier ones must fix (its domain is itself alone).
    For each image of b_i its domain allows and the orbit does not yet hold,
    one witness search that fixes b_1..b_{i-1}; orbits use only the
    generators that fix every earlier base point.
    """
    up, down = rows
    n = len(up)
    sig = _signatures(rows, colors)
    rows = (up, down, up, down)
    dom = _domains(sig, sig)
    free = (1 << n) - 1
    base: list[int] = []
    gens: list[tuple[int, ...]] = []
    sizes: list[int] = []
    for b in range(n):
        if dom[b] == 1 << b:
            continue
        level = _fixing(gens, base)
        orbit = _transversal(b, level, n)
        for x in _bits(dom[b]):
            if x in orbit:
                continue
            g = _witness(rows, dom, free, b, x)
            if g is not None:
                gens.append(g)
                level.append(g)
                orbit = _transversal(b, level, n)
        base.append(b)
        sizes.append(len(orbit))
        dom, free = _place(rows, dom, free, b, b)
    return AutomorphismGroup(n, tuple(base), tuple(gens), tuple(sizes))


def automorphisms(p: Poset, cap: int | None = AUTOMORPHISM_CAP) -> list[tuple[int, ...]]:
    """All order automorphisms as index tuples sigma (element i maps to sigma[i]).

    Listed in lexicographic order from the group's strong generators; refuses n > cap.
    """
    refuse_above("automorphism search", cap, p.n)
    return automorphism_group(p.rows).elements()


def isomorphic(p: Poset, q: Poset, cap: int | None = AUTOMORPHISM_CAP) -> bool:
    """True iff some bijection of labels carries one strict order to the other."""
    if p.n != q.n:
        return False
    refuse_above("isomorphism search", cap, p.n)
    sig_p, sig_q = _signatures(p.rows), _signatures(q.rows)
    if sorted(sig_p) != sorted(sig_q):
        return False
    rows = (*p.rows, *q.rows)
    return _extend(rows, _domains(sig_p, sig_q), (1 << p.n) - 1) is not None


# -- exhaustive enumeration of labeled posets --------------------------------


def enumerate_posets(n: int, cap: int | None = POSET_ENUMERATION_CAP) -> Iterator[Poset]:
    """Every labeled poset on elements "0".."n-1", exactly once.

    The order is that of the product over the pairs (i, j), i < j, in
    `combinations` order, each pair incomparable, i < j or j < i, the last
    pair varying fastest; no order is filtered out.  `_order_rows` writes an
    order as an order Q on 1..n-1 (an order on n - 1 points, every label
    moved up by one) plus point 0's relations to 1..n-1.  The pairs (0, j)
    are the product's slowest positions and the rest are the pairs of
    1..n-1 in `combinations` order, so looping over 0's relations outside
    and over the orders Q inside, each in its own order, keeps the product's
    order.  The counts 1, 1, 3, 19, 219, 4231, 130023 for n = 0..6 pin the
    enumeration down in the tests.
    """
    refuse_above("labeled poset enumeration", cap, n)
    labels = tuple(str(i) for i in range(n))
    for up, down in _order_rows(n):
        yield Poset._from_rows(labels, up, down)


def _order_rows(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """The bit rows (up, down) of every strict order on 0..n-1, in `enumerate_posets` order.

    Each is an order Q on 1..n-1 with A, the elements above 0, up-closed in
    Q, B, the elements below 0, down-closed, and every element of B below
    every element of A; these are exactly the transitive extensions, and
    each order arises once, from its restriction to 1..n-1.  Only the rows
    of the orders on n - 1 points are held.
    """
    if n == 0:
        yield [], []
        return
    smaller = [
        ([0] + [row << 1 for row in up], [0] + [row << 1 for row in down])
        for up, down in _order_rows(n - 1)
    ]
    # choice j - 1 relates 0 and j: 0 unrelated, 1 for 0 < j, 2 for j < 0
    for choice in itertools.product((0, 1, 2), repeat=n - 1):
        above = [j for j, c in enumerate(choice, 1) if c == 1]
        below = [j for j, c in enumerate(choice, 1) if c == 2]
        a = sum(1 << j for j in above)
        b = sum(1 << j for j in below)
        for up, down in smaller:
            if all(up[j] | a == a for j in above) and all(
                down[j] | b == b and up[j] & a == a for j in below
            ):
                new_up, new_down = up.copy(), down.copy()
                new_up[0], new_down[0] = a, b
                for j in below:
                    new_up[j] |= 1
                for j in above:
                    new_down[j] |= 1
                yield new_up, new_down
