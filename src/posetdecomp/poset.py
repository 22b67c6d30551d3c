"""Finite posets stored as dense boolean strict-order matrices.

Element labels are opaque (hashable) values kept in input order; every
operation works on dense indices 0..n-1 internally.  The matrix `lt` holds the
full strict order (transitively closed), which makes comparability and
interval queries O(1) at the price of O(n^2) memory.

Closure, the transitivity check and the Hasse diagram all rest on one
two-step reachability product, computed as a float32 BLAS matrix product of
0/1 matrices.  It is exact: every entry is a count of at most n two-step
paths, and float32 represents every integer below 2**24, so no rounding can
occur for any poset this package can hold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._reference import _masks
from .errors import (
    CycleError,
    ScopeExceededError,
    UnknownElementError,
)

LINEAR_EXTENSION_CAP = 10
AUTOMORPHISM_CAP = 9
POSET_ENUMERATION_CAP = 5


def _two_step(rel: np.ndarray) -> np.ndarray:
    """Pairs (i, j) joined by a path i -> k -> j of two steps in `rel`.

    One float32 BLAS product of the 0/1 matrix with itself.  Entry (i, j) of
    the product counts the middle points k, so it is an integer of at most
    n; float32 holds every integer below 2**24 exactly, and every partial
    sum is such an integer, so the result is exact for n < 2**24.
    """
    f = np.asarray(rel, dtype=np.float32)
    return (f @ f) > 0


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """Boolean transitive closure by repeated squaring."""
    closed = np.asarray(rel, dtype=bool)
    while True:
        grown = closed | _two_step(closed)
        if np.array_equal(grown, closed):
            return grown
        closed = grown


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
        if lt.diagonal().any():
            raise ValueError("strict order cannot be reflexive")
        if (lt & lt.T).any():
            raise ValueError("strict order cannot be symmetric on any pair")
        if (~lt & _two_step(lt)).any():
            raise ValueError("relation is not transitively closed")
        lt = lt.copy()
        lt.setflags(write=False)
        self.labels = labels
        self.lt = lt
        self._index = {x: i for i, x in enumerate(labels)}
        self._lt_bytes: bytes | None = None

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
        n = len(labels)
        rel = np.zeros((n, n), dtype=bool)
        for x, y in covers:
            if x not in index:
                raise UnknownElementError(x)
            if y not in index:
                raise UnknownElementError(y)
            rel[index[x], index[y]] = True
        cycle = _find_cycle(rel)
        if cycle is not None:
            raise CycleError([labels[i] for i in cycle])
        return cls(labels, transitive_closure(rel))

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
        return tuple(np.count_nonzero(self.lt, axis=0).tolist())

    @cached_property
    def rows(self) -> tuple[list[int], list[int]]:
        """The order as bitmasks (up, down): bit y of up[x] and bit x of
        down[y] are set when x < y.  Shared by every caller, so read-only."""
        return _masks(self.lt_bytes, self.n)

    @property
    def lt_bytes(self) -> bytes:
        """Row-major 0/1 bytes of the strict order, for the scan kernels."""
        if self._lt_bytes is None:
            self._lt_bytes = self.lt.astype(np.uint8).tobytes()
        return self._lt_bytes

    # -- queries -----------------------------------------------------------

    def less(self, x, y) -> bool:
        return bool(self.lt[self.idx(x), self.idx(y)])

    def leq(self, x, y) -> bool:
        i, j = self.idx(x), self.idx(y)
        return i == j or bool(self.lt[i, j])

    def comparable(self, x, y) -> bool:
        i, j = self.idx(x), self.idx(y)
        return i == j or bool(self.lt[i, j]) or bool(self.lt[j, i])

    def covers(self) -> list[tuple]:
        """Hasse diagram pairs (x, y), in element input order."""
        hasse = self.lt & ~_two_step(self.lt)
        return [(self.labels[i], self.labels[j]) for i, j in zip(*np.nonzero(hasse))]

    def induced(self, keep: Iterable) -> "Poset":
        """Sub-poset on a subset of labels, in the order given."""
        idxs = [self.idx(x) for x in keep]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate element in subset")
        sub = self.lt[np.ix_(idxs, idxs)]
        return Poset([self.labels[i] for i in idxs], sub)

    def without(self, x) -> "Poset":
        """Sub-poset after deleting one element."""
        i = self.idx(x)
        return self.induced([lab for j, lab in enumerate(self.labels) if j != i])

    def minimal_elements(self) -> list:
        return [self.labels[i] for i in range(self.n) if not self.lt[:, i].any()]

    def maximal_elements(self) -> list:
        return [self.labels[i] for i in range(self.n) if not self.lt[i, :].any()]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and np.array_equal(self.lt, other.lt)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.lt.tobytes()))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={len(self.covers())})"


def _find_cycle(rel: np.ndarray) -> list[int] | None:
    """Witness cycle (as an index list) in a directed relation, else None.

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

    Computed as the alternating sum of powers of the strict adjacency matrix
    (the power A^s counts s-step chains), with numpy matrix products.  Any
    principal submatrix of a strict order is itself one, so a sub-order's
    counts come straight from `lt[np.ix_(keep, keep)]`.

    Every intermediate value is exact: an entry of a power, a partial sum of
    one of its dot products, and a partial sum of the alternating series each
    lie within the number of chains from x to y, at most 2**(n-2) (one chain
    per subset of the points strictly between).  So int64 holds them for
    n <= 64; above that the products run on Python integers (dtype object).
    """
    n = len(lt)
    adj = lt.astype(np.int64 if n <= 64 else object)
    total = np.eye(n, dtype=adj.dtype)
    power = total
    sign = 1
    for _ in range(n - 1):
        power = power @ adj
        if not power.any():
            break
        sign = -sign
        total += sign * power
    return total


def signed_chain_count(p: Poset, x, y) -> int:
    """Signed count of increasing chains from x to y (0 unless x <= y)."""
    return signed_chain_count_matrix(p)[p.idx(x)][p.idx(y)]


def mobius_matrix(p: Poset) -> list[list[int]]:
    """Mobius function of the poset as a dense integer matrix."""
    n = p.n
    mu = [[0] * n for _ in range(n)]
    # process targets in linear-extension order so mu(x, z) is ready for z < y
    order = _topological_order(p)
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


def mobius(p: Poset, x, y) -> int:
    """Mobius function mu(x, y); 0 when x and y are not ordered x <= y."""
    i, j = p.idx(x), p.idx(y)
    if i == j:
        return 1
    if not p.lt[i, j]:
        return 0
    return mobius_matrix(p)[i][j]


def _topological_order(p: Poset) -> list[int]:
    return sorted(range(p.n), key=p.pred_counts.__getitem__)


# -- linear extensions ------------------------------------------------------


def linear_extensions(p: Poset, cap: int | None = LINEAR_EXTENSION_CAP) -> Iterator[tuple]:
    """Yield every linear extension (as a label tuple) exactly once.

    Refuses n > cap up front; pass cap=None to lift the guard.
    """
    if cap is not None and p.n > cap:
        raise ScopeExceededError(
            f"linear extension enumeration capped at n <= {cap} (got n = {p.n})"
        )
    return _linear_extensions_iter(p)


def _linear_extensions_iter(p: Poset) -> Iterator[tuple]:
    # depth-first over prefixes, lowest free index first, with an explicit
    # prefix stack so that long chains cost no recursion
    n = p.n
    preds = list(p.pred_counts)
    succs = [np.flatnonzero(p.lt[i]).tolist() for i in range(n)]
    out: list[int] = []
    start = 0  # the lowest index still to try at the current depth
    while True:
        if len(out) == n:
            yield tuple(p.labels[i] for i in out)
            i = None
        else:
            i = next((j for j in range(start, n) if preds[j] == 0), None)
        if i is not None:
            preds[i] = -1
            for j in succs[i]:
                preds[j] -= 1
            out.append(i)
            start = 0
            continue
        if not out:
            return
        i = out.pop()
        for j in succs[i]:
            preds[j] += 1
        preds[i] = 0
        start = i + 1


def is_linear_extension(p: Poset, seq: Sequence) -> bool:
    """True iff seq lists every element once and never places y before x < y."""
    idxs = [p.idx(x) for x in seq]
    if len(idxs) != p.n or len(set(idxs)) != p.n:
        return False
    for a, i in enumerate(idxs):
        for j in idxs[a + 1:]:
            if p.lt[j, i]:
                return False
    return True


def count_linear_extensions(p: Poset, cap: int | None = LINEAR_EXTENSION_CAP) -> int:
    return sum(1 for _ in linear_extensions(p, cap=cap))


# -- automorphisms and isomorphism ------------------------------------------
#
# One backtracking search serves every symmetry question: it looks for one
# map from relation matrix a to relation matrix b that keeps vertex colours
# and both directions of every relation, extending a given partial map.  Each
# element keeps a bitmask of the images still open to it; mapping i to j
# leaves an element u only the images that relate to j as u relates to i
# (forward checking), and j itself leaves every other domain, so every
# partial map is injective.  The search branches on the open element with
# the fewest images.  The group of a matrix is then found by base and strong
# generators (Sims 1970): for base points b_1, b_2, ..., one witness per new
# point of the orbit of b_i under the pointwise stabilizer of b_1..b_{i-1},
# and |G| is the product of the orbit sizes.


def _refined_signatures(lt: np.ndarray, colors: Sequence | None = None) -> list:
    """Invariant per element, stable under colour-preserving automorphism, used for pruning."""
    n = lt.shape[0]
    colors = [0] * n if colors is None else colors
    sig: list = [
        (colors[i], bool(lt[i, i]), int(lt[:, i].sum()), int(lt[i, :].sum())) for i in range(n)
    ]
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
    untried images); images are tried in increasing order.
    """
    def frame(dom: list[int], free: int) -> tuple:
        u = min(_bits(free), key=lambda v: dom[v].bit_count())
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


def automorphism_group(lt: np.ndarray, colors: Sequence | None = None) -> AutomorphismGroup:
    """The colour-preserving automorphisms of a boolean relation matrix.

    Base points are taken in index order, skipping every point that the
    stabilizer of the earlier ones must fix (its domain is itself alone).
    For each image of b_i its domain allows and the orbit does not yet hold,
    one witness search that fixes b_1..b_{i-1}; orbits use only the
    generators that fix every earlier base point.
    """
    lt = np.asarray(lt, dtype=bool)
    n = lt.shape[0]
    up, down = _masks(lt.astype(np.uint8).tobytes(), n)
    rows = (up, down, up, down)
    sig = _refined_signatures(lt, colors)
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
    if cap is not None and p.n > cap:
        raise ScopeExceededError(
            f"automorphism search capped at n <= {cap} (got n = {p.n})"
        )
    return automorphism_group(p.lt).elements()


def isomorphic(p: Poset, q: Poset, cap: int | None = AUTOMORPHISM_CAP) -> bool:
    """True iff some bijection of labels carries one strict order to the other."""
    if p.n != q.n:
        return False
    if cap is not None and p.n > cap:
        raise ScopeExceededError(
            f"isomorphism search capped at n <= {cap} (got n = {p.n})"
        )
    sig_p, sig_q = _refined_signatures(p.lt), _refined_signatures(q.lt)
    if sorted(sig_p) != sorted(sig_q):
        return False
    rows = (*p.rows, *q.rows)
    return _extend(rows, _domains(sig_p, sig_q), (1 << p.n) - 1) is not None


# -- exhaustive enumeration of labeled posets --------------------------------


def enumerate_posets(n: int, cap: int | None = POSET_ENUMERATION_CAP) -> Iterator[Poset]:
    """Every labeled poset on elements "0".."n-1", exactly once.

    Each unordered pair independently gets one of {incomparable, i<j, j<i};
    orientation assignments failing transitivity are filtered out.  The counts
    1, 1, 3, 19, 219, 4231 for n = 0..5 pin the enumeration down in the tests.
    """
    if cap is not None and n > cap:
        raise ScopeExceededError(
            f"labeled poset enumeration capped at n <= {cap} (got n = {n})"
        )
    labels = tuple(str(i) for i in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = [0] * n
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        if _bitrows_transitive(rows):
            lt = np.zeros((n, n), dtype=bool)
            for i in range(n):
                row = rows[i]
                while row:
                    low = row & -row
                    lt[i, low.bit_length() - 1] = True
                    row ^= low
            yield Poset(labels, lt)


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
