"""Homogeneous chain decompositions and the automorphism embedding.

A decomposition is homogeneous when every pair of its chains is all-or-nothing
comparable: either all cross pairs of elements are comparable or none are.
Merging two comparable chains whose comparability profile towards every other
chain agrees preserves homogeneity, and the decomposition where no merge
applies is unique, so greedy merging from singletons reaches it in any merge
order.  That fixpoint, the minimal homogeneous chain decomposition (MHCD), is
the partition into true-twin classes of the comparability graph: elements
with the same closed neighbourhood (comparable to each other and to the same
other elements).  `mhcd` groups the closed bit rows `up | down | 1 << i`;
`merge_fixpoint` runs the merge loop itself, on one comparability bitmask per
chain, and the verifier replays it under shuffled merge orders as an
independent cross-check.  The replays of one poset share one pair table:
each comparable pair's row difference is computed once, and a pair that is
not yet a merge waits on one alive bit of that difference (the watched
literals of Chaff, Moskewicz et al., DAC 2001, with one watch per pair), so a
merge looks again only at the pairs that watched the chain it removed.  The candidate
list stays the rescan's, in order, so a seed draws the same merges.  The walk
that certifies homogeneity also yields the oriented chain graph as bit rows.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .chains import ChainDecomposition
from .errors import (
    InternalInconsistencyError,
    NotHomogeneousError,
    ScatteringError,
    refuse_above,
)
from .poset import Poset, _bitrows, _bits, _unpack_rows, automorphism_group

GRAPH_AUTOMORPHISM_CAP = 10
HOM_WORDS = 16


def _as_decomposition(p: Poset, parts) -> ChainDecomposition:
    if isinstance(parts, ChainDecomposition):
        return parts
    return ChainDecomposition.from_parts(p, parts)


def chain_comparability(p: Poset, d: ChainDecomposition) -> np.ndarray:
    """k x k matrix: chains are comparable iff every cross pair is comparable.

    Raises NotHomogeneousError at the first chain pair i < j that mixes
    comparable and incomparable cross pairs, so a returned matrix certifies
    homogeneity.
    """
    return chain_graph(p, d).adjacency


def is_homogeneous(p: Poset, parts) -> bool:
    """True iff the (valid) decomposition is homogeneous; invalid input raises."""
    return _comparable_pairs(p, _as_decomposition(p, parts))[2] is None


def _comparable_pairs(
    p: Poset, d: ChainDecomposition
) -> tuple[list[int], list[int], tuple[int, int] | None]:
    """(out, into, mixed): the rows of ChainGraph, and the first pair i < j
    that mixes comparable and incomparable cross pairs, or None.

    On the bit rows of p: chain i reaches the elements comparable to all of
    its elements (`inside`, the AND of their closed rows) or to some of them
    (`reach`, the OR).  Chain j is comparable to i when it lies in inside[i]
    and incomparable when it misses reach[i]; anything else is mixed.  A chain
    that misses reach[i] is incomparable, so chain i visits only the later
    chains that meet it, read off the high bits of reach[i].  The minima of
    comparable chains are comparable, and their order directs the pair.
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
    bit = [1 << i for i in range(d.k)]
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
                out[i] |= bit[j]
                into[j] |= bit[i]
            elif below & low[j]:
                out[j] |= bit[i]
                into[i] |= bit[j]
            else:
                raise InternalInconsistencyError(
                    "comparable chains with incomparable minima cannot occur in a "
                    "homogeneous decomposition"
                )
        if mixed:
            return out, into, (i, min(mixed))
    return out, into, None


def mhcd(p: Poset) -> ChainDecomposition:
    """The minimal homogeneous chain decomposition: the true-twin classes.

    Two elements share a class iff their closed comparability rows agree;
    each class is a chain, since an element's row marks itself and so every
    element of its class.
    """
    return ChainDecomposition._from_index_parts(p, _twin_classes(_closed(p)))


def _closed(p: Poset) -> list[int]:
    """The closed comparability bit rows `up | down | 1 << i` of p."""
    return [u | d | 1 << i for i, (u, d) in enumerate(zip(*p.rows))]


def _twin_classes(rows: list[int]) -> list[list[int]]:
    """The indices grouped by equal bit rows, in order of first index."""
    classes: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


def merge_fixpoint(p: Poset, shuffle_seed: int | None = None) -> ChainDecomposition:
    """Greedy merging to the fixpoint: the MHCD by its definition.

    Starts from singletons and merges comparable chain pairs with identical
    comparability profiles until none remains: each round fires the first of
    the merges (i, j), i < j, in that order or, with `shuffle_seed`, a seeded
    `rng.choice` among them; the fixpoint is the same either way.  Chain i
    (named by its least index) keeps element i's comparability row when j
    merges in, so the merges are read off one pair table (see `_merge_table`)
    and the candidate list each round is the one a full rescan would list,
    in the same order: a seed draws the same merges.
    """
    return next(_merge_replays(p, (shuffle_seed,)))


def _merge_replays(p: Poset, seeds: Iterable[int | None]) -> Iterator[ChainDecomposition]:
    """The merge fixpoint under each seed of `seeds`, all from one pair table."""
    table = _merge_table(p)
    for seed in seeds:
        chains = [[i] for i in range(p.n)]
        for i, j in _replay(p.n, *table, seed):
            chains[i] += chains[j]
            chains[j] = []
        yield ChainDecomposition._from_index_parts(p, [c for c in chains if c])


def _merge_table(p: Poset) -> tuple[list[tuple[int, int]], list[list[tuple[int, int, int]]]]:
    """(ready, watch): the seed-independent start of every merge replay.

    With comp[x] = up[x] | down[x], the comparable pair (i, j), i < j, differs
    on the elements diff = (comp[i] ^ comp[j]) & ~(bit i | bit j), and it is a
    merge as soon as no alive element lies in diff.  Rows never change and
    the alive set only shrinks, so a merge stays one until i or j merges
    away.  `ready` lists the pairs with diff 0 in (i, j) order; every other
    pair (diff, i, j) waits in watch[b] for b, the highest bit of its diff.
    """
    up, down = p.rows
    comp = [u | d for u, d in zip(up, down)]
    ready = []
    watch = [[] for _ in range(p.n)]
    for i in range(p.n):
        for j in _bits(comp[i] & -(2 << i)):
            diff = (comp[i] ^ comp[j]) & ~(1 << i | 1 << j)
            if diff:
                watch[diff.bit_length() - 1].append((diff, i, j))
            else:
                ready.append((i, j))
    return ready, watch


def _replay(
    n: int,
    ready: list[tuple[int, int]],
    watch: list[list[tuple[int, int, int]]],
    seed: int | None,
) -> list[tuple[int, int]]:
    """The merges (i, j), in firing order, of one merge loop under `seed`, run
    from the table of `_merge_table`, which it leaves intact.

    After each merge (i, j) the candidates lose the pairs that hold j, and
    only the pairs watched on bit j are looked at again: each with both ends
    alive is either filed under the highest alive bit of its diff or, when
    none is left, inserted into the candidates in (i, j) order.
    """
    rng = None if seed is None else random.Random(seed)
    candidates = list(ready)
    waiting = [list(w) for w in watch]
    alive = (1 << n) - 1
    merges = []
    while candidates:
        i, j = rng.choice(candidates) if rng else candidates[0]
        merges.append((i, j))
        alive ^= 1 << j
        candidates = [c for c in candidates if j not in c]
        for diff, a, b in waiting[j]:
            if alive >> a & alive >> b & 1:
                rest = diff & alive
                if rest:
                    waiting[rest.bit_length() - 1].append((diff, a, b))
                else:
                    insort(candidates, (a, b))
    return merges


def min_homogeneous(p: Poset) -> int:
    """Number of chains of the minimal homogeneous decomposition."""
    return mhcd(p).k


# -- the chain graph and its orientation -------------------------------------


@dataclass(frozen=True)
class ChainGraph:
    """Graph on the chains of a homogeneous decomposition.

    `rows` is (out, into): bit j of out[i] and bit i of into[j] point each
    comparable pair from the chain with the smaller minimum, so the edges
    ascend in the order of chain minima; undirected, they are `adjacency`.
    """

    decomposition: ChainDecomposition
    rows: tuple[list[int], list[int]]
    directed: bool = False

    @property
    def k(self) -> int:
        return self.decomposition.k

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The comparable chain pairs as a read-only symmetric boolean matrix."""
        return _unpack_rows([a | b for a, b in zip(*self.rows)], self.k)

    def edges(self) -> list[tuple[int, int]]:
        """The oriented edges, or each undirected edge once as (i, j), i < j."""
        out, into = self.rows
        if not self.directed:
            out = [(a | b) & -(2 << i) for i, (a, b) in enumerate(zip(out, into))]
        return [(i, j) for i, row in enumerate(out) for j in _bits(row)]

    def to_dot(self, name: str = "chains") -> str:
        labels = self.decomposition.chains_as_labels()

        def node(i: int) -> str:
            text = "<" + ",".join(str(x) for x in labels[i]) + ">"
            text = text.replace("\\", "\\\\").replace('"', '\\"')
            return f'  c{i} [label="{text}"];'

        head = ("digraph" if self.directed else "graph") + f" {name} {{"
        arrow = "->" if self.directed else "--"
        lines = [head] + [node(i) for i in range(self.k)]
        lines += [f"  c{i} {arrow} c{j};" for i, j in self.edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"


def chain_graph(p: Poset, d: ChainDecomposition | None = None) -> ChainGraph:
    """Undirected comparability graph of a homogeneous decomposition (the MHCD by default)."""
    d = mhcd(p) if d is None else _as_decomposition(p, d)
    out, into, mixed = _comparable_pairs(p, d)
    if mixed is not None:
        i, j = mixed
        raise NotHomogeneousError(
            f"chains {d.chains_as_labels()[i]} and {d.chains_as_labels()[j]} "
            "mix comparable and incomparable pairs"
        )
    return ChainGraph(d, (out, into))


def acyclic_orientation(p: Poset, d: ChainDecomposition | None = None) -> ChainGraph:
    """Orient every edge from the chain with the smaller minimum element.

    The chain graph of the decomposition (the MHCD by default) points each
    pair that way already: a sub-relation of the strict order on the minima.
    """
    return replace(chain_graph(p, d), directed=True)


# -- length classes and induced permutations ----------------------------------


def preserves_length_classes(d: ChainDecomposition, sigma: Sequence[int]) -> bool:
    """True iff the chain permutation maps every chain to one of equal length."""
    if sorted(sigma) != list(range(d.k)):
        return False
    return all(len(d.chains[sigma[i]]) == len(d.chains[i]) for i in range(d.k))


def induced_chain_permutation(
    p: Poset, d: ChainDecomposition, g: Sequence[int]
) -> tuple[int, ...]:
    """Chain permutation induced by an element permutation g (index form).

    Raises ScatteringError if g sends one chain into several chains.
    """
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


def graph_automorphisms(
    mat: np.ndarray, cap: int | None = GRAPH_AUTOMORPHISM_CAP
) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations of a boolean matrix.

    Works for directed and undirected matrices alike; listed in lexicographic
    order from the group's strong generators, capped at `cap` vertices.
    """
    refuse_above("graph automorphism search", cap, mat.shape[0], unit="k")
    return automorphism_group(_bitrows(mat)).elements()


# -- the embedding report ------------------------------------------------------


@dataclass
class EmbeddingReport:
    """Outcome of checking Aut(P) against the oriented chain graph's symmetries.

    `hom_pairs_checked` counts the products on which the homomorphism was
    checked: the identity, the ordered generator pairs and the random words.
    """

    n: int
    k: int
    aut_poset_order: int
    aut_oriented_order: int
    aut_unoriented_order: int
    well_defined: bool
    injective: bool
    homomorphism: bool
    onto_oriented: bool
    hom_pairs_checked: int
    witness: dict | None = None
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.well_defined and self.injective and self.homomorphism

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_embedding(p: Poset, seed: int = 0) -> EmbeddingReport:
    """Check that g -> induced chain permutation embeds Aut(P).

    Verifies (a) every automorphism induces a well-defined length-preserving
    permutation that fixes the oriented chain graph, (b) distinct
    automorphisms induce distinct permutations, (c) the map is a group
    homomorphism.  Being onto the oriented graph's symmetries is recorded as a
    finding, never asserted.  No size cap: the command line applies
    AUTOMORPHISM_CAP itself.
    """
    return _embedding(p, acyclic_orientation(p), seed)


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The permutation a after b."""
    return tuple(a[x] for x in b)


def _kernel_order(p: Poset, d: ChainDecomposition) -> int:
    """Order of the group of automorphisms that map every chain of d to itself."""
    return automorphism_group(p.rows, d.chain_of).order


def _embedding(p: Poset, gr: ChainGraph, seed: int) -> EmbeddingReport:
    """The embedding check of `verify_embedding` on the MHCD's oriented graph.

    (a) Each strong generator of Aut(P) induces a length-preserving chain
    permutation that fixes the oriented chain graph; the automorphisms that
    do form a subgroup, so this settles the whole group.  (b) The
    automorphisms that map every chain to itself form a group of order 1.
    (c) The induced map respects the identity, every ordered pair of
    generators and HOM_WORDS seeded product-replacement words (Celler et al.
    1995).  Onto is exact: |Aut(P)| against the order of the length-coloured
    oriented chain graph's group.
    """
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

    induced: list[tuple[int, ...]] = []
    for g in group.generators:
        try:
            sigma = induced_chain_permutation(p, d, g)
        except ScatteringError as exc:
            report.well_defined = False
            report.witness = {"automorphism": g, "error": str(exc)}
            return report
        if not preserves_length_classes(d, sigma):
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

    kernel = _kernel_order(p, d)
    if kernel != 1:
        report.injective = False
        report.witness = {"kernel_order": kernel}

    # (product, expected image): the identity, the generator pairs, then words
    products = [(tuple(range(p.n)), tuple(range(d.k)))]
    gens = list(zip(group.generators, induced))
    products += [(_compose(a, b), _compose(sa, sb)) for a, sa in gens for b, sb in gens]
    if gens:
        rng = random.Random(seed)
        state = gens * (1 if len(gens) > 1 else 2)
        for _ in range(HOM_WORDS):
            i, j = rng.sample(range(len(state)), 2)
            (a, sa), (b, sb) = state[i], state[j]
            state[i] = (_compose(a, b), _compose(sa, sb))
            products.append(state[i])
    for g, expected in products:
        report.hom_pairs_checked += 1
        if induced_chain_permutation(p, d, g) != expected:
            report.homomorphism = False
            report.witness = {"product": g, "expected": expected}
            break

    report.onto_oriented = report.aut_poset_order == report.aut_oriented_order
    report.findings.append({"kind": "embedding-onto", "onto": report.onto_oriented})
    return report


# -- deletion bounds -----------------------------------------------------------


@dataclass
class DeletionBoundReport:
    """Per-element check of k_without <= k <= 2 * k_without + 1."""

    n: int
    k: int
    entries: list[dict]

    @property
    def ok(self) -> bool:
        return all(e["lower_ok"] and e["upper_ok"] for e in self.entries)

    def to_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def deletion_bounds(p: Poset, element=None) -> DeletionBoundReport:
    """Check the one-point-deletion bounds on the homogeneous chain count.

    Deleting z can at most halve (minus the round) the chain count and can
    never increase it: k(P minus z) <= k(P) <= 2 k(P minus z) + 1.
    """
    return _deletion_bounds(p, min_homogeneous(p), element)


def _deletion_bounds(p: Poset, k: int, element=None) -> DeletionBoundReport:
    """The deletion check of `deletion_bounds`, given k, the MHCD's chain count.

    k(P minus z) is the number of distinct closed rows of the elements other
    than z, each with bit z cleared, so no sub-poset is built.
    """
    closed = _closed(p)
    targets = [p.idx(element)] if element is not None else range(p.n)
    entries = []
    for z in targets:
        kz = len({row & ~(1 << z) for i, row in enumerate(closed) if i != z})
        entries.append(
            {
                "element": str(p.labels[z]),
                "k_without": kz,
                "lower_ok": kz <= k,
                "upper_ok": k <= 2 * kz + 1,
            }
        )
    return DeletionBoundReport(n=p.n, k=k, entries=entries)
