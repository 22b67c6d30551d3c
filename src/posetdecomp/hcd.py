"""Homogeneous chain decompositions and the automorphism embedding.

A decomposition is homogeneous when every pair of its chains is all-or-nothing
comparable: either all cross pairs of elements are comparable or none are.
The minimal homogeneous chain decomposition (MHCD) is the partition into
true-twin classes of the comparability graph: elements with the same closed
neighbourhood (comparable to each other and to the same other elements).
`mhcd` groups the closed bit rows `up | down | 1 << i`.  That greedy chain
merging from singletons ends at these classes in any merge order is the
lemma of `verify._merge_table`, which the battery's homogeneous check reads.

Twin lemma.  A chain decomposition is homogeneous iff the elements of each
chain share one closed row `up | down | 1 << x`.  Forward: an element is
comparable to its whole chain and, towards every other chain, to all of it
or to none, so the rows of one chain agree.  Backward: for x in chain i and
y in chain j, x ~ y iff y lies in the row of low_i, i's minimum, iff low_i
lies in the row of y, which is the row of low_j: x ~ y iff low_i ~ low_j.
So `_comparable_pairs` certifies homogeneity by n row comparisons, and
reads the oriented chain graph off the minima's up and down rows, masked to
the minima and compressed to chain indices.  The size rule `_dense` picks
how the graph's rows are compressed and listed: by a loop over the edges,
or off one unpack of the rows into a boolean matrix (a k x n one to build
the graph; a k x k one to list each chain's targets, `_row_targets`, as one
boolean index per row into an object array of what is listed: chain
indices, encoded chain names or DOT node names).  It unpacks when 150 * edges >
k * n + 8000.  Measured in process on a 2-CPU Xeon (Python 3.11, numpy
2.4), building the graph by the loop costs about 0.4-0.6 us per edge, and
by the unpack about 25 us plus 1-5 ns per cell of the k x n matrix.  In
two runs over 57 random posets of 10 to 800 elements at densities 0.005 to
0.3, the rule picked the faster side in every case but one, where the two
sides were within 1.2x.  A graph on fewer than 11 chains has at most 45 edges and
always takes the loop, as do the sparse scale inputs (wrap forests,
chains); `random_poset(n, 0.3)` unpacks from n = 18 up.

The product-replacement words of the embedding check draw their indices
from one seeded integer stream (`_stream`): the seed is mixed once by the
splitmix64 finalizer, and each draw is one 64-bit LCG step whose high bits,
mod m, pick the index.  Its modulo bias cannot matter: every word is a
product of automorphisms, so any draw is a valid one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .chains import ChainDecomposition, _as_decomposition
from .errors import (
    NotHomogeneousError,
    ScatteringError,
    refuse_above,
)
from .poset import Poset, _bitrows, _bits, _unpack_rows, automorphism_group

GRAPH_AUTOMORPHISM_CAP = 10
HOM_WORDS = 16
_MASK64 = (1 << 64) - 1


def chain_comparability(p: Poset, d: ChainDecomposition) -> np.ndarray:
    """k x k matrix: chains are comparable iff every cross pair is comparable.

    Raises NotHomogeneousError at the first chain pair i < j that mixes
    comparable and incomparable cross pairs, so a returned matrix certifies
    homogeneity.
    """
    return chain_graph(p, d).adjacency


def is_homogeneous(p: Poset, parts) -> bool:
    """True iff the (valid) decomposition is homogeneous; invalid input raises.

    `parts` is read by `chains._as_decomposition`: a decomposition of p, a
    family of label sets or a decomposition of another poset, whose labels
    must then form a chain decomposition of p (InvalidDecompositionError
    otherwise).
    """
    return _comparable_pairs(p, _as_decomposition(p, parts))[2] is None


def _comparable_pairs(
    p: Poset, d: ChainDecomposition
) -> tuple[list[int], list[int], tuple[int, int] | None]:
    """(out, into, None): the rows of ChainGraph; or, when some chain pair
    mixes comparable and incomparable cross pairs, ([], [], (i, j)), the
    first such pair i < j.

    By the twin lemma (module docstring), d is homogeneous iff every element
    of a chain has its minimum's closed row: n row comparisons.  A bit where
    two rows of chain i differ is an element comparable to some but not all
    of chain i, so with the chain j that owns it, i and j form a mixed pair;
    and every mixed pair arises so (given x ~ y and x' !~ y' across the two
    chains, the rows of y and y' differ at x' when x' ~ y, and those of x
    and x' differ at y otherwise).  So the first mixed pair is the least
    pair of a chain and the owner of one of its differing bits.  Else
    out[i] and into[i] are the up and down rows of chain i's minimum,
    masked to the minima: bit j of out[i] and bit i of into[j] are set when
    chain j's minimum lies above chain i's.  The chains are ordered by their
    minima, so the minima's bits compress to chain indices in order: by a
    loop over the edges, or, when `_dense` says so, by one unpack of the
    minima's up rows, a take of the minima's columns and one `_bitrows`.
    """
    up, down = p.rows
    lows, diffs, minima = [], [], 0
    for chain in d.chains:
        x = chain[0]
        row = up[x] | down[x] | 1 << x
        diff = mask = 0
        for y in chain:
            bit = 1 << y
            diff |= (up[y] | down[y] | bit) ^ row
            mask |= bit
        # a chain's rows hold the whole chain, so the mask drops no difference;
        # a block that is not a chain (an unchecked ChainDecomposition) is
        # read by its pairs with the other blocks alone
        diffs.append(diff & ~mask)
        lows.append(x)
        minima |= 1 << x
    chain_of = d.chain_of
    if any(diffs):
        pairs = (sorted((i, chain_of[y])) for i, diff in enumerate(diffs) for y in _bits(diff))
        i, j = min(pairs)
        return [], [], (i, j)
    above = [up[x] & minima for x in lows]
    if _dense(sum(map(int.bit_count, above)), d.k, p.n):
        out, into = _bitrows(_unpack_rows([up[x] for x in lows], p.n)[:, lows])
        return out, into, None
    out, into = [0] * d.k, [0] * d.k
    for i, row in enumerate(above):
        for y in _bits(row):
            j = chain_of[y]
            out[i] |= 1 << j
            into[j] |= 1 << i
    return out, into, None


def _dense(edges: int, k: int, n: int) -> bool:
    """The size rule: True when a chain graph with `edges` oriented edges on
    k chains of an n-element poset is built and listed off one unpack
    rather than by a loop over its edges (see the module docstring)."""
    return 150 * edges > k * n + 8000


def _row_targets(rows: list[int], k: int, n: int, items: Sequence) -> Iterator[list]:
    """For each i, the list of items[j] over the bits j of rows[i] in
    ascending order, for the rows of a chain graph on k chains of an
    n-element poset, with items k scalars (chain indices or strings): off
    one unpack of the rows, one boolean index of an object array of the
    items per row, when `_dense` says so; else by a loop over their bits."""
    if _dense(sum(map(int.bit_count, rows)), k, n):
        mat = _unpack_rows(rows, k)
        objs = np.array(items, dtype=object)
        return (objs[mat[i]].tolist() for i in range(k))
    return ([items[j] for j in _bits(row)] if row else [] for row in rows)


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


def _stream(seed: int) -> Callable[[int], int]:
    """draw(m): the next index in range(m) of the integer draw stream of `seed`.

    The seed is mixed once by the splitmix64 finalizer (Steele, Lea & Flood,
    "Fast splittable pseudorandom number generators", OOPSLA 2014); each
    draw is then one step of the 64-bit LCG of Knuth's MMIX, and its high 32
    bits mod m are the index.  Any integer seeds it, a negative one too.
    """
    z = (seed + 0x9E3779B97F4A7C15) & _MASK64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    state = z ^ z >> 31

    def draw(m: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
        return (state >> 32) % m

    return draw


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

    def _listed(self) -> list[int]:
        """The out rows, or, undirected, each edge once at its smaller end."""
        out, into = self.rows
        if self.directed:
            return out
        return [(a | b) & -(2 << i) for i, (a, b) in enumerate(zip(out, into))]

    def edges(self) -> list[tuple[int, int]]:
        """The oriented edges, or each undirected edge once as (i, j), i < j."""
        listed = _row_targets(self._listed(), self.k, self.decomposition.poset.n, range(self.k))
        return [(i, j) for i, targets in enumerate(listed) for j in targets]

    def to_dot(self, name: str = "chains") -> str:
        """Graphviz text: one node line per chain, then the edge lines in the
        order of `edges()`, written one join per source chain."""
        labels = self.decomposition.chains_as_labels()

        def node(i: int) -> str:
            text = "<" + ",".join(str(x) for x in labels[i]) + ">"
            text = text.replace("\\", "\\\\").replace('"', '\\"')
            return f'  c{i} [label="{text}"];'

        head = ("digraph" if self.directed else "graph") + f" {name} {{"
        arrow = "->" if self.directed else "--"
        lines = [head] + [node(i) for i in range(self.k)]
        ends = [f"c{j};" for j in range(self.k)]
        listed = _row_targets(self._listed(), self.k, self.decomposition.poset.n, ends)
        lines += [f"  c{i} {arrow} " + f"\n  c{i} {arrow} ".join(targets)
                  for i, targets in enumerate(listed) if targets]
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


def induced_chain_permutation(p: Poset, d, g: Sequence[int]) -> tuple[int, ...]:
    """Chain permutation induced by an element permutation g (index form).

    `d` is read by `chains._as_decomposition`, and sigma indexes the chains
    of the decomposition it returns.  On index lists: image[x] is the chain
    of g[x], sigma is image read off the chain heads, and g sends every
    chain into one chain exactly when image is sigma lifted through
    `chain_of`.  Raises ScatteringError if g sends one chain into several
    chains.  After reading d and testing g, the map is `_induced`.
    """
    d = _as_decomposition(p, d)
    if sorted(g) != list(range(p.n)):
        raise ValueError("g is not a permutation of the element indices")
    return _induced(d, g)


def _induced(d: ChainDecomposition, g: Sequence[int]) -> tuple[int, ...]:
    """`induced_chain_permutation` without reading d or testing g: d is a
    ChainDecomposition and g a permutation of its poset's indices."""
    owner = d.chain_of
    chains = d.chains
    image = [owner[y] for y in g]
    sigma = [image[c[0]] for c in chains]
    if [sigma[c] for c in owner] != image:
        for ci, chain in enumerate(chains):
            targets = {image[x] for x in chain}
            if len(targets) != 1:
                raise ScatteringError(
                    f"chain {d.chains_as_labels()[ci]} is scattered over chains "
                    f"{sorted(targets)}"
                )
    if len(set(sigma)) != len(chains):
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
    checked: the identity, the ordered generator pairs and the seeded words.
    `aut_unoriented_order`, the order of the length-coloured unoriented chain
    graph's group, is None from `_embedding`, the battery's path, which does
    not report it; `verify_embedding` and `analyze --embedding` fill it in.
    """

    n: int
    k: int
    aut_poset_order: int
    aut_oriented_order: int
    aut_unoriented_order: int | None
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
    finding, never asserted, and the unoriented chain graph's group order is
    reported beside it.  No size cap: the command line applies
    AUTOMORPHISM_CAP itself.
    """
    graph = acyclic_orientation(p)
    report = _embedding(p, graph, seed)
    report.aut_unoriented_order = _unoriented_order(graph)
    return report


def _unoriented_order(gr: ChainGraph) -> int:
    """Order of the group of the length-coloured unoriented chain graph."""
    comp = [a | b for a, b in zip(*gr.rows)]
    return automorphism_group((comp, comp), [len(c) for c in gr.decomposition.chains]).order


def _kernel_order(p: Poset, d: ChainDecomposition) -> int:
    """Order of the group of automorphisms that map every chain of d to itself."""
    return automorphism_group(p.rows, d.chain_of).order


def _embedding(p: Poset, gr: ChainGraph, seed: int) -> EmbeddingReport:
    """The embedding check of `verify_embedding` on the MHCD's oriented graph.

    Runs the three searches the check reports: Aut(P), the length-coloured
    oriented chain graph's group and the kernel; `aut_unoriented_order`
    stays None.  (a) Each strong generator of Aut(P) induces a
    length-preserving chain permutation that fixes the oriented chain graph;
    the automorphisms that do form a subgroup, so this settles the whole
    group.  (b) The automorphisms that map every chain to itself form a group
    of order 1.  (c) The induced map respects the identity, every ordered
    pair of generators and HOM_WORDS seeded product-replacement words
    (Celler et al. 1995): each product is composed as an index list, on the
    elements and on the chains, and `_induced`, the unvalidated core of
    `induced_chain_permutation`, maps the element product (a product of
    automorphisms, so a permutation) to compare with the chain product.
    Onto is exact: |Aut(P)| against the order of the oriented chain graph's
    group.
    """
    group = automorphism_group(p.rows)
    d = gr.decomposition
    edges = set(gr.edges())
    lengths = [len(c) for c in d.chains]
    report = EmbeddingReport(
        n=p.n,
        k=d.k,
        aut_poset_order=group.order,
        aut_oriented_order=automorphism_group(gr.rows, lengths).order,
        aut_unoriented_order=None,
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

    for g, expected in _products(p.n, d.k, list(zip(group.generators, induced)), seed):
        report.hom_pairs_checked += 1
        if _induced(d, g) != tuple(expected):
            report.homomorphism = False
            report.witness = {"product": tuple(g), "expected": tuple(expected)}
            break

    report.onto_oriented = report.aut_poset_order == report.aut_oriented_order
    report.findings.append({"kind": "embedding-onto", "onto": report.onto_oriented})
    return report


def _products(n: int, k: int, gens: list, seed: int) -> Iterator[tuple[list[int], list[int]]]:
    """(element product, chain product) as index lists, a after b read as
    `[a[x] for x in b]`: the identity, every ordered pair of `gens`, then
    HOM_WORDS seeded product-replacement words over them.

    Each word draws two distinct state slots from `_stream(seed)`: i among
    all m, then j among the other m - 1 (a draw at or above i moves up by
    one), and replaces slot i by the product of slot i after slot j."""
    yield list(range(n)), list(range(k))
    for a, sa in gens:
        for b, sb in gens:
            yield [a[x] for x in b], [sa[i] for i in sb]
    if gens:
        draw = _stream(seed)
        state = gens * (1 if len(gens) > 1 else 2)
        m = len(state)
        for _ in range(HOM_WORDS):
            i, j = draw(m), draw(m - 1)
            j += j >= i
            (a, sa), (b, sb) = state[i], state[j]
            state[i] = ([a[x] for x in b], [sa[c] for c in sb])
            yield state[i]


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
    never increase it: k(P minus z) <= k(P) <= 2 k(P minus z) + 1.  The MHCD
    is the twin classes of the closed rows, so k(P) is the number of
    distinct closed rows, and k(P minus z) the number of distinct closed
    rows of the elements other than z, each with bit z cleared: no
    sub-poset is built.
    """
    closed = _closed(p)
    k = len(set(closed))
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
