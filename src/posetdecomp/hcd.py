"""Homogeneous chain decompositions and the automorphism embedding.

A decomposition is homogeneous when every pair of its chains is all-or-nothing
comparable: either all cross pairs of elements are comparable or none are.
Merging two comparable chains whose comparability profile towards every other
chain agrees preserves homogeneity, and the decomposition where no merge
applies is unique, so greedy merging from singletons reaches it in any merge
order.  That fixpoint, the minimal homogeneous chain decomposition (MHCD), is
the partition into true-twin classes of the comparability graph: elements
with the same closed neighbourhood (comparable to each other and to the same
other elements).  `mhcd` groups the rows of `lt | lt.T | I` in O(n^2);
`merge_fixpoint` runs the merge loop itself, on one comparability bitmask per
chain, and the verifier replays it under shuffled merge orders as an
independent cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .chains import ChainDecomposition
from .errors import (
    InternalInconsistencyError,
    NotHomogeneousError,
    ScatteringError,
    ScopeExceededError,
)
from .poset import Poset, _bits, automorphism_group

GRAPH_AUTOMORPHISM_CAP = 10
HOM_WORDS = 16


def _as_decomposition(p: Poset, parts) -> ChainDecomposition:
    if isinstance(parts, ChainDecomposition):
        return parts
    return ChainDecomposition.from_parts(p, parts)


def chain_comparability(p: Poset, d: ChainDecomposition) -> np.ndarray:
    """k x k matrix: chains are comparable iff every cross pair is comparable.

    Raises NotHomogeneousError on a pair with both comparable and incomparable
    cross pairs, so a returned matrix certifies homogeneity.
    """
    k = d.k
    comp = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            pairs = [
                bool(p.lt[x, y] or p.lt[y, x])
                for x in d.chains[i]
                for y in d.chains[j]
            ]
            if all(pairs):
                comp[i, j] = comp[j, i] = True
            elif any(pairs):
                raise NotHomogeneousError(
                    f"chains {d.chains_as_labels()[i]} and {d.chains_as_labels()[j]} "
                    "mix comparable and incomparable pairs"
                )
    return comp


def is_homogeneous(p: Poset, parts) -> bool:
    """True iff the (valid) decomposition is homogeneous; invalid input raises."""
    d = _as_decomposition(p, parts)
    try:
        chain_comparability(p, d)
    except NotHomogeneousError:
        return False
    return True


def mhcd(p: Poset) -> ChainDecomposition:
    """The minimal homogeneous chain decomposition: the true-twin classes.

    Two elements share a class iff their rows of `lt | lt.T | I` agree; each
    class is a chain, since an element's row marks itself and so every
    element of its class.
    """
    closed = p.lt | p.lt.T | np.eye(p.n, dtype=bool)
    classes: dict[bytes, list[int]] = {}
    for i, row in enumerate(np.packbits(closed, axis=1)):
        classes.setdefault(row.tobytes(), []).append(i)
    return ChainDecomposition._from_index_parts(p, list(classes.values()))


def merge_fixpoint(p: Poset, shuffle_seed: int | None = None) -> ChainDecomposition:
    """Greedy merging to the fixpoint: the MHCD by its definition.

    Starts from singletons and merges comparable chain pairs with identical
    comparability profiles until none remains: each round lists the merges
    (i, j), i < j, and fires the first or, with `shuffle_seed`, a seeded draw;
    the fixpoint is the same either way.  Chain i (named by its least index)
    keeps its comparability bitmask comp[i] over chains when j merges in.
    """
    up, down = p.rows
    comp = [u | d for u, d in zip(up, down)]
    chains = [[i] for i in range(p.n)]
    alive = (1 << p.n) - 1
    rng = None if shuffle_seed is None else random.Random(shuffle_seed)
    while True:
        candidates = [
            (i, j)
            for i in _bits(alive)
            for j in _bits(comp[i] & alive & -(2 << i))
            if not (comp[i] ^ comp[j]) & alive & ~(1 << i | 1 << j)
        ]
        if not candidates:
            break
        i, j = rng.choice(candidates) if rng else candidates[0]
        chains[i] += chains[j]
        alive ^= 1 << j
    return ChainDecomposition._from_index_parts(p, [chains[i] for i in _bits(alive)])


def min_homogeneous(p: Poset) -> int:
    """Number of chains of the minimal homogeneous decomposition."""
    return mhcd(p).k


# -- the chain graph and its orientation -------------------------------------


@dataclass(frozen=True)
class ChainGraph:
    """Graph on the chains of a homogeneous decomposition.

    `adjacency` joins comparable chain pairs; `oriented`, when present, points
    each edge from the chain with the smaller minimum to the other one, which
    is acyclic because edges ascend in the poset order of chain minima.
    """

    decomposition: ChainDecomposition
    adjacency: np.ndarray
    oriented: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.decomposition.k

    def edges(self) -> list[tuple[int, int]]:
        mat = self.adjacency if self.oriented is None else self.oriented
        if self.oriented is None:
            return [(i, j) for i in range(self.k) for j in range(i + 1, self.k) if mat[i, j]]
        return [(i, j) for i in range(self.k) for j in range(self.k) if mat[i, j]]

    def to_dot(self, name: str = "chains") -> str:
        labels = self.decomposition.chains_as_labels()

        def node(i: int) -> str:
            text = "<" + ",".join(str(x) for x in labels[i]) + ">"
            text = text.replace("\\", "\\\\").replace('"', '\\"')
            return f'  c{i} [label="{text}"];'

        directed = self.oriented is not None
        head = ("digraph" if directed else "graph") + f" {name} {{"
        arrow = "->" if directed else "--"
        lines = [head] + [node(i) for i in range(self.k)]
        lines += [f"  c{i} {arrow} c{j};" for i, j in self.edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"


def chain_graph(p: Poset, d: ChainDecomposition | None = None) -> ChainGraph:
    """Undirected comparability graph of a homogeneous decomposition."""
    d = mhcd(p) if d is None else _as_decomposition(p, d)
    return ChainGraph(d, chain_comparability(p, d))


def acyclic_orientation(p: Poset, d: ChainDecomposition | None = None) -> ChainGraph:
    """Orient every edge from the chain with the smaller minimum element."""
    d = mhcd(p) if d is None else _as_decomposition(p, d)
    comp = chain_comparability(p, d)
    k = d.k
    oriented = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            if not comp[i, j]:
                continue
            mi, mj = d.chains[i][0], d.chains[j][0]
            if p.lt[mi, mj]:
                oriented[i, j] = True
            elif p.lt[mj, mi]:
                oriented[j, i] = True
            else:
                raise InternalInconsistencyError(
                    "comparable chains with incomparable minima cannot occur in a "
                    "homogeneous decomposition"
                )
    if _has_directed_cycle(oriented):
        raise InternalInconsistencyError("minimum-based orientation produced a cycle")
    return ChainGraph(d, comp, oriented)


def _has_directed_cycle(mat: np.ndarray) -> bool:
    k = mat.shape[0]
    indeg = [int(mat[:, j].sum()) for j in range(k)]
    stack = [j for j in range(k) if indeg[j] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in np.flatnonzero(mat[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(int(w))
    return seen != k


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
    k = mat.shape[0]
    if cap is not None and k > cap:
        raise ScopeExceededError(
            f"graph automorphism search capped at {cap} vertices (got {k})"
        )
    return automorphism_group(mat).elements()


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
        return {
            "n": self.n,
            "k": self.k,
            "aut_poset_order": self.aut_poset_order,
            "aut_oriented_order": self.aut_oriented_order,
            "aut_unoriented_order": self.aut_unoriented_order,
            "well_defined": self.well_defined,
            "injective": self.injective,
            "homomorphism": self.homomorphism,
            "onto_oriented": self.onto_oriented,
            "hom_pairs_checked": self.hom_pairs_checked,
            "ok": self.ok,
            "witness": self.witness,
            "findings": list(self.findings),
        }


def verify_embedding(
    p: Poset,
    auto_cap: int | None = None,
    seed: int = 0,
) -> EmbeddingReport:
    """Check that g -> induced chain permutation embeds Aut(P).

    Verifies (a) every automorphism induces a well-defined length-preserving
    permutation that fixes the oriented chain graph, (b) distinct
    automorphisms induce distinct permutations, (c) the map is a group
    homomorphism.  Being onto the oriented graph's symmetries is recorded as a
    finding, never asserted.  Refuses n > auto_cap when a cap is given.
    """
    if auto_cap is not None and p.n > auto_cap:
        raise ScopeExceededError(
            f"automorphism search capped at n <= {auto_cap} (got n = {p.n})"
        )
    return _embedding(p, mhcd(p), seed)


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The permutation a after b."""
    return tuple(a[x] for x in b)


def _kernel_order(p: Poset, d: ChainDecomposition) -> int:
    """Order of the group of automorphisms that map every chain of d to itself."""
    return automorphism_group(p.lt, d.chain_of).order


def _embedding(p: Poset, d: ChainDecomposition, seed: int) -> EmbeddingReport:
    """The embedding check of `verify_embedding` on the given MHCD, from generators.

    (a) Each strong generator of Aut(P) induces a length-preserving chain
    permutation that fixes the oriented chain graph; the automorphisms that
    do form a subgroup, so this settles the whole group.  (b) The
    automorphisms that map every chain to itself form a group of order 1.
    (c) The induced map respects the identity, every ordered pair of
    generators and HOM_WORDS seeded product-replacement words (Celler et al.
    1995).  Onto is exact: |Aut(P)| against the order of the length-coloured
    oriented chain graph's group.
    """
    group = automorphism_group(p.lt)
    gr = acyclic_orientation(p, d)
    lengths = [len(c) for c in d.chains]
    report = EmbeddingReport(
        n=p.n,
        k=d.k,
        aut_poset_order=group.order,
        aut_oriented_order=automorphism_group(gr.oriented, lengths).order,
        aut_unoriented_order=automorphism_group(gr.adjacency, lengths).order,
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
        if not np.array_equal(gr.oriented[np.ix_(sigma, sigma)], gr.oriented):
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
        return {"n": self.n, "k": self.k, "ok": self.ok, "entries": self.entries}


def deletion_bounds(p: Poset, element=None) -> DeletionBoundReport:
    """Check the one-point-deletion bounds on the homogeneous chain count.

    Deleting z can at most halve (minus the round) the chain count and can
    never increase it: k(P minus z) <= k(P) <= 2 k(P minus z) + 1.
    """
    return _deletion_bounds(p, min_homogeneous(p), element)


def _deletion_bounds(p: Poset, k: int, element=None) -> DeletionBoundReport:
    """The deletion check of `deletion_bounds`, given k, the MHCD's chain count."""
    targets = [element] if element is not None else list(p.labels)
    entries = []
    for z in targets:
        kz = min_homogeneous(p.without(z))
        entries.append(
            {
                "element": str(z),
                "k_without": kz,
                "lower_ok": kz <= k,
                "upper_ok": k <= 2 * kz + 1,
            }
        )
    return DeletionBoundReport(n=p.n, k=k, entries=entries)
