"""Chain-decomposition cuts and the product identity for signed chain counts.

A cut slices every chain of a homogeneous decomposition at a per-chain height
into a lower and an upper part.  For admissible cuts (no empty side, and every
lower part sits below every upper part along comparable chain pairs) the
signed-chain-count matrices of the whole poset and of the two sides satisfy an
exact integer identity:

    D J = D_low J + D_up J - D_low J D_up J,    J = I + adjacency(G).

Everything on the left-hand side depends on the decomposition only, not on
the cut: a `CutFrame` holds the chain graph (whose comparability certifies
homogeneity) and computes the k x n chain membership M, J, the poset's
chain-count bound, the Mobius array mu (by P. Hall's theorem, the signed
chain counts), D_whole = M mu M^T, D_whole J and det J once, and every cut
of that decomposition carries it.  M is 0/1 and partitions the elements, so
D_whole is mu summed over blocks of rows and columns, the elements listed
chain after chain (`_mobius_sums`, two `np.add.reduceat` passes).

Cuts travel as (C, k) arrays of heights, in blocks of at most `_BLOCK` =
256 from one generator, `_proper_heights`.  Every entry point answers two
questions of a block, each with one function.  `_admissible` is the cut
proper, plus one fancy index of the strict order at (top of lower part i,
bottom of upper part j) over the chain graph's edges (i, j).  `_cut_kernel`
computes both sides of the identity.  Each side's counts come from that
side's own strict order, for both sides of all C cuts at once: with `inside`
the side's 0/1 mask, `poset._alternating_series` sums (-1)^s V_s with
V_0 = M * inside and V_{s+1} = (V_s @ lt) * inside, so row i of V_s counts
the s-step chains of the side that start on chain i, and
D_side = (sum_s (-1)^s V_s) M^T.  Row i never leaves U_i, the up-closure of
chain i (incidence-algebra locality, Rota 1964), so it is a function of the
key (i, inside & U_i), and a block of `_KEYED` or more cuts runs one row
per distinct key.  Each power is one (R, n) @ (n, n) product over those R
rows, at most 2 C k of them, so a work array holds at most 2 * 256 * k * n
entries; the identity is then checked with stacked k x k products.

Arithmetic is exact.  Every entry of a power V_s, of a partial sum of the
series or of D_side, and every partial sum of one of their dot products in
whatever order BLAS adds its terms, counts distinct nonempty chains of the
poset that start on chain i (or is a signed sum of such counts), and so
does every partial sum of mu's chain sums, since |mu(x, y)| is at most the
number of chains from x to y.  Those chains lie inside the up-set of chain
i's least element, so their number is at most the frame's `count_bound`,
`poset._chain_count_bound`: 2**u - 1 with u the size of the largest
principal up-set, or, where that passes 2**53, the exact largest number of
chains inside one.  `poset._exact_dtypes` maps the bound to a dtype: the
series runs on float64 BLAS below 2**53, where no sum, product or fused
multiply-add of such integers rounds; on int64 below 2**63, its products
on float64 BLAS by halves (`poset._by_halves`); and on Python integers
(dtype object) above; mu and D_whole take the bound's integer dtype.  The
bound, not n, picks the tier: `wrap_forest(200)` runs on float64, and
`random_poset(300, 0.3)`, whose chain counts reach 2**139, on Python
integers.  With m the largest absolute entry of D_whole, D_low and D_up in
a block, every entry of D J, D_side J, their product and the right-hand
side, and every partial sum of those products, is at most
k**3 * m * (m + 2) in absolute value (J is 0/1), so the k x k products take
their dtype from that bound, which the kernel computes on the matrices it
has; the frame's D_whole J alone needs only k * m, D_whole's own largest
entry.  Every matrix a float64 tier computes leaves the kernel as int64, so
a batch holds int64 or Python integers only, and reports carry both sides
of the identity verbatim, as Python integers.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chains import ChainDecomposition, _as_decomposition
from .errors import ScopeExceededError, refuse_negative
from .hcd import ChainGraph, chain_graph
from .poset import Poset, _alternating_series, _chain_count_bound, _exact_dtypes, mobius_matrix

# Proper cuts (the product of chain length - 1 over the chains) that a capped
# enumeration may walk; wrap_forest(200) has about 6.5e15.
CUT_ENUMERATION_CAP = 10_000

# Cuts per block of `_proper_heights`.
_BLOCK = 256

# Blocks of at least this many cuts run their side series once per distinct
# row key (the size rule of `_cut_kernel`, a measured crossover).
_KEYED = 8


class CutFrame:
    """The cut-independent half of the cut identity for one decomposition.

    `d` is a homogeneous decomposition, read by `chains._as_decomposition`,
    or its ChainGraph.  Building a frame from a decomposition computes the
    chain comparability, which certifies that it is homogeneous
    (NotHomogeneousError otherwise); a graph whose decomposition that rule
    uses as it stands carries its comparability already, and a graph of
    another poset is rebuilt on its decomposition.  M, J, the poset's
    chain-count bound (`poset._chain_count_bound`, which sizes every exact
    dtype below), the Mobius array, D_whole (its chain sums), D_whole J and
    det J are computed on first use and then shared by every cut of the
    decomposition, as is the layout `_admissible` and `_cut_kernel` read.
    """

    def __init__(self, p: Poset, d) -> None:
        self.poset = p
        graph = d if isinstance(d, ChainGraph) else chain_graph(p, d)
        if _as_decomposition(p, graph.decomposition) is not graph.decomposition:
            graph = chain_graph(p, graph.decomposition)
        self.graph = graph
        self.decomposition = graph.decomposition

    @cached_property
    def members(self) -> np.ndarray:
        """k x n chain membership M: entry (i, x) is 1 iff x lies on chain i."""
        d = self.decomposition
        members = np.zeros((d.k, d.poset.n), dtype=np.int64)
        members[d.chain_of, np.arange(d.poset.n)] = 1
        return members

    @cached_property
    def up_closures(self) -> np.ndarray:
        """k x n bool U: entry (i, x) is True iff x lies above or on some
        element of chain i, that is, on or above its least element."""
        least = [c[0] for c in self.decomposition.chains]
        up = self.poset.lt[least]
        up[np.arange(len(least)), least] = True
        return up

    @cached_property
    def j(self) -> np.ndarray:
        """J = I + adjacency(G)."""
        k = self.decomposition.k
        return np.eye(k, dtype=np.int64) + self.graph.adjacency

    @cached_property
    def count_bound(self) -> int:
        """`poset._chain_count_bound` of the poset: every value of the side
        series, of D_whole and of the signed counts is at most this."""
        return _chain_count_bound(self.poset)

    @cached_property
    def mobius(self) -> np.ndarray:
        """The poset's Mobius matrix (its signed chain counts, by P. Hall's
        theorem) as an n x n array in the exact dtype of the count bound."""
        n = self.poset.n
        exact = _exact_dtypes(self.count_bound)[1]
        return np.array(mobius_matrix(self.poset), dtype=exact).reshape(n, n)

    @cached_property
    def d_whole(self) -> np.ndarray:
        """D_whole = M mu M^T: the Mobius array summed over chain pairs."""
        return _mobius_sums(self, self.layout[1])

    @cached_property
    def lhs(self) -> np.ndarray:
        """D_whole J.  J is 0/1, so every entry and every partial sum of the
        product is at most k times D_whole's largest |entry|."""
        work, exact = _exact_dtypes(self.decomposition.k * _abs_max(self.d_whole))
        return (self.d_whole.astype(work) @ self.j.astype(work)).astype(exact, copy=False)

    @cached_property
    def j_determinant(self) -> int:
        return integer_determinant(self.j.tolist())

    @cached_property
    def layout(self) -> tuple:
        """What `_admissible` and `_cut_kernel` index: the elements chain
        after chain plus one pad (so that a chain's height h - 1 and h index
        its top lower and bottom upper element), each chain's offset and
        size, each element's chain and position on it, the chain graph's
        edges (i, j) in both directions, and the strict order in the dtype
        the side series computes in: the work dtype of the count bound,
        which bounds every value of the series (see the module docstring)."""
        d = self.decomposition
        sizes = np.array([len(c) for c in d.chains], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        flat = np.array([x for c in d.chains for x in c] + [0], dtype=np.int64)
        chain_of = np.array(d.chain_of, dtype=np.int64)
        position = np.empty(d.poset.n, dtype=np.int64)
        position[flat[:-1]] = np.arange(d.poset.n) - np.repeat(offsets, sizes)
        edges = np.nonzero(self.graph.adjacency)
        strict = self.poset.lt.astype(_exact_dtypes(self.count_bound)[0])
        return flat, offsets, sizes, chain_of, position, edges, strict


@dataclass(frozen=True)
class Cut:
    """A homogeneous decomposition sliced at one height per chain.

    Height h on a chain of size m (0 <= h <= m) puts the lowest h elements
    into the lower part and the rest into the upper part.  `frame` is the
    decomposition's shared CutFrame.
    """

    poset: Poset
    decomposition: ChainDecomposition
    heights: tuple[int, ...]
    frame: CutFrame = field(compare=False, repr=False)

    @cached_property
    def lower_parts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            chain[: h] for chain, h in zip(self.decomposition.chains, self.heights)
        )

    @cached_property
    def upper_parts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            chain[h:] for chain, h in zip(self.decomposition.chains, self.heights)
        )

    def lower_poset(self) -> Poset:
        keep = [self.poset.labels[x] for part in self.lower_parts for x in part]
        return self.poset.induced(keep)

    def upper_poset(self) -> Poset:
        keep = [self.poset.labels[x] for part in self.upper_parts for x in part]
        return self.poset.induced(keep)

    def to_dict(self) -> dict:
        return {
            "heights": list(self.heights),
            "lower": [[str(self.poset.labels[x]) for x in part] for part in self.lower_parts],
            "upper": [[str(self.poset.labels[x]) for x in part] for part in self.upper_parts],
        }

    def _block(self) -> np.ndarray:
        """This one cut's heights as a (1, k) block."""
        return np.array(self.heights, dtype=np.int64).reshape(1, self.decomposition.k)


def make_cut(p: Poset, d, heights: Sequence[int]) -> Cut:
    """Validate heights against a homogeneous decomposition and build the cut.

    Each height must be an integer (Python or numpy); 1.7 is a TypeError.
    """
    frame = CutFrame(p, d)  # raises NotHomogeneousError when not homogeneous
    d = frame.decomposition
    heights = tuple(operator.index(h) for h in heights)
    if len(heights) != d.k:
        raise ValueError(f"expected {d.k} heights, got {len(heights)}")
    for h, chain in zip(heights, d.chains):
        if not 0 <= h <= len(chain):
            raise ValueError(f"height {h} out of range for a chain of size {len(chain)}")
    return Cut(p, d, heights, frame)


def is_proper(cut: Cut) -> bool:
    """True iff no chain has an empty lower or upper side."""
    return all(
        0 < h < len(chain)
        for h, chain in zip(cut.heights, cut.decomposition.chains)
    )


def is_admissible(cut: Cut) -> bool:
    """Proper, and lower parts sit below upper parts across comparable chains."""
    return bool(_admissible(cut.frame, cut._block())[0])


# -- the kernel -----------------------------------------------------------------


def _admissible(frame: CutFrame, heights: np.ndarray) -> np.ndarray:
    """(C,) bool: which of the C cuts in `heights`, a (C, k) array of heights
    in range for the frame's chains, are admissible."""
    flat, offsets, sizes, _, _, (i, j), _ = frame.layout
    at = heights + offsets  # each chain's bottom upper element in `flat`
    lt = frame.poset.lt
    proper = ((heights > 0) & (heights < sizes)).all(axis=1)
    return proper & lt[flat[at[:, i] - 1], flat[at[:, j]]].all(axis=1)


class _CutBatch(NamedTuple):
    """`_cut_kernel`'s verdicts and matrices, one row per cut."""

    d_lower: np.ndarray  # (C, k, k)
    d_upper: np.ndarray  # (C, k, k)
    rhs: np.ndarray  # (C, k, k)
    equal: np.ndarray  # (C,) bool: rhs equals the frame's lhs


def _cut_kernel(frame: CutFrame, heights: np.ndarray) -> _CutBatch:
    """Both sides of the identity for the C cuts in `heights` at once.

    `heights` is a (C, k) integer array of heights in range for the frame's
    chains; improper and inadmissible cuts are evaluated too.  See the module
    docstring for the series and the dtype bounds: the series runs in the
    layout's strict dtype, the tier of the frame's count bound (each of the
    28 posets `wrap_forest(64..80)`, seeds 0..19, under the cut cap runs on
    float64 or int64, none on Python integers), and the k x k products in
    the tier of the bound the kernel computes on its own matrices.

    Each (cut, side, chain i) row of the side series reads its side's mask
    `inside` only on U_i, the up-closure of chain i: V_0 = M_i * inside lies
    on chain i, and each power only moves up the order, so every V_s lies in
    U_i, and (V_s @ lt) * inside equals (V_s @ lt) * (inside & U_i).  The
    row is therefore a function of the key (i, inside & U_i) alone.  With
    `_KEYED` or more cuts the rows are keyed (`_distinct_rows`), the series
    runs once per distinct key and D_side's rows are gathered back by the
    inverse index.  The key keeps i because two chains can share a nonempty
    restricted mask while their rows start on different elements (chains
    {a < b} and {c < d} with a < d and c < b share the upper side {b, d}
    restricted to either up-closure).  On `wrap_forest(20)` seeds 0..199
    the admissible blocks hold 64,142 rows and 5,656 distinct keys.

    The size rule is the measured crossover (in process, 2-CPU Xeon, one
    BLAS thread).  Keying costs about 15 us a block, which a block of 1 to 4
    cuts of an n <= 5 poset, as every block of the exhaustive sweep is,
    never earns back (about 35 us a call unkeyed).  Blocks of `wrap_forest(40)`
    posets run faster keyed from 4 to 6 cuts, and those of `wrap_forest(20)`
    posets from about 30 cuts (64 cuts: 0.19 ms unkeyed, 0.16 ms keyed).
    Over `wrap_forest(20)` seeds 0..199 the kernel took 27.1 to 28.5 ms in
    all with the rule at 4 to 32 cuts (27.9 at 8), 29.2 ms keying every
    block and 33.6 ms keying none.
    """
    _, _, _, chain_of, position, _, strict = frame.layout
    c, k = heights.shape
    n = len(position)
    low = position < heights[:, chain_of]  # (C, n): x lies in the lower part
    sides = np.stack((low, ~low), axis=1)[:, :, None, :]
    inside = (sides & frame.up_closures).reshape(2 * c * k, n)
    chains = np.tile(np.arange(k), 2 * c)
    keyed = c >= _KEYED
    if keyed:
        first, back = _distinct_rows(inside, chains)
        inside, chains = inside[first], chains[first]
    members = frame.members.astype(strict.dtype, copy=False)
    inside = inside.astype(strict.dtype)
    total = _alternating_series(members[chains] * inside, strict, inside)
    d_rows = total @ members.T
    d_sides = (d_rows[back] if keyed else d_rows).reshape(c, 2, k, k)
    m = max(_abs_max(d_sides), _abs_max(frame.d_whole))
    work, exact = _exact_dtypes(k**3 * m * (m + 2))
    d_sides = d_sides.astype(work, copy=False)
    j_mat = frame.j.astype(work)
    lower_j = d_sides[:, 0] @ j_mat
    upper_j = d_sides[:, 1] @ j_mat
    rhs = lower_j + upper_j - lower_j @ upper_j
    equal = (rhs == frame.lhs.astype(work)).all(axis=(1, 2))
    d_sides = d_sides.astype(exact, copy=False)
    return _CutBatch(d_sides[:, 0], d_sides[:, 1], rhs.astype(exact, copy=False), equal)


def _distinct_rows(inside: np.ndarray, chains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys among the rows r of `inside`, an (R, n) bool array,
    and `chains`, (R,): `first` holds one row of each distinct key
    (chains[r], inside[r]), and `back` maps each row to its key's place in
    `first`.  A key is the mask's packed bits, zero-padded to 64-bit words,
    and the chain index as one more word; one lexsort puts equal keys next
    to each other."""
    packed = np.packbits(inside, axis=1)
    keys = np.zeros((len(inside), -(-packed.shape[1] // 8) + 1), dtype=np.uint64)
    keys.view(np.uint8)[:, :packed.shape[1]] = packed
    keys[:, -1] = chains
    order = np.lexsort(keys.T)
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    back = np.empty(len(keys), dtype=np.intp)
    back[order] = np.cumsum(new) - 1
    return order[new], back


def _abs_max(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _proper_heights(d: ChainDecomposition, cap: int | None) -> Iterator[np.ndarray]:
    """The proper cuts' heights in `itertools.product` order, as (C, k)
    arrays of at most _BLOCK rows.

    With `cap`, more than `cap` proper cuts raise ScopeExceededError before
    the first block.  The count is multiplied out only until it passes the
    cap, so the refusal never formats a number the size of the product.
    """
    ranges = [range(1, len(chain)) for chain in d.chains]
    # a chain of one element leaves no proper cut at all
    if cap is not None and all(ranges):
        total = 1
        for r in ranges:
            total *= len(r)
            if total > cap:
                raise ScopeExceededError(
                    f"cut enumeration capped at {cap} proper cuts (got more than {cap})"
                )
    product = itertools.product(*ranges)
    while block := list(itertools.islice(product, _BLOCK)):
        yield np.array(block, dtype=np.int64).reshape(len(block), d.k)


def _admissible_identities(frame: CutFrame, cap: int | None) -> Iterator[tuple[list, _CutBatch]]:
    """The cut identity on every admissible cut of the frame's decomposition.

    Yields, block by block in enumeration order, the cuts' heights as a
    list and the kernel's batch on them; blocks without an admissible cut
    are skipped.  More than `cap` proper cuts raise ScopeExceededError
    before the first block.
    """
    for block in _proper_heights(frame.decomposition, cap):
        block = block[_admissible(frame, block)]
        if len(block):
            yield block.tolist(), _cut_kernel(frame, block)


def enumerate_proper_cuts(
    p: Poset, d, cap: int | None = CUT_ENUMERATION_CAP
) -> Iterator[Cut]:
    """All proper cuts of the decomposition (empty when some chain is a point).

    Every cut shares one frame, built at the first proper cut, so a
    decomposition without proper cuts is never checked for homogeneity.
    A decomposition with more than `cap` proper cuts raises
    ScopeExceededError before the first cut; cap=None lifts the cap.
    """
    d = _as_decomposition(p, d)
    frame = None
    for block in _proper_heights(d, cap):
        if frame is None:
            frame = CutFrame(p, d)
        for heights in block.tolist():
            yield Cut(p, frame.decomposition, tuple(heights), frame)


def enumerate_admissible_cuts(
    p: Poset, d, cap: int | None = CUT_ENUMERATION_CAP
) -> list[Cut]:
    """The admissible cuts among `enumerate_proper_cuts(p, d, cap)`, in its
    order; more than `cap` proper cuts raise ScopeExceededError before the
    first block, and cap=None lifts the cap."""
    d = _as_decomposition(p, d)
    frame = None
    cuts = []
    for block in _proper_heights(d, cap):
        if frame is None:
            frame = CutFrame(p, d)
        cuts += [
            Cut(p, frame.decomposition, tuple(heights), frame)
            for heights in block[_admissible(frame, block)].tolist()
        ]
    return cuts


def sample_admissible_cuts(p: Poset, d, count: int, seed: int = 0) -> list[Cut]:
    """`count` admissible cuts drawn with replacement (empty if none exist).

    Refuses a negative count (ValueError) before enumerating any cut, and a
    decomposition with more than CUT_ENUMERATION_CAP proper cuts
    (ScopeExceededError) before the first block, since the pool holds them all.
    """
    refuse_negative("count", count)
    pool = enumerate_admissible_cuts(p, d)
    if not pool:
        return []
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


# -- matrices -----------------------------------------------------------------


def d_matrix(p: Poset, d, scope: str = "whole", cut: Cut | None = None) -> list[list[int]]:
    """Chain-aggregated signed chain counts, k x k with exact integers.

    Entry (i, j) sums the signed count of increasing chains from x to y over
    x in chain i and y in chain j.  Scopes "lower"/"upper" restrict both the
    endpoints and the intermediate elements to one side of the cut; chains
    with an empty side contribute zero rows and columns (an empty side has no
    length-0 chains, so no diagonal unit appears).  `d` is read by
    `chains._as_decomposition`; a scoped `cut` must be a cut of p, or of an
    equal poset, and of that decomposition (ValueError otherwise).  The
    whole scope is the D_whole of `CutFrame(p, d)`, so `d` must be
    homogeneous there (NotHomogeneousError otherwise), as for `j_matrix`.
    """
    if scope == "whole":
        return CutFrame(p, d).d_whole.tolist()
    d = _as_decomposition(p, d)
    if scope not in ("lower", "upper"):
        raise ValueError(f"unknown scope {scope!r}")
    if cut is None:
        raise ValueError(f"scope {scope!r} needs a cut")
    _check_cut(p, cut, d)
    batch = _cut_kernel(cut.frame, cut._block())
    return (batch.d_lower if scope == "lower" else batch.d_upper)[0].tolist()


def _check_cut(p: Poset, cut: Cut, d: ChainDecomposition | None = None) -> None:
    """Raise ValueError unless `cut` is a cut of p, or of an equal poset,
    and, given `d`, of that decomposition."""
    if cut.poset is not p and cut.poset != p:
        raise ValueError("the cut is of another poset")
    if d is not None and cut.decomposition != d:
        raise ValueError("the cut is of another decomposition")


def _mobius_sums(frame: CutFrame, starts: np.ndarray) -> np.ndarray:
    """The frame's Mobius array summed over blocks of the elements listed
    chain after chain: entry (a, b) sums mu[x][y] over x in block a and y
    in block b, where block a runs from position starts[a] of that list to
    the next start (the last to the end).  `starts` must increase strictly
    from 0, and is empty only for the empty poset, which has no chains.
    Two `np.add.reduceat` passes, O(n**2) additions in any dtype; every
    partial sum lies within the count bound (`CutFrame`)."""
    if not len(starts):
        return np.zeros((0, 0), dtype=frame.mobius.dtype)
    flat = frame.layout[0][:-1]
    mu = frame.mobius[flat][:, flat]
    return np.add.reduceat(np.add.reduceat(mu, starts, axis=0), starts, axis=1)


def j_matrix(p: Poset, d) -> list[list[int]]:
    """Identity plus the adjacency matrix of the chain graph: the frame's J.

    `d` is a homogeneous decomposition, read by `chains._as_decomposition`,
    whose chain comparability is computed here, or its ChainGraph, whose
    adjacency is used as it stands unless it is a graph of another poset
    (see `CutFrame`).  Rows and columns follow the frame's decomposition.
    """
    return CutFrame(p, d).j.tolist()


def integer_determinant(mat: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    k = len(mat)
    if k == 0:
        return 1
    m = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for col in range(k - 1):
        pivot_row = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[k - 1][k - 1]


# -- the identity ---------------------------------------------------------------


@dataclass
class CutIdentityReport:
    """Both sides of the cut identity on one concrete cut."""

    heights: tuple[int, ...]
    proper: bool
    admissible: bool
    d_whole: list[list[int]]
    d_lower: list[list[int]]
    d_upper: list[list[int]]
    j: list[list[int]]
    lhs: list[list[int]]
    rhs: list[list[int]]
    equal: bool
    max_abs_discrepancy: int
    j_determinant: int
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Identity verified, or hypothesis unmet (then nothing is claimed)."""
        return self.equal or not self.admissible

    def to_dict(self) -> dict:
        # shallow: each report is built fresh, so its matrices need no deep
        # copy; heights stay a list, as the cut oracles compare lists
        return {**vars(self), "heights": list(self.heights), "ok": self.ok}


def verify_cut_identity(p: Poset, cut: Cut) -> CutIdentityReport:
    """Evaluate both sides of the identity on one cut, exactly.

    The identity is only claimed for admissible cuts; for improper or
    inadmissible ones the report flags the unmet hypothesis and records
    whatever the two sides evaluate to.  A cut of a poset other than p, or
    one not equal to it, raises ValueError.
    """
    _check_cut(p, cut)
    frame, block = cut.frame, cut._block()
    batch = _cut_kernel(frame, block)
    lhs, rhs = frame.lhs.tolist(), batch.rhs[0].tolist()
    diff = max((abs(a - b) for row_l, row_r in zip(lhs, rhs) for a, b in zip(row_l, row_r)), default=0)
    report = CutIdentityReport(
        heights=cut.heights,
        proper=is_proper(cut),
        admissible=bool(_admissible(frame, block)[0]),
        d_whole=frame.d_whole.tolist(),
        d_lower=batch.d_lower[0].tolist(),
        d_upper=batch.d_upper[0].tolist(),
        j=frame.j.tolist(),
        lhs=lhs,
        rhs=rhs,
        equal=diff == 0,
        max_abs_discrepancy=diff,
        j_determinant=frame.j_determinant,
    )
    if not report.admissible:
        report.findings.append(
            {"kind": "cut-hypothesis-unmet", "proper": report.proper}
        )
    report.findings.append(
        {"kind": "j-invertible-over-rationals", "value": report.j_determinant != 0}
    )
    return report
