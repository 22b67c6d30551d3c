"""Chain-decomposition cuts and the product identity for signed chain counts.

A cut slices every chain of a homogeneous decomposition at a per-chain height
into a lower and an upper part.  For admissible cuts (no empty side, and every
lower part sits below every upper part along comparable chain pairs) the
signed-chain-count matrices of the whole poset and of the two sides satisfy an
exact integer identity:

    D J = D_low J + D_up J - D_low J D_up J,    J = I + adjacency(G).

Everything on the left-hand side depends on the decomposition only, not on
the cut: a `CutFrame` holds the chain graph (whose comparability certifies
homogeneity) and computes the k x n chain membership M, J, the whole-poset
signed counts S, D_whole = M S M^T, D_whole J and det J once, and every cut
of that decomposition carries it.

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
D_side = (sum_s (-1)^s V_s) M^T.  Each power is one (2 C k, n) @ (n, n)
product, so a work array holds at most 2 * 256 * k * n entries; the identity
is then checked with stacked k x k products.

Arithmetic is exact.  Every entry of a power V_s, of a partial sum of the
series or of D_side, and every partial sum of one of their dot products in
whatever order BLAS adds its terms, counts distinct nonempty chains of the
poset (or is a signed sum of such counts), so its absolute value is at most
2**n - 1.  `poset._exact_dtypes` maps such a bound to a dtype: the series
runs on float64 BLAS for n <= 53, where every value is an integer below
2**53 and so no sum, product or fused multiply-add rounds; on int64 for
n <= 63; and on Python integers (dtype object) above.  With m the largest
absolute entry of D_whole, D_low and D_up in a block, every entry of D J,
D_side J, their product and the right-hand side, and every partial sum of
those products, is at most k**3 * m * (m + 2) in absolute value (J is 0/1),
so the k x k products take their dtype from that bound, which the kernel
computes on the matrices it has.  Every matrix a float64 tier computes
leaves the kernel as int64, so a batch holds int64 or Python integers only,
and reports carry both sides of the identity verbatim, as Python integers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chains import ChainDecomposition
from .errors import ScopeExceededError
from .hcd import ChainGraph, _as_decomposition, chain_graph
from .poset import Poset, _alternating_series, _exact_dtypes, _signed_counts

# Proper cuts (the product of chain length - 1 over the chains) that a capped
# enumeration may walk; wrap_forest(200) has about 6.5e15.
CUT_ENUMERATION_CAP = 10_000

# Cuts per block of `_proper_heights`.
_BLOCK = 256


class CutFrame:
    """The cut-independent half of the cut identity for one decomposition.

    `d` is a homogeneous decomposition or its ChainGraph.  Building a frame
    from a decomposition computes the chain comparability, which certifies
    that it is homogeneous (NotHomogeneousError otherwise); a graph carries
    its comparability already.  M, J, the whole-poset signed counts, D_whole,
    D_whole J and det J are computed on first use and then shared by every
    cut of the decomposition, as is the layout `_admissible` and
    `_cut_kernel` read.
    """

    def __init__(self, p: Poset, d) -> None:
        self.poset = p
        self.graph = d if isinstance(d, ChainGraph) else chain_graph(p, d)
        self.decomposition = self.graph.decomposition

    @cached_property
    def members(self) -> np.ndarray:
        return _membership(self.decomposition)

    @cached_property
    def j(self) -> np.ndarray:
        """J = I + adjacency(G)."""
        k = self.decomposition.k
        return np.eye(k, dtype=np.int64) + self.graph.adjacency

    @cached_property
    def counts(self) -> np.ndarray:
        """Signed chain counts of the whole poset."""
        return _signed_counts(self.poset.lt)

    @cached_property
    def d_whole(self) -> np.ndarray:
        return self.members @ self.counts @ self.members.T

    @cached_property
    def lhs(self) -> np.ndarray:
        return self.d_whole.astype(object) @ self.j

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
        the side series computes in."""
        d = self.decomposition
        sizes = np.array([len(c) for c in d.chains], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        flat = np.array([x for c in d.chains for x in c] + [0], dtype=np.int64)
        chain_of = np.array(d.chain_of, dtype=np.int64)
        position = np.empty(d.poset.n, dtype=np.int64)
        position[flat[:-1]] = np.arange(d.poset.n) - np.repeat(offsets, sizes)
        edges = np.nonzero(self.graph.adjacency)
        strict = self.poset.lt.astype(_exact_dtypes(2**d.poset.n - 1)[0])
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
    """Validate heights against a homogeneous decomposition and build the cut."""
    frame = CutFrame(p, d)  # raises NotHomogeneousError when not homogeneous
    d = frame.decomposition
    heights = tuple(int(h) for h in heights)
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
    docstring for the series and the dtype bounds.
    """
    _, _, _, chain_of, position, _, strict = frame.layout
    c, k = heights.shape
    n = len(position)
    low = position < heights[:, chain_of]  # (C, n): x lies in the lower part
    inside = np.stack((low, ~low), axis=1)[:, :, None, :]
    inside = np.broadcast_to(inside, (c, 2, k, n)).reshape(2 * c * k, n)
    members = frame.members.astype(strict.dtype, copy=False)
    total = _alternating_series(np.tile(members, (2 * c, 1)) * inside, strict, inside)
    d_sides = (total @ members.T).reshape(c, 2, k, k)
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


def enumerate_proper_cuts(p: Poset, d, cap: int | None = None) -> Iterator[Cut]:
    """All proper cuts of the decomposition (empty when some chain is a point).

    Every cut shares one frame, built at the first proper cut, so a
    decomposition without proper cuts is never checked for homogeneity.
    With `cap`, a decomposition with more than `cap` proper cuts raises
    ScopeExceededError before the first cut.
    """
    d = _as_decomposition(p, d)
    frame = None
    for block in _proper_heights(d, cap):
        if frame is None:
            frame = CutFrame(p, d)
        for heights in block.tolist():
            yield Cut(p, frame.decomposition, tuple(heights), frame)


def enumerate_admissible_cuts(p: Poset, d, cap: int | None = None) -> list[Cut]:
    """The admissible cuts among `enumerate_proper_cuts(p, d, cap)`, in its order."""
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
    """`count` admissible cuts drawn with replacement (empty if none exist)."""
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
    length-0 chains, so no diagonal unit appears).
    """
    d = _as_decomposition(p, d)
    if scope == "whole":
        members = _membership(d)
        return (members @ _signed_counts(p.lt) @ members.T).tolist()
    if scope not in ("lower", "upper"):
        raise ValueError(f"unknown scope {scope!r}")
    if cut is None:
        raise ValueError(f"scope {scope!r} needs a cut")
    batch = _cut_kernel(cut.frame, cut._block())
    return (batch.d_lower if scope == "lower" else batch.d_upper)[0].tolist()


def _membership(d: ChainDecomposition) -> np.ndarray:
    """k x n chain membership M: entry (i, x) is 1 iff x lies on chain i."""
    members = np.zeros((d.k, d.poset.n), dtype=_exact_dtypes(2**d.poset.n - 1)[1])
    members[d.chain_of, np.arange(d.poset.n)] = 1
    return members


def j_matrix(p: Poset, d) -> list[list[int]]:
    """Identity plus the adjacency matrix of the chain graph: the frame's J.

    `d` is a homogeneous decomposition, whose chain comparability is computed
    here, or its ChainGraph, whose adjacency is used as it stands.
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
    whatever the two sides evaluate to.
    """
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
