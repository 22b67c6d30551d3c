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
of that decomposition carries it.  Per cut only D_low and D_up are computed,
each from the signed counts of the strict order's submatrix on its side.

The signed counts are exact (numpy int64 up to 64 elements, Python integers
above; see `poset._signed_counts`), and the aggregation by M and every k x k
product run on Python integers (dtype object), so nothing can overflow;
reports carry both sides of the identity verbatim.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .chains import ChainDecomposition
from .errors import ScopeExceededError
from .hcd import ChainGraph, _as_decomposition, chain_comparability, chain_graph
from .poset import Poset, _signed_counts

# Proper cuts (the product of chain length - 1 over the chains) that a capped
# enumeration may walk; wrap_forest(200) has about 6.5e15.
CUT_ENUMERATION_CAP = 10_000


class CutFrame:
    """The cut-independent half of the cut identity for one decomposition.

    `d` is a homogeneous decomposition or its ChainGraph.  Building a frame
    from a decomposition computes the chain comparability, which certifies
    that it is homogeneous (NotHomogeneousError otherwise); a graph carries
    its comparability already.  M, J, the whole-poset signed counts, D_whole,
    D_whole J and det J are computed on first use and then shared by every
    cut of the decomposition.
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
        k = self.decomposition.k
        return np.array(j_matrix(self.poset, self.graph), dtype=object).reshape(k, k)

    @cached_property
    def counts(self) -> np.ndarray:
        """Signed chain counts of the whole poset."""
        return _signed_counts(self.poset.lt)

    @cached_property
    def d_whole(self) -> np.ndarray:
        return _aggregate(self.members, self.counts)

    @cached_property
    def lhs(self) -> np.ndarray:
        return self.d_whole @ self.j

    @cached_property
    def j_determinant(self) -> int:
        return integer_determinant(self.j.tolist())


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
    if not is_proper(cut):
        return False
    p = cut.poset
    comp = cut.frame.graph.adjacency
    k = cut.decomposition.k
    for i in range(k):
        top_low = cut.lower_parts[i][-1]
        for j in range(k):
            if i == j or not comp[i, j]:
                continue
            bottom_up = cut.upper_parts[j][0]
            if not p.lt[top_low, bottom_up]:
                return False
    return True


def enumerate_proper_cuts(
    p: Poset, d, frame: CutFrame | None = None, cap: int | None = None
) -> Iterator[Cut]:
    """All proper cuts of the decomposition (empty when some chain is a point).

    Every cut shares `frame`, or one frame built at the first proper cut, so
    a decomposition without proper cuts is never checked for homogeneity.
    With `cap`, a decomposition with more than `cap` proper cuts raises
    ScopeExceededError before the first cut.
    """
    d = _as_decomposition(p, d) if frame is None else frame.decomposition
    ranges = [range(1, len(chain)) for chain in d.chains]
    total = math.prod(map(len, ranges))
    if cap is not None and total > cap:
        raise ScopeExceededError(f"cut enumeration capped at {cap} proper cuts (got {total})")
    for heights in itertools.product(*ranges):
        if frame is None:
            frame = CutFrame(p, d)
        yield Cut(p, d, heights, frame)


def enumerate_admissible_cuts(
    p: Poset, d, frame: CutFrame | None = None, cap: int | None = None
) -> list[Cut]:
    return [cut for cut in enumerate_proper_cuts(p, d, frame, cap) if is_admissible(cut)]


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
        return _aggregate(_membership(d), _signed_counts(p.lt)).tolist()
    if scope not in ("lower", "upper"):
        raise ValueError(f"unknown scope {scope!r}")
    if cut is None:
        raise ValueError(f"scope {scope!r} needs a cut")
    parts = cut.lower_parts if scope == "lower" else cut.upper_parts
    keep = [x for part in parts for x in part]
    members = cut.frame.members[:, keep]
    return _aggregate(members, _signed_counts(p.lt[np.ix_(keep, keep)])).tolist()


def _membership(d: ChainDecomposition) -> np.ndarray:
    """k x n chain membership M: entry (i, x) is 1 iff x lies on chain i."""
    members = np.zeros((d.k, d.poset.n), dtype=object)
    members[d.chain_of, np.arange(d.poset.n)] = 1
    return members


def _aggregate(members: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """M S M^T: entry (i, j) sums counts[x, y] over x on chain i, y on chain j."""
    return members @ counts @ members.T


def j_matrix(p: Poset, d) -> list[list[int]]:
    """Identity plus the adjacency matrix of the chain graph.

    `d` is a homogeneous decomposition, whose chain comparability is computed
    here, or its ChainGraph, whose adjacency is used as it stands.
    """
    if isinstance(d, ChainGraph):
        comp = d.adjacency
    else:
        comp = chain_comparability(p, _as_decomposition(p, d))
    k = len(comp)
    return [[(1 if i == j else int(comp[i, j])) for j in range(k)] for i in range(k)]


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
        # heights stay a list, as the cut oracles compare lists
        return {**asdict(self), "heights": list(self.heights), "ok": self.ok}


def verify_cut_identity(p: Poset, cut: Cut) -> CutIdentityReport:
    """Evaluate both sides of the identity on one cut, exactly.

    The identity is only claimed for admissible cuts; for improper or
    inadmissible ones the report flags the unmet hypothesis and records
    whatever the two sides evaluate to.
    """
    d = cut.decomposition
    frame = cut.frame
    d_lower = d_matrix(p, d, "lower", cut)
    d_upper = d_matrix(p, d, "upper", cut)
    lower_j = np.array(d_lower, dtype=object).reshape(frame.j.shape) @ frame.j
    upper_j = np.array(d_upper, dtype=object).reshape(frame.j.shape) @ frame.j
    rhs = lower_j + upper_j - lower_j @ upper_j
    diff = max(map(abs, (frame.lhs - rhs).flat), default=0)
    report = CutIdentityReport(
        heights=cut.heights,
        proper=is_proper(cut),
        admissible=is_admissible(cut),
        d_whole=frame.d_whole.tolist(),
        d_lower=d_lower,
        d_upper=d_upper,
        j=frame.j.tolist(),
        lhs=frame.lhs.tolist(),
        rhs=rhs.tolist(),
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
