"""Check suites over single posets and families, used by the command line.

Each check returns a JSON-ready dict with a name, a passed flag, details, and
optional findings; a theorem falsification carries a witness.  The checks on
one poset share one `Analysis`, which builds each artifact they have in
common (Dilworth pair, MHCD, its oriented chain graph, cut frame,
constructive pipeline, noncrossing minimum, brute-force decompositions)
once; `posetdecomp analyze` reads its sections from one `Analysis` too.
The brute force is one walk over the chain partitions on bit masks, with a
homogeneity test of its own.  The homogeneous check's merge side is one
pass over the ready pairs of `_merge_table`, whose docstring holds the lemma
it rests on: only ready pairs ever merge, so when the ready pairs, unioned
into classes, form cliques on the MHCD's chains, every merge order ends there.
Suites run the checks, one poset after another, over exhaustively enumerated
small posets or seeded random families, and count per check the posets on
which a size cap skipped it.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Iterable

import numpy as np

from .chains import (
    ChainDecomposition,
    _dilworth,
    _partition_walk,
    is_antichain,
    is_chain,
    is_chain_decomposition,
)
from .cut import (
    CUT_ENUMERATION_CAP,
    Cut,
    CutFrame,
    _CutBatch,
    _admissible_identities,
    _mobius_sums,
    verify_cut_identity,
)
from .errors import (
    CheckFailure,
    InternalInconsistencyError,
    PosetError,
    refuse_above,
    refuse_density,
    refuse_negative,
)
from .generate import chain, random_poset, wrap_forest
from .hcd import (
    ChainGraph,
    _embedding,
    acyclic_orientation,
    deletion_bounds,
    is_homogeneous,
    mhcd,
)
from .nccd import (
    DESCENT_SCAN_CAP,
    NONCROSSING_CAP,
    _avoider_runs,
    _chain_bounds,
    _construction,
    _crossing,
    _noncrossing_minimum,
    _segment_walk,
    count_noncrossing_decompositions,
)
from .poset import (
    POSET_ENUMERATION_CAP,
    Poset,
    _bits,
    _signed_counts,
    enumerate_posets,
)

BRUTE_FORCE_CAP = 6
SEGMENT_SWEEP_CAP = 6


def catalan_numbers(count: int) -> list[int]:
    """First `count` + 1 Catalan numbers by the convolution recurrence."""
    cat = [1]
    for n in range(count):
        cat.append(sum(cat[i] * cat[n - i] for i in range(n + 1)))
    return cat


class Analysis:
    """The artifacts the checks on one poset share, each built on first use.

    An artifact whose construction raises is not kept, so every check that
    reads it fails with the same error.  The checks never take a verdict from
    the artifact they test: the clique test on the ready pairs, homogeneity
    tests and brute-force minima stay inside them, and `decompositions` is
    their shared oracle, a walk on chain masks that tests homogeneity
    without the library's `is_homogeneous`.
    Size caps are the readers' to apply: `noncrossing` has none.
    """

    def __init__(self, p: Poset) -> None:
        self.p = p

    @cached_property
    def dilworth(self) -> tuple[ChainDecomposition, tuple]:
        return _dilworth(self.p)

    @cached_property
    def mhcd(self) -> ChainDecomposition:
        return mhcd(self.p)

    @cached_property
    def graph(self) -> ChainGraph:
        """The MHCD's chain graph, oriented by chain minima."""
        return acyclic_orientation(self.p, self.mhcd)

    @cached_property
    def frame(self) -> CutFrame:
        return CutFrame(self.p, self.graph)

    @cached_property
    def construction(self) -> tuple:
        return _construction(self.p, self.graph)

    @cached_property
    def noncrossing(self) -> tuple[int, ChainDecomposition]:
        """The noncrossing minimum, bounded below by the Dilworth pair's width."""
        return _noncrossing_minimum(self.p, len(self.dilworth[1]))

    @cached_property
    def decompositions(self) -> list[tuple[tuple[int, ...], bool]]:
        """(chain masks, homogeneous) for every chain decomposition, from the
        partition walk with its own homogeneity test; out of scope above
        BRUTE_FORCE_CAP."""
        return list(_partition_walk(self.p, cap=BRUTE_FORCE_CAP))


def check_dilworth(an: Analysis, seed: int = 0) -> dict:
    """Minimum decomposition size equals the maximum antichain size."""
    p = an.p
    d, a = an.dilworth
    details: dict = {"chains": d.k, "antichain": len(a)}
    passed = (
        d.k == len(a)
        and is_chain_decomposition(p, d)
        and is_antichain(p, a)
    )
    if p.n <= BRUTE_FORCE_CAP:
        brute = min((len(masks) for masks, _ in an.decompositions), default=0)
        details["brute_force_minimum"] = brute
        passed = passed and d.k == brute
    out = {"name": "dilworth", "passed": passed, "details": details}
    if not passed:
        out["witness"] = {"decomposition": d.to_lines(), "antichain": [str(x) for x in a]}
    return out


def check_homogeneous(an: Analysis, seed: int = 0) -> dict:
    """The twin classes are homogeneous, minimal, and every merge fixpoint.

    Only ready pairs ever merge, in any merge order (the lemma in the
    docstring of `_merge_table`), so every merge order ends at the classes
    of the ready pairs when those form cliques: `confluent` holds when the
    pairs of `_merge_table` number the sum of C(|class|, 2) over the classes
    they join, and those classes are the MHCD's chains.
    The verdict does not read `seed`.  The classes and the brute force
    compare chain masks, each as a sorted tuple.  Below
    BRUTE_FORCE_CAP the least homogeneous partitions of the partition walk
    must be the MHCD alone, and the library's `is_homogeneous` must reject
    the walk's first mixed partition.
    """
    p = an.p
    d = an.mhcd
    target = tuple(sorted(sum(1 << x for x in chain) for chain in d.chains))
    ready = _merge_table(p)
    classes = _ready_classes(p.n, ready)
    confluent = classes == target and len(ready) == sum(comb(c.bit_count(), 2) for c in classes)
    details: dict = {"k": d.k, "confluent": confluent}
    passed = is_chain_decomposition(p, d) and is_homogeneous(p, d) and confluent
    if p.n <= BRUTE_FORCE_CAP:
        homogeneous = [masks for masks, hom in an.decompositions if hom]
        least = min(map(len, homogeneous), default=0)
        minimal = [masks for masks in homogeneous if len(masks) == least]
        details["enumerated_minimum"] = least
        details["minimal_count"] = len(minimal)
        passed = (
            passed and d.k == least and len(minimal) == 1
            and tuple(sorted(minimal[0])) == target
        )
        mixed = next((masks for masks, hom in an.decompositions if not hom), None)
        if mixed is not None:
            # the library's own test must reject a partition the walk calls mixed
            rejected = not is_homogeneous(p, ChainDecomposition._from_masks(p, mixed))
            passed = passed and rejected
    out = {"name": "homogeneous", "passed": passed, "details": details}
    if not passed:
        out["witness"] = {"decomposition": d.to_lines()}
    return out


def _merge_table(p: Poset) -> list[tuple[int, int]]:
    """The ready pairs: the merges of the first round, in (i, j) order.

    The merge loop starts from singletons and merges a comparable chain
    pair whose comparability profiles towards every other chain agree;
    chain i, named by its least index, keeps element i's row when j merges
    in.  With comp[x] = up[x] | down[x], the comparable pair (i, j), i < j,
    is ready when its rows agree off the pair, (comp[i] ^ comp[j]) & ~(bit
    i | bit j) == 0.  A merge (i, j) removes j, so the pairs that hold j
    leave the candidates; no pair is ever added:

    Lemma.  A comparable pair (a, b) whose rows differ off the pair at some
    element c never becomes a merge.  Let r be the least element whose closed
    row `up | down | 1 << x` equals c's.  A ready pair has equal closed rows,
    and every merge (i, j), i < j, fires a ready pair and removes j, so no
    merge removes the least element of a class: r stays alive.  r relates to
    every other element as c does, so r lies in the pair's difference unless
    r is a or b.  r = a would put c in a's closed row, and so b in c's row
    (b is in a's row); but c relates to exactly one of a and b.  r = b fails
    the same way.  So the pair's difference always holds an alive element,
    and by induction only ready pairs ever fire, in any merge order.

    So these are every merge any merge loop can fire, and
    `check_homogeneous` reads them as its side independent of `mhcd`.
    """
    up, down = p.rows
    comp = [u | d for u, d in zip(up, down)]
    return [
        (i, j)
        for i in range(p.n)
        for j in _bits(comp[i] & -(2 << i))
        if not (comp[i] ^ comp[j]) & ~(1 << i | 1 << j)
    ]


def _ready_classes(n: int, ready: list[tuple[int, int]]) -> tuple[int, ...]:
    """The classes that the pairs of `ready` join on range(n), as the sorted
    tuple of their bit masks (union-find with path halving)."""
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for i, j in ready:
        parent[root(j)] = root(i)
    classes = [0] * n
    for x in range(n):
        classes[root(x)] |= 1 << x
    return tuple(sorted(c for c in classes if c))


def check_deletion(an: Analysis, seed: int = 0) -> dict:
    """One-point deletion bounds for every element."""
    rep = deletion_bounds(an.p)
    out = {
        "name": "deletion",
        "passed": rep.ok,
        "details": {"k": rep.k, "elements": len(rep.entries)},
    }
    if not rep.ok:
        out["witness"] = [e for e in rep.entries if not (e["lower_ok"] and e["upper_ok"])]
    return out


def check_cut(an: Analysis, seed: int = 0) -> dict:
    """Cut identity on every admissible cut, plus two signed-count cross-checks.

    The cross-checks compare the power series against the frame's Mobius
    array, which shares no code with it: the whole poset's signed
    chain-count array against that array, both in the dtype of the frame's
    count bound, and on the first admissible cut each side's counts, as the
    cut kernel's series computed them, against the array summed over that
    side (`_side_mismatch`).  All parts share the analysis' CutFrame, so the
    Mobius array (which D_whole sums too), the count bound and the chain
    comparability are computed once.  The cuts are
    checked in blocks by the cut kernel; only the first failing cut gets a
    full report, which is the witness.  More than CUT_ENUMERATION_CAP proper
    cuts are refused with ScopeExceededError.
    """
    p = an.p
    frame = an.frame
    admissible = 0
    failure = sides = None
    for heights, batch in _admissible_identities(frame, CUT_ENUMERATION_CAP):
        if not admissible:  # the first admissible cut
            sides = _side_mismatch(frame, heights[0], batch)
        equal = batch.equal.tolist()
        if failure is None and not all(equal):
            cut = Cut(p, frame.decomposition, tuple(heights[equal.index(False)]), frame)
            failure = verify_cut_identity(p, cut).to_dict()
        admissible += len(heights)
    counts = _signed_counts(p.lt, frame.count_bound)
    hall = bool((counts == frame.mobius).all())
    out = {
        "name": "cut",
        "passed": failure is None and sides is None and hall,
        "details": {
            "admissible_cuts": admissible,
            "signed_counts_match_mobius": hall,
        },
    }
    if failure is not None:
        out["witness"] = failure
    elif sides is not None:
        out["witness"] = sides
    elif not hall:
        out["witness"] = {"signed_counts": counts.tolist(), "mobius": frame.mobius.tolist()}
    return out


def _side_mismatch(frame: CutFrame, heights: list[int], batch: _CutBatch) -> dict | None:
    """The first side of the cut at `heights`, the batch's first row, whose
    counts differ from the frame's Mobius array summed over that side, as a
    witness; None when both sides agree.  The sides of an admissible cut are
    a down-set and an up-set, which hold every interval between their
    points, so mu restricted to a side is the side's own (Rota 1964).  The
    cut is proper, so the lower and upper parts of the chains, in turn,
    split the elements into 2k nonempty blocks, and one `_mobius_sums` over
    them holds both sides' sums: the lower side's at even places, the
    upper side's at odd ones."""
    offsets = frame.layout[1]
    starts = np.ravel([offsets, offsets + heights], order="F")
    sums = _mobius_sums(frame, starts)
    for side, mobius, kernel in (
        ("lower", sums[0::2, 0::2], batch.d_lower[0]),
        ("upper", sums[1::2, 1::2], batch.d_upper[0]),
    ):
        if not (kernel == mobius).all():
            return {"heights": heights, "side": side, "kernel": kernel.tolist(),
                    "mobius": mobius.tolist()}
    return None


def check_embedding(an: Analysis, seed: int = 0) -> dict:
    """Automorphisms embed into the oriented chain graph's symmetries."""
    rep = _embedding(an.p, an.graph, seed)
    out = {
        "name": "embedding",
        "passed": rep.ok,
        "details": {
            "aut_poset": rep.aut_poset_order,
            "aut_oriented": rep.aut_oriented_order,
            "hom_pairs": rep.hom_pairs_checked,
        },
        "findings": list(rep.findings),
    }
    if not rep.ok:
        out["witness"] = rep.witness
    return out


def check_bounds(an: Analysis, seed: int = 0) -> dict:
    """The five-minimum inequality chain; above the scan cap, without the scans."""
    p = an.p
    scans = p.n <= DESCENT_SCAN_CAP
    rep = _chain_bounds(
        p,
        an.dilworth[0].k,
        an.noncrossing if p.n <= NONCROSSING_CAP else None,
        an.construction,
        scans,
    )
    if scans:
        minima = ("chains", "noncrossing", "descents", "descents_ext", "homogeneous")
        details = {f"min_{name}": getattr(rep, f"min_{name}") for name in minima}
    else:
        # the permutation scans are exponential
        details = {"k": rep.min_homogeneous, "scans": "skipped"}
    out = {"name": "bounds", "passed": rep.ok, "details": details, "findings": rep.findings}
    if not rep.ok:
        out["witness"] = {name: ok for name, ok in rep.checks.items() if not ok}
    return out


def check_segments(an: Analysis, seed: int = 0) -> dict:
    """Every 132-avoiding permutation's runs form a noncrossing decomposition.

    `nccd._segment_walk` walks the avoider tree once, pruning by the kernel's
    132 test, and tests each node's new element for keeping its run a chain
    and for a crossing with the closed runs; it returns the avoider count
    and, when it flags a node, the first avoider through that node as the
    witness.  The witness is split once at its descents and classified on
    its own: a 132 pattern, a run that is not a chain, or two runs that
    cross.
    """
    p = an.p
    if p.n > SEGMENT_SWEEP_CAP:
        return {
            "name": "segments",
            "passed": True,
            "details": {"permutations": 0, "skipped": f"n > {SEGMENT_SWEEP_CAP}"},
        }
    up, down = p.rows
    count, perm = _segment_walk(up, down)
    if perm is None:
        return {"name": "segments", "passed": True, "details": {"permutations": count}}
    runs = _avoider_runs(up, down, perm)
    if runs is None:
        fault = "not 132-avoiding"
    # the order is transitive, so a run is a chain iff each step goes up
    elif not all(up[a] >> b & 1 for run in runs for a, b in zip(run, run[1:])):
        fault = "an ascending run is not a chain"
    elif _crossing(up, down, runs) is not None:
        fault = "ascending runs cross"
    else:
        raise InternalInconsistencyError(
            f"the avoider walk flags avoider {count}, whose runs pass on their own"
        )
    return {
        "name": "segments",
        "passed": False,
        "details": {"permutations": count, "error": fault},
        "witness": {"permutation": [str(p.labels[x]) for x in perm]},
    }


def check_noncrossing_trivial(an: Analysis, seed: int = 0) -> dict:
    """A single noncrossing chain suffices exactly for total orders."""
    p = an.p
    if p.n > NONCROSSING_CAP:
        return {
            "name": "noncrossing-trivial",
            "passed": True,
            "details": {"skipped": f"n > {NONCROSSING_CAP}"},
        }
    nc, _ = an.noncrossing
    total = is_chain(p, p.labels)
    passed = (nc <= 1) == total if p.n else nc == 0
    out = {
        "name": "noncrossing-trivial",
        "passed": passed,
        "details": {"min_noncrossing": nc, "total_order": total},
    }
    return out


_CHECKS = {
    "dilworth": check_dilworth,
    "homogeneous": check_homogeneous,
    "deletion": check_deletion,
    "cut": check_cut,
    "embedding": check_embedding,
    "bounds": check_bounds,
    "segments": check_segments,
    "noncrossing-trivial": check_noncrossing_trivial,
}
DEFAULT_CHECKS = tuple(_CHECKS)


def _check_names(which: Iterable[str]) -> tuple[str, ...]:
    """`which` as a tuple; a name that is not a check is a ValueError."""
    which = tuple(which)
    for name in which:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}")
    return which


def run_poset_checks(p: Poset, which=DEFAULT_CHECKS, seed: int = 0) -> dict:
    """Run the named checks on one poset; failures become failed checks.

    An unknown check name is a ValueError before any check runs.  A
    CheckFailure, any other PosetError (a cap, an invalid artifact) or a
    RecursionError inside a check fails that check with the error text, and
    the returned record names the poset, so a sweep keeps its witness and
    runs on.  Any other exception propagates.  The checks share one Analysis.
    """
    which = _check_names(which)
    an = Analysis(p)
    checks = []
    findings = []
    for name in which:
        try:
            result = _CHECKS[name](an, seed=seed)
        except CheckFailure as exc:
            result = {
                "name": name,
                "passed": False,
                "details": {"error": str(exc)},
                "witness": repr(exc.witness),
            }
        except (PosetError, RecursionError) as exc:
            # the poset itself is the witness; the sweep goes on
            result = {
                "name": name,
                "passed": False,
                "details": {"error": f"{type(exc).__name__}: {exc}"},
            }
        for f in result.pop("findings", []):
            findings.append({"check": name, **f})
        checks.append(result)
    return {
        "poset": {
            "n": p.n,
            "elements": [str(x) for x in p.labels],
            "covers": [f"{x} < {y}" for x, y in p.covers()],
        },
        "checks": checks,
        "ok": all(c["passed"] for c in checks),
        "findings": findings,
    }


def check_catalan_counts(limit: int = 8) -> dict:
    """Noncrossing decompositions of total orders against the recurrence."""
    expected = catalan_numbers(limit)
    got = [count_noncrossing_decompositions(chain(n)) for n in range(limit + 1)]
    passed = got == expected
    out = {
        "name": "catalan",
        "passed": passed,
        "details": {"counts": got},
    }
    if not passed:
        out["witness"] = {"expected": expected, "got": got}
    return out


def _skipped(check: dict) -> bool:
    """True when a check skipped its work, or part of it, at a fixed size cap."""
    details = check["details"]
    return "skipped" in details or details.get("scans") == "skipped"


def _sweep(mode: str, records: Iterable[dict], extra_checks: list[dict]) -> dict:
    """The sweep's verdict, its failures and findings, and per check the
    posets it skipped, folded in one record at a time: a passing record is
    dropped once counted, and each finding kind keeps a count and its first
    example."""
    posets = 0
    failures = []
    findings: dict[str, dict] = {}
    skipped: dict[str, int] = {}
    for res in records:
        posets += 1
        if not res["ok"]:
            failures.append(res)
        for f in res["findings"]:
            kind = f["kind"]
            slot = findings.setdefault(kind, {"kind": kind, "count": 0, "example": f})
            slot["count"] += 1
        for check in res["checks"]:
            skipped[check["name"]] = skipped.get(check["name"], 0) + _skipped(check)
    return {
        "mode": mode,
        "posets": posets,
        "ok": not failures and all(c["passed"] for c in extra_checks),
        "failures": failures,
        "global_checks": extra_checks,
        "findings": sorted(findings.values(), key=lambda s: s["kind"]),
        "skipped": skipped,
    }


def verify_exhaustive(
    nmax: int,
    which=DEFAULT_CHECKS,
    seed: int = 0,
    cap: int | None = POSET_ENUMERATION_CAP,
) -> dict:
    """Run the checks on every labeled poset with at most nmax elements.

    Refuses an unknown check name or a negative nmax (ValueError) and nmax >
    cap before enumerating anything; cap=None lifts the guard.
    """
    which = _check_names(which)
    refuse_negative("nmax", nmax)
    refuse_above("exhaustive sweep", cap, nmax, unit="nmax")
    records = (
        run_poset_checks(p, which=which, seed=seed)
        for n in range(nmax + 1)
        for p in enumerate_posets(n, cap=None)
    )
    summary = _sweep("exhaustive", records, [check_catalan_counts()])
    summary["nmax"] = nmax
    return summary


def verify_random(
    n: int,
    count: int,
    which=DEFAULT_CHECKS,
    seed: int = 0,
    density: float = 0.3,
    family: str = "random",
) -> dict:
    """Run the checks on seeded random posets (uniform-ish or wrap forests).

    Refuses an unknown check name, a negative n or count, an unknown family
    and, for the random family, a density outside [0, 1] (ValueError) before
    building the first poset.
    """
    which = _check_names(which)
    refuse_negative("n", n)
    refuse_negative("count", count)
    if family == "random":
        refuse_density(density)
        posets = (random_poset(n, density=density, seed=seed + i) for i in range(count))
    elif family == "wrapforest":
        posets = (wrap_forest(n, seed=seed + i) for i in range(count))
    else:
        raise ValueError(f"unknown family {family!r}")
    records = (run_poset_checks(p, which=which, seed=seed) for p in posets)
    summary = _sweep("random", records, [])
    summary.update({"n": n, "count": count, "seed": seed, "family": family})
    return summary
