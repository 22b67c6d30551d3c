"""Check suites over single posets and families, used by the command line.

Each check returns a JSON-ready dict with a name, a passed flag, details, and
optional findings; a theorem falsification carries a witness.  The checks on
one poset share one `Analysis`, which builds each artifact they have in
common (Dilworth pair, MHCD, cut frame, constructive pipeline, noncrossing
minimum, brute-force decompositions) once.  Suites run the checks, one poset
after another, over exhaustively enumerated small posets or seeded random
families.
"""

from __future__ import annotations

from functools import cached_property

from .chains import (
    ChainDecomposition,
    _dilworth,
    enumerate_chain_decompositions,
    is_antichain,
    is_chain,
    is_chain_decomposition,
)
from .cut import CUT_ENUMERATION_CAP, CutFrame, enumerate_admissible_cuts, verify_cut_identity
from .errors import CheckFailure, PosetError, ScopeExceededError
from .generate import chain, random_poset, wrap_forest
from .hcd import _deletion_bounds, _embedding, is_homogeneous, merge_fixpoint, mhcd
from .kernels import permutations_avoiding
from .nccd import (
    DESCENT_SCAN_CAP,
    NONCROSSING_CAP,
    _avoider_runs,
    _chain_bounds,
    _construction,
    _crossing,
    count_noncrossing_decompositions,
    minimum_noncrossing_decomposition,
)
from .poset import POSET_ENUMERATION_CAP, Poset, enumerate_posets, mobius_matrix

DEFAULT_CHECKS = (
    "dilworth",
    "homogeneous",
    "deletion",
    "cut",
    "embedding",
    "bounds",
    "segments",
    "noncrossing-trivial",
)

BRUTE_FORCE_CAP = 6
MERGE_SHUFFLES = 8
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
    the artifact they test: merge replays, homogeneity tests and brute-force
    minima stay inside them, and `decompositions` is their shared oracle.
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
    def frame(self) -> CutFrame:
        return CutFrame(self.p, self.mhcd)

    @cached_property
    def construction(self) -> tuple:
        return _construction(self.p, self.mhcd)

    @cached_property
    def noncrossing(self) -> tuple[int, ChainDecomposition]:
        return minimum_noncrossing_decomposition(self.p)

    @cached_property
    def decompositions(self) -> list[ChainDecomposition]:
        """Every chain decomposition; out of scope above BRUTE_FORCE_CAP."""
        return list(enumerate_chain_decompositions(self.p, cap=BRUTE_FORCE_CAP))


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
        brute = min((dec.k for dec in an.decompositions), default=0)
        details["brute_force_minimum"] = brute
        passed = passed and d.k == brute
    out = {"name": "dilworth", "passed": passed, "details": details}
    if not passed:
        out["witness"] = {"decomposition": d.to_lines(), "antichain": [str(x) for x in a]}
    return out


def check_homogeneous(an: Analysis, seed: int = 0) -> dict:
    """The twin classes are homogeneous, minimal, and every shuffled merge fixpoint."""
    p = an.p
    d = an.mhcd
    confluent = all(merge_fixpoint(p, seed + s) == d for s in range(MERGE_SHUFFLES))
    details: dict = {"k": d.k, "confluent": confluent}
    passed = is_chain_decomposition(p, d) and is_homogeneous(p, d) and confluent
    if p.n <= BRUTE_FORCE_CAP:
        homogeneous = [dec for dec in an.decompositions if is_homogeneous(p, dec)]
        least = min((dec.k for dec in homogeneous), default=0)
        minimal = [dec for dec in homogeneous if dec.k == least]
        details["enumerated_minimum"] = least
        details["minimal_count"] = len(minimal)
        passed = passed and d.k == least and len(minimal) == 1 and minimal[0] == d
    out = {"name": "homogeneous", "passed": passed, "details": details}
    if not passed:
        out["witness"] = {"decomposition": d.to_lines()}
    return out


def check_deletion(an: Analysis, seed: int = 0) -> dict:
    """One-point deletion bounds for every element."""
    rep = _deletion_bounds(an.p, an.mhcd.k)
    out = {
        "name": "deletion",
        "passed": rep.ok,
        "details": {"k": rep.k, "elements": len(rep.entries)},
    }
    if not rep.ok:
        out["witness"] = [e for e in rep.entries if not (e["lower_ok"] and e["upper_ok"])]
    return out


def check_cut(an: Analysis, seed: int = 0) -> dict:
    """Cut identity on every admissible cut, plus the signed-count cross-check.

    The second part compares the signed chain-count matrix against the Mobius
    matrix computed by its defining recursion; the two must agree entrywise.
    Both parts share the analysis' CutFrame, so the whole-poset counts and
    the chain comparability are computed once.  More than
    CUT_ENUMERATION_CAP proper cuts raise ScopeExceededError.
    """
    p = an.p
    frame = an.frame
    admissible = enumerate_admissible_cuts(
        p, frame.decomposition, frame, cap=CUT_ENUMERATION_CAP
    )
    failures = []
    for cut in admissible:
        rep = verify_cut_identity(p, cut)
        if not rep.equal:
            failures.append(rep.to_dict())
    counts = frame.counts.tolist()
    mobius = mobius_matrix(p)
    hall = counts == mobius
    passed = not failures and hall
    out = {
        "name": "cut",
        "passed": passed,
        "details": {
            "admissible_cuts": len(admissible),
            "signed_counts_match_mobius": hall,
        },
    }
    if failures:
        out["witness"] = failures[0]
    elif not hall:
        out["witness"] = {"signed_counts": counts, "mobius": mobius}
    return out


def check_embedding(an: Analysis, seed: int = 0) -> dict:
    """Automorphisms embed into the oriented chain graph's symmetries."""
    rep = _embedding(an.p, an.mhcd, seed)
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

    Each permutation of the avoider scan is split once at its descents, one
    run per descent; the first one with a 132 pattern, a run that is not a
    chain or two runs that cross is the witness.
    """
    p = an.p
    if p.n > SEGMENT_SWEEP_CAP:
        return {
            "name": "segments",
            "passed": True,
            "details": {"permutations": 0, "skipped": f"n > {SEGMENT_SWEEP_CAP}"},
        }
    up, down = p.rows
    perms = permutations_avoiding(p.lt_bytes, p.n)
    for swept, perm in enumerate(perms):
        runs = _avoider_runs(up, down, perm)
        if runs is None:
            fault = "not 132-avoiding"
        elif not all(
            up[a] >> b & 1 for run in runs for i, a in enumerate(run) for b in run[i + 1:]
        ):
            fault = "an ascending run is not a chain"
        elif _crossing(up, down, runs) is not None:
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


def run_poset_checks(p: Poset, which=DEFAULT_CHECKS, seed: int = 0) -> dict:
    """Run the named checks on one poset; failures become failed checks.

    A CheckFailure, any other PosetError (a cap, an invalid artifact) or a
    RecursionError inside a check fails that check with the error text, and
    the returned record names the poset, so a sweep keeps its witness and
    runs on.  Any other exception propagates.  The checks share one Analysis.
    """
    an = Analysis(p)
    checks = []
    findings = []
    for name in which:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}")
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
            findings.append({"check": name, **(f if isinstance(f, dict) else {"kind": str(f)})})
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


def _aggregate_findings(results: list[dict]) -> list[dict]:
    counts: dict[str, dict] = {}
    for res in results:
        for f in res.get("findings", []):
            kind = f.get("kind", f.get("check", "unknown"))
            slot = counts.setdefault(kind, {"kind": kind, "count": 0, "example": f})
            slot["count"] += 1
    return sorted(counts.values(), key=lambda s: s["kind"])


def _summarize(mode: str, results: list[dict], extra_checks: list[dict]) -> dict:
    failures = [r for r in results if not r["ok"]]
    ok = not failures and all(c["passed"] for c in extra_checks)
    return {
        "mode": mode,
        "posets": len(results),
        "ok": ok,
        "failures": failures,
        "global_checks": extra_checks,
        "findings": _aggregate_findings(results),
    }


def verify_exhaustive(
    nmax: int,
    which=DEFAULT_CHECKS,
    seed: int = 0,
    cap: int | None = POSET_ENUMERATION_CAP,
) -> dict:
    """Run the checks on every labeled poset with at most nmax elements.

    Refuses nmax > cap before enumerating anything; cap=None lifts the guard.
    """
    if cap is not None and nmax > cap:
        raise ScopeExceededError(
            f"exhaustive sweep capped at nmax <= {cap} (got nmax = {nmax})"
        )
    results = [
        run_poset_checks(p, which=which, seed=seed)
        for n in range(nmax + 1)
        for p in enumerate_posets(n, cap=None)
    ]
    extra = [check_catalan_counts()]
    summary = _summarize("exhaustive", results, extra)
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
    """Run the checks on seeded random posets (uniform-ish or wrap forests)."""
    if family == "random":
        posets = (random_poset(n, density=density, seed=seed + i) for i in range(count))
    elif family == "wrapforest":
        posets = (wrap_forest(n, seed=seed + i) for i in range(count))
    else:
        raise ValueError(f"unknown family {family!r}")
    results = [run_poset_checks(p, which=which, seed=seed) for p in posets]
    summary = _summarize("random", results, [])
    summary.update({"n": n, "count": count, "seed": seed, "family": family})
    return summary
