"""The per-poset analysis behind the check battery: shared artifacts built once."""

import math
import sys
import weakref

import pytest

from posetdecomp import kernels, mhcd, textio, verify
from posetdecomp.chains import ChainDecomposition
from posetdecomp.errors import InternalInconsistencyError
from posetdecomp.generate import antichain, chain, random_poset, wrap_forest
from posetdecomp.nccd import derived_extension

import oracles
import populations

MODULES = [m for name, m in sorted(sys.modules.items()) if name.startswith("posetdecomp.")]


def _rebind(monkeypatch, module, name, replacement):
    """Replace module.name at every posetdecomp module that binds it."""
    original = getattr(module, name)
    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def _count(monkeypatch, module, name, calls: list):
    """Record the first argument of every call to module.name."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    _rebind(monkeypatch, module, name, counted)


def _sweep_posets():
    posets = populations.up_to(4) + populations.random_n8(10)
    posets += [random_poset(10, 0.15, seed=s) for s in range(4)]
    return posets + populations.wrapforest_n20(4)


def test_battery_builds_each_artifact_once(monkeypatch):
    from posetdecomp import chains, hcd, nccd

    calls = {name: [] for name in ("noncrossing", "enumerate", "matching", "mhcd", "construction")}
    _count(monkeypatch, nccd, "_noncrossing_minimum", calls["noncrossing"])
    _count(monkeypatch, chains, "_partition_walk", calls["enumerate"])
    _count(monkeypatch, chains, "_hopcroft_karp", calls["matching"])
    _count(monkeypatch, hcd, "mhcd", calls["mhcd"])
    _count(monkeypatch, nccd, "_construction", calls["construction"])
    for p in _sweep_posets():
        for seen in calls.values():
            seen.clear()
        assert verify.run_poset_checks(p)["ok"]
        assert len(calls["noncrossing"]) == (1 if p.n <= 10 else 0)
        assert len(calls["enumerate"]) == (1 if p.n <= 6 else 0)
        # one matching: the noncrossing search takes its width from the Dilworth pair
        assert len(calls["matching"]) == 1
        # the analysis alone: the embedding check reads its MHCD, and the
        # deletion check counts the distinct closed rows
        assert sum(q is p for q in calls["mhcd"]) == 1
        assert len(calls["construction"]) == 1


def test_battery_builds_the_chain_graph_once(monkeypatch):
    from posetdecomp import hcd

    comparability, mhcd = [], []
    # the one core that chain_comparability and is_homogeneous share
    _count(monkeypatch, hcd, "_comparable_pairs", comparability)
    _count(monkeypatch, hcd, "mhcd", mhcd)
    assert verify.run_poset_checks(wrap_forest(20, seed=0))["ok"]
    # the analysis' graph, and the homogeneous check's own test of the MHCD;
    # the deletion check builds no sub-poset and so no further MHCD
    assert len(comparability) == 2
    assert len(mhcd) == 1


def test_chain_layer_checks_build_no_order_matrix(monkeypatch, tmp_path, capsys):
    # the bounds, homogeneous, embedding and deletion checks and the mhcd
    # section read the order's bit rows only, so p.lt is never unpacked
    from posetdecomp import cli
    from posetdecomp.textio import dumps

    checks = (verify.check_bounds, verify.check_homogeneous, verify.check_embedding,
              verify.check_deletion)
    for p in [random_poset(8, 0.3, seed=3), wrap_forest(20, seed=0), wrap_forest(20, seed=5)]:
        an = verify.Analysis(p)
        assert all(check(an)["passed"] for check in checks)
        assert "lt" not in p.__dict__
    big = wrap_forest(400, seed=1)
    assert verify.check_bounds(verify.Analysis(big))["passed"]
    assert "lt" not in big.__dict__
    target = tmp_path / "p.txt"
    target.write_text(dumps(big))
    analyses = []
    monkeypatch.setattr(cli, "Analysis", lambda p: analyses.append(verify.Analysis(p)) or analyses[-1])
    assert cli.main(["analyze", str(target), "--dilworth", "--mhcd", "--json"]) == 0
    assert "lt" not in analyses[0].p.__dict__


def _failed(record) -> dict:
    return {c["name"]: c["details"].get("error") for c in record["checks"] if not c["passed"]}


def _raising(name, calls):
    def boom(p, *args, **kwargs):
        calls.append(p)
        raise InternalInconsistencyError(f"{name} broke")

    return boom


def test_raising_construction_fails_only_bounds(monkeypatch):
    from posetdecomp import nccd

    _rebind(monkeypatch, nccd, "_construction", _raising("construction", []))
    for p in [random_poset(6, seed=s) for s in range(3)] + [wrap_forest(12, seed=0)]:
        record = verify.run_poset_checks(p)
        assert _failed(record) == {"bounds": "InternalInconsistencyError: construction broke"}


def test_raising_noncrossing_minimum_fails_its_two_readers(monkeypatch):
    from posetdecomp import nccd

    calls = []
    _rebind(monkeypatch, nccd, "_noncrossing_minimum", _raising("noncrossing", calls))
    for p in [random_poset(6, seed=s) for s in range(3)] + [random_poset(9, seed=0)]:
        calls.clear()
        record = verify.run_poset_checks(p)
        error = "InternalInconsistencyError: noncrossing broke"
        assert _failed(record) == {"bounds": error, "noncrossing-trivial": error}
        # nothing was kept, so the second reader built it again
        assert len(calls) == 2


def test_split_chain_mutant_fails_dilworth(monkeypatch):
    real = verify._dilworth

    def split(p):
        d, antichain = real(p)
        parts = [list(c) for c in d.chains]
        for i, c in enumerate(parts):
            if len(c) >= 2:
                parts[i : i + 1] = [c[:1], c[1:]]
                break
        return ChainDecomposition._from_index_parts(p, parts), antichain

    monkeypatch.setattr(verify, "_dilworth", split)
    posets = populations.up_to(4) + populations.random_n8(5) + populations.wrapforest_n20(1)
    for p in posets:
        (check,) = verify.run_poset_checks(p, which=("dilworth",))["checks"]
        # a poset has a chain of two elements exactly when it is no antichain
        assert check["passed"] == (not p.lt.any())


def _segments(p) -> dict:
    (check,) = verify.run_poset_checks(p, which=("segments",))["checks"]
    return check


def test_segments_fails_on_a_yielded_132_pattern(monkeypatch):
    # the walk flags the node of avoider 2 and returns the pattern (0, 2, 1)
    # as the first avoider through it: the witness is classified on its own
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1)]
    monkeypatch.setattr(verify, "_segment_walk", lambda up, down: (2, perms[2]))
    check = _segments(chain(3))
    assert check == oracles.segments_record(chain(3), perms)
    assert check["details"] == {"permutations": 2, "error": "not 132-avoiding"}
    assert check["witness"] == {"permutation": ["1", "3", "2"]}


def test_segments_raises_when_the_flagged_avoider_passes(monkeypatch):
    # a flag whose witness passes on its own is the walk's fault, not the poset's
    monkeypatch.setattr(verify, "_segment_walk", lambda up, down: (2, (0, 1, 2)))
    with pytest.raises(InternalInconsistencyError, match="flags avoider 2"):
        verify.check_segments(verify.Analysis(chain(3)))


def test_segments_counts_avoiders_without_the_kernel():
    # Catalan numbers on chains (Simion & Schmidt 1985), n! on antichains
    for n, catalan in enumerate((1, 1, 2, 5, 14, 42, 132)):
        assert _segments(chain(n))["details"] == {"permutations": catalan}
        assert _segments(antichain(n))["details"] == {"permutations": math.factorial(n)}
    for p in populations.up_to(4):
        assert _segments(p)["details"] == {"permutations": len(oracles.naive_avoiders(p))}


def test_segments_walk_matches_replay_and_per_permutation_oracles():
    for p in populations.up_to() + populations.every_65th_n6():
        perms = kernels.permutations_avoiding(*p.rows)
        assert _segments(p) == oracles.replay_record(p, perms) == oracles.segments_record(p, perms)


# the populations on which the clique test must give the verdict of eight
# shuffled runs of the merge oracle; random_poset(12, 0.6) has twin classes
# of up to 9 elements
CONFLUENCE_POPULATIONS = {
    "n<=5": populations.up_to,
    "every-65th-n6": populations.every_65th_n6,
    "random-n8": populations.random_n8,
    "random-n12-dense": lambda: (random_poset(12, 0.6, seed=s) for s in range(20)),
    "wrapforest-n20": populations.wrapforest_n20,
}


@pytest.mark.parametrize("population", CONFLUENCE_POPULATIONS)
def test_confluent_is_the_verdict_of_eight_shuffled_merges(population):
    for p in CONFLUENCE_POPULATIONS[population]():
        base = frozenset(mhcd(p).chains)
        shuffled = all(oracles.merge_fixpoint(p, shuffle_seed=s) == base for s in range(8))
        check = verify.check_homogeneous(verify.Analysis(p))
        assert check["details"]["confluent"] == shuffled, p.labels


def test_min_descents_ext_depends_on_the_listing():
    # one poset, listed two ways: Min_d^e is taken over the derived extension
    # of the listing given, (1, 0, 3, 2) here and (1, 0, 2, 3) there, so it
    # is not an isomorphism invariant; every other detail agrees
    details = []
    for elements, extension in (("0 1 2 3", ("1", "0", "3", "2")), ("0 1 3 2", ("1", "0", "2", "3"))):
        p = textio.loads(f"elements: {elements}\n0 < 3\n1 < 2\n1 < 3\n")
        assert derived_extension(p) == extension
        record = verify.run_poset_checks(p, which=("bounds",))
        assert record["ok"]
        details.append(record["checks"][0]["details"])
    assert [d.pop("min_descents_ext") for d in details] == [2, 3]
    assert details[0] == details[1]


def test_decompositions_out_of_scope_above_brute_force_cap():
    from posetdecomp.errors import ScopeExceededError

    with pytest.raises(ScopeExceededError):
        verify.Analysis(random_poset(verify.BRUTE_FORCE_CAP + 1, seed=0)).decompositions


@pytest.mark.parametrize(
    "sweep, message",
    [
        (lambda: verify.verify_random(3, 0, which=("bogus",)), "unknown check 'bogus'"),
        (lambda: verify.verify_exhaustive(3, which=("dilworth", "Dilworth")), "unknown check 'Dilworth'"),
        (lambda: verify.verify_exhaustive(-1), "nmax must be >= 0"),
        (lambda: verify.verify_random(-3, 2), "n must be >= 0"),
        (lambda: verify.verify_random(3, -2, family="wrapforest"), "count must be >= 0"),
        (lambda: verify.verify_random(3, 2, density=-0.1), "density must be in"),
        (lambda: verify.verify_random(3, 2, density=1.5), "density must be in"),
        (lambda: verify.verify_random(3, 2, density=float("nan")), "density must be in"),
        (lambda: verify.verify_random(3, 2, density=float("inf")), "density must be in"),
    ],
)
def test_sweeps_refuse_bad_arguments_before_the_first_poset(monkeypatch, sweep, message):
    # each would otherwise sweep zero posets, or empty ones, and pass
    def record(p, which=verify.DEFAULT_CHECKS, seed=0):
        raise AssertionError("a poset was checked")

    monkeypatch.setattr(verify, "run_poset_checks", record)
    with pytest.raises(ValueError, match=message):
        sweep()


def test_sweeps_hold_only_the_failing_records(monkeypatch):
    class Record(dict):
        """A sweep record that a weak reference can watch."""

    refs: list = []
    extra: list[int] = []

    def record(p, which=verify.DEFAULT_CHECKS, seed=0):
        live = [rec for rec in (r() for r in refs) if rec is not None]
        # the live records beyond the failures so far
        extra.append(sum(1 for rec in live if rec["ok"]))
        rec = Record(poset={"n": p.n}, checks=[], ok=len(refs) % 4 != 0, findings=[])
        refs.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(verify, "run_poset_checks", record)
    sweeps = [
        (lambda: verify.verify_exhaustive(4), 243, 61),
        (lambda: verify.verify_random(6, 40, family="wrapforest"), 40, 10),
    ]
    for sweep, posets, failures in sweeps:
        refs.clear()
        extra.clear()
        summary = sweep()
        assert summary["posets"] == posets and len(summary["failures"]) == failures
        assert max(extra) <= 1
