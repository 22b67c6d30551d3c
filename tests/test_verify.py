"""The per-poset analysis behind the check battery: shared artifacts built once."""

import itertools
import random
import sys
import weakref

import pytest

from posetdecomp import verify
from posetdecomp.chains import ChainDecomposition
from posetdecomp.errors import InternalInconsistencyError
from posetdecomp.generate import chain, random_poset, wrap_forest
from posetdecomp.poset import enumerate_posets

import oracles

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
    posets = [p for n in range(5) for p in enumerate_posets(n)]
    posets += [random_poset(8, seed=s) for s in range(10)]
    posets += [random_poset(10, 0.15, seed=s) for s in range(4)]
    posets += [wrap_forest(20, seed=s) for s in range(4)]
    return posets


def test_battery_builds_each_artifact_once(monkeypatch):
    from posetdecomp import chains, hcd, nccd

    calls = {name: [] for name in ("noncrossing", "enumerate", "matching", "mhcd", "construction")}
    _count(monkeypatch, nccd, "_noncrossing_minimum", calls["noncrossing"])
    _count(monkeypatch, chains, "enumerate_chain_decompositions", calls["enumerate"])
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
        # the analysis alone; the deletion and embedding checks read its MHCD
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
    posets = [p for n in range(5) for p in enumerate_posets(n)]
    posets += [random_poset(8, seed=s) for s in range(5)] + [wrap_forest(20, seed=0)]
    for p in posets:
        (check,) = verify.run_poset_checks(p, which=("dilworth",))["checks"]
        # a poset has a chain of two elements exactly when it is no antichain
        assert check["passed"] == (not p.lt.any())


def test_segments_fails_on_a_yielded_132_pattern(monkeypatch):
    real = verify.permutations_avoiding
    # chain(3) has five avoiders; (0, 2, 1) is the pattern itself
    monkeypatch.setattr(
        verify, "permutations_avoiding", lambda up, down: real(up, down) + [(0, 2, 1)]
    )
    (check,) = verify.run_poset_checks(chain(3), which=("segments",))["checks"]
    assert not check["passed"]
    assert check["details"] == {"permutations": 5, "error": "not 132-avoiding"}
    assert check["witness"] == {"permutation": ["1", "3", "2"]}


def test_segments_replay_matches_per_permutation_oracle(monkeypatch):
    real = verify.permutations_avoiding

    def record(p):
        (check,) = verify.run_poset_checks(p, which=("segments",))["checks"]
        return check

    for p in (p for n in range(6) for p in enumerate_posets(n)):
        assert record(p) == oracles.segments_record(p, real(*p.rows))
    # lists the walk never yields: every permutation, in order and shuffled,
    # and every permutation twice in a row
    rng = random.Random(26)
    for p in (p for n in range(5) for p in enumerate_posets(n)):
        every = list(itertools.permutations(range(p.n)))
        shuffled = rng.sample(every, len(every))
        doubled = [perm for perm in every for _ in range(2)]
        for perms in (every, shuffled, doubled):
            monkeypatch.setattr(verify, "permutations_avoiding", lambda up, down: perms)
            assert record(p) == oracles.segments_record(p, perms)


def test_decompositions_out_of_scope_above_brute_force_cap():
    from posetdecomp.errors import ScopeExceededError

    with pytest.raises(ScopeExceededError):
        verify.Analysis(random_poset(verify.BRUTE_FORCE_CAP + 1, seed=0)).decompositions


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
