"""Command line behavior: sections, formats, and the exit-code contract."""

import json
import subprocess
import sys
import time

import pytest

import posetdecomp.cut
import posetdecomp.hcd
import posetdecomp.verify
from posetdecomp.cli import main
from posetdecomp.errors import InternalInconsistencyError, ScopeExceededError
from posetdecomp.generate import FAMILIES, chain, two_chain_fan, wrap_forest
from posetdecomp.textio import dumps

CLI = [sys.executable, "-m", "posetdecomp.cli"]


def run_cli(*args, stdin: str | None = None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, input=stdin
    )


def test_generate_then_analyze_pipe():
    gen = run_cli("generate", "boolean", "--n", "2")
    assert gen.returncode == 0
    assert gen.stdout.startswith("# poset, n=4")
    ana = run_cli("analyze", "-", stdin=gen.stdout)
    assert ana.returncode == 0
    assert "dilworth: minimum chains = 2, maximum antichain = 2 (equal)" in ana.stdout
    assert "minimal homogeneous decomposition: k = 3" in ana.stdout


def test_generate_all_families():
    for family in ("chain", "antichain", "boolean", "fan", "random", "wrapforest"):
        out = run_cli("generate", family, "--n", "3", "--seed", "1")
        assert out.returncode == 0, family
        assert out.stdout.startswith("# poset")


@pytest.mark.parametrize(
    "command",
    [("generate", family, "--n") for family in FAMILIES]
    + [("verify", "random", "--n"), ("verify", "exhaustive", "--nmax"), ("verify", "random", "--count")],
)
def test_negative_size_is_a_usage_error(command, capsys):
    # a negative sweep size would otherwise run over no posets and pass
    with pytest.raises(SystemExit) as exc:
        main([*command, "-2"])
    assert exc.value.code == 2
    assert "must be >= 0 (got -2)" in capsys.readouterr().err


def test_empty_sweep_says_nothing_was_checked(capsys):
    # --count 0 is legal and exits 0, but must not claim that checks passed
    args = ["verify", "random", "--n", "3", "--count", "0"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "no posets checked"
    assert "all checks passed" not in out
    assert main(args + ["--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["posets"] == 0 and summary["ok"]


def test_generate_to_file(tmp_path):
    target = tmp_path / "p.txt"
    out = run_cli("generate", "fan", "--n", "2", "--out", str(target))
    assert out.returncode == 0
    assert target.read_text().startswith("# poset, n=5")


def test_analyze_sections_subset(tmp_path):
    target = tmp_path / "p.txt"
    target.write_text(dumps(two_chain_fan(2)))
    out = run_cli("analyze", str(target), "--dilworth")
    assert out.returncode == 0
    assert "dilworth:" in out.stdout
    assert "embedding:" not in out.stdout


def test_analyze_json_round_trips(tmp_path):
    target = tmp_path / "p.txt"
    target.write_text(dumps(two_chain_fan(2)))
    out = run_cli("analyze", str(target), "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert json.dumps(doc, sort_keys=True) + "\n" == out.stdout
    assert doc["ok"] is True
    assert set(doc["sections"]) == {
        "dilworth",
        "mhcd",
        "cut-check",
        "embedding",
        "inequalities",
    }


def test_analyze_dot_output(tmp_path):
    poset_file = tmp_path / "p.txt"
    poset_file.write_text(dumps(two_chain_fan(2)))
    dot_file = tmp_path / "g.dot"
    out = run_cli("analyze", str(poset_file), "--mhcd", "--dot", str(dot_file))
    assert out.returncode == 0
    text = dot_file.read_text()
    assert "graph chains {" in text
    assert "digraph oriented {" in text


def test_exit_code_2_on_malformed_input():
    out = run_cli("analyze", "-", stdin="nonsense\n")
    assert out.returncode == 2
    assert "error:" in out.stderr


def test_exit_code_2_on_cycle():
    out = run_cli("analyze", "-", stdin="elements: a b\na < b\nb < a\n")
    assert out.returncode == 2
    assert "cycle" in out.stderr


def test_exit_code_2_on_missing_file():
    out = run_cli("analyze", "/nonexistent/poset.txt")
    assert out.returncode == 2


def test_exit_code_3_on_scope_cap():
    gen = run_cli("generate", "antichain", "--n", "12")
    out = run_cli("analyze", "-", "--embedding", stdin=gen.stdout)
    assert out.returncode == 3
    assert "--unsafe-scope" in out.stderr


def test_cut_check_exits_3_above_cut_cap():
    # about 6.5e15 proper cuts: without the cap the section would never end
    gen = run_cli("generate", "wrapforest", "--n", "200")
    out = subprocess.run(
        CLI + ["analyze", "-", "--cut-check"],
        capture_output=True,
        text=True,
        input=gen.stdout,
        timeout=60,
    )
    assert out.returncode == 3
    assert "--unsafe-scope" in out.stderr
    assert "cut enumeration" in out.stderr


def test_verify_cut_check_fails_above_cut_cap():
    # the same cap in the sweep: a failed check naming the cap, not a hang
    start = time.perf_counter()
    out = subprocess.run(
        CLI + ["verify", "random", "--family", "wrapforest", "--n", "200",
               "--count", "1", "--checks", "cut", "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 30
    assert out.returncode == 1
    (failure,) = json.loads(out.stdout)["failures"]
    (cut,) = failure["checks"]
    assert not cut["passed"]
    assert cut["details"]["error"].startswith(
        "ScopeExceededError: cut enumeration capped at 10000 proper cuts"
    )


def test_verify_embedding_large_group_exits_0():
    # |Aut| = 9! = 362,880: listing the group ran out of time or memory
    out = subprocess.run(
        CLI + ["verify", "random", "--family", "wrapforest", "--n", "20", "--seed", "174",
               "--count", "1", "--checks", "embedding"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "all checks passed" in out.stdout


def test_verify_reports_skipped_checks(capsys):
    # at n = 20 the size caps skip segments, noncrossing-trivial and the
    # bounds scans on every poset; the records themselves do not change
    args = ["verify", "random", "--family", "wrapforest", "--n", "20", "--count", "2"]
    assert main(args + ["--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["skipped"] == {
        "dilworth": 0, "homogeneous": 0, "deletion": 0, "cut": 0, "embedding": 0,
        "bounds": 2, "segments": 2, "noncrossing-trivial": 2,
    }
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    skipped = [line for line in lines if line.startswith("skipped")]
    assert skipped == [
        "skipped bounds: 2 of 2 posets",
        "skipped segments: 2 of 2 posets",
        "skipped noncrossing-trivial: 2 of 2 posets",
    ]
    assert lines[-1] == "all checks passed"


def _count_everywhere(monkeypatch, module, name) -> list:
    """Record each call of module.name through every posetdecomp module that binds it."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("posetdecomp") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_analyze_builds_each_artifact_once(monkeypatch, tmp_path, capsys):
    from posetdecomp import chains, hcd

    target = tmp_path / "p.txt"
    target.write_text(dumps(wrap_forest(8, seed=1)))
    traced = [
        (chains, "_dilworth"),
        (hcd, "mhcd"),
        (hcd, "_comparable_pairs"),
        (hcd, "acyclic_orientation"),
    ]
    calls = {name: _count_everywhere(monkeypatch, module, name) for module, name in traced}
    assert main(["analyze", str(target), "--all", "--dot", str(tmp_path / "g.dot")]) == 0
    assert {name: len(seen) for name, seen in calls.items()} == {name: 1 for _, name in traced}
    doc = (tmp_path / "g.dot").read_text()
    assert doc.startswith("graph chains {") and "digraph oriented {" in doc


def test_unsafe_scope_lifts_cap():
    gen = run_cli("generate", "chain", "--n", "11")
    out = run_cli("analyze", "-", "--inequalities", "--unsafe-scope", stdin=gen.stdout)
    assert out.returncode == 0
    assert "1 <= 1 <= 1 <= 1 <= 1" in out.stdout


def test_verify_exhaustive_passes():
    out = run_cli("verify", "exhaustive", "--nmax", "3")
    assert out.returncode == 0
    assert "all checks passed" in out.stdout


def test_verify_random_json():
    out = run_cli("verify", "random", "--n", "7", "--count", "5", "--seed", "2", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["ok"] is True
    assert doc["posets"] == 5
    assert json.dumps(doc, sort_keys=True) + "\n" == out.stdout


def test_verify_wrapforest_family():
    out = run_cli(
        "verify", "random", "--n", "9", "--count", "5", "--family", "wrapforest"
    )
    assert out.returncode == 0


def test_verify_checks_subset():
    out = run_cli("verify", "exhaustive", "--nmax", "3", "--checks", "dilworth,cut")
    assert out.returncode == 0


def test_analyze_1000_chain_in_process(tmp_path, capsys):
    target = tmp_path / "chain.txt"
    target.write_text(dumps(chain(1000)))
    code = main(["analyze", str(target), "--dilworth", "--mhcd", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["sections"]["mhcd"]["k"] == 1
    assert doc["sections"]["dilworth"]["minimum_chains"] == 1


def test_main_is_callable_in_process(capsys):
    code = main(["generate", "chain", "--n", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "elements: 1 2 3" in out


def test_mutated_operator_fails_with_witness(monkeypatch, capsys):
    # corrupt one comparability bit of J; the identity must catch it
    real = posetdecomp.cut.CutFrame.j.func

    def crooked(frame):
        j = real(frame)
        if len(j) >= 2:
            j[0, 1] = 1 - j[0, 1]
        return j

    monkeypatch.setattr(posetdecomp.cut.CutFrame, "j", property(crooked))
    code = main(["verify", "exhaustive", "--nmax", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "witness" in captured.err


def test_mutated_orientation_fails(monkeypatch, capsys):
    # flipping the orientation rule must break the embedding check
    real = posetdecomp.hcd.induced_chain_permutation

    def crooked(p, d, g):
        sigma = list(real(p, d, g))
        if len(sigma) >= 2:
            sigma[0], sigma[1] = sigma[1], sigma[0]
        return tuple(sigma)

    monkeypatch.setattr(posetdecomp.hcd, "induced_chain_permutation", crooked)
    code = main(["verify", "exhaustive", "--nmax", "3"])
    captured = capsys.readouterr()
    assert code == 1


def test_verify_exhaustive_honors_enumeration_cap(capsys):
    start = time.perf_counter()
    code = main(["verify", "exhaustive", "--nmax", "6"])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert elapsed < 5
    assert "--unsafe-scope" in capsys.readouterr().err
    with pytest.raises(ScopeExceededError):
        posetdecomp.verify.verify_exhaustive(3, which=("dilworth",), cap=2)


def test_verify_exhaustive_unsafe_scope_flag():
    summary = posetdecomp.verify.verify_exhaustive(3, which=("dilworth",), cap=None)
    assert summary["ok"] and summary["posets"] == 1 + 1 + 3 + 19
    assert main(["verify", "exhaustive", "--nmax", "3", "--checks", "dilworth", "--unsafe-scope"]) == 0


@pytest.mark.parametrize(
    "error",
    [InternalInconsistencyError("broken invariant"), ScopeExceededError("too big"), RecursionError("deep")],
)
def test_sweep_survives_check_errors(monkeypatch, error):
    # an error inside one check fails that check for that poset; the sweep
    # finishes and keeps the poset as its witness
    def boom(an, seed=0):
        if an.p.n == 3:
            raise error
        return {"name": "cut", "passed": True, "details": {}}

    monkeypatch.setitem(posetdecomp.verify._CHECKS, "cut", boom)
    summary = posetdecomp.verify.verify_exhaustive(3, which=("dilworth", "cut"))
    assert summary["posets"] == 24
    assert not summary["ok"]
    assert len(summary["failures"]) == 19
    for failure in summary["failures"]:
        assert failure["poset"]["n"] == 3
        dilworth, cut = failure["checks"]
        assert dilworth["passed"]
        assert not cut["passed"]
        assert cut["details"]["error"] == f"{type(error).__name__}: {error}"
