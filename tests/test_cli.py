"""Command line behavior: sections, formats, and the exit-code contract."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest

import posetdecomp.cli
import posetdecomp.cut
import posetdecomp.hcd
import posetdecomp.verify
from posetdecomp.cli import _EdgeRows, _print_analysis, _section_mhcd, main
from posetdecomp.errors import InternalInconsistencyError, ScopeExceededError
from posetdecomp.generate import FAMILIES, chain, random_poset, two_chain_fan, wrap_forest
from posetdecomp.textio import dumps, loads
from posetdecomp.verify import Analysis

import oracles
import populations

CLI = [sys.executable, "-m", "posetdecomp.cli"]


def run_cli(*args, stdin: str | None = None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, input=stdin
    )


def run_cli_bytes(*args, stdin: bytes = b""):
    return subprocess.run(CLI + list(args), capture_output=True, input=stdin)


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


@pytest.mark.parametrize("command", [("generate", "random", "--n", "4"), ("verify", "random", "--n", "4")])
@pytest.mark.parametrize("density", ["-0.1", "1.5", "nan", "inf"])
def test_density_outside_the_unit_interval_is_a_usage_error(command, density, monkeypatch, capsys):
    # refused while parsing: --density inf swept random posets and reported ok
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(posetdecomp.cli, "verify_random", sweep)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--density", density])
    assert exc.value.code == 2
    assert "must be in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode", [("exhaustive", "--nmax", "3"), ("random", "--count", "0")], ids=["exhaustive", "random"]
)
@pytest.mark.parametrize(
    "checks, message",
    [
        ("bogus", "unknown check 'bogus'"),
        ("Dilworth", "unknown check 'Dilworth'"),
        ("dilworth,,cut", "empty check name"),
        ("", "empty check name"),
    ],
    ids=["unknown", "capitalised", "empty-name", "empty-list"],
)
def test_bad_check_name_is_a_usage_error(mode, checks, message, monkeypatch, capsys):
    # refused while parsing, before a sweep builds any poset, even an empty one
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(posetdecomp.cli, "verify_exhaustive", sweep)
    monkeypatch.setattr(posetdecomp.cli, "verify_random", sweep)
    kind, option, size = mode
    with pytest.raises(SystemExit) as exc:
        main(["verify", kind, option, size, "--checks", checks])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert ", ".join(posetdecomp.verify.DEFAULT_CHECKS) in err


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


def test_exit_code_2_on_bytes_that_are_not_utf8(tmp_path):
    poset_file = tmp_path / "p.txt"
    poset_file.write_bytes(b"\xff\xfe\x00bad")
    out = run_cli("analyze", str(poset_file))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and len(out.stderr.splitlines()) == 1
    # stdin is read by the file's byte rule: refused at the line of the bad byte
    data = b"elements: a\xffb c\na\xffb < c\n"
    poset_file.write_bytes(data)
    outs = [run_cli_bytes("analyze", str(poset_file), "--dilworth"),
            run_cli_bytes("analyze", "-", "--dilworth", stdin=data)]
    assert [o.returncode for o in outs] == [2, 2] and outs[1].stdout == b""
    assert outs[1].stderr == outs[0].stderr
    assert outs[1].stderr.startswith(b"error: line 1: bytes that are not UTF-8")


@pytest.mark.parametrize("end", [b"\r", b"\r\n", "\u2028".encode()], ids=["cr", "crlf", "line-separator"])
def test_bad_byte_line_follows_the_readers_line_ends(tmp_path, end):
    # the file and stdin report the bad byte at the line where an unknown
    # element in its place is reported
    head = end.join([b"elements: a b", b"a < b", b"b < "])
    poset_file = tmp_path / "p.txt"
    outs = []
    for data in (head + b"\xff\n", head + b"c\n"):
        poset_file.write_bytes(data)
        outs += [run_cli_bytes("analyze", str(poset_file), "--dilworth"),
                 run_cli_bytes("analyze", "-", "--dilworth", stdin=data)]
    assert [o.returncode for o in outs] == [2, 2, 2, 2]
    assert outs[0].stderr == outs[1].stderr
    assert outs[0].stderr.startswith(b"error: line 3: bytes that are not UTF-8")
    assert outs[2].stderr == outs[3].stderr == b"error: line 3: unknown element 'c'\n"


def test_analyze_skips_a_byte_order_mark(tmp_path):
    text = dumps(two_chain_fan(2))
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    outs = [run_cli_bytes("analyze", str(f), "--dilworth", "--json") for f in (plain, marked)]
    outs.append(run_cli_bytes("analyze", "-", "--dilworth", "--json", stdin=marked.read_bytes()))
    assert [o.returncode for o in outs] == [0, 0, 0]
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout
    assert outs[1].stderr == outs[2].stderr == b""


def _main_outcome(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of one in-process `main(argv)`, a usage error's included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path, capsys):
    poset_file = tmp_path / "p.txt"
    poset_file.write_text(dumps(wrap_forest(20, seed=1)))
    analyze = ["analyze", str(poset_file), "--dilworth", "--mhcd", "--json"]
    calls = [analyze, ["generate", "random", "--n", "6", "--seed", "2"],
             ["verify", "random", "--n", "5", "--count", "3"],
             ["generate", "random", "--n", "4", "--density", "2"], analyze,
             ["--help"], ["analyze", "--help"]]
    fresh = []
    for argv in calls:
        posetdecomp.cli._build_parser.cache_clear()
        fresh.append(_main_outcome(argv, capsys))
    posetdecomp.cli._build_parser.cache_clear()
    reused = [_main_outcome(argv, capsys) for argv in calls]
    assert posetdecomp.cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0, 0]
    assert reused[4] == reused[0] and "must be in [0, 1]" in reused[3][2]
    assert reused[5][1].startswith("usage: posetdecomp") and "--unsafe-scope" in reused[6][1]
    # the command runs by name: one rebound on the module is the one reached
    monkeypatch.setattr(posetdecomp.cli, "_cmd_verify", lambda args: 7)
    assert main(["verify", "random", "--count", "0"]) == 7
    assert posetdecomp.cli._build_parser.cache_info().misses == 1


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


def test_mhcd_section_edges_match_pair_oracle():
    posets = populations.up_to() + populations.random_n8(50) + populations.wrapforest_n20(50)
    posets += [random_poset(60, 0.3), random_poset(120, 0.6)]
    edges, sides = 0, set()
    for p in posets:
        an = Analysis(p)
        got = _section_mhcd(an, False)["oriented_edges"].pairs()
        assert got == oracles.oriented_edges_by_pairs(p, an.mhcd.chains)
        edges += len(got)
        sides.add(posetdecomp.hcd._dense(len(got), an.mhcd.k, p.n))
    # the listing's loop and its unpack, on either side of the size rule
    assert edges > 0 and sides == {False, True}


# labels that JSON escapes, on both ends of edges: the MHCD chains are
# <a"b,c\d>, <z,é> and <☃>, and both two-element chains point to <☃>
ESCAPED = 'elements: a"b c\\d é ☃ z\na"b < c\\d\nc\\d < ☃\nz < é\né < ☃\n'
WRITER_POSETS = {
    "escaped": lambda: loads(ESCAPED),
    "dense": lambda: random_poset(120, 0.6),
    "wrapforest": lambda: wrap_forest(600),
    "chain4": lambda: chain(4),
    "one": lambda: loads("elements: x\n"),
    "empty": lambda: loads("elements:\n"),
}


def _stdout(write, doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write(doc)
    return out.getvalue()


def mhcd_writes(p) -> tuple[str, str, list[str], list[str]]:
    """The MHCD section of p as `_emit_json` and `_print_analysis` write it,
    each beside what the per-edge oracle expects: (JSON written, JSON
    expected, edge lines written, edge lines expected).  The expected JSON is
    json.dumps of the document with `oracles.oriented_edges_by_pairs` for its
    edges, the expected edge lines one per oracle pair.  The writers are read
    off the module at each call, so a defect patched into it is seen."""
    an = Analysis(p)
    sec = _section_mhcd(an, False)
    doc = {"n": p.n, "sections": {"mhcd": sec}, "findings": [], "ok": True}
    pairs = oracles.oriented_edges_by_pairs(p, an.mhcd.chains)
    logical = {**doc, "sections": {"mhcd": {**sec, "oriented_edges": pairs}}}
    text = _stdout(posetdecomp.cli._print_analysis, doc)
    return (
        _stdout(posetdecomp.cli._emit_json, doc),
        json.dumps(logical, sort_keys=True) + "\n",
        [line for line in text.split("\n") if line.startswith("  edge: ")],
        [f"  edge: <{','.join(src)}> -> <{','.join(dst)}>" for src, dst in pairs],
    )


@pytest.mark.parametrize("name", WRITER_POSETS)
def test_mhcd_writers_match_pair_oracle(name):
    p = WRITER_POSETS[name]()
    got, want, lines, want_lines = mhcd_writes(p)
    assert got == want
    assert lines == want_lines
    # the row listing's unpack on the dense graph, its loop on the others
    k = Analysis(p).mhcd.k
    assert posetdecomp.hcd._dense(len(lines), k, p.n) == (name == "dense")
    assert bool(lines) == (name in ("escaped", "dense", "wrapforest"))
    if name == "escaped":
        assert '"oriented_edges": [[["a\\"b", "c\\\\d"], ["\\u2603"]], [["z", "\\u00e9"], ["\\u2603"]]]' in got
        assert lines == ["  edge: <a\"b,c\\d> -> <☃>", "  edge: <z,é> -> <☃>"]
    if name == "empty":
        assert '"oriented_edges": []' in got


def _logical(node):
    """node with every `_EdgeRows` in it replaced by its label pairs."""
    if isinstance(node, _EdgeRows):
        return node.pairs()
    if isinstance(node, dict):
        return {key: _logical(value) for key, value in node.items()}
    return node


def _analyze_json(make):
    """argv for `analyze --dilworth --mhcd --json` on make(), written under tmp_path."""

    def argv(tmp_path):
        target = tmp_path / "p.txt"
        target.write_text(dumps(make()))
        return ["analyze", str(target), "--dilworth", "--mhcd", "--json"]

    return argv


@pytest.mark.parametrize(
    "argv",
    [
        _analyze_json(lambda: random_poset(300, 0.3)),
        _analyze_json(lambda: wrap_forest(600)),
        _analyze_json(lambda: chain(1000)),
        lambda tmp_path: ["verify", "random", "--n", "8", "--count", "20", "--json"],
    ],
    ids=["rnd300", "wf600", "chain1000", "verify-random-n8"],
)
def test_json_output_is_plain_sorted_dumps(monkeypatch, tmp_path, capsys, argv):
    # the encoder runs without its circular-reference check: same bytes
    docs = []
    real = posetdecomp.cli._emit_json
    monkeypatch.setattr(posetdecomp.cli, "_emit_json", lambda doc: (docs.append(doc), real(doc)))
    assert main(argv(tmp_path)) == 0
    assert capsys.readouterr().out == json.dumps(_logical(docs[0]), sort_keys=True) + "\n"


@pytest.mark.parametrize("p", [random_poset(8, 0.3, seed=3), chain(4)], ids=["edges", "no-edges"])
def test_text_analysis_prints_one_line_per_edge(capsys, p):
    an = Analysis(p)
    doc = {"n": p.n, "sections": {"mhcd": _section_mhcd(an, False)}, "findings": []}
    _print_analysis(doc)
    lines = capsys.readouterr().out.split("\n")
    edges = doc["sections"]["mhcd"]["oriented_edges"].pairs()
    assert lines[-1] == "" and "" not in lines[:-1]
    assert [line for line in lines if line.startswith("  edge: ")] == [
        f"  edge: <{','.join(src)}> -> <{','.join(dst)}>" for src, dst in edges
    ]
    assert bool(edges) == (p.n == 8)


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
