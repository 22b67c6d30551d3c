"""Before/after pairs of two revisions, written to one BENCH_<topic>.json.

Run from the repository root:

    python3 benchmarks/bench.py --topic load --base HEAD

The base side is the revision `--base` (default HEAD); the head side is the
working tree (every file git does not ignore), written to a tree object
through a temporary index, so its tree id names exactly what ran.  Each side
is exported with `git archive` into a temporary directory and run from
there, so no worktree is registered and the checkout is left alone.

For every workload in WORKLOADS, pair i of PAIRS runs `perfbench/run.py
--seed i+1 --trace 0` on both sides, base first in even pairs and head first
in odd ones, so slow drift of the machine lands on both sides alike.  Then
each input in ANALYZE_INPUTS is timed the same way as one `posetdecomp
analyze --dilworth --mhcd --json` process, on one input file that the base
side's `generate` wrote at its default density and seed, and each command
in VERIFY_INPUTS as one `posetdecomp` process, for its wall time and peak
RSS, under the BLAS thread settings perfbench gives its children (one
thread), so that no BLAS thread pool sets a record's time or peak RSS.  The
JSON holds the machine, both revisions, the exact commands, every run, and
per metric each side's median and quartiles and the number of pairs in
which head beat base (ties count for neither).
The perfbench commands run in each side's export; the other commands run
in the directory that holds both exports, base/ and head/, and the input
files.  A run is ok when it exits with the status its input expects: 0, or
the status VERIFY_EXIT declares for a command that refuses part of its
input by design.  Each script in PROBES runs the same way, as one
`python -c` process on the side's sources, and reports in-process times of
its own (and counts, named without the `_s` suffix), for work that no
command line isolates.  A script in SINGLE_PROBES runs in the same way, once
per side, base first, after the other inputs: work too slow on the base
side to repeat ten times.  Last, TIER1 runs the side's own test suite once
per side, base first, in its export: its exit status, the count of tests
passed, its wall time, its user CPU time (with that of the processes it
waited for, from wait4) and its slowest tests.

Of ANALYZE_INPUTS, random 300 and 1000 build and list their MHCD chain
graphs on the dense side of `hcd._dense` (one unpack); chain 2000,
antichain 2000 and wrapforest 8000 and 16000 stay on its sparse side (the
loop over the edges).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10
WORKLOADS = ("exhaustive-n5", "random-n8", "wrapforest-n20", "analyze-large")
# the sparse scale inputs, and dense random posets at generate's defaults
# (density 0.3, seed 0): n = 300 is perfbench's rnd300, whose analyze output
# is mostly its 40,529 oriented MHCD edges (883 of 890 KB), and n = 1000 writes
# 10 MB of them; both write the edges one source chain at a time
ANALYZE_INPUTS = (("chain", 2000), ("antichain", 2000), ("wrapforest", 8000), ("wrapforest", 16000),
                  ("random", 300), ("random", 1000))
ANALYZE_ARGS = ["--dilworth", "--mhcd", "--json"]
# the enumeration at n = 6 under the battery's cheapest check, the segments
# check (its one walk of the avoider tree) alone on every n <= 5 poset,
# the dilworth and homogeneous checks (the brute-force partition walk and
# the clique test on the ready pairs) alone on every n <= 5 poset,
# the cut check alone on wrap forests of 30, of 40 (in blocks of up to 256
# admissible cuts, whose side-series rows repeat most) and of 64 elements
# (past the float64 tier that n alone allowed), the homogeneous check (its
# clique test on the ready pairs) alone on wrap forests of 40, the bounds
# check (the constructive pipeline) alone on wrap forests of 1000 (about 300
# chains) and of 16000 (about 4,900 chains), and the embedding check (the
# symmetry search) alone on wrap forests of 200
VERIFY_INPUTS = {
    "verify-n6-deletion": ["verify", "exhaustive", "--nmax", "6", "--unsafe-scope",
                           "--checks", "deletion"],
    "verify-n5-segments": ["verify", "exhaustive", "--nmax", "5", "--checks", "segments"],
    "verify-n5-brute": ["verify", "exhaustive", "--nmax", "5", "--checks", "dilworth,homogeneous"],
    "verify-wrapforest-n30-cut": ["verify", "random", "--family", "wrapforest", "--n", "30",
                                  "--count", "50", "--checks", "cut"],
    "verify-wrapforest-n40-cut": ["verify", "random", "--family", "wrapforest", "--n", "40",
                                  "--count", "20", "--checks", "cut"],
    "verify-wrapforest-n64-cut": ["verify", "random", "--family", "wrapforest", "--n", "64",
                                  "--count", "20", "--checks", "cut"],
    "verify-wrapforest-n40-homogeneous": ["verify", "random", "--family", "wrapforest",
                                          "--n", "40", "--count", "50",
                                          "--checks", "homogeneous"],
    "verify-wrapforest-n1000-bounds": ["verify", "random", "--family", "wrapforest",
                                       "--n", "1000", "--count", "5", "--checks", "bounds"],
    "verify-wrapforest-n16000-bounds": ["verify", "random", "--family", "wrapforest",
                                        "--n", "16000", "--count", "1", "--checks", "bounds"],
    "verify-wrapforest-n200-embedding": ["verify", "random", "--family", "wrapforest",
                                         "--n", "200", "--count", "5", "--checks", "embedding"],
}
# the exit status of a command that refuses part of its input by design
# (others must exit 0): 16 of the 20 wrap forests of 64 elements have more
# than the 10,000 proper cuts the cut check enumerates, so verify exits 1;
# no poset or seed is dropped to make it pass
VERIFY_EXIT = {"verify-wrapforest-n64-cut": 1}
# the cut check alone, in process, on each wrap_forest(64..80), seeds 0..19,
# with at most CUT_ENUMERATION_CAP proper cuts (28 posets), and the whole
# poset's signed chain counts of wrap_forest(200): the scale at which the
# exact dtype tiers used to follow n; the Dilworth pair alone (the
# matching, its chains and the Koenig antichain), the median of five runs
# on each of three posets whose bit rows are built beforehand; and whole
# in-process `analyze --dilworth --mhcd --json` calls, the median of 21 on
# each of perfbench's analyze-large inputs (its generators and seeds, its
# order), with `textio.loads` alone on the text of wrap_forest(16000); and
# the symmetry engine alone, its time and generator count, on wrap forests
# of 300 and 400 elements and on random_poset(120, 0.015), seeds 0 and 1,
# whose largest component has 96 elements
PROBES = {
    "probe-cut-wrapforest-n64-80": """
import json, math, statistics, time
from posetdecomp import mhcd, verify
from posetdecomp.cut import CUT_ENUMERATION_CAP
from posetdecomp.generate import wrap_forest
times = []
for n in range(64, 81):
    for seed in range(20):
        p = wrap_forest(n, seed=seed)
        if math.prod(len(c) - 1 for c in mhcd(p).chains) <= CUT_ENUMERATION_CAP:
            start = time.perf_counter()
            assert verify.run_poset_checks(p, which=("cut",))["ok"]
            times.append(time.perf_counter() - start)
assert len(times) == 28
print(json.dumps({"max_poset_s": max(times), "p50_poset_s": statistics.median(times),
                  "total_s": sum(times)}))
""",
    "probe-signed-counts-wrapforest-n200": """
import json, time
from posetdecomp import signed_chain_count_matrix
from posetdecomp.generate import wrap_forest
p = wrap_forest(200)
start = time.perf_counter()
signed_chain_count_matrix(p)
print(json.dumps({"signed_counts_s": time.perf_counter() - start}))
""",
    "probe-dilworth-scale": """
import json, statistics, time
from posetdecomp import chains
from posetdecomp.generate import chain, random_poset, wrap_forest
out = {}
for name, p in (("dilworth_wrapforest16000_s", wrap_forest(16000)),
                ("dilworth_chain8000_s", chain(8000)),
                ("dilworth_random1000_s", random_poset(1000, 0.3))):
    p.rows
    times = []
    for _ in range(5):
        start = time.perf_counter()
        chains._dilworth(p)
        times.append(time.perf_counter() - start)
    out[name] = statistics.median(times)
print(json.dumps(out))
""",
    "probe-analyze-in-process": """
import contextlib, io, json, os, statistics, tempfile, time
from posetdecomp import cli, textio
from posetdecomp.generate import chain, random_poset, wrap_forest
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, p in (("wf600", wrap_forest(600, seed=0)),
                    ("rnd300", random_poset(300, density=0.3, seed=0)),
                    ("chain1000", chain(1000))):
        path = os.path.join(tmp, name + ".txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(textio.dumps(p))
        times = []
        for _ in range(21):
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                assert cli.main(["analyze", path, "--dilworth", "--mhcd", "--json"]) == 0
                times.append(time.perf_counter() - start)
        out[f"analyze_{name}_s"] = statistics.median(times)
text = textio.dumps(wrap_forest(16000))
times = []
for _ in range(5):
    start = time.perf_counter()
    textio.loads(text)
    times.append(time.perf_counter() - start)
out["loads_wrapforest16000_s"] = statistics.median(times)
print(json.dumps(out))
""",
    "probe-symmetry-scale": """
import json, time
from posetdecomp.generate import random_poset, wrap_forest
from posetdecomp.poset import automorphism_group
out = {}
for name, p in (("wrapforest300", wrap_forest(300, seed=0)), ("wrapforest400", wrap_forest(400, seed=0)),
                ("random120_seed0", random_poset(120, 0.015, seed=0)),
                ("random120_seed1", random_poset(120, 0.015, seed=1))):
    rows = p.rows
    start = time.perf_counter()
    group = automorphism_group(rows)
    out[f"symmetry_{name}_s"] = time.perf_counter() - start
    out[f"symmetry_{name}_generators"] = len(group.generators)
print(json.dumps(out))
""",
}
# probes run once per side, base first, after the pairs: the symmetry engine
# alone on connected 400-element wrap trees, seeds 0..5, built by
# `wrap_forest`'s recursion on one root that always wraps children (a
# forest's roots wrap with probability 0.7), which the parent's engine
# takes minutes on
SINGLE_PROBES = {
    "probe-symmetry-wrap-trees": """
import itertools, json, random, time
from posetdecomp.generate import _composition
from posetdecomp.poset import Poset, automorphism_group

def wrap_tree(n, seed):
    rng = random.Random(seed)
    counter = itertools.count()
    covers, labels = [], []

    def new_chain(length):
        elems = [f"w{next(counter)}" for _ in range(length)]
        labels.extend(elems)
        covers.extend(zip(elems, elems[1:]))
        return elems

    def build(budget, root=False):
        if budget >= 6 and (root or rng.random() < 0.7):
            length = rng.randint(2, budget - 4)
            remaining = budget - length
            parts = _composition(rng, remaining, rng.randint(2, remaining // 2), 2)
            elems = new_chain(length)
            gap = rng.randint(1, length - 1)
            for part in parts:
                child = build(part)
                covers.append((elems[gap - 1], child[0]))
                covers.append((child[-1], elems[gap]))
            return elems
        return new_chain(budget)

    build(n, root=True)
    return Poset.from_cover_relations(labels, covers)

out = {}
for seed in range(6):
    rows = wrap_tree(400, seed).rows
    start = time.perf_counter()
    group = automorphism_group(rows)
    out[f"symmetry_wraptree400_seed{seed}_s"] = time.perf_counter() - start
    out[f"symmetry_wraptree400_seed{seed}_generators"] = len(group.generators)
print(json.dumps(out))
""",
}
# the tier-1 test suite, run once per side after every other input
TIER1 = "tier1"
TIER1_ARGS = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=20"]
# perfbench/run.py's BLAS settings: one thread
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lower_is_better(names: set[str]) -> set[str]:
    """The end-to-end metrics that BENCHMARK.json marks lower-is-better,
    wall_s and the probes' figures (times and generator counts)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    probes = {"max_poset_s", "p50_poset_s", "total_s", "signed_counts_s",
              "dilworth_wrapforest16000_s", "dilworth_chain8000_s", "dilworth_random1000_s",
              "analyze_wf600_s", "analyze_rnd300_s", "analyze_chain1000_s", "loads_wrapforest16000_s"}
    symmetry = {name for name in names if name.startswith("symmetry_")}
    return {m["name"] for m in metrics if m["better"] == "lower"} | {"wall_s", "user_cpu_s"} | probes | symmetry


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True, env=env
    ).stdout.strip()


def resolve(rev: str | None, scratch: str) -> dict:
    """The commit (if any), tree and src tree of a revision or of the working tree."""
    if rev is None:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        tree, commit, name = git("write-tree", env=env), None, "working tree"
    else:
        tree, commit, name = git("rev-parse", f"{rev}^{{tree}}"), git("rev-parse", rev), rev
    return {"rev": name, "commit": commit, "tree": tree, "src_tree": git("rev-parse", f"{tree}:src")}


def export(tree: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", tree], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def perfbench(root: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "5", "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"stderr": proc.stderr[-2000:]}
    return {"command": ["python3", *cmd[1:]], "exit": proc.returncode, "wall_s": wall, **result}


def cli(root: str, args: list[str], cwd: str) -> tuple[list[str], int, float]:
    """Run `posetdecomp ARGS` from the export at root, in cwd, single-threaded:
    the command, its exit status and its peak RSS in MB, read from this one
    child's resource usage (wait4)."""
    cmd = [sys.executable, "-m", "posetdecomp.cli", *args]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **SINGLE_THREADED)
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL) as child:
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    settings = [f"{name}={value}" for name, value in SINGLE_THREADED.items()]
    cmd = [f"PYTHONPATH={os.path.relpath(root, cwd)}/src", *settings, "python3", *cmd[1:]]
    return cmd, child.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KB on Linux


def timed(root: str, args: list[str], cwd: str) -> dict:
    start = time.perf_counter()
    cmd, code, rss = cli(root, args, cwd)
    wall = time.perf_counter() - start
    return {"command": cmd, "exit": code,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def probe(root: str, code: str, cwd: str) -> dict:
    """Run a PROBES script on the export at root, single-threaded: its exit
    status and the times it prints as its last line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **SINGLE_THREADED)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)
    try:
        times = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"exit": proc.returncode or 1, "stderr": proc.stderr[-2000:]}
    return {"exit": proc.returncode,
            "metrics": {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
                        for name, value in times.items()}}


def tier1(root: str) -> dict:
    """Run the test suite of the export at root, single-threaded, from the
    export: its exit status, passed count, wall and user CPU seconds (the
    suite's and its subprocesses', from wait4) and its slowest tests."""
    cmd = [sys.executable, *TIER1_ARGS]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **SINGLE_THREADED)
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    lines = out.splitlines()
    passed = re.search(r"(\d+) passed", lines[-1] if lines else "")
    slowest = [ln for ln in lines if re.match(r"[\d.]+s (call|setup|teardown) ", ln)]
    settings = [f"{name}={value}" for name, value in SINGLE_THREADED.items()]
    return {"command": ["PYTHONPATH=src", *settings, "python3", *cmd[1:]], "exit": child.returncode,
            "summary_line": lines[-1] if lines else "", "slowest": slowest,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "user_cpu_s": {"value": usage.ru_utime, "unit": "s"},
                        "passed": {"value": int(passed.group(1)) if passed else 0, "unit": "count"}}}


def quartiles(values: list[float]) -> list[float] | None:
    """The first and third quartiles, or None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(runs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and in how many pairs head did better."""
    out = {}
    names = {m for r in runs for m in r.get("metrics", {})}
    lower_names = lower_is_better(names)
    for name in sorted(names):
        by_pair: dict[int, dict] = {}
        for r in runs:
            if name in r.get("metrics", {}):
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]["value"]
        pairs = [v for v in by_pair.values() if len(v) == 2]
        lower = name in lower_names
        better = sum((v["head"] < v["base"]) if lower else (v["head"] > v["base"]) for v in pairs)
        base = statistics.median(v["base"] for v in pairs)
        head = statistics.median(v["head"] for v in pairs)
        out[name] = {"base_median": base, "head_median": head,
                     "base_quartiles": quartiles([v["base"] for v in pairs]),
                     "head_quartiles": quartiles([v["head"] for v in pairs]),
                     "head_over_base": head / base if base else None,
                     "head_better_pairs": better, "pairs": len(pairs),
                     "better": "lower" if lower else "higher"}
    return out


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"platform": platform.platform(), "cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--topic", required=True)
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="bench-") as scratch:
        sides = {"base": resolve(args.base, scratch), "head": resolve(None, scratch)}
        roots = {}
        for side, info in sides.items():
            roots[side] = os.path.join(scratch, side)
            export(info["tree"], roots[side])
        files = {}
        for family, n in ANALYZE_INPUTS:
            name = f"{family}{n}.txt"
            cmd, code, _ = cli(roots["base"], ["generate", family, "--n", str(n), "--out", name], scratch)
            if code:
                raise subprocess.CalledProcessError(code, cmd)
            files[name] = cmd
        results: dict[str, dict] = {}
        for name in [*WORKLOADS, *files, *VERIFY_INPUTS, *PROBES, *SINGLE_PROBES, TIER1]:
            runs = []
            for pair in range(1 if name in SINGLE_PROBES or name == TIER1 else PAIRS):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    if name in files:
                        run = timed(roots[side], ["analyze", name, *ANALYZE_ARGS], scratch)
                    elif name in VERIFY_INPUTS:
                        run = timed(roots[side], VERIFY_INPUTS[name], scratch)
                    elif name in PROBES or name in SINGLE_PROBES:
                        run = probe(roots[side], {**PROBES, **SINGLE_PROBES}[name], scratch)
                    elif name == TIER1:
                        run = tier1(roots[side])
                    else:
                        run = perfbench(roots[side], name, pair + 1)
                    runs.append({"pair": pair, "side": side, **run})
                    print(f"{name} pair {pair} {side}: exit {run['exit']}", file=sys.stderr)
            expected = VERIFY_EXIT.get(name, 0)
            ok = all(r["exit"] == expected and r.get("correct", True) for r in runs)
            results[name] = {"all_ok": ok, "expected_exit": expected, "runs": runs,
                             "summary": summarize(runs)}
    doc = {"topic": args.topic, "machine": machine(), "sides": sides, "pairs": PAIRS,
           "inputs": files, "results": results}
    out = os.path.join(ROOT, f"BENCH_{args.topic}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
