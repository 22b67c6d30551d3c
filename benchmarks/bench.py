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
side's `generate` wrote, and each command in VERIFY_INPUTS as one
`posetdecomp` process, for its wall time and peak RSS, under the BLAS
thread settings perfbench gives its children (one thread), so that no BLAS
thread pool sets a record's time or peak RSS.  The JSON holds the
machine, both revisions, the exact commands, every run, and per metric each
side's median and quartiles and the number of pairs in which head beat base
(ties count for neither).
The perfbench commands run in each side's export; the other commands run
in the directory that holds both exports, base/ and head/, and the input
files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

PAIRS = 10
WORKLOADS = ("exhaustive-n5", "random-n8", "wrapforest-n20", "analyze-large")
ANALYZE_INPUTS = (("chain", 2000), ("antichain", 2000), ("wrapforest", 8000), ("wrapforest", 16000))
ANALYZE_ARGS = ["--dilworth", "--mhcd", "--json"]
# the enumeration at n = 6 under the battery's cheapest check, the segments
# check (the avoider walk and its prefix replay) alone on every n <= 5 poset,
# the cut check alone on wrap forests of 30 elements, the homogeneous check
# (its merge replays) alone on wrap forests of 40, and the bounds check (the
# constructive pipeline) alone on wrap forests of 1000 (about 300 chains) and
# of 16000 (about 4,900 chains), and the embedding check (the symmetry search)
# alone on wrap forests of 200
VERIFY_INPUTS = {
    "verify-n6-deletion": ["verify", "exhaustive", "--nmax", "6", "--unsafe-scope",
                           "--checks", "deletion"],
    "verify-n5-segments": ["verify", "exhaustive", "--nmax", "5", "--checks", "segments"],
    "verify-wrapforest-n30-cut": ["verify", "random", "--family", "wrapforest", "--n", "30",
                                  "--count", "50", "--checks", "cut"],
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
# perfbench/run.py's BLAS settings: one thread
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lower_is_better() -> set[str]:
    """The end-to-end metrics that BENCHMARK.json marks lower-is-better, and wall_s."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    return {m["name"] for m in metrics if m["better"] == "lower"} | {"wall_s"}


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


def quartiles(values: list[float]) -> list[float] | None:
    """The first and third quartiles, or None below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(runs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and in how many pairs head did better."""
    out = {}
    lower_names = lower_is_better()
    names = {m for r in runs for m in r.get("metrics", {})}
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
        for name in [*WORKLOADS, *files, *VERIFY_INPUTS]:
            runs = []
            for pair in range(PAIRS):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    if name in files:
                        run = timed(roots[side], ["analyze", name, *ANALYZE_ARGS], scratch)
                    elif name in VERIFY_INPUTS:
                        run = timed(roots[side], VERIFY_INPUTS[name], scratch)
                    else:
                        run = perfbench(roots[side], name, pair + 1)
                    runs.append({"pair": pair, "side": side, **run})
                    print(f"{name} pair {pair} {side}: exit {run['exit']}", file=sys.stderr)
            ok = all(r["exit"] == 0 and r.get("correct", True) for r in runs)
            results[name] = {"all_ok": ok, "runs": runs, "summary": summarize(runs)}
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
