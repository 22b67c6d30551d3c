"""Benchmark of the posetdecomp verifier: one workload per run, checked and measured.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a child process (perfbench/child.py) that builds the
program's inputs, measures a closed loop of one input after another, and
reports every input's time and result.  This process checks the results
against the invariants pinned in perfbench/reference.json (labeled poset
counts, the Catalan check, and per-input digests of the five minima, the
MHCD size, the admissible-cut count and |Aut|), then prints a details line
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a traced pass (perfbench/spans.py).  Times are scaled to
a nominal machine speed (perfbench/speed.py); the details line also gives
the unscaled set-up times and throughput.  See BENCHMARK.json
for the workloads and metrics and perfbench/notes.json for the reasoning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# the names in workloads.py, repeated so that this process never imports the program
WORKLOADS = ("exhaustive-n5", "random-n8", "wrapforest-n20", "analyze-large")
LABELED_COUNTS = [1, 1, 3, 19, 219, 4231]
CHILD_TIMEOUT_S = 170
CHECKS = ("dilworth", "homogeneous", "deletion", "cut", "embedding", "bounds",
          "segments", "noncrossing-trivial")

# per-layer metric -> (kind, traced name); kinds: calls, s, items, per_poset
PER_LAYER = {
    "kernels.min_descents.calls": ("calls", "kernels.min_descents"),
    "kernels.min_descents.s": ("s", "kernels.min_descents"),
    "kernels.permutations_avoiding.calls": ("calls", "kernels.permutations_avoiding"),
    "kernels.permutations_avoiding.s": ("s", "kernels.permutations_avoiding"),
    "kernels.permutations_avoiding.yielded": ("items", "kernels.permutations_avoiding"),
    "nccd.ascending_runs_decomposition.calls": ("calls", "nccd.ascending_runs_decomposition"),
    "nccd.ascending_runs_decomposition.s": ("s", "nccd.ascending_runs_decomposition"),
    "nccd.crossing_witness.calls": ("calls", "nccd.crossing_witness"),
    "nccd.crossing_witness.s": ("s", "nccd.crossing_witness"),
    "nccd.descent_profile.calls": ("calls", "nccd.descent_profile"),
    "nccd.all_132_avoiding.s": ("s", "nccd.all_132_avoiding"),
    "nccd.all_132_avoiding.yielded": ("items", "nccd.all_132_avoiding"),
    "nccd.minimum_noncrossing_decomposition.s": ("s", "nccd.minimum_noncrossing_decomposition"),
    "nccd.wrap_order.s": ("s", "nccd.wrap_order"),
    "nccd.canonical_chain_order.calls": ("calls", "nccd.canonical_chain_order"),
    "nccd.canonical_chain_order.s": ("s", "nccd.canonical_chain_order"),
    "nccd.derived_extension.s": ("s", "nccd.derived_extension"),
    "nccd.verify_chain_bounds.s": ("s", "nccd.verify_chain_bounds"),
    "hcd.mhcd.calls": ("calls", "hcd.mhcd"),
    "hcd.mhcd.s": ("s", "hcd.mhcd"),
    "hcd.mhcd.per_poset": ("per_poset", "hcd.mhcd"),
    "hcd.chain_comparability.calls": ("calls", "hcd.chain_comparability"),
    "hcd.chain_comparability.s": ("s", "hcd.chain_comparability"),
    "hcd.is_homogeneous.calls": ("calls", "hcd.is_homogeneous"),
    "hcd.verify_embedding.s": ("s", "hcd.verify_embedding"),
    "hcd.graph_automorphisms.s": ("s", "hcd.graph_automorphisms"),
    "hcd.deletion_bounds.s": ("s", "hcd.deletion_bounds"),
    "cut.enumerate_proper_cuts.yielded": ("items", "cut.enumerate_proper_cuts"),
    "cut.enumerate_admissible_cuts.s": ("s", "cut.enumerate_admissible_cuts"),
    "cut.enumerate_admissible_cuts.found": ("items", "cut.enumerate_admissible_cuts"),
    "cut.verify_cut_identity.calls": ("calls", "cut.verify_cut_identity"),
    "cut.verify_cut_identity.s": ("s", "cut.verify_cut_identity"),
    "cut.d_matrix.calls": ("calls", "cut.d_matrix"),
    "cut.d_matrix.s": ("s", "cut.d_matrix"),
    "cut.j_matrix.calls": ("calls", "cut.j_matrix"),
    "poset.Poset.calls": ("calls", "poset.Poset"),
    "poset.Poset.s": ("s", "poset.Poset"),
    "poset.from_cover_relations.s": ("s", "poset.from_cover_relations"),
    "poset.enumerate_posets.s": ("s", "poset.enumerate_posets"),
    "poset.enumerate_posets.yielded": ("items", "poset.enumerate_posets"),
    "poset.signed_chain_count_matrix.calls": ("calls", "poset.signed_chain_count_matrix"),
    "poset.signed_chain_count_matrix.s": ("s", "poset.signed_chain_count_matrix"),
    "poset.mobius_matrix.s": ("s", "poset.mobius_matrix"),
    "poset.automorphisms.s": ("s", "poset.automorphisms"),
    "poset.automorphisms.found": ("items", "poset.automorphisms"),
    "chains.minimum_chain_decomposition.s": ("s", "chains.minimum_chain_decomposition"),
    "chains.maximum_antichain.s": ("s", "chains.maximum_antichain"),
    "chains.enumerate_chain_decompositions.s": ("s", "chains.enumerate_chain_decompositions"),
    "chains.enumerate_chain_decompositions.yielded": ("items", "chains.enumerate_chain_decompositions"),
    "textio.loads.s": ("s", "textio.loads"),
    "textio.dumps.s": ("s", "textio.dumps"),
    **{f"verify.check.{c}.s": ("s", f"verify.check.{c}") for c in CHECKS},
    **{f"verify.check.{c}.skipped": ("items", f"verify.check.{c}") for c in CHECKS},
    "verify.run_poset_checks.s": ("s", "verify.run_poset_checks"),
    "cli.analyze.dilworth.s": ("s", "cli.analyze.dilworth"),
    "cli.analyze.mhcd.s": ("s", "cli.analyze.mhcd"),
    "cli.main.s": ("s", "cli.main"),
}


def child_command(workload: str, seed: int, seconds: float, *extra: str) -> list[str]:
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    return [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--workdir", workdir, *extra]


def child_env() -> dict:
    """One single-threaded process, reproducible hashing, the package from ./src only."""
    env = dict(os.environ, POSET_DECOMP_THREADS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: the smallest value with at least a share q of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version()}


def gate(report: dict, reference: dict) -> list[str]:
    """Reasons the workload's outputs are wrong; empty when they are correct."""
    problems = []
    pinned = reference[report["workload"]]
    for rec in report["records"]:
        if rec["status"] == "false":
            problems.append(f"input {rec['key']}: a check returned a false verdict")
        elif rec["status"] == "ok":
            if rec["key"] not in pinned:
                problems.append(f"input {rec['key']}: not in the pinned reference")
            elif pinned[rec["key"]] is not None and rec["digest"] != pinned[rec["key"]]:
                problems.append(f"input {rec['key']}: invariants differ from the pinned digest")
    glob = report["global"]
    if "labeled_counts" in glob and glob["labeled_counts"] != LABELED_COUNTS:
        problems.append(f"labeled poset counts {glob['labeled_counts']} != {LABELED_COUNTS}")
    if glob.get("catalan") is False:
        problems.append("the Catalan check failed")
    return problems


def end_to_end(report: dict) -> tuple[dict, dict]:
    """End-to-end metrics, each failure charged the full deadline; plus details."""
    recs = report["records"]
    deadline = report["deadline_s"]
    charged = [r["s"] if r["status"] == "ok" else deadline for r in recs]
    passed = [r for r in recs if r["status"] == "ok"]
    checks = sum(r["checks"] for r in passed)
    skipped = sum(r["skipped"] for r in passed)
    q = report["tail_q"]
    metrics = {
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "posets_per_s": (len(passed) / sum(charged), "1/s"),
        "poset_ms.p50": (1000 * percentile(charged, 0.5), "ms"),
        "poset_ms.tail": (1000 * percentile(charged, q), "ms"),
        "checked_frac": (1 - skipped / checks if checks else 0.0, "frac"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    details = {
        "failed_frac": (len(recs) - len(passed)) / len(recs),
        "skipped_frac": skipped / checks if checks else 0.0,
        "tail_percentile": f"p{round(100 * q)}",
        "samples": len(recs),
        "samples_beyond_tail": len(recs) - math.ceil(q * len(recs)),
    }
    return metrics, details


def per_layer(report: dict) -> dict:
    tr = report["trace"]
    out = {}
    for metric, (kind, name) in PER_LAYER.items():
        if kind == "s":
            out[metric] = (tr["self_s"].get(name, 0.0), "s")
        elif kind == "per_poset":
            out[metric] = (tr["calls"].get(name, 0) / tr["posets"], "calls/poset")
        else:
            out[metric] = (tr[kind].get(name, 0), "count")
    proper = tr["items"].get("cut.enumerate_proper_cuts", 0)
    found = tr["items"].get("cut.enumerate_admissible_cuts", 0)
    out["cut.admissible_ratio"] = (found / proper if proper else 0.0, "ratio")
    out["trace.overhead_frac"] = (tr["traced_s"] / tr["untraced_s"] - 1, "frac")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "posetdecomp", "__init__.py")):
        print("error: run from the repository root (src/posetdecomp not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    child = subprocess.Popen(
        child_command(args.workload, args.seed, args.seconds, "--trace", str(args.trace)),
        stdout=subprocess.PIPE, env=child_env(), text=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"error: {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: {args.workload} child exited {child.returncode}", file=sys.stderr)
        return 1
    report = json.loads(out.strip().splitlines()[-1])

    problems = gate(report, reference)
    for problem in problems:
        print(f"[{args.workload}] incorrect: {problem}", file=sys.stderr)
    recs = report["records"]
    failures = [
        {"workload": args.workload, "input": r["key"], "status": r["status"],
         "exception": r.get("exception", "false verdict")}
        for r in recs if r["status"] != "ok"
    ]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "command": ["python3", "perfbench/run.py", *sys.argv[1:]],
        "backend": report["backend"],
        "numpy": report["numpy"],
        "machine": machine(),
        "population": report["population"],
        "pass": report["pass"],
        "window_s": report["window_s"],
        "setup_runs_s": report["setup_s"],
        "unscaled_setup_runs_s": report["raw_setup_s"],
        "unscaled_posets_per_s": sum(r["status"] == "ok" for r in recs)
        / sum(r["raw_s"] if r["status"] == "ok" else report["deadline_s"] for r in recs),
        "meter": report["meter"],
        "global_checks": report["global"],
        "failures": failures,
        "problems": problems,
    }
    if args.trace:
        metrics = per_layer(report)
        for key in ("posets", "spans", "traced_s", "untraced_s"):
            details[f"trace_{key}"] = report["trace"][key]
        details["trace_self_s_total"] = sum(report["trace"]["self_s"].values())
    else:
        metrics, extra = end_to_end(report)
        details.update(extra)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(recs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
