"""The four benchmark workloads: their inputs, how one input is run, and its invariants.

Every workload has a fixed population of inputs; the workload seed fixes the
order in which the closed loop visits it.  A run measures whole passes,
because a handful of inputs carry a large share of the time (an |Aut| = 720
poset, a deadline failure) and a partial pass would make the figures depend
on whether those were reached.  A pass of `exhaustive-n5` visits a seeded
quarter of its 4474 posets, stratified so that every run sees the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

# module attributes, not names imported from them, so that tracing sees the calls
from posetdecomp import cli, generate, poset, textio, verify

from spans import is_skipped

ANALYZE_ARGS = ("--dilworth", "--mhcd", "--json")


class Workload:
    name = ""
    deadline_s = 8.0  # twice the slowest passing input (wrap_forest(20, 84), about 4 nominal s)
    setups = 5  # set-up repetitions per run; setup_s is their median
    tail_q = 0.95  # the reported tail percentile; ten or more samples lie beyond it in every run

    def setup(self, workdir: str) -> list[tuple[str, object]]:
        """Build the population as (key, input) pairs, in canonical order."""
        raise NotImplementedError

    def order(self, population: list, seed: int) -> list:
        """The inputs of one pass, in the order visited: the population shuffled by the seed."""
        items = list(population)
        random.Random(seed).shuffle(items)
        return items

    def run(self, item, call) -> dict:
        """Run one input; `call(name, fn, *args)` calls fn, as a span when tracing.

        Returns the verdict, the number of checks and of skipped checks, and
        a digest of the input's label-invariant results.
        """
        raise NotImplementedError

    def global_checks(self) -> dict:
        return {}


def digest(invariants: dict) -> str:
    blob = json.dumps(invariants, sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


class Sweep(Workload):
    """The default eight-check battery, one poset at a time."""

    def run(self, p, call) -> dict:
        res = call("verify.run_poset_checks", verify.run_poset_checks, p)
        checks = {c["name"]: c for c in res["checks"]}
        bounds = dict(checks["bounds"]["details"])
        bounds.pop("scans", None)
        invariants = {
            "n": p.n,
            "dilworth": checks["dilworth"]["details"]["chains"],
            "mhcd_k": checks["homogeneous"]["details"]["k"],
            "admissible_cuts": checks["cut"]["details"]["admissible_cuts"],
            "aut": checks["embedding"]["details"]["aut_poset"],
            "bounds": bounds,
        }
        return {
            "ok": res["ok"],
            "checks": len(res["checks"]),
            "skipped": sum(is_skipped(c) for c in res["checks"]),
            "digest": digest(invariants),
        }


class ExhaustiveN5(Sweep):
    name = "exhaustive-n5"
    # p99 would have ten samples beyond it, but its run-to-run spread exceeded
    # the bound on a shared 2-CPU machine; p95 has over fifty.

    def setup(self, workdir):
        self.counts = []
        population = []
        for n in range(6):
            posets = list(poset.enumerate_posets(n, cap=5))
            self.counts.append(len(posets))
            population.extend((f"{n}.{i}", p) for i, p in enumerate(posets))
        return population

    def order(self, population, seed):
        """One of each four consecutive posets in shape order, shuffled by the seed.

        Isomorphic posets share a shape, so each isomorphism class gives a
        quarter of its labelings, give or take one, and the mix of cheap and
        costly posets (which sets the tail) is the same in every run.
        """
        rng = random.Random(seed)
        ranked = sorted(population, key=lambda item: _shape(item[1]))
        items = [rng.choice(ranked[i:i + 4]) for i in range(0, len(ranked), 4)]
        rng.shuffle(items)
        return items

    def global_checks(self) -> dict:
        return {"labeled_counts": self.counts, "catalan": verify.check_catalan_counts()["passed"]}


def _shape(p) -> tuple:
    """A label-invariant key: size and the sorted (up-degree, down-degree) pairs."""
    return p.n, sorted(zip(p.lt.sum(axis=1).tolist(), p.lt.sum(axis=0).tolist()))


class RandomN8(Sweep):
    name = "random-n8"

    def setup(self, workdir):
        return [(str(s), generate.random_poset(8, density=0.3, seed=s)) for s in range(400)]


class WrapForestN20(Sweep):
    name = "wrapforest-n20"

    def setup(self, workdir):
        return [(str(s), generate.wrap_forest(20, seed=s)) for s in range(200)]


class AnalyzeLarge(Workload):
    """`posetdecomp analyze FILE --dilworth --mhcd --json` on large posets."""

    name = "analyze-large"
    deadline_s = 20.0
    setups = 2  # 6 to 10 s each on a 2-CPU Xeon
    tail_q = 0.5  # three inputs per pass: only the median is reportable
    FILES = {
        "wf600": lambda: generate.wrap_forest(600, seed=0),
        "rnd300": lambda: generate.random_poset(300, density=0.3, seed=0),
        "chain1000": lambda: generate.chain(1000),
    }

    def order(self, population, seed):
        """Always the order of FILES: the first file runs on a cold heap and takes
        about 20% longer than after another file, so a seeded order would move
        the median with the seed."""
        return list(population)

    def setup(self, workdir):
        population = []
        for key, make in self.FILES.items():
            path = os.path.join(workdir, f"{key}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(textio.dumps(make()))
            population.append((key, path))
        return population

    def run(self, path, call) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = call("cli.main", cli.main, ["analyze", path, *ANALYZE_ARGS])
        if code not in (0, 1):
            raise RuntimeError(f"analyze exited {code}")
        doc = json.loads(out.getvalue())
        sec = doc["sections"]
        invariants = {
            "n": doc["n"],
            "dilworth": [sec["dilworth"]["minimum_chains"], sec["dilworth"]["maximum_antichain"]],
            "mhcd_k": sec["mhcd"]["k"],
        }
        return {"ok": code == 0 and doc["ok"], "checks": 2, "skipped": 0, "digest": digest(invariants)}


WORKLOADS = {w.name: w for w in (ExhaustiveN5(), RandomN8(), WrapForestN20(), AnalyzeLarge())}
