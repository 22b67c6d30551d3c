"""Deterministic poset families used by the CLI, the tests and the verifier.

Every family refuses a negative size with ValueError, and `random_poset` a
density outside [0, 1].
"""

from __future__ import annotations

import itertools
import random

from .errors import refuse_density, refuse_negative
from .poset import Poset, _close_acyclic


def chain(n: int) -> Poset:
    """Total order 1 < 2 < ... < n."""
    refuse_negative("n", n)
    labels = [str(i) for i in range(1, n + 1)]
    return Poset.from_cover_relations(labels, zip(labels, labels[1:]))


def antichain(n: int) -> Poset:
    """n mutually incomparable elements."""
    refuse_negative("n", n)
    return Poset.from_cover_relations([str(i) for i in range(1, n + 1)], [])


def boolean_lattice(k: int) -> Poset:
    """Subsets of {1..k} ordered by inclusion; boolean_lattice(2) is the diamond."""
    refuse_negative("k", k)
    masks = range(1 << k)
    labels = ["{" + ",".join(str(b + 1) for b in range(k) if m >> b & 1) + "}" for m in masks]
    covers = [(labels[m], labels[m | 1 << b]) for m in masks for b in range(k) if not m >> b & 1]
    return Poset.from_cover_relations(labels, covers)


def two_chain_fan(k: int) -> Poset:
    """k disjoint 2-chains a_i < b_i plus one extra z with a_i < z for all i.

    z sits above every minimum and is incomparable to every maximum, which
    pins each element into its own chain of the minimal homogeneous
    decomposition; deleting z lets the 2-chains reunite.
    """
    refuse_negative("k", k)
    labels = [f"a{i}" for i in range(1, k + 1)] + [f"b{i}" for i in range(1, k + 1)] + ["z"]
    covers = []
    for i in range(1, k + 1):
        covers.append((f"a{i}", f"b{i}"))
        covers.append((f"a{i}", "z"))
    return Poset.from_cover_relations(labels, covers)


def random_poset(n: int, density: float = 0.3, seed: int = 0) -> Poset:
    """Random labeled poset: closure of a random upper-triangular relation.

    Deterministic for a given (n, density, seed).  Refuses a density outside
    [0, 1], NaN included (ValueError).
    """
    refuse_negative("n", n)
    refuse_density(density)
    rng = random.Random(seed)
    succ = [[j for j in range(i + 1, n) if rng.random() < density] for i in range(n)]
    _, rows = _close_acyclic(succ)
    return Poset._from_rows(tuple(f"x{i}" for i in range(n)), *rows)


def wrap_forest(n: int, seed: int = 0) -> Poset:
    """Random poset whose minimal homogeneous decomposition admits cuts.

    Chains of length >= 2 are nested so that every internal chain wraps >= 2
    child chains inside one common interior gap.  Two children of the same
    chain stay incomparable, which blocks every merge, so the construction
    chains are exactly the minimal homogeneous decomposition; every comparable
    chain pair is a strict wrap, so proper cuts that respect the wrap
    boundaries are admissible.
    """
    refuse_negative("n", n)
    rng = random.Random(seed)
    counter = itertools.count()
    covers: list[tuple[str, str]] = []
    labels: list[str] = []

    def new_chain(length: int) -> list[str]:
        elems = [f"w{next(counter)}" for _ in range(length)]
        labels.extend(elems)
        covers.extend(zip(elems, elems[1:]))
        return elems

    def build(budget: int) -> list[str]:
        # a node keeps >= 2 labels for its own chain; children need >= 2 each
        if budget >= 6 and rng.random() < 0.7:
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

    if n == 1:
        new_chain(1)
    elif n >= 2:
        roots = _composition(rng, n, rng.randint(1, max(1, n // 4)), 2)
        for part in roots:
            build(part)
    return Poset.from_cover_relations(labels, covers)


def _composition(rng: random.Random, total: int, count: int, minpart: int) -> list[int]:
    """Random composition of `total` into `count` parts, each >= minpart."""
    count = max(1, min(count, total // minpart))
    spare = total - count * minpart
    cuts = sorted(rng.randint(0, spare) for _ in range(count - 1))
    bounds = [0, *cuts, spare]
    return [minpart + bounds[i + 1] - bounds[i] for i in range(count)]


FAMILIES = ("chain", "antichain", "boolean", "fan", "random", "wrapforest")


def make_family(name: str, n: int = 0, density: float = 0.3, seed: int = 0) -> Poset:
    """CLI-facing dispatch; `n` doubles as k for the parameterized families."""
    if name == "chain":
        return chain(n)
    if name == "antichain":
        return antichain(n)
    if name == "boolean":
        return boolean_lattice(n)
    if name == "fan":
        return two_chain_fan(n)
    if name == "random":
        return random_poset(n, density=density, seed=seed)
    if name == "wrapforest":
        return wrap_forest(n, seed=seed)
    raise ValueError(f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
