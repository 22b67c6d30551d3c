"""Span tracing of posetdecomp from outside the package.

`install()` wraps the public functions named in `TRACED` at every place they
are bound: the defining module, every module that imported them with
`from .x import y`, and the dispatch tables `verify._CHECKS` and
`cli._SECTIONS`.  Each call becomes a span (name, start, end, parent span,
poset id) kept in flat in-memory arrays; self time is the span's duration
minus the time of its child spans.  Nothing here changes a return value.
"""

from __future__ import annotations

import array
import sys
import time
from collections import defaultdict

# module.function -> what to count beyond calls and self time.
# "len" counts the items of a returned list, "yield" the items of a returned
# iterator (each step its own span), "calls" records calls only (no span, for
# very frequent helpers).
TRACED = {
    "kernels.min_descents": None,
    "kernels.permutations_avoiding": "len",
    "nccd.ascending_runs_decomposition": None,
    "nccd.crossing_witness": None,
    "nccd.descent_profile": "calls",
    "nccd.all_132_avoiding": "len",
    "nccd.minimum_noncrossing_decomposition": None,
    "nccd.wrap_order": None,
    "nccd.canonical_chain_order": None,
    "nccd.derived_extension": None,
    "nccd.verify_chain_bounds": None,
    "hcd.mhcd": None,
    "hcd.chain_comparability": None,
    "hcd.is_homogeneous": "calls",
    "hcd.verify_embedding": None,
    "hcd.graph_automorphisms": None,
    "hcd.deletion_bounds": None,
    "cut.enumerate_proper_cuts": "yield",
    "cut.enumerate_admissible_cuts": "len",
    "cut.verify_cut_identity": None,
    "cut.d_matrix": None,
    "cut.j_matrix": "calls",
    "poset.signed_chain_count_matrix": None,
    "poset.mobius_matrix": None,
    "poset.automorphisms": "len",
    "poset.enumerate_posets": "yield",
    "chains.minimum_chain_decomposition": None,
    "chains.maximum_antichain": None,
    "chains.enumerate_chain_decompositions": "yield",
    "textio.loads": None,
    "textio.dumps": None,
}

MODULES = ("kernels", "_reference", "poset", "chains", "hcd", "cut", "nccd",
           "textio", "generate", "verify", "cli")


class Tracer:
    """Spans in flat arrays plus per-name call counts, self time and item counts."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_poset = array.array("i")
        self.poset_id = -1
        self._stack: list[list] = []  # [span index, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name: str) -> None:
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_poset.append(self.poset_id)
        self.span_end.append(0.0)
        start = self.clock()
        self.span_start.append(start)
        self._stack.append([idx, start, 0.0])

    def exit(self) -> None:
        end = self.clock()
        idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_s[self.names[self.span_name[idx]]] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name: str, fn, *args, **kwargs):
        self.calls[name] += 1
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def end_item(self) -> None:
        """Drop spans left open, should a deadline have interrupted enter or exit."""
        self._stack.clear()

    def write(self, path: str) -> None:
        """Write every span as one text line: name start end parent poset."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]} {self.span_start[i]:.9f} "
                    f"{self.span_end[i]:.9f} {self.span_parent[i]} {self.span_poset[i]}\n"
                )


def _wrap(tracer: Tracer, name: str, fn, count):
    if count == "calls":
        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    if count == "yield":
        def iterated(*args, **kwargs):
            return _iterate(tracer, name, iter(tracer.span(name, fn, *args, **kwargs)))
        return iterated

    def spanned(*args, **kwargs):
        out = tracer.span(name, fn, *args, **kwargs)
        if count == "len":
            tracer.items[name] += len(out)
        return out
    return spanned


def _iterate(tracer: Tracer, name: str, it):
    """Yield from `it`, each step a span of `name`, counting the items."""
    while True:
        tracer.enter(name)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.exit()
        tracer.items[name] += 1
        yield item


def _rebind(original, replacement) -> int:
    """Replace `original` in the package and every module namespace; return sites."""
    sites = 0
    for mod in ("posetdecomp", *(f"posetdecomp.{m}" for m in MODULES)):
        ns = vars(sys.modules[mod])
        for attr, value in list(ns.items()):
            if value is original:
                ns[attr] = replacement
                sites += 1
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding site."""
    from posetdecomp import cli, poset, verify

    for mod in MODULES:
        __import__(f"posetdecomp.{mod}")
    for name, count in TRACED.items():
        mod, attr = name.split(".")
        original = getattr(sys.modules[f"posetdecomp.{mod}"], attr)
        wrapped = _wrap(tracer, name, original, count)
        if _rebind(original, wrapped) == 0:
            raise RuntimeError(f"{name}: no binding site found")

    cls = poset.Poset
    init = cls.__init__
    cls.__init__ = lambda self, *a, **k: tracer.span("poset.Poset", init, self, *a, **k)
    from_covers = cls.__dict__["from_cover_relations"].__func__
    cls.from_cover_relations = classmethod(
        lambda c, *a, **k: tracer.span("poset.from_cover_relations", from_covers, c, *a, **k)
    )

    for check, fn in list(verify._CHECKS.items()):
        verify._CHECKS[check] = _check_wrapper(tracer, check, fn)
    for section in ("dilworth", "mhcd"):
        fn = cli._SECTIONS[section]
        cli._SECTIONS[section] = (
            lambda p, unsafe, _fn=fn, _name=f"cli.analyze.{section}":
            tracer.span(_name, _fn, p, unsafe)
        )


def _check_wrapper(tracer: Tracer, check: str, fn):
    name = f"verify.check.{check}"

    def wrapped(p, seed=0):
        out = tracer.span(name, fn, p, seed=seed)
        if is_skipped(out):
            tracer.items[name] += 1
        return out
    return wrapped


def is_skipped(check_result: dict) -> bool:
    """True when a check reports that it skipped its work (fixed size caps)."""
    details = check_result.get("details", {})
    return "skipped" in details or details.get("scans") == "skipped"
