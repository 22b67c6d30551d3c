"""Every exported name and every name the benchmark traces resolves."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import posetdecomp
from posetdecomp import cli, verify

import test_boundary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load(path: Path, name: str):
    """A benchmark module, loaded by path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_exports_resolve():
    assert [name for name in posetdecomp.__all__ if not hasattr(posetdecomp, name)] == []


def test_traced_functions_exist():
    # the benchmark's tracer rebinds each module.function by name and refuses
    # to start when one is gone
    spans = _load(SPANS, "perfbench_spans")
    missing = []
    for name in spans.TRACED:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"posetdecomp.{module}"), attr, None)):
            missing.append(name)
    assert missing == []
    for module in spans.MODULES:
        importlib.import_module(f"posetdecomp.{module}")


def test_benchmark_names_the_battery_checks():
    # the benchmark builds its per-check metrics from its own list of names,
    # so a renamed or added check would read 0 there and fail nowhere
    run = _load(PERFBENCH / "run.py", "perfbench_run")
    assert run.CHECKS == verify.DEFAULT_CHECKS


def test_checks_take_analysis_and_seed():
    # the benchmark's span wrapper calls every check as check(an, seed=seed)
    for name, check in verify._CHECKS.items():
        params = inspect.signature(check).parameters.values()
        assert [(q.name, q.default) for q in params] == [
            ("an", inspect.Parameter.empty),
            ("seed", 0),
        ], name


def test_sections_take_two_positional_arguments():
    # the benchmark's span wrapper calls every analyze section as fn(an, unsafe)
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for name, section in cli._SECTIONS.items():
        params = inspect.signature(section).parameters.values()
        assert [(q.kind in positional, q.default) for q in params] == [
            (True, inspect.Parameter.empty),
        ] * 2, name


def test_decomposition_entry_points_are_in_the_boundary_table():
    # a new callable that takes a poset p and a decomposition d or parts must
    # read it by the one rule, and the boundary table is where that is tested
    takers = []
    for name in posetdecomp.__all__:
        obj = getattr(posetdecomp, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtin exception classes
            continue
        if "p" in params and ("d" in params or "parts" in params):
            takers.append(name)
    assert takers and sorted(takers) == sorted(test_boundary.ENTRY_POINTS)
