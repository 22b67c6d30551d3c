"""Every exported name and every name the benchmark traces resolves."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import posetdecomp
from posetdecomp import cli, verify

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_all_exports_resolve():
    assert [name for name in posetdecomp.__all__ if not hasattr(posetdecomp, name)] == []


def test_traced_functions_exist():
    # the benchmark's tracer rebinds each module.function by name and refuses
    # to start when one is gone
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.TRACED:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"posetdecomp.{module}"), attr, None)):
            missing.append(name)
    assert missing == []
    for module in spans.MODULES:
        importlib.import_module(f"posetdecomp.{module}")


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
