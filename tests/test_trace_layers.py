"""The benchmark tracer wraps fracrat functions by name; every name it lists
must still resolve, or `perfbench/run.py --trace 1` fails at start-up."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import fracrat.cli  # noqa: F401  (the tracer wraps names in every fracrat module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_fracrat_function():
    tracing = _load_tracing()
    for module_name, names in tracing.LAYERS.items():
        module = importlib.import_module(f"fracrat.{module_name}")
        for name in names:
            target = module
            for part in name.split("."):
                target = getattr(target, part, None)
                assert target is not None, f"fracrat.{module_name}.{name} is gone"
            assert inspect.isfunction(target), f"fracrat.{module_name}.{name} is not a function"
            assert target.__module__.startswith("fracrat"), f"{module_name}.{name}"


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    original = fracrat.approx.pade
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert fracrat.approx.pade is not original
    finally:
        tracer.uninstall()
    assert fracrat.approx.pade is original


@pytest.mark.parametrize("family", ["diffint", "fopid", "fopd", "leadlag"])
def test_the_traced_cli_reaches_each_realization_through_its_wrapper(family, capsys):
    # the CLI calls a realization by its module-level name, so the tracer's
    # wrapper of that name counts the call
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert fracrat.cli.main(["symbolic", "--controller", family, "--order", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    realization = {"diffint": "realize_differintegrator", "fopid": "realize_fopid",
                   "fopd": "realize_fopd_bracket", "leadlag": "realize_leadlag"}[family]
    assert tracer.layer_totals()[f"controllers.{realization}"][0] == 1
