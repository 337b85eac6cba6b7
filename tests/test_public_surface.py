"""Every public name, and every layer the benchmark traces, resolves.

The benchmark's tracer wraps the functions that ``BENCHMARK.json`` names
in its per-layer keys; a pruned or renamed one fails its traced run, so
it is caught here first.  This only reads ``BENCHMARK.json``.
"""

import importlib
import json
import types
from pathlib import Path

import wsol

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SUFFIX = ".calls_per_op"


def test_every_exported_name_resolves():
    assert [name for name in wsol.__all__ if not hasattr(wsol, name)] == []


def test_every_public_name_is_exported_once_and_no_submodule():
    # The other direction: each public name the package binds is in
    # ``__all__``, sorted and once, and a submodule is not.
    public = [
        name
        for name, value in vars(wsol).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert wsol.__all__ == sorted(set(public))
    assert "confusion" in vars(wsol) and "confusion" not in wsol.__all__


def _resolves(module, path: list[str]) -> bool:
    """``path`` names an attribute of ``module`` or of a class it defines;
    the tracer's keys drop the class of a method (``threshold.cdf``)."""
    owners = [module] + [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    for target in owners:
        for attr in path:
            target = getattr(target, attr, None)
        if target is not None:
            return True
    return False


def test_every_traced_layer_resolves():
    layers = [
        entry["name"][: -len(SUFFIX)]
        for entry in json.loads(BENCHMARK.read_text())["per_layer"]
        if entry["name"].endswith(SUFFIX)
    ]
    assert layers, "BENCHMARK.json names no traced layer"
    missing = [
        layer
        for module, *path in (layer.split(".") for layer in layers)
        if not _resolves(importlib.import_module(f"wsol.{module}"), path)
    ]
    assert missing == []
