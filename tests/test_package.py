"""The package's public surface."""

import importlib
import os

import pidga


def test_every_exported_name_resolves_once():
    assert len(set(pidga.__all__)) == len(pidga.__all__)
    missing = [name for name in pidga.__all__ if not hasattr(pidga, name)]
    assert missing == []


def test_every_traced_binding_resolves(monkeypatch):
    # perfbench's tracer getattrs each (module, name) it wraps, so a name
    # dropped from a module would break the traced benchmark run
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(bench)
    workloads = importlib.import_module("workloads")
    missing = [f"{module.__name__}.{name}"
               for module, name, *_ in workloads.TRACE_POINTS
               if not hasattr(module, name)]
    assert missing == []
